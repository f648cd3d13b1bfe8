//! Tap-side extraction microbench: isolates the parse-once win.
//!
//! An on-path packet crosses ~12 tapped router hops. Before the
//! `DecodedView` memo, every hop re-decoded the application payload from
//! raw bytes; now the first hop decodes and the rest read the cache. The
//! two variants here measure exactly that difference per protocol —
//! `reparse_per_hop` is the old per-hop cost × hops, `view_cached` is one
//! decode plus (hops − 1) cache reads.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::net::Ipv4Addr;
use traffic_shadowing::shadow_packet::dns::{DnsMessage, DnsName};
use traffic_shadowing::shadow_packet::http::HttpRequest;
use traffic_shadowing::shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use traffic_shadowing::shadow_packet::tcp::{TcpFlags, TcpSegment};
use traffic_shadowing::shadow_packet::tls::ClientHello;
use traffic_shadowing::shadow_packet::udp::UdpDatagram;
use traffic_shadowing::shadow_packet::{extract_visibility, DecodedView};

/// Router hops a decoy typically crosses in the paper's 5–15-hop regime.
const HOPS: u64 = 12;

fn fixture_packets() -> Vec<(&'static str, Ipv4Packet)> {
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 7, 0, 1);
    let domain = "g6d8jjkut5obc4ags2bkdi-9982.www.experiment.example";
    let name = DnsName::parse(domain).unwrap();

    let dns = Ipv4Packet::new(
        src,
        dst,
        IpProtocol::Udp,
        DEFAULT_TTL,
        1,
        UdpDatagram::new(5000, 53, DnsMessage::query(7, name).encode()).encode(),
    );
    let http = Ipv4Packet::new(
        src,
        dst,
        IpProtocol::Tcp,
        DEFAULT_TTL,
        2,
        TcpSegment::new(
            40_000,
            80,
            1,
            1,
            TcpFlags::PSH_ACK,
            HttpRequest::get(domain, "/").encode(),
        )
        .encode(),
    );
    let tls = Ipv4Packet::new(
        src,
        dst,
        IpProtocol::Tcp,
        DEFAULT_TTL,
        3,
        TcpSegment::new(
            40_001,
            443,
            1,
            1,
            TcpFlags::PSH_ACK,
            ClientHello::with_sni(domain, [3u8; 32]).encode_record(),
        )
        .encode(),
    );
    vec![("dns", dns), ("http", http), ("tls", tls)]
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("tap_parse");
    group.throughput(Throughput::Elements(HOPS));
    for (label, pkt) in fixture_packets() {
        group.bench_function(&format!("{label}/reparse_per_hop"), |b| {
            b.iter(|| {
                let mut extracted = 0u64;
                for _ in 0..HOPS {
                    if extract_visibility(black_box(&pkt)).is_some() {
                        extracted += 1;
                    }
                }
                extracted
            })
        });
        group.bench_function(&format!("{label}/view_cached"), |b| {
            b.iter(|| {
                let view = DecodedView::new();
                let mut extracted = 0u64;
                for _ in 0..HOPS {
                    if view.visibility(black_box(&pkt)).is_some() {
                        extracted += 1;
                    }
                }
                extracted
            })
        });
    }
    group.finish();

    shadow_bench::report_peak_rss("tap_parse");
}

criterion_group!(benches, bench);
criterion_main!(benches);
