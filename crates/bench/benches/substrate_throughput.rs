//! Substrate micro-benchmarks: the wire codecs and identifier machinery
//! every packet of the campaign passes through. The criterion means are
//! also written as the `BENCH_substrate.json` record, the codec half of
//! the measurements next to `BENCH_pipeline.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use shadow_bench::hotpath::peak_rss_bytes;
use shadow_bench::record::{self, mib};
use std::net::Ipv4Addr;
use traffic_shadowing::shadow_core::ident::DecoyIdent;
use traffic_shadowing::shadow_packet::dns::{DnsMessage, DnsName};
use traffic_shadowing::shadow_packet::http::HttpRequest;
use traffic_shadowing::shadow_packet::ipv4::{IpProtocol, Ipv4Packet};
use traffic_shadowing::shadow_packet::tls::{sniff_sni, ClientHello};

fn bench(c: &mut Criterion) {
    let name = DnsName::parse("g6d8jjkut5obc4ags2bkdi-9982.www.experiment.example").unwrap();
    let query = DnsMessage::query(0xbeef, name.clone());
    let query_bytes = query.encode();

    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Bytes(query_bytes.len() as u64));
    group.bench_function("dns_encode", |b| b.iter(|| black_box(&query).encode()));
    group.bench_function("dns_decode", |b| {
        b.iter(|| DnsMessage::decode(black_box(&query_bytes)).unwrap())
    });

    let pkt = Ipv4Packet::new(
        Ipv4Addr::new(203, 0, 113, 7),
        Ipv4Addr::new(77, 88, 8, 8),
        IpProtocol::Udp,
        64,
        0x1234,
        query_bytes.clone(),
    );
    let pkt_bytes = pkt.encode();
    group.throughput(Throughput::Bytes(pkt_bytes.len() as u64));
    group.bench_function("ipv4_encode", |b| b.iter(|| black_box(&pkt).encode()));
    group.bench_function("ipv4_decode", |b| {
        b.iter(|| Ipv4Packet::decode(black_box(&pkt_bytes)).unwrap())
    });

    let req = HttpRequest::get(name.as_str(), "/");
    let req_bytes = req.encode();
    group.throughput(Throughput::Bytes(req_bytes.len() as u64));
    group.bench_function("http_decode", |b| {
        b.iter(|| HttpRequest::decode(black_box(&req_bytes)).unwrap())
    });

    let hello = ClientHello::with_sni(name.as_str(), [7u8; 32]).encode_record();
    group.throughput(Throughput::Bytes(hello.len() as u64));
    group.bench_function("tls_sniff_sni", |b| {
        b.iter(|| sniff_sni(black_box(&hello)).unwrap())
    });
    group.finish();

    let ident = DecoyIdent::new(
        1_234_567,
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(8, 8, 8, 8),
        64,
    );
    let label = ident.encode();
    let mut group = c.benchmark_group("ident");
    group.bench_function("encode", |b| b.iter(|| black_box(&ident).encode()));
    group.bench_function("decode", |b| {
        b.iter(|| DecoyIdent::decode(black_box(&label)).unwrap())
    });
    group.finish();
}

/// Runs after the measurement groups: drain the criterion reports and
/// write their means, keyed by routine name. Skipped in `--test` smoke
/// mode so a one-iteration run never overwrites real numbers.
fn save_json(_c: &mut Criterion) {
    if !criterion::test_mode() {
        let reports = criterion::take_reports();
        let mut metrics: Vec<(&str, f64, &str)> = reports
            .iter()
            .map(|r| (r.name.as_str(), r.mean_ns as f64, "ns"))
            .collect();
        metrics.extend(peak_rss_bytes().map(|b| ("peak_rss_mb", mib(b), "MiB")));
        record::write("substrate", &metrics);
    }
    shadow_bench::report_peak_rss("substrate_throughput");
}

criterion_group!(benches, bench, save_json);
criterion_main!(benches);
