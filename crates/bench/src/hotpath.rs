//! The engine hot-path fixture: a router chain with a DPI tap on every hop,
//! fed a stream of DNS/HTTP/TLS decoys. This isolates exactly the cost the
//! zero-copy fast path targets — per-hop event scheduling, payload handling
//! and tap-side protocol extraction — with no campaign logic, honeypots or
//! probe traffic on top (the replay policy triggers 0% of observations).
//!
//! [`run_hot_path`] returns wall-clock metrics; the `pipeline_throughput`
//! harness writes them as the `BENCH_pipeline.json` record.

use std::net::Ipv4Addr;
use std::time::Instant;
use traffic_shadowing::shadow_geo::{Asn, Region};
use traffic_shadowing::shadow_netsim::engine::Engine;
use traffic_shadowing::shadow_netsim::time::{SimDuration, SimTime};
use traffic_shadowing::shadow_netsim::topology::TopologyBuilder;
use traffic_shadowing::shadow_observer::dpi::{DpiConfig, DpiTap};
use traffic_shadowing::shadow_observer::exhibitor::ExhibitorConfig;
use traffic_shadowing::shadow_observer::policy::{
    DelayBucket, ProbeKind, ReplayPolicy, WeightedChoice,
};
use traffic_shadowing::shadow_packet::dns::{DnsMessage, DnsName};
use traffic_shadowing::shadow_packet::http::HttpRequest;
use traffic_shadowing::shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use traffic_shadowing::shadow_packet::tcp::{TcpFlags, TcpSegment};
use traffic_shadowing::shadow_packet::tls::ClientHello;
use traffic_shadowing::shadow_packet::udp::UdpDatagram;

/// Chain length (ASes); each AS contributes two routers, so routes run
/// 8–16 router hops — the 5–15-hop regime the paper measures over.
const CHAIN_ASES: u32 = 8;

/// One measured hot-path run.
#[derive(Debug, Clone)]
pub struct HotPathMetrics {
    /// Decoy packets injected.
    pub packets: u64,
    /// Router-hop arrivals processed (excludes endpoint deliveries).
    pub hops: u64,
    /// All engine events processed.
    pub events: u64,
    pub elapsed_ns: u64,
    pub hops_per_sec: f64,
    pub events_per_sec: f64,
    /// VmHWM at the end of the run (Linux); `None` elsewhere.
    pub peak_rss_bytes: Option<u64>,
}

/// Build the tapped-chain world and drive `packets` decoys through it.
pub fn run_hot_path(packets: u64) -> HotPathMetrics {
    run_hot_path_with(packets, 1 << 16)
}

/// [`run_hot_path`] with an explicit per-tap retention capacity — the
/// memory-profile knob (`examples/rss_probe.rs` sweeps it to attribute
/// peak RSS between in-flight events and retained observations).
pub fn run_hot_path_with(packets: u64, retention_capacity: usize) -> HotPathMetrics {
    let mut tb = TopologyBuilder::new(11);
    for i in 0..CHAIN_ASES {
        let region = if i < CHAIN_ASES / 2 {
            Region::Europe
        } else {
            Region::EastAsia
        };
        tb.add_as(Asn(100 + i), region);
    }
    for i in 0..CHAIN_ASES - 1 {
        tb.link(Asn(100 + i), Asn(101 + i)).unwrap();
    }
    let mut routers = Vec::new();
    for i in 0..CHAIN_ASES {
        for r in 0..2u8 {
            routers.push(
                tb.add_router(Asn(100 + i), Ipv4Addr::new(10 + i as u8, 0, 0, r + 1), true)
                    .unwrap(),
            );
        }
    }
    let client_addr = Ipv4Addr::new(10, 1, 0, 1);
    let server_addr = Ipv4Addr::new(10 + CHAIN_ASES as u8 - 1, 1, 0, 1);
    let client = tb.add_host(Asn(100), client_addr).unwrap();
    let _server = tb.add_host(Asn(100 + CHAIN_ASES - 1), server_addr).unwrap();
    let origin = tb
        .add_host(
            Asn(100 + CHAIN_ASES - 1),
            Ipv4Addr::new(10 + CHAIN_ASES as u8 - 1, 1, 0, 99),
        )
        .unwrap();
    let mut engine = Engine::new(tb.build().unwrap());

    // Observe everything, probe nothing: extraction and retention run at
    // full cost on every hop without adding probe traffic to the event mix.
    let policy = ReplayPolicy {
        trigger_percent: 0,
        delays: vec![WeightedChoice::new(DelayBucket::Seconds(1, 5), 1)],
        protocols: vec![WeightedChoice::new(ProbeKind::Dns, 1)],
        reuse: vec![WeightedChoice::new(1, 1)],
    };
    for &router in &routers {
        engine.add_tap(
            router,
            Box::new(DpiTap::new(DpiConfig {
                label: format!("bench-{router}"),
                watch_dns: true,
                watch_http: true,
                watch_tls: true,
                dst_filter: None,
                exhibitor: ExhibitorConfig {
                    zone_filter: Some(DnsName::parse("www.experiment.example").unwrap()),
                    policy: policy.clone(),
                    retention_capacity,
                    retention_ttl: SimDuration::from_days(2),
                    origins: vec![WeightedChoice::new(origin, 1)],
                },
                seed: 99,
                fingerprints: traffic_shadowing::shadow_observer::FingerprintDb::default(),
                recall_sources: None,
            })),
        );
    }

    for i in 0..packets {
        let label = format!("b{i}");
        let domain = format!("{label}.www.experiment.example");
        let pkt = match i % 3 {
            0 => {
                let query = DnsMessage::query(i as u16, DnsName::parse(&domain).unwrap());
                Ipv4Packet::new(
                    client_addr,
                    server_addr,
                    IpProtocol::Udp,
                    DEFAULT_TTL,
                    i as u16,
                    UdpDatagram::new(5000, 53, query.encode()).encode(),
                )
            }
            1 => {
                let req = HttpRequest::get(&domain, "/");
                let seg = TcpSegment::new(40_000, 80, 1, 1, TcpFlags::PSH_ACK, req.encode());
                Ipv4Packet::new(
                    client_addr,
                    server_addr,
                    IpProtocol::Tcp,
                    DEFAULT_TTL,
                    i as u16,
                    seg.encode(),
                )
            }
            _ => {
                let ch = ClientHello::with_sni(&domain, [3u8; 32]);
                let seg = TcpSegment::new(40_001, 443, 1, 1, TcpFlags::PSH_ACK, ch.encode_record());
                Ipv4Packet::new(
                    client_addr,
                    server_addr,
                    IpProtocol::Tcp,
                    DEFAULT_TTL,
                    i as u16,
                    seg.encode(),
                )
            }
        };
        engine.inject(SimTime(i), client, pkt);
    }

    let started = Instant::now();
    engine.run_to_completion();
    let elapsed = started.elapsed();

    let stats = engine.stats();
    let events = stats.events_processed;
    let hops = events - stats.packets_delivered;
    let secs = elapsed.as_secs_f64().max(1e-9);
    HotPathMetrics {
        packets,
        hops,
        events,
        elapsed_ns: elapsed.as_nanos() as u64,
        hops_per_sec: hops as f64 / secs,
        events_per_sec: events as f64 / secs,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// VmHWM (peak resident set) of this process, from `/proc/self/status`.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}
