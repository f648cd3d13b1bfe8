//! Correlation-throughput fixture behind `BENCH_correlate.json`: a
//! synthetic arrival stream over a registered decoy population, driven
//! through the capture-time [`CorrelationSink`] (classify and fold, retain
//! nothing).
//!
//! The trajectory record also carries a peak-RSS probe at 10x the timed
//! scale: the pass generates-and-drops each arrival, so the high-water
//! mark is the sink's bounded state, not the stream.

use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use traffic_shadowing::shadow_core::decoy::{DecoyProtocol, DecoyRecord, DecoyRegistry};
use traffic_shadowing::shadow_core::sink::{CorrelationSink, SinkConfig};
use traffic_shadowing::shadow_honeypot::capture::{Arrival, ArrivalProtocol, ArrivalSink, Label};
use traffic_shadowing::shadow_netsim::time::{SimDuration, SimTime};
use traffic_shadowing::shadow_packet::dns::DnsName;
use traffic_shadowing::shadow_vantage::platform::VpId;

use crate::hotpath::peak_rss_bytes;

/// Deterministic stream seed — the same arrivals every run, every machine.
const STREAM_SEED: u64 = 0x5EED_C0DE_0451;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The registered decoy population the stream resolves against.
pub struct CorrelateFixture {
    pub registry: Arc<DecoyRegistry>,
    pub records: Vec<DecoyRecord>,
}

/// Register `decoys` decoys cycling DNS/HTTP/TLS across a handful of VPs
/// and destinations — enough key diversity to make the aggregate folds'
/// map lookups realistic.
pub fn build_fixture(decoys: usize) -> CorrelateFixture {
    let zone = DnsName::parse("www.experiment.example").unwrap();
    let mut registry = DecoyRegistry::new(zone);
    let records: Vec<DecoyRecord> = (0..decoys)
        .map(|i| {
            let protocol = match i % 3 {
                0 => DecoyProtocol::Dns,
                1 => DecoyProtocol::Http,
                _ => DecoyProtocol::Tls,
            };
            registry.register(
                VpId(1 + (i as u32 % 7)),
                Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250) as u8 + 1),
                Ipv4Addr::new(77, 88, 8, (i % 11) as u8 + 1),
                protocol,
                64,
                SimTime((i as u64) * 500),
                None,
            )
        })
        .collect();
    CorrelateFixture {
        registry: Arc::new(registry),
        records,
    }
}

/// One synthetic arrival: random decoy, offset biased so every §3 rule
/// fires (solicited first-seen, replication noise inside the window,
/// repeats hours later), arrival protocol biased toward DNS.
pub fn gen_arrival(records: &[DecoyRecord], honeypot: &Label, state: &mut u64) -> Arrival {
    let r = splitmix64(state);
    let rec = &records[(r as usize) % records.len()];
    let offset_ms = match (r >> 32) % 4 {
        0 => (r >> 40) % 1_500,                    // inside the replication window
        1 => 1_500 + (r >> 40) % 120_000,          // minutes later
        2 => 3_600_000 + (r >> 40) % 86_400_000,   // hours-to-a-day later
        _ => 864_000_000 + (r >> 40) % 86_400_000, // ~10 days later
    };
    let protocol = match (r >> 16) % 4 {
        0 | 1 => ArrivalProtocol::Dns,
        2 => ArrivalProtocol::Http,
        _ => ArrivalProtocol::Https,
    };
    Arrival {
        at: rec.planned_at + SimDuration::from_millis(offset_ms),
        src: Ipv4Addr::new(9, (r >> 8) as u8, (r >> 16) as u8, (r >> 24) as u8),
        protocol,
        domain: rec.domain.clone(),
        http_path: None,
        honeypot: honeypot.clone(),
    }
}

/// Materialize a full stream (the timed pass's input).
pub fn gen_stream(records: &[DecoyRecord], arrivals: u64) -> Vec<Arrival> {
    let honeypot = Label::from("AUTH");
    let mut state = STREAM_SEED;
    (0..arrivals)
        .map(|_| gen_arrival(records, &honeypot, &mut state))
        .collect()
}

/// One measured correlate-throughput run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorrelateMetrics {
    pub decoys: u64,
    pub arrivals: u64,
    pub streamed_elapsed_ns: u64,
    pub streamed_arrivals_per_sec: f64,
    /// VmHWM after a generate-and-fold pass at 10x the timed scale — no
    /// arrival vector ever exists (Linux; `None` elsewhere).
    pub rss_streamed_10x_bytes: Option<u64>,
}

/// The perf-trajectory record committed as `BENCH_correlate.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorrelateRecord {
    pub bench: String,
    /// The reference measurement this machine compares against; preserved
    /// across re-runs so the trajectory keeps its anchor.
    pub baseline: Option<CorrelateMetrics>,
    pub current: CorrelateMetrics,
    /// `current.streamed_arrivals_per_sec / baseline.streamed_arrivals_per_sec`.
    pub speedup_streamed_per_sec: Option<f64>,
}

/// Probe peak RSS over a generate-and-fold pass at 10x scale, then time the
/// sink over a pre-built stream. The RSS probe runs first — VmHWM is
/// monotone, so ordering it after the buffered stream would mask it.
pub fn run_correlate(decoys: usize, arrivals: u64) -> CorrelateMetrics {
    let fixture = build_fixture(decoys);

    let honeypot = Label::from("AUTH");
    let mut sink = CorrelationSink::new(fixture.registry.clone(), SinkConfig::streaming());
    let mut state = STREAM_SEED;
    for _ in 0..arrivals * 10 {
        let arrival = gen_arrival(&fixture.records, &honeypot, &mut state);
        sink.offer(&arrival);
    }
    std::hint::black_box(sink.take_aggregates().arrivals_seen);
    let rss_streamed_10x_bytes = peak_rss_bytes();

    let stream = gen_stream(&fixture.records, arrivals);
    let mut sink = CorrelationSink::new(fixture.registry.clone(), SinkConfig::streaming());
    let started = Instant::now();
    for arrival in &stream {
        sink.offer(arrival);
    }
    let streamed_elapsed = started.elapsed();
    std::hint::black_box(sink.take_aggregates().arrivals_seen);

    CorrelateMetrics {
        decoys: decoys as u64,
        arrivals,
        streamed_elapsed_ns: streamed_elapsed.as_nanos() as u64,
        streamed_arrivals_per_sec: arrivals as f64 / streamed_elapsed.as_secs_f64().max(1e-9),
        rss_streamed_10x_bytes,
    }
}

/// Fold `current` into the JSON trajectory file at `path`, preserving an
/// existing baseline (same contract as `hotpath::record_bench_json`,
/// except a fresh file anchors the trajectory on its first measurement).
///
/// A wall-clock measurement never reproduces bit-for-bit, so a `current`
/// identical to the file's recorded baseline means the caller recycled a
/// stored record instead of re-running the bench — the writer refuses
/// rather than re-committing a stale `current` section (the failure mode
/// the first anchoring write of this file once shipped: `current ==
/// baseline`, speedup pinned at 1.0, long after the code had moved).
pub fn record_correlate_json(
    path: &Path,
    bench: &str,
    current: CorrelateMetrics,
) -> CorrelateRecord {
    let previous = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<CorrelateRecord>(&text).ok())
        .and_then(|old| old.baseline);
    if let Some(prev) = &previous {
        let same = serde_json::to_string(prev).expect("metrics serialize")
            == serde_json::to_string(&current).expect("metrics serialize");
        assert!(
            !same,
            "stale current: metrics are byte-identical to the recorded baseline in {} — \
             re-run the bench instead of recycling the stored record",
            path.display()
        );
    }
    let baseline = previous.or_else(|| Some(current.clone()));
    let speedup = baseline
        .as_ref()
        .map(|b| current.streamed_arrivals_per_sec / b.streamed_arrivals_per_sec.max(1e-9));
    let record = CorrelateRecord {
        bench: bench.to_string(),
        baseline,
        current,
        speedup_streamed_per_sec: speedup,
    };
    let text = serde_json::to_string_pretty(&record).expect("bench record serializes");
    std::fs::write(path, text + "\n").expect("bench record written");
    record
}

/// Workspace-root location of the correlate trajectory file.
pub fn correlate_json_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_correlate.json")
}
