//! The streaming pipeline's headline guarantee: classifying every arrival
//! at capture time and folding into per-shard aggregates reproduces the
//! analysis bundle the retained-arrivals pipeline produced (a committed
//! golden file) — for any shard count, with or without fault injection —
//! while no honeypot keeps a raw arrival log.

use traffic_shadowing::shadow_analysis::export::grid_points;
use traffic_shadowing::shadow_chaos::{FaultProfile, OutageSpec, RetrySpec, Window};
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_core::executor::{ChunkConfig, TelemetryOptions};
use traffic_shadowing::shadow_dns::catalog::resolver_h;
use traffic_shadowing::shadow_honeypot::authority::ExperimentAuthorityHost;
use traffic_shadowing::shadow_honeypot::web::WebHost;
use traffic_shadowing::shadow_packet::dns::DnsName;
use traffic_shadowing::shadow_telemetry::EventKind;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};
use traffic_shadowing::tables;

const SEED: u64 = 4_021;

fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn bundle_json(outcome: &StudyOutcome) -> String {
    outcome
        .export_bundle()
        .to_json()
        .expect("bundle serializes")
}

/// `Study::run(StudyConfig::tiny(SEED))`'s bundle as the retained-arrivals
/// pipeline exported it, sample-level origins and probing payloads
/// included.
const GOLDEN_BUNDLE: &str = include_str!("golden/bundle_tiny_4021.json");

/// `traffic_shadowing::tables::report` of the same outcome. It pins what
/// the bundle omits: Table 1, Figure 4's control, HTTP/TLS probing, both
/// §5.2 results and the case studies.
const GOLDEN_REPORT: &str = include_str!("golden/report_tiny_4021.txt");

/// A profile exercising every fault class at once (mirrors
/// `tests/chaos_determinism.rs`).
fn rich_profile() -> FaultProfile {
    FaultProfile {
        name: "rich".into(),
        fault_seed: 0xC0FFEE,
        loss: 0.01,
        duplication: 0.005,
        jitter_ms: 3,
        icmp_rate_limit: 0.5,
        router_outage: Some(OutageSpec {
            fraction: 0.1,
            window: Window::new(60_000, 600_000),
        }),
        link_outage: None,
        resolver_outage: Some(Window::new(30_000, 90_000)),
        vp_churn: None,
        honeypot_downtime: Some(Window::new(400_000, 450_000)),
        dns_retry: Some(RetrySpec::STANDARD),
    }
}

#[test]
fn default_path_retains_no_arrivals() {
    let outcome = Study::run(StudyConfig::tiny(SEED));
    assert!(outcome.correlated.is_empty());
    assert!(!outcome.retained);
    assert!(
        outcome.phase1.aggregates.arrivals_seen > 0,
        "the sink must still have seen the traffic"
    );
    assert!(outcome.phase1.aggregates.unsolicited_total() > 0);
    let phase2 = outcome.phase2.as_ref().expect("Phase II ran");
    assert!(phase2.aggregates.arrivals_seen > 0, "Phase II streams too");
    // With a sink installed, the honeypots keep no capture log at all.
    let world = &outcome.world;
    let auth = world
        .engine
        .host_as::<ExperimentAuthorityHost>(world.auth_node)
        .expect("authoritative honeypot");
    assert!(auth.captures.is_empty(), "authoritative buffered arrivals");
    for &(node, _, _) in &world.honey_web {
        let web = world.engine.host_as::<WebHost>(node).expect("web honeypot");
        assert!(web.captures().is_empty(), "web honeypot buffered arrivals");
    }
}

#[test]
fn streaming_bundle_matches_retained_bundle() {
    let streamed = Study::run(StudyConfig::tiny(SEED));
    assert!(
        bundle_json(&streamed) == GOLDEN_BUNDLE,
        "streamed analysis bundle diverges from the retained pipeline's golden bundle"
    );
    let bundle = streamed.export_bundle();
    assert!(bundle.origins.is_some() && bundle.probing_dns.is_some());
    assert_eq!(
        tables::report(&streamed),
        GOLDEN_REPORT,
        "rendered report diverges from tests/golden/report_tiny_4021.txt"
    );
}

#[test]
fn streaming_is_shard_invariant() {
    let sequential = Study::run(StudyConfig::tiny(SEED));
    let expected = bundle_json(&sequential);
    for k in [1usize, 3, 7, num_cpus()] {
        let sharded = Study::run_sharded(StudyConfig::tiny(SEED), k);
        assert_eq!(
            sequential.phase1.aggregates, sharded.phase1.aggregates,
            "K={k}: streamed aggregates diverge"
        );
        assert_eq!(
            expected,
            bundle_json(&sharded),
            "K={k}: streamed analysis bundles diverge"
        );
    }
    // The streaming default is exactly what paper-scale chunked
    // campaigns run; cover the same shapes here.
    for shape in [
        ChunkConfig::with_workers(1),
        ChunkConfig::with_workers(3).with_chunks(7),
        ChunkConfig::auto(),
    ] {
        let chunked = Study::run_chunked(StudyConfig::tiny(SEED), shape);
        assert_eq!(
            sequential.phase1.aggregates, chunked.phase1.aggregates,
            "{shape:?}: streamed aggregates diverge"
        );
        assert_eq!(
            expected,
            bundle_json(&chunked),
            "{shape:?}: streamed analysis bundles diverge"
        );
    }
}

#[test]
fn streaming_is_shard_invariant_under_faults() {
    let config = || StudyConfig::tiny(SEED).with_faults(rich_profile());
    let sequential = Study::run(config());
    let expected = bundle_json(&sequential);
    for k in [1usize, 3, 7, num_cpus()] {
        let sharded = Study::run_sharded(config(), k);
        assert_eq!(
            sequential.phase1.aggregates, sharded.phase1.aggregates,
            "K={k}: streamed aggregates diverge under faults"
        );
        assert_eq!(
            expected,
            bundle_json(&sharded),
            "K={k}: streamed bundles diverge under faults"
        );
    }
    for shape in [
        ChunkConfig::with_workers(2).with_chunks(5),
        ChunkConfig::auto(),
    ] {
        let chunked = Study::run_chunked(config(), shape);
        assert_eq!(
            sequential.phase1.aggregates, chunked.phase1.aggregates,
            "{shape:?}: streamed aggregates diverge under faults"
        );
        assert_eq!(
            expected,
            bundle_json(&chunked),
            "{shape:?}: streamed bundles diverge under faults"
        );
    }
}

/// The streamed Figure 4/7 grids against the sample CDF of the same run's
/// unsolicited intervals, rebuilt per arrival from the journal's
/// `ArrivalClassified` records.
#[test]
fn histogram_grid_matches_cdf_bit_for_bit() {
    let outcome = Study::run(StudyConfig {
        telemetry: TelemetryOptions::enabled(true),
        ..StudyConfig::tiny(SEED)
    });
    let registry = &outcome.phase1.registry;
    let mut samples: Vec<(DecoyProtocol, std::net::Ipv4Addr, u64)> = Vec::new();
    for record in outcome.journal.as_ref().expect("journal enabled") {
        if let EventKind::ArrivalClassified {
            domain,
            unsolicited: true,
            ..
        } = &record.event
        {
            // Phase II decoys are not in the Phase I registry.
            if let Some(decoy) = registry.lookup(&DnsName::parse(domain).unwrap()) {
                let interval = record.at_ms - decoy.planned_at.millis();
                samples.push((decoy.protocol, decoy.dst(), interval));
            }
        }
    }
    assert!(!samples.is_empty());
    let heavy: Vec<_> = resolver_h().iter().map(|d| d.addr).collect();
    let (http, tls) = outcome.fig7();
    let series = [
        (outcome.fig4(), DecoyProtocol::Dns, Some(&heavy)),
        (http, DecoyProtocol::Http, None),
        (tls, DecoyProtocol::Tls, None),
    ];
    for (hist, protocol, dsts) in series {
        let mut sample: Vec<u64> = samples
            .iter()
            .filter(|(p, d, _)| *p == protocol && dsts.is_none_or(|dsts| dsts.contains(d)))
            .map(|&(_, _, interval)| interval)
            .collect();
        sample.sort();
        assert_eq!(hist.total(), sample.len() as u64, "{protocol:?}");
        let grid = grid_points(&hist);
        let edges_ms = [
            1_000,
            60_000,
            3_600_000,
            86_400_000,
            864_000_000,
            2_592_000_000,
        ];
        for ((label, fraction), edge) in grid.iter().zip(edges_ms) {
            let cdf = if sample.is_empty() {
                0.0
            } else {
                sample.partition_point(|&s| s <= edge) as f64 / sample.len() as f64
            };
            assert_eq!(
                cdf.to_bits(),
                fraction.to_bits(),
                "{protocol:?} {label}: histogram fraction differs from the sample CDF"
            );
        }
    }
}

/// The standard-world shard-invariance run the CI streaming-equivalence
/// job executes in release mode (`--include-ignored`): too slow for the
/// default debug suite.
#[test]
#[ignore = "standard world: run in release via the CI streaming-equivalence job"]
fn streaming_is_shard_invariant_on_standard_world() {
    let sequential = Study::run(StudyConfig::standard(SEED));
    for k in [1usize, 4] {
        let sharded = Study::run_sharded(StudyConfig::standard(SEED), k);
        assert_eq!(sequential.phase1.aggregates, sharded.phase1.aggregates);
        assert_eq!(bundle_json(&sequential), bundle_json(&sharded));
    }
    let chunked = Study::run_chunked(StudyConfig::standard(SEED), ChunkConfig::auto());
    assert_eq!(sequential.phase1.aggregates, chunked.phase1.aggregates);
    assert_eq!(bundle_json(&sequential), bundle_json(&chunked));
}
