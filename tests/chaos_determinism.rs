//! Fault injection must not cost the simulator its headline guarantee:
//! a fixed `(WorldConfig, FaultProfile, seed)` triple produces
//! byte-identical output — run twice, run sequentially, or run across any
//! shard count. Every fault decision is value-derived from packet bytes,
//! so shards that each see only a subset of the traffic still agree with
//! the sequential run packet-for-packet.
//!
//! Also pins the boundary profiles: total loss delivers nothing, and a
//! compiled-but-impairment-free profile is indistinguishable from running
//! with no profile at all.

use proptest::prelude::*;
use traffic_shadowing::shadow_chaos::{ChurnSpec, FaultProfile, OutageSpec, RetrySpec, Window};
use traffic_shadowing::shadow_core::executor::{ChunkConfig, TelemetryOptions};
use traffic_shadowing::shadow_telemetry::{diff, EventKind, JournalRecord};
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

const SEED: u64 = 99;

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

/// A profile exercising every fault class at once.
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
        link_outage: Some(OutageSpec {
            fraction: 0.05,
            window: Window::new(120_000, 300_000),
        }),
        resolver_outage: Some(Window::new(30_000, 90_000)),
        vp_churn: Some(ChurnSpec {
            fraction: 0.2,
            window: Window::new(200_000, 500_000),
        }),
        honeypot_downtime: Some(Window::new(400_000, 450_000)),
        dns_retry: Some(RetrySpec::STANDARD),
    }
}

/// The tiny world with the journal on: these tests compare arrival
/// streams packet-for-packet, and every capture is an `ArrivalCaptured`
/// record in the study journal.
fn journaled() -> StudyConfig {
    StudyConfig {
        telemetry: TelemetryOptions::enabled(true),
        ..StudyConfig::tiny(SEED)
    }
}

fn config_with(profile: FaultProfile) -> StudyConfig {
    journaled().with_faults(profile)
}

fn journal(outcome: &StudyOutcome) -> &[JournalRecord] {
    outcome.journal.as_deref().expect("journal enabled")
}

/// The capture records alone — the arrival stream.
fn captures(outcome: &StudyOutcome) -> Vec<JournalRecord> {
    journal(outcome)
        .iter()
        .filter(|r| matches!(r.event, EventKind::ArrivalCaptured { .. }))
        .cloned()
        .collect()
}

/// Same world events (captures and classifications included) and same
/// streamed aggregates.
fn assert_same_run(a: &StudyOutcome, b: &StudyOutcome, context: &str) {
    let report = diff(journal(a), journal(b));
    assert!(
        report.identical(),
        "{context}: journals diverge\n{}",
        report.render()
    );
    assert_eq!(
        a.phase1.aggregates, b.phase1.aggregates,
        "{context}: streamed aggregates diverge"
    );
}

#[test]
fn same_profile_same_seed_is_byte_identical() {
    let a = Study::run(config_with(rich_profile()));
    let b = Study::run(config_with(rich_profile()));
    assert_same_run(&a, &b, "same seed");
    assert_eq!(a.traceroutes, b.traceroutes);
    assert_eq!(bundle_json(&a), bundle_json(&b));
}

#[test]
fn sharded_equivalence_survives_faults() {
    let sequential = Study::run(config_with(rich_profile()));
    let expected = bundle_json(&sequential);
    for k in [1usize, 3, 7, num_cpus()] {
        let sharded = Study::run_sharded(config_with(rich_profile()), k);
        assert_same_run(&sequential, &sharded, &format!("K={k} under faults"));
        assert_eq!(
            sequential.traceroutes, sharded.traceroutes,
            "K={k}: Phase II traceroutes diverge under faults"
        );
        assert_eq!(
            expected,
            bundle_json(&sharded),
            "K={k}: exported analysis bundles diverge under faults"
        );
    }
}

#[test]
fn chunked_equivalence_survives_faults() {
    // The conditioner's decisions are value-derived from packet bytes, so
    // nondeterministic chunk→thread placement must not change which
    // packets suffer. Shapes mirror tests/sharded_equivalence.rs.
    let sequential = Study::run(config_with(rich_profile()));
    let expected = bundle_json(&sequential);
    let shapes = [
        ChunkConfig::with_workers(1),
        ChunkConfig::with_workers(2).with_chunks(7),
        ChunkConfig::auto(),
    ];
    for shape in shapes {
        let chunked = Study::run_chunked(config_with(rich_profile()), shape);
        assert_same_run(&sequential, &chunked, &format!("{shape:?} under faults"));
        assert_eq!(
            sequential.traceroutes, chunked.traceroutes,
            "{shape:?}: Phase II traceroutes diverge under faults"
        );
        assert_eq!(
            expected,
            bundle_json(&chunked),
            "{shape:?}: exported analysis bundles diverge under faults"
        );
    }
}

#[test]
fn fault_seed_changes_which_packets_suffer() {
    let a = Study::run(config_with(FaultProfile::with_loss("l", 0.05, 1)));
    let b = Study::run(config_with(FaultProfile::with_loss("l", 0.05, 2)));
    assert!(
        !diff(&captures(&a), &captures(&b)).identical(),
        "different fault seeds must impair different packets"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Total loss delivers nothing: no arrivals, no correlations, no
    /// traceroute ever completes.
    #[test]
    fn total_loss_delivers_nothing(seed in 1u64..1_000) {
        let profile = FaultProfile::with_loss("blackout", 1.0, seed);
        let outcome = Study::run(config_with(profile));
        prop_assert!(captures(&outcome).is_empty());
        prop_assert_eq!(outcome.phase1.aggregates.arrivals_seen, 0);
        prop_assert_eq!(outcome.phase1.aggregates.classified, 0);
        prop_assert!(outcome.traceroutes.iter().all(|r| r.normalized_hop.is_none()));
    }

    /// A zero-impairment profile (conditioner installed, nothing to do)
    /// must match running with no profile at all, byte for byte.
    #[test]
    fn fault_free_profile_matches_no_profile(seed in 1u64..1_000) {
        let mut clean = FaultProfile::baseline("clean");
        clean.fault_seed = seed;
        let with_profile = Study::run(config_with(clean));
        let without = Study::run(journaled());
        prop_assert!(diff(journal(&with_profile), journal(&without)).identical());
        prop_assert_eq!(&with_profile.phase1.aggregates, &without.phase1.aggregates);
        prop_assert_eq!(bundle_json(&with_profile), bundle_json(&without));
    }
}
