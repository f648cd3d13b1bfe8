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
use std::sync::Arc;
use traffic_shadowing::robustness::fault_targets;
use traffic_shadowing::shadow_chaos::{ChurnSpec, FaultProfile, OutageSpec, RetrySpec, Window};
use traffic_shadowing::shadow_core::campaign::{
    CampaignData, CampaignRunner, Phase1Config, Phase1Plan,
};
use traffic_shadowing::shadow_core::decoy::DecoyRegistry;
use traffic_shadowing::shadow_core::executor::{ChunkConfig, TelemetryOptions};
use traffic_shadowing::shadow_core::noise::NoiseFilter;
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{generate_spec, World, WorldConfig};
use traffic_shadowing::shadow_netsim::fault::{fnv1a64, LinkConditioner};
use traffic_shadowing::shadow_packet::EncryptionDeployment;
use traffic_shadowing::shadow_telemetry::{diff, to_jsonl, EventKind, JournalRecord};
use traffic_shadowing::shadow_vantage::vp::DnsRetry;
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

/// A registry's record count and order-insensitive digest: one line per
/// record, the lines sorted and concatenated, hashed with FNV-1a.
fn registry_digest(registry: &DecoyRegistry) -> (usize, u64) {
    let mut lines: Vec<String> = registry
        .iter()
        .map(|r| {
            format!(
                "{} {} {} {} {} {}\n",
                r.domain.as_str(),
                r.dst,
                r.ttl,
                r.protocol.as_str(),
                r.vp.0,
                r.planned_at.millis()
            )
        })
        .collect();
    lines.sort();
    (lines.len(), fnv1a64(lines.concat().as_bytes()))
}

/// Phase I the way a chunk runs it: journal and faults installed on a
/// pre-flighted world, every VP owned.
fn run_phase1(
    world: &mut World,
    plan: &Phase1Plan,
    config: &Phase1Config,
    conditioner: &Arc<LinkConditioner>,
) -> CampaignData {
    world
        .engine
        .set_telemetry(TelemetryOptions::enabled(true).handle(0));
    world.engine.set_conditioner(Some(conditioner.clone()));
    CampaignRunner::execute_phase1(world, plan, config, SinkConfig::streaming(), |_| true)
}

/// A chunk runs in a fork of the pre-flighted scout world: under every
/// fault class and mixed encryption, Phase I there equals Phase I in a
/// freshly instantiated and pre-flighted world, and the fork's counters
/// plus the scout's pre-flight counters equal the fresh world's.
#[test]
fn forked_world_runs_phase1_like_a_fresh_one() {
    let spec = generate_spec(WorldConfig::tiny(4021));
    let profile = rich_profile();
    let conditioner = Arc::new(profile.compile(&fault_targets(&spec)));
    let retry = profile.dns_retry.expect("the rich profile retries DNS");
    let config = Phase1Config {
        encryption: EncryptionDeployment::mixed(),
        dns_retry: Some(DnsRetry {
            attempts: retry.attempts,
            timeout_ms: retry.timeout_ms,
        }),
        ..Phase1Config::default()
    };

    let mut scout = spec.instantiate();
    NoiseFilter::run_and_apply(&mut scout);
    let mut stats = scout.engine.stats().clone();
    let mut fork = scout.fork();
    drop(scout);
    let mut fresh = spec.instantiate();
    NoiseFilter::run_and_apply(&mut fresh);
    let plan = CampaignRunner::plan_phase1(&fresh, &config);

    let forked = run_phase1(&mut fork, &plan, &config, &conditioner);
    let expected = run_phase1(&mut fresh, &plan, &config, &conditioner);
    assert!(
        expected.aggregates.arrivals_seen > 0,
        "the run captured nothing"
    );
    assert_eq!(
        forked.aggregates, expected.aggregates,
        "streamed aggregates"
    );
    assert_eq!(
        to_jsonl(&forked.journal).expect("journal serializes"),
        to_jsonl(&expected.journal).expect("journal serializes"),
        "journal bytes"
    );
    assert_eq!(
        registry_digest(&forked.registry),
        registry_digest(&expected.registry),
        "decoy registries"
    );
    assert_eq!(
        forked.metrics.world, expected.metrics.world,
        "world metrics"
    );
    assert_eq!(forked.vp_reports.len(), expected.vp_reports.len());
    for (vp, report) in &expected.vp_reports {
        let other = &forked.vp_reports[vp];
        assert_eq!(
            (&other.dns_answers, &other.icmp, &other.ident_map),
            (&report.dns_answers, &report.icmp, &report.ident_map),
            "{vp:?}: VP report, pre-flight evidence included"
        );
        assert_eq!(other.handshake_failures, report.handshake_failures);
    }
    stats.absorb(fork.engine.stats());
    assert_eq!(
        &stats,
        fresh.engine.stats(),
        "pre-flight plus fork counters"
    );
}

/// Per shape: record count, JSONL byte length and FNV-1a digest of the
/// rich-profile journal on the tiny world (`None` sequential, `Some(2)`
/// two shards). The shape-against-shape suites above still pass when a
/// change moves every shape alike — a different outage victim set, say —
/// so the faulted bytes are pinned too.
const PINNED_FAULTED: [(Option<usize>, usize, usize, u64); 2] = [
    (None, 16_068, 2_591_523, 0x8c0cc02e4890dd7a),
    (Some(2), 16_073, 2_584_942, 0x82af054904d3cd1c),
];

/// The tiny world's fault targets: the sizes of the router, resolver, VP
/// and honeypot lists, and an FNV-1a digest of their node ids in order.
const PINNED_TARGETS: ([usize; 4], u64) = ([968, 22, 12, 4], 0x780ea9f1e962e26d);

#[test]
fn faulted_journals_are_pinned() {
    for (shards, records, bytes, digest) in PINNED_FAULTED {
        let outcome = match shards {
            Some(k) => Study::run_sharded(config_with(rich_profile()), k),
            None => Study::run(config_with(rich_profile())),
        };
        let entries = journal(&outcome);
        let jsonl = to_jsonl(entries).expect("journal serializes");
        assert_eq!(
            (entries.len(), jsonl.len(), fnv1a64(jsonl.as_bytes())),
            (records, bytes, digest),
            "shards {shards:?}: faulted journal records, bytes or digest moved"
        );
    }
}

#[test]
fn fault_targets_are_pinned() {
    let targets = fault_targets(&generate_spec(WorldConfig::tiny(SEED)));
    let lists = [
        &targets.routers,
        &targets.resolvers,
        &targets.vps,
        &targets.honeypots,
    ];
    let ids: String = lists
        .iter()
        .map(|list| {
            let line: Vec<String> = list.iter().map(|node| node.0.to_string()).collect();
            line.join(" ") + "\n"
        })
        .collect();
    assert_eq!(
        (lists.map(|list| list.len()), fnv1a64(ids.as_bytes())),
        PINNED_TARGETS,
        "fault target lists moved"
    );
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
