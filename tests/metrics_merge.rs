//! Telemetry merge properties.
//!
//! 1. [`MetricsSnapshot::merge`] is commutative and associative, so
//!    absorbing per-shard snapshots in any completion order yields the
//!    same artifact.
//! 2. For a fixed seed, the **world** section of a sharded run's merged
//!    snapshot equals the sequential run's — the telemetry analogue of
//!    the byte-identical analysis bundle. (The **run** section is shape
//!    diagnostics — shard count, per-shard event totals, wall-clock — and
//!    is excluded: it legitimately differs between shard counts.)

use traffic_shadowing::shadow_core::executor::TelemetryOptions;
use traffic_shadowing::shadow_telemetry::{MetricsRegistry, MetricsSnapshot};
use traffic_shadowing::study::{Study, StudyConfig};

/// Build K synthetic per-shard snapshots with distinct, seeded counter
/// loads (a tiny LCG keeps the test deterministic without `rand`).
fn synthetic_snapshots(k: u32, seed: u64) -> Vec<MetricsSnapshot> {
    let mut state = seed.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    (0..k)
        .map(|shard| {
            let registry = MetricsRegistry::default();
            for _ in 0..next(40) {
                registry.packets_forwarded.inc();
            }
            for _ in 0..next(20) {
                registry.packets_delivered.inc();
            }
            for _ in 0..next(10) {
                registry.tap_observations.inc();
            }
            for _ in 0..next(5) {
                registry.decoys_sent.inc("DNS");
                registry.arrivals_captured.inc("HTTP");
            }
            for _ in 0..next(8) {
                registry.queue_depth.record(next(1 << 12));
            }
            registry.events_drained.add(next(1000));
            let mut snapshot = registry.take_snapshot(shard);
            snapshot
                .run
                .phase_wall_ns
                .insert("phase1".to_string(), next(1 << 20));
            snapshot
        })
        .collect()
}

fn merge_in_order(snapshots: &[MetricsSnapshot], order: &[usize]) -> MetricsSnapshot {
    let mut merged = MetricsSnapshot::default();
    for &i in order {
        merged.merge(&snapshots[i]);
    }
    merged
}

#[test]
fn snapshot_merge_is_order_independent() {
    for seed in [3u64, 77, 9_001] {
        let snapshots = synthetic_snapshots(7, seed);
        let forward = merge_in_order(&snapshots, &[0, 1, 2, 3, 4, 5, 6]);
        let reverse = merge_in_order(&snapshots, &[6, 5, 4, 3, 2, 1, 0]);
        let shuffled = merge_in_order(&snapshots, &[3, 6, 0, 5, 1, 4, 2]);
        assert_eq!(forward, reverse, "seed {seed}: reverse order diverges");
        assert_eq!(forward, shuffled, "seed {seed}: shuffled order diverges");
        assert_eq!(forward.run.shards, 7);
    }
}

#[test]
fn snapshot_merge_is_associative() {
    let snapshots = synthetic_snapshots(4, 42);
    // ((a+b)+c)+d vs a+((b+c)+d)
    let left = merge_in_order(&snapshots, &[0, 1, 2, 3]);
    let mut inner = snapshots[1].clone();
    inner.merge(&snapshots[2]);
    inner.merge(&snapshots[3]);
    let mut right = snapshots[0].clone();
    right.merge(&inner);
    assert_eq!(left, right);
}

#[test]
fn sharded_world_metrics_equal_sequential() {
    for (seed, route_misses) in [(99u64, 885), (424_242, 588)] {
        let config = || StudyConfig {
            telemetry: TelemetryOptions::enabled(false),
            ..StudyConfig::tiny(seed)
        };
        let sequential = Study::run(config());
        let expected = sequential.metrics.as_ref().expect("metrics enabled");
        assert!(!expected.is_empty(), "sequential run recorded nothing");
        assert_eq!(expected.run.shards, 1);
        assert_eq!(
            expected.run.topo_lookups, route_misses,
            "seed {seed}: sequential route-memo misses"
        );
        for k in [1usize, 2, 4, 7] {
            let sharded = Study::run_sharded(config(), k);
            let merged = sharded.metrics.as_ref().expect("metrics enabled");
            assert_eq!(
                expected.world, merged.world,
                "seed {seed}, K={k}: merged world counters diverge from sequential"
            );
            // Idle shards (drained == 0) get no entry, so `<=` not `==`.
            assert!(
                merged.run.events_drained_per_shard.len() <= merged.run.shards as usize,
                "seed {seed}, K={k}: more events-drained entries than shards"
            );
            let drained: u64 = merged.run.events_drained_per_shard.values().sum();
            assert!(drained > 0, "seed {seed}, K={k}: no events drained");
        }
    }
}

#[test]
fn disabled_telemetry_reports_nothing() {
    let outcome = Study::run(StudyConfig::tiny(99));
    assert!(outcome.metrics.is_none());
    assert!(outcome.journal.is_none());
}
