//! The sharded executor's headline guarantee: for ANY shard count —
//! including the degenerate K=1 and a K larger than any realistic core
//! count would warrant — `Study::run_sharded` produces **byte-identical**
//! analysis output to the sequential `Study::run`.
//!
//! "Byte-identical" is enforced on the exported JSON analysis bundle (the
//! full Figure/Table artifact set), the rendered report of every paper
//! table, the streamed aggregates, and the study journal — where every capture is an `ArrivalCaptured` record and every
//! classification an `ArrivalClassified` one, so the raw arrival stream and
//! the unsolicited-request classifications are compared per arrival. Two
//! distinct seeds are tested so a bug that collapses output to a constant
//! cannot pass. The decoy registries the chunks assemble are pinned by
//! record count and an order-insensitive digest, for both phases.

use std::collections::BTreeSet;
use traffic_shadowing::shadow_core::campaign::{CampaignRunner, Phase1Config};
use traffic_shadowing::shadow_core::decoy::DecoyRegistry;
use traffic_shadowing::shadow_core::executor::{run_phase1_chunks, ChunkConfig, TelemetryOptions};
use traffic_shadowing::shadow_core::noise::NoiseFilter;
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{generate_spec, WorldConfig};
use traffic_shadowing::shadow_netsim::fault::fnv1a64;
use traffic_shadowing::shadow_telemetry::{diff, JournalRecord};
use traffic_shadowing::shadow_vantage::platform::VpId;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};
use traffic_shadowing::tables;

const SHARD_COUNTS: [usize; 4] = [1, 3, 7, 0 /* replaced by num_cpus */];
const SEEDS: [u64; 2] = [99, 424_242];

fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The fixed shard counts under test: 1, 3, 7, and the machine's core
/// count (so CI exercises whatever parallelism the runner actually has).
fn shard_counts() -> Vec<usize> {
    let mut counts: Vec<usize> = SHARD_COUNTS
        .iter()
        .map(|&k| if k == 0 { num_cpus() } else { k })
        .collect();
    counts.dedup();
    counts
}

/// Scheduler shapes: the same chunk counts as the fixed grid, with worker
/// counts both below and equal to the chunk count (below it, a worker
/// claims a second chunk from the shared queue once its first is done),
/// plus the machine-shaped [`ChunkConfig::auto`].
fn chunk_shapes() -> Vec<ChunkConfig> {
    let mut shapes = vec![
        ChunkConfig::with_workers(1),
        ChunkConfig::with_workers(2).with_chunks(3),
        ChunkConfig::with_workers(3).with_chunks(7),
        ChunkConfig::with_workers(7).with_chunks(7),
        ChunkConfig::auto(),
    ];
    shapes.dedup();
    shapes
}

fn bundle_json(outcome: &StudyOutcome) -> String {
    outcome
        .export_bundle()
        .to_json()
        .expect("bundle serializes")
}

/// The tiny world with the journal on.
fn journaled(seed: u64) -> StudyConfig {
    StudyConfig {
        telemetry: TelemetryOptions::enabled(true),
        ..StudyConfig::tiny(seed)
    }
}

/// Same world events — every capture and its classification — in two
/// journals.
fn assert_same_journal(a: &[JournalRecord], b: &[JournalRecord], context: &str) {
    let report = diff(a, b);
    assert!(
        report.identical(),
        "{context}: arrival streams or classifications diverge\n{}",
        report.render()
    );
}

fn journal(outcome: &StudyOutcome) -> &[JournalRecord] {
    outcome.journal.as_deref().expect("journal enabled")
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

/// The tiny world (seed 99)'s full Phase I registry.
const PHASE1_REGISTRY: (usize, u64) = (528, 0xd2d8_1785_2fa7_31d9);

#[test]
fn sharded_matches_sequential_for_every_shard_count() {
    for seed in SEEDS {
        let sequential = Study::run(journaled(seed));
        let expected_json = bundle_json(&sequential);
        let expected_report = tables::report(&sequential);
        for k in shard_counts() {
            let sharded = Study::run_sharded(journaled(seed), k);
            assert_same_journal(
                journal(&sequential),
                journal(&sharded),
                &format!("seed {seed}, K={k}"),
            );
            assert_eq!(
                sequential.phase1.aggregates, sharded.phase1.aggregates,
                "seed {seed}, K={k}: streamed aggregates diverge"
            );
            assert_eq!(
                expected_json,
                bundle_json(&sharded),
                "seed {seed}, K={k}: exported analysis bundles diverge"
            );
            assert_eq!(
                expected_report,
                tables::report(&sharded),
                "seed {seed}, K={k}: rendered reports diverge"
            );
        }
    }
}

#[test]
fn sharded_preserves_phase2_localization() {
    let seed = 99;
    let sequential = Study::run(StudyConfig::tiny(seed));
    let sharded = Study::run_sharded(StudyConfig::tiny(seed), 2);
    assert_eq!(sequential.traced_paths, sharded.traced_paths);
    assert_eq!(sequential.traceroutes, sharded.traceroutes);
    for (outcome, shape) in [(&sequential, "sequential"), (&sharded, "K=2")] {
        assert_eq!(
            registry_digest(&outcome.phase1.registry),
            PHASE1_REGISTRY,
            "{shape}: Phase I registry"
        );
        let phase2 = outcome.phase2.as_ref().expect("Phase II ran");
        assert_eq!(
            registry_digest(&phase2.registry),
            (720, 0x5c96_bdc7_5947_2124),
            "{shape}: Phase II registry"
        );
    }
}

#[test]
fn chunked_matches_sequential_for_every_shape() {
    // Same matrix as the fixed-shard test, at uneven (chunks, workers)
    // shapes: chunk→thread placement is nondeterministic, the merged
    // output must not be.
    for seed in SEEDS {
        let sequential = Study::run(journaled(seed));
        let expected_json = bundle_json(&sequential);
        let expected_report = tables::report(&sequential);
        for shape in chunk_shapes() {
            let chunked = Study::run_chunked(journaled(seed), shape);
            assert_same_journal(
                journal(&sequential),
                journal(&chunked),
                &format!("seed {seed}, {shape:?}"),
            );
            assert_eq!(
                sequential.phase1.aggregates, chunked.phase1.aggregates,
                "seed {seed}, {shape:?}: streamed aggregates diverge"
            );
            assert_eq!(
                expected_json,
                bundle_json(&chunked),
                "seed {seed}, {shape:?}: exported analysis bundles diverge"
            );
            assert_eq!(
                expected_report,
                tables::report(&chunked),
                "seed {seed}, {shape:?}: rendered reports diverge"
            );
        }
    }
}

#[test]
fn chunked_preserves_phase2_localization() {
    let seed = 99;
    let sequential = Study::run(StudyConfig::tiny(seed));
    let chunked = Study::run_chunked(
        StudyConfig::tiny(seed),
        ChunkConfig::with_workers(2).with_chunks(5),
    );
    assert_eq!(sequential.traced_paths, chunked.traced_paths);
    assert_eq!(sequential.traceroutes, chunked.traceroutes);
}

#[test]
fn distinct_seeds_still_differ_under_sharding() {
    let a = Study::run_sharded(StudyConfig::tiny(SEEDS[0]), 2);
    let b = Study::run_sharded(StudyConfig::tiny(SEEDS[1]), 2);
    assert_ne!(
        a.phase1.aggregates, b.phase1.aggregates,
        "different seeds must produce different sharded traffic"
    );
}

/// The scheduler's `vp_limit` bound: at every shape, a bounded Phase I
/// equals the straight-line composition (instantiate → pre-flight → plan →
/// execute) filtered to the first `n` VPs in pre-vetting platform order,
/// and an unbounded one equals it unfiltered.
#[test]
fn vp_limit_matches_filtered_sequential_composition() {
    let spec = generate_spec(WorldConfig::tiny(99));
    let config = Phase1Config::default();
    let platform_order: Vec<VpId> = spec.world().platform.vps.iter().map(|vp| vp.id).collect();
    let shapes = [
        ChunkConfig::with_workers(1),
        ChunkConfig::with_workers(2).with_chunks(2),
        ChunkConfig::with_workers(3).with_chunks(7),
    ];
    let mut decoys = Vec::new();
    for (limit, pinned) in [
        (Some(3), (132, 0x5ccc_61e3_61dd_a67f)),
        (None, PHASE1_REGISTRY),
    ] {
        let allowed: Option<BTreeSet<VpId>> =
            limit.map(|n| platform_order.iter().take(n).copied().collect());
        let mut world = spec.instantiate();
        NoiseFilter::run_and_apply(&mut world);
        world
            .engine
            .set_telemetry(TelemetryOptions::enabled(true).handle(0));
        let plan = CampaignRunner::plan_phase1(&world, &config);
        let expected = CampaignRunner::execute_phase1(
            &mut world,
            &plan,
            &config,
            SinkConfig::streaming(),
            |vp| allowed.as_ref().is_none_or(|a| a.contains(&vp)),
        );
        let digest = registry_digest(&expected.registry);
        assert_eq!(digest, pinned, "vp_limit {limit:?}: composed registry");
        for shape in shapes {
            let bounded = run_phase1_chunks(
                &spec,
                &config,
                shape,
                TelemetryOptions::enabled(true),
                None,
                SinkConfig::streaming(),
                limit,
            );
            assert_eq!(
                registry_digest(&bounded.data.registry),
                digest,
                "vp_limit {limit:?}, {shape:?}: decoy registries differ"
            );
            assert_same_journal(
                &expected.journal,
                &bounded.data.journal,
                &format!("vp_limit {limit:?}, {shape:?}"),
            );
            assert_eq!(
                expected.aggregates, bounded.data.aggregates,
                "vp_limit {limit:?}, {shape:?}: streamed aggregates diverge"
            );
            assert_eq!(
                &bounded.stats,
                world.engine.stats(),
                "vp_limit {limit:?}, {shape:?}: merged engine counters"
            );
        }
        decoys.push(expected.decoy_count());
    }
    assert!(
        0 < decoys[0] && decoys[0] < decoys[1],
        "the bound must trim the campaign to a non-empty slice: {decoys:?}"
    );
}

/// The merged engine counters count the run's one pre-flight once: at
/// every shape the tests above run, `ShardedPhase1::stats` equals the
/// sequential world's `EngineStats` after the pre-flight and Phase I.
#[test]
fn merged_engine_stats_equal_sequential_for_every_shape() {
    let config = Phase1Config::default();
    let mut shapes: Vec<ChunkConfig> = shard_counts()
        .into_iter()
        .map(|k| ChunkConfig::with_workers(k).with_chunks(k))
        .collect();
    shapes.extend(chunk_shapes());
    for seed in SEEDS {
        let spec = generate_spec(WorldConfig::tiny(seed));
        let mut world = spec.instantiate();
        NoiseFilter::run_and_apply(&mut world);
        let plan = CampaignRunner::plan_phase1(&world, &config);
        let sink = SinkConfig::streaming();
        CampaignRunner::execute_phase1(&mut world, &plan, &config, sink, |_| true);
        for &shape in &shapes {
            let chunked = run_phase1_chunks(
                &spec,
                &config,
                shape,
                TelemetryOptions::disabled(),
                None,
                sink,
                None,
            );
            assert_eq!(
                &chunked.stats,
                world.engine.stats(),
                "seed {seed}, {shape:?}: merged engine counters"
            );
        }
    }
}
