//! Pipeline-scale benchmarks: how fast the simulator executes campaigns —
//! the numbers a user sizing a larger simulated world cares about. The
//! capture-time correlation sink has its own harness
//! (`correlate_throughput`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use shadow_bench::hotpath::run_hot_path;
use shadow_bench::record::{self, mib};
use traffic_shadowing::shadow_core::campaign::{CampaignRunner, Phase1Config};
use traffic_shadowing::shadow_core::noise::NoiseFilter;
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{World, WorldConfig};
use traffic_shadowing::shadow_netsim::time::SimDuration;

/// Engine hot path: per-hop forwarding + DPI inspection over a tapped
/// router chain, written as the `BENCH_pipeline.json` record (hops/sec,
/// events/sec, peak RSS).
fn hot_path(_c: &mut Criterion) {
    if criterion::test_mode() {
        // Smoke mode: prove the fixture still runs, but never overwrite
        // the committed record with a one-shot tiny measurement.
        let metrics = run_hot_path(500);
        println!("Testing pipeline/hot_path ... ok ({} hops)", metrics.hops);
        return;
    }
    run_hot_path(2_000); // warm-up: route cache, allocator, branch predictors
    let m = run_hot_path(60_000);
    let mut metrics = vec![
        ("packets", m.packets as f64, "count"),
        ("hops", m.hops as f64, "count"),
        ("events", m.events as f64, "count"),
        ("elapsed_s", m.elapsed_ns as f64 / 1e9, "s"),
        ("hops_per_s", m.hops_per_sec, "hops/s"),
        ("events_per_s", m.events_per_sec, "events/s"),
    ];
    metrics.extend(m.peak_rss_bytes.map(|b| ("peak_rss_mb", mib(b), "MiB")));
    record::write("pipeline", &metrics);
}

fn bench(c: &mut Criterion) {
    // World construction.
    c.bench_function("pipeline/world_build_tiny", |b| {
        b.iter(|| World::build(WorldConfig::tiny(3)))
    });

    // A full tiny Phase I campaign per iteration (world build + preflight +
    // spread + capture): the end-to-end simulator cost.
    let mut group = c.benchmark_group("pipeline_e2e");
    group.sample_size(10);
    group.bench_function("tiny_phase1_campaign", |b| {
        b.iter_batched(
            || {
                let mut world = World::build(WorldConfig::tiny(3));
                NoiseFilter::run_and_apply(&mut world);
                world
            },
            |mut world| {
                let config = Phase1Config {
                    grace: SimDuration::from_days(35),
                    ..Phase1Config::default()
                };
                let plan = CampaignRunner::plan_phase1(&world, &config);
                CampaignRunner::execute_phase1(
                    &mut world,
                    &plan,
                    &config,
                    SinkConfig::streaming(),
                    |_| true,
                )
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();

    shadow_bench::report_peak_rss("pipeline_throughput");
}

criterion_group!(benches, hot_path, bench);
criterion_main!(benches);
