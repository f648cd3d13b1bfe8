//! Shard-scaling benchmark: Phase I cost as the campaign is split into
//! 1/2/4/8 shards — the chunk scheduler at K chunks on K workers
//! (one private world per chunk, merged with the order-stable absorb). The
//! output is byte-identical for every shard count — see
//! `tests/sharded_equivalence.rs` — so this axis measures pure speedup.
//!
//! Two metrics per shard count:
//!
//! * `BENCH shard_scaling/phase1_threads_K` — wall-clock of the K×K
//!   scheduler on *this* host. On a host with fewer than K cores the
//!   chunks time-slice the cores and each one replays the pre-flight, so
//!   wall-clock stops improving (and grows) past the core count.
//! * `SHARD_EVENTS {"threads":K,...}` — per-shard simulator event counts
//!   from a metrics-enabled run (taken outside the timed loop; the
//!   criterion measurements keep telemetry disabled), so load imbalance
//!   across the round-robin VP split is visible.
//!
//! The sequential-over-parallel speedup of Phase I is measured, with the
//! set-up split out, by the repository benchmark's traced run
//! (`executor.speedup` in `perfbench/`).

use criterion::{criterion_group, criterion_main, Criterion};
use traffic_shadowing::shadow_core::campaign::Phase1Config;
use traffic_shadowing::shadow_core::executor::{run_phase1_chunks, ChunkConfig, TelemetryOptions};
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{generate_spec, WorldConfig};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bench(c: &mut Criterion) {
    let spec = generate_spec(WorldConfig::standard(7));
    let config = Phase1Config::default();
    println!(
        "\nsharding {} VPs across worker threads (standard world)",
        spec.platform.vps.len()
    );
    let run = |k: usize, telemetry: TelemetryOptions| {
        run_phase1_chunks(
            &spec,
            &config,
            ChunkConfig::with_workers(k).with_chunks(k),
            telemetry,
            None,
            SinkConfig::streaming(),
            None,
        )
    };

    // One metrics-enabled run per shard count (outside the timed group —
    // the criterion loop below stays telemetry-disabled) to report how
    // evenly the event load splits across shards.
    for threads in SHARD_COUNTS {
        let sharded = run(threads, TelemetryOptions::enabled(false));
        let drained = &sharded.data.metrics.run.events_drained_per_shard;
        let total: u64 = drained.values().sum();
        let per_shard: Vec<String> = drained
            .iter()
            .map(|(shard, n)| format!("\"{shard}\":{n}"))
            .collect();
        println!(
            "SHARD_EVENTS {{\"threads\":{},\"total\":{},\"per_shard\":{{{}}}}}",
            threads,
            total,
            per_shard.join(",")
        );
    }

    // Wall-clock of the K×K scheduler on this host.
    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    for threads in SHARD_COUNTS {
        group.bench_function(&format!("phase1_threads_{threads}"), |b| {
            b.iter(|| run(threads, TelemetryOptions::disabled()))
        });
    }
    group.finish();

    shadow_bench::report_peak_rss("shard_scaling");
}

criterion_group!(benches, bench);
criterion_main!(benches);
