//! Serving-surface benchmark: start the `shadow-serve` daemon, run its
//! campaign to completion, then hammer the pre-rendered snapshot
//! endpoint from many concurrent clients. Writes snapshot reads/sec and
//! p50/p99 request latency as the `BENCH_serve.json` record, plus the engine
//! hot-path rate measured while the idle server is still bound — the
//! guard that snapshot serving costs the pipeline nothing.

use criterion::{criterion_group, criterion_main, Criterion};
use shadow_bench::hotpath::run_hot_path;
use shadow_bench::record;
use shadow_bench::serving::{percentile_us, ServeMetrics};
use shadow_serve::client::http_get;
use shadow_serve::{serve, CampaignDriver, ServeConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 7;

/// Run the daemon campaign to completion, then measure `clients`
/// concurrent readers against `/api/aggregates` for `window`, and the
/// hot path with the idle server still up.
fn measure(clients: usize, window: Duration, hotpath_packets: u64) -> ServeMetrics {
    let config = ServeConfig {
        waves: 1,
        ..ServeConfig::tiny(SEED)
    };
    let mut handle = serve(CampaignDriver::new(config), "127.0.0.1:0").expect("daemon starts");
    handle.join_campaign().expect("campaign finishes");
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut latencies_us = Vec::new();
                let mut errors = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let begun = Instant::now();
                    match http_get(addr, "/api/aggregates") {
                        Ok((200, _)) => latencies_us.push(begun.elapsed().as_micros() as u64),
                        _ => errors += 1,
                    }
                }
                (latencies_us, errors)
            })
        })
        .collect();
    std::thread::sleep(window);
    stop.store(true, Ordering::Release);

    let mut all_us = Vec::new();
    let mut errors = 0u64;
    for worker in workers {
        let (latencies, errs) = worker.join().expect("loadgen client");
        all_us.extend(latencies);
        errors += errs;
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    all_us.sort_unstable();

    // The idle-server guard: nobody is reading now, so the hot path
    // should run at its BENCH_pipeline.json rate.
    let idle_hotpath = run_hot_path(hotpath_packets);
    handle.shutdown();

    ServeMetrics {
        clients: clients as u64,
        window_secs: elapsed,
        reads: all_us.len() as u64,
        reads_per_sec: all_us.len() as f64 / elapsed,
        p50_us: percentile_us(&all_us, 0.50),
        p99_us: percentile_us(&all_us, 0.99),
        errors,
        idle_hotpath_hops_per_sec: idle_hotpath.hops_per_sec,
    }
}

fn serve_surface(_c: &mut Criterion) {
    if criterion::test_mode() {
        // Smoke mode: prove the daemon + loadgen fixture runs, but never
        // overwrite the committed record with a tiny measurement.
        let metrics = measure(4, Duration::from_millis(300), 500);
        println!(
            "Testing serve/snapshot_reads ... ok ({} reads, {} errors)",
            metrics.reads, metrics.errors
        );
        assert_eq!(metrics.errors, 0, "loadgen saw failed reads");
        shadow_bench::report_peak_rss("serve_throughput");
        return;
    }
    let m = measure(32, Duration::from_secs(5), 60_000);
    record::write(
        "serve",
        &[
            ("clients", m.clients as f64, "count"),
            ("window_s", m.window_secs, "s"),
            ("reads", m.reads as f64, "count"),
            ("reads_per_s", m.reads_per_sec, "reads/s"),
            ("read_p50_ms", m.p50_us as f64 / 1e3, "ms"),
            ("read_p99_ms", m.p99_us as f64 / 1e3, "ms"),
            ("read_errors", m.errors as f64, "count"),
            ("idle_hops_per_s", m.idle_hotpath_hops_per_sec, "hops/s"),
        ],
    );

    shadow_bench::report_peak_rss("serve_throughput");
}

criterion_group!(benches, serve_surface);
criterion_main!(benches);
