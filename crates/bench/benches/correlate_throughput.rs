//! Correlation throughput: the capture-time `CorrelationSink` (classify
//! and fold, retain nothing) over a synthetic stream. Records
//! `BENCH_correlate.json` so the sink's arrivals/sec and its 10x-scale
//! peak RSS are part of the repo's perf trajectory.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use shadow_bench::correlate::{
    build_fixture, correlate_json_path, gen_stream, record_correlate_json, run_correlate,
};
use traffic_shadowing::shadow_core::sink::{CorrelationSink, SinkConfig};
use traffic_shadowing::shadow_honeypot::capture::ArrivalSink;

const DECOYS: usize = 1_200;
const ARRIVALS: u64 = 120_000;

/// One-shot trajectory measurement, recorded into `BENCH_correlate.json`
/// (skipped in `cargo test` smoke mode so a tiny debug run never
/// overwrites the committed numbers).
fn trajectory(_c: &mut Criterion) {
    if criterion::test_mode() {
        let metrics = run_correlate(60, 2_000);
        println!(
            "Testing correlate/trajectory ... ok ({:.0} arrivals/s)",
            metrics.streamed_arrivals_per_sec
        );
        return;
    }
    run_correlate(DECOYS, ARRIVALS / 10); // warm-up
    let metrics = run_correlate(DECOYS, ARRIVALS);
    println!(
        "BENCH {{\"name\":\"correlate/throughput\",\"iters\":1,\"streamed_arrivals_per_sec\":{:.0}}}",
        metrics.streamed_arrivals_per_sec
    );
    if let Some(streamed) = metrics.rss_streamed_10x_bytes {
        println!(
            "peak RSS at 10x scale ({} arrivals): {:.1} MiB",
            metrics.arrivals * 10,
            streamed as f64 / (1 << 20) as f64,
        );
    }
    let record = record_correlate_json(&correlate_json_path(), "correlate/throughput", metrics);
    if let Some(speedup) = record.speedup_streamed_per_sec {
        println!("streamed throughput vs recorded baseline: {speedup:.2}x arrivals/sec");
    }
}

/// Criterion timing of the sink over a shared pre-built stream.
fn bench(c: &mut Criterion) {
    let fixture = build_fixture(DECOYS);
    let stream = gen_stream(&fixture.records, ARRIVALS / 4);
    let mut group = c.benchmark_group("correlate");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("streamed_sink", |b| {
        b.iter(|| {
            let mut sink = CorrelationSink::new(fixture.registry.clone(), SinkConfig::streaming());
            for arrival in &stream {
                sink.offer(arrival);
            }
            sink.take_aggregates().arrivals_seen
        })
    });
    group.finish();

    shadow_bench::report_peak_rss("correlate_throughput");
}

criterion_group!(benches, trajectory, bench);
criterion_main!(benches);
