//! Correlation throughput: the capture-time `CorrelationSink` (classify
//! and fold, retain nothing) over a synthetic stream. Writes the
//! `BENCH_correlate.json` record: the sink's arrivals/sec and its
//! 10x-scale peak RSS.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use shadow_bench::correlate::{build_fixture, gen_stream, run_correlate};
use shadow_bench::record::{self, mib};
use traffic_shadowing::shadow_core::sink::{CorrelationSink, SinkConfig};
use traffic_shadowing::shadow_honeypot::capture::ArrivalSink;

const DECOYS: usize = 1_200;
const ARRIVALS: u64 = 120_000;

/// One-shot measurement, written as the `BENCH_correlate.json` record
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
    let m = run_correlate(DECOYS, ARRIVALS);
    let mut metrics = vec![
        ("decoys", m.decoys as f64, "count"),
        ("arrivals", m.arrivals as f64, "count"),
        ("elapsed_s", m.streamed_elapsed_ns as f64 / 1e9, "s"),
        ("arrivals_per_s", m.streamed_arrivals_per_sec, "arrivals/s"),
    ];
    metrics.extend(
        m.rss_streamed_10x_bytes
            .map(|b| ("peak_rss_mb", mib(b), "MiB")),
    );
    record::write("correlate", &metrics);
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
