//! LPM lookup throughput: the stride-4 treebitmap trie behind
//! `GeoDb::lookup` against the old sorted-vec backward scan (kept as
//! `GeoScanIndex`), over the standard world's prefix table and a shared
//! deterministic probe stream. Writes the `BENCH_topo.json` record: the
//! trie/scan ratio and the end-to-end router-graph hops/sec.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use shadow_bench::record;
use shadow_bench::topo::{gen_probes, run_topo};

const PROBES: usize = 200_000;
const FOLD_ROUNDS: usize = 50;

/// One-shot measurement, written as the `BENCH_topo.json` record
/// (skipped in `cargo test` smoke mode so a tiny debug run never
/// overwrites the committed numbers).
fn trajectory(_c: &mut Criterion) {
    if criterion::test_mode() {
        let metrics = run_topo(5_000, 2);
        println!(
            "Testing topo/lpm_lookup ... ok ({:.2}x trie vs scan, {} prefixes)",
            metrics.trie_over_scan, metrics.prefixes
        );
        return;
    }
    run_topo(PROBES / 10, 5); // warm-up
    let m = run_topo(PROBES, FOLD_ROUNDS);
    record::write(
        "topo",
        &[
            ("prefixes", m.prefixes as f64, "count"),
            ("probes", m.probes as f64, "count"),
            ("scan_s", m.scan_elapsed_ns as f64 / 1e9, "s"),
            ("trie_s", m.trie_elapsed_ns as f64 / 1e9, "s"),
            ("scan_lookups_per_s", m.scan_lookups_per_sec, "lookups/s"),
            ("trie_lookups_per_s", m.trie_lookups_per_sec, "lookups/s"),
            ("trie_over_scan", m.trie_over_scan, "x"),
            ("hop_observations", m.hop_observations as f64, "count"),
            ("hops_per_s", m.hops_per_sec, "hops/s"),
        ],
    );
}

/// Criterion comparison over a shared probe stream: identical addresses,
/// identical answers (the fixture cross-checks), the difference is the
/// index structure walking them.
fn bench(c: &mut Criterion) {
    let outcome = shadow_bench::study();
    let db = &outcome.world.geo;
    let probes = gen_probes(db, PROBES / 4);
    let scan = db.scan_index();
    let mut group = c.benchmark_group("lpm_lookup");
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function("scan", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for &addr in &probes {
                if let Some(r) = scan.lookup(addr) {
                    sum = sum.wrapping_add(u64::from(r.asn.0));
                }
            }
            sum
        })
    });
    group.bench_function("trie", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for &addr in &probes {
                if let Some(r) = db.lookup(addr) {
                    sum = sum.wrapping_add(u64::from(r.asn.0));
                }
            }
            sum
        })
    });
    group.finish();

    shadow_bench::report_peak_rss("lpm_lookup");
}

criterion_group!(benches, trajectory, bench);
criterion_main!(benches);
