//! Section 5.1 — data leveraged multiple times.
//!
//! Paper: over 1 hour after emission, 51% of DNS decoys still produce more
//! than 3 unsolicited requests, 2.4% more than 10.

use criterion::{criterion_group, criterion_main, Criterion};
use shadow_bench::{pct, study};
use traffic_shadowing::shadow_analysis::reuse::ReuseReport;
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;

fn bench(c: &mut Criterion) {
    let outcome = study();
    let reuse = outcome.reuse();

    println!("\n=== §5.1 (reproduced): reuse of retained data (cutoff 1h) ===");
    println!(
        "decoys still producing after 1h: {} (of {} triggered)",
        reuse.late_active_decoys(),
        reuse.triggered_decoys
    );
    println!(
        ">3 unsolicited requests: {} (paper 51%)",
        pct(reuse.fraction_exceeding(3))
    );
    println!(
        ">10 unsolicited requests: {} (paper 2.4%)",
        pct(reuse.fraction_exceeding(10))
    );
    println!("max reuse observed: {}\n", reuse.max_reuse());

    c.bench_function("s51/reuse_compute", |b| {
        b.iter(|| ReuseReport::compute(&outcome.phase1.aggregates, DecoyProtocol::Dns))
    });

    shadow_bench::report_peak_rss("s51_reuse_counts");
}

criterion_group!(benches, bench);
criterion_main!(benches);
