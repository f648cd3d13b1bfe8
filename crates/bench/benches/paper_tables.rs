//! Every table and figure of the paper's evaluation from one standard
//! campaign (seed 7): prints `traffic_shadowing::tables::report`, the same
//! text `full_campaign 7` prints, then times the analysis behind each
//! artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use shadow_bench::study;
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_dns::catalog::{pair_address, DNS_DESTINATIONS};
use traffic_shadowing::tables;

fn bench(c: &mut Criterion) {
    let outcome = study();
    print!("{}", tables::report(outcome));

    let world = &outcome.world;
    c.bench_function("table1/platform_summary", |b| {
        b.iter(|| world.platform.table1(&world.geo))
    });
    c.bench_function("table2/hop_table_compute", |b| {
        b.iter(|| outcome.hop_table())
    });
    c.bench_function("table3/observer_ip_summary", |b| {
        b.iter(|| outcome.observer_ips())
    });
    c.bench_function("table4/pair_address_derivation", |b| {
        b.iter(|| {
            DNS_DESTINATIONS
                .iter()
                .map(|d| pair_address(d.addr))
                .collect::<Vec<_>>()
        })
    });
    c.bench_function("fig3/landscape_compute", |b| b.iter(|| outcome.landscape()));
    c.bench_function("fig4/interval_histogram", |b| b.iter(|| outcome.fig4()));
    c.bench_function("fig5/breakdown_compute", |b| {
        b.iter(|| outcome.fig5_breakdown())
    });
    c.bench_function("fig6/origins_compute", |b| {
        b.iter(|| outcome.fig6_origins())
    });
    c.bench_function("fig7/interval_histograms", |b| b.iter(|| outcome.fig7()));
    c.bench_function("s51/reuse_compute", |b| b.iter(|| outcome.reuse()));
    c.bench_function("s5/probing_compute", |b| {
        b.iter(|| outcome.probing(DecoyProtocol::Dns))
    });
    c.bench_function("s52/port_scan", |b| b.iter(|| outcome.observer_port_scan()));

    shadow_bench::report_peak_rss("paper_tables");
}

criterion_group!(benches, bench);
criterion_main!(benches);
