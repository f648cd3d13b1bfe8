//! Ablation: traceroute reliability vs. silent routers.
//!
//! The paper acknowledges "hops and addresses reported by traceroute are
//! not always complete or reliable, when devices refuse to respond". This
//! ablation sweeps the fraction of ICMP-responsive routers and reports how
//! Phase II's observer localization degrades — quantifying the limitation.

use criterion::{criterion_group, criterion_main, Criterion};
use traffic_shadowing::shadow_analysis::report::pct;
use traffic_shadowing::shadow_core::world::WorldConfig;
use traffic_shadowing::study::{Study, StudyConfig};

fn localization_at(icmp_percent: u8) -> (usize, usize, usize) {
    let outcome = Study::run(StudyConfig {
        world: WorldConfig {
            icmp_response_percent: icmp_percent,
            ..WorldConfig::tiny(51)
        },
        ..StudyConfig::tiny(51)
    });
    let traced = outcome.traceroutes.len();
    let localized = outcome
        .traceroutes
        .iter()
        .filter(|r| r.normalized_hop.is_some())
        .count();
    let with_addr = outcome
        .traceroutes
        .iter()
        .filter(|r| r.observer_addr.is_some())
        .count();
    (traced, localized, with_addr)
}

fn bench(c: &mut Criterion) {
    println!("\n=== Ablation: ICMP responsiveness vs Phase II accuracy ===");
    println!(
        "{:>14} {:>8} {:>11} {:>14}",
        "icmp-responsive", "traced", "localized", "addr revealed"
    );
    for percent in [100u8, 85, 50, 20] {
        let (traced, localized, with_addr) = localization_at(percent);
        println!(
            "{:>13}% {:>8} {:>11} {:>14}",
            percent,
            traced,
            format!(
                "{} ({})",
                localized,
                pct(localized as f64 / traced.max(1) as f64)
            ),
            format!(
                "{} ({})",
                with_addr,
                pct(with_addr as f64 / traced.max(1) as f64)
            ),
        );
    }
    println!("expected: localization survives silent hops (the triggering TTL is");
    println!("observed at the honeypot), but observer-address revelation degrades\n");

    let mut group = c.benchmark_group("ablation_icmp");
    group.sample_size(10);
    group.bench_function("tiny_campaign_icmp_50", |b| b.iter(|| localization_at(50)));
    group.finish();

    shadow_bench::report_peak_rss("ablation_icmp");
}

criterion_group!(benches, bench);
criterion_main!(benches);
