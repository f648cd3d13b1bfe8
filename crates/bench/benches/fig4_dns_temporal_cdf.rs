//! Figure 4 — CDF of time between unsolicited requests and the initial DNS
//! decoy, for the Resolver_h destinations.
//!
//! Paper: sizable mass within 1 minute (DNS-DNS retries) and after days;
//! 40% of Yandex names re-appear >10 days later; no spike near the 1 h
//! wildcard-TTL mark; the other 15 resolvers see 95% within a minute.

use criterion::{criterion_group, criterion_main, Criterion};
use shadow_bench::{pct, study};
use traffic_shadowing::shadow_analysis::report::render_series;
use traffic_shadowing::shadow_analysis::temporal::{interval_histogram, paper_grid};
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_netsim::time::SimDuration;

fn bench(c: &mut Criterion) {
    let outcome = study();
    let fig4 = outcome.fig4();
    println!(
        "\n=== Figure 4 (reproduced): Resolver_h interval CDF (n={}) ===",
        fig4.total()
    );
    println!("{}", render_series("CDF", &paper_grid(&fig4)));
    println!(
        "mass within 55–65 min (cache-refresh check: no spike): {}",
        pct(fig4
            .fraction_between(SimDuration::from_mins(55), SimDuration::from_mins(65))
            .unwrap_or(0.0))
    );
    let others = outcome.fig4_other_resolvers();
    println!(
        "other 15 resolvers within 1 minute: {} (paper 95%)\n",
        pct(others.fraction_at(SimDuration::from_mins(1)).unwrap_or(0.0))
    );

    c.bench_function("fig4/interval_histogram", |b| {
        b.iter(|| interval_histogram(&outcome.phase1.aggregates, DecoyProtocol::Dns, None))
    });

    shadow_bench::report_peak_rss("fig4_dns_temporal_cdf");
}

criterion_group!(benches, bench);
criterion_main!(benches);
