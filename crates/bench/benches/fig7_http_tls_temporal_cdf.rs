//! Figure 7 — CDF of time between unsolicited requests and the initial
//! HTTP (/TLS) decoy.
//!
//! Paper: data observed from HTTP/TLS decoys is retained shorter than from
//! DNS decoys (fewer multi-day arrivals); mid-path observers correlate
//! with shorter intervals (storage-bounded routing devices), destination
//! observers with longer ones.

use criterion::{criterion_group, criterion_main, Criterion};
use shadow_bench::{pct, study};
use traffic_shadowing::shadow_analysis::report::render_series;
use traffic_shadowing::shadow_analysis::temporal::{interval_histogram, paper_grid};
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_core::sink::IntervalHistogram;
use traffic_shadowing::shadow_netsim::time::SimDuration;

fn bench(c: &mut Criterion) {
    let outcome = study();
    let (http, tls) = outcome.fig7();
    let dns = outcome.fig4();

    println!("\n=== Figure 7 (reproduced): HTTP/TLS interval CDFs ===");
    println!(
        "{}",
        render_series(
            &format!("HTTP decoys (n={})", http.total()),
            &paper_grid(&http)
        )
    );
    println!(
        "{}",
        render_series(
            &format!("TLS decoys (n={})", tls.total()),
            &paper_grid(&tls)
        )
    );
    let tail = |hist: &IntervalHistogram| {
        1.0 - hist.fraction_at(SimDuration::from_days(10)).unwrap_or(1.0)
    };
    println!(
        ">10-day tail: HTTP {} | TLS {} | DNS (Resolver_h) {}",
        pct(tail(&http)),
        pct(tail(&tls)),
        pct(tail(&dns)),
    );
    println!("paper: HTTP/TLS retained shorter than DNS (smaller multi-day tail)\n");

    c.bench_function("fig7/interval_histograms", |b| {
        b.iter(|| {
            (
                interval_histogram(&outcome.phase1.aggregates, DecoyProtocol::Http, None),
                interval_histogram(&outcome.phase1.aggregates, DecoyProtocol::Tls, None),
            )
        })
    });

    shadow_bench::report_peak_rss("fig7_http_tls_temporal_cdf");
}

criterion_group!(benches, bench);
criterion_main!(benches);
