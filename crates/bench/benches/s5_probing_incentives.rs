//! Sections 5.1/5.2 — HTTP and HTTPS probing incentives.
//!
//! Paper: ≥90–95% of unsolicited HTTP requests perform path enumeration;
//! no exploit payloads found; origin-IP blocklist rates 57%/72% (HTTP/
//! HTTPS, DNS-decoy-triggered) and 45%/55% (HTTP/TLS-decoy-triggered).

use criterion::{criterion_group, criterion_main, Criterion};
use shadow_bench::{pct, study};
use traffic_shadowing::shadow_analysis::probing::ProbingReport;
use traffic_shadowing::shadow_analysis::report::render_table;
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;

fn bench(c: &mut Criterion) {
    let outcome = study();

    println!("\n=== §5 (reproduced): probing incentives ===");
    let mut rows = Vec::new();
    for protocol in [DecoyProtocol::Dns, DecoyProtocol::Http, DecoyProtocol::Tls] {
        let report = outcome.probing(protocol);
        rows.push(vec![
            protocol.as_str().to_string(),
            report.http_requests.to_string(),
            pct(report.enumeration_fraction()),
            report.exploits.to_string(),
            pct(report.blocklist_rate("HTTP")),
            pct(report.blocklist_rate("HTTPS")),
            pct(report.blocklist_rate("DNS")),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "decoy",
                "HTTP reqs",
                "enum",
                "exploits",
                "BL HTTP",
                "BL HTTPS",
                "BL DNS"
            ],
            &rows
        )
    );
    let dns_probing = outcome.probing(DecoyProtocol::Dns);
    let top: Vec<String> = dns_probing
        .top_paths
        .iter()
        .map(|(p, c)| format!("{p} ({c})"))
        .take(6)
        .collect();
    println!("sample probed paths: {}", top.join(", "));
    println!("paper: ~95% enumeration, zero exploit payloads\n");

    c.bench_function("s5/probing_compute", |b| {
        b.iter(|| {
            ProbingReport::compute(
                &outcome.phase1.aggregates,
                DecoyProtocol::Dns,
                &outcome.blocklist,
            )
        })
    });

    shadow_bench::report_peak_rss("s5_probing_incentives");
}

criterion_group!(benches, bench);
criterion_main!(benches);
