//! Robustness sweep: rerun the campaign under a grid of fault profiles
//! and report how much of the paper's methodology survives.
//!
//! The grid crosses uniform per-link loss {0%, 0.1%, 1%, 5%} with ICMP
//! Time-Exceeded rate limiting off/on (90% suppression). Every profile
//! arms the standard DNS retry policy, so the sweep shows the paper's
//! operational asymmetry: retry-protected DNS decoys keep detecting
//! shadowed paths while one-shot HTTP/TLS decoys fade, and observer-IP
//! revelation (which rides on ICMP replies) degrades monotonically.
//!
//! Run with `cargo run --release --example chaos_sweep [seed]
//! [--shards N] [--parallel M] [--tiny] [--json PATH]`.
//!
//! `--tiny` sweeps the miniature test world instead of the paper-scale
//! one; its handful of problematic paths makes per-cell recall values
//! coarse (one lost path can move a ratio by 10%), so the headline
//! asymmetry checks are only meaningful at full scale.

use traffic_shadowing::robustness::run_matrix;
use traffic_shadowing::shadow_chaos::{loss_grid, FaultProfile, RetrySpec};
use traffic_shadowing::study::StudyConfig;

const USAGE: &str = "usage: chaos_sweep [seed] [--shards N] [--parallel M] [--tiny] [--json PATH]";

const LOSS_LEVELS: [f64; 4] = [0.0, 0.001, 0.01, 0.05];
const ICMP_LIMIT: [f64; 2] = [0.0, 0.9];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 7;
    let mut shards: usize = 1;
    let mut parallel: usize = 4;
    let mut tiny = false;
    let mut json_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shards" => {
                match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    None | Some(0) => {
                        eprintln!("--shards needs a positive integer");
                        std::process::exit(2);
                    }
                    Some(k) => shards = k,
                }
                i += 2;
            }
            "--parallel" => {
                match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    None | Some(0) => {
                        eprintln!("--parallel needs a positive integer");
                        std::process::exit(2);
                    }
                    Some(m) => parallel = m,
                }
                i += 2;
            }
            "--tiny" => {
                tiny = true;
                i += 1;
            }
            "--json" => {
                match args.get(i + 1) {
                    Some(p) if !p.starts_with("--") => json_out = Some(p.clone()),
                    _ => {
                        eprintln!("--json needs a file path");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            raw => {
                if let Ok(s) = raw.parse() {
                    seed = s;
                } else {
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
                i += 1;
            }
        }
    }

    let template = FaultProfile {
        dns_retry: Some(RetrySpec::STANDARD),
        ..FaultProfile::baseline("template")
    };
    let grid = loss_grid(&LOSS_LEVELS, &ICMP_LIMIT, seed ^ 0xFA17, &template);
    let mut config = if tiny {
        StudyConfig::tiny(seed)
    } else {
        StudyConfig::standard(seed)
    };
    // Trace a deeper slice of detected paths than the default cap: as loss
    // shifts *which* decoys detect, a tight cap makes the Phase II path
    // set churn, and that churn (not the faults) would dominate
    // observer-IP recall. 200 per protocol keeps every observer on
    // multiple traced paths at an affordable Phase II cost.
    config.trace_cap_per_protocol = 200;

    println!(
        "=== chaos sweep (seed {seed}, {} cells, {shards} shard(s), {parallel} workers) ===\n",
        grid.len()
    );
    let started = std::time::Instant::now();
    let report = run_matrix(&config, &grid, shards, parallel);
    println!(
        "baseline: DNS {:.1}% | HTTP {:.1}% | TLS {:.1}% problematic; \
         {} observer IPs; {}/{} paths localized  ({:?})\n",
        report.baseline.dns_ratio * 100.0,
        report.baseline.http_ratio * 100.0,
        report.baseline.tls_ratio * 100.0,
        report.baseline.observer_ips,
        report.baseline.localized_paths,
        report.baseline.traced_paths,
        started.elapsed(),
    );
    println!("{}", report.render());

    // The two properties the sweep exists to demonstrate.
    let no_limit: Vec<_> = report
        .cells
        .iter()
        .filter(|c| !c.metrics.name.contains("icmplimit"))
        .collect();
    let monotone = no_limit
        .windows(2)
        .all(|w| w[1].observer_ip_recall <= w[0].observer_ip_recall);
    println!(
        "\nobserver-IP recall monotonically degrades with loss: {}",
        if monotone { "yes" } else { "NO" }
    );
    let dns_slower = no_limit
        .iter()
        .all(|c| c.dns_recall >= c.http_recall && c.dns_recall >= c.tls_recall);
    println!(
        "retry-protected DNS detection degrades no faster than one-shot HTTP/TLS: {}",
        if dns_slower { "yes" } else { "NO" }
    );

    if let Some(path) = json_out {
        match report.to_json() {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("failed to write report to {path}: {e}");
                    std::process::exit(1);
                }
                println!("robustness report written to {path}");
            }
            Err(e) => {
                eprintln!("failed to serialize report: {e:?}");
                std::process::exit(1);
            }
        }
    }
}
