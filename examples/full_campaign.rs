//! The paper-scale (simulated) campaign: builds the standard world, runs
//! pre-flight vetting, Phase I, Phase II, and prints every table and figure
//! of the evaluation section side by side with the paper's reported
//! numbers. This is the binary behind EXPERIMENTS.md.
//!
//! Run with `cargo run --release --example full_campaign [seed] [--shards N]
//! [--tiny] [--metrics-out PATH] [--journal PATH]`.
//!
//! `--shards N` executes the campaign across N worker threads (the
//! work-stealing scheduler at N chunks on N workers: one world per chunk,
//! one shared plan, merged deterministically); the output is byte-identical
//! to the sequential run for any N. `--metrics-out` writes the merged
//! telemetry snapshot as JSON (and prints a summary table); `--journal`
//! writes the canonically sorted event journal as JSONL (compare runs with
//! the `journal_diff` example). `--tiny` runs the small test world instead
//! of the paper-scale one (used by CI). `--loss P` injects P% uniform
//! per-link packet loss (with the standard DNS retry policy);
//! `--fault-seed S` re-keys which packets the faults hit.
//!
//! `--encryption <level>` runs the whole campaign at one deployment level
//! of the encryption ladder (`plaintext`, `early`, `mixed`, `full`,
//! `fronted`) — decoys pick their transports (DoT/DoH/DoQ, ECH, fronted
//! TLS) per-flow from the level's adoption percentages.
//! `--encryption-report` instead sweeps the entire ladder (one extra
//! campaign per level plus a plaintext baseline) and appends the
//! shadowing-under-encryption comparison: resolver-side recall vs on-wire
//! name recall vs the IP-fingerprint fallback, per level. One-shot mode
//! only, and mutually exclusive with `--encryption` (the report already
//! covers every level).
//!
//! `--topology-report` appends the shadow-topo section: the router graph
//! reconstructed from Phase II Time-Exceeded arrivals (cross-validated
//! against the ground-truth topology) followed by the
//! accuracy-vs-ICMP-coverage sweep — one extra campaign per rate-limit
//! level. One-shot mode only (ignored in campaign mode).
//!
//! **Campaign mode** (`--waves N`, `--checkpoint PATH`, `--resume PATH`):
//! instead of a one-shot study, drive the `shadow-serve` campaign loop —
//! N waves folded into one cumulative state, checkpointed after every
//! wave when `--checkpoint` is given. `--resume PATH` restores a saved
//! checkpoint and runs the remaining waves; the final state is
//! byte-identical to a run that was never interrupted. The checkpoint
//! header carries a world hash, so resuming under a different
//! configuration (e.g. a `--tiny` checkpoint without `--tiny`) fails
//! loudly instead of silently blending two campaigns. Campaign mode
//! always records telemetry (the checkpoint carries the journal and
//! metrics) and prints the evaluation report for the final wave.

use shadow_analysis::report::{pct, render_series, render_table};
use shadow_analysis::temporal::paper_grid;
use shadow_serve::{CampaignCheckpoint, CampaignDriver, ServeConfig, ServeError};
use std::path::{Path, PathBuf};
use traffic_shadowing::shadow_analysis;
use traffic_shadowing::shadow_chaos::{FaultProfile, RetrySpec};
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_core::executor::{StealConfig, TelemetryOptions};
use traffic_shadowing::shadow_netsim::time::SimDuration;
use traffic_shadowing::shadow_packet::EncryptionDeployment;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

const USAGE: &str = "usage: full_campaign [seed] [--shards N] [--tiny] [--paper-scale] \
     [--scale-factor N] [--metrics-out PATH] [--journal PATH] [--loss PERCENT] \
     [--fault-seed S] [--waves N] [--checkpoint PATH] [--resume PATH] [--topology-report] \
     [--encryption LEVEL] [--encryption-report]";

fn path_arg(args: &[String], i: usize, flag: &str) -> String {
    match args.get(i + 1) {
        Some(p) if !p.is_empty() && !p.starts_with("--") => p.clone(),
        Some(p) if p.is_empty() => {
            eprintln!("{flag} needs a non-empty file path");
            std::process::exit(2);
        }
        _ => {
            eprintln!("{flag} needs a file path");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 7;
    let mut shards: Option<usize> = None;
    let mut tiny = false;
    let mut scale_factor: Option<u32> = None;
    let mut metrics_out: Option<String> = None;
    let mut journal_out: Option<String> = None;
    let mut loss_percent: f64 = 0.0;
    let mut fault_seed: u64 = 1;
    let mut waves: Option<usize> = None;
    let mut checkpoint_out: Option<String> = None;
    let mut resume_from: Option<String> = None;
    let mut topology_report = false;
    let mut encryption: Option<EncryptionDeployment> = None;
    let mut encryption_report = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shards" => {
                shards = args.get(i + 1).and_then(|s| s.parse().ok());
                match shards {
                    None => {
                        eprintln!("--shards needs a positive integer");
                        std::process::exit(2);
                    }
                    Some(0) => {
                        eprintln!("--shards must be at least 1 (got 0)");
                        std::process::exit(2);
                    }
                    Some(_) => {}
                }
                i += 2;
            }
            "--tiny" => {
                tiny = true;
                i += 1;
            }
            "--paper-scale" => {
                scale_factor = scale_factor.or(Some(1));
                i += 1;
            }
            "--scale-factor" => {
                match args.get(i + 1).and_then(|s| s.parse::<u32>().ok()) {
                    None => {
                        eprintln!(
                            "--scale-factor needs a positive integer (e.g. --scale-factor 10 \
                             for ten times the paper's decoy volume; 1 is the paper's own scale)"
                        );
                        std::process::exit(2);
                    }
                    Some(0) => {
                        eprintln!(
                            "--scale-factor must be at least 1 (got 0) — 1 is the paper's own \
                             scale; did you mean --paper-scale?"
                        );
                        std::process::exit(2);
                    }
                    Some(f) => scale_factor = Some(f),
                }
                i += 2;
            }
            "--metrics-out" => {
                metrics_out = Some(path_arg(&args, i, "--metrics-out"));
                i += 2;
            }
            "--journal" => {
                journal_out = Some(path_arg(&args, i, "--journal"));
                i += 2;
            }
            "--loss" => {
                match args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) {
                    None => {
                        eprintln!("--loss needs a percentage");
                        std::process::exit(2);
                    }
                    Some(p) if !(0.0..=100.0).contains(&p) => {
                        eprintln!("--loss must be between 0 and 100 (got {p})");
                        std::process::exit(2);
                    }
                    Some(p) => loss_percent = p,
                }
                i += 2;
            }
            "--fault-seed" => {
                match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    None => {
                        eprintln!("--fault-seed needs a non-negative integer");
                        std::process::exit(2);
                    }
                    Some(s) => fault_seed = s,
                }
                i += 2;
            }
            "--waves" => {
                match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    None => {
                        eprintln!("--waves needs a positive integer");
                        std::process::exit(2);
                    }
                    Some(0) => {
                        eprintln!("--waves must be at least 1 (got 0)");
                        std::process::exit(2);
                    }
                    Some(w) => waves = Some(w),
                }
                i += 2;
            }
            "--checkpoint" => {
                checkpoint_out = Some(path_arg(&args, i, "--checkpoint"));
                i += 2;
            }
            "--resume" => {
                resume_from = Some(path_arg(&args, i, "--resume"));
                i += 2;
            }
            "--topology-report" => {
                topology_report = true;
                i += 1;
            }
            "--encryption" => {
                match args.get(i + 1) {
                    None => {
                        eprintln!(
                            "--encryption needs a deployment level: one of {}",
                            EncryptionDeployment::LEVEL_NAMES.join(", ")
                        );
                        std::process::exit(2);
                    }
                    Some(name) => match EncryptionDeployment::parse(name) {
                        Some(level) => encryption = Some(level),
                        None => {
                            eprintln!(
                                "--encryption: unknown level {name:?} — valid levels, \
                                 shallowest first: {} (or drop the flag for plaintext)",
                                EncryptionDeployment::LEVEL_NAMES.join(", ")
                            );
                            std::process::exit(2);
                        }
                    },
                }
                i += 2;
            }
            "--encryption-report" => {
                encryption_report = true;
                i += 1;
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
    let faults = fault_profile(loss_percent, fault_seed);
    if encryption_report {
        if encryption.is_some() {
            eprintln!(
                "--encryption and --encryption-report are mutually exclusive — the report \
                 already sweeps every ladder level; use --encryption LEVEL for a single-level \
                 campaign"
            );
            std::process::exit(2);
        }
        if waves.is_some() || checkpoint_out.is_some() || resume_from.is_some() {
            eprintln!(
                "--encryption-report re-runs the campaign once per ladder level and is not \
                 supported in campaign mode (--waves/--checkpoint/--resume) — drop those \
                 flags, or run a single level with --encryption LEVEL"
            );
            std::process::exit(2);
        }
        if scale_factor.is_some() {
            eprintln!(
                "--encryption-report re-runs the campaign once per ladder level and is not \
                 supported at paper scale — drop --paper-scale/--scale-factor, or run the \
                 report on the standard/tiny world"
            );
            std::process::exit(2);
        }
    }
    if let Some(factor) = scale_factor {
        if tiny {
            eprintln!(
                "--tiny and --paper-scale/--scale-factor are mutually exclusive — pick one \
                 world scale"
            );
            std::process::exit(2);
        }
        if waves.is_some() || checkpoint_out.is_some() || resume_from.is_some() {
            eprintln!(
                "campaign mode (--waves/--checkpoint/--resume) is not supported at paper \
                 scale — drop those flags, or run waves on the standard world"
            );
            std::process::exit(2);
        }
        if topology_report {
            eprintln!(
                "--topology-report re-runs the campaign once per ICMP level and is not \
                 supported at paper scale — drop it, or run it on the standard/tiny world"
            );
            std::process::exit(2);
        }
        if journal_out.is_some() {
            eprintln!(
                "--journal buffers one record per simulator event and is not supported at \
                 paper scale (~20M decoys/round) — drop it, or journal the standard world"
            );
            std::process::exit(2);
        }
        run_paper_scale(seed, factor, shards, faults, encryption, metrics_out);
        return;
    }
    if waves.is_some() || checkpoint_out.is_some() || resume_from.is_some() {
        run_campaign(
            seed,
            tiny,
            shards,
            waves,
            checkpoint_out,
            resume_from,
            faults,
            encryption,
            metrics_out,
            journal_out,
        );
        return;
    }
    let telemetry = if metrics_out.is_some() || journal_out.is_some() {
        TelemetryOptions::enabled(journal_out.is_some())
    } else {
        TelemetryOptions::disabled()
    };
    let mut config = StudyConfig {
        telemetry,
        faults,
        ..if tiny {
            StudyConfig::tiny(seed)
        } else {
            StudyConfig::standard(seed)
        }
    };
    if let Some(level) = &encryption {
        config.phase1.encryption = level.clone();
    }
    let started = std::time::Instant::now();
    let outcome = match shards {
        Some(k) => Study::run_sharded(config, k),
        None => Study::run(config),
    };
    match shards {
        Some(k) => println!(
            "=== full campaign (seed {seed}, {k} shards, {:?}) ===\n",
            started.elapsed()
        ),
        None => println!(
            "=== full campaign (seed {seed}, {:?}) ===\n",
            started.elapsed()
        ),
    }
    println!("{}\n", outcome.summary());
    if let Some(level) = &encryption {
        println!("(encryption deployment: {})\n", level.level);
    }
    print_report(&outcome);
    let encryption_sweep = encryption_report
        .then(|| print_encryption_report(&config_for_sweep(seed, tiny), shards.unwrap_or(1)));
    print_artifacts(
        &outcome,
        seed,
        &metrics_out,
        &journal_out,
        encryption_sweep.as_ref(),
    );
    if topology_report {
        print_topology_report(&outcome, &config_for_sweep(seed, tiny), shards.unwrap_or(1));
    }
}

/// The `--encryption-report` section: one extra campaign per ladder level
/// (plus a plaintext baseline), folded into the shadowing-under-encryption
/// comparison — resolver-side recall stays flat while on-wire name recall
/// decays and the IP-fingerprint fallback picks up the slack.
fn print_encryption_report(
    base: &StudyConfig,
    shards: usize,
) -> traffic_shadowing::encryption::EncryptionReport {
    println!(
        "--- shadowing under encryption (deployment-ladder sweep, {shards} shard(s)/cell) ---"
    );
    let report = traffic_shadowing::encryption::run_default_sweep(base, shards, 2);
    println!("{}", report.render());
    println!(
        "paper §6: encrypting the name (DoT/DoH/DoQ, ECH, fronting) blinds on-wire \
         observers but not the resolver operator; destination-IP fingerprints remain\n"
    );
    report
}

/// The `--paper-scale` / `--scale-factor N` path: the §3 deployment scale
/// (4,364 VPs × 2,325 sites, ~20M Phase I decoys per round at factor 1).
/// Arrivals fold into the capture-time sinks like every other run, so the
/// full report prints from the same function as the standard world. The
/// work-stealing scheduler compiles one shared scout plan either way;
/// without `--shards` it runs one worker per available core, with
/// `--shards K` at K chunks on K workers.
fn run_paper_scale(
    seed: u64,
    factor: u32,
    shards: Option<usize>,
    faults: Option<FaultProfile>,
    encryption: Option<EncryptionDeployment>,
    metrics_out: Option<String>,
) {
    let telemetry = if metrics_out.is_some() {
        TelemetryOptions::enabled(false)
    } else {
        TelemetryOptions::disabled()
    };
    let mut config = StudyConfig {
        telemetry,
        faults,
        ..StudyConfig::paper_scale_factor(seed, factor)
    };
    if let Some(level) = encryption {
        config.phase1.encryption = level;
    }
    let world = &config.world;
    eprintln!(
        "[paper-scale] factor {factor}: {} VPs x {} sites (building world + plan; \
         this is minutes of setup before sends start)",
        world.vps_global + world.vps_cn,
        world.tranco_sites,
    );
    let started = std::time::Instant::now();
    let outcome = match shards {
        Some(k) => Study::run_sharded(config, k),
        None => Study::run_work_stealing(config, StealConfig::auto()),
    };
    match shards {
        Some(k) => println!(
            "=== paper-scale campaign (seed {seed}, factor {factor}, {k} shards, {:?}) ===\n",
            started.elapsed()
        ),
        None => println!(
            "=== paper-scale campaign (seed {seed}, factor {factor}, work-stealing, {:?}) ===\n",
            started.elapsed()
        ),
    }
    println!("{}\n", outcome.summary());
    print_report(&outcome);
    print_artifacts(&outcome, seed, &metrics_out, &None, None);
}

/// A fault-free, telemetry-free copy of the study configuration for the
/// ICMP-coverage sweep cells (each cell injects its own ICMP profile).
fn config_for_sweep(seed: u64, tiny: bool) -> StudyConfig {
    if tiny {
        StudyConfig::tiny(seed)
    } else {
        StudyConfig::standard(seed)
    }
}

/// The `--topology-report` section: the router graph reconstructed from
/// this run's Phase II traces, cross-validated against ground truth, then
/// the accuracy-vs-ICMP-coverage sweep (one extra campaign per level).
fn print_topology_report(outcome: &StudyOutcome, base: &StudyConfig, shards: usize) {
    use traffic_shadowing::topology_report::{self, DEFAULT_ICMP_LEVELS};

    println!("--- topology report: Phase II router-graph reconstruction ---");
    let graph = &outcome.router_graph;
    println!(
        "router graph: {} routers, {} IP links, {} AS adjacencies from {} ICMP observations over {} paths",
        graph.routers.len(),
        graph.links.len(),
        graph.as_links.len(),
        graph.observations,
        graph.traced_paths,
    );
    let mut hops: Vec<String> = graph
        .as_hops
        .iter()
        .take(6)
        .map(|h| format!("AS{} @ {:.1}", h.asn, h.mean_ttl()))
        .collect();
    if graph.as_hops.len() > 6 {
        hops.push(format!("… {} more", graph.as_hops.len() - 6));
    }
    if !hops.is_empty() {
        println!("mean hop distance per AS: {}", hops.join("  "));
    }
    let cell = topology_report::score_outcome("this run", 0.0, outcome);
    println!(
        "cross-validation: router recall {:.2}, link recall {:.2}, localization accuracy {:.2} ({}/{} localized paths correct)\n",
        cell.router_recall(),
        cell.link_recall(),
        cell.localization_accuracy(),
        cell.correct_localizations,
        cell.localized_paths,
    );

    println!("--- accuracy vs ICMP coverage (rate-limit sweep, {shards} shard(s)/cell) ---");
    let report = topology_report::run_icmp_sweep(base, &DEFAULT_ICMP_LEVELS, 1, shards, 2);
    println!("{}", report.render());
    println!(
        "paper: localization leans on Time-Exceeded answers; rate limiting starves the sweep\n"
    );
}

/// Every table, figure, and case study of the evaluation section, printed
/// from one study outcome — shared by the one-shot path and campaign
/// mode's final-wave report.
fn print_report(outcome: &StudyOutcome) {
    // ------------------------------------------------- Table 1
    println!("--- Table 1: measurement platform (after vetting) ---");
    let rows: Vec<Vec<String>> = outcome
        .world
        .platform
        .table1(&outcome.world.geo)
        .into_iter()
        .map(|r| {
            vec![
                r.market.to_string(),
                r.providers.to_string(),
                r.vps.to_string(),
                r.ases.to_string(),
                r.countries.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["Market", "Providers", "VPs", "ASes", "Countries"], &rows)
    );

    // ------------------------------------------------- Figure 3
    println!("--- Figure 3: problematic-path ratios per destination ---");
    let landscape = outcome.landscape();
    let mut rows = Vec::new();
    for dest in [
        "Yandex",
        "114DNS",
        "One DNS",
        "DNS PAI",
        "VERCARA",
        "Google",
        "Cloudflare",
        "Quad9",
        "self-built",
        "a.root",
        ".com",
    ] {
        rows.push(vec![
            dest.to_string(),
            pct(landscape.destination_ratio(dest, DecoyProtocol::Dns)),
        ]);
    }
    println!(
        "{}",
        render_table(&["DNS destination", "paths shadowed"], &rows)
    );
    println!(
        "protocol totals: DNS {} | HTTP {} | TLS {}\n",
        pct(landscape.protocol_ratio(DecoyProtocol::Dns)),
        pct(landscape.protocol_ratio(DecoyProtocol::Http)),
        pct(landscape.protocol_ratio(DecoyProtocol::Tls)),
    );

    println!("HTTP/TLS destinations most observed (site groups by hosting country):");
    for protocol in [DecoyProtocol::Http, DecoyProtocol::Tls] {
        let top: Vec<String> = landscape
            .destination_ratios(protocol)
            .into_iter()
            .filter(|(d, _, _)| d.starts_with("site:"))
            .take(4)
            .map(|(d, r, _)| format!("{d} {}", pct(r)))
            .collect();
        println!("  {}: {}", protocol.as_str(), top.join("  "));
    }
    println!("paper: destinations in CN, AD, US, CA most associated\n");

    // ------------------------------------------------- Table 2
    println!("--- Table 2: normalized location of traffic observers ---");
    let hop_table = outcome.hop_table();
    let mut rows = Vec::new();
    for protocol in [DecoyProtocol::Dns, DecoyProtocol::Http, DecoyProtocol::Tls] {
        let mut row = vec![protocol.as_str().to_string()];
        for hop in 1..=10u8 {
            row.push(format!("{:.1}", hop_table.percent(protocol, hop)));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &["proto", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10=dst"],
            &rows
        )
    );

    // ------------------------------------------------- Table 3
    println!("--- Table 3: top networks of on-path traffic observers ---");
    let ips = outcome.observer_ips();
    println!(
        "observer IPs revealed: {} ({} in CN)\n",
        ips.total_ips,
        pct(ips.country_fraction("CN"))
    );
    for protocol in [DecoyProtocol::Dns, DecoyProtocol::Http, DecoyProtocol::Tls] {
        if let Some(rows) = ips.top_ases.get(protocol.as_str()) {
            let table: Vec<Vec<String>> = rows
                .iter()
                .take(3)
                .map(|r| {
                    vec![
                        format!("AS{}", r.asn),
                        r.name.clone(),
                        r.paths.to_string(),
                        pct(r.share),
                    ]
                })
                .collect();
            println!("{protocol:?} decoys:");
            println!(
                "{}",
                render_table(&["AS", "Name", "Paths", "Share"], &table)
            );
        }
    }

    // ------------------------------------------------- Figure 4
    println!("--- Figure 4: interval CDF, DNS decoys to Resolver_h ---");
    let fig4 = outcome.fig4();
    println!("{}", render_series("Resolver_h", &paper_grid(&fig4)));
    let others = outcome.fig4_other_resolvers();
    println!(
        "other 15 resolvers: {} within 1 minute (paper: 95%)\n",
        pct(others.fraction_at(SimDuration::from_mins(1)).unwrap_or(0.0))
    );
    println!(
        "mass near the 1h mark (cache-refresh check): {} (no spike expected)\n",
        pct(fig4
            .fraction_between(SimDuration::from_mins(55), SimDuration::from_mins(65))
            .unwrap_or(0.0))
    );

    // ------------------------------------------------- Figure 5
    println!("--- Figure 5: DNS decoy outcome breakdown (selected) ---");
    let breakdown = outcome.fig5_breakdown();
    let mut rows = Vec::new();
    for dest in ["Yandex", "114DNS", "One DNS", "Google", "self-built"] {
        if let Some(row) = breakdown.iter().find(|b| b.destination == dest) {
            rows.push(vec![
                dest.to_string(),
                pct(row.shadowed_fraction()),
                pct(row.late_http_fraction()),
            ]);
        }
    }
    println!(
        "{}",
        render_table(&["Destination", "shadowed", "HTTP(S) after 1h"], &rows)
    );

    // ------------------------------------------------- Figure 6
    println!("--- Figure 6: origins of unsolicited requests (Resolver_h) ---");
    let origins = outcome.fig6_origins();
    println!(
        "Google (AS15169) share of unsolicited DNS re-queries: {}",
        pct(origins.as_share(15169))
    );
    println!(
        "114DNS origin-AS fan-out: {} ASes",
        origins.origin_as_count("114DNS")
    );
    for dest in ["Yandex", "114DNS"] {
        let rows: Vec<Vec<String>> = origins
            .named_rows(dest, &outcome.world.catalog)
            .into_iter()
            .take(4)
            .map(|(name, count)| vec![name, count.to_string()])
            .collect();
        println!("\n{dest}:");
        println!("{}", render_table(&["Origin AS", "requests"], &rows));
    }
    println!(
        "origin-IP blocklist rates: {:?}\n",
        origins
            .blocklist_rates
            .iter()
            .map(|(k, v)| format!("{k}: {}", pct(*v)))
            .collect::<Vec<_>>()
    );

    // ------------------------------------------------- Figure 7
    println!("--- Figure 7: interval CDFs, HTTP and TLS decoys ---");
    let (http, tls) = outcome.fig7();
    println!("{}", render_series("HTTP decoys", &paper_grid(&http)));
    println!("{}", render_series("TLS decoys", &paper_grid(&tls)));

    // ------------------------------------------------- §5.1 reuse
    let reuse = outcome.reuse();
    println!("--- §5.1: reuse of retained data (cutoff 1h) ---");
    println!(
        "late-active decoys: {} | >3 requests: {} (paper 51%) | >10: {} (paper 2.4%)\n",
        reuse.late_active_decoys(),
        pct(reuse.fraction_exceeding(3)),
        pct(reuse.fraction_exceeding(10)),
    );

    // ------------------------------------------------- §5 probing
    println!("--- §5: HTTP(S) probing incentives ---");
    for protocol in [DecoyProtocol::Dns, DecoyProtocol::Http, DecoyProtocol::Tls] {
        let probing = outcome.probing(protocol);
        println!(
            "{} decoys → enumeration {} | exploits {} | blocklist HTTP {} HTTPS {} DNS {}",
            protocol.as_str(),
            pct(probing.enumeration_fraction()),
            probing.exploits,
            pct(probing.blocklist_rate("HTTP")),
            pct(probing.blocklist_rate("HTTPS")),
            pct(probing.blocklist_rate("DNS")),
        );
    }

    // ------------------------------------------------- §5.2 combos
    println!("--- §5.2: protocol combinations per observer network ---");
    let combos = outcome.observer_combos();
    for (asn, mix) in combos.per_as.iter().take(6) {
        let name = outcome
            .world
            .catalog
            .get(traffic_shadowing::shadow_geo::Asn(*asn))
            .map(|i| i.name.clone())
            .unwrap_or_default();
        let parts: Vec<String> = mix.iter().map(|(p, c)| format!("{p}:{c}")).collect();
        println!("AS{asn} {name}: {}", parts.join(" "));
    }
    println!(
        "overall Decoy-Request combos: {:?}\n",
        outcome.combo_counts()
    );

    // ------------------------------------------------- §5.2 ports
    let scan = outcome.observer_port_scan();
    println!("\n--- §5.2: open ports of on-wire observers ---");
    println!(
        "{} observers scanned | no open ports: {} (paper 92%) | top open port: {:?} (paper 179)\n",
        scan.targets,
        pct(scan.closed_fraction()),
        scan.top_port()
    );

    // ------------------------------------------------- Cases
    println!("--- Case studies ---");
    if let Some(case) = outcome.resolver_case("Yandex") {
        println!(
            "I  Yandex: {} of decoys shadowed (paper >99%), {} trigger HTTP(S) (paper 51%), >10d tail {} (paper ~40%)",
            pct(case.shadowed_fraction()),
            pct(case.http_probed_fraction()),
            pct(case.ten_day_tail),
        );
    }
    if let Some(case) = outcome.anycast_case() {
        println!(
            "II 114DNS anycast: CN VPs {} vs elsewhere {} (paper: CN instances shadow, US do not)",
            pct(case.in_country_ratio()),
            pct(case.elsewhere_ratio()),
        );
    }
    let cn = outcome.cn_observer_case();
    println!(
        "III CN observers: {} of on-wire HTTP/TLS observer IPs in CN (paper 79%); {} of probe traffic from CN origins (paper 85%)",
        pct(cn.cn_observer_fraction()),
        pct(cn.cn_origin_fraction),
    );
}

/// The `--metrics-out` / `--journal` artifacts plus the analysis bundle,
/// for the one-shot path (campaign mode writes its cumulative state
/// instead).
fn print_artifacts(
    outcome: &StudyOutcome,
    seed: u64,
    metrics_out: &Option<String>,
    journal_out: &Option<String>,
    encryption: Option<&traffic_shadowing::encryption::EncryptionReport>,
) {
    // ------------------------------------------------- Telemetry artifacts
    if let (Some(metrics), Some(path)) = (&outcome.metrics, &metrics_out) {
        println!("\n--- telemetry: run metrics ---");
        let rows: Vec<Vec<String>> = metrics
            .summary_rows()
            .into_iter()
            .map(|(metric, value)| vec![metric, value])
            .collect();
        println!("{}", render_table(&["metric", "value"], &rows));
        match metrics.to_json() {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("failed to write metrics to {path}: {e}");
                    std::process::exit(1);
                }
                println!("metrics snapshot written to {path}");
            }
            Err(e) => {
                eprintln!("failed to serialize metrics: {e:?}");
                std::process::exit(1);
            }
        }
    }
    if let (Some(journal), Some(path)) = (&outcome.journal, &journal_out) {
        match traffic_shadowing::shadow_telemetry::to_jsonl(journal) {
            Ok(jsonl) => {
                if let Err(e) = std::fs::write(path, jsonl) {
                    eprintln!("failed to write journal to {path}: {e}");
                    std::process::exit(1);
                }
                println!(
                    "event journal ({} records) written to {path}",
                    journal.len()
                );
            }
            Err(e) => {
                eprintln!("failed to serialize journal: {e:?}");
                std::process::exit(1);
            }
        }
    }

    // ------------------------------------------------- JSON artifact
    let mut bundle = outcome.export_bundle();
    bundle.encryption = encryption.cloned();
    if let Ok(json) = bundle.to_json() {
        let path = std::env::temp_dir().join(format!("traffic-shadowing-seed{seed}.json"));
        if std::fs::write(&path, json).is_ok() {
            println!("\nanalysis bundle written to {}", path.display());
        }
    }
}

fn fault_profile(loss_percent: f64, fault_seed: u64) -> Option<FaultProfile> {
    (loss_percent > 0.0).then(|| FaultProfile {
        dns_retry: Some(RetrySpec::STANDARD),
        ..FaultProfile::with_loss(
            &format!("loss{loss_percent}%"),
            loss_percent / 100.0,
            fault_seed,
        )
    })
}

/// Campaign mode: drive the `shadow-serve` wave loop from the CLI,
/// checkpointing after every wave when asked, and restoring from
/// `--resume` before running the remaining waves.
#[allow(clippy::too_many_arguments)]
fn run_campaign(
    seed: u64,
    tiny: bool,
    shards: Option<usize>,
    waves: Option<usize>,
    checkpoint_out: Option<String>,
    resume_from: Option<String>,
    faults: Option<FaultProfile>,
    encryption: Option<EncryptionDeployment>,
    metrics_out: Option<String>,
    journal_out: Option<String>,
) {
    let loaded =
        resume_from
            .as_deref()
            .map(|path| match CampaignCheckpoint::load(Path::new(path)) {
                Ok(checkpoint) => checkpoint,
                Err(ServeError::MissingCheckpoint(p)) => {
                    eprintln!("--resume: no checkpoint file at {}", p.display());
                    std::process::exit(2);
                }
                Err(e) => {
                    eprintln!("--resume: cannot load checkpoint: {e}");
                    std::process::exit(2);
                }
            });
    let mut study = StudyConfig {
        telemetry: TelemetryOptions::enabled(true),
        faults,
        ..if tiny {
            StudyConfig::tiny(seed)
        } else {
            StudyConfig::standard(seed)
        }
    };
    if let Some(level) = encryption {
        study.phase1.encryption = level;
    }
    let config = ServeConfig {
        study,
        // An unflagged resume inherits the checkpoint's wave count; a
        // fresh campaign defaults to two waves.
        waves: waves.unwrap_or_else(|| loaded.as_ref().map_or(2, |c| c.header.waves_total)),
        shards: shards.unwrap_or(1),
        checkpoint_path: checkpoint_out.map(PathBuf::from),
        tail_capacity: 4096,
        http_workers: 4,
    };
    let waves_total = config.waves;
    let shard_count = config.shards;
    let mut driver = match loaded {
        Some(checkpoint) => match CampaignDriver::resume(config, checkpoint) {
            Ok(driver) => driver,
            Err(e) => {
                eprintln!("--resume: {e}");
                match e {
                    ServeError::WorldMismatch { .. } => eprintln!(
                        "hint: the checkpoint was written under a different campaign \
                         configuration — check the seed and the --tiny / --loss / --waves flags"
                    ),
                    ServeError::ShardMismatch { .. } => {
                        eprintln!("hint: pass the --shards the checkpoint was written with")
                    }
                    _ => {}
                }
                std::process::exit(2);
            }
        },
        None => CampaignDriver::new(config),
    };

    let started = std::time::Instant::now();
    if driver.waves_done() > 0 {
        println!(
            "=== campaign (seed {seed}, {waves_total} waves, {shard_count} shards; \
             resumed after wave {}) ===\n",
            driver.waves_done()
        );
    } else {
        println!("=== campaign (seed {seed}, {waves_total} waves, {shard_count} shards) ===\n");
    }

    let mut last_outcome = None;
    while let Some(report) = driver.run_next_wave() {
        println!(
            "wave {}/{waves_total} (seed {:#018x}): cumulative arrivals {} | unsolicited {} | \
             sim cursor {} ms",
            report.wave + 1,
            report.wave_seed,
            driver.aggregates().arrivals_seen,
            driver.aggregates().unsolicited_total(),
            driver.sim_cursor_ms(),
        );
        if let Some(path) = driver.config().checkpoint_path.clone() {
            if let Err(e) = driver.save_checkpoint(&path) {
                eprintln!("failed to write checkpoint to {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("  checkpoint written to {}", path.display());
        }
        last_outcome = Some(report.outcome);
    }
    println!(
        "\ncampaign complete in {:?}: {} waves | {} journal records | simulated span {} ms",
        started.elapsed(),
        driver.waves_done(),
        driver.journal().len(),
        driver.sim_cursor_ms(),
    );

    if let Some(path) = &metrics_out {
        match driver.metrics().to_json() {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("failed to write metrics to {path}: {e}");
                    std::process::exit(1);
                }
                println!("cumulative metrics snapshot written to {path}");
            }
            Err(e) => {
                eprintln!("failed to serialize metrics: {e:?}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &journal_out {
        match traffic_shadowing::shadow_telemetry::to_jsonl(driver.journal()) {
            Ok(jsonl) => {
                if let Err(e) = std::fs::write(path, jsonl) {
                    eprintln!("failed to write journal to {path}: {e}");
                    std::process::exit(1);
                }
                println!(
                    "campaign journal ({} records) written to {path}",
                    driver.journal().len()
                );
            }
            Err(e) => {
                eprintln!("failed to serialize journal: {e:?}");
                std::process::exit(1);
            }
        }
    }

    match last_outcome {
        Some(outcome) => {
            println!("\n--- evaluation report, final wave ---\n");
            println!("{}\n", outcome.summary());
            print_report(&outcome);
        }
        None => println!("nothing to run: the checkpoint already covers every wave"),
    }
}
