//! The paper-scale (simulated) campaign: builds the standard world, runs
//! pre-flight vetting, Phase I, Phase II, and prints every table and figure
//! of the evaluation section side by side with the paper's reported
//! numbers (`traffic_shadowing::tables::report`). This is the binary
//! behind EXPERIMENTS.md.
//!
//! Run with `cargo run --release --example full_campaign [seed] [--shards N]
//! [--tiny] [--metrics-out PATH] [--journal PATH]`.
//!
//! `--shards N` executes the campaign across N worker threads (the chunk
//! scheduler at N chunks on N workers: one world per chunk, one shared
//! plan, merged deterministically); the output is byte-identical to the
//! sequential run for any N. `--paper-scale` (or `--scale-factor N`, N
//! times the paper's decoy volume) runs the paper's own deployment and,
//! without `--shards`, one worker per core. `--metrics-out` writes the merged
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

use shadow_serve::{CampaignCheckpoint, CampaignDriver, ServeConfig, ServeError};
use std::path::{Path, PathBuf};
use traffic_shadowing::shadow_analysis::report::render_table;
use traffic_shadowing::shadow_chaos::{FaultProfile, RetrySpec};
use traffic_shadowing::shadow_core::executor::{ChunkConfig, TelemetryOptions};
use traffic_shadowing::shadow_packet::EncryptionDeployment;
use traffic_shadowing::shadow_telemetry::{to_jsonl, JournalRecord, MetricsSnapshot};
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};
use traffic_shadowing::tables;

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
    if scale_factor.is_some() {
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
    }
    let artifacts = Artifacts {
        metrics_out,
        journal_out,
    };
    if waves.is_some() || checkpoint_out.is_some() || resume_from.is_some() {
        let study = study_config(
            base_config(seed, tiny),
            TelemetryOptions::enabled(true),
            faults,
            encryption,
        );
        run_campaign(
            seed,
            study,
            shards,
            waves,
            checkpoint_out,
            resume_from,
            artifacts,
        );
        return;
    }
    let telemetry = if artifacts.metrics_out.is_some() || artifacts.journal_out.is_some() {
        TelemetryOptions::enabled(artifacts.journal_out.is_some())
    } else {
        TelemetryOptions::disabled()
    };
    let preset = match scale_factor {
        Some(factor) => StudyConfig::paper_scale_factor(seed, factor),
        None => base_config(seed, tiny),
    };
    let config = study_config(preset, telemetry, faults, encryption.clone());
    if let Some(factor) = scale_factor {
        eprintln!(
            "[paper-scale] factor {factor}: {} VPs x {} sites (building world + plan; \
             this is minutes of setup before sends start)",
            config.world.vps_global + config.world.vps_cn,
            config.world.tranco_sites,
        );
    }
    let started = std::time::Instant::now();
    let outcome = match (shards, scale_factor) {
        (Some(k), _) => Study::run_sharded(config, k),
        (None, Some(_)) => Study::run_chunked(config, ChunkConfig::auto()),
        (None, None) => Study::run(config),
    };
    let (kind, factor) = match scale_factor {
        Some(f) => ("paper-scale campaign", format!("factor {f}, ")),
        None => ("full campaign", String::new()),
    };
    let shape = match (shards, scale_factor) {
        (Some(k), _) => format!("{k} shards, "),
        (None, Some(_)) => "work-stealing, ".to_string(),
        (None, None) => String::new(),
    };
    println!(
        "=== {kind} (seed {seed}, {factor}{shape}{:?}) ===\n",
        started.elapsed()
    );
    println!("{}\n", outcome.summary());
    if let Some(level) = &encryption {
        println!("(encryption deployment: {})\n", level.level);
    }
    print!("{}", tables::report(&outcome));
    let encryption_sweep = encryption_report
        .then(|| print_encryption_report(&base_config(seed, tiny), shards.unwrap_or(1)));
    if let (Some(metrics), Some(_)) = (&outcome.metrics, &artifacts.metrics_out) {
        println!("\n--- telemetry: run metrics ---");
        let rows: Vec<Vec<String>> = metrics
            .summary_rows()
            .into_iter()
            .map(|(metric, value)| vec![metric, value])
            .collect();
        println!("{}", render_table(&["metric", "value"], &rows));
    }
    artifacts.write(
        outcome.metrics.as_ref(),
        outcome.journal.as_deref(),
        ["metrics snapshot", "event journal"],
    );
    let mut bundle = outcome.export_bundle();
    bundle.encryption = encryption_sweep;
    if let Ok(json) = bundle.to_json() {
        let path = std::env::temp_dir().join(format!("traffic-shadowing-seed{seed}.json"));
        if std::fs::write(&path, json).is_ok() {
            println!("\nanalysis bundle written to {}", path.display());
        }
    }
    if topology_report {
        print_topology_report(&outcome, &base_config(seed, tiny), shards.unwrap_or(1));
    }
}

/// The tiny or standard preset, fault- and telemetry-free; the sweep
/// cells and campaign mode start from it.
fn base_config(seed: u64, tiny: bool) -> StudyConfig {
    if tiny {
        StudyConfig::tiny(seed)
    } else {
        StudyConfig::standard(seed)
    }
}

/// `preset` with the run's telemetry, faults and encryption deployment.
fn study_config(
    preset: StudyConfig,
    telemetry: TelemetryOptions,
    faults: Option<FaultProfile>,
    encryption: Option<EncryptionDeployment>,
) -> StudyConfig {
    let mut config = StudyConfig {
        telemetry,
        faults,
        ..preset
    };
    if let Some(level) = encryption {
        config.phase1.encryption = level;
    }
    config
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

/// Where `--metrics-out` and `--journal` go, shared by the one-shot path
/// and campaign mode.
struct Artifacts {
    metrics_out: Option<String>,
    journal_out: Option<String>,
}

impl Artifacts {
    /// Write the metrics JSON and the journal JSONL to the requested
    /// paths, confirming each under `names` (metrics, journal); a failure
    /// to serialize or write exits 1.
    fn write(
        &self,
        metrics: Option<&MetricsSnapshot>,
        journal: Option<&[JournalRecord]>,
        names: [&str; 2],
    ) {
        if let (Some(metrics), Some(path)) = (metrics, &self.metrics_out) {
            write_or_exit(path, "metrics", metrics.to_json());
            println!("{} written to {path}", names[0]);
        }
        if let (Some(journal), Some(path)) = (journal, &self.journal_out) {
            write_or_exit(path, "journal", to_jsonl(journal));
            println!("{} ({} records) written to {path}", names[1], journal.len());
        }
    }
}

fn write_or_exit(path: &str, what: &str, serialized: Result<String, serde_json::Error>) {
    let text = serialized.unwrap_or_else(|e| {
        eprintln!("failed to serialize {what}: {e:?}");
        std::process::exit(1);
    });
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("failed to write {what} to {path}: {e}");
        std::process::exit(1);
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
fn run_campaign(
    seed: u64,
    study: StudyConfig,
    shards: Option<usize>,
    waves: Option<usize>,
    checkpoint_out: Option<String>,
    resume_from: Option<String>,
    artifacts: Artifacts,
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
        driver.journal_len(),
        driver.sim_cursor_ms(),
    );
    artifacts.write(
        Some(driver.metrics()),
        Some(driver.journal()),
        ["cumulative metrics snapshot", "campaign journal"],
    );

    match last_outcome {
        Some(outcome) => {
            println!("\n--- evaluation report, final wave ---\n");
            println!("{}\n", outcome.summary());
            print!("{}", tables::report(&outcome));
        }
        None => println!("nothing to run: the checkpoint already covers every wave"),
    }
}
