//! The always-on measurement daemon: run a multi-wave campaign in the
//! background while serving its live state over HTTP.
//!
//! Run with `cargo run --release --example serve_campaign -- [seed]
//! [--tiny] [--shards N] [--waves N] [--bind ADDR] [--checkpoint PATH]
//! [--resume PATH] [--linger SECS]`.
//!
//! Endpoints (all JSON unless noted):
//!   /api/status        campaign progress + tail backpressure counters
//!   /api/aggregates    cumulative correlation aggregates (portable form)
//!   /api/metrics       cumulative merged telemetry metrics
//!   /api/robustness    robustness cell of the latest completed wave
//!   /api/journal/tail  live journal stream (Server-Sent Events)
//!
//! `--checkpoint PATH` persists a [`shadow_serve::CampaignCheckpoint`]
//! after every wave; `--resume PATH` restores one and runs only the
//! remaining waves. `--linger SECS` keeps the HTTP surface up that long
//! after the last wave so late readers can still fetch the final state
//! (0, the default, shuts down as soon as the campaign ends).

use shadow_serve::{serve, CampaignCheckpoint, CampaignDriver, ServeConfig, ServeError};
use std::path::{Path, PathBuf};
use traffic_shadowing::shadow_core::executor::TelemetryOptions;
use traffic_shadowing::study::StudyConfig;

const USAGE: &str = "usage: serve_campaign [seed] [--tiny] [--shards N] [--waves N] \
     [--bind ADDR] [--checkpoint PATH] [--resume PATH] [--linger SECS]";

fn path_arg(args: &[String], i: usize, flag: &str) -> String {
    match args.get(i + 1) {
        Some(p) if !p.is_empty() && !p.starts_with("--") => p.clone(),
        _ => {
            eprintln!("{flag} needs a non-empty file path");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 7;
    let mut tiny = false;
    let mut shards: usize = 1;
    let mut waves: Option<usize> = None;
    let mut bind = "127.0.0.1:7070".to_string();
    let mut checkpoint_out: Option<String> = None;
    let mut resume_from: Option<String> = None;
    let mut linger_secs: u64 = 0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tiny" => {
                tiny = true;
                i += 1;
            }
            "--shards" => {
                match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    None | Some(0) => {
                        eprintln!("--shards needs a positive integer");
                        std::process::exit(2);
                    }
                    Some(k) => shards = k,
                }
                i += 2;
            }
            "--waves" => {
                match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    None | Some(0) => {
                        eprintln!("--waves needs a positive integer");
                        std::process::exit(2);
                    }
                    Some(w) => waves = Some(w),
                }
                i += 2;
            }
            "--bind" => {
                match args.get(i + 1) {
                    Some(a) if !a.is_empty() && !a.starts_with("--") => bind = a.clone(),
                    _ => {
                        eprintln!("--bind needs an address like 127.0.0.1:7070");
                        std::process::exit(2);
                    }
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
            "--linger" => {
                match args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) {
                    None => {
                        eprintln!("--linger needs a number of seconds");
                        std::process::exit(2);
                    }
                    Some(s) => linger_secs = s,
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
        study: StudyConfig {
            telemetry: TelemetryOptions::enabled(true),
            ..if tiny {
                StudyConfig::tiny(seed)
            } else {
                StudyConfig::standard(seed)
            }
        },
        waves: waves.unwrap_or_else(|| loaded.as_ref().map_or(2, |c| c.header.waves_total)),
        shards,
        checkpoint_path: checkpoint_out.map(PathBuf::from),
        ..ServeConfig::tiny(seed)
    };
    let waves_total = config.waves;
    let driver = match loaded {
        Some(checkpoint) => match CampaignDriver::resume(config, checkpoint) {
            Ok(driver) => driver,
            Err(e) => {
                eprintln!("--resume: {e}");
                std::process::exit(2);
            }
        },
        None => CampaignDriver::new(config),
    };
    let resumed_at = driver.waves_done();

    let mut handle = match serve(driver, &bind) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let addr = handle.addr();
    println!("shadow-serve: seed {seed}, {waves_total} waves, {shards} shard(s) on http://{addr}");
    if resumed_at > 0 {
        println!("resumed after wave {resumed_at}");
    }
    println!("  http://{addr}/api/status");
    println!("  http://{addr}/api/aggregates");
    println!("  http://{addr}/api/metrics");
    println!("  http://{addr}/api/robustness");
    println!("  http://{addr}/api/journal/tail   (SSE)");

    let driver = handle.join_campaign();
    if let Some(driver) = &driver {
        println!(
            "campaign complete: {} waves | arrivals {} | unsolicited {} | {} journal records",
            driver.waves_done(),
            driver.aggregates().arrivals_seen,
            driver.aggregates().unsolicited_total(),
            driver.journal_len(),
        );
        if let Some(path) = &driver.config().checkpoint_path {
            println!("final checkpoint at {}", path.display());
        }
    }
    if linger_secs > 0 {
        println!("serving the final state for {linger_secs}s more (--linger)");
        std::thread::sleep(std::time::Duration::from_secs(linger_secs));
    }
    handle.shutdown();
}
