//! The checkpoint/resume headline guarantee: interrupting the daemon
//! campaign after any wave, persisting a [`CampaignCheckpoint`] through
//! disk, and resuming in a fresh driver produces **byte-identical** final
//! state — aggregates, journal, and metrics — to a run that was never
//! interrupted. Checked at K ∈ {1, 4}, with and without an active
//! `FaultProfile`, by comparing the rendered checkpoint JSON strings.
//! Also: a checkpoint's journal lines are the JSONL journal, and a file
//! that is cut short or padded does not load.

use shadow_serve::{CampaignCheckpoint, CampaignDriver, ServeConfig, ServeError};
use std::path::PathBuf;
use traffic_shadowing::shadow_chaos::FaultProfile;
use traffic_shadowing::shadow_telemetry::to_jsonl;

const SEED: u64 = 4242;

fn config(shards: usize, faults: bool) -> ServeConfig {
    let mut config = ServeConfig {
        shards,
        ..ServeConfig::tiny(SEED)
    };
    if faults {
        config.study.faults = Some(FaultProfile::with_loss("serve-loss", 0.10, 77));
    }
    config
}

/// Run straight through; render the final checkpoint.
fn uninterrupted(config: &ServeConfig) -> String {
    let mut driver = CampaignDriver::new(config.clone());
    assert_eq!(driver.run_to_completion(), config.waves);
    driver.checkpoint().to_json().expect("renders")
}

/// Run one wave, checkpoint through a real file, resume in a fresh
/// driver, finish; render the final checkpoint.
fn interrupted(config: &ServeConfig, tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("shadow-serve-determinism-{tag}.json"));
    let mut first = CampaignDriver::new(config.clone());
    assert!(first.run_next_wave().is_some());
    first.save_checkpoint(&path).expect("checkpoint writes");
    drop(first);

    let loaded = CampaignCheckpoint::load(&path).expect("checkpoint loads");
    std::fs::remove_file(&path).ok();
    let mut resumed = CampaignDriver::resume(config.clone(), loaded).expect("checkpoint resumes");
    assert_eq!(resumed.waves_done(), 1);
    resumed.run_to_completion();
    resumed.checkpoint().to_json().expect("renders")
}

#[test]
fn resume_is_byte_identical_k1() {
    let config = config(1, false);
    assert_eq!(
        uninterrupted(&config),
        interrupted(&config, "plain-k1"),
        "K=1: interrupted+resumed state diverges from straight-through"
    );
}

/// The full acceptance matrix — K ∈ {1, 4} × {fault-free, lossy} — runs
/// in release mode (`--include-ignored`, CI `serve-equivalence` job): on
/// a debug build each cell is several journal-enabled campaigns.
#[test]
#[ignore = "full K×faults matrix: run in release via the CI serve-equivalence job"]
fn resume_is_byte_identical_across_shards_and_faults() {
    for shards in [1usize, 4] {
        for faults in [false, true] {
            let config = config(shards, faults);
            assert_eq!(
                uninterrupted(&config),
                interrupted(&config, &format!("matrix-k{shards}-f{faults}")),
                "K={shards}, faults={faults}: interrupted+resumed state diverges"
            );
        }
    }
}

#[test]
#[ignore = "two extra campaigns: run in release via the CI serve-equivalence job"]
fn cumulative_aggregates_are_shard_invariant() {
    // The daemon inherits the workspace-wide guarantee: the served
    // aggregates are byte-identical at any shard count. (The metrics
    // *run* section and per-record journal shard ids are legitimately
    // K-dependent, exactly as in a one-shot study.)
    let rendered = |shards| {
        let mut driver = CampaignDriver::new(config(shards, false));
        driver.run_to_completion();
        serde_json::to_string_pretty(&driver.aggregates().to_portable()).expect("renders")
    };
    assert_eq!(rendered(1), rendered(4));
}

#[test]
fn resume_rejects_mismatched_world() {
    // `--resume` + `--tiny` mixups: the checkpoint's world hash encodes
    // the campaign configuration, so resuming under a different one fails
    // loudly instead of silently blending two campaigns.
    let tiny = config(1, false);
    let mut driver = CampaignDriver::new(tiny.clone());
    driver.run_next_wave();
    let checkpoint = driver.checkpoint();

    let other = ServeConfig {
        waves: 5,
        ..tiny.clone()
    };
    match CampaignDriver::resume(other, checkpoint.clone()) {
        Err(ServeError::WorldMismatch { .. }) => {}
        other => panic!("expected WorldMismatch, got {:?}", other.err()),
    }

    // Skipping Phase II changes what every wave folds in, so it is a
    // different campaign too.
    let mut landscape_only = tiny.clone();
    landscape_only.study.run_phase2 = false;
    match CampaignDriver::resume(landscape_only, checkpoint.clone()) {
        Err(ServeError::WorldMismatch { .. }) => {}
        other => panic!("expected WorldMismatch, got {:?}", other.err()),
    }

    let resharded = ServeConfig {
        shards: 2,
        ..tiny.clone()
    };
    match CampaignDriver::resume(resharded, checkpoint) {
        Err(ServeError::ShardMismatch { expected, found }) => {
            assert_eq!((expected, found), (2, 1));
        }
        other => panic!("expected ShardMismatch, got {:?}", other.err()),
    }
}

#[test]
fn resume_rejects_tampered_rng_streams() {
    let config = config(1, false);
    let mut driver = CampaignDriver::new(config.clone());
    driver.run_next_wave();
    let mut checkpoint = driver.checkpoint();
    checkpoint.rng_streams[0] ^= 1;
    match CampaignDriver::resume(config, checkpoint) {
        Err(ServeError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {:?}", other.err()),
    }
}

#[test]
fn resume_rejects_a_journal_out_of_time_order() {
    // A checkpoint journal must keep the invariant `run_next_wave` builds:
    // timestamps never decrease and stay below the sim-time cursor, so the
    // next wave's records append after every resumed one.
    let config = config(1, false);
    let mut driver = CampaignDriver::new(config.clone());
    driver.run_next_wave();
    let checkpoint = driver.checkpoint();
    let mut past_cursor = checkpoint.clone();
    past_cursor.journal.last_mut().expect("journal on").at_ms = checkpoint.sim_cursor_ms;
    let mut reversed = checkpoint;
    reversed.journal.reverse();
    for (name, tampered) in [("past the cursor", past_cursor), ("reversed", reversed)] {
        match CampaignDriver::resume(config.clone(), tampered) {
            Err(ServeError::Corrupt(_)) => {}
            other => panic!("{name}: expected Corrupt, got {:?}", other.err()),
        }
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("shadow-serve-{tag}-{}.json", std::process::id()))
}

/// Run one wave and save it through a real file; returns the driver and
/// the file's bytes.
fn saved_after_one_wave(tag: &str) -> (CampaignDriver, Vec<u8>) {
    let path = temp_path(tag);
    let mut driver = CampaignDriver::new(config(1, false));
    driver.run_next_wave();
    driver.save_checkpoint(&path).expect("checkpoint writes");
    let bytes = std::fs::read(&path).expect("checkpoint reads back");
    std::fs::remove_file(&path).ok();
    (driver, bytes)
}

#[test]
fn checkpoint_journal_lines_are_the_jsonl_journal() {
    let (driver, bytes) = saved_after_one_wave("jsonl");
    let text = String::from_utf8(bytes).expect("checkpoint is UTF-8");
    let (_, journal_lines) = text.split_once('\n').expect("a state line");
    assert!(!driver.journal().is_empty(), "the tiny config journals");
    assert_eq!(journal_lines, to_jsonl(driver.journal()).expect("renders"));
}

#[test]
fn load_rejects_a_cut_or_padded_journal() {
    let (_, bytes) = saved_after_one_wave("cut");
    let last_line = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("journal lines follow the state line")
        + 1;
    let path = temp_path("cut-tampered");
    std::fs::write(&path, &bytes).expect("checkpoint writes");
    assert!(
        CampaignCheckpoint::load(&path).is_ok(),
        "the intact file loads"
    );
    for (name, file) in [
        ("cut at half its bytes", bytes[..bytes.len() / 2].to_vec()),
        ("one record short", bytes[..last_line].to_vec()),
        (
            "one record extra",
            [&bytes[..], &bytes[last_line..]].concat(),
        ),
    ] {
        std::fs::write(&path, file).expect("checkpoint writes");
        match CampaignCheckpoint::load(&path) {
            Err(ServeError::Corrupt(_)) => {}
            other => panic!("{name}: expected Corrupt, got {:?}", other.err()),
        }
    }
    std::fs::remove_file(&path).ok();
}
