//! `journal diff`: compare two event journals written by
//! `full_campaign --journal`.
//!
//! Both journals are filtered to world events (meta records like
//! `ShardMerged` describe run structure, which legitimately differs
//! between shard counts), aligned on the total event key order, and the
//! first divergence is printed with both sides' records.
//!
//! Run with `cargo run --example journal_diff left.jsonl right.jsonl`.
//! Exit codes: 0 identical, 1 diverged, 2 usage / read / parse error.

use std::fs::File;
use std::io::BufReader;
use traffic_shadowing::shadow_telemetry::{diff, from_jsonl, JournalRecord};

/// Parse one journal as it streams in, so the file's text is never held
/// whole beside its records.
fn load(path: &str) -> Vec<JournalRecord> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match from_jsonl(BufReader::new(file)) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [left_path, right_path] = args.as_slice() else {
        eprintln!("usage: journal_diff LEFT.jsonl RIGHT.jsonl");
        std::process::exit(2);
    };
    let left = load(left_path);
    let right = load(right_path);
    let report = diff(&left, &right);
    println!("{}", report.render());
    std::process::exit(if report.identical() { 0 } else { 1 });
}
