//! The one bench record format. Every `BENCH_<bench>.json` at the
//! workspace root is a [`Record`] in the repository benchmark's
//! `{meta, metrics}` shape: host and build facts, then named values with
//! units.
//!
//! [`write`] is the only writer. It prints the record as one
//! `BENCH_RECORD <json>` line, prints `bench/name: was -> now unit` for
//! every metric the previous record also held, and refuses a record whose
//! metrics are identical to the previous one's: a wall-clock measurement
//! never reproduces bit for bit, so identical metrics mean a stored record
//! was recycled instead of re-measured.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The benches that write a record, one `BENCH_<bench>.json` each.
pub const BENCHES: [&str; 6] = [
    "correlate",
    "encryption",
    "pipeline",
    "serve",
    "substrate",
    "topo",
];

/// One committed bench record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    pub meta: Meta,
    pub metrics: BTreeMap<String, Metric>,
}

/// Host and build facts recorded with every measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Meta {
    pub bench: String,
    pub nproc: usize,
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside one.
    pub commit: String,
    /// `rustc --version`.
    pub rustc: String,
}

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Mebibytes in `bytes`, the unit of every `peak_rss_mb` metric.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// The workspace root, where the records live.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Write `BENCH_<bench>.json` at the workspace root; see [`write_to`].
pub fn write(bench: &str, metrics: &[(&str, f64, &str)]) -> Record {
    assert!(
        BENCHES.contains(&bench),
        "{bench} is not one of the benches in record::BENCHES"
    );
    write_to(
        &workspace_root().join(format!("BENCH_{bench}.json")),
        bench,
        metrics,
    )
}

/// Write the record for `bench` to `path`, print it and its comparison
/// against the record it replaces, and return it. Panics on a non-finite
/// value or on metrics identical to the previous record's.
pub fn write_to(path: &Path, bench: &str, metrics: &[(&str, f64, &str)]) -> Record {
    let record = Record {
        meta: Meta::host(bench),
        metrics: metrics
            .iter()
            .map(|&(name, value, unit)| {
                assert!(value.is_finite(), "{bench}/{name} is not finite: {value}");
                let unit = unit.to_string();
                (name.to_string(), Metric { value, unit })
            })
            .collect(),
    };
    let previous = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Record>(&text).ok());
    if let Some(previous) = &previous {
        assert!(
            previous.metrics != record.metrics,
            "stale record: metrics are identical to the recorded ones in {} — \
             re-run the bench instead of recycling the stored record",
            path.display()
        );
    }
    let text = serde_json::to_string_pretty(&record).expect("bench record serializes");
    std::fs::write(path, text + "\n").expect("bench record written");
    let line = serde_json::to_string(&record).expect("bench record serializes");
    println!("BENCH_RECORD {line}");
    for (name, now) in &record.metrics {
        if let Some(was) = previous.as_ref().and_then(|p| p.metrics.get(name)) {
            println!(
                "{bench}/{name}: {} -> {} {}",
                was.value, now.value, now.unit
            );
        }
    }
    record
}

impl Meta {
    /// This host's facts for `bench`.
    fn host(bench: &str) -> Self {
        let command = |program: &str, argv: &[&str]| {
            std::process::Command::new(program)
                .args(argv)
                .output()
                .ok()
                .filter(|out| out.status.success())
                .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
                .unwrap_or_else(|| "unknown".to_string())
        };
        // Ask git only when the checkout is itself a repository, so an
        // enclosing repository's commit is never reported.
        let root = workspace_root();
        let commit = if root.join(".git").exists() {
            command("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
        } else {
            "unknown".to_string()
        };
        Self {
            bench: bench.to_string(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit,
            rustc: command("rustc", &["--version"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_reads_back_and_refuses_a_stale_rewrite() {
        let path = std::env::temp_dir().join(format!(
            "shadow-bench-record-test-{}.json",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let metrics = [("elapsed_s", 1.5, "s"), ("hops", 42.0, "count")];
        let written = write_to(&path, "pipeline", &metrics);
        let text = std::fs::read_to_string(&path).unwrap();
        let read: Record = serde_json::from_str(&text).unwrap();
        assert_eq!(read, written);
        assert_eq!(read.meta.bench, "pipeline");
        assert_eq!(read.metrics["hops"].unit, "count");

        // A changed value replaces the record; an identical one panics.
        let changed = [("elapsed_s", 1.25, "s"), ("hops", 42.0, "count")];
        write_to(&path, "pipeline", &changed);
        let stale = std::panic::catch_unwind(|| write_to(&path, "pipeline", &changed));
        std::fs::remove_file(&path).ok();
        assert!(stale.is_err(), "an identical re-write must be refused");
    }
}
