//! Shared fixtures for the benchmark harnesses.
//!
//! `paper_tables` needs a completed campaign; running one per criterion
//! iteration would be absurd, so the standard study is executed once per
//! process (a couple of seconds) and cached. The harness prints every
//! regenerated table and figure through `traffic_shadowing::tables` — the
//! actual reproduction artifact — and then times the analysis behind each.
//!
//! The other modules are the fixtures behind the committed `BENCH_*.json`
//! records, and [`record`] is the one writer of those records: every file
//! is a [`record::Record`] in the repository benchmark's `{meta, metrics}`
//! shape. [`hotpath`] holds the engine hot-path fixture behind
//! `BENCH_pipeline.json`: a tapped router chain that isolates per-hop
//! forwarding + DPI inspection cost from campaign logic.

use std::sync::OnceLock;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

pub mod correlate;
pub mod encryption;
pub mod hotpath;
pub mod record;
pub mod serving;
pub mod topo;

/// The seed of the cached campaign, so printed tables match
/// EXPERIMENTS.md.
pub const BENCH_SEED: u64 = 7;

/// The cached full-campaign outcome.
pub fn study() -> &'static StudyOutcome {
    static STUDY: OnceLock<StudyOutcome> = OnceLock::new();
    STUDY.get_or_init(|| {
        eprintln!("[bench fixture] running the standard campaign (seed {BENCH_SEED})...");
        let started = std::time::Instant::now();
        let outcome = Study::run(StudyConfig::standard(BENCH_SEED));
        eprintln!("[bench fixture] campaign done in {:?}", started.elapsed());
        outcome
    })
}

/// Print this harness process's peak RSS (VmHWM) as a grep-friendly
/// tagged line. Every bench harness calls this at the end of its last
/// registered routine, so the CI smoke sweep (`cargo bench -- --test`)
/// reports the memory high-water mark of each harness alongside its
/// printed tables. `null` on platforms without `/proc`.
pub fn report_peak_rss(harness: &str) {
    match hotpath::peak_rss_bytes() {
        Some(bytes) => println!(
            "BENCH_RSS {{\"bench\":\"{harness}\",\"peak_rss_bytes\":{bytes},\"peak_rss_mb\":{:.1}}}",
            bytes as f64 / (1 << 20) as f64
        ),
        None => println!("BENCH_RSS {{\"bench\":\"{harness}\",\"peak_rss_bytes\":null}}"),
    }
}
