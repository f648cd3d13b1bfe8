//! The encryption-axis measurement behind `BENCH_encryption.json`: what the
//! transport-profile machinery costs at runtime, and what the deployment-
//! ladder sweep measures on the tiny world.
//!
//! Two timing lines — the same campaign at plaintext and at full
//! encryption (DoQ framing, ECH sealing, hidden-flow telemetry on every
//! tapped packet) — give the encrypted hot path's overhead ratio. The
//! sweep line times `run_default_sweep` end to end (five campaigns, one
//! per ladder level) and folds its headline report values into the
//! record, so a regression in either the cost *or* the measured decay
//! shape shows up when the record is rewritten.

use std::time::Instant;
use traffic_shadowing::encryption::{run_default_sweep, EncryptionReport};
use traffic_shadowing::shadow_core::executor::TelemetryOptions;
use traffic_shadowing::shadow_packet::EncryptionDeployment;
use traffic_shadowing::study::{Study, StudyConfig};

/// One measured pass over the encryption axis.
#[derive(Debug, Clone)]
pub struct EncryptionMetrics {
    /// Shards per sweep cell.
    pub shards: u64,
    /// Ladder levels the sweep ran, plaintext included.
    pub levels: u64,
    pub plaintext_elapsed_ns: u64,
    pub encrypted_elapsed_ns: u64,
    /// Encrypted-campaign wall time over plaintext — the runtime price of
    /// sealing every decoy and fingerprinting every hidden flow.
    pub encrypted_over_plaintext: f64,
    /// The full default-ladder sweep (every level), end to end.
    pub sweep_elapsed_ns: u64,
    /// Report headlines, pinned into the record: the §6 invariant and the
    /// terminal recall/fallback values at full encryption.
    pub resolver_recall_min: f64,
    pub wire_dns_recall_final: f64,
    pub wire_tls_recall_final: f64,
    pub fallback_rate_full: f64,
    /// VmHWM after the sweep (Linux; `None` elsewhere).
    pub rss_peak_bytes: Option<u64>,
}

fn tiny_config(seed: u64, deployment: EncryptionDeployment) -> StudyConfig {
    let mut config = StudyConfig::tiny(seed);
    config.phase1.encryption = deployment;
    config.telemetry = TelemetryOptions::enabled(false);
    config
}

/// Time the plaintext and full-encryption campaigns, then the whole
/// default-ladder sweep, on the tiny world.
pub fn run_encryption(seed: u64, shards: usize) -> (EncryptionMetrics, EncryptionReport) {
    let started = Instant::now();
    let plain = Study::run_sharded(tiny_config(seed, EncryptionDeployment::plaintext()), shards);
    let plaintext_elapsed = started.elapsed();
    std::hint::black_box(plain.phase1.aggregates.arrivals_seen);

    let started = Instant::now();
    let full = Study::run_sharded(tiny_config(seed, EncryptionDeployment::full()), shards);
    let encrypted_elapsed = started.elapsed();
    std::hint::black_box(full.phase1.aggregates.arrivals_seen);

    let base = StudyConfig::tiny(seed);
    let started = Instant::now();
    let report = run_default_sweep(&base, shards, 2);
    let sweep_elapsed = started.elapsed();

    let resolver_recall_min = report
        .cells
        .iter()
        .map(|c| c.resolver_dns_recall)
        .fold(f64::INFINITY, f64::min);
    let full_cell = report
        .cells
        .iter()
        .find(|c| c.cell.level == "full")
        .expect("the ladder has a full level");
    let metrics = EncryptionMetrics {
        shards: shards as u64,
        levels: report.cells.len() as u64,
        plaintext_elapsed_ns: plaintext_elapsed.as_nanos() as u64,
        encrypted_elapsed_ns: encrypted_elapsed.as_nanos() as u64,
        encrypted_over_plaintext: encrypted_elapsed.as_secs_f64()
            / plaintext_elapsed.as_secs_f64().max(1e-9),
        sweep_elapsed_ns: sweep_elapsed.as_nanos() as u64,
        resolver_recall_min,
        wire_dns_recall_final: full_cell.wire_dns_recall,
        wire_tls_recall_final: full_cell.wire_tls_recall,
        fallback_rate_full: full_cell.fallback_rate,
        rss_peak_bytes: crate::hotpath::peak_rss_bytes(),
    };
    (metrics, report)
}
