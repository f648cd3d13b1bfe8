//! Encryption-sweep glue: run the same campaign at every deployment level
//! of the [`EncryptionDeployment`] ladder and fold the outcomes into the
//! [`EncryptionReport`] — the §6 mitigation discussion, measured.
//!
//! Mirrors [`crate::robustness`]'s layering: `shadow-packet` owns the
//! ladder, `shadow-analysis` owns the comparison, and this module — the
//! only place that sees both a [`StudyConfig`] and a deployment level —
//! bridges them, running the cells on the executor's worker pool.

use crate::study::{Study, StudyConfig, StudyOutcome};
use shadow_core::campaign::Phase1Config;
use shadow_core::decoy::DecoyProtocol;
use shadow_core::executor::{run_chunks, TelemetryOptions};
use shadow_packet::EncryptionDeployment;

pub use shadow_analysis::encryption::{EncryptionCell, EncryptionCellReport, EncryptionReport};

/// Flatten one study outcome into the comparison cell. Wire-observer
/// counters come from the merged metrics snapshot, so the campaign must
/// run with metrics enabled ([`with_encryption`] arranges that).
pub fn encryption_cell(name: &str, outcome: &StudyOutcome) -> EncryptionCell {
    let landscape = outcome.landscape();
    let world = outcome
        .metrics
        .as_ref()
        .map(|m| m.world.clone())
        .unwrap_or_default();
    EncryptionCell {
        level: name.to_string(),
        dns_shadowing_ratio: landscape.protocol_ratio(DecoyProtocol::Dns),
        // Case Study I's resolver: the canonical resolver-side shadower —
        // its decoys are shadowed by the resolver operator, not by taps,
        // so this ratio isolates the §6 invariant.
        resolver_shadowing_ratio: landscape.destination_ratio("Yandex", DecoyProtocol::Dns),
        http_shadowing_ratio: landscape.protocol_ratio(DecoyProtocol::Http),
        tls_shadowing_ratio: landscape.protocol_ratio(DecoyProtocol::Tls),
        wire_names: world.wire_names_observed,
        encrypted_flows_observed: world.encrypted_flows_observed,
        name_blind_classifications: world.name_blind_classifications,
        front_sni_observations: world.front_sni_observations,
        fronted_inner_observed: world.fronted_inner_observed,
    }
}

/// `base` reconfigured to one deployment level, with metrics on (the
/// report needs the wire counters) and the journal setting preserved.
pub fn with_encryption(base: &StudyConfig, deployment: &EncryptionDeployment) -> StudyConfig {
    StudyConfig {
        phase1: Phase1Config {
            encryption: deployment.clone(),
            ..base.phase1.clone()
        },
        telemetry: TelemetryOptions::enabled(base.telemetry.journal),
        ..base.clone()
    }
}

/// Run the built-in ladder: every level as a full sharded campaign,
/// compared into an [`EncryptionReport`]. The ladder starts at plaintext,
/// and that cell doubles as the baseline every level is compared against.
/// Faults (if `base` carries them) apply identically to every cell, so the
/// encryption axis is measured under the same network conditions
/// throughout. `parallelism` bounds concurrent cells; each cell fans out
/// over `shards` worker threads.
pub fn run_default_sweep(
    base: &StudyConfig,
    shards: usize,
    parallelism: usize,
) -> EncryptionReport {
    let ladder = EncryptionDeployment::ladder();
    assert!(
        ladder[0].is_plaintext(),
        "the ladder must start at plaintext, the sweep's baseline"
    );
    let cells = run_chunks(ladder, parallelism, |_, deployment| {
        let outcome = Study::run_sharded(with_encryption(base, &deployment), shards);
        encryption_cell(&deployment.level, &outcome)
    });
    EncryptionReport::compare(cells[0].clone(), cells)
}
