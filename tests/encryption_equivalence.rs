//! The encryption axis must not disturb the executor's headline guarantee:
//! for any execution shape — sequential, sharded at any K, uneven chunks —
//! the same `(seed, deployment, faults)` triple produces **byte-identical**
//! analysis output, at plaintext AND at full encryption, with and without
//! fault injection.
//!
//! This pins two things at once: (a) the plaintext path is untouched by
//! the transport-profile refactor (the pre-PR-10 equivalence suite keeps
//! passing), and (b) the encrypted path — profile hashing, encrypted
//! resolver termination, hidden-flow telemetry, the Phase-I recall window
//! — introduces no shard-count- or scheduler-dependent state.

use traffic_shadowing::shadow_chaos::FaultProfile;
use traffic_shadowing::shadow_core::executor::{ChunkConfig, TelemetryOptions};
use traffic_shadowing::shadow_packet::EncryptionDeployment;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

const SEED: u64 = 7_117;

fn bundle_json(outcome: &StudyOutcome) -> String {
    outcome
        .export_bundle()
        .to_json()
        .expect("bundle serializes")
}

/// A light fault profile (loss + jitter + ICMP throttling): enough to
/// perturb timing everywhere without suppressing most of the traffic.
fn faults() -> FaultProfile {
    FaultProfile {
        loss: 0.01,
        jitter_ms: 3,
        icmp_rate_limit: 0.5,
        ..FaultProfile::baseline("encryption-equivalence")
    }
}

fn config(deployment: &EncryptionDeployment, with_faults: bool) -> StudyConfig {
    let mut config = StudyConfig::tiny(SEED);
    config.phase1.encryption = deployment.clone();
    // Metrics on: the wire-recall counters (the encryption report's
    // numerators) are part of the compared surface, so a merge bug in the
    // new counters cannot hide.
    config.telemetry = TelemetryOptions::enabled(false);
    if with_faults {
        config = config.with_faults(faults());
    }
    config
}

/// The deployment levels under test: the two extremes of the ladder. The
/// intermediate levels only vary the hash thresholds, not the code paths.
fn levels() -> [EncryptionDeployment; 2] {
    [
        EncryptionDeployment::plaintext(),
        EncryptionDeployment::full(),
    ]
}

#[test]
fn sharded_matches_sequential_at_both_extremes() {
    for deployment in levels() {
        for with_faults in [false, true] {
            let sequential = Study::run(config(&deployment, with_faults));
            let expected = bundle_json(&sequential);
            let expected_world = sequential.metrics.as_ref().map(|m| m.world.clone());
            for k in [1usize, 4] {
                let sharded = Study::run_sharded(config(&deployment, with_faults), k);
                assert_eq!(
                    sequential.phase1.aggregates, sharded.phase1.aggregates,
                    "{} faults={with_faults} K={k}: aggregates diverge",
                    deployment.level
                );
                assert_eq!(
                    expected_world,
                    sharded.metrics.as_ref().map(|m| m.world.clone()),
                    "{} faults={with_faults} K={k}: world metrics diverge",
                    deployment.level
                );
                assert_eq!(
                    expected,
                    bundle_json(&sharded),
                    "{} faults={with_faults} K={k}: bundles diverge",
                    deployment.level
                );
            }
        }
    }
}

#[test]
fn work_stealing_matches_sequential_at_both_extremes() {
    let shape = ChunkConfig::with_workers(2).with_chunks(5);
    for deployment in levels() {
        for with_faults in [false, true] {
            let sequential = Study::run(config(&deployment, with_faults));
            let chunked = Study::run_chunked(config(&deployment, with_faults), shape);
            assert_eq!(
                sequential.phase1.aggregates, chunked.phase1.aggregates,
                "{} faults={with_faults} {shape:?}: aggregates diverge",
                deployment.level
            );
            assert_eq!(
                sequential.metrics.as_ref().map(|m| m.world.clone()),
                chunked.metrics.as_ref().map(|m| m.world.clone()),
                "{} faults={with_faults} {shape:?}: world metrics diverge",
                deployment.level
            );
            assert_eq!(
                bundle_json(&sequential),
                bundle_json(&chunked),
                "{} faults={with_faults} {shape:?}: bundles diverge",
                deployment.level
            );
        }
    }
}

#[test]
fn deployment_levels_actually_differ() {
    // Guard against the matrix silently collapsing: plaintext and full
    // encryption must not produce identical wire telemetry.
    let plain = Study::run(config(&EncryptionDeployment::plaintext(), false));
    let full = Study::run(config(&EncryptionDeployment::full(), false));
    let wire = |o: &StudyOutcome| {
        o.metrics
            .as_ref()
            .map(|m| m.world.wire_names_observed.clone())
    };
    assert_ne!(
        wire(&plain),
        wire(&full),
        "full encryption must change what the wire taps read"
    );
}
