//! The §6 mitigation ablation: what happens to the shadowing landscape when
//! decoys use encrypted protocols?
//!
//! The paper's discussion predicts:
//!  * encryption blinds *on-path* observers ("prevents data from being
//!    observed on the wire");
//!  * it does **not** stop the destination ("especially for DNS", where the
//!    resolver decrypts and sees everything);
//!  * ECH is needed because plain TLS still leaks the SNI.
//!
//! This example runs two identical campaigns — clear-text vs. encrypted
//! (DoQ-style DNS + ECH TLS) — on identically-seeded worlds and compares
//! them in `traffic_shadowing::tables::encryption_ablation`.
//!
//! Run with `cargo run --release --example encryption_mitigation [seed]`.

use traffic_shadowing::shadow_core::campaign::Phase1Config;
use traffic_shadowing::shadow_core::phase2::Phase2Config;
use traffic_shadowing::shadow_core::world::WorldConfig;
use traffic_shadowing::shadow_packet::EncryptionDeployment;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};
use traffic_shadowing::tables;

fn run(seed: u64, encrypted: bool) -> StudyOutcome {
    Study::run(StudyConfig {
        world: WorldConfig::standard(seed),
        phase1: Phase1Config {
            encryption: if encrypted {
                EncryptionDeployment::full()
            } else {
                EncryptionDeployment::plaintext()
            },
            ..Phase1Config::default()
        },
        phase2: Phase2Config::default(),
        trace_cap_per_protocol: 0, // landscape comparison only
        run_phase2: false,
        telemetry: traffic_shadowing::shadow_core::executor::TelemetryOptions::disabled(),
        faults: None,
    })
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    println!("running clear-text campaign (seed {seed})...");
    let clear = run(seed, false);
    println!("running encrypted campaign (same world, DoQ + ECH)...\n");
    let encrypted = run(seed, true);

    print!("{}", tables::encryption_ablation(&clear, &encrypted));
}
