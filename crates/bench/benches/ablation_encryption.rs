//! Ablation (§6): clear-text vs encrypted decoys.
//!
//! Regenerates the discussion section's predictions as a table —
//! resolver-side DNS shadowing survives encryption, TLS shadowing dies with
//! ECH — and times the encrypted campaign end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use shadow_bench::encryption::{encryption_json_path, record_encryption_json, run_encryption};
use traffic_shadowing::shadow_core::campaign::Phase1Config;
use traffic_shadowing::shadow_core::phase2::Phase2Config;
use traffic_shadowing::shadow_core::world::WorldConfig;
use traffic_shadowing::shadow_packet::EncryptionDeployment;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};
use traffic_shadowing::tables;

fn run(seed: u64, encrypted: bool) -> StudyOutcome {
    Study::run(StudyConfig {
        world: WorldConfig::tiny(seed),
        phase1: Phase1Config {
            encryption: if encrypted {
                EncryptionDeployment::full()
            } else {
                EncryptionDeployment::plaintext()
            },
            ..Phase1Config::default()
        },
        phase2: Phase2Config::default(),
        trace_cap_per_protocol: 0,
        run_phase2: false,
        telemetry: traffic_shadowing::shadow_core::executor::TelemetryOptions::disabled(),
        faults: None,
    })
}

/// One-shot trajectory measurement, recorded into `BENCH_encryption.json`
/// (skipped in `cargo bench -- --test` smoke mode so a tiny debug run
/// never overwrites the committed numbers — the smoke still executes the
/// sweep once so the deployment-ladder path cannot rot).
fn trajectory(_c: &mut Criterion) {
    if criterion::test_mode() {
        let (metrics, report) = run_encryption(41, 1);
        assert!(
            report.resolver_side_invariant(0.05),
            "resolver-side shadowing drifted across the ladder"
        );
        println!(
            "Testing encryption/trajectory ... ok ({:.2}x encrypted vs plaintext)",
            metrics.encrypted_over_plaintext
        );
        return;
    }
    let (metrics, report) = run_encryption(41, 2);
    println!("{}", report.render());
    println!(
        "BENCH {{\"name\":\"encryption/sweep\",\"iters\":1,\"encrypted_over_plaintext\":{:.2},\"sweep_elapsed_ns\":{},\"resolver_recall_min\":{:.3}}}",
        metrics.encrypted_over_plaintext, metrics.sweep_elapsed_ns, metrics.resolver_recall_min
    );
    let record = record_encryption_json(&encryption_json_path(), "encryption/sweep", metrics);
    if let Some(speedup) = record.speedup_encrypted_campaign {
        println!("encrypted campaign vs recorded baseline: {speedup:.2}x wall time");
    }
}

fn bench(c: &mut Criterion) {
    let clear = run(41, false);
    let encrypted = run(41, true);
    println!("{}", tables::encryption_ablation(&clear, &encrypted));

    let mut group = c.benchmark_group("ablation_encryption");
    group.sample_size(10);
    group.bench_function("tiny_encrypted_campaign", |b| b.iter(|| run(41, true)));
    group.finish();

    shadow_bench::report_peak_rss("ablation_encryption");
}

criterion_group!(benches, trajectory, bench);
criterion_main!(benches);
