//! Ablation (§6): clear-text vs encrypted decoys.
//!
//! Regenerates the discussion section's predictions as a table —
//! resolver-side DNS shadowing survives encryption, TLS shadowing dies with
//! ECH — and times the encrypted campaign end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use shadow_bench::encryption::run_encryption;
use shadow_bench::record::{self, mib};
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

/// One-shot measurement, written as the `BENCH_encryption.json` record
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
    let (m, report) = run_encryption(41, 2);
    println!("{}", report.render());
    let mut metrics = vec![
        ("shards", m.shards as f64, "count"),
        ("levels", m.levels as f64, "count"),
        ("plaintext_s", m.plaintext_elapsed_ns as f64 / 1e9, "s"),
        ("encrypted_s", m.encrypted_elapsed_ns as f64 / 1e9, "s"),
        ("encrypted_over_plaintext", m.encrypted_over_plaintext, "x"),
        ("sweep_s", m.sweep_elapsed_ns as f64 / 1e9, "s"),
        ("resolver_recall_min", m.resolver_recall_min, "ratio"),
        ("wire_dns_recall_final", m.wire_dns_recall_final, "ratio"),
        ("wire_tls_recall_final", m.wire_tls_recall_final, "ratio"),
        ("fallback_rate_full", m.fallback_rate_full, "ratio"),
    ];
    metrics.extend(m.rss_peak_bytes.map(|b| ("peak_rss_mb", mib(b), "MiB")));
    record::write("encryption", &metrics);
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
