//! The §6 mitigation ablation as assertions: encrypted DNS blinds on-path
//! observers but not terminating resolvers; ECH kills TLS shadowing.

use traffic_shadowing::shadow_core::campaign::Phase1Config;
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_core::phase2::Phase2Config;
use traffic_shadowing::shadow_core::world::WorldConfig;
use traffic_shadowing::shadow_packet::EncryptionDeployment;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

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

#[test]
fn encryption_blinds_the_wire_but_not_the_resolver() {
    let clear = run(2_024, false);
    let encrypted = run(2_024, true);

    let clear_ls = clear.landscape();
    let enc_ls = encrypted.landscape();

    // Resolver-side shadowing persists: the terminating resolver decrypts
    // and sees everything (§6: "does not mitigate data collection by the
    // destination server, especially for DNS").
    let clear_yandex = clear_ls.destination_ratio("Yandex", DecoyProtocol::Dns);
    let enc_yandex = enc_ls.destination_ratio("Yandex", DecoyProtocol::Dns);
    assert!(clear_yandex > 0.8);
    assert!(
        enc_yandex > 0.8,
        "encrypted DNS must NOT stop resolver-side shadowing (got {enc_yandex})"
    );

    // ECH kills TLS shadowing entirely: no clear-text SNI anywhere.
    let enc_tls = enc_ls.protocol_ratio(DecoyProtocol::Tls);
    assert_eq!(
        enc_tls, 0.0,
        "ECH leaves nothing for SNI observers (got {enc_tls})"
    );

    // HTTP stays unencrypted in both runs, so its exposure is unchanged in
    // kind (not necessarily in exact ratio).
    let clear_http = clear_ls.protocol_ratio(DecoyProtocol::Http);
    let enc_http = enc_ls.protocol_ratio(DecoyProtocol::Http);
    assert_eq!(
        clear_http, enc_http,
        "HTTP decoys are identical in both campaigns"
    );
}

#[test]
fn encrypted_flow_telemetry_counts_once() {
    // The `encrypted_flows_observed` counter and the `EncryptedFlowTapped`
    // journal stream are two views of the same tap-side sighting; they are
    // bumped at the same gate (measured source + open recall window), so a
    // full run — Phase II included, where the window is closed — must
    // leave them exactly equal. A drift here means some path counts a
    // hidden flow twice (or journals one it never counted).
    let mut config = StudyConfig::tiny(2_026);
    config.phase1.encryption = EncryptionDeployment::full();
    config.telemetry = traffic_shadowing::shadow_core::executor::TelemetryOptions::enabled(true);
    let outcome = Study::run(config);

    let metrics = outcome.metrics.as_ref().expect("metrics enabled");
    let journal = outcome.journal.as_ref().expect("journal enabled");
    let tapped_events = journal
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                traffic_shadowing::shadow_telemetry::EventKind::EncryptedFlowTapped { .. }
            )
        })
        .count() as u64;
    assert!(
        metrics.world.encrypted_flows_observed > 0,
        "a fully-encrypted campaign must put hidden flows past the taps"
    );
    assert_eq!(
        metrics.world.encrypted_flows_observed, tapped_events,
        "counter and journal disagree on hidden-flow sightings"
    );
}

#[test]
fn encrypted_queries_still_resolve() {
    // The ablation is only valid if encrypted decoys actually work: VPs
    // must receive answers over the encrypted channel.
    let encrypted = run(2_025, true);
    let answered = encrypted
        .phase1
        .vp_reports
        .values()
        .flat_map(|r| r.dns_answers.iter())
        .filter(|a| a.answer.is_some())
        .count();
    assert!(
        answered > 0,
        "DoQ decoys must resolve end-to-end through the resolver"
    );
    // And the honeypot authoritative saw the (decrypted, recursed) queries:
    // every DNS decoy's first resolution is a solicited DNS arrival.
    let solicited = encrypted
        .phase1
        .aggregates
        .by_label
        .get(&traffic_shadowing::shadow_core::correlate::UnsolicitedLabel::SolicitedResolution)
        .copied()
        .unwrap_or(0);
    assert!(solicited > 0);
}
