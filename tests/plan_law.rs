//! The Phase I plan is closed-form. Sends come in round → vetted VP →
//! target order, and each sits at
//!
//! ```text
//! at(k, r, i) = at(0, 0, i) + r × round_gap + k × 500 ms × m(i)
//! ```
//!
//! where k is the VP's position in the vetted roster, r the round, i the
//! position in the per-VP target list (DNS destinations first, then HTTP
//! and TLS for each site) and m(i) the number of times target i's address
//! appears in that list. No two sends share a (VP, destination,
//! decisecond) triple, so a decoy's identifier plus the target list
//! determine its protocol. The plan reads neither the encryption
//! deployment nor the fault profile; both are switched on here anyway.

use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::Arc;
use traffic_shadowing::robustness::fault_targets;
use traffic_shadowing::shadow_chaos::{FaultProfile, RetrySpec};
use traffic_shadowing::shadow_core::campaign::CampaignRunner;
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_core::noise::NoiseFilter;
use traffic_shadowing::shadow_core::world::generate_spec;
use traffic_shadowing::shadow_netsim::time::SimDuration;
use traffic_shadowing::shadow_packet::EncryptionDeployment;
use traffic_shadowing::shadow_vantage::vp::{DecoyPayload, DnsRetry};
use traffic_shadowing::study::StudyConfig;

/// `base` with `rounds` rounds, mixed encryption and a lossy profile whose
/// DNS retry policy the campaign would fold into Phase I.
fn configured(base: StudyConfig, rounds: usize) -> StudyConfig {
    let mut config = base.with_faults(FaultProfile {
        dns_retry: Some(RetrySpec::STANDARD),
        ..FaultProfile::with_loss("lossy", 0.02, 0x5eed)
    });
    config.phase1.rounds = rounds;
    config.phase1.encryption = EncryptionDeployment::mixed();
    config.phase1.dns_retry = Some(DnsRetry {
        attempts: RetrySpec::STANDARD.attempts,
        timeout_ms: RetrySpec::STANDARD.timeout_ms,
    });
    config
}

fn protocol_of(payload: &DecoyPayload) -> DecoyProtocol {
    match payload {
        DecoyPayload::Dns(_) => DecoyProtocol::Dns,
        DecoyPayload::Http => DecoyProtocol::Http,
        DecoyPayload::Tls(_) => DecoyProtocol::Tls,
    }
}

/// Plan Phase I the way `Study::run` does (pre-flight on a healthy
/// network, then the fault conditioner) and check every send against the
/// law. Returns the number of sends checked.
fn check_law(config: &StudyConfig) -> usize {
    let spec = generate_spec(config.world.clone());
    let conditioner = config
        .faults
        .as_ref()
        .map(|profile| Arc::new(profile.compile(&fault_targets(&spec))));
    let mut world = spec.instantiate();
    NoiseFilter::run_and_apply(&mut world);
    world.engine.set_conditioner(conditioner);
    let plan = CampaignRunner::plan_phase1(&world, &config.phase1);

    let mut targets: Vec<(Ipv4Addr, DecoyProtocol)> = world
        .dns_destinations
        .iter()
        .map(|d| (d.addr, DecoyProtocol::Dns))
        .collect();
    for site in &world.tranco {
        targets.push((site.addr, DecoyProtocol::Http));
        targets.push((site.addr, DecoyProtocol::Tls));
    }
    let multiplicity: Vec<u64> = targets
        .iter()
        .map(|&(addr, _)| targets.iter().filter(|&&(a, _)| a == addr).count() as u64)
        .collect();
    let vps = &world.platform.vps;
    let rounds = config.phase1.rounds;
    assert!(!vps.is_empty() && !targets.is_empty(), "empty campaign");
    assert_eq!(plan.sends.len(), rounds * vps.len() * targets.len());

    // The paper's per-target rate limit: 2 packets per second.
    let target_gap = SimDuration::from_millis(500);
    let first = &plan.sends[..targets.len()];
    let mut triples = HashSet::new();
    for (n, send) in plan.sends.iter().enumerate() {
        let i = n % targets.len();
        let k = (n / targets.len()) % vps.len();
        let r = n / (targets.len() * vps.len());
        let (dst, protocol) = targets[i];
        assert_eq!(
            (send.vp, send.decoy.dst, protocol_of(&send.decoy.payload)),
            (vps[k].id, dst, protocol),
            "send {n} is out of round → VP → target order"
        );
        let expected = first[i].at
            + config.phase1.round_gap.saturating_mul(r as u64)
            + target_gap.saturating_mul(k as u64 * multiplicity[i]);
        assert_eq!(
            send.at, expected,
            "send {n} (k={k}, r={r}, i={i}) is off the law"
        );
        assert!(
            triples.insert((send.vp, dst, send.at.millis() / 100)),
            "send {n} shares its (VP, destination, decisecond) triple"
        );
    }
    plan.sends.len()
}

#[test]
fn tiny_plans_follow_the_closed_form() {
    for seed in [0u64, 7, 4_021] {
        for rounds in 1..=3 {
            let sends = check_law(&configured(StudyConfig::tiny(seed), rounds));
            assert!(sends > 0, "seed {seed}, {rounds} rounds: no sends");
        }
    }
}

#[test]
fn standard_plan_follows_the_closed_form() {
    assert_eq!(check_law(&configured(StudyConfig::standard(7), 2)), 47_328);
}
