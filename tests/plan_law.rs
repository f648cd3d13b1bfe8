//! The Phase I plan is the closed form of the rate-limited round-robin:
//! sends come in round → vetted VP → target order, and each sits at
//!
//! ```text
//! at(k, r, i) = at(0, 0, i) + r × round_gap + k × 500 ms × m(i)
//! ```
//!
//! where k is the VP's position in the vetted roster, r the round, i the
//! position in the per-VP target list (DNS destinations first, then HTTP
//! and TLS for each site) and m(i) the number of times target i's address
//! appears in that list. The plan computes that law, so these tests check
//! it against an independent reference: the scheduler itself, reserving
//! every send one at a time. No two sends share a (VP, destination,
//! decisecond) triple, so a decoy's identifier plus the target list
//! determine its protocol. Mixed encryption and DNS retry are on, so every
//! per-send field the plan derives is compared.

use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::Arc;
use traffic_shadowing::robustness::fault_targets;
use traffic_shadowing::shadow_chaos::{FaultProfile, RetrySpec};
use traffic_shadowing::shadow_core::campaign::{CampaignRunner, Phase1Plan};
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_core::noise::NoiseFilter;
use traffic_shadowing::shadow_core::world::{generate_spec, World};
use traffic_shadowing::shadow_core::DecoyIdent;
use traffic_shadowing::shadow_netsim::time::{SimDuration, SimTime};
use traffic_shadowing::shadow_netsim::topology::NodeId;
use traffic_shadowing::shadow_packet::EncryptionDeployment;
use traffic_shadowing::shadow_vantage::platform::VpId;
use traffic_shadowing::shadow_vantage::schedule::RateLimitedScheduler;
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

/// Plan Phase I the way `Study::run` does (pre-flight on a healthy
/// network, then the fault conditioner).
fn planned(config: &StudyConfig) -> (World, Phase1Plan) {
    let spec = generate_spec(config.world.clone());
    let conditioner = config
        .faults
        .as_ref()
        .map(|profile| Arc::new(profile.compile(&fault_targets(&spec))));
    let mut world = spec.instantiate();
    NoiseFilter::run_and_apply(&mut world);
    world.engine.set_conditioner(conditioner);
    let plan = CampaignRunner::plan_phase1(&world, &config.phase1);
    (world, plan)
}

/// One reference send: when, from which VP (id, node, address), to which
/// destination over which protocol.
struct Reserved {
    at: SimTime,
    vp: VpId,
    node: NodeId,
    vp_addr: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: DecoyProtocol,
}

/// The schedule the plan must reproduce, walked the long way: one
/// rate-limited reservation per send, round → VP → target, each round
/// starting `round_gap` after the last, 5 s after the world's clock.
/// `visit` sees every send in that order.
fn reference_walk(world: &World, config: &StudyConfig, mut visit: impl FnMut(Reserved)) {
    let mut targets: Vec<(Ipv4Addr, DecoyProtocol)> = world
        .dns_destinations
        .iter()
        .map(|d| (d.addr, DecoyProtocol::Dns))
        .collect();
    for site in &world.tranco {
        targets.push((site.addr, DecoyProtocol::Http));
        targets.push((site.addr, DecoyProtocol::Tls));
    }
    let start = world.engine.now() + SimDuration::from_secs(5);
    let mut scheduler = RateLimitedScheduler::paper_defaults();
    for round in 0..config.phase1.rounds {
        let not_before = start + config.phase1.round_gap.saturating_mul(round as u64);
        for vp in &world.platform.vps {
            for &(dst, protocol) in &targets {
                visit(Reserved {
                    at: scheduler.reserve(not_before, vp.id, dst),
                    vp: vp.id,
                    node: vp.node,
                    vp_addr: vp.addr,
                    dst,
                    protocol,
                });
            }
        }
    }
}

/// Check every planned send field by field against the reference walk,
/// and that no two share a (VP, destination, decisecond) triple. Returns
/// the number of sends checked.
fn check_plan(config: &StudyConfig) -> usize {
    let (world, plan) = planned(config);
    assert!(!plan.sends.is_empty(), "empty campaign");
    let phase1 = &config.phase1;
    let mut triples = HashSet::new();
    let mut last = SimTime::ZERO;
    let mut checked = 0;
    let mut sends = plan.sends.iter();
    reference_walk(&world, config, |want| {
        let n = checked;
        let send = sends
            .next()
            .unwrap_or_else(|| panic!("plan ends at send {n}"));
        let profile = phase1.encryption.profile_for(want.vp.0, want.dst);
        let payload = match want.protocol {
            DecoyProtocol::Dns => DecoyPayload::Dns(profile.dns),
            DecoyProtocol::Http => DecoyPayload::Http,
            DecoyProtocol::Tls => DecoyPayload::Tls(profile.tls),
        };
        let label = DecoyIdent::at(want.at, want.vp_addr, want.dst, 64).encode();
        let domain = world
            .zone
            .prepend(&label)
            .expect("identifier labels are DNS-safe");
        assert_eq!(send.at, want.at, "send {n}: at");
        assert_eq!(send.vp, want.vp, "send {n}: vp");
        assert_eq!(send.node, want.node, "send {n}: node");
        assert_eq!(send.decoy.dst, want.dst, "send {n}: dst");
        assert_eq!(send.decoy.ttl, 64, "send {n}: ttl");
        assert_eq!(send.decoy.payload, payload, "send {n}: payload");
        assert_eq!(send.decoy.domain, domain, "send {n}: domain");
        assert!(send.decoy.handshake, "send {n}: handshake");
        assert_eq!(send.decoy.retry, phase1.dns_retry, "send {n}: retry");
        assert!(
            triples.insert((send.vp, send.decoy.dst, send.at.millis() / 100)),
            "send {n} shares its (VP, destination, decisecond) triple"
        );
        last = last.max(want.at);
        checked += 1;
    });
    assert!(sends.next().is_none(), "plan outruns the reference walk");
    assert_eq!(plan.sends.len(), checked);
    assert_eq!(plan.last_send, last, "last_send");
    checked
}

#[test]
fn tiny_plans_follow_the_closed_form() {
    for seed in [0u64, 7, 4_021] {
        for rounds in 1..=3 {
            let sends = check_plan(&configured(StudyConfig::tiny(seed), rounds));
            assert!(sends > 0, "seed {seed}, {rounds} rounds: no sends");
        }
    }
}

#[test]
fn standard_plan_follows_the_closed_form() {
    assert_eq!(check_plan(&configured(StudyConfig::standard(7), 2)), 47_328);
}

/// The full §3 deployment: every send's (VP, destination, time) against
/// the reference walk, without building the reference's domains.
#[test]
#[ignore = "paper scale, 19.3M sends: run in release via the CI determinism-release job"]
fn paper_scale_plan_follows_the_closed_form() {
    let config = StudyConfig::paper_scale(7);
    let (world, plan) = planned(&config);
    assert_eq!(plan.send_count(), 19_301_634);
    let mut sends = plan.sends.iter();
    let mut checked = 0;
    reference_walk(&world, &config, |want| {
        let n = checked;
        let send = sends
            .next()
            .unwrap_or_else(|| panic!("plan ends at send {n}"));
        assert_eq!(
            (send.vp, send.decoy.dst, send.at),
            (want.vp, want.dst, want.at),
            "send {n} is off the reference walk"
        );
        checked += 1;
    });
    assert!(sends.next().is_none(), "plan outruns the reference walk");
    assert_eq!(checked, 19_301_634);
}
