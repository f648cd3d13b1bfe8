//! Phase II: hop-by-hop traceroute to locate on-path observers (Figure 2).
//!
//! For each problematic path, the VP re-sends the decoy with initial TTL
//! 1..=max — each TTL gets a *fresh identifier* so the honeypots can map
//! unsolicited requests back to the exact probe. The smallest TTL whose
//! decoy triggers unsolicited requests is the observer's hop; the ICMP
//! Time Exceeded stream exposes router addresses along the way; the
//! deepest ICMP hop bounds the destination distance.

use crate::campaign::{finish_phase, run_slice, CampaignData, PlannedSend};
use crate::correlate::PathKey;
use crate::decoy::{DecoyProtocol, DecoyRecord};
use crate::ident::DecoyIdent;
use crate::sink::{CorrelationAggregates, SinkConfig};
use crate::world::World;
use serde::{Deserialize, Serialize};
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_packet::transport::EncryptionDeployment;
use shadow_telemetry::EventKind;
use shadow_topo::ProbePath;
use shadow_vantage::platform::VpId;
use shadow_vantage::schedule::RateLimitedScheduler;
use shadow_vantage::vp::{IcmpObservation, VpReport};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Phase II configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Phase2Config {
    /// Highest initial TTL swept (the paper sweeps to 64; simulated paths
    /// are shorter, so a lower cap saves decoys without losing hops).
    pub max_ttl: u8,
    /// Cap on the number of paths traced (the heaviest campaigns trace a
    /// sample; `usize::MAX` = all).
    pub max_paths: usize,
    /// Clock grace after the last probe.
    pub grace: SimDuration,
    /// Encryption deployment for the sweep probes. A Phase II probe
    /// replays the Phase I flow hop by hop, so it must use the *same*
    /// transport profile — otherwise the TTL sweep would leak in the clear
    /// the very names the deployment sealed. The study runner keeps this
    /// in sync with `Phase1Config::encryption`.
    pub encryption: EncryptionDeployment,
}

impl Default for Phase2Config {
    fn default() -> Self {
        Self {
            max_ttl: 32,
            max_paths: usize::MAX,
            grace: SimDuration::from_days(20),
            encryption: EncryptionDeployment::plaintext(),
        }
    }
}

/// Where an observer was localized on one path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracerouteResult {
    pub path: PathKey,
    /// Smallest initial TTL whose decoy triggered unsolicited requests.
    pub observer_hop: Option<u8>,
    /// Hops from the VP to the destination (deepest ICMP hop + 1, or the
    /// smallest TTL that yielded a destination response).
    pub dest_distance: Option<u8>,
    /// The paper's 1–10 normalization (10 = destination).
    pub normalized_hop: Option<u8>,
    /// Observer router address revealed by ICMP at the observer hop.
    pub observer_addr: Option<Ipv4Addr>,
    /// Every (hop, router) the sweep revealed.
    pub revealed_routers: Vec<(u8, Ipv4Addr)>,
}

/// The complete Phase II sweep schedule (see [`crate::campaign::Phase1Plan`]
/// for the plan/execute rationale — each chunk executes the plan slice
/// keyed by the traced path's VP, and registers the probes it posts). At
/// most `max_paths` × `max_ttl` sends, so unlike Phase I it holds them.
#[derive(Debug)]
pub struct Phase2Plan {
    pub sends: Vec<PlannedSend>,
    /// The paths actually swept (post-cap), in sweep order.
    pub traced: Vec<PathKey>,
    pub last_send: SimTime,
}

/// The Phase II runner.
pub struct Phase2Runner;

impl Phase2Runner {
    /// Compute the full sweep schedule without posting anything.
    pub fn plan(world: &World, paths: &[PathKey], config: &Phase2Config) -> Phase2Plan {
        let mut scheduler = RateLimitedScheduler::paper_defaults();
        let mut sends = Vec::new();
        let start = world.engine.now() + SimDuration::from_secs(5);
        let mut last_send = start;

        let vp_index: HashMap<_, _> = world
            .platform
            .vps
            .iter()
            .map(|vp| (vp.id, (vp.node, vp.addr)))
            .collect();

        let traced: Vec<PathKey> = paths.iter().copied().take(config.max_paths).collect();
        for key in &traced {
            let Some(&(vp_node, vp_addr)) = vp_index.get(&key.vp) else {
                continue;
            };
            // HTTP/TLS probes skip the handshake in Phase II (the paper
            // avoids holding destination connections open). The probe
            // replays the Phase I flow, so it carries the same transport
            // profile — `profile_for` is the same pure hash Phase I
            // planning used for this (vp, dst) pair.
            let profile = config.encryption.profile_for(key.vp.0, key.dst);
            for ttl in 1..=config.max_ttl {
                let at = scheduler.reserve(start, key.vp, key.dst);
                let record =
                    DecoyRecord::new(&world.zone, key.vp, vp_addr, key.dst, key.protocol, ttl, at);
                sends.push(PlannedSend::new(record, vp_node, profile, false, None));
                last_send = last_send.max(at);
            }
        }

        Phase2Plan {
            sends,
            traced,
            last_send,
        }
    }

    /// Execute the slice of `plan` whose sweeping VPs satisfy `owns`, run
    /// the clock through the *global* grace window, and harvest.
    pub fn execute(
        world: &mut World,
        plan: &Phase2Plan,
        config: &Phase2Config,
        sink: SinkConfig,
        owns: impl Fn(VpId) -> bool,
    ) -> CampaignData {
        // The TTL sweep replays what Phase I discovered, so its traffic
        // volume varies with the encryption level; keep it out of the
        // wire-recall telemetry (Phase I is the fixed denominator).
        world.engine.for_each_tap_mut(|tap| {
            if let Some(dpi) = tap
                .as_any_mut()
                .downcast_mut::<shadow_observer::dpi::DpiTap>()
            {
                dpi.close_recall_window();
            }
        });
        let sends = plan.sends.iter().filter(|send| owns(send.vp)).cloned();
        let mut data = run_slice(world, sends, plan.last_send, config.grace, sink, &owns);

        // Fold this shard's Time-Exceeded evidence into the router graph.
        // Each probe path belongs to exactly one sweeping VP, and a VP to
        // exactly one shard, so per-shard folds are disjoint and absorb
        // into the sequential run's graph exactly.
        for (vp, report) in &data.vp_reports {
            for obs in &report.icmp {
                if let Some((dst, ttl)) = expired_probe(report, obs) {
                    let path = ProbePath { vp: vp.0, dst };
                    data.router_graph.observe(path, ttl, obs.router);
                }
            }
        }
        let telemetry = world.engine.telemetry();
        if let Some(m) = telemetry.metrics() {
            m.router_graph_edges.add(data.router_graph.observations());
        }
        let shard = telemetry.shard();
        let paths = data.router_graph.path_count() as u64;
        let observations = data.router_graph.observations();
        telemetry.event(world.engine.now().0, None, || EventKind::RouterGraphBuilt {
            shard,
            paths,
            observations,
        });

        finish_phase(world, "phase2", data)
    }

    /// Pure localization from Phase II data (separated for testing).
    ///
    /// The smallest triggering TTL per path comes straight from the
    /// streamed [`CorrelationAggregates`]: the sink tracked the per-path
    /// minimum at capture time.
    pub fn localize(data: &CampaignData, traced: &[PathKey], max_ttl: u8) -> Vec<TracerouteResult> {
        // ICMP evidence per (vp, dst): hop → router address; and, for DNS,
        // the smallest TTL that produced a destination answer.
        let mut results = Vec::with_capacity(traced.len());
        for key in traced {
            let report = data.vp_reports.get(&key.vp);
            let mut revealed: BTreeMap<u8, Ipv4Addr> = BTreeMap::new();
            let mut min_answer_ttl: Option<u8> = None;
            if let Some(report) = report {
                for obs in report.icmp.iter().filter(|obs| obs.orig_dst == key.dst) {
                    if let Some((_, ttl)) = expired_probe(report, obs) {
                        revealed.entry(ttl).or_insert(obs.router);
                    }
                }
                // Only DNS probes draw DNS answers; each answer names its
                // probe, whose identifier carries the destination and TTL.
                if key.protocol == DecoyProtocol::Dns {
                    let answered = report
                        .dns_answers
                        .iter()
                        .filter_map(|ans| DecoyIdent::from_domain(&ans.domain))
                        .filter(|probe| probe.dst == key.dst)
                        .map(|probe| probe.ttl);
                    min_answer_ttl = answered.min();
                }
            }

            let deepest_icmp = revealed.keys().max().copied();
            let dest_distance = match (deepest_icmp, min_answer_ttl) {
                // The first TTL that reached the destination is one past the
                // deepest expiring hop; a destination answer pins it too.
                (Some(d), Some(a)) => Some(a.min(d + 1)),
                (Some(d), None) if d < max_ttl => Some(d + 1),
                (Some(_), None) => None, // swept out before reaching it
                (None, Some(a)) => Some(a),
                (None, None) => None,
            };

            let observer_hop = data.aggregates.min_trigger_ttl(key);
            let normalized_hop = match (observer_hop, dest_distance) {
                (Some(hop), Some(dist)) if dist > 0 => {
                    Some((((hop as u32 * 10).div_ceil(dist as u32)) as u8).clamp(1, 10))
                }
                _ => None,
            };
            let observer_addr = observer_hop.and_then(|hop| revealed.get(&hop).copied());
            results.push(TracerouteResult {
                path: *key,
                observer_hop,
                dest_distance,
                normalized_hop,
                observer_addr,
                revealed_routers: revealed.into_iter().collect(),
            });
        }
        results
    }
}

/// Map one Time-Exceeded back to its probe, the one rule both the router
/// graph and [`Phase2Runner::localize`] apply: the identification field
/// names the probe (and so its initial TTL), whose destination must be the
/// one the ICMP quotes. A phase's reports hold only that phase's probes.
/// Returns the probe's (destination, initial TTL).
fn expired_probe(report: &VpReport, obs: &IcmpObservation) -> Option<(Ipv4Addr, u8)> {
    let &(ttl, dst) = report.ident_map.get(&obs.orig_ident)?;
    (dst == obs.orig_dst).then_some((dst, ttl))
}

/// Pick the Phase II input from Phase I's streamed aggregates: the
/// problematic paths in path-key order, at most `cap_per_protocol` per
/// decoy protocol.
pub fn paths_to_trace_streamed(
    aggregates: &CorrelationAggregates,
    cap_per_protocol: usize,
) -> Vec<PathKey> {
    let mut per_protocol: BTreeMap<DecoyProtocol, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for key in aggregates.paths.keys() {
        let count = per_protocol.entry(key.protocol).or_insert(0);
        if *count < cap_per_protocol {
            *count += 1;
            out.push(*key);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_matches_paper_scale() {
        // hop == distance ⇒ 10 (destination); fractions round up.
        let norm = |hop: u32, dist: u32| ((hop * 10).div_ceil(dist) as u8).clamp(1, 10);
        assert_eq!(norm(8, 8), 10);
        assert_eq!(norm(4, 8), 5);
        assert_eq!(norm(1, 8), 2);
        assert_eq!(norm(1, 20), 1);
        assert_eq!(norm(5, 9), 6);
    }

    #[test]
    fn default_config_sane() {
        let config = Phase2Config::default();
        assert!(config.max_ttl >= 16);
        assert!(config.grace >= SimDuration::from_days(1));
    }
}
