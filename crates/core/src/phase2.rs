//! Phase II: hop-by-hop traceroute to locate on-path observers (Figure 2).
//!
//! For each problematic path, the VP re-sends the decoy with initial TTL
//! 1..=max — each TTL gets a *fresh identifier* so the honeypots can map
//! unsolicited requests back to the exact probe. The smallest TTL whose
//! decoy triggers unsolicited requests is the observer's hop; the ICMP
//! Time Exceeded stream exposes router addresses along the way; the
//! deepest ICMP hop bounds the destination distance.

use crate::campaign::{CampaignData, CampaignRunner, PlannedSend};
use crate::correlate::PathKey;
use crate::decoy::{DecoyProtocol, DecoyRegistry};
use crate::sink::{CorrelationAggregates, SinkConfig};
use crate::world::World;
use serde::{Deserialize, Serialize};
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_packet::transport::{DnsTransport, EncryptionDeployment};
use shadow_telemetry::EventKind;
use shadow_topo::{ProbePath, RouterGraphBuilder};
use shadow_vantage::platform::VpId;
use shadow_vantage::schedule::RateLimitedScheduler;
use shadow_vantage::vp::VpCommand;
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

/// Aggregated observer-location table (Table 2 input).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserverLocation {
    /// normalized hop (1–10) → path count, per decoy protocol.
    pub by_protocol: BTreeMap<(DecoyProtocol, u8), usize>,
}

/// The complete Phase II sweep schedule (see [`crate::campaign::Phase1Plan`]
/// for the plan/execute rationale — a sharded run executes one plan slice
/// per shard, keyed by the traced path's VP).
#[derive(Debug)]
pub struct Phase2Plan {
    pub registry: DecoyRegistry,
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
        let zone = world.zone.clone();
        let mut registry = DecoyRegistry::new(zone);
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
        for (sweep, key) in traced.iter().enumerate() {
            let Some(&(vp_node, vp_addr)) = vp_index.get(&key.vp) else {
                continue;
            };
            for ttl in 1..=config.max_ttl {
                let at = scheduler.reserve(start, key.vp, key.dst);
                let record = registry.register(
                    key.vp,
                    vp_addr,
                    key.dst,
                    key.protocol,
                    ttl,
                    at,
                    Some(sweep as u32),
                );
                // HTTP/TLS probes skip the handshake in Phase II (the paper
                // avoids holding destination connections open). The probe
                // replays the Phase I flow, so it carries the same
                // transport profile — `profile_for` is the same pure hash
                // Phase I planning used for this (vp, dst) pair.
                let profile = config.encryption.profile_for(key.vp.0, key.dst);
                let command = match key.protocol {
                    DecoyProtocol::Dns => match profile.dns {
                        DnsTransport::Udp53 => VpCommand::DnsDecoy {
                            domain: record.domain.clone(),
                            dst: key.dst,
                            ttl,
                            retry: None,
                        },
                        transport => VpCommand::EncryptedDnsDecoy {
                            domain: record.domain.clone(),
                            dst: key.dst,
                            ttl,
                            transport,
                        },
                    },
                    DecoyProtocol::Http => VpCommand::RawHttpProbe {
                        domain: record.domain.clone(),
                        dst: key.dst,
                        ttl,
                    },
                    DecoyProtocol::Tls => VpCommand::RawTlsProbe {
                        domain: record.domain.clone(),
                        dst: key.dst,
                        ttl,
                        mode: profile.tls,
                    },
                };
                sends.push(PlannedSend {
                    at,
                    vp: key.vp,
                    node: vp_node,
                    command,
                });
                last_send = last_send.max(at);
            }
        }

        Phase2Plan {
            registry,
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
        let registry = plan.registry.filter_vps(&owns);
        let shared = crate::campaign::install_sink(world, &registry, sink);
        for send in &plan.sends {
            if owns(send.vp) {
                crate::campaign::record_decoy_send(world, send);
                world
                    .engine
                    .post(send.at, send.node, Box::new(send.command.clone()));
            }
        }
        world.engine.run_until(plan.last_send + config.grace);
        let vp_reports = CampaignRunner::harvest(world, &owns);
        let aggregates = crate::campaign::drain_sink(world, &shared);

        // Fold this shard's Time-Exceeded evidence into the router graph.
        // Each probe path belongs to exactly one sweeping VP, and a VP to
        // exactly one shard, so per-shard folds are disjoint and absorb
        // into the sequential run's graph exactly.
        let mut router_graph = RouterGraphBuilder::new();
        for (vp, report) in &vp_reports {
            for obs in &report.icmp {
                // The identification field maps the expired probe back to
                // its decoy (and initial TTL), mirroring localize's filter.
                if let Some(&(ref domain, ttl, dst)) = report.ident_map.get(&obs.orig_ident) {
                    if dst == obs.orig_dst && registry.lookup(domain).is_some() {
                        router_graph.observe(ProbePath { vp: vp.0, dst }, ttl, obs.router);
                    }
                }
            }
        }
        let telemetry = world.engine.telemetry();
        if let Some(m) = telemetry.metrics() {
            m.router_graph_edges.add(router_graph.observations());
        }
        let shard = telemetry.shard();
        let paths = router_graph.path_count() as u64;
        let observations = router_graph.observations();
        telemetry.event(world.engine.now().0, None, || EventKind::RouterGraphBuilt {
            shard,
            paths,
            observations,
        });

        crate::campaign::emit_phase_end(world, "phase2");
        let (metrics, journal) = crate::campaign::drain_telemetry(world);
        CampaignData {
            registry,
            vp_reports,
            last_send: plan.last_send,
            metrics,
            journal,
            aggregates,
            router_graph,
        }
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
                for obs in &report.icmp {
                    if obs.orig_dst != key.dst {
                        continue;
                    }
                    // The identification field maps the expired probe back
                    // to its decoy — and therefore to its initial TTL.
                    if let Some(&(ref domain, ttl, dst)) = report.ident_map.get(&obs.orig_ident) {
                        if dst == key.dst && data.registry.lookup(domain).is_some() {
                            revealed.entry(ttl).or_insert(obs.router);
                        }
                    }
                }
                for ans in &report.dns_answers {
                    if let Some(decoy) = data.registry.lookup(&ans.domain) {
                        if decoy.vp == key.vp
                            && decoy.dst() == key.dst
                            && decoy.protocol == key.protocol
                        {
                            min_answer_ttl = Some(
                                min_answer_ttl.map_or(decoy.ttl(), |t: u8| t.min(decoy.ttl())),
                            );
                        }
                    }
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

    /// Build the Table-2 aggregation from per-path results.
    pub fn observer_locations(results: &[TracerouteResult]) -> ObserverLocation {
        let mut by_protocol = BTreeMap::new();
        for result in results {
            if let Some(hop) = result.normalized_hop {
                *by_protocol.entry((result.path.protocol, hop)).or_insert(0) += 1;
            }
        }
        ObserverLocation { by_protocol }
    }
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
