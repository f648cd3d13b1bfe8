//! Appendix E noise mitigation: the TTL-rewrite pre-flight and the
//! pair-resolver interception test.
//!
//! Both are *measurements about the measurement platform*: they run decoy
//! traffic through the same engine and read back only what a real operator
//! could see (arrival TTLs at a controlled server; DNS answers from
//! addresses that should never answer).

use crate::world::World;
use shadow_netsim::engine::{Ctx, Host};
use shadow_netsim::time::SimDuration;
use shadow_netsim::transport::Transport;
use shadow_packet::dns::DnsName;
use shadow_packet::ipv4::Ipv4Packet;
use shadow_packet::transport::DnsTransport;
use shadow_vantage::platform::VpId;
use shadow_vantage::vp::{DecoyPayload, DecoySend, VantagePointHost, VpCommand};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// UDP port the control server listens on for pre-flight probes.
pub const CONTROL_PORT: u16 = 7_777;

/// The two initial TTLs of the pre-flight check; a clean VPN preserves
/// their difference all the way to the control server.
pub const PREFLIGHT_TTLS: (u8, u8) = (20, 60);

/// The controlled server of Appendix E ("directly sending packets to our
/// controlled server and inspect whether contents or TTL fields have been
/// tampered with"). Records the *arrival* TTL of every probe.
#[derive(Clone, Default)]
pub struct ControlServerHost {
    /// (source address, arrival TTL, first payload byte as probe tag).
    pub received: Vec<(Ipv4Addr, u8, u8)>,
}

impl Host for ControlServerHost {
    fn on_packet(&mut self, pkt: Ipv4Packet, _ctx: &mut Ctx<'_>) {
        if let Ok(Transport::Udp(dg)) = Transport::parse(&pkt) {
            if dg.dst_port == CONTROL_PORT {
                let tag = dg.payload.first().copied().unwrap_or(0);
                self.received.push((pkt.header.src, pkt.header.ttl, tag));
            }
        }
    }
}

/// Results of the platform pre-flight checks.
#[derive(Debug, Clone, Default)]
pub struct PreflightOutcome {
    /// Measured arrival-TTL delta per VP (expected: `PREFLIGHT_TTLS.1 -
    /// PREFLIGHT_TTLS.0` when the VPN does not rewrite TTLs).
    pub ttl_deltas: Vec<(VpId, i32)>,
    /// VPs whose paths answered queries sent to pair-resolver addresses.
    pub intercepted: BTreeSet<VpId>,
}

/// Runner for the Appendix E checks.
pub struct NoiseFilter;

impl NoiseFilter {
    /// TTL-rewrite pre-flight: each VP sends two tagged probes with initial
    /// TTLs 20 and 60 to the control server; the arrival-TTL difference
    /// must equal 40 on a clean egress (any rewrite collapses it).
    pub fn ttl_preflight(world: &mut World) -> Vec<(VpId, i32)> {
        let start = world.engine.now() + SimDuration::from_secs(1);
        for (i, vp) in world.platform.vps.iter().enumerate() {
            for (j, ttl) in [PREFLIGHT_TTLS.0, PREFLIGHT_TTLS.1].into_iter().enumerate() {
                world.engine.post(
                    start + SimDuration::from_millis(i as u64 * 20 + j as u64 * 5),
                    vp.node,
                    Box::new(VpCommand::RawUdp {
                        dst: world.control_addr,
                        dst_port: CONTROL_PORT,
                        ttl,
                        payload: vec![j as u8 + 1],
                    }),
                );
            }
        }
        world.engine.run_until(start + SimDuration::from_secs(600));
        let control = world
            .engine
            .host_as::<ControlServerHost>(world.control_node)
            .expect("control server bound");
        // Group arrivals by source address and probe tag.
        let mut by_src: BTreeMap<Ipv4Addr, BTreeMap<u8, u8>> = BTreeMap::new();
        for &(src, ttl, tag) in &control.received {
            by_src.entry(src).or_default().insert(tag, ttl);
        }
        world
            .platform
            .vps
            .iter()
            .filter_map(|vp| {
                let tags = by_src.get(&vp.addr)?;
                let low = *tags.get(&1)?;
                let high = *tags.get(&2)?;
                Some((vp.id, i32::from(high) - i32::from(low)))
            })
            .collect()
    }

    /// The expected TTL delta on a clean path.
    pub fn expected_delta() -> i32 {
        i32::from(PREFLIGHT_TTLS.1) - i32::from(PREFLIGHT_TTLS.0)
    }

    /// Pair-resolver interception test: from every VP, query a name under
    /// the experiment zone at the *pair* address of every public resolver
    /// (same /24, no DNS service). Any answer means a middlebox intercepts
    /// DNS on that VP's paths — the VP must be excluded.
    pub fn pair_resolver_test(world: &mut World) -> BTreeSet<VpId> {
        let start = world.engine.now() + SimDuration::from_secs(1);
        let pairs: Vec<Ipv4Addr> = world
            .dns_destinations
            .iter()
            .filter(|d| {
                matches!(
                    d.dest.kind,
                    shadow_dns::catalog::DnsDestinationKind::PublicResolver
                )
            })
            .map(|d| d.pair_addr)
            .collect();
        let zone = world.zone.clone();
        let mut sent_at = start;
        for vp in &world.platform.vps {
            for (i, &pair) in pairs.iter().enumerate() {
                let label = format!("pairtest{}-{}", vp.id.0, i);
                let domain = zone.prepend(&label).expect("label is DNS-safe");
                sent_at += SimDuration::from_millis(15);
                world.engine.post(
                    sent_at,
                    vp.node,
                    Box::new(VpCommand::Decoy(DecoySend {
                        domain,
                        dst: pair,
                        ttl: 64,
                        payload: DecoyPayload::Dns(DnsTransport::Udp53),
                        handshake: false,
                        retry: None,
                    })),
                );
            }
        }
        world
            .engine
            .run_until(sent_at + SimDuration::from_secs(600));
        let pair_set: BTreeSet<Ipv4Addr> = pairs.into_iter().collect();
        let mut intercepted = BTreeSet::new();
        for vp in &world.platform.vps {
            let Some(host) = world.engine.host_as::<VantagePointHost>(vp.node) else {
                continue;
            };
            let hit = host.report.dns_answers.iter().any(|ans| {
                pair_set.contains(&ans.from)
                    && ans
                        .domain
                        .first_label()
                        .map(|l| l.starts_with("pairtest"))
                        .unwrap_or(false)
            });
            if hit {
                intercepted.insert(vp.id);
            }
        }
        intercepted
    }

    /// Run both checks and apply them to the platform, mirroring the
    /// paper's order: defective VPNs are dropped before the campaign, and
    /// intercepted VPs are "already removed from VPs counted in Table 1".
    pub fn run_and_apply(world: &mut World) -> PreflightOutcome {
        let ttl_deltas = Self::ttl_preflight(world);
        let intercepted = Self::pair_resolver_test(world);
        world
            .platform
            .vet_ttl_rewrite(&ttl_deltas, Self::expected_delta());
        world.platform.exclude_intercepted(&intercepted);
        // The pre-flight has drained its queue; the campaign that follows
        // (or every fork of this world) grows its own.
        world.engine.release_queue_storage();
        PreflightOutcome {
            ttl_deltas,
            intercepted,
        }
    }
}

/// A quick sanity helper for tests: does `domain` look like a pair-test
/// probe rather than a campaign decoy?
pub fn is_pair_test_domain(domain: &DnsName) -> bool {
    domain
        .first_label()
        .map(|l| l.starts_with("pairtest"))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_delta_matches_constants() {
        assert_eq!(NoiseFilter::expected_delta(), 40);
    }

    #[test]
    fn pair_test_domain_detection() {
        let zone = DnsName::parse("www.experiment.example").unwrap();
        let probe = zone.prepend("pairtest3-1").unwrap();
        assert!(is_pair_test_domain(&probe));
        let decoy = zone.prepend("abcd1234-0001").unwrap();
        assert!(!is_pair_test_domain(&decoy));
    }
}
