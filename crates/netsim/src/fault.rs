//! Deterministic link/node fault injection — the engine-side half of the
//! `shadow-chaos` subsystem.
//!
//! A [`LinkConditioner`] holds compiled fault state: per-link loss,
//! duplication and jitter probabilities, scheduled node-outage windows
//! (downed routers, resolvers, VPs, honeypots), a fractional link-outage
//! window, and ICMP Time Exceeded rate limiting. The engine consults an
//! `Option<LinkConditioner>` on its forwarding path; when none is
//! installed every check is a single `None` branch, mirroring the
//! telemetry zero-cost pattern.
//!
//! Every probabilistic decision is **value-derived**: it hashes the packet
//! identity (`splitmix64(fnv1a(packet identity) ^ fault_seed)` — the same
//! rule the sharded executor relies on) rather than drawing from a
//! sequential RNG stream. A packet therefore meets the same fate no matter
//! which shard simulates it or in what order events interleave, so a fixed
//! `(WorldConfig, FaultProfile, seed)` stays byte-identical at any shard
//! count. The identity is built from shard-invariant facts ONLY: src, dst,
//! protocol, TTL and payload *length*. It deliberately excludes
//! `header.identification` (ICMP replies take theirs from a per-engine
//! counter whose value depends on shard-local event order) and payload
//! *content* (payloads embed host-local allocation counters — a resolver's
//! upstream DNS transaction id, a probe origin's query id — that advance
//! per traffic *seen*, which in a sharded run is a subset). Two packets
//! with the same signature departing the same link in the same millisecond
//! share one fate; with millisecond times and per-flow ports in the length
//! that collision is rare and statistically harmless.

use crate::topology::{mix3, NodeId};
use shadow_packet::ipv4::Ipv4Header;
use std::collections::HashMap;

/// Probabilities are integer parts-per-million so decisions are exact
/// modular comparisons, never float-rounding-dependent.
pub const PPM_SCALE: u64 = 1_000_000;

/// Duplicated copies trail the original by 1..=DUP_SPREAD_MS extra ms, so
/// the copy never collides with the original at the same instant.
const DUP_SPREAD_MS: u64 = 5;

// Decision lanes: distinct salts so one packet's loss / duplication /
// jitter / ICMP / outage draws are independent.
const LANE_LOSS: u64 = 0x6c6f_7373_0000_0001;
const LANE_DUP: u64 = 0x6475_7065_0000_0002;
const LANE_DUP_DELAY: u64 = 0x6475_7065_0000_0003;
const LANE_JITTER: u64 = 0x6a69_7474_0000_0004;
const LANE_ICMP: u64 = 0x6963_6d70_0000_0005;
const LANE_LINK_OUTAGE: u64 = 0x6f75_7461_0000_0006;

/// FNV-1a over bytes, 64-bit variant: the workspace's one copy, used
/// wherever a hash must be stable across runs, shards and processes.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Convert a probability in `[0, 1]` to integer parts-per-million.
pub fn fraction_to_ppm(fraction: f64) -> u32 {
    (fraction.clamp(0.0, 1.0) * PPM_SCALE as f64).round() as u32
}

/// A half-open simulated-time interval `[start_ms, end_ms)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    pub start_ms: u64,
    pub end_ms: u64,
}

impl OutageWindow {
    pub fn new(start_ms: u64, end_ms: u64) -> Self {
        Self { start_ms, end_ms }
    }

    #[inline]
    pub fn contains(&self, at_ms: u64) -> bool {
        at_ms >= self.start_ms && at_ms < self.end_ms
    }
}

/// What the conditioner decided for one link transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Deliver, `extra_delay_ms` late; optionally also deliver a duplicate
    /// a further `duplicate_after_ms` later.
    Deliver {
        extra_delay_ms: u64,
        duplicate_after_ms: Option<u64>,
    },
    /// Random loss swallowed the packet.
    Lost,
    /// The link is inside a scheduled outage window.
    OutageDrop,
}

impl LinkVerdict {
    /// The no-fault verdict.
    pub const CLEAN: LinkVerdict = LinkVerdict::Deliver {
        extra_delay_ms: 0,
        duplicate_after_ms: None,
    };
}

/// Compiled fault state the engine consults per transmission. Built by the
/// `shadow-chaos` crate from a declarative `FaultProfile`; plain data, so
/// one instance is shared read-only across every shard of a campaign.
#[derive(Debug, Clone, Default)]
pub struct LinkConditioner {
    seed: u64,
    loss_ppm: u32,
    dup_ppm: u32,
    jitter_ms: u64,
    icmp_drop_ppm: u32,
    /// `(fraction_ppm, window)`: that fraction of links (hash-selected) is
    /// down for the window — no link enumeration required.
    link_outage: Option<(u32, OutageWindow)>,
    /// Scheduled downtime per node (routers, resolvers, VPs, honeypots).
    node_outages: HashMap<NodeId, Vec<OutageWindow>>,
}

impl LinkConditioner {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    pub fn with_loss_ppm(mut self, ppm: u32) -> Self {
        self.loss_ppm = ppm;
        self
    }

    pub fn with_duplication_ppm(mut self, ppm: u32) -> Self {
        self.dup_ppm = ppm;
        self
    }

    /// Uniform extra per-link delay in `0..=jitter_ms` milliseconds.
    pub fn with_jitter_ms(mut self, jitter_ms: u64) -> Self {
        self.jitter_ms = jitter_ms;
        self
    }

    /// Probability (ppm) that a router's ICMP Time Exceeded is rate-limited.
    pub fn with_icmp_drop_ppm(mut self, ppm: u32) -> Self {
        self.icmp_drop_ppm = ppm;
        self
    }

    /// Down `fraction_ppm` of all links (hash-selected) during `window`.
    pub fn with_link_outage(mut self, fraction_ppm: u32, window: OutageWindow) -> Self {
        self.link_outage = Some((fraction_ppm, window));
        self
    }

    /// Schedule downtime for one node. Windows accumulate.
    pub fn add_node_outage(&mut self, node: NodeId, window: OutageWindow) {
        self.node_outages.entry(node).or_default().push(window);
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the node is inside one of its scheduled outage windows.
    #[inline]
    pub fn node_down(&self, node: NodeId, at_ms: u64) -> bool {
        match self.node_outages.get(&node) {
            Some(windows) => windows.iter().any(|w| w.contains(at_ms)),
            None => false,
        }
    }

    /// Value-derived per-packet draw on `lane`, salted with transmission
    /// context (time + endpoints) so re-sends and later hops re-roll.
    #[inline]
    fn draw(&self, key: u64, lane: u64, salt: u64) -> u64 {
        mix3(key ^ self.seed, lane, salt)
    }

    /// Decide the fate of one transmission of `(header, payload)` departing
    /// at `at_ms` over the link `from → to`.
    pub fn link_verdict(
        &self,
        at_ms: u64,
        from: NodeId,
        to: NodeId,
        header: &Ipv4Header,
        payload: &[u8],
    ) -> LinkVerdict {
        if let Some((fraction_ppm, window)) = self.link_outage {
            if window.contains(at_ms) {
                let (lo, hi) = if from.0 <= to.0 {
                    (from.0, to.0)
                } else {
                    (to.0, from.0)
                };
                let h = mix3(self.seed ^ LANE_LINK_OUTAGE, u64::from(lo), u64::from(hi));
                if h % PPM_SCALE < u64::from(fraction_ppm) {
                    return LinkVerdict::OutageDrop;
                }
            }
        }
        if self.loss_ppm == 0 && self.dup_ppm == 0 && self.jitter_ms == 0 {
            return LinkVerdict::CLEAN;
        }
        let key = packet_identity(header, payload);
        let salt = transmission_salt(at_ms, from, to);
        if self.loss_ppm > 0
            && self.draw(key, LANE_LOSS, salt) % PPM_SCALE < u64::from(self.loss_ppm)
        {
            return LinkVerdict::Lost;
        }
        let extra_delay_ms = if self.jitter_ms > 0 {
            self.draw(key, LANE_JITTER, salt) % (self.jitter_ms + 1)
        } else {
            0
        };
        let duplicate_after_ms = if self.dup_ppm > 0
            && self.draw(key, LANE_DUP, salt) % PPM_SCALE < u64::from(self.dup_ppm)
        {
            Some(1 + self.draw(key, LANE_DUP_DELAY, salt) % DUP_SPREAD_MS)
        } else {
            None
        };
        LinkVerdict::Deliver {
            extra_delay_ms,
            duplicate_after_ms,
        }
    }

    /// Whether the ICMP Time Exceeded for `(header, payload)` expiring at
    /// `node` is suppressed by rate limiting.
    pub fn suppress_icmp(
        &self,
        at_ms: u64,
        node: NodeId,
        header: &Ipv4Header,
        payload: &[u8],
    ) -> bool {
        if self.icmp_drop_ppm == 0 {
            return false;
        }
        let key = packet_identity(header, payload);
        let salt = at_ms ^ (u64::from(node.0) << 32);
        self.draw(key, LANE_ICMP, salt) % PPM_SCALE < u64::from(self.icmp_drop_ppm)
    }
}

/// The value-derived packet identity: src, dst, protocol, TTL and payload
/// length. Never the IP identification field or payload content — both
/// can depend on shard-local state (see module docs).
fn packet_identity(header: &Ipv4Header, payload: &[u8]) -> u64 {
    let mut bytes = [0u8; 18];
    bytes[..4].copy_from_slice(&header.src.octets());
    bytes[4..8].copy_from_slice(&header.dst.octets());
    bytes[8] = header.protocol.number();
    bytes[9] = header.ttl;
    bytes[10..].copy_from_slice(&(payload.len() as u64).to_be_bytes());
    fnv1a64(&bytes)
}

#[inline]
fn transmission_salt(at_ms: u64, from: NodeId, to: NodeId) -> u64 {
    at_ms ^ (u64::from(from.0) << 40) ^ (u64::from(to.0) << 20)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_packet::ipv4::{IpProtocol, Ipv4Packet};
    use std::net::Ipv4Addr;

    fn header(ident: u16, ttl: u8) -> (Ipv4Header, Vec<u8>) {
        let pkt = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Udp,
            ttl,
            ident,
            vec![1, 2, 3, 4],
        );
        (pkt.header, pkt.payload.to_vec())
    }

    #[test]
    fn decisions_are_deterministic() {
        let c = LinkConditioner::new(7)
            .with_loss_ppm(500_000)
            .with_jitter_ms(9);
        let (h, p) = header(42, 60);
        let a = c.link_verdict(1_000, NodeId(3), NodeId(4), &h, &p);
        let b = c.link_verdict(1_000, NodeId(3), NodeId(4), &h, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn identity_ignores_ip_identification() {
        // ICMP replies carry an engine-local ident; the fate of a packet
        // must not depend on it or shards would diverge.
        let c = LinkConditioner::new(7).with_loss_ppm(500_000);
        let (h1, p) = header(1, 60);
        let (h2, _) = header(9_999, 60);
        assert_eq!(
            c.link_verdict(5, NodeId(1), NodeId(2), &h1, &p),
            c.link_verdict(5, NodeId(1), NodeId(2), &h2, &p),
        );
    }

    #[test]
    fn retransmissions_reroll() {
        // Same packet, later departure: an independent draw, so a retry can
        // survive where the first transmission was lost.
        let c = LinkConditioner::new(11).with_loss_ppm(500_000);
        let (h, p) = header(1, 60);
        let fates: Vec<_> = (0..64)
            .map(|t| c.link_verdict(t * 1_000, NodeId(1), NodeId(2), &h, &p))
            .collect();
        assert!(fates.contains(&LinkVerdict::Lost));
        assert!(fates.iter().any(|f| *f != LinkVerdict::Lost));
    }

    #[test]
    fn total_loss_drops_everything() {
        let c = LinkConditioner::new(3).with_loss_ppm(PPM_SCALE as u32);
        let (h, p) = header(1, 60);
        for t in 0..32 {
            assert_eq!(
                c.link_verdict(t, NodeId(1), NodeId(2), &h, &p),
                LinkVerdict::Lost
            );
        }
    }

    #[test]
    fn zero_profile_is_clean() {
        let c = LinkConditioner::new(99);
        let (h, p) = header(1, 60);
        assert_eq!(
            c.link_verdict(123, NodeId(1), NodeId(2), &h, &p),
            LinkVerdict::CLEAN
        );
        assert!(!c.suppress_icmp(123, NodeId(1), &h, &p));
        assert!(!c.node_down(NodeId(1), 123));
    }

    #[test]
    fn node_outage_windows_are_half_open() {
        let mut c = LinkConditioner::new(0);
        c.add_node_outage(NodeId(5), OutageWindow::new(100, 200));
        assert!(!c.node_down(NodeId(5), 99));
        assert!(c.node_down(NodeId(5), 100));
        assert!(c.node_down(NodeId(5), 199));
        assert!(!c.node_down(NodeId(5), 200));
        assert!(!c.node_down(NodeId(6), 150));
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let c = LinkConditioner::new(21).with_loss_ppm(100_000); // 10%
        let (h, p) = header(1, 60);
        let mut lost = 0;
        let n: u64 = 20_000;
        for t in 0..n {
            if c.link_verdict(t, NodeId(1), NodeId(2), &h, &p) == LinkVerdict::Lost {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "got {rate}");
    }

    #[test]
    fn identity_ignores_payload_content_but_not_length() {
        // Payload bytes embed host-local counters (resolver upstream txids,
        // probe-origin query ids) that are shard-dependent; only the length
        // may influence fate.
        let c = LinkConditioner::new(7).with_loss_ppm(500_000);
        let (h, _) = header(1, 60);
        let same_len = |p: &[u8]| c.link_verdict(5, NodeId(1), NodeId(2), &h, p);
        assert_eq!(same_len(&[1, 2, 3, 4]), same_len(&[9, 9, 9, 9]));
        let lens: Vec<_> = (0..64usize)
            .map(|n| c.link_verdict(5, NodeId(1), NodeId(2), &h, &vec![0u8; n]))
            .collect();
        assert!(lens.contains(&LinkVerdict::Lost));
        assert!(lens.iter().any(|f| *f != LinkVerdict::Lost));
    }

    #[test]
    fn fractional_link_outage_downs_some_links_within_window() {
        let c = LinkConditioner::new(5).with_link_outage(500_000, OutageWindow::new(1_000, 2_000));
        let (h, p) = header(1, 60);
        let down_in_window = |a: u32, b: u32| {
            c.link_verdict(1_500, NodeId(a), NodeId(b), &h, &p) == LinkVerdict::OutageDrop
        };
        let downed: Vec<_> = (0..64u32).filter(|&i| down_in_window(i, i + 1)).collect();
        assert!(!downed.is_empty());
        assert!(downed.len() < 64);
        // Symmetric: both directions of a link share one fate.
        for &i in &downed {
            assert!(down_in_window(i + 1, i) || i + 1 > 64);
            assert_eq!(down_in_window(i, i + 1), down_in_window(i + 1, i));
        }
        // Outside the window everything flows.
        assert_eq!(
            c.link_verdict(2_000, NodeId(downed[0]), NodeId(downed[0] + 1), &h, &p),
            LinkVerdict::CLEAN
        );
    }

    #[test]
    fn fnv1a64_matches_known_vector() {
        // FNV-1a 64-bit of empty input is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }

    #[test]
    fn fraction_to_ppm_clamps() {
        assert_eq!(fraction_to_ppm(0.0), 0);
        assert_eq!(fraction_to_ppm(1.0), 1_000_000);
        assert_eq!(fraction_to_ppm(2.5), 1_000_000);
        assert_eq!(fraction_to_ppm(-1.0), 0);
        assert_eq!(fraction_to_ppm(0.001), 1_000);
    }
}
