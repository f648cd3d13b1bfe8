//! Decoy records and the registry a correlation sink resolves arrivals
//! against.
//!
//! A decoy describes itself: its domain is the §3 identifier of its send
//! time, VP, destination and TTL. The campaign plans keep only their sends
//! (Phase I in closed form, [`crate::campaign::Phase1Schedule`]; Phase II
//! as [`crate::campaign::PlannedSend`]s); each chunk indexes the decoys it
//! posts in a [`DecoyRegistry`] of its own, and chunk registries merge by
//! VP-disjoint union.

use crate::ident::DecoyIdent;
use serde::{Deserialize, Serialize};
use shadow_netsim::time::SimTime;
use shadow_packet::dns::DnsName;
use shadow_vantage::platform::VpId;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The protocol a decoy is sent over — the `Decoy` half of the paper's
/// `Decoy-Request` labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DecoyProtocol {
    Dns,
    Http,
    Tls,
}

impl DecoyProtocol {
    pub fn as_str(self) -> &'static str {
        match self {
            DecoyProtocol::Dns => "DNS",
            DecoyProtocol::Http => "HTTP",
            DecoyProtocol::Tls => "TLS",
        }
    }

    /// The journal's one-byte form of [`Self::as_str`].
    pub fn journal_label(self) -> shadow_telemetry::Label {
        match self {
            DecoyProtocol::Dns => shadow_telemetry::Label::Dns,
            DecoyProtocol::Http => shadow_telemetry::Label::Http,
            DecoyProtocol::Tls => shadow_telemetry::Label::Tls,
        }
    }
}

/// One generated decoy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecoyRecord {
    pub domain: DnsName,
    pub dst: Ipv4Addr,
    /// Initial IP TTL (64 in Phase I; the swept TTL in Phase II).
    pub ttl: u8,
    pub protocol: DecoyProtocol,
    pub vp: VpId,
    /// Scheduled emission time.
    pub planned_at: SimTime,
}

impl DecoyRecord {
    /// The decoy `vp` (at `vp_addr`) sends to `dst` over `protocol` with
    /// initial TTL `ttl` at `planned_at`, named under `zone` by its
    /// identifier.
    pub(crate) fn new(
        zone: &DnsName,
        vp: VpId,
        vp_addr: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: DecoyProtocol,
        ttl: u8,
        planned_at: SimTime,
    ) -> Self {
        let ident = DecoyIdent::at(planned_at, vp_addr, dst, ttl);
        let mut label_buf = [0u8; DecoyIdent::LABEL_LEN];
        let label = ident.encode_to(&mut label_buf);
        let domain = zone.prepend(label).expect("identifier labels are DNS-safe");
        Self {
            domain,
            dst,
            ttl,
            protocol,
            vp,
            planned_at,
        }
    }
}

/// Decoys indexed by domain: a correlation sink resolves each honeypot
/// arrival against this to recover the triggering decoy.
///
/// Records live in an insertion-order vector with a domain → index map on
/// the side, so iteration walks the vector with no hashing and the map
/// entries stay small.
#[derive(Debug, Clone, Default)]
pub struct DecoyRegistry {
    zone: Option<DnsName>,
    by_domain: HashMap<DnsName, u32>,
    records: Vec<DecoyRecord>,
}

impl DecoyRegistry {
    pub fn new(zone: DnsName) -> Self {
        Self {
            zone: Some(zone),
            by_domain: HashMap::new(),
            records: Vec::new(),
        }
    }

    pub fn zone(&self) -> &DnsName {
        self.zone.as_ref().expect("registry built with a zone")
    }

    /// Build and insert the decoy for `(vp, dst, protocol, ttl)` planned at
    /// `planned_at`, named under the registry's zone. Returns the record.
    /// Panics if that domain is already registered.
    pub fn register(
        &mut self,
        vp: VpId,
        vp_addr: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: DecoyProtocol,
        ttl: u8,
        planned_at: SimTime,
    ) -> DecoyRecord {
        let record = DecoyRecord::new(self.zone(), vp, vp_addr, dst, protocol, ttl, planned_at);
        self.insert(record.clone());
        record
    }

    /// Index `record` under its domain.
    ///
    /// # Panics
    ///
    /// If the domain is already registered. Identifiers are unique by
    /// construction; a repeat would re-point [`lookup`](Self::lookup) at
    /// the newer record while [`len`](Self::len) counted both, crediting
    /// the older decoy's arrivals to the newer one.
    pub(crate) fn insert(&mut self, record: DecoyRecord) {
        let previous = self
            .by_domain
            .insert(record.domain.clone(), self.records.len() as u32);
        assert!(
            previous.is_none(),
            "decoy domains must be unique: {} reused",
            record.domain
        );
        self.records.push(record);
    }

    pub fn lookup(&self, domain: &DnsName) -> Option<&DecoyRecord> {
        self.by_domain
            .get(domain)
            .map(|&i| &self.records[i as usize])
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &DecoyRecord> {
        self.records.iter()
    }

    /// Count decoys per protocol (the paper reports 46.6M DNS / 1.69G HTTP
    /// / 1.69G TLS; we report our scaled-down equivalents).
    pub fn counts(&self) -> HashMap<DecoyProtocol, usize> {
        let mut counts = HashMap::new();
        for record in self.iter() {
            *counts.entry(record.protocol).or_insert(0) += 1;
        }
        counts
    }

    /// Append another registry's records in its order. Merged registries
    /// are disjoint (chunk registries by VP): like
    /// [`register`](Self::register), this panics on a repeated domain.
    pub fn absorb(&mut self, other: DecoyRegistry) {
        for record in other.records {
            self.insert(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_labels_render_as_str() {
        for protocol in [DecoyProtocol::Dns, DecoyProtocol::Http, DecoyProtocol::Tls] {
            assert_eq!(protocol.journal_label().as_str(), protocol.as_str());
        }
    }

    fn zone() -> DnsName {
        DnsName::parse("www.experiment.example").unwrap()
    }

    fn vp_addr() -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, 9)
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = DecoyRegistry::new(zone());
        let rec = reg.register(
            VpId(1),
            vp_addr(),
            Ipv4Addr::new(8, 8, 8, 8),
            DecoyProtocol::Dns,
            64,
            SimTime(5_000),
        );
        assert!(rec.domain.is_subdomain_of(&zone()));
        let found = reg.lookup(&rec.domain).unwrap();
        assert_eq!(found, &rec);
        assert_eq!(found.dst, Ipv4Addr::new(8, 8, 8, 8));
        assert_eq!(found.ttl, 64);
    }

    #[test]
    fn domains_unique_across_protocols_and_times() {
        let mut reg = DecoyRegistry::new(zone());
        // Same vp/dst/ttl but different seconds → distinct domains.
        let a = reg.register(
            VpId(1),
            vp_addr(),
            Ipv4Addr::new(1, 1, 1, 1),
            DecoyProtocol::Dns,
            64,
            SimTime(1_000),
        );
        let b = reg.register(
            VpId(1),
            vp_addr(),
            Ipv4Addr::new(1, 1, 1, 1),
            DecoyProtocol::Http,
            64,
            SimTime(2_000),
        );
        assert_ne!(a.domain, b.domain);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn counts_by_protocol() {
        let mut reg = DecoyRegistry::new(zone());
        for (i, proto) in [DecoyProtocol::Dns, DecoyProtocol::Dns, DecoyProtocol::Tls]
            .into_iter()
            .enumerate()
        {
            reg.register(
                VpId(1),
                vp_addr(),
                Ipv4Addr::new(1, 1, 1, 1),
                proto,
                64,
                SimTime(1_000 * (i as u64 + 1)),
            );
        }
        let counts = reg.counts();
        assert_eq!(counts[&DecoyProtocol::Dns], 2);
        assert_eq!(counts[&DecoyProtocol::Tls], 1);
        assert!(!counts.contains_key(&DecoyProtocol::Http));
    }

    #[test]
    fn absorb_merges_without_duplicates() {
        let mut a = DecoyRegistry::new(zone());
        let rec = a.register(
            VpId(1),
            vp_addr(),
            Ipv4Addr::new(1, 1, 1, 1),
            DecoyProtocol::Dns,
            64,
            SimTime(1_000),
        );
        let mut b = DecoyRegistry::new(zone());
        b.register(
            VpId(2),
            vp_addr(),
            Ipv4Addr::new(2, 2, 2, 2),
            DecoyProtocol::Tls,
            7,
            SimTime(3_000),
        );
        let b_len = b.len();
        a.absorb(b);
        assert_eq!(a.len(), 1 + b_len);
        assert!(a.lookup(&rec.domain).is_some());
    }

    #[test]
    #[should_panic(expected = "decoy domains must be unique")]
    fn absorb_rejects_a_duplicate_domain() {
        let send = |reg: &mut DecoyRegistry| {
            reg.register(
                VpId(1),
                vp_addr(),
                Ipv4Addr::new(1, 1, 1, 1),
                DecoyProtocol::Dns,
                64,
                SimTime(1_000),
            )
        };
        let mut a = DecoyRegistry::new(zone());
        send(&mut a);
        let mut b = DecoyRegistry::new(zone());
        send(&mut b);
        a.absorb(b);
    }

    #[test]
    fn identifier_recovers_send_metadata() {
        let mut reg = DecoyRegistry::new(zone());
        let rec = reg.register(
            VpId(3),
            vp_addr(),
            Ipv4Addr::new(114, 114, 114, 114),
            DecoyProtocol::Dns,
            17,
            SimTime(90_000),
        );
        let decoded = crate::ident::DecoyIdent::from_domain(&rec.domain).unwrap();
        assert_eq!(decoded.sent_time(), SimTime(90_000));
        assert_eq!(decoded.vp, vp_addr());
        assert_eq!(decoded.dst, Ipv4Addr::new(114, 114, 114, 114));
        assert_eq!(decoded.ttl, 17);
    }
}
