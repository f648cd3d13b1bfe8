//! Name-blind fallback classification for encrypted flows.
//!
//! When every name field is sealed (DoT/DoH/DoQ frames, ECH hellos), a wire
//! observer still sees the IP header and the payload size. Real-world DPI
//! falls back to exactly that: a fingerprint table of known service
//! endpoints keyed by destination address, gated on whether the flow's size
//! is plausible for the protocol class. This module models that fallback.
//!
//! The classifier is deliberately **stateless per packet** — a pure
//! function of `(destination, payload length)` and the immutable table —
//! so its counts are identical for any shard count and chunk shape
//! (no cross-flow state to diverge when traffic is partitioned).
//!
//! Classified names feed telemetry and the journal only. They never enter
//! the probe scheduler: an IP-level guess is not a name the observer can
//! replay, which is precisely the recall cliff the §6 ablation measures.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Smallest IP payload that can carry a sealed frame worth classifying:
/// 8 B UDP header + 8 B frame header (magic + nonce) + a 12 B DNS header.
pub const MIN_FLOW_LEN: usize = 28;

/// Largest flow the fingerprinter will attribute. Encrypted decoys are
/// single-datagram or single-hello flows; anything larger is bulk transfer
/// the fallback has no signature for.
pub const MAX_FLOW_LEN: usize = 4096;

/// An immutable destination-IP → service-name table.
///
/// Built once at world-construction time from ground truth the operator of
/// a real DPI box would also have: published resolver addresses and the
/// addresses popular sites resolve to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FingerprintDb {
    map: BTreeMap<Ipv4Addr, String>,
}

impl FingerprintDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a known endpoint. Last write wins, matching how a curated
    /// fingerprint feed would be refreshed.
    pub fn insert(&mut self, addr: Ipv4Addr, service: impl Into<String>) {
        self.map.insert(addr, service.into());
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Attribute an encrypted flow by destination + size window. Returns
    /// the service name, or `None` when the destination is unknown or the
    /// size is outside the plausible single-flow window.
    pub fn classify(&self, dst: Ipv4Addr, payload_len: usize) -> Option<&str> {
        if !(MIN_FLOW_LEN..=MAX_FLOW_LEN).contains(&payload_len) {
            return None;
        }
        self.map.get(&dst).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_known_destination_inside_size_window() {
        let mut db = FingerprintDb::new();
        db.insert(Ipv4Addr::new(9, 9, 9, 9), "Quad9");
        assert_eq!(db.classify(Ipv4Addr::new(9, 9, 9, 9), 64), Some("Quad9"));
    }

    #[test]
    fn unknown_destination_is_unclassified() {
        let mut db = FingerprintDb::new();
        db.insert(Ipv4Addr::new(9, 9, 9, 9), "Quad9");
        assert_eq!(db.classify(Ipv4Addr::new(8, 8, 8, 8), 64), None);
    }

    #[test]
    fn size_window_gates_attribution() {
        let mut db = FingerprintDb::new();
        let dst = Ipv4Addr::new(9, 9, 9, 9);
        db.insert(dst, "Quad9");
        assert_eq!(db.classify(dst, MIN_FLOW_LEN - 1), None, "too small");
        assert_eq!(db.classify(dst, MAX_FLOW_LEN + 1), None, "too large");
        assert!(db.classify(dst, MIN_FLOW_LEN).is_some());
        assert!(db.classify(dst, MAX_FLOW_LEN).is_some());
    }

    #[test]
    fn classification_is_stateless() {
        // The same (dst, len) query answers identically no matter how many
        // other flows were classified in between — the property sharded
        // world-counter invariance rests on.
        let mut db = FingerprintDb::new();
        let dst = Ipv4Addr::new(1, 2, 3, 4);
        db.insert(dst, "site");
        let first = db.classify(dst, 100).map(str::to_string);
        for i in 0..50 {
            db.classify(Ipv4Addr::new(10, 0, 0, i), 100);
        }
        assert_eq!(db.classify(dst, 100).map(str::to_string), first);
    }
}
