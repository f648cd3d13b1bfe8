//! The geolocation / IP-intelligence database: the simulated stand-in for
//! ip-api and IPinfo, which the paper queries to geolocate vantage points
//! and label their networks as hosting (Appendix C).

use crate::asn::{AsCatalog, AsInfo, AsKind, Asn};
use crate::country::CountryCode;
use serde::{Content, DeError, Deserialize, Serialize};
use shadow_topo::IpLookupTable;
use std::fmt;
use std::net::Ipv4Addr;

/// An IPv4 prefix (`base/len`) with the base address canonicalized (host
/// bits zeroed is *required* at construction).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ipv4Prefix {
    base: u32,
    len: u8,
}

/// Error constructing a prefix whose base has host bits set or whose length
/// exceeds 32.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidPrefix {
    pub base: Ipv4Addr,
    pub len: u8,
}

impl fmt::Display for InvalidPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix {}/{}", self.base, self.len)
    }
}

impl std::error::Error for InvalidPrefix {}

impl Ipv4Prefix {
    pub fn new(base: Ipv4Addr, len: u8) -> Result<Self, InvalidPrefix> {
        let base_u32 = u32::from(base);
        if len > 32 || base_u32 & !Self::mask_for(len) != 0 {
            return Err(InvalidPrefix { base, len });
        }
        Ok(Self {
            base: base_u32,
            len,
        })
    }

    /// Build the covering prefix of `addr` at length `len` (host bits zeroed).
    pub fn containing(addr: Ipv4Addr, len: u8) -> Self {
        let len = len.min(32);
        Self {
            base: u32::from(addr) & Self::mask_for(len),
            len,
        }
    }

    fn mask_for(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    pub fn base(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.base)
    }

    pub fn base_u32(&self) -> u32 {
        self.base
    }

    /// The prefix length in bits (not a container length; a prefix is
    /// never "empty").
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & Self::mask_for(self.len) == self.base
    }

    pub fn overlaps(&self, other: &Ipv4Prefix) -> bool {
        let l = self.len.min(other.len);
        self.base & Self::mask_for(l) == other.base & Self::mask_for(l)
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// The `i`-th host address inside the prefix (0-based, may be the base).
    pub fn host(&self, i: u32) -> Option<Ipv4Addr> {
        if u64::from(i) >= self.size() {
            return None;
        }
        Some(Ipv4Addr::from(self.base + i))
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base(), self.len)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base(), self.len)
    }
}

/// What an IP-intelligence database says about an address's network type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostingLabel {
    /// Datacenter / hosting network (the label 96% of the paper's global VP
    /// ASes carried in IPinfo).
    Hosting,
    /// Residential / eyeball network.
    Residential,
}

/// One routed entry in the database.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeoRecord {
    pub prefix: Ipv4Prefix,
    pub asn: Asn,
    pub country: CountryCode,
    pub hosting: HostingLabel,
}

/// Longest-prefix-match lookup database over all routed prefixes in the
/// simulated world. The stand-in for ip-api / IPinfo.
///
/// A facade over [`shadow_topo::IpLookupTable`]: every `insert` updates
/// the bitmap trie immediately, so the db is correct after each insert.
#[derive(Debug, Clone, Default)]
pub struct GeoDb {
    /// All inserted records in insertion order (duplicates included, so
    /// `len`/`iter` report exactly what was registered).
    records: Vec<GeoRecord>,
    /// Prefix → index of the authoritative record in `records` (on
    /// duplicate (base, len) inserts the latest wins, matching the old
    /// backward-scan tie-break).
    table: IpLookupTable<u32>,
}

impl Serialize for GeoDb {
    fn serialize_content(&self) -> Content {
        // Only the records travel; the trie is derived state.
        Content::Struct(vec![("records", self.records.serialize_content())])
    }
}

impl Deserialize for GeoDb {
    fn deserialize_content(content: &Content) -> Result<Self, DeError> {
        let records: Vec<GeoRecord> =
            Deserialize::deserialize_content(content.get_field("records"))?;
        // Rebuilding through insert re-derives the trie, so a deserialized
        // db is as correct-by-construction as a hand-built one.
        let mut db = Self::new();
        for record in records {
            db.insert(record);
        }
        Ok(db)
    }
}

impl GeoDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a routed prefix. Later lookups prefer the longest match;
    /// re-registering the same prefix replaces its record.
    pub fn insert(&mut self, record: GeoRecord) {
        let idx = self.records.len() as u32;
        self.table
            .insert(record.prefix.base(), u32::from(record.prefix.len()), idx);
        self.records.push(record);
    }

    /// Register a prefix for an AS, deriving country and hosting label from
    /// the AS catalog entry.
    pub fn insert_for_as(&mut self, prefix: Ipv4Prefix, info: &AsInfo) {
        self.insert(GeoRecord {
            prefix,
            asn: info.asn,
            country: info.country,
            hosting: if info.kind.hosting_label() {
                HostingLabel::Hosting
            } else {
                HostingLabel::Residential
            },
        });
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&GeoRecord> {
        self.table
            .longest_match_value(addr)
            .map(|&idx| &self.records[idx as usize])
    }

    /// A sorted-scan reference index over this db's records, implementing
    /// the pre-trie lookup algorithm. Kept for the LPM equivalence tests
    /// and as the microbenchmark baseline.
    pub fn scan_index(&self) -> GeoScanIndex<'_> {
        let mut order: Vec<u32> = (0..self.records.len() as u32).collect();
        // Stable sort: equal (base, len) keeps insertion order, and the
        // backward scan prefers the later (latest-inserted) record.
        order.sort_by_key(|&i| {
            let p = &self.records[i as usize].prefix;
            (p.base_u32(), p.len())
        });
        GeoScanIndex { db: self, order }
    }

    /// The AS a routed address belongs to.
    pub fn asn_of(&self, addr: Ipv4Addr) -> Option<Asn> {
        self.lookup(addr).map(|r| r.asn)
    }

    /// The country a routed address geolocates to.
    pub fn country_of(&self, addr: Ipv4Addr) -> Option<CountryCode> {
        self.lookup(addr).map(|r| r.country)
    }

    /// The hosting/residential label (IPinfo-style) for an address.
    pub fn hosting_of(&self, addr: Ipv4Addr) -> Option<HostingLabel> {
        self.lookup(addr).map(|r| r.hosting)
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &GeoRecord> {
        self.records.iter()
    }
}

/// The pre-trie `GeoDb` lookup: a binary-search-anchored backward scan
/// over (base, len)-sorted records, bounded by the widest allocation the
/// simulated world hands out (/8). Exists only as a reference — the LPM
/// equivalence tests check the trie against it on the standard world, and
/// the `lpm_lookup` bench uses it as the baseline.
pub struct GeoScanIndex<'a> {
    db: &'a GeoDb,
    /// Record indexes sorted by (base, len), ties in insertion order.
    order: Vec<u32>,
}

impl GeoScanIndex<'_> {
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&GeoRecord> {
        let key = u32::from(addr);
        // First record with base > addr; every candidate containing addr
        // has base <= addr, so scan backwards keeping the longest match,
        // stopping once even a /8 starting at base could not reach addr.
        let idx = self
            .order
            .partition_point(|&i| self.db.records[i as usize].prefix.base_u32() <= key);
        let mut best: Option<&GeoRecord> = None;
        for &i in self.order[..idx].iter().rev() {
            let r = &self.db.records[i as usize];
            if r.prefix.contains(addr) {
                match best {
                    Some(b) if b.prefix.len() >= r.prefix.len() => {}
                    _ => best = Some(r),
                }
            }
            if r.prefix.base_u32().saturating_add(0x0100_0000) <= key {
                break;
            }
        }
        best
    }
}

/// Convenience: full AS info for an address, resolving through a catalog.
pub fn as_info_of<'a>(db: &GeoDb, catalog: &'a AsCatalog, addr: Ipv4Addr) -> Option<&'a AsInfo> {
    db.asn_of(addr).and_then(|asn| catalog.get(asn))
}

/// Convenience for building a record without a catalog entry at hand.
pub fn record(prefix: Ipv4Prefix, asn: Asn, country: CountryCode, kind: AsKind) -> GeoRecord {
    GeoRecord {
        prefix,
        asn,
        country,
        hosting: if kind.hosting_label() {
            HostingLabel::Hosting
        } else {
            HostingLabel::Residential
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::country::cc;

    fn p(s: &str, len: u8) -> Ipv4Prefix {
        Ipv4Prefix::new(s.parse().unwrap(), len).unwrap()
    }

    #[test]
    fn prefix_rejects_host_bits() {
        assert!(Ipv4Prefix::new(Ipv4Addr::new(1, 2, 3, 4), 16).is_err());
        assert!(Ipv4Prefix::new(Ipv4Addr::new(1, 2, 0, 0), 16).is_ok());
        assert!(Ipv4Prefix::new(Ipv4Addr::new(1, 2, 0, 0), 33).is_err());
    }

    #[test]
    fn prefix_contains() {
        let pre = p("10.1.0.0", 16);
        assert!(pre.contains(Ipv4Addr::new(10, 1, 200, 3)));
        assert!(!pre.contains(Ipv4Addr::new(10, 2, 0, 0)));
    }

    #[test]
    fn containing_zeroes_host_bits() {
        let pre = Ipv4Prefix::containing(Ipv4Addr::new(8, 8, 8, 8), 24);
        assert_eq!(pre.base(), Ipv4Addr::new(8, 8, 8, 0));
        assert!(pre.contains(Ipv4Addr::new(8, 8, 8, 8)));
    }

    #[test]
    fn longest_prefix_wins() {
        let mut db = GeoDb::new();
        db.insert(record(
            p("8.0.0.0", 8),
            Asn(1),
            cc("US"),
            AsKind::IspBackbone,
        ));
        db.insert(record(
            p("8.8.8.0", 24),
            Asn(15169),
            cc("US"),
            AsKind::ResolverOperator,
        ));
        assert_eq!(db.asn_of(Ipv4Addr::new(8, 8, 8, 8)), Some(Asn(15169)));
        assert_eq!(db.asn_of(Ipv4Addr::new(8, 9, 0, 1)), Some(Asn(1)));
    }

    #[test]
    fn miss_returns_none() {
        let mut db = GeoDb::new();
        db.insert(record(p("9.0.0.0", 8), Asn(2), cc("DE"), AsKind::Cloud));
        assert_eq!(db.lookup(Ipv4Addr::new(11, 0, 0, 1)), None);
    }

    #[test]
    fn hosting_label_propagates() {
        let mut db = GeoDb::new();
        db.insert(record(p("5.0.0.0", 16), Asn(3), cc("NL"), AsKind::Cloud));
        db.insert(record(
            p("5.1.0.0", 16),
            Asn(4),
            cc("NL"),
            AsKind::IspRegional,
        ));
        assert_eq!(
            db.hosting_of(Ipv4Addr::new(5, 0, 3, 3)),
            Some(HostingLabel::Hosting)
        );
        assert_eq!(
            db.hosting_of(Ipv4Addr::new(5, 1, 3, 3)),
            Some(HostingLabel::Residential)
        );
    }

    #[test]
    fn host_indexing() {
        let pre = p("192.0.2.0", 30);
        assert_eq!(pre.size(), 4);
        assert_eq!(pre.host(0), Some(Ipv4Addr::new(192, 0, 2, 0)));
        assert_eq!(pre.host(3), Some(Ipv4Addr::new(192, 0, 2, 3)));
        assert_eq!(pre.host(4), None);
    }

    #[test]
    fn lookup_is_correct_right_after_unordered_inserts() {
        // Inserts maintain the trie, so prefixes registered out of order
        // resolve immediately.
        let mut db = GeoDb::new();
        db.insert(record(p("9.0.0.0", 8), Asn(2), cc("DE"), AsKind::Cloud));
        db.insert(record(p("8.0.0.0", 8), Asn(1), cc("US"), AsKind::Cloud));
        db.insert(record(
            p("8.8.0.0", 16),
            Asn(15169),
            cc("US"),
            AsKind::ResolverOperator,
        ));
        assert_eq!(db.asn_of(Ipv4Addr::new(8, 8, 1, 1)), Some(Asn(15169)));
        assert_eq!(db.asn_of(Ipv4Addr::new(9, 1, 1, 1)), Some(Asn(2)));
    }

    #[test]
    fn duplicate_prefix_latest_record_wins() {
        let mut db = GeoDb::new();
        db.insert(record(p("7.0.0.0", 8), Asn(1), cc("US"), AsKind::Cloud));
        db.insert(record(p("7.0.0.0", 8), Asn(2), cc("DE"), AsKind::Cloud));
        assert_eq!(db.len(), 2); // both registrations are retained
        assert_eq!(db.asn_of(Ipv4Addr::new(7, 1, 1, 1)), Some(Asn(2)));
        let scan = db.scan_index();
        assert_eq!(scan.lookup(Ipv4Addr::new(7, 1, 1, 1)).unwrap().asn, Asn(2));
    }

    #[test]
    fn serde_round_trip_rebuilds_the_trie() {
        let mut db = GeoDb::new();
        db.insert(record(p("8.0.0.0", 8), Asn(1), cc("US"), AsKind::Cloud));
        db.insert(record(
            p("8.8.0.0", 16),
            Asn(15169),
            cc("US"),
            AsKind::ResolverOperator,
        ));
        let back = GeoDb::deserialize_content(&db.serialize_content()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.asn_of(Ipv4Addr::new(8, 8, 1, 1)), Some(Asn(15169)));
        assert_eq!(back.asn_of(Ipv4Addr::new(8, 1, 1, 1)), Some(Asn(1)));
    }

    #[test]
    fn trie_lookup_agrees_with_scan_reference() {
        let mut db = GeoDb::new();
        for i in 0..64u32 {
            let base = Ipv4Addr::from(((i % 16) + 1) << 24);
            db.insert(record(
                Ipv4Prefix::new(base, 8).unwrap(),
                Asn(i + 1),
                cc("US"),
                AsKind::Enterprise,
            ));
            let sub = Ipv4Addr::from((((i % 16) + 1) << 24) | ((i / 16) << 16));
            db.insert(record(
                Ipv4Prefix::new(sub, 16).unwrap(),
                Asn(1000 + i),
                cc("DE"),
                AsKind::Cloud,
            ));
        }
        let scan = db.scan_index();
        for a in 0..18u32 {
            for b in [0u32, 1, 3, 200] {
                let addr = Ipv4Addr::from((a << 24) | (b << 16) | 0x0101);
                assert_eq!(
                    db.lookup(addr).map(|r| (r.prefix, r.asn)),
                    scan.lookup(addr).map(|r| (r.prefix, r.asn)),
                    "disagreement at {addr}"
                );
            }
        }
    }

    #[test]
    fn lookup_with_many_prefixes() {
        let mut db = GeoDb::new();
        for i in 0..255u32 {
            let base = Ipv4Addr::from((i + 1) << 24);
            db.insert(record(
                Ipv4Prefix::new(base, 8).unwrap(),
                Asn(i + 1),
                cc("US"),
                AsKind::Enterprise,
            ));
        }
        assert_eq!(db.asn_of(Ipv4Addr::new(42, 1, 2, 3)), Some(Asn(42)));
        assert_eq!(db.asn_of(Ipv4Addr::new(200, 0, 0, 1)), Some(Asn(200)));
    }
}
