//! Recruitment, vetting, and the Table-1 capability summary.
//!
//! The builder recruits VPs from provider catalogs, applies the paper's
//! vetting pipeline — datacenter check against the IP-intel database
//! (Appendix C) and the TTL-rewrite pre-flight (Appendix E) — and produces
//! the platform the campaign drives.

use crate::providers::{Market, VpnProvider};
use serde::{Deserialize, Serialize};
use shadow_geo::{CountryCode, GeoDb, HostingLabel};
use shadow_netsim::topology::NodeId;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Opaque VP identifier (index into the platform's VP list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VpId(pub u32);

/// One recruited vantage point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VantagePoint {
    pub id: VpId,
    pub provider: &'static str,
    pub market: Market,
    pub node: NodeId,
    pub addr: Ipv4Addr,
    /// Country from the provider's marketing material — possibly wrong
    /// ("we do not use VP locations advertised by VPN providers").
    pub advertised_country: CountryCode,
    /// Country from true-address discovery + IP database lookup.
    pub country: CountryCode,
    /// Ground-truth defect flags carried for vetting tests.
    pub ttl_rewrite: Option<u8>,
    pub residential: bool,
}

/// Why a VP (or provider) was excluded during vetting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExclusionReason {
    TtlRewrite,
    Residential,
    DnsInterceptionOnPath,
}

/// The assembled platform.
#[derive(Debug, Clone, Default)]
pub struct Platform {
    pub vps: Vec<VantagePoint>,
    pub excluded: Vec<(VpId, ExclusionReason)>,
}

/// One row of the Table-1 summary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlatformSummary {
    pub market: &'static str,
    pub providers: usize,
    pub vps: usize,
    pub ases: usize,
    pub countries: usize,
}

impl Platform {
    pub fn new(vps: Vec<VantagePoint>) -> Self {
        Self {
            vps,
            excluded: Vec::new(),
        }
    }

    /// Appendix C vetting: drop VPs whose addresses the IP-intel database
    /// labels residential. (The paper: 71/74 global ASes labeled
    /// "hosting"; residential providers are not integrated.)
    pub fn vet_residential(&mut self, geo: &GeoDb) {
        let mut kept = Vec::with_capacity(self.vps.len());
        for vp in self.vps.drain(..) {
            match geo.hosting_of(vp.addr) {
                Some(HostingLabel::Residential) => {
                    self.excluded.push((vp.id, ExclusionReason::Residential));
                }
                _ => kept.push(vp),
            }
        }
        self.vps = kept;
    }

    /// Appendix E pre-flight: given per-VP measured TTL deltas from the
    /// control-server check (`observed_delta` = arrival-TTL difference for
    /// two probes sent with initial TTLs differing by `expected_delta`),
    /// drop VPs whose egress rewrites TTLs.
    pub fn vet_ttl_rewrite(&mut self, measured: &[(VpId, i32)], expected_delta: i32) {
        let mut kept = Vec::with_capacity(self.vps.len());
        for vp in self.vps.drain(..) {
            let delta = measured
                .iter()
                .find(|(id, _)| *id == vp.id)
                .map(|&(_, d)| d);
            match delta {
                Some(d) if d != expected_delta => {
                    self.excluded.push((vp.id, ExclusionReason::TtlRewrite));
                }
                _ => kept.push(vp),
            }
        }
        self.vps = kept;
    }

    /// Drop VPs the pair-resolver test found behind DNS interception
    /// (Appendix E: "already removed from VPs counted in Table 1").
    pub fn exclude_intercepted(&mut self, intercepted: &BTreeSet<VpId>) {
        let mut kept = Vec::with_capacity(self.vps.len());
        for vp in self.vps.drain(..) {
            if intercepted.contains(&vp.id) {
                self.excluded
                    .push((vp.id, ExclusionReason::DnsInterceptionOnPath));
            } else {
                kept.push(vp);
            }
        }
        self.vps = kept;
    }

    pub fn get(&self, id: VpId) -> Option<&VantagePoint> {
        self.vps.iter().find(|vp| vp.id == id)
    }

    pub fn in_market(&self, market: Market) -> impl Iterator<Item = &VantagePoint> {
        self.vps.iter().filter(move |vp| vp.market == market)
    }

    /// The Table-1 rows: per-market provider/VP/AS/country counts, plus the
    /// total row. AS counts come from the IP database, as in the paper.
    pub fn table1(&self, geo: &GeoDb) -> Vec<PlatformSummary> {
        let mut rows = Vec::new();
        let market_row = |label: &'static str, vps: Vec<&VantagePoint>| {
            let providers: BTreeSet<_> = vps.iter().map(|vp| vp.provider).collect();
            let ases: BTreeSet<_> = vps.iter().filter_map(|vp| geo.asn_of(vp.addr)).collect();
            let countries: BTreeSet<_> = vps.iter().map(|vp| vp.country).collect();
            PlatformSummary {
                market: label,
                providers: providers.len(),
                vps: vps.len(),
                ases: ases.len(),
                countries: countries.len(),
            }
        };
        rows.push(market_row(
            "Global (excl. CN)",
            self.in_market(Market::Global).collect(),
        ));
        rows.push(market_row(
            "China (CN mainland)",
            self.in_market(Market::China).collect(),
        ));
        rows.push(market_row("Total", self.vps.iter().collect()));
        rows
    }
}

/// Helper used by world builders: pick an advertised country that is
/// sometimes wrong (the paper distrusts advertised locations because "they
/// may be skewed").
pub fn advertised_country(
    true_country: CountryCode,
    provider: &VpnProvider,
    skew: bool,
) -> CountryCode {
    if skew && provider.market == Market::Global {
        // A common skew: advertising an exotic location served from a hub.
        shadow_geo::country::cc("PA")
    } else {
        true_country
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_geo::country::cc;
    use shadow_geo::{Asn, GeoRecord, Ipv4Prefix};

    fn vp(id: u32, market: Market, addr: [u8; 4], country: &str) -> VantagePoint {
        VantagePoint {
            id: VpId(id),
            provider: if market == Market::Global {
                "PureVPN"
            } else {
                "QiXun"
            },
            market,
            node: NodeId(id),
            addr: Ipv4Addr::new(addr[0], addr[1], addr[2], addr[3]),
            advertised_country: cc(country),
            country: cc(country),
            ttl_rewrite: None,
            residential: false,
        }
    }

    fn geo_with(prefix: [u8; 4], len: u8, asn: u32, hosting: bool) -> GeoDb {
        let mut db = GeoDb::new();
        db.insert(GeoRecord {
            prefix: Ipv4Prefix::new(
                Ipv4Addr::new(prefix[0], prefix[1], prefix[2], prefix[3]),
                len,
            )
            .unwrap(),
            asn: Asn(asn),
            country: cc("US"),
            hosting: if hosting {
                shadow_geo::HostingLabel::Hosting
            } else {
                shadow_geo::HostingLabel::Residential
            },
        });
        db
    }

    #[test]
    fn residential_vetting_drops_flagged_vps() {
        let mut platform = Platform::new(vec![
            vp(1, Market::Global, [5, 0, 0, 1], "US"),
            vp(2, Market::Global, [6, 0, 0, 1], "US"),
        ]);
        let mut geo = geo_with([5, 0, 0, 0], 8, 100, true);
        geo.insert(GeoRecord {
            prefix: Ipv4Prefix::new(Ipv4Addr::new(6, 0, 0, 0), 8).unwrap(),
            asn: Asn(200),
            country: cc("US"),
            hosting: shadow_geo::HostingLabel::Residential,
        });
        platform.vet_residential(&geo);
        assert_eq!(platform.vps.len(), 1);
        assert_eq!(platform.vps[0].id, VpId(1));
        assert_eq!(
            platform.excluded,
            vec![(VpId(2), ExclusionReason::Residential)]
        );
    }

    #[test]
    fn ttl_vetting_uses_measured_deltas() {
        let mut platform = Platform::new(vec![
            vp(1, Market::Global, [5, 0, 0, 1], "US"),
            vp(2, Market::Global, [5, 0, 0, 2], "US"),
            vp(3, Market::Global, [5, 0, 0, 3], "US"),
        ]);
        // VP2's egress rewrote TTLs: both probes arrived with equal TTL.
        let measured = vec![(VpId(1), 50), (VpId(2), 0), (VpId(3), 50)];
        platform.vet_ttl_rewrite(&measured, 50);
        assert_eq!(platform.vps.len(), 2);
        assert_eq!(
            platform.excluded,
            vec![(VpId(2), ExclusionReason::TtlRewrite)]
        );
    }

    #[test]
    fn interception_exclusion() {
        let mut platform = Platform::new(vec![
            vp(1, Market::China, [5, 0, 0, 1], "CN"),
            vp(2, Market::China, [5, 0, 0, 2], "CN"),
        ]);
        let intercepted: BTreeSet<_> = [VpId(1)].into();
        platform.exclude_intercepted(&intercepted);
        assert_eq!(platform.vps.len(), 1);
        assert_eq!(platform.vps[0].id, VpId(2));
    }

    #[test]
    fn table1_counts_by_market() {
        let platform = Platform::new(vec![
            vp(1, Market::Global, [5, 0, 0, 1], "US"),
            vp(2, Market::Global, [5, 0, 1, 1], "DE"),
            vp(3, Market::China, [5, 0, 2, 1], "CN"),
        ]);
        let geo = geo_with([5, 0, 0, 0], 8, 100, true);
        let rows = platform.table1(&geo);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].market, "Global (excl. CN)");
        assert_eq!(rows[0].vps, 2);
        assert_eq!(rows[0].countries, 2);
        assert_eq!(rows[1].vps, 1);
        assert_eq!(rows[2].market, "Total");
        assert_eq!(rows[2].vps, 3);
        assert_eq!(rows[2].countries, 3);
        assert_eq!(rows[2].ases, 1, "all in AS100 per the geo db");
    }
}
