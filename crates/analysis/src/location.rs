//! Tables 2 and 3: where on-path observers sit (normalized hops) and which
//! networks they belong to (ICMP-revealed addresses → ASes).

use serde::{Deserialize, Serialize};
use shadow_core::decoy::DecoyProtocol;
use shadow_core::phase2::TracerouteResult;
use shadow_geo::{AsCatalog, GeoDb};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Table 2: per protocol, the fraction of localized paths whose observer
/// sits at each normalized hop (1–10; 10 = destination).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObserverHopTable {
    /// (protocol, normalized hop) → count.
    pub counts: BTreeMap<(DecoyProtocol, u8), usize>,
}

impl ObserverHopTable {
    pub fn compute(results: &[TracerouteResult]) -> Self {
        let mut counts = BTreeMap::new();
        for r in results {
            if let Some(hop) = r.normalized_hop {
                *counts.entry((r.path.protocol, hop)).or_insert(0) += 1;
            }
        }
        Self { counts }
    }

    /// Percentage at one (protocol, hop) cell.
    pub fn percent(&self, protocol: DecoyProtocol, hop: u8) -> f64 {
        let total: usize = self
            .counts
            .iter()
            .filter(|((p, _), _)| *p == protocol)
            .map(|(_, c)| *c)
            .sum();
        if total == 0 {
            return 0.0;
        }
        let here = self.counts.get(&(protocol, hop)).copied().unwrap_or(0);
        here as f64 * 100.0 / total as f64
    }

    /// Percentage of observers at the destination (hop 10).
    pub fn at_destination_percent(&self, protocol: DecoyProtocol) -> f64 {
        self.percent(protocol, 10)
    }

    /// Percentage mid-path (hops 3..=7), the paper's "middle of the path".
    pub fn mid_path_percent(&self, protocol: DecoyProtocol) -> f64 {
        (3..=7).map(|h| self.percent(protocol, h)).sum()
    }

    pub fn localized_paths(&self, protocol: DecoyProtocol) -> usize {
        self.counts
            .iter()
            .filter(|((p, _), _)| *p == protocol)
            .map(|(_, c)| *c)
            .sum()
    }
}

/// One row of Table 3: an observer AS and the paths it observed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObserverAsRow {
    pub asn: u32,
    pub name: String,
    pub country: String,
    pub paths: usize,
    pub share: f64,
}

/// Summary over ICMP-revealed observer IPs (the "572 IP addresses ... most
/// located in CN (448, 79%)" finding plus Table 3).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObserverIpSummary {
    pub total_ips: usize,
    /// country → distinct observer IPs.
    pub by_country: BTreeMap<String, usize>,
    /// Table 3 rows per protocol, sorted by share.
    pub top_ases: BTreeMap<String, Vec<ObserverAsRow>>,
}

impl ObserverIpSummary {
    /// Aggregate observer addresses revealed by Phase II, attributing each
    /// localized path to its observer's AS. Only *on-path* observers count
    /// here (hop < destination), matching Table 3's framing.
    pub fn compute(results: &[TracerouteResult], geo: &GeoDb, catalog: &AsCatalog) -> Self {
        let mut ips: BTreeMap<Ipv4Addr, ()> = BTreeMap::new();
        let mut by_country: BTreeMap<String, usize> = BTreeMap::new();
        // (protocol, asn) → paths
        let mut paths_per_as: BTreeMap<(DecoyProtocol, u32), usize> = BTreeMap::new();
        for r in results {
            let Some(addr) = r.observer_addr else {
                continue;
            };
            if r.normalized_hop == Some(10) {
                // Observer at the destination: not an on-the-wire device.
                continue;
            }
            if ips.insert(addr, ()).is_none() {
                if let Some(country) = geo.country_of(addr) {
                    *by_country.entry(country.to_string()).or_insert(0) += 1;
                }
            }
            if let Some(asn) = geo.asn_of(addr) {
                *paths_per_as.entry((r.path.protocol, asn.0)).or_insert(0) += 1;
            }
        }
        let mut top_ases: BTreeMap<String, Vec<ObserverAsRow>> = BTreeMap::new();
        for protocol in [DecoyProtocol::Dns, DecoyProtocol::Http, DecoyProtocol::Tls] {
            let total: usize = paths_per_as
                .iter()
                .filter(|((p, _), _)| *p == protocol)
                .map(|(_, c)| *c)
                .sum();
            if total == 0 {
                continue;
            }
            let mut rows: Vec<ObserverAsRow> = paths_per_as
                .iter()
                .filter(|((p, _), _)| *p == protocol)
                .map(|(&(_, asn), &paths)| {
                    let info = catalog.get(shadow_geo::Asn(asn));
                    ObserverAsRow {
                        asn,
                        name: info.map(|i| i.name.clone()).unwrap_or_default(),
                        country: info.map(|i| i.country.to_string()).unwrap_or_default(),
                        paths,
                        share: paths as f64 / total as f64,
                    }
                })
                .collect();
            rows.sort_by(|a, b| b.paths.cmp(&a.paths).then(a.asn.cmp(&b.asn)));
            top_ases.insert(protocol.as_str().to_string(), rows);
        }
        Self {
            total_ips: ips.len(),
            by_country,
            top_ases,
        }
    }

    /// Fraction of observer IPs in one country.
    pub fn country_fraction(&self, country: &str) -> f64 {
        if self.total_ips == 0 {
            return 0.0;
        }
        self.by_country.get(country).copied().unwrap_or(0) as f64 / self.total_ips as f64
    }

    /// The top AS for a protocol, if any.
    pub fn top_as(&self, protocol: DecoyProtocol) -> Option<&ObserverAsRow> {
        self.top_ases
            .get(protocol.as_str())
            .and_then(|rows| rows.first())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_core::correlate::PathKey;
    use shadow_geo::country::cc;
    use shadow_geo::{Asn, GeoRecord, HostingLabel, Ipv4Prefix};
    use shadow_vantage::platform::VpId;

    fn result(
        protocol: DecoyProtocol,
        hop: Option<u8>,
        dist: Option<u8>,
        norm: Option<u8>,
        addr: Option<Ipv4Addr>,
    ) -> TracerouteResult {
        TracerouteResult {
            path: PathKey {
                vp: VpId(1),
                dst: Ipv4Addr::new(1, 1, 1, 1),
                protocol,
            },
            observer_hop: hop,
            dest_distance: dist,
            normalized_hop: norm,
            observer_addr: addr,
            revealed_routers: Vec::new(),
        }
    }

    #[test]
    fn hop_table_percentages() {
        let results = vec![
            result(DecoyProtocol::Dns, Some(8), Some(8), Some(10), None),
            result(DecoyProtocol::Dns, Some(8), Some(8), Some(10), None),
            result(DecoyProtocol::Dns, Some(4), Some(8), Some(5), None),
            result(DecoyProtocol::Http, Some(4), Some(8), Some(5), None),
        ];
        let table = ObserverHopTable::compute(&results);
        assert!((table.at_destination_percent(DecoyProtocol::Dns) - 66.666).abs() < 0.01);
        assert!((table.percent(DecoyProtocol::Dns, 5) - 33.333).abs() < 0.01);
        assert_eq!(table.at_destination_percent(DecoyProtocol::Http), 0.0);
        assert!((table.mid_path_percent(DecoyProtocol::Http) - 100.0).abs() < 1e-9);
        assert_eq!(table.localized_paths(DecoyProtocol::Dns), 3);
    }

    #[test]
    fn ip_summary_counts_on_wire_only() {
        let mut geo = GeoDb::new();
        geo.insert(GeoRecord {
            prefix: Ipv4Prefix::new(Ipv4Addr::new(61, 0, 0, 0), 8).unwrap(),
            asn: Asn(4134),
            country: cc("CN"),
            hosting: HostingLabel::Residential,
        });
        geo.insert(GeoRecord {
            prefix: Ipv4Prefix::new(Ipv4Addr::new(70, 0, 0, 0), 8).unwrap(),
            asn: Asn(29988),
            country: cc("CA"),
            hosting: HostingLabel::Residential,
        });
        let catalog = AsCatalog::generate(1, 0.01);

        let cn1 = Ipv4Addr::new(61, 1, 1, 1);
        let cn2 = Ipv4Addr::new(61, 1, 1, 2);
        let ca = Ipv4Addr::new(70, 1, 1, 1);
        let results = vec![
            result(DecoyProtocol::Http, Some(5), Some(9), Some(6), Some(cn1)),
            result(DecoyProtocol::Http, Some(5), Some(9), Some(6), Some(cn1)),
            result(DecoyProtocol::Http, Some(4), Some(9), Some(5), Some(cn2)),
            result(DecoyProtocol::Http, Some(6), Some(9), Some(7), Some(ca)),
            // At-destination result: excluded from observer-IP accounting.
            result(
                DecoyProtocol::Tls,
                Some(9),
                Some(9),
                Some(10),
                Some(Ipv4Addr::new(8, 8, 8, 8)),
            ),
        ];
        let summary = ObserverIpSummary::compute(&results, &geo, &catalog);
        assert_eq!(summary.total_ips, 3);
        assert!((summary.country_fraction("CN") - 2.0 / 3.0).abs() < 1e-9);
        let top = summary.top_as(DecoyProtocol::Http).unwrap();
        assert_eq!(top.asn, 4134);
        assert_eq!(top.paths, 3);
        assert_eq!(top.name, "CHINANET-BACKBONE");
        assert!((top.share - 0.75).abs() < 1e-9);
    }
}
