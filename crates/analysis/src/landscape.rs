//! Figure 3: the ratio of client-server paths subject to traffic shadowing,
//! grouped by VP country and destination.

use serde::{Deserialize, Serialize};
use shadow_core::correlate::PathKey;
use shadow_core::decoy::{DecoyProtocol, DecoyRegistry};
use shadow_core::sink::CorrelationAggregates;
use shadow_geo::CountryCode;
use shadow_vantage::platform::{Platform, VpId};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// One cell of Figure 3: (VP country, destination) → path ratio.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LandscapeCell {
    pub country: String,
    pub destination: String,
    pub protocol: DecoyProtocol,
    pub problematic: usize,
    pub total: usize,
}

impl LandscapeCell {
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.problematic as f64 / self.total as f64
        }
    }
}

/// The full Figure-3 report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LandscapeReport {
    pub cells: Vec<LandscapeCell>,
}

impl LandscapeReport {
    /// Compute the landscape. The problematic paths are the keys of the
    /// capture-time path fold; `dest_names` maps destination addresses to
    /// display names (resolver names / "tranco:CC" groups).
    pub fn compute(
        registry: &DecoyRegistry,
        aggregates: &CorrelationAggregates,
        platform: &Platform,
        dest_names: &BTreeMap<Ipv4Addr, String>,
    ) -> Self {
        let country_of: BTreeMap<VpId, CountryCode> =
            platform.vps.iter().map(|vp| (vp.id, vp.country)).collect();

        // Denominator: every (vp, dst, protocol) a decoy was sent on.
        let mut totals: BTreeMap<(String, String, DecoyProtocol), (usize, usize)> = BTreeMap::new();
        let mut seen_paths: BTreeSet<PathKey> = BTreeSet::new();
        for decoy in registry.iter() {
            let key = PathKey {
                vp: decoy.vp,
                dst: decoy.dst,
                protocol: decoy.protocol,
            };
            if !seen_paths.insert(key) {
                continue;
            }
            let Some(country) = country_of.get(&decoy.vp) else {
                continue;
            };
            let dest = dest_names
                .get(&decoy.dst)
                .cloned()
                .unwrap_or_else(|| decoy.dst.to_string());
            let entry = totals
                .entry((country.to_string(), dest, decoy.protocol))
                .or_insert((0, 0));
            entry.1 += 1;
            if aggregates.paths.contains_key(&key) {
                entry.0 += 1;
            }
        }
        let cells = totals
            .into_iter()
            .map(
                |((country, destination, protocol), (problematic, total))| LandscapeCell {
                    country,
                    destination,
                    protocol,
                    problematic,
                    total,
                },
            )
            .collect();
        Self { cells }
    }

    /// Ratio aggregated over all countries for one destination.
    pub fn destination_ratio(&self, destination: &str, protocol: DecoyProtocol) -> f64 {
        let (p, t) = self
            .cells
            .iter()
            .filter(|c| c.destination == destination && c.protocol == protocol)
            .fold((0, 0), |(p, t), c| (p + c.problematic, t + c.total));
        if t == 0 {
            0.0
        } else {
            p as f64 / t as f64
        }
    }

    /// Ratio for one (country, destination) pair.
    pub fn cell_ratio(&self, country: &str, destination: &str, protocol: DecoyProtocol) -> f64 {
        let (p, t) = self
            .cells
            .iter()
            .filter(|c| {
                c.country == country && c.destination == destination && c.protocol == protocol
            })
            .fold((0, 0), |(p, t), c| (p + c.problematic, t + c.total));
        if t == 0 {
            0.0
        } else {
            p as f64 / t as f64
        }
    }

    /// Ratio per destination group for one protocol, sorted by ratio
    /// (Figure 3's HTTP/TLS columns, where tranco destinations are grouped
    /// as `site:CC` by hosting country).
    pub fn destination_ratios(&self, protocol: DecoyProtocol) -> Vec<(String, f64, usize)> {
        let mut acc: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for cell in &self.cells {
            if cell.protocol != protocol {
                continue;
            }
            let entry = acc.entry(&cell.destination).or_insert((0, 0));
            entry.0 += cell.problematic;
            entry.1 += cell.total;
        }
        let mut out: Vec<(String, f64, usize)> = acc
            .into_iter()
            .filter(|(_, (_, t))| *t > 0)
            .map(|(dest, (p, t))| (dest.to_string(), p as f64 / t as f64, t))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    /// Overall ratio per protocol (the "DNS decoys are more susceptible"
    /// headline).
    pub fn protocol_ratio(&self, protocol: DecoyProtocol) -> f64 {
        let (p, t) = self
            .cells
            .iter()
            .filter(|c| c.protocol == protocol)
            .fold((0, 0), |(p, t), c| (p + c.problematic, t + c.total));
        if t == 0 {
            0.0
        } else {
            p as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_core::sink::SinkConfig;
    use shadow_geo::country::cc;
    use shadow_honeypot::capture::{Arrival, ArrivalProtocol};
    use shadow_netsim::time::SimTime;
    use shadow_netsim::topology::NodeId;
    use shadow_packet::dns::DnsName;
    use shadow_vantage::platform::VantagePoint;
    use shadow_vantage::providers::Market;

    fn platform() -> Platform {
        let vp = |id: u32, country: &str| VantagePoint {
            id: VpId(id),
            provider: "PureVPN",
            market: Market::Global,
            node: NodeId(id),
            addr: Ipv4Addr::new(10, 0, 0, id as u8),
            advertised_country: cc(country),
            country: cc(country),
            ttl_rewrite: None,
            residential: false,
        };
        Platform::new(vec![vp(1, "DE"), vp(2, "CN")])
    }

    #[test]
    fn ratios_computed_per_cell() {
        let zone = DnsName::parse("www.experiment.example").unwrap();
        let mut registry = DecoyRegistry::new(zone);
        let yandex = Ipv4Addr::new(77, 88, 8, 8);
        let google = Ipv4Addr::new(8, 8, 8, 8);
        // Both VPs probe both resolvers.
        let mut records = Vec::new();
        for (i, vp) in [VpId(1), VpId(2)].iter().enumerate() {
            for (j, dst) in [yandex, google].iter().enumerate() {
                records.push(registry.register(
                    *vp,
                    Ipv4Addr::new(10, 0, 0, vp.0 as u8),
                    *dst,
                    DecoyProtocol::Dns,
                    64,
                    SimTime(((i * 2 + j) as u64 + 1) * 1_000),
                ));
            }
        }
        // Only the Yandex paths trigger unsolicited requests (a repeat
        // after the solicited resolution).
        let mut arrivals = Vec::new();
        for rec in &records {
            arrivals.push(Arrival {
                at: rec.planned_at + shadow_netsim::time::SimDuration::from_secs(1),
                src: Ipv4Addr::new(9, 9, 9, 9),
                protocol: ArrivalProtocol::Dns,
                domain: rec.domain.clone(),
                http_path: None,
                honeypot: "AUTH".into(),
            });
            if rec.dst == yandex {
                arrivals.push(Arrival {
                    at: rec.planned_at + shadow_netsim::time::SimDuration::from_hours(5),
                    src: Ipv4Addr::new(9, 9, 9, 9),
                    protocol: ArrivalProtocol::Dns,
                    domain: rec.domain.clone(),
                    http_path: None,
                    honeypot: "AUTH".into(),
                });
            }
        }
        arrivals.sort_by_key(|a| a.at);
        let aggregates =
            CorrelationAggregates::from_arrivals(&registry, &arrivals, &SinkConfig::streaming());
        let mut names = BTreeMap::new();
        names.insert(yandex, "Yandex".to_string());
        names.insert(google, "Google".to_string());
        let report = LandscapeReport::compute(&registry, &aggregates, &platform(), &names);

        assert_eq!(report.destination_ratio("Yandex", DecoyProtocol::Dns), 1.0);
        assert_eq!(report.destination_ratio("Google", DecoyProtocol::Dns), 0.0);
        assert_eq!(report.cell_ratio("CN", "Yandex", DecoyProtocol::Dns), 1.0);
        assert_eq!(report.cell_ratio("DE", "Google", DecoyProtocol::Dns), 0.0);
        assert!((report.protocol_ratio(DecoyProtocol::Dns) - 0.5).abs() < 1e-9);
    }
}
