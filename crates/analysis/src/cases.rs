//! The paper's three case studies, as reusable analyses:
//!
//! * **Case I — Yandex** (§5.1): >99% of decoys shadowed, data retained
//!   for days, 51% yield HTTP/HTTPS probes.
//! * **Case II — 114DNS anycast** (§5.1): decoys routed to CN instances
//!   trigger unsolicited requests; US instances do not.
//! * **Case III — HTTP/TLS observers in China** (§5.2): observers
//!   concentrate in CN ISPs; probes originate largely from local ISPs.

use serde::{Deserialize, Serialize};
use shadow_core::decoy::{DecoyProtocol, DecoyRegistry};
use shadow_core::phase2::TracerouteResult;
use shadow_core::sink::{CorrelationAggregates, OUTCOME_HTTP_EARLY, OUTCOME_HTTP_LATE};
use shadow_geo::{CountryCode, GeoDb};
use shadow_netsim::time::SimDuration;
use shadow_vantage::platform::{Platform, VpId};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Case I: one resolver's shadowing profile.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResolverCase {
    pub destination: String,
    pub decoys: usize,
    pub shadowed_decoys: usize,
    pub http_probed_decoys: usize,
    /// Median interval of unsolicited requests, at histogram resolution:
    /// the upper edge of the interval bucket that holds it.
    pub median_interval_ms: Option<u64>,
    /// Fraction of unsolicited requests arriving more than 10 days later.
    pub ten_day_tail: f64,
}

impl ResolverCase {
    /// Shadowed and HTTP(S)-probed decoys come from the per-decoy outcome
    /// bits, the interval statistics from the (DNS, `dst`) histogram.
    pub fn compute(
        registry: &DecoyRegistry,
        aggregates: &CorrelationAggregates,
        dst: Ipv4Addr,
        destination: &str,
    ) -> Self {
        let mut case = Self {
            destination: destination.to_string(),
            ..Self::default()
        };
        for decoy in registry.iter() {
            if decoy.protocol != DecoyProtocol::Dns || decoy.dst() != dst {
                continue;
            }
            case.decoys += 1;
            if let Some(fold) = aggregates.decoys.get(&decoy.domain) {
                case.shadowed_decoys += 1;
                if fold.outcome_bits & (OUTCOME_HTTP_EARLY | OUTCOME_HTTP_LATE) != 0 {
                    case.http_probed_decoys += 1;
                }
            }
        }
        if let Some(hist) = aggregates.interval_hists.get(&(DecoyProtocol::Dns, dst)) {
            let total = hist.total();
            case.median_interval_ms = hist.median_upper_edge_ms();
            if let Some(within) = hist.cumulative_at(SimDuration::from_days(10).millis()) {
                case.ten_day_tail = (total - within) as f64 / total.max(1) as f64;
            }
        }
        case
    }

    pub fn shadowed_fraction(&self) -> f64 {
        if self.decoys == 0 {
            0.0
        } else {
            self.shadowed_decoys as f64 / self.decoys as f64
        }
    }

    pub fn http_probed_fraction(&self) -> f64 {
        if self.decoys == 0 {
            0.0
        } else {
            self.http_probed_decoys as f64 / self.decoys as f64
        }
    }
}

/// Case II: split one anycast destination's paths by VP country group.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnycastCase {
    pub destination: String,
    /// (VP in split country?, problematic paths, total paths)
    pub in_country: (usize, usize),
    pub elsewhere: (usize, usize),
}

impl AnycastCase {
    /// The 114DNS shape: problematic only when the VP routes to the
    /// in-country instance. `split` is the country whose instance shadows.
    pub fn compute(
        registry: &DecoyRegistry,
        aggregates: &CorrelationAggregates,
        platform: &Platform,
        dst: Ipv4Addr,
        destination: &str,
        split: CountryCode,
    ) -> Self {
        let country_of: BTreeMap<VpId, CountryCode> =
            platform.vps.iter().map(|vp| (vp.id, vp.country)).collect();
        let problematic: BTreeSet<VpId> = aggregates
            .paths
            .keys()
            .filter(|key| key.protocol == DecoyProtocol::Dns && key.dst == dst)
            .map(|key| key.vp)
            .collect();
        let mut seen: BTreeSet<VpId> = BTreeSet::new();
        let mut in_country = (0, 0);
        let mut elsewhere = (0, 0);
        for decoy in registry.iter() {
            if decoy.protocol != DecoyProtocol::Dns || decoy.dst() != dst {
                continue;
            }
            if !seen.insert(decoy.vp) {
                continue;
            }
            let Some(&country) = country_of.get(&decoy.vp) else {
                continue;
            };
            let slot = if country == split {
                &mut in_country
            } else {
                &mut elsewhere
            };
            slot.1 += 1;
            if problematic.contains(&decoy.vp) {
                slot.0 += 1;
            }
        }
        Self {
            destination: destination.to_string(),
            in_country,
            elsewhere,
        }
    }

    pub fn in_country_ratio(&self) -> f64 {
        if self.in_country.1 == 0 {
            0.0
        } else {
            self.in_country.0 as f64 / self.in_country.1 as f64
        }
    }

    pub fn elsewhere_ratio(&self) -> f64 {
        if self.elsewhere.1 == 0 {
            0.0
        } else {
            self.elsewhere.0 as f64 / self.elsewhere.1 as f64
        }
    }
}

/// Case III: the CN concentration of HTTP/TLS observers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CnObserverCase {
    pub observers_total: usize,
    pub observers_cn: usize,
    /// Fraction of unsolicited requests (triggered by HTTP/TLS decoys)
    /// originating from CN addresses.
    pub cn_origin_fraction: f64,
}

impl CnObserverCase {
    /// Observer IPs come from Phase II; the origin split reads the
    /// streamed origin fold, one country lookup per distinct origin key.
    pub fn compute(
        results: &[TracerouteResult],
        aggregates: &CorrelationAggregates,
        geo: &GeoDb,
    ) -> Self {
        let mut observers: BTreeSet<Ipv4Addr> = BTreeSet::new();
        for r in results {
            if matches!(r.path.protocol, DecoyProtocol::Http | DecoyProtocol::Tls) {
                if let Some(addr) = r.observer_addr {
                    if r.normalized_hop != Some(10) {
                        observers.insert(addr);
                    }
                }
            }
        }
        let observers_cn = observers
            .iter()
            .filter(|a| {
                geo.country_of(**a)
                    .map(|c| c.as_str() == "CN")
                    .unwrap_or(false)
            })
            .count();
        let mut cn_orig = 0u64;
        let mut total_orig = 0u64;
        for (&(decoy, _, _, src), &count) in &aggregates.origins {
            if matches!(decoy, DecoyProtocol::Http | DecoyProtocol::Tls) {
                total_orig += count;
                if geo
                    .country_of(src)
                    .map(|c| c.as_str() == "CN")
                    .unwrap_or(false)
                {
                    cn_orig += count;
                }
            }
        }
        Self {
            observers_total: observers.len(),
            observers_cn,
            cn_origin_fraction: if total_orig == 0 {
                0.0
            } else {
                cn_orig as f64 / total_orig as f64
            },
        }
    }

    pub fn cn_observer_fraction(&self) -> f64 {
        if self.observers_total == 0 {
            0.0
        } else {
            self.observers_cn as f64 / self.observers_total as f64
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
        let vp = |id: u32, country: &str, market: Market| VantagePoint {
            id: VpId(id),
            provider: "X",
            market,
            node: NodeId(id),
            addr: Ipv4Addr::new(10, 0, 0, id as u8),
            advertised_country: cc(country),
            country: cc(country),
            ttl_rewrite: None,
            residential: false,
        };
        Platform::new(vec![
            vp(1, "CN", Market::China),
            vp(2, "DE", Market::Global),
        ])
    }

    #[test]
    fn anycast_case_splits_by_country() {
        let zone = DnsName::parse("www.experiment.example").unwrap();
        let mut registry = DecoyRegistry::new(zone);
        let dst = Ipv4Addr::new(114, 114, 114, 114);
        let cn_rec = registry.register(
            VpId(1),
            Ipv4Addr::new(10, 0, 0, 1),
            dst,
            DecoyProtocol::Dns,
            64,
            SimTime(0),
            None,
        );
        let de_rec = registry.register(
            VpId(2),
            Ipv4Addr::new(10, 0, 0, 2),
            dst,
            DecoyProtocol::Dns,
            64,
            SimTime(100),
            None,
        );
        let mk = |domain: &DnsName, at: u64| Arrival {
            at: SimTime(at),
            src: Ipv4Addr::new(9, 9, 9, 9),
            protocol: ArrivalProtocol::Dns,
            domain: domain.clone(),
            http_path: None,
            honeypot: "AUTH".into(),
        };
        // CN VP's decoy repeats hours later; DE VP's does not.
        let arrivals = vec![
            mk(&cn_rec.domain, 1_000),
            mk(&de_rec.domain, 1_100),
            mk(&cn_rec.domain, 10_000_000),
        ];
        let aggregates =
            CorrelationAggregates::from_arrivals(&registry, &arrivals, &SinkConfig::streaming());
        let case =
            AnycastCase::compute(&registry, &aggregates, &platform(), dst, "114DNS", cc("CN"));
        assert_eq!(case.in_country, (1, 1));
        assert_eq!(case.elsewhere, (0, 1));
        assert_eq!(case.in_country_ratio(), 1.0);
        assert_eq!(case.elsewhere_ratio(), 0.0);
    }

    #[test]
    fn resolver_case_fractions() {
        let zone = DnsName::parse("www.experiment.example").unwrap();
        let mut registry = DecoyRegistry::new(zone);
        let dst = Ipv4Addr::new(77, 88, 8, 8);
        let recs: Vec<_> = (0..4)
            .map(|i| {
                registry.register(
                    VpId(1),
                    Ipv4Addr::new(10, 0, 0, 1),
                    dst,
                    DecoyProtocol::Dns,
                    64,
                    SimTime(i * 1_000),
                    None,
                )
            })
            .collect();
        let mk = |domain: &DnsName, at: u64, proto: ArrivalProtocol| Arrival {
            at: SimTime(at),
            src: Ipv4Addr::new(9, 9, 9, 9),
            protocol: proto,
            domain: domain.clone(),
            http_path: None,
            honeypot: "AUTH".into(),
        };
        let day = 86_400_000u64;
        let mut arrivals = Vec::new();
        for rec in &recs {
            arrivals.push(mk(
                &rec.domain,
                rec.planned_at.millis() + 500,
                ArrivalProtocol::Dns,
            ));
        }
        // 3 of 4 shadowed; 2 of 4 HTTP-probed; one more than 10 days.
        arrivals.push(mk(&recs[0].domain, 2 * day, ArrivalProtocol::Dns));
        arrivals.push(mk(&recs[1].domain, 3 * day, ArrivalProtocol::Http));
        arrivals.push(mk(&recs[2].domain, 12 * day, ArrivalProtocol::Https));
        arrivals.sort_by_key(|a| a.at);
        let aggregates =
            CorrelationAggregates::from_arrivals(&registry, &arrivals, &SinkConfig::streaming());
        let case = ResolverCase::compute(&registry, &aggregates, dst, "Yandex");
        assert_eq!(case.decoys, 4);
        assert_eq!(case.shadowed_decoys, 3);
        assert_eq!(case.http_probed_decoys, 2);
        assert!((case.shadowed_fraction() - 0.75).abs() < 1e-9);
        assert!((case.http_probed_fraction() - 0.5).abs() < 1e-9);
        // Unsolicited intervals ≈ 2 d, 3 d and 12 d: one of three past 10 d,
        // and the median (3 d) sits in the (1 d, 3 d] bucket.
        assert!((case.ten_day_tail - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(
            case.median_interval_ms,
            Some(SimDuration::from_days(3).millis())
        );
    }
}
