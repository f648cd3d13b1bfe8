//! Figure 6: origin ASes of unsolicited requests triggered by DNS decoys
//! sent to Resolver_h, plus the blocklist labeling of origin IPs.

use serde::{Deserialize, Serialize};
use shadow_core::decoy::DecoyProtocol;
use shadow_core::sink::CorrelationAggregates;
use shadow_geo::{AsCatalog, Asn, GeoDb};
use shadow_honeypot::capture::ArrivalProtocol;
use shadow_intel::Blocklist;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// One (destination, origin AS) aggregation plus blocklist rates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OriginAsReport {
    /// destination name → origin AS → unsolicited request count.
    pub per_destination: BTreeMap<String, BTreeMap<u32, usize>>,
    /// Distinct origin IPs per arrival protocol.
    pub origin_ips: BTreeMap<String, BTreeSet<Ipv4Addr>>,
    /// Blocklist hit rate over distinct origin IPs, per arrival protocol.
    pub blocklist_rates: BTreeMap<String, f64>,
}

impl OriginAsReport {
    /// Aggregate over unsolicited requests from DNS decoys sent to the
    /// destinations in `dests` (address → display name): one AS lookup per
    /// distinct origin key of the streamed aggregates.
    pub fn compute(
        aggregates: &CorrelationAggregates,
        dests: &BTreeMap<Ipv4Addr, String>,
        geo: &GeoDb,
        blocklist: &Blocklist,
    ) -> Self {
        let mut per_destination: BTreeMap<String, BTreeMap<u32, usize>> = BTreeMap::new();
        let mut origin_ips: BTreeMap<String, BTreeSet<Ipv4Addr>> = BTreeMap::new();
        for (&(decoy, dst, arrival, src), &count) in &aggregates.origins {
            if decoy != DecoyProtocol::Dns {
                continue;
            }
            let Some(dest_name) = dests.get(&dst) else {
                continue;
            };
            if let Some(asn) = geo.asn_of(src) {
                *per_destination
                    .entry(dest_name.clone())
                    .or_default()
                    .entry(asn.0)
                    .or_insert(0) += count as usize;
            }
            origin_ips
                .entry(arrival.as_str().to_string())
                .or_default()
                .insert(src);
        }
        let blocklist_rates = origin_ips
            .iter()
            .map(|(proto, ips)| (proto.clone(), blocklist.hit_rate(ips.iter())))
            .collect();
        Self {
            per_destination,
            origin_ips,
            blocklist_rates,
        }
    }

    /// The dominant origin AS for one destination.
    pub fn top_origin_as(&self, destination: &str) -> Option<(u32, usize)> {
        self.per_destination.get(destination).and_then(|m| {
            m.iter()
                .max_by_key(|&(asn, count)| (*count, std::cmp::Reverse(*asn)))
                .map(|(&asn, &count)| (asn, count))
        })
    }

    /// Number of distinct origin ASes feeding one destination's data —
    /// Figure 6's "decoys to 114DNS trigger queries from 4 ASes".
    pub fn origin_as_count(&self, destination: &str) -> usize {
        self.per_destination
            .get(destination)
            .map(|m| m.len())
            .unwrap_or(0)
    }

    /// Share of unsolicited DNS re-queries coming from one AS across all
    /// destinations (the Google-dominance headline).
    pub fn as_share(&self, asn: u32) -> f64 {
        let mut from_as = 0usize;
        let mut total = 0usize;
        for per_as in self.per_destination.values() {
            for (&a, &count) in per_as {
                total += count;
                if a == asn {
                    from_as += count;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            from_as as f64 / total as f64
        }
    }

    /// Render AS names for a row (helper for reports).
    pub fn named_rows<'a>(
        &'a self,
        destination: &str,
        catalog: &'a AsCatalog,
    ) -> Vec<(String, usize)> {
        let Some(per_as) = self.per_destination.get(destination) else {
            return Vec::new();
        };
        let mut rows: Vec<(String, usize)> = per_as
            .iter()
            .map(|(&asn, &count)| {
                let name = catalog
                    .get(Asn(asn))
                    .map(|i| format!("AS{asn} {}", i.name))
                    .unwrap_or_else(|| format!("AS{asn}"));
                (name, count)
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }
}

/// Convenience alias matching the paper's prose.
pub fn arrival_protocol_label(p: ArrivalProtocol) -> &'static str {
    p.as_str()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_core::decoy::DecoyRegistry;
    use shadow_core::sink::SinkConfig;
    use shadow_geo::country::cc;
    use shadow_geo::{GeoRecord, HostingLabel, Ipv4Prefix};
    use shadow_honeypot::capture::Arrival;
    use shadow_netsim::time::SimTime;
    use shadow_packet::dns::DnsName;
    use shadow_vantage::platform::VpId;

    #[test]
    fn aggregates_origin_ases_and_blocklist() {
        let zone = DnsName::parse("www.experiment.example").unwrap();
        let mut registry = DecoyRegistry::new(zone);
        let dst114 = Ipv4Addr::new(114, 114, 114, 114);
        let rec = registry.register(
            VpId(1),
            Ipv4Addr::new(10, 0, 0, 1),
            dst114,
            DecoyProtocol::Dns,
            64,
            SimTime(1_000),
            None,
        );
        let google_egress = Ipv4Addr::new(8, 8, 8, 100);
        let dirty_origin = Ipv4Addr::new(61, 0, 0, 9);
        let mk = |at: u64, src: Ipv4Addr, proto: ArrivalProtocol| Arrival {
            at: SimTime(at),
            src,
            protocol: proto,
            domain: rec.domain.clone(),
            http_path: None,
            honeypot: "AUTH".into(),
        };
        let arrivals = vec![
            mk(
                2_000,
                Ipv4Addr::new(114, 114, 114, 115),
                ArrivalProtocol::Dns,
            ), // solicited
            mk(8_000_000, google_egress, ArrivalProtocol::Dns),
            mk(9_000_000, google_egress, ArrivalProtocol::Dns),
            mk(9_500_000, dirty_origin, ArrivalProtocol::Http),
        ];
        let aggregates =
            CorrelationAggregates::from_arrivals(&registry, &arrivals, &SinkConfig::streaming());

        let mut geo = GeoDb::new();
        geo.insert(GeoRecord {
            prefix: Ipv4Prefix::new(Ipv4Addr::new(8, 0, 0, 0), 8).unwrap(),
            asn: Asn(15169),
            country: cc("US"),
            hosting: HostingLabel::Hosting,
        });
        geo.insert(GeoRecord {
            prefix: Ipv4Prefix::new(Ipv4Addr::new(61, 0, 0, 0), 8).unwrap(),
            asn: Asn(4134),
            country: cc("CN"),
            hosting: HostingLabel::Residential,
        });
        geo.insert(GeoRecord {
            prefix: Ipv4Prefix::new(Ipv4Addr::new(114, 0, 0, 0), 8).unwrap(),
            asn: Asn(23724),
            country: cc("CN"),
            hosting: HostingLabel::Hosting,
        });
        geo.build();
        let blocklist = Blocklist::from_addrs([dirty_origin]);
        let mut dests = BTreeMap::new();
        dests.insert(dst114, "114DNS".to_string());

        let report = OriginAsReport::compute(&aggregates, &dests, &geo, &blocklist);
        assert_eq!(report.top_origin_as("114DNS"), Some((15169, 2)));
        assert_eq!(report.origin_as_count("114DNS"), 2);
        assert!(report.as_share(15169) > 0.5, "Google dominates DNS origins");
        assert_eq!(report.blocklist_rates["DNS"], 0.0);
        assert_eq!(report.blocklist_rates["HTTP"], 1.0);
    }
}
