//! Sections 5.1/5.2 "HTTP and HTTPS probing incentives": path triage of
//! unsolicited HTTP requests, exploit checks, and blocklist rates per
//! (decoy protocol → arrival protocol) group.

use serde::{Deserialize, Serialize};
use shadow_core::decoy::DecoyProtocol;
use shadow_core::sink::CorrelationAggregates;
use shadow_honeypot::capture::ArrivalProtocol;
use shadow_intel::{classify_path, Blocklist, PayloadClass};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Probing analysis over one decoy-protocol group.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProbingReport {
    pub http_requests: usize,
    pub enumeration: usize,
    pub benign: usize,
    pub exploits: usize,
    /// Distinct origin IPs per arrival protocol.
    pub origin_ips: BTreeMap<String, BTreeSet<Ipv4Addr>>,
    /// Blocklist hit rates over those IPs.
    pub blocklist_rates: BTreeMap<String, f64>,
    /// Most probed paths (path → count), for reports.
    pub top_paths: BTreeMap<String, usize>,
}

impl ProbingReport {
    /// Analyze unsolicited requests triggered by decoys of `decoy_protocol`,
    /// from the streamed origin and HTTP-path folds: one payload
    /// classification per distinct path.
    pub fn compute(
        aggregates: &CorrelationAggregates,
        decoy_protocol: DecoyProtocol,
        blocklist: &Blocklist,
    ) -> Self {
        let mut report = Self::default();
        for (&(decoy, _, arrival, src), &count) in &aggregates.origins {
            if decoy != decoy_protocol {
                continue;
            }
            if arrival == ArrivalProtocol::Http {
                report.http_requests += count as usize;
            }
            report
                .origin_ips
                .entry(arrival.as_str().to_string())
                .or_default()
                .insert(src);
        }
        for (path, &count) in aggregates
            .http_paths
            .get(&decoy_protocol)
            .into_iter()
            .flatten()
        {
            let count = count as usize;
            match classify_path(path) {
                PayloadClass::Benign => report.benign += count,
                PayloadClass::Enumeration => report.enumeration += count,
                PayloadClass::Exploit => report.exploits += count,
            }
            report.top_paths.insert(path.clone(), count);
        }
        report.blocklist_rates = report
            .origin_ips
            .iter()
            .map(|(proto, ips)| (proto.clone(), blocklist.hit_rate(ips.iter())))
            .collect();
        report
    }

    /// Fraction of classified HTTP paths that are enumeration (the ~95%
    /// finding; "/" fetches count as benign).
    pub fn enumeration_fraction(&self) -> f64 {
        let classified = self.enumeration + self.benign + self.exploits;
        if classified == 0 {
            return 0.0;
        }
        self.enumeration as f64 / classified as f64
    }

    pub fn blocklist_rate(&self, protocol: &str) -> f64 {
        self.blocklist_rates.get(protocol).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_core::decoy::DecoyRegistry;
    use shadow_core::sink::SinkConfig;
    use shadow_honeypot::capture::Arrival;
    use shadow_netsim::time::SimTime;
    use shadow_packet::dns::DnsName;
    use shadow_vantage::platform::VpId;

    #[test]
    fn classifies_paths_and_rates() {
        let zone = DnsName::parse("www.experiment.example").unwrap();
        let mut registry = DecoyRegistry::new(zone);
        let rec = registry.register(
            VpId(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(77, 88, 8, 8),
            DecoyProtocol::Dns,
            64,
            SimTime(0),
            None,
        );
        let dirty = Ipv4Addr::new(61, 0, 0, 1);
        let clean = Ipv4Addr::new(62, 0, 0, 1);
        let mk = |at: u64, src: Ipv4Addr, proto: ArrivalProtocol, path: Option<&str>| Arrival {
            at: SimTime(at),
            src,
            protocol: proto,
            domain: rec.domain.clone(),
            http_path: path.map(str::to_string),
            honeypot: "US".into(),
        };
        let arrivals = vec![
            mk(5_000, dirty, ArrivalProtocol::Http, Some("/.git/config")),
            mk(6_000, dirty, ArrivalProtocol::Http, Some("/admin/")),
            mk(7_000, clean, ArrivalProtocol::Http, Some("/")),
            mk(8_000, dirty, ArrivalProtocol::Https, None),
        ];
        let aggregates =
            CorrelationAggregates::from_arrivals(&registry, &arrivals, &SinkConfig::streaming());
        let blocklist = Blocklist::from_addrs([dirty]);
        let report = ProbingReport::compute(&aggregates, DecoyProtocol::Dns, &blocklist);
        assert_eq!(report.http_requests, 3);
        assert_eq!(report.enumeration, 2);
        assert_eq!(report.benign, 1);
        assert_eq!(report.exploits, 0, "no exploit payloads, as in the paper");
        assert!((report.enumeration_fraction() - 2.0 / 3.0).abs() < 1e-9);
        assert!((report.blocklist_rate("HTTP") - 0.5).abs() < 1e-9);
        assert_eq!(report.blocklist_rate("HTTPS"), 1.0);
        assert_eq!(report.top_paths["/admin/"], 1);
    }
}
