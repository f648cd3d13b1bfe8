//! Section 5.1's reuse finding: "over 1 hour after emission from VP, 51%
//! of DNS decoys still produce more than 3 unsolicited requests, and 2.4%
//! produce more than 10".

use serde::{Deserialize, Serialize};
use shadow_core::decoy::DecoyProtocol;
use shadow_core::sink::CorrelationAggregates;
use std::collections::BTreeMap;

/// Reuse statistics over decoys of one protocol.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReuseReport {
    /// Decoys that triggered at least one unsolicited request at all.
    pub triggered_decoys: usize,
    /// Per-decoy count of unsolicited requests arriving after the cutoff.
    pub late_counts: BTreeMap<String, usize>,
}

impl ReuseReport {
    /// Read from the capture-time per-decoy folds. The cutoff is whatever
    /// `SinkConfig::late_cutoff` the campaign streamed with (1 h in the
    /// shipped configurations — the paper's framing).
    pub fn compute(aggregates: &CorrelationAggregates, protocol: DecoyProtocol) -> Self {
        let mut late_counts: BTreeMap<String, usize> = BTreeMap::new();
        let mut triggered_decoys = 0;
        for (domain, fold) in &aggregates.decoys {
            if fold.protocol != protocol {
                continue;
            }
            triggered_decoys += 1;
            if fold.late_unsolicited > 0 {
                late_counts.insert(domain.as_str().to_string(), fold.late_unsolicited as usize);
            }
        }
        Self {
            triggered_decoys,
            late_counts,
        }
    }

    /// Fraction of decoys *still producing after the cutoff* with more
    /// than `n` late unsolicited requests — the paper's "over 1 hour after
    /// emission, 51% of DNS decoys still produce more than 3 unsolicited
    /// requests" framing.
    pub fn fraction_exceeding(&self, n: usize) -> f64 {
        if self.late_counts.is_empty() {
            return 0.0;
        }
        let exceeding = self.late_counts.values().filter(|&&c| c > n).count();
        exceeding as f64 / self.late_counts.len() as f64
    }

    /// Same numerator over all decoys that triggered anything at all.
    pub fn fraction_of_triggered_exceeding(&self, n: usize) -> f64 {
        if self.triggered_decoys == 0 {
            return 0.0;
        }
        let exceeding = self.late_counts.values().filter(|&&c| c > n).count();
        exceeding as f64 / self.triggered_decoys as f64
    }

    /// Decoys still producing unsolicited requests after the cutoff.
    pub fn late_active_decoys(&self) -> usize {
        self.late_counts.len()
    }

    /// Maximum late reuse observed for any single decoy.
    pub fn max_reuse(&self) -> usize {
        self.late_counts.values().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_core::decoy::DecoyRegistry;
    use shadow_core::sink::SinkConfig;
    use shadow_honeypot::capture::{Arrival, ArrivalProtocol};
    use shadow_netsim::time::SimTime;
    use shadow_packet::dns::DnsName;
    use shadow_vantage::platform::VpId;
    use std::net::Ipv4Addr;

    #[test]
    fn counts_late_reuse_per_decoy() {
        let zone = DnsName::parse("www.experiment.example").unwrap();
        let mut registry = DecoyRegistry::new(zone);
        let dst = Ipv4Addr::new(77, 88, 8, 8);
        let busy = registry.register(
            VpId(1),
            Ipv4Addr::new(10, 0, 0, 1),
            dst,
            DecoyProtocol::Dns,
            64,
            SimTime(0),
        );
        let lazy = registry.register(
            VpId(1),
            Ipv4Addr::new(10, 0, 0, 1),
            dst,
            DecoyProtocol::Dns,
            64,
            SimTime(100),
        );
        let mk = |domain: &DnsName, at: u64| Arrival {
            at: SimTime(at),
            src: Ipv4Addr::new(9, 9, 9, 9),
            protocol: ArrivalProtocol::Dns,
            domain: domain.clone(),
            http_path: None,
            honeypot: "AUTH".into(),
        };
        let hour = 3_600_000u64;
        let mut arrivals = vec![mk(&busy.domain, 1_000), mk(&lazy.domain, 1_100)]; // solicited
                                                                                   // busy: 4 late unsolicited; lazy: 1 early unsolicited.
        for k in 0..4 {
            arrivals.push(mk(&busy.domain, 2 * hour + k * 1_000_000));
        }
        arrivals.push(mk(&lazy.domain, 60_000));
        arrivals.sort_by_key(|a| a.at);
        let aggregates =
            CorrelationAggregates::from_arrivals(&registry, &arrivals, &SinkConfig::streaming());
        let report = ReuseReport::compute(&aggregates, DecoyProtocol::Dns);
        assert_eq!(report.triggered_decoys, 2);
        assert_eq!(
            report.late_active_decoys(),
            1,
            "only the busy decoy stays active"
        );
        assert_eq!(report.max_reuse(), 4);
        // Of the late-active decoys, all exceed 3...
        assert!((report.fraction_exceeding(3) - 1.0).abs() < 1e-9);
        // ...which is half of all triggered decoys.
        assert!((report.fraction_of_triggered_exceeding(3) - 0.5).abs() < 1e-9);
        assert_eq!(report.fraction_exceeding(10), 0.0);
    }
}
