//! Figure 5: breakdown of DNS decoys per destination, by outcome class
//! (which protocols the unsolicited requests used, and how much later they
//! came).

use serde::{Deserialize, Serialize};
use shadow_core::decoy::{DecoyProtocol, DecoyRegistry};
use shadow_core::sink::{
    CorrelationAggregates, OUTCOME_DNS_EARLY, OUTCOME_DNS_LATE, OUTCOME_HTTP_EARLY,
    OUTCOME_HTTP_LATE,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// The outcome class of one decoy, mirroring Figure 5's stacked groups.
/// Ordering matters: a decoy is assigned its "strongest" class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DecoyOutcome {
    /// No unsolicited request at all.
    Silent,
    /// Only DNS-DNS repeats, all within one hour.
    DnsRepeatsWithinHour,
    /// DNS-DNS repeats arriving after one hour (or later days).
    DnsRepeatsLater,
    /// At least one unsolicited HTTP or HTTPS request within one hour.
    HttpWithinHour,
    /// At least one unsolicited HTTP or HTTPS request after hours/days —
    /// the clearest probing signal ("falls beyond common implementation
    /// choices").
    HttpLater,
}

impl DecoyOutcome {
    pub fn label(self) -> &'static str {
        match self {
            DecoyOutcome::Silent => "silent",
            DecoyOutcome::DnsRepeatsWithinHour => "DNS<1h",
            DecoyOutcome::DnsRepeatsLater => "DNS>1h",
            DecoyOutcome::HttpWithinHour => "HTTP(S)<1h",
            DecoyOutcome::HttpLater => "HTTP(S)>1h",
        }
    }
}

/// Figure 5 for one destination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DestinationBreakdown {
    pub destination: String,
    pub decoys: usize,
    pub outcomes: BTreeMap<DecoyOutcome, usize>,
}

impl DestinationBreakdown {
    pub fn fraction(&self, outcome: DecoyOutcome) -> f64 {
        if self.decoys == 0 {
            return 0.0;
        }
        self.outcomes.get(&outcome).copied().unwrap_or(0) as f64 / self.decoys as f64
    }

    /// Fraction of decoys triggering anything unsolicited.
    pub fn shadowed_fraction(&self) -> f64 {
        1.0 - self.fraction(DecoyOutcome::Silent)
    }

    /// Fraction triggering HTTP(S) probes after an hour or later —
    /// Figure 5's "~50% for Yandex/114DNS" observation.
    pub fn late_http_fraction(&self) -> f64 {
        self.fraction(DecoyOutcome::HttpLater)
    }
}

/// Compute Figure 5 over all DNS decoys, grouped by destination name. The
/// strongest outcome per decoy is decoded from the capture-time fold's
/// outcome bits (the bit precedence mirrors the [`DecoyOutcome`] ordering);
/// a decoy with no fold stayed silent.
pub fn compute(
    registry: &DecoyRegistry,
    aggregates: &CorrelationAggregates,
    dest_names: &BTreeMap<Ipv4Addr, String>,
) -> Vec<DestinationBreakdown> {
    let mut per_dest: BTreeMap<String, DestinationBreakdown> = BTreeMap::new();
    for decoy in registry.iter() {
        if decoy.protocol != DecoyProtocol::Dns {
            continue;
        }
        let dest = dest_names
            .get(&decoy.dst())
            .cloned()
            .unwrap_or_else(|| decoy.dst().to_string());
        let entry = per_dest
            .entry(dest.clone())
            .or_insert(DestinationBreakdown {
                destination: dest,
                decoys: 0,
                outcomes: BTreeMap::new(),
            });
        entry.decoys += 1;
        let bits = aggregates
            .decoys
            .get(&decoy.domain)
            .map_or(0, |fold| fold.outcome_bits);
        let outcome = if bits & OUTCOME_HTTP_LATE != 0 {
            DecoyOutcome::HttpLater
        } else if bits & OUTCOME_HTTP_EARLY != 0 {
            DecoyOutcome::HttpWithinHour
        } else if bits & OUTCOME_DNS_LATE != 0 {
            DecoyOutcome::DnsRepeatsLater
        } else if bits & OUTCOME_DNS_EARLY != 0 {
            DecoyOutcome::DnsRepeatsWithinHour
        } else {
            DecoyOutcome::Silent
        };
        *entry.outcomes.entry(outcome).or_insert(0) += 1;
    }
    per_dest.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_core::sink::SinkConfig;
    use shadow_honeypot::capture::{Arrival, ArrivalProtocol};
    use shadow_netsim::time::SimTime;
    use shadow_packet::dns::DnsName;
    use shadow_vantage::platform::VpId;

    #[test]
    fn strongest_outcome_wins() {
        let zone = DnsName::parse("www.experiment.example").unwrap();
        let mut registry = DecoyRegistry::new(zone);
        let yandex = Ipv4Addr::new(77, 88, 8, 8);
        let rec = registry.register(
            VpId(1),
            Ipv4Addr::new(10, 0, 0, 1),
            yandex,
            DecoyProtocol::Dns,
            64,
            SimTime(1_000),
            None,
        );
        let quiet = registry.register(
            VpId(1),
            Ipv4Addr::new(10, 0, 0, 1),
            yandex,
            DecoyProtocol::Dns,
            64,
            SimTime(2_000),
            None,
        );
        let mk = |domain: &DnsName, at_ms: u64, proto: ArrivalProtocol| Arrival {
            at: SimTime(at_ms),
            src: Ipv4Addr::new(9, 9, 9, 9),
            protocol: proto,
            domain: domain.clone(),
            http_path: None,
            honeypot: "AUTH".into(),
        };
        let arrivals = vec![
            mk(&rec.domain, 2_000, ArrivalProtocol::Dns), // solicited
            mk(&quiet.domain, 3_000, ArrivalProtocol::Dns), // solicited
            mk(&rec.domain, 30_000, ArrivalProtocol::Dns), // DNS<1h
            mk(&rec.domain, 90_000_000, ArrivalProtocol::Https), // HTTP>1h (25h)
        ];
        let aggregates =
            CorrelationAggregates::from_arrivals(&registry, &arrivals, &SinkConfig::streaming());
        let mut names = BTreeMap::new();
        names.insert(yandex, "Yandex".to_string());
        let rows = compute(&registry, &aggregates, &names);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.decoys, 2);
        // The first decoy escalates to HttpLater, the second stays silent.
        assert_eq!(row.outcomes[&DecoyOutcome::HttpLater], 1);
        assert_eq!(row.outcomes[&DecoyOutcome::Silent], 1);
        assert!((row.shadowed_fraction() - 0.5).abs() < 1e-9);
        assert!((row.late_http_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn outcome_ordering_matches_strength() {
        assert!(DecoyOutcome::Silent < DecoyOutcome::DnsRepeatsWithinHour);
        assert!(DecoyOutcome::DnsRepeatsWithinHour < DecoyOutcome::DnsRepeatsLater);
        assert!(DecoyOutcome::DnsRepeatsLater < DecoyOutcome::HttpWithinHour);
        assert!(DecoyOutcome::HttpWithinHour < DecoyOutcome::HttpLater);
    }
}
