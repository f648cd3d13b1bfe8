//! Correlation: map every honeypot arrival back to its decoy and decide
//! whether it is *unsolicited* (Section 3's rules). The capture-time
//! [`crate::sink::CorrelationSink`] drives the rules per arrival and folds
//! the problematic client-server paths of Figure 3 as it goes.

use crate::decoy::{DecoyProtocol, DecoyRecord};
use serde::{Deserialize, Serialize};
use shadow_honeypot::capture::{Arrival, ArrivalProtocol};
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_vantage::platform::VpId;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Why an arrival counts as unsolicited (the paper's rules i–iii), or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum UnsolicitedLabel {
    /// The expected one-time resolution of a DNS decoy.
    SolicitedResolution,
    /// Rule (i): request and decoy protocols differ.
    CrossProtocol,
    /// Rule (ii): HTTP/TLS requests are never solicited at honeypots.
    HttpTlsArrival,
    /// Rule (iii): a DNS query whose unique name appeared in an earlier
    /// DNS query.
    RepeatedDnsQuery,
    /// Appendix E: a near-simultaneous duplicate indicating on-path
    /// request replication (interception), filtered out of shadowing.
    ReplicationNoise,
}

impl UnsolicitedLabel {
    pub fn is_unsolicited(self) -> bool {
        matches!(
            self,
            UnsolicitedLabel::CrossProtocol
                | UnsolicitedLabel::HttpTlsArrival
                | UnsolicitedLabel::RepeatedDnsQuery
        )
    }

    /// The rule name as used in metrics/journal keys (same spelling as the
    /// `Debug` form, without a formatting allocation).
    pub fn as_str(self) -> &'static str {
        match self {
            UnsolicitedLabel::SolicitedResolution => "SolicitedResolution",
            UnsolicitedLabel::CrossProtocol => "CrossProtocol",
            UnsolicitedLabel::HttpTlsArrival => "HttpTlsArrival",
            UnsolicitedLabel::RepeatedDnsQuery => "RepeatedDnsQuery",
            UnsolicitedLabel::ReplicationNoise => "ReplicationNoise",
        }
    }

    /// The journal's one-byte form of [`Self::as_str`].
    pub fn journal_label(self) -> shadow_telemetry::Label {
        use shadow_telemetry::Label;
        match self {
            UnsolicitedLabel::SolicitedResolution => Label::SolicitedResolution,
            UnsolicitedLabel::CrossProtocol => Label::CrossProtocol,
            UnsolicitedLabel::HttpTlsArrival => Label::HttpTlsArrival,
            UnsolicitedLabel::RepeatedDnsQuery => Label::RepeatedDnsQuery,
            UnsolicitedLabel::ReplicationNoise => Label::ReplicationNoise,
        }
    }
}

/// The paper's protocol-combination label (decoy protocol × arrival
/// protocol, e.g. "DNS-HTTP") as a `Copy` key. Aggregation loops key
/// counts by combination; formatting a fresh `String` per request just to
/// use it as a map key was pure allocation overhead. Variants are declared
/// in the alphabetical order of their display forms, so `Ord` sorts a
/// `BTreeMap<Combo, _>` exactly like the old string-keyed maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Combo {
    DnsDns,
    DnsHttp,
    DnsHttps,
    HttpDns,
    HttpHttp,
    HttpHttps,
    TlsDns,
    TlsHttp,
    TlsHttps,
}

impl Combo {
    pub fn new(decoy: DecoyProtocol, arrival: ArrivalProtocol) -> Self {
        match (decoy, arrival) {
            (DecoyProtocol::Dns, ArrivalProtocol::Dns) => Combo::DnsDns,
            (DecoyProtocol::Dns, ArrivalProtocol::Http) => Combo::DnsHttp,
            (DecoyProtocol::Dns, ArrivalProtocol::Https) => Combo::DnsHttps,
            (DecoyProtocol::Http, ArrivalProtocol::Dns) => Combo::HttpDns,
            (DecoyProtocol::Http, ArrivalProtocol::Http) => Combo::HttpHttp,
            (DecoyProtocol::Http, ArrivalProtocol::Https) => Combo::HttpHttps,
            (DecoyProtocol::Tls, ArrivalProtocol::Dns) => Combo::TlsDns,
            (DecoyProtocol::Tls, ArrivalProtocol::Http) => Combo::TlsHttp,
            (DecoyProtocol::Tls, ArrivalProtocol::Https) => Combo::TlsHttps,
        }
    }

    pub fn decoy(self) -> DecoyProtocol {
        match self {
            Combo::DnsDns | Combo::DnsHttp | Combo::DnsHttps => DecoyProtocol::Dns,
            Combo::HttpDns | Combo::HttpHttp | Combo::HttpHttps => DecoyProtocol::Http,
            Combo::TlsDns | Combo::TlsHttp | Combo::TlsHttps => DecoyProtocol::Tls,
        }
    }

    pub fn arrival(self) -> ArrivalProtocol {
        match self {
            Combo::DnsDns | Combo::HttpDns | Combo::TlsDns => ArrivalProtocol::Dns,
            Combo::DnsHttp | Combo::HttpHttp | Combo::TlsHttp => ArrivalProtocol::Http,
            Combo::DnsHttps | Combo::HttpHttps | Combo::TlsHttps => ArrivalProtocol::Https,
        }
    }
}

impl std::fmt::Display for Combo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}", self.decoy().as_str(), self.arrival().as_str())
    }
}

impl PartialEq<&str> for Combo {
    fn eq(&self, other: &&str) -> bool {
        let (d, a) = other.split_once('-').unwrap_or(("", ""));
        self.decoy().as_str() == d && self.arrival().as_str() == a
    }
}

/// One arrival resolved against the decoy registry. No pipeline stage
/// builds these (every analysis reads the streamed aggregates); the type
/// stays because the repository benchmark (`perfbench/`) builds
/// `StudyOutcome::correlated` as an empty vector of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelatedRequest {
    pub arrival: Arrival,
    pub decoy: DecoyRecord,
    /// Time between decoy emission and this arrival — the paper's proxy
    /// for how long the data was retained (Figures 4 and 7).
    pub interval: SimDuration,
    pub label: UnsolicitedLabel,
}

/// Identity of one client-server path (per decoy protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PathKey {
    pub vp: VpId,
    pub dst: Ipv4Addr,
    pub protocol: DecoyProtocol,
}

/// The §3 classification rules as an incremental state machine: feed it
/// (decoy, arrival) pairs in capture-time order and it labels each one
/// immediately. The streaming [`crate::sink::CorrelationSink`] drives it
/// per capture.
///
/// The only order-sensitive state is the first-seen time per DNS-decoy
/// domain. All captures for one domain happen at the single authoritative
/// host in simulated-time order, so any shard sees the same first-seen
/// time; two arrivals in the same millisecond may swap which of them is
/// labeled `SolicitedResolution` versus `ReplicationNoise`, but both labels
/// are non-unsolicited, so every unsolicited-derived aggregate is invariant
/// under the swap.
#[derive(Debug, Default)]
pub struct StreamingClassifier {
    replication_window: SimDuration,
    first_dns_seen: HashMap<shadow_packet::dns::DnsName, SimTime>,
}

impl StreamingClassifier {
    /// Appendix E's default replication window (1,500 ms).
    pub const DEFAULT_REPLICATION_WINDOW: SimDuration = SimDuration(1_500);

    pub fn new(replication_window: SimDuration) -> Self {
        Self {
            replication_window,
            first_dns_seen: HashMap::new(),
        }
    }

    /// Label one arrival already resolved to its decoy. Must be called in
    /// capture-time order per domain.
    pub fn classify(&mut self, decoy: &DecoyRecord, arrival: &Arrival) -> UnsolicitedLabel {
        match arrival.protocol {
            ArrivalProtocol::Http | ArrivalProtocol::Https => UnsolicitedLabel::HttpTlsArrival,
            ArrivalProtocol::Dns => {
                if decoy.protocol != DecoyProtocol::Dns {
                    UnsolicitedLabel::CrossProtocol
                } else {
                    match self.first_dns_seen.get(&decoy.domain) {
                        None => {
                            self.first_dns_seen.insert(decoy.domain.clone(), arrival.at);
                            UnsolicitedLabel::SolicitedResolution
                        }
                        Some(&first_at) => {
                            if arrival.at.since(first_at) <= self.replication_window {
                                UnsolicitedLabel::ReplicationNoise
                            } else {
                                UnsolicitedLabel::RepeatedDnsQuery
                            }
                        }
                    }
                }
            }
        }
    }

    /// Domains with classifier state (the sink-depth proxy).
    pub fn tracked_domains(&self) -> usize {
        self.first_dns_seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoy::DecoyRegistry;
    use shadow_packet::dns::DnsName;

    #[test]
    fn journal_labels_render_as_str() {
        for label in [
            UnsolicitedLabel::SolicitedResolution,
            UnsolicitedLabel::CrossProtocol,
            UnsolicitedLabel::HttpTlsArrival,
            UnsolicitedLabel::RepeatedDnsQuery,
            UnsolicitedLabel::ReplicationNoise,
        ] {
            assert_eq!(label.journal_label().as_str(), label.as_str());
        }
    }

    fn zone() -> DnsName {
        DnsName::parse("www.experiment.example").unwrap()
    }

    fn decoy(protocol: DecoyProtocol) -> DecoyRecord {
        DecoyRegistry::new(zone()).register(
            VpId(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(77, 88, 8, 8),
            protocol,
            64,
            SimTime(1_000),
        )
    }

    fn arrival(domain: &DnsName, at: u64, proto: ArrivalProtocol) -> Arrival {
        Arrival {
            at: SimTime(at),
            src: Ipv4Addr::new(8, 8, 8, 8),
            protocol: proto,
            domain: domain.clone(),
            http_path: None,
            honeypot: "AUTH".into(),
        }
    }

    /// Label `(at, protocol)` arrivals for one decoy in order.
    fn labels(decoy: &DecoyRecord, stream: &[(u64, ArrivalProtocol)]) -> Vec<UnsolicitedLabel> {
        let mut classifier =
            StreamingClassifier::new(StreamingClassifier::DEFAULT_REPLICATION_WINDOW);
        stream
            .iter()
            .map(|&(at, proto)| classifier.classify(decoy, &arrival(&decoy.domain, at, proto)))
            .collect()
    }

    #[test]
    fn first_dns_arrival_is_solicited_then_repeats_are_not() {
        let rec = decoy(DecoyProtocol::Dns);
        let out = labels(
            &rec,
            &[
                (2_000, ArrivalProtocol::Dns),
                (60_000, ArrivalProtocol::Dns),
                (86_400_000, ArrivalProtocol::Dns),
            ],
        );
        assert_eq!(
            out,
            [
                UnsolicitedLabel::SolicitedResolution,
                UnsolicitedLabel::RepeatedDnsQuery,
                UnsolicitedLabel::RepeatedDnsQuery,
            ]
        );
    }

    #[test]
    fn http_and_tls_arrivals_always_unsolicited() {
        let rec = decoy(DecoyProtocol::Dns);
        let out = labels(
            &rec,
            &[
                (5_000, ArrivalProtocol::Http),
                (6_000, ArrivalProtocol::Https),
            ],
        );
        assert!(out.iter().all(|&l| l == UnsolicitedLabel::HttpTlsArrival));
        assert_eq!(Combo::new(rec.protocol, ArrivalProtocol::Http), "DNS-HTTP");
        assert_eq!(
            Combo::new(rec.protocol, ArrivalProtocol::Https),
            "DNS-HTTPS"
        );
    }

    #[test]
    fn dns_arrival_for_http_decoy_is_cross_protocol() {
        let rec = decoy(DecoyProtocol::Http);
        let out = labels(&rec, &[(9_000, ArrivalProtocol::Dns)]);
        assert_eq!(out, [UnsolicitedLabel::CrossProtocol]);
        assert!(out[0].is_unsolicited());
        assert_eq!(Combo::new(rec.protocol, ArrivalProtocol::Dns), "HTTP-DNS");
    }

    #[test]
    fn replication_noise_window() {
        let rec = decoy(DecoyProtocol::Dns);
        let out = labels(
            &rec,
            &[
                (2_000, ArrivalProtocol::Dns),
                (2_500, ArrivalProtocol::Dns),  // replication
                (30_000, ArrivalProtocol::Dns), // retry
            ],
        );
        assert_eq!(out[1], UnsolicitedLabel::ReplicationNoise);
        assert!(!out[1].is_unsolicited());
        assert_eq!(out[2], UnsolicitedLabel::RepeatedDnsQuery);
    }

    #[test]
    fn classifier_state_is_per_domain() {
        let mut registry = DecoyRegistry::new(zone());
        let mut register = |at| {
            registry.register(
                VpId(1),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(77, 88, 8, 8),
                DecoyProtocol::Dns,
                64,
                SimTime(at),
            )
        };
        let (a, b) = (register(1_000), register(2_000));
        let mut classifier =
            StreamingClassifier::new(StreamingClassifier::DEFAULT_REPLICATION_WINDOW);
        let mut classify = |d: &DecoyRecord, at| {
            classifier.classify(d, &arrival(&d.domain, at, ArrivalProtocol::Dns))
        };
        assert_eq!(classify(&a, 3_000), UnsolicitedLabel::SolicitedResolution);
        assert_eq!(classify(&a, 90_000), UnsolicitedLabel::RepeatedDnsQuery);
        assert_eq!(classify(&b, 95_000), UnsolicitedLabel::SolicitedResolution);
        assert_eq!(classifier.tracked_domains(), 2);
    }
}
