//! Protocol combinations (the paper's `Decoy-Request` labels) — overall and
//! per observer network.
//!
//! Section 5.2: "Protocol combinations differ among observer networks: when
//! HTTP decoys are observed by devices within AS4134, 66% (17%) of them
//! result in unsolicited HTTP(S) requests; all HTTP decoys observed by
//! AS29988 produce unsolicited DNS requests only."

use serde::{Deserialize, Serialize};
use shadow_core::correlate::{Combo, PathKey};
use shadow_core::phase2::TracerouteResult;
use shadow_core::sink::CorrelationAggregates;
use shadow_geo::GeoDb;
use shadow_honeypot::capture::ArrivalProtocol;
use std::collections::BTreeMap;

/// Counts per `Decoy-Request` combination (e.g. `DNS-HTTP`), keyed by the
/// typed [`Combo`] (its `Display` is the paper's label): the sink's
/// per-path counters summed over paths.
pub fn combo_counts(aggregates: &CorrelationAggregates) -> BTreeMap<Combo, usize> {
    let mut out = BTreeMap::new();
    for (&(path, arrival), &count) in &aggregates.path_combos {
        *out.entry(Combo::new(path.protocol, arrival)).or_insert(0) += count as usize;
    }
    out
}

/// Per-observer-AS protocol mixes for on-wire observers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObserverCombos {
    /// observer AS → arrival protocol → unsolicited count.
    pub per_as: BTreeMap<u32, BTreeMap<String, usize>>,
}

impl ObserverCombos {
    /// Attribute each unsolicited request on a traced path to the observer
    /// AS Phase II localized there (on-wire observers only), from the
    /// sink's per-path × arrival-protocol counters.
    pub fn compute(
        aggregates: &CorrelationAggregates,
        traceroutes: &[TracerouteResult],
        geo: &GeoDb,
    ) -> Self {
        let mut observer_as: BTreeMap<PathKey, u32> = BTreeMap::new();
        for r in traceroutes {
            if r.normalized_hop == Some(10) {
                continue; // destination-side: not an on-the-wire device
            }
            if let Some(addr) = r.observer_addr {
                if let Some(asn) = geo.asn_of(addr) {
                    observer_as.insert(r.path, asn.0);
                }
            }
        }
        let mut per_as: BTreeMap<u32, BTreeMap<String, usize>> = BTreeMap::new();
        for (&(path, arrival_protocol), &count) in &aggregates.path_combos {
            let Some(&asn) = observer_as.get(&path) else {
                continue;
            };
            *per_as
                .entry(asn)
                .or_default()
                .entry(arrival_protocol.as_str().to_string())
                .or_insert(0) += count as usize;
        }
        Self { per_as }
    }

    /// Fraction of one AS's unsolicited requests using `protocol`.
    pub fn protocol_fraction(&self, asn: u32, protocol: ArrivalProtocol) -> f64 {
        let Some(mix) = self.per_as.get(&asn) else {
            return 0.0;
        };
        let total: usize = mix.values().sum();
        if total == 0 {
            return 0.0;
        }
        mix.get(protocol.as_str()).copied().unwrap_or(0) as f64 / total as f64
    }

    /// Is this AS's probing DNS-only (the AS29988/AS40444 shape)?
    pub fn dns_only(&self, asn: u32) -> bool {
        self.per_as
            .get(&asn)
            .map(|mix| mix.keys().all(|k| k == "DNS") && !mix.is_empty())
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_core::decoy::{DecoyProtocol, DecoyRegistry};
    use shadow_core::sink::SinkConfig;
    use shadow_geo::country::cc;
    use shadow_geo::{AsKind, Asn, GeoDb, Ipv4Prefix};
    use shadow_honeypot::capture::Arrival;
    use shadow_netsim::time::SimTime;
    use shadow_packet::dns::DnsName;
    use shadow_vantage::platform::VpId;
    use std::net::Ipv4Addr;

    #[test]
    fn combos_and_observer_mixes() {
        let zone = DnsName::parse("www.experiment.example").unwrap();
        let mut registry = DecoyRegistry::new(zone);
        let site = Ipv4Addr::new(60, 1, 0, 1);
        let rec = registry.register(
            VpId(1),
            Ipv4Addr::new(10, 0, 0, 1),
            site,
            DecoyProtocol::Http,
            64,
            SimTime(0),
        );
        let mk = |at: u64, proto: ArrivalProtocol| Arrival {
            at: SimTime(at),
            src: Ipv4Addr::new(61, 0, 0, 9),
            protocol: proto,
            domain: rec.domain.clone(),
            http_path: None,
            honeypot: "US".into(),
        };
        let arrivals = vec![
            mk(5_000, ArrivalProtocol::Http),
            mk(6_000, ArrivalProtocol::Http),
            mk(7_000, ArrivalProtocol::Dns),
        ];
        let aggregates =
            CorrelationAggregates::from_arrivals(&registry, &arrivals, &SinkConfig::streaming());

        let combos = combo_counts(&aggregates);
        assert_eq!(combos[&Combo::HttpHttp], 2);
        assert_eq!(combos[&Combo::HttpDns], 1);
        assert_eq!(Combo::HttpHttp.to_string(), "HTTP-HTTP");

        // Observer localized at AS4134 on this path.
        let mut geo = GeoDb::new();
        geo.insert(shadow_geo::db::record(
            Ipv4Prefix::new(Ipv4Addr::new(61, 0, 0, 0), 8).unwrap(),
            Asn(4134),
            cc("CN"),
            AsKind::IspBackbone,
        ));
        let traceroutes = vec![TracerouteResult {
            path: PathKey {
                vp: VpId(1),
                dst: site,
                protocol: DecoyProtocol::Http,
            },
            observer_hop: Some(4),
            dest_distance: Some(8),
            normalized_hop: Some(5),
            observer_addr: Some(Ipv4Addr::new(61, 0, 0, 1)),
            revealed_routers: vec![],
        }];
        let mixes = ObserverCombos::compute(&aggregates, &traceroutes, &geo);
        assert!((mixes.protocol_fraction(4134, ArrivalProtocol::Http) - 2.0 / 3.0).abs() < 1e-9);
        assert!(!mixes.dns_only(4134));
    }

    #[test]
    fn dns_only_observer_detected() {
        let mut combos = ObserverCombos::default();
        combos
            .per_as
            .entry(29988)
            .or_default()
            .insert("DNS".to_string(), 7);
        assert!(combos.dns_only(29988));
        assert_eq!(combos.protocol_fraction(29988, ArrivalProtocol::Dns), 1.0);
        assert!(!combos.dns_only(12345), "unknown AS is not DNS-only");
    }
}
