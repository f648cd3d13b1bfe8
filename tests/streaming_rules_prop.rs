//! Property test for the three §3 unsolicited-classification rules as the
//! streaming classifier applies them at capture time:
//!
//!  1. HTTP/HTTPS arrivals are always `HttpTlsArrival`;
//!  2. DNS arrivals for HTTP/TLS decoys are `CrossProtocol`;
//!  3. DNS arrivals for DNS decoys split on the first-seen resolution —
//!     first is `SolicitedResolution`, within the replication window is
//!     `ReplicationNoise`, later is `RepeatedDnsQuery`.
//!
//! The streamed one-pass classifier (and the aggregate fold built on it)
//! must agree with a naive whole-vector reference on randomly interleaved
//! multi-decoy arrival streams — and so must every report built from the
//! aggregates alone (Figure 6 origins, §5 probing, Cases I–III), against
//! naive per-request versions of those reports over the whole labeled
//! vector (below).

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use traffic_shadowing::shadow_analysis::cases::{AnycastCase, CnObserverCase, ResolverCase};
use traffic_shadowing::shadow_analysis::{OriginAsReport, ProbingReport};
use traffic_shadowing::shadow_core::correlate::{
    CorrelatedRequest, StreamingClassifier, UnsolicitedLabel,
};
use traffic_shadowing::shadow_core::decoy::{DecoyProtocol, DecoyRecord, DecoyRegistry};
use traffic_shadowing::shadow_core::sink::{CorrelationAggregates, SinkConfig, INTERVAL_EDGES_MS};
use traffic_shadowing::shadow_geo::country::cc;
use traffic_shadowing::shadow_geo::{Asn, CountryCode, GeoDb, GeoRecord, HostingLabel, Ipv4Prefix};
use traffic_shadowing::shadow_honeypot::capture::{Arrival, ArrivalProtocol};
use traffic_shadowing::shadow_intel::{classify_path, Blocklist, PayloadClass};
use traffic_shadowing::shadow_netsim::time::{SimDuration, SimTime};
use traffic_shadowing::shadow_netsim::topology::NodeId;
use traffic_shadowing::shadow_packet::dns::DnsName;
use traffic_shadowing::shadow_vantage::platform::{Platform, VantagePoint, VpId};
use traffic_shadowing::shadow_vantage::providers::Market;

const WINDOW: SimDuration = StreamingClassifier::DEFAULT_REPLICATION_WINDOW;

/// One generated arrival: (decoy index, offset after decoy emission,
/// arrival protocol, source index, HTTP path index).
type RawArrival = (usize, u64, u8, u8, u8);

/// Origin addresses: Google (US), CHINANET (CN), a DE host, and an
/// unrouted address with no AS.
const SOURCES: [Ipv4Addr; 6] = [
    Ipv4Addr::new(9, 9, 9, 1),
    Ipv4Addr::new(9, 9, 9, 2),
    Ipv4Addr::new(61, 0, 0, 9),
    Ipv4Addr::new(61, 4, 0, 1),
    Ipv4Addr::new(62, 0, 0, 1),
    Ipv4Addr::new(100, 64, 0, 1),
];

/// Probed paths: benign, enumeration, and an exploit payload. The last
/// slot leaves the HTTP arrival without a path.
const PATHS: [&str; 5] = ["/", "/admin/", "/.git/config", "/q?id=1 union select 1", ""];

fn build_registry(protocols: &[DecoyProtocol]) -> (DecoyRegistry, Vec<DecoyRecord>) {
    let zone = DnsName::parse("www.experiment.example").unwrap();
    let mut registry = DecoyRegistry::new(zone);
    let records = protocols
        .iter()
        .enumerate()
        .map(|(i, &protocol)| {
            registry.register(
                VpId(1 + (i as u32 % 3)),
                Ipv4Addr::new(10, 0, 0, 1 + (i as u8 % 3)),
                Ipv4Addr::new(77, 88, 8, 1 + (i as u8 % 5)),
                protocol,
                64,
                SimTime((i as u64) * 700),
                None,
            )
        })
        .collect();
    (registry, records)
}

fn build_arrivals(records: &[DecoyRecord], raw: &[RawArrival]) -> Vec<Arrival> {
    let mut arrivals: Vec<Arrival> = raw
        .iter()
        .map(|&(decoy_idx, offset_ms, proto, src, path)| {
            let rec = &records[decoy_idx % records.len()];
            let protocol = match proto % 3 {
                0 => ArrivalProtocol::Dns,
                1 => ArrivalProtocol::Http,
                _ => ArrivalProtocol::Https,
            };
            let path = PATHS[path as usize % PATHS.len()];
            Arrival {
                at: rec.planned_at + SimDuration::from_millis(offset_ms),
                src: SOURCES[src as usize % SOURCES.len()],
                protocol,
                domain: rec.domain.clone(),
                http_path: (protocol == ArrivalProtocol::Http && !path.is_empty())
                    .then(|| path.to_string()),
                honeypot: "AUTH".into(),
            }
        })
        .collect();
    // Capture order is time order; ties resolve on every other field.
    arrivals.sort_by(|a, b| {
        (a.at, &a.domain, a.src, a.protocol, &a.http_path).cmp(&(
            b.at,
            &b.domain,
            b.src,
            b.protocol,
            &b.http_path,
        ))
    });
    arrivals
}

/// The naive reference: label each arrival by re-deriving the first-seen
/// DNS resolution time from the whole vector, with no incremental state.
fn naive_labels(registry: &DecoyRegistry, arrivals: &[Arrival]) -> Vec<UnsolicitedLabel> {
    // First DNS arrival per DNS-decoy domain, by position in the sorted
    // stream (ties beyond the first occurrence are later arrivals).
    let mut first_dns: BTreeMap<&DnsName, SimTime> = BTreeMap::new();
    for a in arrivals {
        if a.protocol != ArrivalProtocol::Dns {
            continue;
        }
        let Some(decoy) = registry.lookup(&a.domain) else {
            continue;
        };
        if decoy.protocol == DecoyProtocol::Dns {
            first_dns.entry(&a.domain).or_insert(a.at);
        }
    }
    let mut seen_first: BTreeMap<&DnsName, bool> = BTreeMap::new();
    arrivals
        .iter()
        .map(|a| {
            let decoy = registry.lookup(&a.domain).expect("generated domains");
            match a.protocol {
                ArrivalProtocol::Http | ArrivalProtocol::Https => UnsolicitedLabel::HttpTlsArrival,
                ArrivalProtocol::Dns if decoy.protocol != DecoyProtocol::Dns => {
                    UnsolicitedLabel::CrossProtocol
                }
                ArrivalProtocol::Dns => {
                    let first = first_dns[&a.domain];
                    let is_first =
                        !std::mem::replace(seen_first.entry(&a.domain).or_insert(false), true);
                    if is_first {
                        UnsolicitedLabel::SolicitedResolution
                    } else if a.at.since(first) <= WINDOW {
                        UnsolicitedLabel::ReplicationNoise
                    } else {
                        UnsolicitedLabel::RepeatedDnsQuery
                    }
                }
            }
        })
        .collect()
}

/// The naive reference's request vector: every arrival resolved to its
/// decoy and labeled by [`naive_labels`].
fn correlate(registry: &DecoyRegistry, arrivals: &[Arrival]) -> Vec<CorrelatedRequest> {
    naive_labels(registry, arrivals)
        .into_iter()
        .zip(arrivals)
        .map(|(label, arrival)| {
            let decoy = registry.lookup(&arrival.domain).expect("generated domains");
            CorrelatedRequest {
                arrival: arrival.clone(),
                decoy: decoy.clone(),
                interval: arrival.at.since(decoy.planned_at),
                label,
            }
        })
        .collect()
}

fn dst(last_octet: u8) -> Ipv4Addr {
    Ipv4Addr::new(77, 88, 8, last_octet)
}

fn geo() -> GeoDb {
    let mut geo = GeoDb::new();
    for (base, len, asn, country) in [
        (Ipv4Addr::new(9, 0, 0, 0), 8, 15169, "US"),
        (Ipv4Addr::new(61, 0, 0, 0), 8, 4134, "CN"),
        (Ipv4Addr::new(61, 4, 0, 0), 16, 4837, "CN"),
        (Ipv4Addr::new(62, 0, 0, 0), 8, 3320, "DE"),
    ] {
        geo.insert(GeoRecord {
            prefix: Ipv4Prefix::new(base, len).unwrap(),
            asn: Asn(asn),
            country: cc(country),
            hosting: HostingLabel::Hosting,
        });
    }
    geo.build();
    geo
}

fn platform() -> Platform {
    let vp = |id: u32, country: &str| VantagePoint {
        id: VpId(id),
        provider: "X",
        market: Market::Global,
        node: NodeId(id),
        addr: Ipv4Addr::new(10, 0, 0, id as u8),
        advertised_country: cc(country),
        country: cc(country),
        ttl_rewrite: None,
        residential: false,
    };
    Platform::new(vec![vp(1, "CN"), vp(2, "DE"), vp(3, "US")])
}

// ---------------------------------------------------------------------------
// The reports computed per request over the whole labeled vector. Case I's
// median and tail follow the histogram's definitions: the median is the
// upper edge of the bucket that holds it, the tail counts > 10 d.

fn naive_origins(
    correlated: &[CorrelatedRequest],
    dests: &BTreeMap<Ipv4Addr, String>,
    geo: &GeoDb,
    blocklist: &Blocklist,
) -> OriginAsReport {
    let mut per_destination: BTreeMap<String, BTreeMap<u32, usize>> = BTreeMap::new();
    let mut origin_ips: BTreeMap<String, BTreeSet<Ipv4Addr>> = BTreeMap::new();
    for req in correlated {
        if req.decoy.protocol != DecoyProtocol::Dns || !req.label.is_unsolicited() {
            continue;
        }
        let Some(dest_name) = dests.get(&req.decoy.dst()) else {
            continue;
        };
        let src = req.arrival.src;
        if let Some(asn) = geo.asn_of(src) {
            *per_destination
                .entry(dest_name.clone())
                .or_default()
                .entry(asn.0)
                .or_insert(0) += 1;
        }
        origin_ips
            .entry(req.arrival.protocol.as_str().to_string())
            .or_default()
            .insert(src);
    }
    let blocklist_rates = origin_ips
        .iter()
        .map(|(proto, ips)| (proto.clone(), blocklist.hit_rate(ips.iter())))
        .collect();
    OriginAsReport {
        per_destination,
        origin_ips,
        blocklist_rates,
    }
}

fn naive_probing(
    correlated: &[CorrelatedRequest],
    decoy_protocol: DecoyProtocol,
    blocklist: &Blocklist,
) -> ProbingReport {
    let mut report = ProbingReport::default();
    for req in correlated {
        if req.decoy.protocol != decoy_protocol || !req.label.is_unsolicited() {
            continue;
        }
        if req.arrival.protocol == ArrivalProtocol::Http {
            report.http_requests += 1;
            if let Some(path) = &req.arrival.http_path {
                match classify_path(path) {
                    PayloadClass::Benign => report.benign += 1,
                    PayloadClass::Enumeration => report.enumeration += 1,
                    PayloadClass::Exploit => report.exploits += 1,
                }
                *report.top_paths.entry(path.clone()).or_insert(0) += 1;
            }
        }
        report
            .origin_ips
            .entry(req.arrival.protocol.as_str().to_string())
            .or_default()
            .insert(req.arrival.src);
    }
    report.blocklist_rates = report
        .origin_ips
        .iter()
        .map(|(proto, ips)| (proto.clone(), blocklist.hit_rate(ips.iter())))
        .collect();
    report
}

fn naive_resolver_case(
    registry: &DecoyRegistry,
    correlated: &[CorrelatedRequest],
    dst: Ipv4Addr,
    destination: &str,
) -> ResolverCase {
    let decoys = registry
        .iter()
        .filter(|d| d.protocol == DecoyProtocol::Dns && d.dst() == dst)
        .count();
    let mut shadowed: BTreeSet<&str> = BTreeSet::new();
    let mut http_probed: BTreeSet<&str> = BTreeSet::new();
    let mut intervals: Vec<u64> = Vec::new();
    for req in correlated {
        if req.decoy.protocol != DecoyProtocol::Dns
            || req.decoy.dst() != dst
            || !req.label.is_unsolicited()
        {
            continue;
        }
        shadowed.insert(req.decoy.domain.as_str());
        intervals.push(req.interval.millis());
        if matches!(
            req.arrival.protocol,
            ArrivalProtocol::Http | ArrivalProtocol::Https
        ) {
            http_probed.insert(req.decoy.domain.as_str());
        }
    }
    intervals.sort();
    let median_interval_ms = intervals.get(intervals.len() / 2).and_then(|&median| {
        INTERVAL_EDGES_MS
            .iter()
            .copied()
            .find(|&edge| median <= edge)
    });
    let ten_days = SimDuration::from_days(10).millis();
    let ten_day_tail = if intervals.is_empty() {
        0.0
    } else {
        intervals.iter().filter(|&&i| i > ten_days).count() as f64 / intervals.len() as f64
    };
    ResolverCase {
        destination: destination.to_string(),
        decoys,
        shadowed_decoys: shadowed.len(),
        http_probed_decoys: http_probed.len(),
        median_interval_ms,
        ten_day_tail,
    }
}

fn naive_anycast(
    registry: &DecoyRegistry,
    correlated: &[CorrelatedRequest],
    platform: &Platform,
    dst: Ipv4Addr,
    split: CountryCode,
) -> AnycastCase {
    let country_of: BTreeMap<VpId, CountryCode> =
        platform.vps.iter().map(|vp| (vp.id, vp.country)).collect();
    let problematic: BTreeSet<VpId> = correlated
        .iter()
        .filter(|r| {
            r.decoy.protocol == DecoyProtocol::Dns
                && r.decoy.dst() == dst
                && r.label.is_unsolicited()
        })
        .map(|r| r.decoy.vp)
        .collect();
    let mut seen: BTreeSet<VpId> = BTreeSet::new();
    let (mut in_country, mut elsewhere) = ((0, 0), (0, 0));
    for decoy in registry.iter() {
        if decoy.protocol != DecoyProtocol::Dns || decoy.dst() != dst || !seen.insert(decoy.vp) {
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
    AnycastCase {
        destination: "114DNS".to_string(),
        in_country,
        elsewhere,
    }
}

fn naive_cn_origin_fraction(correlated: &[CorrelatedRequest], geo: &GeoDb) -> f64 {
    let mut cn_orig = 0usize;
    let mut total_orig = 0usize;
    for req in correlated {
        if matches!(req.decoy.protocol, DecoyProtocol::Http | DecoyProtocol::Tls)
            && req.label.is_unsolicited()
        {
            total_orig += 1;
            if geo
                .country_of(req.arrival.src)
                .map(|c| c.as_str() == "CN")
                .unwrap_or(false)
            {
                cn_orig += 1;
            }
        }
    }
    if total_orig == 0 {
        0.0
    } else {
        cn_orig as f64 / total_orig as f64
    }
}

/// Every report built from `aggregates` equals its naive reference over
/// the whole arrival vector.
fn assert_reports_match(
    registry: &DecoyRegistry,
    arrivals: &[Arrival],
    aggregates: &CorrelationAggregates,
) -> Result<(), TestCaseError> {
    let correlated = correlate(registry, arrivals);
    let geo = geo();
    let blocklist = Blocklist::from_addrs([SOURCES[2], SOURCES[4]]);
    let dests: BTreeMap<Ipv4Addr, String> = BTreeMap::from([
        (dst(1), "Yandex".to_string()),
        (dst(2), "114DNS".to_string()),
    ]);
    prop_assert_eq!(
        OriginAsReport::compute(aggregates, &dests, &geo, &blocklist),
        naive_origins(&correlated, &dests, &geo, &blocklist)
    );
    for protocol in [DecoyProtocol::Dns, DecoyProtocol::Http, DecoyProtocol::Tls] {
        prop_assert_eq!(
            ProbingReport::compute(aggregates, protocol, &blocklist),
            naive_probing(&correlated, protocol, &blocklist)
        );
    }
    for octet in 1..=5 {
        prop_assert_eq!(
            ResolverCase::compute(registry, aggregates, dst(octet), "resolver"),
            naive_resolver_case(registry, &correlated, dst(octet), "resolver")
        );
    }
    prop_assert_eq!(
        AnycastCase::compute(
            registry,
            aggregates,
            &platform(),
            dst(2),
            "114DNS",
            cc("CN")
        ),
        naive_anycast(registry, &correlated, &platform(), dst(2), cc("CN"))
    );
    prop_assert_eq!(
        CnObserverCase::compute(&[], aggregates, &geo).cn_origin_fraction,
        naive_cn_origin_fraction(&correlated, &geo)
    );
    Ok(())
}

fn protocol_strategy() -> impl Strategy<Value = DecoyProtocol> {
    prop_oneof![
        Just(DecoyProtocol::Dns),
        Just(DecoyProtocol::Http),
        Just(DecoyProtocol::Tls),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streamed one-pass labels == naive whole-vector reference, on
    /// randomly interleaved arrivals for up to 6 decoys. Offsets cluster
    /// around the replication window, the 1 h late cutoff, a day and the
    /// 10-day tail so every rule and every report statistic fires.
    #[test]
    fn streamed_labels_match_naive_reference(
        protocols in proptest::collection::vec(protocol_strategy(), 1..6),
        raw in proptest::collection::vec(
            (
                0usize..6,
                prop_oneof![
                    0u64..4_000,                       // around the window
                    3_500_000u64..3_700_000,           // around the 1 h cutoff
                    86_000_000u64..90_000_000,         // about a day later
                    860_000_000u64..870_000_000,       // around the 10 d tail
                ],
                0u8..6,
                0u8..6,
                0u8..5,
            ),
            1..40,
        ),
    ) {
        let (registry, records) = build_registry(&protocols);
        let arrivals = build_arrivals(&records, &raw);
        let expected = naive_labels(&registry, &arrivals);

        let mut classifier = StreamingClassifier::new(WINDOW);
        let streamed: Vec<UnsolicitedLabel> = arrivals
            .iter()
            .map(|a| classifier.classify(registry.lookup(&a.domain).unwrap(), a))
            .collect();
        prop_assert_eq!(&streamed, &expected);

        // The aggregate fold counts exactly the reference labels.
        let agg = CorrelationAggregates::from_arrivals(
            &registry,
            &arrivals,
            &SinkConfig::streaming(),
        );
        let mut by_label: BTreeMap<UnsolicitedLabel, u64> = BTreeMap::new();
        for label in &expected {
            *by_label.entry(*label).or_insert(0) += 1;
        }
        prop_assert_eq!(&agg.by_label, &by_label);
        prop_assert_eq!(agg.arrivals_seen, arrivals.len() as u64);
        prop_assert_eq!(
            agg.unsolicited_total(),
            expected.iter().filter(|l| l.is_unsolicited()).count() as u64
        );
        assert_reports_match(&registry, &arrivals, &agg)?;
    }

    /// Splitting one stream at an arbitrary point and absorbing the two
    /// halves' aggregates reproduces the unsplit fold, as long as the split
    /// respects domain ownership (each domain's arrivals stay in one half
    /// — the shard invariant: one VP's decoys live in exactly one shard).
    #[test]
    fn absorb_of_domain_partition_matches_unsplit(
        protocols in proptest::collection::vec(protocol_strategy(), 2..6),
        raw in proptest::collection::vec(
            (0usize..6, 0u64..1_000_000_000, 0u8..6, 0u8..6, 0u8..5),
            1..30,
        ),
        pivot in 0usize..6,
    ) {
        let (registry, records) = build_registry(&protocols);
        let arrivals = build_arrivals(&records, &raw);
        let whole = CorrelationAggregates::from_arrivals(
            &registry,
            &arrivals,
            &SinkConfig::streaming(),
        );

        let pivot_domain = |a: &Arrival| {
            records
                .iter()
                .position(|r| r.domain == a.domain)
                .unwrap()
                < pivot % records.len().max(1)
        };
        let left: Vec<Arrival> = arrivals.iter().filter(|a| pivot_domain(a)).cloned().collect();
        let right: Vec<Arrival> = arrivals.iter().filter(|a| !pivot_domain(a)).cloned().collect();
        let mut merged =
            CorrelationAggregates::from_arrivals(&registry, &left, &SinkConfig::streaming());
        merged.absorb(CorrelationAggregates::from_arrivals(
            &registry,
            &right,
            &SinkConfig::streaming(),
        ));
        assert_reports_match(&registry, &arrivals, &merged)?;
        prop_assert_eq!(merged, whole);
    }
}
