//! End-to-end resolver behaviour: client → recursive resolver →
//! authoritative, across a routed topology. Exercises caching, coalescing,
//! benign retries, the shadowing hook, and anycast instance divergence
//! (the 114DNS case study).

use shadow_dns::authoritative::{AuthorityMode, StaticAuthorityHost};
use shadow_dns::profile::{ResolverProfile, RetryHabit};
use shadow_dns::resolver::RecursiveResolverHost;
use shadow_geo::{Asn, Region};
use shadow_netsim::engine::{Ctx, Engine, Host};
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_netsim::topology::{NodeId, TopologyBuilder};
use shadow_netsim::transport::Transport;
use shadow_observer::exhibitor::ExhibitorConfig;
use shadow_observer::policy::{DelayBucket, ProbeKind, ReplayPolicy, WeightedChoice};
use shadow_observer::probe::ProbeOrder;
use shadow_packet::dns::{DnsMessage, DnsName, Rcode, RecordData};
use shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use shadow_packet::udp::UdpDatagram;
use std::any::Any;
use std::net::Ipv4Addr;

#[derive(Clone)]
struct Sink {
    packets: Vec<(SimTime, Ipv4Packet)>,
    orders: Vec<(SimTime, ProbeOrder)>,
}

impl Sink {
    fn new() -> Self {
        Self {
            packets: Vec::new(),
            orders: Vec::new(),
        }
    }

    fn responses(&self) -> Vec<DnsMessage> {
        self.packets
            .iter()
            .filter_map(|(_, pkt)| match Transport::parse(pkt) {
                Ok(Transport::Udp(dg)) => DnsMessage::decode(&dg.payload).ok(),
                _ => None,
            })
            .collect()
    }
}

impl Host for Sink {
    fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
        self.packets.push((ctx.now(), pkt));
    }

    fn on_message(&mut self, msg: Box<dyn Any + Send + Sync>, ctx: &mut Ctx<'_>) {
        if let Ok(order) = msg.downcast::<ProbeOrder>() {
            self.orders.push((ctx.now(), *order));
        }
    }
}

struct World {
    engine: Engine,
    client: NodeId,
    resolver: NodeId,
    auth: NodeId,
    origin: NodeId,
    client_addr: Ipv4Addr,
    service_addr: Ipv4Addr,
}

const ZONE: &str = "www.experiment.example";

fn resolver_world(profile_for: impl FnOnce(NodeId) -> ResolverProfile) -> World {
    let mut tb = TopologyBuilder::new(21);
    tb.add_as(Asn(1), Region::Europe);
    tb.add_as(Asn(2), Region::NorthAmerica);
    tb.add_as(Asn(3), Region::NorthAmerica);
    tb.link(Asn(1), Asn(2)).unwrap();
    tb.link(Asn(2), Asn(3)).unwrap();
    for (asn, base) in [(1u32, 1u8), (2, 2), (3, 3)] {
        for r in 0..2u8 {
            tb.add_router(Asn(asn), Ipv4Addr::new(base, 0, 0, r + 1), true)
                .unwrap();
        }
    }
    let client_addr = Ipv4Addr::new(1, 1, 0, 1);
    let service_addr = Ipv4Addr::new(2, 1, 0, 53);
    let egress_addr = Ipv4Addr::new(2, 1, 0, 54);
    let auth_addr = Ipv4Addr::new(3, 1, 0, 53);
    let origin_addr = Ipv4Addr::new(3, 1, 0, 99);
    let client = tb.add_host(Asn(1), client_addr).unwrap();
    let resolver = tb.add_host(Asn(2), service_addr).unwrap();
    tb.add_alias(resolver, egress_addr).unwrap();
    let auth = tb.add_host(Asn(3), auth_addr).unwrap();
    let origin = tb.add_host(Asn(3), origin_addr).unwrap();
    let mut engine = Engine::new(tb.build().unwrap());

    let zone = DnsName::parse(ZONE).unwrap();
    let profile = profile_for(origin);
    engine.add_host(
        resolver,
        Box::new(RecursiveResolverHost::new(
            service_addr,
            egress_addr,
            profile,
            vec![(zone, auth_addr)],
        )),
    );
    engine.add_host(
        auth,
        Box::new(
            StaticAuthorityHost::new(auth_addr, "ns.experiment.example", AuthorityMode::Nxdomain)
                .with_record(&format!("decoy1.{ZONE}"), Ipv4Addr::new(198, 51, 100, 1))
                .with_record(&format!("decoy2.{ZONE}"), Ipv4Addr::new(198, 51, 100, 2)),
        ),
    );
    engine.add_host(client, Box::new(Sink::new()));
    engine.add_host(origin, Box::new(Sink::new()));
    World {
        engine,
        client,
        resolver,
        auth,
        origin,
        client_addr,
        service_addr,
    }
}

fn dns_query(src: Ipv4Addr, dst: Ipv4Addr, id: u16, name: &str) -> Ipv4Packet {
    let q = DnsMessage::query(id, DnsName::parse(name).unwrap());
    Ipv4Packet::new(
        src,
        dst,
        IpProtocol::Udp,
        DEFAULT_TTL,
        0,
        UdpDatagram::new(5000, 53, q.encode()).encode(),
    )
}

#[test]
fn full_resolution_round_trip() {
    let mut w = resolver_world(|_| ResolverProfile::well_behaved("test", 1));
    w.engine.inject(
        SimTime::ZERO,
        w.client,
        dns_query(w.client_addr, w.service_addr, 77, &format!("decoy1.{ZONE}")),
    );
    w.engine.run_to_completion();
    let sink = w.engine.host_as::<Sink>(w.client).unwrap();
    let responses = sink.responses();
    assert_eq!(responses.len(), 1);
    let resp = &responses[0];
    assert_eq!(resp.id, 77, "response echoes the client's query id");
    assert_eq!(resp.flags.rcode, Rcode::NoError);
    assert_eq!(
        resp.answers[0].data,
        RecordData::A(Ipv4Addr::new(198, 51, 100, 1))
    );
    // The resolver recursed exactly once.
    let auth = w.engine.host_as::<StaticAuthorityHost>(w.auth).unwrap();
    assert_eq!(auth.queries_seen(), 1);
}

#[test]
fn cache_answers_second_query_without_recursion() {
    let mut w = resolver_world(|_| ResolverProfile::well_behaved("test", 2));
    let name = format!("decoy1.{ZONE}");
    w.engine.inject(
        SimTime::ZERO,
        w.client,
        dns_query(w.client_addr, w.service_addr, 1, &name),
    );
    w.engine.inject(
        SimTime(10_000),
        w.client,
        dns_query(w.client_addr, w.service_addr, 2, &name),
    );
    w.engine.run_to_completion();
    let auth = w.engine.host_as::<StaticAuthorityHost>(w.auth).unwrap();
    assert_eq!(auth.queries_seen(), 1, "second answer came from cache");
    let resolver = w
        .engine
        .host_as::<RecursiveResolverHost>(w.resolver)
        .unwrap();
    assert_eq!(resolver.stats.cache_hits, 1);
    let sink = w.engine.host_as::<Sink>(w.client).unwrap();
    assert_eq!(sink.responses().len(), 2);
}

#[test]
fn cache_expires_after_record_ttl() {
    let mut w = resolver_world(|_| ResolverProfile::well_behaved("test", 3));
    let name = format!("decoy1.{ZONE}");
    w.engine.inject(
        SimTime::ZERO,
        w.client,
        dns_query(w.client_addr, w.service_addr, 1, &name),
    );
    // The authority serves TTL 3600; query again past expiry.
    w.engine.inject(
        SimTime::ZERO + SimDuration::from_secs(3_700),
        w.client,
        dns_query(w.client_addr, w.service_addr, 2, &name),
    );
    w.engine.run_to_completion();
    let auth = w.engine.host_as::<StaticAuthorityHost>(w.auth).unwrap();
    assert_eq!(auth.queries_seen(), 2, "expired entry forces re-recursion");
}

#[test]
fn concurrent_queries_coalesce() {
    let mut w = resolver_world(|_| ResolverProfile::well_behaved("test", 4));
    let name = format!("decoy2.{ZONE}");
    // Two queries a millisecond apart: the second arrives while the first
    // resolution is in flight.
    w.engine.inject(
        SimTime::ZERO,
        w.client,
        dns_query(w.client_addr, w.service_addr, 1, &name),
    );
    w.engine.inject(
        SimTime(1),
        w.client,
        dns_query(w.client_addr, w.service_addr, 2, &name),
    );
    w.engine.run_to_completion();
    let auth = w.engine.host_as::<StaticAuthorityHost>(w.auth).unwrap();
    assert_eq!(auth.queries_seen(), 1, "coalesced into one upstream query");
    let sink = w.engine.host_as::<Sink>(w.client).unwrap();
    assert_eq!(sink.responses().len(), 2, "both clients answered");
}

#[test]
fn unknown_zone_gets_nxdomain() {
    let mut w = resolver_world(|_| ResolverProfile::well_behaved("test", 5));
    w.engine.inject(
        SimTime::ZERO,
        w.client,
        dns_query(w.client_addr, w.service_addr, 9, "www.elsewhere.org"),
    );
    w.engine.run_to_completion();
    let sink = w.engine.host_as::<Sink>(w.client).unwrap();
    let responses = sink.responses();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].flags.rcode, Rcode::NxDomain);
    let auth = w.engine.host_as::<StaticAuthorityHost>(w.auth).unwrap();
    assert_eq!(auth.queries_seen(), 0);
}

#[test]
fn benign_retries_reach_the_authority_again() {
    // 100% retry probability for determinism.
    let mut w = resolver_world(|_| ResolverProfile {
        retry: Some(RetryHabit {
            percent: 100,
            delay: DelayBucket::Seconds(5, 30),
            count: 1,
        }),
        ..ResolverProfile::well_behaved("retrier", 6)
    });
    w.engine.inject(
        SimTime::ZERO,
        w.client,
        dns_query(w.client_addr, w.service_addr, 1, &format!("decoy1.{ZONE}")),
    );
    w.engine.run_to_completion();
    let auth = w.engine.host_as::<StaticAuthorityHost>(w.auth).unwrap();
    assert_eq!(auth.queries_seen(), 2, "original + one duplicate");
    // The duplicate arrives within a minute of the original — the paper's
    // DNS-DNS fast bucket.
    let delta = auth.log[1].at.since(auth.log[0].at);
    assert!(delta <= SimDuration::from_mins(1), "retry after {delta}");
    assert_eq!(auth.log[0].qname, auth.log[1].qname);
    // The client still got exactly one answer.
    let sink = w.engine.host_as::<Sink>(w.client).unwrap();
    assert_eq!(sink.responses().len(), 1);
}

#[test]
fn shadowing_resolver_schedules_probes() {
    let mut w = resolver_world(|origin| {
        ResolverProfile::shadowing(
            "yandex-sim",
            7,
            ExhibitorConfig {
                zone_filter: None,
                policy: ReplayPolicy {
                    trigger_percent: 100,
                    delays: vec![WeightedChoice::new(DelayBucket::Hours(1, 3), 1)],
                    protocols: vec![WeightedChoice::new(ProbeKind::Dns, 1)],
                    reuse: vec![WeightedChoice::new(3, 1)],
                },
                origins: vec![WeightedChoice::new(origin, 1)],
                retention_capacity: 1000,
                retention_ttl: SimDuration::from_days(30),
            },
        )
    });
    w.engine.inject(
        SimTime::ZERO,
        w.client,
        dns_query(w.client_addr, w.service_addr, 1, &format!("decoy1.{ZONE}")),
    );
    w.engine.run_to_completion();
    let origin_sink = w.engine.host_as::<Sink>(w.origin).unwrap();
    assert_eq!(origin_sink.orders.len(), 3, "reuse=3 probes ordered");
    for (at, order) in &origin_sink.orders {
        assert!(*at >= SimTime::ZERO + SimDuration::from_hours(1));
        assert!(*at <= SimTime::ZERO + SimDuration::from_hours(3) + SimDuration::from_secs(5));
        assert_eq!(&*order.exhibitor, "yandex-sim");
        assert_eq!(order.domain.as_str(), format!("decoy1.{ZONE}"));
    }
    let resolver = w
        .engine
        .host_as::<RecursiveResolverHost>(w.resolver)
        .unwrap();
    assert_eq!(resolver.exhibitor().unwrap().stats().probes_scheduled, 3);
    // Communication with the client was not tampered with.
    let sink = w.engine.host_as::<Sink>(w.client).unwrap();
    assert_eq!(sink.responses().len(), 1);
    assert_eq!(sink.responses()[0].flags.rcode, Rcode::NoError);
}

#[test]
fn shadowing_triggers_once_per_unique_name() {
    let mut w = resolver_world(|origin| {
        ResolverProfile::shadowing(
            "dedup",
            8,
            ExhibitorConfig {
                zone_filter: None,
                policy: ReplayPolicy {
                    trigger_percent: 100,
                    delays: vec![WeightedChoice::new(DelayBucket::Seconds(10, 20), 1)],
                    protocols: vec![WeightedChoice::new(ProbeKind::Dns, 1)],
                    reuse: vec![WeightedChoice::new(1, 1)],
                },
                origins: vec![WeightedChoice::new(origin, 1)],
                retention_capacity: 1000,
                retention_ttl: SimDuration::from_days(30),
            },
        )
    });
    let name = format!("decoy1.{ZONE}");
    for i in 0..3 {
        w.engine.inject(
            SimTime(i * 100),
            w.client,
            dns_query(w.client_addr, w.service_addr, i as u16 + 1, &name),
        );
    }
    w.engine.run_to_completion();
    let origin_sink = w.engine.host_as::<Sink>(w.origin).unwrap();
    assert_eq!(origin_sink.orders.len(), 1, "same name shadowed once");
}

#[test]
fn anycast_instances_diverge_like_114dns() {
    // Two instances of one service address: the "CN" instance shadows, the
    // "US" instance does not — clients route to the nearest one.
    let mut tb = TopologyBuilder::new(31);
    tb.add_as(Asn(10), Region::EastAsia); // CN client side
    tb.add_as(Asn(20), Region::EastAsia); // CN instance
    tb.add_as(Asn(30), Region::NorthAmerica); // US client side
    tb.add_as(Asn(40), Region::NorthAmerica); // US instance
    tb.add_as(Asn(50), Region::NorthAmerica); // authority + origin
    tb.link(Asn(10), Asn(20)).unwrap();
    tb.link(Asn(30), Asn(40)).unwrap();
    tb.link(Asn(20), Asn(50)).unwrap();
    tb.link(Asn(40), Asn(50)).unwrap();
    tb.link(Asn(20), Asn(40)).unwrap();
    for (asn, base) in [(10u32, 10u8), (20, 20), (30, 30), (40, 40), (50, 50)] {
        tb.add_router(Asn(asn), Ipv4Addr::new(base, 0, 0, 1), true)
            .unwrap();
    }
    let service = Ipv4Addr::new(114, 114, 114, 114);
    let cn_client_addr = Ipv4Addr::new(10, 1, 0, 1);
    let us_client_addr = Ipv4Addr::new(30, 1, 0, 1);
    let auth_addr = Ipv4Addr::new(50, 1, 0, 53);
    let origin_addr = Ipv4Addr::new(50, 1, 0, 99);
    let cn_client = tb.add_host(Asn(10), cn_client_addr).unwrap();
    let us_client = tb.add_host(Asn(30), us_client_addr).unwrap();
    let cn_instance = tb.add_host(Asn(20), service).unwrap();
    tb.add_alias(cn_instance, Ipv4Addr::new(20, 1, 0, 54))
        .unwrap();
    let us_instance = tb.add_host(Asn(40), service).unwrap();
    tb.add_alias(us_instance, Ipv4Addr::new(40, 1, 0, 54))
        .unwrap();
    let auth = tb.add_host(Asn(50), auth_addr).unwrap();
    let origin = tb.add_host(Asn(50), origin_addr).unwrap();
    let mut engine = Engine::new(tb.build().unwrap());

    let zone = DnsName::parse(ZONE).unwrap();
    let shadow_profile = ResolverProfile::shadowing(
        "114dns-cn",
        9,
        ExhibitorConfig {
            zone_filter: None,
            policy: ReplayPolicy {
                trigger_percent: 100,
                delays: vec![WeightedChoice::new(DelayBucket::Minutes(1, 5), 1)],
                protocols: vec![WeightedChoice::new(ProbeKind::Dns, 1)],
                reuse: vec![WeightedChoice::new(1, 1)],
            },
            origins: vec![WeightedChoice::new(origin, 1)],
            retention_capacity: 1000,
            retention_ttl: SimDuration::from_days(10),
        },
    );
    engine.add_host(
        cn_instance,
        Box::new(RecursiveResolverHost::new(
            service,
            Ipv4Addr::new(20, 1, 0, 54),
            shadow_profile,
            vec![(zone.clone(), auth_addr)],
        )),
    );
    engine.add_host(
        us_instance,
        Box::new(RecursiveResolverHost::new(
            service,
            Ipv4Addr::new(40, 1, 0, 54),
            ResolverProfile::well_behaved("114dns-us", 10),
            vec![(zone, auth_addr)],
        )),
    );
    engine.add_host(
        auth,
        Box::new(
            StaticAuthorityHost::new(auth_addr, "ns.experiment.example", AuthorityMode::Nxdomain)
                .with_record(&format!("fromcn.{ZONE}"), Ipv4Addr::new(198, 51, 100, 1))
                .with_record(&format!("fromus.{ZONE}"), Ipv4Addr::new(198, 51, 100, 1)),
        ),
    );
    engine.add_host(origin, Box::new(Sink::new()));
    engine.add_host(cn_client, Box::new(Sink::new()));
    engine.add_host(us_client, Box::new(Sink::new()));

    engine.inject(
        SimTime::ZERO,
        cn_client,
        dns_query(cn_client_addr, service, 1, &format!("fromcn.{ZONE}")),
    );
    engine.inject(
        SimTime::ZERO,
        us_client,
        dns_query(us_client_addr, service, 2, &format!("fromus.{ZONE}")),
    );
    engine.run_to_completion();

    // Both clients got answers.
    assert_eq!(
        engine.host_as::<Sink>(cn_client).unwrap().responses().len(),
        1
    );
    assert_eq!(
        engine.host_as::<Sink>(us_client).unwrap().responses().len(),
        1
    );
    // Only the CN-routed decoy was shadowed.
    let orders = &engine.host_as::<Sink>(origin).unwrap().orders;
    assert_eq!(orders.len(), 1);
    assert!(orders[0].1.domain.as_str().starts_with("fromcn"));
    assert_eq!(&*orders[0].1.exhibitor, "114dns-cn");
}
