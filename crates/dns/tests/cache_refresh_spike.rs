//! The paper's cache-refresh falsification check, made executable.
//!
//! Section 5.1: "While active cache refreshing mechanisms and APIs may also
//! produce unsolicited requests, we do not believe this is the major cause
//! — we configure TTL=3,600 for wildcard DNS records ... but do not find
//! noticeable spikes around 1h or other hourly marks."
//!
//! Here we enable the refresh behaviour on a resolver and show the spike
//! *would* appear: upstream re-queries land exactly one record-TTL after
//! the original resolution — the signature absent from the real data.

use shadow_dns::authoritative::{AuthorityMode, StaticAuthorityHost};
use shadow_dns::profile::ResolverProfile;
use shadow_dns::resolver::RecursiveResolverHost;
use shadow_geo::{Asn, Region};
use shadow_netsim::engine::{Ctx, Engine, Host};
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_netsim::topology::TopologyBuilder;
use shadow_packet::dns::{DnsMessage, DnsName};
use shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use shadow_packet::udp::UdpDatagram;
use std::net::Ipv4Addr;

#[derive(Clone)]
struct Quiet;

impl Host for Quiet {
    fn on_packet(&mut self, _pkt: Ipv4Packet, _ctx: &mut Ctx<'_>) {}
}

const ZONE: &str = "www.experiment.example";

fn run(refresh: bool) -> Vec<SimTime> {
    let mut tb = TopologyBuilder::new(33);
    tb.add_as(Asn(1), Region::Europe);
    tb.add_router(Asn(1), Ipv4Addr::new(1, 0, 0, 1), true)
        .unwrap();
    let client_addr = Ipv4Addr::new(1, 1, 0, 1);
    let service_addr = Ipv4Addr::new(1, 1, 0, 53);
    let egress_addr = Ipv4Addr::new(1, 1, 0, 54);
    let auth_addr = Ipv4Addr::new(1, 1, 0, 100);
    let client = tb.add_host(Asn(1), client_addr).unwrap();
    let resolver = tb.add_host(Asn(1), service_addr).unwrap();
    tb.add_alias(resolver, egress_addr).unwrap();
    let auth = tb.add_host(Asn(1), auth_addr).unwrap();
    let mut engine = Engine::new(tb.build().unwrap());

    let profile = if refresh {
        ResolverProfile::with_cache_refresh("refresher", 5)
    } else {
        ResolverProfile::well_behaved("plain", 5)
    };
    engine.add_host(
        resolver,
        Box::new(RecursiveResolverHost::new(
            service_addr,
            egress_addr,
            profile,
            vec![(DnsName::parse(ZONE).unwrap(), auth_addr)],
        )),
    );
    // The authority answers every name (TTL 3600 via with_record's default).
    engine.add_host(
        auth,
        Box::new(
            StaticAuthorityHost::new(auth_addr, "ns.experiment.example", AuthorityMode::Nxdomain)
                .with_record(&format!("decoy.{ZONE}"), Ipv4Addr::new(198, 51, 100, 1)),
        ),
    );
    engine.add_host(client, Box::new(Quiet));

    let query = DnsMessage::query(1, DnsName::parse(&format!("decoy.{ZONE}")).unwrap());
    engine.inject(
        SimTime::ZERO,
        client,
        Ipv4Packet::new(
            client_addr,
            service_addr,
            IpProtocol::Udp,
            DEFAULT_TTL,
            0,
            UdpDatagram::new(5000, 53, query.encode()).encode(),
        ),
    );
    engine.run_until(SimTime::ZERO + SimDuration::from_hours(6));
    let auth_host = engine.host_as::<StaticAuthorityHost>(auth).unwrap();
    auth_host.log.iter().map(|e| e.at).collect()
}

#[test]
fn refresh_creates_the_hourly_spike_the_paper_rules_out() {
    let plain = run(false);
    assert_eq!(plain.len(), 1, "no refresh: the authority sees one query");

    let refreshing = run(true);
    assert!(
        refreshing.len() >= 2,
        "refresh: the authority sees the resolution plus refreshes"
    );
    // The second query lands one record-TTL (3,600 s) after the first —
    // exactly the spike the paper checked Figure 4 for.
    let gap = refreshing[1].since(refreshing[0]);
    let hour = SimDuration::from_hours(1);
    assert!(
        gap >= hour && gap <= hour + SimDuration::from_secs(5),
        "refresh gap {gap} should sit at the 1h mark"
    );
}
