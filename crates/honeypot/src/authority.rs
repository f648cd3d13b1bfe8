//! The experiment zone's authoritative server.
//!
//! Serves wildcard A records (TTL 3,600, as in the paper) resolving every
//! `<identifier>.www.<experiment-domain>` to one of the honey web servers,
//! and logs every query — the DNS capture channel. The homepage note, rate
//! limits and other ethics machinery of the real deployment have no
//! simulated equivalent and live in the honey website instead.

use crate::capture::{capture_with_telemetry, Arrival, ArrivalProtocol, Label, SharedArrivalSink};
use shadow_netsim::engine::{Ctx, Host};
use shadow_netsim::transport::Transport;
use shadow_packet::dns::{DnsMessage, DnsName, DnsRecord, Rcode};
use shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use shadow_packet::udp::UdpDatagram;
use std::net::Ipv4Addr;

/// TTL of the wildcard records — the paper configures 3,600 s and uses the
/// absence of hourly re-query spikes to rule out cache-refresh explanations.
pub const WILDCARD_TTL_SECS: u32 = 3_600;

/// The authoritative host for one experiment zone.
#[derive(Clone)]
pub struct ExperimentAuthorityHost {
    addr: Ipv4Addr,
    zone: DnsName,
    /// Honey web server addresses the wildcard resolves to (one per
    /// region); selection is a stable hash of the queried name, so repeat
    /// queries hit the same honeypot.
    web_addrs: Vec<Ipv4Addr>,
    /// Label stamped on every DNS capture ("AUTH"); built once so each
    /// query's arrival record shares it.
    label: Label,
    /// Streaming correlation sink; installed by the campaign layer before
    /// Phase I traffic starts. `None` during the pre-flight, whose
    /// captures are dropped.
    sink: Option<SharedArrivalSink>,
    pub queries_answered: u64,
    pub out_of_zone_queries: u64,
}

impl ExperimentAuthorityHost {
    pub fn new(addr: Ipv4Addr, zone: DnsName, web_addrs: Vec<Ipv4Addr>) -> Self {
        assert!(!web_addrs.is_empty(), "need at least one honey web server");
        Self {
            addr,
            zone,
            web_addrs,
            label: "AUTH".into(),
            sink: None,
            queries_answered: 0,
            out_of_zone_queries: 0,
        }
    }

    /// Install (or clear) the streaming arrival sink.
    pub fn set_arrival_sink(&mut self, sink: Option<SharedArrivalSink>) {
        self.sink = sink;
    }

    /// Whether an arrival sink is installed.
    pub fn has_arrival_sink(&self) -> bool {
        self.sink.is_some()
    }

    pub fn zone(&self) -> &DnsName {
        &self.zone
    }

    fn wildcard_target(&self, qname: &DnsName) -> Ipv4Addr {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in qname.as_str().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.web_addrs[(h % self.web_addrs.len() as u64) as usize]
    }
}

impl Host for ExperimentAuthorityHost {
    fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
        let Ok(Transport::Udp(dg)) = Transport::parse(&pkt) else {
            return;
        };
        if dg.dst_port != 53 {
            return;
        }
        let Ok(query) = DnsMessage::decode(&dg.payload) else {
            return;
        };
        if query.flags.response {
            return;
        }
        let Some(qname) = query.qname().cloned() else {
            return;
        };
        let response = if qname.is_subdomain_of(&self.zone) {
            self.queries_answered += 1;
            capture_with_telemetry(
                self.sink.as_ref(),
                Arrival {
                    at: ctx.now(),
                    src: pkt.header.src,
                    protocol: ArrivalProtocol::Dns,
                    domain: qname.clone(),
                    http_path: None,
                    honeypot: self.label.clone(),
                },
                ctx,
            );
            let target = self.wildcard_target(&qname);
            DnsMessage::response(
                &query,
                true,
                Rcode::NoError,
                vec![DnsRecord::a(qname.clone(), WILDCARD_TTL_SECS, target)],
            )
        } else {
            self.out_of_zone_queries += 1;
            DnsMessage::response(&query, true, Rcode::Refused, Vec::new())
        };
        ctx.send(Ipv4Packet::new(
            self.addr,
            pkt.header.src,
            IpProtocol::Udp,
            DEFAULT_TTL,
            0,
            UdpDatagram::new(53, dg.src_port, response.encode()).encode(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureLog;
    use shadow_geo::{Asn, Region};
    use shadow_netsim::engine::Engine;
    use shadow_netsim::time::SimTime;
    use shadow_netsim::topology::TopologyBuilder;
    use shadow_packet::dns::RecordData;

    #[derive(Clone)]
    struct Sink {
        packets: Vec<Ipv4Packet>,
    }

    impl Host for Sink {
        fn on_packet(&mut self, pkt: Ipv4Packet, _ctx: &mut Ctx<'_>) {
            self.packets.push(pkt);
        }
    }

    fn world() -> (
        Engine,
        shadow_netsim::NodeId,
        shadow_netsim::NodeId,
        Ipv4Addr,
        Ipv4Addr,
    ) {
        let mut tb = TopologyBuilder::new(4);
        tb.add_as(Asn(1), Region::Europe);
        tb.add_router(Asn(1), Ipv4Addr::new(1, 0, 0, 1), true)
            .unwrap();
        let client_addr = Ipv4Addr::new(1, 1, 0, 1);
        let auth_addr = Ipv4Addr::new(1, 1, 0, 53);
        let client = tb.add_host(Asn(1), client_addr).unwrap();
        let auth = tb.add_host(Asn(1), auth_addr).unwrap();
        (
            Engine::new(tb.build().unwrap()),
            client,
            auth,
            client_addr,
            auth_addr,
        )
    }

    /// The authoritative host for the test zone with a recording sink
    /// installed, and that sink.
    fn recorded_authority(
        auth_addr: Ipv4Addr,
    ) -> (Box<ExperimentAuthorityHost>, SharedArrivalSink) {
        let mut host = ExperimentAuthorityHost::new(auth_addr, zone(), web_addrs());
        let captured = CaptureLog::shared();
        host.set_arrival_sink(Some(captured.clone()));
        (Box::new(host), captured)
    }

    fn zone() -> DnsName {
        DnsName::parse("www.experiment.example").unwrap()
    }

    fn web_addrs() -> Vec<Ipv4Addr> {
        vec![
            Ipv4Addr::new(198, 51, 100, 1), // US
            Ipv4Addr::new(198, 51, 100, 2), // DE
            Ipv4Addr::new(198, 51, 100, 3), // SG
        ]
    }

    fn query(src: Ipv4Addr, dst: Ipv4Addr, name: &str) -> Ipv4Packet {
        let q = DnsMessage::query(1, DnsName::parse(name).unwrap());
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
    fn wildcard_answers_any_label() {
        let (mut engine, client, auth, client_addr, auth_addr) = world();
        let (host, captured) = recorded_authority(auth_addr);
        engine.add_host(auth, host);
        engine.add_host(
            client,
            Box::new(Sink {
                packets: Vec::new(),
            }),
        );
        engine.inject(
            SimTime::ZERO,
            client,
            query(
                client_addr,
                auth_addr,
                "g6d8jjkut5obc4-9982.www.experiment.example",
            ),
        );
        engine.run_to_completion();
        let sink = engine.host_as::<Sink>(client).unwrap();
        let dg = UdpDatagram::decode(&sink.packets[0].payload).unwrap();
        let resp = DnsMessage::decode(&dg.payload).unwrap();
        assert_eq!(resp.flags.rcode, Rcode::NoError);
        assert_eq!(resp.answers[0].ttl, WILDCARD_TTL_SECS);
        match resp.answers[0].data {
            RecordData::A(a) => assert!(web_addrs().contains(&a)),
            ref other => panic!("unexpected {other:?}"),
        }
        let arrivals = CaptureLog::arrivals(&captured);
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].protocol, ArrivalProtocol::Dns);
        assert_eq!(arrivals[0].honeypot, "AUTH");
        assert_eq!(
            arrivals[0].domain.as_str(),
            "g6d8jjkut5obc4-9982.www.experiment.example"
        );
        let auth_host = engine.host_as::<ExperimentAuthorityHost>(auth).unwrap();
        assert_eq!(auth_host.queries_answered, 1);
    }

    #[test]
    fn same_name_same_target() {
        let (_, _, _, _, auth_addr) = world();
        let host = ExperimentAuthorityHost::new(auth_addr, zone(), web_addrs());
        let name = DnsName::parse("abc.www.experiment.example").unwrap();
        let t1 = host.wildcard_target(&name);
        let t2 = host.wildcard_target(&name);
        assert_eq!(t1, t2, "stable honeypot selection");
    }

    #[test]
    fn names_spread_across_honeypots() {
        let (_, _, _, _, auth_addr) = world();
        let host = ExperimentAuthorityHost::new(auth_addr, zone(), web_addrs());
        let mut seen = std::collections::HashSet::new();
        for i in 0..50 {
            let name = DnsName::parse(&format!("n{i}.www.experiment.example")).unwrap();
            seen.insert(host.wildcard_target(&name));
        }
        assert_eq!(seen.len(), 3, "all three honeypots used");
    }

    #[test]
    fn out_of_zone_refused_and_not_captured() {
        let (mut engine, client, auth, client_addr, auth_addr) = world();
        let (host, captured) = recorded_authority(auth_addr);
        engine.add_host(auth, host);
        engine.add_host(
            client,
            Box::new(Sink {
                packets: Vec::new(),
            }),
        );
        engine.inject(
            SimTime::ZERO,
            client,
            query(client_addr, auth_addr, "www.google.com"),
        );
        engine.run_to_completion();
        let sink = engine.host_as::<Sink>(client).unwrap();
        let dg = UdpDatagram::decode(&sink.packets[0].payload).unwrap();
        let resp = DnsMessage::decode(&dg.payload).unwrap();
        assert_eq!(resp.flags.rcode, Rcode::Refused);
        assert!(CaptureLog::arrivals(&captured).is_empty());
        let auth_host = engine.host_as::<ExperimentAuthorityHost>(auth).unwrap();
        assert_eq!(auth_host.out_of_zone_queries, 1);
    }
}
