//! Static authoritative servers: the roots, TLDs, and any zone server that
//! answers deterministically and exhibits no shadowing — the paper's
//! control destinations ("we only find those sent to popular public
//! resolvers subject to traffic shadowing, while those to authoritative
//! servers and our control resolver are not").

use shadow_netsim::engine::{Ctx, Host};
use shadow_netsim::time::SimTime;
use shadow_netsim::transport::Transport;
use shadow_packet::dns::{DnsClass, DnsMessage, DnsName, DnsRecord, Rcode, RecordData, RecordType};
use shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use shadow_packet::udp::UdpDatagram;
use std::net::Ipv4Addr;

/// How the server answers queries outside any configured zone data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthorityMode {
    /// Refer the querier downward (what roots/TLDs do): NoError with an NS
    /// record in the authority section.
    Referral,
    /// Plain NXDOMAIN.
    Nxdomain,
}

/// One logged query (kept so experiments can verify "no unsolicited traffic
/// from these destinations").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthorityLogEntry {
    pub at: SimTime,
    pub src: Ipv4Addr,
    pub qname: DnsName,
}

/// A static authority host.
#[derive(Clone)]
pub struct StaticAuthorityHost {
    addr: Ipv4Addr,
    /// Name advertised in referral NS records.
    ns_name: DnsName,
    mode: AuthorityMode,
    /// Exact-match A records it owns ((name, addr)).
    records: Vec<(DnsName, Ipv4Addr)>,
    pub log: Vec<AuthorityLogEntry>,
}

impl StaticAuthorityHost {
    pub fn new(addr: Ipv4Addr, ns_name: &str, mode: AuthorityMode) -> Self {
        Self {
            addr,
            ns_name: DnsName::parse(ns_name).expect("valid NS name"),
            mode,
            records: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Add an exact-match A record.
    pub fn with_record(mut self, name: &str, addr: Ipv4Addr) -> Self {
        self.records
            .push((DnsName::parse(name).expect("valid record name"), addr));
        self
    }

    pub fn queries_seen(&self) -> usize {
        self.log.len()
    }
}

impl Host for StaticAuthorityHost {
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
        self.log.push(AuthorityLogEntry {
            at: ctx.now(),
            src: pkt.header.src,
            qname: qname.clone(),
        });

        let response = if let Some(&(_, addr)) = self.records.iter().find(|(n, _)| *n == qname) {
            DnsMessage::response(
                &query,
                true,
                Rcode::NoError,
                vec![DnsRecord::a(qname.clone(), 3600, addr)],
            )
        } else {
            match self.mode {
                AuthorityMode::Referral => {
                    let mut resp = DnsMessage::response(&query, false, Rcode::NoError, Vec::new());
                    resp.authorities.push(DnsRecord {
                        name: qname.parent().unwrap_or_else(DnsName::root),
                        rtype: RecordType::Ns,
                        class: DnsClass::In,
                        ttl: 172_800,
                        data: RecordData::Ns(self.ns_name.clone()),
                    });
                    resp
                }
                AuthorityMode::Nxdomain => {
                    DnsMessage::response(&query, true, Rcode::NxDomain, Vec::new())
                }
            }
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
    use shadow_geo::{Asn, Region};
    use shadow_netsim::engine::Engine;
    use shadow_netsim::topology::TopologyBuilder;

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
        let mut tb = TopologyBuilder::new(2);
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

    fn query(src: Ipv4Addr, dst: Ipv4Addr, name: &str) -> Ipv4Packet {
        let q = DnsMessage::query(7, DnsName::parse(name).unwrap());
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
    fn answers_owned_records() {
        let (mut engine, client, auth, client_addr, auth_addr) = world();
        engine.add_host(
            auth,
            Box::new(
                StaticAuthorityHost::new(auth_addr, "ns.example", AuthorityMode::Nxdomain)
                    .with_record("www.example", Ipv4Addr::new(93, 184, 216, 34)),
            ),
        );
        engine.add_host(
            client,
            Box::new(Sink {
                packets: Vec::new(),
            }),
        );
        engine.inject(
            SimTime::ZERO,
            client,
            query(client_addr, auth_addr, "www.example"),
        );
        engine.run_to_completion();
        let sink = engine.host_as::<Sink>(client).unwrap();
        let dg = UdpDatagram::decode(&sink.packets[0].payload).unwrap();
        let resp = DnsMessage::decode(&dg.payload).unwrap();
        assert_eq!(resp.flags.rcode, Rcode::NoError);
        assert!(resp.flags.authoritative);
        assert_eq!(
            resp.answers[0].data,
            RecordData::A(Ipv4Addr::new(93, 184, 216, 34))
        );
    }

    #[test]
    fn referral_mode_returns_authority_section() {
        let (mut engine, client, auth, client_addr, auth_addr) = world();
        engine.add_host(
            auth,
            Box::new(StaticAuthorityHost::new(
                auth_addr,
                "a.gtld-servers.net",
                AuthorityMode::Referral,
            )),
        );
        engine.add_host(
            client,
            Box::new(Sink {
                packets: Vec::new(),
            }),
        );
        engine.inject(
            SimTime::ZERO,
            client,
            query(client_addr, auth_addr, "decoy.www.experiment.example"),
        );
        engine.run_to_completion();
        let sink = engine.host_as::<Sink>(client).unwrap();
        let dg = UdpDatagram::decode(&sink.packets[0].payload).unwrap();
        let resp = DnsMessage::decode(&dg.payload).unwrap();
        assert_eq!(resp.flags.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities.len(), 1);
        let auth_host = engine.host_as::<StaticAuthorityHost>(auth).unwrap();
        assert_eq!(auth_host.queries_seen(), 1);
    }

    #[test]
    fn nxdomain_mode() {
        let (mut engine, client, auth, client_addr, auth_addr) = world();
        engine.add_host(
            auth,
            Box::new(StaticAuthorityHost::new(
                auth_addr,
                "ns.example",
                AuthorityMode::Nxdomain,
            )),
        );
        engine.add_host(
            client,
            Box::new(Sink {
                packets: Vec::new(),
            }),
        );
        engine.inject(
            SimTime::ZERO,
            client,
            query(client_addr, auth_addr, "missing.example"),
        );
        engine.run_to_completion();
        let sink = engine.host_as::<Sink>(client).unwrap();
        let dg = UdpDatagram::decode(&sink.packets[0].payload).unwrap();
        let resp = DnsMessage::decode(&dg.payload).unwrap();
        assert_eq!(resp.flags.rcode, Rcode::NxDomain);
    }

    #[test]
    fn logs_every_query_and_never_probes() {
        // The control property: authoritative servers see the decoy once
        // and nothing ever comes back unsolicited.
        let (mut engine, client, auth, client_addr, auth_addr) = world();
        engine.add_host(
            auth,
            Box::new(StaticAuthorityHost::new(
                auth_addr,
                "ns.example",
                AuthorityMode::Referral,
            )),
        );
        engine.add_host(
            client,
            Box::new(Sink {
                packets: Vec::new(),
            }),
        );
        for i in 0..5 {
            engine.inject(
                SimTime(i * 1_000),
                client,
                query(
                    client_addr,
                    auth_addr,
                    &format!("d{i}.www.experiment.example"),
                ),
            );
        }
        let events = engine.run_to_completion();
        let auth_host = engine.host_as::<StaticAuthorityHost>(auth).unwrap();
        assert_eq!(auth_host.queries_seen(), 5);
        // Bounded event count: 5 queries + 5 responses worth of hops only.
        assert!(events < 100, "no probe storm from a control authority");
    }
}
