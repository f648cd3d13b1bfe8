//! DNS interception devices — the noise source of Appendix E.
//!
//! Unlike shadowing observers, interceptors *tamper* with live traffic:
//! they swallow DNS queries and answer with spoofed responses. That
//! confuses naive observer localization, which is why the paper's
//! pair-resolver heuristic exists: an interceptor answers queries sent to
//! *any* address on the path, including addresses that run no DNS service
//! at all.

use shadow_netsim::engine::{Ctx, TapVerdict, WireTap};
use shadow_netsim::time::SimDuration;
use shadow_netsim::topology::NodeId;
use shadow_netsim::transport::Transport;
use shadow_packet::dns::{DnsMessage, DnsRecord, Rcode};
use shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use shadow_packet::udp::UdpDatagram;
use shadow_packet::DecodedView;
use std::net::Ipv4Addr;

/// A DNS interception middlebox attached to a router: it swallows every
/// DNS query it forwards and answers with a spoofed response whose source
/// is the query's original destination.
#[derive(Clone)]
pub struct InterceptorTap {
    /// Address returned in spoofed A records.
    pub spoof_answer: Ipv4Addr,
    /// Processing delay before the spoofed answer leaves the box.
    pub response_delay: SimDuration,
    pub queries_intercepted: u64,
}

impl InterceptorTap {
    pub fn redirect(spoof_answer: Ipv4Addr) -> Self {
        Self {
            spoof_answer,
            response_delay: SimDuration::from_millis(2),
            queries_intercepted: 0,
        }
    }
}

impl WireTap for InterceptorTap {
    // The interceptor needs the *entire* DNS message (transaction id,
    // flags, question) to forge responses, not just the memoized name
    // field, so it decodes the payload itself rather than using the view.
    fn on_packet(
        &mut self,
        pkt: &Ipv4Packet,
        _view: &DecodedView,
        _at: NodeId,
        ctx: &mut Ctx<'_>,
    ) -> TapVerdict {
        let Ok(Transport::Udp(dg)) = Transport::parse(pkt) else {
            return TapVerdict::Continue;
        };
        if dg.dst_port != 53 {
            return TapVerdict::Continue;
        }
        let Ok(query) = DnsMessage::decode(&dg.payload) else {
            return TapVerdict::Continue;
        };
        if query.flags.response {
            return TapVerdict::Continue;
        }
        self.queries_intercepted += 1;
        // Spoof: answer as if we were the destination, regardless of
        // whether the destination actually runs DNS. This is what the
        // pair-resolver test catches.
        let answers = query
            .qname()
            .map(|name| vec![DnsRecord::a(name.clone(), 300, self.spoof_answer)])
            .unwrap_or_default();
        let response = DnsMessage::response(&query, false, Rcode::NoError, answers);
        let reply = Ipv4Packet::new(
            pkt.header.dst, // spoofed source!
            pkt.header.src,
            IpProtocol::Udp,
            DEFAULT_TTL,
            0,
            UdpDatagram::new(53, dg.src_port, response.encode()).encode(),
        );
        ctx.send_from(ctx.node(), self.response_delay, reply);
        TapVerdict::Drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_geo::{Asn, Region};
    use shadow_netsim::engine::{Engine, Host};
    use shadow_netsim::time::SimTime;
    use shadow_netsim::topology::TopologyBuilder;
    use shadow_packet::dns::DnsName;

    #[derive(Clone)]
    struct Sink {
        packets: Vec<(SimTime, Ipv4Packet)>,
    }

    impl Host for Sink {
        fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
            self.packets.push((ctx.now(), pkt));
        }
    }

    struct World {
        engine: Engine,
        client: NodeId,
        resolver: NodeId,
        tap_node: NodeId,
        client_addr: Ipv4Addr,
        resolver_addr: Ipv4Addr,
        pair_addr: Ipv4Addr,
    }

    fn world() -> World {
        let mut tb = TopologyBuilder::new(11);
        tb.add_as(Asn(1), Region::EastAsia);
        tb.add_as(Asn(2), Region::NorthAmerica);
        tb.link(Asn(1), Asn(2)).unwrap();
        tb.add_router(Asn(1), Ipv4Addr::new(1, 0, 0, 1), true)
            .unwrap();
        tb.add_router(Asn(2), Ipv4Addr::new(2, 0, 0, 1), true)
            .unwrap();
        let client_addr = Ipv4Addr::new(1, 1, 0, 1);
        let resolver_addr = Ipv4Addr::new(2, 1, 0, 1);
        let pair_addr = Ipv4Addr::new(2, 1, 0, 4); // same /24, no DNS service
        let client = tb.add_host(Asn(1), client_addr).unwrap();
        let resolver = tb.add_host(Asn(2), resolver_addr).unwrap();
        let _pair = tb.add_host(Asn(2), pair_addr).unwrap();
        let topo = tb.build().unwrap();
        let route = topo.route(client, resolver).unwrap();
        let tap_node = route[1];
        let engine = Engine::new(topo);
        World {
            engine,
            client,
            resolver,
            tap_node,
            client_addr,
            resolver_addr,
            pair_addr,
        }
    }

    fn query_packet(src: Ipv4Addr, dst: Ipv4Addr, name: &str) -> Ipv4Packet {
        let q = DnsMessage::query(42, DnsName::parse(name).unwrap());
        Ipv4Packet::new(
            src,
            dst,
            IpProtocol::Udp,
            DEFAULT_TTL,
            7,
            UdpDatagram::new(5353, 53, q.encode()).encode(),
        )
    }

    #[test]
    fn redirect_spoofs_even_for_pair_addresses() {
        let mut w = world();
        w.engine.add_tap(
            w.tap_node,
            Box::new(InterceptorTap::redirect(Ipv4Addr::new(9, 9, 9, 9))),
        );
        w.engine.add_host(
            w.client,
            Box::new(Sink {
                packets: Vec::new(),
            }),
        );
        w.engine.add_host(
            w.resolver,
            Box::new(Sink {
                packets: Vec::new(),
            }),
        );
        // Query the *pair* address, which runs no DNS service.
        w.engine.inject(
            SimTime::ZERO,
            w.client,
            query_packet(w.client_addr, w.pair_addr, "probe.www.experiment.example"),
        );
        w.engine.run_to_completion();
        let client_sink = w.engine.host_as::<Sink>(w.client).unwrap();
        assert_eq!(client_sink.packets.len(), 1, "spoofed answer came back");
        let pkt = &client_sink.packets[0].1;
        assert_eq!(pkt.header.src, w.pair_addr, "source is spoofed as the pair");
        let dg = UdpDatagram::decode(&pkt.payload).unwrap();
        let resp = DnsMessage::decode(&dg.payload).unwrap();
        assert!(resp.flags.response);
        assert_eq!(
            resp.answers[0].data,
            shadow_packet::dns::RecordData::A(Ipv4Addr::new(9, 9, 9, 9))
        );
        // The query never reached the pair host (dropped at the tap).
        assert_eq!(w.engine.stats().packets_dropped_by_tap, 1);
    }

    #[test]
    fn non_dns_traffic_untouched() {
        let mut w = world();
        w.engine.add_tap(
            w.tap_node,
            Box::new(InterceptorTap::redirect(Ipv4Addr::new(9, 9, 9, 9))),
        );
        w.engine.add_host(
            w.resolver,
            Box::new(Sink {
                packets: Vec::new(),
            }),
        );
        let pkt = Ipv4Packet::new(
            w.client_addr,
            w.resolver_addr,
            IpProtocol::Udp,
            DEFAULT_TTL,
            1,
            UdpDatagram::new(1000, 4500, b"not dns".to_vec()).encode(),
        );
        w.engine.inject(SimTime::ZERO, w.client, pkt);
        w.engine.run_to_completion();
        let sink = w.engine.host_as::<Sink>(w.resolver).unwrap();
        assert_eq!(sink.packets.len(), 1, "non-DNS passes through");
    }

    #[test]
    fn dns_responses_pass_through() {
        let mut w = world();
        w.engine.add_tap(
            w.tap_node,
            Box::new(InterceptorTap::redirect(Ipv4Addr::new(9, 9, 9, 9))),
        );
        w.engine.add_host(
            w.client,
            Box::new(Sink {
                packets: Vec::new(),
            }),
        );
        // A response travelling resolver→client crosses the same router.
        let q = DnsMessage::query(1, DnsName::parse("x.example").unwrap());
        let resp = DnsMessage::response(&q, false, Rcode::NoError, vec![]);
        let pkt = Ipv4Packet::new(
            w.resolver_addr,
            w.client_addr,
            IpProtocol::Udp,
            DEFAULT_TTL,
            1,
            UdpDatagram::new(53, 5353, resp.encode()).encode(),
        );
        w.engine.inject(SimTime::ZERO, w.resolver, pkt);
        w.engine.run_to_completion();
        let sink = w.engine.host_as::<Sink>(w.client).unwrap();
        assert_eq!(sink.packets.len(), 1);
    }
}
