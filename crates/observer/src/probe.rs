//! Probe origins: the hosts that emit unsolicited requests.
//!
//! The paper stresses that "observers may not initiate unsolicited requests
//! by themselves" — the data flows from the on-path observer to some other
//! machine which performs the probing (security-company proxies, analysis
//! farms, resolver partners). A [`ProbeOriginHost`] is that machine: it
//! receives [`ProbeOrder`] messages (posted by an
//! [`Exhibitor`](crate::exhibitor::Exhibitor)), resolves the observed
//! domain, and issues DNS re-queries, HTTP path-enumeration scans, or TLS
//! probes.

use crate::policy::ProbeKind;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha20Rng;
use shadow_netsim::engine::{Ctx, Host};
use shadow_netsim::tcp::{ConnKey, TcpEvent, TcpStack};
use shadow_netsim::time::SimDuration;
use shadow_netsim::transport::Transport;
use shadow_packet::dns::{DnsMessage, DnsName, RecordData};
use shadow_packet::http::HttpRequest;
use shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use shadow_packet::tls::ClientHello;
use shadow_packet::udp::UdpDatagram;
use std::any::Any;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// How this origin turns a domain into an address for HTTP/TLS probes, and
/// where its unsolicited DNS re-queries go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsVia {
    /// Through a recursive resolver (the common case — hence Google's AS
    /// dominating Figure 6's origins of unsolicited DNS queries).
    Resolver(Ipv4Addr),
    /// Straight at the zone's authoritative server (FireEye-style systems
    /// that extracted the NS themselves).
    Authoritative(Ipv4Addr),
}

impl DnsVia {
    fn target(self) -> Ipv4Addr {
        match self {
            DnsVia::Resolver(a) | DnsVia::Authoritative(a) => a,
        }
    }
}

/// An instruction to probe one observed domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeOrder {
    pub domain: DnsName,
    pub kind: ProbeKind,
    /// Ground-truth provenance label (which exhibitor sent this), carried
    /// for tests; the measurement pipeline never reads it. Shared with the
    /// exhibitor, so an order costs no copy of it.
    pub exhibitor: Arc<str>,
    /// Per-order randomness (path choice, ClientHello random), drawn by the
    /// exhibitor from its observation-derived stream. Keeping it on the
    /// order makes the origin host's behaviour a pure function of the
    /// orders it receives, independent of their interleaving.
    pub seed: u64,
}

/// The paths an HTTP prober enumerates — the shape Section 5 reports ("95%
/// of requests are performing path enumeration ... no malicious payloads or
/// vulnerability exploit codes").
pub const ENUMERATION_PATHS: &[&str] = &[
    "/",
    "/robots.txt",
    "/admin/",
    "/login",
    "/wp-login.php",
    "/backup/",
    "/.git/config",
    "/config.php",
    "/phpinfo.php",
    "/api/",
    "/static/",
    "/images/",
    "/uploads/",
    "/test/",
    "/old/",
];

#[derive(Debug, Clone)]
enum ConnPurpose {
    Http { domain: DnsName, path: String },
    Https { domain: DnsName, seed: u64 },
}

/// Internal self-posted message driving one extra enumeration request; kept
/// separate from [`ProbeOrder`] so follow-ups don't fan out recursively.
struct FollowUpHttp {
    domain: DnsName,
    seed: u64,
}

/// A host that executes probe orders.
#[derive(Clone)]
pub struct ProbeOriginHost {
    addr: Ipv4Addr,
    dns_via: DnsVia,
    /// Number of HTTP requests one Http order fans into (path enumeration).
    http_paths_per_order: usize,
    tcp: TcpStack,
    next_dns_id: u16,
    /// DNS lookups in flight: query id → (domain, what to do once
    /// resolved, the order's seed).
    pending_dns: HashMap<u16, (DnsName, ProbeKind, u64)>,
    /// TCP connections in flight.
    pending_conns: HashMap<ConnKey, ConnPurpose>,
    /// How many HTTP connections in `pending_conns` each domain has (no
    /// zero entries): an HTTP order for a domain listed here is a
    /// follow-up. Kept in step with every insert into and removal from
    /// `pending_conns`, so the check costs one lookup however many
    /// connections stay pending (a SYN nothing answers stays forever).
    http_pending: HashMap<DnsName, usize>,
}

impl ProbeOriginHost {
    pub fn new(addr: Ipv4Addr, dns_via: DnsVia, seed: u64) -> Self {
        Self {
            addr,
            dns_via,
            http_paths_per_order: 2,
            tcp: TcpStack::new(seed as u32 | 1),
            next_dns_id: 1,
            pending_dns: HashMap::new(),
            pending_conns: HashMap::new(),
            http_pending: HashMap::new(),
        }
    }

    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    fn udp(&self, dst: Ipv4Addr, dst_port: u16, payload: Vec<u8>) -> Ipv4Packet {
        Ipv4Packet::new(
            self.addr,
            dst,
            IpProtocol::Udp,
            DEFAULT_TTL,
            0,
            UdpDatagram::new(30_000 + self.next_dns_id, dst_port, payload).encode(),
        )
    }

    fn tcp_packets(
        &self,
        peer: Ipv4Addr,
        segs: Vec<shadow_packet::tcp::TcpSegment>,
        ctx: &mut Ctx<'_>,
    ) {
        for seg in segs {
            ctx.send(Ipv4Packet::new(
                self.addr,
                peer,
                IpProtocol::Tcp,
                DEFAULT_TTL,
                0,
                seg.encode(),
            ));
        }
    }

    /// Issue the DNS lookup that precedes any probe (or *is* the probe, for
    /// `ProbeKind::Dns`).
    fn start_lookup(&mut self, domain: DnsName, kind: ProbeKind, seed: u64, ctx: &mut Ctx<'_>) {
        let id = self.next_dns_id;
        self.next_dns_id = self.next_dns_id.wrapping_add(1).max(1);
        let query = DnsMessage::query(id, domain.clone());
        let pkt = self.udp(self.dns_via.target(), 53, query.encode());
        self.pending_dns.insert(id, (domain, kind, seed));
        ctx.send(pkt);
    }

    fn on_dns_response(&mut self, msg: DnsMessage, ctx: &mut Ctx<'_>) {
        let Some((domain, kind, seed)) = self.pending_dns.remove(&msg.id) else {
            return;
        };
        let addr = msg.answers.iter().find_map(|rr| match rr.data {
            RecordData::A(a) => Some(a),
            _ => None,
        });
        let Some(addr) = addr else {
            return; // NXDOMAIN or empty answer: probe dies here.
        };
        match kind {
            ProbeKind::Dns => {
                // The lookup itself was the probe; nothing more to do.
            }
            ProbeKind::Http => {
                let mut rng = ChaCha20Rng::seed_from_u64(seed);
                let path = if self.http_pending.contains_key(&domain) {
                    // Follow-up orders enumerate deeper paths.
                    ENUMERATION_PATHS[rng.gen_range(1..ENUMERATION_PATHS.len())].to_string()
                } else {
                    ENUMERATION_PATHS[rng.gen_range(0..ENUMERATION_PATHS.len())].to_string()
                };
                let mut segs = Vec::new();
                let Some(key) = self.tcp.connect(addr, 80, &mut segs) else {
                    return; // Every ephemeral port is bound: the probe dies here.
                };
                self.track_conn(key, ConnPurpose::Http { domain, path });
                self.tcp_packets(addr, segs, ctx);
            }
            ProbeKind::Https => {
                let mut segs = Vec::new();
                let Some(key) = self.tcp.connect(addr, 443, &mut segs) else {
                    return; // Every ephemeral port is bound: the probe dies here.
                };
                self.track_conn(key, ConnPurpose::Https { domain, seed });
                self.tcp_packets(addr, segs, ctx);
            }
        }
    }

    /// Record a connection in flight; an entry its key still held (a
    /// connection the stack dropped without an event) is replaced.
    fn track_conn(&mut self, key: ConnKey, purpose: ConnPurpose) {
        if let ConnPurpose::Http { domain, .. } = &purpose {
            *self.http_pending.entry(domain.clone()).or_insert(0) += 1;
        }
        if let Some(replaced) = self.pending_conns.insert(key, purpose) {
            self.forget_http(&replaced);
        }
    }

    /// Stop tracking the connection at `key`, if it was tracked.
    fn untrack_conn(&mut self, key: &ConnKey) {
        if let Some(purpose) = self.pending_conns.remove(key) {
            self.forget_http(&purpose);
        }
    }

    fn forget_http(&mut self, purpose: &ConnPurpose) {
        let ConnPurpose::Http { domain, .. } = purpose else {
            return;
        };
        let count = self
            .http_pending
            .get_mut(domain)
            .expect("every tracked HTTP connection is counted");
        *count -= 1;
        if *count == 0 {
            self.http_pending.remove(domain);
        }
    }

    fn on_tcp(&mut self, src: Ipv4Addr, seg: shadow_packet::tcp::TcpSegment, ctx: &mut Ctx<'_>) {
        let mut out = Vec::new();
        let events = self.tcp.on_segment(src, seg, &mut out);
        self.tcp_packets(src, out, ctx);
        for event in events {
            match event {
                TcpEvent::Established(key) => {
                    let Some(purpose) = self.pending_conns.get(&key) else {
                        continue;
                    };
                    let payload = match purpose {
                        ConnPurpose::Http { domain, path } => {
                            HttpRequest::get(domain.as_str(), path).encode()
                        }
                        ConnPurpose::Https { domain, seed } => {
                            let mut random = [0u8; 32];
                            ChaCha20Rng::seed_from_u64(*seed).fill(&mut random);
                            ClientHello::with_sni(domain.as_str(), random).encode_record()
                        }
                    };
                    let mut out = Vec::new();
                    self.tcp.send(key, payload, &mut out);
                    self.tcp_packets(key.peer, out, ctx);
                }
                TcpEvent::Data(key, _bytes) => {
                    // Response received; the prober closes after one round.
                    let mut out = Vec::new();
                    self.tcp.close(key, &mut out);
                    self.tcp_packets(key.peer, out, ctx);
                    self.untrack_conn(&key);
                }
                TcpEvent::Closed(key) | TcpEvent::Reset(key) => {
                    self.untrack_conn(&key);
                }
            }
        }
    }
}

impl Host for ProbeOriginHost {
    fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
        match Transport::parse(&pkt) {
            Ok(Transport::Udp(dg)) if dg.src_port == 53 => {
                if let Ok(msg) = DnsMessage::decode(&dg.payload) {
                    if msg.flags.response {
                        self.on_dns_response(msg, ctx);
                    }
                }
            }
            Ok(Transport::Tcp(seg)) => self.on_tcp(pkt.header.src, seg, ctx),
            _ => {}
        }
    }

    fn on_message(&mut self, msg: Box<dyn Any + Send + Sync>, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<ProbeOrder>() {
            Ok(order) => {
                let order = *order;
                match order.kind {
                    ProbeKind::Dns => {
                        self.start_lookup(order.domain, ProbeKind::Dns, order.seed, ctx)
                    }
                    ProbeKind::Https => {
                        self.start_lookup(order.domain, ProbeKind::Https, order.seed, ctx)
                    }
                    ProbeKind::Http => {
                        // Path enumeration: fan one order into several
                        // staggered single-request connections, each with a
                        // sub-seed split from the order's.
                        self.start_lookup(order.domain.clone(), ProbeKind::Http, order.seed, ctx);
                        for i in 1..self.http_paths_per_order {
                            ctx.post(
                                ctx.node(),
                                SimDuration::from_millis(200 * i as u64),
                                Box::new(FollowUpHttp {
                                    domain: order.domain.clone(),
                                    seed: order.seed.wrapping_add(
                                        (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                                    ),
                                }),
                            );
                        }
                    }
                }
                return;
            }
            Err(other) => other,
        };
        if let Ok(follow_up) = msg.downcast::<FollowUpHttp>() {
            self.start_lookup(follow_up.domain, ProbeKind::Http, follow_up.seed, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_geo::{Asn, Region};
    use shadow_netsim::engine::Engine;
    use shadow_netsim::time::SimTime;
    use shadow_netsim::topology::{NodeId, TopologyBuilder};
    use shadow_packet::dns::{DnsRecord, Rcode};
    use shadow_packet::tcp::{TcpFlags, TcpSegment};

    /// Answers every A query with the address its domain maps to.
    #[derive(Clone)]
    struct Resolver {
        addr: Ipv4Addr,
        answers: HashMap<DnsName, Ipv4Addr>,
    }

    impl Host for Resolver {
        fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
            let Ok(Transport::Udp(dg)) = Transport::parse(&pkt) else {
                return;
            };
            let query = DnsMessage::decode(&dg.payload).expect("a DNS query");
            let name = query.qname().expect("one question").clone();
            let answer = DnsRecord::a(name.clone(), 300, self.answers[&name]);
            let reply = DnsMessage::response(&query, false, Rcode::NoError, vec![answer]);
            ctx.send(Ipv4Packet::new(
                self.addr,
                pkt.header.src,
                IpProtocol::Udp,
                DEFAULT_TTL,
                0,
                UdpDatagram::new(53, dg.src_port, reply.encode()).encode(),
            ));
        }
    }

    /// How a server ends a connection once the request is in.
    #[derive(Clone, Copy, Debug)]
    enum Ending {
        /// Never: the connection stays pending at the origin.
        Hold,
        /// A response, then FIN (the origin's `Data` branch).
        Respond,
        /// FIN without a response (the origin's `Closed` branch).
        Close,
        /// RST (the origin's `Reset` branch).
        Reset,
    }

    /// A web server on port 80 that records each request's path.
    #[derive(Clone)]
    struct Server {
        addr: Ipv4Addr,
        ending: Ending,
        tcp: TcpStack,
        paths: Vec<String>,
    }

    impl Host for Server {
        fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
            let Ok(Transport::Tcp(seg)) = Transport::parse(&pkt) else {
                return;
            };
            let mut out = Vec::new();
            for event in self.tcp.on_segment(pkt.header.src, seg, &mut out) {
                let TcpEvent::Data(key, bytes) = event else {
                    continue;
                };
                let request = HttpRequest::decode(&bytes).expect("one whole request");
                self.paths.push(request.path);
                match self.ending {
                    Ending::Hold => {}
                    Ending::Respond => {
                        self.tcp
                            .send(key, b"HTTP/1.1 404 Not Found\r\n\r\n".to_vec(), &mut out);
                        self.tcp.close(key, &mut out);
                    }
                    Ending::Close => self.tcp.close(key, &mut out),
                    Ending::Reset => out.push(TcpSegment::new(
                        key.local_port,
                        key.peer_port,
                        0,
                        0,
                        TcpFlags::RST,
                        Vec::new(),
                    )),
                }
            }
            for seg in out {
                ctx.send(Ipv4Packet::new(
                    self.addr,
                    pkt.header.src,
                    IpProtocol::Tcp,
                    DEFAULT_TTL,
                    0,
                    seg.encode(),
                ));
            }
        }
    }

    /// The path an HTTP order with `seed` enumerates: any path for a
    /// first order, a deeper one for a follow-up.
    fn path(seed: u64, follow_up: bool) -> String {
        let first = usize::from(follow_up);
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        ENUMERATION_PATHS[rng.gen_range(first..ENUMERATION_PATHS.len())].to_string()
    }

    /// The per-domain HTTP count, recomputed by scanning every pending
    /// connection.
    fn scanned_http_pending(origin: &ProbeOriginHost) -> HashMap<DnsName, usize> {
        let mut counts = HashMap::new();
        for purpose in origin.pending_conns.values() {
            if let ConnPurpose::Http { domain, .. } = purpose {
                *counts.entry(domain.clone()).or_insert(0) += 1;
            }
        }
        counts
    }

    #[test]
    fn http_path_choice_follows_pending_connections() {
        let mut tb = TopologyBuilder::new(11);
        tb.add_as(Asn(1), Region::Europe);
        tb.add_as(Asn(2), Region::Europe);
        tb.link(Asn(1), Asn(2)).unwrap();
        tb.add_router(Asn(1), Ipv4Addr::new(1, 0, 0, 1), true)
            .unwrap();
        tb.add_router(Asn(2), Ipv4Addr::new(2, 0, 0, 1), true)
            .unwrap();
        let origin_addr = Ipv4Addr::new(1, 1, 0, 1);
        let resolver_addr = Ipv4Addr::new(2, 1, 0, 53);
        let origin = tb.add_host(Asn(1), origin_addr).unwrap();
        let resolver = tb.add_host(Asn(2), resolver_addr).unwrap();
        let endings = [Ending::Hold, Ending::Respond, Ending::Close, Ending::Reset];
        let servers: Vec<(NodeId, Ipv4Addr, DnsName)> = endings
            .iter()
            .enumerate()
            .map(|(i, ending)| {
                let addr = Ipv4Addr::new(2, 1, 0, 80 + i as u8);
                let domain = DnsName::parse(&format!("{ending:?}.example").to_lowercase());
                (tb.add_host(Asn(2), addr).unwrap(), addr, domain.unwrap())
            })
            .collect();
        let mut engine = Engine::new(tb.build().unwrap());
        let mut origin_host = ProbeOriginHost::new(origin_addr, DnsVia::Resolver(resolver_addr), 5);
        // One connection per order, so each order's path is its own.
        origin_host.http_paths_per_order = 1;
        engine.add_host(origin, Box::new(origin_host));
        engine.add_host(
            resolver,
            Box::new(Resolver {
                addr: resolver_addr,
                answers: servers
                    .iter()
                    .map(|(_, addr, domain)| (domain.clone(), *addr))
                    .collect(),
            }),
        );
        for (&ending, (node, addr, _)) in endings.iter().zip(&servers) {
            let mut tcp = TcpStack::new(7);
            tcp.listen(80);
            engine.add_host(
                *node,
                Box::new(Server {
                    addr: *addr,
                    ending,
                    tcp,
                    paths: Vec::new(),
                }),
            );
        }

        // Two orders per server, one second apart: the first order, then
        // one while the first connection is held (Hold) or after it
        // closed or was reset (the other three).
        let mut at = SimTime::ZERO;
        for (i, (_, _, domain)) in servers.iter().enumerate() {
            for order in 0..2u64 {
                let seed = 2 * i as u64 + order + 1;
                assert_ne!(
                    path(seed, false),
                    path(seed, true),
                    "seed {seed} tells nothing"
                );
                let probe = ProbeOrder {
                    domain: domain.clone(),
                    kind: ProbeKind::Http,
                    exhibitor: "test".into(),
                    seed,
                };
                engine.post(at, origin, Box::new(probe));
                at += SimDuration::from_secs(1);
                engine.run_until(at);
                let host = engine.host_as::<ProbeOriginHost>(origin).unwrap();
                assert_eq!(
                    host.http_pending,
                    scanned_http_pending(host),
                    "after seed {seed}"
                );
            }
        }

        for (i, (&ending, (node, _, domain))) in endings.iter().zip(&servers).enumerate() {
            let seeds = (2 * i as u64 + 1, 2 * i as u64 + 2);
            let held = matches!(ending, Ending::Hold);
            let expected = vec![path(seeds.0, false), path(seeds.1, held)];
            let server = engine.host_as::<Server>(*node).unwrap();
            assert_eq!(server.paths, expected, "{ending:?}");
            let host = engine.host_as::<ProbeOriginHost>(origin).unwrap();
            let pending = host.http_pending.get(domain).copied();
            assert_eq!(
                pending,
                held.then_some(2),
                "{ending:?}: pending connections"
            );
        }
    }
}
