//! Web endpoints: the honey websites (HTTP + TLS capture with logging) and,
//! with logging disabled, the generic destination servers standing in for
//! the Tranco-top-1K sites HTTP/TLS decoys are sent to, optionally with a
//! destination-side SNI sensor.

use crate::capture::{capture_with_telemetry, Arrival, ArrivalProtocol, Label, SharedArrivalSink};
use shadow_netsim::engine::{Ctx, Host};
use shadow_netsim::tcp::{ConnKey, TcpEvent, TcpStack};
use shadow_netsim::transport::Transport;
use shadow_observer::exhibitor::{Exhibitor, ExhibitorConfig};
use shadow_observer::retention::ObservedProtocol;
use shadow_packet::dns::DnsName;
use shadow_packet::http::{HttpRequest, HttpResponse};
use shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use shadow_packet::tcp::TcpSegment;
use shadow_packet::tls::{ClientHello, TlsRecord};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Seed diversifier for destination-side sensors, so their streams never
/// collide with other exhibitors seeded from the same world seed.
const SENSOR_SEED_SALT: u64 = 0x0517_e5d0;

/// The purpose-statement homepage the paper documents on the honeypot
/// website ("we document the purpose of our experiment and contact
/// information on the homepage").
pub const HONEYPOT_HOMEPAGE: &str = "<html><head><title>Measurement experiment</title></head>\
<body><h1>Internet measurement experiment</h1>\
<p>This server is part of an academic measurement of Internet traffic \
shadowing. Requests arriving here were triggered by decoy traffic we \
generated; no user data is involved. Contact: research@experiment.example\
</p></body></html>";

/// A web endpoint on ports 80 and 443.
#[derive(Clone)]
pub struct WebHost {
    addr: Ipv4Addr,
    tcp: TcpStack,
    /// `Some(region)` = honeypot mode with capture; `None` = plain site.
    honeypot_region: Option<Label>,
    /// Streaming correlation sink; installed by the campaign layer before
    /// Phase I traffic starts. `None` during the pre-flight, whose
    /// captures are dropped.
    sink: Option<SharedArrivalSink>,
    /// Buffered bytes per connection until a full request parses.
    rx: HashMap<ConnKey, Vec<u8>>,
    /// Optional destination-side shadowing sensor: the server's own
    /// network silently records SNI and probes it later. This models the
    /// paper's finding that 65% of TLS observers sit *at the destination*
    /// (Table 2); HTTP observers sit on the wire (97.7%), so the sensor
    /// watches SNI only.
    shadow: Option<Exhibitor>,
    pub http_requests_served: u64,
    pub tls_hellos_seen: u64,
}

impl WebHost {
    /// A logging honeypot in `region` ("US", "DE", "SG").
    pub fn honeypot(addr: Ipv4Addr, region: &str, seed: u32) -> Self {
        Self::build(addr, Some(region.into()), seed)
    }

    /// A plain destination website (no capture) — a Tranco-site stand-in.
    pub fn plain(addr: Ipv4Addr, seed: u32) -> Self {
        Self::build(addr, None, seed)
    }

    fn build(addr: Ipv4Addr, honeypot_region: Option<Label>, seed: u32) -> Self {
        let mut tcp = TcpStack::new(seed);
        tcp.listen(80);
        tcp.listen(443);
        Self {
            addr,
            tcp,
            honeypot_region,
            sink: None,
            rx: HashMap::new(),
            shadow: None,
            http_requests_served: 0,
            tls_hellos_seen: 0,
        }
    }

    /// Attach a destination-side SNI sensor (builder style): an exhibitor
    /// labelled `label`, seeded from `seed`, running `config`.
    pub fn with_shadow(mut self, label: &str, seed: u64, config: ExhibitorConfig) -> Self {
        self.shadow = Some(Exhibitor::new(label, seed ^ SENSOR_SEED_SALT, config));
        self
    }

    /// Raw packet-level sniffing run before TCP processing: a port-mirror
    /// sensor sees every segment, including Phase II's handshake-less
    /// probes that the TCP stack itself would RST.
    fn sniff(&mut self, seg: &TcpSegment, ctx: &mut Ctx<'_>) {
        let Some(shadow) = &mut self.shadow else {
            return;
        };
        if seg.dst_port != 443 || seg.payload.is_empty() {
            return;
        }
        let Ok(hello) = ClientHello::decode_record(&seg.payload) else {
            return;
        };
        // Destination-side sensors share the terminating server's keys: a
        // fronted hello's sealed inner name is readable here, unlike at any
        // on-path tap (which sees only the shared front SNI). ECH stays
        // sealed — those keys live with the client-facing front, not this
        // origin.
        let name = hello.fronted_inner().or_else(|| hello.sni());
        if let Some(domain) = name.and_then(|name| DnsName::parse(&name).ok()) {
            shadow.observe(&domain, ObservedProtocol::Tls, ctx);
        }
    }

    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// Install (or clear) the streaming arrival sink.
    pub fn set_arrival_sink(&mut self, sink: Option<SharedArrivalSink>) {
        self.sink = sink;
    }

    /// Whether an arrival sink is installed.
    pub fn has_arrival_sink(&self) -> bool {
        self.sink.is_some()
    }

    fn emit(&self, peer: Ipv4Addr, segs: Vec<shadow_packet::tcp::TcpSegment>, ctx: &mut Ctx<'_>) {
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

    fn capture(&self, arrival: Arrival, ctx: &Ctx<'_>) {
        if self.honeypot_region.is_some() {
            capture_with_telemetry(self.sink.as_ref(), arrival, ctx);
        }
    }

    fn handle_http(&mut self, key: ConnKey, raw: &[u8], ctx: &mut Ctx<'_>) -> bool {
        let Ok(req) = HttpRequest::decode(raw) else {
            return false; // wait for more bytes
        };
        self.http_requests_served += 1;
        if let Some(region) = self.honeypot_region.clone() {
            if let Some(host) = req.host() {
                if let Ok(domain) = DnsName::parse(host) {
                    self.capture(
                        Arrival {
                            at: ctx.now(),
                            src: key.peer,
                            protocol: ArrivalProtocol::Http,
                            domain,
                            http_path: Some(req.path.clone()),
                            honeypot: region,
                        },
                        ctx,
                    );
                }
            }
        }
        let response = if req.path == "/" {
            HttpResponse::ok(HONEYPOT_HOMEPAGE.as_bytes().to_vec())
        } else {
            HttpResponse::not_found()
        };
        let mut out = Vec::new();
        self.tcp.send(key, response.encode(), &mut out);
        self.tcp.close(key, &mut out);
        self.emit(key.peer, out, ctx);
        true
    }

    fn handle_tls(&mut self, key: ConnKey, raw: &[u8], ctx: &mut Ctx<'_>) -> bool {
        let Ok(hello) = ClientHello::decode_record(raw) else {
            return false;
        };
        self.tls_hellos_seen += 1;
        // The terminating endpoint opens a fronted hello's sealed inner
        // name — correct attribution exactly where an SNI-keyed on-path
        // tap mislabels the flow as the CDN front.
        let fronted = hello.fronted_inner();
        if fronted.is_some() {
            if let Some(m) = ctx.telemetry().metrics() {
                m.fronted_inner_observed.inc();
            }
        }
        if let Some(region) = self.honeypot_region.clone() {
            if let Some(name) = fronted.or_else(|| hello.sni()) {
                if let Ok(domain) = DnsName::parse(&name) {
                    self.capture(
                        Arrival {
                            at: ctx.now(),
                            src: key.peer,
                            protocol: ArrivalProtocol::Https,
                            domain,
                            http_path: None,
                            honeypot: region,
                        },
                        ctx,
                    );
                }
            }
        }
        // Log-and-decline: answer with a fatal handshake_failure alert.
        let mut out = Vec::new();
        self.tcp
            .send(key, TlsRecord::fatal_alert(40).encode(), &mut out);
        self.tcp.close(key, &mut out);
        self.emit(key.peer, out, ctx);
        true
    }
}

impl Host for WebHost {
    fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
        let Ok(Transport::Tcp(seg)) = Transport::parse(&pkt) else {
            return;
        };
        self.sniff(&seg, ctx);
        let mut out = Vec::new();
        let events = self.tcp.on_segment(pkt.header.src, seg, &mut out);
        self.emit(pkt.header.src, out, ctx);
        for event in events {
            match event {
                TcpEvent::Data(key, bytes) => {
                    let mut buf = self.rx.remove(&key).unwrap_or_default();
                    buf.extend_from_slice(&bytes);
                    let consumed = match key.local_port {
                        80 => self.handle_http(key, &buf, ctx),
                        443 => self.handle_tls(key, &buf, ctx),
                        _ => true, // unexpected port: discard
                    };
                    if !consumed {
                        self.rx.insert(key, buf);
                    }
                }
                TcpEvent::Closed(key) | TcpEvent::Reset(key) => {
                    self.rx.remove(&key);
                }
                TcpEvent::Established(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureLog;
    use shadow_geo::{Asn, Region};
    use shadow_netsim::engine::Engine;
    use shadow_netsim::time::{SimDuration, SimTime};
    use shadow_netsim::topology::{NodeId, TopologyBuilder};
    use shadow_observer::policy::{DelayBucket, ProbeKind, ReplayPolicy, WeightedChoice};
    use shadow_observer::probe::ProbeOrder;
    use shadow_packet::encrypted;
    use shadow_packet::tcp::TcpFlags;
    use shadow_packet::tls::FRONT_SNI;
    use std::any::Any;

    /// A minimal client driving one HTTP or TLS exchange.
    #[derive(Clone)]
    struct Client {
        addr: Ipv4Addr,
        tcp: TcpStack,
        payload: Vec<u8>,
        port: u16,
        server: Ipv4Addr,
        key: Option<ConnKey>,
        pub responses: Vec<Vec<u8>>,
        started: bool,
    }

    impl Client {
        fn new(addr: Ipv4Addr, server: Ipv4Addr, port: u16, payload: Vec<u8>) -> Self {
            Self {
                addr,
                tcp: TcpStack::new(99),
                payload,
                port,
                server,
                key: None,
                responses: Vec::new(),
                started: false,
            }
        }

        fn emit(&self, segs: Vec<shadow_packet::tcp::TcpSegment>, ctx: &mut Ctx<'_>) {
            for seg in segs {
                ctx.send(Ipv4Packet::new(
                    self.addr,
                    self.server,
                    IpProtocol::Tcp,
                    DEFAULT_TTL,
                    0,
                    seg.encode(),
                ));
            }
        }
    }

    impl Host for Client {
        fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
            let Ok(Transport::Tcp(seg)) = Transport::parse(&pkt) else {
                return;
            };
            let mut out = Vec::new();
            let events = self.tcp.on_segment(pkt.header.src, seg, &mut out);
            self.emit(out, ctx);
            for event in events {
                match event {
                    TcpEvent::Established(key) => {
                        let mut out = Vec::new();
                        self.tcp.send(key, self.payload.clone(), &mut out);
                        self.emit(out, ctx);
                    }
                    TcpEvent::Data(_, bytes) => self.responses.push(bytes.to_vec()),
                    _ => {}
                }
            }
        }

        fn on_message(&mut self, _msg: Box<dyn Any + Send + Sync>, ctx: &mut Ctx<'_>) {
            if !self.started {
                self.started = true;
                let mut out = Vec::new();
                self.key = self.tcp.connect(self.server, self.port, &mut out);
                self.emit(out, ctx);
            }
        }
    }

    fn world() -> (Engine, NodeId, NodeId, Ipv4Addr, Ipv4Addr) {
        let mut tb = TopologyBuilder::new(6);
        tb.add_as(Asn(1), Region::Europe);
        tb.add_router(Asn(1), Ipv4Addr::new(1, 0, 0, 1), true)
            .unwrap();
        let client_addr = Ipv4Addr::new(1, 1, 0, 1);
        let web_addr = Ipv4Addr::new(1, 1, 0, 80);
        let client = tb.add_host(Asn(1), client_addr).unwrap();
        let web = tb.add_host(Asn(1), web_addr).unwrap();
        (
            Engine::new(tb.build().unwrap()),
            client,
            web,
            client_addr,
            web_addr,
        )
    }

    /// `host` with a recording sink installed, and that sink.
    fn recorded(mut host: WebHost) -> (Box<WebHost>, SharedArrivalSink) {
        let sink = CaptureLog::shared();
        host.set_arrival_sink(Some(sink.clone()));
        (Box::new(host), sink)
    }

    #[test]
    fn honeypot_logs_http_request_with_path() {
        let (mut engine, client, web, client_addr, web_addr) = world();
        let (host, sink) = recorded(WebHost::honeypot(web_addr, "US", 1));
        engine.add_host(web, host);
        let req = HttpRequest::get("abc123.www.experiment.example", "/.git/config");
        engine.add_host(
            client,
            Box::new(Client::new(client_addr, web_addr, 80, req.encode())),
        );
        engine.post(SimTime::ZERO, client, Box::new(()));
        engine.run_to_completion();
        let arrivals = CaptureLog::arrivals(&sink);
        assert_eq!(arrivals.len(), 1);
        let arrival = &arrivals[0];
        assert_eq!(arrival.protocol, ArrivalProtocol::Http);
        assert_eq!(arrival.domain.as_str(), "abc123.www.experiment.example");
        assert_eq!(arrival.http_path.as_deref(), Some("/.git/config"));
        assert_eq!(arrival.honeypot, "US");
        // Client got the 404.
        let c = engine.host_as::<Client>(client).unwrap();
        assert!(!c.responses.is_empty());
        let resp = HttpResponse::decode(&c.responses.concat()).unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn homepage_returns_purpose_statement() {
        let (mut engine, client, web, client_addr, web_addr) = world();
        engine.add_host(web, Box::new(WebHost::honeypot(web_addr, "DE", 2)));
        let req = HttpRequest::get("x.www.experiment.example", "/");
        engine.add_host(
            client,
            Box::new(Client::new(client_addr, web_addr, 80, req.encode())),
        );
        engine.post(SimTime::ZERO, client, Box::new(()));
        engine.run_to_completion();
        let c = engine.host_as::<Client>(client).unwrap();
        let resp = HttpResponse::decode(&c.responses.concat()).unwrap();
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8_lossy(&resp.body).contains("measurement"));
    }

    #[test]
    fn honeypot_logs_tls_sni_and_declines() {
        let (mut engine, client, web, client_addr, web_addr) = world();
        let (host, sink) = recorded(WebHost::honeypot(web_addr, "SG", 3));
        engine.add_host(web, host);
        let hello = ClientHello::with_sni("tls7.www.experiment.example", [5u8; 32]);
        engine.add_host(
            client,
            Box::new(Client::new(
                client_addr,
                web_addr,
                443,
                hello.encode_record(),
            )),
        );
        engine.post(SimTime::ZERO, client, Box::new(()));
        engine.run_to_completion();
        let arrivals = CaptureLog::arrivals(&sink);
        assert_eq!(arrivals.len(), 1);
        let arrival = &arrivals[0];
        assert_eq!(arrival.protocol, ArrivalProtocol::Https);
        assert_eq!(arrival.domain.as_str(), "tls7.www.experiment.example");
        // The client got a fatal alert back.
        let c = engine.host_as::<Client>(client).unwrap();
        let rec = TlsRecord::decode(&c.responses.concat()).unwrap();
        assert_eq!(rec.content_type, shadow_packet::tls::CONTENT_TYPE_ALERT);
    }

    #[test]
    fn plain_site_serves_but_never_captures() {
        let (mut engine, client, web, client_addr, web_addr) = world();
        let (host, sink) = recorded(WebHost::plain(web_addr, 4));
        engine.add_host(web, host);
        let req = HttpRequest::get("decoy.www.experiment.example", "/");
        engine.add_host(
            client,
            Box::new(Client::new(client_addr, web_addr, 80, req.encode())),
        );
        engine.post(SimTime::ZERO, client, Box::new(()));
        engine.run_to_completion();
        let host = engine.host_as::<WebHost>(web).unwrap();
        assert!(
            CaptureLog::arrivals(&sink).is_empty(),
            "plain sites do not log"
        );
        assert_eq!(host.http_requests_served, 1, "but they do serve");
    }

    /// Records the probe orders posted to its node.
    #[derive(Clone)]
    struct Orders(Vec<ProbeOrder>);

    impl Host for Orders {
        fn on_packet(&mut self, _pkt: Ipv4Packet, _ctx: &mut Ctx<'_>) {}

        fn on_message(&mut self, msg: Box<dyn Any + Send + Sync>, _ctx: &mut Ctx<'_>) {
            if let Ok(order) = msg.downcast::<ProbeOrder>() {
                self.0.push(*order);
            }
        }
    }

    #[test]
    fn destination_sensor_probes_the_names_it_can_read() {
        let mut tb = TopologyBuilder::new(6);
        tb.add_as(Asn(1), Region::Europe);
        tb.add_router(Asn(1), Ipv4Addr::new(1, 0, 0, 1), true)
            .unwrap();
        let client_addr = Ipv4Addr::new(1, 1, 0, 1);
        let web_addr = Ipv4Addr::new(1, 1, 0, 80);
        let client = tb.add_host(Asn(1), client_addr).unwrap();
        let web = tb.add_host(Asn(1), web_addr).unwrap();
        let origin = tb.add_host(Asn(1), Ipv4Addr::new(1, 1, 0, 99)).unwrap();
        let mut engine = Engine::new(tb.build().unwrap());
        let config = ExhibitorConfig {
            zone_filter: Some(DnsName::parse("www.experiment.example").unwrap()),
            policy: ReplayPolicy {
                trigger_percent: 100,
                delays: vec![WeightedChoice::new(DelayBucket::Seconds(1, 5), 1)],
                protocols: vec![WeightedChoice::new(ProbeKind::Dns, 1)],
                reuse: vec![WeightedChoice::new(1, 1)],
            },
            retention_capacity: 100,
            retention_ttl: SimDuration::from_days(1),
            origins: vec![WeightedChoice::new(origin, 1)],
        };
        let site = WebHost::plain(web_addr, 5).with_shadow("tls-dst", 1, config);
        engine.add_host(web, Box::new(site));
        engine.add_host(origin, Box::new(Orders(Vec::new())));
        // A clear SNI over a full handshake.
        let clear = ClientHello::with_sni("clear.www.experiment.example", [1u8; 32]);
        engine.add_host(
            client,
            Box::new(Client::new(
                client_addr,
                web_addr,
                443,
                clear.encode_record(),
            )),
        );
        engine.post(SimTime::ZERO, client, Box::new(()));
        // Handshake-less segments, as Phase II's TTL sweep sends them.
        let sealed = |name: &str| encrypted::seal_name(name, 7);
        let hellos = [
            ClientHello::with_fronted(
                FRONT_SNI,
                [2u8; 32],
                sealed("fronted.www.experiment.example"),
            ),
            ClientHello::with_ech([3u8; 32], sealed("ech.www.experiment.example")),
        ];
        for (i, hello) in hellos.iter().enumerate() {
            let seg = TcpSegment::new(
                40_000 + i as u16,
                443,
                1,
                1,
                TcpFlags::PSH_ACK,
                hello.encode_record(),
            );
            let pkt = Ipv4Packet::new(
                client_addr,
                web_addr,
                IpProtocol::Tcp,
                DEFAULT_TTL,
                0,
                seg.encode(),
            );
            engine.inject(SimTime(1_000 * (i as u64 + 1)), client, pkt);
        }
        engine.run_to_completion();
        let orders = &engine.host_as::<Orders>(origin).unwrap().0;
        let mut probed: Vec<&str> = orders.iter().map(|o| o.domain.as_str()).collect();
        probed.sort_unstable();
        // The fronted hello's inner name is readable at the destination;
        // ECH's is not, and its cover SNI lies outside the zone.
        assert_eq!(
            probed,
            [
                "clear.www.experiment.example",
                "fronted.www.experiment.example"
            ]
        );
    }
}
