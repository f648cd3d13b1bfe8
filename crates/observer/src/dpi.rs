//! The on-wire traffic observer: a DPI-style wire tap.
//!
//! Extracts the three clear-text fields the paper's decoys bait — DNS
//! QNAMEs, HTTP `Host` headers, TLS SNI — from packets the router forwards
//! and hands them to its [`Exhibitor`], which retains them and schedules
//! unsolicited probes through its probe-origin hosts. Forwarding is never
//! disturbed ([`TapVerdict::Continue`]): that is precisely what makes
//! traffic shadowing covert.
//!
//! Encrypted flows degrade gracefully rather than vanish: a DoT/DoH/DoQ
//! frame or ECH hello surfaces as [`Visibility::Hidden`] — the tap counts
//! it, optionally attributes it via the name-blind
//! [`FingerprintDb`](crate::fingerprint::FingerprintDb) fallback, and
//! journals an `EncryptedFlowTapped` event — but no name means no probe.
//! Fronted-CDN hellos are the inverse failure: the tap *does* see a clear
//! SNI, but it is the shared front name, so SNI-keyed attribution is wrong
//! unless the tap sits at the terminating destination.

use crate::exhibitor::{Exhibitor, ExhibitorConfig};
use crate::fingerprint::FingerprintDb;
pub use crate::retention::ObservedProtocol;
use shadow_netsim::engine::{Ctx, TapVerdict, WireTap};
use shadow_netsim::topology::NodeId;
use shadow_packet::ipv4::Ipv4Packet;
use shadow_packet::tls::FRONT_SNI;
use shadow_packet::{AppProtocol, DecodedView, Visibility};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

impl From<AppProtocol> for ObservedProtocol {
    fn from(p: AppProtocol) -> Self {
        match p {
            AppProtocol::Dns => ObservedProtocol::Dns,
            AppProtocol::Http => ObservedProtocol::Http,
            AppProtocol::Tls => ObservedProtocol::Tls,
        }
    }
}

/// Configuration of one DPI observer.
#[derive(Debug, Clone)]
pub struct DpiConfig {
    /// Ground-truth exhibitor label (tests only; never read by the
    /// measurement pipeline).
    pub label: String,
    pub watch_dns: bool,
    pub watch_http: bool,
    pub watch_tls: bool,
    /// Only observe packets towards these destinations (`None` = any).
    /// The paper: "observers exhibit preferences in traffic destination
    /// (similar to other types of manipulation, e.g., interception)".
    pub dst_filter: Option<BTreeSet<Ipv4Addr>>,
    /// What the tap's exhibitor does with the names it extracts.
    pub exhibitor: ExhibitorConfig,
    pub seed: u64,
    /// Destination-IP fingerprint table for name-blind classification of
    /// encrypted flows. Empty = the observer has no fallback and hidden
    /// flows are counted but never attributed.
    pub fingerprints: FingerprintDb,
    /// Ground-truth bookkeeping (never read by observer behaviour): the
    /// measurement platform's source addresses. The wire-recall telemetry
    /// counters (`wire_names_observed`, `encrypted_flows_observed`,
    /// `front_sni_observations`) only count flows these addresses
    /// originate, so the observers' *own* probe replays — which re-put
    /// decoy names on the wire in the clear — don't echo into the recall
    /// numerators. `None` counts every flow (unit-test worlds).
    pub recall_sources: Option<BTreeSet<Ipv4Addr>>,
}

/// Counters exposed for tests and for ground-truth bookkeeping (the
/// exhibitor keeps its own, see [`DpiTap::exhibitor`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpiStats {
    pub packets_seen: u64,
    /// Hidden (encrypted) flows seen: the name was out of reach.
    pub encrypted_flows_seen: u64,
    /// Hidden flows the IP-fingerprint fallback attributed to a service.
    pub name_blind_classified: u64,
    /// Clear SNI sightings that were the shared CDN front name.
    pub front_sni_seen: u64,
}

/// The tap itself: name extraction, watch switches and recall telemetry
/// in front of one [`Exhibitor`].
#[derive(Clone)]
pub struct DpiTap {
    watch_dns: bool,
    watch_http: bool,
    watch_tls: bool,
    dst_filter: Option<BTreeSet<Ipv4Addr>>,
    fingerprints: FingerprintDb,
    recall_sources: Option<BTreeSet<Ipv4Addr>>,
    exhibitor: Exhibitor,
    stats: DpiStats,
    /// Whether the wire-recall telemetry window is open. The study closes
    /// it before Phase II: the TTL sweep's volume depends on what Phase I
    /// discovered, which varies across encryption levels, so counting its
    /// packets would let replay *volume* masquerade as name *recall*.
    /// Phase I planning is identical at every deployment level (same
    /// decoys, same schedule — only the framing differs), so a Phase-I-only
    /// window makes the recall curves exactly monotone along the ladder.
    recall_open: bool,
}

impl DpiTap {
    pub fn new(config: DpiConfig) -> Self {
        let DpiConfig {
            label,
            watch_dns,
            watch_http,
            watch_tls,
            dst_filter,
            exhibitor,
            seed,
            fingerprints,
            recall_sources,
        } = config;
        Self {
            watch_dns,
            watch_http,
            watch_tls,
            dst_filter,
            fingerprints,
            recall_sources,
            exhibitor: Exhibitor::new(label, seed ^ 0xd91_7a9, exhibitor),
            stats: DpiStats::default(),
            recall_open: true,
        }
    }

    /// Close the wire-recall telemetry window (see `recall_open`). Observer
    /// behaviour — retention, probing, stats — is unaffected; only the
    /// recall counters and the `EncryptedFlowTapped` journal stream stop.
    pub fn close_recall_window(&mut self) {
        self.recall_open = false;
    }

    pub fn stats(&self) -> DpiStats {
        self.stats
    }

    pub fn exhibitor(&self) -> &Exhibitor {
        &self.exhibitor
    }

    /// Whether this observer's protocol switches cover `proto`. Filtering
    /// happens *after* reading the shared [`DecodedView`] — the view caches
    /// the maximal extraction, per-tap configuration is applied here.
    fn watches(&self, proto: AppProtocol) -> bool {
        match proto {
            AppProtocol::Dns => self.watch_dns,
            AppProtocol::Http => self.watch_http,
            AppProtocol::Tls => self.watch_tls,
        }
    }

    /// Whether `src` is a measured (platform-originated) flow for the
    /// wire-recall telemetry. Observer behaviour never consults this.
    fn measured(&self, src: Ipv4Addr) -> bool {
        if !self.recall_open {
            return false;
        }
        match &self.recall_sources {
            Some(sources) => sources.contains(&src),
            None => true,
        }
    }

    /// Graceful degradation for a flow whose name is sealed: count it, try
    /// the IP-fingerprint fallback, journal the sighting. No name reaches
    /// the exhibitor — an IP-level guess is not replayable data.
    fn observe_hidden(
        &mut self,
        pkt: &Ipv4Packet,
        transport: shadow_packet::EncryptedTransport,
        ctx: &mut Ctx<'_>,
    ) {
        self.stats.encrypted_flows_seen += 1;
        let classified = self
            .fingerprints
            .classify(pkt.header.dst, pkt.payload.len());
        if classified.is_some() {
            self.stats.name_blind_classified += 1;
        }
        // Recall telemetry counts measured flows only — the fallback runs
        // (and the stats above count) for every hidden flow the tap sees.
        if !self.measured(pkt.header.src) {
            return;
        }
        let telemetry = ctx.telemetry();
        if let Some(m) = telemetry.metrics() {
            m.encrypted_flows_observed.inc();
            if classified.is_some() {
                m.name_blind_classifications.inc();
            }
        }
        telemetry.event(ctx.now().millis(), Some(ctx.node().0), || {
            shadow_telemetry::EventKind::EncryptedFlowTapped {
                src: pkt.header.src,
                dst: pkt.header.dst,
                transport: transport_label(transport),
                classified: classified.map(str::to_string),
            }
        });
    }
}

/// The journal's one-byte form of an encrypted transport's name.
fn transport_label(transport: shadow_packet::EncryptedTransport) -> shadow_telemetry::Label {
    use shadow_packet::EncryptedTransport;
    use shadow_telemetry::Label;
    match transport {
        EncryptedTransport::DoT => Label::Dot,
        EncryptedTransport::DoH => Label::Doh,
        EncryptedTransport::DoQ => Label::Doq,
        EncryptedTransport::Ech => Label::Ech,
    }
}

impl WireTap for DpiTap {
    fn on_packet(
        &mut self,
        pkt: &Ipv4Packet,
        view: &DecodedView,
        _at: NodeId,
        ctx: &mut Ctx<'_>,
    ) -> TapVerdict {
        self.stats.packets_seen += 1;
        if let Some(filter) = &self.dst_filter {
            if !filter.contains(&pkt.header.dst) {
                return TapVerdict::Continue;
            }
        }
        // Parse-once fast path: the first tap on the route pays for the
        // application decode; this tap (and every later hop) reads the memo.
        let Some(vis) = view.visibility(pkt) else {
            return TapVerdict::Continue;
        };
        let field = match vis {
            Visibility::Clear(field) => field,
            Visibility::Hidden(hidden) => {
                if self.watches(hidden.protocol) {
                    let transport = hidden.transport;
                    self.observe_hidden(pkt, transport, ctx);
                }
                return TapVerdict::Continue;
            }
        };
        if !self.watches(field.protocol) {
            return TapVerdict::Continue;
        }
        if field.protocol == AppProtocol::Tls && field.name.as_str() == FRONT_SNI {
            // A fronted hello: the SNI this tap keys on is the shared CDN
            // front, not the flow's real name. Count the mislabeling; the
            // normal pipeline below then proceeds on the front name —
            // exactly the wrong attribution a real SNI-keyed observer
            // makes (only the terminating destination can do better).
            self.stats.front_sni_seen += 1;
            if self.measured(pkt.header.src) {
                if let Some(m) = ctx.telemetry().metrics() {
                    m.front_sni_observations.inc();
                }
            }
        } else if self.measured(pkt.header.src) {
            if let Some(m) = ctx.telemetry().metrics() {
                // A real name in the clear — the on-wire recall numerator.
                m.wire_names_observed.inc(match field.protocol {
                    AppProtocol::Dns => "DNS",
                    AppProtocol::Http => "HTTP",
                    AppProtocol::Tls => "TLS",
                });
            }
        }
        self.exhibitor
            .observe(&field.name, field.protocol.into(), ctx);
        TapVerdict::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DelayBucket, ProbeKind, ReplayPolicy, WeightedChoice};
    use crate::probe::ProbeOrder;
    use shadow_geo::{Asn, Region};
    use shadow_netsim::engine::{Engine, Host};
    use shadow_netsim::time::{SimDuration, SimTime};
    use shadow_netsim::topology::TopologyBuilder;
    use shadow_packet::dns::{DnsMessage, DnsName};
    use shadow_packet::http::HttpRequest;
    use shadow_packet::ipv4::{IpProtocol, DEFAULT_TTL};
    use shadow_packet::tcp::{TcpFlags, TcpSegment};
    use shadow_packet::tls;
    use shadow_packet::udp::UdpDatagram;
    use std::any::Any;

    #[test]
    fn journal_labels_render_as_str() {
        use shadow_packet::EncryptedTransport;
        for transport in [
            EncryptedTransport::DoT,
            EncryptedTransport::DoH,
            EncryptedTransport::DoQ,
            EncryptedTransport::Ech,
        ] {
            assert_eq!(transport_label(transport).as_str(), transport.as_str());
        }
    }

    /// Records ProbeOrders with their delivery times.
    #[derive(Clone)]
    struct Recorder {
        orders: Vec<(SimTime, ProbeOrder)>,
    }

    impl Host for Recorder {
        fn on_packet(&mut self, _pkt: Ipv4Packet, _ctx: &mut Ctx<'_>) {}

        fn on_message(&mut self, msg: Box<dyn Any + Send + Sync>, ctx: &mut Ctx<'_>) {
            if let Ok(order) = msg.downcast::<ProbeOrder>() {
                self.orders.push((ctx.now(), *order));
            }
        }
    }

    struct World {
        engine: Engine,
        client: shadow_netsim::NodeId,
        origin: shadow_netsim::NodeId,
        tap_node: shadow_netsim::NodeId,
        client_addr: Ipv4Addr,
        server_addr: Ipv4Addr,
    }

    fn world(config_for: impl FnOnce(NodeId) -> DpiConfig) -> World {
        let mut tb = TopologyBuilder::new(5);
        tb.add_as(Asn(1), Region::EastAsia);
        tb.add_as(Asn(2), Region::EastAsia);
        tb.link(Asn(1), Asn(2)).unwrap();
        tb.add_router(Asn(1), Ipv4Addr::new(1, 0, 0, 1), true)
            .unwrap();
        tb.add_router(Asn(2), Ipv4Addr::new(2, 0, 0, 1), true)
            .unwrap();
        let client_addr = Ipv4Addr::new(1, 1, 0, 1);
        let server_addr = Ipv4Addr::new(2, 1, 0, 1);
        let client = tb.add_host(Asn(1), client_addr).unwrap();
        let _server = tb.add_host(Asn(2), server_addr).unwrap();
        let origin = tb.add_host(Asn(2), Ipv4Addr::new(2, 1, 0, 99)).unwrap();
        let topo = tb.build().unwrap();
        let route = topo.route(client, _server).unwrap();
        let tap_node = route[1];
        let mut engine = Engine::new(topo);
        engine.add_tap(tap_node, Box::new(DpiTap::new(config_for(origin))));
        engine.add_host(origin, Box::new(Recorder { orders: Vec::new() }));
        World {
            engine,
            client,
            origin,
            tap_node,
            client_addr,
            server_addr,
        }
    }

    fn prompt_policy() -> ReplayPolicy {
        ReplayPolicy {
            trigger_percent: 100,
            delays: vec![WeightedChoice::new(DelayBucket::Seconds(1, 5), 1)],
            protocols: vec![WeightedChoice::new(ProbeKind::Dns, 1)],
            reuse: vec![WeightedChoice::new(2, 1)],
        }
    }

    fn base_config(origin: NodeId) -> DpiConfig {
        DpiConfig {
            label: "test-observer".into(),
            watch_dns: true,
            watch_http: true,
            watch_tls: true,
            dst_filter: None,
            exhibitor: ExhibitorConfig {
                zone_filter: Some(DnsName::parse("www.experiment.example").unwrap()),
                policy: prompt_policy(),
                retention_capacity: 100,
                retention_ttl: SimDuration::from_days(2),
                origins: vec![WeightedChoice::new(origin, 1)],
            },
            seed: 77,
            fingerprints: FingerprintDb::default(),
            recall_sources: None,
        }
    }

    fn dns_decoy(w: &World, label: &str) -> Ipv4Packet {
        let name = DnsName::parse(&format!("{label}.www.experiment.example")).unwrap();
        let query = DnsMessage::query(9, name);
        Ipv4Packet::new(
            w.client_addr,
            w.server_addr,
            IpProtocol::Udp,
            DEFAULT_TTL,
            1,
            UdpDatagram::new(5000, 53, query.encode()).encode(),
        )
    }

    fn http_decoy(w: &World, label: &str) -> Ipv4Packet {
        let req = HttpRequest::get(&format!("{label}.www.experiment.example"), "/");
        let seg = TcpSegment::new(40000, 80, 1, 1, TcpFlags::PSH_ACK, req.encode());
        Ipv4Packet::new(
            w.client_addr,
            w.server_addr,
            IpProtocol::Tcp,
            DEFAULT_TTL,
            2,
            seg.encode(),
        )
    }

    fn tls_decoy(w: &World, label: &str) -> Ipv4Packet {
        let ch = tls::ClientHello::with_sni(&format!("{label}.www.experiment.example"), [3u8; 32]);
        let seg = TcpSegment::new(40001, 443, 1, 1, TcpFlags::PSH_ACK, ch.encode_record());
        Ipv4Packet::new(
            w.client_addr,
            w.server_addr,
            IpProtocol::Tcp,
            DEFAULT_TTL,
            3,
            seg.encode(),
        )
    }

    #[test]
    fn observes_all_three_protocols_and_schedules_probes() {
        let mut w = world(base_config);
        w.engine
            .inject(SimTime::ZERO, w.client, dns_decoy(&w, "d1"));
        w.engine
            .inject(SimTime(1_000), w.client, http_decoy(&w, "h1"));
        w.engine
            .inject(SimTime(2_000), w.client, tls_decoy(&w, "t1"));
        w.engine.run_to_completion();
        let tap = w.engine.tap_as::<DpiTap>(w.tap_node, 0).unwrap();
        assert_eq!(tap.exhibitor().stats().domains_observed, 3);
        assert_eq!(
            tap.exhibitor().stats().probes_scheduled,
            6,
            "2 probes per domain"
        );
        let recorder = w.engine.host_as::<Recorder>(w.origin).unwrap();
        assert_eq!(recorder.orders.len(), 6);
        let domains: std::collections::HashSet<_> = recorder
            .orders
            .iter()
            .map(|(_, o)| o.domain.first_label().unwrap().to_string())
            .collect();
        assert_eq!(domains.len(), 3);
        // Probe delays respect the policy (1..=5 s after observation).
        for (at, order) in &recorder.orders {
            assert!(
                at.millis()
                    >= 1_000
                        * if order.domain.as_str().starts_with("d1") {
                            0
                        } else {
                            1
                        }
            );
        }
    }

    #[test]
    fn zone_filter_excludes_foreign_domains() {
        let mut w = world(base_config);
        let query = DnsMessage::query(1, DnsName::parse("www.unrelated.org").unwrap());
        let pkt = Ipv4Packet::new(
            w.client_addr,
            w.server_addr,
            IpProtocol::Udp,
            DEFAULT_TTL,
            1,
            UdpDatagram::new(5000, 53, query.encode()).encode(),
        );
        w.engine.inject(SimTime::ZERO, w.client, pkt);
        w.engine.run_to_completion();
        let tap = w.engine.tap_as::<DpiTap>(w.tap_node, 0).unwrap();
        assert_eq!(tap.stats().packets_seen, 1);
        assert_eq!(tap.exhibitor().stats().domains_observed, 0);
    }

    #[test]
    fn duplicate_domains_observed_once() {
        let mut w = world(base_config);
        w.engine
            .inject(SimTime::ZERO, w.client, dns_decoy(&w, "same"));
        w.engine
            .inject(SimTime(500), w.client, dns_decoy(&w, "same"));
        w.engine.run_to_completion();
        let tap = w.engine.tap_as::<DpiTap>(w.tap_node, 0).unwrap();
        assert_eq!(tap.exhibitor().stats().domains_observed, 1);
        assert_eq!(tap.exhibitor().stats().probes_scheduled, 2);
    }

    #[test]
    fn probes_beyond_retention_are_dropped() {
        let mut w = world(|origin| {
            let mut config = base_config(origin);
            // Policy wants probes after days, but the device only retains
            // data for one hour.
            config.exhibitor.policy.delays = vec![WeightedChoice::new(DelayBucket::Days(3, 5), 1)];
            config.exhibitor.retention_ttl = SimDuration::from_hours(1);
            config
        });
        w.engine
            .inject(SimTime::ZERO, w.client, dns_decoy(&w, "late"));
        w.engine.run_to_completion();
        let tap = w.engine.tap_as::<DpiTap>(w.tap_node, 0).unwrap();
        assert_eq!(tap.exhibitor().stats().probes_scheduled, 0);
        assert_eq!(tap.exhibitor().stats().probes_beyond_retention, 2);
        let recorder = w.engine.host_as::<Recorder>(w.origin).unwrap();
        assert!(recorder.orders.is_empty());
    }

    #[test]
    fn protocol_switches_disable_observation() {
        let mut w = world(|origin| {
            let mut config = base_config(origin);
            config.watch_dns = false;
            config.watch_tls = false;
            config
        });
        w.engine
            .inject(SimTime::ZERO, w.client, dns_decoy(&w, "d2"));
        w.engine.inject(SimTime(100), w.client, tls_decoy(&w, "t2"));
        w.engine
            .inject(SimTime(200), w.client, http_decoy(&w, "h2"));
        w.engine.run_to_completion();
        let tap = w.engine.tap_as::<DpiTap>(w.tap_node, 0).unwrap();
        assert_eq!(
            tap.exhibitor().stats().domains_observed,
            1,
            "only HTTP watched"
        );
    }

    #[test]
    fn forwarding_is_untouched() {
        // The defining property of traffic shadowing: the packet still
        // reaches its destination.
        let mut w = world(base_config);
        w.engine
            .inject(SimTime::ZERO, w.client, dns_decoy(&w, "fwd"));
        w.engine.run_to_completion();
        assert_eq!(w.engine.stats().packets_dropped_by_tap, 0);
        assert_eq!(w.engine.stats().packets_delivered, 1);
    }
}
