//! The recursive resolver host.
//!
//! Implements the behaviour DNS decoys actually meet at a public resolver:
//! caching, upstream recursion to the zone's authoritative server, query
//! coalescing, benign duplicate queries (the within-one-minute DNS-DNS
//! unsolicited requests the paper attributes to implementation choices),
//! and — on exhibitor instances — an [`Exhibitor`] that every client qname
//! goes through, scheduling probes hours or days later.

use crate::profile::ResolverProfile;
use rand::Rng;
use shadow_netsim::engine::{Ctx, Host};
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_netsim::transport::Transport;
use shadow_observer::exhibitor::{observation_rng, Exhibitor};
use shadow_observer::ObservedProtocol;
use shadow_packet::dns::{DnsMessage, DnsName, DnsRecord, Rcode};
use shadow_packet::encrypted;
use shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use shadow_packet::transport::DnsTransport;
use shadow_packet::udp::UdpDatagram;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Counters for tests and ground-truth bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    pub client_queries: u64,
    pub encrypted_queries: u64,
    pub cache_refreshes: u64,
    pub cache_hits: u64,
    pub upstream_queries: u64,
    pub benign_retries: u64,
    pub nxdomain_answers: u64,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    answers: Vec<DnsRecord>,
    expires: SimTime,
}

/// How a client reached the resolver — plain UDP/53 or one of the
/// encrypted channels (DoT/DoH/DoQ). Determines how the answer is framed,
/// and nothing else: the resolver decrypts and "sees everything" either
/// way (the paper's §6 point about destination-side collection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientTransport {
    Plain,
    Encrypted { transport: DnsTransport, nonce: u32 },
}

#[derive(Debug, Clone)]
struct PendingResolution {
    qname: DnsName,
    /// Clients waiting: (address, UDP port, original query id, transport).
    clients: Vec<(Ipv4Addr, u16, u16, ClientTransport)>,
}

/// A recursive resolver bound to one topology node. For anycast services
/// (e.g. 114DNS) several instances share the service address, each with its
/// own profile — the paper's case study II (CN instances shadow, US do not)
/// is expressed exactly this way.
#[derive(Clone)]
pub struct RecursiveResolverHost {
    /// Service address clients query (possibly anycast).
    service_addr: Ipv4Addr,
    /// Unicast egress address upstream queries leave from, so responses
    /// return to *this* instance (aliased to the same node).
    egress_addr: Ipv4Addr,
    profile: ResolverProfile,
    /// zone apex → authoritative server address.
    zones: Vec<(DnsName, Ipv4Addr)>,
    cache: HashMap<DnsName, CacheEntry>,
    pending: HashMap<u16, PendingResolution>,
    /// Coalescing index: in-flight qname → upstream id.
    in_flight: HashMap<DnsName, u16>,
    /// Timer token → qname for benign duplicate queries.
    retry_tokens: HashMap<u64, DnsName>,
    /// Timer token → qname for active cache refreshes.
    refresh_tokens: HashMap<u64, DnsName>,
    next_token: u64,
    /// The shadowing pipeline, on exhibitor instances.
    shadow: Option<Exhibitor>,
    next_upstream_id: u16,
    pub stats: ResolverStats,
}

impl RecursiveResolverHost {
    pub fn new(
        service_addr: Ipv4Addr,
        egress_addr: Ipv4Addr,
        profile: ResolverProfile,
        zones: Vec<(DnsName, Ipv4Addr)>,
    ) -> Self {
        let shadow = profile.shadowing.clone().map(|config| {
            Exhibitor::new(
                profile.name.clone(),
                profile.seed ^ RESOLVER_SEED_SALT,
                config,
            )
        });
        Self {
            service_addr,
            egress_addr,
            profile,
            zones,
            cache: HashMap::new(),
            pending: HashMap::new(),
            in_flight: HashMap::new(),
            retry_tokens: HashMap::new(),
            refresh_tokens: HashMap::new(),
            next_token: 1,
            shadow,
            next_upstream_id: 1,
            stats: ResolverStats::default(),
        }
    }

    pub fn profile(&self) -> &ResolverProfile {
        &self.profile
    }

    /// The shadowing pipeline, on exhibitor instances.
    pub fn exhibitor(&self) -> Option<&Exhibitor> {
        self.shadow.as_ref()
    }

    fn zone_for(&self, qname: &DnsName) -> Option<Ipv4Addr> {
        self.zones
            .iter()
            .filter(|(zone, _)| qname.is_subdomain_of(zone))
            .max_by_key(|(zone, _)| zone.label_count())
            .map(|&(_, addr)| addr)
    }

    fn udp_to(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) -> Ipv4Packet {
        Ipv4Packet::new(
            src,
            dst,
            IpProtocol::Udp,
            DEFAULT_TTL,
            0,
            UdpDatagram::new(src_port, dst_port, payload).encode(),
        )
    }

    fn respond(
        &self,
        client: (Ipv4Addr, u16, u16, ClientTransport),
        qname: &DnsName,
        rcode: Rcode,
        answers: Vec<DnsRecord>,
        ctx: &mut Ctx<'_>,
    ) {
        let (addr, port, id, transport) = client;
        let template = DnsMessage::query(id, qname.clone());
        let response = DnsMessage::response(&template, false, rcode, answers);
        let (src_port, payload) = match transport {
            ClientTransport::Plain => (53, response.encode()),
            ClientTransport::Encrypted { transport, nonce } => (
                encrypted::port_for(transport),
                encrypted::seal_dns(transport, &response, nonce.wrapping_add(1)),
            ),
        };
        ctx.send(self.udp_to(self.service_addr, addr, src_port, port, payload));
    }

    fn send_upstream(&mut self, qname: &DnsName, auth: Ipv4Addr, ctx: &mut Ctx<'_>) -> u16 {
        let id = self.next_upstream_id;
        self.next_upstream_id = self.next_upstream_id.wrapping_add(1).max(1);
        let query = DnsMessage::query(id, qname.clone());
        self.stats.upstream_queries += 1;
        if let Some(m) = ctx.telemetry().metrics() {
            m.resolver_upstream_queries.inc();
        }
        ctx.send(self.udp_to(self.egress_addr, auth, 53, 53, query.encode()));
        id
    }

    fn on_client_query(
        &mut self,
        src: Ipv4Addr,
        src_port: u16,
        query: DnsMessage,
        transport: ClientTransport,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(qname) = query.qname().cloned() else {
            return;
        };
        self.stats.client_queries += 1;
        if let Some(m) = ctx.telemetry().metrics() {
            m.resolver_queries.inc();
        }
        if transport != ClientTransport::Plain {
            self.stats.encrypted_queries += 1;
        }
        let client = (src, src_port, query.id, transport);

        if let Some(exhibitor) = &mut self.shadow {
            exhibitor.observe(&qname, ObservedProtocol::Dns, ctx);
        }

        // Cache.
        if let Some(entry) = self.cache.get(&qname) {
            if entry.expires > ctx.now() {
                self.stats.cache_hits += 1;
                if let Some(m) = ctx.telemetry().metrics() {
                    m.resolver_cache_hits.inc();
                }
                let answers = entry.answers.clone();
                self.respond(client, &qname, Rcode::NoError, answers, ctx);
                return;
            }
            self.cache.remove(&qname);
        }

        // Which authoritative serves this name?
        let Some(auth) = self.zone_for(&qname) else {
            self.stats.nxdomain_answers += 1;
            self.respond(client, &qname, Rcode::NxDomain, Vec::new(), ctx);
            return;
        };

        // Coalesce with an in-flight resolution for the same name.
        if let Some(&id) = self.in_flight.get(&qname) {
            if let Some(pending) = self.pending.get_mut(&id) {
                pending.clients.push(client);
                return;
            }
        }

        let id = self.send_upstream(&qname, auth, ctx);
        self.pending.insert(
            id,
            PendingResolution {
                qname: qname.clone(),
                clients: vec![client],
            },
        );
        self.in_flight.insert(qname.clone(), id);

        // Benign duplicate-query habit (the "DNS zombies" shape). The
        // decision is derived from (seed, qname, now) so it does not depend
        // on which other names this instance resolved before.
        if let Some(retry) = self.profile.retry.clone() {
            let mut rng = observation_rng(self.profile.seed ^ RETRY_SEED_SALT, &qname, ctx.now());
            if rng.gen_range(0..100u32) < u32::from(retry.percent) {
                for _ in 0..retry.count {
                    let delay = retry.delay.sample(&mut rng);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.retry_tokens.insert(token, qname.clone());
                    ctx.timer(delay, token);
                }
            }
        }
    }

    fn on_upstream_response(&mut self, msg: DnsMessage, ctx: &mut Ctx<'_>) {
        let Some(pending) = self.pending.remove(&msg.id) else {
            return; // duplicate answer or a benign retry's response
        };
        self.in_flight.remove(&pending.qname);
        let rcode = msg.flags.rcode;
        if rcode == Rcode::NoError && !msg.answers.is_empty() {
            let ttl_secs = msg
                .answers
                .iter()
                .map(|rr| rr.ttl)
                .min()
                .unwrap_or(0)
                .min(MAX_CACHE_TTL_SECS);
            let ttl = SimDuration::from_secs(u64::from(ttl_secs));
            let refresh_due = !self.cache.contains_key(&pending.qname);
            self.cache.insert(
                pending.qname.clone(),
                CacheEntry {
                    answers: msg.answers.clone(),
                    expires: ctx.now() + ttl,
                },
            );
            // Active cache refreshing: re-resolve when the record expires
            // (one refresh per entry; real refreshers key on popularity).
            if self.profile.cache_refresh && refresh_due {
                let token = self.next_token;
                self.next_token += 1;
                self.refresh_tokens.insert(token, pending.qname.clone());
                ctx.timer(ttl, token);
            }
        }
        for client in pending.clients {
            self.respond(client, &pending.qname, rcode, msg.answers.clone(), ctx);
        }
    }
}

/// Cap on cached-record TTLs, seconds (common operational practice).
const MAX_CACHE_TTL_SECS: u32 = 86_400;

/// Seed diversifier so resolver RNG streams never collide with other
/// subsystems seeded from the same world seed.
const RESOLVER_SEED_SALT: u64 = 0x4e50_1ae5;
/// A second diversifier for the benign-retry stream, so retry decisions are
/// independent of the shadowing pipeline's draws for the same name.
const RETRY_SEED_SALT: u64 = 0x4e50_4e74;

impl Host for RecursiveResolverHost {
    fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
        let Ok(Transport::Udp(dg)) = Transport::parse(&pkt) else {
            return;
        };
        if dg.dst_port == encrypted::DOQ_PORT || dg.dst_port == encrypted::DOH_PORT {
            // Encrypted DNS (DoT, DoH, or DoQ — the port/magic pair names
            // the transport): the terminating resolver decrypts and sees
            // everything (on-path observers cannot).
            let nonce = encrypted::nonce_of(&dg.payload).unwrap_or(0);
            if let Ok((transport, msg)) = encrypted::open_dns(&dg.payload) {
                if !msg.flags.response {
                    self.on_client_query(
                        pkt.header.src,
                        dg.src_port,
                        msg,
                        ClientTransport::Encrypted { transport, nonce },
                        ctx,
                    );
                }
            }
            return;
        }
        let Ok(msg) = DnsMessage::decode(&dg.payload) else {
            return;
        };
        if !msg.flags.response && dg.dst_port == 53 {
            self.on_client_query(
                pkt.header.src,
                dg.src_port,
                msg,
                ClientTransport::Plain,
                ctx,
            );
        } else if msg.flags.response && pkt.header.dst == self.egress_addr {
            self.on_upstream_response(msg, ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if let Some(qname) = self.refresh_tokens.remove(&token) {
            // Active cache refresh: the entry just expired; re-resolve it.
            self.cache.remove(&qname);
            if let Some(auth) = self.zone_for(&qname) {
                self.stats.cache_refreshes += 1;
                let id = self.send_upstream(&qname, auth, ctx);
                self.pending.insert(
                    id,
                    PendingResolution {
                        qname,
                        clients: Vec::new(),
                    },
                );
            }
            return;
        }
        // Benign duplicate upstream query ("DNS zombie").
        let Some(qname) = self.retry_tokens.remove(&token) else {
            return;
        };
        let Some(auth) = self.zone_for(&qname) else {
            return;
        };
        self.stats.benign_retries += 1;
        let id = self.send_upstream(&qname, auth, ctx);
        // Track it so a late answer doesn't confuse a live resolution, but
        // with no waiting clients.
        self.pending.insert(
            id,
            PendingResolution {
                qname: qname.clone(),
                clients: Vec::new(),
            },
        );
    }
}
