//! The vantage-point host: a measurement client behind one VPN egress.
//!
//! VPs execute commands posted by the campaign controller. A decoy is one
//! command, [`VpCommand::Decoy`]: a unique name sent once over DNS, HTTP or
//! TLS with a chosen initial TTL. Phase I sends HTTP/TLS decoys after a
//! real TCP handshake; Phase II re-sends them as raw handshake-less probes
//! (the paper skips handshakes there to avoid holding connections open).
//! This module is the one place a decoy's framing is chosen: the DNS
//! transport (clear UDP/53 or sealed DoT/DoH/DoQ), the TLS mode (clear
//! SNI, ECH or fronted), ports and retries all follow from the
//! [`DecoySend`] the planner posts. Everything a VP observes — DNS answers,
//! ICMP Time Exceeded — is recorded for the campaign to harvest.

use serde::{Deserialize, Serialize};
use shadow_netsim::engine::{Ctx, Host};
use shadow_netsim::tcp::{ConnKey, TcpEvent, TcpStack};
use shadow_netsim::time::SimTime;
use shadow_netsim::transport::Transport;
use shadow_packet::dns::{DnsMessage, DnsName, Rcode, RecordData};
use shadow_packet::encrypted;
use shadow_packet::http::HttpRequest;
use shadow_packet::icmp::IcmpMessage;
use shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use shadow_packet::tcp::{TcpFlags, TcpSegment};
use shadow_packet::tls::{ClientHello, FRONT_SNI};
use shadow_packet::transport::{DnsTransport, TlsMode};
use shadow_packet::udp::UdpDatagram;
use std::any::Any;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Retry policy for a DNS decoy: resend the same query (same transaction
/// id, same ident) up to `attempts` more times, `timeout_ms` apart, until
/// an answer arrives. Stub resolvers retry on the lossy real Internet; the
/// fault-injection sweeps rely on this to show DNS-path detection
/// degrading slower than one-shot HTTP/TLS under loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DnsRetry {
    /// Extra transmissions after the first (0 = retries disabled).
    pub attempts: u8,
    /// Gap between transmissions in simulated milliseconds. Keep this
    /// above the worst-case answer RTT: fault-free runs must never fire a
    /// spurious retransmission, or they would no longer be byte-identical
    /// to runs planned without retry.
    pub timeout_ms: u64,
}

impl DnsRetry {
    /// Paper-realistic stub-resolver default: two retries, 15 s apart.
    pub const STANDARD: DnsRetry = DnsRetry {
        attempts: 2,
        timeout_ms: 15_000,
    };
}

/// What a decoy carries, and how that is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecoyPayload {
    /// An A query for the decoy name: clear on UDP/53, or sealed per the
    /// §6 encrypted transport (DoT/DoH/DoQ) so only the terminating
    /// resolver sees the name.
    Dns(DnsTransport),
    /// `GET / HTTP/1.1` with Host = the decoy name, to port 80.
    Http,
    /// A ClientHello to port 443: the decoy name in the clear SNI, behind
    /// ECH (cover name only), or sealed behind a fronting CDN's SNI.
    Tls(TlsMode),
}

/// One decoy: send `payload` for `domain` to `dst` with initial TTL `ttl`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecoySend {
    pub domain: DnsName,
    pub dst: Ipv4Addr,
    pub ttl: u8,
    pub payload: DecoyPayload,
    /// HTTP/TLS only: open a TCP connection and send the payload once it is
    /// established (Phase I), or send it at once as a raw PSH/ACK (Phase II
    /// tracerouting).
    pub handshake: bool,
    /// Retransmit until answered. Only clear-text UDP/53 DNS decoys arm the
    /// retry timer; every other payload ignores this.
    pub retry: Option<DnsRetry>,
}

/// A command posted to a VP by the campaign controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VpCommand {
    /// Send one decoy.
    Decoy(DecoySend),
    /// Raw UDP datagram (platform pre-flight checks).
    RawUdp {
        dst: Ipv4Addr,
        dst_port: u16,
        ttl: u8,
        payload: Vec<u8>,
    },
}

/// A DNS answer the VP received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsAnswerRecord {
    pub at: SimTime,
    pub domain: DnsName,
    pub rcode: Rcode,
    pub answer: Option<Ipv4Addr>,
    pub from: Ipv4Addr,
}

/// An ICMP Time Exceeded the VP received — the traceroute signal. The
/// original datagram's identification field maps it back to the probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpObservation {
    pub at: SimTime,
    /// The router that expired the probe (the candidate observer address).
    pub router: Ipv4Addr,
    pub orig_dst: Ipv4Addr,
    pub orig_ident: u16,
}

/// Everything a VP recorded since the campaign last harvested it: each
/// harvest moves the report out, so a phase's reports hold that phase's
/// evidence only.
#[derive(Debug, Clone, Default)]
pub struct VpReport {
    pub dns_answers: Vec<DnsAnswerRecord>,
    pub icmp: Vec<IcmpObservation>,
    /// Probe ident → (requested initial TTL, destination).
    pub ident_map: HashMap<u16, (u8, Ipv4Addr)>,
    pub handshake_failures: u64,
}

/// An HTTP/TLS decoy on an open connection: its payload goes out once the
/// handshake completes, and every segment carries its ident and TTL.
#[derive(Debug, Clone)]
struct PendingConn {
    domain: DnsName,
    ident: u16,
    ttl: u8,
    payload: DecoyPayload,
}

/// An unanswered retry-protected DNS decoy awaiting its timeout.
#[derive(Debug, Clone)]
struct PendingDns {
    dst: Ipv4Addr,
    ttl: u8,
    /// Encoded UDP datagram of the original query — retransmissions are
    /// byte-identical (same transaction id, same ident).
    payload: Vec<u8>,
    remaining: u8,
    timeout_ms: u64,
}

/// Timer-token namespace for DNS retry timers; low 16 bits carry the ident.
const DNS_RETRY_TOKEN: u64 = 0x5245_5452_0000_0000;

/// The VP host.
#[derive(Clone)]
pub struct VantagePointHost {
    addr: Ipv4Addr,
    /// Ground-truth provider defect: force every outgoing TTL to this
    /// value (the paper excludes such VPNs after pre-flight checks).
    ttl_rewrite: Option<u8>,
    tcp: TcpStack,
    next_ident: u16,
    pending_conns: HashMap<ConnKey, PendingConn>,
    /// Unanswered retry-protected DNS decoys, by ident.
    pending_dns: HashMap<u16, PendingDns>,
    pub report: VpReport,
}

impl VantagePointHost {
    pub fn new(addr: Ipv4Addr, seed: u32, ttl_rewrite: Option<u8>) -> Self {
        Self {
            addr,
            ttl_rewrite,
            tcp: TcpStack::new(seed),
            next_ident: 1,
            pending_conns: HashMap::new(),
            pending_dns: HashMap::new(),
            report: VpReport::default(),
        }
    }

    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    fn effective_ttl(&self, requested: u8) -> u8 {
        self.ttl_rewrite.unwrap_or(requested)
    }

    fn alloc_ident(&mut self, ttl: u8, dst: Ipv4Addr) -> u16 {
        let ident = self.next_ident;
        self.next_ident = self.next_ident.wrapping_add(1).max(1);
        self.report.ident_map.insert(ident, (ttl, dst));
        ident
    }

    fn packet(
        &self,
        dst: Ipv4Addr,
        proto: IpProtocol,
        ttl: u8,
        ident: u16,
        payload: Vec<u8>,
    ) -> Ipv4Packet {
        Ipv4Packet::new(
            self.addr,
            dst,
            proto,
            self.effective_ttl(ttl),
            ident,
            payload,
        )
    }

    /// Send `segs` on connection `key`. Segments with no pending decoy
    /// (raw probes answered by RSTs) go out with ident 0 and the default TTL.
    fn emit_tcp(&self, key: ConnKey, segs: Vec<TcpSegment>, ctx: &mut Ctx<'_>) {
        let (ident, ttl) = self
            .pending_conns
            .get(&key)
            .map_or((0, DEFAULT_TTL), |p| (p.ident, p.ttl));
        for seg in segs {
            ctx.send(self.packet(key.peer, IpProtocol::Tcp, ttl, ident, seg.encode()));
        }
    }

    fn run_command(&mut self, cmd: VpCommand, ctx: &mut Ctx<'_>) {
        match cmd {
            VpCommand::Decoy(decoy) => self.send_decoy(decoy, ctx),
            VpCommand::RawUdp {
                dst,
                dst_port,
                ttl,
                payload,
            } => {
                let ident = self.next_ident;
                self.next_ident = self.next_ident.wrapping_add(1).max(1);
                ctx.send(self.packet(
                    dst,
                    IpProtocol::Udp,
                    ttl,
                    ident,
                    UdpDatagram::new(9_999, dst_port, payload).encode(),
                ));
            }
        }
    }

    fn send_decoy(&mut self, decoy: DecoySend, ctx: &mut Ctx<'_>) {
        let (dst, ttl, payload) = (decoy.dst, decoy.ttl, decoy.payload);
        let ident = self.alloc_ident(ttl, dst);
        // Datagrams and raw probes take a source port that wraps with the
        // ident counter; a handshake takes its port from the TCP stack.
        let (src_base, dst_port): (u16, u16) = match payload {
            DecoyPayload::Dns(transport) => (10_000, encrypted::port_for(transport)),
            DecoyPayload::Http => (20_000, 80),
            DecoyPayload::Tls(_) => (21_000, 443),
        };
        let src_port = src_base.wrapping_add(ident);
        match payload {
            DecoyPayload::Dns(transport) => {
                let bytes = decoy_bytes(&decoy.domain, payload, ident);
                let datagram = UdpDatagram::new(src_port, dst_port, bytes).encode();
                // Only clear-text queries retry, and only they keep a copy
                // of the datagram. Retry-free decoys arm no timer at all,
                // so runs planned without retry stay byte-identical to
                // pre-chaos runs.
                let clear = transport == DnsTransport::Udp53;
                let kept = decoy
                    .retry
                    .filter(|r| clear && r.attempts > 0)
                    .map(|retry| (retry, datagram.clone()));
                ctx.send(self.packet(dst, IpProtocol::Udp, ttl, ident, datagram));
                if let Some((retry, payload)) = kept {
                    self.pending_dns.insert(
                        ident,
                        PendingDns {
                            dst,
                            ttl,
                            payload,
                            remaining: retry.attempts,
                            timeout_ms: retry.timeout_ms,
                        },
                    );
                    ctx.timer(
                        shadow_netsim::time::SimDuration::from_millis(retry.timeout_ms),
                        DNS_RETRY_TOKEN | u64::from(ident),
                    );
                }
            }
            _ if decoy.handshake => {
                let mut segs = Vec::new();
                // Every ephemeral port is bound: the decoy is not sent.
                let Some(key) = self.tcp.connect(dst, dst_port, &mut segs) else {
                    return;
                };
                let pending = PendingConn {
                    domain: decoy.domain,
                    ident,
                    ttl,
                    payload,
                };
                self.pending_conns.insert(key, pending);
                self.emit_tcp(key, segs, ctx);
            }
            _ => {
                let bytes = decoy_bytes(&decoy.domain, payload, ident);
                let seg = TcpSegment::new(src_port, dst_port, 1, 1, TcpFlags::PSH_ACK, bytes);
                ctx.send(self.packet(dst, IpProtocol::Tcp, ttl, ident, seg.encode()));
            }
        }
    }

    fn on_tcp(&mut self, src: Ipv4Addr, seg: TcpSegment, ctx: &mut Ctx<'_>) {
        let mut out = Vec::new();
        let events = self.tcp.on_segment(src, seg, &mut out);
        if let Some(key) = out.first().map(|s| ConnKey {
            peer: src,
            peer_port: s.dst_port,
            local_port: s.src_port,
        }) {
            self.emit_tcp(key, out, ctx);
        }
        for event in events {
            match event {
                TcpEvent::Established(key) => {
                    let Some(pending) = self.pending_conns.get(&key) else {
                        continue;
                    };
                    let payload = decoy_bytes(&pending.domain, pending.payload, pending.ident);
                    let mut out = Vec::new();
                    self.tcp.send(key, payload, &mut out);
                    self.tcp.close(key, &mut out);
                    self.emit_tcp(key, out, ctx);
                }
                TcpEvent::Reset(key) => {
                    if self.pending_conns.remove(&key).is_some() {
                        self.report.handshake_failures += 1;
                    }
                }
                TcpEvent::Closed(key) => {
                    self.pending_conns.remove(&key);
                }
                TcpEvent::Data(..) => {}
            }
        }
    }
}

/// The application bytes of a decoy — the DNS query, the HTTP request or
/// the ClientHello — built the same way whether they follow a handshake or
/// ride a raw probe.
fn decoy_bytes(domain: &DnsName, payload: DecoyPayload, ident: u16) -> Vec<u8> {
    // ECH and fronted hellos carry the real name only sealed, for the
    // terminating edge; sealed names and frames take the ident as nonce.
    let sealed_name = || encrypted::seal_name(domain.as_str(), u32::from(ident));
    match payload {
        DecoyPayload::Dns(transport) => {
            let query = DnsMessage::query(ident, domain.clone());
            match transport {
                DnsTransport::Udp53 => query.encode(),
                sealed => encrypted::seal_dns(sealed, &query, u32::from(ident)),
            }
        }
        DecoyPayload::Http => HttpRequest::get(domain.as_str(), "/").encode(),
        DecoyPayload::Tls(mode) => match mode {
            TlsMode::ClearSni => ClientHello::with_sni(domain.as_str(), derive_random(ident)),
            TlsMode::Ech => ClientHello::with_ech(derive_random(ident), sealed_name()),
            TlsMode::FrontedCdn => {
                ClientHello::with_fronted(FRONT_SNI, derive_random(ident), sealed_name())
            }
        }
        .encode_record(),
    }
}

/// Deterministic ClientHello randomness derived from the probe ident.
fn derive_random(ident: u16) -> [u8; 32] {
    let mut out = [0u8; 32];
    let mut x = u64::from(ident) ^ 0x9e37_79b9_7f4a_7c15;
    for chunk in out.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_be_bytes());
    }
    out
}

impl Host for VantagePointHost {
    fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
        match Transport::parse(&pkt) {
            Ok(Transport::Udp(dg)) => {
                // Answers come back clear from port 53, or sealed from the
                // encrypted-DNS ports.
                let sealed = (dg.src_port == encrypted::DOQ_PORT
                    || dg.src_port == encrypted::DOH_PORT)
                    && encrypted::looks_encrypted(&dg.payload);
                let msg = match dg.src_port {
                    _ if sealed => encrypted::open(&dg.payload),
                    53 => DnsMessage::decode(&dg.payload),
                    _ => return,
                };
                let Some(msg) = msg.ok().filter(|m| m.flags.response) else {
                    return;
                };
                if !sealed {
                    // An answer (any rcode) settles the decoy: cancel any
                    // outstanding retry.
                    self.pending_dns.remove(&msg.id);
                }
                let Some(domain) = msg.qname().cloned() else {
                    return;
                };
                let answer = msg.answers.iter().find_map(|rr| match rr.data {
                    RecordData::A(a) => Some(a),
                    _ => None,
                });
                self.report.dns_answers.push(DnsAnswerRecord {
                    at: ctx.now(),
                    domain,
                    rcode: msg.flags.rcode,
                    answer,
                    from: pkt.header.src,
                });
            }
            Ok(Transport::Tcp(seg)) => self.on_tcp(pkt.header.src, seg, ctx),
            Ok(Transport::Icmp(IcmpMessage::TimeExceeded {
                original_header, ..
            })) => {
                self.report.icmp.push(IcmpObservation {
                    at: ctx.now(),
                    router: pkt.header.src,
                    orig_dst: original_header.dst,
                    orig_ident: original_header.identification,
                });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token & DNS_RETRY_TOKEN != DNS_RETRY_TOKEN {
            return;
        }
        let ident = (token & 0xFFFF) as u16;
        // Already answered ⇒ the timer is a no-op.
        let Some(pending) = self.pending_dns.get_mut(&ident) else {
            return;
        };
        pending.remaining -= 1;
        let (dst, ttl, payload) = (pending.dst, pending.ttl, pending.payload.clone());
        let rearm = pending.remaining > 0;
        if !rearm {
            self.pending_dns.remove(&ident);
        }
        if let Some(m) = ctx.telemetry().metrics() {
            m.dns_retries.inc();
        }
        // Byte-identical retransmission of the same logical decoy (same
        // transaction id, same ident).
        let pkt = self.packet(dst, IpProtocol::Udp, ttl, ident, payload);
        ctx.send(pkt);
        if rearm {
            let timeout = self.pending_dns[&ident].timeout_ms;
            ctx.timer(
                shadow_netsim::time::SimDuration::from_millis(timeout),
                DNS_RETRY_TOKEN | u64::from(ident),
            );
        }
    }

    fn on_message(&mut self, msg: Box<dyn Any + Send + Sync>, ctx: &mut Ctx<'_>) {
        if let Ok(cmd) = msg.downcast::<VpCommand>() {
            self.run_command(*cmd, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_random_is_deterministic_and_distinct() {
        assert_eq!(derive_random(7), derive_random(7));
        assert_ne!(derive_random(7), derive_random(8));
    }

    #[test]
    fn effective_ttl_applies_rewrite_defect() {
        let clean = VantagePointHost::new(Ipv4Addr::new(1, 1, 1, 1), 1, None);
        assert_eq!(clean.effective_ttl(5), 5);
        let broken = VantagePointHost::new(Ipv4Addr::new(1, 1, 1, 1), 1, Some(64));
        assert_eq!(broken.effective_ttl(5), 64);
        assert_eq!(broken.effective_ttl(1), 64);
    }

    #[test]
    fn ident_allocation_tracks_probes() {
        let mut vp = VantagePointHost::new(Ipv4Addr::new(1, 1, 1, 1), 1, None);
        let dst = Ipv4Addr::new(8, 8, 8, 8);
        let i1 = vp.alloc_ident(3, dst);
        let i2 = vp.alloc_ident(4, dst);
        assert_ne!(i1, i2);
        assert_eq!(vp.report.ident_map[&i1], (3, dst));
        assert_eq!(vp.report.ident_map[&i2], (4, dst));
    }
}
