//! A segment-level TCP endpoint state machine.
//!
//! The paper's HTTP and TLS decoys are sent "after successful TCP
//! handshakes" (Phase I), while Phase II deliberately skips handshakes. This
//! module gives every simulated endpoint (vantage points, web servers,
//! honeypots, probe origins) a shared connection engine: three-way
//! handshake, in-order data exchange, FIN/RST teardown. A connection that
//! closes (FIN both ways, a RST either way, a sequence violation) leaves
//! the stack; a later segment for it is answered like one for a
//! connection that never existed.
//!
//! Simplifications, safe because simulated links are reliable and in-order:
//! no retransmission, no congestion control, no out-of-order reassembly.
//! Sequence numbers are still tracked and verified so that tests can assert
//! real handshake semantics.

use shadow_packet::tcp::{TcpFlags, TcpSegment};
use shadow_packet::SharedBytes;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Connection identifier from the stack owner's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnKey {
    pub peer: Ipv4Addr,
    pub peer_port: u16,
    pub local_port: u16,
}

impl fmt::Display for ConnKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}<->:{}", self.peer, self.peer_port, self.local_port)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    SynSent,
    SynReceived,
    Established,
    FinWait,
    CloseWait,
}

#[derive(Debug, Clone)]
struct Conn {
    state: ConnState,
    /// Next sequence number we will send.
    snd_nxt: u32,
    /// Next sequence number we expect from the peer.
    rcv_nxt: u32,
}

/// Events surfaced to the host embedding the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpEvent {
    /// Handshake completed (either role).
    Established(ConnKey),
    /// In-order payload bytes arrived (shared with the segment — surfacing
    /// data to the application copies nothing).
    Data(ConnKey, SharedBytes),
    /// Peer closed cleanly.
    Closed(ConnKey),
    /// Connection reset (peer RST or protocol violation).
    Reset(ConnKey),
}

/// The lowest ephemeral port; clients take ports from here up to 65,535.
const FIRST_EPHEMERAL: u16 = 32_768;
/// How many ephemeral ports there are.
const EPHEMERAL_PORTS: u32 = 32_768;

/// Per-host TCP machinery. The owner passes outbound segments to the
/// network itself (the stack only produces `TcpSegment`s, keeping it free of
/// engine dependencies).
#[derive(Debug, Clone)]
pub struct TcpStack {
    /// Live connections only: a closed one is removed.
    conns: HashMap<ConnKey, Conn>,
    listen_ports: Vec<u16>,
    /// Ephemeral ports tried so far; the next candidate is
    /// `FIRST_EPHEMERAL + ports_tried % EPHEMERAL_PORTS`.
    ports_tried: u32,
    isn_counter: u32,
}

impl TcpStack {
    pub fn new(isn_seed: u32) -> Self {
        Self {
            conns: HashMap::new(),
            listen_ports: Vec::new(),
            ports_tried: 0,
            isn_counter: isn_seed,
        }
    }

    /// Accept inbound connections on `port`.
    pub fn listen(&mut self, port: u16) {
        if !self.listen_ports.contains(&port) {
            self.listen_ports.push(port);
        }
    }

    /// Number of live connections.
    pub fn active_connections(&self) -> usize {
        self.conns.len()
    }

    fn next_isn(&mut self) -> u32 {
        self.isn_counter = self
            .isn_counter
            .wrapping_mul(0x0019_660d)
            .wrapping_add(0x3c6e_f35f);
        self.isn_counter
    }

    /// The next free ephemeral port, in order from 32,768 and wrapping
    /// after 65,535; `None` when every one is listened on or held by a live
    /// connection. Until the first wrap every candidate is fresh; after
    /// it, one pass over the live connections marks the held ports, so a
    /// connect costs O(live) however many candidates it skips.
    fn alloc_port(&mut self) -> Option<u16> {
        let mut held = None;
        for _ in 0..EPHEMERAL_PORTS {
            let offset = (self.ports_tried % EPHEMERAL_PORTS) as u16;
            let fresh = self.ports_tried < EPHEMERAL_PORTS;
            // 2^32 is a multiple of the port count, so restarting the count
            // at one full pass keeps both the order and the wrapped state.
            self.ports_tried = self.ports_tried.checked_add(1).unwrap_or(EPHEMERAL_PORTS);
            let port = FIRST_EPHEMERAL + offset;
            if self.listen_ports.contains(&port) {
                continue;
            }
            if !fresh {
                let held = held.get_or_insert_with(|| self.live_ephemeral_ports());
                if held[usize::from(offset / 64)] >> (offset % 64) & 1 == 1 {
                    continue;
                }
            }
            return Some(port);
        }
        None
    }

    /// A bitmap, by offset from 32,768, of the ports live connections hold.
    fn live_ephemeral_ports(&self) -> [u64; EPHEMERAL_PORTS as usize / 64] {
        let mut held = [0; EPHEMERAL_PORTS as usize / 64];
        for key in self.conns.keys() {
            if let Some(offset) = key.local_port.checked_sub(FIRST_EPHEMERAL) {
                held[usize::from(offset / 64)] |= 1 << (offset % 64);
            }
        }
        held
    }

    /// Open a connection; returns the key and pushes the SYN to `out`.
    /// `None` (and nothing pushed) when every ephemeral port is in use.
    pub fn connect(
        &mut self,
        peer: Ipv4Addr,
        peer_port: u16,
        out: &mut Vec<TcpSegment>,
    ) -> Option<ConnKey> {
        let local_port = self.alloc_port()?;
        let key = ConnKey {
            peer,
            peer_port,
            local_port,
        };
        let isn = self.next_isn();
        self.conns.insert(
            key,
            Conn {
                state: ConnState::SynSent,
                snd_nxt: isn.wrapping_add(1),
                rcv_nxt: 0,
            },
        );
        out.push(TcpSegment::syn(local_port, peer_port, isn));
        Some(key)
    }

    /// Send payload on an established connection. Returns `false` (and
    /// emits nothing) if the connection cannot carry data.
    pub fn send(
        &mut self,
        key: ConnKey,
        data: impl Into<SharedBytes>,
        out: &mut Vec<TcpSegment>,
    ) -> bool {
        let Some(conn) = self.conns.get_mut(&key) else {
            return false;
        };
        if conn.state != ConnState::Established && conn.state != ConnState::CloseWait {
            return false;
        }
        let seg = TcpSegment::new(
            key.local_port,
            key.peer_port,
            conn.snd_nxt,
            conn.rcv_nxt,
            TcpFlags::PSH_ACK,
            data,
        );
        conn.snd_nxt = conn.snd_nxt.wrapping_add(seg.seq_len());
        out.push(seg);
        true
    }

    /// Close our side (FIN). After the peer's FIN, this ends the
    /// connection.
    pub fn close(&mut self, key: ConnKey, out: &mut Vec<TcpSegment>) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let peer_closed = match conn.state {
            ConnState::Established | ConnState::SynReceived => false,
            ConnState::CloseWait => true,
            ConnState::SynSent | ConnState::FinWait => return,
        };
        out.push(TcpSegment::new(
            key.local_port,
            key.peer_port,
            conn.snd_nxt,
            conn.rcv_nxt,
            TcpFlags::FIN_ACK,
            SharedBytes::empty(),
        ));
        conn.snd_nxt = conn.snd_nxt.wrapping_add(1);
        if peer_closed {
            self.conns.remove(&key);
        } else {
            conn.state = ConnState::FinWait;
        }
    }

    /// Feed an inbound segment; emits response segments onto `out` and
    /// returns application-visible events.
    pub fn on_segment(
        &mut self,
        peer: Ipv4Addr,
        seg: TcpSegment,
        out: &mut Vec<TcpSegment>,
    ) -> Vec<TcpEvent> {
        let key = ConnKey {
            peer,
            peer_port: seg.src_port,
            local_port: seg.dst_port,
        };
        let mut events = Vec::new();

        if seg.flags.contains(TcpFlags::RST) {
            if self.conns.remove(&key).is_some() {
                events.push(TcpEvent::Reset(key));
            }
            return events;
        }

        let Some(conn) = self.conns.get_mut(&key) else {
            if seg.flags.is_syn() && self.listen_ports.contains(&seg.dst_port) {
                // Passive open.
                let isn = self.next_isn();
                self.conns.insert(
                    key,
                    Conn {
                        state: ConnState::SynReceived,
                        snd_nxt: isn.wrapping_add(1),
                        rcv_nxt: seg.seq.wrapping_add(1),
                    },
                );
                out.push(TcpSegment::syn_ack(&seg, isn));
            } else {
                // No such connection: refuse.
                out.push(TcpSegment::rst(&seg));
            }
            return events;
        };
        let ended = match conn.state {
            ConnState::SynSent => {
                if seg.flags.is_syn_ack() && seg.ack == conn.snd_nxt {
                    conn.rcv_nxt = seg.seq.wrapping_add(1);
                    conn.state = ConnState::Established;
                    out.push(TcpSegment::new(
                        key.local_port,
                        key.peer_port,
                        conn.snd_nxt,
                        conn.rcv_nxt,
                        TcpFlags::ACK,
                        SharedBytes::empty(),
                    ));
                    events.push(TcpEvent::Established(key));
                }
                false
            }
            ConnState::SynReceived => {
                if seg.flags.contains(TcpFlags::ACK) && seg.ack == conn.snd_nxt {
                    conn.state = ConnState::Established;
                    events.push(TcpEvent::Established(key));
                    // The handshake ACK may already carry data.
                    Self::consume_data(conn, &key, &seg, out, &mut events)
                } else {
                    false
                }
            }
            ConnState::Established | ConnState::FinWait | ConnState::CloseWait => {
                Self::consume_data(conn, &key, &seg, out, &mut events)
            }
        };
        if ended {
            self.conns.remove(&key);
        }
        events
    }

    /// Take `seg`'s payload and FIN; returns whether the connection ended
    /// (our FIN was already out, or the peer broke the sequence).
    fn consume_data(
        conn: &mut Conn,
        key: &ConnKey,
        seg: &TcpSegment,
        out: &mut Vec<TcpSegment>,
        events: &mut Vec<TcpEvent>,
    ) -> bool {
        // Reliable in-order network: either the expected segment or a
        // duplicate/pure-ACK.
        if seg.payload.is_empty() && !seg.flags.contains(TcpFlags::FIN) {
            return false;
        }
        if seg.seq != conn.rcv_nxt {
            // Unexpected sequence — with reliable links this is a peer
            // bug; reset to surface it loudly in tests.
            out.push(TcpSegment::rst(seg));
            events.push(TcpEvent::Reset(*key));
            return true;
        }
        conn.rcv_nxt = conn.rcv_nxt.wrapping_add(seg.seq_len());
        if !seg.payload.is_empty() {
            events.push(TcpEvent::Data(*key, seg.payload.clone()));
        }
        let mut ended = false;
        if seg.flags.contains(TcpFlags::FIN) {
            ended = conn.state == ConnState::FinWait;
            conn.state = ConnState::CloseWait;
            events.push(TcpEvent::Closed(*key));
        }
        // ACK whatever we consumed.
        out.push(TcpSegment::new(
            key.local_port,
            key.peer_port,
            conn.snd_nxt,
            conn.rcv_nxt,
            TcpFlags::ACK,
            SharedBytes::empty(),
        ));
        ended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Shuttle segments between two stacks until both queues drain;
    /// collects events per side.
    fn pump(
        client: &mut TcpStack,
        server: &mut TcpStack,
        mut c_out: Vec<TcpSegment>,
        mut s_out: Vec<TcpSegment>,
    ) -> (Vec<TcpEvent>, Vec<TcpEvent>) {
        let mut c_events = Vec::new();
        let mut s_events = Vec::new();
        for _ in 0..64 {
            if c_out.is_empty() && s_out.is_empty() {
                break;
            }
            let mut next_s_out = Vec::new();
            for seg in c_out.drain(..) {
                s_events.extend(server.on_segment(CLIENT, seg, &mut next_s_out));
            }
            let mut next_c_out = Vec::new();
            for seg in s_out.drain(..) {
                c_events.extend(client.on_segment(SERVER, seg, &mut next_c_out));
            }
            c_out = next_c_out;
            s_out = next_s_out;
        }
        assert!(c_out.is_empty() && s_out.is_empty(), "segment storm");
        (c_events, s_events)
    }

    #[test]
    fn three_way_handshake() {
        let mut client = TcpStack::new(1);
        let mut server = TcpStack::new(2);
        server.listen(80);
        let mut c_out = Vec::new();
        let key = client.connect(SERVER, 80, &mut c_out).unwrap();
        let (c_ev, s_ev) = pump(&mut client, &mut server, c_out, Vec::new());
        assert_eq!(c_ev, vec![TcpEvent::Established(key)]);
        assert!(matches!(s_ev.as_slice(), [TcpEvent::Established(_)]));
    }

    #[test]
    fn data_flows_both_ways() {
        let mut client = TcpStack::new(1);
        let mut server = TcpStack::new(2);
        server.listen(443);
        let mut c_out = Vec::new();
        let key = client.connect(SERVER, 443, &mut c_out).unwrap();
        let (_, s_ev) = pump(&mut client, &mut server, c_out, Vec::new());
        let server_key = match &s_ev[0] {
            TcpEvent::Established(k) => *k,
            other => panic!("unexpected {other:?}"),
        };

        let mut c_out = Vec::new();
        assert!(client.send(key, b"request".to_vec(), &mut c_out));
        let (_, s_ev) = pump(&mut client, &mut server, c_out, Vec::new());
        assert!(s_ev.contains(&TcpEvent::Data(server_key, b"request".to_vec().into())));

        let mut s_out = Vec::new();
        assert!(server.send(server_key, b"response".to_vec(), &mut s_out));
        let (c_ev, _) = pump(&mut client, &mut server, Vec::new(), s_out);
        assert!(c_ev.contains(&TcpEvent::Data(key, b"response".to_vec().into())));
    }

    #[test]
    fn clean_close() {
        let mut client = TcpStack::new(3);
        let mut server = TcpStack::new(4);
        server.listen(80);
        let mut c_out = Vec::new();
        let key = client.connect(SERVER, 80, &mut c_out).unwrap();
        pump(&mut client, &mut server, c_out, Vec::new());

        let mut c_out = Vec::new();
        client.close(key, &mut c_out);
        let (_, s_ev) = pump(&mut client, &mut server, c_out, Vec::new());
        assert!(s_ev.iter().any(|e| matches!(e, TcpEvent::Closed(_))));
    }

    #[test]
    fn syn_to_closed_port_is_reset() {
        let mut client = TcpStack::new(5);
        let mut server = TcpStack::new(6);
        // No listen().
        let mut c_out = Vec::new();
        let key = client.connect(SERVER, 8080, &mut c_out).unwrap();
        let (c_ev, _) = pump(&mut client, &mut server, c_out, Vec::new());
        assert_eq!(c_ev, vec![TcpEvent::Reset(key)]);
    }

    #[test]
    fn send_before_established_fails() {
        let mut client = TcpStack::new(7);
        let mut out = Vec::new();
        let key = client.connect(SERVER, 80, &mut out).unwrap();
        let mut data_out = Vec::new();
        assert!(!client.send(key, b"too early".to_vec(), &mut data_out));
        assert!(data_out.is_empty());
    }

    #[test]
    fn ephemeral_ports_unique() {
        let mut client = TcpStack::new(8);
        let mut out = Vec::new();
        let k1 = client.connect(SERVER, 80, &mut out).unwrap();
        let k2 = client.connect(SERVER, 80, &mut out).unwrap();
        assert_ne!(k1.local_port, k2.local_port);
    }

    #[test]
    fn connect_fails_once_every_ephemeral_port_is_bound() {
        let mut client = TcpStack::new(8);
        let mut out = Vec::new();
        let mut ports = std::collections::HashSet::new();
        for _ in 0..32_768 {
            let key = client.connect(SERVER, 80, &mut out).unwrap();
            assert!(ports.insert(key.local_port), "port {key} reused");
            out.clear();
        }
        assert_eq!(client.connect(SERVER, 80, &mut out), None);
        assert!(out.is_empty(), "a failed connect sends no SYN");
    }

    #[test]
    fn handshake_then_immediate_data_like_decoy_flow() {
        // Phase I flow: handshake, then the HTTP decoy, then close.
        let mut vp = TcpStack::new(9);
        let mut site = TcpStack::new(10);
        site.listen(80);
        let mut out = Vec::new();
        let key = vp.connect(SERVER, 80, &mut out).unwrap();
        pump(&mut vp, &mut site, out, Vec::new());
        let mut out = Vec::new();
        vp.send(
            key,
            b"GET / HTTP/1.1\r\nhost: decoy\r\n\r\n".to_vec(),
            &mut out,
        );
        vp.close(key, &mut out);
        let (_, s_ev) = pump(&mut vp, &mut site, out, Vec::new());
        let data: Vec<_> = s_ev
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Data(_, d) => Some(d.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(data.len(), 1);
        assert!(data[0].starts_with(b"GET / HTTP/1.1"));
        assert!(s_ev.iter().any(|e| matches!(e, TcpEvent::Closed(_))));
    }

    #[test]
    fn closed_connections_leave_both_stacks() {
        let mut client = TcpStack::new(11);
        let mut server = TcpStack::new(12);
        server.listen(80);
        let mut out = Vec::new();
        let key = client.connect(SERVER, 80, &mut out).unwrap();
        pump(&mut client, &mut server, out, Vec::new());
        assert_eq!(client.active_connections(), 1);
        assert_eq!(server.active_connections(), 1);
        let mut out = Vec::new();
        client.close(key, &mut out);
        let (_, s_ev) = pump(&mut client, &mut server, out, Vec::new());
        let server_key = match s_ev.as_slice() {
            [TcpEvent::Closed(k)] => *k,
            other => panic!("unexpected {other:?}"),
        };
        let mut s_out = Vec::new();
        server.close(server_key, &mut s_out);
        let (c_ev, _) = pump(&mut client, &mut server, Vec::new(), s_out);
        assert_eq!(c_ev, vec![TcpEvent::Closed(key)]);
        assert_eq!(client.active_connections(), 0);
        assert_eq!(server.active_connections(), 0);
    }

    /// Connect to a port nobody listens on; the server's RST reaps the
    /// client's connection. Returns the port the client used.
    fn refused_connect(client: &mut TcpStack, server: &mut TcpStack) -> u16 {
        let mut out = Vec::new();
        let key = client.connect(SERVER, 8080, &mut out).expect("a free port");
        let (c_ev, _) = pump(client, server, out, Vec::new());
        assert_eq!(c_ev, vec![TcpEvent::Reset(key)]);
        key.local_port
    }

    #[test]
    fn reaped_ports_are_reused_after_the_wrap() {
        let mut client = TcpStack::new(13);
        let mut server = TcpStack::new(14);
        let ports: Vec<u16> = (0..40_000)
            .map(|_| refused_connect(&mut client, &mut server))
            .collect();
        assert_eq!(ports[0], 32_768);
        assert_eq!(ports[32_767], 65_535);
        assert_eq!(ports[32_768], 32_768, "the cursor wraps");
        assert_eq!(ports[39_999], 32_768 + 7_231);
        assert_eq!(client.active_connections(), 0);
    }

    #[test]
    fn the_wrap_skips_live_ports_and_reaped_keys_get_a_rst() {
        let mut client = TcpStack::new(15);
        let mut server = TcpStack::new(16);
        server.listen(80);
        // Port 32,768 stays live: its SYN is never delivered.
        let mut out = Vec::new();
        let live = client.connect(SERVER, 80, &mut out).unwrap();
        assert_eq!(live.local_port, 32_768);
        for _ in 1..32_768 {
            refused_connect(&mut client, &mut server);
        }
        let mut out = Vec::new();
        let next = client.connect(SERVER, 80, &mut out).unwrap();
        assert_eq!(next.local_port, 32_769, "the live port is skipped");
        assert_eq!(client.active_connections(), 2);

        // A segment for the reaped connection on port 40,000.
        let stray = TcpSegment::new(8080, 40_000, 7, 7, TcpFlags::PSH_ACK, b"late".to_vec());
        let mut out = Vec::new();
        assert!(client
            .on_segment(SERVER, stray.clone(), &mut out)
            .is_empty());
        assert_eq!(out, vec![TcpSegment::rst(&stray)]);
    }
}
