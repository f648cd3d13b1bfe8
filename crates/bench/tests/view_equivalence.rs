//! Property test pinning the parse-once contract: for any payload bytes —
//! well-formed DNS/HTTP/TLS, sealed DNS frames and ECH hellos, truncated
//! encodings, or pure garbage — the memoized [`DecodedView`] visibility
//! (clear field or hidden-flow fingerprint) equals a direct re-parse, and
//! stays equal across the header mutations a packet undergoes in flight.
//!
//! `DESIGN.md` and `shadow_packet::view` both promise this equivalence; the
//! engine relies on it when later hops read the first hop's cached field.
//! No proptest crate is vendored, so the generator is a hand-rolled
//! deterministic xorshift sweep — failures print the seed of the offending
//! case.

use std::net::Ipv4Addr;
use traffic_shadowing::shadow_packet::dns::{DnsMessage, DnsName};
use traffic_shadowing::shadow_packet::encrypted;
use traffic_shadowing::shadow_packet::http::HttpRequest;
use traffic_shadowing::shadow_packet::ipv4::{IpProtocol, Ipv4Packet};
use traffic_shadowing::shadow_packet::tcp::{TcpFlags, TcpSegment};
use traffic_shadowing::shadow_packet::tls::ClientHello;
use traffic_shadowing::shadow_packet::transport::DnsTransport;
use traffic_shadowing::shadow_packet::udp::UdpDatagram;
use traffic_shadowing::shadow_packet::{extract_visibility, DecodedView, Visibility};

/// Deterministic PRNG (xorshift64*), same recipe as the engine's own
/// randomized tests.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// A random syntactically valid DNS name, one to four labels.
fn random_name(rng: &mut Rng) -> DnsName {
    let labels = 1 + rng.below(4);
    let mut s = String::new();
    for i in 0..labels {
        if i > 0 {
            s.push('.');
        }
        let len = 1 + rng.below(12);
        for _ in 0..len {
            let c = b'a' + (rng.below(26) as u8);
            s.push(c as char);
        }
    }
    DnsName::parse(&s).expect("generated name is valid")
}

/// One random application payload: sometimes a faithful encoding, sometimes
/// host-less/response-flagged variants that must extract to `None`, and
/// sometimes an encrypted one whose flow is fingerprinted but hidden.
fn random_app_payload(rng: &mut Rng) -> Vec<u8> {
    match rng.below(8) {
        0 => {
            let mut q = DnsMessage::query(rng.next() as u16, random_name(rng));
            if rng.below(3) == 0 {
                q.flags.response = true; // responses carry no shadowable field
            }
            q.encode()
        }
        1 => HttpRequest::get(random_name(rng).as_str(), "/probe").encode(),
        2 => b"GET / HTTP/1.1\r\nUser-Agent: none\r\n\r\n".to_vec(), // no Host
        3 => {
            let mut nonce = [0u8; 32];
            for b in nonce.iter_mut() {
                *b = rng.next() as u8;
            }
            ClientHello::with_sni(random_name(rng).as_str(), nonce).encode_record()
        }
        4 => {
            // A hello with its extensions stripped — valid TLS, no SNI.
            let mut hello = ClientHello::with_sni("strip.example", [7u8; 32]);
            hello.extensions.clear();
            hello.encode_record()
        }
        5 => {
            // Hidden as DoH on UDP/443; opaque bytes anywhere else.
            let q = DnsMessage::query(rng.next() as u16, random_name(rng));
            encrypted::seal_dns(DnsTransport::DoH, &q, rng.next() as u32)
        }
        6 => {
            let inner = encrypted::seal_name(random_name(rng).as_str(), rng.next() as u32);
            ClientHello::with_ech([5u8; 32], inner).encode_record()
        }
        _ => {
            let len = rng.below(64) as usize;
            rng.bytes(len)
        }
    }
}

/// A random packet: random transport wrapping, random ports biased toward
/// the watched ones (53/80/443), with a chance of truncating the final
/// encoding mid-byte-stream.
fn random_packet(rng: &mut Rng) -> Ipv4Packet {
    let app = random_app_payload(rng);
    let port = match rng.below(5) {
        0 => 53,
        1 => 80,
        2 => 443,
        3 => 8080,
        _ => rng.below(65536) as u16,
    };
    let (proto, mut wire) = match rng.below(3) {
        0 => (
            IpProtocol::Udp,
            UdpDatagram::new(40_000 + rng.below(1000) as u16, port, app).encode(),
        ),
        1 => (
            IpProtocol::Tcp,
            TcpSegment::new(
                40_000 + rng.below(1000) as u16,
                port,
                rng.next() as u32,
                rng.next() as u32,
                TcpFlags::PSH_ACK,
                app,
            )
            .encode(),
        ),
        _ => (IpProtocol::Icmp, app),
    };
    // Truncation sweep: a quarter of cases cut the wire encoding short, so
    // every decoder sees partial headers and partial payloads.
    if rng.below(4) == 0 && !wire.is_empty() {
        wire.truncate(rng.below(wire.len() as u64) as usize);
    }
    Ipv4Packet::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        proto,
        32,
        rng.next() as u16,
        wire,
    )
}

#[test]
fn memoized_extraction_equals_direct_reparse() {
    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    let mut hidden = 0;
    for case in 0..4_000u32 {
        let pkt = random_packet(&mut rng);
        let view = DecodedView::new();
        let memoized = view.visibility(&pkt).cloned();
        let direct = extract_visibility(&pkt);
        assert_eq!(
            memoized,
            direct,
            "case {case}: memoized view diverged from direct re-parse \
             (proto {:?}, {} payload bytes)",
            pkt.header.protocol,
            pkt.payload.len()
        );
        // The cached answer must not drift on repeated reads.
        assert_eq!(view.visibility(&pkt).cloned(), memoized, "case {case}");
        hidden += usize::from(matches!(memoized, Some(Visibility::Hidden(_))));
    }
    assert!(hidden > 0, "the sweep must reach hidden flows");
}

#[test]
fn cached_view_survives_per_hop_header_mutation() {
    // In flight the engine decrements TTL at every hop while the payload
    // (and therefore the view) is shared. A re-parse of the mutated packet
    // must agree with the view cached at the first hop.
    let mut rng = Rng(0xdead_beef_0000_0002);
    for case in 0..1_000u32 {
        let mut pkt = random_packet(&mut rng);
        let view = DecodedView::new();
        let at_first_hop = view.visibility(&pkt).cloned();
        for _ in 0..(1 + rng.below(14)) {
            pkt.header.ttl = pkt.header.ttl.saturating_sub(1);
            assert_eq!(
                extract_visibility(&pkt),
                at_first_hop,
                "case {case}: TTL mutation changed the extraction"
            );
            assert_eq!(view.visibility(&pkt).cloned(), at_first_hop, "case {case}");
        }
    }
}

#[test]
fn duplicated_packets_share_one_decode() {
    // Fault-layer duplicates clone the packet and the Arc'd view; the
    // duplicate must see the original's cached field without re-decoding.
    use std::sync::Arc;
    let mut rng = Rng(0x0bad_cafe_0000_0003);
    for _ in 0..500u32 {
        let pkt = random_packet(&mut rng);
        let view = Arc::new(DecodedView::new());
        let original = view.visibility(&pkt).cloned();
        let (dup_pkt, dup_view) = (pkt.clone(), Arc::clone(&view));
        assert!(dup_view.is_decoded(), "duplicate arrived pre-decoded");
        assert_eq!(dup_view.visibility(&dup_pkt).cloned(), original);
    }
}
