//! Property-based pins for the encryption axis (PR 10).
//!
//! Two families:
//!
//! * **Round-trips** — every encrypted framing (DoT/DoH/DoQ frames, sealed
//!   names, ECH and fronted ClientHellos) decodes back byte-exactly at the
//!   terminating endpoint, for arbitrary names, ids and nonces.
//! * **Negative visibility** — the other half of the contract: no DPI
//!   extraction path (QNAME parse, `Host` sniff, SNI sniff, the shared
//!   [`extract_visibility`] memo) ever yields the inner name of an
//!   encrypted payload, and none of the decoders panic on valid,
//!   truncated, bit-flipped or garbage frames.

use proptest::prelude::*;
use shadow_packet::dns::{DnsMessage, DnsName};
use shadow_packet::encrypted;
use shadow_packet::ipv4::DEFAULT_TTL;
use shadow_packet::tls::{self, ClientHello, ECH_COVER_SNI, FRONT_SNI};
use shadow_packet::transport::DnsTransport;
use shadow_packet::{
    extract_visibility, AppProtocol, EncryptedTransport, IpProtocol, Ipv4Packet, TcpFlags,
    TcpSegment, UdpDatagram, Visibility,
};
use std::net::Ipv4Addr;

fn arb_transport() -> impl Strategy<Value = DnsTransport> {
    prop_oneof![
        Just(DnsTransport::DoT),
        Just(DnsTransport::DoH),
        Just(DnsTransport::DoQ),
    ]
}

/// Labels of ≥6 chars so the full name is long enough that a chance
/// substring match in ciphertext is astronomically unlikely.
fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z][a-z0-9-]{4,18}[a-z0-9]").expect("valid regex")
}

fn arb_name() -> impl Strategy<Value = DnsName> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| DnsName::parse(&labels.join(".")).expect("labels are valid"))
}

/// Whether `needle` occurs in `hay` (case-insensitive) — the substring
/// scan a naive DPI box would run over the raw bytes.
fn leaks(hay: &[u8], needle: &str) -> bool {
    let needle = needle.as_bytes();
    hay.windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle))
}

fn udp_packet(dst_port: u16, payload: Vec<u8>) -> Ipv4Packet {
    Ipv4Packet::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(192, 0, 2, 1),
        IpProtocol::Udp,
        DEFAULT_TTL,
        1,
        UdpDatagram::new(5000, dst_port, payload).encode(),
    )
}

fn tls_packet(payload: Vec<u8>) -> Ipv4Packet {
    Ipv4Packet::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(192, 0, 2, 1),
        IpProtocol::Tcp,
        DEFAULT_TTL,
        2,
        TcpSegment::new(40_000, 443, 1, 1, TcpFlags::PSH_ACK, payload).encode(),
    )
}

proptest! {
    // ---- round-trips -------------------------------------------------

    #[test]
    fn encrypted_dns_round_trips_byte_exactly(
        transport in arb_transport(),
        name in arb_name(),
        id in any::<u16>(),
        nonce in any::<u32>(),
    ) {
        let msg = DnsMessage::query(id, name);
        let frame = encrypted::seal_dns(transport, &msg, nonce);
        prop_assert_eq!(encrypted::transport_of(&frame), Some(transport));
        prop_assert_eq!(encrypted::nonce_of(&frame), Some(nonce));
        prop_assert!(encrypted::looks_encrypted(&frame));
        let (back_transport, back) = encrypted::open_dns(&frame).unwrap();
        prop_assert_eq!(back_transport, transport);
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn sealed_names_round_trip(name in arb_name(), nonce in any::<u32>()) {
        let frame = encrypted::seal_name(name.as_str(), nonce);
        let opened = encrypted::open_name(&frame);
        prop_assert_eq!(opened.as_deref(), Some(name.as_str()));
        prop_assert!(!leaks(&frame, name.as_str()), "sealed name leaked");
    }

    #[test]
    fn ech_hello_round_trips(name in arb_name(), nonce in any::<u32>(), random in any::<[u8; 32]>()) {
        let sealed = encrypted::seal_name(name.as_str(), nonce);
        let ch = ClientHello::with_ech(random, sealed);
        let back = ClientHello::decode_record(&ch.encode_record()).unwrap();
        prop_assert_eq!(&back, &ch);
        prop_assert!(back.has_ech());
    }

    #[test]
    fn fronted_hello_round_trips_and_inner_opens(
        name in arb_name(),
        nonce in any::<u32>(),
        random in any::<[u8; 32]>(),
    ) {
        let sealed = encrypted::seal_name(name.as_str(), nonce);
        let ch = ClientHello::with_fronted(FRONT_SNI, random, sealed);
        let back = ClientHello::decode_record(&ch.encode_record()).unwrap();
        prop_assert_eq!(&back, &ch);
        // Only the terminating edge recovers the real name.
        let inner = back.fronted_inner();
        prop_assert_eq!(inner.as_deref(), Some(name.as_str()));
    }

    // ---- negative visibility: no path extracts the inner name --------

    #[test]
    fn no_dns_path_reads_a_sealed_qname(
        transport in arb_transport(),
        name in arb_name(),
        id in any::<u16>(),
        nonce in any::<u32>(),
    ) {
        let msg = DnsMessage::query(id, name.clone());
        let frame = encrypted::seal_dns(transport, &msg, nonce);
        // The name never appears in the frame bytes…
        prop_assert!(!leaks(&frame, name.as_str()), "qname leaked into ciphertext");
        // …a plain-DNS parse of the ciphertext never yields the query…
        prop_assert_ne!(DnsMessage::decode(&frame[8..]).ok(), Some(msg));
        // …the sealed-name opener refuses the wrong magic…
        prop_assert_eq!(encrypted::open_name(&frame), None);
        // …and the shared extraction memo surfaces Hidden, with no name.
        let pkt = udp_packet(encrypted::port_for(transport), frame);
        match extract_visibility(&pkt) {
            Some(Visibility::Hidden(hidden)) => {
                prop_assert_eq!(hidden.protocol, AppProtocol::Dns);
                prop_assert_eq!(hidden.cover, None);
                let expect = match transport {
                    DnsTransport::DoT => EncryptedTransport::DoT,
                    DnsTransport::DoH => EncryptedTransport::DoH,
                    DnsTransport::DoQ => EncryptedTransport::DoQ,
                    DnsTransport::Udp53 => unreachable!("not generated"),
                };
                prop_assert_eq!(hidden.transport, expect);
            }
            other => prop_assert!(false, "expected Hidden, got {other:?}"),
        }
    }

    #[test]
    fn ech_hello_never_shows_the_inner_name(
        name in arb_name(),
        nonce in any::<u32>(),
        random in any::<[u8; 32]>(),
    ) {
        let sealed = encrypted::seal_name(name.as_str(), nonce);
        let ch = ClientHello::with_ech(random, sealed);
        let record = ch.encode_record();
        prop_assert!(!leaks(&record, name.as_str()), "inner name leaked");
        // The SNI any tap extracts is the cover, never the inner name.
        let own_sni = ch.sni();
        prop_assert_eq!(own_sni.as_deref(), Some(ECH_COVER_SNI));
        let sniffed = tls::sniff_sni(&record);
        prop_assert_eq!(sniffed.as_deref(), Some(ECH_COVER_SNI));
        // The shared memo classifies the flow Hidden with the cover only.
        let pkt = tls_packet(record);
        match extract_visibility(&pkt) {
            Some(Visibility::Hidden(hidden)) => {
                prop_assert_eq!(hidden.transport, EncryptedTransport::Ech);
                prop_assert_eq!(
                    hidden.cover.as_ref().map(|n| n.as_str().to_string()),
                    Some(ECH_COVER_SNI.to_string())
                );
            }
            other => prop_assert!(false, "expected Hidden, got {other:?}"),
        }
    }

    #[test]
    fn fronted_hello_misleads_sni_keyed_taps(
        name in arb_name(),
        nonce in any::<u32>(),
        random in any::<[u8; 32]>(),
    ) {
        let sealed = encrypted::seal_name(name.as_str(), nonce);
        let ch = ClientHello::with_fronted(FRONT_SNI, random, sealed);
        let record = ch.encode_record();
        prop_assert!(!leaks(&record, name.as_str()), "inner name leaked");
        let sniffed = tls::sniff_sni(&record);
        prop_assert_eq!(sniffed.as_deref(), Some(FRONT_SNI));
        // The defining fronting property: the memo reports a *Clear* field
        // — a valid, confidently wrong attribution to the front.
        let pkt = tls_packet(record);
        match extract_visibility(&pkt) {
            Some(Visibility::Clear(field)) => {
                prop_assert_eq!(field.protocol, AppProtocol::Tls);
                prop_assert_eq!(field.name.as_str(), FRONT_SNI);
            }
            other => prop_assert!(false, "expected Clear(front), got {other:?}"),
        }
    }

    // ---- decoder robustness: valid, truncated, garbage ---------------

    #[test]
    fn truncated_frames_error_instead_of_panicking(
        transport in arb_transport(),
        name in arb_name(),
        nonce in any::<u32>(),
        cut in any::<u16>(),
    ) {
        let msg = DnsMessage::query(1, name);
        let frame = encrypted::seal_dns(transport, &msg, nonce);
        let truncated = &frame[..usize::from(cut) % frame.len()];
        if let Ok((t, m)) = encrypted::open_dns(truncated) {
            // A prefix that still parses lost payload bytes, so it can
            // name the right transport but never the original message.
            prop_assert_eq!(t, transport);
            prop_assert_ne!(m, msg);
        }
        let _ = encrypted::open_name(truncated);
        let _ = encrypted::transport_of(truncated);
        let _ = encrypted::nonce_of(truncated);
    }

    #[test]
    fn corrupted_magic_is_rejected(
        transport in arb_transport(),
        name in arb_name(),
        nonce in any::<u32>(),
        flip in 0usize..4,
        bit in 0u8..8,
    ) {
        let msg = DnsMessage::query(1, name);
        let mut frame = encrypted::seal_dns(transport, &msg, nonce);
        frame[flip] ^= 1 << bit;
        prop_assert_eq!(encrypted::transport_of(&frame), None);
        prop_assert!(encrypted::open_dns(&frame).is_err());
        prop_assert!(!encrypted::looks_encrypted(&frame));
    }

    #[test]
    fn openers_never_panic_on_byte_soup(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = encrypted::open(&bytes);
        let _ = encrypted::open_dns(&bytes);
        let _ = encrypted::open_name(&bytes);
        let _ = encrypted::transport_of(&bytes);
        let _ = encrypted::nonce_of(&bytes);
        let _ = encrypted::looks_encrypted(&bytes);
        let _ = tls::sniff_sni(&bytes);
        let _ = ClientHello::decode_record(&bytes);
    }

    #[test]
    fn extraction_never_panics_on_soup_at_encrypted_ports(
        port in prop_oneof![Just(53u16), Just(443u16), Just(853u16), any::<u16>()],
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = extract_visibility(&udp_packet(port, bytes.clone()));
        let _ = extract_visibility(&tls_packet(bytes));
    }
}
