//! Encrypted transports, modeled: DoT/DoH/DoQ frames and sealed names.
//!
//! The paper's discussion (§6) argues that encryption "prevents data from
//! being observed on the wire" but "does not mitigate data collection by
//! the destination server (especially for DNS), which decodes the message
//! and sees everything". The workspace therefore needs channels that are
//! opaque to on-path DPI yet transparent to the terminating endpoint.
//!
//! Real QUIC/TLS is out of scope (and beside the point — the simulator's
//! observers parse wire formats, so any framing they cannot parse models
//! encryption faithfully). Each encrypted DNS transport is a datagram
//! frame `magic || nonce || keystream-XOR(dns-message)`; the magic names
//! the transport, the nonce makes repeated encryptions of one query
//! byte-distinct, and both endpoints can decode. DoT is stream-framed in
//! reality; the simulator's DNS plane is datagram-based, so it shares the
//! frame shape on its real port (853). DoH takes its HTTP/3 flavour
//! (UDP/443).
//!
//! [`seal_name`]/[`open_name`] provide the same keyed obfuscation for a
//! bare DNS name — the payload format of the modeled ECH extension and the
//! fronted-CDN inner-name extension. The nonce rides in the frame: the
//! *model* grants decryption to whoever terminates the flow, while the
//! [`crate::view`] visibility contract (pinned by proptests) forbids every
//! on-path tap from opening it.

use crate::dns::DnsMessage;
use crate::error::DecodeError;
use crate::transport::DnsTransport;

/// The well-known encrypted-DNS port shared by DoQ and DoT (IANA 853).
pub const DOQ_PORT: u16 = 853;
/// DoT rides the same 853 allocation (TCP there, datagram-modeled here).
pub const DOT_PORT: u16 = 853;
/// DoH in its HTTP/3 flavour: UDP on 443.
pub const DOH_PORT: u16 = 443;

/// Frame magics ("encrypted DNS v1" per transport). `eDN1` predates the
/// transport split (PR 10) and stays DoQ's magic for frame stability.
const MAGIC_DOQ: [u8; 4] = *b"eDN1";
const MAGIC_DOT: [u8; 4] = *b"eDT1";
const MAGIC_DOH: [u8; 4] = *b"eDH1";
/// Sealed-name magic (ECH inner name, fronted-CDN inner name).
const MAGIC_NAME: [u8; 4] = *b"eSN1";

/// The encrypted transport a frame belongs to, from its magic.
pub fn transport_of(frame: &[u8]) -> Option<DnsTransport> {
    if frame.len() < 8 {
        return None;
    }
    match <[u8; 4]>::try_from(&frame[0..4]).ok()? {
        MAGIC_DOQ => Some(DnsTransport::DoQ),
        MAGIC_DOT => Some(DnsTransport::DoT),
        MAGIC_DOH => Some(DnsTransport::DoH),
        _ => None,
    }
}

fn magic_for(transport: DnsTransport) -> Option<[u8; 4]> {
    match transport {
        DnsTransport::Udp53 => None,
        DnsTransport::DoQ => Some(MAGIC_DOQ),
        DnsTransport::DoT => Some(MAGIC_DOT),
        DnsTransport::DoH => Some(MAGIC_DOH),
    }
}

/// The UDP destination port queries on `transport` are sent to.
pub fn port_for(transport: DnsTransport) -> u16 {
    match transport {
        DnsTransport::Udp53 => 53,
        DnsTransport::DoQ => DOQ_PORT,
        DnsTransport::DoT => DOT_PORT,
        DnsTransport::DoH => DOH_PORT,
    }
}

/// Derive the keystream byte at position `i` for nonce `n`.
fn keystream(nonce: u32, i: usize) -> u8 {
    let mut x = u64::from(nonce) ^ 0x9e37_79b9_7f4a_7c15 ^ (i as u64).wrapping_mul(0x517c_c1b7);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 29;
    x as u8
}

fn seal_frame(magic: [u8; 4], plain: &[u8], nonce: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + plain.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&nonce.to_be_bytes());
    out.extend(
        plain
            .iter()
            .enumerate()
            .map(|(i, &b)| b ^ keystream(nonce, i)),
    );
    out
}

fn open_frame(expect: Option<[u8; 4]>, frame: &[u8]) -> Result<(u32, Vec<u8>), DecodeError> {
    if frame.len() < 8 {
        return Err(DecodeError::Truncated {
            what: "encrypted frame",
            needed: 8 - frame.len(),
        });
    }
    let magic = <[u8; 4]>::try_from(&frame[0..4]).expect("length checked");
    let known = match expect {
        Some(m) => magic == m,
        None => [MAGIC_DOQ, MAGIC_DOT, MAGIC_DOH].contains(&magic),
    };
    if !known {
        return Err(DecodeError::malformed("encrypted frame", "bad magic"));
    }
    let nonce = u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]);
    let plain = frame[8..]
        .iter()
        .enumerate()
        .map(|(i, &b)| b ^ keystream(nonce, i))
        .collect();
    Ok((nonce, plain))
}

/// Encrypt a DNS message into a frame on `transport`.
///
/// # Panics
/// Panics if `transport` is [`DnsTransport::Udp53`] — plain DNS is not
/// framed.
pub fn seal_dns(transport: DnsTransport, msg: &DnsMessage, nonce: u32) -> Vec<u8> {
    let magic = magic_for(transport).expect("plain UDP/53 DNS is not sealed");
    seal_frame(magic, &msg.encode(), nonce)
}

/// Decrypt any encrypted-DNS frame back into a DNS message.
pub fn open(frame: &[u8]) -> Result<DnsMessage, DecodeError> {
    open_dns(frame).map(|(_, msg)| msg)
}

/// Decrypt an encrypted-DNS frame, reporting which transport framed it.
pub fn open_dns(frame: &[u8]) -> Result<(DnsTransport, DnsMessage), DecodeError> {
    let transport = transport_of(frame)
        .ok_or_else(|| DecodeError::malformed("encrypted frame", "bad magic"))?;
    let (_, plain) = open_frame(magic_for(transport), frame)?;
    Ok((transport, DnsMessage::decode(&plain)?))
}

/// The session nonce of an encrypted frame (for reply framing).
pub fn nonce_of(frame: &[u8]) -> Option<u32> {
    if frame.len() < 8 {
        return None;
    }
    Some(u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]))
}

/// Quick check whether bytes look like an encrypted-DNS frame (what a DPI
/// box could tell — and all it can tell).
pub fn looks_encrypted(frame: &[u8]) -> bool {
    transport_of(frame).is_some()
}

/// Seal a bare DNS name — the modeled payload of an ECH extension or a
/// fronted-CDN inner-name extension. Opaque to on-path parsers; the
/// terminating endpoint opens it with [`open_name`].
pub fn seal_name(name: &str, nonce: u32) -> Vec<u8> {
    seal_frame(MAGIC_NAME, name.as_bytes(), nonce)
}

/// Open a sealed name produced by [`seal_name`].
pub fn open_name(frame: &[u8]) -> Option<String> {
    if frame.len() < 8 || frame[0..4] != MAGIC_NAME {
        return None;
    }
    let (_, plain) = open_frame(Some(MAGIC_NAME), frame).ok()?;
    String::from_utf8(plain).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::DnsName;

    fn query() -> DnsMessage {
        DnsMessage::query(7, DnsName::parse("secret.www.experiment.example").unwrap())
    }

    #[test]
    fn seals_and_opens() {
        let msg = query();
        let frame = seal_dns(DnsTransport::DoQ, &msg, 0xdead_beef);
        assert!(looks_encrypted(&frame));
        assert_eq!(open(&frame).unwrap(), msg);
    }

    #[test]
    fn every_transport_round_trips_and_identifies() {
        let msg = query();
        for transport in [DnsTransport::DoQ, DnsTransport::DoT, DnsTransport::DoH] {
            let frame = seal_dns(transport, &msg, 42);
            assert_eq!(transport_of(&frame), Some(transport));
            let (back_transport, back) = open_dns(&frame).unwrap();
            assert_eq!(back_transport, transport);
            assert_eq!(back, msg);
            assert_eq!(nonce_of(&frame), Some(42));
        }
    }

    #[test]
    fn transports_are_frame_incompatible() {
        let msg = query();
        let doq = seal_dns(DnsTransport::DoQ, &msg, 1);
        let dot = seal_dns(DnsTransport::DoT, &msg, 1);
        assert_ne!(doq[0..4], dot[0..4]);
        assert_eq!(doq[8..], dot[8..], "same keystream, different magic");
    }

    #[test]
    fn ciphertext_hides_the_query_name() {
        let msg = query();
        for transport in [DnsTransport::DoQ, DnsTransport::DoT, DnsTransport::DoH] {
            let frame = seal_dns(transport, &msg, 1);
            // The qname's label must not appear in the ciphertext.
            let needle = b"secret";
            let found = frame
                .windows(needle.len())
                .any(|w| w.eq_ignore_ascii_case(needle));
            assert!(!found, "plaintext label leaked into the frame");
            // And a DPI box trying to parse it as plain DNS fails.
            assert!(DnsMessage::decode(&frame[8..]).is_err());
        }
    }

    #[test]
    fn distinct_nonces_distinct_ciphertexts() {
        let msg = query();
        let seal = |nonce| seal_dns(DnsTransport::DoQ, &msg, nonce);
        assert_ne!(seal(1), seal(2));
        assert_eq!(open(&seal(1)).unwrap(), open(&seal(2)).unwrap());
    }

    #[test]
    fn rejects_garbage() {
        assert!(open(b"short").is_err());
        assert!(open(b"xxxxxxxxxxxx").is_err());
        let msg = query();
        let mut frame = seal_dns(DnsTransport::DoQ, &msg, 9);
        // Corrupt a byte inside the encoded qname: decode must not return
        // the original message (it either errors or yields a different one).
        frame[20] ^= 0xff;
        assert_ne!(open(&frame).ok(), Some(msg));
        assert!(!looks_encrypted(b"eDN"));
    }

    #[test]
    fn sealed_names_round_trip_and_hide() {
        let frame = seal_name("decoy77.www.experiment.example", 0x1234);
        assert_eq!(
            open_name(&frame).as_deref(),
            Some("decoy77.www.experiment.example")
        );
        assert!(!frame.windows(7).any(|w| w.eq_ignore_ascii_case(b"decoy77")));
        assert_eq!(open_name(b"eSN1"), None);
        assert_eq!(
            open_name(&seal_dns(DnsTransport::DoQ, &query(), 3)),
            None,
            "wrong magic refused"
        );
    }

    #[test]
    fn ports_match_the_transport() {
        assert_eq!(port_for(DnsTransport::Udp53), 53);
        assert_eq!(port_for(DnsTransport::DoQ), 853);
        assert_eq!(port_for(DnsTransport::DoT), 853);
        assert_eq!(port_for(DnsTransport::DoH), 443);
    }
}
