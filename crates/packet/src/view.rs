//! [`DecodedView`]: the parse-once memo attached to each in-flight packet.
//!
//! The paper's observers are *on-path*: every router hop of a 5–15-hop
//! route may carry a DPI tap that wants the packet's clear-text application
//! field (DNS QNAME, HTTP `Host`, TLS SNI). Re-decoding the payload at
//! every hop multiplies the (identical) parse work by the route length.
//! A `DecodedView` rides along with the packet through the event queue:
//! the first tap that asks pays for one full extraction, every later hop
//! reads the cached result.
//!
//! ## The parse-once contract
//!
//! * Extraction is a **pure function of the packet bytes** — never of tap
//!   configuration. The view caches the *maximal* extraction (whatever any
//!   of the three protocols yields); per-tap concerns (watch flags, zone
//!   filters, destination filters) are applied by the tap *after* reading
//!   the cached field. This is what makes sharing across taps with
//!   different configs sound.
//! * Payload bytes are immutable in flight ([`crate::SharedBytes`]), so a
//!   cached view can never go stale. Anything that changes the payload
//!   (e.g. an ICMP rewrite) constructs a new packet and a new view.
//! * Taps receive the view read-only and must not substitute their own
//!   parse for watched protocols; `shadow-bench`'s proptests pin the cached
//!   extraction byte-for-byte to a direct re-parse.
//!
//! ## Visibility
//!
//! Encrypted flows are first-class, not absent: where a tap once got
//! `None` for a DoQ frame, it now gets [`Visibility::Hidden`] naming the
//! protocol class and transport it could fingerprint — exactly what a real
//! DPI box learns from ports and framing — while the name stays out of
//! reach. The **negative contract**, pinned by proptests: no code path in
//! extraction may open an encrypted payload. A hidden field never carries
//! the inner name; an ECH hello surfaces only its cover SNI, explicitly
//! labeled as such.

use crate::dns::{DnsMessage, DnsName};
use crate::encrypted;
use crate::http::HttpRequest;
use crate::ipv4::{IpProtocol, Ipv4Packet};
use crate::tcp::TcpSegment;
use crate::tls;
use crate::transport::DnsTransport;
use crate::udp::UdpDatagram;
use std::sync::OnceLock;

/// Which application protocol a field was extracted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppProtocol {
    /// UDP/53 query QNAME.
    Dns,
    /// TCP/80 request `Host` header.
    Http,
    /// TCP/443 ClientHello SNI.
    Tls,
}

/// The clear-text application-layer field a traffic observer shadows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppField {
    pub name: DnsName,
    pub protocol: AppProtocol,
}

/// The encryption an observer can fingerprint on a hidden flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncryptedTransport {
    /// DNS over TLS framing on 853.
    DoT,
    /// DNS over HTTPS (HTTP/3) framing on 443.
    DoH,
    /// DNS over QUIC framing on 853.
    DoQ,
    /// TLS ClientHello carrying an `encrypted_client_hello` extension.
    Ech,
}

impl EncryptedTransport {
    pub fn as_str(self) -> &'static str {
        match self {
            Self::DoT => "dot",
            Self::DoH => "doh",
            Self::DoQ => "doq",
            Self::Ech => "ech",
        }
    }
}

/// What a tap knows about a flow whose name is encrypted: the protocol
/// class, the transport it fingerprinted, and — for ECH — the cover name
/// the handshake presents *instead of* the real one. Never the real name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HiddenField {
    pub protocol: AppProtocol,
    pub transport: EncryptedTransport,
    /// The outer/cover SNI of an ECH hello, if one is presented. This is
    /// a decoy-for-the-observer, not the flow's name.
    pub cover: Option<DnsName>,
}

/// The maximal application-layer extraction for one packet: either a
/// clear-text name or an explicit encrypted-flow fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Visibility {
    /// Name readable on the wire.
    Clear(AppField),
    /// Flow identified, name out of reach.
    Hidden(HiddenField),
}

impl Visibility {
    /// The clear field, if the name is visible.
    pub fn clear(&self) -> Option<&AppField> {
        match self {
            Self::Clear(field) => Some(field),
            Self::Hidden(_) => None,
        }
    }

    /// The hidden-flow fingerprint, if the name is encrypted.
    pub fn hidden(&self) -> Option<&HiddenField> {
        match self {
            Self::Clear(_) => None,
            Self::Hidden(hidden) => Some(hidden),
        }
    }
}

/// Lazily-computed, shareable application-layer extraction for one packet.
///
/// Cheap to construct (no parsing happens until [`DecodedView::visibility`]
/// is first called); intended to be wrapped
/// in an `Arc` and cloned along with the packet through duplications and
/// hops.
#[derive(Debug, Default)]
pub struct DecodedView {
    field: OnceLock<Option<Visibility>>,
}

impl DecodedView {
    pub fn new() -> Self {
        Self::default()
    }

    /// The packet's visibility, decoding on first use.
    ///
    /// `pkt` must be the packet this view rides with; the engine maintains
    /// that pairing. (The view deliberately does not store the packet —
    /// the packet already owns its payload, and duplicated packets share
    /// both payload and view.)
    pub fn visibility(&self, pkt: &Ipv4Packet) -> Option<&Visibility> {
        self.field.get_or_init(|| extract_visibility(pkt)).as_ref()
    }

    /// Whether the extraction has already run (test/bench introspection).
    pub fn is_decoded(&self) -> bool {
        self.field.get().is_some()
    }
}

/// The reference extraction: decode `pkt`'s visibility directly, with no
/// memoization. [`DecodedView`] caches exactly this function; equivalence
/// is pinned by proptests in `shadow-bench`.
pub fn extract_visibility(pkt: &Ipv4Packet) -> Option<Visibility> {
    match pkt.header.protocol {
        IpProtocol::Udp => {
            let dg = UdpDatagram::decode_shared(&pkt.payload).ok()?;
            if dg.dst_port == 53 {
                let msg = DnsMessage::decode(&dg.payload).ok()?;
                if msg.flags.response {
                    return None;
                }
                return msg.qname().cloned().map(|name| {
                    Visibility::Clear(AppField {
                        name,
                        protocol: AppProtocol::Dns,
                    })
                });
            }
            // Encrypted DNS: the tap fingerprints the framing (port +
            // magic) without opening it.
            if dg.dst_port == encrypted::DOQ_PORT || dg.dst_port == encrypted::DOH_PORT {
                let transport = match encrypted::transport_of(&dg.payload)? {
                    DnsTransport::DoT => EncryptedTransport::DoT,
                    DnsTransport::DoH => EncryptedTransport::DoH,
                    DnsTransport::DoQ => EncryptedTransport::DoQ,
                    DnsTransport::Udp53 => return None,
                };
                return Some(Visibility::Hidden(HiddenField {
                    protocol: AppProtocol::Dns,
                    transport,
                    cover: None,
                }));
            }
            None
        }
        IpProtocol::Tcp => {
            let seg = TcpSegment::decode_shared(&pkt.payload).ok()?;
            if seg.payload.is_empty() {
                return None;
            }
            if seg.dst_port == 80 {
                let req = HttpRequest::decode(&seg.payload).ok()?;
                let host = req.host()?;
                DnsName::parse(host).ok().map(|name| {
                    Visibility::Clear(AppField {
                        name,
                        protocol: AppProtocol::Http,
                    })
                })
            } else if seg.dst_port == 443 {
                let hello = tls::ClientHello::decode_record(&seg.payload).ok()?;
                let sni = hello.sni()?;
                let name = DnsName::parse(&sni).ok()?;
                if hello.has_ech() {
                    // The SNI is ECH's cover name, not the flow's name: a
                    // fronted hello looks clear, an ECH hello does not.
                    return Some(Visibility::Hidden(HiddenField {
                        protocol: AppProtocol::Tls,
                        transport: EncryptedTransport::Ech,
                        cover: Some(name),
                    }));
                }
                Some(Visibility::Clear(AppField {
                    name,
                    protocol: AppProtocol::Tls,
                }))
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::DEFAULT_TTL;
    use crate::tcp::TcpFlags;
    use std::net::Ipv4Addr;

    /// The clear field `view` decodes from `pkt`, if the name is visible.
    fn clear_field(view: &DecodedView, pkt: &Ipv4Packet) -> Option<AppField> {
        view.visibility(pkt).and_then(Visibility::clear).cloned()
    }

    fn wrap(proto: IpProtocol, payload: Vec<u8>) -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            proto,
            DEFAULT_TTL,
            7,
            payload,
        )
    }

    #[test]
    fn dns_query_extracts_once_and_caches() {
        let q = DnsMessage::query(1, DnsName::parse("a.example").unwrap());
        let pkt = wrap(
            IpProtocol::Udp,
            UdpDatagram::new(5000, 53, q.encode()).encode(),
        );
        let view = DecodedView::new();
        assert!(!view.is_decoded());
        let field = clear_field(&view, &pkt).expect("qname extracted");
        assert_eq!(field.protocol, AppProtocol::Dns);
        assert_eq!(field.name.as_str(), "a.example");
        assert!(view.is_decoded());
        // Second call returns the cached value.
        assert_eq!(view.visibility(&pkt), Some(&Visibility::Clear(field)));
    }

    #[test]
    fn http_host_and_tls_sni_extract() {
        let req = HttpRequest::get("h.example", "/");
        let http = wrap(
            IpProtocol::Tcp,
            TcpSegment::new(1, 80, 1, 1, TcpFlags::PSH_ACK, req.encode()).encode(),
        );
        let f = clear_field(&DecodedView::new(), &http).unwrap();
        assert_eq!(f.protocol, AppProtocol::Http);
        assert_eq!(f.name.as_str(), "h.example");

        let ch = tls::ClientHello::with_sni("t.example", [0u8; 32]);
        let tls_pkt = wrap(
            IpProtocol::Tcp,
            TcpSegment::new(1, 443, 1, 1, TcpFlags::PSH_ACK, ch.encode_record()).encode(),
        );
        let f = clear_field(&DecodedView::new(), &tls_pkt).unwrap();
        assert_eq!(f.protocol, AppProtocol::Tls);
        assert_eq!(f.name.as_str(), "t.example");
    }

    #[test]
    fn non_watched_traffic_yields_none() {
        // DNS response, wrong ports, garbage, ICMP: all cache `None`.
        let mut resp = DnsMessage::query(2, DnsName::parse("r.example").unwrap());
        resp.flags.response = true;
        let pkt = wrap(
            IpProtocol::Udp,
            UdpDatagram::new(53, 53, resp.encode()).encode(),
        );
        assert!(DecodedView::new().visibility(&pkt).is_none());

        let off_port = wrap(
            IpProtocol::Tcp,
            TcpSegment::new(1, 8080, 1, 1, TcpFlags::PSH_ACK, b"x".to_vec()).encode(),
        );
        assert!(DecodedView::new().visibility(&off_port).is_none());

        let garbage = wrap(IpProtocol::Udp, vec![1, 2, 3]);
        let view = DecodedView::new();
        assert!(view.visibility(&garbage).is_none());
        assert!(view.is_decoded(), "failed extraction is cached too");
    }

    #[test]
    fn matches_reference_extraction() {
        let q = DnsMessage::query(9, DnsName::parse("eq.example").unwrap());
        let pkt = wrap(
            IpProtocol::Udp,
            UdpDatagram::new(5000, 53, q.encode()).encode(),
        );
        assert_eq!(
            DecodedView::new().visibility(&pkt).cloned(),
            extract_visibility(&pkt)
        );
    }

    #[test]
    fn encrypted_dns_is_hidden_not_absent() {
        let q = DnsMessage::query(3, DnsName::parse("hush.example").unwrap());
        for (transport, fingerprint) in [
            (DnsTransport::DoQ, EncryptedTransport::DoQ),
            (DnsTransport::DoT, EncryptedTransport::DoT),
            (DnsTransport::DoH, EncryptedTransport::DoH),
        ] {
            let frame = encrypted::seal_dns(transport, &q, 5);
            let pkt = wrap(
                IpProtocol::Udp,
                UdpDatagram::new(5000, encrypted::port_for(transport), frame).encode(),
            );
            let view = DecodedView::new();
            let vis = view.visibility(&pkt).expect("fingerprinted");
            let hidden = vis.hidden().expect("hidden, not clear");
            assert_eq!(hidden.protocol, AppProtocol::Dns);
            assert_eq!(hidden.transport, fingerprint);
            assert_eq!(hidden.cover, None);
        }
    }

    #[test]
    fn ech_hello_surfaces_only_the_cover() {
        let sealed = encrypted::seal_name("real.www.experiment.example", 77);
        let ch = tls::ClientHello::with_ech([9u8; 32], sealed);
        let pkt = wrap(
            IpProtocol::Tcp,
            TcpSegment::new(1, 443, 1, 1, TcpFlags::PSH_ACK, ch.encode_record()).encode(),
        );
        let view = DecodedView::new();
        let hidden = view.visibility(&pkt).unwrap().hidden().unwrap().clone();
        assert_eq!(hidden.protocol, AppProtocol::Tls);
        assert_eq!(hidden.transport, EncryptedTransport::Ech);
        assert_eq!(
            hidden.cover.as_ref().map(|n| n.as_str().to_string()),
            Some("public.cover.example".to_string())
        );
    }

    #[test]
    fn non_frame_traffic_on_encrypted_ports_yields_none() {
        // UDP/853 or /443 without the frame magic: not fingerprintable.
        let pkt = wrap(
            IpProtocol::Udp,
            UdpDatagram::new(5000, 853, b"not a frame at all".to_vec()).encode(),
        );
        assert!(DecodedView::new().visibility(&pkt).is_none());
    }
}
