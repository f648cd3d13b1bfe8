//! # shadow-packet
//!
//! From-scratch, byte-accurate wire-format codecs for every protocol the
//! paper's decoys and unsolicited requests travel over:
//!
//! * [`ipv4`] — IPv4 header with Internet checksum, TTL semantics;
//! * [`udp`] — UDP datagrams;
//! * [`tcp`] — TCP segments (flag/sequence level, enough for handshakes and
//!   payload delivery in the simulator);
//! * [`icmp`] — ICMP Echo and Time Exceeded (the Phase-II traceroute signal);
//! * [`dns`] — full DNS message codec with name-compression decoding;
//! * [`encrypted`] — modeled encrypted transports: DoT/DoH/DoQ frames and
//!   the sealed names ECH and fronted-CDN hellos carry;
//! * [`http`] — HTTP/1.1 request/response parsing and serialization;
//! * [`tls`] — TLS record layer + ClientHello with SNI, ECH, and
//!   fronted-CDN variants (the clear-text field decoys embed — or hide).
//!
//! Every codec is a pure function of bytes: no I/O, no globals. Decoders
//! return structured [`DecodeError`]s rather than panicking on hostile
//! input, and every encoder/decoder pair round-trips (enforced by unit and
//! property tests).
//!
//! The encryption axis is first-class: [`transport`] defines the
//! [`TransportProfile`] every decoy flow carries (which DNS transport ×
//! which TLS mode) and the [`EncryptionDeployment`] ladder campaigns sweep,
//! while [`view::DecodedView`] reports encrypted flows as
//! [`view::Visibility::Hidden`] — protocol class and transport
//! fingerprintable, name out of reach — instead of silently absent fields.
//!
//! Two supporting pieces serve the simulator's zero-copy fast path:
//! [`bytes::SharedBytes`], the `Arc`-backed payload buffer that makes
//! packet duplication and sub-slicing free, and [`view::DecodedView`], the
//! parse-once memo that lets every router-hop tap share one application-
//! layer extraction per packet instead of re-decoding at each hop.

pub mod bytes;
pub mod cursor;
pub mod dns;
pub mod encrypted;
pub mod error;
pub mod http;
pub mod icmp;
pub mod ipv4;
pub mod tcp;
pub mod tls;
pub mod transport;
pub mod udp;
pub mod view;

pub use bytes::SharedBytes;
pub use cursor::Reader;
pub use dns::{
    DnsClass, DnsFlags, DnsMessage, DnsName, DnsQuestion, DnsRecord, RecordData, RecordType,
};
pub use error::DecodeError;
pub use http::{HttpMethod, HttpRequest, HttpResponse};
pub use icmp::IcmpMessage;
pub use ipv4::{IpProtocol, Ipv4Header, Ipv4Packet};
pub use tcp::{TcpFlags, TcpSegment};
pub use tls::{ClientHello, TlsExtension, TlsRecord};
pub use transport::{DnsTransport, EncryptionDeployment, TlsMode, TransportProfile};
pub use udp::UdpDatagram;
pub use view::{
    extract_visibility, AppField, AppProtocol, DecodedView, EncryptedTransport, HiddenField,
    Visibility,
};
