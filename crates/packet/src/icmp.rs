//! ICMP codec: Echo (used by connectivity pre-flight checks) and Time
//! Exceeded, the signal Phase II of the methodology relies on — a router
//! that decrements a decoy's TTL to zero sends Time Exceeded back to the
//! vantage point, exposing the router's (possible observer's) address.

use crate::cursor::Reader;
use crate::error::DecodeError;
use crate::ipv4::{internet_checksum, Ipv4Header, IPV4_HEADER_LEN};
use serde::{Deserialize, Serialize};

/// How many bytes of the original datagram a Time Exceeded message quotes:
/// the IP header plus 8 bytes, per RFC 792. Those 8 bytes cover the UDP
/// header or the TCP ports/sequence — enough for the VP to match the expired
/// probe to the decoy it sent.
pub const QUOTED_PAYLOAD_LEN: usize = 8;

/// Decoded ICMP message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IcmpMessage {
    /// Echo request (type 8).
    EchoRequest {
        identifier: u16,
        sequence: u16,
        payload: Vec<u8>,
    },
    /// Echo reply (type 0).
    EchoReply {
        identifier: u16,
        sequence: u16,
        payload: Vec<u8>,
    },
    /// Time Exceeded in transit (type 11, code 0): quotes the original IP
    /// header and the first 8 payload bytes.
    TimeExceeded {
        original_header: Ipv4Header,
        quoted_payload: Vec<u8>,
    },
    /// Destination unreachable (type 3), with code (e.g. 3 = port).
    DestinationUnreachable {
        code: u8,
        original_header: Ipv4Header,
        quoted_payload: Vec<u8>,
    },
}

impl IcmpMessage {
    /// Build the Time Exceeded a router emits when `expired` reaches TTL 0.
    /// The quoted header preserves the (already decremented) TTL as real
    /// routers do; only the first 8 payload bytes are included.
    pub fn time_exceeded(expired_header: Ipv4Header, expired_payload: &[u8]) -> Self {
        IcmpMessage::TimeExceeded {
            original_header: expired_header,
            quoted_payload: expired_payload[..expired_payload.len().min(QUOTED_PAYLOAD_LEN)]
                .to_vec(),
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            IcmpMessage::EchoRequest {
                identifier,
                sequence,
                payload,
            } => {
                out.push(8);
                out.push(0);
                out.extend_from_slice(&[0, 0]); // checksum placeholder
                out.extend_from_slice(&identifier.to_be_bytes());
                out.extend_from_slice(&sequence.to_be_bytes());
                out.extend_from_slice(payload);
            }
            IcmpMessage::EchoReply {
                identifier,
                sequence,
                payload,
            } => {
                out.push(0);
                out.push(0);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&identifier.to_be_bytes());
                out.extend_from_slice(&sequence.to_be_bytes());
                out.extend_from_slice(payload);
            }
            IcmpMessage::TimeExceeded {
                original_header,
                quoted_payload,
            } => {
                out.push(11);
                out.push(0);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&[0, 0, 0, 0]); // unused
                out.extend_from_slice(&original_header.encode());
                out.extend_from_slice(quoted_payload);
            }
            IcmpMessage::DestinationUnreachable {
                code,
                original_header,
                quoted_payload,
            } => {
                out.push(3);
                out.push(*code);
                out.extend_from_slice(&[0, 0]);
                out.extend_from_slice(&[0, 0, 0, 0]);
                out.extend_from_slice(&original_header.encode());
                out.extend_from_slice(quoted_payload);
            }
        }
        let sum = internet_checksum(&out);
        out[2..4].copy_from_slice(&sum.to_be_bytes());
        out
    }

    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        if buf.len() >= 4 && checksum_nonzero(buf) {
            return Err(DecodeError::BadChecksum {
                what: "ICMP message",
            });
        }
        let mut r = Reader::new(buf);
        let ty = r.u8("ICMP type")?;
        let code = r.u8("ICMP code")?;
        let _checksum = r.u16("ICMP checksum")?;
        match (ty, code) {
            (8, 0) | (0, 0) => {
                let identifier = r.u16("ICMP identifier")?;
                let sequence = r.u16("ICMP sequence")?;
                let payload = r.rest().to_vec();
                Ok(if ty == 8 {
                    IcmpMessage::EchoRequest {
                        identifier,
                        sequence,
                        payload,
                    }
                } else {
                    IcmpMessage::EchoReply {
                        identifier,
                        sequence,
                        payload,
                    }
                })
            }
            (11, 0) | (3, _) => {
                r.skip("ICMP unused", 4)?;
                let original_header = Ipv4Header::decode(&mut r)?;
                let quoted_payload = r.rest().to_vec();
                if quoted_payload.len() > QUOTED_PAYLOAD_LEN {
                    return Err(DecodeError::malformed(
                        "ICMP quoted payload",
                        format!("{} bytes > {QUOTED_PAYLOAD_LEN}", quoted_payload.len()),
                    ));
                }
                Ok(if ty == 11 {
                    IcmpMessage::TimeExceeded {
                        original_header,
                        quoted_payload,
                    }
                } else {
                    IcmpMessage::DestinationUnreachable {
                        code,
                        original_header,
                        quoted_payload,
                    }
                })
            }
            _ => Err(DecodeError::Unsupported {
                what: "ICMP type/code",
                value: (u32::from(ty) << 8) | u32::from(code),
            }),
        }
    }

    /// For error messages: the header of the datagram that triggered them.
    pub fn original_header(&self) -> Option<&Ipv4Header> {
        match self {
            IcmpMessage::TimeExceeded {
                original_header, ..
            }
            | IcmpMessage::DestinationUnreachable {
                original_header, ..
            } => Some(original_header),
            _ => None,
        }
    }
}

fn checksum_nonzero(buf: &[u8]) -> bool {
    // A buffer with a correct embedded checksum verifies to zero.
    internet_checksum(buf) != 0
}

/// Length of the fixed ICMP error preamble before the quoted IP header.
pub const ICMP_ERROR_PREFIX_LEN: usize = 8;

/// Maximum encoded size of a Time Exceeded message.
pub const MAX_TIME_EXCEEDED_LEN: usize =
    ICMP_ERROR_PREFIX_LEN + IPV4_HEADER_LEN + QUOTED_PAYLOAD_LEN;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::IpProtocol;
    use std::net::Ipv4Addr;

    fn sample_header() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(100, 1, 2, 3),
            Ipv4Addr::new(77, 88, 8, 8),
            IpProtocol::Udp,
            0,
            0xbeef,
            64,
        )
    }

    #[test]
    fn echo_round_trips() {
        let m = IcmpMessage::EchoRequest {
            identifier: 77,
            sequence: 3,
            payload: b"ping".to_vec(),
        };
        assert_eq!(IcmpMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn time_exceeded_round_trips() {
        let m = IcmpMessage::time_exceeded(sample_header(), &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let bytes = m.encode();
        assert!(bytes.len() <= MAX_TIME_EXCEEDED_LEN);
        let back = IcmpMessage::decode(&bytes).unwrap();
        match &back {
            IcmpMessage::TimeExceeded {
                original_header,
                quoted_payload,
            } => {
                assert_eq!(*original_header, sample_header());
                assert_eq!(quoted_payload, &[1, 2, 3, 4, 5, 6, 7, 8]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quote_is_limited_to_eight_bytes() {
        let m = IcmpMessage::time_exceeded(sample_header(), &[0xaa; 100]);
        match &m {
            IcmpMessage::TimeExceeded { quoted_payload, .. } => {
                assert_eq!(quoted_payload.len(), QUOTED_PAYLOAD_LEN)
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn corrupted_checksum_detected() {
        let m = IcmpMessage::EchoReply {
            identifier: 1,
            sequence: 2,
            payload: b"pong".to_vec(),
        };
        let mut bytes = m.encode();
        bytes[5] ^= 0xff;
        assert_eq!(
            IcmpMessage::decode(&bytes),
            Err(DecodeError::BadChecksum {
                what: "ICMP message"
            })
        );
    }

    #[test]
    fn destination_unreachable_round_trips() {
        let m = IcmpMessage::DestinationUnreachable {
            code: 3,
            original_header: sample_header(),
            quoted_payload: vec![9, 9, 9, 9],
        };
        assert_eq!(IcmpMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = IcmpMessage::EchoRequest {
            identifier: 0,
            sequence: 0,
            payload: Vec::new(),
        }
        .encode();
        bytes[0] = 42;
        // Re-fix checksum so the type check is what fails.
        bytes[2..4].copy_from_slice(&[0, 0]);
        let sum = internet_checksum(&bytes);
        bytes[2..4].copy_from_slice(&sum.to_be_bytes());
        assert!(matches!(
            IcmpMessage::decode(&bytes),
            Err(DecodeError::Unsupported { .. })
        ));
    }

    #[test]
    fn original_header_accessor() {
        let m = IcmpMessage::time_exceeded(sample_header(), &[]);
        assert_eq!(m.original_header(), Some(&sample_header()));
        let e = IcmpMessage::EchoRequest {
            identifier: 0,
            sequence: 0,
            payload: vec![],
        };
        assert_eq!(e.original_header(), None);
    }
}
