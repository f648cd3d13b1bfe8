//! # shadow-vantage
//!
//! The measurement platform of Section 3 / Appendix C: commercial-VPN
//! vantage points (VPs) that spread decoys and run hop-by-hop traceroutes.
//!
//! * [`providers`] — the 19 VPN providers of Table 5 (6 global, 13 CN),
//!   each with ground-truth defects the vetting pipeline must catch
//!   (TTL-rewriting egress, covertly residential nodes);
//! * [`vp`] — the vantage-point host: executes decoy-send and traceroute
//!   commands, records DNS answers and ICMP Time Exceeded observations;
//! * [`platform`] — recruitment, vetting, and the Table-1 capability
//!   summary;
//! * [`schedule`] — the round-robin decoy scheduler with the paper's
//!   ≤2 packets/second/target ethical rate limit.

pub mod platform;
pub mod providers;
pub mod schedule;
pub mod vp;

pub use platform::{Platform, PlatformSummary, VantagePoint, VpId};
pub use providers::{Market, VpnProvider, VPN_PROVIDERS};
pub use schedule::RateLimitedScheduler;
pub use vp::{DnsAnswerRecord, IcmpObservation, VantagePointHost, VpCommand, VpReport};
