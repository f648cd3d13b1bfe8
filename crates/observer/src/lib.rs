//! # shadow-observer
//!
//! Behaviour models for the parties the paper measures: on-path traffic
//! observers and the shadowing exhibitors behind them.
//!
//! * [`exhibitor`] — the one retain-and-replay pipeline every shadowing
//!   party runs on a name it sees (DPI taps here, shadowing resolvers in
//!   `shadow-dns`, destination SNI sensors in `shadow-honeypot`): zone
//!   filter, retention, probe planning, telemetry and posting;
//! * [`retention`] — the bounded store where observed data lives
//!   ("user data can be retained for long, e.g. over 10 days");
//! * [`policy`] — replay policies: when observed data re-appears (delay
//!   distributions), over which protocols, how many times (reuse), and from
//!   which origins;
//! * [`dpi`] — the on-wire observer: a [`shadow_netsim::WireTap`] that
//!   extracts DNS QNAMEs, HTTP `Host` headers and TLS SNI from forwarded
//!   packets and hands them to its exhibitor; encrypted flows degrade to
//!   counted-but-unnamed observations;
//! * [`fingerprint`] — the name-blind fallback: destination-IP + size
//!   fingerprinting of flows whose name fields are sealed;
//! * [`probe`] — probe-origin hosts: the machines that actually emit
//!   unsolicited requests (DNS re-queries via public resolvers, HTTP
//!   path-enumeration scans, TLS probes);
//! * [`intercept`] — DNS interception devices (Appendix E), the noise
//!   source the pair-resolver heuristic must filter out.
//!
//! Everything here is *ground truth* the measurement pipeline in
//! `shadow-core` must rediscover from packets alone.

pub mod dpi;
pub mod exhibitor;
pub mod fingerprint;
pub mod intercept;
pub mod policy;
pub mod probe;
pub mod retention;

pub use dpi::{DpiConfig, DpiTap, ObservedProtocol};
pub use exhibitor::{Exhibitor, ExhibitorConfig, ExhibitorStats};
pub use fingerprint::FingerprintDb;
pub use intercept::InterceptorTap;
pub use policy::{DelayBucket, ProbeKind, ReplayPolicy, WeightedChoice};
pub use probe::{DnsVia, ProbeOrder, ProbeOriginHost};
pub use retention::{ObservedItem, RetentionStore};
