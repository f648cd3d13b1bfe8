//! # shadow-honeypot
//!
//! The capture side of the methodology (Figure 1): every experiment domain
//! resolves — via wildcard records served by [`authority::ExperimentAuthorityHost`]
//! — to honey web servers ([`web::WebHost`] in honeypot mode) in three
//! regions (US, DE, SG in the paper). Whatever arrives bearing an
//! experiment domain becomes a [`capture::Arrival`], offered to the
//! installed [`capture::ArrivalSink`]; deciding which arrivals are
//! *unsolicited* is the correlation engine's job (`shadow-core`), because
//! it requires the decoy registry.
//!
//! [`web::WebHost`] doubles, without logging, as the generic Tranco-site
//! destination server HTTP/TLS decoys are sent to.

pub mod authority;
pub mod capture;
pub mod web;

pub use authority::ExperimentAuthorityHost;
pub use capture::{Arrival, ArrivalProtocol, CaptureLog};
pub use web::WebHost;
