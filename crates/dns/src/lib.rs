//! # shadow-dns
//!
//! The DNS side of the simulated world:
//!
//! * [`catalog`] — the paper's Table 4: 20 large public resolvers (with
//!   their real anycast addresses), one self-built resolver, the 13 root
//!   servers and 2 TLD servers that DNS decoys target;
//! * [`profile`] — per-resolver behaviour: caching, benign retry habits
//!   ("DNS zombies"), and — for the shadowing exhibitors the paper finds —
//!   replay policies wired to probe origins;
//! * [`resolver`] — the recursive resolver host implementation;
//! * [`authoritative`] — static authoritative servers (roots, TLDs) that
//!   answer with referrals and exhibit no shadowing, matching the paper's
//!   control observations.

pub mod authoritative;
pub mod catalog;
pub mod profile;
pub mod resolver;

pub use authoritative::StaticAuthorityHost;
pub use catalog::{
    pair_address, DnsDestination, DnsDestinationKind, ShadowClass, DNS_DESTINATIONS,
};
pub use profile::{ResolverProfile, RetryHabit};
pub use resolver::RecursiveResolverHost;
