//! # shadow-chaos
//!
//! Deterministic fault injection + scenario sweeps. The simulator's
//! default network is perfectly reliable; the paper's substrate is the
//! lossy real Internet. This crate quantifies how much of the measurement
//! methodology survives impairment:
//!
//! * [`profile`] — [`FaultProfile`]: a declarative, serializable bundle of
//!   impairments (per-link loss/duplication/jitter, router and link outage
//!   windows, resolver outages, VP churn, honeypot downtime, ICMP
//!   Time-Exceeded rate limiting, DNS retry policy). Compiled against
//!   [`FaultTargets`] into the engine-side
//!   [`LinkConditioner`](shadow_netsim::fault::LinkConditioner), whose
//!   decisions are value-derived — byte-identical at any shard count.
//! * [`grid`] — [`loss_grid`] and [`icmp_grid`]: named fault profiles
//!   along the sweep axes. A sweep driver runs one full campaign per
//!   profile on the executor's worker pool and folds the outcomes into a
//!   report.

pub mod grid;
pub mod profile;

pub use grid::{icmp_grid, loss_grid};
pub use profile::{ChurnSpec, FaultProfile, FaultTargets, OutageSpec, RetrySpec, Window};
