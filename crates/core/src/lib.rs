//! # shadow-core
//!
//! The reproduction of the paper's actual contribution — the measurement
//! methodology of Section 3 — plus the simulated-world builder it runs
//! against:
//!
//! * [`ident`] — the decoy identifier codec: send time, VP address,
//!   destination address, and initial TTL encoded (with a checksum) into
//!   the DNS label `g6d8jjkut5obc4-9982`-style that honeypots decode back;
//! * [`decoy`] — decoy records, and the registry each chunk builds from
//!   the sends it posts for its correlation sink;
//! * [`world`] — builds the simulated Internet (topology, resolvers,
//!   observers, honeypots, VPs) from a seeded configuration;
//! * [`campaign`] — Phase I: spread decoys from every VP to every
//!   destination under the ethical rate limit, capture arrivals;
//! * [`correlate`] — the unsolicited rules (i)–(iii) as a capture-time
//!   state machine;
//! * [`sink`] — the capture-time sink that classifies every arrival and
//!   folds it into the aggregates every analysis reads;
//! * [`phase2`] — hop-by-hop traceroute: locate observers, harvest ICMP-
//!   revealed router addresses;
//! * [`noise`] — Appendix E mitigations: pair-resolver interception test
//!   and the TTL-rewrite pre-flight.
//!
//! The measurement code never touches ground truth: everything it reports
//! is recovered from packets its own decoys triggered.

pub mod campaign;
pub mod correlate;
pub mod decoy;
pub mod executor;
pub mod ident;
pub mod noise;
pub mod phase2;
pub mod sink;
pub mod world;

pub use campaign::{CampaignData, CampaignRunner, Phase1Config};
pub use correlate::{Combo, CorrelatedRequest, PathKey, StreamingClassifier, UnsolicitedLabel};
pub use decoy::{DecoyProtocol, DecoyRecord, DecoyRegistry};
pub use executor::{
    run_phase1_chunks, run_phase1_sharded_sink, run_phase2_chunks, shard_vps, ChunkConfig,
    ShardedPhase1,
};
pub use ident::{DecoyIdent, IdentError};
pub use noise::{NoiseFilter, PreflightOutcome};
pub use phase2::{Phase2Config, Phase2Runner, TracerouteResult};
pub use sink::{CorrelationAggregates, CorrelationSink, IntervalHistogram, SinkConfig};
pub use world::{World, WorldConfig};
