//! The durable campaign state: a versioned JSON file.
//!
//! Format (version 3): a single pretty-printed JSON object —
//!
//! * `header` — `version`, a `world_hash` binding the file to the exact
//!   campaign configuration (the whole study configuration + wave count;
//!   version 3 widened it from the world/phase/fault configs), the shard
//!   count, and the total wave count;
//! * `waves_done` / `sim_cursor_ms` — resume position on the wave and
//!   simulated-time axes;
//! * `rng_streams` — the per-shard SplitMix64 stream states (also an
//!   integrity check: they must re-derive from `(seed, waves_done)`);
//! * `aggregates` — the cumulative sink aggregates in their portable
//!   entry-vector form ([`PortableAggregates`]); version 2 added the
//!   origin and HTTP-path folds, dropped the derived combination counts,
//!   and added the 55/65-minute interval-histogram edges;
//! * `metrics` — the merged [`MetricsSnapshot`] (wall-clock timings
//!   zeroed, so the file is deterministic);
//! * `journal` — the cumulative event journal on the campaign time axis.
//!
//! Versioning: `version` is checked on parse and rejected with a clear
//! error when it differs from [`CHECKPOINT_VERSION`]; any future layout
//! change bumps the constant. Rendering is deterministic (all maps were
//! flattened in `BTreeMap` order), so "two checkpoints are byte-equal" is
//! a meaningful — and tested — statement about resume fidelity.

use crate::ServeError;
use serde::{Deserialize, Serialize};
use shadow_core::sink::PortableAggregates;
use shadow_telemetry::{JournalRecord, MetricsSnapshot};
use std::path::Path;

/// Bump on any incompatible change to [`CampaignCheckpoint`]'s layout.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Identity and position metadata, validated before any payload is used.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointHeader {
    pub version: u32,
    /// FNV-1a over the campaign-shaping configuration; see
    /// [`crate::ServeConfig::world_hash`].
    pub world_hash: u64,
    pub shards: usize,
    pub waves_total: usize,
}

/// Everything needed to continue the campaign exactly where it stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCheckpoint {
    pub header: CheckpointHeader,
    pub waves_done: usize,
    pub sim_cursor_ms: u64,
    pub rng_streams: Vec<u64>,
    pub aggregates: PortableAggregates,
    pub metrics: MetricsSnapshot,
    pub journal: Vec<JournalRecord>,
}

impl CampaignCheckpoint {
    /// Deterministic rendering — the resume-fidelity tests compare these
    /// strings byte-for-byte.
    pub fn to_json(&self) -> Result<String, ServeError> {
        serde_json::to_string_pretty(self).map_err(|e| ServeError::Parse(e.to_string()))
    }

    /// Parse and version-check.
    pub fn from_json(json: &str) -> Result<Self, ServeError> {
        let checkpoint: CampaignCheckpoint =
            serde_json::from_str(json).map_err(|e| ServeError::Parse(e.to_string()))?;
        if checkpoint.header.version != CHECKPOINT_VERSION {
            return Err(ServeError::Version {
                found: checkpoint.header.version,
                supported: CHECKPOINT_VERSION,
            });
        }
        Ok(checkpoint)
    }

    /// Write atomically: render to a sibling `.tmp` file, then rename over
    /// `path`, so a crash mid-write can never leave a torn checkpoint.
    pub fn save(&self, path: &Path) -> Result<(), ServeError> {
        let json = self.to_json()?;
        let tmp = path.with_extension("tmp");
        let io_err = |source| ServeError::Io {
            path: path.to_path_buf(),
            source,
        };
        std::fs::write(&tmp, json.as_bytes()).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(io_err)
    }

    /// Read `path`; a missing file is its own error variant so callers can
    /// say "no checkpoint at <path>" instead of a raw ENOENT.
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        let json = match std::fs::read_to_string(path) {
            Ok(json) => json,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(ServeError::MissingCheckpoint(path.to_path_buf()))
            }
            Err(e) => {
                return Err(ServeError::Io {
                    path: path.to_path_buf(),
                    source: e,
                })
            }
        };
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{CampaignDriver, ServeConfig};

    #[test]
    fn fresh_driver_checkpoint_round_trips() {
        let checkpoint = CampaignDriver::new(ServeConfig::tiny(3)).checkpoint();
        let json = checkpoint.to_json().unwrap();
        let back = CampaignCheckpoint::from_json(&json).unwrap();
        assert_eq!(back, checkpoint);
        assert_eq!(back.to_json().unwrap(), json, "rendering is deterministic");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut checkpoint = CampaignDriver::new(ServeConfig::tiny(3)).checkpoint();
        checkpoint.header.version = CHECKPOINT_VERSION + 1;
        let json = serde_json::to_string_pretty(&checkpoint).unwrap();
        match CampaignCheckpoint::from_json(&json) {
            Err(ServeError::Version { found, supported }) => {
                assert_eq!(found, CHECKPOINT_VERSION + 1);
                assert_eq!(supported, CHECKPOINT_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_a_distinct_error() {
        let path = std::env::temp_dir().join("shadow-serve-no-such-checkpoint.json");
        match CampaignCheckpoint::load(&path) {
            Err(ServeError::MissingCheckpoint(p)) => assert_eq!(p, path),
            other => panic!("expected MissingCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn save_then_load_preserves_bytes() {
        let checkpoint = CampaignDriver::new(ServeConfig::tiny(5)).checkpoint();
        let path = std::env::temp_dir().join("shadow-serve-checkpoint-roundtrip.json");
        checkpoint.save(&path).unwrap();
        let loaded = CampaignCheckpoint::load(&path).unwrap();
        assert_eq!(loaded, checkpoint);
        std::fs::remove_file(&path).ok();
    }
}
