//! The wave-based campaign driver.
//!
//! A daemon run is `waves` bounded sub-campaigns ("waves") laid end to end
//! on a simulated-time axis. Each wave is a complete
//! [`Study::run_sharded`] over a derived per-wave seed — the chunk
//! scheduler at K chunks on K workers: fresh worlds, one shared Phase I
//! plan, a fresh Phase I/II, its own streamed classification. The driver
//! then folds the wave into cumulative state using only commutative operations
//! — [`CorrelationAggregates::absorb`], [`MetricsSnapshot::merge`], and a
//! journal append with every record's timestamp offset by the cumulative
//! sim-time cursor.
//!
//! Why waves instead of pausing one giant campaign mid-flight: Phase I
//! plans all rounds through a single shared rate-limit scheduler, so a
//! round boundary is *not* a state-free cut point — serializing an
//! interrupted engine would mean serializing the time wheel, every
//! in-flight packet, TCP state, and classifier interiors. A wave boundary,
//! by contrast, is a point where *no* simulation state exists; the entire
//! resumable state is the fold results plus the RNG stream positions, and
//! interrupt/resume is byte-identical by construction.
//!
//! **Per-wave seeding.** The driver keeps one SplitMix64 stream per shard
//! slot. Every wave advances *all* streams by exactly one draw; the wave
//! seed is stream 0's output (so the emitted traffic is invariant in the
//! shard count, like everything else in this workspace), and the wave's
//! fault seed is derived from it by a fixed xor. The streams double as a
//! resume-integrity check: a resumed driver re-derives the expected stream
//! positions from `(seed, waves_done)` and rejects a checkpoint whose
//! recorded positions disagree.

use crate::checkpoint::{CampaignCheckpoint, CheckpointHeader, CHECKPOINT_VERSION};
use crate::ServeError;
use shadow_core::sink::CorrelationAggregates;
use shadow_telemetry::{JournalRecord, MetricsSnapshot};
use std::path::{Path, PathBuf};
use traffic_shadowing::shadow_core::executor::TelemetryOptions;
use traffic_shadowing::study::{Study, StudyConfig, StudyOutcome};

/// `z ^= golden; mix(z)` — the SplitMix64 step (Steele et al.), the same
/// generator family the chaos crate uses for value-derived decisions.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the debug rendering of the campaign-shaping configuration.
/// Good enough to catch "`--resume` pointed at a checkpoint from a
/// different campaign" with a clear error, which is all it is for.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// How the daemon runs its campaign.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The base study configuration every wave derives from (only the
    /// world seed and fault seed vary per wave).
    pub study: StudyConfig,
    /// Total waves in the campaign.
    pub waves: usize,
    /// Shards per wave (`Study::run_sharded`'s K): the scheduler runs K
    /// chunks on K worker threads. Recorded in the checkpoint, so a resume
    /// must use the same K.
    pub shards: usize,
    /// Write a checkpoint here after every wave (`None`: never persist).
    pub checkpoint_path: Option<PathBuf>,
    /// Per-subscriber journal-tail ring capacity (bounded backpressure).
    pub tail_capacity: usize,
    /// HTTP worker-pool size.
    pub http_workers: usize,
}

impl ServeConfig {
    /// The test/quickstart shape: tiny world, telemetry + journal on (so
    /// checkpoints carry all three artifacts), two waves, one shard.
    pub fn tiny(seed: u64) -> Self {
        Self {
            study: StudyConfig {
                telemetry: TelemetryOptions::enabled(true),
                ..StudyConfig::tiny(seed)
            },
            waves: 2,
            shards: 1,
            checkpoint_path: None,
            tail_capacity: 4096,
            http_workers: 4,
        }
    }

    /// Hash of everything that shapes campaign *output* — the whole
    /// study configuration (world, both phases, trace cap, whether Phase II
    /// runs, telemetry, faults) plus the wave count — the checkpoint
    /// header's identity field. Shard count is deliberately excluded:
    /// output is K-invariant, and K gets its own dedicated mismatch check.
    pub fn world_hash(&self) -> u64 {
        let rendering = format!("{:?}|waves={}", self.study, self.waves);
        fnv1a(rendering.as_bytes())
    }

    /// The study configuration wave `wave_seed` runs: the base config with
    /// the world re-seeded and, when faults are active, the fault profile
    /// re-keyed (so impairment patterns vary across waves too, while the
    /// profile's rates and windows stay fixed).
    pub fn wave_study_config(&self, wave_seed: u64) -> StudyConfig {
        let mut config = self.study.clone();
        config.world.seed = wave_seed;
        if let Some(faults) = &mut config.faults {
            faults.fault_seed = wave_seed ^ 0x9e37_79b9_7f4a_7c15;
        }
        config
    }

    /// The wave seeds this configuration will draw, in order — what a
    /// straight-through run and any interrupt/resume partition of it both
    /// execute.
    pub fn wave_seeds(&self) -> Vec<u64> {
        let mut streams = initial_streams(self.study.world.seed, self.shards);
        (0..self.waves)
            .map(|_| advance_streams(&mut streams))
            .collect()
    }
}

/// One independent SplitMix64 state per shard slot, all derived from the
/// base seed.
fn initial_streams(seed: u64, shards: usize) -> Vec<u64> {
    let mut chain = seed ^ 0x5851_f42d_4c95_7f2d;
    (0..shards.max(1)).map(|_| splitmix64(&mut chain)).collect()
}

/// Advance every stream one draw; the wave seed is stream 0's output.
fn advance_streams(streams: &mut [u64]) -> u64 {
    let mut wave_seed = 0;
    for (i, stream) in streams.iter_mut().enumerate() {
        let draw = splitmix64(stream);
        if i == 0 {
            wave_seed = draw;
        }
    }
    wave_seed
}

/// What [`CampaignDriver::run_next_wave`] hands back: which wave ran, its
/// seed, where its journal records start in the cumulative journal, and
/// the full study outcome (for per-wave reporting, e.g. the robustness
/// cell served at `/api/robustness`).
pub struct WaveReport {
    /// 0-based index of the wave that just completed.
    pub wave: usize,
    pub wave_seed: u64,
    /// Start of this wave's records in [`CampaignDriver::journal`]; read
    /// them with [`CampaignDriver::wave_records`].
    pub journal_from: usize,
    pub outcome: StudyOutcome,
}

/// The resumable campaign: cumulative folds plus RNG stream positions.
pub struct CampaignDriver {
    config: ServeConfig,
    waves_done: usize,
    sim_cursor_ms: u64,
    rng_streams: Vec<u64>,
    aggregates: CorrelationAggregates,
    metrics: MetricsSnapshot,
    journal: Vec<JournalRecord>,
}

impl CampaignDriver {
    /// A fresh campaign at wave 0.
    pub fn new(config: ServeConfig) -> Self {
        let rng_streams = initial_streams(config.study.world.seed, config.shards);
        Self {
            config,
            waves_done: 0,
            sim_cursor_ms: 0,
            rng_streams,
            aggregates: CorrelationAggregates::default(),
            metrics: MetricsSnapshot::default(),
            journal: Vec::new(),
        }
    }

    /// Rebuild a driver from a checkpoint, validating that the checkpoint
    /// belongs to `config` (world hash), was taken at the same shard
    /// count, and is internally consistent (RNG stream positions re-derive
    /// from `(seed, waves_done)`).
    pub fn resume(config: ServeConfig, checkpoint: CampaignCheckpoint) -> Result<Self, ServeError> {
        if checkpoint.header.version != CHECKPOINT_VERSION {
            return Err(ServeError::Version {
                found: checkpoint.header.version,
                supported: CHECKPOINT_VERSION,
            });
        }
        let expected_hash = config.world_hash();
        if checkpoint.header.world_hash != expected_hash {
            return Err(ServeError::WorldMismatch {
                expected: expected_hash,
                found: checkpoint.header.world_hash,
            });
        }
        if checkpoint.header.shards != config.shards {
            return Err(ServeError::ShardMismatch {
                expected: config.shards,
                found: checkpoint.header.shards,
            });
        }
        if checkpoint.waves_done > config.waves {
            return Err(ServeError::Corrupt(format!(
                "{} waves done exceeds the campaign's {}",
                checkpoint.waves_done, config.waves
            )));
        }
        let mut rng_streams = initial_streams(config.study.world.seed, config.shards);
        for _ in 0..checkpoint.waves_done {
            advance_streams(&mut rng_streams);
        }
        if rng_streams != checkpoint.rng_streams {
            return Err(ServeError::Corrupt(
                "RNG stream positions do not re-derive from (seed, waves_done)".to_string(),
            ));
        }
        let aggregates =
            CorrelationAggregates::from_portable(&checkpoint.aggregates).ok_or_else(|| {
                ServeError::Corrupt(
                    "aggregates histogram layout does not match this build".to_string(),
                )
            })?;
        Ok(Self {
            config,
            waves_done: checkpoint.waves_done,
            sim_cursor_ms: checkpoint.sim_cursor_ms,
            rng_streams,
            aggregates,
            metrics: checkpoint.metrics,
            journal: checkpoint.journal,
        })
    }

    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    pub fn waves_done(&self) -> usize {
        self.waves_done
    }

    pub fn waves_total(&self) -> usize {
        self.config.waves
    }

    pub fn is_done(&self) -> bool {
        self.waves_done >= self.config.waves
    }

    /// Simulated milliseconds consumed by completed waves.
    pub fn sim_cursor_ms(&self) -> u64 {
        self.sim_cursor_ms
    }

    /// The cumulative streamed aggregates across all completed waves.
    pub fn aggregates(&self) -> &CorrelationAggregates {
        &self.aggregates
    }

    /// Cumulative merged metrics (wall-clock timings zeroed — see
    /// [`Self::run_next_wave`]).
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    /// The cumulative journal; timestamps are campaign-axis (each wave's
    /// records offset by the cursor at its start), so the vector is sorted.
    pub fn journal(&self) -> &[JournalRecord] {
        &self.journal
    }

    /// How many records the cumulative journal holds.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// The journal records `report`'s wave appended, on the campaign axis.
    pub fn wave_records(&self, report: &WaveReport) -> &[JournalRecord] {
        &self.journal[report.journal_from..]
    }

    /// Run one wave and fold it in. `None` once the campaign is complete.
    ///
    /// Fold rules, each chosen so interrupt/resume cannot be observed:
    /// * aggregates absorb commutatively;
    /// * wave metrics merge with `phase_wall_ns` cleared first (wall-clock
    ///   is the one nondeterministic metric, and a checkpoint must not
    ///   remember how fast the host happened to be) and the shard count
    ///   kept at its per-wave value instead of summed across waves;
    /// * journal records shift onto the campaign time axis by the cursor,
    ///   which then advances past both the wave's send window (+ grace)
    ///   and its last journal record, so appended records stay sorted.
    pub fn run_next_wave(&mut self) -> Option<WaveReport> {
        if self.is_done() {
            return None;
        }
        let wave = self.waves_done;
        let wave_seed = advance_streams(&mut self.rng_streams);
        let wave_config = self.config.wave_study_config(wave_seed);
        let outcome = Study::run_sharded(wave_config, self.config.shards);

        self.aggregates.absorb(outcome.phase1.aggregates.clone());
        if let Some(wave_metrics) = &outcome.metrics {
            let mut wave_metrics = wave_metrics.clone();
            wave_metrics.run.phase_wall_ns.clear();
            let shards = self.metrics.run.shards.max(wave_metrics.run.shards);
            self.metrics.merge(&wave_metrics);
            self.metrics.run.shards = shards;
        }
        let journal_from = self.journal.len();
        let mut wave_journal_max_ms = 0;
        if let Some(records) = &outcome.journal {
            self.journal.reserve(records.len());
            for record in records {
                wave_journal_max_ms = wave_journal_max_ms.max(record.at_ms);
                let mut shifted = record.clone();
                shifted.at_ms += self.sim_cursor_ms;
                self.journal.push(shifted);
            }
        }
        let send_window_ms =
            outcome.phase1.last_send.millis() + self.config.study.phase1.grace.millis();
        self.sim_cursor_ms += send_window_ms.max(wave_journal_max_ms + 1);
        self.waves_done += 1;
        Some(WaveReport {
            wave,
            wave_seed,
            journal_from,
            outcome,
        })
    }

    /// Run every remaining wave; returns how many ran.
    pub fn run_to_completion(&mut self) -> usize {
        let mut ran = 0;
        while self.run_next_wave().is_some() {
            ran += 1;
        }
        ran
    }

    /// The durable form of the current cumulative state.
    pub fn checkpoint(&self) -> CampaignCheckpoint {
        CampaignCheckpoint {
            header: CheckpointHeader {
                version: CHECKPOINT_VERSION,
                world_hash: self.config.world_hash(),
                shards: self.config.shards,
                waves_total: self.config.waves,
            },
            waves_done: self.waves_done,
            sim_cursor_ms: self.sim_cursor_ms,
            rng_streams: self.rng_streams.clone(),
            aggregates: self.aggregates.to_portable(),
            metrics: self.metrics.clone(),
            journal: self.journal.clone(),
        }
    }

    /// Checkpoint to `path` (atomic: tmp file + rename).
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), ServeError> {
        self.checkpoint().save(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_seeds_are_shard_independent() {
        let one = ServeConfig {
            shards: 1,
            ..ServeConfig::tiny(7)
        };
        let four = ServeConfig {
            shards: 4,
            ..ServeConfig::tiny(7)
        };
        assert_eq!(one.wave_seeds(), four.wave_seeds());
    }

    #[test]
    fn wave_seeds_differ_across_waves_and_base_seeds() {
        let seeds = ServeConfig::tiny(7).wave_seeds();
        assert_eq!(seeds.len(), 2);
        assert_ne!(seeds[0], seeds[1]);
        assert_ne!(seeds, ServeConfig::tiny(8).wave_seeds());
    }

    #[test]
    fn world_hash_tracks_configuration() {
        let base = ServeConfig::tiny(7);
        assert_eq!(base.world_hash(), ServeConfig::tiny(7).world_hash());
        assert_ne!(base.world_hash(), ServeConfig::tiny(8).world_hash());
        let more_waves = ServeConfig {
            waves: 3,
            ..ServeConfig::tiny(7)
        };
        assert_ne!(base.world_hash(), more_waves.world_hash());
        // Shard count is NOT part of the identity (output is K-invariant).
        let sharded = ServeConfig {
            shards: 4,
            ..ServeConfig::tiny(7)
        };
        assert_eq!(base.world_hash(), sharded.world_hash());
    }
}
