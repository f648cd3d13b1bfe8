//! The durable campaign state: a versioned checkpoint file, written and
//! read as a stream.
//!
//! Format (version 4): newline-terminated JSON lines —
//!
//! * **line 1, the state line:** one compact JSON object holding
//!   * `header` — `version`, a `world_hash` binding the file to the exact
//!     campaign configuration (the whole study configuration + wave count;
//!     version 3 widened it from the world/phase/fault configs), the shard
//!     count, and the total wave count;
//!   * `waves_done` / `sim_cursor_ms` — resume position on the wave and
//!     simulated-time axes;
//!   * `rng_streams` — the per-shard SplitMix64 stream states (also an
//!     integrity check: they must re-derive from `(seed, waves_done)`);
//!   * `aggregates` — the cumulative sink aggregates in their portable
//!     entry-vector form ([`PortableAggregates`]); version 2 added the
//!     origin and HTTP-path folds, dropped the derived combination counts,
//!     and added the 55/65-minute interval-histogram edges;
//!   * `metrics` — the merged [`MetricsSnapshot`] (wall-clock timings
//!     zeroed, so the file is deterministic);
//!   * `journal_records` — how many journal lines follow;
//! * **every later line:** one record of the cumulative event journal on
//!   the campaign time axis, in journal order, as the exact bytes
//!   [`shadow_telemetry::to_jsonl`] writes for it. So `tail -n +2` of a
//!   checkpoint is the campaign's JSONL journal.
//!
//! A version 1–3 file, one pretty-printed document with the journal as an
//! array, is rejected as [`ServeError::Parse`] at line 1 (a lone `{`).
//!
//! Streaming: [`CampaignCheckpoint::save`] and
//! [`crate::CampaignDriver::save_checkpoint`] render the state line, then
//! one journal record at a time, through a buffered writer — never the
//! whole file, and the driver never copies its journal to save it.
//! [`CampaignCheckpoint::load`] reads line by line: it checks `version` on
//! the state line before it reads any record, then parses one record line
//! at a time. `to_json`/`from_json` run the same writer and reader over a
//! string.
//!
//! Truncation: every line ends in `\n`, and the state line says how many
//! record lines follow. A file cut inside a line (its last line has no
//! `\n`), one that ends before `journal_records` lines, and one with bytes
//! after the last record are all [`ServeError::Corrupt`].
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
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Bump on any incompatible change to the checkpoint file's layout.
pub const CHECKPOINT_VERSION: u32 = 4;

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
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    pub header: CheckpointHeader,
    pub waves_done: usize,
    pub sim_cursor_ms: u64,
    pub rng_streams: Vec<u64>,
    pub aggregates: PortableAggregates,
    pub metrics: MetricsSnapshot,
    pub journal: Vec<JournalRecord>,
}

/// Line 1 of a checkpoint file: every field of [`CampaignCheckpoint`] but
/// the journal, and how many journal lines follow.
#[derive(Serialize, Deserialize)]
pub(crate) struct StateLine {
    pub(crate) header: CheckpointHeader,
    pub(crate) waves_done: usize,
    pub(crate) sim_cursor_ms: u64,
    pub(crate) rng_streams: Vec<u64>,
    pub(crate) aggregates: PortableAggregates,
    pub(crate) metrics: MetricsSnapshot,
    pub(crate) journal_records: usize,
}

impl StateLine {
    /// The checkpoint this line heads.
    pub(crate) fn with_journal(self, journal: Vec<JournalRecord>) -> CampaignCheckpoint {
        CampaignCheckpoint {
            header: self.header,
            waves_done: self.waves_done,
            sim_cursor_ms: self.sim_cursor_ms,
            rng_streams: self.rng_streams,
            aggregates: self.aggregates,
            metrics: self.metrics,
            journal,
        }
    }
}

impl CampaignCheckpoint {
    /// Deterministic rendering — the resume-fidelity tests compare these
    /// strings byte-for-byte. The bytes [`Self::save`] writes.
    pub fn to_json(&self) -> Result<String, ServeError> {
        let mut out = Vec::new();
        write_checkpoint(&mut out, &self.state_line(), &self.journal)
            .map_err(|e| ServeError::Parse(e.to_string()))?;
        Ok(String::from_utf8(out).expect("JSON text is UTF-8"))
    }

    /// Parse and version-check, as [`Self::load`] does.
    pub fn from_json(json: &str) -> Result<Self, ServeError> {
        read_checkpoint(json.as_bytes(), |e| ServeError::Parse(e.to_string()))
    }

    /// Write atomically: stream into a sibling `.tmp` file, then rename it
    /// over `path`.
    pub fn save(&self, path: &Path) -> Result<(), ServeError> {
        save(path, &self.state_line(), &self.journal)
    }

    /// Read `path`; a missing file is its own error variant so callers can
    /// say "no checkpoint at <path>" instead of a raw ENOENT.
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        let io_error = |source| ServeError::Io {
            path: path.to_path_buf(),
            source,
        };
        let file = match File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(ServeError::MissingCheckpoint(path.to_path_buf()))
            }
            Err(e) => return Err(io_error(e)),
        };
        read_checkpoint(BufReader::new(file), io_error)
    }

    fn state_line(&self) -> StateLine {
        StateLine {
            header: self.header.clone(),
            waves_done: self.waves_done,
            sim_cursor_ms: self.sim_cursor_ms,
            rng_streams: self.rng_streams.clone(),
            aggregates: self.aggregates.clone(),
            metrics: self.metrics.clone(),
            journal_records: self.journal.len(),
        }
    }
}

/// Write `state` and `journal` to `path` atomically: stream them into a
/// sibling `.tmp` file, then rename it over `path`, so a crash mid-write
/// can never leave a torn checkpoint.
pub(crate) fn save(
    path: &Path,
    state: &StateLine,
    journal: &[JournalRecord],
) -> Result<(), ServeError> {
    let io_error = |source| ServeError::Io {
        path: path.to_path_buf(),
        source,
    };
    let tmp = path.with_extension("tmp");
    let mut out = BufWriter::new(File::create(&tmp).map_err(io_error)?);
    write_checkpoint(&mut out, state, journal)
        .and_then(|()| out.flush())
        .map_err(io_error)?;
    std::fs::rename(&tmp, path).map_err(io_error)
}

/// The one writer: the state line, then one line per journal record.
fn write_checkpoint(
    out: &mut impl Write,
    state: &StateLine,
    journal: &[JournalRecord],
) -> io::Result<()> {
    debug_assert_eq!(state.journal_records, journal.len());
    write_line(out, state)?;
    for record in journal {
        write_line(out, record)?;
    }
    Ok(())
}

/// `value`'s compact JSON and a `\n` — per journal record, the line
/// [`shadow_telemetry::to_jsonl`] writes.
fn write_line(out: &mut impl Write, value: &impl Serialize) -> io::Result<()> {
    let json = serde_json::to_string(value).map_err(io::Error::other)?;
    out.write_all(json.as_bytes())?;
    out.write_all(b"\n")
}

/// The one reader: the state line and its version check, then exactly
/// `journal_records` record lines and nothing after them. `io_error`
/// classifies a failed read of `input`.
fn read_checkpoint(
    mut input: impl BufRead,
    io_error: impl Fn(io::Error) -> ServeError,
) -> Result<CampaignCheckpoint, ServeError> {
    let mut line = Vec::new();
    if !read_line(&mut input, &mut line, &io_error)? {
        return Err(ServeError::Corrupt("the file is empty".to_string()));
    }
    let state: StateLine = parse_line(&line, 1)?;
    if state.header.version != CHECKPOINT_VERSION {
        return Err(ServeError::Version {
            found: state.header.version,
            supported: CHECKPOINT_VERSION,
        });
    }
    // The count comes from the file: reserve for it, but no more than
    // 2^20 records up front, so a corrupt count cannot ask for the heap.
    let mut journal = Vec::with_capacity(state.journal_records.min(1 << 20));
    while journal.len() < state.journal_records {
        if !read_line(&mut input, &mut line, &io_error)? {
            return Err(ServeError::Corrupt(format!(
                "the journal ends after {} of its {} records",
                journal.len(),
                state.journal_records
            )));
        }
        journal.push(parse_line(&line, journal.len() + 2)?);
    }
    if !input.fill_buf().map_err(&io_error)?.is_empty() {
        return Err(ServeError::Corrupt(format!(
            "bytes follow the journal's {} records",
            state.journal_records
        )));
    }
    Ok(state.with_journal(journal))
}

/// Read the next line into `line`, without its `\n`; `false` at the end
/// of the input. A last line without its `\n` was cut off.
fn read_line(
    input: &mut impl BufRead,
    line: &mut Vec<u8>,
    io_error: &impl Fn(io::Error) -> ServeError,
) -> Result<bool, ServeError> {
    line.clear();
    if input.read_until(b'\n', line).map_err(io_error)? == 0 {
        return Ok(false);
    }
    if line.pop() != Some(b'\n') {
        return Err(ServeError::Corrupt(
            "the file is cut off inside its last line".to_string(),
        ));
    }
    Ok(true)
}

fn parse_line<T: Deserialize>(line: &[u8], number: usize) -> Result<T, ServeError> {
    std::str::from_utf8(line)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
        .map_err(|e| ServeError::Parse(format!("line {number}: {e}")))
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
        let mut state = CampaignDriver::new(ServeConfig::tiny(3))
            .checkpoint()
            .state_line();
        state.header.version = CHECKPOINT_VERSION + 1;
        // The record line does not parse: the version check must come
        // before any record is read.
        state.journal_records = 1;
        let json = format!(
            "{}\nnot a journal record\n",
            serde_json::to_string(&state).unwrap()
        );
        match CampaignCheckpoint::from_json(&json) {
            Err(ServeError::Version { found, supported }) => {
                assert_eq!(found, CHECKPOINT_VERSION + 1);
                assert_eq!(supported, CHECKPOINT_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
    }

    #[test]
    fn a_record_count_past_the_end_is_corrupt() {
        let mut state = CampaignDriver::new(ServeConfig::tiny(3))
            .checkpoint()
            .state_line();
        state.journal_records = usize::MAX;
        let json = format!("{}\n", serde_json::to_string(&state).unwrap());
        match CampaignCheckpoint::from_json(&json) {
            Err(ServeError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn an_unknown_journal_label_is_a_parse_error() {
        use shadow_telemetry::{EventKind, IpLabel, Label};
        let mut checkpoint = CampaignDriver::new(ServeConfig::tiny(3)).checkpoint();
        let record = |seq, event| JournalRecord {
            at_ms: 5,
            shard: 0,
            node: Some(1),
            seq,
            event,
        };
        let (src, dst) = ("10.0.0.1".parse().unwrap(), "8.8.8.8".parse().unwrap());
        checkpoint.journal = vec![
            record(
                0,
                EventKind::TapObserved {
                    src,
                    dst,
                    protocol: IpLabel::new(6),
                },
            ),
            record(
                1,
                EventKind::EncryptedFlowTapped {
                    src,
                    dst,
                    transport: Label::Doh,
                    classified: None,
                },
            ),
        ];
        let json = checkpoint.to_json().unwrap();
        assert_eq!(CampaignCheckpoint::from_json(&json).unwrap(), checkpoint);
        for (known, unknown, line) in [
            (r#""protocol":"TCP""#, r#""protocol":"TCPX""#, 2),
            (r#""protocol":"TCP""#, r#""protocol":"IP(6)""#, 2),
            (r#""transport":"doh""#, r#""transport":"DoH""#, 3),
        ] {
            let tampered = json.replacen(known, unknown, 1);
            assert_ne!(tampered, json);
            match CampaignCheckpoint::from_json(&tampered) {
                Err(ServeError::Parse(message)) => {
                    assert!(message.starts_with(&format!("line {line}:")), "{message}");
                    assert!(message.contains("unknown journal label"), "{message}");
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
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
