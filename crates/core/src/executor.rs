//! Deterministic parallel campaign execution: one chunk scheduler.
//!
//! The campaign is embarrassingly parallel across vantage points: every
//! decoy is sent by exactly one VP, and the global send schedule is a pure
//! function of the (deterministic) world. A parallel run therefore:
//!
//! 1. generates the [`WorldSpec`] once: the never-run template world, with
//!    every host and tap constructed (all randomness lives there);
//! 2. forks a scout [`World`] from the template on the calling thread,
//!    runs the Appendix-E pre-flight on it (the run's only one), and
//!    compiles the global Phase I plan there once, shared read-only with
//!    every chunk. The plan is the closed-form
//!    [`Phase1Schedule`](crate::campaign::Phase1Schedule): target list
//!    plus roster, O(VPs + targets), whatever the send count;
//! 3. partitions the VP set round-robin into [`ChunkConfig::chunks`]
//!    chunks, which [`ChunkConfig::workers`] threads claim one at a time
//!    from one shared queue until it drains;
//! 4. runs chunk 0 in the scout and every other chunk in a private
//!    [`World::fork`] of it, taken before any chunk starts — identical
//!    topology, exhibitor seeds, honeypots, platform vetting and
//!    post-pre-flight host state — expanding and posting only the sends
//!    its VPs own, registering the decoys it posts for its own
//!    correlation sink, and running the clock through the global grace
//!    window, so retention-store timing matches the sequential run;
//! 5. merges chunk outputs in chunk-index order with the commutative,
//!    order-stable [`CampaignData::absorb`]; chunk journals stay in
//!    emission order, concatenated in chunk order, until the study sorts
//!    the whole journal once.
//!
//! Sequential is the 1×1 shape and "K shards" is K chunks on K workers;
//! every shape produces the same bytes.
//!
//! Because exhibitor randomness is value-derived (seeded per observation
//! from the decoy domain and time, never from a shared RNG stream), a
//! chunk observing only its own VPs' decoys makes the same probing
//! decisions the sequential run makes for those decoys. The one documented
//! divergence risk is retention-store *capacity* eviction (FIFO): a chunk
//! sees fewer identifiers than the sequential run, so a sequential run
//! that overflows a retention store could replay a different (older)
//! subset. The shipped worlds size retention well above per-store load;
//! `tests/sharded_equivalence.rs` enforces byte-identical output.

use crate::campaign::{CampaignData, CampaignRunner, Phase1Config};
use crate::correlate::PathKey;
use crate::noise::{NoiseFilter, PreflightOutcome};
use crate::phase2::{Phase2Config, Phase2Runner, TracerouteResult};
use crate::sink::SinkConfig;
use crate::world::{World, WorldSpec};
use shadow_netsim::engine::EngineStats;
use shadow_netsim::fault::LinkConditioner;
use shadow_telemetry::{EventKind, JournalRecord, Telemetry};
use shadow_vantage::platform::VpId;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// What a (parallel or sequential) run records about itself.
///
/// Telemetry is installed **after** the pre-flight, on the scout and on
/// each fork of it, so it covers the campaign traffic only, as in the
/// sequential run; the Appendix-E pre-flight is a measurement of the
/// platform, not of shadowing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryOptions {
    /// Collect metrics (counters + histograms).
    pub metrics: bool,
    /// Additionally buffer the structured event journal (implies metrics).
    pub journal: bool,
}

impl TelemetryOptions {
    /// Nothing recorded — the zero-cost default.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Metrics on; `journal` opts into the event journal too.
    pub fn enabled(journal: bool) -> Self {
        Self {
            metrics: true,
            journal,
        }
    }

    /// Build the per-chunk engine handle.
    pub fn handle(&self, shard: u32) -> Telemetry {
        if self.journal {
            Telemetry::new(shard, true)
        } else if self.metrics {
            Telemetry::metrics_only(shard)
        } else {
            Telemetry::disabled()
        }
    }
}

/// Partition `vps` into `shards` round-robin sets (VP *i* goes to shard
/// `i % shards`). Deterministic in the input order; every VP lands in
/// exactly one shard. `shards` is clamped to at least 1 and at most the
/// number of VPs (empty shards are pointless but harmless — each still
/// costs a world fork and a run of the clock — so we avoid creating
/// them).
pub fn shard_vps(vps: &[VpId], shards: usize) -> Vec<BTreeSet<VpId>> {
    let k = shards.clamp(1, vps.len().max(1));
    let mut out = vec![BTreeSet::new(); k];
    for (i, vp) in vps.iter().enumerate() {
        out[i % k].insert(*vp);
    }
    out
}

/// The set of VPs that actually execute under an optional bound: the
/// first `limit` VPs in platform order, or `None` (everyone) when
/// unbounded. A `Some` set composes with chunk ownership by intersection.
fn executing_vps(vp_ids: &[VpId], limit: Option<usize>) -> Option<BTreeSet<VpId>> {
    limit.map(|n| vp_ids.iter().take(n).copied().collect())
}

/// Everything a parallel Phase I produces: the merged campaign data plus
/// the per-chunk worlds kept alive for Phase II continuation.
pub struct ShardedPhase1 {
    /// The outcome of the run's one pre-flight, taken on the scout world.
    pub preflight: PreflightOutcome,
    /// Merged Phase I data, absorbed in chunk order.
    pub data: CampaignData,
    /// Per-chunk worlds, post Phase I. Chunk 0's world doubles as the
    /// analysis world (its platform vetting matches the sequential run).
    pub worlds: Vec<World>,
    /// The VP partition, by chunk index.
    pub assignment: Vec<BTreeSet<VpId>>,
    /// Engine statistics summed across chunks: chunk 0's world (the scout)
    /// counts the pre-flight and its own Phase I, every fork only its own
    /// Phase I, so the sum equals the sequential world's
    /// [`Engine::stats`](shadow_netsim::engine::Engine::stats) after Phase I.
    pub stats: EngineStats,
}

/// Execution shape for the chunk scheduler: how many path chunks the VP
/// set splits into and how many OS workers drain them.
///
/// Chunks are the unit of work: workers claim them one at a time from one
/// shared queue, so more chunks means better balancing on skewed worlds (a
/// VP whose paths trigger heavy probe replay no longer pins a whole
/// worker's share to one thread) at the cost of one [`World::fork`] of the
/// pre-flighted scout world per extra chunk. The defaults oversubscribe 2×
/// so a worker that finishes early always finds another chunk, except at
/// `workers == 1` where splitting only adds fork overhead.
/// `with_workers(k).with_chunks(k)` is the "K shards" shape: the same
/// round-robin partition, one chunk per worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkConfig {
    /// Number of path-chunk work units (clamped to `[1, #VPs]`).
    pub chunks: usize,
    /// Number of worker threads (clamped to `[1, chunks]`).
    pub workers: usize,
}

impl ChunkConfig {
    /// Scale to the machine: one worker per available core, 2× chunk
    /// oversubscription (collapsing to a single chunk on one core).
    pub fn auto() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_workers(workers)
    }

    /// A fixed worker count with the default 2× chunk oversubscription.
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            chunks: if workers == 1 { 1 } else { workers * 2 },
            workers,
        }
    }

    /// Override the chunk count (builder style).
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.chunks = chunks.max(1);
        self
    }
}

/// The program's one worker pool. Run `work(index, item)` once per item
/// on up to `workers` scoped threads and return the results in item
/// order. Every thread claims the next unclaimed item from one shared
/// queue, so a slow item never holds up the rest; which thread runs which
/// item is schedule-dependent, the result order is not. A panic in `work`
/// propagates through the join.
///
/// Both campaign phases hand it their chunks, and the scenario sweeps
/// (`robustness::run_matrix`, `topology_report::run_icmp_sweep`, the
/// encryption ladder) hand it one whole campaign per item.
pub fn run_chunks<T, R, F>(items: Vec<T>, workers: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let workers = workers.clamp(1, items.len().max(1));
    let queue = Mutex::new(items.into_iter().enumerate());
    let done: Vec<(usize, R)> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Claim in a statement of its own: the guard drops
                        // here, so chunks run concurrently, not under the lock.
                        let claimed = queue.lock().expect("chunk queue poisoned").next();
                        let Some((index, item)) = claimed else {
                            break;
                        };
                        done.push((index, work(index, item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("chunk worker panicked"))
            .collect()
    });
    for (index, result) in done {
        results[index] = Some(result);
    }
    results
        .into_iter()
        .map(|result| result.expect("every item ran"))
        .collect()
}

/// Phase I under the chunk scheduler — the one Phase I execution path.
/// The VP set splits into [`ChunkConfig::chunks`] round-robin path chunks
/// that [`ChunkConfig::workers`] threads claim from one shared queue, so a
/// skewed world (one chunk's VPs triggering heavy exhibitor replay) keeps
/// every core busy instead of serializing on the slowest chunk.
///
/// * The global plan is compiled **once**, on a scout world built on the
///   calling thread, and borrowed read-only by every chunk — the plan is a
///   pure function of the post-pre-flight world. Each chunk expands only
///   its own VPs' sends from it.
/// * Chunk→thread placement is nondeterministic, but each chunk runs in
///   its own private world keyed by chunk index (the scout, or a fork of
///   it taken before any chunk starts) and the merge folds in chunk-index
///   order, so output is byte-identical to the sequential run for any
///   `(chunks, workers)`, enforced by `tests/sharded_equivalence.rs`.
/// * Telemetry and the fault conditioner go in per chunk, **after** the
///   pre-flight and the forks, so the pre-flight vets the platform on a
///   healthy network and keeps the plan identical under faults. Every chunk
///   installs the same conditioner; its decisions are value-derived from
///   packet bytes, so chunks seeing disjoint traffic still agree with the
///   sequential run packet for packet. Per-chunk snapshots, journals and
///   sink aggregates ride back inside each chunk's [`CampaignData`] and
///   merge in [`CampaignData::absorb`]; no chunk buffers its arrivals.
/// * When `vp_limit` is `Some(n)`, only the first `n` VPs in (pre-vetting)
///   platform order post their sends. World construction and the
///   pre-flight still run at full scale: the bound trims the executed
///   slice, not the set-up. The plan costs O(VPs + targets) either way,
///   and the sends of VPs outside the bound are never expanded.
///
/// Whatever the shape, the run instantiates one scout world from the
/// template (a fork of it) and pre-flights it once, like the sequential
/// pipeline: chunk 0 runs in the scout (post-pre-flight, pre-telemetry),
/// and each extra chunk costs one fork of the scout.
#[allow(clippy::too_many_arguments)]
pub fn run_phase1_chunks(
    spec: &WorldSpec,
    config: &Phase1Config,
    shape: ChunkConfig,
    telemetry: TelemetryOptions,
    conditioner: Option<Arc<LinkConditioner>>,
    sink: SinkConfig,
    vp_limit: Option<usize>,
) -> ShardedPhase1 {
    let vp_ids: Vec<VpId> = spec.world().platform.vps.iter().map(|vp| vp.id).collect();
    let allowed = executing_vps(&vp_ids, vp_limit);
    let chunks = shape.chunks.clamp(1, vp_ids.len().max(1));
    let assignment = shard_vps(&vp_ids, chunks);

    // Scout: the run's one instantiation and pre-flight, and the global
    // plan every chunk shares. It stays on the calling thread, so chunk
    // 0's world (the scout) lives in the main malloc arena rather than a
    // worker's fresh per-thread one.
    let mut scout = spec.instantiate();
    let preflight = NoiseFilter::run_and_apply(&mut scout);
    let plan = CampaignRunner::plan_phase1(&scout, config);

    // Chunk 0 keeps the scout; every other chunk runs in a fork of it,
    // taken before any chunk installs telemetry or a conditioner.
    let forks: Vec<World> = (1..chunks).map(|_| scout.fork()).collect();
    let worlds: Vec<World> = std::iter::once(scout).chain(forks).collect();
    let chunk_outputs = run_chunks(worlds, shape.workers, |chunk, mut world| {
        let started = std::time::Instant::now();
        world.engine.set_telemetry(telemetry.handle(chunk as u32));
        world.engine.set_conditioner(conditioner.clone());
        let owned = &assignment[chunk];
        let mut data = CampaignRunner::execute_phase1(&mut world, &plan, config, sink, |vp| {
            owned.contains(&vp) && allowed.as_ref().is_none_or(|a| a.contains(&vp))
        });
        record_phase_wall(&mut data, "phase1", started);
        (world, data)
    });
    merge_shards(chunk_outputs, assignment, preflight)
}

/// The former name of [`ChunkConfig`]: perfbench only; delete with
/// [`run_phase1_sharded_sink`] after the benchmark change that moves
/// perfbench onto the chunk names.
pub type StealConfig = ChunkConfig;

/// The former name of [`run_phase1_chunks`]: perfbench only; delete with
/// [`run_phase1_sharded_sink`] after the benchmark change that moves
/// perfbench onto the chunk names.
pub use self::run_phase1_chunks as run_phase1_work_stealing_bounded;

/// "K shards": [`run_phase1_chunks`] at `shards` chunks on `shards`
/// workers, unbounded. Kept for the repository benchmark's traced run
/// (`perfbench/`), which times the daemon's Phase I shape through it.
pub fn run_phase1_sharded_sink(
    spec: &WorldSpec,
    config: &Phase1Config,
    shards: usize,
    telemetry: TelemetryOptions,
    conditioner: Option<Arc<LinkConditioner>>,
    sink: SinkConfig,
) -> ShardedPhase1 {
    let shape = ChunkConfig::with_workers(shards).with_chunks(shards);
    run_phase1_chunks(spec, config, shape, telemetry, conditioner, sink, None)
}

/// Phase II under the chunk scheduler — the one Phase II execution path —
/// over the chunk worlds kept from [`run_phase1_chunks`]: each chunk
/// sweeps the traced paths whose triggering VP it owns. The
/// sweep plan is computed once on chunk 0's world and borrowed by every
/// chunk; `workers` threads claim chunk worlds from one shared queue until
/// it drains. Observer localization reads the merged aggregates'
/// smallest-triggering-TTL fold, so sweeps never buffer arrivals.
pub fn run_phase2_chunks(
    worlds: &mut [World],
    assignment: &[BTreeSet<VpId>],
    paths: &[PathKey],
    config: &Phase2Config,
    workers: usize,
    sink: SinkConfig,
) -> (Vec<TracerouteResult>, CampaignData) {
    assert_eq!(
        worlds.len(),
        assignment.len(),
        "one world per chunk, in chunk order"
    );
    let plan = Phase2Runner::plan(&worlds[0], paths, config);
    let chunk_outputs = run_chunks(worlds.iter_mut().collect(), workers, |chunk, world| {
        let started = std::time::Instant::now();
        let owned = &assignment[chunk];
        let mut data = Phase2Runner::execute(world, &plan, config, sink, |vp| owned.contains(&vp));
        record_phase_wall(&mut data, "phase2", started);
        data
    });
    let merged = chunk_outputs
        .into_iter()
        .reduce(|mut acc, data| {
            acc.absorb(data);
            acc
        })
        .expect("at least one chunk");
    let results = Phase2Runner::localize(&merged, &plan.traced, config.max_ttl);
    (results, merged)
}

/// Fold a chunk's wall-clock into its already-taken snapshot. The snapshot
/// is taken inside the phase runner (before the full phase duration is
/// known), so the elapsed time is added to the frozen side here.
fn record_phase_wall(data: &mut CampaignData, phase: &str, started: std::time::Instant) {
    if data.metrics.is_empty() && data.journal.is_empty() {
        return;
    }
    let ns = started.elapsed().as_nanos() as u64;
    *data
        .metrics
        .run
        .phase_wall_ns
        .entry(phase.to_string())
        .or_insert(0) += ns;
}

fn merge_shards(
    shard_outputs: Vec<(World, CampaignData)>,
    assignment: Vec<BTreeSet<VpId>>,
    preflight: PreflightOutcome,
) -> ShardedPhase1 {
    let mut worlds = Vec::with_capacity(shard_outputs.len());
    let mut data: Option<CampaignData> = None;
    let mut stats = EngineStats::default();
    for (shard_idx, (world, mut shard_data)) in shard_outputs.into_iter().enumerate() {
        stats.absorb(world.engine.stats());
        // Journaling runs get an audit marker per absorbed shard (meta —
        // diffs skip it, so shard counts stay comparable). It is the
        // shard's only `seq = u64::MAX` record, so (shard, seq) stays
        // unique and the study's one sort stays total.
        if !shard_data.journal.is_empty() {
            shard_data.journal.push(JournalRecord {
                at_ms: shard_data.last_send.0,
                shard: shard_idx as u32,
                node: None,
                seq: u64::MAX,
                event: EventKind::ShardMerged {
                    shard: shard_idx as u32,
                    arrivals: shard_data.aggregates.arrivals_seen,
                    decoys: shard_data.decoy_count() as u64,
                },
            });
        }
        match &mut data {
            None => data = Some(shard_data),
            Some(merged) => merged.absorb(shard_data),
        }
        worlds.push(world);
    }
    ShardedPhase1 {
        preflight,
        data: data.expect("at least one shard"),
        worlds,
        assignment,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    fn ids(raw: &[u32]) -> Vec<VpId> {
        raw.iter().map(|&i| VpId(i)).collect()
    }

    #[test]
    fn round_robin_covers_every_vp_exactly_once() {
        let vps = ids(&[0, 1, 2, 3, 4, 5, 6]);
        let shards = shard_vps(&vps, 3);
        assert_eq!(shards.len(), 3);
        let mut seen = BTreeSet::new();
        for shard in &shards {
            for vp in shard {
                assert!(seen.insert(*vp), "{vp:?} assigned twice");
            }
        }
        assert_eq!(seen.len(), vps.len());
        // Round-robin balance: sizes differ by at most one.
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![3, 2, 2]);
    }

    #[test]
    fn shard_count_is_clamped() {
        let vps = ids(&[0, 1]);
        assert_eq!(shard_vps(&vps, 0).len(), 1);
        assert_eq!(shard_vps(&vps, 100).len(), 2);
        assert_eq!(shard_vps(&[], 5).len(), 1);
    }

    #[test]
    fn run_chunks_returns_results_in_item_order() {
        // Item i sleeps (n - i) ms, so items finish in reverse order.
        let n = 6u64;
        let out = run_chunks((0..n).collect(), n as usize, |index, item| {
            std::thread::sleep(Duration::from_millis(n - item));
            (index, item)
        });
        let expected: Vec<(usize, u64)> = (0..n).map(|i| (i as usize, i)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn run_chunks_runs_each_item_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..1_000).map(|_| AtomicUsize::new(0)).collect();
        let out = run_chunks((0..1_000u64).collect(), 4, |index, item| {
            runs[index].fetch_add(1, Ordering::SeqCst);
            item
        });
        assert_eq!(out, (0..1_000u64).collect::<Vec<_>>());
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn run_chunks_runs_items_concurrently() {
        // Each item waits (up to 5 s) for the other to be in flight too. A
        // claim that held the queue lock through `work` would serialize
        // them and peak at 1.
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        run_chunks(vec![(), ()], 2, |_, ()| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while peak.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            in_flight.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(peak.into_inner(), 2);
    }

    #[test]
    fn run_chunks_handles_spare_workers_and_empty_input() {
        let spare = run_chunks(vec![1, 2, 3], 8, |_, x| x * 10);
        assert_eq!(spare, [10, 20, 30]);
        let empty: Vec<u32> = run_chunks(Vec::<u32>::new(), 4, |_, _| unreachable!());
        assert!(empty.is_empty());
    }
}
