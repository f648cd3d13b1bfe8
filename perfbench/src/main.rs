//! `perfbench` — the repository benchmark (see `README.md` beside this
//! crate for the workloads, the metrics and what each one answers).
//!
//! ```text
//! perfbench --workload <paper_setup|serve_waves>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --self-test
//! ```
//!
//! Each invocation runs one workload in its own process (peak RSS is a
//! process-lifetime high-water mark), repeats it for `--seconds`, checks
//! every output, and prints one JSON result as its last stdout line.

mod pipeline;
mod serve;
mod trace;

use pipeline::{bundle_digest, every_traced_path_has_a_result, peak_rss_mb, sequential};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;
use traffic_shadowing::shadow_core::executor::{
    run_phase1_sharded_sink, run_phase1_work_stealing_bounded, StealConfig, TelemetryOptions,
};
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{generate_spec, WorldConfig};
use traffic_shadowing::shadow_netsim::engine::EngineStats;
use traffic_shadowing::{Study, StudyConfig, StudyOutcome};

const USAGE: &str = "usage: perfbench --workload <paper_setup|serve_waves> \
[--seed N] [--seconds S] [--trace 0|1] | perfbench --self-test";

/// Worker threads of the parallel facade calls.
const WORKERS: usize = 2;
/// Set-ups before each serve_waves campaign behind the `setup_s` median,
/// spread over the window like the campaigns (paper_setup sets up once
/// before each campaign).
const SETUP_REPS: usize = 10;
/// Campaigns per run at least, whatever `--seconds` says.
const MIN_CAMPAIGNS: usize = 3;
/// paper_setup's world: the §3 deployment with both axes divided by this
/// (decoys scale as VPs × sites, so 1/16 of the paper's volume).
const PAPER_AXIS_DIVISOR: usize = 4;
/// VPs that post decoys in paper_setup (the rest are set up but idle): the
/// paper-scale bound itself. It is not scaled down with the VP axis, so
/// the executed part of a campaign stays long enough to time against the
/// set-up it is measured beside.
const PAPER_VP_LIMIT: usize = 16;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    PaperSetup,
    ServeWaves,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_setup" => Some(Self::PaperSetup),
            "serve_waves" => Some(Self::ServeWaves),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::PaperSetup => "paper_setup",
            Self::ServeWaves => "serve_waves",
        }
    }

    /// The study configuration a seed selects.
    fn study(self, seed: u64) -> StudyConfig {
        match self {
            Self::PaperSetup => {
                let paper = WorldConfig::paper_scale(seed);
                StudyConfig {
                    world: WorldConfig {
                        vps_global: paper.vps_global / PAPER_AXIS_DIVISOR,
                        vps_cn: paper.vps_cn / PAPER_AXIS_DIVISOR,
                        tranco_sites: paper.tranco_sites / PAPER_AXIS_DIVISOR,
                        ..paper
                    },
                    run_phase2: false,
                    ..StudyConfig::paper_scale(seed)
                }
            }
            Self::ServeWaves => StudyConfig::standard(seed),
        }
    }

    fn serve_config(self, seed: u64) -> shadow_serve::ServeConfig {
        let checkpoint = work_dir().join(format!("checkpoint-{}.json", std::process::id()));
        serve::config(seed, self.study(seed), checkpoint)
    }

    /// The parameters recorded with every result.
    fn params(self, seed: u64) -> String {
        let study = self.study(seed);
        let world = &study.world;
        let mut params = format!(
            "\"vps\":{},\"sites\":{},\"phase2\":{},\"workers\":{WORKERS}",
            world.vps_global + world.vps_cn,
            world.tranco_sites,
            study.run_phase2,
        );
        match self {
            Self::PaperSetup => {
                params += &format!(
                    ",\"axis_divisor\":{PAPER_AXIS_DIVISOR},\"vp_limit\":{PAPER_VP_LIMIT},\"executor\":\"run_phase1_work_stealing_bounded\""
                )
            }
            Self::ServeWaves => {
                params += &format!(
                ",\"waves\":{},\"shards\":{},\"loss\":{},\"encryption\":\"mixed\",\"journal\":true",
                serve::WAVES,
                serve::SHARDS,
                serve::LOSS
            )
            }
        }
        format!("{{{params}}}")
    }
}

/// Where runs leave checkpoints and records: `out/` beside this crate.
fn work_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark work directory");
    dir
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 10;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or(format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One run's result: operation counts and named metrics with units.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Figures printed in the summary lines only (not compared by runs).
    extra: BTreeMap<&'static str, (f64, &'static str)>,
    /// Per-campaign and per-set-up wall times behind the medians.
    samples: Vec<(&'static str, Vec<f64>)>,
    spans: Option<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.extra.insert(name, (value, unit));
    }

    /// Count one checked operation.
    fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Count a reader's operations.
    fn reads(&mut self, reads: &serve::Reads) {
        self.attempted += reads.latencies_us.len() as u64;
        self.failed += reads.failed;
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of microsecond samples, in milliseconds.
fn percentile_ms(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank] as f64 / 1000.0
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `body` under a panic guard: a panicking campaign is a failed operation.
fn guarded<T>(body: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(body)).ok()
}

/// Repeat `campaign` until `window` has passed and at least `min` ran.
/// Returns the process's VmHWM right after the first campaign: later ones
/// add only allocator fragmentation, and how many fit in the window
/// depends on the host's speed.
fn repeat(window: Duration, min: usize, mut campaign: impl FnMut()) -> f64 {
    let started = Instant::now();
    campaign();
    let peak = peak_rss_mb();
    let mut ran = 1;
    while ran < min || started.elapsed() < window {
        campaign();
        ran += 1;
    }
    peak
}

/// Wall time from config to a compiled Phase I plan, and whether the plan
/// holds what it must.
fn setup_once(config: &StudyConfig) -> (f64, bool) {
    let setup = pipeline::setup(config, TelemetryOptions::disabled(), &mut Tracer::new());
    (
        setup.seconds,
        setup.plan.sends.len() == setup.expected_sends(),
    )
}

fn hops_of(stats: &EngineStats) -> u64 {
    stats.events_processed - stats.packets_delivered
}

/// The end-to-end metrics every workload reports. `setup_s` and
/// `peak_rss_mb` are compared; `campaign_s` and `hops_per_s` are printed
/// and recorded only, because on a shared 2-vCPU host the same code's
/// campaign speed moves by more than the largest bound the format allows
/// (README.md, "Bounds"). Set-up is not subtracted from the campaign:
/// hops over the difference of the two medians spread 0.25 over five
/// seeds against 0.15 for hops over the whole campaign.
fn end_to_end(report: &mut Report, campaign: &[f64], setup: &[f64], hops: u64, peak_rss: f64) {
    let campaign_s = median(campaign);
    report.samples = vec![
        ("campaign_s", campaign.to_vec()),
        ("setup_s", setup.to_vec()),
    ];
    report.note("campaign_s", campaign_s, "s");
    report.note("hops_per_s", hops as f64 / campaign_s.max(1e-9), "hops/s");
    report.set("setup_s", median(setup), "s");
    report.set("peak_rss_mb", peak_rss, "MiB");
}

/// The sequential reference of a study through the `Study::run` facade:
/// the outcome, its bundle digest, and its wall time.
fn reference(config: &StudyConfig) -> (StudyOutcome, u64, f64) {
    let started = Instant::now();
    let outcome = Study::run(config.clone());
    let wall = started.elapsed().as_secs_f64();
    let (digest, _) = bundle_digest(&outcome);
    (outcome, digest, wall)
}

/// The output check on a composed run's bundle: it digests to the facade's
/// reference, when there is one.
fn bundle_matches(bundle: Option<(u64, usize)>, reference: Option<u64>) -> bool {
    reference.is_none_or(|digest| bundle.map(|(d, _)| d) == Some(digest))
}

/// paper_setup: each campaign is `generate_spec` followed by the bounded
/// work-stealing Phase I with 2 workers, the program's paper-scale path.
/// `setup_s` times a separate composed set-up before each campaign, because
/// the executor's own set-up (its scout world) is not visible from outside.
fn paper_setup(seed: u64, window: Duration) -> Report {
    let mut report = Report::default();
    let config = Workload::PaperSetup.study(seed);
    // The sequential composition, untimed: it warms the allocator and
    // supplies the hop count and the Phase I output every parallel campaign
    // must reproduce.
    let sequential = sequential(
        &config,
        Some(PAPER_VP_LIMIT),
        TelemetryOptions::disabled(),
        &mut Tracer::new(),
    );
    report.check(sequential.plan_sends == sequential.expected_sends);

    let (mut walls, mut setup) = (Vec::new(), Vec::new());
    let mut stats = None;
    let peak = repeat(window, MIN_CAMPAIGNS, || {
        if let Some((seconds, ok)) = guarded(|| setup_once(&config)) {
            if report.check(ok) {
                setup.push(seconds);
            }
        } else {
            report.check(false);
        }
        let run = guarded(|| {
            let started = Instant::now();
            let spec = generate_spec(config.world.clone());
            let phase1 = run_phase1_work_stealing_bounded(
                &spec,
                &config.phase1,
                StealConfig::with_workers(WORKERS),
                TelemetryOptions::disabled(),
                None,
                SinkConfig::streaming(),
                Some(PAPER_VP_LIMIT),
            );
            let wall = started.elapsed().as_secs_f64();
            let data = &phase1.data;
            let same_output = data.registry.len() == sequential.phase1_decoys
                && data.aggregates.arrivals_seen == sequential.arrivals_seen
                && data.aggregates.unsolicited_total() == sequential.unsolicited;
            (wall, same_output, phase1.stats.clone())
        });
        let ok = run.as_ref().is_some_and(|(_, same_output, merged)| {
            *same_output && stats.get_or_insert_with(|| merged.clone()) == merged
        });
        if report.check(ok) {
            walls.push(run.expect("checked").0);
        }
    });
    end_to_end(
        &mut report,
        &walls,
        &setup,
        hops_of(&sequential.phase1_stats),
        peak,
    );
    report
}

/// serve_waves: the daemon through the public `serve` entry point. Each
/// wave's K shards set their worlds up inside the campaign, so `setup_s`
/// is one set-up of every wave's config, summed over the waves.
fn serve_waves(seed: u64, window: Duration) -> Report {
    let mut report = Report::default();
    let config = Workload::ServeWaves.serve_config(seed);
    let waves: Vec<StudyConfig> = config
        .wave_seeds()
        .into_iter()
        .map(|wave| config.wave_study_config(wave))
        .collect();
    let (mut campaign, mut resume, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup = Vec::new();
    let mut first_hops = None;
    let peak = repeat(window, 1, || {
        for _ in 0..SETUP_REPS {
            let summed = guarded(|| {
                waves
                    .iter()
                    .map(setup_once)
                    .fold((0.0, true), |(s, all), (t, ok)| (s + t, all && ok))
            });
            if report.check(summed.is_some_and(|(_, ok)| ok)) {
                setup.extend(summed.map(|(seconds, _)| seconds));
            }
        }
        let run = guarded(|| serve::run(&config));
        let ok = run.as_ref().is_some_and(|c| {
            c.waves_done == serve::WAVES
                && c.resume_s.is_some()
                && !c.reads.checkpoint_error
                && *first_hops.get_or_insert(c.hops) == c.hops
        });
        if report.check(ok) {
            let c = run.expect("checked");
            report.reads(&c.reads);
            campaign.push(c.campaign_s);
            resume.extend(c.resume_s);
            latencies.extend(c.reads.latencies_us);
        }
    });
    end_to_end(
        &mut report,
        &campaign,
        &setup,
        first_hops.unwrap_or(0),
        peak,
    );
    report.note("read_p50_ms", percentile_ms(&latencies, 0.50), "ms");
    report.note("read_p99_ms", percentile_ms(&latencies, 0.99), "ms");
    report.note("resume_s", median(&resume), "s");
    report.note("reads", latencies.len() as f64, "count");
    report
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit. A
/// workload that does not exercise a layer reports it as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("world.busy_s", "s"),
    ("world.vps", "count"),
    ("noise.busy_s", "s"),
    ("noise.vps_vetted", "count"),
    ("noise.vps_excluded", "count"),
    ("plan.busy_s", "s"),
    ("plan.sends", "count"),
    ("plan.rss_mb", "MiB"),
    ("execute.busy_s", "s"),
    ("execute.events", "count"),
    ("execute.hops", "count"),
    ("execute.packets_sent", "count"),
    ("execute.ttl_expirations", "count"),
    ("execute.events_per_decoy", "ratio"),
    ("observer.tap_observations", "count"),
    ("observer.shadow_probes_scheduled", "count"),
    ("observer.retention_capacity_evictions", "count"),
    ("dns.resolver_queries", "count"),
    ("dns.cache_hit_ratio", "ratio"),
    ("honeypot.arrivals_captured", "count"),
    ("chaos.packets_lost", "count"),
    ("sink.arrivals_classified", "count"),
    ("sink.unsolicited", "count"),
    ("sink.unsolicited_ratio", "ratio"),
    ("executor.phase1_s", "s"),
    ("executor.speedup", "x"),
    ("executor.rss_mb", "MiB"),
    ("phase2.plan_s", "s"),
    ("phase2.busy_s", "s"),
    ("phase2.localize_s", "s"),
    ("phase2.sends", "count"),
    ("phase2.paths_traced", "count"),
    ("phase2.localized_ratio", "ratio"),
    ("topo.finalize_s", "s"),
    ("topo.edges", "count"),
    ("analysis.bundle_s", "s"),
    ("analysis.bundle_bytes", "bytes"),
    ("telemetry.journal_records", "count"),
    ("telemetry.overhead_s", "s"),
    ("serve.wave_s", "s"),
    ("serve.snapshot_s", "s"),
    ("serve.checkpoint_write_s", "s"),
    ("serve.checkpoint_bytes", "bytes"),
    ("serve.checkpoint_load_s", "s"),
    ("serve.resume_check_s", "s"),
    ("serve.resume_s", "s"),
    ("serve.reads", "count"),
    ("serve.read_errors", "count"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_p99_ms", "ms"),
    ("trace.sequential_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.layers_s", "s"),
    ("trace.unaccounted_s", "s"),
];

/// The layers of the sequential pipeline, whose busy times sum to its wall
/// time up to the glue between calls.
const LAYERS: [&str; 7] = [
    "world", "noise", "plan", "execute", "phase2", "topo", "analysis",
];

/// The traced run: the sequential pipeline composed from the layer
/// functions (repeated for the window, medians reported), one parent span
/// around the parallel Phase I call, and — on serve_waves — the daemon
/// loop composed from its public parts.
fn traced(workload: Workload, seed: u64, window: Duration) -> Report {
    let mut report = Report::default();
    for (name, unit) in PER_LAYER {
        report.set(name, 0.0, unit);
    }
    let serve_config = (workload == Workload::ServeWaves).then(|| workload.serve_config(seed));
    let config = match &serve_config {
        Some(daemon) => serve::first_wave(daemon),
        None => workload.study(seed),
    };
    let vp_limit = (workload == Workload::PaperSetup).then_some(PAPER_VP_LIMIT);
    let mut tracer = Tracer::new();

    // Untraced twin of every traced run, interleaved with it so both see
    // the same warm caches and the same host: the facade (with Phase II),
    // or the same composition with telemetry off and nobody reading spans.
    // The traced run goes first, so the first one's `plan.rss_mb` is the
    // peak of a process that has done nothing heavier than that set-up.
    let untraced_config = StudyConfig {
        telemetry: TelemetryOptions::disabled(),
        ..config.clone()
    };
    let mut untraced = Vec::new();
    let mut runs: Vec<pipeline::Sequential> = Vec::new();
    repeat(window, 1, || {
        // Only the last outcome is read; keeping all would pile up worlds.
        if let Some(previous) = runs.last_mut() {
            previous.outcome = None;
        }
        let run = sequential(
            &config,
            vp_limit,
            TelemetryOptions::enabled(false),
            &mut tracer,
        );
        let mut digest = None;
        if config.run_phase2 {
            let (outcome, reference_digest, wall) = reference(&untraced_config);
            report.check(every_traced_path_has_a_result(&outcome));
            untraced.push(wall);
            digest = Some(reference_digest);
        } else {
            let twin = sequential(
                &untraced_config,
                vp_limit,
                TelemetryOptions::disabled(),
                &mut Tracer::new(),
            );
            untraced.push(twin.wall_s);
        }
        let sends_ok = run.plan_sends == run.expected_sends;
        let paths_ok = run
            .outcome
            .as_ref()
            .is_none_or(every_traced_path_has_a_result);
        report.check(sends_ok && bundle_matches(run.bundle, digest) && paths_ok);
        runs.push(run);
    });
    let untraced_s = median(&untraced);

    let layers: Vec<BTreeMap<&str, f64>> = runs
        .iter()
        .map(|r| tracer.layer_self_seconds(r.root))
        .collect();
    let layer = |name: &str| -> f64 {
        median(
            &layers
                .iter()
                .map(|l| l.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let named = |name: &str| -> f64 {
        median(
            &runs
                .iter()
                .map(|r| tracer.named_seconds(r.root, name))
                .collect::<Vec<_>>(),
        )
    };
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let layer_sums: Vec<f64> = layers
        .iter()
        .map(|l| LAYERS.iter().filter_map(|name| l.get(name)).sum())
        .collect();
    let gaps: Vec<f64> = walls.iter().zip(&layer_sums).map(|(w, l)| w - l).collect();
    report.set("trace.sequential_s", median(&walls), "s");
    report.set("trace.untraced_s", untraced_s, "s");
    report.set("trace.overhead_s", median(&walls) - untraced_s, "s");
    report.set("trace.layers_s", median(&layer_sums), "s");
    report.set("trace.unaccounted_s", median(&gaps), "s");

    let run = runs.last().expect("at least one traced run");
    let stats = &run.phase1_stats;
    report.set("world.busy_s", layer("world"), "s");
    report.set("world.vps", run.vps as f64, "count");
    report.set("noise.busy_s", layer("noise"), "s");
    report.set("noise.vps_vetted", run.vps_vetted as f64, "count");
    report.set("noise.vps_excluded", run.vps_excluded as f64, "count");
    report.set("plan.busy_s", layer("plan"), "s");
    report.set("plan.sends", run.plan_sends as f64, "count");
    report.set("plan.rss_mb", runs[0].plan_rss_mb, "MiB");
    report.set("execute.busy_s", layer("execute"), "s");
    report.set("execute.events", stats.events_processed as f64, "count");
    report.set("execute.hops", hops_of(stats) as f64, "count");
    report.set("execute.packets_sent", stats.packets_sent as f64, "count");
    report.set(
        "execute.ttl_expirations",
        stats.ttl_expirations as f64,
        "count",
    );
    report.set(
        "execute.events_per_decoy",
        ratio(stats.events_processed, run.phase1_decoys as u64),
        "ratio",
    );
    if let Some(m) = &run.metrics {
        let w = &m.world;
        report.set(
            "observer.tap_observations",
            w.tap_observations as f64,
            "count",
        );
        report.set(
            "observer.shadow_probes_scheduled",
            w.shadow_probes_scheduled as f64,
            "count",
        );
        report.set(
            "observer.retention_capacity_evictions",
            m.run.retention_capacity_evictions as f64,
            "count",
        );
        report.set("dns.resolver_queries", w.resolver_queries as f64, "count");
        report.set(
            "dns.cache_hit_ratio",
            ratio(w.resolver_cache_hits, w.resolver_queries),
            "ratio",
        );
        report.set(
            "honeypot.arrivals_captured",
            w.arrivals_captured.values().sum::<u64>() as f64,
            "count",
        );
        report.set("chaos.packets_lost", w.fault_packets_lost as f64, "count");
        report.set(
            "sink.arrivals_classified",
            w.arrivals_classified as f64,
            "count",
        );
    }
    report.set("sink.unsolicited", run.unsolicited as f64, "count");
    report.set(
        "sink.unsolicited_ratio",
        ratio(run.unsolicited, run.arrivals_seen),
        "ratio",
    );
    if let Some(outcome) = &run.outcome {
        let traced = outcome.traced_paths.len() as u64;
        let localized = outcome
            .traceroutes
            .iter()
            .filter(|r| r.normalized_hop.is_some())
            .count();
        report.set("phase2.plan_s", named("phase2.plan"), "s");
        report.set("phase2.busy_s", layer("phase2"), "s");
        report.set("phase2.localize_s", named("phase2.localize"), "s");
        report.set("phase2.sends", run.phase2_sends as f64, "count");
        report.set("phase2.paths_traced", traced as f64, "count");
        report.set(
            "phase2.localized_ratio",
            ratio(localized as u64, traced),
            "ratio",
        );
        report.set("topo.finalize_s", layer("topo"), "s");
        report.set(
            "topo.edges",
            outcome.router_graph.link_count() as f64,
            "count",
        );
        report.set("analysis.bundle_s", layer("analysis"), "s");
        report.set(
            "analysis.bundle_bytes",
            run.bundle.map_or(0, |b| b.1) as f64,
            "bytes",
        );
    }
    // The parallel call takes a spec, so its sequential counterpart is the
    // set-up without spec generation, plus execution.
    let sequential_phase1_s = run.setup_s - tracer.named_seconds(run.root, "world.spec")
        + tracer.named_seconds(run.root, "execute");
    drop(runs);

    let spec = generate_spec(config.world.clone());
    let parallel = tracer.enter("executor.phase1");
    match workload {
        Workload::ServeWaves => {
            let conditioner = config.faults.as_ref().map(|profile| {
                std::sync::Arc::new(
                    profile.compile(&traffic_shadowing::robustness::fault_targets(&spec)),
                )
            });
            drop(run_phase1_sharded_sink(
                &spec,
                &config.phase1,
                serve::SHARDS,
                TelemetryOptions::disabled(),
                conditioner,
                SinkConfig::streaming(),
            ));
        }
        Workload::PaperSetup => drop(run_phase1_work_stealing_bounded(
            &spec,
            &config.phase1,
            StealConfig::with_workers(WORKERS),
            TelemetryOptions::disabled(),
            None,
            SinkConfig::streaming(),
            vp_limit,
        )),
    }
    tracer.exit(parallel);
    drop(spec);
    let phase1_s = tracer.seconds(parallel);
    report.set("executor.phase1_s", phase1_s, "s");
    report.set(
        "executor.speedup",
        sequential_phase1_s / phase1_s.max(1e-9),
        "x",
    );
    // The whole traced process's peak so far: VmHWM cannot be read for
    // one call alone.
    report.set("executor.rss_mb", peak_rss_mb(), "MiB");

    if let Some(daemon) = &serve_config {
        traced_daemon(&mut report, daemon, &untraced_config, &mut tracer);
    }
    report.spans = Some(tracer.to_json());
    report
}

fn traced_daemon(
    report: &mut Report,
    daemon: &shadow_serve::ServeConfig,
    telemetry_off: &StudyConfig,
    tracer: &mut Tracer,
) {
    let root = tracer.enter("serve");
    let run = serve::traced(daemon, tracer);
    tracer.exit(root);
    report.check(run.resumed_ok && !run.reads.checkpoint_error);
    report.reads(&run.reads);

    let waves = tracer.named_each(root, "serve.wave");
    let latencies = &run.reads.latencies_us;
    report.set("serve.wave_s", median(&waves), "s");
    report.set(
        "serve.snapshot_s",
        tracer.named_seconds(root, "serve.snapshot"),
        "s",
    );
    report.set(
        "serve.checkpoint_write_s",
        tracer.named_seconds(root, "serve.checkpoint_write"),
        "s",
    );
    report.set(
        "serve.checkpoint_bytes",
        run.checkpoint_bytes as f64,
        "bytes",
    );
    report.set("serve.checkpoint_load_s", run.load_s, "s");
    report.set("serve.resume_check_s", run.resume_check_s, "s");
    report.set("serve.resume_s", run.load_s + run.resume_check_s, "s");
    report.set("serve.reads", latencies.len() as f64, "count");
    report.set("serve.read_errors", run.reads.failed as f64, "count");
    report.set("serve.read_p50_ms", percentile_ms(latencies, 0.50), "ms");
    report.set("serve.read_p99_ms", percentile_ms(latencies, 0.99), "ms");
    report.set(
        "telemetry.journal_records",
        run.journal_records as f64,
        "count",
    );

    // The first wave again with telemetry off: its wall against the traced
    // (journal-on) first wave is the telemetry overhead.
    let started = Instant::now();
    drop(Study::run_sharded(telemetry_off.clone(), daemon.shards));
    let off = started.elapsed().as_secs_f64();
    report.set(
        "telemetry.overhead_s",
        waves.first().copied().unwrap_or(0.0) - off,
        "s",
    );
}

/// Host and build facts recorded with every result.
fn metadata(args: &Args) -> String {
    let command = |program: &str, argv: &[&str]| {
        std::process::Command::new(program)
            .args(argv)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    // Ask git only when the checkout is itself a repository, so an
    // enclosing repository's commit is never reported.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| {
        if root.join(".git").exists() {
            command("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
        } else {
            "unknown".to_string()
        }
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"commit\":\"{commit}\",\"rustc\":\"{}\",\"params\":{}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        command("rustc", &["--version"]),
        args.workload.params(args.seed)
    )
}

fn metrics_json(metrics: &BTreeMap<&'static str, (f64, &'static str)>) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", rows.join(","))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--self-test"] {
        std::process::exit(if self_test() { 0 } else { 1 });
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let window = Duration::from_secs(args.seconds);
    let report = match (args.workload, args.trace) {
        (workload, true) => traced(workload, args.seed, window),
        (Workload::PaperSetup, false) => paper_setup(args.seed, window),
        (Workload::ServeWaves, false) => serve_waves(args.seed, window),
    };

    let meta = metadata(&args);
    let error_rate = ratio(report.failed, report.attempted);
    let metrics = metrics_json(&report.metrics);
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(name, values)| format!("\"{name}\":{values:?}"))
        .collect();
    let record = format!(
        "{{\"meta\":{meta},\"attempted\":{},\"failed\":{},\"error_rate\":{error_rate},\"metrics\":{metrics},\"extra\":{},\"samples\":{{{}}},\"spans\":{}}}",
        report.attempted,
        report.failed,
        metrics_json(&report.extra),
        samples.join(","),
        report.spans.as_deref().unwrap_or("null")
    );
    let path = work_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, record + "\n").expect("run record written");
    println!("meta {meta}");
    println!(
        "error_rate {error_rate} ({} failed of {})",
        report.failed, report.attempted
    );
    for (name, (value, unit)) in report.metrics.iter().chain(&report.extra) {
        println!("{name} {value} {unit}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
}

/// Show that the output checks reject: a tampered bundle digest, a read
/// that is not a 200, and a checkpoint that does not resume must each raise
/// the error rate, through the same checks the workloads use.
fn self_test() -> bool {
    let mut cases = Vec::new();

    let tiny = StudyConfig::tiny(7);
    let (_, digest, _) = reference(&tiny);
    let run = sequential(
        &tiny,
        None,
        TelemetryOptions::disabled(),
        &mut Tracer::new(),
    );
    let intact = bundle_matches(run.bundle, Some(digest));
    let tampered = run.bundle.map(|(d, len)| (d ^ 1, len));
    let mut report = Report::default();
    report.check(bundle_matches(tampered, Some(digest)));
    cases.push((
        "tampered bundle digest",
        if intact { report.failed } else { 0 },
    ));

    let daemon = shadow_serve::ServeConfig {
        checkpoint_path: Some(work_dir().join(format!("selftest-{}.json", std::process::id()))),
        ..shadow_serve::ServeConfig::tiny(7)
    };
    let path = daemon.checkpoint_path.clone().expect("set above");
    let handle = shadow_serve::serve(
        shadow_serve::CampaignDriver::new(daemon.clone()),
        "127.0.0.1:0",
    )
    .expect("loopback bind");
    let reads = serve::closed_loop_reads(handle.addr(), ["/api/status", "/api/missing"]);
    handle.shutdown();
    let mut report = Report::default();
    report.reads(&reads);
    cases.push(("non-200 read", report.failed));

    let mut report = Report::default();
    let intact = serve::check_resume(&daemon, &path).is_some();
    let bytes = std::fs::read(&path).unwrap_or_default();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("checkpoint truncated");
    report.check(serve::check_resume(&daemon, &path).is_some());
    std::fs::remove_file(&path).ok();
    cases.push((
        "truncated checkpoint",
        if intact { report.failed } else { 0 },
    ));

    for (case, failed) in &cases {
        let verdict = if *failed > 0 {
            "rejected"
        } else {
            "NOT rejected"
        };
        println!("{case}: {verdict} ({failed} failed)");
    }
    cases.iter().all(|(_, failed)| *failed > 0)
}
