//! The daemon workload: `shadow-serve` in-process on loopback, one
//! closed-loop reader polling `/api/*` while the waves run, then a restart
//! from the final checkpoint.

use crate::trace::Tracer;
use shadow_serve::client::http_get;
use shadow_serve::http::HttpServer;
use shadow_serve::{serve, CampaignCheckpoint, CampaignDriver, ServeConfig, ServeState, Snapshot};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use traffic_shadowing::encryption::with_encryption;
use traffic_shadowing::robustness::cell_metrics;
use traffic_shadowing::shadow_chaos::FaultProfile;
use traffic_shadowing::shadow_core::executor::TelemetryOptions;
use traffic_shadowing::shadow_packet::transport::EncryptionDeployment;
use traffic_shadowing::StudyConfig;

pub const WAVES: usize = 3;
pub const SHARDS: usize = 2;
pub const LOSS: f64 = 0.02;
/// The reader's pause between reads, so that the reader and its HTTP
/// worker leave the shards their cores. With both cores busy, waking from
/// it takes a few milliseconds more: about 150 reads a second, thousands of
/// latency samples per run, tens of them beyond the p99.
pub const READ_PAUSE: Duration = Duration::from_millis(1);

/// Three waves of the standard campaign under 2% loss and the mixed
/// encryption deployment, telemetry and journal on, K = 2, a checkpoint
/// after every wave.
pub fn config(seed: u64, base: StudyConfig, checkpoint: PathBuf) -> ServeConfig {
    let lossy = StudyConfig {
        telemetry: TelemetryOptions::enabled(true),
        ..base
    }
    .with_faults(FaultProfile::with_loss("loss2%", LOSS, seed));
    ServeConfig {
        study: with_encryption(&lossy, &EncryptionDeployment::mixed()),
        waves: WAVES,
        shards: SHARDS,
        checkpoint_path: Some(checkpoint),
        tail_capacity: 4096,
        http_workers: 2,
    }
}

/// The study configuration of the daemon's first wave.
pub fn first_wave(config: &ServeConfig) -> StudyConfig {
    config.wave_study_config(config.wave_seeds()[0])
}

/// What the closed-loop reader saw.
#[derive(Default)]
pub struct Reads {
    pub latencies_us: Vec<u64>,
    pub failed: u64,
    /// A `/api/status` read reported a checkpoint error.
    pub checkpoint_error: bool,
}

/// The output check on one read: a 200 whose body parses as JSON. Returns
/// the parsed body.
pub fn check_read(code: u16, body: &str) -> Option<serde_json::Value> {
    (code == 200)
        .then(|| serde_json::from_str::<serde_json::Value>(body).ok())
        .flatten()
}

/// Alternate `/api/status` and `/api/aggregates`, pausing [`READ_PAUSE`]
/// after each read, until a status read says the daemon is done. `paths` overrides the endpoints (the self-test uses
/// it to aim at a missing one).
pub fn closed_loop_reads(addr: SocketAddr, paths: [&str; 2]) -> Reads {
    let mut reads = Reads::default();
    for i in 0.. {
        let path = paths[i % 2];
        let started = Instant::now();
        let result = http_get(addr, path);
        reads
            .latencies_us
            .push(started.elapsed().as_micros() as u64);
        std::thread::sleep(READ_PAUSE);
        let body = match result {
            Ok((code, body)) => check_read(code, &body),
            Err(_) => None,
        };
        let Some(body) = body else {
            reads.failed += 1;
            if reads.failed > 100 {
                break;
            }
            continue;
        };
        if path == "/api/status" {
            if !body["checkpoint_error"].is_null() {
                reads.checkpoint_error = true;
            }
            if body["done"].as_bool() == Some(true) {
                break;
            }
        }
    }
    reads
}

/// The output check on a restart: the checkpoint loads, `CampaignDriver`
/// resumes, and it reports every wave done. Returns the load and the
/// resume-check wall times.
pub fn check_resume(config: &ServeConfig, path: &Path) -> Option<(f64, f64)> {
    let started = Instant::now();
    let checkpoint = CampaignCheckpoint::load(path).ok()?;
    let load_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let driver = CampaignDriver::resume(config.clone(), checkpoint).ok()?;
    let resume_s = started.elapsed().as_secs_f64();
    (driver.waves_done() == config.waves && driver.is_done()).then_some((load_s, resume_s))
}

/// Router hops the daemon's cumulative telemetry recorded: engine events
/// minus endpoint deliveries, summed over waves and shards.
pub fn hops(driver: &CampaignDriver) -> u64 {
    let metrics = driver.metrics();
    let events: u64 = metrics.run.events_drained_per_shard.values().sum();
    events - metrics.world.packets_delivered
}

/// One daemon campaign through the public `serve` entry point.
pub struct Campaign {
    pub campaign_s: f64,
    pub resume_s: Option<f64>,
    pub reads: Reads,
    pub hops: u64,
    pub waves_done: usize,
}

pub fn run(config: &ServeConfig) -> Campaign {
    let path = config
        .checkpoint_path
        .clone()
        .expect("checkpointing daemon");
    let started = Instant::now();
    let mut handle =
        serve(CampaignDriver::new(config.clone()), "127.0.0.1:0").expect("loopback bind");
    let addr = handle.addr();
    let reader =
        std::thread::spawn(move || closed_loop_reads(addr, ["/api/status", "/api/aggregates"]));
    let driver = handle.join_campaign().expect("campaign thread finished");
    let campaign_s = started.elapsed().as_secs_f64();
    let reads = reader.join().expect("reader finished");
    handle.shutdown();
    let resume_s = check_resume(config, &path).map(|(load, check)| load + check);
    std::fs::remove_file(&path).ok();
    Campaign {
        campaign_s,
        resume_s,
        reads,
        hops: hops(&driver),
        waves_done: driver.waves_done(),
    }
}

/// The daemon loop composed from its public parts — driver, snapshot,
/// state, HTTP server, checkpoint — with a span around each call, and the
/// same reader running against it.
pub struct Traced {
    pub reads: Reads,
    pub checkpoint_bytes: u64,
    pub journal_records: usize,
    pub load_s: f64,
    pub resume_check_s: f64,
    pub resumed_ok: bool,
}

pub fn traced(config: &ServeConfig, tracer: &mut Tracer) -> Traced {
    let path = config
        .checkpoint_path
        .clone()
        .expect("checkpointing daemon");
    let mut driver = CampaignDriver::new(config.clone());
    let state = Arc::new(ServeState::new(
        Snapshot::from_driver(&driver, None),
        config.tail_capacity,
    ));
    let mut server = HttpServer::bind("127.0.0.1:0", Arc::clone(&state), config.http_workers)
        .expect("loopback bind");
    let addr = server.local_addr();
    let reader =
        std::thread::spawn(move || closed_loop_reads(addr, ["/api/status", "/api/aggregates"]));
    let mut checkpoint_bytes = 0;
    while !driver.is_done() {
        let report = tracer
            .time("serve.wave", || driver.run_next_wave())
            .expect("a wave remains");
        let snapshot = tracer.time("serve.snapshot", || {
            let cell = cell_metrics(&format!("wave-{}", report.wave), &report.outcome);
            Snapshot::from_driver(&driver, serde_json::to_string_pretty(&cell).ok())
        });
        state.publish(snapshot);
        state
            .tail
            .publish_records(&driver.journal()[report.journal_from..]);
        if let Err(e) = tracer.time("serve.checkpoint_write", || driver.save_checkpoint(&path)) {
            state.record_checkpoint_error(e.to_string());
        }
        checkpoint_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        tracer.time("serve.wave_drop", move || drop(report));
    }
    state.mark_done();
    state.tail.close();
    let reads = reader.join().expect("reader finished");
    server.shutdown();

    let resumed = check_resume(config, &path);
    std::fs::remove_file(&path).ok();
    let (load_s, resume_check_s) = resumed.unwrap_or((0.0, 0.0));
    Traced {
        reads,
        checkpoint_bytes,
        journal_records: driver.journal().len(),
        load_s,
        resume_check_s,
        resumed_ok: resumed.is_some(),
    }
}
