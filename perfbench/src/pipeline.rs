//! The sequential (one-chunk) campaign composed from the layer functions —
//! `generate_spec` → `WorldSpec::instantiate` → `NoiseFilter::run_and_apply`
//! → `CampaignRunner::plan_phase1` → `execute_phase1` → Phase II → router
//! graph → `StudyOutcome::export_bundle` — with one span around each call.
//! It mirrors `Study::run` call for call, so its bundle digest must equal
//! the facade's.

use crate::trace::Tracer;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;
use traffic_shadowing::robustness::fault_targets;
use traffic_shadowing::shadow_core::campaign::{CampaignRunner, Phase1Plan};
use traffic_shadowing::shadow_core::executor::TelemetryOptions;
use traffic_shadowing::shadow_core::noise::{NoiseFilter, PreflightOutcome};
use traffic_shadowing::shadow_core::phase2::{paths_to_trace_streamed, Phase2Config, Phase2Runner};
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{generate_spec, World};
use traffic_shadowing::shadow_intel::{Blocklist, PortScanner};
use traffic_shadowing::shadow_netsim::engine::EngineStats;
use traffic_shadowing::shadow_telemetry::MetricsSnapshot;
use traffic_shadowing::shadow_vantage::VpId;
use traffic_shadowing::{StudyConfig, StudyOutcome};

/// VmHWM of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest of an outcome's exported analysis bundle, and its size in bytes.
pub fn bundle_digest(outcome: &StudyOutcome) -> (u64, usize) {
    let json = outcome
        .export_bundle()
        .to_json()
        .expect("analysis bundle serializes");
    (fnv1a(json.as_bytes()), json.len())
}

/// Commit-independent invariant of a finished study: every traced path has
/// a localization result.
pub fn every_traced_path_has_a_result(outcome: &StudyOutcome) -> bool {
    let localized: BTreeSet<_> = outcome.traceroutes.iter().map(|r| r.path).collect();
    outcome.traced_paths.iter().all(|p| localized.contains(p))
}

/// A world ready to execute: config → compiled Phase I plan.
pub struct Setup {
    pub world: World,
    pub preflight: PreflightOutcome,
    pub plan: Phase1Plan,
    /// Platform order before vetting — the order `vp_limit` counts in, as
    /// the executor's bounded entry points do.
    pub platform_order: Vec<VpId>,
    /// Wall time of the whole set-up.
    pub seconds: f64,
}

impl Setup {
    /// `vetted VPs × (DNS destinations + 2 × sites)`: what the plan must hold.
    pub fn expected_sends(&self) -> usize {
        self.world.platform.vps.len()
            * (self.world.dns_destinations.len() + 2 * self.world.tranco.len())
    }
}

/// Build a world and compile its Phase I plan, one span per public call.
/// Telemetry and the fault conditioner are installed after the pre-flight,
/// as `Study::run` does.
pub fn setup(config: &StudyConfig, telemetry: TelemetryOptions, tracer: &mut Tracer) -> Setup {
    let span = tracer.enter("setup");
    let spec = tracer.time("world.spec", || generate_spec(config.world.clone()));
    let conditioner = config
        .faults
        .as_ref()
        .map(|profile| Arc::new(profile.compile(&fault_targets(&spec))));
    let mut world = tracer.time("world.instantiate", move || spec.instantiate());
    let platform_order = world.platform.vps.iter().map(|vp| vp.id).collect();
    let preflight = tracer.time("noise", || NoiseFilter::run_and_apply(&mut world));
    world.engine.set_telemetry(telemetry.handle(0));
    world.engine.set_conditioner(conditioner);
    let plan = tracer.time("plan", || {
        CampaignRunner::plan_phase1(&world, &config.phase1)
    });
    tracer.exit(span);
    Setup {
        world,
        preflight,
        plan,
        platform_order,
        seconds: tracer.seconds(span),
    }
}

/// What one sequential pipeline run produced.
pub struct Sequential {
    pub setup_s: f64,
    pub wall_s: f64,
    /// VmHWM right after plan compilation.
    pub plan_rss_mb: f64,
    pub plan_sends: usize,
    /// What the plan must hold (see [`Setup::expected_sends`]).
    pub expected_sends: usize,
    pub vps: usize,
    pub vps_vetted: usize,
    pub vps_excluded: usize,
    /// Engine counters after Phase I.
    pub phase1_stats: EngineStats,
    pub phase1_decoys: usize,
    /// Phase I arrivals the sink classified, and how many were unsolicited.
    pub arrivals_seen: u64,
    pub unsolicited: u64,
    pub phase2_sends: usize,
    /// Merged telemetry (`None` with telemetry off).
    pub metrics: Option<MetricsSnapshot>,
    /// The finished study, when Phase II and the bundle ran.
    pub outcome: Option<StudyOutcome>,
    pub bundle: Option<(u64, usize)>,
    /// Root span id in the tracer.
    pub root: usize,
}

/// Run the whole sequential campaign. `vp_limit` bounds which VPs post
/// sends (the first `n` in platform order), like the executor's bounded
/// entry points; Phase II and the bundle run when `config.run_phase2`.
pub fn sequential(
    config: &StudyConfig,
    vp_limit: Option<usize>,
    telemetry: TelemetryOptions,
    tracer: &mut Tracer,
) -> Sequential {
    let root = tracer.enter("pipeline");
    let ready = setup(config, telemetry, tracer);
    let plan_rss_mb = peak_rss_mb();
    let expected_sends = ready.expected_sends();
    let Setup {
        mut world,
        preflight,
        plan,
        platform_order,
        seconds: setup_s,
    } = ready;
    let plan_sends = plan.sends.len();
    let vps_vetted = world.platform.vps.len();

    let allowed: Option<BTreeSet<_>> =
        vp_limit.map(|n| platform_order.iter().take(n).copied().collect());
    let mut phase1 = tracer.time("execute", || {
        let data = CampaignRunner::execute_phase1(
            &mut world,
            &plan,
            &config.phase1,
            SinkConfig::streaming(),
            |vp| allowed.as_ref().is_none_or(|a| a.contains(&vp)),
        );
        drop(plan);
        data
    });
    let phase1_stats = world.engine.stats().clone();
    let phase1_decoys = phase1.registry.len();
    let arrivals_seen = phase1.aggregates.arrivals_seen;
    let unsolicited = phase1.aggregates.unsolicited_total();

    let mut outcome = None;
    let mut bundle = None;
    let mut phase2_sends = 0;
    let mut metrics = telemetry
        .metrics
        .then(|| std::mem::take(&mut phase1.metrics));
    if config.run_phase2 {
        let traced = tracer.time("phase2.select", || {
            paths_to_trace_streamed(&phase1.aggregates, config.trace_cap_per_protocol)
        });
        let phase2_config = Phase2Config {
            encryption: config.phase1.encryption.clone(),
            ..config.phase2.clone()
        };
        let plan2 = tracer.time("phase2.plan", || {
            Phase2Runner::plan(&world, &traced, &phase2_config)
        });
        phase2_sends = plan2.sends.len();
        let mut phase2 = tracer.time("phase2.execute", || {
            Phase2Runner::execute(
                &mut world,
                &plan2,
                &phase2_config,
                SinkConfig::streaming(),
                |_| true,
            )
        });
        let traceroutes = tracer.time("phase2.localize", || {
            Phase2Runner::localize(&phase2, &plan2.traced, phase2_config.max_ttl)
        });
        if let Some(m) = metrics.as_mut() {
            let shards = m.run.shards.max(phase2.metrics.run.shards);
            m.merge(&std::mem::take(&mut phase2.metrics));
            m.run.shards = shards;
        }
        let router_graph = tracer.time("topo.finalize", || {
            phase2
                .router_graph
                .finalize(|addr| world.geo.asn_of(addr).map(|asn| asn.0))
        });
        let done = tracer.time("analysis.inputs", || {
            let mut dest_names: BTreeMap<Ipv4Addr, String> = BTreeMap::new();
            for dest in &world.dns_destinations {
                dest_names.insert(dest.addr, dest.dest.name.to_string());
            }
            for site in &world.tranco {
                dest_names.insert(site.addr, format!("site:{}", site.country));
            }
            let blocklist =
                Blocklist::from_addrs(world.ground_truth.blocklisted_addrs.iter().copied());
            let mut port_scanner = PortScanner::new();
            for addr in &world.ground_truth.bgp_speaking_observers {
                port_scanner.set_open(*addr, 179);
            }
            StudyOutcome {
                world,
                preflight,
                phase1,
                phase2: Some(phase2),
                correlated: Vec::new(),
                retained: false,
                traced_paths: traced,
                traceroutes,
                router_graph,
                dest_names,
                blocklist,
                port_scanner,
                metrics: None,
                journal: None,
            }
        });
        bundle = Some(tracer.time("analysis.bundle", || bundle_digest(&done)));
        outcome = Some(done);
    } else {
        // Phase-I-only runs free the world inside the pipeline span, as the
        // facade does when its result goes out of scope.
        tracer.time("execute.drop", move || drop((world, phase1)));
    }
    tracer.exit(root);

    Sequential {
        setup_s,
        wall_s: tracer.seconds(root),
        plan_rss_mb,
        plan_sends,
        expected_sends,
        vps: platform_order.len(),
        vps_vetted,
        vps_excluded: platform_order.len() - vps_vetted,
        phase1_stats,
        phase1_decoys,
        arrivals_seen,
        unsolicited,
        phase2_sends,
        metrics,
        outcome,
        bundle,
        root,
    }
}
