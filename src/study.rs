//! One-call orchestration of the full study: world construction, Appendix-E
//! pre-flight, Phase I, correlation, Phase II, and the analysis inputs —
//! everything the examples and benches build on.

use crate::robustness::fault_targets;
use shadow_analysis::breakdown::{self, DestinationBreakdown};
use shadow_analysis::cases::{AnycastCase, CnObserverCase, ResolverCase};
use shadow_analysis::landscape::LandscapeReport;
use shadow_analysis::location::{ObserverHopTable, ObserverIpSummary};
use shadow_analysis::origins::OriginAsReport;
use shadow_analysis::probing::ProbingReport;
use shadow_analysis::reuse::ReuseReport;
use shadow_analysis::temporal::interval_histogram;
use shadow_chaos::FaultProfile;
use shadow_core::campaign::{CampaignData, CampaignRunner, Phase1Config};
use shadow_core::correlate::{Combo, CorrelatedRequest, PathKey};
use shadow_core::decoy::DecoyProtocol;
use shadow_core::executor::{run_phase1_chunks, run_phase2_chunks, ChunkConfig, TelemetryOptions};
use shadow_core::noise::{NoiseFilter, PreflightOutcome};
use shadow_core::phase2::{paths_to_trace_streamed, Phase2Config, Phase2Runner, TracerouteResult};
use shadow_core::sink::{IntervalHistogram, SinkConfig};
use shadow_core::world::{generate_spec, World, WorldConfig, WorldSpec};
use shadow_dns::catalog::resolver_h;
use shadow_geo::country::cc;
use shadow_intel::{Blocklist, PortScanner};
use shadow_netsim::fault::LinkConditioner;
use shadow_vantage::vp::DnsRetry;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Study-wide configuration.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    pub world: WorldConfig,
    pub phase1: Phase1Config,
    pub phase2: Phase2Config,
    /// Cap on traced paths per decoy protocol (Phase II cost control).
    pub trace_cap_per_protocol: usize,
    /// Skip Phase II entirely (landscape-only runs).
    pub run_phase2: bool,
    /// Run-wide observability (metrics and/or event journal). Disabled by
    /// default — and zero-cost when disabled.
    pub telemetry: TelemetryOptions,
    /// Fault injection: impair the network under a declarative profile
    /// (see `shadow_chaos`). `None` (the default) leaves the engine's
    /// conditioner slot empty — byte-identical to pre-chaos builds.
    pub faults: Option<FaultProfile>,
}

impl StudyConfig {
    /// A laptop-milliseconds configuration for tests and the quickstart.
    pub fn tiny(seed: u64) -> Self {
        Self {
            world: WorldConfig::tiny(seed),
            phase1: Phase1Config::default(),
            phase2: Phase2Config {
                max_ttl: 24,
                ..Phase2Config::default()
            },
            trace_cap_per_protocol: 12,
            run_phase2: true,
            telemetry: TelemetryOptions::disabled(),
            faults: None,
        }
    }

    /// The default full-scale (simulated) campaign.
    pub fn standard(seed: u64) -> Self {
        Self {
            world: WorldConfig::standard(seed),
            phase1: Phase1Config::default(),
            phase2: Phase2Config::default(),
            trace_cap_per_protocol: 60,
            run_phase2: true,
            telemetry: TelemetryOptions::disabled(),
            faults: None,
        }
    }

    /// The paper's §3 deployment: 4,364 VPs against the full destination
    /// set, meant to run under [`Study::run_chunked`] with
    /// [`ChunkConfig::auto`].
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            world: WorldConfig::paper_scale(seed),
            phase1: Phase1Config::default(),
            phase2: Phase2Config::default(),
            trace_cap_per_protocol: 60,
            run_phase2: true,
            telemetry: TelemetryOptions::disabled(),
            faults: None,
        }
    }

    /// `factor`× the paper's decoy volume (both scale axes grow √factor;
    /// `factor = 1` is [`Self::paper_scale`]).
    pub fn paper_scale_factor(seed: u64, factor: u32) -> Self {
        Self {
            world: WorldConfig::paper_scale_factor(seed, factor),
            ..Self::paper_scale(seed)
        }
    }

    /// Install a fault profile (builder style, for sweeps).
    pub fn with_faults(mut self, profile: FaultProfile) -> Self {
        self.faults = Some(profile);
        self
    }

    /// The Phase I configuration with the fault profile's DNS retry
    /// policy folded in (an explicit `phase1.dns_retry` wins).
    fn phase1_effective(&self) -> Phase1Config {
        let mut phase1 = self.phase1.clone();
        if phase1.dns_retry.is_none() {
            if let Some(profile) = &self.faults {
                phase1.dns_retry = profile.dns_retry.map(|r| DnsRetry {
                    attempts: r.attempts,
                    timeout_ms: r.timeout_ms,
                });
            }
        }
        phase1
    }

    /// The Phase II configuration with the encryption deployment copied
    /// from Phase I: the TTL sweep replays Phase I flows, so both phases
    /// must frame their decoys with the same transport profiles.
    fn phase2_effective(&self) -> Phase2Config {
        Phase2Config {
            encryption: self.phase1.encryption.clone(),
            ..self.phase2.clone()
        }
    }

    /// Compile the fault profile against the template's node populations.
    /// `None` when no profile is installed — the engine keeps its
    /// zero-cost empty conditioner slot.
    fn conditioner(&self, spec: &WorldSpec) -> Option<Arc<LinkConditioner>> {
        self.faults
            .as_ref()
            .map(|profile| Arc::new(profile.compile(&fault_targets(spec))))
    }
}

/// Everything the study produced.
pub struct StudyOutcome {
    pub world: World,
    pub preflight: PreflightOutcome,
    /// Phase I data (the landscape inputs — one decoy per path/protocol).
    pub phase1: CampaignData,
    /// Phase II data (the TTL sweeps), if Phase II ran.
    pub phase2: Option<CampaignData>,
    /// Always empty: every analysis reads `phase1.aggregates`. The
    /// repository benchmark (`perfbench/`) builds this struct literally
    /// with this field, so it stays until a benchmark change drops it.
    pub correlated: Vec<CorrelatedRequest>,
    /// Always `false`; pinned by the repository benchmark like
    /// `correlated`.
    pub retained: bool,
    pub traced_paths: Vec<PathKey>,
    pub traceroutes: Vec<TracerouteResult>,
    /// Router graph reconstructed from Phase II Time-Exceeded arrivals,
    /// annotated with ASNs from the world's geo database. Empty when
    /// Phase II did not run.
    pub router_graph: shadow_topo::RouterGraph,
    /// Destination address → display name.
    pub dest_names: BTreeMap<Ipv4Addr, String>,
    /// The Spamhaus stand-in, populated from world ground truth
    /// (DESIGN.md documents the substitution).
    pub blocklist: Blocklist,
    /// The port-scan substrate for §5.2's observer fingerprinting.
    pub port_scanner: PortScanner,
    /// Merged run metrics (Phase I + Phase II + post-correlation
    /// classification); `None` when telemetry was disabled.
    pub metrics: Option<shadow_telemetry::MetricsSnapshot>,
    /// The merged, canonically sorted event journal; `None` unless the
    /// journal was enabled.
    pub journal: Option<Vec<shadow_telemetry::JournalRecord>>,
}

/// The runner.
pub struct Study;

impl Study {
    /// The straight-line sequential reference: one world, no threads. The
    /// equivalence suites compare every parallel shape against it.
    pub fn run(config: StudyConfig) -> StudyOutcome {
        // The fault profile compiles against the template's node
        // populations; then the template itself becomes the run's world.
        let spec = generate_spec(config.world.clone());
        let conditioner = config.conditioner(&spec);
        let mut world = spec.into_world();
        let preflight = NoiseFilter::run_and_apply(&mut world);
        // Telemetry and faults start *after* the pre-flight, mirroring the
        // parallel path (where they go in on the scout and its forks, and
        // the pre-flight vets the platform on a healthy network so the
        // global plan survives impairment).
        world.engine.set_telemetry(config.telemetry.handle(0));
        world.engine.set_conditioner(conditioner);

        let phase1_config = config.phase1_effective();
        let plan = CampaignRunner::plan_phase1(&world, &phase1_config);
        let phase1 = CampaignRunner::execute_phase1(
            &mut world,
            &plan,
            &phase1_config,
            SinkConfig::streaming(),
            |_| true,
        );
        drop(plan);
        let phase2 = config.run_phase2.then(|| {
            let traced = paths_to_trace_streamed(&phase1.aggregates, config.trace_cap_per_protocol);
            let phase2_config = config.phase2_effective();
            let plan = Phase2Runner::plan(&world, &traced, &phase2_config);
            let data = Phase2Runner::execute(
                &mut world,
                &plan,
                &phase2_config,
                SinkConfig::streaming(),
                |_| true,
            );
            let results = Phase2Runner::localize(&data, &plan.traced, phase2_config.max_ttl);
            (traced, results, data)
        });
        Self::assemble(config, world, preflight, phase1, phase2)
    }

    /// [`Study::run`] across `shards` worker threads: the chunk
    /// scheduler at `shards` chunks on `shards` workers (VPs partitioned
    /// round-robin, one private world per chunk). Byte-identical to the
    /// sequential path for any shard count — `tests/sharded_equivalence.rs`
    /// enforces this on the exported analysis bundle.
    pub fn run_sharded(config: StudyConfig, shards: usize) -> StudyOutcome {
        Self::run_chunked(
            config,
            ChunkConfig::with_workers(shards).with_chunks(shards),
        )
    }

    /// [`Study::run`] under the chunk scheduler: VPs split into
    /// [`ChunkConfig::chunks`] work units drained by
    /// [`ChunkConfig::workers`] threads, with the global plan computed
    /// once on the calling thread and shared. Byte-identical to
    /// [`Study::run`] for any execution shape (enforced by
    /// `tests/sharded_equivalence.rs`); this is the path that scales to
    /// core count on skewed worlds, and the one `--paper-scale` campaigns
    /// use.
    pub fn run_chunked(config: StudyConfig, shape: ChunkConfig) -> StudyOutcome {
        let spec = generate_spec(config.world.clone());
        let mut sharded = run_phase1_chunks(
            &spec,
            &config.phase1_effective(),
            shape,
            config.telemetry,
            config.conditioner(&spec),
            SinkConfig::streaming(),
            None,
        );
        let phase2 = config.run_phase2.then(|| {
            let traced =
                paths_to_trace_streamed(&sharded.data.aggregates, config.trace_cap_per_protocol);
            let (results, data) = run_phase2_chunks(
                &mut sharded.worlds,
                &sharded.assignment,
                &traced,
                &config.phase2_effective(),
                shape.workers,
                SinkConfig::streaming(),
            );
            (traced, results, data)
        });
        // Chunk 0's world carries the analysis inputs: platform vetting,
        // destinations, and ground truth come from the one template,
        // identical in every chunk and in the sequential run.
        let world = sharded.worlds.swap_remove(0);
        Self::assemble(config, world, sharded.preflight, sharded.data, phase2)
    }

    /// The post-Phase-II tail every execution path shares: telemetry
    /// finalization, the router graph, and [`StudyOutcome::new`].
    fn assemble(
        config: StudyConfig,
        world: World,
        preflight: PreflightOutcome,
        mut phase1: CampaignData,
        mut phase2: Option<Phase2Outcome>,
    ) -> StudyOutcome {
        let phase2_data = phase2.as_mut().map(|(_, _, data)| data);
        let (metrics, journal) = finalize_telemetry(&config, &mut phase1, phase2_data);
        let router_graph = finalize_router_graph(phase2.as_ref().map(|(_, _, data)| data), &world);
        StudyOutcome::new(
            world,
            preflight,
            phase1,
            phase2,
            router_graph,
            metrics,
            journal,
        )
    }
}

/// What Phase II hands the study: the traced paths, their localization
/// results, and the sweep's data.
pub type Phase2Outcome = (Vec<PathKey>, Vec<TracerouteResult>, CampaignData);

/// Finalize the Phase II router-graph builder against the world's geo
/// database. The builder's per-chunk folds are commutative and each probe
/// path is wholly owned by one chunk, so the merged builder — and hence
/// the finalized graph — is identical for any shard count.
fn finalize_router_graph(phase2: Option<&CampaignData>, world: &World) -> shadow_topo::RouterGraph {
    phase2
        .map(|data| {
            data.router_graph
                .finalize(|addr| world.geo.asn_of(addr).map(|asn| asn.0))
        })
        .unwrap_or_default()
}

/// Merge the per-phase telemetry into the study-level artifacts and fold
/// the capture-time classification in: the Phase I sink aggregates supply
/// the `unsolicited_by_rule` map and retention-interval histogram (the sink
/// folds every classified arrival, so this is the same for any shard
/// count). Per-arrival records are the `ArrivalCaptured` and
/// `ArrivalClassified` events journaled at capture time.
///
/// This is the one place the program orders a journal: phase and chunk
/// journals arrive in emission order, concatenated in chunk order, and
/// one sort of that concatenation is the canonical order, because every
/// record's (shard, seq) is unique within a study.
fn finalize_telemetry(
    config: &StudyConfig,
    phase1: &mut CampaignData,
    phase2: Option<&mut CampaignData>,
) -> (
    Option<shadow_telemetry::MetricsSnapshot>,
    Option<Vec<shadow_telemetry::JournalRecord>>,
) {
    if !config.telemetry.metrics && !config.telemetry.journal {
        return (None, None);
    }
    let mut metrics = std::mem::take(&mut phase1.metrics);
    let mut journal = std::mem::take(&mut phase1.journal);
    if let Some(p2) = phase2 {
        // Both phases ran on the same shard set; keep the shard count
        // instead of summing it across phases.
        let shards = metrics.run.shards.max(p2.metrics.run.shards);
        metrics.merge(&std::mem::take(&mut p2.metrics));
        metrics.run.shards = shards;
        journal.append(&mut p2.journal);
    }
    for (label, n) in &phase1.aggregates.by_label {
        if label.is_unsolicited() {
            *metrics
                .world
                .unsolicited_by_rule
                .entry(label.as_str().to_string())
                .or_insert(0) += n;
        }
    }
    metrics
        .world
        .retention_intervals_ms
        .merge(&phase1.aggregates.retention_intervals_ms);
    shadow_telemetry::sort_records(&mut journal);
    let journal = config.telemetry.journal.then_some(journal);
    (Some(metrics), journal)
}

impl StudyOutcome {
    /// Assemble an outcome from finished phases. The destination names,
    /// blocklist and port scanner derive from `world`; the router graph is
    /// passed in already finalized (see `finalize_router_graph`), so a
    /// caller can time that step on its own.
    pub fn new(
        world: World,
        preflight: PreflightOutcome,
        phase1: CampaignData,
        phase2: Option<Phase2Outcome>,
        router_graph: shadow_topo::RouterGraph,
        metrics: Option<shadow_telemetry::MetricsSnapshot>,
        journal: Option<Vec<shadow_telemetry::JournalRecord>>,
    ) -> Self {
        let mut dest_names: BTreeMap<Ipv4Addr, String> = BTreeMap::new();
        for dest in &world.dns_destinations {
            dest_names.insert(dest.addr, dest.dest.name.to_string());
        }
        for site in &world.tranco {
            dest_names.insert(site.addr, format!("site:{}", site.country));
        }
        let blocklist = Blocklist::from_addrs(world.ground_truth.blocklisted_addrs.iter().copied());
        let mut port_scanner = PortScanner::new();
        for addr in &world.ground_truth.bgp_speaking_observers {
            port_scanner.set_open(*addr, 179);
        }
        let (traced_paths, traceroutes, phase2) = match phase2 {
            Some((traced, results, data)) => (traced, results, Some(data)),
            None => (Vec::new(), Vec::new(), None),
        };
        StudyOutcome {
            world,
            preflight,
            phase1,
            phase2,
            correlated: Vec::new(),
            retained: false,
            traced_paths,
            traceroutes,
            router_graph,
            dest_names,
            blocklist,
            port_scanner,
            metrics,
            journal,
        }
    }

    /// Figure 3.
    pub fn landscape(&self) -> LandscapeReport {
        LandscapeReport::compute(
            &self.phase1.registry,
            &self.phase1.aggregates,
            &self.world.platform,
            &self.dest_names,
        )
    }

    /// Table 2.
    pub fn hop_table(&self) -> ObserverHopTable {
        ObserverHopTable::compute(&self.traceroutes)
    }

    /// Table 3 + the observer-IP country split.
    pub fn observer_ips(&self) -> ObserverIpSummary {
        ObserverIpSummary::compute(&self.traceroutes, &self.world.geo, &self.world.catalog)
    }

    /// Figure 4: intervals of DNS decoys to Resolver_h, exact at every
    /// paper-grid edge.
    pub fn fig4(&self) -> IntervalHistogram {
        let dsts: Vec<Ipv4Addr> = resolver_h().iter().map(|d| d.addr).collect();
        interval_histogram(&self.phase1.aggregates, DecoyProtocol::Dns, Some(&dsts))
    }

    /// Figure 4's control: the other 15 public resolvers.
    pub fn fig4_other_resolvers(&self) -> IntervalHistogram {
        let heavy: Vec<Ipv4Addr> = resolver_h().iter().map(|d| d.addr).collect();
        let others: Vec<Ipv4Addr> = self
            .world
            .dns_destinations
            .iter()
            .filter(|d| {
                matches!(
                    d.dest.kind,
                    shadow_dns::catalog::DnsDestinationKind::PublicResolver
                ) && !heavy.contains(&d.addr)
            })
            .map(|d| d.addr)
            .collect();
        interval_histogram(&self.phase1.aggregates, DecoyProtocol::Dns, Some(&others))
    }

    /// Figure 5 — decoded from the per-decoy outcome bits the sink folded
    /// at capture time.
    pub fn fig5_breakdown(&self) -> Vec<DestinationBreakdown> {
        breakdown::compute(
            &self.phase1.registry,
            &self.phase1.aggregates,
            &self.dest_names,
        )
    }

    /// Figure 6: origin ASes of unsolicited requests for Resolver_h decoys.
    pub fn fig6_origins(&self) -> OriginAsReport {
        let dests: BTreeMap<Ipv4Addr, String> = resolver_h()
            .iter()
            .map(|d| (d.addr, d.name.to_string()))
            .collect();
        OriginAsReport::compute(
            &self.phase1.aggregates,
            &dests,
            &self.world.geo,
            &self.blocklist,
        )
    }

    /// Figure 7: intervals of HTTP and TLS decoys.
    pub fn fig7(&self) -> (IntervalHistogram, IntervalHistogram) {
        (
            interval_histogram(&self.phase1.aggregates, DecoyProtocol::Http, None),
            interval_histogram(&self.phase1.aggregates, DecoyProtocol::Tls, None),
        )
    }

    /// §5.1 reuse counts — read from the per-decoy capture-time folds (the
    /// late cutoff is the sink's, 1 h in the shipped configurations).
    pub fn reuse(&self) -> ReuseReport {
        ReuseReport::compute(&self.phase1.aggregates, DecoyProtocol::Dns)
    }

    /// §5 probing incentives for decoys of one protocol.
    pub fn probing(&self, protocol: DecoyProtocol) -> ProbingReport {
        ProbingReport::compute(&self.phase1.aggregates, protocol, &self.blocklist)
    }

    /// Case I (any resolver by catalog name).
    pub fn resolver_case(&self, name: &str) -> Option<ResolverCase> {
        let dest = self.world.dns_destination(name)?;
        Some(ResolverCase::compute(
            &self.phase1.registry,
            &self.phase1.aggregates,
            dest.addr,
            name,
        ))
    }

    /// Case II (the 114DNS anycast split).
    pub fn anycast_case(&self) -> Option<AnycastCase> {
        let dest = self.world.dns_destination("114DNS")?;
        Some(AnycastCase::compute(
            &self.phase1.registry,
            &self.phase1.aggregates,
            &self.world.platform,
            dest.addr,
            "114DNS",
            cc("CN"),
        ))
    }

    /// Case III (CN observer concentration).
    pub fn cn_observer_case(&self) -> CnObserverCase {
        CnObserverCase::compute(&self.traceroutes, &self.phase1.aggregates, &self.world.geo)
    }

    /// §5.2 protocol combinations per observer network — from the sink's
    /// per-path counters.
    pub fn observer_combos(&self) -> shadow_analysis::combos::ObserverCombos {
        shadow_analysis::combos::ObserverCombos::compute(
            &self.phase1.aggregates,
            &self.traceroutes,
            &self.world.geo,
        )
    }

    /// Overall Decoy-Request combination counts, keyed by the typed
    /// [`Combo`] (its `Display` is the paper's `DNS-HTTP` style label).
    pub fn combo_counts(&self) -> std::collections::BTreeMap<Combo, usize> {
        shadow_analysis::combos::combo_counts(&self.phase1.aggregates)
    }

    /// §5.2 open-port scan of ICMP-revealed observers.
    pub fn observer_port_scan(&self) -> shadow_intel::PortScanReport {
        let observer_addrs: Vec<Ipv4Addr> = self
            .traceroutes
            .iter()
            .filter(|r| r.normalized_hop.is_some() && r.normalized_hop != Some(10))
            .filter_map(|r| r.observer_addr)
            .collect();
        self.port_scanner.scan_all(observer_addrs.iter())
    }

    /// Bundle every analysis artifact for JSON export (diffing runs).
    /// `tests/streaming_equivalence.rs` pins the tiny world's bundle
    /// against a committed golden file.
    pub fn export_bundle(&self) -> shadow_analysis::export::AnalysisBundle {
        use shadow_analysis::export::{grid_points, AnalysisBundle, SerializableHopTable};
        let (http_hist, tls_hist) = self.fig7();
        AnalysisBundle {
            landscape: Some(self.landscape()),
            hop_table: Some(SerializableHopTable::from_table(&self.hop_table())),
            observer_ips: Some(self.observer_ips()),
            fig4_grid: Some(grid_points(&self.fig4())),
            fig5: Some(self.fig5_breakdown()),
            origins: Some(self.fig6_origins()),
            fig7_http_grid: Some(grid_points(&http_hist)),
            fig7_tls_grid: Some(grid_points(&tls_hist)),
            reuse: Some(self.reuse()),
            probing_dns: Some(self.probing(DecoyProtocol::Dns)),
            // Filled by the encryption sweep driver (`crate::encryption`):
            // a single campaign has one deployment level, the report needs
            // the whole ladder.
            encryption: None,
        }
    }

    /// A human-readable executive summary.
    pub fn summary(&self) -> String {
        let counts = self.phase1.registry.counts();
        let landscape = self.landscape();
        format!(
            "platform: {} VPs after vetting ({} excluded)\n\
             decoys: {} DNS / {} HTTP / {} TLS\n\
             arrivals: {} captured, {} unsolicited\n\
             path ratios: DNS {:.1}% | HTTP {:.1}% | TLS {:.1}%\n\
             phase II: {} paths traced, {} observers localized",
            self.world.platform.vps.len(),
            self.world.platform.excluded.len(),
            counts.get(&DecoyProtocol::Dns).unwrap_or(&0),
            counts.get(&DecoyProtocol::Http).unwrap_or(&0),
            counts.get(&DecoyProtocol::Tls).unwrap_or(&0),
            self.phase1.aggregates.arrivals_seen,
            self.phase1.aggregates.unsolicited_total(),
            landscape.protocol_ratio(DecoyProtocol::Dns) * 100.0,
            landscape.protocol_ratio(DecoyProtocol::Http) * 100.0,
            landscape.protocol_ratio(DecoyProtocol::Tls) * 100.0,
            self.traced_paths.len(),
            self.traceroutes
                .iter()
                .filter(|r| r.normalized_hop.is_some())
                .count(),
        )
    }
}
