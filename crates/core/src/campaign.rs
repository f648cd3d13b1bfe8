//! Phase I: spread decoys from every vantage point to every destination,
//! run the simulated clock forward, and harvest the streamed correlation
//! aggregates and VP reports.

use crate::decoy::{DecoyProtocol, DecoyRegistry};
use crate::sink::{CorrelationAggregates, CorrelationSink, SinkConfig};
use crate::world::World;
use serde::{Deserialize, Serialize};
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_netsim::topology::NodeId;
use shadow_packet::transport::{DnsTransport, EncryptionDeployment, TlsMode};
use shadow_telemetry::{sort_records, EventKind, JournalRecord, MetricsSnapshot};
use shadow_topo::RouterGraphBuilder;
use shadow_vantage::platform::VpId;
use shadow_vantage::schedule::RateLimitedScheduler;
use shadow_vantage::vp::{DnsRetry, VantagePointHost, VpCommand, VpReport};
use std::collections::HashMap;

/// Phase I configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Phase1Config {
    pub send_dns: bool,
    pub send_http: bool,
    pub send_tls: bool,
    /// The §6 encryption axis: how deeply DoT/DoH/DoQ and ECH/fronting are
    /// deployed across this campaign's flows. Each planned decoy derives
    /// its [`TransportProfile`](shadow_packet::TransportProfile) from this
    /// deployment by a pure hash of (VP ident, destination) — the default
    /// [`EncryptionDeployment::plaintext`] reproduces pre-encryption-axis
    /// campaigns byte-for-byte.
    pub encryption: EncryptionDeployment,
    /// Full passes over (VP × destination); the paper round-robins
    /// "continuously ... without stop" for two months.
    pub rounds: usize,
    /// Gap between rounds.
    pub round_gap: SimDuration,
    /// How long to keep the clock running after the last send, so that
    /// days-later probes still land (Figure 4's ≥10-day tail).
    pub grace: SimDuration,
    /// Retry policy for clear-text DNS decoys (None = one-shot). Installed
    /// by fault-injection studies: on a lossy network, retried DNS decoys
    /// keep the DNS detection path alive while one-shot HTTP/TLS decoys
    /// fade. Fault-free runs are unaffected — answers always arrive before
    /// the timeout, so no retransmission ever fires.
    pub dns_retry: Option<DnsRetry>,
}

impl Default for Phase1Config {
    fn default() -> Self {
        Self {
            send_dns: true,
            send_http: true,
            send_tls: true,
            encryption: EncryptionDeployment::plaintext(),
            rounds: 1,
            round_gap: SimDuration::from_hours(12),
            grace: SimDuration::from_days(30),
            dns_retry: None,
        }
    }
}

/// Everything Phase I produced: the decoy registry, the capture-time
/// correlation aggregates, and the per-VP reports.
#[derive(Debug, Clone, Default)]
pub struct CampaignData {
    pub registry: DecoyRegistry,
    pub vp_reports: HashMap<VpId, VpReport>,
    /// When the last decoy left a VP.
    pub last_send: SimTime,
    /// Telemetry snapshot for this phase/shard (empty when disabled).
    pub metrics: MetricsSnapshot,
    /// Journal records for this phase/shard (empty unless journaling).
    pub journal: Vec<JournalRecord>,
    /// Streamed correlation aggregates folded at capture time.
    pub aggregates: CorrelationAggregates,
    /// Router-graph fold from Phase II Time-Exceeded evidence (empty for
    /// Phase I). Per-shard folds are disjoint by probe path, so absorbing
    /// them reconstructs the sequential run's graph exactly.
    pub router_graph: RouterGraphBuilder,
}

impl CampaignData {
    /// Absorb another phase's (or shard's) data. Commutative up to the
    /// canonical orders the consumers see (the journal is re-sorted after
    /// every merge), so the result is independent of absorb order (e.g.
    /// worker-thread completion order). Registries must be disjoint or
    /// identical per domain.
    pub fn absorb(&mut self, other: CampaignData) {
        self.registry.absorb(other.registry);
        for (vp, report) in other.vp_reports {
            self.vp_reports.insert(vp, report);
        }
        self.last_send = self.last_send.max(other.last_send);
        self.metrics.merge(&other.metrics);
        if !other.journal.is_empty() {
            self.journal.extend(other.journal);
            sort_records(&mut self.journal);
        }
        self.aggregates.absorb(other.aggregates);
        self.router_graph.absorb(other.router_graph);
    }
}

/// One scheduled decoy send: post `command` to `node` (VP `vp`) at `at`.
#[derive(Debug, Clone)]
pub struct PlannedSend {
    pub at: SimTime,
    pub vp: VpId,
    pub node: NodeId,
    pub command: VpCommand,
}

/// The complete Phase I send schedule, computed without touching the
/// engine. Planning is a pure function of the world's ground truth
/// (VP roster, destination lists, clock), so every shard of a sharded run
/// can reproduce the identical global plan and then execute only the
/// slice it owns.
#[derive(Debug)]
pub struct Phase1Plan {
    pub registry: DecoyRegistry,
    pub sends: Vec<PlannedSend>,
    /// When the last decoy leaves a VP — global across all shards.
    pub last_send: SimTime,
}

/// The campaign runner.
pub struct CampaignRunner;

impl CampaignRunner {
    /// Compute the full Phase I schedule without posting anything.
    pub fn plan_phase1(world: &World, config: &Phase1Config) -> Phase1Plan {
        let zone = world.zone.clone();
        let mut registry = DecoyRegistry::new(zone);
        let mut scheduler = RateLimitedScheduler::paper_defaults();
        let mut last_send = world.engine.now();
        let start0 = world.engine.now() + SimDuration::from_secs(5);

        let dns_targets: Vec<_> = world.dns_destinations.iter().map(|d| d.addr).collect();
        let web_targets: Vec<_> = world.tranco.iter().map(|s| s.addr).collect();
        let vps: Vec<_> = world
            .platform
            .vps
            .iter()
            .map(|vp| (vp.id, vp.node, vp.addr))
            .collect();

        // The send count is exact up front; pre-sizing matters at paper
        // scale, where the plan holds ~20M registry entries and growing
        // the map by doubling would re-insert every one of them.
        let per_vp = if config.send_dns {
            dns_targets.len()
        } else {
            0
        } + web_targets.len()
            * (usize::from(config.send_http) + usize::from(config.send_tls));
        let expected = vps.len() * per_vp * config.rounds;
        registry.reserve(expected);
        let mut sends = Vec::with_capacity(expected);

        for round in 0..config.rounds {
            let round_start = start0 + config.round_gap.saturating_mul(round as u64);
            for &(vp_id, vp_node, vp_addr) in &vps {
                if config.send_dns {
                    for &dst in &dns_targets {
                        let at = scheduler.reserve(round_start, vp_id, dst);
                        let record = registry.register(
                            vp_id,
                            vp_addr,
                            dst,
                            DecoyProtocol::Dns,
                            64,
                            at,
                            None,
                        );
                        let command = match config.encryption.profile_for(vp_id.0, dst).dns {
                            DnsTransport::Udp53 => VpCommand::DnsDecoy {
                                domain: record.domain.clone(),
                                dst,
                                ttl: 64,
                                retry: config.dns_retry,
                            },
                            transport => VpCommand::EncryptedDnsDecoy {
                                domain: record.domain.clone(),
                                dst,
                                ttl: 64,
                                transport,
                            },
                        };
                        sends.push(PlannedSend {
                            at,
                            vp: vp_id,
                            node: vp_node,
                            command,
                        });
                        last_send = last_send.max(at);
                    }
                }
                for &dst in &web_targets {
                    if config.send_http {
                        let at = scheduler.reserve(round_start, vp_id, dst);
                        let record = registry.register(
                            vp_id,
                            vp_addr,
                            dst,
                            DecoyProtocol::Http,
                            64,
                            at,
                            None,
                        );
                        sends.push(PlannedSend {
                            at,
                            vp: vp_id,
                            node: vp_node,
                            command: VpCommand::HttpDecoy {
                                domain: record.domain.clone(),
                                dst,
                                ttl: 64,
                            },
                        });
                        last_send = last_send.max(at);
                    }
                    if config.send_tls {
                        let at = scheduler.reserve(round_start, vp_id, dst);
                        let record = registry.register(
                            vp_id,
                            vp_addr,
                            dst,
                            DecoyProtocol::Tls,
                            64,
                            at,
                            None,
                        );
                        let command = match config.encryption.profile_for(vp_id.0, dst).tls {
                            TlsMode::ClearSni => VpCommand::TlsDecoy {
                                domain: record.domain.clone(),
                                dst,
                                ttl: 64,
                            },
                            TlsMode::Ech => VpCommand::EchTlsDecoy {
                                domain: record.domain.clone(),
                                dst,
                                ttl: 64,
                            },
                            TlsMode::FrontedCdn => VpCommand::FrontedTlsDecoy {
                                domain: record.domain.clone(),
                                dst,
                                ttl: 64,
                            },
                        };
                        sends.push(PlannedSend {
                            at,
                            vp: vp_id,
                            node: vp_node,
                            command,
                        });
                        last_send = last_send.max(at);
                    }
                }
            }
        }

        Phase1Plan {
            registry,
            sends,
            last_send,
        }
    }

    /// Execute the slice of `plan` whose VPs satisfy `owns`, run the clock
    /// through the *global* grace window, and harvest. With `owns = |_|
    /// true` this is exactly the sequential Phase I; a sharded run calls
    /// it once per shard with disjoint ownership predicates and absorbs
    /// the results.
    pub fn execute_phase1(
        world: &mut World,
        plan: &Phase1Plan,
        config: &Phase1Config,
        sink: SinkConfig,
        owns: impl Fn(VpId) -> bool,
    ) -> CampaignData {
        let registry = plan.registry.filter_vps(&owns);
        let shared = install_sink(world, &registry, sink);
        for send in &plan.sends {
            if owns(send.vp) {
                record_decoy_send(world, send);
                world
                    .engine
                    .post(send.at, send.node, Box::new(send.command.clone()));
            }
        }
        world.engine.run_until(plan.last_send + config.grace);
        let vp_reports = Self::harvest(world, &owns);
        let aggregates = drain_sink(world, &shared);
        emit_phase_end(world, "phase1");
        let (metrics, journal) = drain_telemetry(world);
        CampaignData {
            registry,
            vp_reports,
            last_send: plan.last_send,
            metrics,
            journal,
            aggregates,
            router_graph: RouterGraphBuilder::new(),
        }
    }

    /// Snapshot the reports of the VPs satisfying `owns` (a chunk reports
    /// only the VPs it drove; the others sat idle in its copy of the world).
    pub fn harvest(world: &World, owns: impl Fn(VpId) -> bool) -> HashMap<VpId, VpReport> {
        world
            .platform
            .vps
            .iter()
            .filter(|vp| owns(vp.id))
            .filter_map(|vp| {
                let host = world.engine.host_as::<VantagePointHost>(vp.node)?;
                Some((vp.id, host.report.clone()))
            })
            .collect()
    }
}

/// Build a [`CorrelationSink`] over this phase's registry slice and hand a
/// shared handle to every capture point. The sink sees arrivals in the
/// exact order the honeypots capture them.
pub(crate) fn install_sink(
    world: &mut World,
    registry: &DecoyRegistry,
    config: SinkConfig,
) -> shadow_honeypot::capture::SharedArrivalSink {
    let shared = CorrelationSink::shared(std::sync::Arc::new(registry.clone()), config);
    world.install_arrival_sink(Some(shared.clone()));
    shared
}

/// Uninstall the phase's sink and take its aggregates, recording the sink
/// state size (classifier entries + per-decoy folds) into the run metrics.
pub(crate) fn drain_sink(
    world: &mut World,
    shared: &shadow_honeypot::capture::SharedArrivalSink,
) -> CorrelationAggregates {
    world.install_arrival_sink(None);
    let (aggregates, state_size) = CorrelationSink::drain_shared(shared);
    if let Some(m) = world.engine.telemetry().metrics() {
        m.sink_tracked_decoys.add(state_size as u64);
    }
    aggregates
}

/// Count a planned decoy send and (when journaling) record the
/// [`EventKind::DecoySent`] event, stamped with its scheduled sim-time and
/// the VP's node. Pre-flight `RawUdp` checks carry no decoy identifier and
/// are not counted.
pub(crate) fn record_decoy_send(world: &World, send: &PlannedSend) {
    let telemetry = world.engine.telemetry();
    if !telemetry.is_enabled() {
        return;
    }
    let (protocol, domain, dst, ttl) = match &send.command {
        VpCommand::DnsDecoy {
            domain, dst, ttl, ..
        }
        | VpCommand::EncryptedDnsDecoy {
            domain, dst, ttl, ..
        } => ("DNS", domain, *dst, *ttl),
        VpCommand::HttpDecoy { domain, dst, ttl }
        | VpCommand::RawHttpProbe { domain, dst, ttl } => ("HTTP", domain, *dst, *ttl),
        VpCommand::TlsDecoy { domain, dst, ttl }
        | VpCommand::EchTlsDecoy { domain, dst, ttl }
        | VpCommand::FrontedTlsDecoy { domain, dst, ttl }
        | VpCommand::RawTlsProbe {
            domain, dst, ttl, ..
        } => ("TLS", domain, *dst, *ttl),
        _ => return,
    };
    if let Some(m) = telemetry.metrics() {
        m.decoys_sent.inc(protocol);
    }
    let vp = send.vp.0;
    telemetry.event(send.at.0, Some(send.node.0), || EventKind::DecoySent {
        protocol: protocol.to_string(),
        domain: domain.as_str().to_string(),
        vp,
        dst,
        ttl,
    });
}

/// Journal a [`EventKind::PhaseEnded`] marker (meta — skipped by diffs).
pub(crate) fn emit_phase_end(world: &World, phase: &str) {
    let telemetry = world.engine.telemetry();
    let shard = telemetry.shard();
    let phase = phase.to_string();
    telemetry.event(world.engine.now().0, None, || EventKind::PhaseEnded {
        phase,
        shard,
    });
}

/// Snapshot-and-reset the engine's telemetry into `(metrics, journal)`,
/// with the journal sorted into the canonical total order. Each phase calls
/// this once at harvest time, so consecutive phases never double-count.
pub(crate) fn drain_telemetry(world: &World) -> (MetricsSnapshot, Vec<JournalRecord>) {
    let telemetry = world.engine.telemetry();
    let metrics = telemetry.take_snapshot();
    let mut journal = telemetry.drain_journal();
    sort_records(&mut journal);
    (metrics, journal)
}
