//! Phase I: spread decoys from every vantage point to every destination,
//! run the simulated clock forward, and harvest the streamed correlation
//! aggregates and VP reports.

use crate::decoy::{DecoyProtocol, DecoyRecord, DecoyRegistry};
use crate::sink::{CorrelationAggregates, CorrelationSink, SinkConfig};
use crate::world::World;
use serde::{Deserialize, Serialize};
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_netsim::topology::NodeId;
use shadow_packet::transport::{EncryptionDeployment, TransportProfile};
use shadow_telemetry::{sort_records, EventKind, JournalRecord, MetricsSnapshot};
use shadow_topo::RouterGraphBuilder;
use shadow_vantage::platform::VpId;
use shadow_vantage::schedule::RateLimitedScheduler;
use shadow_vantage::vp::{
    DecoyPayload, DecoySend, DnsRetry, VantagePointHost, VpCommand, VpReport,
};
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
    /// How many decoys this phase (or shard) registered.
    pub fn decoy_count(&self) -> usize {
        self.registry.len()
    }

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

impl PlannedSend {
    /// Post `record`'s decoy from the VP's `node` at its planned time,
    /// carried as `profile` says; `handshake` and `retry` as in
    /// [`DecoySend`].
    pub(crate) fn decoy(
        record: DecoyRecord,
        node: NodeId,
        profile: TransportProfile,
        handshake: bool,
        retry: Option<DnsRetry>,
    ) -> Self {
        Self {
            at: record.planned_at,
            vp: record.vp,
            node,
            command: VpCommand::Decoy(DecoySend {
                dst: record.dst(),
                ttl: record.ttl(),
                payload: decoy_payload(record.protocol, profile),
                domain: record.domain,
                handshake,
                retry,
            }),
        }
    }
}

/// The wire payload of a `protocol` decoy on a flow using `profile`: DNS
/// rides the profile's DNS transport, TLS presents its name per the
/// profile's TLS mode, HTTP is always clear text. How each is framed is
/// the VP host's business.
fn decoy_payload(protocol: DecoyProtocol, profile: TransportProfile) -> DecoyPayload {
    match protocol {
        DecoyProtocol::Dns => DecoyPayload::Dns(profile.dns),
        DecoyProtocol::Http => DecoyPayload::Http,
        DecoyProtocol::Tls => DecoyPayload::Tls(profile.tls),
    }
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

impl Phase1Plan {
    /// How many Phase I sends the plan schedules.
    pub fn send_count(&self) -> usize {
        self.sends.len()
    }
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

        // Every VP sends the same decoys each round: one per DNS
        // destination, then HTTP and TLS per site.
        let mut targets = Vec::new();
        if config.send_dns {
            targets.extend(
                world
                    .dns_destinations
                    .iter()
                    .map(|d| (d.addr, DecoyProtocol::Dns)),
            );
        }
        for site in &world.tranco {
            if config.send_http {
                targets.push((site.addr, DecoyProtocol::Http));
            }
            if config.send_tls {
                targets.push((site.addr, DecoyProtocol::Tls));
            }
        }
        let vps: Vec<_> = world
            .platform
            .vps
            .iter()
            .map(|vp| (vp.id, vp.node, vp.addr))
            .collect();

        // The send count is exact up front; pre-sizing matters at paper
        // scale, where the plan holds ~20M registry entries and growing
        // the map by doubling would re-insert every one of them.
        let expected = vps.len() * targets.len() * config.rounds;
        registry.reserve(expected);
        let mut sends = Vec::with_capacity(expected);

        for round in 0..config.rounds {
            let round_start = start0 + config.round_gap.saturating_mul(round as u64);
            for &(vp_id, vp_node, vp_addr) in &vps {
                for &(dst, protocol) in &targets {
                    let at = scheduler.reserve(round_start, vp_id, dst);
                    let record = registry.register(vp_id, vp_addr, dst, protocol, 64, at, None);
                    let profile = config.encryption.profile_for(vp_id.0, dst);
                    sends.push(PlannedSend::decoy(
                        record,
                        vp_node,
                        profile,
                        true,
                        config.dns_retry,
                    ));
                    last_send = last_send.max(at);
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
        let data = run_slice(
            world,
            &plan.registry,
            &plan.sends,
            plan.last_send,
            config.grace,
            sink,
            owns,
        );
        finish_phase(world, "phase1", data)
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

/// Run one phase's owned slice: filter the plan's registry to the VPs
/// satisfying `owns`, stream arrivals into a fresh [`CorrelationSink`]
/// over that slice, post the owned sends, run the clock through the
/// *global* `last_send + grace`, and harvest the VP reports and the sink's
/// aggregates (recording the sink state size — classifier entries plus
/// per-decoy folds — into the run metrics). Shared by Phase I and Phase II;
/// the sink sees arrivals in the exact order the honeypots capture them.
pub(crate) fn run_slice(
    world: &mut World,
    registry: &DecoyRegistry,
    sends: &[PlannedSend],
    last_send: SimTime,
    grace: SimDuration,
    sink: SinkConfig,
    owns: impl Fn(VpId) -> bool,
) -> CampaignData {
    let registry = registry.filter_vps(&owns);
    let shared = CorrelationSink::shared(std::sync::Arc::new(registry.clone()), sink);
    world.install_arrival_sink(Some(shared.clone()));
    for send in sends.iter().filter(|send| owns(send.vp)) {
        record_decoy_send(world, send);
        world
            .engine
            .post(send.at, send.node, Box::new(send.command.clone()));
    }
    world.engine.run_until(last_send + grace);
    let vp_reports = CampaignRunner::harvest(world, &owns);
    world.install_arrival_sink(None);
    let (aggregates, state_size) = CorrelationSink::drain_shared(&shared);
    if let Some(m) = world.engine.telemetry().metrics() {
        m.sink_tracked_decoys.add(state_size as u64);
    }
    CampaignData {
        registry,
        vp_reports,
        last_send,
        aggregates,
        ..CampaignData::default()
    }
}

/// Close a phase: journal its [`EventKind::PhaseEnded`] marker (meta —
/// skipped by diffs), then snapshot-and-reset the engine's telemetry into
/// `data`, with the journal sorted into the canonical total order. Each
/// phase calls this once at harvest time, so consecutive phases never
/// double-count.
pub(crate) fn finish_phase(world: &World, phase: &str, mut data: CampaignData) -> CampaignData {
    let telemetry = world.engine.telemetry();
    let shard = telemetry.shard();
    let phase = phase.to_string();
    telemetry.event(world.engine.now().0, None, || EventKind::PhaseEnded {
        phase,
        shard,
    });
    data.metrics = telemetry.take_snapshot();
    data.journal = telemetry.drain_journal();
    sort_records(&mut data.journal);
    data
}

/// Count a planned decoy send and (when journaling) record the
/// [`EventKind::DecoySent`] event, stamped with its scheduled sim-time and
/// the VP's node. Pre-flight `RawUdp` checks carry no decoy identifier and
/// are not counted.
fn record_decoy_send(world: &World, send: &PlannedSend) {
    let telemetry = world.engine.telemetry();
    if !telemetry.is_enabled() {
        return;
    }
    let VpCommand::Decoy(decoy) = &send.command else {
        return;
    };
    let protocol = match decoy.payload {
        DecoyPayload::Dns(_) => DecoyProtocol::Dns,
        DecoyPayload::Http => DecoyProtocol::Http,
        DecoyPayload::Tls(_) => DecoyProtocol::Tls,
    }
    .as_str();
    if let Some(m) = telemetry.metrics() {
        m.decoys_sent.inc(protocol);
    }
    let vp = send.vp.0;
    telemetry.event(send.at.0, Some(send.node.0), || EventKind::DecoySent {
        protocol: protocol.to_string(),
        domain: decoy.domain.as_str().to_string(),
        vp,
        dst: decoy.dst,
        ttl: decoy.ttl,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_send_stays_64_bytes() {
        // The paper-scale plan holds millions of these.
        assert!(std::mem::size_of::<PlannedSend>() <= 64);
    }
}
