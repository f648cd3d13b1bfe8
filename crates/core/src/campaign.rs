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
use shadow_telemetry::{EventKind, JournalRecord, MetricsSnapshot};
use shadow_topo::RouterGraphBuilder;
use shadow_vantage::platform::VpId;
use shadow_vantage::schedule::RateLimitedScheduler;
use shadow_vantage::vp::{
    DecoyPayload, DecoySend, DnsRetry, VantagePointHost, VpCommand, VpReport,
};
use std::collections::HashMap;
use std::sync::Arc;

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
    /// The decoys this phase (or chunk) posted, in plan order; absorbed
    /// chunks append in absorb order.
    pub registry: DecoyRegistry,
    pub vp_reports: HashMap<VpId, VpReport>,
    /// When the last decoy left a VP.
    pub last_send: SimTime,
    /// Telemetry snapshot for this phase/shard (empty when disabled).
    pub metrics: MetricsSnapshot,
    /// Journal records for this phase/shard (empty unless journaling), in
    /// emission order; absorbed chunks append in absorb order. The study
    /// sorts them once, when it hands the journal out.
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
    /// canonical orders the consumers see: `other`'s journal is appended
    /// unsorted, and every record keeps a unique (shard, seq), so the
    /// study's one sort puts any absorb order into the same order.
    /// Registries must be disjoint or identical per domain.
    pub fn absorb(&mut self, other: CampaignData) {
        self.registry.absorb(other.registry);
        for (vp, report) in other.vp_reports {
            self.vp_reports.insert(vp, report);
        }
        self.last_send = self.last_send.max(other.last_send);
        self.metrics.merge(&other.metrics);
        self.journal.extend(other.journal);
        self.aggregates.absorb(other.aggregates);
        self.router_graph.absorb(other.router_graph);
    }
}

/// One scheduled decoy send: post `decoy` to `node` (VP `vp`) at `at`.
/// It is the plan's only record of the decoy: the chunk that posts it
/// derives the [`DecoyRecord`] it registers from these fields.
#[derive(Debug, Clone)]
pub struct PlannedSend {
    pub at: SimTime,
    pub vp: VpId,
    pub node: NodeId,
    pub decoy: DecoySend,
}

impl PlannedSend {
    /// Post `record`'s decoy from the VP's `node` at its planned time,
    /// carried as `profile` says; `handshake` and `retry` as in
    /// [`DecoySend`].
    pub(crate) fn new(
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
            decoy: DecoySend {
                dst: record.dst,
                ttl: record.ttl,
                payload: decoy_payload(record.protocol, profile),
                domain: record.domain,
                handshake,
                retry,
            },
        }
    }

    /// The decoy this send posts, as the sink resolves it.
    pub(crate) fn record(&self) -> DecoyRecord {
        DecoyRecord {
            domain: self.decoy.domain.clone(),
            dst: self.decoy.dst,
            ttl: self.decoy.ttl,
            protocol: match self.decoy.payload {
                DecoyPayload::Dns(_) => DecoyProtocol::Dns,
                DecoyPayload::Http => DecoyProtocol::Http,
                DecoyPayload::Tls(_) => DecoyProtocol::Tls,
            },
            vp: self.vp,
            planned_at: self.at,
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
/// (VP roster, destination lists, clock), so the plan is compiled once
/// and every chunk executes only the slice it owns. The sends are the
/// plan's only per-decoy state: each chunk registers the decoys it posts.
#[derive(Debug)]
pub struct Phase1Plan {
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

        // The send count is exact up front; at paper scale the plan holds
        // ~20M sends, and growing the vector by doubling would copy them.
        let mut sends = Vec::with_capacity(vps.len() * targets.len() * config.rounds);

        for round in 0..config.rounds {
            let round_start = start0 + config.round_gap.saturating_mul(round as u64);
            for &(vp_id, vp_node, vp_addr) in &vps {
                for &(dst, protocol) in &targets {
                    let at = scheduler.reserve(round_start, vp_id, dst);
                    let record =
                        DecoyRecord::new(&world.zone, vp_id, vp_addr, dst, protocol, 64, at);
                    let profile = config.encryption.profile_for(vp_id.0, dst);
                    sends.push(PlannedSend::new(
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

        Phase1Plan { sends, last_send }
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
        let data = run_slice(world, &plan.sends, plan.last_send, config.grace, sink, owns);
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

/// Run one phase's owned slice. One pass over `sends` registers, counts
/// (and journals) and posts each send whose VP satisfies `owns`, in plan
/// order. The chunk's registry then goes to a fresh [`CorrelationSink`] in
/// an `Arc`; the clock runs through the *global* `last_send + grace`, and
/// the VP reports and the sink's aggregates are harvested (recording the
/// sink state size — classifier entries plus per-decoy folds — into the
/// run metrics). Once the sink is uninstalled and drained, the registry
/// comes back out of its `Arc` into the returned data. Shared by Phase I
/// and Phase II; the sink sees arrivals in the exact order the honeypots
/// capture them.
pub(crate) fn run_slice(
    world: &mut World,
    sends: &[PlannedSend],
    last_send: SimTime,
    grace: SimDuration,
    sink: SinkConfig,
    owns: impl Fn(VpId) -> bool,
) -> CampaignData {
    let mut registry = DecoyRegistry::new(world.zone.clone());
    for send in sends.iter().filter(|send| owns(send.vp)) {
        let record = send.record();
        record_decoy_send(world, &record, send.node);
        registry.insert(record);
        world.engine.post(
            send.at,
            send.node,
            Box::new(VpCommand::Decoy(send.decoy.clone())),
        );
    }
    let registry = Arc::new(registry);
    let shared = CorrelationSink::shared(registry.clone(), sink);
    world.install_arrival_sink(Some(shared.clone()));
    world.engine.run_until(last_send + grace);
    let vp_reports = CampaignRunner::harvest(world, &owns);
    world.install_arrival_sink(None);
    let (aggregates, state_size) = CorrelationSink::drain_shared(&shared);
    // Uninstalled, then dropped here, the sink was the registry's only
    // other holder.
    drop(shared);
    if let Some(m) = world.engine.telemetry().metrics() {
        m.sink_tracked_decoys.add(state_size as u64);
    }
    CampaignData {
        registry: Arc::into_inner(registry).expect("the sink released the registry"),
        vp_reports,
        last_send,
        aggregates,
        ..CampaignData::default()
    }
}

/// Close a phase: journal its [`EventKind::PhaseEnded`] marker (meta —
/// skipped by diffs), then snapshot-and-reset the engine's telemetry into
/// `data`, with the journal in emission order. Each phase calls this once
/// at harvest time, so consecutive phases never double-count.
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
    data
}

/// Count a planned decoy and (when journaling) record its
/// [`EventKind::DecoySent`] event, stamped with its scheduled sim-time and
/// the VP's `node`.
fn record_decoy_send(world: &World, record: &DecoyRecord, node: NodeId) {
    let telemetry = world.engine.telemetry();
    if !telemetry.is_enabled() {
        return;
    }
    let protocol = record.protocol.as_str();
    if let Some(m) = telemetry.metrics() {
        m.decoys_sent.inc(protocol);
    }
    telemetry.event(record.planned_at.0, Some(node.0), || EventKind::DecoySent {
        protocol: protocol.to_string(),
        domain: record.domain.as_str().to_string(),
        vp: record.vp.0,
        dst: record.dst,
        ttl: record.ttl,
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
