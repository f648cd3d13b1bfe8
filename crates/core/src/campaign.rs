//! Phase I: spread decoys from every vantage point to every destination,
//! run the simulated clock forward, and harvest the streamed correlation
//! aggregates and VP reports.

use crate::decoy::{DecoyProtocol, DecoyRecord, DecoyRegistry};
use crate::sink::{CorrelationAggregates, CorrelationSink, SinkConfig};
use crate::world::World;
use serde::{Deserialize, Serialize};
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_netsim::topology::NodeId;
use shadow_packet::dns::DnsName;
use shadow_packet::transport::{EncryptionDeployment, TransportProfile};
use shadow_telemetry::{EventKind, JournalRecord, MetricsSnapshot};
use shadow_topo::RouterGraphBuilder;
use shadow_vantage::platform::VpId;
use shadow_vantage::schedule::RateLimitedScheduler;
use shadow_vantage::vp::{
    DecoyPayload, DecoySend, DnsRetry, VantagePointHost, VpCommand, VpReport,
};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
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
/// The chunk that posts it derives the [`DecoyRecord`] it registers from
/// these fields. Phase II plans hold their sends; a [`Phase1Schedule`]
/// expands each one when a chunk posts it.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// One entry of the per-VP target list.
#[derive(Debug, Clone, Copy)]
struct Target {
    dst: Ipv4Addr,
    protocol: DecoyProtocol,
    /// m: how many entries of the list share `dst`.
    multiplicity: u64,
    /// s: when the first VP sends this decoy in round 0.
    first_at: SimTime,
}

/// The Phase I send schedule in closed form. Every vetted VP sends one
/// decoy per target-list entry each round, and the rate-limited
/// round-robin puts send (round r, VP k, entry i) at
///
/// ```text
/// at(k, r, i) = s(i) + r × round_gap + k × target_gap × m(i)
/// ```
///
/// where k is the VP's position in the vetted roster, s(i) the first VP's
/// round-0 time from [`RateLimitedScheduler`] and m(i) how many entries
/// share entry i's address. The schedule keeps the target list, the
/// roster and the few knobs every send shares, O(VPs + targets), and
/// expands owned [`PlannedSend`]s lazily in round → VP → target order.
///
/// The law equals the scheduler's send-by-send walk only under three
/// conditions, which [`Phase1Schedule::new`] checks (V vetted VPs, round
/// gap G, target gap g_t, VP gap g_v):
///
/// * P1: each address's entries are contiguous in the target list;
/// * P2: m never decreases along the list;
/// * P3: with more than one round, V × g_t × m_max ≤ G and
///   (s_last − s_0) + g_v + (V − 1) × g_t × (m_last − m_0) ≤ G.
///
/// Every shipped world meets them: host addresses are unique, the list is
/// DNS destinations (m = 1) then HTTP and TLS per site (m = 2), and the
/// default gap is 12 h.
#[derive(Debug)]
pub struct Phase1Schedule {
    targets: Vec<Target>,
    /// The vetted VPs in platform order: id, node, address.
    roster: Vec<(VpId, NodeId, Ipv4Addr)>,
    rounds: usize,
    round_gap: SimDuration,
    target_gap: SimDuration,
    zone: DnsName,
    encryption: EncryptionDeployment,
    dns_retry: Option<DnsRetry>,
}

impl Phase1Schedule {
    /// Schedule `config.rounds` rounds in which each `roster` VP sends a
    /// decoy per `targets` entry, round 0 starting at `start`, with
    /// domains under `zone`.
    ///
    /// # Panics
    ///
    /// If the inputs break P1, P2 or P3 (see the type docs): the law
    /// would then place sends where the scheduler does not, so the
    /// schedule refuses rather than emit a different campaign.
    pub(crate) fn new(
        targets: &[(Ipv4Addr, DecoyProtocol)],
        roster: Vec<(VpId, NodeId, Ipv4Addr)>,
        start: SimTime,
        zone: DnsName,
        config: &Phase1Config,
    ) -> Self {
        // The first VP's round-0 walk. The scheduler is fresh, so these
        // times depend on the target list alone.
        let mut scheduler = RateLimitedScheduler::paper_defaults();
        let first_vp = roster.first().map_or(VpId(0), |&(id, _, _)| id);
        let mut seen = HashSet::new();
        let mut planned: Vec<Target> = Vec::new();
        let mut group = 0;
        while group < targets.len() {
            let dst = targets[group].0;
            let end = targets[group..]
                .iter()
                .position(|&(addr, _)| addr != dst)
                .map_or(targets.len(), |len| group + len);
            assert!(
                seen.insert(dst),
                "Phase I plan law needs P1 (each address's target entries are contiguous): \
                 {dst} recurs at entry {group} after other addresses"
            );
            let multiplicity = (end - group) as u64;
            if let Some(previous) = planned.last() {
                assert!(
                    previous.multiplicity <= multiplicity,
                    "Phase I plan law needs P2 (multiplicity never decreases along the target \
                     list): {dst} appears {multiplicity}× after {} appears {}×",
                    previous.dst,
                    previous.multiplicity
                );
            }
            planned.extend(targets[group..end].iter().map(|&(dst, protocol)| Target {
                dst,
                protocol,
                multiplicity,
                first_at: scheduler.reserve(start, first_vp, dst),
            }));
            group = end;
        }

        let target_gap = scheduler.target_gap();
        let vps = roster.len() as u64;
        let ends = planned.first().zip(planned.last());
        if let Some((first, last)) = ends.filter(|_| config.rounds > 1 && vps > 0) {
            let gap = config.round_gap;
            // Round r + 1 must find every target's and every VP's slot free
            // by the time the law places its sends. By P2, m_max = m_last.
            let target_cycle = target_gap.saturating_mul(vps * last.multiplicity);
            assert!(
                target_cycle <= gap,
                "Phase I plan law needs P3 (a round fits in the round gap): {vps} VPs × \
                 {target_gap} × m = {} take {target_cycle}, longer than the {gap} round gap",
                last.multiplicity
            );
            let vp_cycle = last.first_at.since(first.first_at)
                + scheduler.vp_gap()
                + target_gap.saturating_mul((vps - 1) * (last.multiplicity - first.multiplicity));
            assert!(
                vp_cycle <= gap,
                "Phase I plan law needs P3 (a round fits in the round gap): the last VP's \
                 round spans {vp_cycle}, longer than the {gap} round gap"
            );
        }

        Self {
            targets: planned,
            roster,
            rounds: config.rounds,
            round_gap: config.round_gap,
            target_gap,
            zone,
            encryption: config.encryption.clone(),
            dns_retry: config.dns_retry,
        }
    }

    /// How many sends the schedule holds: rounds × VPs × targets.
    pub fn len(&self) -> usize {
        self.rounds * self.roster.len() * self.targets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every send, in round → VP → target order.
    pub fn iter(&self) -> impl Iterator<Item = PlannedSend> + '_ {
        self.owned_by(|_| true)
    }

    /// The sends of the VPs satisfying `owns`, in plan order. `owns` is
    /// asked once per (round, VP), so a VP it rejects costs no expansion.
    pub(crate) fn owned_by(
        &self,
        owns: impl Fn(VpId) -> bool,
    ) -> impl Iterator<Item = PlannedSend> + '_ {
        let slots: Vec<(usize, usize)> = (0..self.rounds)
            .flat_map(|round| (0..self.roster.len()).map(move |k| (round, k)))
            .filter(|&(_, k)| owns(self.roster[k].0))
            .collect();
        slots.into_iter().flat_map(move |(round, k)| {
            (0..self.targets.len()).map(move |i| self.send(round, k, i))
        })
    }

    /// When the last send leaves its VP, or `None` for an empty schedule.
    /// By P2 it is the last send in plan order.
    pub(crate) fn last_at(&self) -> Option<SimTime> {
        (!self.is_empty()).then(|| {
            self.at(
                self.rounds - 1,
                self.roster.len() - 1,
                self.targets.len() - 1,
            )
        })
    }

    fn at(&self, round: usize, k: usize, i: usize) -> SimTime {
        let target = &self.targets[i];
        target.first_at
            + self.round_gap.saturating_mul(round as u64)
            + self
                .target_gap
                .saturating_mul(k as u64 * target.multiplicity)
    }

    /// Expand send (round, VP k, entry i).
    fn send(&self, round: usize, k: usize, i: usize) -> PlannedSend {
        let Target { dst, protocol, .. } = self.targets[i];
        let (vp, node, vp_addr) = self.roster[k];
        let at = self.at(round, k, i);
        let record = DecoyRecord::new(&self.zone, vp, vp_addr, dst, protocol, 64, at);
        let profile = self.encryption.profile_for(vp.0, dst);
        PlannedSend::new(record, node, profile, true, self.dns_retry)
    }
}

/// The complete Phase I plan, computed without touching the engine.
/// Planning is a pure function of the world's ground truth (VP roster,
/// destination lists, clock), so the plan is compiled once and every
/// chunk expands and posts only the slice it owns. It holds no per-send
/// state: each chunk registers the decoys it posts.
#[derive(Debug)]
pub struct Phase1Plan {
    pub sends: Phase1Schedule,
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
    /// Compute the full Phase I schedule without posting anything, in
    /// O(VPs + targets).
    ///
    /// # Panics
    ///
    /// If the world breaks a condition of the plan law (see
    /// [`Phase1Schedule`]).
    pub fn plan_phase1(world: &World, config: &Phase1Config) -> Phase1Plan {
        let now = world.engine.now();
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
        let roster = world
            .platform
            .vps
            .iter()
            .map(|vp| (vp.id, vp.node, vp.addr))
            .collect();
        let sends = Phase1Schedule::new(
            &targets,
            roster,
            now + SimDuration::from_secs(5),
            world.zone.clone(),
            config,
        );
        let last_send = sends.last_at().unwrap_or(now);
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
        let sends = plan.sends.owned_by(&owns);
        let data = run_slice(world, sends, plan.last_send, config.grace, sink, &owns);
        finish_phase(world, "phase1", data)
    }

    /// Move out the reports of the VPs satisfying `owns` (a chunk reports
    /// only the VPs it drove; the others sat idle in its copy of the
    /// world), so each of them starts its next phase with an empty report.
    pub fn harvest(world: &mut World, owns: impl Fn(VpId) -> bool) -> HashMap<VpId, VpReport> {
        let engine = &mut world.engine;
        world
            .platform
            .vps
            .iter()
            .filter(|vp| owns(vp.id))
            .filter_map(|vp| {
                let host = engine.host_as_mut::<VantagePointHost>(vp.node)?;
                Some((vp.id, std::mem::take(&mut host.report)))
            })
            .collect()
    }
}

/// Run one phase's owned slice. One pass over `sends` — the sends of the
/// VPs satisfying `owns`, in plan order — registers, counts (and
/// journals) and posts each one. The chunk's registry then goes to a
/// fresh [`CorrelationSink`] in an `Arc`; the clock runs through the
/// *global* `last_send + grace`, and the reports of the VPs satisfying
/// `owns` and the sink's aggregates are harvested (recording the sink
/// state size — classifier entries plus per-decoy folds — into the run
/// metrics). Once the sink is uninstalled and drained, the registry comes
/// back out of its `Arc` into the returned data. Shared by Phase I and
/// Phase II; the sink sees arrivals in the exact order the honeypots
/// capture them.
pub(crate) fn run_slice(
    world: &mut World,
    sends: impl Iterator<Item = PlannedSend>,
    last_send: SimTime,
    grace: SimDuration,
    sink: SinkConfig,
    owns: impl Fn(VpId) -> bool,
) -> CampaignData {
    let mut registry = DecoyRegistry::new(world.zone.clone());
    for send in sends {
        let record = send.record();
        record_decoy_send(world, &record, send.node);
        registry.insert(record);
        world
            .engine
            .post(send.at, send.node, Box::new(VpCommand::Decoy(send.decoy)));
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
    if let Some(m) = telemetry.metrics() {
        m.decoys_sent.inc(record.protocol.as_str());
    }
    telemetry.event(record.planned_at.0, Some(node.0), || EventKind::DecoySent {
        protocol: record.protocol.journal_label(),
        domain: record.domain.shared(),
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
        // Phase II plans hold one per swept TTL, and every posted decoy
        // passes through one.
        assert!(std::mem::size_of::<PlannedSend>() <= 64);
    }

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 51, 100, last)
    }

    fn roster(vps: u32) -> Vec<(VpId, NodeId, Ipv4Addr)> {
        (0..vps)
            .map(|i| {
                (
                    VpId(10 + i),
                    NodeId(100 + i),
                    Ipv4Addr::new(203, 0, 113, i as u8),
                )
            })
            .collect()
    }

    fn config(rounds: usize, round_gap: SimDuration) -> Phase1Config {
        Phase1Config {
            rounds,
            round_gap,
            encryption: EncryptionDeployment::mixed(),
            dns_retry: Some(DnsRetry {
                attempts: 3,
                timeout_ms: 2_000,
            }),
            ..Phase1Config::default()
        }
    }

    fn schedule(
        targets: &[(Ipv4Addr, DecoyProtocol)],
        vps: u32,
        config: &Phase1Config,
    ) -> Phase1Schedule {
        let zone = DnsName::parse("www.experiment.example").unwrap();
        Phase1Schedule::new(targets, roster(vps), SimTime(5_000), zone, config)
    }

    #[test]
    fn law_matches_the_scheduler_for_a_repeated_address() {
        use DecoyProtocol::{Dns, Http, Tls};
        // One address 3× in a row, after two single entries.
        let targets = [
            (addr(1), Dns),
            (addr(2), Dns),
            (addr(3), Dns),
            (addr(3), Http),
            (addr(3), Tls),
        ];
        let config = config(3, SimDuration::from_mins(10));
        let plan = schedule(&targets, 4, &config);
        let zone = DnsName::parse("www.experiment.example").unwrap();
        let mut scheduler = RateLimitedScheduler::paper_defaults();
        let mut reference = Vec::new();
        for round in 0..config.rounds {
            let not_before = SimTime(5_000) + config.round_gap.saturating_mul(round as u64);
            for (vp, node, vp_addr) in roster(4) {
                for &(dst, protocol) in &targets {
                    let at = scheduler.reserve(not_before, vp, dst);
                    let record = DecoyRecord::new(&zone, vp, vp_addr, dst, protocol, 64, at);
                    let profile = config.encryption.profile_for(vp.0, dst);
                    reference.push(PlannedSend::new(
                        record,
                        node,
                        profile,
                        true,
                        config.dns_retry,
                    ));
                }
            }
        }
        assert_eq!(plan.len(), reference.len());
        assert_eq!(plan.iter().collect::<Vec<_>>(), reference);
        assert_eq!(plan.last_at(), reference.iter().map(|send| send.at).max());
        // A VP slice expands exactly that VP's sends, in plan order.
        let owned: Vec<_> = plan.owned_by(|vp| vp == VpId(12)).collect();
        let expected: Vec<_> = reference.into_iter().filter(|s| s.vp == VpId(12)).collect();
        assert_eq!(owned, expected);
    }

    #[test]
    #[should_panic(expected = "P1")]
    fn split_address_breaks_p1() {
        let targets = [
            (addr(1), DecoyProtocol::Http),
            (addr(2), DecoyProtocol::Http),
            (addr(1), DecoyProtocol::Tls),
        ];
        schedule(&targets, 2, &config(1, SimDuration::from_hours(12)));
    }

    #[test]
    #[should_panic(expected = "P2")]
    fn falling_multiplicity_breaks_p2() {
        let targets = [
            (addr(1), DecoyProtocol::Http),
            (addr(1), DecoyProtocol::Tls),
            (addr(2), DecoyProtocol::Dns),
        ];
        schedule(&targets, 2, &config(1, SimDuration::from_hours(12)));
    }

    #[test]
    #[should_panic(expected = "P3")]
    fn short_round_gap_breaks_p3() {
        // 3 VPs × 500 ms × 2 = 3 s of target cycle against a 2 s gap.
        let targets = [
            (addr(1), DecoyProtocol::Http),
            (addr(1), DecoyProtocol::Tls),
        ];
        schedule(&targets, 3, &config(2, SimDuration::from_secs(2)));
    }
}
