//! The discrete-event engine: forwards packets hop by hop, decrements TTL,
//! generates ICMP Time Exceeded, delivers to endpoint hosts, and runs
//! on-path wire taps (where traffic observers live).

use crate::fault::{LinkConditioner, LinkVerdict};
use crate::slab::{Slab, SlabKey};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};
use crate::wheel::TimeWheel;
use shadow_packet::icmp::IcmpMessage;
use shadow_packet::ipv4::{IpProtocol, Ipv4Packet, DEFAULT_TTL};
use shadow_packet::DecodedView;
use shadow_telemetry::{EventKind as TelemetryEvent, IpLabel, Telemetry};
use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// An endpoint application bound to one topology node (a VP, a resolver, a
/// honeypot, a web server, an exhibitor's probe origin...).
///
/// Hosts receive packets addressed to their node, fire timers they armed,
/// and receive application-level messages posted by the campaign controller
/// or by wire taps (e.g. "probe this domain in 2 days").
///
/// Every host is `Clone + 'static` (see [`HostFork`]), so [`Engine::fork`]
/// can copy a world's hosts with their state and [`Engine::host_as`] can
/// downcast them.
pub trait Host: HostFork + Send + Sync {
    fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>);

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}

    fn on_message(&mut self, _msg: Box<dyn Any + Send + Sync>, _ctx: &mut Ctx<'_>) {}
}

/// What a wire tap tells the engine to do with an observed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapVerdict {
    /// Forward normally (pure observation — the traffic-shadowing case:
    /// "communication between clients and servers is not tampered with").
    Continue,
    /// Swallow the packet (interception devices, Appendix E noise).
    Drop,
}

/// A passive (or not quite passive) device attached to a router, seeing
/// every packet the router forwards.
///
/// `view` is the packet's shared parse-once memo: the first tap on the
/// route that calls [`DecodedView::visibility`] pays for the application
/// decode, every later tap (and every later hop) reads the cached result.
/// Taps must read watched fields through the view rather than re-parsing
/// the payload — see the contract in [`shadow_packet::view`].
///
/// Every tap is `Clone + 'static` (see [`TapFork`]), like every [`Host`].
pub trait WireTap: TapFork + Send + Sync {
    fn on_packet(
        &mut self,
        pkt: &Ipv4Packet,
        view: &DecodedView,
        at: NodeId,
        ctx: &mut Ctx<'_>,
    ) -> TapVerdict;

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}
}

/// The hooks behind [`Engine::fork`] and [`Engine::host_as`]: a boxed copy
/// of a host, state included, and its downcast. Implemented for every
/// `Clone + 'static` host by the blanket impl below, so a host type opts
/// in by deriving `Clone`; there is no body to write or forget.
pub trait HostFork {
    fn fork_host(&self) -> Box<dyn Host>;

    fn as_any(&self) -> &dyn Any;

    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Host + Clone + 'static> HostFork for T {
    fn fork_host(&self) -> Box<dyn Host> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// [`HostFork`] for wire taps.
pub trait TapFork {
    fn fork_tap(&self) -> Box<dyn WireTap>;

    fn as_any(&self) -> &dyn Any;

    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: WireTap + Clone + 'static> TapFork for T {
    fn fork_tap(&self) -> Box<dyn WireTap> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Deferred side effects collected during a callback and applied by the
/// engine afterwards (avoids aliasing the engine inside host calls).
enum Action {
    /// Route `pkt` from `from` towards its IP destination after `delay`.
    Send {
        from: NodeId,
        pkt: Ipv4Packet,
        delay: SimDuration,
    },
    /// Arm a timer on a host node.
    HostTimer {
        node: NodeId,
        token: u64,
        delay: SimDuration,
    },
    /// Arm a timer on a tap (index within the node's tap list).
    TapTimer {
        node: NodeId,
        tap_index: usize,
        token: u64,
        delay: SimDuration,
    },
    /// Deliver an application message to a host node.
    Post {
        node: NodeId,
        msg: Box<dyn Any + Send + Sync>,
        delay: SimDuration,
    },
}

/// Callback context: simulated clock plus an action buffer.
pub struct Ctx<'a> {
    now: SimTime,
    /// The node the callback runs on.
    node: NodeId,
    /// `Some(index)` when the callback belongs to a tap at this node.
    tap: Option<usize>,
    /// The engine's telemetry handle (disabled by default — see
    /// [`Engine::set_telemetry`]), so hosts and taps can emit counters and
    /// journal events without threading handles through constructors.
    telemetry: &'a Telemetry,
    actions: &'a mut Vec<Action>,
}

impl Ctx<'_> {
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this callback is running on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The engine's telemetry handle (a disabled no-op unless enabled).
    pub fn telemetry(&self) -> &Telemetry {
        self.telemetry
    }

    /// Send `pkt` into the network from this node.
    pub fn send(&mut self, pkt: Ipv4Packet) {
        self.send_after(SimDuration::ZERO, pkt);
    }

    /// Send `pkt` after a local processing delay.
    pub fn send_after(&mut self, delay: SimDuration, pkt: Ipv4Packet) {
        self.actions.push(Action::Send {
            from: self.node,
            pkt,
            delay,
        });
    }

    /// Send from an arbitrary node — used by taps whose probe traffic must
    /// originate elsewhere (the paper: "observers may not initiate
    /// unsolicited requests by themselves").
    pub fn send_from(&mut self, from: NodeId, delay: SimDuration, pkt: Ipv4Packet) {
        self.actions.push(Action::Send { from, pkt, delay });
    }

    /// Arm a timer that re-enters this host (or tap) with `token`.
    pub fn timer(&mut self, delay: SimDuration, token: u64) {
        match self.tap {
            Some(tap_index) => self.actions.push(Action::TapTimer {
                node: self.node,
                tap_index,
                token,
                delay,
            }),
            None => self.actions.push(Action::HostTimer {
                node: self.node,
                token,
                delay,
            }),
        }
    }

    /// Post an application message to another host after `delay`.
    pub fn post(&mut self, node: NodeId, delay: SimDuration, msg: Box<dyn Any + Send + Sync>) {
        self.actions.push(Action::Post { node, msg, delay });
    }
}

/// Why a timer callback targets a tap and not a host: taps call
/// [`Ctx::timer`] too, so the engine must remember which kind armed it.
enum EventKind {
    /// Packet arriving at `path[idx]`. `path` is a route tail
    /// ([`Topology::route_tail`]): it starts at the first hop after the
    /// sender, so `path[0]` is reached over the link from the sender.
    /// The view is the packet's parse-once memo, shared (Arc) with any
    /// fault-injected duplicate — duplicates carry identical bytes, so
    /// they share one decode.
    Hop {
        pkt: Ipv4Packet,
        view: Arc<DecodedView>,
        path: Arc<[NodeId]>,
        idx: usize,
    },
    HostTimer {
        node: NodeId,
        token: u64,
    },
    TapTimer {
        node: NodeId,
        tap_index: usize,
        token: u64,
    },
    Message {
        node: NodeId,
        msg: Box<dyn Any + Send + Sync>,
    },
}

/// Aggregate counters, exposed for tests and benches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    pub events_processed: u64,
    pub packets_sent: u64,
    pub packets_delivered: u64,
    pub packets_dropped_unroutable: u64,
    pub packets_dropped_by_tap: u64,
    pub ttl_expirations: u64,
    pub icmp_time_exceeded_sent: u64,
    pub icmp_suppressed: u64,
}

impl EngineStats {
    /// Sum another engine's counters into this one (a sharded campaign
    /// reports the aggregate across its per-shard engines).
    pub fn absorb(&mut self, other: &EngineStats) {
        self.events_processed += other.events_processed;
        self.packets_sent += other.packets_sent;
        self.packets_delivered += other.packets_delivered;
        self.packets_dropped_unroutable += other.packets_dropped_unroutable;
        self.packets_dropped_by_tap += other.packets_dropped_by_tap;
        self.ttl_expirations += other.ttl_expirations;
        self.icmp_time_exceeded_sent += other.icmp_time_exceeded_sent;
        self.icmp_suppressed += other.icmp_suppressed;
    }
}

/// The simulator.
pub struct Engine {
    topo: Topology,
    /// The time wheel carries 8-byte slab keys; the event payloads live in
    /// [`Engine::events`]. See `slab.rs` for why.
    queue: TimeWheel<SlabKey>,
    /// In-flight event state: grows to the peak queued population once,
    /// then recycles freed slots through the slab's free list — the hot
    /// loop stops round-tripping the global allocator per event.
    events: Slab<EventKind>,
    /// The host bound to each node, indexed by [`NodeId`]. Dispatch takes
    /// a host out of its slot for the callback and puts it back.
    hosts: Vec<Option<Box<dyn Host>>>,
    /// The taps attached to each node, indexed by [`NodeId`] (empty for
    /// most nodes).
    taps: Vec<Vec<Box<dyn WireTap>>>,
    now: SimTime,
    seq: u64,
    ident: u16,
    stats: EngineStats,
    telemetry: Telemetry,
    /// Installed fault profile (None = perfectly reliable network; every
    /// conditioner check then reduces to one `None` branch).
    conditioner: Option<Arc<LinkConditioner>>,
    /// Per-engine route memo, consulted on every [`Engine::launch`]:
    /// (the sender's dense AS index, destination) → the route tail
    /// without its sender ([`Topology::route_tail`]). Anycast selection,
    /// the AS path and its expansion read only the sender's AS, so every
    /// host of one AS shares one entry per address. Lives here rather
    /// than in [`Topology`] so sharded campaigns never contend on a
    /// shared lock — each shard's engine warms its own cache with exactly
    /// the routes its traffic uses. `None` records an unroutable
    /// destination (negative caching).
    route_cache: HashMap<(u32, Ipv4Addr), Option<Arc<[NodeId]>>>,
    /// Reusable action buffer for [`Engine::dispatch`] (one allocation for
    /// the whole run instead of one per event).
    scratch_actions: Vec<Action>,
    /// Reusable same-tick batch buffer for the batched run loop.
    batch: Vec<(SimTime, u64, SlabKey)>,
}

impl Engine {
    pub fn new(topo: Topology) -> Self {
        let nodes = topo.node_count();
        Self {
            topo,
            queue: TimeWheel::new(),
            events: Slab::new(),
            hosts: std::iter::repeat_with(|| None).take(nodes).collect(),
            taps: std::iter::repeat_with(Vec::new).take(nodes).collect(),
            now: SimTime::ZERO,
            seq: 0,
            ident: 1,
            stats: EngineStats::default(),
            telemetry: Telemetry::disabled(),
            conditioner: None,
            route_cache: HashMap::new(),
            scratch_actions: Vec::new(),
            batch: Vec::new(),
        }
    }

    /// Copy an idle engine: its clock, its event-sequence and IP-ident
    /// counters, a copy of every host and tap with its state, and the
    /// topology, which is frozen and so shared rather than copied. The
    /// copy starts with an empty event queue and route memo and zeroed
    /// [`EngineStats`], so its counters cover only what it runs itself.
    /// From there the two evolve independently, and the copy runs
    /// exactly as the source would: neither the queue's storage nor the
    /// memo decides an event's outcome (only the `topo_lookups` run
    /// counter, which counts memo misses, sees the colder memo).
    ///
    /// Panics on a queued event (a boxed message cannot be copied), an
    /// installed telemetry handle (the copy would count into the same
    /// registry and journal) or a fault conditioner: both belong to one
    /// run and go in after the fork.
    pub fn fork(&self) -> Engine {
        assert!(
            self.queue.is_empty(),
            "Engine::fork: {} queued events; only an idle engine forks",
            self.queue.len()
        );
        assert!(
            !self.telemetry.is_enabled(),
            "Engine::fork: telemetry is installed; install it on the fork instead"
        );
        assert!(
            self.conditioner.is_none(),
            "Engine::fork: a fault conditioner is installed; install it on the fork instead"
        );
        Self {
            hosts: self
                .hosts
                .iter()
                .map(|host| host.as_ref().map(|host| host.fork_host()))
                .collect(),
            taps: self
                .taps
                .iter()
                .map(|taps| taps.iter().map(|tap| tap.fork_tap()).collect())
                .collect(),
            now: self.now,
            seq: self.seq,
            ident: self.ident,
            ..Self::new(self.topo.clone())
        }
    }

    /// Drop the storage a finished run grew: the event slab, the time
    /// wheel's buckets and overflow heap, and the dispatch buffers. The
    /// clock, the counters, every host and tap and the route memo stay,
    /// so a later run behaves exactly as it would have; its queue starts
    /// empty, as a fork's does.
    ///
    /// Panics on a queued event: only an idle engine has nothing left to
    /// run.
    pub fn release_queue_storage(&mut self) {
        assert!(
            self.queue.is_empty(),
            "Engine::release_queue_storage: {} queued events; only an idle engine releases",
            self.queue.len()
        );
        self.queue = TimeWheel::new();
        self.events = Slab::new();
        self.scratch_actions = Vec::new();
        self.batch = Vec::new();
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Install a telemetry handle. The campaign enables telemetry *after*
    /// the Appendix-E pre-flight, so per-shard counters cover exactly the
    /// campaign traffic and sum to the sequential run's counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The engine's telemetry handle (disabled unless installed).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Install (or clear) a fault conditioner. Shards of one campaign share
    /// a single compiled conditioner: its decisions are value-derived, so
    /// the same packet meets the same fate in any shard.
    pub fn set_conditioner(&mut self, conditioner: Option<Arc<LinkConditioner>>) {
        self.conditioner = conditioner;
    }

    /// The installed fault conditioner, if any.
    pub fn conditioner(&self) -> Option<&Arc<LinkConditioner>> {
        self.conditioner.as_ref()
    }

    /// Bind a host application to a node. Replaces any previous binding.
    /// Panics on a node the topology does not have.
    pub fn add_host(&mut self, node: NodeId, host: Box<dyn Host>) {
        self.hosts[node.0 as usize] = Some(host);
    }

    /// Attach a wire tap to a router node. Multiple taps stack in order.
    /// Panics on a node the topology does not have.
    pub fn add_tap(&mut self, node: NodeId, tap: Box<dyn WireTap>) {
        self.taps[node.0 as usize].push(tap);
    }

    /// Borrow a host downcast to its concrete type (post-run harvesting).
    pub fn host_as<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.hosts
            .get(node.0 as usize)?
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutably borrow a host downcast to its concrete type.
    pub fn host_as_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.hosts
            .get_mut(node.0 as usize)?
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Borrow a tap downcast to its concrete type.
    pub fn tap_as<T: 'static>(&self, node: NodeId, index: usize) -> Option<&T> {
        self.taps
            .get(node.0 as usize)?
            .get(index)?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Visit every attached tap mutably — for between-phase
    /// reconfiguration (e.g. closing a telemetry window). Visit order is
    /// unspecified; callers must not depend on it.
    pub fn for_each_tap_mut(&mut self, mut f: impl FnMut(&mut dyn WireTap)) {
        for tap in self.taps.iter_mut().flatten() {
            f(tap.as_mut());
        }
    }

    /// Fresh IP identification value (per-engine counter).
    pub fn next_ident(&mut self) -> u16 {
        self.ident = self.ident.wrapping_add(1);
        self.ident
    }

    /// Schedule an application message delivery at absolute time `at`.
    pub fn post(&mut self, at: SimTime, node: NodeId, msg: Box<dyn Any + Send + Sync>) {
        let at = at.max(self.now);
        self.push(at, EventKind::Message { node, msg });
    }

    /// Inject a packet into the network from `from` at absolute time `at`.
    pub fn inject(&mut self, at: SimTime, from: NodeId, pkt: Ipv4Packet) {
        let at = at.max(self.now);
        self.launch(at, from, pkt);
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        self.seq += 1;
        let key = self.events.insert(kind);
        self.queue.push(at, self.seq, key);
    }

    /// Route a packet leaving `from` and schedule its first hop.
    fn launch(&mut self, at: SimTime, from: NodeId, pkt: Ipv4Packet) {
        self.stats.packets_sent += 1;
        if let Some(cond) = &self.conditioner {
            // A downed origin (VP churn, resolver/honeypot outage) emits
            // nothing.
            if cond.node_down(from, at.0) {
                if let Some(m) = self.telemetry.metrics() {
                    m.fault_outage_drops.inc();
                }
                return;
            }
        }
        let key = (self.topo.as_index(from), pkt.header.dst);
        let path = match self.route_cache.entry(key) {
            Entry::Occupied(e) => e.get().clone(),
            Entry::Vacant(v) => {
                // Cache miss: resolve the destination through the LPM
                // address table (via route_tail → select_instance).
                if let Some(m) = self.telemetry.metrics() {
                    m.topo_lookups.inc();
                }
                v.insert(self.topo.route_tail(key.0, key.1)).clone()
            }
        };
        let Some(path) = path else {
            self.stats.packets_dropped_unroutable += 1;
            return;
        };
        let view = Arc::new(DecodedView::new());
        let last = path.len() - 1;
        if path[last] == from {
            // Loopback: the tail ends at the sender; deliver in place now.
            self.push(
                at,
                EventKind::Hop {
                    pkt,
                    view,
                    path,
                    idx: last,
                },
            );
            return;
        }
        self.schedule_link(at, pkt, view, path, from, 0);
    }

    /// Schedule arrival at `path[idx]` after crossing the link from
    /// `prev` (the sender for `idx` 0, else `path[idx-1]`): the link's
    /// latency, plus what the fault conditioner (loss, jitter,
    /// duplication, link outages) decides for the link when one is
    /// installed.
    fn schedule_link(
        &mut self,
        depart: SimTime,
        pkt: Ipv4Packet,
        view: Arc<DecodedView>,
        path: Arc<[NodeId]>,
        prev: NodeId,
        idx: usize,
    ) {
        let verdict = match &self.conditioner {
            None => LinkVerdict::CLEAN,
            Some(cond) => cond.link_verdict(depart.0, prev, path[idx], &pkt.header, &pkt.payload),
        };
        match verdict {
            LinkVerdict::Lost => {
                if let Some(m) = self.telemetry.metrics() {
                    m.fault_packets_lost.inc();
                }
            }
            LinkVerdict::OutageDrop => {
                if let Some(m) = self.telemetry.metrics() {
                    m.fault_outage_drops.inc();
                }
            }
            LinkVerdict::Deliver {
                extra_delay_ms,
                duplicate_after_ms,
            } => {
                if extra_delay_ms > 0 {
                    if let Some(m) = self.telemetry.metrics() {
                        m.fault_packets_delayed.inc();
                    }
                }
                let base_delay = SimDuration::from_millis(self.topo.latency_ms(prev, path[idx]));
                let arrive = depart + base_delay + SimDuration::from_millis(extra_delay_ms);
                if let Some(gap_ms) = duplicate_after_ms {
                    if let Some(m) = self.telemetry.metrics() {
                        m.fault_packets_duplicated.inc();
                    }
                    // Cheap duplicate: the clone bumps the payload and view
                    // refcounts; no bytes are copied and the decode memo is
                    // shared between original and duplicate.
                    self.push(
                        arrive + SimDuration::from_millis(gap_ms),
                        EventKind::Hop {
                            pkt: pkt.clone(),
                            view: view.clone(),
                            path: path.clone(),
                            idx,
                        },
                    );
                }
                self.push(
                    arrive,
                    EventKind::Hop {
                        pkt,
                        view,
                        path,
                        idx,
                    },
                );
            }
        }
    }

    /// Run until the queue drains or the clock passes `deadline`.
    /// Returns the number of events processed.
    ///
    /// Events are popped in whole same-tick batches ([`TimeWheel::pop_batch`])
    /// so the wheel's slot/overflow bookkeeping runs once per simulated
    /// millisecond instead of once per event. Mid-batch pushes always land
    /// at `>= now` with a higher sequence number, so they are picked up by
    /// the next `peek_at` — the dispatch order is identical to the
    /// one-pop-at-a-time loop.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        let mut batch = std::mem::take(&mut self.batch);
        while let Some(at) = self.queue.peek_at() {
            if at > deadline {
                break;
            }
            batch.clear();
            self.queue.pop_batch(&mut batch);
            self.now = at;
            for &(_, _, key) in &batch {
                let kind = self.events.remove(key).expect("queued event is live");
                self.dispatch(kind);
                processed += 1;
                self.stats.events_processed += 1;
                if processed & 0xFFF == 0 {
                    if let Some(m) = self.telemetry.metrics() {
                        m.queue_depth.record(self.events.len() as u64);
                    }
                }
            }
        }
        self.batch = batch;
        if processed > 0 {
            if let Some(m) = self.telemetry.metrics() {
                m.events_drained.add(processed);
            }
        }
        self.now = self
            .now
            .max(deadline.min(self.queue.peek_at().unwrap_or(deadline)));
        processed
    }

    /// Run until the queue is fully drained.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_until(SimTime(u64::MAX))
    }

    fn dispatch(&mut self, kind: EventKind) {
        // Reuse one action buffer across the whole run; `apply` drains it.
        let mut actions = std::mem::take(&mut self.scratch_actions);
        match kind {
            EventKind::Hop {
                pkt,
                view,
                path,
                idx,
            } => {
                self.hop(pkt, view, path, idx, &mut actions);
            }
            EventKind::HostTimer { node, token } => {
                if let Some(mut host) = self.hosts[node.0 as usize].take() {
                    let mut ctx = Ctx {
                        now: self.now,
                        node,
                        tap: None,
                        telemetry: &self.telemetry,
                        actions: &mut actions,
                    };
                    host.on_timer(token, &mut ctx);
                    self.hosts[node.0 as usize] = Some(host);
                }
            }
            EventKind::TapTimer {
                node,
                tap_index,
                token,
            } => {
                let mut taps = std::mem::take(&mut self.taps[node.0 as usize]);
                if let Some(tap) = taps.get_mut(tap_index) {
                    let mut ctx = Ctx {
                        now: self.now,
                        node,
                        tap: Some(tap_index),
                        telemetry: &self.telemetry,
                        actions: &mut actions,
                    };
                    tap.on_timer(token, &mut ctx);
                }
                self.taps[node.0 as usize] = taps;
            }
            EventKind::Message { node, msg } => {
                if let Some(mut host) = self.hosts[node.0 as usize].take() {
                    let mut ctx = Ctx {
                        now: self.now,
                        node,
                        tap: None,
                        telemetry: &self.telemetry,
                        actions: &mut actions,
                    };
                    host.on_message(msg, &mut ctx);
                    self.hosts[node.0 as usize] = Some(host);
                }
            }
        }
        self.apply(&mut actions);
        self.scratch_actions = actions;
    }

    fn hop(
        &mut self,
        mut pkt: Ipv4Packet,
        view: Arc<DecodedView>,
        path: Arc<[NodeId]>,
        idx: usize,
        actions: &mut Vec<Action>,
    ) {
        let node_id = path[idx];
        let slot = node_id.0 as usize;
        let node = *self.topo.node(node_id);
        let is_final = idx == path.len() - 1;

        if let Some(cond) = &self.conditioner {
            // A downed node neither forwards, observes, expires, nor
            // accepts delivery (router outage / honeypot downtime / VP
            // churn / resolver outage — all node-outage windows).
            if cond.node_down(node_id, self.now.0) {
                if let Some(m) = self.telemetry.metrics() {
                    m.fault_outage_drops.inc();
                }
                return;
            }
        }

        if node.is_router() {
            // Taps observe arriving packets (a DPI box sees the wire even
            // when the packet is about to expire here).
            if !self.taps[slot].is_empty() {
                let mut taps = std::mem::take(&mut self.taps[slot]);
                let mut dropped = false;
                for (tap_index, tap) in taps.iter_mut().enumerate() {
                    if let Some(m) = self.telemetry.metrics() {
                        m.tap_observations.inc();
                    }
                    let (src, dst, proto) = (pkt.header.src, pkt.header.dst, pkt.header.protocol);
                    self.telemetry.event(self.now.0, Some(node_id.0), || {
                        TelemetryEvent::TapObserved {
                            src,
                            dst,
                            protocol: IpLabel::new(proto.number()),
                        }
                    });
                    let mut ctx = Ctx {
                        now: self.now,
                        node: node_id,
                        tap: Some(tap_index),
                        telemetry: &self.telemetry,
                        actions,
                    };
                    if tap.on_packet(&pkt, &view, node_id, &mut ctx) == TapVerdict::Drop {
                        dropped = true;
                        break;
                    }
                }
                self.taps[slot] = taps;
                if dropped {
                    self.stats.packets_dropped_by_tap += 1;
                    if let Some(m) = self.telemetry.metrics() {
                        m.tap_drops.inc();
                    }
                    return;
                }
            }
            // Forwarding: decrement TTL; expire ⇒ ICMP Time Exceeded.
            if pkt.header.decrement_ttl().is_none() {
                self.stats.ttl_expirations += 1;
                if let Some(m) = self.telemetry.metrics() {
                    m.ttl_expirations.inc();
                }
                // ICMP rate limiting: a value-derived probabilistic
                // suppression rather than a stateful token bucket — shard
                // engines see disjoint traffic, so shared bucket state
                // would diverge from the sequential run.
                let rate_limited = node.responds_icmp()
                    && match &self.conditioner {
                        Some(cond) => {
                            cond.suppress_icmp(self.now.0, node_id, &pkt.header, &pkt.payload)
                        }
                        None => false,
                    };
                if node.responds_icmp() && !rate_limited {
                    self.stats.icmp_time_exceeded_sent += 1;
                    if let Some(m) = self.telemetry.metrics() {
                        m.icmp_time_exceeded.inc();
                    }
                    let (expired_src, expired_dst) = (pkt.header.src, pkt.header.dst);
                    self.telemetry.event(self.now.0, Some(node_id.0), || {
                        TelemetryEvent::IcmpTimeExceeded {
                            expired_src,
                            expired_dst,
                        }
                    });
                    let icmp = IcmpMessage::time_exceeded(pkt.header, &pkt.payload);
                    let ident = self.next_ident();
                    let reply = Ipv4Packet::new(
                        node.addr,
                        pkt.header.src,
                        IpProtocol::Icmp,
                        DEFAULT_TTL,
                        ident,
                        icmp.encode(),
                    );
                    actions.push(Action::Send {
                        from: node_id,
                        pkt: reply,
                        delay: SimDuration::ZERO,
                    });
                } else {
                    self.stats.icmp_suppressed += 1;
                    if rate_limited {
                        if let Some(m) = self.telemetry.metrics() {
                            m.fault_icmp_rate_limited.inc();
                        }
                    }
                }
                return;
            }
            debug_assert!(!is_final, "routes terminate at hosts");
            if let Some(m) = self.telemetry.metrics() {
                m.packets_forwarded.inc();
            }
            // TTL decrement touched only the header; the payload (and
            // therefore the cached view) is unchanged — keep sharing it.
            self.schedule_link(self.now, pkt, view, path, node_id, idx + 1);
        } else {
            // Endpoint delivery.
            debug_assert!(is_final, "hosts only appear at path ends");
            self.stats.packets_delivered += 1;
            if let Some(m) = self.telemetry.metrics() {
                m.packets_delivered.inc();
            }
            if let Some(mut host) = self.hosts[slot].take() {
                let mut ctx = Ctx {
                    now: self.now,
                    node: node_id,
                    tap: None,
                    telemetry: &self.telemetry,
                    actions,
                };
                host.on_packet(pkt, &mut ctx);
                self.hosts[slot] = Some(host);
            }
            // No host bound: silent blackhole (e.g. pair-resolver addresses).
        }
    }

    fn apply(&mut self, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Send { from, pkt, delay } => {
                    let at = self.now + delay;
                    self.launch(at, from, pkt);
                }
                Action::HostTimer { node, token, delay } => {
                    self.push(self.now + delay, EventKind::HostTimer { node, token });
                }
                Action::TapTimer {
                    node,
                    tap_index,
                    token,
                    delay,
                } => {
                    self.push(
                        self.now + delay,
                        EventKind::TapTimer {
                            node,
                            tap_index,
                            token,
                        },
                    );
                }
                Action::Post { node, msg, delay } => {
                    self.push(self.now + delay, EventKind::Message { node, msg });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{TcpEvent, TcpStack};
    use crate::topology::TopologyBuilder;
    use crate::transport::Transport;
    use shadow_geo::{Asn, Region};
    use shadow_packet::tcp::TcpSegment;
    use shadow_packet::udp::UdpDatagram;
    use std::net::Ipv4Addr;

    /// Echo host: bounces any UDP payload back to the sender.
    #[derive(Clone)]
    struct Echo {
        addr: Ipv4Addr,
        received: Vec<(SimTime, Vec<u8>)>,
    }

    impl Host for Echo {
        fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
            if pkt.header.protocol != IpProtocol::Udp {
                return;
            }
            let dg = UdpDatagram::decode(&pkt.payload).expect("well-formed in test");
            self.received.push((ctx.now(), dg.payload.to_vec()));
            let reply = UdpDatagram::new(dg.dst_port, dg.src_port, dg.payload);
            ctx.send(Ipv4Packet::new(
                self.addr,
                pkt.header.src,
                IpProtocol::Udp,
                DEFAULT_TTL,
                1,
                reply.encode(),
            ));
        }
    }

    /// Sink host: records everything.
    #[derive(Clone)]
    struct Sink {
        received: Vec<(SimTime, Ipv4Packet)>,
        timers: Vec<(SimTime, u64)>,
        messages: Vec<SimTime>,
    }

    impl Sink {
        fn new() -> Self {
            Self {
                received: Vec::new(),
                timers: Vec::new(),
                messages: Vec::new(),
            }
        }
    }

    impl Host for Sink {
        fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
            self.received.push((ctx.now(), pkt));
        }

        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
            self.timers.push((ctx.now(), token));
            if token < 3 {
                ctx.timer(SimDuration::from_secs(1), token + 1);
            }
        }

        fn on_message(&mut self, _msg: Box<dyn Any + Send + Sync>, ctx: &mut Ctx<'_>) {
            self.messages.push(ctx.now());
        }
    }

    /// Counting tap; drops packets to `poison` destinations.
    #[derive(Clone)]
    struct CountingTap {
        seen: usize,
        poison: Option<Ipv4Addr>,
    }

    impl WireTap for CountingTap {
        fn on_packet(
            &mut self,
            pkt: &Ipv4Packet,
            _view: &DecodedView,
            _at: NodeId,
            _ctx: &mut Ctx<'_>,
        ) -> TapVerdict {
            self.seen += 1;
            if Some(pkt.header.dst) == self.poison {
                TapVerdict::Drop
            } else {
                TapVerdict::Continue
            }
        }
    }

    struct World {
        engine: Engine,
        client: NodeId,
        server: NodeId,
        /// A second host in the client's AS.
        neighbor: NodeId,
        client_addr: Ipv4Addr,
        server_addr: Ipv4Addr,
        neighbor_addr: Ipv4Addr,
        #[allow(dead_code)]
        first_router: NodeId,
    }

    fn world() -> World {
        let mut tb = TopologyBuilder::new(7);
        tb.add_as(Asn(10), Region::Europe);
        tb.add_as(Asn(20), Region::Europe);
        tb.add_as(Asn(30), Region::EastAsia);
        tb.link(Asn(10), Asn(20)).unwrap();
        tb.link(Asn(20), Asn(30)).unwrap();
        let mut first_router = None;
        for (asn, base) in [(10u32, 1u8), (20, 2), (30, 3)] {
            for r in 0..2u8 {
                let id = tb
                    .add_router(Asn(asn), Ipv4Addr::new(base, 0, 0, r + 1), true)
                    .unwrap();
                if first_router.is_none() {
                    first_router = Some(id);
                }
            }
        }
        let client_addr = Ipv4Addr::new(1, 1, 0, 1);
        let server_addr = Ipv4Addr::new(3, 1, 0, 1);
        let neighbor_addr = Ipv4Addr::new(1, 1, 0, 2);
        let client = tb.add_host(Asn(10), client_addr).unwrap();
        let server = tb.add_host(Asn(30), server_addr).unwrap();
        let neighbor = tb.add_host(Asn(10), neighbor_addr).unwrap();
        let engine = Engine::new(tb.build().unwrap());
        World {
            engine,
            client,
            server,
            neighbor,
            client_addr,
            server_addr,
            neighbor_addr,
            first_router: first_router.unwrap(),
        }
    }

    fn udp_packet(src: Ipv4Addr, dst: Ipv4Addr, ttl: u8, payload: &[u8]) -> Ipv4Packet {
        Ipv4Packet::new(
            src,
            dst,
            IpProtocol::Udp,
            ttl,
            99,
            UdpDatagram::new(1000, 2000, payload.to_vec()).encode(),
        )
    }

    #[test]
    fn packet_reaches_host_and_echoes_back() {
        let mut w = world();
        w.engine.add_host(
            w.server,
            Box::new(Echo {
                addr: w.server_addr,
                received: Vec::new(),
            }),
        );
        w.engine.add_host(w.client, Box::new(Sink::new()));
        w.engine.inject(
            SimTime::ZERO,
            w.client,
            udp_packet(w.client_addr, w.server_addr, DEFAULT_TTL, b"hello"),
        );
        w.engine.run_to_completion();
        let echo = w.engine.host_as::<Echo>(w.server).unwrap();
        assert_eq!(echo.received.len(), 1);
        assert_eq!(echo.received[0].1, b"hello");
        let sink = w.engine.host_as::<Sink>(w.client).unwrap();
        assert_eq!(sink.received.len(), 1, "client got the echo");
        assert!(sink.received[0].0 > SimTime::ZERO, "latency accrued");
        assert_eq!(w.engine.stats().packets_delivered, 2);
    }

    /// Sum of the link latencies along `route`.
    fn route_ms(topo: &Topology, route: &[NodeId]) -> u64 {
        route.windows(2).map(|l| topo.latency_ms(l[0], l[1])).sum()
    }

    #[test]
    fn hosts_of_one_as_share_one_route() {
        let mut w = world();
        w.engine.set_telemetry(Telemetry::metrics_only(0));
        w.engine.add_host(w.server, Box::new(Sink::new()));
        for (from, src) in [(w.client, w.client_addr), (w.neighbor, w.neighbor_addr)] {
            w.engine.inject(
                SimTime::ZERO,
                from,
                udp_packet(src, w.server_addr, DEFAULT_TTL, b"shared"),
            );
        }
        w.engine.run_to_completion();
        let misses = w.engine.telemetry().metrics().unwrap().topo_lookups.get();
        assert_eq!(misses, 1, "one memo entry serves the whole AS");
        let topo = w.engine.topology();
        let expected: Vec<_> = [(w.client, w.client_addr), (w.neighbor, w.neighbor_addr)]
            .into_iter()
            .map(|(from, src)| {
                let route = topo.route_to_addr(from, w.server_addr).unwrap();
                (src, SimTime(route_ms(topo, &route)))
            })
            .collect();
        assert_ne!(
            expected[0].1, expected[1].1,
            "the two first links differ, so the arrivals tell them apart"
        );
        let sink = w.engine.host_as::<Sink>(w.server).unwrap();
        let mut arrived: Vec<_> = sink
            .received
            .iter()
            .map(|(t, pkt)| (pkt.header.src, *t))
            .collect();
        arrived.sort();
        assert_eq!(arrived, expected, "each packet crosses its own first link");
    }

    #[test]
    fn loopback_survives_a_neighbors_memo_entry() {
        let mut w = world();
        w.engine.add_host(w.client, Box::new(Sink::new()));
        // The neighbour fills the (AS, client address) entry: its route
        // crosses the AS's routers to the client.
        w.engine.inject(
            SimTime::ZERO,
            w.neighbor,
            udp_packet(w.neighbor_addr, w.client_addr, DEFAULT_TTL, b"across"),
        );
        w.engine.run_to_completion();
        let sent = w.engine.now() + SimDuration::from_secs(1);
        w.engine.inject(
            sent,
            w.client,
            udp_packet(w.client_addr, w.client_addr, 1, b"self"),
        );
        w.engine.run_to_completion();
        let topo = w.engine.topology();
        let across = topo.route_to_addr(w.neighbor, w.client_addr).unwrap();
        assert!(across.len() > 2, "the neighbour's route crosses routers");
        assert_eq!(
            topo.route_to_addr(w.client, w.client_addr)
                .unwrap()
                .as_ref(),
            &[w.client]
        );
        let sink = w.engine.host_as::<Sink>(w.client).unwrap();
        let got: Vec<_> = sink
            .received
            .iter()
            .map(|(t, pkt)| (*t, pkt.payload.clone()))
            .collect();
        let payload = |p: &[u8]| udp_packet(w.client_addr, w.client_addr, 1, p).payload;
        assert_eq!(
            got,
            vec![
                (SimTime(route_ms(topo, &across)), payload(b"across")),
                (sent, payload(b"self")),
            ],
            "loopback is delivered in place at the send time, TTL 1 intact"
        );
        assert_eq!(w.engine.stats().ttl_expirations, 0);
    }

    #[test]
    fn ttl_expiry_generates_icmp_from_router() {
        let mut w = world();
        w.engine.add_host(w.client, Box::new(Sink::new()));
        // TTL=1 expires at the first router on the path.
        w.engine.inject(
            SimTime::ZERO,
            w.client,
            udp_packet(w.client_addr, w.server_addr, 1, b"probe"),
        );
        w.engine.run_to_completion();
        assert_eq!(w.engine.stats().ttl_expirations, 1);
        assert_eq!(w.engine.stats().icmp_time_exceeded_sent, 1);
        let sink = w.engine.host_as::<Sink>(w.client).unwrap();
        assert_eq!(sink.received.len(), 1);
        let pkt = &sink.received[0].1;
        assert_eq!(pkt.header.protocol, IpProtocol::Icmp);
        let msg = IcmpMessage::decode(&pkt.payload).unwrap();
        let orig = msg.original_header().unwrap();
        assert_eq!(orig.src, w.client_addr);
        assert_eq!(orig.dst, w.server_addr);
        assert_eq!(orig.ttl, 0);
        // The ICMP source is a router on the path, not the destination.
        let src_node = w.engine.topology().nodes_at(pkt.header.src);
        assert!(!src_node.is_empty());
        assert!(w.engine.topology().node(src_node[0]).is_router());
    }

    #[test]
    fn ttl_sweep_exposes_consecutive_routers() {
        let mut w = world();
        w.engine.add_host(w.client, Box::new(Sink::new()));
        let route = w
            .engine
            .topology()
            .route(w.client, w.server)
            .unwrap()
            .to_vec();
        let router_hops = route.len() - 2;
        for ttl in 1..=router_hops as u8 {
            w.engine.inject(
                SimTime(ttl as u64 * 10_000),
                w.client,
                udp_packet(w.client_addr, w.server_addr, ttl, b"sweep"),
            );
        }
        w.engine.run_to_completion();
        let sink = w.engine.host_as::<Sink>(w.client).unwrap();
        assert_eq!(sink.received.len(), router_hops);
        // The i-th ICMP comes from the i-th router on the route.
        for (i, (_, pkt)) in sink.received.iter().enumerate() {
            let expected = w.engine.topology().node(route[i + 1]).addr;
            assert_eq!(pkt.header.src, expected, "hop {}", i + 1);
        }
    }

    #[test]
    fn silent_router_suppresses_icmp() {
        let mut tb = TopologyBuilder::new(3);
        tb.add_as(Asn(1), Region::Europe);
        tb.add_as(Asn(2), Region::Europe);
        tb.link(Asn(1), Asn(2)).unwrap();
        tb.add_router(Asn(1), Ipv4Addr::new(1, 0, 0, 1), false)
            .unwrap();
        tb.add_router(Asn(2), Ipv4Addr::new(2, 0, 0, 1), false)
            .unwrap();
        let client = tb.add_host(Asn(1), Ipv4Addr::new(1, 1, 1, 1)).unwrap();
        let _server = tb.add_host(Asn(2), Ipv4Addr::new(2, 1, 1, 1)).unwrap();
        let mut engine = Engine::new(tb.build().unwrap());
        engine.add_host(client, Box::new(Sink::new()));
        engine.inject(
            SimTime::ZERO,
            client,
            udp_packet(
                Ipv4Addr::new(1, 1, 1, 1),
                Ipv4Addr::new(2, 1, 1, 1),
                1,
                b"x",
            ),
        );
        engine.run_to_completion();
        assert_eq!(engine.stats().ttl_expirations, 1);
        assert_eq!(engine.stats().icmp_suppressed, 1);
        let sink = engine.host_as::<Sink>(client).unwrap();
        assert!(sink.received.is_empty(), "no ICMP from a silent router");
    }

    #[test]
    fn tap_sees_and_can_drop() {
        let mut w = world();
        let route = w.engine.topology().route(w.client, w.server).unwrap();
        let tap_node = route[1];
        w.engine.add_tap(
            tap_node,
            Box::new(CountingTap {
                seen: 0,
                poison: Some(w.server_addr),
            }),
        );
        w.engine.add_host(w.server, Box::new(Sink::new()));
        w.engine.inject(
            SimTime::ZERO,
            w.client,
            udp_packet(w.client_addr, w.server_addr, DEFAULT_TTL, b"to-drop"),
        );
        w.engine.run_to_completion();
        let tap = w.engine.tap_as::<CountingTap>(tap_node, 0).unwrap();
        assert_eq!(tap.seen, 1);
        assert_eq!(w.engine.stats().packets_dropped_by_tap, 1);
        let sink = w.engine.host_as::<Sink>(w.server).unwrap();
        assert!(sink.received.is_empty(), "tap dropped the packet");
    }

    #[test]
    fn timers_chain_and_messages_deliver() {
        let mut w = world();
        w.engine.add_host(w.client, Box::new(Sink::new()));
        w.engine
            .post(SimTime(500), w.client, Box::new("kick".to_string()));
        // Kick off a timer chain via a packet-free path: arm via message is
        // not exposed, so drive a timer through a self-posted message first.
        struct Kicker;
        // Simplest: run and then arm timers directly through dispatch.
        w.engine.run_to_completion();
        let _ = Kicker;
        {
            let sink = w.engine.host_as::<Sink>(w.client).unwrap();
            assert_eq!(sink.messages, vec![SimTime(500)]);
        }
        // Arm a timer chain: token increments until 3 (see Sink::on_timer).
        w.engine.push(
            SimTime(1_000),
            EventKind::HostTimer {
                node: w.client,
                token: 0,
            },
        );
        w.engine.run_to_completion();
        let sink = w.engine.host_as::<Sink>(w.client).unwrap();
        assert_eq!(
            sink.timers.iter().map(|&(_, t)| t).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(sink.timers[3].0, SimTime(4_000));
    }

    #[test]
    fn unroutable_packets_counted() {
        let mut w = world();
        w.engine.inject(
            SimTime::ZERO,
            w.client,
            udp_packet(w.client_addr, Ipv4Addr::new(203, 0, 113, 99), 64, b"void"),
        );
        w.engine.run_to_completion();
        assert_eq!(w.engine.stats().packets_dropped_unroutable, 1);
        assert_eq!(w.engine.stats().packets_delivered, 0);
    }

    #[test]
    fn deterministic_event_order() {
        let run = || {
            let mut w = world();
            w.engine.add_host(
                w.server,
                Box::new(Echo {
                    addr: w.server_addr,
                    received: Vec::new(),
                }),
            );
            w.engine.add_host(w.client, Box::new(Sink::new()));
            for i in 0..10u64 {
                w.engine.inject(
                    SimTime(i * 3),
                    w.client,
                    udp_packet(w.client_addr, w.server_addr, DEFAULT_TTL, &i.to_be_bytes()),
                );
            }
            w.engine.run_to_completion();
            w.engine
                .host_as::<Sink>(w.client)
                .unwrap()
                .received
                .iter()
                .map(|(t, p)| (*t, p.payload.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// A host with a TCP stack: accepts on port 80, connects to a posted
    /// address, and logs every TCP event.
    #[derive(Clone)]
    struct TcpPeer {
        addr: Ipv4Addr,
        tcp: TcpStack,
        events: Vec<TcpEvent>,
    }

    impl TcpPeer {
        fn new(addr: Ipv4Addr) -> Self {
            let mut tcp = TcpStack::new(3);
            tcp.listen(80);
            Self {
                addr,
                tcp,
                events: Vec::new(),
            }
        }

        fn emit(&self, peer: Ipv4Addr, out: Vec<TcpSegment>, ctx: &mut Ctx<'_>) {
            for seg in out {
                let pkt = Ipv4Packet::new(self.addr, peer, IpProtocol::Tcp, 64, 1, seg.encode());
                ctx.send(pkt);
            }
        }
    }

    impl Host for TcpPeer {
        fn on_packet(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx<'_>) {
            let Ok(Transport::Tcp(seg)) = Transport::parse(&pkt) else {
                return;
            };
            let mut out = Vec::new();
            let events = self.tcp.on_segment(pkt.header.src, seg, &mut out);
            self.events.extend(events);
            self.emit(pkt.header.src, out, ctx);
        }

        fn on_message(&mut self, msg: Box<dyn Any + Send + Sync>, ctx: &mut Ctx<'_>) {
            let peer = *msg.downcast::<Ipv4Addr>().expect("a peer address");
            let mut out = Vec::new();
            self.tcp.connect(peer, 80, &mut out).expect("a free port");
            self.emit(peer, out, ctx);
        }
    }

    /// What one engine's TCP peers and counters hold.
    fn tcp_state(engine: &Engine, w: &World) -> (SimTime, EngineStats, Vec<TcpEvent>, [usize; 2]) {
        let peer = |node| engine.host_as::<TcpPeer>(node).unwrap();
        let (client, server) = (peer(w.client), peer(w.server));
        let events = client
            .events
            .iter()
            .chain(&server.events)
            .cloned()
            .collect();
        let live = [
            client.tcp.active_connections(),
            server.tcp.active_connections(),
        ];
        (engine.now(), engine.stats().clone(), events, live)
    }

    #[test]
    fn fork_and_source_evolve_independently() {
        let mut w = world();
        w.engine
            .add_host(w.client, Box::new(TcpPeer::new(w.client_addr)));
        w.engine
            .add_host(w.server, Box::new(TcpPeer::new(w.server_addr)));
        w.engine
            .post(SimTime::ZERO, w.client, Box::new(w.server_addr));
        w.engine.run_to_completion();
        let source = tcp_state(&w.engine, &w);
        assert_eq!(source.3, [1, 1], "one connection, both ends");

        let mut fork = w.engine.fork();
        assert_eq!(fork.now(), w.engine.now());
        assert_eq!(fork.stats(), &EngineStats::default());
        // A connection opened in the fork leaves the source untouched.
        fork.post(fork.now(), w.client, Box::new(w.server_addr));
        fork.run_to_completion();
        assert_eq!(tcp_state(&w.engine, &w), source);
        let forked = tcp_state(&fork, &w);
        assert_eq!(forked.3, [2, 2], "the fork kept the source's connection");

        // The same connection opened in the source: the source now matches
        // the fork, whose counters cover only what it ran itself, and the
        // fork stays as it was.
        w.engine
            .post(w.engine.now(), w.client, Box::new(w.server_addr));
        w.engine.run_to_completion();
        let after = tcp_state(&w.engine, &w);
        assert_eq!(
            (after.0, &after.2, after.3),
            (forked.0, &forked.2, forked.3)
        );
        assert_eq!(
            after.1.events_processed - source.1.events_processed,
            forked.1.events_processed
        );
        assert_eq!(
            after.1.packets_delivered - source.1.packets_delivered,
            forked.1.packets_delivered
        );
        assert_eq!(tcp_state(&fork, &w), forked);
    }

    #[test]
    #[should_panic(expected = "queued events; only an idle engine forks")]
    fn fork_refuses_a_queued_event() {
        let mut w = world();
        w.engine.post(SimTime(5), w.client, Box::new(()));
        let _ = w.engine.fork();
    }

    #[test]
    #[should_panic(expected = "telemetry is installed")]
    fn fork_refuses_installed_telemetry() {
        let mut w = world();
        w.engine.set_telemetry(Telemetry::metrics_only(0));
        let _ = w.engine.fork();
    }

    #[test]
    #[should_panic(expected = "a fault conditioner is installed")]
    fn fork_refuses_a_conditioner() {
        let mut w = world();
        w.engine
            .set_conditioner(Some(Arc::new(LinkConditioner::new(7))));
        let _ = w.engine.fork();
    }

    #[test]
    fn released_storage_runs_like_kept_storage() {
        let run_twice = |release: bool| {
            let mut w = world();
            w.engine
                .add_host(w.client, Box::new(TcpPeer::new(w.client_addr)));
            w.engine
                .add_host(w.server, Box::new(TcpPeer::new(w.server_addr)));
            w.engine
                .post(SimTime::ZERO, w.client, Box::new(w.server_addr));
            w.engine.run_to_completion();
            let routes = w.engine.route_cache.len();
            assert!(routes > 0);
            if release {
                w.engine.release_queue_storage();
                assert_eq!(w.engine.scratch_actions.capacity(), 0);
                assert_eq!(w.engine.batch.capacity(), 0);
                assert_eq!(w.engine.route_cache.len(), routes, "the memo stays");
            }
            w.engine
                .post(w.engine.now(), w.client, Box::new(w.server_addr));
            w.engine.run_to_completion();
            tcp_state(&w.engine, &w)
        };
        assert_eq!(run_twice(true), run_twice(false));
    }

    #[test]
    #[should_panic(expected = "queued events; only an idle engine releases")]
    fn release_refuses_a_queued_event() {
        let mut w = world();
        w.engine.post(SimTime(5), w.client, Box::new(()));
        w.engine.release_queue_storage();
    }

    #[test]
    fn tap_labels_name_every_ip_protocol() {
        for n in 0..=u8::MAX {
            let proto = IpProtocol::from_number(n);
            let name = match proto {
                IpProtocol::Icmp => "ICMP".to_string(),
                IpProtocol::Tcp => "TCP".to_string(),
                IpProtocol::Udp => "UDP".to_string(),
                IpProtocol::Other(n) => format!("IP({n})"),
            };
            assert_eq!(IpLabel::new(proto.number()).to_string(), name);
        }
    }

    #[test]
    fn blackhole_address_swallows_silently() {
        // A host node with no bound Host: the pair-resolver shape.
        let mut w = world();
        w.engine.inject(
            SimTime::ZERO,
            w.client,
            udp_packet(w.client_addr, w.server_addr, DEFAULT_TTL, b"unanswered"),
        );
        w.engine.run_to_completion();
        assert_eq!(w.engine.stats().packets_delivered, 1);
        // Nothing came back, no crash: the client had no host either.
    }
}
