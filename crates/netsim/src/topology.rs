//! Network topology: ASes, routers, hosts, routing, latency.
//!
//! Routing is computed at the AS level (BFS shortest path with deterministic
//! tie-breaking over a symmetric peering graph) and expanded into a
//! router-level hop sequence. The expansion is deterministic per
//! (AS, previous AS, next AS), so a given client–server pair always traverses
//! the identical hop sequence — the property Phase-II hop-by-hop tracerouting
//! depends on (the paper assumes stable paths during a TTL sweep).
//!
//! Anycast services (e.g. 114DNS's CN and US instances, Section 5.1 case
//! study II) register several host nodes under one address; routing delivers
//! to an instance in the client's region first, then the one closest in AS
//! hops, as regional BGP anycast catchments do.
//!
//! Anycast selection, the AS path and its expansion read only the sender's
//! AS, so a route from an AS to an address ([`Topology::route_tail`]) serves
//! every sender in that AS.

use serde::{Deserialize, Serialize};
use shadow_geo::{Asn, Region};
use shadow_topo::IpLookupTable;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock};

/// Index of a node (router or host) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Forwarding device. `responds_icmp` mirrors the paper's limitation
    /// that some hops never answer traceroute probes.
    Router { responds_icmp: bool },
    /// Endpoint that terminates traffic (VP, resolver, honeypot, ...).
    Host,
}

/// One node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    pub id: NodeId,
    pub addr: Ipv4Addr,
    pub asn: Asn,
    pub kind: NodeKind,
}

impl Node {
    pub fn is_router(&self) -> bool {
        matches!(self.kind, NodeKind::Router { .. })
    }

    pub fn responds_icmp(&self) -> bool {
        matches!(
            self.kind,
            NodeKind::Router {
                responds_icmp: true
            }
        )
    }
}

/// Coarse link classification used by the latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkClass {
    IntraAs,
    InterAsSameRegion,
    InterRegion,
}

/// Errors surfaced while assembling a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    UnknownAs(Asn),
    /// An AS hosts endpoints but has no router to carry their traffic.
    NoRouters(Asn),
    DuplicateLink(Asn, Asn),
    SelfLink(Asn),
    UnknownNode(NodeId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownAs(a) => write!(f, "unknown AS {a}"),
            TopologyError::NoRouters(a) => write!(f, "{a} has hosts but no routers"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link {a}-{b}"),
            TopologyError::SelfLink(a) => write!(f, "self link on {a}"),
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
        }
    }
}

impl std::error::Error for TopologyError {}

#[derive(Debug, Clone)]
struct AsEntry {
    region: Region,
    routers: Vec<NodeId>,
    hosts: Vec<NodeId>,
}

/// Incremental topology assembly.
#[derive(Debug)]
pub struct TopologyBuilder {
    seed: u64,
    nodes: Vec<Node>,
    ases: BTreeMap<Asn, AsEntry>,
    links: BTreeSet<(Asn, Asn)>,
    addr_map: HashMap<Ipv4Addr, Vec<NodeId>>,
}

impl TopologyBuilder {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            nodes: Vec::new(),
            ases: BTreeMap::new(),
            links: BTreeSet::new(),
            addr_map: HashMap::new(),
        }
    }

    /// Register an AS. Idempotent for the same `asn`.
    pub fn add_as(&mut self, asn: Asn, region: Region) {
        self.ases.entry(asn).or_insert(AsEntry {
            region,
            routers: Vec::new(),
            hosts: Vec::new(),
        });
    }

    /// Symmetric peering/transit link between two ASes.
    pub fn link(&mut self, a: Asn, b: Asn) -> Result<(), TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLink(a));
        }
        if !self.ases.contains_key(&a) {
            return Err(TopologyError::UnknownAs(a));
        }
        if !self.ases.contains_key(&b) {
            return Err(TopologyError::UnknownAs(b));
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if !self.links.insert(key) {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        Ok(())
    }

    /// True if the link already exists.
    pub fn has_link(&self, a: Asn, b: Asn) -> bool {
        let key = if a < b { (a, b) } else { (b, a) };
        self.links.contains(&key)
    }

    fn push_node(
        &mut self,
        addr: Ipv4Addr,
        asn: Asn,
        kind: NodeKind,
    ) -> Result<NodeId, TopologyError> {
        if !self.ases.contains_key(&asn) {
            return Err(TopologyError::UnknownAs(asn));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            addr,
            asn,
            kind,
        });
        self.addr_map.entry(addr).or_default().push(id);
        Ok(id)
    }

    /// Add a forwarding router inside `asn`.
    pub fn add_router(
        &mut self,
        asn: Asn,
        addr: Ipv4Addr,
        responds_icmp: bool,
    ) -> Result<NodeId, TopologyError> {
        let id = self.push_node(addr, asn, NodeKind::Router { responds_icmp })?;
        self.ases
            .get_mut(&asn)
            .expect("checked by push_node")
            .routers
            .push(id);
        Ok(id)
    }

    /// Add an endpoint host inside `asn`. Registering several hosts under
    /// the same address forms an anycast group.
    pub fn add_host(&mut self, asn: Asn, addr: Ipv4Addr) -> Result<NodeId, TopologyError> {
        let id = self.push_node(addr, asn, NodeKind::Host)?;
        self.ases
            .get_mut(&asn)
            .expect("checked by push_node")
            .hosts
            .push(id);
        Ok(id)
    }

    /// Router nodes registered so far for an AS (in insertion order) —
    /// world builders need these before the topology is frozen, e.g. to
    /// attach wire taps. Borrows, matching [`Topology::routers_of`].
    pub fn routers_of(&self, asn: Asn) -> &[NodeId] {
        self.ases
            .get(&asn)
            .map(|e| e.routers.as_slice())
            .unwrap_or(&[])
    }

    /// Register an additional address for an existing node (e.g. a
    /// resolver instance's unicast egress address next to its anycast
    /// service address — upstream answers must come back to the same
    /// instance that asked).
    pub fn add_alias(&mut self, node: NodeId, addr: Ipv4Addr) -> Result<(), TopologyError> {
        if node.0 as usize >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(node));
        }
        self.addr_map.entry(addr).or_default().push(node);
        Ok(())
    }

    /// Validate and freeze the graph into dense tables. ASes get dense
    /// indices in ascending ASN order, so index order is ASN order: a
    /// BFS that visits neighbours by index visits them by ASN.
    pub fn build(self) -> Result<Topology, TopologyError> {
        for (&asn, entry) in &self.ases {
            if !entry.hosts.is_empty() && entry.routers.is_empty() {
                return Err(TopologyError::NoRouters(asn));
            }
        }
        let mut ases: Vec<AsTable> = self
            .ases
            .into_iter()
            .map(|(asn, entry)| AsTable {
                asn,
                region: entry.region,
                routers: entry.routers,
                neighbors: Vec::new(),
                bfs: OnceLock::new(),
            })
            .collect();
        for &(a, b) in &self.links {
            let [a, b] =
                [a, b].map(|asn| index_of(&ases, asn).expect("linked ASes are registered"));
            ases[a as usize].neighbors.push(b);
            ases[b as usize].neighbors.push(a);
        }
        for entry in &mut ases {
            // Ascending index is ascending ASN: the BFS visits neighbours
            // in ASN order.
            entry.neighbors.sort_unstable();
        }
        let node_as = self
            .nodes
            .iter()
            .map(|n| index_of(&ases, n.asn).expect("node AS registered"))
            .collect();
        // Freeze the address map into the LPM table as /32 entries (node
        // addresses are hosts, not prefixes — exact match semantics are
        // preserved). Sorted insertion keeps the trie's internal layout
        // independent of builder call order.
        let mut by_addr: Vec<(Ipv4Addr, Vec<NodeId>)> = self.addr_map.into_iter().collect();
        by_addr.sort_by_key(|(addr, _)| u32::from(*addr));
        let addr_map = by_addr
            .into_iter()
            .map(|(addr, ids)| (addr, 32, ids))
            .collect();
        Ok(Topology {
            tables: Arc::new(Tables {
                seed: self.seed,
                nodes: self.nodes,
                node_as,
                ases,
                addr_map,
            }),
        })
    }
}

/// Dense index of `asn` in an ASN-sorted AS table.
fn index_of(ases: &[AsTable], asn: Asn) -> Option<u32> {
    ases.binary_search_by_key(&asn, |e| e.asn)
        .ok()
        .map(|i| i as u32)
}

/// Marks an AS a BFS tree does not reach.
const UNREACHED: u32 = u32::MAX;

/// BFS tree rooted at one AS, indexed by dense AS index: hop distance
/// and parent ([`UNREACHED`] where there is none).
#[derive(Debug)]
struct BfsTree {
    dist: Vec<u32>,
    parent: Vec<u32>,
}

/// One AS of the frozen graph, at its dense index.
#[derive(Debug)]
struct AsTable {
    asn: Asn,
    region: Region,
    routers: Vec<NodeId>,
    /// Dense indices of the peers, ascending (= ascending ASN).
    neighbors: Vec<u32>,
    /// BFS tree rooted here, built on first use.
    bfs: OnceLock<BfsTree>,
}

/// Everything [`Topology`] reads, frozen by [`TopologyBuilder::build`].
#[derive(Debug)]
struct Tables {
    seed: u64,
    nodes: Vec<Node>,
    /// Dense AS index of every node.
    node_as: Vec<u32>,
    /// Every AS, in ascending ASN order.
    ases: Vec<AsTable>,
    /// Address → anycast group, frozen into the LPM trie at build time
    /// (every entry a /32; the per-packet destination resolutions the
    /// engine's route cache misses on go through this table).
    addr_map: IpLookupTable<Vec<NodeId>>,
}

/// The frozen network graph plus routing machinery.
///
/// Cloning shares the frozen tables, BFS trees included: a clone (and so
/// every `Engine::fork`) routes from the trees any other clone already
/// built. Route tails are memoized per engine, not here — see the
/// engine's route cache.
#[derive(Debug, Clone)]
pub struct Topology {
    tables: Arc<Tables>,
}

impl Topology {
    pub fn node(&self, id: NodeId) -> &Node {
        &self.tables.nodes[id.0 as usize]
    }

    pub fn node_count(&self) -> usize {
        self.tables.nodes.len()
    }

    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.tables.nodes.iter()
    }

    /// All nodes registered under `addr` (several for anycast).
    pub fn nodes_at(&self, addr: Ipv4Addr) -> &[NodeId] {
        self.tables
            .addr_map
            .exact_match(addr, 32)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn as_entry(&self, index: u32) -> &AsTable {
        &self.tables.ases[index as usize]
    }

    /// Dense index of `node`'s AS: the sender key of
    /// [`Topology::route_tail`] and [`Topology::select_instance`].
    pub fn as_index(&self, node: NodeId) -> u32 {
        self.tables.node_as[node.0 as usize]
    }

    /// Routers of one AS (used to attach wire taps).
    pub fn routers_of(&self, asn: Asn) -> &[NodeId] {
        index_of(&self.tables.ases, asn)
            .map(|i| self.as_entry(i).routers.as_slice())
            .unwrap_or(&[])
    }

    fn bfs_from(&self, root: u32) -> &BfsTree {
        self.as_entry(root).bfs.get_or_init(|| {
            let n = self.tables.ases.len();
            let mut dist = vec![UNREACHED; n];
            let mut parent = vec![UNREACHED; n];
            dist[root as usize] = 0;
            // Every AS is queued at most once: the order vector is the
            // queue, `head` its front.
            let mut queue = vec![root];
            let mut head = 0;
            while let Some(&cur) = queue.get(head) {
                head += 1;
                let d = dist[cur as usize] + 1;
                for &next in &self.as_entry(cur).neighbors {
                    if dist[next as usize] == UNREACHED {
                        dist[next as usize] = d;
                        parent[next as usize] = cur;
                        queue.push(next);
                    }
                }
            }
            BfsTree { dist, parent }
        })
    }

    /// Dense AS path from `src` to `dst` (inclusive), or `None` if
    /// disconnected.
    fn as_path_indices(&self, src: u32, dst: u32) -> Option<Vec<u32>> {
        let tree = self.bfs_from(src);
        let hops = tree.dist[dst as usize];
        if hops == UNREACHED {
            return None;
        }
        let mut path = vec![dst; hops as usize + 1];
        let mut cur = dst;
        for slot in path.iter_mut().rev().skip(1) {
            cur = tree.parent[cur as usize];
            *slot = cur;
        }
        Some(path)
    }

    /// AS-level path from `src_as` to `dst_as` (inclusive), or `None` if
    /// disconnected. Equal-length paths break ties towards the lower-ASN
    /// parent (the BFS visits neighbours in ASN order).
    pub fn as_path(&self, src_as: Asn, dst_as: Asn) -> Option<Vec<Asn>> {
        if src_as == dst_as {
            return Some(vec![src_as]);
        }
        let path = self.as_path_indices(
            index_of(&self.tables.ases, src_as)?,
            index_of(&self.tables.ases, dst_as)?,
        )?;
        Some(path.into_iter().map(|i| self.as_entry(i).asn).collect())
    }

    /// Pick the anycast instance of `addr` for a sender in the AS at
    /// dense index `src_as` ([`Topology::as_index`]): the client's own
    /// region first — BGP anycast catchments are regional — then the
    /// nearest in AS hops, then the lowest node id for determinism.
    pub fn select_instance(&self, src_as: u32, addr: Ipv4Addr) -> Option<NodeId> {
        let candidates = self.nodes_at(addr);
        if candidates.is_empty() {
            return None;
        }
        let src_region = self.as_entry(src_as).region;
        let tree = self.bfs_from(src_as);
        candidates
            .iter()
            .filter_map(|&id| {
                let asn = self.as_index(id);
                let region_penalty = u8::from(self.as_entry(asn).region != src_region);
                let d = tree.dist[asn as usize];
                (d != UNREACHED).then_some((region_penalty, d, id))
            })
            .min()
            .map(|(_, _, id)| id)
    }

    /// Routers an AS contributes to a path, chosen deterministically from
    /// the traversal context (the raw ASNs of the AS and its neighbours on
    /// the path) so the hop sequence is stable.
    fn expand_as(&self, index: u32, prev: Option<u32>, next: Option<u32>, out: &mut Vec<NodeId>) {
        let entry = self.as_entry(index);
        let routers = &entry.routers;
        if routers.is_empty() {
            return;
        }
        let asn_of = |i: Option<u32>| i.map(|i| self.as_entry(i).asn.0).unwrap_or(0) as u64;
        let h = mix3(
            self.tables.seed,
            entry.asn.0 as u64,
            asn_of(prev) << 32 | asn_of(next),
        );
        let n = routers.len();
        // Transit ASes contribute 1–2 routers; the terminal AS contributes
        // up to 2 as well (edge + border), keeping total hop counts in the
        // 5–15 range typical of real traceroutes.
        let take = 1 + (h as usize % 2.min(n));
        let mut idx = (h >> 8) as usize % n;
        // Stride is never ≡ 0 (mod n), so consecutive picks are distinct
        // routers — a route must not visit the same hop twice in a row.
        let stride = if n > 1 {
            1 + (h >> 16) as usize % (n - 1)
        } else {
            1
        };
        for _ in 0..take.min(n) {
            out.push(routers[idx]);
            idx = (idx + stride) % n;
        }
    }

    /// Append the hops from a sender in AS `src_as` to `dst`, the sender
    /// excluded: the routers each AS on the AS path contributes, then
    /// `dst`. `None` if the ASes are disconnected. Only the sender's AS
    /// is read, so every sender in one AS shares the hops.
    fn push_hops(&self, src_as: u32, dst: NodeId, hops: &mut Vec<NodeId>) -> Option<()> {
        let as_path = self.as_path_indices(src_as, self.as_index(dst))?;
        hops.reserve(2 * as_path.len() + 1);
        for (i, &asn) in as_path.iter().enumerate() {
            let prev = i.checked_sub(1).map(|p| as_path[p]);
            let next = as_path.get(i + 1).copied();
            self.expand_as(asn, prev, next, hops);
        }
        hops.push(dst);
        Some(())
    }

    /// Full node-level route from `src` to `dst` (both inclusive). `None`
    /// if the ASes are disconnected. Only routers lie between the two
    /// endpoints: an AS contributes routers only.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Arc<[NodeId]>> {
        if src == dst {
            return Some(Arc::from([src]));
        }
        let mut hops = vec![src];
        self.push_hops(self.as_index(src), dst, &mut hops)?;
        Some(hops.into())
    }

    /// Route from a sender in the AS at dense index `src_as` to `addr`,
    /// without the sender: anycast selection
    /// ([`Topology::select_instance`]), then the routers along the AS
    /// path, ending at the selected host. Every sender in the AS shares
    /// it; for the one sender it ends at, it stands for loopback.
    ///
    /// Pure computation (the AS-level BFS underneath is memoized in the
    /// shared tables); the engine memoizes whole tails per
    /// `(src_as, addr)` itself.
    pub fn route_tail(&self, src_as: u32, addr: Ipv4Addr) -> Option<Arc<[NodeId]>> {
        let dst = self.select_instance(src_as, addr)?;
        let mut hops = Vec::new();
        self.push_hops(src_as, dst, &mut hops)?;
        Some(hops.into())
    }

    /// Route from `src` to an address, resolving anycast first: `src`
    /// followed by [`Topology::route_tail`], or `[src]` alone when the
    /// tail ends at `src` (loopback).
    pub fn route_to_addr(&self, src: NodeId, addr: Ipv4Addr) -> Option<Arc<[NodeId]>> {
        let tail = self.route_tail(self.as_index(src), addr)?;
        if tail.last() == Some(&src) {
            return Some(Arc::from([src]));
        }
        Some(std::iter::once(src).chain(tail.iter().copied()).collect())
    }

    /// Classify the link between two adjacent path nodes.
    pub fn link_class(&self, a: NodeId, b: NodeId) -> LinkClass {
        let (as_a, as_b) = (self.as_index(a), self.as_index(b));
        if as_a == as_b {
            LinkClass::IntraAs
        } else if self.as_entry(as_a).region == self.as_entry(as_b).region {
            LinkClass::InterAsSameRegion
        } else {
            LinkClass::InterRegion
        }
    }

    /// Deterministic one-way latency of the (a, b) link in milliseconds.
    pub fn latency_ms(&self, a: NodeId, b: NodeId) -> u64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let h = mix3(self.tables.seed ^ 0x1a7e_c0de, lo.0 as u64, hi.0 as u64);
        match self.link_class(a, b) {
            LinkClass::IntraAs => 1 + h % 4,            // 1-4 ms
            LinkClass::InterAsSameRegion => 5 + h % 20, // 5-24 ms
            LinkClass::InterRegion => 40 + h % 80,      // 40-119 ms
        }
    }
}

/// SplitMix64-style deterministic mixing. Public because the fault layer
/// ([`crate::fault`]) derives per-packet fate from the same rule.
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(c);
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_geo::Region;

    fn addr(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    /// Three ASes in a chain: 100 (EU) — 200 (EU) — 300 (Asia).
    fn chain() -> (Topology, NodeId, NodeId) {
        let mut tb = TopologyBuilder::new(42);
        tb.add_as(Asn(100), Region::Europe);
        tb.add_as(Asn(200), Region::Europe);
        tb.add_as(Asn(300), Region::EastAsia);
        tb.link(Asn(100), Asn(200)).unwrap();
        tb.link(Asn(200), Asn(300)).unwrap();
        for (asn, base) in [(100u32, 10u8), (200, 20), (300, 30)] {
            for r in 0..3u8 {
                tb.add_router(Asn(asn), addr(base, 0, 0, r + 1), true)
                    .unwrap();
            }
        }
        let client = tb.add_host(Asn(100), addr(10, 1, 0, 1)).unwrap();
        let server = tb.add_host(Asn(300), addr(30, 1, 0, 1)).unwrap();
        (tb.build().unwrap(), client, server)
    }

    #[test]
    fn as_path_shortest() {
        let (topo, _, _) = chain();
        assert_eq!(
            topo.as_path(Asn(100), Asn(300)).unwrap(),
            vec![Asn(100), Asn(200), Asn(300)]
        );
        assert_eq!(topo.as_path(Asn(200), Asn(200)).unwrap(), vec![Asn(200)]);
    }

    /// A diamond, created and linked in the order that would favour the
    /// higher ASN: 100 — {300, 200} — 400, all in Europe.
    fn diamond() -> Topology {
        let mut tb = TopologyBuilder::new(5);
        for asn in [400u32, 300, 200, 100] {
            tb.add_as(Asn(asn), Region::Europe);
            tb.add_router(Asn(asn), addr((asn / 100) as u8, 0, 0, 1), true)
                .unwrap();
        }
        for (a, b) in [(300, 400), (100, 300), (400, 200), (200, 100)] {
            tb.link(Asn(a), Asn(b)).unwrap();
        }
        tb.build().unwrap()
    }

    #[test]
    fn equal_length_paths_break_ties_towards_the_lower_asn() {
        let topo = diamond();
        assert_eq!(
            topo.as_path(Asn(100), Asn(400)).unwrap(),
            vec![Asn(100), Asn(200), Asn(400)]
        );
        assert_eq!(
            topo.as_path(Asn(400), Asn(100)).unwrap(),
            vec![Asn(400), Asn(200), Asn(100)]
        );
        assert_eq!(
            topo.as_path(Asn(200), Asn(300)).unwrap(),
            vec![Asn(200), Asn(100), Asn(300)]
        );
    }

    #[test]
    fn as_path_of_an_unknown_asn_is_none_but_a_loop_is_itself() {
        let topo = diamond();
        assert_eq!(topo.as_path(Asn(100), Asn(999)), None);
        assert_eq!(topo.as_path(Asn(999), Asn(100)), None);
        assert_eq!(topo.as_path(Asn(100), Asn(100)), Some(vec![Asn(100)]));
        assert_eq!(topo.as_path(Asn(999), Asn(999)), Some(vec![Asn(999)]));
        assert!(topo.routers_of(Asn(999)).is_empty());
    }

    #[test]
    fn anycast_ties_go_to_the_client_region_then_the_lower_node() {
        // Client in AS100 (Europe). One hop away: AS200 and AS400 (Europe)
        // and AS300 (East Asia); two hops away, behind AS400: AS600
        // (Europe).
        let mut tb = TopologyBuilder::new(11);
        for (asn, region) in [
            (100u32, Region::Europe),
            (200, Region::Europe),
            (300, Region::EastAsia),
            (400, Region::Europe),
            (600, Region::Europe),
        ] {
            tb.add_as(Asn(asn), region);
            tb.add_router(Asn(asn), addr((asn / 100) as u8, 0, 0, 1), true)
                .unwrap();
        }
        for (a, b) in [(100, 200), (100, 300), (100, 400), (400, 600)] {
            tb.link(Asn(a), Asn(b)).unwrap();
        }
        let client = tb.add_host(Asn(100), addr(1, 1, 0, 1)).unwrap();
        let instances = |tb: &mut TopologyBuilder, last: u8, ases: &[u32]| {
            ases.iter()
                .map(|&asn| tb.add_host(Asn(asn), addr(99, 0, 0, last)).unwrap())
                .collect::<Vec<_>>()
        };
        // Equal distance: the client's region first, though the instance
        // abroad has the lower node id...
        let regional = instances(&mut tb, 1, &[300, 200]);
        // ...then, within the region, the lower node id.
        let split = instances(&mut tb, 2, &[400, 200]);
        // Within the region a nearer instance wins...
        let nearer = instances(&mut tb, 3, &[600, 200]);
        // ...and the region outranks distance.
        let home = instances(&mut tb, 4, &[300, 600]);
        let topo = tb.build().unwrap();
        let pick = |last| topo.select_instance(topo.as_index(client), addr(99, 0, 0, last));
        assert_eq!(pick(1), Some(regional[1]));
        assert_eq!(pick(2), Some(split[0]));
        assert_eq!(pick(3), Some(nearer[1]));
        assert_eq!(pick(4), Some(home[1]));
        assert_eq!(pick(9), None);
    }

    #[test]
    fn route_endpoints_and_routers_only() {
        let (topo, client, server) = chain();
        let route = topo.route(client, server).unwrap();
        assert_eq!(route[0], client);
        assert_eq!(*route.last().unwrap(), server);
        for &hop in &route[1..route.len() - 1] {
            assert!(topo.node(hop).is_router(), "{hop} must be a router");
        }
        // Chain of 3 ASes contributing 1-2 routers each: 3..=6 routers.
        let router_count = route.len() - 2;
        assert!((3..=6).contains(&router_count), "got {router_count}");
    }

    #[test]
    fn route_is_deterministic() {
        let (topo, client, server) = chain();
        let r1 = topo.route(client, server).unwrap();
        let r2 = topo.route(client, server).unwrap();
        assert_eq!(r1, r2, "recomputation yields the identical route");
    }

    #[test]
    fn route_to_self_is_loopback() {
        let (topo, client, _) = chain();
        let route = topo.route(client, client).unwrap();
        assert_eq!(route.as_ref(), &[client]);
    }

    #[test]
    fn disconnected_as_unroutable() {
        let mut tb = TopologyBuilder::new(1);
        tb.add_as(Asn(1), Region::Europe);
        tb.add_as(Asn(2), Region::Europe);
        tb.add_router(Asn(1), addr(1, 0, 0, 1), true).unwrap();
        tb.add_router(Asn(2), addr(2, 0, 0, 1), true).unwrap();
        let a = tb.add_host(Asn(1), addr(1, 1, 1, 1)).unwrap();
        let b = tb.add_host(Asn(2), addr(2, 1, 1, 1)).unwrap();
        let topo = tb.build().unwrap();
        assert!(topo.route(a, b).is_none());
    }

    #[test]
    fn anycast_picks_nearest_instance() {
        // Client in AS100; anycast addr served in AS100 and AS300.
        let mut tb = TopologyBuilder::new(9);
        tb.add_as(Asn(100), Region::Europe);
        tb.add_as(Asn(200), Region::Europe);
        tb.add_as(Asn(300), Region::EastAsia);
        tb.link(Asn(100), Asn(200)).unwrap();
        tb.link(Asn(200), Asn(300)).unwrap();
        for asn in [100u32, 200, 300] {
            tb.add_router(Asn(asn), addr((asn / 10) as u8, 0, 0, 1), true)
                .unwrap();
        }
        let client = tb.add_host(Asn(100), addr(10, 1, 0, 1)).unwrap();
        let anycast = addr(99, 9, 9, 9);
        let near = tb.add_host(Asn(100), anycast).unwrap();
        let far = tb.add_host(Asn(300), anycast).unwrap();
        let topo = tb.build().unwrap();
        assert_eq!(
            topo.select_instance(topo.as_index(client), anycast),
            Some(near)
        );
        let route = topo.route_to_addr(client, anycast).unwrap();
        assert_eq!(*route.last().unwrap(), near);
        assert_ne!(*route.last().unwrap(), far);
    }

    #[test]
    fn builder_rejects_bad_input() {
        let mut tb = TopologyBuilder::new(0);
        tb.add_as(Asn(1), Region::Europe);
        assert_eq!(
            tb.link(Asn(1), Asn(1)),
            Err(TopologyError::SelfLink(Asn(1)))
        );
        assert_eq!(
            tb.link(Asn(1), Asn(2)),
            Err(TopologyError::UnknownAs(Asn(2)))
        );
        tb.add_as(Asn(2), Region::Europe);
        tb.link(Asn(1), Asn(2)).unwrap();
        assert_eq!(
            tb.link(Asn(2), Asn(1)),
            Err(TopologyError::DuplicateLink(Asn(2), Asn(1)))
        );
        assert!(tb.add_router(Asn(3), addr(3, 0, 0, 1), true).is_err());
        // host without routers in its AS
        tb.add_host(Asn(1), addr(1, 1, 1, 1)).unwrap();
        assert_eq!(tb.build().unwrap_err(), TopologyError::NoRouters(Asn(1)));
    }

    #[test]
    fn latency_scales_with_link_class() {
        let (topo, client, server) = chain();
        let route = topo.route(client, server).unwrap();
        for pair in route.windows(2) {
            let ms = topo.latency_ms(pair[0], pair[1]);
            let class = topo.link_class(pair[0], pair[1]);
            match class {
                LinkClass::IntraAs => assert!((1..=4).contains(&ms)),
                LinkClass::InterAsSameRegion => assert!((5..=24).contains(&ms)),
                LinkClass::InterRegion => assert!((40..=119).contains(&ms)),
            }
            // symmetric
            assert_eq!(ms, topo.latency_ms(pair[1], pair[0]));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let build = |seed| {
            let mut tb = TopologyBuilder::new(seed);
            tb.add_as(Asn(100), Region::Europe);
            tb.add_as(Asn(200), Region::EastAsia);
            tb.link(Asn(100), Asn(200)).unwrap();
            for r in 0..4u8 {
                tb.add_router(Asn(100), addr(10, 0, 0, r + 1), true)
                    .unwrap();
                tb.add_router(Asn(200), addr(20, 0, 0, r + 1), true)
                    .unwrap();
            }
            let a = tb.add_host(Asn(100), addr(10, 1, 0, 1)).unwrap();
            let b = tb.add_host(Asn(200), addr(20, 1, 0, 1)).unwrap();
            let topo = tb.build().unwrap();
            topo.route(a, b).unwrap().to_vec()
        };
        // With 4 routers per AS there are many possible expansions; seeds
        // should eventually disagree.
        let baseline = build(1);
        let differs = (2..20).any(|s| build(s) != baseline);
        assert!(differs, "route expansion ignores the seed");
    }
}
