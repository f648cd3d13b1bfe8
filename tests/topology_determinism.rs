//! The shadow-topo guarantees, enforced end to end:
//!
//! 1. **Router-graph determinism.** The Phase II router-graph
//!    reconstruction serializes byte-identically for K∈{1,4} shard
//!    counts, with and without a fault profile — the per-shard builders
//!    fold disjoint probe-path sets and `absorb` is commutative, so the
//!    merged graph cannot depend on shard scheduling.
//!
//! 2. **LPM/scan equivalence.** The treebitmap trie behind `GeoDb::lookup`
//!    answers exactly like the old sorted-vec backward scan (kept as
//!    `GeoScanIndex`) on the standard world: asn/country/hosting agree on
//!    every routed address and on adversarial probes around every prefix
//!    boundary.
//!
//! 3. **Routing is pinned.** Every host-to-address route of the standard
//!    world, the latency of every link on those routes and every AS path
//!    fold into pinned counts and an FNV-1a digest, so a change to how
//!    routes are computed cannot move a single hop unnoticed.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use traffic_shadowing::shadow_chaos::FaultProfile;
use traffic_shadowing::shadow_core::world::{generate_spec, WorldConfig};
use traffic_shadowing::shadow_netsim::fault::fnv1a64;
use traffic_shadowing::study::{Study, StudyConfig};

fn graph_json(outcome: &traffic_shadowing::study::StudyOutcome) -> String {
    serde_json::to_string(&outcome.router_graph).expect("router graph serializes")
}

#[test]
fn router_graph_identical_across_shard_counts() {
    let sequential = Study::run(StudyConfig::tiny(7));
    assert!(
        sequential.router_graph.observations > 0,
        "tiny study must reveal hops"
    );
    let expected = graph_json(&sequential);
    for k in [1, 4] {
        let sharded = Study::run_sharded(StudyConfig::tiny(7), k);
        assert_eq!(
            expected,
            graph_json(&sharded),
            "K={k}: router graph diverges from sequential"
        );
    }
}

#[test]
fn router_graph_identical_across_shard_counts_under_faults() {
    let profile = FaultProfile {
        loss: 0.02,
        icmp_rate_limit: 0.5,
        fault_seed: 3,
        ..FaultProfile::baseline("topo-faults")
    };
    let config = || StudyConfig::tiny(7).with_faults(profile.clone());
    let sequential = Study::run(config());
    let expected = graph_json(&sequential);
    // Rate limiting must actually bite, or this test collapses into the
    // fault-free one above.
    let baseline = Study::run(StudyConfig::tiny(7));
    assert!(
        sequential.router_graph.observations < baseline.router_graph.observations,
        "ICMP rate limiting should suppress some Time-Exceeded answers"
    );
    for k in [1, 4] {
        let sharded = Study::run_sharded(config(), k);
        assert_eq!(
            expected,
            graph_json(&sharded),
            "K={k}: faulted router graph diverges from sequential"
        );
    }
}

#[test]
fn trie_agrees_with_scan_reference_on_the_standard_world() {
    let spec = generate_spec(WorldConfig::standard(7));
    let world = spec.instantiate();
    let db = &world.geo;
    let scan = db.scan_index();
    assert!(db.len() > 100, "standard world should carry a real table");

    let mut probes: Vec<Ipv4Addr> = Vec::new();
    // Every routed node address (the acceptance bar), plus adversarial
    // probes around every prefix boundary: base-1, base, base+1, last,
    // last+1 — the addresses where the old /8-bounded backward scan and
    // a trie could plausibly disagree.
    for node in world.engine.topology().nodes() {
        probes.push(node.addr);
    }
    for record in db.iter() {
        let base = record.prefix.base_u32();
        let span = if record.prefix.len() == 0 {
            u32::MAX
        } else {
            (1u64 << (32 - record.prefix.len()) as u64).wrapping_sub(1) as u32
        };
        let last = base.saturating_add(span);
        for probe in [
            base.wrapping_sub(1),
            base,
            base.wrapping_add(1),
            last,
            last.wrapping_add(1),
        ] {
            probes.push(Ipv4Addr::from(probe));
        }
    }

    for addr in probes {
        let via_trie = db
            .lookup(addr)
            .map(|r| (r.prefix, r.asn, r.country, r.hosting));
        let via_scan = scan
            .lookup(addr)
            .map(|r| (r.prefix, r.asn, r.country, r.hosting));
        assert_eq!(via_trie, via_scan, "lookup({addr}) diverges from the scan");
    }
}

/// `generate_spec(WorldConfig::standard(7))`'s routing: routes (host node
/// × registered host address), links on those routes, AS paths (every
/// ordered pair of ASes holding a node), and the FNV-1a digest of all
/// three.
const PINNED_ROUTING: (usize, usize, usize, u64) =
    (142_396, 923_221, 78_961, 0x8f53_2836_9b78_69ba);

#[test]
fn standard_world_routing_is_pinned() {
    let spec = generate_spec(WorldConfig::standard(7));
    let topo = spec.world().engine.topology();
    let hosts: Vec<_> = topo.nodes().filter(|n| !n.is_router()).collect();
    // Every address a host answers on: its own, plus the resolver egress
    // aliases the world registers one or two above a service address.
    // Anycast addresses appear once, with every instance behind them.
    let mut addrs = BTreeSet::new();
    for host in &hosts {
        let [a, b, c, d] = host.addr.octets();
        for bump in 0..=2u8 {
            let addr = Ipv4Addr::new(a, b, c, d.wrapping_add(bump));
            let at = topo.nodes_at(addr);
            if !at.is_empty() && at.iter().all(|&n| !topo.node(n).is_router()) {
                addrs.insert(addr);
            }
        }
    }
    let primary: BTreeSet<_> = hosts.iter().map(|h| h.addr).collect();
    assert!(
        addrs.len() > primary.len(),
        "the standard world registers egress aliases"
    );
    assert!(
        addrs.iter().any(|&a| topo.nodes_at(a).len() > 1),
        "the standard world has an anycast address"
    );

    let mut bytes = Vec::new();
    let (mut routes, mut links) = (0, 0);
    for host in &hosts {
        for &addr in &addrs {
            routes += 1;
            bytes.extend_from_slice(&host.id.0.to_le_bytes());
            bytes.extend_from_slice(&addr.octets());
            let Some(route) = topo.route_to_addr(host.id, addr) else {
                bytes.push(0xff);
                continue;
            };
            bytes.extend_from_slice(&(route.len() as u32).to_le_bytes());
            for node in route.iter() {
                bytes.extend_from_slice(&node.0.to_le_bytes());
            }
            for pair in route.windows(2) {
                links += 1;
                bytes.extend_from_slice(&topo.latency_ms(pair[0], pair[1]).to_le_bytes());
            }
        }
    }
    let ases: BTreeSet<_> = topo.nodes().map(|n| n.asn).collect();
    let mut paths = 0;
    for &src in &ases {
        for &dst in &ases {
            paths += 1;
            match topo.as_path(src, dst) {
                Some(path) => {
                    bytes.extend_from_slice(&(path.len() as u32).to_le_bytes());
                    for asn in path {
                        bytes.extend_from_slice(&asn.0.to_le_bytes());
                    }
                }
                None => bytes.push(0xff),
            }
        }
    }
    assert_eq!(
        (routes, links, paths, fnv1a64(&bytes)),
        PINNED_ROUTING,
        "standard-world routing moved"
    );
}
