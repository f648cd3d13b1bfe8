//! Appendix E integration tests: the pre-flight checks must catch planted
//! defects — TTL-rewriting VPN egress and on-path DNS interception — and
//! the interception filter must keep replicated queries out of the
//! shadowing counts — and, on the paper-shaped world, the pre-flight's
//! outcome and engine work are pinned.

use traffic_shadowing::shadow_core::noise::NoiseFilter;
use traffic_shadowing::shadow_core::world::{generate_spec, World, WorldConfig};
use traffic_shadowing::shadow_geo::country::cc;
use traffic_shadowing::shadow_netsim::engine::EngineStats;
use traffic_shadowing::shadow_netsim::fault::fnv1a64;
use traffic_shadowing::shadow_telemetry::Telemetry;
use traffic_shadowing::shadow_vantage::platform::ExclusionReason;
use traffic_shadowing::shadow_vantage::vp::VantagePointHost;

#[test]
fn ttl_preflight_catches_rewriting_egress() {
    let mut world = World::build(WorldConfig::tiny(77));
    // Sabotage two VPs with TTL-rewriting egresses.
    let victims: Vec<_> = world.platform.vps.iter().take(2).cloned().collect();
    for victim in &victims {
        world.engine.add_host(
            victim.node,
            Box::new(VantagePointHost::new(victim.addr, 9, Some(64))),
        );
    }
    let deltas = NoiseFilter::ttl_preflight(&mut world);
    assert_eq!(deltas.len(), world.platform.vps.len(), "every VP measured");
    for victim in &victims {
        let delta = deltas
            .iter()
            .find(|(id, _)| *id == victim.id)
            .map(|&(_, d)| d)
            .expect("victim measured");
        assert_eq!(delta, 0, "rewritten TTLs collapse the delta");
    }
    let clean = deltas
        .iter()
        .filter(|(id, _)| !victims.iter().any(|v| v.id == *id))
        .all(|&(_, d)| d == NoiseFilter::expected_delta());
    assert!(clean, "clean VPs measure the expected delta");

    let mut platform = std::mem::take(&mut world.platform);
    platform.vet_ttl_rewrite(&deltas, NoiseFilter::expected_delta());
    for victim in &victims {
        assert!(platform.get(victim.id).is_none(), "victim excluded");
        assert!(platform
            .excluded
            .iter()
            .any(|(id, r)| *id == victim.id && *r == ExclusionReason::TtlRewrite));
    }
}

#[test]
fn pair_resolver_test_flags_only_intercepted_vps() {
    let mut world = World::build(WorldConfig::tiny(78));
    assert!(
        !world.ground_truth.interceptor_nodes.is_empty(),
        "tiny world plants an interceptor"
    );
    let intercepted = NoiseFilter::pair_resolver_test(&mut world);
    // Interceptors sit on CN cloud edges, so every flagged VP is CN-side.
    for id in &intercepted {
        let vp = world.platform.get(*id).expect("still on the platform");
        assert_eq!(vp.country, cc("CN"), "only CN VPs sit behind the middlebox");
    }
    // And VPs whose egress cloud carries the interceptor are flagged.
    let interceptor_ases: Vec<_> = world
        .ground_truth
        .interceptor_nodes
        .iter()
        .map(|n| world.engine.topology().node(*n).asn)
        .collect();
    for vp in &world.platform.vps {
        let vp_as = world.engine.topology().node(vp.node).asn;
        if interceptor_ases.contains(&vp_as) {
            assert!(
                intercepted.contains(&vp.id),
                "VP behind an interceptor cloud must be flagged"
            );
        }
    }
}

#[test]
fn run_and_apply_removes_flagged_vps_from_table1() {
    let mut world = World::build(WorldConfig::tiny(79));
    let before = world.platform.vps.len();
    let outcome = NoiseFilter::run_and_apply(&mut world);
    assert_eq!(
        world.platform.vps.len() + outcome.intercepted.len(),
        before,
        "interception is the only exclusion for clean providers"
    );
    // Table 1 counts only surviving VPs.
    let rows = world.platform.table1(&world.geo);
    let total_row = rows.last().expect("total row");
    assert_eq!(total_row.vps, world.platform.vps.len());
}

#[test]
fn interceptor_free_world_excludes_nothing() {
    let mut world = World::build(WorldConfig {
        interceptors: 0,
        ..WorldConfig::tiny(80)
    });
    let outcome = NoiseFilter::run_and_apply(&mut world);
    assert!(outcome.intercepted.is_empty());
    assert!(world.platform.excluded.is_empty());
}

/// `WorldConfig::paper_scale(7)` with the VP and site axes divided by 4:
/// the world the benchmark's `paper_setup` workload pre-flights.
fn paper_setup_world() -> WorldConfig {
    let paper = WorldConfig::paper_scale(7);
    WorldConfig {
        vps_global: paper.vps_global / 4,
        vps_cn: paper.vps_cn / 4,
        tranco_sites: paper.tranco_sites / 4,
        ..paper
    }
}

#[test]
fn paper_shaped_preflight_is_pinned() {
    let spec = generate_spec(paper_setup_world());

    // The TTL check alone, on its own fresh world.
    let mut ttl_only = spec.instantiate();
    NoiseFilter::ttl_preflight(&mut ttl_only);
    assert_eq!(
        ttl_only.engine.stats().events_processed,
        15_852,
        "TTL events"
    );

    let mut world = spec.instantiate();
    world.engine.set_telemetry(Telemetry::metrics_only(0));
    let vps = world.platform.vps.len();
    let outcome = NoiseFilter::run_and_apply(&mut world);
    assert_eq!(outcome.ttl_deltas.len(), vps, "every VP measured");
    assert!(
        outcome
            .ttl_deltas
            .iter()
            .all(|&(_, d)| d == NoiseFilter::expected_delta()),
        "no generated egress rewrites TTLs"
    );
    let ids: String = outcome
        .intercepted
        .iter()
        .map(|id| format!("{},", id.0))
        .collect();
    assert_eq!(
        (
            vps,
            outcome.intercepted.len(),
            fnv1a64(ids.as_bytes()),
            world.platform.vps.len()
        ),
        (1_090, 68, 0xbafd_ace7_4a31_0315, 1_022),
        "(VPs, intercepted, digest of their ids, vetted)"
    );
    // 15,852 events of the TTL check and 160,806 of the pair-resolver
    // test; the 1,360 tap drops are the interceptors swallowing queries.
    assert_eq!(
        world.engine.stats(),
        &EngineStats {
            events_processed: 176_658,
            packets_sent: 25_340,
            packets_delivered: 23_980,
            packets_dropped_unroutable: 0,
            packets_dropped_by_tap: 1_360,
            ttl_expirations: 0,
            icmp_time_exceeded_sent: 0,
            icmp_suppressed: 0,
        }
    );
    // The route memo misses once per (sender AS, address): 1,090 VPs sit
    // in 87 ASes.
    let misses = world.engine.telemetry().metrics().expect("installed");
    assert_eq!(
        misses.topo_lookups.get(),
        1_895,
        "pre-flight route-memo misses"
    );
}
