//! End-to-end smoke test of the whole measurement pipeline on a tiny world:
//! world build → pre-flight noise filtering → Phase I with capture-time
//! correlation → Phase II localization. Each stage's invariants are
//! checked against the world's ground truth.

use shadow_core::campaign::{CampaignData, CampaignRunner, Phase1Config};
use shadow_core::correlate::UnsolicitedLabel;
use shadow_core::decoy::DecoyProtocol;
use shadow_core::noise::NoiseFilter;
use shadow_core::phase2::{paths_to_trace_streamed, Phase2Config, Phase2Runner};
use shadow_core::sink::{IntervalHistogram, SinkConfig};
use shadow_core::world::{World, WorldConfig};
use shadow_netsim::time::SimDuration;

fn tiny_world(seed: u64) -> World {
    World::build(WorldConfig::tiny(seed))
}

fn phase1(world: &mut World, config: &Phase1Config) -> CampaignData {
    let plan = CampaignRunner::plan_phase1(world, config);
    CampaignRunner::execute_phase1(world, &plan, config, SinkConfig::streaming(), |_| true)
}

#[test]
fn world_builds_and_is_consistent() {
    let world = tiny_world(1);
    assert_eq!(world.dns_destinations.len(), 36, "Table 4 deployed in full");
    assert_eq!(world.honey_web.len(), 3, "US/DE/SG honeypots");
    assert_eq!(world.tranco.len(), world.config.tranco_sites);
    assert!(
        world.platform.vps.len() <= world.config.vps_global + world.config.vps_cn,
        "vetting can only shrink the platform"
    );
    assert!(!world.platform.vps.is_empty());
    // Ground truth sanity: the expected exhibitors are present.
    assert!(world
        .ground_truth
        .shadowing_resolvers
        .iter()
        .any(|n| n.contains("Yandex")));
    assert!(world
        .ground_truth
        .shadowing_resolvers
        .iter()
        .any(|n| n.contains("114DNS (CN)")));
    assert!(!world.ground_truth.dpi_taps.is_empty());
    assert!(!world.ground_truth.blocklisted_addrs.is_empty());
    // 114DNS deploys two anycast instances.
    let d114 = world.dns_destination("114DNS").unwrap();
    assert_eq!(d114.nodes.len(), 2);
}

#[test]
fn world_build_is_deterministic() {
    let a = tiny_world(7);
    let b = tiny_world(7);
    assert_eq!(a.platform.vps.len(), b.platform.vps.len());
    let addrs_a: Vec<_> = a.platform.vps.iter().map(|vp| vp.addr).collect();
    let addrs_b: Vec<_> = b.platform.vps.iter().map(|vp| vp.addr).collect();
    assert_eq!(addrs_a, addrs_b);
    assert_eq!(
        a.ground_truth.blocklisted_addrs,
        b.ground_truth.blocklisted_addrs
    );
    assert_eq!(
        a.engine.topology().node_count(),
        b.engine.topology().node_count()
    );
}

#[test]
fn preflight_filters_run_clean_platform() {
    let mut world = tiny_world(2);
    let before = world.platform.vps.len();
    let outcome = NoiseFilter::run_and_apply(&mut world);
    // Integrated providers are clean, so TTL deltas all match.
    assert_eq!(outcome.ttl_deltas.len(), before, "every VP measured");
    assert!(outcome
        .ttl_deltas
        .iter()
        .all(|&(_, d)| d == NoiseFilter::expected_delta()));
    // Interceptors exist in the tiny world, so some VPs may be excluded —
    // and those excluded must be CN-side (that is where interceptors sit).
    for id in &outcome.intercepted {
        assert!(
            world.platform.get(*id).is_none(),
            "intercepted VPs are removed from the platform"
        );
    }
    assert_eq!(world.platform.vps.len() + outcome.intercepted.len(), before);
}

#[test]
fn full_pipeline_recovers_shadowing_landscape() {
    let mut world = tiny_world(3);
    NoiseFilter::run_and_apply(&mut world);

    let config = Phase1Config {
        rounds: 1,
        grace: SimDuration::from_days(35),
        ..Phase1Config::default()
    };
    let data = phase1(&mut world, &config);
    assert!(!data.registry.is_empty());
    let counts = data.registry.counts();
    let vps = world.platform.vps.len();
    assert_eq!(counts[&DecoyProtocol::Dns], vps * 36);
    assert_eq!(counts[&DecoyProtocol::Http], vps * world.tranco.len());
    assert_eq!(counts[&DecoyProtocol::Tls], vps * world.tranco.len());
    let agg = &data.aggregates;
    assert!(agg.arrivals_seen > 0, "honeypots captured traffic");
    assert!(agg.by_label[&UnsolicitedLabel::SolicitedResolution] > 0);
    assert!(agg.unsolicited_total() > 0, "shadowing exhibitors fired");

    // The heavy resolvers must dominate DNS-decoy shadowing.
    let paths = &agg.paths;
    let yandex_addr = world.dns_destination("Yandex").unwrap().addr;
    let yandex_paths = paths
        .keys()
        .filter(|k| k.dst == yandex_addr && k.protocol == DecoyProtocol::Dns)
        .count();
    assert!(
        yandex_paths as f64 >= vps as f64 * 0.8,
        "nearly every VP→Yandex path is problematic ({yandex_paths}/{vps})"
    );

    // The control resolver and the roots stay clean.
    for name in ["self-built", "a.root", ".com", ".org"] {
        let addr = world.dns_destination(name).unwrap().addr;
        let dirty = paths.keys().any(|k| k.dst == addr);
        assert!(!dirty, "{name} must not exhibit shadowing");
    }

    // Some unsolicited requests bear decoy data days after emission.
    let mut intervals = IntervalHistogram::default();
    for hist in agg.interval_hists.values() {
        intervals.merge(hist);
    }
    let within_10d = intervals
        .cumulative_at(SimDuration::from_days(10).millis())
        .unwrap();
    assert!(
        within_10d < intervals.total(),
        "long retention tail missing"
    );
}

#[test]
fn phase2_localizes_dns_observers_at_destination() {
    let mut world = tiny_world(4);
    NoiseFilter::run_and_apply(&mut world);
    let phase1 = phase1(
        &mut world,
        &Phase1Config {
            send_http: false,
            send_tls: false,
            grace: SimDuration::from_days(32),
            ..Phase1Config::default()
        },
    );
    // Trace a handful of DNS paths.
    let traced = paths_to_trace_streamed(&phase1.aggregates, 4);
    assert!(!traced.is_empty(), "phase 1 found problematic paths");

    let config = Phase2Config {
        max_ttl: 24,
        grace: SimDuration::from_days(25),
        ..Phase2Config::default()
    };
    let plan = Phase2Runner::plan(&world, &traced, &config);
    let data = Phase2Runner::execute(&mut world, &plan, &config, SinkConfig::streaming(), |_| {
        true
    });
    let results = Phase2Runner::localize(&data, &plan.traced, config.max_ttl);
    let localized: Vec<_> = results
        .iter()
        .filter(|r| r.normalized_hop.is_some())
        .collect();
    assert!(!localized.is_empty(), "at least one observer localized");
    // DNS shadowing in this world is resolver-side: normalized hop 10.
    let at_dest = localized
        .iter()
        .filter(|r| r.normalized_hop == Some(10))
        .count();
    assert!(
        at_dest * 2 >= localized.len(),
        "most DNS observers localize at the destination ({at_dest}/{})",
        localized.len()
    );
    // Tracerouting revealed actual router addresses on the way.
    assert!(results.iter().any(|r| !r.revealed_routers.is_empty()));
}
