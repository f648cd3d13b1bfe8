//! Multi-round campaigns: the paper round-robins "continuously ... without
//! stop" for two months. More rounds mean more decoys per path and a higher
//! chance that probabilistic exhibitors fire at least once per path.

use std::collections::BTreeSet;
use traffic_shadowing::shadow_core::campaign::{CampaignRunner, Phase1Config};
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_core::noise::NoiseFilter;
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{World, WorldConfig};
use traffic_shadowing::shadow_netsim::time::SimDuration;

fn run_rounds(seed: u64, rounds: usize) -> (usize, usize, f64) {
    let mut world = World::build(WorldConfig::tiny(seed));
    NoiseFilter::run_and_apply(&mut world);
    let config = Phase1Config {
        send_http: false,
        send_tls: false,
        rounds,
        round_gap: SimDuration::from_hours(6),
        grace: SimDuration::from_days(35),
        ..Phase1Config::default()
    };
    let plan = CampaignRunner::plan_phase1(&world, &config);
    let data =
        CampaignRunner::execute_phase1(&mut world, &plan, &config, SinkConfig::streaming(), |_| {
            true
        });
    let vps = world.platform.vps.len();
    let problematic = data.aggregates.paths.len();
    // Every (VP, destination) a DNS decoy went out on.
    let total = data
        .registry
        .iter()
        .filter(|d| d.protocol == DecoyProtocol::Dns)
        .map(|d| (d.vp, d.dst))
        .collect::<BTreeSet<_>>()
        .len();
    (
        data.decoy_count(),
        vps,
        problematic as f64 / total.max(1) as f64,
    )
}

#[test]
fn rounds_scale_decoy_counts_not_path_counts() {
    let (decoys_1, vps_1, ratio_1) = run_rounds(555, 1);
    let (decoys_3, vps_3, ratio_3) = run_rounds(555, 3);
    assert_eq!(vps_1, vps_3, "identical world and vetting");
    assert_eq!(decoys_3, decoys_1 * 3, "3 rounds = 3× decoys");
    // More rounds can only help a path turn problematic: probabilistic
    // retry/trigger behaviour gets more chances per path.
    assert!(
        ratio_3 >= ratio_1,
        "problematic ratio must not shrink with rounds ({ratio_1} → {ratio_3})"
    );
    // And with 3 shots at ≥25%-probability behaviours, a visibly larger
    // share of benign-resolver paths shows retries.
    assert!(
        ratio_3 > ratio_1 + 0.02,
        "three rounds should lift the ratio measurably ({ratio_1} → {ratio_3})"
    );
}
