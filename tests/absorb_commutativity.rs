//! `CampaignData::absorb` is the sharded executor's merge step, and shard
//! workers finish in whatever order the OS schedules them. The merge must
//! therefore be commutative: absorbing the same per-shard data sets in any
//! order has to produce identical campaign data and identical downstream
//! correlation. This test builds three real shard data sets, journal on
//! (every capture and its classification is a journal record), and merges
//! them in every permutation.

use traffic_shadowing::shadow_core::campaign::{CampaignData, CampaignRunner, Phase1Config};
use traffic_shadowing::shadow_core::executor::{shard_vps, TelemetryOptions};
use traffic_shadowing::shadow_core::noise::NoiseFilter;
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{generate_spec, WorldConfig};
use traffic_shadowing::shadow_telemetry::{diff, EventKind};
use traffic_shadowing::shadow_vantage::platform::VpId;

fn shard_datas(seed: u64, shards: usize) -> Vec<CampaignData> {
    let spec = generate_spec(WorldConfig::tiny(seed));
    let config = Phase1Config::default();
    let vp_ids: Vec<VpId> = spec.world().platform.vps.iter().map(|vp| vp.id).collect();
    shard_vps(&vp_ids, shards)
        .into_iter()
        .enumerate()
        .map(|(shard, owned)| {
            let mut world = spec.instantiate();
            NoiseFilter::run_and_apply(&mut world);
            world
                .engine
                .set_telemetry(TelemetryOptions::enabled(true).handle(shard as u32));
            let plan = CampaignRunner::plan_phase1(&world, &config);
            CampaignRunner::execute_phase1(
                &mut world,
                &plan,
                &config,
                SinkConfig::streaming(),
                |vp| owned.contains(&vp),
            )
        })
        .collect()
}

fn merge_in_order(datas: &[CampaignData], order: &[usize]) -> CampaignData {
    let mut merged = datas[order[0]].clone();
    for &i in &order[1..] {
        merged.absorb(datas[i].clone());
    }
    merged
}

#[test]
fn absorb_is_commutative_across_all_shard_orders() {
    let datas = shard_datas(7, 3);
    let orders: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let reference = merge_in_order(&datas, &orders[0]);
    assert!(
        reference
            .journal
            .iter()
            .any(|r| matches!(r.event, EventKind::ArrivalCaptured { .. })),
        "the merged campaign must actually carry traffic"
    );
    assert!(reference.aggregates.arrivals_seen > 0);
    for order in &orders[1..] {
        let merged = merge_in_order(&datas, order);
        let report = diff(&reference.journal, &merged.journal);
        assert!(
            report.identical(),
            "absorb order {order:?} changed the merged arrival stream or its classification\n{}",
            report.render()
        );
        assert_eq!(reference.last_send, merged.last_send);
        assert_eq!(
            reference.aggregates, merged.aggregates,
            "absorb order {order:?} changed the streamed aggregates"
        );
    }
}

#[test]
fn absorb_into_empty_is_identity() {
    let datas = shard_datas(11, 2);
    let mut lhs = CampaignData::default();
    for data in &datas {
        lhs.absorb(data.clone());
    }
    let rhs = merge_in_order(&datas, &[0, 1]);
    assert!(diff(&lhs.journal, &rhs.journal).identical());
    assert_eq!(lhs.aggregates, rhs.aggregates);
    assert_eq!(lhs.decoy_count(), rhs.decoy_count());
}
