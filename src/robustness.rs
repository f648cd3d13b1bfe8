//! Chaos-sweep glue: extract fault targets from a world template, fold a
//! study outcome into [`CellMetrics`], and drive a grid of fault profiles
//! through full sharded campaigns.
//!
//! The layering intent: `shadow-chaos` owns fault *semantics* without
//! knowing what a world is, `shadow-analysis` owns the robustness
//! *comparison* without knowing how a campaign runs. This module — the
//! only place that sees both a [`WorldSpec`] and a [`FaultProfile`] —
//! bridges them.

use crate::study::{Study, StudyConfig, StudyOutcome};
use shadow_chaos::{FaultProfile, FaultTargets};
use shadow_core::decoy::DecoyProtocol;
use shadow_core::executor::run_chunks;
use shadow_core::world::WorldSpec;
use shadow_dns::resolver::RecursiveResolverHost;
use shadow_vantage::vp::VantagePointHost;

// The comparison types live in `shadow-analysis`; this facade re-exports
// them so sweep drivers import everything robustness-related from one
// place.
pub use shadow_analysis::robustness::{CellMetrics, CellReport, RobustnessReport};

/// Pull the node populations a fault profile's scheduled outages act on
/// out of a never-run world template: routers, then resolver and VP hosts
/// (residential VPs the vetting dropped included), each in node order, and
/// the honeypots. One template per campaign, so every shard — and the
/// sequential run — compiles its conditioner from the identical target
/// set.
pub fn fault_targets(spec: &WorldSpec) -> FaultTargets {
    let world = spec.world();
    let engine = &world.engine;
    let mut targets = FaultTargets::default();
    for node in engine.topology().nodes() {
        if node.is_router() {
            targets.routers.push(node.id);
        } else if engine.host_as::<RecursiveResolverHost>(node.id).is_some() {
            targets.resolvers.push(node.id);
        } else if engine.host_as::<VantagePointHost>(node.id).is_some() {
            targets.vps.push(node.id);
        }
    }
    targets.honeypots.push(world.auth_node);
    targets
        .honeypots
        .extend(world.honey_web.iter().map(|&(node, _, _)| node));
    targets
}

/// Flatten a study outcome into the comparison metrics.
pub fn cell_metrics(name: &str, outcome: &StudyOutcome) -> CellMetrics {
    let landscape = outcome.landscape();
    let observer_addrs: std::collections::BTreeSet<String> = outcome
        .traceroutes
        .iter()
        .filter_map(|r| r.observer_addr)
        .map(|a| a.to_string())
        .collect();
    CellMetrics {
        name: name.to_string(),
        dns_ratio: landscape.protocol_ratio(DecoyProtocol::Dns),
        http_ratio: landscape.protocol_ratio(DecoyProtocol::Http),
        tls_ratio: landscape.protocol_ratio(DecoyProtocol::Tls),
        localized_paths: outcome
            .traceroutes
            .iter()
            .filter(|r| r.normalized_hop.is_some())
            .count(),
        traced_paths: outcome.traced_paths.len(),
        observer_ips: outcome.observer_ips().total_ips,
        observer_addrs: observer_addrs.into_iter().collect(),
        unsolicited: outcome.phase1.aggregates.unsolicited_total() as usize,
        decoys_sent: outcome.phase1.decoy_count(),
    }
}

/// Run the matrix: one fault-free baseline campaign, then one full sharded
/// campaign per profile (e.g. a [`shadow_chaos::loss_grid`]), compared
/// into a [`RobustnessReport`]. `parallelism` bounds concurrent *cells*;
/// each cell additionally fans out over `shards` worker threads.
pub fn run_matrix(
    base: &StudyConfig,
    profiles: &[FaultProfile],
    shards: usize,
    parallelism: usize,
) -> RobustnessReport {
    let baseline_outcome = Study::run_sharded(
        StudyConfig {
            faults: None,
            ..base.clone()
        },
        shards,
    );
    let baseline = cell_metrics("baseline", &baseline_outcome);

    let cells = run_chunks(profiles.iter().collect(), parallelism, |_, profile| {
        let outcome = Study::run_sharded(base.clone().with_faults(profile.clone()), shards);
        cell_metrics(&profile.name, &outcome)
    });

    RobustnessReport::compare(baseline, cells)
}
