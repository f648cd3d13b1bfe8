//! Topology cross-validation glue: extract the true router topology from
//! a study's world, score the Phase II reconstruction against it, and
//! sweep the comparison over the chaos ICMP rate-limiting axis.
//!
//! Layering mirrors [`crate::robustness`]: `shadow-topo` owns the graph
//! structures, `shadow-analysis` owns the scoring, `shadow-chaos` owns the
//! impairment semantics — this module is the only place that sees a
//! [`StudyOutcome`]'s world *and* a [`FaultProfile`], so the ground-truth
//! extraction and the sweep driver both live here.

use crate::study::{Study, StudyConfig, StudyOutcome};
use shadow_analysis::crossval::{CrossValCell, CrossValReport, TopoGroundTruth};
use shadow_chaos::{icmp_grid, FaultProfile};
use shadow_core::executor::run_chunks;
use shadow_netsim::NodeId;
use std::net::Ipv4Addr;

/// The default ICMP Time-Exceeded suppression sweep: from full coverage to
/// near-total rate limiting. Four levels — enough to see the recall curve
/// bend without quadrupling campaign time.
pub const DEFAULT_ICMP_LEVELS: [f64; 4] = [0.0, 0.5, 0.9, 0.99];

/// Extract what the simulator knows to be true for the outcome's traced
/// path set: walk the routing-table route of every traced (VP, dst) pair
/// and collect the on-path routers and their consecutive links, plus the
/// addresses of the ground-truth DPI tap nodes.
pub fn ground_truth(outcome: &StudyOutcome) -> TopoGroundTruth {
    let topology = outcome.world.engine.topology();
    let vp_node = |vp| {
        outcome
            .world
            .platform
            .vps
            .iter()
            .find(|v| v.id == vp)
            .map(|v| v.node)
    };

    let mut truth = TopoGroundTruth::default();
    for key in &outcome.traced_paths {
        let Some(src) = vp_node(key.vp) else { continue };
        let Some(route) = topology.route_to_addr(src, key.dst) else {
            continue;
        };
        let routers: Vec<Ipv4Addr> = route
            .iter()
            .map(|&id| topology.node(id))
            .filter(|n| n.is_router())
            .map(|n| n.addr)
            .collect();
        truth.routers.extend(routers.iter().copied());
        for pair in routers.windows(2) {
            if pair[0] != pair[1] {
                truth.links.insert((pair[0], pair[1]));
            }
        }
    }
    for &(node, _) in &outcome.world.ground_truth.dpi_taps {
        truth.observers.insert(observer_addr(outcome, node));
    }
    truth
}

fn observer_addr(outcome: &StudyOutcome, node: NodeId) -> Ipv4Addr {
    outcome.world.engine.topology().node(node).addr
}

/// Score one finished study against its own ground truth.
pub fn score_outcome(name: &str, icmp_rate_limit: f64, outcome: &StudyOutcome) -> CrossValCell {
    let truth = ground_truth(outcome);
    CrossValCell::score(
        name,
        icmp_rate_limit,
        &outcome.router_graph,
        &outcome.traceroutes,
        &truth,
    )
}

/// Run the ICMP-coverage sweep: one full sharded campaign per suppression
/// level (cells differ *only* in `icmp_rate_limit`; all share
/// `fault_seed`), each scored against its own world's ground truth.
/// `parallelism` bounds concurrent cells; each cell fans out over
/// `shards` worker threads.
pub fn run_icmp_sweep(
    base: &StudyConfig,
    levels: &[f64],
    fault_seed: u64,
    shards: usize,
    parallelism: usize,
) -> CrossValReport {
    let grid = icmp_grid(levels, fault_seed, &FaultProfile::baseline("icmp"));
    let cells = run_chunks(grid, parallelism, |_, profile| {
        let outcome = Study::run_sharded(base.clone().with_faults(profile.clone()), shards);
        score_outcome(&profile.name, profile.icmp_rate_limit, &outcome)
    });
    CrossValReport::new(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_covers_traced_paths() {
        let outcome = Study::run(StudyConfig::tiny(7));
        assert!(!outcome.traced_paths.is_empty());
        let truth = ground_truth(&outcome);
        assert!(!truth.routers.is_empty());
        assert!(!truth.links.is_empty());
        assert!(!truth.observers.is_empty());
        // Every revealed router must be a true on-path router: the
        // simulator has no aliasing, so precision is exact.
        for addr in outcome.router_graph.router_addrs() {
            assert!(truth.routers.contains(&addr), "phantom router {addr}");
        }
    }

    #[test]
    fn baseline_cell_scores_high_recall() {
        let outcome = Study::run(StudyConfig::tiny(7));
        let cell = score_outcome("icmp0%", 0.0, &outcome);
        assert_eq!(cell.router_precision(), 1.0);
        assert!(cell.router_recall() > 0.0);
        assert!(cell.icmp_observations > 0);
    }

    #[test]
    fn sweep_degrades_with_suppression() {
        let report = run_icmp_sweep(&StudyConfig::tiny(7), &[0.0, 0.99], 11, 2, 2);
        assert_eq!(report.cells.len(), 2);
        let base = &report.cells[0];
        let starved = &report.cells[1];
        assert_eq!(base.name, "icmp0%");
        assert!(
            starved.icmp_observations < base.icmp_observations,
            "suppression must shrink ICMP coverage ({} vs {})",
            starved.icmp_observations,
            base.icmp_observations
        );
        assert!(starved.router_recall() <= base.router_recall());
    }
}
