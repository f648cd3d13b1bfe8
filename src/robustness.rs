//! Chaos-sweep glue: extract fault targets from a world spec, fold a
//! study outcome into [`CellMetrics`], and drive a [`ScenarioMatrix`]
//! through full sharded campaigns.
//!
//! The layering intent: `shadow-chaos` owns fault *semantics* without
//! knowing what a world is, `shadow-analysis` owns the robustness
//! *comparison* without knowing how a campaign runs. This module — the
//! only place that sees both a [`WorldSpec`] and a [`FaultProfile`] —
//! bridges them.

use crate::study::{Study, StudyConfig, StudyOutcome};
use shadow_chaos::{FaultTargets, ScenarioMatrix};
use shadow_core::decoy::DecoyProtocol;
use shadow_core::world::{HostSpec, WorldSpec};

// The comparison types live in `shadow-analysis`; this facade re-exports
// them so sweep drivers import everything robustness-related from one
// place.
pub use shadow_analysis::robustness::{CellMetrics, CellReport, RobustnessReport};

/// Pull the node populations a fault profile's scheduled outages act on
/// out of a world spec. Pure spec data, so every shard — and the
/// sequential run — extracts the identical target set.
pub fn fault_targets(spec: &WorldSpec) -> FaultTargets {
    let mut targets = FaultTargets {
        routers: spec
            .topology
            .nodes()
            .filter(|n| n.is_router())
            .map(|n| n.id)
            .collect(),
        ..FaultTargets::default()
    };
    for (node, host) in &spec.hosts {
        match host {
            HostSpec::Resolver { .. } => targets.resolvers.push(*node),
            HostSpec::Vp { .. } => targets.vps.push(*node),
            _ => {}
        }
    }
    targets.honeypots.push(spec.auth_node);
    targets
        .honeypots
        .extend(spec.honey_web.iter().map(|&(node, _, _)| node));
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

/// Run the matrix: one fault-free baseline campaign, then every cell as a
/// full sharded campaign under its profile, compared into a
/// [`RobustnessReport`]. `parallelism` bounds concurrent *cells*; each
/// cell additionally fans out over `shards` worker threads.
pub fn run_matrix(
    base: &StudyConfig,
    matrix: &ScenarioMatrix,
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

    let cells = matrix
        .run_with(parallelism, |cell| {
            let config = base.clone().with_faults(cell.profile.clone());
            let outcome = Study::run_sharded(config, shards);
            cell_metrics(&cell.name, &outcome)
        })
        .into_iter()
        .map(|(_, metrics)| metrics)
        .collect();

    RobustnessReport::compare(baseline, cells)
}
