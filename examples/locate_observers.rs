//! Phase II walkthrough: pick one problematic path and traceroute it hop by
//! hop, printing what each TTL revealed — the Figure 2 mechanism end to end.
//!
//! Run with `cargo run --release --example locate_observers [seed]`.

use traffic_shadowing::shadow_core::campaign::{CampaignRunner, Phase1Config};
use traffic_shadowing::shadow_core::decoy::DecoyProtocol;
use traffic_shadowing::shadow_core::noise::NoiseFilter;
use traffic_shadowing::shadow_core::phase2::{paths_to_trace_streamed, Phase2Config, Phase2Runner};
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{World, WorldConfig};
use traffic_shadowing::shadow_geo::db::as_info_of;
use traffic_shadowing::shadow_netsim::time::SimDuration;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    let mut world = World::build(WorldConfig::tiny(seed));
    NoiseFilter::run_and_apply(&mut world);

    // Phase I, DNS and HTTP decoys: find paths with observers.
    let phase1_config = Phase1Config {
        send_dns: true,
        send_http: true,
        send_tls: false,
        grace: SimDuration::from_days(20),
        ..Phase1Config::default()
    };
    let plan = CampaignRunner::plan_phase1(&world, &phase1_config);
    let phase1 = CampaignRunner::execute_phase1(
        &mut world,
        &plan,
        &phase1_config,
        SinkConfig::streaming(),
        |_| true,
    );
    let traced = paths_to_trace_streamed(&phase1.aggregates, 6);
    if traced.is_empty() {
        println!("no problematic paths with this seed; try another");
        return;
    }
    println!(
        "phase I found {} problematic paths; tracing them\n",
        traced.len()
    );

    let phase2_config = Phase2Config {
        max_ttl: 24,
        grace: SimDuration::from_days(10),
        ..Phase2Config::default()
    };
    let plan = Phase2Runner::plan(&world, &traced, &phase2_config);
    let phase2_data = Phase2Runner::execute(
        &mut world,
        &plan,
        &phase2_config,
        SinkConfig::streaming(),
        |_| true,
    );
    let results = Phase2Runner::localize(&phase2_data, &plan.traced, phase2_config.max_ttl);

    for result in &results {
        let dest_label = world
            .dns_destinations
            .iter()
            .find(|d| d.addr == result.path.dst)
            .map(|d| d.dest.name.to_string())
            .unwrap_or_else(|| result.path.dst.to_string());
        println!(
            "path: VP{} → {} ({:?} decoys)",
            result.path.vp.0, dest_label, result.path.protocol
        );
        for (hop, router) in &result.revealed_routers {
            let label = as_info_of(&world.geo, &world.catalog, *router)
                .map(|i| format!("{} ({})", i.asn, i.name))
                .unwrap_or_else(|| "unknown AS".to_string());
            let marker = if Some(*hop) == result.observer_hop {
                "  ← observer"
            } else {
                ""
            };
            println!("  hop {hop:>2}: {router:<15} {label}{marker}");
        }
        match (
            result.observer_hop,
            result.dest_distance,
            result.normalized_hop,
        ) {
            (Some(hop), Some(dist), Some(norm)) => println!(
                "  observer at hop {hop} of {dist} (normalized {norm}/10{})\n",
                if norm == 10 { " = destination" } else { "" }
            ),
            (Some(hop), _, _) => {
                println!("  observer at hop {hop}, destination distance unknown\n")
            }
            _ => println!("  no observer triggered during the sweep\n"),
        }
    }

    let protocols: Vec<_> = results
        .iter()
        .filter_map(|r| r.normalized_hop.map(|h| (r.path.protocol, h)))
        .collect();
    let at_dest = protocols.iter().filter(|(_, h)| *h == 10).count();
    let dns_total = protocols
        .iter()
        .filter(|(p, _)| *p == DecoyProtocol::Dns)
        .count();
    println!(
        "summary: {} paths localized, {at_dest} at the destination ({} DNS paths)",
        protocols.len(),
        dns_total
    );

    // The sweep's Time-Exceeded arrivals double as topology intelligence:
    // Phase II folds them into a router graph as it runs (the same
    // structure `full_campaign --topology-report` cross-validates), so the
    // hop-by-hop walkthrough above can close with the AS-level picture.
    let graph = phase2_data
        .router_graph
        .finalize(|addr| world.geo.asn_of(addr).map(|asn| asn.0));
    println!(
        "\nrouter graph from the sweep: {} routers, {} IP links, {} AS adjacencies",
        graph.routers.len(),
        graph.links.len(),
        graph.as_links.len()
    );
    for link in graph.as_links.iter().take(8) {
        println!(
            "  AS{} ↔ AS{} ({} IP link{})",
            link.a,
            link.b,
            link.links,
            if link.links == 1 { "" } else { "s" }
        );
    }
    if graph.as_links.len() > 8 {
        println!("  … {} more adjacencies", graph.as_links.len() - 8);
    }
}
