//! The simulated world: topology, resolvers, observers, honeypots, vantage
//! points — everything DESIGN.md §2 substitutes for the real Internet.
//!
//! [`WorldConfig`] holds the scale knobs. [`generate_spec`] runs the one
//! deterministic construction pass from a seed and constructs every host
//! and tap straight into the engine of a never-run [`World`], wrapped as a
//! [`WorldSpec`]; [`World::build`] unwraps it. Ground truth (which
//! resolvers shadow, where DPI taps sit, which origin addresses a
//! blocklist would flag) is recorded in [`GroundTruth`] for tests — the
//! measurement pipeline never reads it.

mod build;

pub use build::generate_spec;

use serde::{Deserialize, Serialize};
use shadow_dns::catalog::DnsDestination;
use shadow_geo::{AsCatalog, CountryCode, GeoDb};
use shadow_netsim::engine::Engine;
use shadow_netsim::topology::NodeId;
use shadow_packet::dns::DnsName;
use shadow_vantage::platform::Platform;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Scale and behaviour knobs for world generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    pub seed: u64,
    /// Vantage points recruited from global providers.
    pub vps_global: usize,
    /// Vantage points recruited from China-market providers.
    pub vps_cn: usize,
    /// Number of Tranco-stand-in destination websites.
    pub tranco_sites: usize,
    /// Routers per AS.
    pub routers_per_as: usize,
    /// Synthetic ASes per unit of country weight.
    pub synthetic_as_density: f64,
    /// The experiment zone decoys embed.
    pub experiment_zone: String,
    /// DNS interception middleboxes to place (Appendix E noise).
    pub interceptors: usize,
    /// Fraction of routers answering traceroute, in percent (the paper
    /// notes hops that "refuse to respond").
    pub icmp_response_percent: u8,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed_2024,
            vps_global: 110,
            vps_cn: 110,
            tranco_sites: 40,
            routers_per_as: 3,
            synthetic_as_density: 0.12,
            experiment_zone: "www.experiment.example".to_string(),
            interceptors: 1,
            icmp_response_percent: 85,
        }
    }
}

impl WorldConfig {
    /// A miniature world for unit/integration tests: a handful of VPs, a
    /// few sites, but every subsystem present.
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            vps_global: 6,
            vps_cn: 6,
            tranco_sites: 4,
            routers_per_as: 2,
            synthetic_as_density: 0.02,
            interceptors: 1,
            ..Self::default()
        }
    }

    /// A mid-size world for examples and benches.
    pub fn standard(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The source paper's campaign scale: 4,364 vantage points (split
    /// evenly between global and China-market providers) against 2,325
    /// Tranco-stand-in sites — the §3 deployment whose Phase I sends
    /// roughly 20M decoys per round.
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            seed,
            vps_global: 2_182,
            vps_cn: 2_182,
            tranco_sites: 2_325,
            ..Self::default()
        }
    }

    /// `factor`× the paper's decoy volume: decoys scale as VPs × sites,
    /// so both axes grow by √factor. `factor = 1` is [`Self::paper_scale`].
    pub fn paper_scale_factor(seed: u64, factor: u32) -> Self {
        let base = Self::paper_scale(seed);
        let axis = f64::from(factor.max(1)).sqrt();
        let scale = |n: usize| (n as f64 * axis).round() as usize;
        Self {
            vps_global: scale(base.vps_global),
            vps_cn: scale(base.vps_cn),
            tranco_sites: scale(base.tranco_sites),
            ..base
        }
    }
}

/// A Tranco-stand-in destination site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrancoSite {
    pub node: NodeId,
    pub addr: Ipv4Addr,
    pub country: CountryCode,
}

/// A deployed DNS destination (catalog entry + the node(s) serving it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployedDnsDestination {
    pub dest: &'static DnsDestination,
    pub nodes: Vec<NodeId>,
    /// The address decoys are sent to (catalog address).
    pub addr: Ipv4Addr,
    /// The pair-resolver address (registered as a silent host).
    pub pair_addr: Ipv4Addr,
}

/// Ground truth recorded at build time — for tests and EXPERIMENTS.md
/// comparisons only; the measurement pipeline never reads this.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// (router node, exhibitor label) of every DPI tap placed.
    pub dpi_taps: Vec<(NodeId, String)>,
    /// Names of resolver instances configured to shadow.
    pub shadowing_resolvers: Vec<String>,
    /// Origin addresses a Spamhaus-like blocklist would flag.
    pub blocklisted_addrs: BTreeSet<Ipv4Addr>,
    /// All probe-origin addresses.
    pub origin_addrs: Vec<Ipv4Addr>,
    /// Router nodes carrying DNS interception middleboxes.
    pub interceptor_nodes: Vec<NodeId>,
    /// Observer router nodes that listen on BGP (port 179) when the
    /// open-port prober knocks (§5.2: routing devices between networks).
    pub bgp_speaking_observers: BTreeSet<Ipv4Addr>,
}

/// The assembled world.
pub struct World {
    pub config: WorldConfig,
    pub engine: Engine,
    pub catalog: AsCatalog,
    pub geo: GeoDb,
    pub platform: Platform,
    pub zone: DnsName,
    /// Experiment authoritative server (the DNS honeypot).
    pub auth_node: NodeId,
    pub auth_addr: Ipv4Addr,
    /// Honey web servers: (node, address, region label).
    pub honey_web: Vec<(NodeId, Ipv4Addr, String)>,
    /// Control server used by pre-flight checks.
    pub control_node: NodeId,
    pub control_addr: Ipv4Addr,
    pub dns_destinations: Vec<DeployedDnsDestination>,
    pub tranco: Vec<TrancoSite>,
    pub ground_truth: GroundTruth,
}

impl World {
    /// Build a world from a configuration: the [`generate_spec`] template
    /// itself. Deterministic in `config.seed`.
    pub fn build(config: WorldConfig) -> Self {
        generate_spec(config).into_world()
    }

    /// The deployed destination for a catalog name, if present.
    pub fn dns_destination(&self, name: &str) -> Option<&DeployedDnsDestination> {
        self.dns_destinations.iter().find(|d| d.dest.name == name)
    }

    /// Copy an idle world through [`Engine::fork`]: same platform vetting,
    /// host and tap state, and clock, so a fork of a pre-flighted world
    /// runs a phase exactly as a freshly instantiated and pre-flighted one
    /// would. [`WorldSpec::instantiate`] is a fork of the never-run
    /// template, and the campaign forks its pre-flighted scout world once
    /// per extra chunk.
    ///
    /// Panics where [`Engine::fork`] does, and on a world whose honeypots
    /// hold an arrival sink: a fork would fold its captures into the same
    /// sink.
    pub fn fork(&self) -> World {
        let engine = &self.engine;
        let auth_sink = engine
            .host_as::<shadow_honeypot::authority::ExperimentAuthorityHost>(self.auth_node)
            .is_some_and(|auth| auth.has_arrival_sink());
        let web_sink = self.honey_web.iter().any(|&(node, _, _)| {
            engine
                .host_as::<shadow_honeypot::web::WebHost>(node)
                .is_some_and(|web| web.has_arrival_sink())
        });
        assert!(
            !auth_sink && !web_sink,
            "World::fork: an arrival sink is installed; uninstall it before forking"
        );
        World {
            config: self.config.clone(),
            engine: self.engine.fork(),
            catalog: self.catalog.clone(),
            geo: self.geo.clone(),
            platform: self.platform.clone(),
            zone: self.zone.clone(),
            auth_node: self.auth_node,
            auth_addr: self.auth_addr,
            honey_web: self.honey_web.clone(),
            control_node: self.control_node,
            control_addr: self.control_addr,
            dns_destinations: self.dns_destinations.clone(),
            tranco: self.tranco.clone(),
            ground_truth: self.ground_truth.clone(),
        }
    }

    /// Install (or clear, with `None`) a streaming arrival sink on every
    /// capture point — the authoritative server and all honey web hosts.
    /// Each host holds a clone of the shared handle, so every capture in
    /// this world's engine folds into the same per-shard sink.
    pub fn install_arrival_sink(
        &mut self,
        sink: Option<shadow_honeypot::capture::SharedArrivalSink>,
    ) {
        let auth_node = self.auth_node;
        if let Some(auth) = self
            .engine
            .host_as_mut::<shadow_honeypot::authority::ExperimentAuthorityHost>(auth_node)
        {
            auth.set_arrival_sink(sink.clone());
        }
        let web_nodes: Vec<NodeId> = self.honey_web.iter().map(|&(node, _, _)| node).collect();
        for node in web_nodes {
            if let Some(web) = self
                .engine
                .host_as_mut::<shadow_honeypot::web::WebHost>(node)
            {
                web.set_arrival_sink(sink.clone());
            }
        }
    }
}

/// The never-run template world [`generate_spec`] returns: every host and
/// tap already constructed in its engine. The wrapper hands the world out
/// only as a fork, by value or read-only, so the template itself never
/// runs — and a never-run engine is idle, with no telemetry, conditioner
/// or arrival sink, which is all [`World::fork`] asks of it.
pub struct WorldSpec(World);

impl WorldSpec {
    /// A runnable copy of the template ([`World::fork`]). Every copy has
    /// the template's ground truth — topology, exhibitor seeds, honeypots,
    /// platform vetting — and freshly zeroed runtime state.
    pub fn instantiate(&self) -> World {
        self.0.fork()
    }

    /// The template itself, for callers that run one world.
    pub fn into_world(self) -> World {
        self.0
    }

    /// Read access to the template.
    pub fn world(&self) -> &World {
        &self.0
    }
}
