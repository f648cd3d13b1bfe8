//! The pure-data world specification.
//!
//! [`generate_spec`](super::build::generate_spec) runs the full ground-truth
//! generation pass (catalog, addressing, topology, host placement, observer
//! placement) and records the outcome here as plain data — no engine, no
//! boxed hosts, no RNG state. [`WorldSpec::instantiate`] then materializes a
//! runnable [`World`] from it. Because instantiation is a pure function of
//! the spec, every world instantiated from the *same* spec has the
//! identical ground truth: identical topology, identical exhibitor seeds,
//! identical honeypots. A chunked campaign instantiates one (its scout)
//! and gives every other chunk a [`World::fork`] of it.

use super::{DeployedDnsDestination, GroundTruth, TrancoSite, World, WorldConfig};
use crate::noise::ControlServerHost;
use shadow_dns::authoritative::{AuthorityMode, StaticAuthorityHost};
use shadow_dns::profile::ResolverProfile;
use shadow_dns::resolver::RecursiveResolverHost;
use shadow_geo::{AsCatalog, GeoDb};
use shadow_honeypot::authority::ExperimentAuthorityHost;
use shadow_honeypot::web::WebHost;
use shadow_netsim::engine::{Engine, Host, WireTap};
use shadow_netsim::topology::{NodeId, Topology};
use shadow_observer::dpi::{DpiConfig, DpiTap};
use shadow_observer::exhibitor::ExhibitorConfig;
use shadow_observer::intercept::InterceptorTap;
use shadow_observer::probe::{DnsVia, ProbeOriginHost};
use shadow_packet::dns::DnsName;
use shadow_vantage::platform::Platform;
use shadow_vantage::vp::VantagePointHost;
use std::net::Ipv4Addr;

/// Constructor arguments for a destination-side SNI sensor
/// ([`WebHost::with_shadow`]).
#[derive(Debug, Clone)]
pub struct SiteShadowSpec {
    pub label: String,
    pub seed: u64,
    pub exhibitor: ExhibitorConfig,
}

/// Constructor arguments for one endpoint application.
#[derive(Debug, Clone)]
pub enum HostSpec {
    /// Logging honey web server in `region`.
    HoneypotWeb {
        addr: Ipv4Addr,
        region: String,
        seed: u32,
    },
    /// The experiment zone's authoritative server (DNS honeypot).
    Authority {
        addr: Ipv4Addr,
        zone: DnsName,
        web_addrs: Vec<Ipv4Addr>,
    },
    /// Pre-flight control server.
    Control,
    /// An exhibitor's probe origin.
    Origin {
        addr: Ipv4Addr,
        via: DnsVia,
        seed: u64,
    },
    /// Root/TLD stand-in.
    StaticAuthority {
        addr: Ipv4Addr,
        ns_name: String,
        mode: AuthorityMode,
    },
    /// A recursive resolver (possibly shadowing, per its profile).
    Resolver {
        addr: Ipv4Addr,
        egress: Ipv4Addr,
        profile: ResolverProfile,
        zones: Vec<(DnsName, Ipv4Addr)>,
    },
    /// A Tranco-stand-in site, optionally with a destination-side sensor.
    PlainWeb {
        addr: Ipv4Addr,
        seed: u32,
        shadow: Option<SiteShadowSpec>,
    },
    /// A vantage point.
    Vp {
        addr: Ipv4Addr,
        seed: u32,
        ttl_rewrite: Option<u8>,
    },
}

impl HostSpec {
    fn instantiate(&self) -> Box<dyn Host> {
        match self {
            HostSpec::HoneypotWeb { addr, region, seed } => {
                Box::new(WebHost::honeypot(*addr, region, *seed))
            }
            HostSpec::Authority {
                addr,
                zone,
                web_addrs,
            } => Box::new(ExperimentAuthorityHost::new(
                *addr,
                zone.clone(),
                web_addrs.clone(),
            )),
            HostSpec::Control => Box::<ControlServerHost>::default(),
            HostSpec::Origin { addr, via, seed } => {
                Box::new(ProbeOriginHost::new(*addr, *via, *seed))
            }
            HostSpec::StaticAuthority {
                addr,
                ns_name,
                mode,
            } => Box::new(StaticAuthorityHost::new(*addr, ns_name, *mode)),
            HostSpec::Resolver {
                addr,
                egress,
                profile,
                zones,
            } => Box::new(RecursiveResolverHost::new(
                *addr,
                *egress,
                profile.clone(),
                zones.clone(),
            )),
            HostSpec::PlainWeb { addr, seed, shadow } => {
                let site = WebHost::plain(*addr, *seed);
                match shadow {
                    Some(s) => Box::new(site.with_shadow(&s.label, s.seed, s.exhibitor.clone())),
                    None => Box::new(site),
                }
            }
            HostSpec::Vp {
                addr,
                seed,
                ttl_rewrite,
            } => Box::new(VantagePointHost::new(*addr, *seed, *ttl_rewrite)),
        }
    }
}

/// Constructor arguments for one wire tap. The variant sizes are lopsided
/// (a full `DpiConfig` vs one address) but the tap list is tiny and built
/// once, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum TapSpec {
    /// On-wire DPI observer.
    Dpi(DpiConfig),
    /// DNS interception middlebox answering with `redirect_to`.
    Intercept { redirect_to: Ipv4Addr },
}

impl TapSpec {
    fn instantiate(&self) -> Box<dyn WireTap> {
        match self {
            TapSpec::Dpi(config) => Box::new(DpiTap::new(config.clone())),
            TapSpec::Intercept { redirect_to } => Box::new(InterceptorTap::redirect(*redirect_to)),
        }
    }
}

/// Everything world generation decided, as immutable data. One spec can be
/// instantiated any number of times; every instantiation yields a world
/// with byte-identical ground truth and freshly-zeroed runtime state.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    pub config: WorldConfig,
    pub topology: Topology,
    pub catalog: AsCatalog,
    pub geo: GeoDb,
    pub platform: Platform,
    pub zone: DnsName,
    pub auth_node: NodeId,
    pub auth_addr: Ipv4Addr,
    pub honey_web: Vec<(NodeId, Ipv4Addr, String)>,
    pub control_node: NodeId,
    pub control_addr: Ipv4Addr,
    pub dns_destinations: Vec<DeployedDnsDestination>,
    pub tranco: Vec<TrancoSite>,
    pub ground_truth: GroundTruth,
    pub hosts: Vec<(NodeId, HostSpec)>,
    pub taps: Vec<(NodeId, TapSpec)>,
}

impl WorldSpec {
    /// Materialize a runnable [`World`] from this spec.
    pub fn instantiate(&self) -> World {
        let mut engine = Engine::new(self.topology.clone());
        for (node, host) in &self.hosts {
            engine.add_host(*node, host.instantiate());
        }
        for (node, tap) in &self.taps {
            engine.add_tap(*node, tap.instantiate());
        }
        World {
            config: self.config.clone(),
            engine,
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
}
