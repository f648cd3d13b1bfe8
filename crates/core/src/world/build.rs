//! World assembly: one long, deterministic construction pass.
//!
//! The generated world encodes the *ground truth* the paper measured:
//! which resolvers shadow (Figure 3 / Section 5.1), where on-wire DPI
//! observers sit (Tables 2–3), which destination networks shadow SNI, how
//! exhibitors probe (Figures 4–7), and which probe origins a blocklist
//! would flag. The measurement pipeline must recover all of it from
//! packets alone.

use super::DeployedDnsDestination;
use super::{GroundTruth, TrancoSite, World, WorldConfig, WorldSpec};
use crate::noise::ControlServerHost;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha20Rng;
use shadow_dns::authoritative::{AuthorityMode, StaticAuthorityHost};
use shadow_dns::catalog::{pair_address, DnsDestinationKind, ShadowClass, DNS_DESTINATIONS};
use shadow_dns::profile::ResolverProfile;
use shadow_dns::resolver::RecursiveResolverHost;
use shadow_geo::country::{cc, country_info, COUNTRIES};
use shadow_geo::{
    AsCatalog, AsInfo, AsKind, Asn, CountryCode, GeoDb, GeoRecord, HostingLabel, Ipv4Prefix,
    PrefixAllocator, Region,
};
use shadow_honeypot::authority::ExperimentAuthorityHost;
use shadow_honeypot::web::WebHost;
use shadow_netsim::engine::{Engine, Host, WireTap};
use shadow_netsim::fault::fnv1a64;
use shadow_netsim::time::SimDuration;
use shadow_netsim::topology::{NodeId, TopologyBuilder};
use shadow_observer::dpi::{DpiConfig, DpiTap};
use shadow_observer::exhibitor::ExhibitorConfig;
use shadow_observer::intercept::InterceptorTap;
use shadow_observer::policy::{DelayBucket, ProbeKind, ReplayPolicy, WeightedChoice};
use shadow_observer::probe::{DnsVia, ProbeOriginHost};
use shadow_packet::dns::DnsName;
use shadow_vantage::platform::{Platform, VantagePoint, VpId};
use shadow_vantage::providers::{providers_in, Market};
use shadow_vantage::vp::VantagePointHost;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Synthetic ASNs for the experiment's own infrastructure.
const EXPERIMENT_AS_US: u32 = 500_001;
const EXPERIMENT_AS_DE: u32 = 500_002;
const EXPERIMENT_AS_SG: u32 = 500_003;

struct Builder {
    config: WorldConfig,
    rng: ChaCha20Rng,
    catalog: AsCatalog,
    geo: GeoDb,
    tb: TopologyBuilder,
    as_prefix: HashMap<Asn, Ipv4Prefix>,
    next_host_index: HashMap<Asn, u32>,
    /// Hosts and taps in placement order; they move into the engine once
    /// the topology is frozen.
    hosts: Vec<(NodeId, Box<dyn Host>)>,
    taps: Vec<(NodeId, Box<dyn WireTap>)>,
    ground_truth: GroundTruth,
    zone: DnsName,
    /// Origin pools per exhibitor label.
    origin_pools: HashMap<String, Vec<WeightedChoice<NodeId>>>,
    /// Memo for [`Builder::as_in`]: the catalog is frozen before the
    /// builder exists, so the (country, kind) → AS choice never changes.
    /// Uncached, paper-scale recruitment re-scans the whole catalog once
    /// per VP and once per site — the dominant superlinear term in spec
    /// generation.
    as_in_cache: HashMap<(CountryCode, AsKind), Asn>,
}

impl Builder {
    fn prefix_of(&self, asn: Asn) -> Ipv4Prefix {
        *self
            .as_prefix
            .get(&asn)
            .unwrap_or_else(|| panic!("{asn} has no prefix"))
    }

    /// Next free host address inside an AS's prefix (router addresses use
    /// low indices; hosts start at 1000).
    fn next_host_addr(&mut self, asn: Asn) -> Ipv4Addr {
        let prefix = self.prefix_of(asn);
        let index = self.next_host_index.entry(asn).or_insert(1_000);
        let addr = prefix
            .host(*index)
            .unwrap_or_else(|| panic!("prefix {prefix} exhausted for {asn}"));
        *index += 1;
        addr
    }

    fn add_host_in(&mut self, asn: Asn) -> (NodeId, Ipv4Addr) {
        let addr = self.next_host_addr(asn);
        let node = self
            .tb
            .add_host(asn, addr)
            .unwrap_or_else(|e| panic!("adding host in {asn}: {e}"));
        (node, addr)
    }

    /// First AS of `kind` in `country` (deterministic), with fallbacks.
    /// Memoized — consults no RNG, so caching cannot perturb draw order.
    fn as_in(&mut self, country: CountryCode, kind: AsKind) -> Asn {
        if let Some(&hit) = self.as_in_cache.get(&(country, kind)) {
            return hit;
        }
        let pick = |k: AsKind| {
            let mut candidates: Vec<Asn> = self
                .catalog
                .in_country(country)
                .filter(|a| a.kind == k)
                .map(|a| a.asn)
                .collect();
            candidates.sort();
            candidates.first().copied()
        };
        let chosen = pick(kind)
            .or_else(|| pick(AsKind::Cloud))
            .or_else(|| pick(AsKind::IspRegional))
            .or_else(|| pick(AsKind::IspBackbone))
            .unwrap_or_else(|| panic!("no AS at all in {country}"));
        self.as_in_cache.insert((country, kind), chosen);
        chosen
    }

    /// All backbone ASes of a country, sorted (so AS4134 leads in CN).
    fn backbones_of(&self, country: CountryCode) -> Vec<Asn> {
        let mut out: Vec<Asn> = self
            .catalog
            .in_country(country)
            .filter(|a| a.kind == AsKind::IspBackbone)
            .map(|a| a.asn)
            .collect();
        out.sort();
        out
    }

    fn link_if_new(&mut self, a: Asn, b: Asn) {
        if a != b && !self.tb.has_link(a, b) {
            self.tb.link(a, b).expect("both ASes registered");
        }
    }

    /// Bind a host application to a node.
    fn place(&mut self, node: NodeId, host: impl Host + 'static) {
        self.hosts.push((node, Box::new(host)));
    }

    /// Register a probe origin host; returns its node.
    fn add_origin(&mut self, asn: Asn, via: DnsVia, dirty: bool, seed: u64) -> NodeId {
        let (node, addr) = self.add_host_in(asn);
        self.place(node, ProbeOriginHost::new(addr, via, seed));
        self.ground_truth.origin_addrs.push(addr);
        if dirty {
            self.ground_truth.blocklisted_addrs.insert(addr);
        }
        node
    }
}

/// Run the full ground-truth generation pass, constructing every host and
/// tap into the engine of a never-run [`World`]: the [`WorldSpec`]
/// template. Deterministic in `config.seed`; all randomness happens here,
/// so every fork of the template has the same ground truth.
pub fn generate_spec(config: WorldConfig) -> WorldSpec {
    let zone = DnsName::parse(&config.experiment_zone).expect("valid experiment zone");
    let mut catalog = AsCatalog::generate(config.seed, config.synthetic_as_density);

    // Experiment-infrastructure ASes and any destination-operator AS the
    // generated catalog lacks (root/TLD operators).
    for (asn, name, country) in [
        (EXPERIMENT_AS_US, "Experiment Hosting US", "US"),
        (EXPERIMENT_AS_DE, "Experiment Hosting DE", "DE"),
        (EXPERIMENT_AS_SG, "Experiment Hosting SG", "SG"),
    ] {
        catalog.register(AsInfo {
            asn: Asn(asn),
            name: name.to_string(),
            country: cc(country),
            kind: AsKind::Cloud,
            degree_hint: 4,
        });
    }
    for dest in DNS_DESTINATIONS {
        let asn = Asn(if dest.operator_asn == 0 {
            EXPERIMENT_AS_US
        } else {
            dest.operator_asn
        });
        if catalog.get(asn).is_none() {
            catalog.register(AsInfo {
                asn,
                name: format!("{} operator", dest.name),
                country: cc(dest.country),
                kind: AsKind::ResolverOperator,
                degree_hint: 5,
            });
        }
    }

    // --- Address plan -----------------------------------------------------
    let mut alloc = PrefixAllocator::new();
    for dest in DNS_DESTINATIONS {
        alloc.withhold(Ipv4Prefix::containing(dest.addr, 24));
    }
    let mut geo = GeoDb::new();
    let mut as_prefix = HashMap::new();
    let mut as_list: Vec<Asn> = catalog.iter().map(|a| a.asn).collect();
    as_list.sort();
    for asn in &as_list {
        let info = catalog.get(*asn).expect("listed").clone();
        let len = match info.kind {
            AsKind::IspBackbone => 14,
            AsKind::Cloud | AsKind::ResolverOperator => 16,
            _ => 17,
        };
        let prefix = alloc.alloc(len).expect("IPv4 pool large enough");
        geo.insert_for_as(prefix, &info);
        as_prefix.insert(*asn, prefix);
    }
    // Real destination addresses live in their operators' networks.
    for dest in DNS_DESTINATIONS {
        let asn = Asn(if dest.operator_asn == 0 {
            EXPERIMENT_AS_US
        } else {
            dest.operator_asn
        });
        geo.insert(GeoRecord {
            prefix: Ipv4Prefix::containing(dest.addr, 24),
            asn,
            country: cc(dest.country),
            hosting: HostingLabel::Hosting,
        });
    }

    // --- Topology: ASes and routers ---------------------------------------
    let mut tb = TopologyBuilder::new(config.seed ^ 0x7090);
    for asn in &as_list {
        let info = catalog.get(*asn).expect("listed");
        let region = country_info(info.country)
            .map(|ci| ci.region)
            .unwrap_or(Region::NorthAmerica);
        tb.add_as(*asn, region);
    }
    let mut rng = ChaCha20Rng::seed_from_u64(config.seed ^ 0x0b5e_77e5);
    for asn in &as_list {
        let info = catalog.get(*asn).expect("listed").clone();
        let prefix = as_prefix[asn];
        let router_count = if info.kind == AsKind::IspBackbone {
            config.routers_per_as * 4
        } else {
            config.routers_per_as
        };
        for r in 0..router_count {
            let addr = prefix.host(r as u32 + 1).expect("router addr in prefix");
            let responds = rng.gen_range(0..100u8) < config.icmp_response_percent;
            tb.add_router(*asn, addr, responds)
                .expect("AS registered above");
        }
    }

    let mut b = Builder {
        config,
        rng,
        catalog,
        geo,
        tb,
        as_prefix,
        next_host_index: HashMap::new(),
        hosts: Vec::new(),
        taps: Vec::new(),
        ground_truth: GroundTruth::default(),
        zone: zone.clone(),
        origin_pools: HashMap::new(),
        as_in_cache: HashMap::new(),
    };

    link_topology(&mut b);
    let honeypots = place_honeypots(&mut b);
    place_origin_pools(&mut b, &honeypots);
    let dns_destinations = place_dns_destinations(&mut b, &honeypots);
    let tranco = place_tranco_sites(&mut b, &honeypots);
    let platform = recruit_vps(&mut b);
    place_dpi_taps(&mut b, &tranco, &platform);
    place_interceptors(&mut b);

    // --- Freeze -----------------------------------------------------------
    let Builder {
        config,
        catalog,
        geo,
        tb,
        hosts,
        taps,
        mut ground_truth,
        zone,
        ..
    } = b;
    // A subset of on-wire observer routers speak BGP (the §5.2 open-port
    // finding: most observers expose nothing; port 179 leads the rest).
    let topo = tb.build().expect("world topology is well-formed");
    {
        let mut marker = ChaCha20Rng::seed_from_u64(config.seed ^ 0xb9_19);
        for (node, _) in &ground_truth.dpi_taps {
            if marker.gen_range(0..100) < 25 {
                ground_truth
                    .bgp_speaking_observers
                    .insert(topo.node(*node).addr);
            }
        }
    }
    let mut engine = Engine::new(topo);
    for (node, host) in hosts {
        engine.add_host(node, host);
    }
    for (node, tap) in taps {
        engine.add_tap(node, tap);
    }
    WorldSpec(World {
        config,
        engine,
        catalog,
        geo,
        platform,
        zone,
        auth_node: honeypots.auth_node,
        auth_addr: honeypots.auth_addr,
        honey_web: honeypots.web,
        control_node: honeypots.control_node,
        control_addr: honeypots.control_addr,
        dns_destinations,
        tranco,
        ground_truth,
    })
}

/// Honeypot handles threaded through the later phases.
struct Honeypots {
    auth_node: NodeId,
    auth_addr: Ipv4Addr,
    web: Vec<(NodeId, Ipv4Addr, String)>,
    control_node: NodeId,
    control_addr: Ipv4Addr,
}

fn link_topology(b: &mut Builder) {
    // 1. Every non-backbone AS homes to backbone(s) of its country; in CN
    //    the selection is biased towards AS4134, making Chinanet the transit
    //    most CN paths cross (Table 3).
    let all: Vec<AsInfo> = b.catalog.iter().cloned().collect();
    for info in &all {
        if info.kind == AsKind::IspBackbone {
            continue;
        }
        let backbones = b.backbones_of(info.country);
        if backbones.is_empty() {
            continue;
        }
        let primary = if info.country == cc("CN") && backbones.contains(&Asn(4134)) {
            if b.rng.gen_range(0..100) < 50 {
                Asn(4134)
            } else {
                *backbones.choose(&mut b.rng).expect("non-empty")
            }
        } else {
            *backbones.choose(&mut b.rng).expect("non-empty")
        };
        b.link_if_new(info.asn, primary);
        // Clouds multi-home to a second backbone.
        if info.kind == AsKind::Cloud && backbones.len() > 1 {
            let secondary = *backbones.choose(&mut b.rng).expect("non-empty");
            b.link_if_new(info.asn, secondary);
        }
    }

    // 2. Backbones of one region form a ring plus chords.
    let regions = [
        Region::NorthAmerica,
        Region::SouthAmerica,
        Region::Europe,
        Region::EastAsia,
        Region::SouthAsia,
        Region::SoutheastAsia,
        Region::MiddleEast,
        Region::Africa,
        Region::Oceania,
    ];
    let mut hubs: Vec<Asn> = Vec::new();
    for region in regions {
        let mut backbones: Vec<Asn> = COUNTRIES
            .iter()
            .filter(|ci| ci.region == region)
            .flat_map(|ci| b.backbones_of(ci.code))
            .collect();
        backbones.sort();
        backbones.dedup();
        if backbones.is_empty() {
            continue;
        }
        for i in 0..backbones.len() {
            let next = backbones[(i + 1) % backbones.len()];
            b.link_if_new(backbones[i], next);
            if i % 3 == 0 && backbones.len() > 4 {
                let chord = backbones[(i + backbones.len() / 2) % backbones.len()];
                b.link_if_new(backbones[i], chord);
            }
        }
        // Hub: the backbone of the region's heaviest country (CN in East
        // Asia ⇒ AS4134 by numeric order).
        let heaviest = COUNTRIES
            .iter()
            .filter(|ci| ci.region == region)
            .max_by_key(|ci| ci.weight)
            .expect("region non-empty");
        if let Some(&hub) = b.backbones_of(heaviest.code).first() {
            hubs.push(hub);
        }
    }
    // 3. Hubs mesh fully (inter-region transit).
    for i in 0..hubs.len() {
        for j in i + 1..hubs.len() {
            b.link_if_new(hubs[i], hubs[j]);
        }
    }
    // 4. Clouds get one long-haul link to a foreign hub ("strong paths to
    //    other networks"); resolver operators uplink to their own region's
    //    hub, so anycast catchments follow geography.
    let hub_of_region: HashMap<Region, Asn> = regions
        .iter()
        .filter_map(|&region| {
            let heaviest = COUNTRIES
                .iter()
                .filter(|ci| ci.region == region)
                .max_by_key(|ci| ci.weight)?;
            b.backbones_of(heaviest.code)
                .first()
                .map(|&hub| (region, hub))
        })
        .collect();
    for info in &all {
        match info.kind {
            AsKind::Cloud if !hubs.is_empty() => {
                let hub = hubs[b.rng.gen_range(0..hubs.len())];
                b.link_if_new(info.asn, hub);
            }
            AsKind::ResolverOperator => {
                let region = country_info(info.country)
                    .map(|ci| ci.region)
                    .unwrap_or(Region::NorthAmerica);
                if let Some(&hub) = hub_of_region.get(&region) {
                    b.link_if_new(info.asn, hub);
                }
            }
            _ => {}
        }
    }
    // 5. Andorra's transit detours through Chinanet, so paths to AD-hosted
    //    sites cross CN observers (the Fig-3 "AD destinations" signal).
    if b.catalog.get(Asn(4134)).is_some() {
        for asn in b.backbones_of(cc("AD")) {
            b.link_if_new(asn, Asn(4134));
        }
    }
}

fn place_honeypots(b: &mut Builder) -> Honeypots {
    let us = Asn(EXPERIMENT_AS_US);
    let de = Asn(EXPERIMENT_AS_DE);
    let sg = Asn(EXPERIMENT_AS_SG);

    let mut web = Vec::new();
    let mut web_addrs = Vec::new();
    for (asn, region, seed) in [(us, "US", 11u32), (de, "DE", 12), (sg, "SG", 13)] {
        let (node, addr) = b.add_host_in(asn);
        b.place(node, WebHost::honeypot(addr, region, seed));
        web.push((node, addr, region.to_string()));
        web_addrs.push(addr);
    }

    let (auth_node, auth_addr) = b.add_host_in(us);
    b.place(
        auth_node,
        ExperimentAuthorityHost::new(auth_addr, b.zone.clone(), web_addrs),
    );

    let (control_node, control_addr) = b.add_host_in(us);
    b.place(control_node, ControlServerHost::default());

    Honeypots {
        auth_node,
        auth_addr,
        web,
        control_node,
        control_addr,
    }
}

/// Create every exhibitor's probe-origin pool. Pool composition controls
/// the emergent blocklist hit rates: DNS re-queries mostly route through
/// public resolvers (clean egresses ⇒ the ~5% dirty rate of Figure 6),
/// while HTTP/TLS probes come straight from the (often dirty) origins
/// (the 45–72% rates of Section 5).
fn place_origin_pools(b: &mut Builder, honeypots: &Honeypots) {
    let google = DnsVia::Resolver(Ipv4Addr::new(8, 8, 8, 8));
    let direct = DnsVia::Authoritative(honeypots.auth_addr);
    let seed = b.config.seed;

    let cn_cloud = b.as_in(cc("CN"), AsKind::Cloud);
    let ru_cloud = b.as_in(cc("RU"), AsKind::Cloud);
    let us_cloud = b.as_in(cc("US"), AsKind::Cloud);

    let pool = |b: &mut Builder, label: &str, specs: &[(Asn, DnsVia, bool, u32)]| {
        let choices: Vec<WeightedChoice<NodeId>> = specs
            .iter()
            .enumerate()
            .map(|(i, &(asn, via, dirty, weight))| {
                let node = b.add_origin(
                    asn,
                    via,
                    dirty,
                    seed ^ ((i as u64) << 32) ^ fnv1a64(label.as_bytes()),
                );
                WeightedChoice::new(node, weight)
            })
            .collect();
        b.origin_pools.insert(label.to_string(), choices);
    };

    pool(
        b,
        "Yandex",
        &[
            (Asn(13238), google, false, 40),
            (ru_cloud, google, true, 45),
            (us_cloud, direct, true, 15),
        ],
    );
    // Figure 6: 114DNS fans out to 4 ASes (ISPs and cloud platforms).
    pool(
        b,
        "114DNS",
        &[
            (Asn(4134), google, true, 30),
            (Asn(4837), direct, false, 25),
            (cn_cloud, google, true, 25),
            (Asn(45090), direct, false, 20),
        ],
    );
    pool(
        b,
        "One DNS",
        &[(cn_cloud, google, true, 60), (Asn(4837), google, false, 40)],
    );
    pool(
        b,
        "DNS PAI",
        &[(cn_cloud, google, true, 55), (Asn(4134), google, false, 45)],
    );
    pool(
        b,
        "VERCARA",
        &[
            (us_cloud, google, true, 50),
            (Asn(12222), google, false, 50),
        ],
    );
    // On-wire HTTP/TLS exhibitors (§5.2).
    pool(
        b,
        "AS4134",
        &[
            (Asn(4134), google, true, 45),
            (Asn(140292), google, true, 35),
            (cn_cloud, google, false, 20),
        ],
    );
    pool(
        b,
        "AS58563",
        &[
            (Asn(58563), google, true, 60),
            (Asn(4134), google, false, 40),
        ],
    );
    pool(b, "AS137697", &[(Asn(137697), google, true, 100)]);
    pool(
        b,
        "AS4812",
        &[(Asn(4812), google, true, 55), (cn_cloud, google, false, 45)],
    );
    pool(b, "AS23650", &[(Asn(23650), google, true, 100)]);
    // §5.2: all probes from AS40444 / AS29988 are DNS, from the same AS.
    pool(b, "AS40444", &[(Asn(40444), direct, false, 100)]);
    pool(b, "AS29988", &[(Asn(29988), direct, false, 100)]);
    // On-wire DNS observers (Table 3, DNS rows).
    pool(b, "AS203020", &[(Asn(203020), google, true, 100)]);
    pool(b, "AS4808", &[(Asn(4808), google, false, 100)]);
    pool(b, "AS21859", &[(Asn(21859), google, true, 100)]);
    // Destination-side TLS shadowing (Table 2's 65%-at-destination).
    pool(
        b,
        "tls-dst",
        &[(cn_cloud, google, true, 50), (Asn(4134), google, true, 50)],
    );
}

fn origin_pool(b: &Builder, label: &str) -> Vec<WeightedChoice<NodeId>> {
    b.origin_pools
        .get(label)
        .unwrap_or_else(|| panic!("origin pool {label} missing"))
        .clone()
}

/// Replay policies per shadow class, tuned to the paper's temporal and
/// protocol findings (Figures 4 and 5).
fn policy_for(class: ShadowClass, name: &str) -> Option<ReplayPolicy> {
    match class {
        ShadowClass::Heavy if name == "Yandex" => Some(ReplayPolicy {
            trigger_percent: 99,
            delays: vec![
                WeightedChoice::new(DelayBucket::Seconds(2, 50), 8),
                WeightedChoice::new(DelayBucket::Hours(1, 20), 22),
                WeightedChoice::new(DelayBucket::Days(1, 9), 30),
                WeightedChoice::new(DelayBucket::Days(10, 25), 40),
            ],
            protocols: vec![
                WeightedChoice::new(ProbeKind::Dns, 77),
                WeightedChoice::new(ProbeKind::Http, 14),
                WeightedChoice::new(ProbeKind::Https, 9),
            ],
            reuse: vec![
                WeightedChoice::new(2, 20),
                WeightedChoice::new(3, 35),
                WeightedChoice::new(4, 30),
                WeightedChoice::new(6, 15),
            ],
        }),
        ShadowClass::Heavy | ShadowClass::HeavyCnAnycast => Some(ReplayPolicy {
            trigger_percent: if class == ShadowClass::HeavyCnAnycast {
                92
            } else {
                88
            },
            delays: vec![
                WeightedChoice::new(DelayBucket::Seconds(2, 50), 10),
                WeightedChoice::new(DelayBucket::Hours(1, 20), 40),
                WeightedChoice::new(DelayBucket::Days(1, 12), 50),
            ],
            protocols: vec![
                WeightedChoice::new(ProbeKind::Dns, 77),
                WeightedChoice::new(ProbeKind::Http, 14),
                WeightedChoice::new(ProbeKind::Https, 9),
            ],
            reuse: vec![
                WeightedChoice::new(2, 25),
                WeightedChoice::new(3, 35),
                WeightedChoice::new(4, 30),
                WeightedChoice::new(6, 10),
            ],
        }),
        ShadowClass::Moderate => Some(ReplayPolicy {
            trigger_percent: 60,
            delays: vec![
                WeightedChoice::new(DelayBucket::Seconds(2, 50), 25),
                WeightedChoice::new(DelayBucket::Hours(1, 20), 40),
                WeightedChoice::new(DelayBucket::Days(1, 8), 35),
            ],
            protocols: vec![
                WeightedChoice::new(ProbeKind::Dns, 80),
                WeightedChoice::new(ProbeKind::Http, 12),
                WeightedChoice::new(ProbeKind::Https, 8),
            ],
            reuse: vec![WeightedChoice::new(1, 40), WeightedChoice::new(3, 60)],
        }),
        ShadowClass::Benign | ShadowClass::None => None,
    }
}

fn place_dns_destinations(b: &mut Builder, honeypots: &Honeypots) -> Vec<DeployedDnsDestination> {
    let zone_table = vec![(b.zone.clone(), honeypots.auth_addr)];
    let mut deployed = Vec::new();
    for dest in DNS_DESTINATIONS {
        let operator = Asn(if dest.operator_asn == 0 {
            EXPERIMENT_AS_US
        } else {
            dest.operator_asn
        });
        let mut nodes = Vec::new();
        match dest.kind {
            DnsDestinationKind::Root | DnsDestinationKind::Tld => {
                let node =
                    b.tb.add_host(operator, dest.addr)
                        .expect("operator AS registered");
                nodes.push(node);
                let ns_name = format!("ns.{}.example", dest.name.replace('.', "-"));
                b.place(
                    node,
                    StaticAuthorityHost::new(dest.addr, &ns_name, AuthorityMode::Referral),
                );
            }
            DnsDestinationKind::SelfBuiltResolver => {
                let node =
                    b.tb.add_host(operator, dest.addr)
                        .expect("operator AS registered");
                let egress = bump_last_octet(dest.addr, 1);
                b.tb.add_alias(node, egress).expect("node just added");
                nodes.push(node);
                let profile = ResolverProfile::well_behaved(dest.name, b.config.seed ^ 0xce11);
                b.place(
                    node,
                    RecursiveResolverHost::new(dest.addr, egress, profile, zone_table.clone()),
                );
            }
            DnsDestinationKind::PublicResolver => {
                if dest.shadow_class == ShadowClass::HeavyCnAnycast {
                    // 114DNS: a clean US instance (registered first, so
                    // distance ties resolve to it) and a shadowing CN one.
                    let us_as = b.as_in(cc("US"), AsKind::Cloud);
                    let us_node =
                        b.tb.add_host(us_as, dest.addr)
                            .expect("US cloud registered");
                    let us_egress = bump_last_octet(dest.addr, 2);
                    b.tb.add_alias(us_node, us_egress).expect("node just added");
                    let us_profile = ResolverProfile::with_retries(
                        &format!("{} (US)", dest.name),
                        b.config.seed ^ 0x0011_5d05,
                    );
                    b.place(
                        us_node,
                        RecursiveResolverHost::new(
                            dest.addr,
                            us_egress,
                            us_profile,
                            zone_table.clone(),
                        ),
                    );
                    let cn_node =
                        b.tb.add_host(operator, dest.addr)
                            .expect("operator AS registered");
                    let cn_egress = bump_last_octet(dest.addr, 1);
                    b.tb.add_alias(cn_node, cn_egress).expect("node just added");
                    let profile = ResolverProfile::shadowing(
                        &format!("{} (CN)", dest.name),
                        b.config.seed ^ u64::from(dest.operator_asn),
                        ExhibitorConfig {
                            zone_filter: None,
                            policy: policy_for(dest.shadow_class, dest.name)
                                .expect("anycast class has a policy"),
                            retention_capacity: 1_000_000,
                            retention_ttl: SimDuration::from_days(20),
                            origins: origin_pool(b, dest.name),
                        },
                    );
                    b.ground_truth
                        .shadowing_resolvers
                        .push(format!("{} (CN)", dest.name));
                    b.place(
                        cn_node,
                        RecursiveResolverHost::new(
                            dest.addr,
                            cn_egress,
                            profile,
                            zone_table.clone(),
                        ),
                    );
                    nodes.push(us_node);
                    nodes.push(cn_node);
                } else {
                    let node =
                        b.tb.add_host(operator, dest.addr)
                            .expect("operator AS registered");
                    let egress = bump_last_octet(dest.addr, 1);
                    b.tb.add_alias(node, egress).expect("node just added");
                    nodes.push(node);
                    let profile = match policy_for(dest.shadow_class, dest.name) {
                        Some(policy) => {
                            b.ground_truth
                                .shadowing_resolvers
                                .push(dest.name.to_string());
                            ResolverProfile::shadowing(
                                dest.name,
                                b.config.seed ^ u64::from(dest.operator_asn),
                                ExhibitorConfig {
                                    zone_filter: None,
                                    policy,
                                    retention_capacity: 1_000_000,
                                    retention_ttl: SimDuration::from_days(30),
                                    origins: origin_pool(b, dest.name),
                                },
                            )
                        }
                        None => ResolverProfile::with_retries(
                            dest.name,
                            b.config.seed ^ u64::from(dest.operator_asn),
                        ),
                    };
                    b.place(
                        node,
                        RecursiveResolverHost::new(dest.addr, egress, profile, zone_table.clone()),
                    );
                }
            }
        }
        // Pair-resolver address: a silent host in the same /24 (queries to
        // it are blackholed unless an interceptor answers).
        let pair_addr = pair_address(dest.addr);
        b.tb.add_host(operator, pair_addr)
            .expect("operator AS registered");
        deployed.push(DeployedDnsDestination {
            dest,
            nodes,
            addr: dest.addr,
            pair_addr,
        });
    }
    deployed
}

fn bump_last_octet(addr: Ipv4Addr, by: u8) -> Ipv4Addr {
    let o = addr.octets();
    Ipv4Addr::new(o[0], o[1], o[2], o[3].wrapping_add(by))
}

fn place_tranco_sites(b: &mut Builder, _honeypots: &Honeypots) -> Vec<TrancoSite> {
    // Country palette loosely matching where top sites are hosted, with the
    // countries Figure 3 calls out (CN, AD, US, CA) well represented.
    let palette: &[(&str, u32)] = &[
        ("CN", 26),
        ("US", 22),
        ("CA", 8),
        ("AD", 7),
        ("DE", 7),
        ("GB", 6),
        ("JP", 5),
        ("FR", 4),
        ("NL", 4),
        ("SG", 3),
        ("RU", 3),
        ("BR", 3),
        ("IN", 2),
    ];
    let total: u32 = palette.iter().map(|&(_, w)| w).sum();
    let mut sites = Vec::new();
    for i in 0..b.config.tranco_sites {
        let mut pick = b.rng.gen_range(0..total);
        let mut country = cc("US");
        for &(code, weight) in palette {
            if pick < weight {
                country = cc(code);
                break;
            }
            pick -= weight;
        }
        // A couple of US sites sit behind Constant Contact so paths to them
        // cross the AS40444 observer.
        let asn = if country == cc("US") && i % 12 == 3 {
            Asn(40444)
        } else if country == cc("CA") && i % 2 == 0 {
            Asn(29988)
        } else {
            let kind = if b.rng.gen_range(0..100) < 60 {
                AsKind::Cloud
            } else {
                AsKind::Enterprise
            };
            b.as_in(country, kind)
        };
        let (node, addr) = b.add_host_in(asn);
        // A slice of CN-hosted sites shadow SNI at the destination — the
        // source of Table 2's TLS-at-destination mass.
        let mut site = WebHost::plain(addr, i as u32);
        if country == cc("CN") && b.rng.gen_range(0..100) < 30 {
            let sensor = ExhibitorConfig {
                zone_filter: Some(b.zone.clone()),
                policy: ReplayPolicy {
                    trigger_percent: 75,
                    delays: vec![
                        WeightedChoice::new(DelayBucket::Minutes(2, 50), 20),
                        WeightedChoice::new(DelayBucket::Hours(1, 20), 40),
                        WeightedChoice::new(DelayBucket::Days(1, 6), 40),
                    ],
                    protocols: vec![
                        WeightedChoice::new(ProbeKind::Dns, 40),
                        WeightedChoice::new(ProbeKind::Http, 35),
                        WeightedChoice::new(ProbeKind::Https, 25),
                    ],
                    reuse: vec![WeightedChoice::new(1, 50), WeightedChoice::new(2, 50)],
                },
                retention_capacity: 100_000,
                retention_ttl: SimDuration::from_days(8),
                origins: origin_pool(b, "tls-dst"),
            };
            site = site.with_shadow("tls-dst", b.config.seed ^ (i as u64) << 17, sensor);
        }
        b.place(node, site);
        sites.push(TrancoSite {
            node,
            addr,
            country,
        });
    }
    sites
}

fn recruit_vps(b: &mut Builder) -> Platform {
    let mut vps = Vec::new();
    let mut next_id = 0u32;

    // Country palette for global VPs: everything but CN, weighted.
    let global_countries: Vec<(CountryCode, u32)> = COUNTRIES
        .iter()
        .filter(|ci| ci.code != cc("CN"))
        .map(|ci| (ci.code, ci.weight))
        .collect();
    let global_total: u32 = global_countries.iter().map(|&(_, w)| w).sum();

    let global_providers: Vec<_> = providers_in(Market::Global).collect();
    for i in 0..b.config.vps_global {
        let provider = global_providers[i % global_providers.len()];
        let mut pick = b.rng.gen_range(0..global_total);
        let mut country = cc("US");
        for &(code, weight) in &global_countries {
            if pick < weight {
                country = code;
                break;
            }
            pick -= weight;
        }
        let asn = b.as_in(country, AsKind::Cloud);
        let (node, addr) = b.add_host_in(asn);
        b.place(
            node,
            VantagePointHost::new(addr, next_id.wrapping_mul(97) | 1, provider.rewrites_ttl),
        );
        let advertised = if b.rng.gen_range(0..100) < 7 {
            // Skewed marketing location.
            cc("PA")
        } else {
            country
        };
        vps.push(VantagePoint {
            id: VpId(next_id),
            provider: provider.name,
            market: Market::Global,
            node,
            addr,
            advertised_country: advertised,
            country,
            ttl_rewrite: provider.rewrites_ttl,
            residential: provider.covertly_residential,
        });
        next_id += 1;
    }

    let cn_providers: Vec<_> = providers_in(Market::China).collect();
    // Spread CN VPs across every CN *cloud* AS (datacenter egress only,
    // per the Appendix C vetting). The candidate list is a pure catalog
    // scan — hoisted out of the loop, same list every iteration.
    let cn_clouds: Vec<Asn> = b
        .catalog
        .in_country(cc("CN"))
        .filter(|a| a.kind == AsKind::Cloud)
        .map(|a| a.asn)
        .collect();
    for i in 0..b.config.vps_cn {
        let provider = cn_providers[i % cn_providers.len()];
        let asn = if cn_clouds.is_empty() {
            b.as_in(cc("CN"), AsKind::Cloud)
        } else {
            cn_clouds[b.rng.gen_range(0..cn_clouds.len())]
        };
        let (node, addr) = b.add_host_in(asn);
        b.place(
            node,
            VantagePointHost::new(addr, next_id.wrapping_mul(97) | 1, provider.rewrites_ttl),
        );
        vps.push(VantagePoint {
            id: VpId(next_id),
            provider: provider.name,
            market: Market::China,
            node,
            addr,
            advertised_country: cc("CN"),
            country: cc("CN"),
            ttl_rewrite: provider.rewrites_ttl,
            residential: provider.covertly_residential,
        });
        next_id += 1;
    }

    let mut platform = Platform::new(vps);
    platform.vet_residential(&b.geo);
    platform
}

/// On-wire observers (Tables 2–3, §5.2): DPI taps on selected routers of
/// the observer ASes. Backbones have 3× the routers but only one tapped
/// router each, so only a fraction of paths through them are observed —
/// reproducing the <10% HTTP/TLS path ratios of Figure 3.
fn place_dpi_taps(b: &mut Builder, tranco: &[TrancoSite], platform: &Platform) {
    struct DpiPlacement {
        asn: u32,
        label: &'static str,
        dns: bool,
        http: bool,
        tls: bool,
        routers_tapped: usize,
        protocols: Vec<WeightedChoice<ProbeKind>>,
        retention: SimDuration,
        trigger: u8,
    }
    // On-wire DNS observers profile traffic to the large public resolvers
    // only (destination preference, Section 4).
    let resolver_dsts: std::collections::BTreeSet<Ipv4Addr> = DNS_DESTINATIONS
        .iter()
        .filter(|d| d.kind == DnsDestinationKind::PublicResolver)
        .map(|d| d.addr)
        .collect();
    // The name-blind fallback table every wire observer carries: published
    // resolver addresses plus the addresses popular sites resolve to —
    // knowledge a real DPI operator curates out of band. Built from ground
    // truth only (no RNG draws), so tap placement and the packet streams
    // are untouched at any deployment level.
    let mut fingerprints = shadow_observer::FingerprintDb::new();
    for dest in DNS_DESTINATIONS {
        fingerprints.insert(dest.addr, dest.name);
    }
    for site in tranco {
        fingerprints.insert(site.addr, format!("site:{}", site.country));
    }
    // Ground-truth bookkeeping for the wire-recall telemetry: flows the
    // measurement platform originates. Keeps the observers' own probe
    // replays out of the recall numerators (a recall that counted the
    // shadowers' plaintext re-queries of sealed names would be circular).
    let recall_sources: std::collections::BTreeSet<Ipv4Addr> =
        platform.vps.iter().map(|vp| vp.addr).collect();
    let dns_only = vec![WeightedChoice::new(ProbeKind::Dns, 1)];
    // §5.2: HTTP decoys observed in AS4134 → 66% HTTP, 17% HTTPS probes.
    let as4134_mix = vec![
        WeightedChoice::new(ProbeKind::Http, 66),
        WeightedChoice::new(ProbeKind::Https, 17),
        WeightedChoice::new(ProbeKind::Dns, 17),
    ];
    let generic_mix = vec![
        WeightedChoice::new(ProbeKind::Http, 50),
        WeightedChoice::new(ProbeKind::Dns, 30),
        WeightedChoice::new(ProbeKind::Https, 20),
    ];
    let specs = vec![
        // Chinanet backbone: the dominant HTTP observer (Table 3) plus a
        // lighter TLS tap (Table 2's on-wire TLS minority).
        DpiPlacement {
            asn: 4134,
            label: "AS4134",
            dns: false,
            http: true,
            tls: false,
            routers_tapped: 2,
            protocols: as4134_mix.clone(),
            retention: SimDuration::from_days(2),
            trigger: 85,
        },
        DpiPlacement {
            asn: 4134,
            label: "AS4134",
            dns: false,
            http: false,
            tls: true,
            routers_tapped: 1,
            protocols: as4134_mix,
            retention: SimDuration::from_days(2),
            trigger: 70,
        },
        DpiPlacement {
            asn: 58563,
            label: "AS58563",
            dns: false,
            http: true,
            tls: false,
            routers_tapped: 1,
            protocols: generic_mix.clone(),
            retention: SimDuration::from_days(1),
            trigger: 85,
        },
        DpiPlacement {
            asn: 137697,
            label: "AS137697",
            dns: false,
            http: true,
            tls: false,
            routers_tapped: 1,
            protocols: generic_mix.clone(),
            retention: SimDuration::from_days(1),
            trigger: 85,
        },
        DpiPlacement {
            asn: 4812,
            label: "AS4812",
            dns: false,
            http: false,
            tls: true,
            routers_tapped: 1,
            protocols: generic_mix.clone(),
            retention: SimDuration::from_days(2),
            trigger: 60,
        },
        DpiPlacement {
            asn: 23650,
            label: "AS23650",
            dns: false,
            http: false,
            tls: true,
            routers_tapped: 1,
            protocols: generic_mix,
            retention: SimDuration::from_days(2),
            trigger: 60,
        },
        DpiPlacement {
            asn: 40444,
            label: "AS40444",
            dns: false,
            http: true,
            tls: false,
            routers_tapped: 1,
            protocols: dns_only.clone(),
            retention: SimDuration::from_hours(18),
            trigger: 95,
        },
        DpiPlacement {
            asn: 29988,
            label: "AS29988",
            dns: false,
            http: true,
            tls: false,
            routers_tapped: 1,
            protocols: dns_only.clone(),
            retention: SimDuration::from_hours(18),
            trigger: 95,
        },
        // The on-wire *DNS* observers of Table 3: real but rare (Table 2
        // puts 99.7% of DNS shadowing at the destination), so their taps
        // fire sparsely and replay briefly.
        DpiPlacement {
            asn: 203020,
            label: "AS203020",
            dns: true,
            http: false,
            tls: false,
            routers_tapped: 1,
            protocols: dns_only.clone(),
            retention: SimDuration::from_hours(12),
            trigger: 20,
        },
        DpiPlacement {
            asn: 4808,
            label: "AS4808",
            dns: true,
            http: false,
            tls: false,
            routers_tapped: 1,
            protocols: dns_only.clone(),
            retention: SimDuration::from_hours(12),
            trigger: 15,
        },
        DpiPlacement {
            asn: 21859,
            label: "AS21859",
            dns: true,
            http: false,
            tls: false,
            routers_tapped: 1,
            protocols: dns_only,
            retention: SimDuration::from_hours(12),
            trigger: 15,
        },
    ];

    for (i, spec) in specs.into_iter().enumerate() {
        let policy = ReplayPolicy {
            trigger_percent: spec.trigger,
            delays: vec![
                WeightedChoice::new(DelayBucket::Minutes(1, 50), 30),
                WeightedChoice::new(DelayBucket::Hours(1, 16), 45),
                WeightedChoice::new(DelayBucket::Days(1, 2), 25),
            ],
            protocols: spec.protocols,
            reuse: vec![
                WeightedChoice::new(1, 50),
                WeightedChoice::new(2, 35),
                WeightedChoice::new(4, 15),
            ],
        };
        let origins = origin_pool(b, spec.label);
        // Copy out: the loop body mutates the builder while iterating.
        let routers: Vec<NodeId> = b
            .tb_routers(Asn(spec.asn))
            .iter()
            .take(spec.routers_tapped)
            .copied()
            .collect();
        for (j, router) in routers.iter().enumerate() {
            let config = DpiConfig {
                label: spec.label.to_string(),
                watch_dns: spec.dns,
                watch_http: spec.http,
                watch_tls: spec.tls,
                dst_filter: if spec.dns {
                    Some(resolver_dsts.clone())
                } else {
                    None
                },
                exhibitor: ExhibitorConfig {
                    zone_filter: Some(b.zone.clone()),
                    policy: policy.clone(),
                    retention_capacity: 500_000,
                    retention_ttl: spec.retention,
                    origins: origins.clone(),
                },
                seed: b.config.seed ^ ((i as u64) << 24) ^ ((j as u64) << 8),
                fingerprints: fingerprints.clone(),
                recall_sources: Some(recall_sources.clone()),
            };
            b.taps.push((*router, Box::new(DpiTap::new(config))));
            b.ground_truth
                .dpi_taps
                .push((*router, spec.label.to_string()));
        }
    }
}

impl Builder {
    /// Router nodes of an AS as recorded by the topology builder.
    fn tb_routers(&self, asn: Asn) -> &[NodeId] {
        self.tb.routers_of(asn)
    }
}

fn place_interceptors(b: &mut Builder) {
    // Interception middleboxes on the edge routers of some CN cloud ASes,
    // so they actually sit on the paths of the VPs hosted there
    // (Appendix E noise).
    let cn_clouds: Vec<Asn> = b
        .catalog
        .in_country(cc("CN"))
        .filter(|a| a.kind == AsKind::Cloud && a.asn.0 >= 400_000)
        .map(|a| a.asn)
        .collect();
    for i in 0..b.config.interceptors {
        if cn_clouds.is_empty() {
            break;
        }
        let asn = cn_clouds[i % cn_clouds.len()];
        let Some(&router) = b.tb_routers(asn).first() else {
            continue;
        };
        if b.ground_truth.interceptor_nodes.contains(&router) {
            continue;
        }
        b.taps.push((
            router,
            Box::new(InterceptorTap::redirect(Ipv4Addr::new(127, 66, 66, 66))),
        ));
        b.ground_truth.interceptor_nodes.push(router);
    }
}
