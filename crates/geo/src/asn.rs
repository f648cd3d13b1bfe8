//! Autonomous-system registry.
//!
//! Mixes a catalog of the real ASes named in the paper (so that reproduced
//! tables read like the originals) with per-country synthetic ASes generated
//! deterministically from a seed.

use crate::country::{cc, CountryCode, Region, COUNTRIES};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha20Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Autonomous system number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Broad AS role; drives topology degree, observer placement, and the
/// "hosting" label the paper checks via IPinfo (Appendix C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsKind {
    /// National backbone carrier (e.g. Chinanet). High degree, transits
    /// large volumes; the paper finds most on-wire observers here.
    IspBackbone,
    /// Regional/provincial ISP network (e.g. Chinanet Hubei).
    IspRegional,
    /// Cloud / hosting platform (e.g. HostRoyale, Zenlayer). Labeled
    /// "hosting" by IP-intel databases; datacenter VPN egress lives here.
    Cloud,
    /// Operator of a public DNS service (e.g. Yandex, Google).
    ResolverOperator,
    /// Eyeball/enterprise stub network.
    Enterprise,
}

impl AsKind {
    /// Whether IP-intel databases label addresses in this AS as "hosting"
    /// (the vetting signal used in Appendix C: 71/74 global VP ASes were
    /// labeled hosting).
    pub fn hosting_label(self) -> bool {
        matches!(self, AsKind::Cloud | AsKind::ResolverOperator)
    }
}

/// Registry entry for one AS.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsInfo {
    pub asn: Asn,
    pub name: String,
    pub country: CountryCode,
    pub kind: AsKind,
    /// Topology degree hint: backbone ASes peer widely, stubs do not.
    pub degree_hint: u8,
}

/// A real-world AS that appears in the paper's tables and figures.
pub struct WellKnownAs {
    pub asn: u32,
    pub name: &'static str,
    pub country: &'static str,
    pub kind: AsKind,
}

/// The ASes the paper names explicitly (Tables 3, Figure 6, Section 5.2),
/// plus the resolver operators behind Table 4.
pub const WELL_KNOWN_ASES: &[WellKnownAs] = &[
    // Table 3 — on-path observers.
    WellKnownAs {
        asn: 4134,
        name: "CHINANET-BACKBONE",
        country: "CN",
        kind: AsKind::IspBackbone,
    },
    WellKnownAs {
        asn: 58563,
        name: "CHINANET Hubei province network",
        country: "CN",
        kind: AsKind::IspRegional,
    },
    WellKnownAs {
        asn: 137697,
        name: "CHINATELECOM JiangSu",
        country: "CN",
        kind: AsKind::IspRegional,
    },
    WellKnownAs {
        asn: 4812,
        name: "China Telecom (Group)",
        country: "CN",
        kind: AsKind::IspBackbone,
    },
    WellKnownAs {
        asn: 23650,
        name: "CHINANET jiangsu backbone",
        country: "CN",
        kind: AsKind::IspBackbone,
    },
    WellKnownAs {
        asn: 4808,
        name: "China Unicom Beijing Province Network",
        country: "CN",
        kind: AsKind::IspRegional,
    },
    WellKnownAs {
        asn: 203020,
        name: "HostRoyale Technologies Pvt Ltd",
        country: "IN",
        kind: AsKind::Cloud,
    },
    WellKnownAs {
        asn: 21859,
        name: "Zenlayer Inc",
        country: "US",
        kind: AsKind::Cloud,
    },
    WellKnownAs {
        asn: 140292,
        name: "CHINATELECOM Jiangsu",
        country: "CN",
        kind: AsKind::IspRegional,
    },
    // Section 5.2 — HTTP/TLS observer ASes outside CN.
    WellKnownAs {
        asn: 40444,
        name: "Constant Contact",
        country: "US",
        kind: AsKind::Cloud,
    },
    WellKnownAs {
        asn: 29988,
        name: "Rogers Communications",
        country: "CA",
        kind: AsKind::IspBackbone,
    },
    // Figure 6 — origins of unsolicited DNS re-queries.
    WellKnownAs {
        asn: 15169,
        name: "Google LLC",
        country: "US",
        kind: AsKind::ResolverOperator,
    },
    // Resolver operators behind Table 4 destinations.
    WellKnownAs {
        asn: 13335,
        name: "Cloudflare, Inc.",
        country: "US",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 36692,
        name: "Cisco OpenDNS, LLC",
        country: "US",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 19281,
        name: "Quad9",
        country: "US",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 13238,
        name: "YANDEX LLC",
        country: "RU",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 23724,
        name: "IDC, China Telecommunications (114DNS)",
        country: "CN",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 4837,
        name: "CHINA UNICOM China169 Backbone",
        country: "CN",
        kind: AsKind::IspBackbone,
    },
    WellKnownAs {
        asn: 9808,
        name: "China Mobile Communications Group",
        country: "CN",
        kind: AsKind::IspBackbone,
    },
    WellKnownAs {
        asn: 3356,
        name: "Level 3 Parent, LLC",
        country: "US",
        kind: AsKind::IspBackbone,
    },
    WellKnownAs {
        asn: 6939,
        name: "Hurricane Electric LLC",
        country: "US",
        kind: AsKind::IspBackbone,
    },
    WellKnownAs {
        asn: 12222,
        name: "VERCARA (UltraDNS)",
        country: "US",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 24151,
        name: "CNNIC",
        country: "CN",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 45090,
        name: "Tencent (DNSPod)",
        country: "CN",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 38365,
        name: "Baidu, Inc.",
        country: "CN",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 51559,
        name: "Netinternet (OpenNIC host)",
        country: "TR",
        kind: AsKind::Cloud,
    },
    WellKnownAs {
        asn: 197988,
        name: "SafeDNS, Inc.",
        country: "RU",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 8972,
        name: "DNS.Watch (Host Europe)",
        country: "DE",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 33517,
        name: "Oracle Dyn",
        country: "US",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 4788,
        name: "ONE DNS operator network",
        country: "CN",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 17964,
        name: "DXTNET (DNS PAI)",
        country: "CN",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 131657,
        name: "Quad101 / TWNIC",
        country: "TW",
        kind: AsKind::ResolverOperator,
    },
    WellKnownAs {
        asn: 42473,
        name: "Freenom World",
        country: "NL",
        kind: AsKind::ResolverOperator,
    },
];

/// First ASN handed to synthesized ASes; far above any real assignment we
/// include, so collisions are impossible.
const SYNTHETIC_ASN_BASE: u32 = 400_000;

/// The complete AS registry for one simulated world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsCatalog {
    entries: Vec<AsInfo>,
    by_asn: HashMap<Asn, usize>,
}

impl AsCatalog {
    /// Build a registry: every well-known AS plus `synthetic_per_weight`
    /// synthetic ASes per unit of country weight (so CN/US get many, Andorra
    /// few). Deterministic in `seed`.
    pub fn generate(seed: u64, synthetic_density: f64) -> Self {
        let mut rng = ChaCha20Rng::seed_from_u64(seed ^ 0x5e0a_5ca7_a106);
        let mut entries: Vec<AsInfo> = WELL_KNOWN_ASES
            .iter()
            .map(|w| AsInfo {
                asn: Asn(w.asn),
                name: w.name.to_string(),
                country: cc(w.country),
                kind: w.kind,
                degree_hint: match w.kind {
                    AsKind::IspBackbone => 12,
                    AsKind::IspRegional => 4,
                    AsKind::Cloud => 6,
                    AsKind::ResolverOperator => 6,
                    AsKind::Enterprise => 2,
                },
            })
            .collect();

        let mut next_asn = SYNTHETIC_ASN_BASE;
        for country in COUNTRIES {
            let n = ((country.weight as f64 * synthetic_density).ceil() as u32).max(2);
            for i in 0..n {
                let kind = if i == 0 {
                    // Every country gets at least one backbone so routes
                    // exist...
                    AsKind::IspBackbone
                } else if i % 3 == 1 || (country.weight >= 60 && i % 3 == 2) {
                    // ...and clouds proportional to size (at least one), so
                    // datacenter VPN egress can be recruited anywhere
                    // (Appendix C) and is spread across several hosters —
                    // large markets (CN, US, IN) host disproportionately
                    // many datacenter providers.
                    AsKind::Cloud
                } else {
                    *[
                        AsKind::IspRegional,
                        AsKind::IspRegional,
                        AsKind::Cloud,
                        AsKind::Enterprise,
                        AsKind::Enterprise,
                    ]
                    .choose(&mut rng)
                    .expect("non-empty kind palette")
                };
                let degree_hint = match kind {
                    AsKind::IspBackbone => rng.gen_range(8..=14),
                    AsKind::IspRegional => rng.gen_range(3..=6),
                    AsKind::Cloud => rng.gen_range(4..=8),
                    AsKind::ResolverOperator => 6,
                    AsKind::Enterprise => rng.gen_range(1..=2),
                };
                entries.push(AsInfo {
                    asn: Asn(next_asn),
                    name: synth_as_name(country.code, kind, i),
                    country: country.code,
                    kind,
                    degree_hint,
                });
                next_asn += 1;
            }
        }

        let by_asn = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.asn, i))
            .collect();
        Self { entries, by_asn }
    }

    pub fn get(&self, asn: Asn) -> Option<&AsInfo> {
        self.by_asn.get(&asn).map(|&i| &self.entries[i])
    }

    /// Register an AS after generation (e.g. a root-server operator that is
    /// not in the well-known list). Idempotent for an existing ASN.
    pub fn register(&mut self, info: AsInfo) {
        if self.by_asn.contains_key(&info.asn) {
            return;
        }
        self.by_asn.insert(info.asn, self.entries.len());
        self.entries.push(info);
    }

    pub fn iter(&self) -> impl Iterator<Item = &AsInfo> {
        self.entries.iter()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All ASes registered in `country`.
    pub fn in_country(&self, country: CountryCode) -> impl Iterator<Item = &AsInfo> {
        self.entries.iter().filter(move |e| e.country == country)
    }

    /// The region an AS sits in (via its country).
    pub fn region_of(&self, asn: Asn) -> Option<Region> {
        let info = self.get(asn)?;
        crate::country::country_info(info.country).map(|ci| ci.region)
    }
}

fn synth_as_name(country: CountryCode, kind: AsKind, idx: u32) -> String {
    let role = match kind {
        AsKind::IspBackbone => "Backbone",
        AsKind::IspRegional => "Regional Net",
        AsKind::Cloud => "Cloud Hosting",
        AsKind::ResolverOperator => "DNS Operator",
        AsKind::Enterprise => "Enterprise",
    };
    format!("{country} {role} {idx}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_ases_present() {
        let cat = AsCatalog::generate(7, 0.2);
        let chinanet = cat.get(Asn(4134)).expect("AS4134 must exist");
        assert_eq!(chinanet.name, "CHINANET-BACKBONE");
        assert_eq!(chinanet.country, cc("CN"));
        assert_eq!(chinanet.kind, AsKind::IspBackbone);
        assert!(cat.get(Asn(15169)).is_some(), "Google");
        assert!(cat.get(Asn(203020)).is_some(), "HostRoyale");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = AsCatalog::generate(42, 0.3);
        let b = AsCatalog::generate(42, 0.3);
        assert_eq!(a.entries, b.entries);
    }

    #[test]
    fn different_seed_differs() {
        let a = AsCatalog::generate(1, 0.3);
        let b = AsCatalog::generate(2, 0.3);
        // Same well-known prefix, but synthetic tails should differ in kinds.
        assert_eq!(a.len(), b.len());
        let differing = a
            .iter()
            .zip(b.iter())
            .filter(|(x, y)| x.kind != y.kind)
            .count();
        assert!(differing > 0, "seeds should shuffle synthetic AS kinds");
    }

    #[test]
    fn every_country_has_a_backbone_and_a_cloud() {
        let cat = AsCatalog::generate(3, 0.1);
        for country in COUNTRIES {
            let has_backbone = cat
                .in_country(country.code)
                .any(|a| a.kind == AsKind::IspBackbone);
            assert!(has_backbone, "{} lacks a backbone AS", country.code);
            let has_cloud = cat
                .in_country(country.code)
                .any(|a| a.kind == AsKind::Cloud);
            assert!(has_cloud, "{} lacks a cloud AS", country.code);
        }
    }

    #[test]
    fn asns_are_unique() {
        let cat = AsCatalog::generate(11, 0.4);
        let mut asns: Vec<_> = cat.iter().map(|e| e.asn).collect();
        asns.sort();
        let before = asns.len();
        asns.dedup();
        assert_eq!(before, asns.len());
    }

    #[test]
    fn hosting_label_follows_kind() {
        assert!(AsKind::Cloud.hosting_label());
        assert!(!AsKind::IspBackbone.hosting_label());
        assert!(!AsKind::Enterprise.hosting_label());
    }

    #[test]
    fn display_formats_like_paper() {
        assert_eq!(Asn(4134).to_string(), "AS4134");
    }
}
