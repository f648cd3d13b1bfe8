//! The first-class encryption axis: which transport a decoy flow rides.
//!
//! Until PR 10 the workspace modeled encryption as two booleans bolted onto
//! `Phase1Config` (`encrypted_dns`, `ech_tls`). The paper's §6 discussion —
//! and the related work — need a richer model: DNS can travel over plain
//! UDP/53, DoT, DoH, or DoQ, TLS decoys can expose their SNI, hide it with
//! ECH, or point it at the *wrong* name via a fronted CDN, and real-world
//! deployment is partial, not all-or-nothing. A [`TransportProfile`] names
//! the combination one flow uses; an [`EncryptionDeployment`] names how a
//! whole campaign's flows are distributed over profiles.
//!
//! ## Determinism contract
//!
//! Per-flow adoption is a **pure hash** of the flow's stable identity (VP
//! ident, destination address) — never an RNG stream. This keeps two
//! invariants the equivalence tests pin:
//!
//! * a plaintext deployment (`percent == 0` everywhere) makes every
//!   `profile_for` call return [`TransportProfile::PLAINTEXT`] without
//!   consuming randomness, so pre-PR campaigns stay byte-identical at any
//!   shard count;
//! * adoption sets are **nested** across deployment levels: the same
//!   `(ident, dst)` that adopts at 25% also adopts at 60%, which is what
//!   makes on-wire name recall fall *monotonically* as deployment deepens.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// How a DNS decoy query travels to its resolver.
///
/// DoT is stream-framed in reality; the simulator's DNS plane is
/// datagram-based, so all three encrypted transports are modeled as framed
/// datagrams (see [`crate::encrypted`]) distinguished by port and frame
/// magic. The visibility semantics — name opaque on the wire, transparent
/// to the terminating resolver — are what the measurement depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DnsTransport {
    /// Plain UDP/53: QNAME readable by every on-path tap.
    Udp53,
    /// DNS over TLS (TCP/853 in reality; framed datagram on 853 here).
    DoT,
    /// DNS over HTTPS (HTTP/3 flavour: UDP/443).
    DoH,
    /// DNS over QUIC (UDP/853).
    DoQ,
}

impl DnsTransport {
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Udp53 => "udp53",
            Self::DoT => "dot",
            Self::DoH => "doh",
            Self::DoQ => "doq",
        }
    }

    /// Whether an on-path observer can read the QNAME.
    pub fn name_visible_on_wire(self) -> bool {
        matches!(self, Self::Udp53)
    }
}

impl fmt::Display for DnsTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a TLS decoy presents its server name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TlsMode {
    /// Clear-text SNI carrying the real decoy name.
    ClearSni,
    /// Encrypted Client Hello: cover SNI + opaque inner hello. On-path
    /// observers and destination port-mirrors alike see only the cover.
    Ech,
    /// Domain fronting through a CDN: the SNI names the *front* (a popular
    /// CDN hostname), the real name rides encrypted to the terminating
    /// edge. Name-keyed taps extract a syntactically valid — and wrong —
    /// name (Subramani et al.); only destination-side sensors attribute
    /// the flow correctly.
    FrontedCdn,
}

impl TlsMode {
    pub fn as_str(self) -> &'static str {
        match self {
            Self::ClearSni => "clear-sni",
            Self::Ech => "ech",
            Self::FrontedCdn => "fronted-cdn",
        }
    }

    /// Whether an on-path observer reading the SNI learns the *real* name.
    pub fn name_visible_on_wire(self) -> bool {
        matches!(self, Self::ClearSni)
    }
}

impl fmt::Display for TlsMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The transport combination one decoy flow uses — DNS axis × TLS axis.
/// HTTP decoys are always clear text (the paper's HTTP observers are
/// on-wire by definition), so the profile carries no HTTP axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TransportProfile {
    pub dns: DnsTransport,
    pub tls: TlsMode,
}

impl TransportProfile {
    /// The pre-PR default: everything in the clear.
    pub const PLAINTEXT: Self = Self {
        dns: DnsTransport::Udp53,
        tls: TlsMode::ClearSni,
    };

    pub fn is_plaintext(self) -> bool {
        self == Self::PLAINTEXT
    }
}

impl Default for TransportProfile {
    fn default() -> Self {
        Self::PLAINTEXT
    }
}

/// One SplitMix64 step (Steele et al.): advance `state` by the golden
/// gamma and return the mixed result. The workspace's one copy, used
/// wherever a stream or a value-derived decision must be stable across
/// runs, shards and processes (adoption buckets here, the daemon's wave
/// seeds, the benches' fixed probe streams).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stable 0–99 bucket for identity `x` under `salt`. Adoption at level
/// `p` is `bucket < p`, so adoption sets are nested as `p` grows.
fn bucket(x: u64, salt: u64) -> u8 {
    (splitmix64(&mut (x ^ salt)) % 100) as u8
}

const SALT_DNS: u64 = 0x00d0_57a1_ed05_7a1e;
const SALT_TLS: u64 = 0xec4_0b5cu64 << 8;
const SALT_FRONT: u64 = 0xf;

/// How deeply DNS/TLS encryption is deployed across a campaign's flows.
///
/// The five named levels form the deployment ladder the
/// `shadowing_under_encryption` report sweeps; arbitrary intermediate
/// levels can be built directly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncryptionDeployment {
    /// Level name, used in reports and scenario-cell labels.
    pub level: String,
    /// The encrypted transport adopting VPs use for DNS decoys.
    pub dns_transport: DnsTransport,
    /// Percent of VPs whose DNS decoys use `dns_transport`.
    pub dns_percent: u8,
    /// Percent of (VP, site) pairs whose TLS decoys use ECH.
    pub ech_percent: u8,
    /// Percent of sites reached through a fronting CDN (takes precedence
    /// over ECH for those sites — the CDN terminates TLS either way).
    pub fronted_percent: u8,
}

impl EncryptionDeployment {
    /// Level 0: the pre-PR world, nothing encrypted.
    pub fn plaintext() -> Self {
        Self {
            level: "plaintext".to_string(),
            dns_transport: DnsTransport::Udp53,
            dns_percent: 0,
            ech_percent: 0,
            fronted_percent: 0,
        }
    }

    /// Level 1: early adopters — a quarter of VPs on DoT, ECH trials.
    pub fn early() -> Self {
        Self {
            level: "early".to_string(),
            dns_transport: DnsTransport::DoT,
            dns_percent: 25,
            ech_percent: 20,
            fronted_percent: 0,
        }
    }

    /// Level 2: the browser default flips — majority DoH, half ECH.
    pub fn mixed() -> Self {
        Self {
            level: "mixed".to_string(),
            dns_transport: DnsTransport::DoH,
            dns_percent: 60,
            ech_percent: 55,
            fronted_percent: 0,
        }
    }

    /// Level 3: full encryption — every flow DoQ + ECH.
    pub fn full() -> Self {
        Self {
            level: "full".to_string(),
            dns_transport: DnsTransport::DoQ,
            dns_percent: 100,
            ech_percent: 100,
            fronted_percent: 0,
        }
    }

    /// Level 4: full encryption with a fronted-CDN tail — every flow
    /// encrypted, and 30% of sites reached through a front whose SNI
    /// names the CDN, not the site.
    pub fn fronted() -> Self {
        Self {
            level: "fronted".to_string(),
            dns_transport: DnsTransport::DoQ,
            dns_percent: 100,
            ech_percent: 100,
            fronted_percent: 30,
        }
    }

    /// The deployment ladder, shallowest first — the report's sweep order.
    pub fn ladder() -> Vec<Self> {
        vec![
            Self::plaintext(),
            Self::early(),
            Self::mixed(),
            Self::full(),
            Self::fronted(),
        ]
    }

    /// The valid `--encryption <level>` names, in ladder order.
    pub const LEVEL_NAMES: [&'static str; 5] = ["plaintext", "early", "mixed", "full", "fronted"];

    /// Parse a ladder level by name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "plaintext" => Some(Self::plaintext()),
            "early" => Some(Self::early()),
            "mixed" => Some(Self::mixed()),
            "full" => Some(Self::full()),
            "fronted" => Some(Self::fronted()),
            _ => None,
        }
    }

    /// Whether this deployment leaves every flow in the clear.
    pub fn is_plaintext(&self) -> bool {
        self.dns_percent == 0 && self.ech_percent == 0 && self.fronted_percent == 0
    }

    /// The transport profile for the flow `(vp ident, destination)` — a
    /// pure function, no RNG (see the module docs for why).
    pub fn profile_for(&self, ident: u32, dst: Ipv4Addr) -> TransportProfile {
        let vp = u64::from(ident);
        let site = u64::from(u32::from(dst));
        let dns = if self.dns_percent > 0 && bucket(vp, SALT_DNS) < self.dns_percent {
            self.dns_transport
        } else {
            DnsTransport::Udp53
        };
        let tls = if self.fronted_percent > 0 && bucket(site, SALT_FRONT) < self.fronted_percent {
            TlsMode::FrontedCdn
        } else if self.ech_percent > 0
            && bucket(vp ^ site.rotate_left(32), SALT_TLS) < self.ech_percent
        {
            TlsMode::Ech
        } else {
            TlsMode::ClearSni
        };
        TransportProfile { dns, tls }
    }
}

impl Default for EncryptionDeployment {
    fn default() -> Self {
        Self::plaintext()
    }
}

impl fmt::Display for EncryptionDeployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dsts() -> Vec<Ipv4Addr> {
        (0u32..64)
            .map(|i| Ipv4Addr::from(0x0a00_0000 + i * 7))
            .collect()
    }

    #[test]
    fn plaintext_deployment_is_identity() {
        let d = EncryptionDeployment::plaintext();
        assert!(d.is_plaintext());
        for ident in 0..256u32 {
            for &dst in &dsts() {
                assert_eq!(d.profile_for(ident, dst), TransportProfile::PLAINTEXT);
            }
        }
    }

    #[test]
    fn full_deployment_hides_everything() {
        let d = EncryptionDeployment::full();
        for ident in 0..256u32 {
            for &dst in &dsts() {
                let p = d.profile_for(ident, dst);
                assert_eq!(p.dns, DnsTransport::DoQ);
                assert_eq!(p.tls, TlsMode::Ech);
            }
        }
    }

    #[test]
    fn adoption_is_nested_across_the_ladder() {
        // A flow encrypted at a shallower level stays encrypted at every
        // deeper one — the property behind monotone recall decay.
        let ladder = EncryptionDeployment::ladder();
        for ident in 0..512u32 {
            for &dst in &dsts() {
                let mut dns_was_hidden = false;
                let mut tls_was_hidden = false;
                for level in &ladder {
                    let p = level.profile_for(ident, dst);
                    let dns_hidden = !p.dns.name_visible_on_wire();
                    let tls_hidden = !p.tls.name_visible_on_wire();
                    assert!(
                        dns_hidden || !dns_was_hidden,
                        "DNS flow reverted to clear at {}",
                        level.level
                    );
                    assert!(
                        tls_hidden || !tls_was_hidden,
                        "TLS flow reverted to clear at {}",
                        level.level
                    );
                    dns_was_hidden = dns_hidden;
                    tls_was_hidden = tls_hidden;
                }
            }
        }
    }

    #[test]
    fn partial_deployment_is_partial() {
        let d = EncryptionDeployment::early();
        let adopted = (0..1000u32)
            .filter(|&i| d.profile_for(i, Ipv4Addr::new(10, 0, 0, 1)).dns == DnsTransport::DoT)
            .count();
        assert!(
            adopted > 150 && adopted < 350,
            "~25% expected, got {adopted}"
        );
    }

    #[test]
    fn fronting_is_per_site() {
        let d = EncryptionDeployment::fronted();
        for &dst in &dsts() {
            let modes: Vec<TlsMode> = (0..16u32).map(|i| d.profile_for(i, dst).tls).collect();
            // Every VP agrees on whether a site is fronted.
            assert!(modes.windows(2).all(|w| w[0] == w[1]));
        }
        let fronted_sites = dsts()
            .iter()
            .filter(|&&dst| d.profile_for(0, dst).tls == TlsMode::FrontedCdn)
            .count();
        assert!(fronted_sites > 0, "some sites must front");
        assert!(fronted_sites < dsts().len(), "not all sites front");
    }

    #[test]
    fn parses_ladder_names() {
        for name in EncryptionDeployment::LEVEL_NAMES {
            let level = EncryptionDeployment::parse(name).unwrap();
            assert_eq!(level.level, name);
        }
        assert!(EncryptionDeployment::parse("quantum").is_none());
    }

    #[test]
    fn serde_round_trip() {
        let d = EncryptionDeployment::mixed();
        let json = serde_json::to_string(&d).unwrap();
        assert_eq!(
            serde_json::from_str::<EncryptionDeployment>(&json).unwrap(),
            d
        );
    }
}
