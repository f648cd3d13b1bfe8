//! Property tests for the decoy identifier codec and registry.

use proptest::prelude::*;
use shadow_core::decoy::{DecoyProtocol, DecoyRegistry};
use shadow_core::ident::DecoyIdent;
use shadow_netsim::time::SimTime;
use shadow_packet::dns::DnsName;
use shadow_vantage::platform::VpId;
use std::net::Ipv4Addr;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

proptest! {
    #[test]
    fn ident_round_trips(
        sent_ds in any::<u32>(),
        vp in arb_addr(),
        dst in arb_addr(),
        ttl in any::<u8>(),
    ) {
        let ident = DecoyIdent::new(sent_ds, vp, dst, ttl);
        let label = ident.encode();
        prop_assert_eq!(DecoyIdent::decode(&label).unwrap(), ident);
        // The label is always a valid leftmost DNS label of a decoy domain.
        let domain = DnsName::parse(&format!("{label}.www.experiment.example")).unwrap();
        prop_assert_eq!(DecoyIdent::from_domain(&domain), Some(ident));
    }

    #[test]
    fn single_character_corruption_never_decodes_to_original(
        sent_ds in any::<u32>(),
        vp in arb_addr(),
        dst in arb_addr(),
        ttl in any::<u8>(),
        pos in 0usize..21,
        replacement in proptest::char::range('a', 'z'),
    ) {
        let ident = DecoyIdent::new(sent_ds, vp, dst, ttl);
        let label = ident.encode();
        let mut chars: Vec<char> = label.chars().collect();
        prop_assume!(chars[pos] != replacement);
        chars[pos] = replacement;
        let corrupted: String = chars.iter().collect();
        // Either the checksum catches it, or (vanishingly unlikely with a
        // 1-in-10,000 checksum) it decodes to a *different* identity — but
        // never silently to the original.
        if let Ok(decoded) = DecoyIdent::decode(&corrupted) {
            prop_assert_ne!(decoded, ident);
        }
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_labels(label in "[a-z0-9-]{0,40}") {
        let _ = DecoyIdent::decode(&label);
    }

    #[test]
    fn registry_domains_unique_per_send_slot(
        vp_addr in arb_addr(),
        dst_a in arb_addr(),
        dst_b in arb_addr(),
        base_ms in 0u64..1_000_000,
    ) {
        prop_assume!(dst_a != dst_b);
        let zone = DnsName::parse("www.experiment.example").unwrap();
        let mut registry = DecoyRegistry::new(zone);
        // Distinct destinations in the same decisecond are fine; same
        // destination requires ≥100 ms spacing (the scheduler guarantees
        // more).
        let a = registry.register(VpId(1), vp_addr, dst_a, DecoyProtocol::Dns, 64, SimTime(base_ms));
        let b = registry.register(VpId(1), vp_addr, dst_b, DecoyProtocol::Http, 64, SimTime(base_ms));
        let c = registry.register(VpId(1), vp_addr, dst_a, DecoyProtocol::Tls, 64, SimTime(base_ms + 100));
        prop_assert_ne!(&a.domain, &b.domain);
        prop_assert_ne!(&a.domain, &c.domain);
        prop_assert_ne!(&b.domain, &c.domain);
        prop_assert_eq!(registry.len(), 3);
        // Lookup returns exactly the registered record.
        prop_assert_eq!(registry.lookup(&a.domain), Some(&a));
    }
}
