//! Property tests over the simulator: random topologies yield well-formed,
//! deterministic routes; the TCP stack survives arbitrary segment soup.

use proptest::prelude::*;
use shadow_geo::{Asn, Region};
use shadow_netsim::tcp::TcpStack;
use shadow_netsim::topology::{LinkClass, NodeId, TopologyBuilder};
use shadow_packet::tcp::{TcpFlags, TcpSegment};
use std::net::Ipv4Addr;

/// Build a random connected topology: a chain of `n` ASes with extra chords,
/// 1-4 routers each, one host in the first and last AS.
fn build(
    seed: u64,
    n: usize,
    routers: usize,
    chords: &[(usize, usize)],
) -> (shadow_netsim::Topology, NodeId, NodeId) {
    let regions = [
        Region::Europe,
        Region::EastAsia,
        Region::NorthAmerica,
        Region::Africa,
    ];
    let mut tb = TopologyBuilder::new(seed);
    for i in 0..n {
        tb.add_as(Asn(100 + i as u32), regions[i % regions.len()]);
    }
    for i in 0..n - 1 {
        tb.link(Asn(100 + i as u32), Asn(101 + i as u32)).unwrap();
    }
    for &(a, b) in chords {
        let (a, b) = (a % n, b % n);
        if a != b && !tb.has_link(Asn(100 + a as u32), Asn(100 + b as u32)) {
            tb.link(Asn(100 + a as u32), Asn(100 + b as u32)).unwrap();
        }
    }
    for i in 0..n {
        for r in 0..routers {
            tb.add_router(
                Asn(100 + i as u32),
                Ipv4Addr::new(10, i as u8, 0, r as u8 + 1),
                true,
            )
            .unwrap();
        }
    }
    let src = tb.add_host(Asn(100), Ipv4Addr::new(10, 0, 1, 1)).unwrap();
    let dst = tb
        .add_host(
            Asn(100 + n as u32 - 1),
            Ipv4Addr::new(10, n as u8 - 1, 1, 1),
        )
        .unwrap();
    (tb.build().unwrap(), src, dst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn routes_are_well_formed(
        seed in any::<u64>(),
        n in 2usize..8,
        routers in 1usize..4,
        chords in proptest::collection::vec((0usize..8, 0usize..8), 0..4),
    ) {
        let (topo, src, dst) = build(seed, n, routers, &chords);
        let route = topo.route(src, dst).expect("connected by construction");
        prop_assert_eq!(route[0], src);
        prop_assert_eq!(*route.last().unwrap(), dst);
        for &hop in &route[1..route.len() - 1] {
            prop_assert!(topo.node(hop).is_router());
        }
        // No immediate self-loops.
        for pair in route.windows(2) {
            prop_assert_ne!(pair[0], pair[1]);
        }
        // Deterministic.
        prop_assert_eq!(topo.route(src, dst).unwrap(), route);
    }

    #[test]
    fn latencies_respect_link_classes(
        seed in any::<u64>(),
        n in 2usize..6,
        routers in 1usize..4,
    ) {
        let (topo, src, dst) = build(seed, n, routers, &[]);
        let route = topo.route(src, dst).unwrap();
        for pair in route.windows(2) {
            let ms = topo.latency_ms(pair[0], pair[1]);
            match topo.link_class(pair[0], pair[1]) {
                LinkClass::IntraAs => prop_assert!((1..=4).contains(&ms)),
                LinkClass::InterAsSameRegion => prop_assert!((5..=24).contains(&ms)),
                LinkClass::InterRegion => prop_assert!((40..=119).contains(&ms)),
            }
            prop_assert_eq!(ms, topo.latency_ms(pair[1], pair[0]));
        }
    }

    #[test]
    fn tcp_stack_survives_segment_soup(
        seed in any::<u32>(),
        segments in proptest::collection::vec(
            (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>(), any::<u8>(),
             proptest::collection::vec(any::<u8>(), 0..32)),
            0..32,
        ),
    ) {
        let mut stack = TcpStack::new(seed);
        stack.listen(80);
        let peer = Ipv4Addr::new(192, 0, 2, 1);
        for (sp, dp, seq, ack, flags, payload) in segments {
            let seg = TcpSegment::new(sp, dp, seq, ack, TcpFlags(flags), payload);
            let mut out = Vec::new();
            let _ = stack.on_segment(peer, seg, &mut out);
            // Whatever happens, emitted segments must encode/decode cleanly.
            for seg in out {
                let bytes = seg.encode();
                prop_assert_eq!(TcpSegment::decode(&bytes).unwrap(), seg);
            }
        }
    }

    #[test]
    fn tcp_handshake_works_for_any_seeds(client_seed in any::<u32>(), server_seed in any::<u32>()) {
        let mut client = TcpStack::new(client_seed);
        let mut server = TcpStack::new(server_seed);
        server.listen(443);
        let client_addr = Ipv4Addr::new(10, 0, 0, 1);
        let server_addr = Ipv4Addr::new(10, 0, 0, 2);
        let mut c_out = Vec::new();
        let key = client.connect(server_addr, 443, &mut c_out).unwrap();
        let mut established = false;
        for _ in 0..8 {
            let mut s_out = Vec::new();
            for seg in c_out.drain(..) {
                server.on_segment(client_addr, seg, &mut s_out);
            }
            let mut next_c = Vec::new();
            for seg in s_out {
                for ev in client.on_segment(server_addr, seg, &mut next_c) {
                    if matches!(ev, shadow_netsim::tcp::TcpEvent::Established(k) if k == key) {
                        established = true;
                    }
                }
            }
            c_out = next_c;
            if established && c_out.is_empty() {
                break;
            }
        }
        prop_assert!(established, "handshake must complete for any ISN pair");
    }
}
