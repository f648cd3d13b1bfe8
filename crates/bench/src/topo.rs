//! LPM-lookup fixture behind `BENCH_topo.json`: the standard world's geo
//! database driven through both lookup paths — the old sorted-vec backward
//! scan (kept as [`GeoScanIndex`], the correctness reference) and the
//! stride-4 treebitmap trie that now backs `GeoDb::lookup` — over the same
//! deterministic probe stream, with every answer cross-checked.
//!
//! The record also carries an end-to-end rate: the Phase II router-graph
//! pipeline (fold every Time-Exceeded observation, finalize with a trie
//! ASN lookup per router) replayed from the campaign's real hop
//! observations, in hops/sec.

use std::net::Ipv4Addr;
use std::time::Instant;
use traffic_shadowing::shadow_packet::transport::splitmix64;
use traffic_shadowing::shadow_topo::{ProbePath, RouterGraphBuilder};

/// Deterministic probe seed — the same addresses every run, every machine.
const PROBE_SEED: u64 = 0x10C4_11A8_1E5E_ED01;

/// A probe stream biased toward covered address space: three in four
/// probes land inside a random registered prefix (the hot case — routed
/// addresses), the rest are uniform over the full 32-bit space (misses
/// and default-route territory).
pub fn gen_probes(db: &traffic_shadowing::shadow_geo::GeoDb, count: usize) -> Vec<Ipv4Addr> {
    let prefixes: Vec<(u32, u32)> = db
        .iter()
        .map(|r| (r.prefix.base_u32(), u32::from(r.prefix.len())))
        .collect();
    let mut state = PROBE_SEED;
    (0..count)
        .map(|_| {
            let roll = splitmix64(&mut state);
            let addr = if prefixes.is_empty() || roll.is_multiple_of(4) {
                roll as u32
            } else {
                let (base, len) = prefixes[(roll >> 32) as usize % prefixes.len()];
                let host_bits = 32 - len;
                let offset = if host_bits == 0 {
                    0
                } else {
                    (splitmix64(&mut state) as u32) & ((1u64 << host_bits) as u32).wrapping_sub(1)
                };
                base | offset
            };
            Ipv4Addr::from(addr)
        })
        .collect()
}

/// One LPM measurement.
#[derive(Debug, Clone)]
pub struct TopoMetrics {
    pub prefixes: usize,
    pub probes: usize,
    pub scan_elapsed_ns: u64,
    pub trie_elapsed_ns: u64,
    pub scan_lookups_per_sec: f64,
    pub trie_lookups_per_sec: f64,
    pub trie_over_scan: f64,
    /// Router-graph pipeline rate: Time-Exceeded observations folded and
    /// finalized (with a trie ASN lookup per router) per second.
    pub hop_observations: u64,
    pub hops_per_sec: f64,
}

/// Run both lookup paths over the shared standard-campaign geo db,
/// cross-checking every answer, then replay the router-graph pipeline.
pub fn run_topo(probe_count: usize, fold_rounds: usize) -> TopoMetrics {
    let outcome = crate::study();
    let db = &outcome.world.geo;
    let probes = gen_probes(db, probe_count);
    let scan = db.scan_index();

    // Both paths fold their answers into a checksum so the loops cannot
    // be dead-code-eliminated; timing takes the fastest of three rounds
    // (the standard noise shield for one-shot measurements).
    let time_best = |f: &dyn Fn() -> u64| {
        let mut best = std::time::Duration::MAX;
        let mut sum = 0;
        for _ in 0..3 {
            let started = Instant::now();
            sum = f();
            best = best.min(started.elapsed());
        }
        (best, sum)
    };
    let (scan_elapsed, scan_sum) = time_best(&|| {
        let mut sum = 0u64;
        for &addr in &probes {
            if let Some(r) = scan.lookup(addr) {
                sum = sum.wrapping_add(u64::from(r.asn.0));
            }
        }
        sum
    });
    let (trie_elapsed, trie_sum) = time_best(&|| {
        let mut sum = 0u64;
        for &addr in &probes {
            if let Some(r) = db.lookup(addr) {
                sum = sum.wrapping_add(u64::from(r.asn.0));
            }
        }
        sum
    });
    assert_eq!(
        scan_sum, trie_sum,
        "trie must agree with the scan reference on every probe"
    );

    // End-to-end router-graph pipeline: replay the campaign's real hop
    // observations through fold + finalize, `fold_rounds` times.
    let observations: Vec<(ProbePath, u8, Ipv4Addr)> = outcome
        .phase2
        .as_ref()
        .map(|data| {
            data.router_graph
                .iter()
                .flat_map(|(path, hops)| {
                    hops.iter().map(move |(&ttl, &router)| (*path, ttl, router))
                })
                .collect()
        })
        .unwrap_or_default();
    let started = Instant::now();
    let mut folded = 0u64;
    for _ in 0..fold_rounds.max(1) {
        let mut builder = RouterGraphBuilder::new();
        for &(path, ttl, router) in &observations {
            builder.observe(path, ttl, router);
        }
        let graph = builder.finalize(|addr| db.asn_of(addr).map(|asn| asn.0));
        folded += graph.observations;
    }
    let fold_elapsed = started.elapsed();

    let per_sec = |n: f64, secs: f64| if secs > 0.0 { n / secs } else { 0.0 };
    let scan_lookups_per_sec = per_sec(probes.len() as f64, scan_elapsed.as_secs_f64());
    let trie_lookups_per_sec = per_sec(probes.len() as f64, trie_elapsed.as_secs_f64());
    TopoMetrics {
        prefixes: db.len(),
        probes: probes.len(),
        scan_elapsed_ns: scan_elapsed.as_nanos() as u64,
        trie_elapsed_ns: trie_elapsed.as_nanos() as u64,
        scan_lookups_per_sec,
        trie_lookups_per_sec,
        trie_over_scan: trie_lookups_per_sec / scan_lookups_per_sec.max(1e-9),
        hop_observations: folded,
        hops_per_sec: per_sec(folded as f64, fold_elapsed.as_secs_f64()),
    }
}
