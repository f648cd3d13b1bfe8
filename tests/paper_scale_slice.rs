//! Paper-scale execution shape invariance on a slice: `paper_scale(7)`'s
//! Phase I, bounded to its first 128 VPs, must stream the same correlation
//! aggregates and the same world metrics in one chunk on one worker as in
//! two chunks on two workers. At this size one probe origin hands out
//! more ephemeral ports than there are, so the check also covers port
//! reuse after a closed connection leaves the TCP stack.
//!
//! Release only: `cargo test --release --test paper_scale_slice --
//! --include-ignored` (about a minute and 330 MiB on 2 vCPUs).

use traffic_shadowing::shadow_core::campaign::{CampaignData, Phase1Config};
use traffic_shadowing::shadow_core::executor::{run_phase1_chunks, ChunkConfig, TelemetryOptions};
use traffic_shadowing::shadow_core::sink::SinkConfig;
use traffic_shadowing::shadow_core::world::{generate_spec, WorldConfig};

/// Executing VPs in the slice.
const VPS: usize = 128;
/// 128 VPs × 4,686 targets, one round.
const DECOYS: usize = 599_808;

#[test]
#[ignore = "paper scale: run in release with --include-ignored"]
fn paper_scale_slice_is_shape_invariant() {
    let spec = generate_spec(WorldConfig::paper_scale(7));
    let run = |shape: ChunkConfig| -> CampaignData {
        run_phase1_chunks(
            &spec,
            &Phase1Config::default(),
            shape,
            TelemetryOptions::enabled(false),
            None,
            SinkConfig::streaming(),
            Some(VPS),
        )
        .data
    };
    let one = run(ChunkConfig::with_workers(1));
    let two = run(ChunkConfig::with_workers(2).with_chunks(2));
    for (shape, data) in [("1x1", &one), ("2x2", &two)] {
        assert_eq!(data.decoy_count(), DECOYS, "{shape}: decoys posted");
        assert_eq!(
            data.metrics.run.retention_capacity_evictions, 0,
            "{shape}: a retention store evicted by capacity"
        );
    }
    assert_eq!(
        one.aggregates.arrivals_seen, two.aggregates.arrivals_seen,
        "arrivals differ between 1x1 and 2x2"
    );
    assert!(
        one.aggregates == two.aggregates,
        "streamed aggregates differ between 1x1 and 2x2"
    );
    assert_eq!(one.metrics.world, two.metrics.world, "world metrics differ");
}
