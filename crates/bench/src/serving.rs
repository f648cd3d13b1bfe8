//! The serving-surface measurement behind `BENCH_serve.json`: snapshot
//! read throughput and latency of the `shadow-serve` HTTP surface under
//! concurrent clients, plus the engine hot-path rate measured while an
//! idle server is up (the "reads never block the pipeline" guard).

/// One measured serving run.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Concurrent loadgen clients.
    pub clients: u64,
    /// Measurement window in seconds.
    pub window_secs: f64,
    /// Successful `/api/aggregates` reads completed inside the window.
    pub reads: u64,
    pub reads_per_sec: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub errors: u64,
    /// Hot-path hops/sec measured with the (idle) server still bound —
    /// compare against `BENCH_pipeline.json` to confirm the serving
    /// surface costs the pipeline nothing when nobody is reading.
    pub idle_hotpath_hops_per_sec: f64,
}

/// Latency percentile over an already-sorted sample, nearest-rank.
pub fn percentile_us(sorted_micros: &[u64], p: f64) -> u64 {
    if sorted_micros.is_empty() {
        return 0;
    }
    let rank = ((sorted_micros.len() - 1) as f64 * p).round() as usize;
    sorted_micros[rank.min(sorted_micros.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [10, 20, 30, 40, 100];
        assert_eq!(percentile_us(&sorted, 0.0), 10);
        assert_eq!(percentile_us(&sorted, 0.5), 30);
        assert_eq!(percentile_us(&sorted, 1.0), 100);
        assert_eq!(percentile_us(&[], 0.5), 0);
    }
}
