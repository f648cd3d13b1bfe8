//! Temporal analysis: the interval CDFs of Figures 4 and 7.
//!
//! The sink folds every unsolicited interval into a fixed-bucket
//! [`IntervalHistogram`] at capture time. The paper's figures only ever
//! read the CDF at the fixed grid 1 s / 1 min / 1 h / 1 d / 10 d / 30 d —
//! every grid point is a histogram bucket edge, so the histogram's
//! cumulative counts give the sample CDF's fractions *bit for bit*
//! (`grid_exactness` test below).

use shadow_core::decoy::DecoyProtocol;
use shadow_core::sink::{CorrelationAggregates, IntervalHistogram};
use shadow_netsim::time::SimDuration;

/// Figure 4 / Figure 7: intervals between decoys of `protocol` (to
/// destinations in `dst_filter`, if given) and the unsolicited requests
/// they triggered.
pub fn interval_histogram(
    aggregates: &CorrelationAggregates,
    protocol: DecoyProtocol,
    dst_filter: Option<&[std::net::Ipv4Addr]>,
) -> IntervalHistogram {
    aggregates.interval_histogram(protocol, |dst| match dst_filter {
        Some(dsts) => dsts.contains(&dst),
        None => true,
    })
}

/// Evaluate a histogram at the paper's figure grid: 1 s, 1 min, 1 h, 1 d,
/// 10 d, 30 d (an empty series reads 0.0 everywhere).
pub fn paper_grid(hist: &IntervalHistogram) -> Vec<(&'static str, f64)> {
    [
        ("1s", SimDuration::from_secs(1)),
        ("1min", SimDuration::from_mins(1)),
        ("1h", SimDuration::from_hours(1)),
        ("1d", SimDuration::from_days(1)),
        ("10d", SimDuration::from_days(10)),
        ("30d", SimDuration::from_days(30)),
    ]
    .into_iter()
    .map(|(label, d)| (label, hist.fraction_at(d).unwrap_or(0.0)))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sample-exact reference: an empirical CDF over a sorted sample.
    struct Cdf {
        samples: Vec<u64>,
    }

    impl Cdf {
        fn new(ms: &[u64]) -> Self {
            let mut samples = ms.to_vec();
            samples.sort();
            Self { samples }
        }

        /// Fraction of samples ≤ `d`.
        fn fraction_at(&self, d: SimDuration) -> f64 {
            if self.samples.is_empty() {
                return 0.0;
            }
            let idx = self.samples.partition_point(|&s| s <= d.millis());
            idx as f64 / self.samples.len() as f64
        }

        /// Fraction of samples in `[mark - window, mark + window]`.
        fn mass_near(&self, mark: SimDuration, window: SimDuration) -> f64 {
            let (lo, hi) = (
                mark.millis() - window.millis(),
                mark.millis() + window.millis(),
            );
            let count = self.samples.iter().filter(|&&s| s >= lo && s <= hi).count();
            count as f64 / self.samples.len() as f64
        }
    }

    fn hist(ms: &[u64]) -> IntervalHistogram {
        let mut hist = IntervalHistogram::default();
        for &s in ms {
            hist.record(s);
        }
        hist
    }

    #[test]
    fn fractions_monotone() {
        let grid = paper_grid(&hist(&[100, 1_000, 60_000, 3_600_000, 86_400_000]));
        for pair in grid.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "CDF must be monotone");
        }
        assert!((grid[0].1 - 0.4).abs() < 1e-9);
        assert_eq!(grid[3].1, 1.0);
    }

    #[test]
    fn grid_exactness_histogram_matches_cdf_bit_for_bit() {
        // Awkward values straddling every grid edge, duplicates included.
        let samples: Vec<u64> = vec![
            0,
            1,
            999,
            1_000,
            1_001,
            59_999,
            60_000,
            60_001,
            3_599_999,
            3_600_000,
            3_600_000,
            3_600_001,
            86_400_000,
            86_400_001,
            863_999_999,
            864_000_000,
            864_000_001,
            2_591_999_999,
            2_592_000_000,
            2_592_000_001,
        ];
        let cdf = Cdf::new(&samples);
        for (label, fraction) in paper_grid(&hist(&samples)) {
            let edge = match label {
                "1s" => SimDuration::from_secs(1),
                "1min" => SimDuration::from_mins(1),
                "1h" => SimDuration::from_hours(1),
                "1d" => SimDuration::from_days(1),
                "10d" => SimDuration::from_days(10),
                _ => SimDuration::from_days(30),
            };
            assert_eq!(
                cdf.fraction_at(edge).to_bits(),
                fraction.to_bits(),
                "grid point {label}: sample CDF and streamed histogram diverge"
            );
        }
    }

    #[test]
    fn spike_window_matches_sample_mass_off_the_edges() {
        // 3 of 4 samples within the 55–65 min window, none on its edges.
        let hour = 3_600_000;
        let samples = [hour - 60_000, hour, hour + 120_000, 10 * hour];
        let (mark, window) = (SimDuration::from_hours(1), SimDuration::from_mins(5));
        let streamed = hist(&samples)
            .fraction_between(SimDuration::from_mins(55), SimDuration::from_mins(65))
            .unwrap();
        assert_eq!(
            streamed.to_bits(),
            Cdf::new(&samples).mass_near(mark, window).to_bits()
        );
        assert!((streamed - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let empty = IntervalHistogram::default();
        assert!(paper_grid(&empty).iter().all(|&(_, f)| f == 0.0));
        assert_eq!(
            empty.fraction_between(SimDuration::from_mins(55), SimDuration::from_mins(65)),
            None
        );
    }
}
