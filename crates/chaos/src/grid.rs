//! Sweep grids: named fault profiles along one or two impairment axes.
//!
//! A grid is a plain `Vec<FaultProfile>` in declaration order; the sweep
//! drivers hand it to the executor's worker pool, which returns results in
//! the same order, so the sweep output is deterministic regardless of
//! which cell finishes first.

use crate::profile::FaultProfile;

/// The classic robustness grid: a sweep of loss levels crossed with ICMP
/// Time-Exceeded rate limiting on/off. Every profile derives its name from
/// its coordinates ("loss1.0%", "loss1.0%+icmplimit") and shares
/// `fault_seed` so cells differ only in the impairment level.
pub fn loss_grid(
    loss_levels: &[f64],
    icmp_rate_limit: &[f64],
    fault_seed: u64,
    template: &FaultProfile,
) -> Vec<FaultProfile> {
    let mut grid = Vec::new();
    for &icmp in icmp_rate_limit {
        for &loss in loss_levels {
            let mut name = format!("loss{:.1}%", loss * 100.0);
            if icmp > 0.0 {
                name.push_str("+icmplimit");
            }
            grid.push(FaultProfile {
                name,
                loss,
                icmp_rate_limit: icmp,
                fault_seed,
                ..template.clone()
            });
        }
    }
    grid
}

/// The topology cross-validation axis: a pure sweep of ICMP Time-Exceeded
/// rate-limiting levels (no loss), one profile per level. Names encode the
/// suppression percentage ("icmp0%", "icmp90%"); all profiles share
/// `fault_seed` so they differ only in ICMP coverage.
pub fn icmp_grid(levels: &[f64], fault_seed: u64, template: &FaultProfile) -> Vec<FaultProfile> {
    levels
        .iter()
        .map(|&icmp| FaultProfile {
            name: format!("icmp{:.0}%", icmp * 100.0),
            icmp_rate_limit: icmp,
            fault_seed,
            ..template.clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_grid_shape_and_names() {
        let grid = loss_grid(
            &[0.0, 0.01, 0.05],
            &[0.0, 0.9],
            7,
            &FaultProfile::baseline("template"),
        );
        assert_eq!(grid.len(), 6);
        let names: Vec<&str> = grid.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "loss0.0%",
                "loss1.0%",
                "loss5.0%",
                "loss0.0%+icmplimit",
                "loss1.0%+icmplimit",
                "loss5.0%+icmplimit",
            ]
        );
        assert!(grid.iter().all(|p| p.fault_seed == 7));
    }

    #[test]
    fn icmp_grid_names_levels() {
        let grid = icmp_grid(&[0.0, 0.5, 0.9, 0.99], 11, &FaultProfile::baseline("t"));
        assert_eq!(grid.len(), 4);
        let names: Vec<&str> = grid.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["icmp0%", "icmp50%", "icmp90%", "icmp99%"]);
        assert!(grid.iter().all(|p| p.loss == 0.0));
        assert!(grid.iter().all(|p| p.fault_seed == 11));
    }
}
