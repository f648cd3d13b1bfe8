//! Scenario matrix: a grid of fault profiles, executed concurrently.
//!
//! Each cell of the matrix is a named [`FaultProfile`]; the runner calls a
//! caller-supplied closure per cell (typically "run the full sharded
//! campaign under this profile") on a bounded pool of worker threads and
//! returns results in declaration order, so the sweep output is
//! deterministic regardless of which cell finishes first.

use crate::profile::FaultProfile;
use shadow_packet::EncryptionDeployment;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One grid cell: a label, the fault profile to run under, and the
/// encryption-deployment level decoys adopt. Both default to "off"
/// (baseline faults, plaintext transports), and each sweep reads one
/// axis: the robustness matrix and the ICMP sweep run `profile` and ignore
/// `encryption`; the encryption sweep runs `encryption` under the base
/// config's faults and ignores `profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCell {
    pub name: String,
    pub profile: FaultProfile,
    pub encryption: EncryptionDeployment,
}

impl ScenarioCell {
    pub fn new(profile: FaultProfile) -> Self {
        Self {
            name: profile.name.clone(),
            profile,
            encryption: EncryptionDeployment::plaintext(),
        }
    }
}

/// A grid of fault profiles to sweep.
#[derive(Debug, Clone, Default)]
pub struct ScenarioMatrix {
    cells: Vec<ScenarioCell>,
}

impl ScenarioMatrix {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one cell.
    pub fn push(&mut self, profile: FaultProfile) -> &mut Self {
        self.cells.push(ScenarioCell::new(profile));
        self
    }

    /// Append a fully-specified cell (both axes set by the caller).
    pub fn push_cell(&mut self, cell: ScenarioCell) -> &mut Self {
        self.cells.push(cell);
        self
    }

    /// The encryption-deployment axis: one cell per ladder level, all
    /// sharing the same fault template so cells differ only in how much
    /// of the flow space is encrypted. `suffix` distinguishes repeated
    /// sweeps under different templates (e.g. "" and "+faults").
    pub fn encryption_grid(
        levels: &[EncryptionDeployment],
        template: &FaultProfile,
        suffix: &str,
    ) -> Self {
        let mut matrix = Self::new();
        for deployment in levels {
            matrix.push_cell(ScenarioCell {
                name: format!("enc-{}{suffix}", deployment.level),
                profile: template.clone(),
                encryption: deployment.clone(),
            });
        }
        matrix
    }

    /// The classic robustness grid: a sweep of loss levels crossed with
    /// ICMP Time-Exceeded rate limiting on/off. Every cell derives its
    /// name from its coordinates ("loss1.0%", "loss1.0%+icmplimit") and
    /// shares `fault_seed` so cells differ only in the impairment level.
    pub fn loss_grid(
        loss_levels: &[f64],
        icmp_rate_limit: &[f64],
        fault_seed: u64,
        template: &FaultProfile,
    ) -> Self {
        let mut matrix = Self::new();
        for &icmp in icmp_rate_limit {
            for &loss in loss_levels {
                let mut name = format!("loss{:.1}%", loss * 100.0);
                if icmp > 0.0 {
                    name.push_str("+icmplimit");
                }
                matrix.push(FaultProfile {
                    name,
                    loss,
                    icmp_rate_limit: icmp,
                    fault_seed,
                    ..template.clone()
                });
            }
        }
        matrix
    }

    /// The topology cross-validation axis: a pure sweep of ICMP
    /// Time-Exceeded rate-limiting levels (no loss), one cell per level.
    /// Cell names encode the suppression percentage ("icmp0%", "icmp90%");
    /// all cells share `fault_seed` so they differ only in ICMP coverage.
    pub fn icmp_grid(levels: &[f64], fault_seed: u64, template: &FaultProfile) -> Self {
        let mut matrix = Self::new();
        for &icmp in levels {
            matrix.push(FaultProfile {
                name: format!("icmp{:.0}%", icmp * 100.0),
                icmp_rate_limit: icmp,
                fault_seed,
                ..template.clone()
            });
        }
        matrix
    }

    pub fn cells(&self) -> &[ScenarioCell] {
        &self.cells
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Run `f` once per cell on up to `parallelism` worker threads.
    /// Results come back in cell-declaration order. Cells are handed out
    /// through a shared work index, so a slow cell never blocks the other
    /// workers from draining the rest of the grid.
    ///
    /// Panics in `f` propagate (the scope join re-raises them) — a cell
    /// failure aborts the sweep rather than silently dropping the cell.
    pub fn run_with<R, F>(&self, parallelism: usize, f: F) -> Vec<(ScenarioCell, R)>
    where
        R: Send,
        F: Fn(&ScenarioCell) -> R + Sync,
    {
        let workers = parallelism.max(1).min(self.cells.len().max(1));
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = self.cells.iter().map(|_| Mutex::new(None)).collect();
        crossbeam::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = self.cells.get(idx) else {
                        break;
                    };
                    let result = f(cell);
                    *slots[idx].lock().unwrap() = Some(result);
                });
            }
        });
        self.cells
            .iter()
            .cloned()
            .zip(slots.into_iter().map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every cell ran to completion")
            }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn loss_grid_shape_and_names() {
        let grid = ScenarioMatrix::loss_grid(
            &[0.0, 0.01, 0.05],
            &[0.0, 0.9],
            7,
            &FaultProfile::baseline("template"),
        );
        assert_eq!(grid.len(), 6);
        let names: Vec<&str> = grid.cells().iter().map(|c| c.name.as_str()).collect();
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
        assert!(grid.cells().iter().all(|c| c.profile.fault_seed == 7));
    }

    #[test]
    fn icmp_grid_names_levels() {
        let grid =
            ScenarioMatrix::icmp_grid(&[0.0, 0.5, 0.9, 0.99], 11, &FaultProfile::baseline("t"));
        assert_eq!(grid.len(), 4);
        let names: Vec<&str> = grid.cells().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["icmp0%", "icmp50%", "icmp90%", "icmp99%"]);
        assert!(grid.cells().iter().all(|c| c.profile.loss == 0.0));
        assert!(grid.cells().iter().all(|c| c.profile.fault_seed == 11));
    }

    #[test]
    fn encryption_grid_walks_the_ladder() {
        let grid = ScenarioMatrix::encryption_grid(
            &EncryptionDeployment::ladder(),
            &FaultProfile::baseline("t"),
            "",
        );
        assert_eq!(grid.len(), EncryptionDeployment::ladder().len());
        let names: Vec<&str> = grid.cells().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "enc-plaintext",
                "enc-early",
                "enc-mixed",
                "enc-full",
                "enc-fronted"
            ]
        );
        assert!(grid.cells()[0].encryption.is_plaintext());
        assert!(!grid.cells()[3].encryption.is_plaintext());
        let faulted = ScenarioMatrix::encryption_grid(
            &EncryptionDeployment::ladder(),
            &FaultProfile::baseline("t"),
            "+faults",
        );
        assert_eq!(faulted.cells()[0].name, "enc-plaintext+faults");
    }

    #[test]
    fn plain_cells_default_to_plaintext_transports() {
        let mut matrix = ScenarioMatrix::new();
        matrix.push(FaultProfile::baseline("b"));
        assert!(matrix.cells()[0].encryption.is_plaintext());
    }

    #[test]
    fn run_with_preserves_declaration_order() {
        let mut matrix = ScenarioMatrix::new();
        for i in 0..10 {
            matrix.push(FaultProfile::with_loss(&format!("cell{i}"), 0.0, i));
        }
        let ran = AtomicU64::new(0);
        let results = matrix.run_with(4, |cell| {
            ran.fetch_add(1, Ordering::Relaxed);
            cell.profile.fault_seed * 10
        });
        assert_eq!(ran.load(Ordering::Relaxed), 10);
        assert_eq!(results.len(), 10);
        for (i, (cell, value)) in results.iter().enumerate() {
            assert_eq!(cell.name, format!("cell{i}"));
            assert_eq!(*value, i as u64 * 10);
        }
    }

    #[test]
    fn run_with_single_worker_matches_parallel() {
        let matrix =
            ScenarioMatrix::loss_grid(&[0.0, 0.02], &[0.0, 0.5], 3, &FaultProfile::baseline("t"));
        let serial: Vec<String> = matrix
            .run_with(1, |c| c.name.clone())
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        let parallel: Vec<String> = matrix
            .run_with(8, |c| c.name.clone())
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_matrix_runs_nothing() {
        let matrix = ScenarioMatrix::new();
        let results = matrix.run_with(4, |_| 1u32);
        assert!(results.is_empty());
    }
}
