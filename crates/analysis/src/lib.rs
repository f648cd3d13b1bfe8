//! # shadow-analysis
//!
//! Everything in the paper's Sections 4 and 5: each module regenerates one
//! table or figure from campaign data (see DESIGN.md's experiment index).
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`landscape`] | Figure 3 — problematic-path ratios per country × destination |
//! | [`location`] | Tables 2 and 3 — observer hops and observer ASes |
//! | [`temporal`] | Figures 4 and 7 — decoy→unsolicited interval CDFs |
//! | [`breakdown`] | Figure 5 — per-destination decoy outcome breakdown |
//! | [`origins`] | Figure 6 — origin ASes of unsolicited requests |
//! | [`reuse`] | §5.1 — data reused multiple times |
//! | [`probing`] | §5.1/§5.2 — path enumeration, exploit checks, blocklist rates |
//! | [`cases`] | Case studies I–III |
//! | [`report`] | fixed-width text rendering for tables/series |

pub mod breakdown;
pub mod cases;
pub mod combos;
pub mod crossval;
pub mod encryption;
pub mod export;
pub mod landscape;
pub mod location;
pub mod origins;
pub mod probing;
pub mod report;
pub mod reuse;
pub mod robustness;
pub mod temporal;

pub use breakdown::{DecoyOutcome, DestinationBreakdown};
pub use combos::{combo_counts, ObserverCombos};
pub use crossval::{CrossValCell, CrossValReport, TopoGroundTruth};
pub use encryption::{EncryptionCell, EncryptionCellReport, EncryptionReport};
pub use export::{AnalysisBundle, SerializableHopTable};
pub use landscape::{LandscapeCell, LandscapeReport};
pub use location::{ObserverAsRow, ObserverHopTable, ObserverIpSummary};
pub use origins::OriginAsReport;
pub use probing::ProbingReport;
pub use report::{render_series, render_table};
pub use reuse::ReuseReport;
pub use robustness::{CellMetrics, CellReport, RobustnessReport};
