//! JSON export of analysis artifacts.
//!
//! The benches print human tables; this module persists the same data as
//! machine-readable JSON so runs can be diffed across seeds and code
//! versions (the EXPERIMENTS.md workflow).

use crate::breakdown::DestinationBreakdown;
use crate::encryption::EncryptionReport;
use crate::landscape::LandscapeReport;
use crate::location::{ObserverHopTable, ObserverIpSummary};
use crate::origins::OriginAsReport;
use crate::probing::ProbingReport;
use crate::reuse::ReuseReport;
use serde::Serialize;
use shadow_core::decoy::DecoyProtocol;
use shadow_core::sink::IntervalHistogram;

/// Everything one campaign's analysis produced, as one serializable bundle.
#[derive(Debug, Default, Serialize)]
pub struct AnalysisBundle {
    pub landscape: Option<LandscapeReport>,
    pub hop_table: Option<SerializableHopTable>,
    pub observer_ips: Option<ObserverIpSummary>,
    pub fig4_grid: Option<Vec<(String, f64)>>,
    pub fig5: Option<Vec<DestinationBreakdown>>,
    pub origins: Option<OriginAsReport>,
    pub fig7_http_grid: Option<Vec<(String, f64)>>,
    pub fig7_tls_grid: Option<Vec<(String, f64)>>,
    pub reuse: Option<ReuseReport>,
    pub probing_dns: Option<ProbingReport>,
    /// The shadowing-under-encryption sweep (§6), present when the
    /// campaign ran with `--encryption-report`.
    pub encryption: Option<EncryptionReport>,
}

/// `ObserverHopTable` keyed by tuple doesn't serialize to a JSON map;
/// flatten it into rows.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SerializableHopTable {
    pub rows: Vec<HopRow>,
}

#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HopRow {
    pub protocol: String,
    pub hop: u8,
    pub paths: usize,
    pub percent: f64,
}

impl SerializableHopTable {
    pub fn from_table(table: &ObserverHopTable) -> Self {
        let rows = table
            .counts
            .iter()
            .map(|(&(protocol, hop), &paths)| HopRow {
                protocol: protocol.as_str().to_string(),
                hop,
                paths,
                percent: table.percent(protocol, hop),
            })
            .collect();
        Self { rows }
    }
}

/// An interval histogram's paper-grid points with owned labels.
pub fn grid_points(hist: &IntervalHistogram) -> Vec<(String, f64)> {
    crate::temporal::paper_grid(hist)
        .into_iter()
        .map(|(label, v)| (label.to_string(), v))
        .collect()
}

impl AnalysisBundle {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }
}

/// Protocol label helper shared with consumers building bundles.
pub fn protocol_label(protocol: DecoyProtocol) -> &'static str {
    protocol.as_str()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_core::correlate::PathKey;
    use shadow_core::phase2::TracerouteResult;
    use shadow_vantage::platform::VpId;
    use std::net::Ipv4Addr;

    fn table() -> ObserverHopTable {
        let results = vec![TracerouteResult {
            path: PathKey {
                vp: VpId(1),
                dst: Ipv4Addr::new(8, 8, 8, 8),
                protocol: DecoyProtocol::Dns,
            },
            observer_hop: Some(8),
            dest_distance: Some(8),
            normalized_hop: Some(10),
            observer_addr: None,
            revealed_routers: vec![],
        }];
        ObserverHopTable::compute(&results)
    }

    #[test]
    fn hop_table_flattens() {
        let flat = SerializableHopTable::from_table(&table());
        assert_eq!(flat.rows.len(), 1);
        assert_eq!(flat.rows[0].protocol, "DNS");
        assert_eq!(flat.rows[0].hop, 10);
        assert_eq!(flat.rows[0].percent, 100.0);
    }

    #[test]
    fn bundle_serializes_to_json() {
        let bundle = AnalysisBundle {
            hop_table: Some(SerializableHopTable::from_table(&table())),
            fig4_grid: Some(vec![("1min".to_string(), 0.25)]),
            ..Default::default()
        };
        let json = bundle.to_json().unwrap();
        assert!(json.contains("\"hop\": 10"));
        assert!(json.contains("1min"));
        // Round-trips as generic JSON.
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(value["hop_table"]["rows"].is_array());
    }

    #[test]
    fn grid_points_are_owned() {
        let mut hist = IntervalHistogram::default();
        hist.record(30_000);
        hist.record(2 * 86_400_000);
        let points = grid_points(&hist);
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].0, "1s");
        assert!(points.last().unwrap().1 >= 0.99);
    }
}
