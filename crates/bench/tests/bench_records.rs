//! Every `BENCH_*.json` at the workspace root is one [`record::Record`]:
//! host metadata plus finite, unit-carrying metrics, written by a harness
//! that still exists. An orphaned or hand-edited record fails here.

use shadow_bench::record::{self, Record};
use std::collections::BTreeSet;

#[test]
fn every_bench_file_is_a_record_of_a_live_bench() {
    let mut found = BTreeSet::new();
    for entry in std::fs::read_dir(record::workspace_root()).expect("workspace root lists") {
        let name = entry.expect("directory entry").file_name();
        let name = name.to_string_lossy();
        let Some(bench) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
        else {
            continue;
        };
        let path = record::workspace_root().join(&*name);
        let text = std::fs::read_to_string(&path).expect("record reads");
        let record: Record = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{name} is not a bench record: {e}"));
        assert_eq!(record.meta.bench, bench, "{name}: meta.bench");
        assert!(record.meta.nproc >= 1, "{name}: nproc");
        assert!(!record.meta.rustc.is_empty(), "{name}: rustc");
        assert!(!record.meta.commit.is_empty(), "{name}: commit");
        assert!(!record.metrics.is_empty(), "{name}: no metrics");
        for (metric, m) in &record.metrics {
            assert!(m.value.is_finite(), "{name}: {metric} = {}", m.value);
            assert!(!m.unit.is_empty(), "{name}: {metric} has no unit");
        }
        found.insert(bench.to_string());
    }
    let expected: BTreeSet<String> = record::BENCHES.iter().map(|b| b.to_string()).collect();
    assert_eq!(
        found, expected,
        "the BENCH_*.json files must be exactly the records a harness writes"
    );
}
