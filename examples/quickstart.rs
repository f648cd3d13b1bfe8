//! Quickstart: run a miniature end-to-end study and print the headline
//! numbers. See `full_campaign.rs` for the paper-scale reproduction.

use traffic_shadowing::study::{Study, StudyConfig};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let started = std::time::Instant::now();
    // Arrivals are classified at capture time into compact aggregates; no
    // raw arrival vector is kept anywhere.
    let outcome = Study::run(StudyConfig::tiny(seed));
    println!("=== traffic-shadowing quickstart (seed {seed}) ===\n");
    println!("{}", outcome.summary());
    println!("\nunsolicited requests by Decoy-Request combination:");
    for (combo, n) in outcome.combo_counts() {
        println!("  {combo:<12} {n}");
    }
    let fig4 = outcome.fig4();
    if !fig4.is_empty() {
        println!("\nResolver_h retention (Figure 4 grid):");
        for (label, fraction) in traffic_shadowing::shadow_analysis::temporal::paper_grid(&fig4) {
            println!("  ≤{label:<5} {:.1}%", fraction * 100.0);
        }
    }
    println!("\n(elapsed: {:?})", started.elapsed());
}
