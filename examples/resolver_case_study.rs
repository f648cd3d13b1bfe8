//! The Section 5.1 case studies: Yandex (case I) and the 114DNS anycast
//! split (case II), reproduced on a mid-size world.
//!
//! Run with `cargo run --release --example resolver_case_study [seed]`.

use shadow_analysis::report::pct;
use traffic_shadowing::shadow_analysis;
use traffic_shadowing::shadow_core::campaign::Phase1Config;
use traffic_shadowing::shadow_core::phase2::Phase2Config;
use traffic_shadowing::shadow_core::world::WorldConfig;
use traffic_shadowing::shadow_netsim::time::SimDuration;
use traffic_shadowing::study::{Study, StudyConfig};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(23);
    // DNS-only campaign: the cases are about resolver behaviour.
    let config = StudyConfig {
        world: WorldConfig {
            vps_global: 60,
            vps_cn: 60,
            tranco_sites: 6,
            ..WorldConfig::standard(seed)
        },
        phase1: Phase1Config {
            send_http: false,
            send_tls: false,
            grace: SimDuration::from_days(35),
            ..Phase1Config::default()
        },
        phase2: Phase2Config::default(),
        trace_cap_per_protocol: 10,
        run_phase2: false,
        telemetry: traffic_shadowing::shadow_core::executor::TelemetryOptions::disabled(),
        faults: None,
    };
    let outcome = Study::run(config);

    println!("=== Case study I: Yandex ===");
    for name in ["Yandex", "One DNS", "DNS PAI", "VERCARA"] {
        if let Some(case) = outcome.resolver_case(name) {
            println!(
                "{:<10} decoys {:>5} | shadowed {:>6} | HTTP(S)-probed {:>6} | median interval {:>10} | >10d tail {:>6}",
                case.destination,
                case.decoys,
                pct(case.shadowed_fraction()),
                pct(case.http_probed_fraction()),
                case.median_interval_ms
                    .map(|ms| format!("≤{}", SimDuration::from_millis(ms)))
                    .unwrap_or_else(|| "-".into()),
                pct(case.ten_day_tail),
            );
        }
    }
    println!("(paper: Yandex >99% shadowed, 51% → HTTP/HTTPS, data retained for days)\n");

    println!("=== Case study II: 114DNS anycast ===");
    if let Some(case) = outcome.anycast_case() {
        println!(
            "CN vantage points:     {:>3}/{:<3} paths problematic ({})",
            case.in_country.0,
            case.in_country.1,
            pct(case.in_country_ratio())
        );
        println!(
            "elsewhere:             {:>3}/{:<3} paths problematic ({})",
            case.elsewhere.0,
            case.elsewhere.1,
            pct(case.elsewhere_ratio())
        );
        println!("(paper: decoys reaching the CN instances trigger unsolicited requests; US instances do not)");
    }

    println!("\n=== Benign control group ===");
    for name in ["Google", "Cloudflare", "Quad9", "self-built", "a.root"] {
        if let Some(case) = outcome.resolver_case(name) {
            println!(
                "{:<11} shadowed {:>6} | HTTP(S)-probed {:>6}",
                case.destination,
                pct(case.shadowed_fraction()),
                pct(case.http_probed_fraction()),
            );
        }
    }
}
