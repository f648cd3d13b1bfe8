//! The paper's evaluation artifacts as text: one renderer per table,
//! figure, section finding and case study, each titled and closed by the
//! values the paper reports. `full_campaign`, the `paper_tables` bench
//! harness and the §6 ablation runs print only through these functions,
//! so every copy of a table reads the same.

use crate::study::StudyOutcome;
use shadow_analysis::breakdown::DecoyOutcome;
use shadow_analysis::report::{pct, render_series, render_table};
use shadow_analysis::temporal::paper_grid;
use shadow_core::decoy::DecoyProtocol;
use shadow_core::sink::IntervalHistogram;
use shadow_dns::catalog::{pair_address, DnsDestinationKind, DNS_DESTINATIONS};
use shadow_geo::Asn;
use shadow_netsim::time::SimDuration;

const PROTOCOLS: [DecoyProtocol; 3] = [DecoyProtocol::Dns, DecoyProtocol::Http, DecoyProtocol::Tls];

/// Every paper artifact of `outcome` in paper order — Tables 1–3, Figures
/// 3–7, the §5 findings, the case studies, then the appendix's Table 4 —
/// separated by blank lines.
pub fn report(outcome: &StudyOutcome) -> String {
    [
        table1(outcome),
        figure3(outcome),
        table2(outcome),
        table3(outcome),
        figure4(outcome),
        figure5(outcome),
        figure6(outcome),
        figure7(outcome),
        reuse(outcome),
        probing(outcome),
        protocol_combinations(outcome),
        open_ports(outcome),
        case_studies(outcome),
        table4(),
    ]
    .join("\n")
}

/// One artifact: its title rule, its body, and the paper's values.
fn section(title: &str, body: String, paper: &str) -> String {
    format!("--- {title} ---\n{body}paper: {paper}\n")
}

/// Table 1: the measurement platform after the Appendix-E vetting.
pub fn table1(outcome: &StudyOutcome) -> String {
    let rows: Vec<Vec<String>> = outcome
        .world
        .platform
        .table1(&outcome.world.geo)
        .into_iter()
        .map(|r| {
            vec![
                r.market.to_string(),
                r.providers.to_string(),
                r.vps.to_string(),
                r.ases.to_string(),
                r.countries.to_string(),
            ]
        })
        .collect();
    section(
        "Table 1: measurement platform (after vetting)",
        render_table(&["Market", "Providers", "VPs", "ASes", "Countries"], &rows),
        "Global 6/2179/74/81 · CN 13/2185/47/30 · Total 19/4364/121/82",
    )
}

/// Figure 3: the share of paths shadowed per DNS destination and per
/// protocol, plus the HTTP/TLS site groups observed most.
pub fn figure3(outcome: &StudyOutcome) -> String {
    let landscape = outcome.landscape();
    let rows: Vec<Vec<String>> = [
        "Yandex",
        "114DNS",
        "One DNS",
        "DNS PAI",
        "VERCARA",
        "Google",
        "Cloudflare",
        "Quad9",
        "OpenDNS",
        "self-built",
        "a.root",
        ".com",
    ]
    .into_iter()
    .map(|dest| {
        let ratio = landscape.destination_ratio(dest, DecoyProtocol::Dns);
        vec![dest.to_string(), pct(ratio)]
    })
    .collect();
    let mut body = render_table(&["DNS destination", "paths shadowed"], &rows);
    let [dns, http, tls] = PROTOCOLS.map(|p| pct(landscape.protocol_ratio(p)));
    body += &format!("protocol totals: DNS {dns} | HTTP {http} | TLS {tls}\n");
    body += "HTTP/TLS destinations most observed (site groups by hosting country):\n";
    for protocol in [DecoyProtocol::Http, DecoyProtocol::Tls] {
        let top: Vec<String> = landscape
            .destination_ratios(protocol)
            .into_iter()
            .filter(|(d, _, _)| d.starts_with("site:"))
            .take(4)
            .map(|(d, r, _)| format!("{d} {}", pct(r)))
            .collect();
        body += &format!("  {}: {}\n", protocol.as_str(), top.join("  "));
    }
    section(
        "Figure 3: problematic-path ratios per destination",
        body,
        "Resolver_h > 70%, HTTP/TLS < 10%, roots/control 0%; \
         sites in CN, AD, US, CA most associated",
    )
}

/// Table 2: where on the path observers sit, normalized to hops 1–10
/// (10 = destination), as a percentage of each protocol's localized paths.
pub fn table2(outcome: &StudyOutcome) -> String {
    let table = outcome.hop_table();
    let rows: Vec<Vec<String>> = PROTOCOLS
        .into_iter()
        .map(|p| {
            std::iter::once(format!("{} (n={})", p.as_str(), table.localized_paths(p)))
                .chain((1..=10u8).map(|hop| format!("{:.1}", table.percent(p, hop))))
                .collect()
        })
        .collect();
    section(
        "Table 2: normalized location of traffic observers",
        render_table(
            &[
                "proto", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10=dst",
            ],
            &rows,
        ),
        "DNS 99.7 @10 · HTTP 31/30/18 @4/5/6 · TLS 26 @6, 65 @10",
    )
}

/// Table 3: the networks of ICMP-revealed observers, per decoy protocol.
pub fn table3(outcome: &StudyOutcome) -> String {
    let ips = outcome.observer_ips();
    let mut body = format!(
        "observer IPs revealed: {} ({} in CN)\n",
        ips.total_ips,
        pct(ips.country_fraction("CN"))
    );
    for protocol in PROTOCOLS {
        let Some(rows) = ips.top_ases.get(protocol.as_str()) else {
            continue;
        };
        let rows: Vec<Vec<String>> = rows
            .iter()
            .take(3)
            .map(|r| {
                vec![
                    format!("AS{}", r.asn),
                    r.name.clone(),
                    r.country.clone(),
                    r.paths.to_string(),
                    pct(r.share),
                ]
            })
            .collect();
        body += &format!(
            "\n{} decoys:\n{}",
            protocol.as_str(),
            render_table(&["AS", "Name", "CC", "Paths", "Share"], &rows)
        );
    }
    section(
        "Table 3: top networks of on-path traffic observers",
        body,
        "572 observer IPs, 79% in CN; HTTP AS4134 44% / AS58563 10% / AS137697 6.1%; \
         TLS AS4134 54%",
    )
}

/// Figure 4: the interval CDF of DNS decoys to Resolver_h, with the other
/// public resolvers as the control.
pub fn figure4(outcome: &StudyOutcome) -> String {
    let fig4 = outcome.fig4();
    let others = outcome.fig4_other_resolvers();
    let body = format!(
        "{}other 15 resolvers: {} within 1 minute\n\
         mass near the 1h mark (cache-refresh check): {} (no spike expected)\n",
        render_series(
            &format!("Resolver_h (n={})", fig4.total()),
            &paper_grid(&fig4)
        ),
        pct(others.fraction_at(SimDuration::from_mins(1)).unwrap_or(0.0)),
        pct(fig4
            .fraction_between(SimDuration::from_mins(55), SimDuration::from_mins(65))
            .unwrap_or(0.0)),
    );
    section(
        "Figure 4: interval CDF, DNS decoys to Resolver_h",
        body,
        "sizable mass within 1 minute and after days; 40% of Yandex names reappear \
         >10 d later; no spike near 1 h; other 15 resolvers 95% within 1 minute",
    )
}

/// Figure 5: each DNS decoy's strongest outcome, per destination.
pub fn figure5(outcome: &StudyOutcome) -> String {
    const OUTCOMES: [DecoyOutcome; 5] = [
        DecoyOutcome::Silent,
        DecoyOutcome::DnsRepeatsWithinHour,
        DecoyOutcome::DnsRepeatsLater,
        DecoyOutcome::HttpWithinHour,
        DecoyOutcome::HttpLater,
    ];
    let breakdown = outcome.fig5_breakdown();
    let rows: Vec<Vec<String>> = [
        "Yandex",
        "114DNS",
        "One DNS",
        "DNS PAI",
        "VERCARA",
        "Google",
        "OpenDNS",
        "self-built",
    ]
    .into_iter()
    .filter_map(|dest| breakdown.iter().find(|b| b.destination == dest))
    .map(|b| {
        [
            b.destination.clone(),
            b.decoys.to_string(),
            pct(b.shadowed_fraction()),
        ]
        .into_iter()
        .chain(OUTCOMES.map(|o| pct(b.fraction(o))))
        .collect()
    })
    .collect();
    let mut headers = vec!["Destination", "decoys", "shadowed"];
    headers.extend(OUTCOMES.map(DecoyOutcome::label));
    section(
        "Figure 5: DNS decoy outcomes per destination",
        render_table(&headers, &rows),
        "Yandex >99% shadowed, ~50% → HTTP(S) after hours/days",
    )
}

/// Figure 6: the origin ASes of unsolicited requests for Resolver_h decoys.
pub fn figure6(outcome: &StudyOutcome) -> String {
    let origins = outcome.fig6_origins();
    let mut body = format!(
        "Google (AS15169) share of unsolicited DNS re-queries: {}\n",
        pct(origins.as_share(15169))
    );
    for dest in ["Yandex", "114DNS", "One DNS"] {
        let rows: Vec<Vec<String>> = origins
            .named_rows(dest, &outcome.world.catalog)
            .into_iter()
            .take(4)
            .map(|(name, count)| vec![name, count.to_string()])
            .collect();
        body += &format!(
            "\n{dest} (fan-out {} ASes):\n{}",
            origins.origin_as_count(dest),
            render_table(&["Origin AS", "requests"], &rows)
        );
    }
    let rates: Vec<String> = origins
        .blocklist_rates
        .iter()
        .map(|(k, v)| format!("{k} {}", pct(*v)))
        .collect();
    body += &format!("origin-IP blocklist rates: {}\n", rates.join(" · "));
    section(
        "Figure 6: origins of unsolicited requests (Resolver_h)",
        body,
        "Google a dominant DNS re-query origin; 114DNS → 4 origin ASes; \
         5.2% of DNS origin IPs blocklisted",
    )
}

/// Figure 7: the interval CDFs of HTTP and TLS decoys.
pub fn figure7(outcome: &StudyOutcome) -> String {
    let (http, tls) = outcome.fig7();
    let series = |name: &str, hist: &IntervalHistogram| {
        render_series(&format!("{name} (n={})", hist.total()), &paper_grid(hist))
    };
    let tail = |hist: &IntervalHistogram| {
        pct(1.0 - hist.fraction_at(SimDuration::from_days(10)).unwrap_or(1.0))
    };
    let body = format!(
        "{}{}>10-day tail: HTTP {} | TLS {} | DNS (Resolver_h) {}\n",
        series("HTTP decoys", &http),
        series("TLS decoys", &tls),
        tail(&http),
        tail(&tls),
        tail(&outcome.fig4()),
    );
    section(
        "Figure 7: interval CDFs, HTTP and TLS decoys",
        body,
        "HTTP/TLS retained shorter than DNS (smaller multi-day tail)",
    )
}

/// §5.1: how often DNS decoy data is reused more than an hour after the
/// decoy.
pub fn reuse(outcome: &StudyOutcome) -> String {
    let reuse = outcome.reuse();
    section(
        "§5.1: reuse of retained data (cutoff 1h)",
        format!(
            "late-active decoys: {} of {} triggered | >3 requests: {} | >10: {} | \
             max reuse: {}\n",
            reuse.late_active_decoys(),
            reuse.triggered_decoys,
            pct(reuse.fraction_exceeding(3)),
            pct(reuse.fraction_exceeding(10)),
            reuse.max_reuse(),
        ),
        ">3 requests 51%, >10 requests 2.4%",
    )
}

/// §5.1/§5.2: what the unsolicited HTTP(S) requests probe for, and how
/// many of their origins are blocklisted, per decoy protocol.
pub fn probing(outcome: &StudyOutcome) -> String {
    let reports = PROTOCOLS.map(|p| outcome.probing(p));
    let rows: Vec<Vec<String>> = PROTOCOLS
        .iter()
        .zip(&reports)
        .map(|(p, r)| {
            vec![
                p.as_str().to_string(),
                r.http_requests.to_string(),
                pct(r.enumeration_fraction()),
                r.exploits.to_string(),
                pct(r.blocklist_rate("HTTP")),
                pct(r.blocklist_rate("HTTPS")),
                pct(r.blocklist_rate("DNS")),
            ]
        })
        .collect();
    let sample: Vec<String> = reports[0]
        .top_paths
        .iter()
        .take(6)
        .map(|(path, n)| format!("{path} ({n})"))
        .collect();
    let body = format!(
        "{}sample probed paths (DNS decoys): {}\n",
        render_table(
            &[
                "decoy",
                "HTTP reqs",
                "enum",
                "exploits",
                "BL HTTP",
                "BL HTTPS",
                "BL DNS"
            ],
            &rows
        ),
        sample.join(", ")
    );
    section(
        "§5: HTTP(S) probing incentives",
        body,
        "~95% enumeration, no exploit payloads; blocklisted origins HTTP/HTTPS \
         57%/72% (DNS decoys), 45%/55% (HTTP/TLS decoys)",
    )
}

/// §5.2: the arrival protocols each observer network triggers, and the
/// overall Decoy-Request combinations.
pub fn protocol_combinations(outcome: &StudyOutcome) -> String {
    let mut body = String::new();
    for (asn, mix) in outcome.observer_combos().per_as.iter().take(6) {
        let catalog = &outcome.world.catalog;
        let name = catalog.get(Asn(*asn)).map_or("", |info| info.name.as_str());
        let parts: Vec<String> = mix.iter().map(|(p, n)| format!("{p}:{n}")).collect();
        body += &format!("AS{asn} {name}: {}\n", parts.join(" "));
    }
    let overall: Vec<String> = outcome
        .combo_counts()
        .iter()
        .map(|(combo, n)| format!("{combo}: {n}"))
        .collect();
    body += &format!("overall Decoy-Request combos: {}\n", overall.join(", "));
    section(
        "§5.2: protocol combinations per observer network",
        body,
        "AS4134-observed HTTP decoys → 66% HTTP (+17% HTTPS) probes; \
         AS29988 and AS40444 probe over DNS only",
    )
}

/// §5.2: the open ports of ICMP-revealed on-wire observers.
pub fn open_ports(outcome: &StudyOutcome) -> String {
    let scan = outcome.observer_port_scan();
    let top = scan
        .top_port()
        .map_or("none".to_string(), |p| p.to_string());
    let counts: Vec<String> = scan
        .port_counts
        .iter()
        .map(|(port, n)| format!("{port}: {n}"))
        .collect();
    section(
        "§5.2: open ports of on-wire observers",
        format!(
            "{} observers scanned | no open ports: {} | top open port: {top} | \
             per-port counts: {}\n",
            scan.targets,
            pct(scan.closed_fraction()),
            if counts.is_empty() {
                "none".to_string()
            } else {
                counts.join(", ")
            },
        ),
        "92% expose no open ports; the most common open port is 179 (BGP)",
    )
}

/// Cases I–III: Yandex, the 114DNS anycast split, and the concentration
/// of observers in CN.
pub fn case_studies(outcome: &StudyOutcome) -> String {
    let mut body = String::new();
    if let Some(case) = outcome.resolver_case("Yandex") {
        body += &format!(
            "I  Yandex: {} of decoys shadowed, {} trigger HTTP(S), >10d tail {}\n",
            pct(case.shadowed_fraction()),
            pct(case.http_probed_fraction()),
            pct(case.ten_day_tail),
        );
    }
    if let Some(case) = outcome.anycast_case() {
        body += &format!(
            "II 114DNS anycast: CN VPs {} vs elsewhere {}\n",
            pct(case.in_country_ratio()),
            pct(case.elsewhere_ratio()),
        );
    }
    let cn = outcome.cn_observer_case();
    body += &format!(
        "III CN observers: {} of on-wire HTTP/TLS observer IPs in CN; \
         {} of probe traffic from CN origins\n",
        pct(cn.cn_observer_fraction()),
        pct(cn.cn_origin_fraction),
    );
    section(
        "Case studies",
        body,
        "I >99% shadowed, 51% trigger HTTP(S), ~40% >10 d · II CN instances shadow, \
         US do not · III 79% of observer IPs in CN, 85% of probes from CN origins",
    )
}

/// Table 4: the DNS destinations decoys are sent to, with the pair
/// address Appendix E derives for each.
pub fn table4() -> String {
    let label = |kind| match kind {
        DnsDestinationKind::PublicResolver => "public resolver",
        DnsDestinationKind::SelfBuiltResolver => "self-built resolver",
        DnsDestinationKind::Root => "root",
        DnsDestinationKind::Tld => "TLD",
    };
    let rows: Vec<Vec<String>> = DNS_DESTINATIONS
        .iter()
        .map(|d| {
            vec![
                label(d.kind).to_string(),
                d.name.to_string(),
                d.addr.to_string(),
                pair_address(d.addr).to_string(),
            ]
        })
        .collect();
    let count = |kind| DNS_DESTINATIONS.iter().filter(|d| d.kind == kind).count();
    let body = format!(
        "{}counts: {} public + {} self-built + {} roots + {} TLDs = {}\n",
        render_table(&["Kind", "Name", "IP", "Pair (App. E)"], &rows),
        count(DnsDestinationKind::PublicResolver),
        count(DnsDestinationKind::SelfBuiltResolver),
        count(DnsDestinationKind::Root),
        count(DnsDestinationKind::Tld),
        DNS_DESTINATIONS.len(),
    );
    section(
        "Table 4: DNS destinations of the decoys",
        body,
        "20 public resolvers, 1 self-built resolver, 13 roots, 2 TLDs",
    )
}

/// §6 ablation: the same world with clear-text and with encrypted decoys.
/// Encryption should blind on-path observers but not the resolver that
/// terminates the query.
pub fn encryption_ablation(clear: &StudyOutcome, encrypted: &StudyOutcome) -> String {
    let sides = [clear.landscape(), encrypted.landscape()];
    let row = |label: &str, [a, b]: [String; 2]| vec![label.to_string(), a, b];
    let mut rows: Vec<Vec<String>> = [
        ("Yandex (resolver-side)", "Yandex"),
        ("One DNS (resolver-side)", "One DNS"),
        ("DNS PAI (resolver-side)", "DNS PAI"),
        ("Google (benign)", "Google"),
    ]
    .into_iter()
    .map(|(label, dest)| {
        row(
            label,
            sides
                .each_ref()
                .map(|ls| pct(ls.destination_ratio(dest, DecoyProtocol::Dns))),
        )
    })
    .collect();
    for (label, protocol) in [
        ("TLS paths (SNI / ECH)", DecoyProtocol::Tls),
        ("HTTP paths (unencrypted)", DecoyProtocol::Http),
    ] {
        let ratios = sides.each_ref().map(|ls| pct(ls.protocol_ratio(protocol)));
        rows.push(row(label, ratios));
    }
    let evidence = [clear, encrypted].map(|o| wire_evidence(o).to_string());
    rows.push(row("wire-observer evidence (benign paths)", evidence));
    section(
        "§6: clear-text vs encrypted decoys",
        render_table(&["", "clear-text", "encrypted"], &rows),
        "encryption blinds on-path observers but not the terminating resolver; \
         ECH removes the SNI; clear-text HTTP stays exposed",
    )
}

/// Unsolicited requests on benign-resolver DNS paths that arrive more than
/// 10 minutes after their decoy. Benign resolvers retry within a minute,
/// so only an on-path observer explains them.
fn wire_evidence(outcome: &StudyOutcome) -> u64 {
    const BENIGN: [&str; 7] = [
        "Google",
        "Cloudflare",
        "Quad9",
        "OpenDNS",
        "Level3",
        "Hurricane",
        "SafeDNS",
    ];
    let late = SimDuration::from_mins(10).millis();
    outcome
        .phase1
        .aggregates
        .interval_hists
        .iter()
        .filter(|((protocol, dst), _)| {
            *protocol == DecoyProtocol::Dns
                && outcome
                    .dest_names
                    .get(dst)
                    .is_some_and(|name| BENIGN.contains(&name.as_str()))
        })
        .map(|(_, hist)| hist.total() - hist.cumulative_at(late).unwrap_or(0))
        .sum()
}
