//! Fixed-width text rendering for tables and series — the primitives
//! `traffic_shadowing::tables` renders every paper artifact with, so that
//! regenerated tables read like the paper's.

/// Render a table: header row + data rows, columns padded to fit.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().take(cols).enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().take(cols).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Render a labeled numeric series (e.g. a CDF on the paper grid).
pub fn render_series(title: &str, points: &[(&str, f64)]) -> String {
    let mut out = format!("{title}\n");
    for (label, value) in points {
        let bar_len = (value * 40.0).round().clamp(0.0, 40.0) as usize;
        out.push_str(&format!(
            "  {label:>6}  {value:>7.3}  {}\n",
            "#".repeat(bar_len)
        ));
    }
    out
}

/// Format a fraction as a paper-style percentage.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let rendered = render_table(
            &["AS", "Name", "Paths"],
            &[
                vec!["AS4134".into(), "CHINANET-BACKBONE".into(), "172".into()],
                vec!["AS58563".into(), "Hubei".into(), "40".into()],
            ],
        );
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("AS "));
        assert!(lines[2].contains("CHINANET-BACKBONE"));
        // Column starts align between rows.
        let name_col = lines[2].find("CHINANET").unwrap();
        assert_eq!(lines[3].find("Hubei").unwrap(), name_col);
    }

    #[test]
    fn series_renders_bars() {
        let rendered = render_series("CDF", &[("1min", 0.25), ("1d", 1.0)]);
        assert!(rendered.contains("1min"));
        assert!(rendered.lines().last().unwrap().contains(&"#".repeat(40)));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.517), "51.7%");
        assert_eq!(pct(0.0), "0.0%");
    }
}
