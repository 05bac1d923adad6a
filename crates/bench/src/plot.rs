//! Standalone SVG charts from `BENCH_results.json` — no plotting deps.
//!
//! The workspace builds without crates.io, so the `figures --plot` mode
//! hand-rolls its charts: for every experiment table it emits one SVG of
//! horizontal bar panels, one panel per numeric column, one bar per row.
//! Each panel is scaled to its own column maximum, so differently-scaled
//! metrics (kops next to µs next to fence counts) stay readable side by
//! side.

use std::fmt::Write as _;

use crate::json::Json;

/// Columns whose cells mostly parse as numbers become bar panels.
fn numeric(cell: &str) -> Option<f64> {
    let c = cell.trim().trim_start_matches('+').trim_end_matches('%');
    if c.is_empty() || c == "-" {
        return None;
    }
    c.parse::<f64>().ok()
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// One parsed table, lifted out of the JSON.
struct TableData {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn lift_table(t: &Json) -> Option<TableData> {
    let Json::Obj(m) = t else { return None };
    let title = match m.get("title") {
        Some(Json::Str(s)) => s.clone(),
        _ => return None,
    };
    let strings = |v: &Json| -> Vec<String> {
        match v {
            Json::Arr(a) => a
                .iter()
                .map(|c| match c {
                    Json::Str(s) => s.clone(),
                    Json::Num(n) => n.to_string(),
                    _ => String::new(),
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let header = m.get("header").map(&strings).unwrap_or_default();
    let rows = match m.get("rows") {
        Some(Json::Arr(rs)) => rs.iter().map(&strings).collect(),
        _ => Vec::new(),
    };
    Some(TableData {
        title,
        header,
        rows,
    })
}

const PANEL_W: f64 = 420.0;
const ROW_H: f64 = 20.0;
const LABEL_W: f64 = 150.0;
const BAR_MAX_W: f64 = PANEL_W - LABEL_W - 80.0;
const PALETTE: &[&str] = &[
    "#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c", "#dc7ec0",
];

/// Renders one table as a standalone SVG document.
fn table_to_svg(t: &TableData) -> Option<String> {
    if t.rows.is_empty() || t.header.is_empty() {
        return None;
    }
    // A column is a metric if over half its cells are numeric.
    let cols = t.header.len();
    let metric_cols: Vec<usize> = (0..cols)
        .filter(|&c| {
            let hits = t
                .rows
                .iter()
                .filter(|r| r.get(c).map(|v| numeric(v).is_some()).unwrap_or(false))
                .count();
            hits * 2 > t.rows.len()
        })
        .collect();
    if metric_cols.is_empty() {
        return None;
    }
    // Row labels: the non-metric cells, joined.
    let labels: Vec<String> = t
        .rows
        .iter()
        .map(|r| {
            let parts: Vec<&str> = (0..cols)
                .filter(|c| !metric_cols.contains(c))
                .filter_map(|c| r.get(c).map(|s| s.as_str()))
                .filter(|s| !s.is_empty())
                .collect();
            if parts.is_empty() {
                "(row)".to_string()
            } else {
                parts.join(" / ")
            }
        })
        .collect();

    let panel_h = 30.0 + t.rows.len() as f64 * ROW_H + 10.0;
    let total_h = 34.0 + metric_cols.len() as f64 * panel_h + 6.0;
    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{PANEL_W}\" height=\"{total_h}\" \
         font-family=\"sans-serif\" font-size=\"11\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n\
         <text x=\"8\" y=\"18\" font-size=\"13\" font-weight=\"bold\">{}</text>\n",
        esc(&t.title)
    );
    for (pi, &c) in metric_cols.iter().enumerate() {
        let top = 34.0 + pi as f64 * panel_h;
        let color = PALETTE[pi % PALETTE.len()];
        let max = t
            .rows
            .iter()
            .filter_map(|r| r.get(c).and_then(|v| numeric(v)))
            .fold(0.0f64, |a, b| a.max(b.abs()))
            .max(f64::MIN_POSITIVE);
        let _ = writeln!(
            svg,
            "<text x=\"8\" y=\"{}\" font-weight=\"bold\" fill=\"{color}\">{}</text>",
            top + 14.0,
            esc(&t.header[c])
        );
        for (ri, row) in t.rows.iter().enumerate() {
            let y = top + 22.0 + ri as f64 * ROW_H;
            let _ = writeln!(
                svg,
                "<text x=\"{}\" y=\"{}\" text-anchor=\"end\">{}</text>",
                LABEL_W - 6.0,
                y + 12.0,
                esc(&labels[ri])
            );
            match row.get(c).and_then(|v| numeric(v)) {
                Some(v) => {
                    let w = (v.abs() / max * BAR_MAX_W).max(1.0);
                    let _ = write!(
                        svg,
                        "<rect x=\"{LABEL_W}\" y=\"{}\" width=\"{w:.1}\" height=\"{}\" \
                         fill=\"{color}\" opacity=\"0.85\"/>\n\
                         <text x=\"{}\" y=\"{}\">{}</text>\n",
                        y + 2.0,
                        ROW_H - 6.0,
                        LABEL_W + w + 6.0,
                        y + 12.0,
                        esc(row.get(c).map(|s| s.as_str()).unwrap_or(""))
                    );
                }
                None => {
                    let _ = writeln!(
                        svg,
                        "<text x=\"{LABEL_W}\" y=\"{}\" fill=\"#999\">n/a</text>",
                        y + 12.0
                    );
                }
            }
        }
    }
    svg.push_str("</svg>\n");
    Some(svg)
}

/// Renders every experiment table in a parsed `BENCH_results.json` into
/// `(file_stem, svg_document)` pairs, in experiment order.
///
/// # Errors
///
/// Returns a message when the document has no `experiments` object.
pub fn plot_results(doc: &Json) -> Result<Vec<(String, String)>, String> {
    let Some(Json::Obj(experiments)) = (match doc {
        Json::Obj(m) => m.get("experiments"),
        _ => None,
    }) else {
        return Err("no \"experiments\" object in results file".into());
    };
    let mut out = Vec::new();
    for (name, tables) in experiments {
        let Json::Arr(tables) = tables else { continue };
        for (i, t) in tables.iter().enumerate() {
            let Some(td) = lift_table(t) else { continue };
            let Some(svg) = table_to_svg(&td) else {
                continue;
            };
            let stem = if tables.len() == 1 {
                name.clone()
            } else {
                format!("{name}_{i}")
            };
            out.push((stem, svg));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    const SAMPLE: &str = r#"{"generated_unix":1,"experiments":{"demo":[
        {"title":"Demo: kops by mode","header":["mode","kops","p99_us"],
         "rows":[["group","120.5","340"],["per_request","80.1","150"],["async","-","90"]]}
    ]}}"#;

    #[test]
    fn sample_results_produce_one_svg_per_table() {
        let doc = parse_json(SAMPLE).unwrap();
        let plots = plot_results(&doc).unwrap();
        assert_eq!(plots.len(), 1);
        let (stem, svg) = &plots[0];
        assert_eq!(stem, "demo");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        // Two metric panels (kops, p99_us), three rows each.
        assert_eq!(svg.matches("font-weight=\"bold\" fill=").count(), 2);
        assert!(svg.contains("group"));
        // The "-" cell renders as n/a instead of a zero-width lie.
        assert!(svg.contains("n/a"));
    }

    #[test]
    fn non_numeric_tables_are_skipped_not_errored() {
        let doc = parse_json(
            r#"{"experiments":{"notes":[
                {"title":"t","header":["a","b"],"rows":[["x","y"]]}
            ]}}"#,
        )
        .unwrap();
        assert!(plot_results(&doc).unwrap().is_empty());
    }

    #[test]
    fn percent_and_signed_cells_count_as_numeric() {
        assert_eq!(numeric("+12.5%"), Some(12.5));
        assert_eq!(numeric("-3.0%"), Some(-3.0));
        assert_eq!(numeric("-"), None);
        assert_eq!(numeric("group"), None);
    }
}
