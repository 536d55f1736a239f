//! Table/figure text formatting shared by the registry renderers and
//! the CLI.
//!
//! All writers append to a `String` buffer so a whole report can be
//! built, compared and reprinted deterministically (`lru-leak run
//! <id>` and `run-all` print it).

use std::fmt::{Display, Write};

use crate::json::Value;

/// A fixed seed so `lru-leak run <id>` / `run-all` output is
/// reproducible run to run.
pub const BENCH_SEED: u64 = 0x11ca_c4e5;

/// Appends the standard experiment header.
pub fn header(buf: &mut String, id: &str, paper_ref: &str, what: &str) {
    buf.push('\n');
    buf.push_str("================================================================\n");
    let _ = writeln!(buf, "{id} — {paper_ref}");
    let _ = writeln!(buf, "{what}");
    buf.push_str("================================================================\n");
}

/// Appends one labelled row of values.
pub fn row<V: Display>(buf: &mut String, label: &str, values: &[V]) {
    let _ = write!(buf, "{label:<28}");
    for v in values {
        let _ = write!(buf, " {v:>12}");
    }
    buf.push('\n');
}

/// Formats a fraction as a percentage with 2 decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats a fraction as a percentage with 1 decimal.
pub fn pct1(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a rate in bits/s in the paper's Kbps style.
pub fn kbps(bps: f64) -> String {
    if bps >= 1_000.0 {
        format!("{:.0}Kbps", bps / 1_000.0)
    } else {
        format!("{bps:.1}bps")
    }
}

/// Flattens a report's metrics into deterministic CSV: one row per
/// entry of the `summary` array (the per-cell numbers every renderer
/// already emits), columns in first-seen key order, prefixed by the
/// artifact ID. A scalar summary becomes a single row; nested values
/// (noise specs, histogram rows) are embedded as compact JSON in one
/// quoted cell. Pure renderer over [`Value`] — no measurement code.
pub fn summary_to_csv(metrics: &Value) -> String {
    let id = metrics.get("id").and_then(Value::as_str).unwrap_or("");
    let rows: Vec<&Value> = match metrics.get("summary") {
        Some(Value::Arr(items)) => items.iter().collect(),
        Some(other) => vec![other],
        None => Vec::new(),
    };
    // Column order: first appearance across all rows, so every run
    // of the same artifact produces the same header.
    let mut columns: Vec<&str> = Vec::new();
    for row in &rows {
        if let Value::Obj(pairs) = row {
            for (k, _) in pairs {
                if !columns.iter().any(|c| c == k) {
                    columns.push(k);
                }
            }
        }
    }
    let scalar_rows = rows.iter().any(|r| !matches!(r, Value::Obj(_)));
    let mut out = String::from("artifact");
    for c in &columns {
        out.push(',');
        out.push_str(&csv_cell_str(c));
    }
    if scalar_rows {
        out.push_str(",value");
    }
    out.push('\n');
    for row in rows {
        out.push_str(&csv_cell_str(id));
        for c in &columns {
            out.push(',');
            if let Some(v) = row.get(c) {
                out.push_str(&csv_cell(v));
            }
        }
        if scalar_rows {
            out.push(',');
            if !matches!(row, Value::Obj(_)) {
                out.push_str(&csv_cell(row));
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a report's metrics as a self-contained Vega-Lite v5 spec:
/// the same per-cell `summary` rows the CSV path flattens, embedded
/// as inline `data.values`, with encodings inferred from the column
/// types — first numeric column on x, second on y (falling back to
/// the row index when only one numeric column exists), first string
/// column as the color series. Pure renderer over [`Value`], built
/// through the deterministic JSON writer, so repeated runs emit
/// byte-identical specs; paste the output into any Vega editor or
/// `vega-lite` CLI to get the plot.
pub fn summary_to_vega(metrics: &Value) -> String {
    let id = metrics.get("id").and_then(Value::as_str).unwrap_or("");
    let paper_ref = metrics.get("paper_ref").and_then(Value::as_str);
    let what = metrics.get("what").and_then(Value::as_str);
    let rows: Vec<&Value> = match metrics.get("summary") {
        Some(Value::Arr(items)) => items.iter().collect(),
        Some(other) => vec![other],
        None => Vec::new(),
    };
    // Column order mirrors the CSV renderer: first appearance across
    // all rows. A column is quantitative when every present value is
    // numeric, nominal otherwise.
    let mut columns: Vec<&str> = Vec::new();
    for row in &rows {
        if let Value::Obj(pairs) = row {
            for (k, _) in pairs {
                if !columns.iter().any(|c| c == k) {
                    columns.push(k);
                }
            }
        }
    }
    let numeric = |col: &str| {
        let mut seen = false;
        for row in &rows {
            if let Some(v) = row.get(col) {
                if v.as_f64().is_none() {
                    return false;
                }
                seen = true;
            }
        }
        seen
    };
    let quantitative: Vec<&str> = columns.iter().copied().filter(|c| numeric(c)).collect();
    let nominal: Vec<&str> = columns
        .iter()
        .copied()
        .filter(|c| !quantitative.contains(c))
        .collect();
    let scalar_rows = rows.iter().any(|r| !matches!(r, Value::Obj(_)));
    // Inline data: one flat object per row; nested values embed as
    // compact JSON strings, scalar rows become {index, value}.
    let values: Vec<Value> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut out = Value::obj().with("artifact", id).with("index", i);
            if let Value::Obj(pairs) = row {
                for (k, v) in pairs {
                    let flat = match v {
                        Value::Arr(_) | Value::Obj(_) => Value::Str(v.to_string()),
                        scalar => scalar.clone(),
                    };
                    out = out.with(k, flat);
                }
            } else if scalar_rows {
                out = out.with("value", (*row).clone());
            }
            out
        })
        .collect();
    let field = |name: &str, kind: &str| Value::obj().with("field", name).with("type", kind);
    let (x, y) = match (quantitative.first(), quantitative.get(1)) {
        (Some(&x), Some(&y)) => (field(x, "quantitative"), field(y, "quantitative")),
        (Some(&y), None) => (field("index", "ordinal"), field(y, "quantitative")),
        (None, _) if scalar_rows => (field("index", "ordinal"), field("value", "quantitative")),
        (None, _) => (field("index", "ordinal"), field("index", "ordinal")),
    };
    let mut encoding = Value::obj().with("x", x).with("y", y);
    if let Some(&series) = nominal.first() {
        encoding = encoding.with("color", field(series, "nominal"));
    }
    let mut description = String::from(id);
    if let Some(r) = paper_ref {
        let _ = write!(description, " — {r}");
    }
    if let Some(w) = what {
        let _ = write!(description, ": {w}");
    }
    let spec = Value::obj()
        .with("$schema", "https://vega.github.io/schema/vega-lite/v5.json")
        .with("description", description)
        .with("data", Value::obj().with("values", Value::Arr(values)))
        .with(
            "mark",
            Value::obj().with("type", "line").with("point", true),
        )
        .with("encoding", encoding);
    format!("{}\n", spec.pretty())
}

/// One CSV cell: scalars print through the deterministic JSON
/// writer, strings are CSV-escaped, nested trees embed as quoted
/// compact JSON.
fn csv_cell(v: &Value) -> String {
    match v {
        Value::Str(s) => csv_cell_str(s),
        Value::Arr(_) | Value::Obj(_) => csv_cell_str(&v.to_string()),
        scalar => scalar.to_string(),
    }
}

/// CSV-escapes a raw string (RFC 4180 quoting).
fn csv_cell_str(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Geometric mean of a series (values clamped away from zero) — the
/// Fig. 9 "overall CPI change" aggregation, shared by the registry
/// renderer and the `secure_cache` example.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Renders an ASCII sparkline of a series (one char per point).
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            GLYPHS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(pct1(0.5), "50.0%");
    }

    #[test]
    fn kbps_formats() {
        assert_eq!(kbps(480_000.0), "480Kbps");
        assert_eq!(kbps(2.4), "2.4bps");
    }

    #[test]
    fn sparkline_spans_range() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn header_and_row_append() {
        let mut buf = String::new();
        header(&mut buf, "id", "ref", "what");
        row(&mut buf, "label", &[1, 2]);
        assert!(buf.contains("id — ref"));
        assert!(buf.contains("label"));
    }

    #[test]
    fn summary_csv_flattens_object_rows() {
        let metrics = Value::obj().with("id", "fig6").with(
            "summary",
            Value::Arr(vec![
                Value::obj().with("d", 8u64).with("fraction", 0.25),
                Value::obj()
                    .with("d", 4u64)
                    .with("fraction", 0.5)
                    .with("extra", "a,b"),
            ]),
        );
        let csv = summary_to_csv(&metrics);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "artifact,d,fraction,extra");
        assert_eq!(lines[1], "fig6,8,0.25,");
        assert_eq!(lines[2], "fig6,4,0.5,\"a,b\"");
    }

    #[test]
    fn summary_csv_handles_scalar_and_nested_values() {
        let metrics = Value::obj().with("id", "x").with(
            "summary",
            Value::obj().with("nested", Value::obj().with("k", 1u64)),
        );
        let csv = summary_to_csv(&metrics);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "artifact,nested");
        assert_eq!(lines[1], "x,\"{\"\"k\"\":1}\"");
    }

    #[test]
    fn summary_vega_infers_encodings_from_columns() {
        let metrics = Value::obj()
            .with("id", "fig6")
            .with("paper_ref", "Fig. 6")
            .with("what", "error vs distance")
            .with(
                "summary",
                Value::Arr(vec![
                    Value::obj()
                        .with("d", 8u64)
                        .with("fraction", 0.25)
                        .with("policy", "tree_plru"),
                    Value::obj()
                        .with("d", 4u64)
                        .with("fraction", 0.5)
                        .with("policy", "bit_plru"),
                ]),
            );
        let spec = Value::parse(&summary_to_vega(&metrics)).unwrap();
        assert_eq!(
            spec.get("$schema").and_then(Value::as_str),
            Some("https://vega.github.io/schema/vega-lite/v5.json")
        );
        assert_eq!(
            spec.get("description").and_then(Value::as_str),
            Some("fig6 — Fig. 6: error vs distance")
        );
        let enc = spec.get("encoding").unwrap();
        let axis = |k: &str| {
            let f = enc.get(k).unwrap();
            (
                f.get("field").and_then(Value::as_str).unwrap().to_string(),
                f.get("type").and_then(Value::as_str).unwrap().to_string(),
            )
        };
        assert_eq!(axis("x"), ("d".into(), "quantitative".into()));
        assert_eq!(axis("y"), ("fraction".into(), "quantitative".into()));
        assert_eq!(axis("color"), ("policy".into(), "nominal".into()));
        let values = match spec.get("data").unwrap().get("values").unwrap() {
            Value::Arr(v) => v,
            other => panic!("values not an array: {other}"),
        };
        assert_eq!(values.len(), 2);
        assert_eq!(
            values[0].get("artifact").and_then(Value::as_str),
            Some("fig6")
        );
        assert_eq!(values[1].get("index").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn summary_vega_falls_back_to_index_axis_and_flattens_nested() {
        let metrics = Value::obj().with("id", "t1").with(
            "summary",
            Value::Arr(vec![Value::obj()
                .with("rate", 0.75)
                .with("noise", Value::obj().with("k", 1u64))]),
        );
        let spec = Value::parse(&summary_to_vega(&metrics)).unwrap();
        let enc = spec.get("encoding").unwrap();
        assert_eq!(
            enc.get("x").unwrap().get("field").and_then(Value::as_str),
            Some("index")
        );
        assert_eq!(
            enc.get("y").unwrap().get("field").and_then(Value::as_str),
            Some("rate")
        );
        // Nested values embed as compact JSON strings and read as nominal.
        assert_eq!(
            enc.get("color")
                .unwrap()
                .get("field")
                .and_then(Value::as_str),
            Some("noise")
        );
        let values = match spec.get("data").unwrap().get("values").unwrap() {
            Value::Arr(v) => v,
            other => panic!("values not an array: {other}"),
        };
        assert_eq!(
            values[0].get("noise").and_then(Value::as_str),
            Some("{\"k\":1}")
        );
    }

    #[test]
    fn summary_vega_handles_scalar_summary_and_is_deterministic() {
        let metrics = Value::obj()
            .with("id", "s")
            .with("summary", Value::Num(0.5));
        let spec_text = summary_to_vega(&metrics);
        assert_eq!(spec_text, summary_to_vega(&metrics));
        let spec = Value::parse(&spec_text).unwrap();
        let enc = spec.get("encoding").unwrap();
        assert_eq!(
            enc.get("y").unwrap().get("field").and_then(Value::as_str),
            Some("value")
        );
        assert!(enc.get("color").is_none());
    }

    #[test]
    fn summary_csv_is_deterministic() {
        let metrics = Value::obj().with("id", "y").with(
            "summary",
            Value::Arr(vec![
                Value::obj().with("a", 1u64),
                Value::obj().with("b", true),
            ]),
        );
        assert_eq!(summary_to_csv(&metrics), summary_to_csv(&metrics));
        assert!(summary_to_csv(&metrics).starts_with("artifact,a,b\n"));
    }
}
