//! No-dependency SVG line charts for the committed benchmark figures.
//!
//! `kdchoice-bench figures` re-reads `BENCH_results.json` (written by
//! `kdchoice-bench throughput`) and renders its curves into `docs/` as
//! hand-assembled SVG — no plotting crate, no JSON crate. The extractor
//! here handles exactly the shape the harness emits: named sections that
//! are arrays of **flat** objects whose values are numbers, booleans, or
//! strings (never nested objects/arrays), which is all
//! `BENCH_results.json` contains inside its sections.

use std::fmt::Write as _;

/// One parsed object of a section: `(field, raw value)` pairs in file
/// order. Raw values keep their JSON spelling (`"8"`, `"3.25"`, `"true"`,
/// `"\"striped\""`).
pub type FlatObject = Vec<(String, String)>;

/// Extracts the array of flat objects stored under `"key": [...]`.
///
/// Returns an empty vector when the key is absent — callers decide
/// whether a missing section is an error.
pub fn extract_objects(json: &str, key: &str) -> Vec<FlatObject> {
    let needle = format!("\"{key}\": [");
    let Some(start) = json.find(&needle) else {
        return Vec::new();
    };
    let mut objects = Vec::new();
    let mut rest = &json[start + needle.len()..];
    while let Some(open) = rest.find(['{', ']']) {
        if rest.as_bytes()[open] == b']' {
            break;
        }
        let Some(close) = rest[open..].find('}') else {
            break;
        };
        let body = &rest[open + 1..open + close];
        objects.push(parse_flat_object(body));
        rest = &rest[open + close + 1..];
    }
    objects
}

/// Splits `"a": 1,\n "b": "x"` into pairs. Flat values contain no commas
/// except inside strings, and the harness never emits commas inside
/// strings' quoted values on these sections — note strings live outside
/// the arrays — so a quote-aware scan is enough.
fn parse_flat_object(body: &str) -> FlatObject {
    let mut pairs = Vec::new();
    let mut depth_in_string = false;
    let mut field_start = 0;
    let bytes = body.as_bytes();
    let mut cuts = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' if i == 0 || bytes[i - 1] != b'\\' => depth_in_string = !depth_in_string,
            b',' if !depth_in_string => cuts.push(i),
            _ => {}
        }
    }
    cuts.push(body.len());
    for cut in cuts {
        let entry = body[field_start..cut].trim();
        field_start = cut + 1;
        let Some(colon) = entry.find(':') else {
            continue;
        };
        let name = entry[..colon].trim().trim_matches('"').to_string();
        let value = entry[colon + 1..].trim().to_string();
        if !name.is_empty() && !value.is_empty() {
            pairs.push((name, value));
        }
    }
    pairs
}

/// Looks a numeric field up in a flat object.
pub fn get_f64(object: &FlatObject, field: &str) -> Option<f64> {
    object
        .iter()
        .find(|(name, _)| name == field)
        .and_then(|(_, raw)| raw.parse().ok())
}

/// One curve of a chart.
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points, already in data coordinates.
    pub points: Vec<(f64, f64)>,
    /// SVG stroke color.
    pub color: &'static str,
}

/// A line chart rendered to a standalone SVG document.
pub struct Chart {
    /// Chart title (top center).
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label (rendered vertically).
    pub y_label: String,
    /// Plot x on a log2 scale (thread counts, refresh periods).
    pub log2_x: bool,
    /// The curves.
    pub series: Vec<Series>,
}

const WIDTH: f64 = 720.0;
const HEIGHT: f64 = 440.0;
const MARGIN_L: f64 = 86.0;
const MARGIN_R: f64 = 24.0;
const MARGIN_T: f64 = 46.0;
const MARGIN_B: f64 = 58.0;

impl Chart {
    /// Renders the chart as a complete SVG document.
    pub fn render(&self) -> String {
        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| self.map_x(x)))
            .collect();
        let ys: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(_, y)| y))
            .collect();
        let (x_lo, x_hi) = padded_range(&xs, 0.0);
        let (y_lo, y_hi) = padded_range(&ys, 0.08);
        let plot_w = WIDTH - MARGIN_L - MARGIN_R;
        let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
        let px = |x: f64| MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w;
        let py = |y: f64| MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h;

        let mut out = String::new();
        let _ = writeln!(
            out,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{HEIGHT}\" viewBox=\"0 0 {WIDTH} {HEIGHT}\" font-family=\"monospace\" font-size=\"13\">"
        );
        out.push_str("<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n");
        let _ = writeln!(
            out,
            "<text x=\"{:.0}\" y=\"24\" text-anchor=\"middle\" font-size=\"16\">{}</text>",
            WIDTH / 2.0,
            escape(&self.title)
        );

        // Gridlines + axis ticks.
        for i in 0..=4 {
            let fy = y_lo + (y_hi - y_lo) * f64::from(i) / 4.0;
            let y = py(fy);
            let _ = writeln!(
                out,
                "<line x1=\"{MARGIN_L}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\" stroke=\"#ddd\"/>",
                WIDTH - MARGIN_R
            );
            let _ = writeln!(
                out,
                "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>",
                MARGIN_L - 8.0,
                y + 4.0,
                format_tick(fy)
            );
        }
        let x_ticks: Vec<f64> = if self.log2_x {
            // One tick per distinct data x, in mapped (log) position.
            let mut ticks: Vec<f64> = self
                .series
                .iter()
                .flat_map(|s| s.points.iter().map(|&(x, _)| x))
                .collect();
            ticks.sort_by(f64::total_cmp);
            ticks.dedup();
            ticks
        } else {
            (0..=4)
                .map(|i| x_lo + (x_hi - x_lo) * f64::from(i) / 4.0)
                .collect()
        };
        for &tick in &x_ticks {
            let x = px(self.map_x(tick));
            let _ = writeln!(
                out,
                "<line x1=\"{x:.1}\" y1=\"{:.1}\" x2=\"{x:.1}\" y2=\"{:.1}\" stroke=\"#ddd\"/>",
                MARGIN_T,
                HEIGHT - MARGIN_B
            );
            let _ = writeln!(
                out,
                "<text x=\"{x:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{}</text>",
                HEIGHT - MARGIN_B + 20.0,
                format_tick(tick)
            );
        }

        // Axes frame and labels.
        let _ = writeln!(
            out,
            "<rect x=\"{MARGIN_L}\" y=\"{MARGIN_T}\" width=\"{plot_w:.1}\" height=\"{plot_h:.1}\" fill=\"none\" stroke=\"#333\"/>"
        );
        let _ = writeln!(
            out,
            "<text x=\"{:.0}\" y=\"{:.0}\" text-anchor=\"middle\">{}</text>",
            MARGIN_L + plot_w / 2.0,
            HEIGHT - 14.0,
            escape(&self.x_label)
        );
        let _ = writeln!(
            out,
            "<text x=\"20\" y=\"{:.0}\" text-anchor=\"middle\" transform=\"rotate(-90 20 {:.0})\">{}</text>",
            MARGIN_T + plot_h / 2.0,
            MARGIN_T + plot_h / 2.0,
            escape(&self.y_label)
        );

        // Curves + markers + legend.
        for (i, series) in self.series.iter().enumerate() {
            let path: Vec<String> = series
                .points
                .iter()
                .map(|&(x, y)| format!("{:.1},{:.1}", px(self.map_x(x)), py(y)))
                .collect();
            let _ = writeln!(
                out,
                "<polyline points=\"{}\" fill=\"none\" stroke=\"{}\" stroke-width=\"2\"/>",
                path.join(" "),
                series.color
            );
            for &(x, y) in &series.points {
                let _ = writeln!(
                    out,
                    "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3.5\" fill=\"{}\"/>",
                    px(self.map_x(x)),
                    py(y),
                    series.color
                );
            }
            let ly = MARGIN_T + 16.0 + 18.0 * i as f64;
            let _ = writeln!(
                out,
                "<line x1=\"{:.1}\" y1=\"{ly:.1}\" x2=\"{:.1}\" y2=\"{ly:.1}\" stroke=\"{}\" stroke-width=\"2\"/>",
                MARGIN_L + 12.0,
                MARGIN_L + 40.0,
                series.color
            );
            let _ = writeln!(
                out,
                "<text x=\"{:.1}\" y=\"{:.1}\">{}</text>",
                MARGIN_L + 46.0,
                ly + 4.0,
                escape(&series.label)
            );
        }
        out.push_str("</svg>\n");
        out
    }

    fn map_x(&self, x: f64) -> f64 {
        if self.log2_x {
            x.max(f64::MIN_POSITIVE).log2()
        } else {
            x
        }
    }
}

/// The data range padded by `pad` of its span on each side (degenerate
/// single-value ranges get a unit span so the mapping stays finite).
fn padded_range(values: &[f64], pad: f64) -> (f64, f64) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !lo.is_finite() || !hi.is_finite() {
        return (0.0, 1.0);
    }
    let span = if hi > lo { hi - lo } else { 1.0 };
    (lo - span * pad, hi + span * pad)
}

/// Ticks render like a human would write them: integers plain, big
/// numbers in millions, small ones with two decimals.
fn format_tick(v: f64) -> String {
    if v.abs() >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if (v - v.round()).abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.2}")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "harness": "kdchoice-bench throughput",
  "staleness_vs_gap": [
    {
      "snapshot_refresh": 1,
      "steady_gap": 2.322,
      "theorem2_envelope_hi": 6.056,
      "backend": "shared_nothing"
    },
    {
      "snapshot_refresh": 512,
      "steady_gap": 2.746,
      "theorem2_envelope_hi": 6.056,
      "backend": "shared_nothing"
    }
  ],
  "other": [ { "x": 1 } ]
}"#;

    #[test]
    fn extracts_flat_sections_by_key() {
        let rows = extract_objects(SAMPLE, "staleness_vs_gap");
        assert_eq!(rows.len(), 2);
        assert_eq!(get_f64(&rows[0], "snapshot_refresh"), Some(1.0));
        assert_eq!(get_f64(&rows[1], "steady_gap"), Some(2.746));
        assert_eq!(get_f64(&rows[0], "missing"), None);
        assert!(extract_objects(SAMPLE, "absent_section").is_empty());
        let other = extract_objects(SAMPLE, "other");
        assert_eq!(other.len(), 1);
        assert_eq!(get_f64(&other[0], "x"), Some(1.0));
    }

    #[test]
    fn renders_a_wellformed_svg_with_every_series() {
        let chart = Chart {
            title: "scaling".into(),
            x_label: "threads".into(),
            y_label: "balls/sec".into(),
            log2_x: true,
            series: vec![
                Series {
                    label: "striped".into(),
                    points: vec![(1.0, 3.9e6), (2.0, 3.1e6), (8.0, 2.3e6)],
                    color: "#d62728",
                },
                Series {
                    label: "shared_nothing".into(),
                    points: vec![(1.0, 5.4e6), (2.0, 5.2e6), (8.0, 5.1e6)],
                    color: "#1f77b4",
                },
            ],
        };
        let svg = chart.render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("striped"));
        assert!(svg.contains("shared_nothing"));
        // Every plotted coordinate stays inside the viewBox.
        for cap in svg.split("cx=\"").skip(1) {
            let x: f64 = cap.split('"').next().unwrap().parse().unwrap();
            assert!((0.0..=720.0).contains(&x), "x={x} out of frame");
        }
    }
}
