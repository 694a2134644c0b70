//! The result a run prints: named metrics with units, plus the
//! correctness tally (`attempted` operations, `failed` ones) that the
//! output checks feed.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (balls thrown, requests arrived, storage
    /// operations and jobs issued) plus output checks made.
    pub attempted: u64,
    /// Refused operations plus failed output checks.
    pub failed: u64,
    /// Failed output checks only (a refused operation is not a wrong
    /// output, a failed check is).
    pub failed_checks: u64,
    /// Every metric the run measured.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one output check. A failed check is reported on stderr
    /// and counted, never silently dropped.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Records `attempted` operations of which `refused` were refused.
    pub fn ops(&mut self, attempted: u64, refused: u64) {
        self.attempted += attempted;
        self.failed += refused;
        if refused > 0 {
            eprintln!("{refused} of {attempted} operations refused");
        }
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed_checks == 0
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// every metric with its value and unit.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (which only a broken measurement
/// produces) become `-1`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "-1".into()
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `q`-quantile of `values`, interpolating linearly between order
/// statistics; `0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; `0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The rate a run reports over its passes: the upper quartile of the
/// per-pass rates. On a shared host, another tenant on the same core
/// slows every pass for seconds at a time, by up to half; a pass is never
/// sped up. The upper quartile stays on the unslowed passes while up to
/// three quarters of a run is slowed, where the median flips at half.
/// A slower program moves every pass, so it moves this figure too.
pub fn steady_rate(rates: &[f64]) -> f64 {
    quantile(rates, 0.75)
}

/// [`steady_rate`] for per-pass durations: their lower quartile.
pub fn steady_time(times: &[f64]) -> f64 {
    quantile(times, 0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_result_keys_in_order() {
        let mut o = Outcome::default();
        o.ops(10, 0);
        o.check(true, "fine");
        o.metric("balls_per_s", 1.5e6, "balls/s");
        let line = o.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 11, \"failed\": 0,"));
        assert!(line.contains("\"balls_per_s\": {\"value\": 1500000.0, \"unit\": \"balls/s\"}"));
    }

    #[test]
    fn failed_check_marks_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(false, "broken");
        assert!(!o.correct());
        assert_eq!(o.failed, 1);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn steady_figures_ignore_a_slowed_minority() {
        let rates = [10.0, 10.0, 9.8, 5.0, 5.1, 10.1, 5.0];
        assert!(steady_rate(&rates) >= 9.8);
        let times: Vec<f64> = rates.iter().map(|r| 1.0 / r).collect();
        assert!(steady_time(&times) <= 1.0 / 9.8);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
