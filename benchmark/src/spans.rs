//! Spans recorded from outside the library: the benchmark wraps each
//! call into a layer with a clock pair, so a layer's cost is measured
//! without touching the program under test.
//!
//! A [`Row`] keeps the per-call durations of one layer call (thinned to
//! a bounded sample once it grows large) and, separately, a batch-timed
//! mean: the same call repeated back to back under one clock pair. The
//! gap between the per-call median and the batch mean shows what the
//! per-call clock reads cost.

use std::time::Instant;

use crate::report::Outcome;

/// Per-call samples kept before the row thins itself to every other one.
const SAMPLE_CAP: usize = 1 << 18;

/// One layer call's span record.
#[derive(Debug, Clone)]
pub struct Row {
    on: bool,
    /// Nanoseconds per unit of each kept call.
    samples: Vec<f32>,
    /// Keep one call in `stride` (doubles every time the cap is hit).
    stride: u64,
    calls: u64,
    batch_ns: f64,
    batch_units: u64,
}

impl Row {
    /// A row that records spans when `on`; with spans off, [`Row::time`]
    /// runs the call with no clock reads at all.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            samples: Vec::new(),
            stride: 1,
            calls: 0,
            batch_ns: 0.0,
            batch_units: 0,
        }
    }

    /// Runs `f`, one call that does `units` units of work (balls, draws,
    /// messages), and records its duration per unit.
    #[inline]
    pub fn time<T>(&mut self, units: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        if units > 0 {
            self.record(ns / units as f64);
        }
        out
    }

    /// Like [`Row::time`] for a call that reports its own unit count
    /// (a drain returns the messages it applied); calls that did no
    /// work are not sampled.
    #[inline]
    pub fn time_counted(&mut self, f: impl FnOnce() -> u64) -> u64 {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let units = f();
        let ns = start.elapsed().as_nanos() as f64;
        if units > 0 {
            self.record(ns / units as f64);
        }
        units
    }

    /// Records one call timed by the caller: `ns` for `units` units.
    pub fn add(&mut self, ns: f64, units: u64) {
        if self.on && units > 0 {
            self.record(ns / units as f64);
        }
    }

    fn record(&mut self, ns_per_unit: f64) {
        self.calls += 1;
        if !self.calls.is_multiple_of(self.stride) {
            return;
        }
        self.samples.push(ns_per_unit as f32);
        if self.samples.len() >= SAMPLE_CAP {
            let mut keep = false;
            self.samples.retain(|_| {
                keep = !keep;
                keep
            });
            self.stride *= 2;
        }
    }

    /// Runs `f`, a block of back-to-back calls doing `units` units of
    /// work in total, under one clock pair.
    pub fn batch<T>(&mut self, units: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.batch_ns += start.elapsed().as_nanos() as f64;
        self.batch_units += units;
        out
    }

    /// Like [`Row::batch`] for a block that reports its own unit count.
    pub fn batch_counted(&mut self, f: impl FnOnce() -> u64) -> u64 {
        let start = Instant::now();
        let units = f();
        self.batch_ns += start.elapsed().as_nanos() as f64;
        self.batch_units += units;
        units
    }

    /// Folds another row of the same call (another thread's) into this one.
    pub fn merge(&mut self, other: &Row) {
        self.calls += other.calls;
        self.samples.extend_from_slice(&other.samples);
        self.batch_ns += other.batch_ns;
        self.batch_units += other.batch_units;
    }

    /// Timed calls so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// The batch-timed mean in nanoseconds per unit (`0` before any batch).
    pub fn batch_mean(&self) -> f64 {
        if self.batch_units == 0 {
            0.0
        } else {
            self.batch_ns / self.batch_units as f64
        }
    }

    /// The `q`-quantile of the per-call samples in nanoseconds per unit.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut v = self.samples.clone();
        let idx = ((v.len() - 1) as f64 * q).round() as usize;
        let (_, x, _) = v.select_nth_unstable_by(idx, f32::total_cmp);
        f64::from(*x)
    }

    /// Emits `name` (per-call median), `name.p99`, `name.samples` and
    /// `name.batch_mean`, each divided by `scale` (1 for ns, 1000 for µs).
    pub fn emit(&self, out: &mut Outcome, name: &str, unit: &'static str, scale: f64) {
        out.metric(name, self.quantile(0.5) / scale, unit);
        out.metric(format!("{name}.p99"), self.quantile(0.99) / scale, unit);
        out.metric(format!("{name}.samples"), self.calls as f64, "count");
        out.metric(
            format!("{name}.batch_mean"),
            self.batch_mean() / scale,
            unit,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_rows_record_nothing() {
        let mut row = Row::new(false);
        assert_eq!(row.time(1, || 7), 7);
        assert_eq!(row.calls(), 0);
        assert_eq!(row.quantile(0.5), 0.0);
    }

    #[test]
    fn thinning_keeps_the_sample_bounded_and_counts_every_call() {
        let mut row = Row::new(true);
        for i in 0..(3 * SAMPLE_CAP as u64) {
            row.record((i % 100) as f64);
        }
        assert_eq!(row.calls(), 3 * SAMPLE_CAP as u64);
        assert!(row.samples.len() < SAMPLE_CAP);
        let median = row.quantile(0.5);
        assert!((40.0..=60.0).contains(&median), "median {median}");
        assert!(row.quantile(0.99) >= 95.0);
    }

    #[test]
    fn batch_mean_is_per_unit_and_merges() {
        let mut a = Row::new(true);
        a.batch(4, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let mut b = Row::new(true);
        b.batch(4, || ());
        a.merge(&b);
        assert!(a.batch_mean() >= 2e6 / 8.0);
    }
}
