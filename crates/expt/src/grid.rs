//! Parameter grids: `k=2,3 n=1024,4096` → the cartesian product of
//! per-axis value lists, each assignment handed to a scenario as a
//! [`Params`] map.

use std::fmt;

/// An axis a scenario accepts in its grid, for validation and `--help`.
#[derive(Debug, Clone, Copy)]
pub struct Axis {
    /// The grid key, e.g. `"k"`.
    pub name: &'static str,
    /// One-line description shown by `bench list`.
    pub help: &'static str,
}

impl Axis {
    /// A new axis spec.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self { name, help }
    }
}

/// Errors from grid parsing or scenario configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// A token was not of the form `key=v1,v2,...`.
    Malformed(String),
    /// The same axis appeared twice.
    DuplicateAxis(String),
    /// The scenario does not accept this axis.
    UnknownAxis {
        /// The offending key.
        axis: String,
        /// The scenario that rejected it.
        scenario: &'static str,
    },
    /// A value failed to parse or violated a scenario constraint.
    BadValue {
        /// The axis the value came from.
        axis: String,
        /// The offending value.
        value: String,
        /// What the scenario expected.
        expected: String,
    },
    /// An unknown scenario name was requested.
    UnknownScenario(String),
    /// The cartesian product is too large to materialize.
    TooLarge {
        /// Number of assignments the grid expands to (saturating).
        cells: usize,
        /// The largest sweep the expansion layer accepts.
        cap: usize,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Malformed(tok) => {
                write!(f, "malformed grid token `{tok}` (expected key=v1,v2,...)")
            }
            GridError::DuplicateAxis(axis) => write!(f, "axis `{axis}` given twice"),
            GridError::UnknownAxis { axis, scenario } => {
                write!(f, "scenario `{scenario}` has no axis `{axis}`")
            }
            GridError::BadValue {
                axis,
                value,
                expected,
            } => write!(
                f,
                "bad value `{value}` for axis `{axis}`: expected {expected}"
            ),
            GridError::UnknownScenario(name) => write!(f, "unknown scenario `{name}`"),
            GridError::TooLarge { cells, cap } => write!(
                f,
                "grid expands to {cells} assignments, more than the {cap} the sweep layer accepts"
            ),
        }
    }
}

impl std::error::Error for GridError {}

/// An ordered list of axes, each with one or more values; the sweep runs
/// the cartesian product (later axes vary fastest).
///
/// ```
/// use kdchoice_expt::GridSpec;
///
/// let grid = GridSpec::parse(&["k=2,3", "n=64"]).unwrap();
/// let cells = grid.assignments();
/// assert_eq!(cells.len(), 2);
/// assert_eq!(cells[0].get_raw("k"), Some("2"));
/// assert_eq!(cells[1].get_raw("k"), Some("3"));
/// assert_eq!(cells[1].get_raw("n"), Some("64"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GridSpec {
    axes: Vec<(String, Vec<String>)>,
}

impl GridSpec {
    /// An empty grid (a single assignment with no keys).
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses `key=v1,v2,...` tokens.
    pub fn parse<S: AsRef<str>>(tokens: &[S]) -> Result<Self, GridError> {
        let mut grid = Self::new();
        for tok in tokens {
            let tok = tok.as_ref();
            let (key, values) = tok
                .split_once('=')
                .ok_or_else(|| GridError::Malformed(tok.to_string()))?;
            let key = key.trim();
            let values: Vec<String> = values
                .split(',')
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .collect();
            if key.is_empty() || values.is_empty() {
                return Err(GridError::Malformed(tok.to_string()));
            }
            grid.push_axis(key, values)?;
        }
        Ok(grid)
    }

    /// Parses a whitespace-separated grid string, e.g. `"k=2,3 n=64"`.
    pub fn parse_str(spec: &str) -> Result<Self, GridError> {
        let tokens: Vec<&str> = spec.split_whitespace().collect();
        Self::parse(&tokens)
    }

    fn push_axis(&mut self, key: &str, values: Vec<String>) -> Result<(), GridError> {
        if self.axes.iter().any(|(k, _)| k == key) {
            return Err(GridError::DuplicateAxis(key.to_string()));
        }
        self.axes.push((key.to_string(), values));
        Ok(())
    }

    /// Adds an axis if it is not already present (used for defaults such
    /// as the CLI-level seed).
    pub fn set_default(&mut self, key: &str, value: String) {
        if !self.axes.iter().any(|(k, _)| k == key) {
            self.axes.push((key.to_string(), vec![value]));
        }
    }

    /// The axis names present in the grid.
    pub fn axis_names(&self) -> impl Iterator<Item = &str> {
        self.axes.iter().map(|(k, _)| k.as_str())
    }

    /// Number of assignments in the cartesian product. Saturates at
    /// `usize::MAX` instead of overflowing on absurd user grids — the
    /// caller sees an impossibly large (but well-defined) sweep size
    /// rather than a wrapped-around small one or a debug-build panic.
    pub fn len(&self) -> usize {
        self.axes
            .iter()
            .map(|(_, vs)| vs.len())
            .fold(1usize, usize::saturating_mul)
    }

    /// Whether the grid has no axes.
    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// The cartesian product, in row-major order (later axes fastest).
    pub fn assignments(&self) -> Vec<Params> {
        let total = self.len();
        let mut out = Vec::with_capacity(total);
        for mut idx in 0..total {
            let mut pairs = Vec::with_capacity(self.axes.len());
            // Later axes vary fastest: walk axes from the back.
            let mut rev: Vec<(String, String)> = Vec::with_capacity(self.axes.len());
            for (key, values) in self.axes.iter().rev() {
                let v = &values[idx % values.len()];
                idx /= values.len();
                rev.push((key.clone(), v.clone()));
            }
            pairs.extend(rev.into_iter().rev());
            out.push(Params { pairs });
        }
        out
    }
}

/// One concrete assignment of grid axes to values, with typed getters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Params {
    pairs: Vec<(String, String)>,
}

impl Params {
    /// Builds a params map directly from `(key, value)` pairs (tests).
    pub fn from_pairs<K: Into<String>, V: Into<String>>(pairs: Vec<(K, V)>) -> Self {
        Self {
            pairs: pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        }
    }

    /// The raw string value of an axis, if present.
    pub fn get_raw(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn parse_with<T, F>(&self, key: &str, default: T, expected: &str, f: F) -> Result<T, GridError>
    where
        F: FnOnce(&str) -> Option<T>,
    {
        match self.get_raw(key) {
            None => Ok(default),
            Some(raw) => f(raw).ok_or_else(|| GridError::BadValue {
                axis: key.to_string(),
                value: raw.to_string(),
                expected: expected.to_string(),
            }),
        }
    }

    /// The axis as `usize`, or `default` when absent. Accepts `2^20`-style
    /// powers of two alongside plain integers.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, GridError> {
        self.parse_with(key, default, "a non-negative integer (or 2^k)", |raw| {
            parse_u64(raw).and_then(|v| usize::try_from(v).ok())
        })
    }

    /// The axis as `u64`, or `default` when absent.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, GridError> {
        self.parse_with(key, default, "a non-negative integer (or 2^k)", parse_u64)
    }

    /// The axis as `f64`, or `default` when absent.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, GridError> {
        self.parse_with(key, default, "a number", |raw| raw.parse::<f64>().ok())
    }

    /// The axis as `u32`, or `default` when absent.
    pub fn get_u32(&self, key: &str, default: u32) -> Result<u32, GridError> {
        self.parse_with(key, default, "a non-negative integer", |raw| {
            parse_u64(raw).and_then(|v| u32::try_from(v).ok())
        })
    }

    /// A `BadValue` error for `key` (scenario-level semantic rejects).
    pub fn bad_value(&self, key: &str, expected: &str) -> GridError {
        GridError::BadValue {
            axis: key.to_string(),
            value: self.get_raw(key).unwrap_or("<absent>").to_string(),
            expected: expected.to_string(),
        }
    }
}

/// Parses a u64, allowing `2^k` shorthand for powers of two.
fn parse_u64(raw: &str) -> Option<u64> {
    if let Some((base, exp)) = raw.split_once('^') {
        let base: u64 = base.parse().ok()?;
        let exp: u32 = exp.parse().ok()?;
        base.checked_pow(exp)
    } else {
        raw.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary_text::grammar_text;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// `parse_str` returns on any input, and so do the typed getters
        /// on every assignment of a grid it accepts.
        #[test]
        fn parse_str_survives_arbitrary_input(spec in grammar_text(&[
            "k", "n", "=", "==", ",", ",,", " ", "\t", "\n", "^", "2", "0", "-1",
            "1.5", "1e3", "nan", "2^64", "18446744073709551616", "k=2,3", "n=2^20",
        ])) {
            if let Ok(grid) = GridSpec::parse_str(&spec) {
                if grid.len() <= 256 {
                    for params in grid.assignments() {
                        for axis in grid.axis_names() {
                            let _ = params.get_usize(axis, 0);
                            let _ = params.get_u64(axis, 0);
                            let _ = params.get_u32(axis, 0);
                            let _ = params.get_f64(axis, 0.0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parse_and_product_order() {
        let g = GridSpec::parse(&["a=1,2", "b=x,y,z"]).unwrap();
        assert_eq!(g.len(), 6);
        let cells = g.assignments();
        // Later axis (b) varies fastest.
        let pairs: Vec<(String, String)> = cells
            .iter()
            .map(|p| {
                (
                    p.get_raw("a").unwrap().to_string(),
                    p.get_raw("b").unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(
            pairs,
            vec![
                ("1".into(), "x".into()),
                ("1".into(), "y".into()),
                ("1".into(), "z".into()),
                ("2".into(), "x".into()),
                ("2".into(), "y".into()),
                ("2".into(), "z".into()),
            ]
        );
    }

    #[test]
    fn empty_grid_has_one_assignment() {
        let g = GridSpec::new();
        assert_eq!(g.len(), 1);
        assert_eq!(g.assignments().len(), 1);
    }

    #[test]
    fn malformed_tokens_rejected() {
        assert!(matches!(
            GridSpec::parse(&["k"]),
            Err(GridError::Malformed(_))
        ));
        assert!(matches!(
            GridSpec::parse(&["=2"]),
            Err(GridError::Malformed(_))
        ));
        assert!(matches!(
            GridSpec::parse(&["k="]),
            Err(GridError::Malformed(_))
        ));
        assert!(matches!(
            GridSpec::parse(&["k=1", "k=2"]),
            Err(GridError::DuplicateAxis(_))
        ));
    }

    #[test]
    fn typed_getters_and_defaults() {
        let p = Params::from_pairs(vec![("n", "2^10"), ("rho", "0.85"), ("k", "4")]);
        assert_eq!(p.get_usize("n", 0).unwrap(), 1024);
        assert_eq!(p.get_u64("seed", 7).unwrap(), 7);
        assert!((p.get_f64("rho", 0.0).unwrap() - 0.85).abs() < 1e-12);
        assert_eq!(p.get_u32("k", 0).unwrap(), 4);
        let err = p.get_usize("rho", 0).unwrap_err();
        assert!(matches!(err, GridError::BadValue { .. }));
        assert!(err.to_string().contains("rho"));
    }

    #[test]
    fn set_default_does_not_override() {
        let mut g = GridSpec::parse(&["seed=5"]).unwrap();
        g.set_default("seed", "9".to_string());
        g.set_default("extra", "1".to_string());
        let cells = g.assignments();
        assert_eq!(cells[0].get_raw("seed"), Some("5"));
        assert_eq!(cells[0].get_raw("extra"), Some("1"));
    }

    #[test]
    fn len_saturates_instead_of_overflowing() {
        // 8 axes x 2^16 values each = 2^128 assignments: len() must pin
        // to usize::MAX, not wrap to something small (or panic in debug).
        let values: Vec<String> = (0..1 << 16).map(|v| v.to_string()).collect();
        let mut g = GridSpec::new();
        for axis in ["a", "b", "c", "d", "e", "f", "g", "h"] {
            g.push_axis(axis, values.clone()).unwrap();
        }
        assert_eq!(g.len(), usize::MAX);
    }

    #[test]
    fn power_shorthand() {
        assert_eq!(parse_u64("2^20"), Some(1 << 20));
        assert_eq!(parse_u64("10"), Some(10));
        assert_eq!(parse_u64("2^99"), None); // overflow guarded
        assert_eq!(parse_u64("x^2"), None);
    }

    #[test]
    fn errors_display() {
        let e = GridError::UnknownAxis {
            axis: "q".into(),
            scenario: "static",
        };
        assert!(e.to_string().contains("static"));
        assert!(GridError::UnknownScenario("zap".into())
            .to_string()
            .contains("zap"));
    }
}
