//! Configuration errors for process construction.

use std::error::Error;
use std::fmt;

/// Error returned when an allocation process is constructed with invalid
/// parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `k` must satisfy `1 ≤ k`.
    ZeroK,
    /// `d` must satisfy `k ≤ d`.
    KExceedsD {
        /// The offending `k`.
        k: usize,
        /// The offending `d`.
        d: usize,
    },
    /// A parameter that must be positive was zero.
    ZeroParameter(&'static str),
    /// A probability parameter was outside `[0, 1]`.
    BadProbability(&'static str),
    /// A parameter was above the largest value the configuration allows.
    ExceedsLimit {
        /// The offending parameter.
        name: &'static str,
        /// Its value.
        value: usize,
        /// The largest value allowed.
        limit: usize,
    },
    /// A parameter that must be a power of two was not.
    NotPowerOfTwo {
        /// The offending parameter.
        name: &'static str,
        /// Its value.
        value: usize,
    },
    /// A probe distribution was built for another bin count than the
    /// bins it is asked to sample.
    ProbeSupportMismatch {
        /// The bin count the distribution was built for.
        built_for: usize,
        /// The bin count of the configuration.
        bins: usize,
    },
    /// A real-valued parameter fell outside the range a run needs.
    OutOfRange {
        /// The offending parameter.
        name: &'static str,
        /// The range it must lie in.
        need: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroK => write!(f, "k must be at least 1"),
            ConfigError::KExceedsD { k, d } => {
                write!(f, "k must not exceed d (got k={k}, d={d})")
            }
            ConfigError::ZeroParameter(name) => write!(f, "{name} must be positive"),
            ConfigError::BadProbability(name) => {
                write!(f, "{name} must lie in [0, 1]")
            }
            ConfigError::ExceedsLimit { name, value, limit } => {
                write!(f, "{name} must not exceed {limit} (got {value})")
            }
            ConfigError::NotPowerOfTwo { name, value } => {
                write!(f, "{name} must be a power of two (got {value})")
            }
            ConfigError::ProbeSupportMismatch { built_for, bins } => write!(
                f,
                "probe distribution built for wrong bin count ({built_for}, not {bins})"
            ),
            ConfigError::OutOfRange { name, need } => write!(f, "{name} out of range: need {need}"),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        assert_eq!(ConfigError::ZeroK.to_string(), "k must be at least 1");
        let e = ConfigError::KExceedsD { k: 5, d: 3 };
        assert!(e.to_string().contains("k=5"));
        assert!(e.to_string().contains("d=3"));
        assert!(ConfigError::ZeroParameter("beta")
            .to_string()
            .contains("beta"));
        assert!(ConfigError::BadProbability("beta")
            .to_string()
            .contains("[0, 1]"));
        let e = ConfigError::ExceedsLimit {
            name: "threads",
            value: 9,
            limit: 8,
        };
        assert_eq!(e.to_string(), "threads must not exceed 8 (got 9)");
        let e = ConfigError::NotPowerOfTwo {
            name: "shards",
            value: 3,
        };
        assert_eq!(e.to_string(), "shards must be a power of two (got 3)");
        let e = ConfigError::ProbeSupportMismatch {
            built_for: 65,
            bins: 64,
        };
        assert!(e.to_string().contains("wrong bin count (65, not 64)"));
        let e = ConfigError::OutOfRange {
            name: "utilization",
            need: "< 1",
        };
        assert_eq!(e.to_string(), "utilization out of range: need < 1");
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ConfigError>();
    }
}
