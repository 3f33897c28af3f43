//! Statistics toolkit for the `roamsim` analysis pipeline.
//!
//! The paper's evaluation rests on a small set of statistical tools, all of
//! which are implemented here from first principles (no external stats
//! crates):
//!
//! * **summaries** — medians, arbitrary quantiles, five-number boxplot
//!   summaries (every boxplot figure), means with 95% confidence intervals
//!   (§5.1 quotes e.g. "31.06 ms ± 0.78 ms");
//! * **empirical CDFs** — Figs. 8, 9, 12, 17;
//! * **hypothesis tests** — Welch's t-test ("the p-value was 7.65e-5") and
//!   Levene's test for homogeneity of variances ("p-value of 0.025"), §5.1;
//! * **special functions** — ln-gamma and the regularized incomplete beta
//!   function, which give exact t- and F-distribution tail probabilities;
//! * **streaming sketches** — mergeable fixed-bucket quantile sketches and
//!   deterministic bottom-k reservoirs for population-scale runs where
//!   buffering every record is off the table (`roam-fleet`).
//!
//! All functions take `&[f64]` and make a single defensive pass; NaNs are
//! rejected explicitly rather than silently poisoning order statistics.

pub mod cdf;
pub mod corr;
pub mod dist;
pub mod stream;
pub mod summary;
pub mod test;

pub use cdf::Ecdf;
pub use corr::{pearson, Correlation};
pub use stream::{KeyedReservoir, QuantileSketch};
pub use summary::{mean, mean_ci95, median, quantile, variance, BoxplotSummary, Summary};
pub use test::{levene_test, welch_t_test, TestResult};

/// Errors produced by the statistics routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input slice was empty where at least one value is required.
    Empty,
    /// The input contained a NaN, which has no place in order statistics.
    NaN,
    /// A test needed at least `required` samples/groups but got `got`.
    TooFewSamples { required: usize, got: usize },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "empty input"),
            StatsError::NaN => write!(f, "input contains NaN"),
            StatsError::TooFewSamples { required, got } => {
                write!(f, "need at least {required} samples, got {got}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Validate a sample: non-empty and NaN-free.
pub(crate) fn validate(xs: &[f64]) -> Result<(), StatsError> {
    if xs.is_empty() {
        return Err(StatsError::Empty);
    }
    if xs.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NaN);
    }
    Ok(())
}
