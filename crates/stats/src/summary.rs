//! Point summaries: means, variances, quantiles and boxplot statistics.

use crate::{validate, StatsError};

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> Result<f64, StatsError> {
    validate(xs)?;
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample variance (n−1 denominator), via Welford's algorithm.
///
/// Welford is numerically stable for the long, similar-valued RTT series the
/// campaigns produce, where the naive sum-of-squares form loses precision.
pub fn variance(xs: &[f64]) -> Result<f64, StatsError> {
    validate(xs)?;
    if xs.len() < 2 {
        return Err(StatsError::TooFewSamples {
            required: 2,
            got: xs.len(),
        });
    }
    let mut mean = 0.0;
    let mut m2 = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let delta = x - mean;
        mean += delta / (i + 1) as f64;
        m2 += delta * (x - mean);
    }
    Ok(m2 / (xs.len() - 1) as f64)
}

/// Sample standard deviation.
pub(crate) fn stddev(xs: &[f64]) -> Result<f64, StatsError> {
    variance(xs).map(f64::sqrt)
}

/// Mean together with the half-width of its 95% confidence interval
/// (normal approximation, 1.96 · s/√n — the paper reports exactly this form,
/// e.g. "11.2 ± 2.16 Mbps").
pub fn mean_ci95(xs: &[f64]) -> Result<(f64, f64), StatsError> {
    let m = mean(xs)?;
    if xs.len() < 2 {
        return Ok((m, 0.0));
    }
    let s = stddev(xs)?;
    Ok((m, 1.96 * s / (xs.len() as f64).sqrt()))
}

/// Quantile with linear interpolation between closest ranks (type-7, the
/// numpy/R default). `q` must be in `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64, StatsError> {
    validate(xs)?;
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0,1], got {q}"
    );
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected by validate"));
    Ok(quantile_sorted(&sorted, q))
}

/// Quantile over an already-sorted slice (no allocation). Internal fast path
/// for callers that compute many quantiles of one sample.
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> Result<f64, StatsError> {
    quantile(xs, 0.5)
}

/// Five-number summary plus whiskers, i.e. exactly what each boxplot in the
/// paper's figures draws: Tukey whiskers at the last observation within
/// 1.5·IQR of the box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotSummary {
    /// Lower whisker: smallest observation ≥ Q1 − 1.5·IQR.
    pub whisker_lo: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker: largest observation ≤ Q3 + 1.5·IQR.
    pub whisker_hi: f64,
    /// Number of observations.
    pub n: usize,
}

impl BoxplotSummary {
    /// Compute the summary of a sample.
    pub fn from(xs: &[f64]) -> Result<Self, StatsError> {
        validate(xs)?;
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected"));
        let q1 = quantile_sorted(&sorted, 0.25);
        let med = quantile_sorted(&sorted, 0.5);
        let q3 = quantile_sorted(&sorted, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_lo = *sorted
            .iter()
            .find(|&&x| x >= lo_fence)
            .expect("non-empty and q1 >= lo_fence guarantees a match");
        let whisker_hi = *sorted
            .iter()
            .rev()
            .find(|&&x| x <= hi_fence)
            .expect("non-empty and q3 <= hi_fence guarantees a match");
        Ok(BoxplotSummary {
            whisker_lo,
            q1,
            median: med,
            q3,
            whisker_hi,
            n: sorted.len(),
        })
    }
}

impl std::fmt::Display for BoxplotSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:.1} |{:.1} {:.1} {:.1}| {:.1}] (n={})",
            self.whisker_lo, self.q1, self.median, self.q3, self.whisker_hi, self.n
        )
    }
}

/// Full descriptive summary of a sample, the row format used by the
/// experiment binaries when printing figure data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Maximum.
    pub max: f64,
    /// Number of observations.
    pub n: usize,
}

impl Summary {
    /// Compute the summary of a sample.
    pub fn from(xs: &[f64]) -> Result<Self, StatsError> {
        let mean = mean(xs)?;
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected"));
        Ok(Summary {
            mean,
            min: sorted[0],
            median: quantile_sorted(&sorted, 0.5),
            max: *sorted.last().expect("non-empty"),
            n: xs.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_known_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 2.5);
        assert_eq!(mean(&[]).unwrap_err(), StatsError::Empty);
        assert_eq!(mean(&[f64::NAN]).unwrap_err(), StatsError::NaN);
    }

    #[test]
    fn variance_matches_hand_computation() {
        // Sample {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, population var 4, sample var 32/7.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let v = variance(&xs).unwrap();
        assert!((v - 32.0 / 7.0).abs() < 1e-12, "got {v}");
    }

    #[test]
    fn variance_needs_two_samples() {
        assert_eq!(
            variance(&[1.0]).unwrap_err(),
            StatsError::TooFewSamples {
                required: 2,
                got: 1
            }
        );
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Same variance whether values are near 0 or offset by 1e9.
        let base = [1.0, 2.0, 3.0, 4.0, 5.0];
        let shifted: Vec<f64> = base.iter().map(|x| x + 1e9).collect();
        let v1 = variance(&base).unwrap();
        let v2 = variance(&shifted).unwrap();
        assert!((v1 - v2).abs() < 1e-4, "v1={v1} v2={v2}");
    }

    #[test]
    fn quantiles_interpolate_linearly() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert_eq!(quantile(&xs, 0.5).unwrap(), 2.5);
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
    }

    #[test]
    fn ci95_shrinks_with_sample_size() {
        let small: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let large: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        let (_, ci_small) = mean_ci95(&small).unwrap();
        let (_, ci_large) = mean_ci95(&large).unwrap();
        assert!(ci_large < ci_small);
    }

    #[test]
    fn boxplot_of_uniform_ramp() {
        let xs: Vec<f64> = (1..=101).map(|i| i as f64).collect();
        let b = BoxplotSummary::from(&xs).unwrap();
        assert_eq!(b.median, 51.0);
        assert_eq!(b.q1, 26.0);
        assert_eq!(b.q3, 76.0);
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 101.0);
    }

    #[test]
    fn boxplot_excludes_outliers_from_whiskers() {
        let mut xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        xs.push(10_000.0); // wild outlier
        let b = BoxplotSummary::from(&xs).unwrap();
        assert!(
            b.whisker_hi <= 200.0,
            "outlier must not stretch whisker: {b}"
        );
    }

    #[test]
    fn boxplot_of_constant_sample_is_degenerate() {
        let b = BoxplotSummary::from(&[4.0; 12]).unwrap();
        assert_eq!(b.whisker_lo, b.whisker_hi);
        assert_eq!(b.median, 4.0);
        assert_eq!(b.q3 - b.q1, 0.0);
    }

    #[test]
    fn summary_combines_everything() {
        let s = Summary::from(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn summary_of_single_observation() {
        let s = Summary::from(&[5.0]).unwrap();
        assert_eq!((s.mean, s.min, s.max), (5.0, 5.0, 5.0));
        assert_eq!(s.median, 5.0);
    }
}
