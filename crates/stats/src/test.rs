//! Hypothesis tests used by the paper's performance analysis (§5.1).

use crate::dist::{f_sf, t_test_p_two_sided};
use crate::summary::{mean, variance};
use crate::{validate, StatsError};

/// Outcome of a hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic (t for Welch, W ~ F for Levene).
    pub statistic: f64,
    /// Two-sided p-value (Welch) or upper-tail p-value (Levene).
    pub p_value: f64,
}

impl TestResult {
    /// Conventional α = 0.05 significance check, the threshold the paper
    /// uses throughout ("p > 0.05", "p < 0.05").
    #[must_use]
    pub fn significant(&self) -> bool {
        self.p_value < 0.05
    }
}

/// Welch's unequal-variances t-test (two-sided).
///
/// Used in §5.1 to compare RTTs between physical SIMs and eSIMs: "the
/// p-value was 7.65e-5, indicating that physical SIMs perform significantly
/// better than eSIMs" (roaming countries) and "0.152 … no significant
/// difference" (native-eSIM countries).
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Result<TestResult, StatsError> {
    validate(a)?;
    validate(b)?;
    if a.len() < 2 || b.len() < 2 {
        return Err(StatsError::TooFewSamples {
            required: 2,
            got: a.len().min(b.len()),
        });
    }
    let (ma, mb) = (mean(a)?, mean(b)?);
    let (va, vb) = (variance(a)?, variance(b)?);
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = va / na + vb / nb;
    if se2 == 0.0 {
        // Identical constant samples: no evidence of difference.
        let same = ma == mb;
        return Ok(TestResult {
            statistic: if same { 0.0 } else { f64::INFINITY },
            p_value: if same { 1.0 } else { 0.0 },
        });
    }
    let t = (ma - mb) / se2.sqrt();
    // Welch–Satterthwaite degrees of freedom.
    let df = se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0));
    Ok(TestResult {
        statistic: t,
        p_value: t_test_p_two_sided(t, df),
    })
}

/// Which center Levene's test deviates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeveneCenter {
    /// Classic Levene (deviations from the group mean).
    Mean,
    /// Brown–Forsythe variant (deviations from the group median) — more
    /// robust for the skewed RTT distributions the campaigns produce.
    Median,
}

/// Levene's test for homogeneity of variances across `k ≥ 2` groups.
///
/// The paper: "We confirmed this through Levene's test … The resulting
/// p-value of 0.025 confirms greater variability in RTTs for eSIMs compared
/// to physical SIMs."
pub fn levene_test(groups: &[&[f64]], center: LeveneCenter) -> Result<TestResult, StatsError> {
    if groups.len() < 2 {
        return Err(StatsError::TooFewSamples {
            required: 2,
            got: groups.len(),
        });
    }
    for g in groups {
        validate(g)?;
        if g.len() < 2 {
            return Err(StatsError::TooFewSamples {
                required: 2,
                got: g.len(),
            });
        }
    }
    let k = groups.len() as f64;
    let n_total: usize = groups.iter().map(|g| g.len()).sum();
    let n = n_total as f64;

    // z_ij = |x_ij - center_i|
    let z: Vec<Vec<f64>> = groups
        .iter()
        .map(|g| {
            let c = match center {
                LeveneCenter::Mean => mean(g).expect("validated"),
                LeveneCenter::Median => crate::summary::median(g).expect("validated"),
            };
            g.iter().map(|x| (x - c).abs()).collect()
        })
        .collect();

    let z_bar_i: Vec<f64> = z.iter().map(|zi| mean(zi).expect("non-empty")).collect();
    let z_bar = z.iter().flatten().sum::<f64>() / n;

    let numer: f64 = z
        .iter()
        .zip(&z_bar_i)
        .map(|(zi, zbi)| zi.len() as f64 * (zbi - z_bar).powi(2))
        .sum::<f64>()
        * (n - k);
    let denom: f64 = z
        .iter()
        .zip(&z_bar_i)
        .map(|(zi, zbi)| zi.iter().map(|zij| (zij - zbi).powi(2)).sum::<f64>())
        .sum::<f64>()
        * (k - 1.0);

    let (d1, d2) = (k - 1.0, n - k);
    if denom == 0.0 {
        // All within-group deviations identical: variances are exactly
        // homogeneous unless the group means of |deviations| differ.
        let w = if numer == 0.0 { 0.0 } else { f64::INFINITY };
        return Ok(TestResult {
            statistic: w,
            p_value: if numer == 0.0 { 1.0 } else { 0.0 },
        });
    }
    let w = numer / denom;
    Ok(TestResult {
        statistic: w,
        p_value: f_sf(w, d1, d2),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welch_identical_samples_not_significant() {
        let a = [5.0, 6.0, 7.0, 5.5, 6.5];
        let r = welch_t_test(&a, &a).unwrap();
        assert_eq!(r.statistic, 0.0);
        assert!((r.p_value - 1.0).abs() < 1e-12);
        assert!(!r.significant());
    }

    #[test]
    fn welch_clearly_separated_samples_significant() {
        let a = [1.0, 1.1, 0.9, 1.05, 0.95, 1.02];
        let b = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.significant());
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
        assert!(r.statistic < 0.0, "a < b so t must be negative");
    }

    #[test]
    fn welch_against_reference_implementation() {
        // Hand-computed: a=[1..5] has mean 3, s²=2.5; b=[2,3,4,5,7] has mean
        // 4.2, s²=3.7. t = -1.2/√1.24 = -1.07763; Welch–Satterthwaite
        // df = 1.24²/((0.5²+0.74²)/4) ≈ 7.711.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [2.0, 3.0, 4.0, 5.0, 7.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(
            (r.statistic - (-1.07763)).abs() < 1e-4,
            "t = {}",
            r.statistic
        );
        // The p-value is read off the t distribution at that df.
        let at_df = t_test_p_two_sided(r.statistic, 7.711);
        assert!((r.p_value - at_df).abs() < 1e-5, "p = {}", r.p_value);
        assert!((0.30..0.33).contains(&r.p_value), "p = {}", r.p_value);
    }

    #[test]
    fn welch_constant_equal_samples() {
        let r = welch_t_test(&[3.0, 3.0, 3.0], &[3.0, 3.0]).unwrap();
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn welch_constant_different_samples() {
        let r = welch_t_test(&[3.0, 3.0, 3.0], &[4.0, 4.0]).unwrap();
        assert_eq!(r.p_value, 0.0);
        assert!(r.significant());
    }

    #[test]
    fn levene_equal_variance_groups() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [11.0, 12.0, 13.0, 14.0, 15.0, 16.0]; // shifted, same spread
        let r = levene_test(&[&a, &b], LeveneCenter::Median).unwrap();
        assert!(!r.significant(), "equal spreads: p = {}", r.p_value);
    }

    #[test]
    fn levene_detects_heteroscedasticity() {
        let tight: Vec<f64> = (0..40).map(|i| 100.0 + 0.1 * (i % 5) as f64).collect();
        let wide: Vec<f64> = (0..40).map(|i| 100.0 + 15.0 * (i % 7) as f64).collect();
        let r = levene_test(&[&tight, &wide], LeveneCenter::Median).unwrap();
        assert!(r.significant(), "p = {}", r.p_value);
        assert!(r.statistic > 10.0);
    }

    #[test]
    fn levene_reference_value() {
        // Hand-computed Brown–Forsythe: a=[1..8] → z̄_a = 2, Σ(z−z̄_a)² = 10;
        // b=[1,1,2,2,3,3,4,4] → z̄_b = 1, Σ(z−z̄_b)² = 2.
        // W = (N−k)·Σnᵢ(z̄ᵢ−z̄)² / ((k−1)·ΣΣ(z−z̄ᵢ)²) = 14·4 / 12 = 4.6667;
        // p = P(F(1,14) > 4.6667) ≈ 0.0486 (just under the 4.60 critical
        // value at α = 0.05).
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let b = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0];
        let r = levene_test(&[&a, &b], LeveneCenter::Median).unwrap();
        assert!(
            (r.statistic - 56.0 / 12.0).abs() < 1e-9,
            "W = {}",
            r.statistic
        );
        assert!((0.045..0.052).contains(&r.p_value), "p = {}", r.p_value);
        assert_eq!(r.p_value, f_sf(r.statistic, 1.0, 14.0), "df = (1, 14)");
    }

    #[test]
    fn levene_needs_two_groups_of_two() {
        assert!(levene_test(&[&[1.0, 2.0]], LeveneCenter::Mean).is_err());
        assert!(levene_test(&[&[1.0, 2.0], &[1.0]], LeveneCenter::Mean).is_err());
    }

    #[test]
    fn levene_constant_groups() {
        let r = levene_test(&[&[2.0, 2.0, 2.0], &[5.0, 5.0, 5.0]], LeveneCenter::Mean).unwrap();
        assert_eq!(r.p_value, 1.0, "two zero-variance groups are homogeneous");
    }
}
