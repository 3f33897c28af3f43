//! Special functions and distribution tails.
//!
//! Exact p-values for Welch's t-test and Levene's test need the Student-t and
//! Fisher F distributions, both of which reduce to the regularized incomplete
//! beta function `I_x(a, b)`. We implement ln-gamma (Lanczos) and `I_x`
//! (continued fraction, Numerical-Recipes style) to double precision.

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
///
/// Accurate to ~15 significant digits for positive arguments, which covers
/// every degrees-of-freedom value the tests can produce.
#[must_use]
pub(crate) fn ln_gamma(x: f64) -> f64 {
    // Coefficients for g=7, n=9 from the standard Lanczos tables.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma needs a positive argument, got {x}");
    if x < 0.5 {
        // Reflection formula keeps precision near zero.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Continued-fraction evaluation (modified Lentz), with the symmetry
/// transform applied so the fraction always converges quickly.
#[must_use]
pub fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "shape parameters must be positive");
    assert!((0.0..=1.0).contains(&x), "x must be in [0,1], got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta function (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-15;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            return h;
        }
    }
    h // converged to working precision or close enough for p-value purposes
}

/// Two-sided p-value of a Student-t statistic with `df` degrees of freedom.
#[must_use]
pub fn t_test_p_two_sided(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    let x = df / (df + t * t);
    inc_beta(df / 2.0, 0.5, x).clamp(0.0, 1.0)
}

/// Upper-tail probability `P(F > f)` of a Fisher F distribution with
/// `(d1, d2)` degrees of freedom.
#[must_use]
pub fn f_sf(f: f64, d1: f64, d2: f64) -> f64 {
    assert!(d1 > 0.0 && d2 > 0.0, "degrees of freedom must be positive");
    if f <= 0.0 {
        return 1.0;
    }
    let x = d2 / (d2 + d1 * f);
    inc_beta(d2 / 2.0, d1 / 2.0, x).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_of_integers_matches_factorials() {
        // Γ(n) = (n-1)!
        let cases = [
            (1.0, 1.0_f64),
            (2.0, 1.0),
            (3.0, 2.0),
            (5.0, 24.0),
            (8.0, 5040.0),
        ];
        for (x, fact) in cases {
            assert!((ln_gamma(x) - fact.ln()).abs() < 1e-10, "Γ({x})");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π.
        let expected = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expected).abs() < 1e-12);
    }

    #[test]
    fn inc_beta_boundaries_and_symmetry() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        let v = inc_beta(2.5, 1.5, 0.3);
        let w = 1.0 - inc_beta(1.5, 2.5, 0.7);
        assert!((v - w).abs() < 1e-12);
    }

    #[test]
    fn inc_beta_uniform_case() {
        // I_x(1,1) = x.
        for x in [0.1, 0.25, 0.5, 0.9] {
            assert!((inc_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn t_distribution_known_values() {
        // With df=10: P(|T| > 2.228) ≈ 0.05 (classic critical value).
        let p = t_test_p_two_sided(2.228, 10.0);
        assert!((p - 0.05).abs() < 2e-3, "got {p}");
        // t = 0 → p = 1.
        assert!((t_test_p_two_sided(0.0, 5.0) - 1.0).abs() < 1e-12);
        // Huge t → p ~ 0.
        assert!(t_test_p_two_sided(50.0, 20.0) < 1e-10);
    }

    #[test]
    fn f_distribution_known_values() {
        // F(1, 10) upper 5% critical value ≈ 4.965.
        let p = f_sf(4.965, 1.0, 10.0);
        assert!((p - 0.05).abs() < 2e-3, "got {p}");
        // F ≤ 0 → survival = 1.
        assert_eq!(f_sf(0.0, 3.0, 7.0), 1.0);
    }

    #[test]
    fn f_and_t_agree_when_d1_is_one() {
        // T² with df d2 is F(1, d2): two-sided t p-value equals F survival.
        let t: f64 = 1.7;
        let df = 12.0;
        let p_t = t_test_p_two_sided(t, df);
        let p_f = f_sf(t * t, 1.0, df);
        assert!((p_t - p_f).abs() < 1e-10, "p_t={p_t} p_f={p_f}");
    }
}
