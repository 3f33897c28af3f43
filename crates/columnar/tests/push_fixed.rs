//! `push_fixed` must append exactly what `write!("{:.*}")` appends, for
//! every value and every precision the CSV schemas use (0–4). The
//! values that matter most sit on either side of a rounding tie: a
//! decimal `k / 10^p` or a half-way point `(k + 0.5) / 10^p`, and the
//! floats a few ulps around them.

use proptest::prelude::*;
use roam_columnar::csv::push_fixed;

/// Assert that `push_fixed` appends std's bytes for `v` at `prec`.
fn check(v: f64, prec: usize) {
    let mut fast = String::from("x,");
    push_fixed(&mut fast, v, prec);
    let want = format!("x,{v:.prec$}");
    assert_eq!(
        fast,
        want,
        "{v:e} ({:#018x}) at precision {prec}",
        v.to_bits()
    );
}

/// `v` moved by `d` ulps (through the bit pattern; `v` positive).
fn nudge(v: f64, d: i64) -> f64 {
    f64::from_bits(v.to_bits().wrapping_add_signed(d))
}

/// The float nearest `k / 10^p` (or `(k + 0.5) / 10^p`), and its
/// neighbours up to four ulps away on each side.
fn check_around(k: u64, half: bool, prec: usize) {
    let scale = 10f64.powi(i32::try_from(prec).expect("small precision"));
    let v = (k as f64 + if half { 0.5 } else { 0.0 }) / scale;
    for d in -4..=4 {
        let w = nudge(v, d);
        check(w, prec);
        check(-w, prec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn any_bit_pattern_matches_std(bits in any::<u64>(), prec in 0usize..=4) {
        check(f64::from_bits(bits), prec);
    }

    /// Mantissa and exponent drawn apart, so the values cover `[2^-30, 2^41)`
    /// (the fast path's range and past it) instead of the far exponents
    /// that random bit patterns mostly hit.
    #[test]
    fn in_range_values_match_std(mant in 0u64..(1 << 52), exp in 993u64..1064,
                                 prec in 0usize..=4) {
        check(f64::from_bits(exp << 52 | mant), prec);
    }

    #[test]
    fn decimals_and_half_way_points_match_std(k in 0u64..10_000_000_000_000_000,
                                              half in any::<bool>(), prec in 0usize..=4) {
        check_around(k, half, prec);
    }

    #[test]
    fn small_decimals_and_half_way_points_match_std(k in 0u64..1_000_000, half in any::<bool>(),
                                                    prec in 0usize..=4) {
        check_around(k, half, prec);
    }
}

#[test]
fn every_short_decimal_matches_std() {
    for prec in 0..=4 {
        for k in 0..10_000 {
            check_around(k, false, prec);
            check_around(k, true, prec);
        }
    }
}

#[test]
fn edge_values_match_std() {
    let two53 = 9_007_199_254_740_992.0_f64;
    let mut edges = vec![
        0.0,
        -0.0,
        -1.0,
        -0.0005,
        -1e-300,
        f64::from_bits(1),
        f64::MIN_POSITIVE,
        nudge(f64::MIN_POSITIVE, -1),
        0.5,
        1.5,
        2.5,
        0.0005,
        0.0015,
        0.00005,
        0.99995,
        9.9995,
        999_999_999_999.999_9,
        1e12,
        2e12,
        1e15,
        1e16,
        two53,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    for p in 0..=4 {
        edges.push(two53 / 10f64.powi(p));
        edges.push(two53 / 2.0 / 10f64.powi(p));
    }
    for v in edges {
        for d in -4..=4 {
            let w = if v.is_finite() && v != 0.0 {
                nudge(v, d)
            } else {
                v
            };
            for prec in 0..=4 {
                check(w, prec);
                check(-w, prec);
            }
        }
    }
}
