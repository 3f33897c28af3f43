//! Order statistics for the benchmark's reports: medians and quartiles
//! for run-to-run spread, and the tail percentile rule every timing
//! reports (the highest percentile with at least ten samples beyond it).

/// The sorted copy of `v` (NaN-free input; sorts by total order).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v`; 0 for an empty slice.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, by the same rule as
/// Python's `statistics.quantiles(v, n=4)` (the "exclusive" method).
/// Fewer than two samples repeat the single value.
#[must_use]
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |i: usize| {
        // Exclusive method: rescale i to the (n + 1) grid, clamp the
        // cut to 1..=n-1, interpolate (or extrapolate) from there.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Percentiles a tail metric may report, highest first.
pub const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail timing: which percentile was reportable, its value, and the
/// sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (one of [`TAIL_PERCENTILES`]).
    pub pct: f64,
    /// The sample at that percentile (nearest-rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of `v` that has at least ten samples beyond
/// it, by nearest rank: percentile `p` is the sample at rank
/// `ceil(p / 100 * n)` and the samples beyond it are the `n - rank`
/// above that rank. `None` when even the median has fewer than ten
/// samples beyond it (fewer than 20 samples).
#[must_use]
pub fn tail(v: &[f64]) -> Option<Tail> {
    let s = sorted(v);
    let n = s.len();
    TAIL_PERCENTILES.iter().find_map(|&pct| {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| Tail {
            pct,
            value: s[rank - 1],
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
