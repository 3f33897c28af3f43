//! Simulated time.
//!
//! Time is an integer count of nanoseconds since simulation start. Integer
//! time makes event ordering exact (no float comparison hazards in the heap)
//! while one-nanosecond resolution is six orders of magnitude below anything
//! the latency model produces.

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from (possibly fractional) milliseconds. Negative values
    /// are clamped to zero: delays in the simulator are never negative, and
    /// clamping keeps a misconfigured jitter model from panicking mid-run.
    #[must_use]
    pub fn from_ms(ms: f64) -> Self {
        if ms <= 0.0 {
            return SimTime(0);
        }
        // Round half away from zero without the libm `round` call — this
        // runs on every packet hop. Truncate through the integer cast,
        // then nudge up when the fractional part clears one half; the
        // cast saturates NaN/huge inputs exactly like `round() as u64`.
        let ns = ms * 1e6;
        let whole = ns as u64;
        SimTime(whole.saturating_add(u64::from(ns - whole as f64 >= 0.5)))
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds.
    #[must_use]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition of a delay.
    #[must_use]
    pub fn after(self, delay: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(delay.0))
    }

    /// Elapsed time since `earlier`, saturating at zero.
    #[must_use]
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        self.after(rhs)
    }
}

impl std::iter::Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ms(1.5).as_nanos(), 1_500_000);
        assert!((SimTime::from_ms(0.123456).as_ms() - 0.123456).abs() < 1e-9);
    }

    #[test]
    fn negative_ms_clamps_to_zero() {
        assert_eq!(SimTime::from_ms(-5.0), SimTime::ZERO);
        assert_eq!(SimTime::from_ms(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        let t = SimTime::from_nanos(u64::MAX - 1);
        assert_eq!(t.after(SimTime::from_ms(10_000.0)).as_nanos(), u64::MAX);
        assert_eq!(SimTime::ZERO.since(SimTime::from_ms(1000.0)), SimTime::ZERO);
    }

    #[test]
    fn since_measures_elapsed() {
        let a = SimTime::from_ms(10.0);
        let b = SimTime::from_ms(35.5);
        assert_eq!(b.since(a).as_ms(), 25.5);
    }

    #[test]
    fn ordering_is_total_and_sum_works() {
        let ts = [
            SimTime::from_ms(3.0),
            SimTime::from_ms(1.0),
            SimTime::from_ms(2.0),
        ];
        let total: SimTime = ts.iter().copied().sum();
        assert_eq!(total.as_ms(), 6.0);
        assert!(ts[1] < ts[2] && ts[2] < ts[0]);
    }

    #[test]
    fn display_formats_ms() {
        assert_eq!(SimTime::from_ms(12.3456).to_string(), "12.346ms");
    }
}
