//! Cohort lifecycle: named user groups with TTL expiry and churn.
//!
//! A cohort owns a window into its own disjoint uid namespace
//! (`index << 40`), so no two cohorts — and no two *generations* of the
//! same cohort — ever share a user stream with another. Churn moves the
//! window: departures advance the low edge (`retired`), arrivals advance
//! the high edge (`grown`). Because fleet user streams are keyed by uid
//! alone, shifting the window changes *which* deterministic users tick,
//! never what any individual user does — that is the whole trick that
//! makes a churning, long-running service byte-stable.

use rand::rngs::SmallRng;
use rand::Rng;

/// Spacing between cohort uid namespaces. A cohort would need to admit
/// a trillion users to collide with its neighbour.
pub const COHORT_STRIDE: u64 = 1 << 40;

/// One cohort's live state: a uid window plus its tick odometer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cohort {
    /// Cohort index; fixes the uid namespace base.
    pub index: usize,
    /// Users departed so far — the window's low edge offset.
    pub retired: u64,
    /// Users ever admitted — the window's high edge offset.
    pub grown: u64,
    /// Ticks completed.
    pub ticks: u64,
    /// Whether the TTL has retired the whole cohort.
    pub expired: bool,
}

impl Cohort {
    /// A fresh cohort of `initial` users.
    #[must_use]
    pub fn new(index: usize, initial: u64) -> Self {
        Cohort {
            index,
            retired: 0,
            grown: initial,
            ticks: 0,
            expired: false,
        }
    }

    /// First uid of this cohort's namespace.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.index as u64 * COHORT_STRIDE
    }

    /// The live uid window `[lo, hi)`.
    #[must_use]
    pub(crate) fn live_range(&self) -> (u64, u64) {
        (self.base() + self.retired, self.base() + self.grown)
    }

    /// Live users.
    #[must_use]
    pub fn live(&self) -> u64 {
        self.grown - self.retired
    }

    /// Apply one tick's churn from the tick's own RNG stream: departures
    /// and arrivals drawn independently from `0..=live*pct/100`. Returns
    /// `(departures, arrivals)`.
    pub fn churn(&mut self, pct: u32, rng: &mut SmallRng) -> (u64, u64) {
        let cap = self.live() * u64::from(pct) / 100;
        if cap == 0 {
            return (0, 0);
        }
        let departures = rng.gen_range(0..=cap);
        let arrivals = rng.gen_range(0..=cap);
        self.retired += departures;
        self.grown += arrivals;
        (departures, arrivals)
    }

    /// Retire every live user at once — the TTL expiry path.
    pub fn expire(&mut self) {
        self.retired = self.grown;
        self.expired = true;
    }

    /// The proportional initial split of `users` across `cohorts` —
    /// the same arithmetic the fleet uses for shard ranges, so sizes
    /// differ by at most one.
    #[must_use]
    pub(crate) fn initial_sizes(users: u64, cohorts: usize) -> Vec<u64> {
        let n = cohorts as u64;
        (0..n)
            .map(|k| users * (k + 1) / n - users * k / n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn initial_sizes_tile_the_population() {
        for (users, cohorts) in [(10u64, 3usize), (1, 4), (100_000, 7), (5, 5)] {
            let sizes = Cohort::initial_sizes(users, cohorts);
            assert_eq!(sizes.len(), cohorts);
            assert_eq!(sizes.iter().sum::<u64>(), users);
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "{users}/{cohorts}: {sizes:?}");
        }
    }

    #[test]
    fn churn_moves_the_window_within_bounds() {
        let mut c = Cohort::new(2, 1_000);
        assert_eq!(c.base(), 2 * COHORT_STRIDE);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let live_before = c.live();
            let (dep, arr) = c.churn(10, &mut rng);
            assert!(dep <= live_before / 10 && arr <= live_before / 10);
            assert_eq!(c.live(), live_before - dep + arr);
            assert!(c.retired <= c.grown);
        }
        let (lo, hi) = c.live_range();
        assert!(lo >= c.base() && hi >= lo);
    }

    #[test]
    fn zero_churn_and_tiny_cohorts_are_stable() {
        let mut c = Cohort::new(0, 5);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(c.churn(0, &mut rng), (0, 0));
        // live*pct/100 == 0 below 10 users at 10% — no draws at all.
        assert_eq!(c.churn(10, &mut rng), (0, 0));
        assert_eq!(c.live(), 5);
    }

    #[test]
    fn expire_empties_the_window() {
        let mut c = Cohort::new(1, 10);
        c.expire();
        assert!(c.expired);
        assert_eq!(c.live(), 0);
        let (lo, hi) = c.live_range();
        assert_eq!(lo, hi);
    }
}
