//! Streaming aggregation: mergeable sketches for population-scale runs.
//!
//! The campaign pipeline buffers every record because the paper's tables
//! need a few thousand rows at most. A fleet of millions of subscribers
//! cannot work that way: `roam-fleet` streams every observation into the
//! two structures here and throws the record away. Both are built around
//! one invariant — **merging is exact and order-free** — so a report
//! assembled from 1 shard and one assembled from N shards are the same
//! bytes:
//!
//! * [`QuantileSketch`] — fixed log-spaced buckets (integer counts), an
//!   exact fixed-point sum (micro-units in `i128`, so addition is
//!   associative, unlike `f64`), and exact min/max. Quantiles are read
//!   back by geometric interpolation inside a bucket, which bounds the
//!   relative error by the bucket growth ratio.
//! * [`KeyedReservoir`] — a bottom-k sample: every candidate carries a
//!   priority derived from a stable key (user id), and the reservoir
//!   keeps the k smallest priorities. Unlike classic reservoir sampling
//!   the outcome does not depend on offer order or partitioning, only on
//!   the candidate set.

/// A mergeable fixed-bucket quantile sketch over positive values.
///
/// Buckets are log-spaced: bucket `i` covers `(bounds[i-1], bounds[i]]`,
/// with one underflow bucket below `bounds[0]` and one overflow bucket
/// above the last bound. All merge state is integral (bucket counts,
/// fixed-point sum) or exact under min/max, so [`QuantileSketch::merge`]
/// is associative and commutative — the precondition for shard-count
/// invariant reports.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    bounds: Vec<f64>,
    growth: f64,
    counts: Vec<u64>,
    count: u64,
    /// Exact sum in micro-units (value × 1e6, rounded); `i128` keeps
    /// ~1.7e32 micro-units of headroom, far beyond any fleet run.
    sum_micro: i128,
    min: f64,
    max: f64,
    /// Non-finite observations rejected (kept so dropped data is visible
    /// instead of silently vanishing — the CSV exporters' `Fin` rule).
    dropped: u64,
}

impl QuantileSketch {
    /// A sketch with log-spaced bucket bounds from `lo` to at least `hi`,
    /// `per_decade` buckets per factor of ten. The relative quantile error
    /// is bounded by the bucket growth `10^(1/per_decade) - 1` (12.2% for
    /// 10 per decade, 6% for 20).
    ///
    /// # Panics
    /// When `lo`/`hi` are not positive and ordered or `per_decade` is 0.
    #[must_use]
    pub fn log_spaced(lo: f64, hi: f64, per_decade: u32) -> Self {
        assert!(lo > 0.0 && hi > lo && per_decade > 0, "bad sketch config");
        let growth = 10f64.powf(1.0 / f64::from(per_decade));
        let mut bounds = vec![lo];
        while *bounds.last().expect("non-empty") < hi {
            // Recompute from the exponent instead of compounding, so the
            // bounds are bit-identical however the sketch is built.
            bounds.push(lo * growth.powi(bounds.len() as i32));
        }
        // One underflow bucket, `bounds.len() - 1` interior steps, one
        // overflow bucket.
        let counts = vec![0; bounds.len() + 1];
        QuantileSketch {
            bounds,
            growth,
            counts,
            count: 0,
            sum_micro: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            dropped: 0,
        }
    }

    /// The multiplicative bucket growth (error-bound factor).
    #[must_use]
    pub fn growth(&self) -> f64 {
        self.growth
    }

    /// Record one observation. Non-finite values are counted as dropped,
    /// never folded into the distribution.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            self.dropped += 1;
            return;
        }
        // Bounds are sorted, so the bucket is a binary search: the first
        // bound `>= value` (0 = underflow, else `(bounds[i-1], bounds[i]]`,
        // `len` = overflow). Equivalent to a forward `value <= b` scan.
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        // Round half away from zero without the libm `round` call (this
        // runs once per observation at population scale). `value` is
        // finite here; magnitudes beyond i64 keep the exact slow path.
        let micro = value * 1e6;
        self.sum_micro += if micro.abs() < 9.0e18 {
            let whole = micro as i64;
            let frac = micro - whole as f64;
            i128::from(whole) + i128::from(frac >= 0.5) - i128::from(frac <= -0.5)
        } else {
            micro.round() as i128
        };
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total observations folded in (excluding dropped ones).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-finite observations rejected.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exact mean (fixed-point sum over count); 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.sum_micro as f64 / 1e6) / self.count as f64
    }

    /// Smallest observation (+inf when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Bucket counts: underflow, one per bound step, overflow.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by geometric interpolation
    /// inside the owning bucket, clamped to the exact min/max. Within the
    /// configured `[lo, hi]` range the relative error is at most
    /// `growth - 1`. Returns `None` when the sketch is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        let mut idx = self.counts.len() - 1;
        for (i, &n) in self.counts.iter().enumerate() {
            cum += n;
            if cum >= rank {
                idx = i;
                break;
            }
        }
        let est = if idx == 0 {
            // Underflow bucket: everything here is <= bounds[0].
            self.bounds[0]
        } else if idx >= self.bounds.len() {
            // Overflow bucket: the exact max is the only honest answer.
            self.max
        } else {
            // Geometric midpoint-ish interpolation by rank position.
            let lo = self.bounds[idx - 1];
            let hi = self.bounds[idx];
            let in_bucket = self.counts[idx];
            let below = cum - in_bucket;
            let frac = if in_bucket == 0 {
                1.0
            } else {
                (rank - below) as f64 / in_bucket as f64
            };
            lo * (hi / lo).powf(frac)
        };
        Some(est.clamp(self.min, self.max))
    }

    /// Fold another sketch into this one. Exact: integer bucket counts,
    /// fixed-point sums and min/max all merge associatively, so any
    /// sharding of one observation stream produces identical state.
    ///
    /// # Panics
    /// When the sketches were built with different bucket configurations.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(self.bounds, other.bounds, "sketch bucket config mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_micro += other.sum_micro;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.dropped += other.dropped;
    }
}

/// Deterministic bottom-k sampling: keeps the `k` candidates with the
/// smallest `(priority, key)`, independent of offer order or sharding.
///
/// The caller derives `priority` from a stable identity (e.g.
/// `flow_seed(master, "sample/user/<id>")`), so the surviving set is a
/// uniform-ish pseudo-random sample that every partitioning of the
/// population agrees on. `key` (the user id itself) breaks priority ties
/// deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedReservoir<T> {
    cap: usize,
    /// Sorted ascending by `(priority, key)`.
    items: Vec<(u64, u64, T)>,
}

impl<T: Clone> KeyedReservoir<T> {
    /// An empty reservoir holding at most `cap` items.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        KeyedReservoir {
            cap,
            items: Vec::with_capacity(cap.min(64)),
        }
    }

    /// Capacity of the reservoir.
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of items currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the reservoir empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Offer one candidate. Kept iff its `(priority, key)` ranks within
    /// the smallest `cap` seen so far. Re-offering a key already held is
    /// a no-op: keys identify deterministic items (a key's payload is
    /// always the same bytes), so recurring runs that revisit a
    /// population — the service agent ticking the same cohort week after
    /// week — fold into the same sample instead of flooding it with
    /// duplicates.
    pub fn offer(&mut self, priority: u64, key: u64, item: T) {
        if self.cap == 0 {
            return;
        }
        let pos = self
            .items
            .partition_point(|(p, k, _)| (*p, *k) < (priority, key));
        if pos >= self.cap {
            return;
        }
        if self
            .items
            .get(pos)
            .is_some_and(|(p, k, _)| (*p, *k) == (priority, key))
        {
            return;
        }
        self.items.insert(pos, (priority, key, item));
        self.items.truncate(self.cap);
    }

    /// Fold another reservoir in: union, then keep the `cap` smallest.
    /// Associative and commutative, like the sketch merge.
    ///
    /// # Panics
    /// When capacities differ — merging would silently change semantics.
    pub fn merge(&mut self, other: &KeyedReservoir<T>) {
        assert_eq!(self.cap, other.cap, "reservoir capacity mismatch");
        for (p, k, item) in &other.items {
            self.offer(*p, *k, item.clone());
        }
    }

    /// The sampled items, in `(priority, key)` order.
    pub fn items(&self) -> impl Iterator<Item = &T> {
        self.items.iter().map(|(_, _, t)| t)
    }
}

// ---------------------------------------------------------------------
// Wire form: both structures checkpoint to disk and stream across worker
// pipes in the roam-codec field format. Encoding is verbatim state (the
// bounds vector itself, not the construction parameters), so a decoded
// sketch is field-for-field — and therefore merge- and render- —
// identical to the one that was encoded.
// ---------------------------------------------------------------------

use roam_codec::{CodecError, Decoder, Encoder};

/// Field tags for [`QuantileSketch`] (see DESIGN.md §11 tag tables).
mod sketch_tag {
    pub const BOUND: u32 = 1; // repeated f64
    pub const GROWTH: u32 = 2; // f64
    pub const BUCKET: u32 = 3; // repeated u64 (underflow..overflow)
    pub const COUNT: u32 = 4; // u64
    pub const SUM_MICRO: u32 = 5; // i128
    pub const MIN: u32 = 6; // f64 (+inf when empty)
    pub const MAX: u32 = 7; // f64 (-inf when empty)
    pub const DROPPED: u32 = 8; // u64
}

impl QuantileSketch {
    /// Write every field of the sketch into `e` (no frame, no section —
    /// the caller chooses the envelope).
    pub fn encode_fields(&self, e: &mut Encoder) {
        for &b in &self.bounds {
            e.f64(sketch_tag::BOUND, b);
        }
        e.f64(sketch_tag::GROWTH, self.growth);
        for &c in &self.counts {
            e.u64(sketch_tag::BUCKET, c);
        }
        e.u64(sketch_tag::COUNT, self.count);
        e.i128(sketch_tag::SUM_MICRO, self.sum_micro);
        e.f64(sketch_tag::MIN, self.min);
        e.f64(sketch_tag::MAX, self.max);
        e.u64(sketch_tag::DROPPED, self.dropped);
    }

    /// Rebuild a sketch from fields written by
    /// [`QuantileSketch::encode_fields`]. Unknown tags are skipped
    /// (forward compatibility); missing required fields and impossible
    /// bucket shapes are loud errors.
    pub fn decode_fields(d: &mut Decoder) -> Result<Self, CodecError> {
        let mut bounds = Vec::new();
        let mut counts = Vec::new();
        let mut growth = None;
        let mut count = None;
        let mut sum_micro = None;
        let mut min = None;
        let mut max = None;
        let mut dropped = None;
        while let Some((tag, v)) = d.next_field()? {
            match tag {
                sketch_tag::BOUND => bounds.push(v.as_f64(tag)?),
                sketch_tag::GROWTH => growth = Some(v.as_f64(tag)?),
                sketch_tag::BUCKET => counts.push(v.as_u64(tag)?),
                sketch_tag::COUNT => count = Some(v.as_u64(tag)?),
                sketch_tag::SUM_MICRO => sum_micro = Some(v.as_i128(tag)?),
                sketch_tag::MIN => min = Some(v.as_f64(tag)?),
                sketch_tag::MAX => max = Some(v.as_f64(tag)?),
                sketch_tag::DROPPED => dropped = Some(v.as_u64(tag)?),
                _ => {}
            }
        }
        if bounds.is_empty() {
            return Err(CodecError::MissingField("sketch bounds"));
        }
        if counts.len() != bounds.len() + 1 {
            return Err(CodecError::BadValue("sketch bucket count"));
        }
        Ok(QuantileSketch {
            bounds,
            growth: growth.ok_or(CodecError::MissingField("sketch growth"))?,
            counts,
            count: count.ok_or(CodecError::MissingField("sketch count"))?,
            sum_micro: sum_micro.ok_or(CodecError::MissingField("sketch sum_micro"))?,
            min: min.ok_or(CodecError::MissingField("sketch min"))?,
            max: max.ok_or(CodecError::MissingField("sketch max"))?,
            dropped: dropped.ok_or(CodecError::MissingField("sketch dropped"))?,
        })
    }
}

/// Field tags for [`KeyedReservoir`].
mod reservoir_tag {
    pub const CAP: u32 = 1; // u64
    pub const ENTRY: u32 = 2; // repeated section
    pub const PRIORITY: u32 = 1; // u64, inside ENTRY
    pub const KEY: u32 = 2; // u64, inside ENTRY
    pub const ITEM: u32 = 3; // section, inside ENTRY (caller-defined)
}

impl<T: Clone> KeyedReservoir<T> {
    /// Write the reservoir into `e`; `item` encodes each sample's payload
    /// into its own section (the reservoir is generic, so the element
    /// schema belongs to the caller).
    pub fn encode_fields_with(&self, e: &mut Encoder, item: impl Fn(&mut Encoder, &T)) {
        e.u64(reservoir_tag::CAP, self.cap as u64);
        for (p, k, t) in &self.items {
            e.section(reservoir_tag::ENTRY, |s| {
                s.u64(reservoir_tag::PRIORITY, *p);
                s.u64(reservoir_tag::KEY, *k);
                s.section(reservoir_tag::ITEM, |se| item(se, t));
            });
        }
    }

    /// Rebuild a reservoir from fields written by
    /// [`KeyedReservoir::encode_fields_with`]; `item` decodes each
    /// payload section. The `(priority, key)` sort invariant is verified,
    /// not trusted.
    pub fn decode_fields_with(
        d: &mut Decoder,
        item: impl Fn(&mut Decoder) -> Result<T, CodecError>,
    ) -> Result<Self, CodecError> {
        let mut cap = None;
        let mut items: Vec<(u64, u64, T)> = Vec::new();
        while let Some((tag, v)) = d.next_field()? {
            match tag {
                reservoir_tag::CAP => {
                    cap = Some(v.as_usize(tag, "reservoir cap")?);
                }
                reservoir_tag::ENTRY => {
                    let mut s = v.as_section(tag)?;
                    let mut priority = None;
                    let mut key = None;
                    let mut payload = None;
                    while let Some((t2, v2)) = s.next_field()? {
                        match t2 {
                            reservoir_tag::PRIORITY => priority = Some(v2.as_u64(t2)?),
                            reservoir_tag::KEY => key = Some(v2.as_u64(t2)?),
                            reservoir_tag::ITEM => {
                                let mut se = v2.as_section(t2)?;
                                payload = Some(item(&mut se)?);
                            }
                            _ => {}
                        }
                    }
                    let p = priority.ok_or(CodecError::MissingField("reservoir priority"))?;
                    let k = key.ok_or(CodecError::MissingField("reservoir key"))?;
                    let t = payload.ok_or(CodecError::MissingField("reservoir item"))?;
                    if let Some((lp, lk, _)) = items.last() {
                        if (*lp, *lk) >= (p, k) {
                            return Err(CodecError::BadValue("reservoir order"));
                        }
                    }
                    items.push((p, k, t));
                }
                _ => {}
            }
        }
        let cap = cap.ok_or(CodecError::MissingField("reservoir cap"))?;
        if items.len() > cap {
            return Err(CodecError::BadValue("reservoir size"));
        }
        Ok(KeyedReservoir { cap, items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[f64]) -> QuantileSketch {
        let mut s = QuantileSketch::log_spaced(1.0, 1000.0, 10);
        for &v in values {
            s.observe(v);
        }
        s
    }

    #[test]
    fn counts_sum_min_max_are_exact() {
        let s = filled(&[2.0, 20.0, 200.0, 2000.0, 0.5]);
        assert_eq!(s.count(), 5);
        assert_eq!(s.min(), 0.5);
        assert_eq!(s.max(), 2000.0);
        assert!((s.mean() - (2.0 + 20.0 + 200.0 + 2000.0 + 0.5) / 5.0).abs() < 1e-9);
        // Underflow and overflow buckets caught the extremes.
        assert_eq!(s.buckets()[0], 1);
        assert_eq!(*s.buckets().last().expect("overflow bucket"), 1);
    }

    #[test]
    fn non_finite_observations_are_dropped_not_folded() {
        let mut s = filled(&[5.0]);
        s.observe(f64::INFINITY);
        s.observe(f64::NAN);
        s.observe(f64::NEG_INFINITY);
        assert_eq!(s.count(), 1);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.quantile(0.5), Some(5.0));
    }

    #[test]
    fn quantile_error_is_bounded_by_bucket_growth() {
        // A deterministic long-tailed sample: exponential via inverse CDF.
        let n = 5000;
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                10.0 * -(1.0 - u).ln() // Exp(mean 10), range ~0.001..~85
            })
            .collect();
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let s = filled(&values);
        let tol = s.growth() - 1.0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let exact = crate::quantile(&sorted, q).expect("non-empty");
            let est = s.quantile(q).expect("non-empty");
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= tol + 1e-9,
                "q={q}: est={est} exact={exact} rel={rel} tol={tol}"
            );
        }
    }

    #[test]
    fn quantile_matches_exact_cdf_masses() {
        // Against the exact Ecdf: the sketch's q-quantile must sit at a
        // point whose empirical CDF mass is within one bucket of q.
        let values: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 0.37).collect();
        let s = filled(&values);
        let ecdf = crate::Ecdf::new(&values).expect("clean sample");
        for q in [0.05, 0.5, 0.95] {
            let est = s.quantile(q).expect("non-empty");
            // Mass strictly below the *next* bucket up must cover q, and
            // mass at the bucket below must not overshoot it.
            assert!(ecdf.eval(est * s.growth()) >= q - 1e-9);
            assert!(ecdf.eval(est / s.growth()) <= q + 1e-9);
        }
    }

    #[test]
    fn merge_equals_single_stream() {
        let all: Vec<f64> = (0..500).map(|i| 1.0 + f64::from(i) * 1.7).collect();
        let whole = filled(&all);
        let mut merged = filled(&all[..120]);
        merged.merge(&filled(&all[120..300]));
        merged.merge(&filled(&all[300..]));
        assert_eq!(whole, merged);
    }

    #[test]
    #[should_panic(expected = "bucket config mismatch")]
    fn merging_mismatched_configs_panics() {
        let mut a = QuantileSketch::log_spaced(1.0, 10.0, 5);
        a.merge(&QuantileSketch::log_spaced(1.0, 100.0, 5));
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::log_spaced(1.0, 10.0, 5);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn reservoir_keeps_the_k_smallest_priorities() {
        let mut r = KeyedReservoir::new(3);
        for (p, k) in [(50u64, 1u64), (10, 2), (40, 3), (20, 4), (30, 5)] {
            r.offer(p, k, k);
        }
        assert_eq!(r.len(), 3);
        let kept: Vec<u64> = r.items().copied().collect();
        assert_eq!(kept, vec![2, 4, 5], "priorities 10, 20, 30 survive");
    }

    #[test]
    fn reservoir_offers_are_idempotent_per_key() {
        let mut once = KeyedReservoir::new(4);
        let mut thrice = KeyedReservoir::new(4);
        for (p, k) in [(10u64, 1u64), (20, 2), (30, 3)] {
            once.offer(p, k, k);
            for _ in 0..3 {
                thrice.offer(p, k, k);
            }
        }
        assert_eq!(once, thrice, "re-offering a held key is a no-op");
        assert_eq!(once.len(), 3);
        // Re-offers also never evict distinct keys out the bottom.
        once.offer(40, 4, 4);
        thrice.offer(40, 4, 4);
        thrice.offer(10, 1, 1);
        assert_eq!(once, thrice);
        assert_eq!(once.len(), 4);
    }

    #[test]
    fn reservoir_is_offer_order_invariant() {
        let candidates: Vec<(u64, u64)> = (0..40).map(|i| (i * 2_654_435_761 % 1000, i)).collect();
        let mut forward = KeyedReservoir::new(5);
        for &(p, k) in &candidates {
            forward.offer(p, k, k);
        }
        let mut backward = KeyedReservoir::new(5);
        for &(p, k) in candidates.iter().rev() {
            backward.offer(p, k, k);
        }
        assert_eq!(forward, backward);
    }

    #[test]
    fn reservoir_merge_is_partition_invariant() {
        let candidates: Vec<(u64, u64)> = (0..60).map(|i| (i * 48_271 % 500, i)).collect();
        let mut whole = KeyedReservoir::new(7);
        for &(p, k) in &candidates {
            whole.offer(p, k, k);
        }
        let mut merged = KeyedReservoir::new(7);
        let mut right = KeyedReservoir::new(7);
        for &(p, k) in &candidates[..20] {
            merged.offer(p, k, k);
        }
        for &(p, k) in &candidates[20..] {
            right.offer(p, k, k);
        }
        merged.merge(&right);
        assert_eq!(whole, merged);
    }

    #[test]
    fn ties_break_on_the_key() {
        let mut a = KeyedReservoir::new(2);
        a.offer(5, 9, "late");
        a.offer(5, 1, "early");
        a.offer(5, 4, "mid");
        let kept: Vec<&str> = a.items().copied().collect();
        assert_eq!(kept, vec!["early", "mid"]);
    }

    #[test]
    fn zero_capacity_reservoir_stays_empty() {
        let mut r = KeyedReservoir::new(0);
        r.offer(1, 1, ());
        assert!(r.is_empty());
    }

    #[test]
    fn sketch_round_trips_through_the_codec() {
        for values in [&[][..], &[2.0, 0.01, 9999.0, 17.5][..]] {
            let s = filled(values);
            let mut e = Encoder::new();
            s.encode_fields(&mut e);
            let bytes = e.into_bytes();
            let back =
                QuantileSketch::decode_fields(&mut Decoder::new(&bytes)).expect("clean round trip");
            assert_eq!(s, back);
        }
    }

    #[test]
    fn sketch_decode_rejects_malformed_state() {
        let s = filled(&[3.0]);
        let mut e = Encoder::new();
        s.encode_fields(&mut e);
        // Drop one bucket field: counts.len() != bounds.len() + 1.
        let mut skewed = Encoder::new();
        s.encode_fields(&mut skewed);
        let mut bytes = skewed.into_bytes();
        bytes.truncate(bytes.len() - 2); // chop the trailing dropped field
        assert!(QuantileSketch::decode_fields(&mut Decoder::new(&bytes)).is_err());
        // Empty input: required fields missing.
        assert_eq!(
            QuantileSketch::decode_fields(&mut Decoder::new(&[])).unwrap_err(),
            CodecError::MissingField("sketch bounds")
        );
    }

    #[test]
    fn reservoir_round_trips_through_the_codec() {
        let mut r = KeyedReservoir::new(3);
        for (p, k) in [(50u64, 1u64), (10, 2), (40, 3), (20, 4)] {
            r.offer(p, k, k * 11);
        }
        let mut e = Encoder::new();
        r.encode_fields_with(&mut e, |se, item| se.u64(1, *item));
        let bytes = e.into_bytes();
        let back = KeyedReservoir::decode_fields_with(&mut Decoder::new(&bytes), |se| {
            let (tag, v) = se.next_field()?.ok_or(CodecError::MissingField("item"))?;
            v.as_u64(tag)
        })
        .expect("clean round trip");
        assert_eq!(r, back);
    }
}
