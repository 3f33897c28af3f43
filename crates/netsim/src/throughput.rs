//! Throughput modelling: policy enforcement and TCP-shaped transfer times.
//!
//! Two findings in the paper shape this module:
//!
//! * downlink for roaming eSIMs is "predominantly governed by the v-MNO's
//!   bandwidth policies rather than the specific roaming configuration"
//!   (§5.1) — so the first-order model is a policy rate enforced by a token
//!   bucket at the bottleneck;
//! * yet CDN downloads over HR paths are several *times* slower (Fig. 14)
//!   even when the policy rate is identical — because short transfers are
//!   dominated by handshake and slow-start round trips, and long RTT also
//!   caps steady-state TCP throughput. [`transfer_time_ms`] captures both.
//!
//! [`transfer_time_ms`] is the simulator's only transfer model. The same
//! phases stepped through an event calendar, one event per congestion
//! window, are kept as a test reference (`tests/transfer_reference.rs`)
//! that must agree with it bit for bit.

use crate::time::SimTime;

/// A token bucket: the policy enforcement point for a subscriber class.
///
/// Rates are in bytes/second; capacity is the burst allowance. The bucket is
/// driven by simulation time, not wall-clock time.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A bucket that refills at `rate_mbps` megabits/s with `burst_bytes`
    /// of headroom, starting full.
    #[must_use]
    pub fn new(rate_mbps: f64, burst_bytes: f64) -> Self {
        assert!(rate_mbps > 0.0, "rate must be positive");
        assert!(burst_bytes >= 0.0);
        TokenBucket {
            rate_bytes_per_sec: rate_mbps * 1e6 / 8.0,
            burst_bytes,
            tokens: burst_bytes,
            last: SimTime::ZERO,
        }
    }

    /// Configured rate in Mbps.
    #[must_use]
    pub fn rate_mbps(&self) -> f64 {
        self.rate_bytes_per_sec * 8.0 / 1e6
    }

    fn refill(&mut self, now: SimTime) {
        // Never rewind: a stale timestamp must not re-credit an interval
        // that a later call already accounted for.
        if now <= self.last {
            return;
        }
        let dt = now.since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_bytes_per_sec).min(self.burst_bytes);
        self.last = now;
    }

    /// Consume `bytes` at time `now`, returning the extra delay before the
    /// last byte clears the shaper (zero when the burst absorbs it).
    ///
    /// The bucket is allowed to go negative ("borrowing"), which is how a
    /// shaper's queue manifests: subsequent packets wait for the deficit.
    pub fn consume(&mut self, bytes: f64, now: SimTime) -> SimTime {
        assert!(bytes >= 0.0);
        self.refill(now);
        self.tokens -= bytes;
        if self.tokens >= 0.0 {
            SimTime::ZERO
        } else {
            SimTime::from_ms(-self.tokens / self.rate_bytes_per_sec * 1e3)
        }
    }

    /// Tokens currently available (may be negative while draining a burst).
    #[must_use]
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

/// Inputs to the transfer-time estimator.
#[derive(Debug, Clone, Copy)]
pub struct TransferSpec {
    /// Application bytes to move.
    pub bytes: f64,
    /// Path round-trip time in ms.
    pub rtt_ms: f64,
    /// Bottleneck policy rate in Mbps (token-bucket rate at the enforcement
    /// point). This is the v-MNO/PGW-provider subscriber policy.
    pub policy_rate_mbps: f64,
    /// End-to-end packet loss probability (drives the Mathis cap).
    pub loss: f64,
    /// Round trips consumed before the first data byte: 1 for the TCP
    /// handshake, +2 for TLS 1.2, +1 more when the client must first
    /// resolve DNS over the same path, etc. Callers compose this.
    pub setup_rtts: f64,
    /// Number of parallel TCP connections. Speedtest tools (Ookla,
    /// fast.com) open many streams precisely to defeat the per-connection
    /// loss/RTT ceiling; `curl` of one object uses 1. Scales the Mathis
    /// cap and the aggregate initial window.
    pub parallel: u32,
}

/// TCP segment size assumed by the window model, bytes.
pub(crate) const MSS: f64 = 1460.0;
/// Initial congestion window (RFC 6928), segments.
pub(crate) const INIT_CWND_SEGMENTS: f64 = 10.0;

/// Steady-state TCP throughput cap from the Mathis et al. model,
/// `rate ≈ (MSS/RTT) · 1.22/√loss`, returned in Mbps. Infinite at zero loss.
#[must_use]
pub fn mathis_cap_mbps(rtt_ms: f64, loss: f64) -> f64 {
    if loss <= 0.0 {
        return f64::INFINITY;
    }
    let rtt_s = (rtt_ms / 1e3).max(1e-6);
    (MSS * 8.0 / 1e6) * 1.22 / (rtt_s * loss.sqrt())
}

/// Estimate the completion time of a TCP-like transfer, in milliseconds.
///
/// The model is: `setup_rtts` of protocol setup, then slow start doubling
/// from the initial window each RTT, then steady-state at the effective rate
/// (the minimum of the policy rate and the Mathis cap). It reproduces the
/// two regimes the paper observes: small objects (jquery.min.js, ~30 KB) are
/// RTT-bound — an HR path with 6× the RTT takes ~6× as long regardless of
/// bandwidth — while bulk speedtests are rate-bound.
#[must_use]
pub fn transfer_time_ms(spec: &TransferSpec) -> f64 {
    assert!(spec.bytes >= 0.0 && spec.rtt_ms > 0.0 && spec.policy_rate_mbps > 0.0);
    let streams = f64::from(spec.parallel.max(1));
    let effective_mbps = spec
        .policy_rate_mbps
        .min(streams * mathis_cap_mbps(spec.rtt_ms, spec.loss));
    let rate_bytes_per_ms = effective_mbps * 1e6 / 8.0 / 1e3;
    let bdp_bytes = rate_bytes_per_ms * spec.rtt_ms; // bandwidth-delay product

    // Accumulate on the simulation clock's nanosecond grid, quantising each
    // phase delta exactly like an event calendar does when it schedules
    // that phase: the stepped reference model in
    // `tests/transfer_reference.rs` must agree with this bit-for-bit.
    let mut elapsed = SimTime::from_ms(spec.setup_rtts * spec.rtt_ms);
    let mut remaining = spec.bytes;
    let mut cwnd = streams * INIT_CWND_SEGMENTS * MSS;

    // Slow start: one window per RTT, doubling, until the window reaches the
    // BDP (after which delivery is continuous at the effective rate).
    while remaining > 0.0 && cwnd < bdp_bytes {
        let sent = cwnd.min(remaining);
        remaining -= sent;
        if remaining <= 0.0 {
            // Last window: time to first byte of the window + transmission.
            return elapsed
                .after(SimTime::from_ms(
                    spec.rtt_ms / 2.0 + sent / rate_bytes_per_ms,
                ))
                .as_ms();
        }
        elapsed = elapsed.after(SimTime::from_ms(spec.rtt_ms));
        cwnd *= 2.0;
    }
    // Steady state: pipe is full; drain the rest at the effective rate.
    elapsed
        .after(SimTime::from_ms(
            spec.rtt_ms / 2.0 + remaining / rate_bytes_per_ms,
        ))
        .as_ms()
}

/// Achieved goodput in Mbps for a transfer described by `spec`.
#[must_use]
pub fn goodput_mbps(spec: &TransferSpec) -> f64 {
    let ms = transfer_time_ms(spec);
    if ms <= 0.0 {
        return 0.0;
    }
    spec.bytes * 8.0 / 1e6 / (ms / 1e3)
}

/// The one transfer model under the name roambench's fleet builders and
/// transfer-cost batch still use; it exists only for roambench until
/// ROADMAP item 1(b) moves it onto [`transfer_time_ms`].
#[derive(Debug, Clone, Copy)]
pub enum TransportKind {
    /// [`transfer_time_ms`].
    ClosedForm,
}

impl TransportKind {
    /// The model itself; roambench calls
    /// `ClosedForm.transport().transfer_ms_batch(..)`.
    #[must_use]
    pub fn transport(self) -> Self {
        self
    }

    /// [`transfer_time_ms`] of each spec, appended to `out` in spec order.
    pub fn transfer_ms_batch(self, specs: &[TransferSpec], out: &mut Vec<f64>) {
        out.extend(specs.iter().map(transfer_time_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_burst_absorbs_then_delays() {
        let mut tb = TokenBucket::new(8.0, 10_000.0); // 8 Mbps = 1 MB/s
        let d0 = tb.consume(10_000.0, SimTime::ZERO);
        assert_eq!(d0, SimTime::ZERO, "burst absorbs the first 10 kB");
        let d1 = tb.consume(10_000.0, SimTime::ZERO);
        assert!(
            (d1.as_ms() - 10.0).abs() < 0.01,
            "10 kB at 1 MB/s = 10 ms, got {d1}"
        );
    }

    #[test]
    fn bucket_refills_over_time() {
        let mut tb = TokenBucket::new(8.0, 10_000.0);
        tb.consume(10_000.0, SimTime::ZERO);
        // After 10 ms the bucket has regained 10 kB.
        let d = tb.consume(10_000.0, SimTime::from_ms(10.0));
        assert_eq!(d, SimTime::ZERO);
    }

    #[test]
    fn stale_timestamps_do_not_double_credit() {
        let mut tb = TokenBucket::new(8.0, 10_000.0); // 1 MB/s = 1000 B/ms
        tb.consume(10_000.0, SimTime::from_ms(100.0)); // bucket empty at t=100
                                                       // A late-arriving consume with an older timestamp must not rewind
                                                       // the refill clock…
        tb.consume(0.0, SimTime::from_ms(50.0));
        // …otherwise the next refill would double-credit [50,100).
        let d = tb.consume(10_000.0, SimTime::from_ms(101.0));
        // Only 1 ms of refill (1 kB) is legitimate: a 9 kB deficit = 9 ms.
        assert!((d.as_ms() - 9.0).abs() < 0.01, "got {d}");
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let mut tb = TokenBucket::new(1.0, 500.0);
        tb.consume(0.0, SimTime::from_secs(3600));
        assert!(tb.available() <= 500.0);
    }

    #[test]
    fn mathis_cap_behaviour() {
        assert_eq!(mathis_cap_mbps(50.0, 0.0), f64::INFINITY);
        let lossy = mathis_cap_mbps(50.0, 0.01);
        let cleaner = mathis_cap_mbps(50.0, 0.0001);
        assert!(lossy < cleaner);
        let long_rtt = mathis_cap_mbps(400.0, 0.01);
        assert!(long_rtt < lossy, "longer RTT lowers the cap");
    }

    fn spec(bytes: f64, rtt: f64, rate: f64) -> TransferSpec {
        TransferSpec {
            bytes,
            rtt_ms: rtt,
            policy_rate_mbps: rate,
            loss: 0.0,
            setup_rtts: 3.0,
            parallel: 1,
        }
    }

    #[test]
    fn parallel_streams_defeat_the_loss_ceiling() {
        let single = TransferSpec {
            loss: 0.002,
            parallel: 1,
            ..spec(50e6, 80.0, 100.0)
        };
        let pooled = TransferSpec {
            loss: 0.002,
            parallel: 8,
            ..spec(50e6, 80.0, 100.0)
        };
        let g1 = goodput_mbps(&single);
        let g8 = goodput_mbps(&pooled);
        assert!(
            g8 > g1 * 3.0,
            "8 streams must lift the cap: {g1:.1} vs {g8:.1}"
        );
        assert!(g8 <= 100.0 + 1e-9, "policy still binds");
    }

    #[test]
    fn small_object_is_rtt_bound() {
        // 30 kB object (jquery.min.js scale): time scales ~linearly with RTT.
        let fast = transfer_time_ms(&spec(30_000.0, 40.0, 20.0));
        let slow = transfer_time_ms(&spec(30_000.0, 400.0, 20.0));
        let ratio = slow / fast;
        assert!((6.0..12.0).contains(&ratio), "RTT 10x → time {ratio:.1}x");
    }

    #[test]
    fn bulk_transfer_is_rate_bound() {
        // 50 MB at 10 vs 40 Mbps: time ratio ≈ rate ratio, RTT negligible.
        let slow = transfer_time_ms(&spec(50e6, 40.0, 10.0));
        let fast = transfer_time_ms(&spec(50e6, 40.0, 40.0));
        let ratio = slow / fast;
        assert!((3.3..4.3).contains(&ratio), "rate 4x → time {ratio:.2}x");
        // Goodput approaches the policy rate.
        let g = goodput_mbps(&spec(50e6, 40.0, 10.0));
        assert!((8.0..10.01).contains(&g), "goodput {g}");
    }

    #[test]
    fn loss_caps_long_rtt_paths_harder() {
        let short = TransferSpec {
            loss: 0.005,
            ..spec(20e6, 40.0, 100.0)
        };
        let long = TransferSpec {
            loss: 0.005,
            ..spec(20e6, 400.0, 100.0)
        };
        let g_short = goodput_mbps(&short);
        let g_long = goodput_mbps(&long);
        assert!(g_long < g_short / 5.0, "g_short={g_short} g_long={g_long}");
    }

    #[test]
    fn setup_rtts_add_latency_not_rate() {
        let no_setup = TransferSpec {
            setup_rtts: 0.0,
            ..spec(30_000.0, 100.0, 20.0)
        };
        let with_setup = TransferSpec {
            setup_rtts: 3.0,
            ..spec(30_000.0, 100.0, 20.0)
        };
        let dt = transfer_time_ms(&with_setup) - transfer_time_ms(&no_setup);
        assert!((dt - 300.0).abs() < 1e-6, "3 setup RTTs at 100 ms: {dt}");
    }

    #[test]
    fn zero_bytes_costs_only_setup() {
        let t = transfer_time_ms(&spec(0.0, 100.0, 10.0));
        assert!((t - 350.0).abs() < 1e-6, "setup 300 + half RTT 50, got {t}");
    }

    #[test]
    fn transport_kind_batch_appends_transfer_time_ms_per_spec() {
        let specs = [
            spec(30_000.0, 400.0, 20.0),
            spec(50e6, 40.0, 10.0),
            spec(0.0, 100.0, 10.0),
        ];
        let mut out = vec![-1.0];
        TransportKind::ClosedForm
            .transport()
            .transfer_ms_batch(&specs, &mut out);
        let mut want = vec![-1.0];
        want.extend(specs.iter().map(transfer_time_ms));
        assert_eq!(out, want);
    }

    #[test]
    fn monotone_in_bytes() {
        let mut last = 0.0;
        for kb in [1.0, 10.0, 100.0, 1000.0, 10_000.0] {
            let t = transfer_time_ms(&spec(kb * 1000.0, 60.0, 25.0));
            assert!(t > last, "transfer time must grow with size");
            last = t;
        }
    }
}
