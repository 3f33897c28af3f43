//! The flow engine: per-flow RNG streams and the [`Transport`] layer.
//!
//! Every measurement the campaigns run — a ping train, a traceroute, a bulk
//! download — is a *flow*: a stream of packets whose randomness (jitter,
//! loss, server think time) must not depend on what other flows ran before
//! it. A [`Flow`] owns a private RNG derived from `(master_seed, flow_key)`
//! with [`flow_seed`] — the same FNV-1a + SplitMix64 scheme the parallel
//! shard runner uses for shard seeds — so inserting, removing or reordering
//! measurements never perturbs another flow's stream. That property is what
//! makes campaign output a pure function of *what* was measured, and is the
//! precondition for intra-shard concurrency.
//!
//! Bulk-transfer timing sits behind the [`Transport`] trait. Two
//! implementations exist:
//!
//! * [`ClosedFormTransport`] — the analytic model in
//!   [`crate::throughput::transfer_time_ms`] (handshake, slow start,
//!   policy/Mathis-capped steady state). The default.
//! * [`EngineSteppedTransport`] — the same TCP phases stepped through a
//!   discrete-event calendar ([`EventQueue`]), one event per congestion
//!   window. Numerically it agrees with the closed form to sub-microsecond
//!   rounding (the calendar quantises to [`SimTime`] nanoseconds); what it
//!   buys is a real clock that future work can interleave with competing
//!   flows for congestion coupling.
//!
//! Select with `ROAM_TRANSPORT=engine` (anything else, or unset, means
//! closed form) via [`TransportKind::from_env`], or programmatically with
//! [`TransportKind::override_transport`]; measurement code should resolve
//! the effective choice through [`TransportKind::current`].

use crate::event::{CalendarKind, EventQueue};
use crate::throughput::{mathis_cap_mbps, TransferSpec, INIT_CWND_SEGMENTS, MSS};
use crate::time::SimTime;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Derive a flow's RNG seed from the master seed and its stable key.
///
/// The key names *what* the flow measures (`"flow/s3/…/ookla/0"`), so the
/// stream a flow draws from is a pure function of identity, never of
/// execution order. FNV-1a absorbs the key and the master seed; a
/// SplitMix64 finalizer scrambles the result so related keys (and
/// low-entropy master seeds) land far apart in seed space. This is the
/// same derivation the shard runner uses, so shard and flow streams live
/// in one keyed-seed universe.
#[must_use]
pub fn flow_seed(master: u64, key: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_absorb(&mut h, key.as_bytes());
    fnv_absorb(&mut h, &master.to_le_bytes());
    splitmix(h)
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn fnv_absorb(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

#[inline]
fn splitmix(h: u64) -> u64 {
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Identity of a flow: the seed it was opened with. Two flows with the same
/// id draw identical streams — which is exactly the property the
/// order-insensitivity tests pin down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A flow: a private, order-insensitive RNG stream for one measurement.
#[derive(Debug, Clone)]
pub struct Flow {
    id: FlowId,
    rng: SmallRng,
}

impl Flow {
    /// Open a flow from a derived seed (see [`flow_seed`]).
    #[must_use]
    pub fn open(seed: u64) -> Self {
        Flow {
            id: FlowId(seed),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The flow's identity.
    #[must_use]
    pub fn id(&self) -> FlowId {
        self.id
    }

    /// The flow's private RNG stream.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// How bulk transfers over a path are timed. Measurement clients never call
/// the throughput formulas directly — they hand a [`TransferSpec`] to
/// whichever transport [`TransportKind::from_env`] selected.
pub trait Transport: Sync {
    /// Completion time of the transfer described by `spec`, milliseconds.
    fn transfer_ms(&self, spec: &TransferSpec) -> f64;

    /// Completion times for a batch of transfers, appended to `out` in
    /// spec order. Semantically identical to calling
    /// [`transfer_ms`](Self::transfer_ms) per spec; implementations
    /// override it to turn the loop into a tight kernel with the
    /// per-call setup (trait dispatch, calendar rewind) hoisted out —
    /// the fleet runner times every transfer a user's session plan
    /// produced through this in one call.
    fn transfer_ms_batch(&self, specs: &[TransferSpec], out: &mut Vec<f64>) {
        out.reserve(specs.len());
        for spec in specs {
            out.push(self.transfer_ms(spec));
        }
    }

    /// Short name for logs and benches.
    fn name(&self) -> &'static str;

    /// Achieved goodput in Mbps for `spec` under this transport.
    fn goodput_mbps(&self, spec: &TransferSpec) -> f64 {
        let ms = self.transfer_ms(spec);
        if ms <= 0.0 {
            return 0.0;
        }
        spec.bytes * 8.0 / 1e6 / (ms / 1e3)
    }
}

/// The analytic transfer-time model (default).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClosedFormTransport;

impl Transport for ClosedFormTransport {
    fn transfer_ms(&self, spec: &TransferSpec) -> f64 {
        crate::throughput::transfer_time_ms(spec)
    }

    fn name(&self) -> &'static str {
        "closed-form"
    }
}

/// What the transfer calendar is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransferEvent {
    /// Protocol setup (handshake RTTs) finished; first window may go out.
    SetupDone,
    /// A slow-start window was acknowledged; the next may go out.
    WindowAcked,
    /// The last byte cleared the path.
    Done,
}

/// The same TCP phases as the closed form, stepped through an event
/// calendar: one [`TransferEvent`] per congestion window, clock advanced by
/// popping the heap rather than by accumulating a float.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineSteppedTransport;

thread_local! {
    /// The per-thread transfer calendar. A wheel-backed queue owns ~3 KiB
    /// of slot bookkeeping, far too much to build per transfer; rewinding
    /// a persistent queue keeps every allocation across the millions of
    /// transfers a fleet shard times.
    static TRANSFER_CALENDAR: RefCell<EventQueue<TransferEvent>> =
        RefCell::new(EventQueue::new());
}

impl EngineSteppedTransport {
    /// Step one transfer on a rewound calendar. Factored out so the batch
    /// path borrows the thread-local queue once for the whole batch.
    fn step(q: &mut EventQueue<TransferEvent>, spec: &TransferSpec) -> f64 {
        assert!(spec.bytes >= 0.0 && spec.rtt_ms > 0.0 && spec.policy_rate_mbps > 0.0);
        let streams = f64::from(spec.parallel.max(1));
        let effective_mbps = spec
            .policy_rate_mbps
            .min(streams * mathis_cap_mbps(spec.rtt_ms, spec.loss));
        let rate_bytes_per_ms = effective_mbps * 1e6 / 8.0 / 1e3;
        let bdp_bytes = rate_bytes_per_ms * spec.rtt_ms;

        q.schedule(
            SimTime::from_ms(spec.setup_rtts * spec.rtt_ms),
            TransferEvent::SetupDone,
        );
        let mut remaining = spec.bytes;
        let mut cwnd = streams * INIT_CWND_SEGMENTS * MSS;
        while let Some((_, ev)) = q.pop() {
            match ev {
                TransferEvent::SetupDone | TransferEvent::WindowAcked => {
                    if remaining > 0.0 && cwnd < bdp_bytes {
                        // Slow start: emit one window, double on the ack.
                        let sent = cwnd.min(remaining);
                        remaining -= sent;
                        if remaining <= 0.0 {
                            q.schedule_after(
                                SimTime::from_ms(spec.rtt_ms / 2.0 + sent / rate_bytes_per_ms),
                                TransferEvent::Done,
                            );
                        } else {
                            cwnd *= 2.0;
                            q.schedule_after(
                                SimTime::from_ms(spec.rtt_ms),
                                TransferEvent::WindowAcked,
                            );
                        }
                    } else {
                        // Pipe full: drain the rest at the effective rate.
                        q.schedule_after(
                            SimTime::from_ms(spec.rtt_ms / 2.0 + remaining / rate_bytes_per_ms),
                            TransferEvent::Done,
                        );
                    }
                }
                TransferEvent::Done => break,
            }
        }
        let ms = q.now().as_ms();
        q.rewind();
        ms
    }

    /// Borrow the thread-local calendar, rebuilt if the process-wide
    /// calendar kind changed since this thread last timed a transfer.
    fn with_calendar<R>(f: impl FnOnce(&mut EventQueue<TransferEvent>) -> R) -> R {
        TRANSFER_CALENDAR.with(|cell| {
            let mut q = cell.borrow_mut();
            if q.kind() != CalendarKind::current() {
                *q = EventQueue::new();
            }
            f(&mut q)
        })
    }
}

impl Transport for EngineSteppedTransport {
    fn transfer_ms(&self, spec: &TransferSpec) -> f64 {
        Self::with_calendar(|q| Self::step(q, spec))
    }

    fn transfer_ms_batch(&self, specs: &[TransferSpec], out: &mut Vec<f64>) {
        Self::with_calendar(|q| {
            out.reserve(specs.len());
            for spec in specs {
                out.push(Self::step(q, spec));
            }
        });
    }

    fn name(&self) -> &'static str {
        "engine"
    }
}

/// Which [`Transport`] a run uses, selected by the `ROAM_TRANSPORT`
/// environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The analytic model — the default.
    #[default]
    ClosedForm,
    /// The event-calendar transport.
    Engine,
}

impl TransportKind {
    /// Read the kind from `ROAM_TRANSPORT`: `engine` selects the stepped
    /// transport; unset, empty, or anything else means closed form. Read
    /// on every call (never cached) so tests can flip it mid-process.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("ROAM_TRANSPORT") {
            Ok(v) if v.trim() == "engine" => TransportKind::Engine,
            _ => TransportKind::ClosedForm,
        }
    }

    /// Install (or clear, with `None`) a process-wide override that takes
    /// precedence over `ROAM_TRANSPORT`. Returns the previous override so
    /// callers can restore it — the campaign runner's `.transport(..)`
    /// builder uses this with a restore guard.
    pub fn override_transport(kind: Option<TransportKind>) -> Option<TransportKind> {
        let encode = |k: Option<TransportKind>| match k {
            None => 0u8,
            Some(TransportKind::ClosedForm) => 1,
            Some(TransportKind::Engine) => 2,
        };
        let prev = TRANSPORT_OVERRIDE.swap(encode(kind), Ordering::SeqCst);
        match prev {
            1 => Some(TransportKind::ClosedForm),
            2 => Some(TransportKind::Engine),
            _ => None,
        }
    }

    /// The effective kind for this call: the process-wide override if one
    /// is installed, otherwise whatever `ROAM_TRANSPORT` says.
    #[must_use]
    pub fn current() -> Self {
        match TRANSPORT_OVERRIDE.load(Ordering::SeqCst) {
            1 => TransportKind::ClosedForm,
            2 => TransportKind::Engine,
            _ => TransportKind::from_env(),
        }
    }

    /// The transport this kind names.
    #[must_use]
    pub fn transport(self) -> &'static dyn Transport {
        static CLOSED: ClosedFormTransport = ClosedFormTransport;
        static ENGINE: EngineSteppedTransport = EngineSteppedTransport;
        match self {
            TransportKind::ClosedForm => &CLOSED,
            TransportKind::Engine => &ENGINE,
        }
    }
}

/// 0 = no override (follow the env), 1 = closed form, 2 = engine.
static TRANSPORT_OVERRIDE: AtomicU8 = AtomicU8::new(0);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn flow_seed_is_stable_and_key_sensitive() {
        assert_eq!(flow_seed(7, "flow/a"), flow_seed(7, "flow/a"));
        assert_ne!(flow_seed(7, "flow/a"), flow_seed(7, "flow/b"));
        assert_ne!(flow_seed(7, "flow/a"), flow_seed(8, "flow/a"));
        // SplitMix finalisation spreads adjacent masters.
        assert!(flow_seed(1, "x").abs_diff(flow_seed(2, "x")) > 1 << 32);
    }

    #[test]
    fn batch_transfer_times_match_single_calls() {
        let specs = [
            spec(30_000.0, 400.0, 20.0, 0.0, 1),
            spec(50e6, 40.0, 10.0, 0.0, 1),
            spec(50e6, 80.0, 100.0, 0.002, 8),
            spec(0.0, 100.0, 10.0, 0.0, 1),
        ];
        for transport in [
            TransportKind::ClosedForm.transport(),
            TransportKind::Engine.transport(),
        ] {
            let mut batch = Vec::new();
            transport.transfer_ms_batch(&specs, &mut batch);
            let singles: Vec<f64> = specs.iter().map(|s| transport.transfer_ms(s)).collect();
            assert_eq!(batch, singles, "{}", transport.name());
        }
    }

    #[test]
    fn same_flow_id_same_stream() {
        let mut a = Flow::open(flow_seed(9, "flow/s0/ookla/3"));
        let mut b = Flow::open(flow_seed(9, "flow/s0/ookla/3"));
        assert_eq!(a.id(), b.id());
        for _ in 0..64 {
            assert_eq!(a.rng().gen::<u64>(), b.rng().gen::<u64>());
        }
        let mut c = Flow::open(flow_seed(9, "flow/s0/ookla/4"));
        assert_ne!(a.rng().gen::<u64>(), c.rng().gen::<u64>());
    }

    fn spec(bytes: f64, rtt: f64, rate: f64, loss: f64, parallel: u32) -> TransferSpec {
        TransferSpec {
            bytes,
            rtt_ms: rtt,
            policy_rate_mbps: rate,
            loss,
            setup_rtts: 3.0,
            parallel,
        }
    }

    #[test]
    fn engine_agrees_with_closed_form() {
        // The calendar quantises to nanoseconds; agreement must hold to
        // well under a microsecond across both regimes (RTT-bound small
        // objects and rate-bound bulk) and with loss/parallelism in play.
        let specs = [
            spec(30_000.0, 400.0, 20.0, 0.0, 1),
            spec(50e6, 40.0, 10.0, 0.0, 1),
            spec(50e6, 80.0, 100.0, 0.002, 8),
            spec(25e6, 361.0, 12.0, 0.01, 6),
            spec(0.0, 100.0, 10.0, 0.0, 1),
        ];
        for s in &specs {
            let closed = ClosedFormTransport.transfer_ms(s);
            let engine = EngineSteppedTransport.transfer_ms(s);
            assert!(
                (closed - engine).abs() < 1e-3,
                "closed={closed} engine={engine} for {s:?}"
            );
            let gc = ClosedFormTransport.goodput_mbps(s);
            let ge = EngineSteppedTransport.goodput_mbps(s);
            assert!((gc - ge).abs() < 1e-6 * gc.max(1.0), "{gc} vs {ge}");
        }
    }

    #[test]
    fn transport_kind_reads_env_per_call() {
        std::env::remove_var("ROAM_TRANSPORT");
        assert_eq!(TransportKind::from_env(), TransportKind::ClosedForm);
        std::env::set_var("ROAM_TRANSPORT", "engine");
        assert_eq!(TransportKind::from_env(), TransportKind::Engine);
        std::env::set_var("ROAM_TRANSPORT", "closed");
        assert_eq!(TransportKind::from_env(), TransportKind::ClosedForm);
        std::env::remove_var("ROAM_TRANSPORT");
        assert_eq!(
            TransportKind::transport(TransportKind::Engine).name(),
            "engine"
        );
        assert_eq!(
            TransportKind::transport(TransportKind::ClosedForm).name(),
            "closed-form"
        );
    }

    #[test]
    fn override_beats_env_while_installed() {
        // Only assert while the override is pinned: other tests in this
        // binary mutate ROAM_TRANSPORT concurrently, so the env-following
        // path is exercised in transport_kind_reads_env_per_call, not here.
        let prev = TransportKind::override_transport(Some(TransportKind::Engine));
        assert_eq!(TransportKind::current(), TransportKind::Engine);
        let inner = TransportKind::override_transport(Some(TransportKind::ClosedForm));
        assert_eq!(inner, Some(TransportKind::Engine));
        assert_eq!(TransportKind::current(), TransportKind::ClosedForm);
        TransportKind::override_transport(prev);
    }
}
