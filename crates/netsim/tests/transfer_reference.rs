//! The transfer-time contract: [`transfer_time_ms`] is bit-for-bit the
//! same TCP phase model stepped through a discrete-event calendar — one
//! event per congestion window, the clock advanced by popping a binary
//! heap rather than by accumulating a float. The closed form quantises
//! every phase delta to the simulation clock's nanosecond grid exactly
//! like the calendar does when it schedules that phase, so the two must
//! agree on every bit of every `f64`, not merely to a tolerance.

use proptest::prelude::*;
use roam_netsim::throughput::{mathis_cap_mbps, transfer_time_ms, TransferSpec};
use roam_netsim::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// TCP segment size of the window model, bytes.
const MSS: f64 = 1460.0;
/// Initial congestion window (RFC 6928), segments.
const INIT_CWND_SEGMENTS: f64 = 10.0;

/// What the reference calendar is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TransferEvent {
    /// Protocol setup (handshake RTTs) finished; first window may go out.
    SetupDone,
    /// A slow-start window was acknowledged; the next may go out.
    WindowAcked,
    /// The last byte cleared the path.
    Done,
}

/// A binary min-heap calendar of `(time, seq, event)`, `seq` breaking
/// same-instant ties in scheduling order.
#[derive(Default)]
struct Calendar {
    heap: BinaryHeap<Reverse<(SimTime, u64, TransferEvent)>>,
    next_seq: u64,
    now: SimTime,
}

impl Calendar {
    fn schedule(&mut self, at: SimTime, event: TransferEvent) {
        assert!(at >= self.now, "reference scheduled in the past");
        self.heap.push(Reverse((at, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn schedule_after(&mut self, delay: SimTime, event: TransferEvent) {
        self.schedule(self.now.after(delay), event);
    }

    fn pop(&mut self) -> Option<TransferEvent> {
        let Reverse((at, _, event)) = self.heap.pop()?;
        self.now = at;
        Some(event)
    }
}

/// Completion time of `spec` in ms: setup, then slow start doubling from
/// the initial window each RTT until the window reaches the
/// bandwidth-delay product, then the rest drained at the effective rate
/// (the policy rate capped by the Mathis loss/RTT ceiling per stream).
fn reference_ms(spec: &TransferSpec) -> f64 {
    assert!(spec.bytes >= 0.0 && spec.rtt_ms > 0.0 && spec.policy_rate_mbps > 0.0);
    let streams = f64::from(spec.parallel.max(1));
    let effective_mbps = spec
        .policy_rate_mbps
        .min(streams * mathis_cap_mbps(spec.rtt_ms, spec.loss));
    let rate_bytes_per_ms = effective_mbps * 1e6 / 8.0 / 1e3;
    let bdp_bytes = rate_bytes_per_ms * spec.rtt_ms;

    let mut q = Calendar::default();
    q.schedule(
        SimTime::from_ms(spec.setup_rtts * spec.rtt_ms),
        TransferEvent::SetupDone,
    );
    let mut remaining = spec.bytes;
    let mut cwnd = streams * INIT_CWND_SEGMENTS * MSS;
    while let Some(ev) = q.pop() {
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
                        q.schedule_after(SimTime::from_ms(spec.rtt_ms), TransferEvent::WindowAcked);
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
    q.now.as_ms()
}

/// Require the closed form and the reference to agree on every bit.
fn assert_bit_equal(spec: &TransferSpec) {
    let closed = transfer_time_ms(spec);
    let reference = reference_ms(spec);
    assert_eq!(
        closed.to_bits(),
        reference.to_bits(),
        "closed={closed} reference={reference} for {spec:?}"
    );
}

fn spec(
    bytes: f64,
    rtt: f64,
    rate: f64,
    loss: f64,
    setup_rtts: f64,
    parallel: u32,
) -> TransferSpec {
    TransferSpec {
        bytes,
        rtt_ms: rtt,
        policy_rate_mbps: rate,
        loss,
        setup_rtts,
        parallel,
    }
}

fn transfer_spec() -> impl Strategy<Value = TransferSpec> {
    // Repeated arms stand in for weights (the vendored `prop_oneof!` is
    // uniform): exact zeros are corner cases the closed form branches on.
    let bytes = prop_oneof![Just(0.0), 1.0f64..100_000.0, 1.0f64..2e9, 1.0f64..2e9];
    let loss = prop_oneof![Just(0.0), 1e-6f64..0.3, 1e-6f64..0.3];
    let setup = prop_oneof![Just(0.0), 0.0f64..6.0, (0u8..6).prop_map(f64::from)];
    (
        bytes,
        prop_oneof![1e-6f64..1.0, 0.1f64..2_000.0, 0.1f64..2_000.0],
        prop_oneof![0.01f64..5.0, 0.01f64..1_000.0, 0.01f64..1_000.0],
        loss,
        setup,
        0u32..33,
    )
        .prop_map(|(bytes, rtt, rate, loss, setup, parallel)| {
            spec(bytes, rtt, rate, loss, setup, parallel)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16_384))]

    /// Random transfers across both regimes (RTT-bound small objects and
    /// rate-bound bulk), with loss, parallelism and setup in play.
    #[test]
    fn closed_form_is_the_stepped_model_bit_for_bit(s in transfer_spec()) {
        assert_bit_equal(&s);
    }
}

#[test]
fn corner_cases_agree_bit_for_bit() {
    let cases = [
        // Zero bytes: setup plus half an RTT.
        spec(0.0, 100.0, 10.0, 0.0, 3.0, 1),
        spec(0.0, 0.001, 1_000.0, 0.05, 0.0, 0),
        // Zero loss: the policy rate binds and the Mathis cap is infinite.
        spec(30_000.0, 400.0, 20.0, 0.0, 3.0, 1),
        spec(50e6, 40.0, 10.0, 0.0, 3.0, 1),
        // `parallel` 0 is one stream.
        spec(50e6, 80.0, 100.0, 0.002, 3.0, 0),
        spec(25e6, 361.0, 12.0, 0.01, 3.0, 0),
        // No setup round trips.
        spec(30_000.0, 100.0, 20.0, 0.0, 0.0, 1),
        spec(1e9, 250.0, 50.0, 0.001, 0.0, 8),
        // Tiny RTTs: the first window already fills the pipe.
        spec(1e6, 1e-6, 100.0, 0.0, 1.0, 1),
        spec(14_600.0, 1e-3, 0.5, 0.1, 2.0, 4),
        // A window that exactly drains the object.
        spec(14_600.0, 200.0, 100.0, 0.0, 1.0, 1),
        spec(43_800.0, 200.0, 100.0, 0.0, 1.0, 1),
        // Heavy loss across many streams.
        spec(50e6, 80.0, 100.0, 0.002, 3.0, 8),
        spec(5e8, 600.0, 1_000.0, 0.3, 4.0, 32),
    ];
    for s in &cases {
        assert_bit_equal(s);
    }
}
