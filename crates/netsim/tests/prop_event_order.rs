//! The calendar contract: the timing wheel pops events in *identical*
//! `(time, seq)` order to a binary-heap reference model — including
//! same-instant FIFO ties, schedule-while-popping interleavings across
//! slot/level/horizon boundaries, peeks that cascade the cursor, and
//! reuse through `rewind()`.

use proptest::prelude::*;
use roam_netsim::{EventQueue, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference calendar: a binary min-heap of `(time, seq, event)`,
/// where `seq` is the scheduling order — the pre-wheel implementation.
struct Heap<E: Ord> {
    heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
    next_seq: u64,
    now: SimTime,
}

impl<E: Ord> Heap<E> {
    fn new() -> Self {
        Heap {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "reference model scheduled in the past");
        self.heap.push(Reverse((at, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now.after(delay), event);
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, event)) = self.heap.pop()?;
        self.now = at;
        Some((at, event))
    }

    fn rewind(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }
}

/// One scripted action against both calendars.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + delay_ns` (relative keeps the script causal).
    After(u64),
    /// Schedule `copies` events at exactly `now` — a same-instant burst.
    Burst(u8),
    /// Pop once and compare.
    Pop,
    /// Peek the wheel (which may cascade its cursor), then pop and compare.
    PeekPop,
    /// Rewind both queues and keep going.
    Rewind,
}

fn op() -> impl Strategy<Value = Op> {
    // Repeated arms stand in for weights (the vendored `prop_oneof!` is
    // uniform): pops dominate so scripts actually drain what they build.
    prop_oneof![
        // Delays spanning sub-slot (< 2^16 ns), multi-slot, multi-level
        // and beyond-horizon (> 2^52 ns) magnitudes.
        (0u32..63).prop_map(|bits| Op::After(1u64 << bits)),
        (0u64..200_000_000).prop_map(Op::After),
        (0u64..200_000_000).prop_map(Op::After),
        (0u64..200_000_000).prop_map(Op::After),
        (1u8..8).prop_map(Op::Burst),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::PeekPop),
        Just(Op::Rewind),
    ]
}

fn drain_and_compare(wheel: &mut EventQueue<u32>, heap: &mut Heap<u32>) {
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h, "drain diverged");
        if w.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Run an arbitrary schedule/pop/rewind script against the wheel and
    /// the reference in lockstep; every pop must return the same
    /// (time, event) pair, and a final drain must agree on the leftovers.
    #[test]
    fn wheel_pops_in_heap_order(ops in proptest::collection::vec(op(), 1..120)) {
        let mut wheel = EventQueue::new();
        let mut heap = Heap::new();
        let mut tag = 0u32;
        for op in ops {
            match op {
                Op::After(delay_ns) => {
                    let d = SimTime::from_nanos(delay_ns);
                    wheel.schedule_after(d, tag);
                    heap.schedule_after(d, tag);
                    tag += 1;
                }
                Op::Burst(copies) => {
                    for _ in 0..copies {
                        wheel.schedule(wheel.now(), tag);
                        heap.schedule(heap.now, tag);
                        tag += 1;
                    }
                }
                Op::Pop | Op::PeekPop => {
                    if matches!(op, Op::PeekPop) {
                        let _ = wheel.peek();
                    }
                    prop_assert_eq!(wheel.pop(), heap.pop());
                    prop_assert_eq!(wheel.now(), heap.now);
                    prop_assert_eq!(wheel.len(), heap.heap.len());
                }
                Op::Rewind => {
                    wheel.rewind();
                    heap.rewind();
                    prop_assert!(wheel.is_empty());
                }
            }
        }
        drain_and_compare(&mut wheel, &mut heap);
    }

    /// Absolute-time stress: a pile of arbitrary timestamps (clustered by
    /// construction to force same-instant ties) scheduled up front pops in
    /// exact sorted-by-(time, seq) order, then the queue is rewound and
    /// reused to prove no state leaks across walks.
    #[test]
    fn preloaded_timestamps_pop_sorted_and_rewind_cleanly(
        times in proptest::collection::vec((0u64..1 << 54, 0u64..4), 1..300),
        rounds in 1usize..3,
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = Heap::new();
        for round in 0..rounds {
            for (i, &(coarse, jitter)) in times.iter().enumerate() {
                // Quantising coarse and re-adding a tiny jitter clusters
                // many entries into the same nanosecond.
                let at = SimTime::from_nanos((coarse >> 8 << 8) + jitter);
                wheel.schedule(at, i as u32);
                heap.schedule(at, i as u32);
            }
            let mut prev: Option<SimTime> = None;
            loop {
                let (w, h) = (wheel.pop(), heap.pop());
                prop_assert_eq!(w, h, "round {}", round);
                match w {
                    None => break,
                    Some((at, _)) => {
                        if let Some(p) = prev {
                            prop_assert!(at >= p, "time went backwards");
                        }
                        prev = Some(at);
                    }
                }
            }
            wheel.rewind();
            heap.rewind();
        }
    }
}

/// A walk-like workload: pop one, schedule the next hop relative to now,
/// across slot and level boundaries, with same-instant ties.
#[test]
fn wheel_interleaves_scheduling_with_popping() {
    let mut wheel = EventQueue::new();
    let mut heap = Heap::new();
    wheel.schedule(SimTime::ZERO, 0u64);
    heap.schedule(SimTime::ZERO, 0u64);
    let mut step = 0u64;
    while let Some((wt, we)) = wheel.pop() {
        let (ht, he) = heap.pop().expect("reference ran dry first");
        assert_eq!((wt, we), (ht, he));
        if step < 500 {
            step += 1;
            // Growing, slot-straddling delays: ~65 µs … ~8 ms.
            let delay = SimTime::from_nanos((step % 7 + 1) * 69_997 * (step % 17 + 1));
            wheel.schedule_after(delay, step);
            heap.schedule_after(delay, step);
            if step.is_multiple_of(3) {
                // Plus a same-instant tie.
                wheel.schedule(wheel.now(), step + 1000);
                heap.schedule(heap.now, step + 1000);
            }
        }
    }
    assert!(heap.pop().is_none());
}

/// A recurring-job pattern: drain an instant, peek (the wheel cascades
/// its cursor to the next occupied slot — possibly far ahead), then
/// schedule the next recurrence *earlier* than the peeked time. The
/// wheel must still deliver in the reference order.
#[test]
fn scheduling_behind_a_peeked_cursor_keeps_time_order() {
    const DAY: u64 = 86_400_000_000_000;
    let mut wheel = EventQueue::new();
    let mut heap = Heap::new();
    for (at, ev) in [(0, 0u32), (7 * DAY, 1u32)] {
        // A daily job firing at 0 and a weekly job.
        wheel.schedule(SimTime::from_nanos(at), ev);
        heap.schedule(SimTime::from_nanos(at), ev);
    }
    while let Some((at, ev)) = wheel.pop() {
        assert_eq!(heap.pop(), Some((at, ev)));
        let t = at.as_nanos();
        if ev == 0 && t < 10 * DAY {
            // Peek first — this cascades the cursor up to the weekly
            // entry before the daily one lands.
            let _ = wheel.peek();
            wheel.schedule(SimTime::from_nanos(t + DAY), 0);
            heap.schedule(SimTime::from_nanos(t + DAY), 0);
        }
    }
    assert!(heap.pop().is_none());
}

/// Same-instant FIFO, pinned explicitly (not just via the reference
/// model): bursts scheduled at one instant pop in scheduling order even
/// when the burst is interleaved with earlier and later events.
#[test]
fn same_instant_bursts_pop_fifo() {
    let mut q = EventQueue::new();
    let t = SimTime::from_ms(3.0);
    q.schedule(SimTime::from_ms(9.0), 100u32);
    for i in 0..32 {
        q.schedule(t, i);
    }
    q.schedule(SimTime::from_ms(1.0), 200);
    assert_eq!(q.pop(), Some((SimTime::from_ms(1.0), 200)));
    for i in 0..32 {
        assert_eq!(q.pop(), Some((t, i)));
    }
    assert_eq!(q.pop(), Some((SimTime::from_ms(9.0), 100)));
    assert!(q.pop().is_none());
}

/// A rewound queue keeps its buffers: scheduling the same load again
/// allocates nothing new, which is what lets the engine transport reuse
/// one per-thread calendar across every transfer it times.
#[test]
fn rewind_reuse_holds_capacity_steady() {
    let mut q = EventQueue::new();
    let run = |q: &mut EventQueue<u32>| {
        for hop in 0..24u64 {
            q.schedule(SimTime::from_nanos(hop * 3_000_017), hop as u32);
        }
        while q.pop().is_some() {}
        q.rewind();
    };
    run(&mut q);
    let cap = q.capacity();
    for _ in 0..64 {
        run(&mut q);
        assert_eq!(q.capacity(), cap, "reallocated across runs");
    }
}
