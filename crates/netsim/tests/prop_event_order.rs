//! The calendar-equivalence contract: the timing wheel pops events in
//! *identical* `(time, seq)` order to the binary-heap reference model —
//! including same-instant FIFO ties, schedule-while-popping interleavings
//! across slot/level/horizon boundaries, and reuse through `rewind()`.
//! This is the property that lets `ROAM_CALENDAR=heap` and the default
//! wheel produce byte-for-byte identical simulations.

use proptest::prelude::*;
use roam_netsim::{CalendarKind, EventQueue, SimTime};

/// One scripted action against both calendars.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + delay_ns` (relative keeps the script causal).
    After(u64),
    /// Schedule `copies` events at exactly `now` — a same-instant burst.
    Burst(u8),
    /// Pop once and compare.
    Pop,
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
        Just(Op::Pop),
        Just(Op::Rewind),
    ]
}

fn drain_and_compare(wheel: &mut EventQueue<u32>, heap: &mut EventQueue<u32>) {
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

    /// Run an arbitrary schedule/pop/rewind script against both backends
    /// in lockstep; every pop must return the same (time, event) pair, and
    /// a final drain must agree on the leftovers.
    #[test]
    fn wheel_pops_in_heap_order(ops in proptest::collection::vec(op(), 1..120)) {
        let mut wheel = EventQueue::with_kind(CalendarKind::Wheel);
        let mut heap = EventQueue::with_kind(CalendarKind::Heap);
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
                        heap.schedule(heap.now(), tag);
                        tag += 1;
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.pop(), heap.pop());
                    prop_assert_eq!(wheel.now(), heap.now());
                    prop_assert_eq!(wheel.len(), heap.len());
                }
                Op::Rewind => {
                    wheel.rewind();
                    heap.rewind();
                    prop_assert!(wheel.is_empty() && heap.is_empty());
                }
            }
        }
        drain_and_compare(&mut wheel, &mut heap);
    }

    /// Absolute-time stress: a pile of arbitrary timestamps (clustered by
    /// construction to force same-instant ties) scheduled up front pops in
    /// exact sorted-by-(time, seq) order, then the queues are rewound and
    /// reused to prove no state leaks across walks.
    #[test]
    fn preloaded_timestamps_pop_sorted_and_rewind_cleanly(
        times in proptest::collection::vec((0u64..1 << 54, 0u64..4), 1..300),
        rounds in 1usize..3,
    ) {
        let mut wheel = EventQueue::with_kind(CalendarKind::Wheel);
        let mut heap = EventQueue::with_kind(CalendarKind::Heap);
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

/// Same-instant FIFO, pinned explicitly (not just via the reference
/// model): bursts scheduled at one instant pop in scheduling order even
/// when the burst is interleaved with earlier and later events.
#[test]
fn same_instant_bursts_pop_fifo() {
    for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
        let mut q = EventQueue::with_kind(kind);
        let t = SimTime::from_ms(3.0);
        q.schedule(SimTime::from_ms(9.0), 100u32);
        for i in 0..32 {
            q.schedule(t, i);
        }
        q.schedule(SimTime::from_ms(1.0), 200);
        assert_eq!(q.pop(), Some((SimTime::from_ms(1.0), 200)), "{kind:?}");
        for i in 0..32 {
            assert_eq!(q.pop(), Some((t, i)), "{kind:?}");
        }
        assert_eq!(q.pop(), Some((SimTime::from_ms(9.0), 100)), "{kind:?}");
        assert!(q.pop().is_none());
    }
}

/// Rewound queues keep their buffers: scheduling the same load again
/// allocates nothing new, which is what lets the engine transport reuse
/// one per-thread calendar across every transfer it times.
#[test]
fn rewind_reuse_holds_capacity_steady() {
    for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
        let mut q = EventQueue::with_kind(kind);
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
            assert_eq!(q.capacity(), cap, "{kind:?} reallocated across runs");
        }
    }
}
