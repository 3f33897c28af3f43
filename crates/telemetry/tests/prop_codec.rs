//! Property tests for the telemetry snapshot wire form. A snapshot that
//! crosses a checkpoint file or a worker pipe must come back carrying the
//! exact float bit patterns it left with (histogram sums are sequential
//! `f64` accumulations — the resume path *continues* them, so even the
//! lowest mantissa bit matters), and merging decoded shard snapshots must
//! match merging the originals.

use proptest::prelude::*;
use roam_codec::{Decoder, Encoder};
use roam_telemetry::{
    merge_shards, Counter, Event, EventScope, Hist, Recorder, TelemetryMode, TelemetrySnapshot,
};

/// One recorded action: a counter bump, a histogram observation or an
/// event push, in recording order.
#[derive(Debug, Clone)]
enum Action {
    Add(usize, u64),
    Observe(usize, f64),
    Push(u64, Option<String>, usize, Option<f64>, Option<u32>),
}

fn arb_value() -> impl Strategy<Value = f64> {
    // Finite arm repeated for weight: non-finite values stay a minority
    // of each stream, but every run still exercises them.
    prop_oneof![
        -1e6f64..1e6,
        -1e6f64..1e6,
        -1e6f64..1e6,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

fn arb_action() -> impl Strategy<Value = Action> {
    let arb_push = (
        any::<u64>(),
        (any::<bool>(), "[a-z/0-9]{1,12}").prop_map(|(some, key)| some.then_some(key)),
        0usize..5,
        (any::<bool>(), arb_value()).prop_map(|(some, v)| some.then_some(v)),
        (any::<bool>(), any::<u32>()).prop_map(|(some, a)| some.then_some(a)),
    )
        .prop_map(|(id, shard, kind, value, attempts)| {
            Action::Push(id, shard, kind, value, attempts)
        });
    prop_oneof![
        (0usize..Counter::ALL.len(), 0u64..1000).prop_map(|(c, n)| Action::Add(c, n)),
        (0usize..Hist::ALL.len(), arb_value()).prop_map(|(h, v)| Action::Observe(h, v)),
        arb_push,
    ]
}

const KINDS: [&str; 5] = ["rtt", "traceroute", "measurement", "plan", "shard"];

fn record(actions: &[Action]) -> TelemetrySnapshot {
    let mut r = Recorder::new(TelemetryMode::Jsonl);
    for a in actions {
        match a {
            Action::Add(c, n) => r.add(Counter::ALL[*c], *n),
            Action::Observe(h, v) => r.observe(Hist::ALL[*h], *v),
            Action::Push(id, shard, kind, value, attempts) => r.push_event(Event {
                at_ns: *id % 1000,
                scope: match shard {
                    Some(key) => EventScope::Shard(key.clone()),
                    None => EventScope::Flow(*id),
                },
                kind: KINDS[*kind],
                label: format!("label/{id}"),
                value: *value,
                attempts: *attempts,
            }),
        }
    }
    r.take()
}

fn round_trip(snap: &TelemetrySnapshot) -> TelemetrySnapshot {
    let mut e = Encoder::new();
    snap.encode_fields(&mut e);
    let bytes = e.into_bytes();
    TelemetrySnapshot::decode_fields(&mut Decoder::new(&bytes)).expect("clean round trip")
}

/// Bit-exact snapshot equality: `PartialEq` would treat NaN sums and NaN
/// event values as unequal, which is exactly the case the codec must
/// preserve.
fn assert_bit_identical(a: &TelemetrySnapshot, b: &TelemetrySnapshot) {
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.hists.len(), b.hists.len());
    for (x, y) in a.hists.iter().zip(&b.hists) {
        assert_eq!(x.series(), y.series());
        assert_eq!(x.buckets(), y.buckets());
        assert_eq!(x.count(), y.count());
        assert_eq!(x.sum().to_bits(), y.sum().to_bits());
    }
    assert_eq!(a.events.len(), b.events.len());
    for (x, y) in a.events.iter().zip(&b.events) {
        assert_eq!(x.at_ns, y.at_ns);
        assert_eq!(&x.scope, &y.scope);
        assert_eq!(x.kind, y.kind);
        assert_eq!(&x.label, &y.label);
        assert_eq!(x.value.map(f64::to_bits), y.value.map(f64::to_bits));
        assert_eq!(x.attempts, y.attempts);
    }
}

proptest! {
    #[test]
    fn snapshot_round_trip_is_bit_identical(
        actions in proptest::collection::vec(arb_action(), 0..60),
    ) {
        let snap = record(&actions);
        assert_bit_identical(&round_trip(&snap), &snap);
    }

    #[test]
    fn decoded_shard_snapshots_merge_like_in_memory_ones(
        left in proptest::collection::vec(arb_action(), 0..40),
        right in proptest::collection::vec(arb_action(), 0..40),
    ) {
        let (a, b) = (record(&left), record(&right));
        let mem = merge_shards(
            TelemetryMode::Jsonl,
            vec![("s/000".to_string(), a.clone()), ("s/001".to_string(), b.clone())],
        );
        let wire = merge_shards(
            TelemetryMode::Jsonl,
            vec![("s/000".to_string(), round_trip(&a)), ("s/001".to_string(), round_trip(&b))],
        );
        // The merged reports render identically — the user-visible
        // equality the fleet plane depends on.
        prop_assert_eq!(wire.render(), mem.render());
    }
}
