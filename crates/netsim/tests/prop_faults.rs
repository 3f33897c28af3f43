//! Fault-plane contracts: the Gilbert–Elliott realisation must converge
//! to its stationary distribution, a calendar's window lookup must agree
//! with a plain scan of its windows, and the fault windows a run observes
//! must be a pure function of (seed, spec).

use proptest::prelude::*;
use roam_netsim::engine::flow_seed;
use roam_netsim::link::LatencyModel;
use roam_netsim::{
    FaultCalendar, FaultPlane, FaultSpec, Flow, GilbertElliott, Network, NodeKind, ProbeError,
    SimTime,
};

/// The reference lookup: reduce `at` modulo the period, then check every
/// window in turn.
fn is_bad_by_scan(cal: &FaultCalendar, period_ns: u64, at: SimTime) -> bool {
    let t = at.as_nanos() % period_ns;
    cal.windows().iter().any(|&(s, e)| t >= s && t < e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over a period covering thousands of dwell cycles, the calendar
    /// realisation's bad-time fraction converges to `stationary_bad()`,
    /// and therefore the implied long-run loss to `stationary_loss()`.
    #[test]
    fn gilbert_elliott_converges_to_stationary(
        seed in any::<u64>(),
        mean_good_ms in 50.0f64..400.0,
        mean_bad_ms in 20.0f64..150.0,
        good_loss in 0.0f64..0.05,
        bad_loss in 0.3f64..1.0,
    ) {
        let model = GilbertElliott { mean_good_ms, mean_bad_ms, good_loss, bad_loss };
        // ~2000 mean cycles: the empirical fraction's relative sd is
        // ~sqrt(2/n) ≈ 3%, so a 15% relative (plus small absolute)
        // tolerance leaves no flake room while still detecting a broken
        // dwell distribution.
        let cycles = 2_000.0;
        let cal = model.calendar(seed, (mean_good_ms + mean_bad_ms) * cycles);
        let pb = cal.bad_fraction();
        let expect = model.stationary_bad();
        prop_assert!(
            (pb - expect).abs() < 0.15 * expect + 0.01,
            "bad fraction {pb} vs stationary {expect}"
        );
        let loss = pb * bad_loss + (1.0 - pb) * good_loss;
        let expect_loss = model.stationary_loss();
        prop_assert!(
            (loss - expect_loss).abs() < 0.15 * expect_loss + 0.01,
            "empirical loss {loss} vs stationary {expect_loss}"
        );
        // The realisation is internally consistent: sorted, disjoint,
        // in-period windows (the fraction above is derived from them).
        let mut prev_end = 0u64;
        for &(s, e) in cal.windows() {
            prop_assert!(s >= prev_end && e > s);
            prev_end = e;
        }
    }

    /// `is_bad`'s binary search answers exactly as a scan of every
    /// window, on calendars with heavy (many short windows) and light
    /// (few long windows) dwells: at each window's first, last and
    /// one-past-last nanosecond, at 0, and at times a whole number of
    /// periods later.
    #[test]
    fn window_lookup_matches_a_linear_scan(
        seed in any::<u64>(),
        period_ms in prop_oneof![100.0f64..1_000.0, 1_000.0f64..20_000.0],
        (mean_up_ms, mean_dark_ms) in prop_oneof![
            (50.0f64..600.0, 20.0f64..300.0),
            (1_000.0f64..8_000.0, 100.0f64..2_000.0),
        ],
        laps in 1u64..1_000,
    ) {
        let cal = FaultCalendar::dwell(seed, period_ms, mean_up_ms, mean_dark_ms);
        let period = SimTime::from_ms(period_ms).as_nanos().max(1);
        let mut times = vec![0, period - 1, period, laps * period, u64::MAX];
        for &(s, e) in cal.windows() {
            for t in [s, e - 1, e] {
                times.extend([t, t + period, t + laps * period]);
            }
        }
        for t in times {
            let at = SimTime::from_nanos(t);
            prop_assert_eq!(
                cal.is_bad(at),
                is_bad_by_scan(&cal, period, at),
                "t = {} ns, period {} ns, {} windows",
                t,
                period,
                cal.windows().len()
            );
        }
    }

    /// Calendar queries are pure functions of (seed, spec, entity):
    /// lazily materialised planes answer identically regardless of query
    /// order, which is what makes shard decomposition sound. Sparse ids
    /// up to 2,048 grow the plane's per-entity tables in every order.
    #[test]
    fn fault_plane_answers_are_query_order_free(
        master in any::<u64>(),
        entities in proptest::collection::vec((0u32..=2_048, 0u64..20_000), 1..24),
    ) {
        let spec = FaultSpec::heavy();
        let mut forward = FaultPlane::new(spec);
        let mut reverse = FaultPlane::new(spec);
        let answer = |plane: &mut FaultPlane, &(li, ms): &(u32, u64)| {
            let at = SimTime::from_ms(ms as f64);
            (
                plane.link_burst_loss(master, li, at).map(f64::to_bits),
                plane.cgnat_state(master, li, at),
                plane.dns_dark(master, li, at),
            )
        };
        let fwd: Vec<_> = entities.iter().map(|e| answer(&mut forward, e)).collect();
        let mut rev: Vec<_> = entities.iter().rev().map(|e| answer(&mut reverse, e)).collect();
        rev.reverse();
        prop_assert_eq!(fwd, rev);
    }
}

/// Build a small lossy topology with a dark-able gateway and run a fixed
/// probe schedule, returning every typed outcome plus the fault plane's
/// tallies.
fn probe_trace(seed: u64) -> (Vec<String>, u64, u64) {
    let mut net = Network::new(seed);
    net.set_faults(FaultSpec::heavy());
    let ue = net.add_node(
        "ue",
        NodeKind::Host,
        roam_geo::City::Doha,
        "10.0.0.2".parse().unwrap(),
    );
    let nat = net.add_node(
        "nat",
        NodeKind::CgNat,
        roam_geo::City::Lille,
        "141.95.2.2".parse().unwrap(),
    );
    let dst = net.add_node(
        "edge",
        NodeKind::SpEdge,
        roam_geo::City::Paris,
        "142.250.3.3".parse().unwrap(),
    );
    net.link_with(ue, nat, LatencyModel::fixed(45.0, 2.0), 0.02);
    net.link_with(nat, dst, LatencyModel::fixed(4.0, 0.5), 0.01);
    net.set_failover(nat, SimTime::from_ms(11.0));
    let mut flow = Flow::open(flow_seed(seed, "prop/faults/windows"));
    let outcomes: Vec<String> = (0..96)
        .map(|_| match net.rtt_probe_checked(ue, dst, &mut flow) {
            Ok(s) => format!("ok:{}:{}", s.rtt_ms.to_bits(), s.attempts),
            Err(ProbeError::Lost) => "lost".into(),
            Err(ProbeError::NoRoute) => "noroute".into(),
            Err(ProbeError::Silent) => "silent".into(),
        })
        .collect();
    (outcomes, net.fault_drops(), net.fault_failovers())
}

/// The fault windows — and everything a probe observes through them — are
/// a pure function of (seed, spec): two networks built alike agree
/// bit-for-bit on the exact per-probe outcome sequence, drop tally and
/// failover tally.
#[test]
fn fault_windows_replay_bit_for_bit() {
    let mut perturbed = false;
    for seed in [3u64, 17, 4242, 0x00C0_FFEE] {
        let first = probe_trace(seed);
        assert_eq!(
            first,
            probe_trace(seed),
            "seed {seed}: fault windows did not replay"
        );
        // Heavy's entity selection is fractional, so one seed may roll an
        // entirely healthy topology — but not all of them.
        perturbed |= first.1 > 0 || first.2 > 0 || first.0.iter().any(|o| o == "lost");
    }
    assert!(perturbed, "heavy schedule never perturbed any probe");
}
