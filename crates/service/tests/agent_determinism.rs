//! The agent's byte-identity boundary: report, session stream and soak
//! table are invariant across thread modes and queue capacities.

use roam_measure::{Dataset, MemorySink, RunMode};
use roam_netsim::FaultSpec;
use roam_service::{Agent, Horizon, Outcome, ServiceConfig};
use roam_telemetry::TelemetryMode;
use std::sync::{Arc, Mutex};

fn small() -> ServiceConfig {
    ServiceConfig {
        users: 120,
        cohorts: 2,
        ..ServiceConfig::default()
    }
}

/// Run a small agent for `days` and return (report, sessions csv, soak frame).
fn run_once(mode: RunMode, queue_cap: usize, days: u64) -> (String, String, Vec<u8>) {
    let mut config = small();
    config.queue_cap = queue_cap;
    run_agent(Agent::new(11, config).unwrap().mode(mode), days)
}

/// Run `agent` for `days` into a memory sink and return (report,
/// sessions csv, soak frame).
fn run_agent(agent: Agent, days: u64) -> (String, String, Vec<u8>) {
    let mem = Arc::new(Mutex::new(MemorySink::default()));
    let mut agent = agent.sink(mem.clone());
    let run = agent.run(Horizon::SimDays(days), None).unwrap();
    assert_eq!(run.outcome, Outcome::Completed);
    let tables = mem.lock().unwrap().clone().into_tables();
    let sessions = tables
        .into_iter()
        .find(|(ds, _)| *ds == Dataset::Sessions)
        .map(|(_, csv)| csv)
        .unwrap_or_default();
    (run.render(), sessions, run.soak_frame())
}

#[test]
fn report_stream_and_soak_are_mode_and_queue_invariant() {
    let base = run_once(RunMode::Sequential, 8_192, 14);
    assert!(base.0.contains("jobs_fired"), "report renders:\n{}", base.0);
    assert!(
        base.1.lines().count() > 1,
        "session stream is non-empty: {} lines",
        base.1.lines().count()
    );
    for (mode, cap) in [
        (RunMode::Parallel(4), 8_192),
        (RunMode::Sequential, 3),
        (RunMode::Parallel(2), 1),
    ] {
        let other = run_once(mode, cap, 14);
        assert_eq!(base.0, other.0, "report drifted under {mode:?}/cap={cap}");
        assert_eq!(base.1, other.1, "sessions drifted under {mode:?}/cap={cap}");
        assert_eq!(base.2, other.2, "soak drifted under {mode:?}/cap={cap}");
    }
}

/// A fresh agent whose fault plane is `faults` whatever the process
/// environment says: `Agent::new`'s day-zero frame with its knobs
/// replaced, resumed.
fn fresh_under(faults: FaultSpec) -> Agent {
    let mut state = Agent::new(11, small()).unwrap().state();
    state.faults = faults;
    state.telemetry = TelemetryMode::Off;
    Agent::resume(state).unwrap()
}

/// FNV-1a-64 digests of the session CSV and the soak frame of a 14-day
/// `small()` run, faults off and `FaultSpec::heavy()`. Row counts alone
/// (as the smoke goldens pin them) would let a metric move between
/// columns or a failed session change status unnoticed.
#[test]
fn session_stream_and_soak_digests_are_pinned() {
    for (name, faults, want_csv, want_soak) in [
        (
            "off",
            FaultSpec::off(),
            0x624e_a8bb_1001_b39au64,
            0x954a_2ebd_baab_8849u64,
        ),
        (
            "heavy",
            FaultSpec::heavy(),
            0xa2a2_2866_6d01_0bde,
            0x7fe4_0caa_b65b_1ae6,
        ),
    ] {
        let (_, csv, soak) = run_agent(fresh_under(faults), 14);
        assert!(csv.lines().count() > 1, "{name}: empty session stream");
        let failed = csv.lines().filter(|l| !l.ends_with(",ok")).count() - 1;
        assert_eq!(failed > 0, name == "heavy", "{name}: {failed} non-ok rows");
        let got = (
            roam_codec::hash64(csv.as_bytes()),
            roam_codec::hash64(&soak),
        );
        assert_eq!(
            got,
            (want_csv, want_soak),
            "{name}: digests moved: csv {:#018x}, soak {:#018x}",
            got.0,
            got.1
        );
    }
}

#[test]
fn until_idle_drains_after_every_cohort_expires() {
    let mut config = small();
    config.ttl_ticks = 2;
    let mut agent = Agent::new(5, config).unwrap();
    let run = agent.run(Horizon::UntilIdle, None).unwrap();
    assert_eq!(run.outcome, Outcome::Completed);
    assert!(run.cohorts.iter().all(|c| c.expired && c.live() == 0));
    // Two ticks per cohort: the second lands on day 7, after which the
    // probe and calendar jobs retire; nothing fires past that instant.
    assert_eq!(run.clock.as_nanos(), 7 * 86_400_000_000_000);
}

#[test]
fn until_idle_without_a_ttl_is_refused() {
    let mut agent = Agent::new(5, small()).unwrap();
    let err = agent.run(Horizon::UntilIdle, None).err().expect("refused");
    assert!(err.to_string().contains("TTL"), "{err}");
}
