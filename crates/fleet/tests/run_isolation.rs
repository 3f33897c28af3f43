//! Run isolation: a fleet run's bytes are a pure function of its own
//! seed and knobs, even while another run with different knobs executes
//! in the same process. Each runner resolves its fault schedule once and
//! hands it to the worlds it builds, so nothing one run chooses can
//! reach another through process-wide state.

use roam_fleet::FleetRunner;
use roam_netsim::FaultSpec;
use roam_telemetry::TelemetryMode;

const SEED: u64 = 41;
const ROUNDS: usize = 4;

fn runner() -> FleetRunner {
    FleetRunner::new(SEED)
        .users(480)
        .shards(6)
        .days(8)
        .telemetry(TelemetryMode::Summary)
}

/// Heavy faults.
fn hostile() -> FleetRunner {
    runner().faults(FaultSpec::heavy())
}

/// No faults.
fn quiet() -> FleetRunner {
    runner().faults(FaultSpec::off())
}

/// The report and telemetry renders of one run.
fn bytes(runner: &FleetRunner) -> (String, String) {
    let run = runner.run();
    (run.report.render(), run.telemetry.render())
}

#[test]
fn concurrent_runs_render_their_solo_bytes() {
    let hostile_alone = bytes(&hostile());
    let quiet_alone = bytes(&quiet());
    assert_ne!(
        hostile_alone.0, quiet_alone.0,
        "the two knob sets must render differently, or a leak could not show"
    );
    for round in 0..ROUNDS {
        let (h, q) = std::thread::scope(|s| {
            let h = s.spawn(|| bytes(&hostile()));
            let q = s.spawn(|| bytes(&quiet()));
            (
                h.join().expect("hostile run panicked"),
                q.join().expect("quiet run panicked"),
            )
        });
        assert_eq!(
            h, hostile_alone,
            "round {round}: the heavy-fault run saw another run's knobs"
        );
        assert_eq!(
            q, quiet_alone,
            "round {round}: the fault-free run saw another run's knobs"
        );
    }
}
