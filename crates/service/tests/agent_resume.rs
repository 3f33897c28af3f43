//! The kill/resume split: a run cut at a checkpoint and resumed must
//! reproduce the uninterrupted run's report, session stream and soak
//! table byte-for-byte. Plus the failure half of the contract: a sick
//! export plane must not cost the final checkpoint.

use roam_measure::{Dataset, MemorySink, RunMode};
use roam_service::{Agent, AgentState, Horizon, Outcome, ServiceConfig};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

fn sessions_of(mem: &Arc<Mutex<MemorySink>>) -> String {
    mem.lock()
        .unwrap()
        .clone()
        .into_tables()
        .into_iter()
        .find(|(ds, _)| *ds == Dataset::Sessions)
        .map(|(_, csv)| csv)
        .unwrap_or_default()
}

#[test]
fn a_run_split_at_a_checkpoint_matches_the_straight_run() {
    let config = ServiceConfig {
        users: 150,
        cohorts: 3,
        ..ServiceConfig::default()
    };

    // Straight through: 21 sim-days in one process.
    let mem_a = Arc::new(Mutex::new(MemorySink::default()));
    let mut straight = Agent::new(77, config).unwrap().sink(mem_a.clone());
    let run_a = straight.run(Horizon::SimDays(21), None).unwrap();

    // Split: 10 days, snapshot (the exact frame a cadence checkpoint
    // writes), decode through the wire format, resume, finish to 21.
    let mem_b = Arc::new(Mutex::new(MemorySink::default()));
    let mut first = Agent::new(77, config)
        .unwrap()
        .mode(RunMode::Parallel(3))
        .sink(mem_b.clone());
    first.run(Horizon::SimDays(10), None).unwrap();
    let frame = first.state().to_frame();
    drop(first);
    let (parsed, _) = roam_codec::Frame::parse(&frame).unwrap();
    let state = AgentState::decode(parsed.payload).unwrap();
    let mut second = Agent::resume(state).unwrap().sink(mem_b.clone());
    let run_b = second.run(Horizon::SimDays(21), None).unwrap();

    assert_eq!(run_a.render(), run_b.render(), "split run drifted");
    assert_eq!(run_a.soak_frame(), run_b.soak_frame());
    assert_eq!(sessions_of(&mem_a), sessions_of(&mem_b));
    assert_eq!(run_a.fires, run_b.fires, "fire counts are cumulative");
}

/// A SIGTERM drain with a *sick* export plane (every durable sync
/// fails) must still write the final checkpoint and come back as a
/// typed outcome — never a panic mid-drain. The sink failure rides
/// along in `AgentRun::sink_error` and the recorded durable offset
/// stays at the last successful sync (here: zero).
#[test]
fn halt_with_a_sick_sink_still_cuts_the_final_checkpoint() {
    let dir = std::env::temp_dir().join(format!("roam-sick-sink-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServiceConfig {
        users: 40,
        cohorts: 2,
        ..ServiceConfig::default()
    };
    let mem = Arc::new(Mutex::new(MemorySink::default()));
    let mut agent = Agent::new(9, config)
        .unwrap()
        .sink(mem)
        .sync_hook(|| Err(std::io::Error::other("disk on fire")))
        .checkpoint(dir.clone());
    // Halt pre-set: the very first loop iteration takes the drain path.
    let halt = AtomicBool::new(true);
    let run = agent.run(Horizon::SimDays(30), Some(&halt)).unwrap();
    assert_eq!(run.outcome, Outcome::Drained);
    let err = run.sink_error.as_deref().expect("sync failure surfaced");
    assert!(err.contains("disk on fire"), "{err}");
    assert_eq!(run.export_bytes, 0, "no sync ever succeeded");
    assert!(
        dir.join(roam_service::AGENT_FILE).exists(),
        "the final checkpoint was still written"
    );
    // And the frame is loadable: the sick sink cost the CSV tail, not
    // the resume path.
    let state = AgentState::load(&dir).unwrap().expect("frame present");
    assert_eq!(state.export_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The agent fingerprints its knobs once and stamps that value into
/// every checkpoint: each cadence frame it writes must be byte-identical
/// to one sealed with a freshly computed fingerprint.
#[test]
fn every_cadence_checkpoint_carries_the_fresh_fingerprint() {
    let dir = std::env::temp_dir().join(format!("roam-cached-fp-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServiceConfig {
        users: 40,
        cohorts: 2,
        ckpt_days: 3,
        ..ServiceConfig::default()
    };
    let mut agent = Agent::new(13, config).unwrap().checkpoint(dir.clone());
    for day in [4, 8, 12] {
        agent.run(Horizon::SimDays(day), None).unwrap();
        let written = std::fs::read(dir.join(roam_service::AGENT_FILE)).unwrap();
        let state = AgentState::load(&dir).unwrap().expect("frame present");
        assert_eq!(state.to_frame(), written, "day {day}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
