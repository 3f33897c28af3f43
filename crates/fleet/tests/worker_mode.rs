//! The worker-process backend contract: shards executed in child
//! processes, streaming partial state back over pipes in sealed codec
//! frames, must render byte-identically to the in-process backend — on
//! their own, under heavy faults, and through a halt-and-resume cycle.
//!
//! Cargo points `CARGO_BIN_EXE_fleet_worker` at the freshly built
//! worker for these tests, so discovery is exact and the tests never
//! depend on `PATH` or the environment.

use roam_fleet::FleetRunner;
use roam_netsim::FaultSpec;
use roam_telemetry::TelemetryMode;
use std::path::PathBuf;

const SEED: u64 = 31;
const USERS: u64 = 1_000;
const DAYS: u32 = 10;

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_fleet_worker")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "roam-worker-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base() -> FleetRunner {
    FleetRunner::new(SEED)
        .users(USERS)
        .shards(4)
        .days(DAYS)
        .telemetry(TelemetryMode::Summary)
}

#[test]
fn worker_processes_render_the_in_process_bytes() {
    let in_process = base().run();
    for workers in [1usize, 2, 4] {
        let distributed = base().workers(workers).worker_bin(worker_bin()).run();
        assert_eq!(
            distributed.report.render(),
            in_process.report.render(),
            "{workers} worker processes must not change the report"
        );
        assert_eq!(
            distributed.telemetry.render(),
            in_process.telemetry.render(),
            "telemetry crosses the pipe bit-identically"
        );
        assert_eq!(distributed.timings.len(), 4, "one timing row per shard");
    }
}

#[test]
fn worker_processes_agree_under_faults() {
    let in_process = base().faults(FaultSpec::heavy()).run();
    let distributed = base()
        .faults(FaultSpec::heavy())
        .workers(3)
        .worker_bin(worker_bin())
        .run();
    assert_eq!(distributed.report.render(), in_process.report.render());
    assert_eq!(
        distributed.report.degraded, in_process.report.degraded,
        "fault-plane tallies agree across backends"
    );
}

#[test]
fn workers_checkpoint_and_resume_byte_identically() {
    let straight = base().faults(FaultSpec::heavy()).run();
    let dir = temp_dir("resume");
    let halted = base()
        .faults(FaultSpec::heavy())
        .workers(2)
        .worker_bin(worker_bin())
        .checkpoint_dir(&dir)
        .checkpoint_every(u64::from(DAYS) * 10)
        .halt_after(1)
        .run();
    assert!(halted.halted, "workers honour halt_after");
    assert!(halted.report.users < straight.report.users);
    // Resume in worker mode as well — states ship to the children
    // inside their job frames.
    let resumed = FleetRunner::resume(&dir)
        .expect("worker-written checkpoints resume")
        .workers(2)
        .worker_bin(worker_bin())
        .run();
    assert!(!resumed.halted);
    assert_eq!(
        resumed.report.render(),
        straight.report.render(),
        "kill in worker mode, resume in worker mode, bytes unchanged"
    );
    assert_eq!(resumed.telemetry.render(), straight.telemetry.render());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_checkpoints_resume_in_process_too() {
    let straight = base().run();
    let dir = temp_dir("cross");
    let halted = base()
        .workers(2)
        .worker_bin(worker_bin())
        .checkpoint_dir(&dir)
        .checkpoint_every(u64::from(DAYS) * 10)
        .halt_after(1)
        .run();
    assert!(halted.halted);
    // The checkpoint format is backend-neutral: files written by worker
    // processes resume on the in-process backend.
    let resumed = FleetRunner::resume(&dir)
        .expect("cross-backend resume")
        .run();
    assert_eq!(resumed.report.render(), straight.report.render());
    std::fs::remove_dir_all(&dir).ok();
}
