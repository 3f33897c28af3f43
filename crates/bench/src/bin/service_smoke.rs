//! Smoke harness for the long-running measurement agent.
//!
//! Stdout carries *only* the byte-stable [`AgentRun::render`] report, so
//! CI can diff two invocations across execution knobs directly:
//!
//! ```sh
//! ROAM_SERVICE_USERS=2000 service_smoke > a.txt
//! ROAM_SERVICE_USERS=2000 ROAM_PARALLEL=4 service_smoke > b.txt
//! cmp a.txt b.txt
//! ```
//!
//! Wall-clock throughput goes to stderr: the machine-parseable
//! `service_events_per_sec:` gate line is emitted by
//! [`roam_bench::emit_service_events_per_sec`], the one place its format
//! and stream are defined. A *service event* is a scheduler job fire or
//! a session record through the bounded export queue, so the rate covers
//! both the virtual-clock loop and the streaming path.
//!
//! The horizon is fixed at [`DAYS`] simulated days. Knobs:
//! `ROAM_SERVICE_*` (sizing), `ROAM_SEED`, plus the repo-wide
//! `ROAM_PARALLEL`, `ROAM_FAULTS`, `ROAM_TELEMETRY`.
//!
//! [`AgentRun::render`]: roam_service::AgentRun::render

use roam_measure::{MemorySink, RunMode};
use roam_service::{Agent, Horizon, ServiceConfig};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Simulated days the agent runs for.
const DAYS: u64 = 30;

fn main() -> ExitCode {
    let seed = std::env::var("ROAM_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(42);

    let config = ServiceConfig::from_env();
    let agent = match Agent::new(seed, config) {
        Ok(agent) => agent,
        Err(err) => {
            eprintln!("service_smoke: {err}");
            return ExitCode::from(2);
        }
    };
    // Stream sessions into a memory sink so the run exercises the
    // bounded-queue path, not just the scheduler loop.
    let mut agent = agent
        .mode(RunMode::from_env())
        .sink(Arc::new(Mutex::new(MemorySink::new())));

    let started = Instant::now();
    let run = match agent.run(Horizon::SimDays(DAYS), None) {
        Ok(run) => run,
        Err(err) => {
            eprintln!("service_smoke: {err}");
            return ExitCode::from(2);
        }
    };
    let wall = started.elapsed().as_secs_f64();

    print!("{}", run.render());

    eprintln!(
        "service_smoke: {DAYS} sim-days, {} fires, {} sessions streamed, {} soak rows in {wall:.2}s",
        run.fires,
        run.streamed,
        run.soak.len()
    );
    roam_bench::emit_service_events_per_sec(run.fires + run.streamed, wall);
    ExitCode::SUCCESS
}
