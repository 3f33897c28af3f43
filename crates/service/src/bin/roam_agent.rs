//! The long-running measurement agent.
//!
//! ```text
//! roam_agent run --sim-days 30 [--seed 42] [--out agent-out]
//! roam_agent run --until-idle  [--seed 42] [--out agent-out]
//! ```
//!
//! Service knobs come from `ROAM_SERVICE_*` (see `ServiceConfig`);
//! execution knobs from the repo-wide `ROAM_PARALLEL`, `ROAM_FAULTS`,
//! `ROAM_TELEMETRY`, each resolved once when the agent
//! is built (a resumed agent keeps its checkpoint's faults and
//! telemetry). When
//! `ROAM_CHECKPOINT_DIR` is set the agent writes `agent.ckpt` there
//! every `ROAM_SERVICE_CKPT` sim-days — and on SIGTERM/SIGINT, after
//! draining the export queue. Restarting with the same checkpoint dir
//! resumes mid-schedule: the session CSV is truncated to the durable
//! offset the frame recorded and the run continues byte-for-byte as if
//! never interrupted.
//!
//! Artifacts in `--out`: `sessions.csv` (streamed session records),
//! `soak.frame` + `soak.csv` (per-vantage soak table, sim-week keyed),
//! `report.txt` (the fixed-layout agent report, also printed to
//! stdout). Exit status: 0 completed, 75 drained-on-signal (resume to
//! continue), 74 the export sink went sick mid-run (the report and
//! checkpoint are complete; `sessions.csv` stops at the durable
//! offset), 1 error.

use roam_measure::{Dataset, RunMode, SharedSink};
use roam_service::{Agent, AgentState, CsvFile, Horizon, Outcome, ServiceConfig};
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

static HALT: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signals() {
    extern "C" fn on_signal(_sig: i32) {
        HALT.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signals() {}

fn die(msg: &str) -> ! {
    eprintln!("roam_agent: {msg}");
    exit(1);
}

fn usage() -> ! {
    eprintln!("usage: roam_agent run (--sim-days N | --until-idle) [--seed N] [--out DIR]");
    exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("run") {
        usage();
    }
    let mut seed: u64 = 42;
    let mut horizon: Option<Horizon> = None;
    let mut out = PathBuf::from("agent-out");
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed: not a u64"));
            }
            "--sim-days" => {
                let n = value("--sim-days")
                    .parse()
                    .unwrap_or_else(|_| die("--sim-days: not a u64"));
                horizon = Some(Horizon::SimDays(n));
            }
            "--until-idle" => horizon = Some(Horizon::UntilIdle),
            "--out" => out = PathBuf::from(value("--out")),
            _ => usage(),
        }
    }
    let Some(horizon) = horizon else { usage() };

    let config = ServiceConfig::from_env();
    if let Err(e) = config.validate() {
        die(&e.to_string());
    }
    std::fs::create_dir_all(&out).unwrap_or_else(|e| die(&format!("{}: {e}", out.display())));
    let sessions_path = out.join("sessions.csv");
    let ckpt_dir = std::env::var("ROAM_CHECKPOINT_DIR").ok().map(PathBuf::from);

    // Resume when a checkpoint plane is configured and holds a frame;
    // refuse drifted knobs rather than silently diverging from it.
    let resumed = match &ckpt_dir {
        Some(dir) => match AgentState::load(dir) {
            Ok(state) => state,
            Err(e) => die(&format!("refusing to resume: {e}")),
        },
        None => None,
    };
    let (agent, csv) = match resumed {
        Some(state) => {
            if state.seed != seed {
                die(&format!(
                    "refusing to resume: checkpoint seed {} != --seed {seed}",
                    state.seed
                ));
            }
            if state.config != config {
                die("refusing to resume: ROAM_SERVICE_* knobs drifted from the checkpoint");
            }
            eprintln!(
                "roam_agent: resuming at sim-day {} ({} sessions streamed)",
                state.clock.as_nanos() / roam_service::task::DAY_NS,
                state.streamed
            );
            let bytes = state.export_bytes;
            let agent = Agent::resume(state).unwrap_or_else(|e| die(&format!("resume: {e}")));
            let csv = CsvFile::resume(&sessions_path, Dataset::Sessions, bytes)
                .unwrap_or_else(|e| die(&format!("{}: {e}", sessions_path.display())));
            (agent, csv)
        }
        None => {
            let agent = Agent::new(seed, config).unwrap_or_else(|e| die(&e.to_string()));
            let csv = CsvFile::create(&sessions_path, Dataset::Sessions)
                .unwrap_or_else(|e| die(&format!("{}: {e}", sessions_path.display())));
            (agent, csv)
        }
    };

    let shared = Arc::new(Mutex::new(csv));
    let sink: SharedSink = shared.clone();
    let hook_target = Arc::clone(&shared);
    let mut agent = agent
        .mode(RunMode::from_env())
        .sink(sink)
        .sync_hook(move || hook_target.lock().expect("csv sink poisoned").sync());
    if let Some(dir) = ckpt_dir {
        agent = agent.checkpoint(dir);
    }

    install_signals();
    let run = match agent.run(horizon, Some(&HALT)) {
        Ok(run) => run,
        Err(e) => die(&e.to_string()),
    };

    let report = run.render();
    let frame = run.soak_frame();
    let mut soak_csv = String::new();
    match roam_columnar::TableView::parse_frame(&frame) {
        Ok(view) => roam_columnar::render_csv(&view, &mut soak_csv),
        Err(e) => die(&format!("soak frame: {e}")),
    }
    for (name, bytes) in [
        ("report.txt", report.as_bytes()),
        ("soak.frame", frame.as_slice()),
        ("soak.csv", soak_csv.as_bytes()),
    ] {
        let path = out.join(name);
        std::fs::write(&path, bytes).unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
    }
    print!("{report}");
    if let Outcome::Drained = run.outcome {
        eprintln!(
            "roam_agent: drained on signal at sim-day {}; resume with the same checkpoint dir",
            run.clock.as_nanos() / roam_service::task::DAY_NS
        );
        if run.sink_error.is_none() {
            exit(75);
        }
    }
    if let Some(err) = &run.sink_error {
        eprintln!(
            "roam_agent: export sink went sick mid-run ({err}); sessions.csv is durable up to byte {}",
            run.export_bytes
        );
        exit(74);
    }
}
