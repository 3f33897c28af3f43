//! Population-scale smoke harness for the fleet generator.
//!
//! Stdout carries *only* the byte-stable [`FleetReport`] render — in
//! every mode, including worker processes (`ROAM_FLEET_WORKERS`, whose
//! children talk to the parent over private pipes) and a resumed run —
//! so CI can diff two invocations directly:
//!
//! ```sh
//! ROAM_FLEET_USERS=100000 ROAM_FLEET_SHARDS=1 fleet_smoke > a.txt
//! ROAM_FLEET_USERS=100000 ROAM_FLEET_SHARDS=8 ROAM_PARALLEL=4 fleet_smoke > b.txt
//! cmp a.txt b.txt
//! ```
//!
//! Throughput and per-shard wall times go to stderr — they are real
//! wall-clock measurements and must stay out of the comparable bytes.
//! The machine-parseable `fleet_smoke_users_per_sec:` gate line is
//! emitted by [`roam_bench::emit_users_per_sec`], the one place its
//! format and stream are defined.
//!
//! With `ROAM_RESUME=1` the harness resumes the checkpoint directory in
//! `ROAM_CHECKPOINT_DIR` instead of starting fresh (the kill-and-resume
//! CI job SIGKILLs a checkpointing run, then re-invokes with this knob).
//! A stale or damaged directory is refused with the typed
//! [`roam_fleet::ResumeError`] on stderr and a nonzero exit — never a
//! silent restart.
//!
//! `ROAM_FLEET_EXPORT=csv:<path>` or `columnar:<path>` attaches a
//! session [`DataSink`](roam_measure::DataSink) to the run and writes
//! the streamed `sessions` dataset to `<path>` — as the CSV table or as
//! a sealed columnar frame. The export rides the in-process backend
//! only (the sink contract), so it refuses `ROAM_FLEET_WORKERS` > 0 and
//! resumed runs. Stdout bytes are unaffected either way.
//!
//! Knobs: `ROAM_FLEET_USERS/SHARDS/DAYS/SAMPLE/MIX`, `ROAM_PARALLEL`,
//! `ROAM_FLEET_WORKERS`, `ROAM_CHECKPOINT_DIR`, `ROAM_CHECKPOINT_EVERY`,
//! `ROAM_RESUME`, `ROAM_TELEMETRY`,
//! `ROAM_FAULTS`, `ROAM_SEED`, `ROAM_FLEET_EXPORT`, and the worker
//! chaos/supervision plane: `ROAM_WORKER_FAULTS`, `ROAM_WORKER_RETRIES`,
//! `ROAM_WORKER_DEADLINE_MS` (recovery work is reported on stderr as
//! `fleet_smoke_worker_restarts: N (...)`; stdout bytes never change).
//!
//! [`FleetReport`]: roam_fleet::FleetReport

use roam_fleet::FleetRunner;
use roam_measure::{ColumnarSink, Dataset, MemorySink, SharedSink};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The parsed `ROAM_FLEET_EXPORT` knob: which rendering, and where.
enum ExportSpec {
    Csv(String),
    Columnar(String),
}

fn export_spec() -> Result<Option<ExportSpec>, String> {
    let Some(raw) = std::env::var("ROAM_FLEET_EXPORT")
        .ok()
        .filter(|s| !s.trim().is_empty())
    else {
        return Ok(None);
    };
    match raw.split_once(':') {
        Some(("csv", path)) if !path.is_empty() => Ok(Some(ExportSpec::Csv(path.to_string()))),
        Some(("columnar", path)) if !path.is_empty() => {
            Ok(Some(ExportSpec::Columnar(path.to_string())))
        }
        _ => Err(format!(
            "ROAM_FLEET_EXPORT={raw:?} — expected csv:<path> or columnar:<path>"
        )),
    }
}

fn resume_requested() -> bool {
    std::env::var("ROAM_RESUME")
        .map(|v| !matches!(v.trim(), "" | "0" | "false"))
        .unwrap_or(false)
}

fn main() -> ExitCode {
    let seed = std::env::var("ROAM_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(42);
    let runner = if resume_requested() {
        let Some(dir) = std::env::var("ROAM_CHECKPOINT_DIR")
            .ok()
            .filter(|s| !s.trim().is_empty())
        else {
            eprintln!("fleet_smoke: ROAM_RESUME is set but ROAM_CHECKPOINT_DIR is not");
            return ExitCode::from(2);
        };
        match FleetRunner::resume(&dir) {
            Ok(runner) => runner,
            Err(err) => {
                eprintln!("fleet_smoke: refusing to resume {dir}: {err}");
                return ExitCode::from(2);
            }
        }
    } else {
        FleetRunner::from_env(seed)
    };
    let users = runner.population();

    let spec = match export_spec() {
        Ok(spec) => spec,
        Err(msg) => {
            eprintln!("fleet_smoke: {msg}");
            return ExitCode::from(2);
        }
    };
    if spec.is_some() && resume_requested() {
        eprintln!("fleet_smoke: ROAM_FLEET_EXPORT cannot ride a resumed run (sink contract)");
        return ExitCode::from(2);
    }
    let csv_sink = Arc::new(Mutex::new(MemorySink::new()));
    let col_sink = Arc::new(Mutex::new(ColumnarSink::new()));
    let runner = match &spec {
        None => runner,
        Some(ExportSpec::Csv(_)) => runner.sink(csv_sink.clone() as SharedSink),
        Some(ExportSpec::Columnar(_)) => runner.sink(col_sink.clone() as SharedSink),
    };

    let started = Instant::now();
    let run = runner.run();
    let wall = started.elapsed().as_secs_f64();

    match &spec {
        None => {}
        Some(ExportSpec::Csv(path)) => {
            let sink = csv_sink.lock().expect("export sink poisoned");
            let table = sink
                .table(Dataset::Sessions)
                .map(str::to_owned)
                .unwrap_or_else(|| Dataset::Sessions.header_csv());
            drop(sink);
            if let Err(err) = std::fs::write(path, table) {
                eprintln!("fleet_smoke: writing {path}: {err}");
                return ExitCode::from(2);
            }
            eprintln!("fleet_smoke: wrote sessions CSV to {path}");
        }
        Some(ExportSpec::Columnar(path)) => {
            let sink = std::mem::take(&mut *col_sink.lock().expect("export sink poisoned"));
            let frame = sink
                .into_table(Dataset::Sessions)
                .map(|t| t.to_frame())
                .unwrap_or_default();
            if let Err(err) = std::fs::write(path, frame) {
                eprintln!("fleet_smoke: writing {path}: {err}");
                return ExitCode::from(2);
            }
            eprintln!("fleet_smoke: wrote sessions frame to {path}");
        }
    }

    print!("{}", run.report.render());

    eprintln!(
        "fleet_smoke: {users} users in {wall:.2}s across {} shard(s)",
        run.timings.len()
    );
    roam_bench::emit_users_per_sec(users, wall);
    // Supervision is invisible in stdout by contract; surface the
    // recovery work on stderr so chaos CI can assert it happened.
    let sup = &run.supervision;
    if sup.respawns + sup.retries + sup.quarantined > 0 || !sup.errors.is_empty() {
        eprintln!(
            "fleet_smoke_worker_restarts: {} (retries {}, quarantined {}, stalls {}, protocol {})",
            sup.respawns, sup.retries, sup.quarantined, sup.stalls, sup.protocol_errors
        );
    }
    for t in &run.timings {
        eprintln!("  {} {:.1} ms", t.key, t.wall_ms);
    }
    let telemetry = run.telemetry.render();
    if !telemetry.is_empty() {
        eprint!("{telemetry}");
    }
    if run.halted {
        eprintln!("fleet_smoke: run halted by checkpoint policy; resume with ROAM_RESUME=1");
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
