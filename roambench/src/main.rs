//! The benchmark command.
//!
//! ```text
//! roambench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line
//! holds the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics and the span trace is written to
//! `roambench/out/trace-<workload>-seed<n>.jsonl`. Progress and the
//! human-readable report go to stderr.

use roambench::trace::Tracer;
use roambench::{
    agent, export, fleet, host, metric, result_json, stats, Ctx, Measured, Metric, PER_LAYER,
    WORKLOADS,
};
use std::path::PathBuf;
use std::process::exit;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("roambench: {msg}");
    eprintln!(
        "usage: roambench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed takes an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds takes a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Threads and processes each workload uses, for the report.
fn shape(workload: &str, ctx: &Ctx) -> String {
    let (shards, threads) = (2 * ctx.nproc, ctx.threads);
    match workload {
        "fleet-population" => format!("{shards} shards on {threads} thread(s)"),
        "fleet-chaos-resume" => format!("{shards} shards on {threads} worker process(es)"),
        "agent-soak" => format!("cohort ticks of 4 sub-shards on {threads} thread(s)"),
        _ => format!("session generation on {threads} thread(s); export and queries on 1"),
    }
}

fn untraced(ctx: &Ctx, workload: &str) -> Result<Measured, String> {
    match workload {
        "fleet-population" => fleet::population(ctx),
        "fleet-chaos-resume" => fleet::chaos(ctx),
        "agent-soak" => agent::soak(ctx),
        _ => export::export_query(ctx),
    }
}

fn traced(ctx: &Ctx, workload: &str, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    match workload {
        "fleet-population" => fleet::population_traced(ctx, tracer),
        "fleet-chaos-resume" => fleet::chaos_traced(ctx, tracer),
        "agent-soak" => agent::soak_traced(ctx, tracer),
        _ => export::export_query_traced(ctx, tracer),
    }
}

fn describe(name: &str, unit: &str, v: &[f64]) {
    let (q1, q2, q3) = stats::quartiles(v);
    eprintln!(
        "  {name:<32} median {q2:>14.6} {unit:<8} q1 {q1:.6}  q3 {q3:.6}  spread {:.2}%  (n={})",
        if q2 == 0.0 {
            0.0
        } else {
            (q3 - q1) / q2 * 100.0
        },
        v.len()
    );
    eprintln!("    rounds {v:.6?}");
}

/// The workload's own names for the generic rate and latency.
fn aliases(workload: &str) -> (&'static str, &'static str) {
    match workload {
        "fleet-population" => ("users_per_s", "run_ms"),
        "fleet-chaos-resume" => ("users_per_s", "resume_ms"),
        "agent-soak" => ("events_per_s", "week_ms"),
        _ => ("export_rows_per_s", "query_set_ms"),
    }
}

/// End-to-end metrics of an untraced run, with the report on stderr.
/// Each timing is the median over the run's rounds (or set-ups) at the
/// reference speed (see [`Measured::end_round`]).
fn end_to_end(workload: &str, m: &Measured) -> Vec<Metric> {
    let (rate, latency) = aliases(workload);
    describe("setup_s", "s", &m.setup_s);
    describe(&format!("rate_per_s ({rate})"), "1/s", &m.rate);
    describe(&format!("latency_ms ({latency})"), "ms", &m.latency_ms);
    for (name, unit, v) in &m.named {
        describe(name, unit, v);
    }
    vec![
        metric("setup_s", stats::median(&m.setup_s), "s"),
        metric("rate_per_s", stats::median(&m.rate), "1/s"),
        metric("latency_ms", stats::median(&m.latency_ms), "ms"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ]
}

/// The traced run's metrics in the fixed per-layer order; layers the
/// workload does not exercise read 0.
fn per_layer(got: Vec<Metric>) -> Vec<Metric> {
    for m in &got {
        if !PER_LAYER.iter().any(|(n, u)| *n == m.name && *u == m.unit) {
            eprintln!(
                "roambench: metric {} ({}) is not in the per-layer list",
                m.name, m.unit
            );
        }
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = got.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let nproc = host::nproc();
    let out_dir = PathBuf::from("roambench").join("out");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        usage(&format!(
            "{}: {e} (run from the repository root)",
            scratch.display()
        ));
    }
    let worker_bin = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("fleet_worker")))
        .unwrap_or_else(|| PathBuf::from("fleet_worker"));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        threads: roambench::THREADS.min(nproc),
        scratch: scratch.clone(),
        worker_bin,
    };
    eprintln!(
        "roambench: workload {} seed {} trace {} | nproc {nproc}, {} | scratch on {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        shape(&args.workload, &ctx),
        host::fs_type(&scratch)
    );

    let (result, attempted) = if args.trace {
        let mut tracer = Tracer::new();
        let factor = host::slowdown();
        let r = traced(&ctx, &args.workload, &mut tracer).map(|mut m| {
            m.push(metric("host.factor", factor, "x"));
            per_layer(m)
        });
        let path = out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::write(&path, tracer.to_jsonl()) {
            Ok(()) => eprintln!(
                "roambench: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("roambench: {}: {e}", path.display()),
        }
        (r, 1)
    } else {
        match untraced(&ctx, &args.workload) {
            Ok(m) => {
                let rounds = m.rounds() as u64;
                (Ok(end_to_end(&args.workload, &m)), rounds)
            }
            Err(e) => (Err(e), 1),
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(metrics) => {
            eprintln!("  failed_share 0 ({attempted} rounds attempted, 0 failed)");
            println!("{}", result_json(true, attempted, 0, &metrics));
        }
        Err(e) => {
            eprintln!("roambench: output check failed: {e}");
            println!("{}", result_json(false, attempted, attempted, &[]));
            exit(1);
        }
    }
}
