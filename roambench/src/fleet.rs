//! The two fleet workloads.
//!
//! * `fleet-population`: `FleetRunner` in-process, faults and telemetry
//!   off, default mix and 60-day calendar, no sink, `2 × nproc` shards on
//!   [`crate::THREADS`] thread(s). Almost all the work is the session hot
//!   path.
//! * `fleet-chaos-resume`: the same population shape under heavy faults,
//!   on [`crate::THREADS`] worker process(es) of the repository's
//!   `fleet_worker`, checkpointing into a scratch directory; halted after
//!   a fixed number of checkpoints, then finished through
//!   `FleetRunner::resume(dir).run()`.

use crate::layers::{self, LayerCosts};
use crate::trace::Tracer;
use crate::{
    digest, ensure, fresh_dir, ladder, metric, paired_ratio, timed, timed_loop, Ctx, Digests,
    Measured, Metric, PAIRS, WORLDS,
};
use roam_codec::Decoder;
use roamsim::fleet::checkpoint::{
    read_frame, run_fingerprint, shard_file, write_atomic, KIND_SHARD,
};
use roamsim::fleet::{
    FleetConfig, FleetReport, FleetRun, FleetRunner, ShardState, WorkerFaultSpec,
};
use roamsim::netsim::{FaultSpec, TransportKind};
use roamsim::telemetry::{Counter, TelemetryMode, TelemetryReport};
use std::path::Path;

/// Users per `fleet-population` round.
pub const POP_USERS: u64 = 120_000;
/// Users per `fleet-chaos-resume` round.
pub const CHAOS_USERS: u64 = 16_000;
/// Calendar window of both fleet workloads (the default), days.
pub const DAYS: u32 = 60;
/// Checkpoint cadence of the chaos workload, in users per shard.
pub const CHAOS_EVERY_USERS: u64 = 1_000;
/// Checkpoints each shard writes before the chaos run halts.
pub const CHAOS_HALT_AFTER: u32 = 2;
/// Set-ups timed before each round; `setup_s` is their median
/// over the run. Spreading them over the run's whole window, rather than
/// timing them all at its start, keeps a brief host slowdown from moving
/// it.
const SETUPS_PER_ROUND: usize = 2;

/// The `fleet-population` runner for `users` users.
#[must_use]
pub fn population_runner(ctx: &Ctx, users: u64) -> FleetRunner {
    FleetRunner::new(ctx.seed)
        .users(users)
        .days(DAYS)
        .shards(2 * ctx.nproc)
        .parallel(ctx.threads)
        .transport(TransportKind::ClosedForm)
        .faults(FaultSpec::off())
        .telemetry(TelemetryMode::Off)
}

/// The uninterrupted, in-process heavy-fault run of the chaos shape for
/// `users` users: the reference the resumed report must equal.
#[must_use]
pub fn chaos_reference(ctx: &Ctx, users: u64) -> FleetRunner {
    population_runner(ctx, users).faults(FaultSpec::heavy())
}

/// Put a runner on [`Ctx::threads`] worker processes of the fleet
/// worker binary, with worker-fault injection off.
#[must_use]
pub fn on_workers(ctx: &Ctx, runner: FleetRunner) -> FleetRunner {
    runner
        .workers(ctx.threads)
        .worker_bin(&ctx.worker_bin)
        .worker_faults(WorkerFaultSpec::off())
}

/// Structural checks every fleet report must pass.
///
/// # Errors
/// The first violated invariant.
pub fn check_report(workload: &str, run: &FleetRun, users: u64) -> Result<(), String> {
    let r = &run.report;
    ensure(!run.halted, || {
        format!("{workload}: run halted unexpectedly")
    })?;
    ensure(r.users == users, || {
        format!("{workload}: report counts {} users, ran {users}", r.users)
    })?;
    ensure(r.class_counts.iter().sum::<u64>() == users, || {
        format!("{workload}: class counts do not sum to the population")
    })?;
    ensure(
        r.sessions == r.rtt_probes + r.dns_lookups + r.transfers + r.lost_sessions,
        || format!("{workload}: session outcomes do not sum to the sessions"),
    )?;
    ensure(!run.supervision.recovered(), || {
        format!("{workload}: the supervisor had to recover a worker")
    })
}

/// Time the fleet set-up of world `ctx` [`SETUPS_PER_ROUND`] times: the
/// build of a `runner` plus a run of one user per shard, which builds
/// every shard's fixed stage (world, market, endpoint pool) and does
/// little else.
///
/// # Errors
/// A failed output check.
fn setups(
    workload: &str,
    ctx: &Ctx,
    m: &mut Measured,
    runner: fn(&Ctx, u64) -> FleetRunner,
) -> Result<(), String> {
    let users = 2 * ctx.nproc as u64;
    for _ in 0..SETUPS_PER_ROUND {
        let (run, setup) = timed(|| runner(ctx, users).run());
        check_report(workload, &run, users)?;
        m.setup_s.push(setup);
    }
    Ok(())
}

/// Untraced `fleet-population`: each round times the set-up of the next
/// world as in [`setups`], then runs its full population.
///
/// # Errors
/// The first failed output check.
pub fn population(ctx: &Ctx) -> Result<Measured, String> {
    const W: &str = "fleet-population";
    let mut m = Measured::default();
    let mut reports = Digests::new(W, "report", WORLDS);
    timed_loop(ctx.seconds, WORLDS, |round| {
        let k = round % WORLDS;
        setups(W, &ctx.world(k), &mut m, population_runner)?;
        let runner = population_runner(&ctx.world(k), POP_USERS);
        let (run, wall) = timed(|| runner.run());
        check_report(W, &run, POP_USERS)?;
        reports.check(k, digest(run.report.render().as_bytes()))?;
        m.rate.push(POP_USERS as f64 / wall);
        m.latency_ms.push(wall * 1e3);
        m.end_round();
        Ok(())
    })?;
    reports.finish(ctx.seed)?;
    Ok(m)
}

/// One chaos round's outputs and timings.
struct ChaosRound {
    halted: FleetRun,
    finished: FleetRun,
    halted_s: f64,
    resume_s: f64,
    resumed_s: f64,
}

impl ChaosRound {
    /// Wall time of the halted run, the resume and the resumed run.
    fn total_s(&self) -> f64 {
        self.halted_s + self.resume_s + self.resumed_s
    }
}

/// Halt after the fixed checkpoint count, resume from the directory,
/// finish; spans are recorded when a tracer is given.
fn chaos_round(
    ctx: &Ctx,
    dir: &Path,
    telemetry: TelemetryMode,
    tracer: Option<&mut Tracer>,
) -> Result<ChaosRound, String> {
    const W: &str = "fleet-chaos-resume";
    let halting = on_workers(ctx, chaos_reference(ctx, CHAOS_USERS))
        .telemetry(telemetry)
        .checkpoint_dir(dir)
        .checkpoint_every(CHAOS_EVERY_USERS * u64::from(DAYS))
        .halt_after(CHAOS_HALT_AFTER);
    let resume = || {
        FleetRunner::resume(dir)
            .map(|r| {
                on_workers(ctx, r)
                    .parallel(ctx.threads)
                    .transport(TransportKind::ClosedForm)
            })
            .map_err(|e| format!("{W}: resume refused: {e}"))
    };
    let mut local = Tracer::new();
    let t = tracer.unwrap_or(&mut local);
    let (halted, resumed, finished) = t.span("fleet.chaos_round", CHAOS_USERS, |t| {
        let halted = t.span("fleet.run_halted", 1, |_| halting.run());
        let resumed = t.span("fleet.resume", 1, |_| resume());
        let finished = resumed
            .as_ref()
            .ok()
            .map(|r| t.span("fleet.run_resumed", 1, |_| r.run()));
        (halted, resumed, finished)
    });
    let _ = resumed?;
    let finished = finished.expect("resume succeeded");
    ensure(halted.halted, || {
        format!("{W}: the run did not halt at its checkpoint")
    })?;
    check_report(W, &finished, CHAOS_USERS)?;
    ensure(!halted.supervision.recovered(), || {
        format!("{W}: the supervisor had to recover a worker in the halted run")
    })?;
    Ok(ChaosRound {
        halted,
        finished,
        halted_s: t.last_s("fleet.run_halted"),
        resume_s: t.last_s("fleet.resume"),
        resumed_s: t.last_s("fleet.run_resumed"),
    })
}

/// Untraced `fleet-chaos-resume`: first, untimed, each world's
/// uninterrupted in-process reference run. Each round times the set-up
/// of the next world as in [`setups`], under heavy faults, then halts,
/// resumes and finishes it on worker processes, and must render its
/// reference's bytes.
///
/// # Errors
/// The first failed output check.
pub fn chaos(ctx: &Ctx) -> Result<Measured, String> {
    const W: &str = "fleet-chaos-resume";
    let mut m = Measured::default();
    let mut references = Digests::new(W, "reference", WORLDS);
    for k in 0..WORLDS {
        let run = chaos_reference(&ctx.world(k), CHAOS_USERS).run();
        check_report(W, &run, CHAOS_USERS)?;
        references.check(k, digest(run.report.render().as_bytes()))?;
    }
    let mut reports = Digests::new(W, "report", WORLDS);
    timed_loop(ctx.seconds, WORLDS, |round| {
        let k = round % WORLDS;
        setups(W, &ctx.world(k), &mut m, chaos_reference)?;
        let dir = fresh_dir(ctx, "chaos")?;
        let r = chaos_round(&ctx.world(k), &dir, TelemetryMode::Off, None)?;
        let got = digest(r.finished.report.render().as_bytes());
        let want = references.get(k).expect("every world has a reference");
        ensure(got == want, || {
            format!("{W}: resumed report {got:#018x} differs from the uninterrupted {want:#018x}")
        })?;
        reports.check(k, got)?;
        m.rate.push(CHAOS_USERS as f64 / r.total_s());
        m.latency_ms.push(r.resume_s * 1e3);
        m.end_round();
        Ok(())
    })?;
    reports.finish(ctx.seed)?;
    Ok(m)
}

/// Per-operation layer costs as per-layer metrics.
#[must_use]
pub fn cost_metrics(c: &LayerCosts) -> Vec<Metric> {
    vec![
        metric("world.build_ms", c.world_build_ms, "ms"),
        metric("world.attach_us", c.attach_us, "us"),
        metric("econ.market_ms", c.market_ms, "ms"),
        metric("measure.plan_us", c.plan_us, "us"),
        metric("fleet.shard_setup_ms", c.shard_setup_ms, "ms"),
        metric("fleet.synth_ns", c.synth_ns, "ns"),
        metric("econ.price_ns", c.price_ns, "ns"),
        metric("measure.probe_ns", c.probe_ns, "ns"),
        metric("measure.resolve_ns", c.resolve_ns, "ns"),
        metric("netsim.ping_ns", c.ping_ns, "ns"),
        metric("netsim.transfer_ns", c.transfer_ns, "ns"),
        metric("stats.observe_ns", c.observe_ns, "ns"),
        metric("stats.offer_ns", c.offer_ns, "ns"),
    ]
}

/// Telemetry counters of the measure and netsim layers, plus the
/// delivered share of the report's sessions.
#[must_use]
pub fn counter_metrics(tel: &TelemetryReport, report: &FleetReport) -> Vec<Metric> {
    let c = |k| tel.counter(k) as f64;
    let delivered = report.rtt_probes + report.dns_lookups + report.transfers;
    vec![
        metric("fleet.users", report.users as f64, "count"),
        metric("fleet.purchases", report.purchases as f64, "count"),
        metric("measure.flows", c(Counter::FlowsOpened), "count"),
        metric("measure.echo_attempts", c(Counter::EchoAttempts), "count"),
        metric("measure.retransmits", c(Counter::ProbeRetransmits), "count"),
        metric("measure.backoffs", c(Counter::ProbeBackoffs), "count"),
        metric("measure.failed", c(Counter::MeasurementsFailed), "count"),
        metric(
            "netsim.packets_forwarded",
            c(Counter::PacketsForwarded),
            "count",
        ),
        metric("netsim.fault_drops", c(Counter::FaultDrops), "count"),
        metric(
            "netsim.fault_failovers",
            c(Counter::FaultFailovers),
            "count",
        ),
        metric(
            "measure.delivered_ratio",
            delivered as f64 / report.sessions.max(1) as f64,
            "ratio",
        ),
    ]
}

/// CPU seconds the ladder predicts for the users in `r`: per-user
/// synthesis and sampling, per-purchase pricing, per-session probe,
/// lookup or transfer, and a sketch insert per observation.
#[must_use]
pub fn session_path_s(c: &LayerCosts, r: &FleetReport) -> f64 {
    let ns = r.users as f64 * (c.synth_ns + c.offer_ns)
        + r.purchases as f64 * (c.price_ns + c.observe_ns)
        + r.rtt_probes as f64 * (c.probe_ns + c.observe_ns)
        + r.dns_lookups as f64 * (c.resolve_ns + c.observe_ns)
        + r.transfers as f64 * (c.probe_ns + c.transfer_ns + 2.0 * c.observe_ns)
        + r.lost_sessions as f64 * c.probe_ns;
    ns / 1e9
}

/// Shard wall-time spread from `FleetRun.timings`.
fn shard_metrics(runs: &[&FleetRun]) -> Vec<Metric> {
    let walls: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.timings.iter().map(|t| t.wall_ms))
        .collect();
    let p50 = crate::stats::median(&walls);
    let max = walls.iter().copied().fold(0.0, f64::max);
    vec![
        metric("fleet.shard_p50_ms", p50, "ms"),
        metric("fleet.shard_max_ms", max, "ms"),
        metric("fleet.shard_skew", max / p50, "ratio"),
    ]
}

/// Median time per `FleetReport::merge` and per render of `report`, µs.
fn merge_render_us(report: &FleetReport, tracer: &mut Tracer) -> Result<(f64, f64), String> {
    const MERGES: u64 = 64;
    tracer.span("fleet.merge", MERGES, |_| {
        let mut acc = FleetReport::new(report.journeys.cap());
        for _ in 0..MERGES {
            acc.merge(report);
        }
        std::hint::black_box(acc);
    });
    let merge_us = tracer.last_s("fleet.merge") * 1e6 / MERGES as f64;
    let text = tracer.span("fleet.render", 1, |_| report.render());
    ensure(!text.is_empty(), || "empty report render".to_string())?;
    Ok((merge_us, tracer.last_s("fleet.render") * 1e6))
}

/// Traced `fleet-population`: layer costs; [`PAIRS`] pairs of the
/// population run untraced and traced (a span plus telemetry
/// `Summary`), whose wall ratio is the trace overhead; shard spread,
/// merge/render cost, ladder.
///
/// # Errors
/// A failed output check.
pub fn population_traced(ctx: &Ctx, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    const W: &str = "fleet-population";
    let ctx = &ctx.world(0);
    let costs = layers::measure(ctx.seed, FaultSpec::off(), DAYS, tracer);
    let plain_runner = population_runner(ctx, POP_USERS);
    let traced_runner = population_runner(ctx, POP_USERS).telemetry(TelemetryMode::Summary);
    let (mut plain, mut traced) = (None, None);
    let (overhead, plain_walls) = paired_ratio(
        PAIRS,
        || {
            let (run, wall) = timed(|| plain_runner.run());
            check_report(W, &run, POP_USERS)?;
            plain = Some(run);
            Ok(wall)
        },
        || {
            let run = tracer.span("fleet.run", POP_USERS, |_| traced_runner.run());
            check_report(W, &run, POP_USERS)?;
            traced = Some(run);
            Ok(tracer.last_s("fleet.run"))
        },
    )?;
    let plain = plain.expect("paired runs ran");
    let run = traced.expect("paired runs ran");
    ensure(run.report == plain.report, || {
        format!("{W}: the traced report differs from the untraced one")
    })?;
    let plain_s = crate::stats::median(&plain_walls);
    let (merge_us, render_us) = merge_render_us(&run.report, tracer)?;
    let shards = run.timings.len() as f64;
    let predicted = (shards * costs.shard_setup_ms / 1e3 + session_path_s(&costs, &run.report))
        / ctx.threads as f64
        + shards * merge_us / 1e6
        + render_us / 1e6;
    let mut out = cost_metrics(&costs);
    out.extend(counter_metrics(&run.telemetry, &run.report));
    out.extend(shard_metrics(&[&run]));
    out.extend([
        metric("fleet.shard_setups", shards, "count"),
        metric("fleet.merge_us", merge_us, "us"),
        metric("fleet.render_us", render_us, "us"),
        metric("trace.overhead_share", overhead - 1.0, "ratio"),
    ]);
    out.extend(ladder(predicted, plain_s + render_us / 1e6));
    Ok(out)
}

/// Checkpoint writes one shard of `n` users makes at a cadence of
/// `every` users: after every `every`-th user except the last.
fn writes(n: u64, every: u64) -> u64 {
    n.saturating_sub(1) / every
}

/// Checkpoint writes of one chaos round, halted plus resumed half,
/// from the shard ranges (the runner's proportional split).
#[must_use]
pub fn chaos_ckpt_writes(shards: u64) -> u64 {
    (0..shards)
        .map(|i| {
            let n = CHAOS_USERS * (i + 1) / shards - CHAOS_USERS * i / shards;
            let all = writes(n, CHAOS_EVERY_USERS);
            let halted = all.min(u64::from(CHAOS_HALT_AFTER));
            let rest = n - (halted * CHAOS_EVERY_USERS).min(n);
            halted + writes(rest, CHAOS_EVERY_USERS)
        })
        .sum()
}

/// Traced `fleet-chaos-resume`: layer costs under heavy faults;
/// [`PAIRS`] pairs of the reference run on threads and on worker
/// processes (the worker tax); [`PAIRS`] pairs of the chaos round
/// untraced and traced (spans plus telemetry `Summary`, the trace
/// overhead); checkpoint-plane costs on the last traced round's files,
/// supervisor counts, ladder.
///
/// # Errors
/// A failed output check.
pub fn chaos_traced(ctx: &Ctx, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    const W: &str = "fleet-chaos-resume";
    let ctx = &ctx.world(0);
    let heavy = FaultSpec::heavy();
    let costs = layers::measure(ctx.seed, heavy, DAYS, tracer);
    let (mut threads, mut workers) = (None, None);
    let (worker_tax, _) = paired_ratio(
        PAIRS,
        || {
            let (run, wall) = timed(|| chaos_reference(ctx, CHAOS_USERS).run());
            threads = Some(run);
            Ok(wall)
        },
        || {
            let (run, wall) = timed(|| on_workers(ctx, chaos_reference(ctx, CHAOS_USERS)).run());
            workers = Some(run);
            Ok(wall)
        },
    )?;
    let threads = threads.expect("paired runs ran");
    let workers = workers.expect("paired runs ran");
    ensure(workers.report == threads.report, || {
        format!("{W}: worker and thread runs rendered different reports")
    })?;
    let mut last = None;
    let (overhead, plain_walls) = paired_ratio(
        PAIRS,
        || {
            let dir = fresh_dir(ctx, "chaos-plain")?;
            Ok(chaos_round(ctx, &dir, TelemetryMode::Off, None)?.total_s())
        },
        || {
            let dir = fresh_dir(ctx, "chaos")?;
            let r = chaos_round(ctx, &dir, TelemetryMode::Summary, Some(&mut *tracer))?;
            let wall = r.total_s();
            last = Some((r, dir));
            Ok(wall)
        },
    )?;
    let (r, dir) = last.expect("paired runs ran");
    ensure(r.finished.report == threads.report, || {
        format!("{W}: the resumed report differs from the uninterrupted run")
    })?;

    // Checkpoint-plane costs, on the shard files the traced round left.
    let shards = r.finished.timings.len();
    let paths: Vec<_> = (0..shards)
        .map(|i| dir.join(shard_file(i)))
        .filter(|p| p.exists())
        .collect();
    ensure(!paths.is_empty(), || {
        format!("{W}: no shard checkpoint was left")
    })?;
    let decode = |p: &Path| -> Result<ShardState, String> {
        let payload = read_frame(p, KIND_SHARD).map_err(|e| e.to_string())?;
        ShardState::decode_fields(&mut Decoder::new(&payload)).map_err(|e| e.to_string())
    };
    const READS: u64 = 5;
    let states = tracer.span("fleet.ckpt_read", READS * paths.len() as u64, |_| {
        let mut last = Vec::new();
        for _ in 0..READS {
            last = paths
                .iter()
                .map(|p| decode(p))
                .collect::<Result<Vec<_>, _>>()?;
        }
        Ok::<_, String>(last)
    })?;
    let read_us = tracer.last_s("fleet.ckpt_read") * 1e6 / (READS * paths.len() as u64) as f64;
    const ENCODES: u64 = 50;
    let frame = tracer.span("fleet.ckpt_encode", ENCODES, |_| {
        let mut f = Vec::new();
        for _ in 0..ENCODES {
            f = states[0].to_frame();
        }
        f
    });
    let encode_us = tracer.last_s("fleet.ckpt_encode") * 1e6 / ENCODES as f64;
    const WRITES: u64 = 5;
    let probe = ctx.scratch.join("chaos-write.ckpt");
    tracer
        .span("fleet.ckpt_write", WRITES, |_| {
            (0..WRITES).try_for_each(|_| write_atomic(&probe, &frame))
        })
        .map_err(|e| format!("{W}: {}: {e}", probe.display()))?;
    let write_ms = tracer.last_s("fleet.ckpt_write") * 1e3 / WRITES as f64;
    let _ = std::fs::remove_file(&probe);
    let config = FleetConfig {
        users: CHAOS_USERS,
        shards: 2 * ctx.nproc,
        days: DAYS,
        ..FleetConfig::default()
    };
    const PRINTS: u64 = 3;
    tracer.span("fleet.fingerprint", PRINTS, |_| {
        for _ in 0..PRINTS {
            std::hint::black_box(run_fingerprint(
                ctx.seed,
                &config,
                TelemetryMode::Off,
                &heavy,
            ));
        }
    });
    let fingerprint_ms = tracer.last_s("fleet.fingerprint") * 1e3 / PRINTS as f64;
    let (merge_us, render_us) = merge_render_us(&r.finished.report, tracer)?;

    let ckpt_writes = chaos_ckpt_writes(shards as u64) as f64;
    let setups = 2.0 * shards as f64;
    let parallel_s = setups * costs.shard_setup_ms / 1e3
        + session_path_s(&costs, &r.finished.report)
        + ckpt_writes * (encode_us / 1e6 + write_ms / 1e3);
    // Serial: a fingerprint per manifest write (two runs) and one in
    // resume validation, shard loads, the final merges and render.
    let serial_s = 3.0 * fingerprint_ms / 1e3
        + shards as f64 * read_us / 1e6
        + 2.0 * shards as f64 * merge_us / 1e6
        + render_us / 1e6;
    let predicted = parallel_s / ctx.threads as f64 + serial_s;
    let sup = |f: fn(&roamsim::fleet::SupervisionStats) -> u64| {
        (f(&r.halted.supervision) + f(&r.finished.supervision)) as f64
    };
    let mut out = cost_metrics(&costs);
    out.extend(counter_metrics(&r.finished.telemetry, &r.finished.report));
    out.extend(shard_metrics(&[&r.halted, &r.finished]));
    out.extend([
        metric("fleet.shard_setups", setups, "count"),
        metric("fleet.merge_us", merge_us, "us"),
        metric("fleet.render_us", render_us, "us"),
        metric("fleet.worker_tax_share", worker_tax - 1.0, "ratio"),
        metric("fleet.supervisor.respawns", sup(|s| s.respawns), "count"),
        metric("fleet.supervisor.retries", sup(|s| s.retries), "count"),
        metric(
            "fleet.supervisor.quarantined",
            sup(|s| s.quarantined),
            "count",
        ),
        metric("fleet.ckpt_writes", ckpt_writes, "count"),
        metric("fleet.ckpt_encode_us", encode_us, "us"),
        metric("fleet.ckpt_write_ms", write_ms, "ms"),
        metric("fleet.ckpt_read_us", read_us, "us"),
        metric("fleet.fingerprint_ms", fingerprint_ms, "ms"),
        metric("fleet.resume_ms", r.resume_s * 1e3, "ms"),
        metric("trace.overhead_share", overhead - 1.0, "ratio"),
    ]);
    out.extend(ladder(predicted, crate::stats::median(&plain_walls)));
    Ok(out)
}
