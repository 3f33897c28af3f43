//! The `agent-soak` workload: what `roam_agent run` does. A fresh
//! `Agent` with the default `ServiceConfig` (2000 users, 3 cohorts,
//! weekly ticks) on [`crate::THREADS`] thread(s), streaming sessions into a
//! `CsvFile` with its `sync` hook and checkpointing every 7 sim-days
//! into a scratch directory; faults off; one `Horizon::SimDays` run per
//! round.

use crate::fleet::{cost_metrics, counter_metrics, session_path_s};
use crate::layers;
use crate::trace::Tracer;
use crate::{
    digest, ensure, fresh_dir, ladder, metric, paired_ratio, secs, tail_metrics, timed,
    timed_loop, Ctx, Digests, Measured, Metric, PAIRS, WORLDS,
};
use roamsim::fleet::{FleetReport, SessionRecord, UserBatch};
use roamsim::geo::Country;
use roamsim::measure::{Dataset, SharedSink};
use roamsim::netsim::{FaultSpec, SimTime};
use roamsim::service::agent::WEEK_NS;
use roamsim::service::{
    days, Agent, AgentRun, BoundedSink, CsvFile, Fire, Horizon, Outcome, Scheduler, ServiceConfig,
    COHORT_STRIDE,
};
use roamsim::telemetry::Counter;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sim-days per round (a whole number of weeks).
pub const SIM_DAYS: u64 = 56;
/// Agent set-ups per round; `setup_s` is the median of all of them.
const SETUPS: usize = 3;
/// Cohort-tick samples in the traced tick replay.
const TICK_SAMPLES: usize = 100;

/// Durations of every `CsvFile::sync` the agent's hook made, seconds.
type Syncs = Arc<Mutex<Vec<f64>>>;

/// A fresh agent writing `sessions.csv` and `agent.ckpt` into `dir`.
fn build(ctx: &Ctx, dir: &Path) -> Result<(Agent, Syncs), String> {
    let agent = Agent::new(ctx.seed, ServiceConfig::default())
        .map_err(|e| format!("agent-soak: {e}"))?
        .mode(ctx.mode());
    let path = dir.join("sessions.csv");
    let csv = CsvFile::create(&path, Dataset::Sessions)
        .map_err(|e| format!("agent-soak: {}: {e}", path.display()))?;
    let shared = Arc::new(Mutex::new(csv));
    let sink: SharedSink = shared.clone();
    let syncs: Syncs = Arc::default();
    let hook_syncs = Arc::clone(&syncs);
    let agent = agent
        .sink(sink)
        .sync_hook(move || {
            let t = Instant::now();
            let r = shared.lock().expect("csv sink poisoned").sync();
            hook_syncs.lock().expect("sync log poisoned").push(secs(t));
            r
        })
        .checkpoint(dir.to_path_buf());
    Ok((agent, syncs))
}

/// Check a finished run and its CSV file; returns the CSV bytes.
fn check_run(run: &AgentRun, dir: &Path) -> Result<Vec<u8>, String> {
    const W: &str = "agent-soak";
    ensure(run.outcome == Outcome::Completed, || {
        format!("{W}: the run did not complete")
    })?;
    ensure(run.sink_error.is_none(), || {
        format!("{W}: the export sink went sick: {:?}", run.sink_error)
    })?;
    ensure(
        run.clock.as_nanos() / roamsim::service::task::DAY_NS <= SIM_DAYS,
        || format!("{W}: the clock ran past the horizon"),
    )?;
    let path = dir.join("sessions.csv");
    let csv = std::fs::read(&path).map_err(|e| format!("{W}: {}: {e}", path.display()))?;
    ensure(csv.len() as u64 == run.export_bytes, || {
        format!(
            "{W}: sessions.csv holds {} bytes, the run recorded {}",
            csv.len(),
            run.export_bytes
        )
    })?;
    let rows = csv.iter().filter(|&&b| b == b'\n').count() as u64;
    ensure(rows == run.streamed + 1, || {
        format!(
            "{W}: sessions.csv holds {} rows, the run streamed {}",
            rows - 1,
            run.streamed
        )
    })?;
    Ok(csv)
}

/// Untraced `agent-soak`: every round builds fresh agents and sinks for
/// the next world (set-up) and runs the last one to the horizon (timed).
///
/// # Errors
/// The first failed output check.
pub fn soak(ctx: &Ctx) -> Result<Measured, String> {
    const W: &str = "agent-soak";
    let mut m = Measured::default();
    let mut reports = Digests::new(W, "report", WORLDS);
    let mut csvs = Digests::new(W, "sessions_csv", WORLDS);
    timed_loop(ctx.seconds, WORLDS, |round| {
        let k = round % WORLDS;
        let w = ctx.world(k);
        let dir = fresh_dir(ctx, "agent")?;
        // Set up `SETUPS` times (the last agent runs) so the set-up
        // median rests on enough samples to be steady.
        let mut agent = None;
        for _ in 0..SETUPS {
            let (built, setup) = timed(|| build(&w, &dir));
            agent = Some(built?);
            m.setup_s.push(setup);
        }
        let (mut agent, _) = agent.expect("set-up ran");
        let (run, wall) = timed(|| agent.run(Horizon::SimDays(SIM_DAYS), None));
        let run = run.map_err(|e| format!("{W}: {e}"))?;
        drop(agent);
        let csv = check_run(&run, &dir)?;
        reports.check(k, digest(run.render().as_bytes()))?;
        csvs.check(k, digest(&csv))?;
        m.rate.push((run.fires + run.streamed) as f64 / wall);
        m.latency_ms.push(wall * 1e3 / run.weeks.max(1) as f64);
        m.end_round();
        Ok(())
    })?;
    reports.finish(ctx.seed)?;
    csvs.finish(ctx.seed)?;
    Ok(m)
}

/// Replay the agent's job table on a bare `Scheduler` to the horizon:
/// `(pops, fires, µs per pop)`.
fn replay_schedule(seed: u64, config: &ServiceConfig) -> (u64, u64, f64) {
    let mut s = Scheduler::new(seed);
    for k in 0..config.cohorts {
        s.register(
            &format!("cohort/{k}"),
            SimTime::ZERO,
            Some(days(u64::from(config.tick_days))),
        );
    }
    for c in Country::MEASURED {
        s.register(
            &format!("probe/{}", c.alpha3()),
            SimTime::ZERO,
            Some(days(1)),
        );
    }
    let week = SimTime::from_nanos(WEEK_NS);
    s.register("faults/advance", week, Some(week));
    let end = days(SIM_DAYS);
    let mut fires: Vec<Fire> = Vec::new();
    let (mut pops, mut fired) = (0u64, 0u64);
    let t = Instant::now();
    while s.next_fire().is_some_and(|next| next <= end) {
        s.pop_batch(&mut fires);
        pops += 1;
        fired += fires.len() as u64;
    }
    (
        pops,
        fired,
        t.elapsed().as_secs_f64() * 1e6 / pops.max(1) as f64,
    )
}

/// Traced `agent-soak`: layer costs; [`PAIRS`] pairs of the whole run
/// untraced and traced (a span plus telemetry `Summary`), whose wall
/// ratio is the trace overhead; the same run stepped one sim-week at a
/// time, for the week timings only; a scheduler replay, a cohort-tick
/// replay, sink and checkpoint costs, and the ladder.
///
/// # Errors
/// A failed output check.
pub fn soak_traced(ctx: &Ctx, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    const W: &str = "agent-soak";
    let ctx = &ctx.world(0);
    let config = ServiceConfig::default();
    let costs = layers::measure(ctx.seed, FaultSpec::off(), config.tick_days, tracer);

    let (mut plain, mut traced) = (None, None);
    let (overhead, plain_walls) = paired_ratio(
        PAIRS,
        || {
            let dir = fresh_dir(ctx, "agent-plain")?;
            let (mut agent, _) = build(ctx, &dir)?;
            let (run, wall) = timed(|| agent.run(Horizon::SimDays(SIM_DAYS), None));
            let run = run.map_err(|e| format!("{W}: {e}"))?;
            drop(agent);
            let csv = check_run(&run, &dir)?;
            plain = Some((run.render(), csv));
            Ok(wall)
        },
        || {
            // The agent reads its telemetry mode from the environment
            // when it is built; no other thread runs while it is set.
            let dir = fresh_dir(ctx, "agent")?;
            std::env::set_var("ROAM_TELEMETRY", "summary");
            let built = build(ctx, &dir);
            std::env::remove_var("ROAM_TELEMETRY");
            let (mut agent, syncs) = built?;
            let run = tracer.span("service.run", SIM_DAYS / 7, |_| {
                agent.run(Horizon::SimDays(SIM_DAYS), None)
            });
            let wall = tracer.last_s("service.run");
            let run = run.map_err(|e| format!("{W}: {e}"))?;
            // Copy the sync log before `state` adds a sync of its own.
            let syncs = syncs.lock().expect("sync log poisoned").clone();
            let state = agent.state();
            drop(agent);
            let csv = check_run(&run, &dir)?;
            traced = Some((run, csv, syncs, state, dir));
            Ok(wall)
        },
    )?;
    let (plain_render, plain_csv) = plain.expect("paired runs ran");
    let (run, csv, syncs, state, dir) = traced.expect("paired runs ran");
    ensure(run.render() == plain_render && csv == plain_csv, || {
        format!("{W}: the traced run differs from the untraced one")
    })?;
    let plain_s = crate::stats::median(&plain_walls);
    // One sync per cadence checkpoint, plus the one that ends the run.
    let ckpts = syncs.len() as u64 - 1;

    let weeks_dir = fresh_dir(ctx, "agent-weeks")?;
    let (mut agent, _) = build(ctx, &weeks_dir)?;
    let weeks = SIM_DAYS / 7;
    let mut week_ms = Vec::new();
    let mut stepped = None;
    tracer.span("service.weeks", weeks, |t| {
        for w in 1..=weeks {
            let run = t.span("service.week", 1, |_| {
                agent.run(Horizon::SimDays(7 * w), None)
            });
            week_ms.push(t.last_s("service.week") * 1e3);
            stepped = Some(run.map_err(|e| format!("{W}: {e}"))?);
        }
        Ok::<_, String>(())
    })?;
    drop(agent);
    let stepped = stepped.expect("at least one week");
    let stepped_csv = check_run(&stepped, &weeks_dir)?;
    ensure(
        stepped.render() == plain_render && stepped_csv == plain_csv,
        || format!("{W}: the week-stepped run differs from the single run"),
    )?;

    const SAVES: u64 = 5;
    tracer
        .span("service.ckpt_save", SAVES, |_| {
            (0..SAVES).try_for_each(|_| state.save(&dir))
        })
        .map_err(|e| format!("{W}: checkpoint save: {e}"))?;
    let save_ms = tracer.last_s("service.ckpt_save") * 1e3 / SAVES as f64;
    let ckpt_kb = std::fs::metadata(dir.join(roamsim::service::AGENT_FILE))
        .map_err(|e| format!("{W}: {e}"))?
        .len() as f64
        / 1e3;

    let (pops, fired, pop_us) = tracer.span("service.sched_replay", 1, |_| {
        replay_schedule(ctx.seed, &config)
    });
    ensure(fired == run.fires, || {
        format!(
            "{W}: the schedule replay fired {fired} jobs, the agent {}",
            run.fires
        )
    })?;

    let per_cohort = config.users / config.cohorts as u64;
    let mut tick_ms = Vec::with_capacity(TICK_SAMPLES);
    let mut records: Vec<SessionRecord> = Vec::new();
    tracer.span("service.tick_replay", TICK_SAMPLES as u64, |t| {
        for i in 0..TICK_SAMPLES {
            let lo = (i % config.cohorts) as u64 * COHORT_STRIDE;
            let batch = UserBatch {
                shards: 4,
                mode: ctx.mode(),
                record_sessions: true,
                ..UserBatch::new(ctx.seed, config.fleet(), lo, lo + per_cohort)
            };
            let out = t.span("fleet.user_batch", per_cohort, |_| batch.run());
            tick_ms.push(t.last_s("fleet.user_batch") * 1e3);
            records = out.sessions;
        }
    });

    let sink_path = ctx.scratch.join("agent-extend.csv");
    let csv_sink = CsvFile::create(&sink_path, Dataset::Sessions)
        .map_err(|e| format!("{W}: {}: {e}", sink_path.display()))?;
    let target: SharedSink = Arc::new(Mutex::new(csv_sink));
    let mut bounded = BoundedSink::new(target, config.queue_cap);
    const EXTENDS: u64 = 20;
    tracer.span("service.extend", EXTENDS * records.len() as u64, |_| {
        for _ in 0..EXTENDS {
            bounded.extend(&records);
        }
        bounded.flush();
    });
    let extend_ns =
        tracer.last_s("service.extend") * 1e9 / (EXTENDS * records.len().max(1) as u64) as f64;
    drop(bounded);
    let _ = std::fs::remove_file(&sink_path);

    let ticks: u64 = run.cohorts.iter().map(|c| c.ticks).sum();
    let setups = 4 * ticks;
    let sync_ms = crate::stats::median(&syncs) * 1e3;
    let soak_rtt = run.soak.iter().filter(|r| r.kind == 0).count() as f64;
    let soak_dns = run.soak.len() as f64 - soak_rtt;
    let merge_us = tracer.span("fleet.merge", 64, |_| {
        let mut acc = FleetReport::new(config.sample);
        let t = Instant::now();
        for _ in 0..64 {
            acc.merge(&run.report);
        }
        t.elapsed().as_secs_f64() * 1e6 / 64.0
    });
    let parallel_s =
        setups as f64 * costs.shard_setup_ms / 1e3 + session_path_s(&costs, &run.report);
    let serial_s = (soak_rtt * costs.probe_ns + soak_dns * costs.resolve_ns) / 1e9
        + run.streamed as f64 * extend_ns / 1e9
        + ckpts as f64 * save_ms / 1e3
        + syncs.len() as f64 * sync_ms / 1e3
        + pops as f64 * pop_us / 1e6
        + setups as f64 * merge_us / 1e6;
    let predicted = parallel_s / ctx.threads.min(4) as f64 + serial_s;

    let mut out = cost_metrics(&costs);
    out.extend(counter_metrics(&run.telemetry, &run.report));
    out.extend(tail_metrics("service.tick", "ms", &tick_ms));
    out.extend(tail_metrics("service.week", "ms", &week_ms));
    out.extend([
        metric("fleet.shard_setups", setups as f64, "count"),
        metric("fleet.merge_us", merge_us, "us"),
        metric("service.fires", run.fires as f64, "count"),
        metric("service.sched_pop_us", pop_us, "us"),
        metric("service.records", run.streamed as f64, "count"),
        metric(
            "service.flushes",
            run.telemetry.counter(Counter::ServiceSinkFlushes) as f64,
            "count",
        ),
        metric("service.extend_ns", extend_ns, "ns"),
        metric("service.csv_sync_ms", sync_ms, "ms"),
        metric("service.csv_mb", run.export_bytes as f64 / 1e6, "MB"),
        metric("service.ckpts", ckpts as f64, "count"),
        metric("service.ckpt_save_ms", save_ms, "ms"),
        metric("service.ckpt_kb", ckpt_kb, "kB"),
        metric("trace.overhead_share", overhead - 1.0, "ratio"),
    ]);
    out.extend(ladder(predicted, plain_s));
    Ok(out)
}
