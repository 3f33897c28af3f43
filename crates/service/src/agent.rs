//! The agent event loop: recurring jobs over the virtual clock.
//!
//! An [`Agent`] owns one [`Scheduler`] driving three job families:
//!
//! * `cohort/<k>` — every `tick_days`, cohort `k`'s live uid window
//!   runs one [`UserBatch`] through the fleet plane, on one
//!   [`RunInputs`] the agent builds at its first cohort tick; the batch
//!   report merges into the cumulative report, its session records stream
//!   through the bounded export queue, and the tick's own RNG stream
//!   draws the churn that shifts the window. A finite TTL retires the
//!   cohort after `ttl_ticks` ticks.
//! * `probe/<alpha3>` — daily vantage probes per measured country,
//!   alternating RTT and DNS. They run on the fleet shard's own stage:
//!   the pool comes from [`CountrySlot::pool`], every session from
//!   [`CountrySlot::measure`] and every record from
//!   [`SessionRecord::new`]. Labels are stamped with the sim-week
//!   (`service/w<week>/…`), so under an active fault plane the per-flow
//!   fault phases *drift* week over week — the drifting-fault soak the
//!   degradation-over-time analysis queries.
//! * `faults/advance` — the weekly calendar advancement: bumps the
//!   agent's week counter and drains the export queue.
//!
//! Determinism: every fire's randomness is a pure function of
//! `(seed, job id, fire index)` (`Scheduler::fire_rng`), batches are
//! sub-shard- and thread-invariant ([`UserBatch`]), probes run on
//! label-keyed flow streams, and same-instant fires order by
//! registration. Nothing observable depends on wall time, thread
//! interleaving, or where a run was cut by a checkpoint.

use crate::checkpoint::{service_fingerprint, AgentState, SoakRow};
use crate::cohort::Cohort;
use crate::config::{ServiceConfig, ServiceConfigError};
use crate::export::BoundedSink;
use crate::task::{days, Fire, JobHandle, Scheduler, DAY_NS};
use roam_codec::CodecError;
use roam_fleet::{
    CountrySlot, FleetReport, ResumeError, RunInputs, SessionKind, SessionRecord, UserBatch,
};
use roam_geo::Country;
use roam_measure::{status_code, MeasureError, RunMode, STATUS_LABELS};
use roam_netsim::{FaultSpec, SimTime};
use roam_telemetry::{Counter, Recorder, TelemetryMode, TelemetryReport};
use roam_world::World;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// Nanoseconds per sim-week — the fault-calendar advancement period.
pub const WEEK_NS: u64 = 7 * DAY_NS;

/// Sub-shards each cohort tick's [`UserBatch`] splits its range into.
const BATCH_SHARDS: usize = 4;

/// How long the agent runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// Process every fire up to and including this sim-day.
    SimDays(u64),
    /// Run until every cohort has expired and the queue is drained
    /// (requires a finite TTL).
    UntilIdle,
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The horizon was reached (or the schedule drained).
    Completed,
    /// A halt was requested (SIGTERM); the queue was drained and a
    /// final checkpoint written.
    Drained,
}

/// Why a run refused to start or could not continue. Export-plane
/// sickness is deliberately *not* here: a failing sink parks its error
/// in [`AgentRun::sink_error`] so the drain and the final checkpoint
/// still happen.
#[derive(Debug)]
pub enum ServiceError {
    /// The configuration refused pre-flight (nothing ran).
    Config(ServiceConfigError),
    /// The agent checkpoint could not be written. The run stops here:
    /// continuing would silently widen the window a crash loses.
    Checkpoint {
        /// Checkpoint directory the write targeted.
        dir: PathBuf,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Config(e) => write!(f, "{e}"),
            ServiceError::Checkpoint { dir, source } => {
                write!(f, "agent checkpoint in {}: {source}", dir.display())
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Config(e) => Some(e),
            ServiceError::Checkpoint { source, .. } => Some(source),
        }
    }
}

impl From<ServiceConfigError> for ServiceError {
    fn from(e: ServiceConfigError) -> Self {
        ServiceError::Config(e)
    }
}

/// What a fire does — parallel to the scheduler's registration order.
#[derive(Debug, Clone, Copy)]
enum JobKind {
    Cohort(usize),
    Probe(usize),
    Faults,
}

/// The long-running measurement agent. Construct with [`Agent::new`]
/// (fresh) or [`Agent::resume`] (from a checkpoint), configure with the
/// builder methods, then [`Agent::run`].
pub struct Agent {
    seed: u64,
    config: ServiceConfig,
    telemetry_mode: TelemetryMode,
    faults: FaultSpec,
    mode: RunMode,
    ckpt_dir: Option<PathBuf>,
    sched: Scheduler,
    kinds: Vec<JobKind>,
    cohorts: Vec<Cohort>,
    week: u64,
    clock: SimTime,
    report: FleetReport,
    soak: Vec<SoakRow>,
    streamed: u64,
    export_bytes: u64,
    last_ckpt_day: u64,
    sink: Option<BoundedSink>,
    #[allow(clippy::type_complexity)]
    sync_hook: Option<Box<dyn FnMut() -> std::io::Result<u64>>>,
    /// First export-sync failure, sticky for the rest of the run. While
    /// set, `export_bytes` freezes at the last offset a successful sync
    /// reported, so checkpoints keep recording an honest durable prefix.
    sink_error: Option<String>,
    tel: Recorder,
    world: World,
    pool: Vec<CountrySlot>,
    countries: Vec<Country>,
    /// The cohort batches' world, pool and market, built at the first
    /// cohort tick and shared by every tick after it.
    inputs: Option<RunInputs>,
    /// [`service_fingerprint`] of this run's knobs, computed at the first
    /// checkpoint and stamped into every one after it.
    fingerprint: Option<u64>,
}

/// The expected job id list for `config`, in registration order.
fn expected_job_ids(config: &ServiceConfig, countries: &[Country]) -> Vec<String> {
    let mut ids: Vec<String> = (0..config.cohorts).map(|k| format!("cohort/{k}")).collect();
    ids.extend(countries.iter().map(|c| format!("probe/{}", c.alpha3())));
    ids.push("faults/advance".to_string());
    ids
}

impl Agent {
    /// A fresh agent: cohorts split proportionally, every job at fire
    /// count zero. The fault spec and telemetry mode resolve from the
    /// environment here, once; no builder method changes them later (a
    /// checkpoint frame carries them, and [`Agent::resume`] takes them
    /// from it).
    pub fn new(seed: u64, config: ServiceConfig) -> Result<Self, ServiceConfigError> {
        config.validate()?;
        let faults = FaultSpec::current();
        let telemetry_mode = TelemetryMode::from_env();
        let mut agent = Self::shell(seed, config, telemetry_mode, faults);
        let sizes = Cohort::initial_sizes(config.users, config.cohorts);
        agent.cohorts = sizes
            .into_iter()
            .enumerate()
            .map(|(k, n)| Cohort::new(k, n))
            .collect();
        for id in expected_job_ids(&config, &agent.countries) {
            let (first, period) = if id == "faults/advance" {
                (SimTime::from_nanos(WEEK_NS), SimTime::from_nanos(WEEK_NS))
            } else if id.starts_with("cohort/") {
                (SimTime::ZERO, days(u64::from(config.tick_days)))
            } else {
                (SimTime::ZERO, days(1))
            };
            agent.sched.register(&id, first, Some(period));
        }
        Ok(agent)
    }

    /// Rebuild an agent from a decoded checkpoint: the world and pool
    /// are rebuilt from the seed, every cursor restores from the frame,
    /// and the scheduler replays the saved job states in registration
    /// order. The frame's knobs win over the environment.
    pub fn resume(state: AgentState) -> Result<Self, ResumeError> {
        let corrupt = |what| {
            ResumeError::Corrupt(
                PathBuf::from(crate::checkpoint::AGENT_FILE),
                CodecError::BadValue(what),
            )
        };
        let mut agent = Self::shell(state.seed, state.config, state.telemetry, state.faults);
        let expected = expected_job_ids(&state.config, &agent.countries);
        if state.jobs.len() != expected.len() {
            return Err(corrupt("job count"));
        }
        for ((id, period, fires, next), want) in state.jobs.into_iter().zip(&expected) {
            if id != *want {
                return Err(corrupt("job id order"));
            }
            agent.sched.resume_job(&id, period, fires, next);
        }
        if state.cohorts.len() != state.config.cohorts
            || state.cohorts.iter().enumerate().any(|(k, c)| c.index != k)
        {
            return Err(corrupt("cohort list"));
        }
        agent.cohorts = state.cohorts;
        agent.week = state.week;
        agent.clock = state.clock;
        agent.report = state.report;
        agent.soak = state.soak;
        agent.streamed = state.streamed;
        agent.export_bytes = state.export_bytes;
        agent.last_ckpt_day = state.clock.as_nanos() / DAY_NS;
        Ok(agent)
    }

    /// The shared skeleton: world, vantage pool, empty scheduler, job
    /// kind table (jobs themselves are registered by the caller).
    fn shell(
        seed: u64,
        config: ServiceConfig,
        telemetry: TelemetryMode,
        faults: FaultSpec,
    ) -> Self {
        let mut world = World::build(seed);
        world.net.set_telemetry_mode(telemetry);
        world.net.set_faults(faults);
        let countries = world.measured_countries();
        let pool = CountrySlot::pool(&mut world);
        let mut kinds: Vec<JobKind> = (0..config.cohorts).map(JobKind::Cohort).collect();
        kinds.extend((0..countries.len()).map(JobKind::Probe));
        kinds.push(JobKind::Faults);
        Agent {
            seed,
            config,
            telemetry_mode: telemetry,
            faults,
            mode: RunMode::Sequential,
            ckpt_dir: None,
            sched: Scheduler::new(seed),
            kinds,
            cohorts: Vec::new(),
            week: 0,
            clock: SimTime::ZERO,
            report: FleetReport::new(config.sample),
            soak: Vec::new(),
            streamed: 0,
            export_bytes: 0,
            last_ckpt_day: 0,
            sink: None,
            sync_hook: None,
            sink_error: None,
            tel: Recorder::new(telemetry),
            world,
            pool,
            countries,
            inputs: None,
            fingerprint: None,
        }
    }

    /// Thread-level execution mode for cohort batches (default:
    /// [`RunMode::Sequential`]). Never changes the bytes.
    #[must_use]
    pub fn mode(mut self, mode: RunMode) -> Self {
        self.mode = mode;
        self
    }

    /// Stream session records through a bounded queue into `sink`.
    #[must_use]
    pub fn sink(mut self, sink: roam_measure::SharedSink) -> Self {
        self.sink = Some(BoundedSink::new(sink, self.config.queue_cap));
        self
    }

    /// Durable-sync hook called at each checkpoint (after the queue
    /// drains): must push the sink's target to stable storage and
    /// return the durable byte offset recorded in the frame.
    #[must_use]
    pub fn sync_hook(mut self, hook: impl FnMut() -> std::io::Result<u64> + 'static) -> Self {
        self.sync_hook = Some(Box::new(hook));
        self
    }

    /// Write `agent.ckpt` into `dir` every `ckpt_days` sim-days and on
    /// halt.
    #[must_use]
    pub fn checkpoint(mut self, dir: PathBuf) -> Self {
        self.ckpt_dir = Some(dir);
        self
    }

    /// Run to `horizon`, checking `halt` between batches: when it flips,
    /// the queue drains, a final checkpoint is written, and the run
    /// returns [`Outcome::Drained`]. A sick export sink does not stop
    /// the run (see [`AgentRun::sink_error`]); an unwritable checkpoint
    /// does, as a typed [`ServiceError::Checkpoint`].
    pub fn run(
        &mut self,
        horizon: Horizon,
        halt: Option<&AtomicBool>,
    ) -> Result<AgentRun, ServiceError> {
        if horizon == Horizon::UntilIdle && self.config.ttl_ticks == 0 {
            return Err(ServiceConfigError::UntilIdleNeedsTtl.into());
        }
        let horizon_end = match horizon {
            Horizon::SimDays(n) => Some(days(n)),
            Horizon::UntilIdle => None,
        };
        let mut fires: Vec<Fire> = Vec::new();
        loop {
            if halt.is_some_and(|h| h.load(Ordering::Relaxed)) {
                self.write_checkpoint()?;
                return Ok(self.finish(Outcome::Drained));
            }
            let Some(next) = self.sched.next_fire() else {
                break;
            };
            if horizon_end.is_some_and(|end| next > end) {
                break;
            }
            let at = self.sched.pop_batch(&mut fires).expect("peeked non-empty");
            self.clock = at;
            for &fire in &fires {
                self.dispatch(fire);
            }
            if self.ckpt_dir.is_some() {
                let day = at.as_nanos() / DAY_NS;
                if day >= self.last_ckpt_day + self.config.ckpt_days {
                    self.last_ckpt_day = day;
                    self.write_checkpoint()?;
                }
            }
            if horizon == Horizon::UntilIdle && self.cohorts.iter().all(|c| c.expired) {
                // Nobody left to measure for: retire the probe and
                // calendar jobs so the schedule drains.
                for i in self.config.cohorts..self.kinds.len() {
                    self.sched.cancel(JobHandle(i));
                }
            }
        }
        self.drain_sink();
        Ok(self.finish(Outcome::Completed))
    }

    fn dispatch(&mut self, fire: Fire) {
        self.tel.add(Counter::ServiceJobFires, 1);
        match self.kinds[fire.job.index()] {
            JobKind::Cohort(k) => self.tick_cohort(k, fire),
            JobKind::Probe(ci) => self.probe_vantage(ci, fire),
            JobKind::Faults => {
                self.week = fire.index + 1;
                self.drain_sink();
            }
        }
    }

    /// One cohort tick: batch the live window through the fleet plane,
    /// then draw churn (and possibly the TTL expiry) on the tick's own
    /// stream.
    fn tick_cohort(&mut self, k: usize, fire: Fire) {
        let (lo, hi) = self.cohorts[k].live_range();
        let batch = UserBatch {
            seed: self.seed,
            config: self.config.fleet(),
            lo,
            hi,
            shards: BATCH_SHARDS,
            mode: self.mode,
            faults: self.faults,
            record_sessions: self.sink.is_some(),
        };
        let seed = self.seed;
        let inputs = self
            .inputs
            .get_or_insert_with(|| RunInputs::build(seed, batch.knobs()));
        let run = batch.run_on(inputs);
        self.report.merge(&run.report);
        self.push_records(&run.sessions);
        let ttl = self.config.ttl_ticks;
        let churn_pct = self.config.churn_pct;
        let mut rng = self.sched.fire_rng(&fire);
        let cohort = &mut self.cohorts[k];
        cohort.ticks += 1;
        let (departures, arrivals) = cohort.churn(churn_pct, &mut rng);
        self.tel
            .add(Counter::ServiceCohortChurn, departures + arrivals);
        if ttl > 0 && cohort.ticks >= ttl {
            cohort.expire();
            self.sched.cancel(fire.job);
        }
    }

    /// One vantage fire: `probes` sessions against the country's fixed
    /// endpoints, alternating RTT and DNS, on week-stamped flow labels.
    fn probe_vantage(&mut self, ci: usize, fire: Fire) {
        let week = fire.at.as_nanos() / WEEK_NS;
        let which = (fire.index % 2) as usize;
        let alpha3 = self.countries[ci].alpha3();
        let slot = &self.pool[ci];
        let mut records: Vec<SessionRecord> = Vec::with_capacity(self.config.probes as usize);
        let mut label = String::with_capacity(48);
        for s in 0..self.config.probes {
            label.clear();
            let _ = write!(label, "service/w{week}/{alpha3}/f{}/s{s}", fire.index);
            let kind = if s % 2 == 0 {
                SessionKind::Rtt
            } else {
                SessionKind::Dns
            };
            let result = slot.measure(&mut self.world.net, which, kind, &label);
            if matches!(result, Err(MeasureError::NoTarget)) {
                continue;
            }
            let record = SessionRecord::new(slot.endpoint(which), kind, &result);
            self.soak.push(SoakRow {
                week,
                country: alpha3,
                kind: kind.code(),
                ms: result.ok().map(|(ms, _)| ms),
                status: status_code(record.status),
            });
            records.push(record);
        }
        self.push_records(&records);
    }

    fn push_records(&mut self, records: &[SessionRecord]) {
        self.streamed += records.len() as u64;
        if let Some(sink) = &mut self.sink {
            let before = sink.flushes();
            sink.extend(records);
            let drained = sink.flushes() - before;
            if drained > 0 {
                self.tel.add(Counter::ServiceSinkFlushes, drained);
            }
        }
    }

    fn drain_sink(&mut self) {
        if let Some(sink) = &mut self.sink {
            let before = sink.flushes();
            sink.flush();
            let drained = sink.flushes() - before;
            if drained > 0 {
                self.tel.add(Counter::ServiceSinkFlushes, drained);
            }
        }
    }

    /// The resumable snapshot of the current state (queue drained and
    /// durable offset refreshed first). This is exactly what a cadence
    /// checkpoint writes; [`Agent::resume`] accepts it back.
    pub fn state(&mut self) -> AgentState {
        self.snapshot_state()
    }

    fn snapshot_state(&mut self) -> AgentState {
        self.drain_sink();
        self.sync_export();
        AgentState {
            seed: self.seed,
            config: self.config,
            telemetry: self.telemetry_mode,
            faults: self.faults,
            clock: self.clock,
            week: self.week,
            export_bytes: self.export_bytes,
            streamed: self.streamed,
            report: self.report.clone(),
            jobs: self.sched.job_states(),
            cohorts: self.cohorts.clone(),
            soak: self.soak.clone(),
        }
    }

    /// Run the durable-sync hook, tolerating a sick sink: on failure
    /// the first error is parked (sticky) and `export_bytes` keeps the
    /// last offset a *successful* sync reported — the honest durable
    /// prefix a resume can truncate to.
    fn sync_export(&mut self) {
        if let Some(hook) = &mut self.sync_hook {
            match hook() {
                Ok(bytes) => self.export_bytes = bytes,
                Err(e) => {
                    if self.sink_error.is_none() {
                        eprintln!("roam-service agent: export sink sick: {e}; draining without it");
                        self.sink_error = Some(e.to_string());
                    }
                }
            }
        }
    }

    fn write_checkpoint(&mut self) -> Result<(), ServiceError> {
        let Some(dir) = self.ckpt_dir.clone() else {
            // No checkpoint plane configured: a halt still drains.
            self.drain_sink();
            return Ok(());
        };
        let state = self.snapshot_state();
        let fingerprint = *self.fingerprint.get_or_insert_with(|| {
            service_fingerprint(state.seed, &state.config, state.telemetry, &state.faults)
        });
        state
            .save_keyed(&dir, fingerprint)
            .map_err(|source| ServiceError::Checkpoint { dir, source })
    }

    fn finish(&mut self, outcome: Outcome) -> AgentRun {
        self.sync_export();
        let mut telemetry = TelemetryReport::new(self.telemetry_mode);
        telemetry.absorb(self.world.net.take_telemetry());
        telemetry.absorb(self.tel.take());
        AgentRun {
            outcome,
            seed: self.seed,
            clock: self.clock,
            weeks: self.week,
            fires: self.sched.job_states().iter().map(|j| j.2).sum(),
            cohorts: self.cohorts.clone(),
            streamed: self.streamed,
            export_bytes: self.export_bytes,
            soak: self.soak.clone(),
            report: self.report.clone(),
            telemetry,
            sink_error: self.sink_error.clone(),
        }
    }
}

/// What one agent run hands back.
pub struct AgentRun {
    /// How the run ended.
    pub outcome: Outcome,
    /// Master seed.
    pub seed: u64,
    /// Virtual time of the last processed batch.
    pub clock: SimTime,
    /// Fault-calendar weeks advanced.
    pub weeks: u64,
    /// Total job fires across the run (cumulative over resumes).
    pub fires: u64,
    /// Final cohort windows.
    pub cohorts: Vec<Cohort>,
    /// Session records streamed (cumulative over resumes).
    pub streamed: u64,
    /// Durable bytes in the session CSV (0 without a file sink).
    pub export_bytes: u64,
    /// Vantage soak rows.
    pub soak: Vec<SoakRow>,
    /// Cumulative fleet report.
    pub report: FleetReport,
    /// Diagnostics (never part of the byte-identity boundary).
    pub telemetry: TelemetryReport,
    /// First export-sync failure, if the sink went sick mid-run. The
    /// report and checkpoints are still complete — only the streamed
    /// CSV past `export_bytes` is missing — so callers decide whether
    /// that is fatal (the agent binary exits 74).
    pub sink_error: Option<String>,
}

impl AgentRun {
    /// The fixed-layout agent report: the byte-identity boundary the
    /// service determinism tests and the CI soak compare. Wall time,
    /// thread mode, queue capacity and outcome-independent
    /// diagnostics are deliberately absent.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== roam-service agent ==");
        let _ = writeln!(out, "seed                 {}", self.seed);
        let _ = writeln!(
            out,
            "clock_days           {}",
            self.clock.as_nanos() / DAY_NS
        );
        let _ = writeln!(out, "weeks                {}", self.weeks);
        let _ = writeln!(out, "jobs_fired           {}", self.fires);
        let _ = writeln!(out, "cohorts:");
        for c in &self.cohorts {
            let _ = writeln!(
                out,
                "  c{:<18} live={} ticks={} expired={}",
                c.index,
                c.live(),
                c.ticks,
                c.expired
            );
        }
        let _ = writeln!(out, "sessions_streamed    {}", self.streamed);
        let _ = writeln!(out, "soak_rows            {}", self.soak.len());
        let _ = writeln!(out);
        out.push_str(&self.report.render());
        out
    }

    /// The soak table as a sealed columnar frame: one row per vantage
    /// probe, keyed by sim-week for the degradation-over-time query
    /// (`group_sketch("week", "ms", …)`).
    #[must_use]
    pub fn soak_frame(&self) -> Vec<u8> {
        soak_frame(&self.soak)
    }
}

/// Build the soak table frame from rows (also used by tests).
#[must_use]
pub fn soak_frame(rows: &[SoakRow]) -> Vec<u8> {
    use roam_columnar::{field, CellValue, ColKind, Schema, TableBuilder};
    let schema = Schema::new(vec![
        field("week", ColKind::Dict),
        field("country", ColKind::Dict),
        field("kind", ColKind::enumeration(&["rtt", "dns"])),
        field("ms", ColKind::F64 { prec: 3 }),
        field("status", ColKind::enumeration(&STATUS_LABELS)),
    ]);
    let mut t = TableBuilder::new(schema);
    let mut week_label = String::with_capacity(8);
    for r in rows {
        week_label.clear();
        let _ = write!(week_label, "w{}", r.week);
        t.push_row(&[
            CellValue::Str(Some(&week_label)),
            CellValue::Str(Some(r.country)),
            CellValue::Code(r.kind),
            CellValue::F64(r.ms),
            CellValue::Code(r.status),
        ]);
    }
    t.finish().to_frame()
}
