//! The fleet runner: plan the shards, execute them on a backend, merge
//! the outcomes.
//!
//! The runner is the thin orchestration layer over the split pipeline —
//! [`crate::plan`] (work orders), [`crate::exec`] (shard execution),
//! [`crate::merge`] (the fold) — and owns backend selection:
//!
//! * **In-process** (default): shards run on threads via
//!   [`run_shards`], `ROAM_PARALLEL` controlling the thread count.
//! * **Worker processes** (`ROAM_FLEET_WORKERS=N` /
//!   [`FleetRunner::workers`]): shards stripe across `N` child
//!   processes that stream partial state back over pipes
//!   ([`crate::worker`]).
//!
//! The determinism contract has three legs:
//!
//! 1. **Identical stages.** Every shard starts from the same
//!    [`RunInputs`]: the seeded [`roam_world::World`]'s network with the
//!    same fixed endpoint pool attached (two eSIMs per measured country,
//!    in country order) *before* any user is touched, so the world RNG
//!    and per-country provider alternation are consumed identically no
//!    matter which user range the shard owns. A run builds its inputs
//!    once (a worker process once per job) and every shard clones the
//!    set-up network.
//! 2. **Per-user streams.** Everything about user `u` — profile,
//!    purchases, session mix, measurement flows — derives from
//!    `flow_seed(master, "fleet/…/u")`, never from execution order.
//! 3. **Exact aggregation.** Shard reports merge through integer
//!    counters, fixed-point sums and mergeable sketches
//!    ([`FleetReport::merge`]), so the fold is associative.
//!
//! Together these make [`FleetReport::render`] byte-identical across
//! `ROAM_PARALLEL` (threads), `ROAM_FLEET_WORKERS` (processes) and
//! `ROAM_FLEET_SHARDS` (partitioning) — and, with checkpointing on,
//! across a kill and resume: the per-user streams mean a shard's
//! `next_uid` cursor plus its mergeable aggregates are its *complete*
//! state.

use crate::checkpoint::{self, CheckpointPolicy, Manifest, ResumeError, ShardState};
use crate::config::{env_parse, FleetConfig};
use crate::exec::{run_fleet_shard, RunInputs};
use crate::merge::merge_outcomes;
use crate::plan;
use crate::report::FleetReport;
use crate::supervisor::{self, SupervisionStats, SupervisorPolicy, WorkerFaultSpec};
use crate::worker::WorkerJob;
use roam_codec::CodecError;
use roam_measure::{
    run_shards, Dataset, DegradationSummary, Exporter, RunMode, ShardTiming, SharedSink,
};
use roam_netsim::{FaultSpec, RunKnobs, TransportKind};
use roam_telemetry::{TelemetryMode, TelemetryReport};
use std::path::PathBuf;

/// Default checkpoint cadence, accumulated sim-days per shard between
/// writes (`ROAM_CHECKPOINT_EVERY`). At the default 60-day calendar this
/// checkpoints roughly every 4 000 users per shard.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 250_000;

/// Everything a fleet run returns.
pub struct FleetRun {
    /// The shard-merged population report (byte-stable).
    pub report: FleetReport,
    /// Telemetry merged in shard-key order. Note: unlike the report this
    /// *does* see the shard structure (`shards_merged`, per-shard events),
    /// so it is worker- and transport-invariant but not shard-count
    /// invariant.
    pub telemetry: TelemetryReport,
    /// Per-shard wall time of the user loop, in merge order (not
    /// byte-stable). The run's one-off [`RunInputs`] build is not
    /// charged to any shard.
    pub timings: Vec<ShardTiming>,
    /// Per-shard fault-plane outcome tallies, in merge order. Deterministic
    /// for a fixed shard count; the shard-count-invariant total lives in
    /// `report.degraded`.
    pub degraded: Vec<(String, DegradationSummary)>,
    /// `true` when the run stopped early because the checkpoint policy's
    /// `halt_after` tripped (kill-and-resume harnesses only). A halted
    /// run's report is a partial aggregate — resume from the checkpoint
    /// directory to finish it.
    pub halted: bool,
    /// What the supervision plane did (worker backend only): respawns,
    /// retries, quarantines and the typed failure history. All-zero for
    /// in-process runs and for worker runs that needed no recovery —
    /// and deliberately outside the byte-stable report either way.
    pub supervision: SupervisionStats,
}

/// A contradiction between [`FleetRunner`] builder knobs, detected by
/// [`FleetRunner::try_run`] before any shard executes.
///
/// Every variant is a *configuration* refusal (the analogue of
/// [`ResumeError`] for the builder): nothing has run, nothing was
/// written, and the fix is always to drop one of the two knobs named by
/// the variant. [`FleetRunner::run`] panics with the same message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConfigError {
    /// [`FleetRunner::sink`] combined with [`FleetRunner::workers`]:
    /// session records never cross the worker-process pipe protocol
    /// (only mergeable aggregates do), so the sink would silently
    /// observe an empty stream.
    SinkWithWorkers {
        /// The configured worker-process count (> 0).
        workers: usize,
    },
    /// [`FleetRunner::sink`] combined with
    /// [`FleetRunner::checkpoint_dir`]: streamed rows are not part of
    /// the checkpoint plane, so a kill + resume would replay aggregates
    /// exactly while the sink silently lost every pre-kill row.
    SinkWithCheckpoint,
}

impl std::fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetConfigError::SinkWithWorkers { workers } => write!(
                f,
                "session sink requires the in-process backend (workers == 0); \
                 got workers == {workers}"
            ),
            FleetConfigError::SinkWithCheckpoint => write!(
                f,
                "session sink is incompatible with checkpointing: streamed rows \
                 are not replayed on resume"
            ),
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// Everything [`FleetRunner::try_run`] can refuse with, as a typed
/// value: configuration contradictions (detected before anything runs)
/// and checkpoint-plane I/O failures (detected before any shard
/// executes — the manifest is written up front). Worker failures are
/// *not* here: the supervisor recovers them (respawn, retry,
/// quarantine-to-in-process), so a supervised run that starts always
/// completes.
#[derive(Debug)]
pub enum FleetError {
    /// The builder knobs contradict each other; see [`FleetConfigError`].
    Config(FleetConfigError),
    /// Writing the run manifest into the checkpoint directory failed —
    /// the durable plane is sick, and running anyway would produce a
    /// run that silently cannot be resumed.
    Checkpoint {
        /// The checkpoint directory that refused the write.
        dir: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Config(err) => err.fmt(f),
            FleetError::Checkpoint { dir, source } => write!(
                f,
                "checkpoint manifest write into {} failed: {source}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Config(err) => Some(err),
            FleetError::Checkpoint { source, .. } => Some(source),
        }
    }
}

impl From<FleetConfigError> for FleetError {
    fn from(err: FleetConfigError) -> Self {
        FleetError::Config(err)
    }
}

/// Builder for fleet runs, mirroring `CampaignRunner`: seed in,
/// builder-style knobs for population, partitioning, workers, faults,
/// checkpointing and telemetry. None of the knobs except
/// `users`/`days`/`mix`/`sample` can change the report's bytes.
///
/// ```no_run
/// use roam_fleet::FleetRunner;
///
/// let run = FleetRunner::new(42).users(100_000).shards(8).parallel(4).run();
/// print!("{}", run.report.render());
/// ```
#[derive(Clone)]
pub struct FleetRunner {
    seed: u64,
    config: FleetConfig,
    mode: RunMode,
    faults: Option<FaultSpec>,
    telemetry: TelemetryMode,
    /// `> 0` → shards run in this many `fleet_worker` processes.
    workers: usize,
    worker_bin: Option<PathBuf>,
    /// Worker-fault injection spec (off unless `from_env`/`resume`
    /// read `ROAM_WORKER_FAULTS` or the builder sets it).
    worker_faults: WorkerFaultSpec,
    /// Retry budget and stall deadline for the worker supervisor.
    supervisor: SupervisorPolicy,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: u64,
    halt_after: Option<u32>,
    /// Per-shard resume states, routed by [`plan::plan_shards`]. Only
    /// set by [`FleetRunner::resume`].
    resume: Option<Vec<Option<ShardState>>>,
    /// Per-session export sink (see [`FleetRunner::sink`]).
    sink: Option<SharedSink>,
}

impl std::fmt::Debug for FleetRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRunner")
            .field("seed", &self.seed)
            .field("config", &self.config)
            .field("mode", &self.mode)
            .field("faults", &self.faults)
            .field("telemetry", &self.telemetry)
            .field("workers", &self.workers)
            .field("worker_bin", &self.worker_bin)
            .field("worker_faults", &self.worker_faults)
            .field("supervisor", &self.supervisor)
            .field("checkpoint_dir", &self.checkpoint_dir)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("halt_after", &self.halt_after)
            .field("resume", &self.resume)
            .field("sink", &self.sink.as_ref().map(|_| "…"))
            .finish()
    }
}

impl FleetRunner {
    /// A sequential, default-sized, telemetry-off runner for `seed`, with
    /// the fault schedule left to `ROAM_FAULTS`. The worker plane takes its
    /// documented defaults: injection off, [`DEFAULT_WORKER_RETRIES`]
    /// retries, a [`DEFAULT_WORKER_DEADLINE_MS`] stall deadline.
    ///
    /// [`DEFAULT_WORKER_RETRIES`]: crate::supervisor::DEFAULT_WORKER_RETRIES
    /// [`DEFAULT_WORKER_DEADLINE_MS`]: crate::supervisor::DEFAULT_WORKER_DEADLINE_MS
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FleetRunner {
            seed,
            config: FleetConfig::default(),
            mode: RunMode::Sequential,
            faults: None,
            telemetry: TelemetryMode::Off,
            workers: 0,
            worker_bin: None,
            worker_faults: WorkerFaultSpec::off(),
            supervisor: SupervisorPolicy::default(),
            checkpoint_dir: None,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            halt_after: None,
            resume: None,
            sink: None,
        }
    }

    /// A runner configured from the environment: population knobs from
    /// `ROAM_FLEET_*`, threads from `ROAM_PARALLEL`, worker processes
    /// from `ROAM_FLEET_WORKERS`, their supervision from
    /// `ROAM_WORKER_FAULTS` / `ROAM_WORKER_RETRIES` /
    /// `ROAM_WORKER_DEADLINE_MS`, checkpointing from
    /// `ROAM_CHECKPOINT_DIR` / `ROAM_CHECKPOINT_EVERY`, telemetry from
    /// `ROAM_TELEMETRY`; the fault schedule resolves once per run, when
    /// it starts (see [`FleetRunner::try_run`]).
    #[must_use]
    pub fn from_env(seed: u64) -> Self {
        FleetRunner {
            config: FleetConfig::from_env(),
            mode: RunMode::from_env(),
            telemetry: TelemetryMode::from_env(),
            workers: env_parse("ROAM_FLEET_WORKERS").unwrap_or(0),
            worker_faults: WorkerFaultSpec::from_env(),
            supervisor: SupervisorPolicy::from_env(),
            checkpoint_dir: std::env::var("ROAM_CHECKPOINT_DIR")
                .ok()
                .filter(|s| !s.trim().is_empty())
                .map(PathBuf::from),
            checkpoint_every: env_parse("ROAM_CHECKPOINT_EVERY")
                .unwrap_or(DEFAULT_CHECKPOINT_EVERY),
            halt_after: env_parse("ROAM_CHECKPOINT_HALT_AFTER"),
            ..FleetRunner::new(seed)
        }
    }

    /// Rebuild a runner from a checkpoint directory, validating before
    /// anything runs: the manifest must decode, speak this binary's
    /// checkpoint version, and carry a world/campaign fingerprint that
    /// this binary reproduces from the manifest's own knobs. Shard files
    /// are loaded and range-checked here too — `run()` afterwards cannot
    /// fail, it just finishes the remaining user ranges.
    ///
    /// Execution-shape knobs (threads, worker processes and their
    /// supervision) are re-read from the environment — they cannot
    /// change the bytes. The fault schedule is *not*: the
    /// resolved spec stored in the manifest is pinned, so the resumed
    /// half replays the original schedule even if `ROAM_FAULTS` changed
    /// in between.
    ///
    /// # Errors
    /// See [`ResumeError`] — every variant is a refusal, never a silent
    /// restart.
    pub fn resume(dir: impl Into<PathBuf>) -> Result<FleetRunner, ResumeError> {
        let dir = dir.into();
        let manifest = checkpoint::load_manifest(&dir)?;
        let computed = checkpoint::run_fingerprint(
            manifest.seed,
            &manifest.config,
            manifest.telemetry,
            &manifest.faults,
        );
        if computed != manifest.fingerprint {
            return Err(ResumeError::FingerprintMismatch {
                stored: manifest.fingerprint,
                computed,
            });
        }
        let users = manifest.config.users.max(1);
        if plan::effective_shards(users, manifest.config.shards) != manifest.shards {
            return Err(ResumeError::Corrupt(
                dir.join(checkpoint::MANIFEST_FILE),
                CodecError::BadValue("shard count"),
            ));
        }
        let mut states = Vec::with_capacity(manifest.shards);
        for i in 0..manifest.shards {
            let state = checkpoint::load_shard(&dir, i)?;
            if let Some(s) = &state {
                let (lo, hi) = plan::shard_range(users, i, manifest.shards);
                if s.next_uid < lo || s.next_uid > hi {
                    return Err(ResumeError::Corrupt(
                        dir.join(checkpoint::shard_file(i)),
                        CodecError::BadValue("next_uid out of range"),
                    ));
                }
            }
            states.push(state);
        }
        Ok(FleetRunner {
            config: manifest.config,
            mode: RunMode::from_env(),
            faults: Some(manifest.faults),
            telemetry: manifest.telemetry,
            workers: env_parse("ROAM_FLEET_WORKERS").unwrap_or(0),
            worker_faults: WorkerFaultSpec::from_env(),
            supervisor: SupervisorPolicy::from_env(),
            checkpoint_dir: Some(dir),
            checkpoint_every: manifest.every.max(1),
            resume: Some(states),
            ..FleetRunner::new(manifest.seed)
        })
    }

    /// Population size.
    #[must_use]
    pub fn users(mut self, users: u64) -> Self {
        self.config.users = users.max(1);
        self
    }

    /// Number of shards the population splits into.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards.max(1);
        self
    }

    /// Calendar window, days.
    #[must_use]
    pub fn days(mut self, days: u32) -> Self {
        self.config.days = days.max(1);
        self
    }

    /// Journey-sample capacity.
    #[must_use]
    pub fn sample(mut self, sample: usize) -> Self {
        self.config.sample = sample;
        self
    }

    /// Spread shards over `workers` threads (`<= 1` means sequential).
    /// Orthogonal to [`FleetRunner::workers`]; with worker processes
    /// active each process runs its stripe sequentially.
    #[must_use]
    pub fn parallel(mut self, workers: usize) -> Self {
        self.mode = if workers <= 1 {
            RunMode::Sequential
        } else {
            RunMode::Parallel(workers)
        };
        self
    }

    /// Run shards in `n` worker *processes* instead of in-process
    /// threads (`0` restores the in-process backend). The report bytes
    /// are identical either way; worker mode buys memory isolation and
    /// kill-tolerance (with checkpointing, a dead worker loses at most
    /// one cadence window).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Explicit path to the `fleet_worker` binary, for harnesses that
    /// know exactly which build to run (otherwise discovery tries
    /// `ROAM_FLEET_WORKER_BIN`, then siblings of the current
    /// executable).
    #[must_use]
    pub fn worker_bin(mut self, path: impl Into<PathBuf>) -> Self {
        self.worker_bin = Some(path.into());
        self
    }

    /// Pin the worker-fault injection spec for the run, overriding
    /// `ROAM_WORKER_FAULTS`. Injection sabotages worker *executions*
    /// (crash, stall, torn frame, nonzero exit); the supervisor
    /// recovers every one, so the report bytes cannot change — that
    /// invariant is exactly what the chaos harness exists to pin.
    #[must_use]
    pub fn worker_faults(mut self, spec: WorkerFaultSpec) -> Self {
        self.worker_faults = spec;
        self
    }

    /// Per-shard retry budget before a shard is quarantined to
    /// in-process execution (`ROAM_WORKER_RETRIES`).
    #[must_use]
    pub fn worker_retries(mut self, retries: u32) -> Self {
        self.supervisor.retries = retries;
        self
    }

    /// Worker stall deadline, wall milliseconds with no frame from the
    /// child before the supervisor declares it stalled and respawns it
    /// (`ROAM_WORKER_DEADLINE_MS`). Must exceed the longest single
    /// shard, since the worker only heartbeats *between* shards.
    #[must_use]
    pub fn worker_deadline_ms(mut self, ms: u64) -> Self {
        self.supervisor.deadline_ms = ms.max(1);
        self
    }

    /// Write checkpoints into `dir` as the run progresses (and the run
    /// manifest up front).
    #[must_use]
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Checkpoint cadence: accumulated sim-days per shard between
    /// writes.
    #[must_use]
    pub fn checkpoint_every(mut self, sim_days: u64) -> Self {
        self.checkpoint_every = sim_days.max(1);
        self
    }

    /// Harness knob: stop each shard after `n` checkpoint writes, as a
    /// deterministic stand-in for a mid-run SIGKILL. The returned run is
    /// marked [`FleetRun::halted`].
    #[must_use]
    pub fn halt_after(mut self, n: u32) -> Self {
        self.halt_after = Some(n);
        self
    }

    /// The runner, unchanged: [`TransportKind`] names the one transfer
    /// model. It exists only for roambench until ROADMAP item 1(b).
    #[must_use]
    pub fn transport(self, _kind: TransportKind) -> Self {
        self
    }

    /// Pin the fault schedule for the run, overriding `ROAM_FAULTS`.
    /// Every shard's world runs the same spec, so fault windows are
    /// identical across shard counts.
    #[must_use]
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Select what the telemetry plane records.
    #[must_use]
    pub fn telemetry(mut self, mode: TelemetryMode) -> Self {
        self.telemetry = mode;
        self
    }

    /// Stream one [`Dataset::Sessions`] row per measurement session
    /// into `sink`, in shard-index order after the shards finish (rows
    /// within a shard keep session order, so the stream is identical
    /// across thread counts). The report bytes are unaffected.
    ///
    /// In-process backend only: `run()` asserts `workers == 0` and no
    /// checkpoint directory, since records cross neither process
    /// boundaries nor checkpoint files.
    #[must_use]
    pub fn sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The configured population size (used by smoke tooling to report
    /// users/sec without re-reading the environment).
    #[must_use]
    pub fn population(&self) -> u64 {
        self.config.users
    }

    /// Check the builder knobs for contradictions without running
    /// anything — the validation [`FleetRunner::try_run`] performs.
    ///
    /// # Errors
    /// See [`FleetConfigError`]; every variant names the two knobs that
    /// conflict.
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        if self.sink.is_some() {
            if self.workers > 0 {
                return Err(FleetConfigError::SinkWithWorkers {
                    workers: self.workers,
                });
            }
            if self.checkpoint_dir.is_some() {
                return Err(FleetConfigError::SinkWithCheckpoint);
            }
        }
        Ok(())
    }

    /// Run the fleet: plan the shard ranges, execute them on the selected
    /// backend, fold reports and telemetry in shard order.
    ///
    /// Panics on a contradictory configuration or a sick checkpoint
    /// directory — use [`FleetRunner::try_run`] to get the refusal as a
    /// typed [`FleetError`] instead.
    #[must_use]
    pub fn run(&self) -> FleetRun {
        match self.try_run() {
            Ok(run) => run,
            Err(err) => panic!("{err}"),
        }
    }

    /// Run the fleet, refusing contradictory configurations and
    /// checkpoint-plane I/O failures with a typed [`FleetError`] instead
    /// of a panic. Services embedding the runner (roam-service,
    /// long-running agents) use this so a bad knob combination or a sick
    /// durable sink surfaces as a recoverable error before any shard
    /// executes.
    ///
    /// Worker failures never surface here: with `workers > 0` the
    /// [`crate::supervisor`] recovers crashes, stalls, nonzero exits and
    /// protocol violations by respawn + deterministic retry, falling
    /// back to in-process execution for shards past their retry budget.
    /// What the supervisor did is reported in [`FleetRun::supervision`].
    ///
    /// # Errors
    /// See [`FleetError`].
    pub fn try_run(&self) -> Result<FleetRun, FleetError> {
        self.validate()?;
        let users = self.config.users.max(1);
        let shards = plan::effective_shards(users, self.config.shards);
        // Resolve every knob once, up front: the resolved values go to
        // every shard's world, into worker jobs and into the checkpoint
        // manifest, so no shard, worker or resumed run can see different
        // ones — and no other run in this process can change them.
        let knobs = RunKnobs {
            telemetry: self.telemetry,
            faults: self.faults.unwrap_or_else(FaultSpec::current),
        };
        let policy = self.checkpoint_dir.as_ref().map(|dir| CheckpointPolicy {
            dir: dir.clone(),
            every_days: self.checkpoint_every.max(1),
            halt_after: self.halt_after,
        });
        if let Some(policy) = &policy {
            let manifest = Manifest {
                seed: self.seed,
                fingerprint: checkpoint::run_fingerprint(
                    self.seed,
                    &self.config,
                    self.telemetry,
                    &knobs.faults,
                ),
                shards,
                every: policy.every_days,
                config: self.config,
                telemetry: self.telemetry,
                faults: knobs.faults,
            };
            checkpoint::write_manifest(&policy.dir, &manifest).map_err(|source| {
                FleetError::Checkpoint {
                    dir: policy.dir.clone(),
                    source,
                }
            })?;
        }
        let plans = plan::plan_shards(users, shards, self.resume.clone());
        if self.workers > 0 {
            let job = WorkerJob {
                seed: self.seed,
                config: self.config,
                knobs,
                worker_faults: self.worker_faults,
                deadline_ms: self.supervisor.deadline_ms,
                shards: Vec::new(),
                checkpoint: policy,
            };
            let supervised = supervisor::supervise(
                &job,
                plans,
                self.workers,
                self.worker_bin.as_ref(),
                self.supervisor,
            );
            let mut run = merge_outcomes(self.config.sample, self.telemetry, supervised.outcomes);
            // Fold the supervisor's own counters in only when recovery
            // actually happened: a clean worker run must stay
            // telemetry-byte-identical to an in-process run (the
            // worker_mode tests pin exactly that).
            if supervised.stats.recovered() {
                run.telemetry.absorb(supervised.snap);
            }
            run.supervision = supervised.stats;
            return Ok(run);
        }
        let inputs = RunInputs::build(self.seed, knobs);
        let mut outcomes = run_shards(self.mode, shards, |i| {
            run_fleet_shard(
                &inputs,
                &self.config,
                plans[i].clone(),
                policy.as_ref(),
                self.sink.is_some(),
            )
        });
        if let Some(sink) = &self.sink {
            // Stream in shard-index order — `run_shards` returns outcomes
            // in shard order and sessions within a shard keep session
            // order — locking once for the whole walk so rows never
            // interleave with another exporter's.
            let mut sink = sink.lock().expect("fleet sink poisoned");
            for outcome in &mut outcomes {
                crate::sink::SessionRows(&outcome.sessions)
                    .export_rows(Dataset::Sessions, &mut *sink);
                outcome.sessions = Vec::new();
            }
        }
        Ok(merge_outcomes(self.config.sample, self.telemetry, outcomes))
    }
}
