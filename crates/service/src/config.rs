//! Service sizing knobs, and the one module that reads `ROAM_*`.
//!
//! [`ServiceConfig`] sizes the agent: how many users it tends, how they
//! are grouped into cohorts, and the cadences its recurring jobs run at.
//! Like the fleet knobs, none of them can change a *user's* byte stream —
//! they size the population, the tick calendar and the export queue. The
//! measurement mix and journey-sample capacity are shared with the fleet
//! plane (`ROAM_FLEET_MIX`, `ROAM_FLEET_SAMPLE`) because cohort ticks run
//! through the same plan/exec/merge pipeline.
//!
//! Runners take every knob as a value; the binaries parse the environment
//! with [`Env`], one function per variable, and exit 2 on a [`KnobError`].
//! `Network::new` and [`Agent::new`](crate::Agent::new) still read
//! `ROAM_FAULTS` and `ROAM_TELEMETRY` themselves, through
//! [`FaultSpec::from_env`] and [`TelemetryMode::from_env`], so the
//! binaries call [`Env::run`] first: a malformed value exits 2 here
//! instead of panicking there.

use roam_fleet::{
    FleetConfig, FleetRunner, SessionMix, WorkerFaultSpec, DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_WORKER_DEADLINE_MS, DEFAULT_WORKER_RETRIES,
};
use roam_netsim::FaultSpec;
use roam_telemetry::TelemetryMode;
use std::num::NonZeroUsize;
use std::path::PathBuf;

/// Everything that sizes the long-running agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Users across all cohorts at start (`ROAM_SERVICE_USERS`).
    pub users: u64,
    /// Cohorts the population is split into (`ROAM_SERVICE_COHORTS`).
    /// Each owns a disjoint uid namespace, so the split never changes
    /// any user's streams — only which tick they ride on.
    pub cohorts: usize,
    /// Sim-days between cohort ticks, which is also the calendar window
    /// each tick plays out (`ROAM_SERVICE_TICK_DAYS`).
    pub tick_days: u32,
    /// Vantage probe sessions per country per probe fire
    /// (`ROAM_SERVICE_PROBES`). Probes alternate RTT and DNS.
    pub probes: u32,
    /// Cohort time-to-live in ticks (`ROAM_SERVICE_TTL`); `0` means
    /// cohorts never expire (incompatible with `--until-idle`).
    pub ttl_ticks: u64,
    /// Per-tick churn bound, percent of the cohort's live users
    /// (`ROAM_SERVICE_CHURN`). Departures and arrivals are drawn
    /// independently from `0..=live*pct/100` on the tick's own stream.
    pub churn_pct: u32,
    /// Export queue capacity in records (`ROAM_SERVICE_QUEUE`). When the
    /// queue fills, the virtual clock blocks while it drains into the
    /// sink — records are never dropped.
    pub queue_cap: usize,
    /// Sim-days between agent checkpoints (`ROAM_SERVICE_CKPT`), when a
    /// checkpoint directory is configured.
    pub ckpt_days: u64,
    /// Journey-sample capacity, shared knob (`ROAM_FLEET_SAMPLE`).
    pub sample: usize,
    /// Measurement mix per session, shared knob (`ROAM_FLEET_MIX`).
    pub mix: SessionMix,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let fleet = FleetConfig::default();
        ServiceConfig {
            users: 2_000,
            cohorts: 3,
            tick_days: 7,
            probes: 4,
            ttl_ticks: 0,
            churn_pct: 10,
            queue_cap: 8_192,
            ckpt_days: 7,
            sample: fleet.sample,
            mix: fleet.mix,
        }
    }
}

/// Why a [`ServiceConfig`] cannot drive an agent. Every variant is a
/// startup refusal with the offending value in the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceConfigError {
    /// `cohorts == 0`: there is nobody to tick.
    NoCohorts,
    /// `users == 0`: an empty population never produces a record.
    NoUsers,
    /// `churn_pct > 100`: a tick cannot retire more users than live.
    ChurnOverFull {
        /// The out-of-range percentage.
        pct: u32,
    },
    /// `--until-idle` with `ttl_ticks == 0`: immortal cohorts never
    /// drain, so the run would have no end.
    UntilIdleNeedsTtl,
}

impl std::fmt::Display for ServiceConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceConfigError::NoCohorts => write!(f, "ROAM_SERVICE_COHORTS must be >= 1"),
            ServiceConfigError::NoUsers => write!(f, "ROAM_SERVICE_USERS must be >= 1"),
            ServiceConfigError::ChurnOverFull { pct } => {
                write!(f, "ROAM_SERVICE_CHURN must be <= 100 percent; got {pct}")
            }
            ServiceConfigError::UntilIdleNeedsTtl => write!(
                f,
                "--until-idle requires a finite cohort TTL (ROAM_SERVICE_TTL >= 1): \
                 immortal cohorts never drain"
            ),
        }
    }
}

impl std::error::Error for ServiceConfigError {}

impl ServiceConfig {
    /// Structural validation shared by the agent constructor and the
    /// checkpoint decoder.
    pub fn validate(&self) -> Result<(), ServiceConfigError> {
        if self.cohorts == 0 {
            return Err(ServiceConfigError::NoCohorts);
        }
        if self.users == 0 {
            return Err(ServiceConfigError::NoUsers);
        }
        if self.churn_pct > 100 {
            return Err(ServiceConfigError::ChurnOverFull {
                pct: self.churn_pct,
            });
        }
        Ok(())
    }

    /// The fleet sizing a cohort tick runs under: the tick window is the
    /// calendar window, the mix and sample are the shared knobs, and the
    /// fleet's own `users`/`shards` are ignored by [`UserBatch`]
    /// (the batch's uid range and sub-shard split replace them).
    ///
    /// [`UserBatch`]: roam_fleet::UserBatch
    #[must_use]
    pub fn fleet(&self) -> FleetConfig {
        FleetConfig {
            users: self.users,
            shards: 1,
            days: self.tick_days,
            sample: self.sample,
            mix: self.mix,
        }
    }
}

/// A `ROAM_*` variable that is set but malformed: its name, its value
/// as set, and what the value should look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobError {
    pub var: &'static str,
    pub value: String,
    pub expected: &'static str,
}

impl std::fmt::Display for KnobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}={:?}: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl KnobError {
    /// Refuse to run: print the error on stderr and exit 2.
    pub fn exit(self) -> ! {
        eprintln!("refusing to run: {self}");
        std::process::exit(2)
    }
}

/// The knobs a campaign or fleet run shares: `ROAM_PARALLEL`,
/// `ROAM_FAULTS` and `ROAM_TELEMETRY`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunEnv {
    pub threads: usize,
    pub faults: FaultSpec,
    pub telemetry: TelemetryMode,
}

/// Where `fleet_smoke` writes the streamed sessions table:
/// `csv:<path>` or `columnar:<path>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionExport {
    Csv(PathBuf),
    Columnar(PathBuf),
}

/// The `ROAM_*` values a binary runs under, taken from the process
/// environment by [`Env::process`]. Unset or blank means the default;
/// anything else must parse.
#[derive(Debug)]
pub struct Env(Vec<(String, String)>);

impl Env {
    /// The process environment.
    #[must_use]
    pub fn process() -> Env {
        let lossy = |s: std::ffi::OsString| s.to_string_lossy().into_owned();
        Env(std::env::vars_os()
            .map(|(k, v)| (lossy(k), lossy(v)))
            .collect())
    }

    /// `var` through `parse`; `None` when unset or blank.
    fn get<T>(
        &self,
        var: &'static str,
        expected: &'static str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, KnobError> {
        let raw = self.0.iter().find(|(k, _)| k == var).map_or("", |(_, v)| v);
        let value = raw.to_string();
        match raw.trim() {
            "" => Ok(None),
            s => parse(s).map(Some).ok_or(KnobError {
                var,
                value,
                expected,
            }),
        }
    }

    fn int_or<T: std::str::FromStr>(&self, var: &'static str, default: T) -> Result<T, KnobError> {
        let value = self.get(var, "an unsigned integer", |s| s.parse().ok())?;
        Ok(value.unwrap_or(default))
    }

    /// The run seed, `ROAM_SEED` (default 42).
    pub fn seed(&self) -> Result<u64, KnobError> {
        self.int_or("ROAM_SEED", 42)
    }

    /// Worker threads, `ROAM_PARALLEL`: `auto` is one per core; unset,
    /// `0` and `1` run sequentially.
    pub fn threads(&self) -> Result<usize, KnobError> {
        let cores = || std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let threads = self.get("ROAM_PARALLEL", "auto or a thread count", |s| match s {
            "auto" => Some(cores()),
            n => n.parse().ok(),
        })?;
        Ok(threads.unwrap_or(1))
    }

    /// The checkpoint directory, `ROAM_CHECKPOINT_DIR`.
    pub fn checkpoint_dir(&self) -> Result<Option<PathBuf>, KnobError> {
        self.get("ROAM_CHECKPOINT_DIR", "a path", |s| Some(PathBuf::from(s)))
    }

    /// Threads, faults (`ROAM_FAULTS`, default off) and telemetry
    /// (`ROAM_TELEMETRY`, default off).
    pub fn run(&self) -> Result<RunEnv, KnobError> {
        let spec = "off, light, heavy or key=value pairs";
        let faults = self.get("ROAM_FAULTS", spec, FaultSpec::parse)?;
        let modes = "off, summary or jsonl";
        let telemetry = self.get("ROAM_TELEMETRY", modes, TelemetryMode::parse)?;
        Ok(RunEnv {
            threads: self.threads()?,
            faults: faults.unwrap_or_else(FaultSpec::off),
            telemetry: telemetry.unwrap_or_default(),
        })
    }

    /// `ROAM_FLEET_SAMPLE` and `ROAM_FLEET_MIX`, which the fleet and the
    /// agent share.
    fn sample_and_mix(&self) -> Result<(usize, SessionMix), KnobError> {
        let d = FleetConfig::default();
        let mix = self.get(
            "ROAM_FLEET_MIX",
            "rtt:dns:transfer weights",
            SessionMix::parse,
        )?;
        Ok((
            self.int_or("ROAM_FLEET_SAMPLE", d.sample)?,
            mix.unwrap_or(d.mix),
        ))
    }

    /// The agent's sizing: `ROAM_SERVICE_*` and the shared sample and mix.
    pub fn service(&self) -> Result<ServiceConfig, KnobError> {
        let d = ServiceConfig::default();
        let (sample, mix) = self.sample_and_mix()?;
        Ok(ServiceConfig {
            users: self.int_or("ROAM_SERVICE_USERS", d.users)?,
            cohorts: self.int_or("ROAM_SERVICE_COHORTS", d.cohorts)?,
            tick_days: self.int_or("ROAM_SERVICE_TICK_DAYS", d.tick_days)?.max(1),
            probes: self.int_or("ROAM_SERVICE_PROBES", d.probes)?.max(1),
            ttl_ticks: self.int_or("ROAM_SERVICE_TTL", d.ttl_ticks)?,
            churn_pct: self.int_or("ROAM_SERVICE_CHURN", d.churn_pct)?,
            queue_cap: self.int_or("ROAM_SERVICE_QUEUE", d.queue_cap)?.max(1),
            ckpt_days: self.int_or("ROAM_SERVICE_CKPT", d.ckpt_days)?.max(1),
            sample,
            mix,
        })
    }

    /// A fresh fleet runner for `seed` under every fleet knob:
    /// `ROAM_FLEET_*`, the checkpoint plane, faults, telemetry and
    /// [`Env::fleet_execution`].
    pub fn fleet_runner(&self, seed: u64) -> Result<FleetRunner, KnobError> {
        let (d, run) = (FleetConfig::default(), self.run()?);
        let (sample, mix) = self.sample_and_mix()?;
        let every = self.int_or("ROAM_CHECKPOINT_EVERY", DEFAULT_CHECKPOINT_EVERY)?;
        let runner = self
            .fleet_execution(FleetRunner::new(seed))?
            .users(self.int_or("ROAM_FLEET_USERS", d.users)?)
            .shards(self.int_or("ROAM_FLEET_SHARDS", d.shards)?)
            .days(self.int_or("ROAM_FLEET_DAYS", d.days)?)
            .sample(sample)
            .mix(mix)
            .faults(run.faults)
            .telemetry(run.telemetry)
            .checkpoint_every(every);
        Ok(match self.checkpoint_dir()? {
            Some(dir) => runner.checkpoint_dir(dir),
            None => runner,
        })
    }

    /// `runner` under the knobs that shape a fleet run's execution but
    /// never its bytes: `ROAM_PARALLEL`, `ROAM_FLEET_WORKERS`,
    /// `ROAM_FLEET_WORKER_BIN` and `ROAM_WORKER_*`. A resumed runner takes
    /// these and nothing else; its manifest holds the rest.
    pub fn fleet_execution(&self, runner: FleetRunner) -> Result<FleetRunner, KnobError> {
        let spec = "off, light, heavy or key=probability pairs";
        let faults = self.get("ROAM_WORKER_FAULTS", spec, WorkerFaultSpec::parse)?;
        let deadline_ms = self.int_or("ROAM_WORKER_DEADLINE_MS", DEFAULT_WORKER_DEADLINE_MS)?;
        let runner = runner
            .parallel(self.threads()?)
            .workers(self.int_or("ROAM_FLEET_WORKERS", 0)?)
            .worker_faults(faults.unwrap_or_else(WorkerFaultSpec::off))
            .worker_retries(self.int_or("ROAM_WORKER_RETRIES", DEFAULT_WORKER_RETRIES)?)
            .worker_deadline_ms(deadline_ms);
        let bin = self.get("ROAM_FLEET_WORKER_BIN", "a path", |s| {
            Some(PathBuf::from(s))
        })?;
        Ok(match bin {
            Some(bin) => runner.worker_bin(bin),
            None => runner,
        })
    }

    /// `ROAM_RESUME`: resume the checkpoint directory instead of starting
    /// fresh.
    pub fn resume(&self) -> Result<bool, KnobError> {
        let flag = |s: &str| match s {
            "1" | "true" => Some(true),
            "0" | "false" => Some(false),
            _ => None,
        };
        let resume = self.get("ROAM_RESUME", "1, true, 0 or false", flag)?;
        Ok(resume.unwrap_or(false))
    }

    /// `ROAM_FLEET_EXPORT`.
    pub fn export(&self) -> Result<Option<SessionExport>, KnobError> {
        self.get(
            "ROAM_FLEET_EXPORT",
            "csv:<path> or columnar:<path>",
            |s| match s.split_once(':')? {
                ("csv", path) if !path.is_empty() => Some(SessionExport::Csv(path.into())),
                ("columnar", path) if !path.is_empty() => {
                    Some(SessionExport::Columnar(path.into()))
                }
                _ => None,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exactly these variables.
    fn vars<const N: usize>(vars: [(&str, &str); N]) -> Env {
        Env(vars
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect())
    }

    #[test]
    fn defaults_validate() {
        let c = ServiceConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.fleet().days, c.tick_days);
        assert_eq!(c.fleet().mix, c.mix);
    }

    #[test]
    fn out_of_range_knobs_are_refused() {
        let c = ServiceConfig {
            cohorts: 0,
            ..ServiceConfig::default()
        };
        assert_eq!(c.validate(), Err(ServiceConfigError::NoCohorts));
        let c = ServiceConfig {
            users: 0,
            ..ServiceConfig::default()
        };
        assert_eq!(c.validate(), Err(ServiceConfigError::NoUsers));
        let c = ServiceConfig {
            churn_pct: 101,
            ..ServiceConfig::default()
        };
        assert_eq!(
            c.validate(),
            Err(ServiceConfigError::ChurnOverFull { pct: 101 })
        );
        let msg = ServiceConfigError::ChurnOverFull { pct: 101 }.to_string();
        assert!(msg.contains("101"), "{msg}");
    }

    #[test]
    fn malformed_knobs_are_refused_by_name_and_value() {
        let err = vars([("ROAM_FLEET_USERS", "100k")])
            .fleet_runner(1)
            .unwrap_err();
        assert_eq!(
            err,
            KnobError {
                var: "ROAM_FLEET_USERS",
                value: "100k".to_string(),
                expected: "an unsigned integer",
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains("ROAM_FLEET_USERS") && msg.contains("100k"),
            "{msg}"
        );
        let err = vars([("ROAM_PARALLEL", "four")]).threads().unwrap_err();
        assert_eq!((err.var, err.value.as_str()), ("ROAM_PARALLEL", "four"));
        for (var, value) in [
            ("ROAM_SERVICE_QUEUE", "-1"),
            ("ROAM_FLEET_MIX", "0:0:0"),
            ("ROAM_WORKER_FAULTS", "crash=2"),
            ("ROAM_RESUME", "yes"),
            ("ROAM_FLEET_EXPORT", "parquet:s.pq"),
            ("ROAM_FAULTS", "hevy"),
            ("ROAM_TELEMETRY", "verbose"),
        ] {
            let env = vars([(var, value)]);
            let refused = [
                env.run().err(),
                env.service().err(),
                env.fleet_execution(FleetRunner::new(1)).err(),
                env.resume().err(),
                env.export().err(),
            ];
            let err = refused.into_iter().flatten().next();
            assert_eq!(err.map(|e| e.var), Some(var), "{var}={value} is refused");
        }
    }

    #[test]
    fn values_take_their_documented_forms() {
        let env = vars([
            ("ROAM_PARALLEL", " 4 "),
            ("ROAM_SEED", ""),
            ("ROAM_RESUME", "true"),
            ("ROAM_FLEET_EXPORT", "columnar:s.frame"),
            ("ROAM_SERVICE_QUEUE", "16"),
            ("ROAM_FLEET_MIX", "1:0:1"),
        ]);
        assert_eq!(env.threads(), Ok(4));
        assert_eq!(env.seed(), Ok(42), "blank is unset");
        assert_eq!(env.resume(), Ok(true));
        let frame = SessionExport::Columnar("s.frame".into());
        assert_eq!(env.export(), Ok(Some(frame)));
        let service = env.service().unwrap();
        assert_eq!(
            (service.queue_cap, service.mix),
            (16, SessionMix::new(1, 0, 1))
        );
        let auto = vars([("ROAM_PARALLEL", "auto")]).threads().unwrap();
        assert!(auto >= 1);
        assert_eq!(vars([]).threads(), Ok(1));
        let env = vars([("ROAM_FAULTS", "heavy"), ("ROAM_TELEMETRY", " jsonl")]);
        let run = env.run().unwrap();
        assert_eq!(
            (run.faults, run.telemetry),
            (FaultSpec::heavy(), TelemetryMode::Jsonl)
        );
        let run = vars([]).run().unwrap();
        assert_eq!(
            (run.faults, run.telemetry),
            (FaultSpec::off(), TelemetryMode::Off)
        );
        assert_eq!(vars([]).service(), Ok(ServiceConfig::default()));
    }

    #[test]
    fn execution_knobs_reach_fresh_and_resumed_runners() {
        let dir = std::env::temp_dir().join(format!("roam-config-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let finished = FleetRunner::new(9)
            .users(6)
            .shards(2)
            .days(2)
            .checkpoint_dir(&dir)
            .run();
        assert!(!finished.halted);
        let env = vars([
            ("ROAM_PARALLEL", "3"),
            ("ROAM_FLEET_WORKERS", "2"),
            ("ROAM_FLEET_WORKER_BIN", "bin/fleet_worker"),
            ("ROAM_WORKER_FAULTS", "heavy"),
            ("ROAM_WORKER_RETRIES", "7"),
            ("ROAM_WORKER_DEADLINE_MS", "1234"),
            ("ROAM_FLEET_USERS", "7"),
            ("ROAM_FLEET_MIX", "1:0:1"),
            ("ROAM_CHECKPOINT_DIR", "ckpt"),
            ("ROAM_CHECKPOINT_EVERY", "99"),
        ]);
        let execution = [
            format!("mode: {:?}", roam_measure::RunMode::Parallel(3)),
            "workers: 2,".to_string(),
            "worker_bin: Some(\"bin/fleet_worker\")".to_string(),
            format!("worker_faults: {:?}", WorkerFaultSpec::heavy()),
            "supervisor: SupervisorPolicy { retries: 7, deadline_ms: 1234 }".to_string(),
        ];
        let scenario = [
            "users: 7,",
            "mix: SessionMix { rtt: 1, dns: 0, transfer: 1 }",
            "checkpoint_dir: Some(\"ckpt\")",
            "checkpoint_every: 99,",
        ];
        let default = format!("{:?}", FleetRunner::new(9));
        let fresh = format!("{:?}", env.fleet_runner(9).unwrap());
        let resumed = FleetRunner::resume(&dir).expect("a finished run resumes");
        let resumed = format!("{:?}", env.fleet_execution(resumed).unwrap());
        std::fs::remove_dir_all(&dir).ok();
        let all = execution.iter().map(String::as_str).chain(scenario);
        for field in all {
            assert!(!default.contains(field), "`{field}` is a default");
            assert!(
                fresh.contains(field),
                "fresh runner lacks `{field}`: {fresh}"
            );
        }
        for field in &execution {
            assert!(
                resumed.contains(field.as_str()),
                "resumed runner lacks `{field}`: {resumed}"
            );
        }
        for field in scenario {
            assert!(
                !resumed.contains(field),
                "the manifest, not `{field}`, rules a resume"
            );
        }
    }
}
