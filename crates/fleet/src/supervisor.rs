//! The worker-fleet supervision plane: crash recovery, deterministic
//! retry, and the worker-fault chaos harness.
//!
//! The paper's campaigns run on flaky vantage points — resident probes
//! and mobile clients that die, stall and reconnect constantly. The
//! worker backend inherits that failure surface: a `fleet_worker` child
//! can crash mid-shard, wedge, exit nonzero, or hand back a torn stdout
//! stream. This module makes every one of those a *recovery event*
//! instead of a run-aborting panic.
//!
//! ## Why recovery cannot change the bytes
//!
//! A shard is a pure function of `(seed, config, ShardSpec)` — see
//! `run_fleet_shard`. Re-executing a shard on a fresh child (or on the
//! parent itself) therefore produces a byte-identical
//! `ShardOutcome`, and the merge fold orders by shard index, not by
//! arrival. The supervisor exploits exactly this: it never tries to
//! salvage a dying child's partial work, it re-dispatches the shard and
//! lets determinism do the rest. Heavy chaos runs end byte-identical to
//! clean runs by construction.
//!
//! ## The state machine
//!
//! Every child slot is supervised by its own thread, one linear loop
//! that cycles through `spawn → stream → (done | dead)`:
//!
//! * **Liveness** is tracked by exit status plus a sim-progress
//!   heartbeat frame (`KIND_HEARTBEAT`) the worker emits before each
//!   shard. The heartbeat names the shard, so an in-flight death is
//!   charged to the right retry budget.
//! * **Detection** covers four failure classes: *crash* (killed by a
//!   signal), *nonzero exit*, *stall* (no frame within
//!   `ROAM_WORKER_DEADLINE_MS` of the last one, measured by the slot's
//!   own wait on a channel that only its current child feeds), and
//!   *protocol violation* (truncated stream, integrity-hash failure,
//!   wrong frame kind/version, result for an unassigned shard).
//! * **Recovery** kills the child, charges one retry to the shard that
//!   was in flight, and after a capped exponential backoff respawns
//!   the slot with its unfinished shards. The backoff sleeps on the
//!   slot's own thread, so other slots keep streaming meanwhile.
//! * **Escalation**: a shard that exhausts `ROAM_WORKER_RETRIES`
//!   attempts — or a child that dies repeatedly before announcing any
//!   shard — is *quarantined*: its range runs in-process on the parent,
//!   which cannot crash-loop, once every slot loop has ended.
//!   Supervised runs therefore always complete.
//!
//! ## The chaos plane
//!
//! [`WorkerFaultSpec`] (`ROAM_WORKER_FAULTS=off|light|heavy|key=value`)
//! mirrors [`FaultSpec`](roam_netsim::FaultSpec): presets or a custom
//! `crash=…,stall=…,torn=…,exit=…` spec. Injection decisions are keyed
//! draws over `(seed, shard index, attempt)` — never wall clock — so a
//! chaos run is exactly reproducible and a retried attempt re-rolls its
//! fate. The faults execute *inside the worker* (abort mid-shard, sleep
//! past the deadline, truncate or bit-flip a result frame, exit
//! nonzero); the parent supervises them like any real-world failure.

use crate::exec::{run_fleet_shard, RunInputs, ShardOutcome, ShardSpec};
use crate::worker::{self, WorkerEvent, WorkerJob};
use roam_codec::CodecError;
use roam_netsim::engine::flow_seed;
use roam_telemetry::{Counter, Recorder, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default per-shard retry budget (`ROAM_WORKER_RETRIES`): attempts
/// beyond the first before the shard is quarantined to the parent.
pub(crate) const DEFAULT_WORKER_RETRIES: u32 = 3;

/// Default stall deadline (`ROAM_WORKER_DEADLINE_MS`): a worker that
/// produces no frame for this long is declared stalled and killed.
pub(crate) const DEFAULT_WORKER_DEADLINE_MS: u64 = 30_000;

/// Consecutive child deaths *before any heartbeat* that quarantine the
/// slot's whole remaining stripe — the guard against a child that
/// cannot even start (missing binary, immediate abort), where no
/// per-shard budget would ever be charged.
const CHILD_STRIKES: u32 = 3;

/// First respawn backoff; doubles per consecutive failure of a slot.
const BACKOFF_BASE_MS: u64 = 25;

/// Respawn backoff cap.
const BACKOFF_CAP_MS: u64 = 400;

// ---------------------------------------------------------------------
// The deterministic worker-fault injection spec.
// ---------------------------------------------------------------------

/// What fraction of shard attempts a worker sabotages, per failure
/// class. Mirrors [`FaultSpec`](roam_netsim::FaultSpec): presets
/// ([`WorkerFaultSpec::off`]/[`light`](WorkerFaultSpec::light)/
/// [`heavy`](WorkerFaultSpec::heavy)), a `key=value` custom parser and
/// an environment knob (`ROAM_WORKER_FAULTS`) that the runner's entry
/// constructors read once.
///
/// Each probability is evaluated per `(shard, attempt)` with one keyed
/// uniform draw, cumulatively: `crash`, then `stall`, then `torn`, then
/// `exit`. Probabilities summing past 1.0 starve the later classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerFaultSpec {
    /// P(abort mid-shard) — the worker dies by signal after announcing
    /// the shard, before producing its result.
    pub crash: f64,
    /// P(stall) — the worker sleeps past the supervisor's deadline and
    /// then aborts; the parent must detect and kill it.
    pub stall: f64,
    /// P(torn frame) — the worker computes the shard but writes a
    /// corrupted result frame (truncated, or one payload byte flipped so
    /// the integrity hash fails) and exits 0.
    pub torn: f64,
    /// P(nonzero exit) — the worker exits 1 after announcing the shard.
    pub exit: f64,
}

impl WorkerFaultSpec {
    /// The disabled plane: no draws, no sabotage.
    #[must_use]
    pub fn off() -> Self {
        WorkerFaultSpec {
            crash: 0.0,
            stall: 0.0,
            torn: 0.0,
            exit: 0.0,
        }
    }

    /// Occasional worker trouble: the level a mostly-healthy probe
    /// fleet shows.
    #[must_use]
    pub fn light() -> Self {
        WorkerFaultSpec {
            crash: 0.05,
            stall: 0.02,
            torn: 0.04,
            exit: 0.05,
        }
    }

    /// A hostile fleet: most shard attempts are sabotaged one way or
    /// another. Supervised runs must still complete byte-identically.
    #[must_use]
    pub fn heavy() -> Self {
        WorkerFaultSpec {
            crash: 0.25,
            stall: 0.10,
            torn: 0.20,
            exit: 0.15,
        }
    }

    /// Is any injection class active?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.crash > 0.0 || self.stall > 0.0 || self.torn > 0.0 || self.exit > 0.0
    }

    /// Parse a spec: `off` or empty disable injection, `light` and
    /// `heavy` select the presets, anything else is comma-separated
    /// `key=value` pairs over a base of [`WorkerFaultSpec::off`]. Keys:
    /// `crash`, `stall`, `torn`, `exit`; each value a probability in
    /// `[0, 1]`. `None` when a key is unknown or a value is out of range.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "off" => return Some(WorkerFaultSpec::off()),
            "light" => return Some(WorkerFaultSpec::light()),
            "heavy" => return Some(WorkerFaultSpec::heavy()),
            _ => {}
        }
        let mut spec = WorkerFaultSpec::off();
        for pair in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=')?;
            let v: f64 = value.trim().parse().ok()?;
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return None;
            }
            match key.trim() {
                "crash" => spec.crash = v,
                "stall" => spec.stall = v,
                "torn" => spec.torn = v,
                "exit" => spec.exit = v,
                _ => return None,
            }
        }
        Some(spec)
    }

    /// Read the spec from `ROAM_WORKER_FAULTS` (see
    /// [`WorkerFaultSpec::parse`]; unset disables injection).
    ///
    /// # Panics
    /// On an unparseable spec — a misspelt knob should fail loudly at
    /// startup, not silently run the happy path.
    #[must_use]
    pub fn from_env() -> Self {
        std::env::var("ROAM_WORKER_FAULTS").map_or(WorkerFaultSpec::off(), |v| {
            WorkerFaultSpec::parse(&v)
                .unwrap_or_else(|| panic!("ROAM_WORKER_FAULTS: unparseable spec {:?}", v.trim()))
        })
    }

    /// The injected fate of one `(shard, attempt)` execution: one keyed
    /// uniform draw against the cumulative class probabilities. Pure in
    /// `(seed, shard, attempt)`, so parent and worker — and any two
    /// runs — agree on every sabotage decision.
    #[must_use]
    pub fn decide(&self, seed: u64, shard: usize, attempt: u32) -> Option<InjectedFault> {
        if !self.enabled() {
            return None;
        }
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let key = flow_seed(seed, &format!("wfault/s{shard}/a{attempt}"));
        let mut rng = SmallRng::seed_from_u64(key);
        let u: f64 = rng.gen();
        let mut edge = self.crash;
        if u < edge {
            return Some(InjectedFault::Crash);
        }
        edge += self.stall;
        if u < edge {
            return Some(InjectedFault::Stall);
        }
        edge += self.torn;
        if u < edge {
            // A second draw splits the torn class: truncate the frame
            // or flip one payload byte (integrity-hash failure).
            return Some(if rng.gen::<bool>() {
                InjectedFault::TornTruncate
            } else {
                InjectedFault::TornBitflip
            });
        }
        edge += self.exit;
        if u < edge {
            return Some(InjectedFault::ExitNonzero);
        }
        None
    }
}

/// One injected worker sabotage, decided by [`WorkerFaultSpec::decide`]
/// and executed by the worker's serve loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Abort (die by signal) after the heartbeat, before the result.
    Crash,
    /// Sleep past the parent's deadline, then abort.
    Stall,
    /// Write only a prefix of the sealed result frame, then exit 0.
    TornTruncate,
    /// Flip one payload byte of the sealed result frame (the integrity
    /// hash catches it), then exit 0.
    TornBitflip,
    /// Exit 1 after the heartbeat, before the result.
    ExitNonzero,
}

// ---------------------------------------------------------------------
// Policy and error taxonomy.
// ---------------------------------------------------------------------

/// The supervisor's escalation policy, resolved once per run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SupervisorPolicy {
    /// Per-shard retry budget: attempts beyond the first before the
    /// shard is quarantined (`ROAM_WORKER_RETRIES`).
    pub retries: u32,
    /// Stall deadline in wall milliseconds (`ROAM_WORKER_DEADLINE_MS`).
    pub deadline_ms: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            retries: DEFAULT_WORKER_RETRIES,
            deadline_ms: DEFAULT_WORKER_DEADLINE_MS,
        }
    }
}

impl SupervisorPolicy {
    /// Resolve the policy from `ROAM_WORKER_RETRIES` /
    /// `ROAM_WORKER_DEADLINE_MS`, with the documented defaults.
    #[must_use]
    pub fn from_env() -> Self {
        SupervisorPolicy {
            retries: crate::config::env_parse("ROAM_WORKER_RETRIES")
                .unwrap_or(DEFAULT_WORKER_RETRIES),
            deadline_ms: crate::config::env_parse("ROAM_WORKER_DEADLINE_MS")
                .unwrap_or(DEFAULT_WORKER_DEADLINE_MS)
                .max(1),
        }
    }
}

/// A protocol violation on a worker's result stream — every way the
/// bytes coming back over the pipe can be wrong, as a typed value. The
/// parent treats each as a recovery event (kill, respawn, retry), never
/// as a panic and never as silently-accepted data.
#[derive(Debug)]
pub enum ProtocolViolation {
    /// The stream ended (or errored) mid-frame.
    Truncated(String),
    /// A frame failed to unseal: bad magic, integrity-hash mismatch,
    /// short header — see [`CodecError`].
    Frame(CodecError),
    /// A sealed frame of a kind the result protocol does not speak.
    WrongKind(u16),
    /// A sealed frame from an incompatible payload-format version.
    WrongVersion(u16),
    /// A result/heartbeat payload that does not decode.
    Payload(CodecError),
    /// A result for a shard this child does not own (or already
    /// delivered).
    UnexpectedShard(usize),
    /// The child exited cleanly before delivering its whole stripe.
    MissingResults {
        /// Results delivered before the stream ended.
        got: usize,
        /// Results the stripe owed.
        expected: usize,
    },
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolViolation::Truncated(what) => write!(f, "truncated result stream: {what}"),
            ProtocolViolation::Frame(e) => write!(f, "unsealable frame: {e}"),
            ProtocolViolation::WrongKind(kind) => write!(f, "unexpected frame kind {kind}"),
            ProtocolViolation::WrongVersion(v) => write!(f, "unsupported frame version {v}"),
            ProtocolViolation::Payload(e) => write!(f, "undecodable payload: {e}"),
            ProtocolViolation::UnexpectedShard(index) => {
                write!(f, "result for unassigned shard {index}")
            }
            ProtocolViolation::MissingResults { got, expected } => {
                write!(f, "clean exit after {got} of {expected} shard results")
            }
        }
    }
}

/// One supervised worker failure: what went wrong, on which child, and
/// (when a heartbeat had announced one) which shard was in flight.
/// Every variant is a recovery event — the supervisor respawns and
/// retries; the taxonomy exists so telemetry, logs and tests can name
/// the cause precisely.
#[derive(Debug)]
pub enum WorkerError {
    /// The child process could not be spawned.
    Spawn {
        /// Child slot index.
        child: usize,
        /// The OS error.
        source: std::io::Error,
    },
    /// Writing the job frame to the child's stdin failed (typically a
    /// broken pipe from a child that died during startup).
    JobShip {
        /// Child slot index.
        child: usize,
        /// The OS error.
        source: std::io::Error,
    },
    /// The child was killed by a signal.
    Crashed {
        /// Child slot index.
        child: usize,
        /// Shard in flight when it died, if a heartbeat announced one.
        shard: Option<usize>,
        /// The exit status, rendered (`signal: 6 (SIGABRT)` etc.).
        status: String,
    },
    /// The child exited with a nonzero code.
    NonZeroExit {
        /// Child slot index.
        child: usize,
        /// Shard in flight when it exited, if announced.
        shard: Option<usize>,
        /// The exit code.
        code: i32,
    },
    /// The child produced no frame within the deadline.
    Stalled {
        /// Child slot index.
        child: usize,
        /// Shard in flight when it stalled, if announced.
        shard: Option<usize>,
        /// The deadline it blew, milliseconds.
        deadline_ms: u64,
    },
    /// The child's result stream violated the frame protocol.
    Protocol {
        /// Child slot index.
        child: usize,
        /// Shard in flight when the stream went bad, if announced.
        shard: Option<usize>,
        /// The violation.
        cause: ProtocolViolation,
    },
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shard = |s: &Option<usize>| match s {
            Some(i) => format!(" (shard {i} in flight)"),
            None => String::new(),
        };
        match self {
            WorkerError::Spawn { child, source } => {
                write!(f, "worker {child}: spawn failed: {source}")
            }
            WorkerError::JobShip { child, source } => {
                write!(f, "worker {child}: shipping job failed: {source}")
            }
            WorkerError::Crashed {
                child,
                shard: s,
                status,
            } => write!(f, "worker {child}: crashed [{status}]{}", shard(s)),
            WorkerError::NonZeroExit {
                child,
                shard: s,
                code,
            } => write!(f, "worker {child}: exited with code {code}{}", shard(s)),
            WorkerError::Stalled {
                child,
                shard: s,
                deadline_ms,
            } => write!(
                f,
                "worker {child}: no frame within {deadline_ms} ms{}",
                shard(s)
            ),
            WorkerError::Protocol {
                child,
                shard: s,
                cause,
            } => write!(f, "worker {child}: protocol violation: {cause}{}", shard(s)),
        }
    }
}

impl std::error::Error for WorkerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkerError::Spawn { source, .. } | WorkerError::JobShip { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What the supervision plane did during a run: respawns, retries,
/// quarantines, and the full failure history. Deliberately *outside*
/// the byte-stable report — recovery work never changes the bytes, so
/// it must not live in them.
#[derive(Debug, Default)]
pub struct SupervisionStats {
    /// Child processes respawned after a failure.
    pub respawns: u64,
    /// Shard attempts charged to a retry budget.
    pub retries: u64,
    /// Shards quarantined to in-process execution.
    pub quarantined: u64,
    /// Stall deadlines tripped.
    pub stalls: u64,
    /// Protocol violations on result streams.
    pub protocol_errors: u64,
    /// Heartbeat frames received.
    pub heartbeats: u64,
    /// Every supervised failure, grouped by child slot, in detection
    /// order within a slot.
    pub errors: Vec<WorkerError>,
}

impl SupervisionStats {
    /// Did the run need any recovery at all? (Heartbeats alone are
    /// normal operation.)
    #[must_use]
    pub fn recovered(&self) -> bool {
        self.respawns > 0 || self.retries > 0 || self.quarantined > 0 || !self.errors.is_empty()
    }
}

// ---------------------------------------------------------------------
// The supervisor.
// ---------------------------------------------------------------------

/// What `supervise` hands back to the runner.
pub(crate) struct Supervised {
    pub outcomes: Vec<ShardOutcome>,
    pub stats: SupervisionStats,
    /// The supervisor's own telemetry (restart/retry/quarantine
    /// counters), for the runner to absorb when recovery occurred.
    pub snap: TelemetrySnapshot,
}

/// Run `plans` across `workers` supervised child processes and return
/// every shard outcome. Infallible by escalation: any shard the worker
/// fleet cannot finish within its retry budget runs in-process on the
/// parent, so a supervised run always completes — and completes with
/// the same bytes, because shards are pure.
///
/// Each child slot is supervised by its own thread ([`supervise_slot`]),
/// so one slot's backoff never delays another slot's frames. Slot
/// results merge in slot order, which keeps the failure history a pure
/// function of the run.
pub(crate) fn supervise(
    job: &WorkerJob,
    plans: Vec<ShardSpec>,
    workers: usize,
    worker_bin: Option<&PathBuf>,
    policy: SupervisorPolicy,
) -> Supervised {
    let bin = worker::find_worker_bin(worker_bin);
    let stripes = crate::plan::stripe(plans.len(), workers);
    let slots: Vec<SlotReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = stripes
            .iter()
            .enumerate()
            .map(|(id, stripe)| {
                let queue = stripe.iter().map(|&i| plans[i].clone()).collect();
                let bin = bin.as_path();
                scope.spawn(move || supervise_slot(id, queue, job, bin, policy))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut outcomes: BTreeMap<usize, ShardOutcome> = BTreeMap::new();
    let mut quarantine = Vec::new();
    let mut stats = SupervisionStats::default();
    for slot in slots {
        outcomes.extend(slot.outcomes.into_iter().map(|o| (o.index, o)));
        quarantine.extend(slot.quarantine);
        stats.respawns += slot.stats.respawns;
        stats.retries += slot.stats.retries;
        stats.stalls += slot.stats.stalls;
        stats.protocol_errors += slot.stats.protocol_errors;
        stats.heartbeats += slot.stats.heartbeats;
        stats.errors.extend(slot.stats.errors);
    }

    // Escalation floor: quarantined shards run in-process under the
    // job's resolved knobs — the parent cannot crash-loop, and the
    // shard function is the exact one the workers run, so the bytes
    // cannot differ. The inputs are built only when something was
    // quarantined.
    quarantine.sort_unstable_by_key(|spec| spec.index);
    if !quarantine.is_empty() {
        let inputs = RunInputs::build(job.seed, job.knobs);
        for spec in quarantine {
            stats.quarantined += 1;
            let outcome =
                run_fleet_shard(&inputs, &job.config, spec, job.checkpoint.as_ref(), false);
            outcomes.entry(outcome.index).or_insert(outcome);
        }
    }

    let mut tel = Recorder::new(job.knobs.telemetry);
    tel.add(Counter::WorkerRestarts, stats.respawns);
    tel.add(Counter::WorkerRetries, stats.retries);
    tel.add(Counter::WorkerQuarantines, stats.quarantined);
    Supervised {
        outcomes: outcomes.into_values().collect(),
        stats,
        snap: tel.take(),
    }
}

/// One child slot's share of the run: the shards its children
/// delivered, the shards it gave up on, and what recovering cost.
#[derive(Default)]
struct SlotReport {
    outcomes: Vec<ShardOutcome>,
    /// Shards past their retry budget (or the whole remaining stripe of
    /// a child that cannot start), for the parent to run in-process.
    quarantine: Vec<ShardSpec>,
    /// Everything but `quarantined`, which the parent counts.
    stats: SupervisionStats,
}

/// Supervise one child slot until its stripe is delivered or
/// quarantined: spawn a child with the shards still owed, read its
/// frames under the stall deadline, and on any failure kill it, charge
/// the failure, back off and respawn.
///
/// `queue` holds the shards still owed, in dispatch order; each spec's
/// `attempt` counts the retries charged to that shard.
fn supervise_slot(
    id: usize,
    mut queue: Vec<ShardSpec>,
    job: &WorkerJob,
    bin: &Path,
    policy: SupervisorPolicy,
) -> SlotReport {
    let mut report = SlotReport::default();
    let deadline = Duration::from_millis(policy.deadline_ms);
    // Consecutive deaths with no shard in flight (startup failures,
    // between-shard crashes) — the cannot-make-progress detector. Only
    // a delivered result resets it; heartbeats alone prove nothing.
    let mut strikes = 0u32;
    // Consecutive failures of any kind, for backoff scaling. Reset by a
    // delivered result.
    let mut failures = 0u32;
    while !queue.is_empty() {
        // The shard the last heartbeat announced, until its result lands.
        let mut announced: Option<usize> = None;
        let err = match start_child(id, job, &queue, bin) {
            Err(err) => err,
            Ok((mut child, events, reader)) => {
                let verdict = loop {
                    let event = match events.recv_timeout(deadline) {
                        Ok(event) => event,
                        // The reader hangs up only after the stream's
                        // terminal event, which ends this loop; so this
                        // is the deadline passing.
                        Err(_) => {
                            report.stats.stalls += 1;
                            break Some(WorkerError::Stalled {
                                child: id,
                                shard: announced,
                                deadline_ms: policy.deadline_ms,
                            });
                        }
                    };
                    let cause = match event {
                        WorkerEvent::Heartbeat { shard, attempt } => {
                            // A heartbeat must announce a shard this
                            // child owns, at exactly the attempt number
                            // dispatched — anything else is a confused
                            // child.
                            if queue
                                .iter()
                                .any(|s| s.index == shard && s.attempt == attempt)
                            {
                                report.stats.heartbeats += 1;
                                announced = Some(shard);
                                continue;
                            }
                            ProtocolViolation::UnexpectedShard(shard)
                        }
                        // First result wins: delivery dequeues the
                        // shard, so a duplicate is an unassigned shard.
                        WorkerEvent::Result(outcome) => {
                            let index = outcome.index;
                            match queue.iter().position(|s| s.index == index) {
                                Some(pos) => {
                                    queue.remove(pos);
                                    report.outcomes.push(*outcome);
                                    if announced == Some(index) {
                                        announced = None;
                                    }
                                    failures = 0;
                                    strikes = 0;
                                    continue;
                                }
                                None => ProtocolViolation::UnexpectedShard(index),
                            }
                        }
                        WorkerEvent::Violation(cause) => cause,
                        WorkerEvent::Eof => {
                            let (code, status) = match child.wait() {
                                Ok(s) => (s.code(), s.to_string()),
                                Err(e) => (None, format!("wait failed: {e}")),
                            };
                            let shard = announced;
                            match code {
                                Some(0) if queue.is_empty() => break None, // clean finish
                                Some(0) => ProtocolViolation::MissingResults {
                                    got: 0, // the remaining queue length tells the real story
                                    expected: queue.len(),
                                },
                                Some(code) => {
                                    break Some(WorkerError::NonZeroExit {
                                        child: id,
                                        shard,
                                        code,
                                    })
                                }
                                None => {
                                    break Some(WorkerError::Crashed {
                                        child: id,
                                        shard,
                                        status,
                                    })
                                }
                            }
                        }
                    };
                    break Some(WorkerError::Protocol {
                        child: id,
                        shard: announced,
                        cause,
                    });
                };
                // Make sure the child is gone and reaped; frames still
                // draining from its pipe die with the channel. With the
                // pipe closed, the reader has ended.
                let _ = child.kill();
                let _ = child.wait();
                reader
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e));
                match verdict {
                    Some(err) => err,
                    None => break,
                }
            }
        };
        record_failure(err, &mut report.stats);
        failures += 1;
        if let Some(shard) = announced {
            // The heartbeat told us exactly which shard the failure
            // should be charged to.
            report.stats.retries += 1;
            if let Some(pos) = queue.iter().position(|s| s.index == shard) {
                queue[pos].attempt += 1;
                if queue[pos].attempt > policy.retries {
                    report.quarantine.push(queue.remove(pos));
                }
            }
        } else {
            // Died before announcing anything: strike the child. Past
            // the budget, nothing about this stripe is salvageable by
            // respawn.
            strikes += 1;
            if strikes >= CHILD_STRIKES {
                report.quarantine.append(&mut queue);
            }
        }
        if queue.is_empty() {
            break;
        }
        backoff(failures);
        report.stats.respawns += 1;
    }
    report
}

/// Spawn a `fleet_worker` child owing `queue` and ship it the job. The
/// returned channel carries the child's stdout as events, fed by the
/// returned reader thread, which ends with the child's pipe.
fn start_child(
    id: usize,
    job: &WorkerJob,
    queue: &[ShardSpec],
    bin: &Path,
) -> Result<(Child, mpsc::Receiver<WorkerEvent>, JoinHandle<()>), WorkerError> {
    let mut child = Command::new(bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|source| WorkerError::Spawn { child: id, source })?;
    let job = WorkerJob {
        shards: queue.to_vec(),
        checkpoint: job.checkpoint.clone(),
        ..*job
    };
    let ship =
        child
            .stdin
            .take()
            .map_or(Err(std::io::Error::other("no piped stdin")), |mut stdin| {
                stdin
                    .write_all(&job.to_frame())
                    .and_then(|()| stdin.flush())
            });
    let stdout = match (ship, child.stdout.take()) {
        (Ok(()), Some(stdout)) => stdout,
        (ship, _) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(match ship {
                Err(source) => WorkerError::JobShip { child: id, source },
                Ok(()) => WorkerError::Spawn {
                    child: id,
                    source: std::io::Error::other("no piped stdout"),
                },
            });
        }
    };
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        worker::read_worker_stream(stdout, |event| {
            let _ = tx.send(event);
        });
    });
    Ok((child, rx, reader))
}

/// Record one supervised failure (stderr note + history). The stderr
/// line keeps worker-mode diagnostics observable in harness runs
/// without touching stdout's protocol/report purity.
fn record_failure(err: WorkerError, stats: &mut SupervisionStats) {
    eprintln!("fleet supervisor: {err}; recovering");
    if matches!(err, WorkerError::Protocol { .. }) {
        stats.protocol_errors += 1;
    }
    stats.errors.push(err);
}

/// Capped exponential backoff before a respawn.
fn backoff(consecutive_failures: u32) {
    let exp = consecutive_failures.saturating_sub(1).min(8);
    let ms = (BACKOFF_BASE_MS << exp).min(BACKOFF_CAP_MS);
    std::thread::sleep(Duration::from_millis(ms));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_mirrors_the_fault_plane_knob() {
        assert_eq!(WorkerFaultSpec::parse(""), Some(WorkerFaultSpec::off()));
        assert_eq!(WorkerFaultSpec::parse("off"), Some(WorkerFaultSpec::off()));
        assert_eq!(
            WorkerFaultSpec::parse(" light"),
            Some(WorkerFaultSpec::light())
        );
        assert_eq!(
            WorkerFaultSpec::parse("heavy"),
            Some(WorkerFaultSpec::heavy())
        );
        let spec = WorkerFaultSpec::parse("crash=0.5, torn=0.25").expect("valid spec");
        assert!((spec.crash - 0.5).abs() < f64::EPSILON);
        assert!((spec.torn - 0.25).abs() < f64::EPSILON);
        assert!(spec.stall.abs() < f64::EPSILON);
        assert!(WorkerFaultSpec::parse("crash=1.5").is_none(), "rate > 1");
        assert!(WorkerFaultSpec::parse("flap=0.1").is_none(), "unknown key");
        assert!(WorkerFaultSpec::parse("crash").is_none(), "missing value");
    }

    #[test]
    fn decisions_are_keyed_and_attempt_sensitive() {
        let spec = WorkerFaultSpec {
            crash: 0.5,
            stall: 0.0,
            torn: 0.3,
            exit: 0.1,
        };
        for shard in 0..16usize {
            for attempt in 0..4u32 {
                let a = spec.decide(42, shard, attempt);
                let b = spec.decide(42, shard, attempt);
                assert_eq!(a, b, "same key, same fate");
            }
        }
        // Across shards and attempts the fates must actually vary —
        // otherwise a retry could never escape its sabotage.
        let fates: Vec<Option<InjectedFault>> =
            (0..64).map(|shard| spec.decide(7, shard, 0)).collect();
        assert!(fates.iter().any(Option::is_some), "some sabotage at 90%");
        assert!(fates.iter().any(Option::is_none), "some clean runs too");
        assert!(
            (0..8).any(|s| spec.decide(7, s, 0) != spec.decide(7, s, 1)),
            "attempts re-roll"
        );
    }

    #[test]
    fn off_spec_never_injects() {
        let spec = WorkerFaultSpec::off();
        assert!(!spec.enabled());
        for shard in 0..32 {
            assert_eq!(spec.decide(1, shard, 0), None);
        }
    }

    #[test]
    fn worker_errors_name_child_shard_and_cause() {
        let err = WorkerError::Protocol {
            child: 2,
            shard: Some(5),
            cause: ProtocolViolation::WrongKind(99),
        };
        let text = err.to_string();
        assert!(text.contains("worker 2"), "{text}");
        assert!(text.contains("shard 5"), "{text}");
        assert!(text.contains("kind 99"), "{text}");
        let stall = WorkerError::Stalled {
            child: 0,
            shard: None,
            deadline_ms: 1500,
        };
        assert!(stall.to_string().contains("1500 ms"));
    }
}
