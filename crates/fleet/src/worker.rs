//! The multi-process shard backend: worker processes execute disjoint
//! shard ranges and stream partial state back over pipes.
//!
//! ## Protocol
//!
//! One round trip, all sealed [`roam_codec`] frames:
//!
//! 1. The parent spawns `fleet_worker` processes, writes one
//!    `KIND_JOB` frame to each worker's stdin, and closes it. The job
//!    carries everything the worker needs — seed, sizing, the run's
//!    resolved [`RunKnobs`] (telemetry mode and faults; workers never
//!    consult the environment, so parent and workers can't diverge),
//!    its striped shard list with per-shard resume states, and the
//!    checkpoint policy.
//! 2. The worker runs its shards sequentially. Before each shard it
//!    writes one `KIND_HEARTBEAT` frame (shard index + attempt) so
//!    the supervising parent can tell a long shard from a stalled
//!    worker — and knows which shard to charge when the child dies
//!    mid-flight. Each finished shard becomes one `KIND_RESULT`
//!    frame; the worker exits 0 when its stripe is done.
//! 3. The parent's [`crate::supervisor`] reads the stream, classifies
//!    every deviation (crash, nonzero exit, stall, protocol violation)
//!    as a typed [`crate::supervisor::WorkerError`], and recovers by
//!    respawn + re-dispatch. Outcomes feed the same merger the
//!    in-process backend uses, so `FleetReport::render()` is
//!    byte-identical across backends — and across recoveries, because
//!    a shard is a pure function of `(seed, config, spec)`.
//!
//! Worker stdout carries nothing but protocol frames; anything human-
//! readable a worker has to say goes to stderr (inherited from the
//! parent). That keeps `fleet_smoke`'s stdout-purity contract intact in
//! worker mode.
//!
//! The worker side also hosts the chaos half of the supervision story:
//! when the job's [`WorkerFaultSpec`] is active, a keyed draw per
//! `(shard, attempt)` decides whether this execution crashes, stalls,
//! tears its result frame, or exits nonzero — see
//! [`crate::supervisor`] for the spec and the recovery contract.

use crate::checkpoint::{
    decode_config, decode_faults, encode_config, encode_faults, telemetry_from_wire,
    telemetry_to_wire, CheckpointPolicy, ShardState, CKPT_VERSION, KIND_HEARTBEAT, KIND_JOB,
    KIND_RESULT,
};
use crate::config::FleetConfig;
use crate::exec::{run_fleet_shard, RunInputs, ShardOutcome, ShardSpec};
use crate::report::FleetReport;
use crate::supervisor::{InjectedFault, ProtocolViolation, WorkerFaultSpec};
use roam_codec::{CodecError, Decoder, Encoder, Frame};
use roam_netsim::RunKnobs;
use roam_telemetry::{TelemetryMode, TelemetrySnapshot};
use std::path::PathBuf;

/// Field tags for the job payload. Tags 4 (transport) and 5 (calendar)
/// are retired; decoders skip them like any unknown tag.
mod job_tag {
    pub const SEED: u32 = 1;
    pub const CONFIG: u32 = 2;
    pub const TELEMETRY: u32 = 3;
    pub const FAULTS: u32 = 6;
    pub const SHARD: u32 = 7;
    pub const CKPT_DIR: u32 = 8;
    pub const CKPT_EVERY: u32 = 9;
    pub const CKPT_HALT: u32 = 10;
    pub const WORKER_FAULTS: u32 = 11;
    pub const DEADLINE_MS: u32 = 12;
}

/// Field tags for a shard entry inside a job.
mod job_shard_tag {
    pub const INDEX: u32 = 1;
    pub const LO: u32 = 2;
    pub const HI: u32 = 3;
    pub const RESUME: u32 = 4;
    pub const ATTEMPT: u32 = 5;
}

/// Field tags for the worker-fault section of a job.
mod wfault_tag {
    pub const CRASH: u32 = 1;
    pub const STALL: u32 = 2;
    pub const TORN: u32 = 3;
    pub const EXIT: u32 = 4;
}

/// Field tags for a heartbeat payload.
mod heartbeat_tag {
    pub const SHARD: u32 = 1;
    pub const ATTEMPT: u32 = 2;
}

/// Field tags for the result payload.
mod result_tag {
    pub const INDEX: u32 = 1;
    pub const REPORT: u32 = 2;
    pub const TELEMETRY: u32 = 3;
    pub const WALL_MS: u32 = 4;
    pub const COMPLETED: u32 = 5;
}

/// Everything one worker process needs to run its shards.
#[derive(Debug)]
pub(crate) struct WorkerJob {
    pub seed: u64,
    pub config: FleetConfig,
    /// The run's resolved telemetry mode and fault schedule.
    pub knobs: RunKnobs,
    /// The resolved worker-fault injection spec — shipped in the job
    /// (like every other knob) so parent and workers cannot diverge on
    /// which executions get sabotaged.
    pub worker_faults: WorkerFaultSpec,
    /// The supervisor's stall deadline, so an injected stall knows how
    /// long it must sleep to be detected rather than merely slow.
    pub deadline_ms: u64,
    pub shards: Vec<ShardSpec>,
    pub checkpoint: Option<CheckpointPolicy>,
}

impl WorkerJob {
    pub(crate) fn to_frame(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(job_tag::SEED, self.seed);
        e.section(job_tag::CONFIG, |se| encode_config(se, &self.config));
        e.u64(job_tag::TELEMETRY, telemetry_to_wire(self.knobs.telemetry));
        e.section(job_tag::FAULTS, |se| encode_faults(se, &self.knobs.faults));
        if self.worker_faults.enabled() {
            e.section(job_tag::WORKER_FAULTS, |se| {
                se.f64(wfault_tag::CRASH, self.worker_faults.crash);
                se.f64(wfault_tag::STALL, self.worker_faults.stall);
                se.f64(wfault_tag::TORN, self.worker_faults.torn);
                se.f64(wfault_tag::EXIT, self.worker_faults.exit);
            });
        }
        e.u64(job_tag::DEADLINE_MS, self.deadline_ms);
        for shard in &self.shards {
            e.section(job_tag::SHARD, |se| {
                se.u64(job_shard_tag::INDEX, shard.index as u64);
                se.u64(job_shard_tag::LO, shard.lo);
                se.u64(job_shard_tag::HI, shard.hi);
                if let Some(state) = &shard.resume {
                    se.section(job_shard_tag::RESUME, |re| state.encode_fields(re));
                }
                if shard.attempt > 0 {
                    se.u64(job_shard_tag::ATTEMPT, u64::from(shard.attempt));
                }
            });
        }
        if let Some(policy) = &self.checkpoint {
            e.str(job_tag::CKPT_DIR, &policy.dir.to_string_lossy());
            e.u64(job_tag::CKPT_EVERY, policy.every_days);
            if let Some(halt) = policy.halt_after {
                e.u64(job_tag::CKPT_HALT, u64::from(halt));
            }
        }
        e.into_frame(KIND_JOB, CKPT_VERSION)
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(payload);
        let mut seed = None;
        let mut config = None;
        let mut telemetry = TelemetryMode::Off;
        let mut faults = None;
        let mut worker_faults = WorkerFaultSpec::off();
        let mut deadline_ms = crate::supervisor::DEFAULT_WORKER_DEADLINE_MS;
        let mut shards = Vec::new();
        let (mut dir, mut every, mut halt) = (None, None, None);
        while let Some((tag, v)) = d.next_field()? {
            match tag {
                job_tag::SEED => seed = Some(v.as_u64(tag)?),
                job_tag::CONFIG => config = Some(decode_config(&mut v.as_section(tag)?)?),
                job_tag::TELEMETRY => telemetry = telemetry_from_wire(v.as_u64(tag)?)?,
                job_tag::FAULTS => faults = Some(decode_faults(&mut v.as_section(tag)?)?),
                job_tag::WORKER_FAULTS => {
                    let mut wd = v.as_section(tag)?;
                    while let Some((wtag, wv)) = wd.next_field()? {
                        match wtag {
                            wfault_tag::CRASH => worker_faults.crash = wv.as_f64(wtag)?,
                            wfault_tag::STALL => worker_faults.stall = wv.as_f64(wtag)?,
                            wfault_tag::TORN => worker_faults.torn = wv.as_f64(wtag)?,
                            wfault_tag::EXIT => worker_faults.exit = wv.as_f64(wtag)?,
                            _ => {}
                        }
                    }
                }
                job_tag::DEADLINE_MS => deadline_ms = v.as_u64(tag)?,
                job_tag::SHARD => {
                    let mut sd = v.as_section(tag)?;
                    let (mut index, mut lo, mut hi, mut resume) = (None, None, None, None);
                    let mut attempt = 0u32;
                    while let Some((stag, sv)) = sd.next_field()? {
                        match stag {
                            job_shard_tag::INDEX => {
                                index = Some(sv.as_usize(stag, "shard index")?);
                            }
                            job_shard_tag::LO => lo = Some(sv.as_u64(stag)?),
                            job_shard_tag::HI => hi = Some(sv.as_u64(stag)?),
                            job_shard_tag::RESUME => {
                                resume =
                                    Some(ShardState::decode_fields(&mut sv.as_section(stag)?)?);
                            }
                            job_shard_tag::ATTEMPT => {
                                attempt = sv.as_u32(stag, "shard attempt")?;
                            }
                            _ => {}
                        }
                    }
                    shards.push(ShardSpec {
                        index: index.ok_or(CodecError::MissingField("shard index"))?,
                        lo: lo.ok_or(CodecError::MissingField("shard lo"))?,
                        hi: hi.ok_or(CodecError::MissingField("shard hi"))?,
                        resume,
                        attempt,
                    });
                }
                job_tag::CKPT_DIR => dir = Some(PathBuf::from(v.as_str(tag)?)),
                job_tag::CKPT_EVERY => every = Some(v.as_u64(tag)?),
                job_tag::CKPT_HALT => {
                    halt = Some(v.as_u32(tag, "halt_after")?);
                }
                _ => {}
            }
        }
        let checkpoint = match (dir, every) {
            (Some(dir), Some(every_days)) => Some(CheckpointPolicy {
                dir,
                every_days,
                halt_after: halt,
            }),
            (None, None) => None,
            _ => return Err(CodecError::MissingField("checkpoint policy")),
        };
        Ok(WorkerJob {
            seed: seed.ok_or(CodecError::MissingField("seed"))?,
            config: config.ok_or(CodecError::MissingField("config"))?,
            knobs: RunKnobs {
                telemetry,
                faults: faults.ok_or(CodecError::MissingField("faults"))?,
            },
            worker_faults,
            deadline_ms,
            shards,
            checkpoint,
        })
    }
}

/// Seal one heartbeat frame: "I am alive and about to run `shard`
/// (attempt `attempt`)". Emitted before each shard so the supervisor
/// can distinguish a long shard from a stalled worker and knows which
/// shard an in-flight death should be charged to.
fn heartbeat_frame(shard: usize, attempt: u32) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(heartbeat_tag::SHARD, shard as u64);
    e.u64(heartbeat_tag::ATTEMPT, u64::from(attempt));
    e.into_frame(KIND_HEARTBEAT, CKPT_VERSION)
}

fn decode_heartbeat(payload: &[u8]) -> Result<(usize, u32), CodecError> {
    let mut d = Decoder::new(payload);
    let (mut shard, mut attempt) = (None, 0u32);
    while let Some((tag, v)) = d.next_field()? {
        match tag {
            heartbeat_tag::SHARD => {
                shard = Some(v.as_usize(tag, "heartbeat shard")?);
            }
            heartbeat_tag::ATTEMPT => {
                attempt = v.as_u32(tag, "heartbeat attempt")?;
            }
            _ => {}
        }
    }
    Ok((
        shard.ok_or(CodecError::MissingField("heartbeat shard"))?,
        attempt,
    ))
}

fn result_frame(outcome: &ShardOutcome) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(result_tag::INDEX, outcome.index as u64);
    e.section(result_tag::REPORT, |se| outcome.report.encode_fields(se));
    e.section(result_tag::TELEMETRY, |se| outcome.snap.encode_fields(se));
    e.f64(result_tag::WALL_MS, outcome.wall_ms);
    e.u64(result_tag::COMPLETED, u64::from(outcome.completed));
    e.into_frame(KIND_RESULT, CKPT_VERSION)
}

fn decode_result(payload: &[u8]) -> Result<ShardOutcome, CodecError> {
    let mut d = Decoder::new(payload);
    let (mut index, mut report, mut snap) = (None, None, None);
    let mut wall_ms = 0.0;
    let mut completed = true;
    while let Some((tag, v)) = d.next_field()? {
        match tag {
            result_tag::INDEX => {
                index = Some(v.as_usize(tag, "shard index")?);
            }
            result_tag::REPORT => {
                report = Some(FleetReport::decode_fields(&mut v.as_section(tag)?)?)
            }
            result_tag::TELEMETRY => {
                snap = Some(TelemetrySnapshot::decode_fields(&mut v.as_section(tag)?)?);
            }
            result_tag::WALL_MS => wall_ms = v.as_f64(tag)?,
            result_tag::COMPLETED => completed = v.as_u64(tag)? != 0,
            _ => {}
        }
    }
    Ok(ShardOutcome {
        index: index.ok_or(CodecError::MissingField("result index"))?,
        report: report.ok_or(CodecError::MissingField("result report"))?,
        snap: snap.ok_or(CodecError::MissingField("result telemetry"))?,
        wall_ms,
        completed,
        // Session streaming needs the in-process backend (the runner
        // asserts it), so worker results never carry records.
        sessions: Vec::new(),
    })
}

/// Locate the worker binary: the builder's explicit path, or
/// `fleet_worker` next to the current executable (where cargo places
/// sibling bin targets).
pub(crate) fn find_worker_bin(explicit: Option<&PathBuf>) -> PathBuf {
    if let Some(path) = explicit {
        return path.clone();
    }
    let name = format!("fleet_worker{}", std::env::consts::EXE_SUFFIX);
    if let Ok(exe) = std::env::current_exe() {
        if let Some(dir) = exe.parent() {
            let sibling = dir.join(&name);
            if sibling.exists() {
                return sibling;
            }
            // Test binaries live one level down, in target/<profile>/deps.
            if let Some(parent) = dir.parent() {
                let up = parent.join(&name);
                if up.exists() {
                    return up;
                }
            }
        }
    }
    PathBuf::from(name)
}

/// One decoded, protocol-conformant frame from a worker's stdout.
#[derive(Debug)]
pub(crate) enum WorkerFrame {
    /// The worker is alive and about to run `shard` (attempt `attempt`).
    Heartbeat { shard: usize, attempt: u32 },
    /// One finished shard.
    Result(Box<ShardOutcome>),
}

/// Decode one framed message from a worker's result stream, refusing
/// every malformation with a typed [`ProtocolViolation`]: unsealable
/// bytes (bad magic, truncated header, integrity-hash mismatch),
/// version skew, frame kinds outside the result protocol, and payloads
/// that do not decode. The supervisor turns any violation into a
/// kill + respawn + retry; nothing here panics and nothing corrupt is
/// ever silently accepted.
pub(crate) fn parse_worker_frame(bytes: &[u8]) -> Result<WorkerFrame, ProtocolViolation> {
    let (frame, _) = Frame::parse(bytes).map_err(ProtocolViolation::Frame)?;
    if frame.version != CKPT_VERSION {
        return Err(ProtocolViolation::WrongVersion(frame.version));
    }
    match frame.kind {
        KIND_RESULT => decode_result(frame.payload)
            .map(|outcome| WorkerFrame::Result(Box::new(outcome)))
            .map_err(ProtocolViolation::Payload),
        KIND_HEARTBEAT => decode_heartbeat(frame.payload)
            .map(|(shard, attempt)| WorkerFrame::Heartbeat { shard, attempt })
            .map_err(ProtocolViolation::Payload),
        other => Err(ProtocolViolation::WrongKind(other)),
    }
}

/// One liveness/progress event on a worker's stdout, as the reader
/// thread hands it to the child's supervising slot loop.
#[derive(Debug)]
pub(crate) enum WorkerEvent {
    /// The worker announced a shard. The supervisor cross-checks both
    /// fields against what it dispatched: an unowned shard or a stale
    /// attempt number means a confused child.
    Heartbeat { shard: usize, attempt: u32 },
    /// The worker delivered a shard outcome.
    Result(Box<ShardOutcome>),
    /// The stream broke protocol; reading stopped here.
    Violation(ProtocolViolation),
    /// The stream ended cleanly (worker closed stdout).
    Eof,
}

/// Drain one worker's stdout into events: frames while the stream is
/// healthy, exactly one terminal [`WorkerEvent::Violation`] or
/// [`WorkerEvent::Eof`] at the end. Runs on a reader thread per child;
/// the emit callback forwards into that child's event channel.
pub(crate) fn read_worker_stream(mut input: impl std::io::Read, mut emit: impl FnMut(WorkerEvent)) {
    loop {
        match Frame::read_from(&mut input) {
            Ok(None) => {
                emit(WorkerEvent::Eof);
                return;
            }
            Ok(Some(bytes)) => match parse_worker_frame(&bytes) {
                Ok(WorkerFrame::Heartbeat { shard, attempt }) => {
                    emit(WorkerEvent::Heartbeat { shard, attempt });
                }
                Ok(WorkerFrame::Result(outcome)) => emit(WorkerEvent::Result(outcome)),
                Err(violation) => {
                    emit(WorkerEvent::Violation(violation));
                    return;
                }
            },
            Err(e) => {
                // A header `read_from` refused is a frame fault, as it
                // would be had the frame been read whole and parsed;
                // any other error means the stream broke mid-frame.
                let violation = match e.get_ref().and_then(|inner| inner.downcast_ref()) {
                    Some(err) if e.kind() == std::io::ErrorKind::InvalidData => {
                        ProtocolViolation::Frame(CodecError::clone(err))
                    }
                    _ => ProtocolViolation::Truncated(e.to_string()),
                };
                emit(WorkerEvent::Violation(violation));
                return;
            }
        }
    }
}

/// Worker side: the whole child process. Reads one job frame from
/// `input` and runs its shards sequentially under the job's resolved
/// [`RunKnobs`] (this process never reads `ROAM_*`) — one heartbeat
/// frame before each shard, one result frame after. The job's
/// [`RunInputs`] are built once, when its first shard starts.
///
/// When the job carries an active [`WorkerFaultSpec`], the keyed draw
/// for each `(shard, attempt)` may sabotage the execution instead:
/// abort mid-shard, sleep past the supervisor's deadline, tear the
/// result frame (truncate it or flip a byte so the integrity hash
/// fails), or exit nonzero. The sabotage always happens *after* the
/// heartbeat, so the parent can charge the right shard's retry budget.
///
/// # Errors
/// An error message when the job stream is malformed (or an injected
/// nonzero-exit fault fired); the caller (the `fleet_worker` binary)
/// reports it on stderr and exits nonzero.
pub fn serve(
    input: &mut impl std::io::Read,
    output: &mut impl std::io::Write,
) -> Result<(), String> {
    let bytes = Frame::read_from(input)
        .map_err(|e| format!("reading job: {e}"))?
        .ok_or("empty input: expected one job frame")?;
    let (frame, _) = Frame::parse(&bytes).map_err(|e| format!("parsing job frame: {e}"))?;
    if frame.kind != KIND_JOB {
        return Err(format!("expected job frame, got kind {}", frame.kind));
    }
    if frame.version != CKPT_VERSION {
        return Err(format!(
            "job format v{} unsupported (worker speaks v{})",
            frame.version, CKPT_VERSION
        ));
    }
    let job = WorkerJob::decode(frame.payload).map_err(|e| format!("decoding job: {e}"))?;
    let mut inputs: Option<RunInputs> = None;
    for spec in job.shards {
        let (index, attempt) = (spec.index, spec.attempt);
        output
            .write_all(&heartbeat_frame(index, attempt))
            .and_then(|()| output.flush())
            .map_err(|e| format!("writing heartbeat: {e}"))?;
        let fault = job.worker_faults.decide(job.seed, index, attempt);
        match fault {
            Some(InjectedFault::Crash) => {
                // Die by signal with the shard announced but unfinished
                // — indistinguishable from a real mid-shard crash.
                std::process::abort();
            }
            Some(InjectedFault::ExitNonzero) => {
                return Err(format!(
                    "worker-fault injection: nonzero exit on shard {index} attempt {attempt}"
                ));
            }
            Some(InjectedFault::Stall) => {
                // Sleep long enough that the parent's deadline *must*
                // trip, then abort in case nobody kills us.
                let ms = job.deadline_ms + job.deadline_ms.min(2_000) + 250;
                std::thread::sleep(std::time::Duration::from_millis(ms));
                std::process::abort();
            }
            _ => {}
        }
        let inputs = inputs.get_or_insert_with(|| RunInputs::build(job.seed, job.knobs));
        let outcome = run_fleet_shard(inputs, &job.config, spec, job.checkpoint.as_ref(), false);
        let mut frame = result_frame(&outcome);
        match fault {
            Some(InjectedFault::TornTruncate) => {
                // Half a frame, then a clean exit: the parent sees a
                // truncated stream from a 0-exit child.
                frame.truncate(frame.len() / 2);
                output
                    .write_all(&frame)
                    .and_then(|()| output.flush())
                    .map_err(|e| format!("writing torn result: {e}"))?;
                return Ok(());
            }
            Some(InjectedFault::TornBitflip) => {
                // Flip the frame's last byte (hash trailer): the frame
                // arrives whole but fails its integrity check.
                if let Some(last) = frame.last_mut() {
                    *last ^= 0x40;
                }
                output
                    .write_all(&frame)
                    .and_then(|()| output.flush())
                    .map_err(|e| format!("writing torn result: {e}"))?;
                return Ok(());
            }
            _ => {}
        }
        output
            .write_all(&frame)
            .and_then(|()| output.flush())
            .map_err(|e| format!("writing shard result: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_round_trips_through_its_frame() {
        let job = WorkerJob {
            seed: 42,
            config: FleetConfig::default(),
            knobs: RunKnobs {
                telemetry: TelemetryMode::Summary,
                faults: roam_netsim::FaultSpec::heavy(),
            },
            worker_faults: WorkerFaultSpec::light(),
            deadline_ms: 12_345,
            shards: vec![
                ShardSpec {
                    index: 0,
                    lo: 0,
                    hi: 50,
                    resume: None,
                    attempt: 0,
                },
                ShardSpec {
                    index: 2,
                    lo: 100,
                    hi: 150,
                    resume: Some(ShardState {
                        index: 2,
                        next_uid: 120,
                        report: FleetReport::new(4),
                        telemetry: TelemetrySnapshot::default(),
                    }),
                    attempt: 3,
                },
            ],
            checkpoint: Some(CheckpointPolicy {
                dir: PathBuf::from("/tmp/ckpt"),
                every_days: 9000,
                halt_after: Some(1),
            }),
        };
        let frame = job.to_frame();
        let (parsed, _) = Frame::parse(&frame).expect("job frame parses");
        assert_eq!(parsed.kind, KIND_JOB);
        let back = WorkerJob::decode(parsed.payload).expect("job decodes");
        assert_eq!(back.seed, 42);
        assert_eq!(back.knobs, job.knobs);
        assert_eq!(back.worker_faults, WorkerFaultSpec::light());
        assert_eq!(back.deadline_ms, 12_345);
        assert_eq!(back.shards.len(), 2);
        assert_eq!(back.shards[0].attempt, 0);
        assert_eq!(back.shards[1].attempt, 3);
        assert_eq!(
            back.shards[1].resume.as_ref().expect("resume").next_uid,
            120
        );
        let policy = back.checkpoint.expect("policy");
        assert_eq!(policy.every_days, 9000);
        assert_eq!(policy.halt_after, Some(1));
    }

    #[test]
    fn result_round_trips_through_its_frame() {
        let outcome = ShardOutcome {
            index: 3,
            report: FleetReport::new(2),
            snap: TelemetrySnapshot::default(),
            wall_ms: 12.5,
            completed: false,
            sessions: Vec::new(),
        };
        let frame = result_frame(&outcome);
        let (parsed, _) = Frame::parse(&frame).expect("result frame parses");
        assert_eq!(parsed.kind, KIND_RESULT);
        let back = decode_result(parsed.payload).expect("result decodes");
        assert_eq!(back.index, 3);
        assert_eq!(back.report, outcome.report);
        assert!((back.wall_ms - 12.5).abs() < f64::EPSILON);
        assert!(!back.completed);
    }

    #[test]
    fn heartbeat_round_trips_and_parses_as_worker_frame() {
        let frame = heartbeat_frame(7, 2);
        match parse_worker_frame(&frame).expect("heartbeat parses") {
            WorkerFrame::Heartbeat { shard, attempt } => {
                assert_eq!(shard, 7);
                assert_eq!(attempt, 2);
            }
            WorkerFrame::Result(_) => panic!("heartbeat decoded as result"),
        }
    }

    #[test]
    fn unknown_kind_is_a_typed_refusal() {
        let mut e = Encoder::new();
        e.u64(1, 9);
        let frame = e.into_frame(999, CKPT_VERSION);
        assert!(matches!(
            parse_worker_frame(&frame),
            Err(ProtocolViolation::WrongKind(999))
        ));
    }

    #[test]
    fn wrong_version_is_a_typed_refusal() {
        let frame = heartbeat_frame(0, 0);
        // Re-seal the same payload under a future payload version.
        let (parsed, _) = Frame::parse(&frame).expect("parses");
        let future = Frame::seal(KIND_HEARTBEAT, CKPT_VERSION + 1, parsed.payload);
        assert!(matches!(
            parse_worker_frame(&future),
            Err(ProtocolViolation::WrongVersion(v)) if v == CKPT_VERSION + 1
        ));
    }

    /// The one terminal event `read_worker_stream` emits for `bytes`.
    fn stream_violation(bytes: &[u8]) -> ProtocolViolation {
        let mut events = Vec::new();
        read_worker_stream(bytes, |event| events.push(event));
        match events.pop() {
            Some(WorkerEvent::Violation(v)) if events.is_empty() => v,
            _ => panic!("expected exactly one violation"),
        }
    }

    #[test]
    fn a_corrupt_stream_header_is_a_frame_violation_not_a_truncation() {
        // A bad magic advertising 2^44 bytes: refused on its header
        // before anything is allocated, and reported as a frame fault.
        let mut alien = heartbeat_frame(0, 0);
        alien[0..4].copy_from_slice(b"XXXX");
        alien[10..18].copy_from_slice(&(1u64 << 44).to_le_bytes());
        assert!(matches!(
            stream_violation(&alien),
            ProtocolViolation::Frame(CodecError::BadMagic)
        ));
        // A future wire version, with a plausible length.
        let mut future = heartbeat_frame(0, 0);
        future[4] ^= 0x80;
        assert!(matches!(
            stream_violation(&future),
            ProtocolViolation::Frame(CodecError::UnsupportedVersion { .. })
        ));
        // A sound header whose stream ends early is a truncation.
        let whole = heartbeat_frame(0, 0);
        assert!(matches!(
            stream_violation(&whole[..whole.len() - 1]),
            ProtocolViolation::Truncated(_)
        ));
    }

    fn sample_result_frame() -> Vec<u8> {
        result_frame(&ShardOutcome {
            index: 1,
            report: FleetReport::new(2),
            snap: TelemetrySnapshot::default(),
            wall_ms: 3.5,
            completed: true,
            sessions: Vec::new(),
        })
    }

    proptest::proptest! {
        /// Satellite contract: every truncation of a sealed result
        /// frame is a typed refusal — never a panic, never silently
        /// accepted data.
        #[test]
        fn any_truncation_is_refused(cut in 0usize..10_000) {
            let frame = sample_result_frame();
            let cut = cut % frame.len(); // strictly shorter than whole
            proptest::prop_assert!(parse_worker_frame(&frame[..cut]).is_err());
        }

        /// Every single-bit flip anywhere in the frame is refused: the
        /// integrity hash covers header and payload, and flipping the
        /// hash trailer itself breaks the match from the other side.
        #[test]
        fn any_bitflip_is_refused(pos in 0usize..10_000, bit in 0u8..8) {
            let mut frame = sample_result_frame();
            let pos = pos % frame.len();
            frame[pos] ^= 1 << bit;
            proptest::prop_assert!(parse_worker_frame(&frame).is_err());
        }

        /// Frames of a kind outside the worker protocol are refused
        /// even when perfectly sealed. (Kinds 0–6 are the checkpoint
        /// registry; the worker protocol speaks only RESULT and
        /// HEARTBEAT, so everything above the registry must bounce.)
        #[test]
        fn any_unknown_kind_is_refused(kind in 7u16..u16::MAX) {
            let mut e = Encoder::new();
            e.u64(1, 1);
            let frame = e.into_frame(kind, CKPT_VERSION);
            proptest::prop_assert!(matches!(
                parse_worker_frame(&frame),
                Err(ProtocolViolation::WrongKind(k)) if k == kind
            ));
        }

        /// The intact frame always parses — the refusals above are
        /// about corruption, not about an over-strict decoder.
        #[test]
        fn intact_frames_always_parse(index in 0usize..64, wall in 0.0f64..1e6) {
            let frame = result_frame(&ShardOutcome {
                index,
                report: FleetReport::new(2),
                snap: TelemetrySnapshot::default(),
                wall_ms: wall,
                completed: true,
                sessions: Vec::new(),
            });
            proptest::prop_assert!(parse_worker_frame(&frame).is_ok());
        }
    }
}
