//! The agent checkpoint: one sealed frame holding the whole service
//! state, written through the fleet checkpoint plane.
//!
//! Unlike a fleet run — whose state is spread over a manifest plus one
//! file per shard — the agent's resumable state fits one frame
//! (`agent.ckpt`, kind [`KIND_AGENT`]): the resolved knobs, the
//! scheduler's job cursors, the cohort windows, the cumulative report,
//! the soak rows and the durable export offset. Everything else — the
//! world, the endpoint pool, per-fire randomness — is rebuilt
//! deterministically from the seed, which is the same split the fleet
//! shard checkpoint makes.
//!
//! The frame embeds a `service_fingerprint` and the decoder recomputes
//! it: a checkpoint written under different knob semantics, a different
//! world build, or a different config is *refused*
//! ([`ResumeError::FingerprintMismatch`]), never silently restarted. The
//! fingerprint depends only on knobs an agent fixes at construction, so
//! a running agent computes it once and stamps it into every checkpoint.

use crate::config::ServiceConfig;
use roam_codec::{hash64_fold, CodecError, Decoder, Encoder, Frame};
use roam_fleet::checkpoint::{
    decode_faults, encode_faults, read_frame, run_fingerprint, telemetry_from_wire,
    telemetry_to_wire, write_atomic, CKPT_VERSION, KIND_AGENT,
};
use roam_fleet::{FleetReport, ResumeError, SessionMix};
use roam_geo::Country;
use roam_netsim::{FaultSpec, SimTime};
use roam_telemetry::TelemetryMode;
use std::path::Path;

/// File name of the agent checkpoint inside the checkpoint directory.
pub const AGENT_FILE: &str = "agent.ckpt";

/// One aggregated vantage-probe observation for the degradation-over-
/// time analysis: which sim-week, which country, which probe kind, and
/// what came back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakRow {
    /// Sim-week of the fire (`at / 7 days`).
    pub week: u64,
    /// Vantage country (alpha-3, interned to the measured set).
    pub country: &'static str,
    /// Probe kind: `0` = RTT, `1` = DNS.
    pub kind: u8,
    /// The metric, ms (`None` when the probe failed).
    pub ms: Option<f64>,
    /// Outcome code, [`STATUS_LABELS`](roam_measure::STATUS_LABELS)
    /// order.
    pub status: u8,
}

/// Field tags for the agent frame. Append-only, like every other
/// checkpoint section.
mod agent_tag {
    pub const SEED: u32 = 1;
    pub const FINGERPRINT: u32 = 2;
    pub const CONFIG: u32 = 3;
    pub const TELEMETRY: u32 = 4;
    pub const FAULTS: u32 = 5;
    pub const CLOCK_NS: u32 = 6;
    pub const WEEK: u32 = 7;
    pub const EXPORT_BYTES: u32 = 8;
    pub const STREAMED: u32 = 9;
    pub const REPORT: u32 = 10;
    pub const JOB: u32 = 11;
    pub const COHORT: u32 = 12;
    pub const SOAK: u32 = 13;
}

mod config_tag {
    pub const USERS: u32 = 1;
    pub const COHORTS: u32 = 2;
    pub const TICK_DAYS: u32 = 3;
    pub const PROBES: u32 = 4;
    pub const TTL: u32 = 5;
    pub const CHURN: u32 = 6;
    pub const QUEUE: u32 = 7;
    pub const CKPT: u32 = 8;
    pub const SAMPLE: u32 = 9;
    pub const MIX_RTT: u32 = 10;
    pub const MIX_DNS: u32 = 11;
    pub const MIX_TRANSFER: u32 = 12;
}

mod job_tag {
    pub const ID: u32 = 1;
    pub const PERIOD_NS: u32 = 2;
    pub const FIRES: u32 = 3;
    pub const NEXT_NS: u32 = 4;
}

mod cohort_tag {
    pub const INDEX: u32 = 1;
    pub const RETIRED: u32 = 2;
    pub const GROWN: u32 = 3;
    pub const TICKS: u32 = 4;
    pub const EXPIRED: u32 = 5;
}

mod soak_tag {
    pub const WEEK: u32 = 1;
    pub const COUNTRY: u32 = 2;
    pub const KIND: u32 = 3;
    pub const MS: u32 = 4;
    pub const STATUS: u32 = 5;
}

/// The world/knob fingerprint the agent frame is keyed by: the fleet
/// plane's [`run_fingerprint`] over the tick-shaped [`FleetConfig`]
/// (covering the seeded world, the market and the shared knobs) folded
/// with every service-only knob that can reach the output bytes.
///
/// [`FleetConfig`]: roam_fleet::FleetConfig
#[must_use]
pub(crate) fn service_fingerprint(
    seed: u64,
    config: &ServiceConfig,
    telemetry: TelemetryMode,
    faults: &FaultSpec,
) -> u64 {
    let mut h = run_fingerprint(seed, &config.fleet(), telemetry, faults);
    for knob in [
        config.users,
        config.cohorts as u64,
        u64::from(config.tick_days),
        u64::from(config.probes),
        config.ttl_ticks,
        u64::from(config.churn_pct),
    ] {
        h = hash64_fold(h, knob);
    }
    h
}

fn encode_config(e: &mut Encoder, c: &ServiceConfig) {
    e.u64(config_tag::USERS, c.users);
    e.u64(config_tag::COHORTS, c.cohorts as u64);
    e.u64(config_tag::TICK_DAYS, u64::from(c.tick_days));
    e.u64(config_tag::PROBES, u64::from(c.probes));
    e.u64(config_tag::TTL, c.ttl_ticks);
    e.u64(config_tag::CHURN, u64::from(c.churn_pct));
    e.u64(config_tag::QUEUE, c.queue_cap as u64);
    e.u64(config_tag::CKPT, c.ckpt_days);
    e.u64(config_tag::SAMPLE, c.sample as u64);
    e.u64(config_tag::MIX_RTT, u64::from(c.mix.rtt));
    e.u64(config_tag::MIX_DNS, u64::from(c.mix.dns));
    e.u64(config_tag::MIX_TRANSFER, u64::from(c.mix.transfer));
}

fn decode_config(d: &mut Decoder<'_>) -> Result<ServiceConfig, CodecError> {
    let mut c = ServiceConfig::default();
    let (mut rtt, mut dns, mut transfer) = (c.mix.rtt, c.mix.dns, c.mix.transfer);
    while let Some((tag, v)) = d.next_field()? {
        match tag {
            config_tag::USERS => c.users = v.as_u64(tag)?,
            config_tag::COHORTS => c.cohorts = v.as_usize(tag, "cohorts")?,
            config_tag::TICK_DAYS => c.tick_days = v.as_u32(tag, "tick_days")?,
            config_tag::PROBES => c.probes = v.as_u32(tag, "probes")?,
            config_tag::TTL => c.ttl_ticks = v.as_u64(tag)?,
            config_tag::CHURN => c.churn_pct = v.as_u32(tag, "churn")?,
            config_tag::QUEUE => c.queue_cap = v.as_usize(tag, "queue")?,
            config_tag::CKPT => c.ckpt_days = v.as_u64(tag)?,
            config_tag::SAMPLE => c.sample = v.as_usize(tag, "sample")?,
            config_tag::MIX_RTT => rtt = v.as_u32(tag, "mix")?,
            config_tag::MIX_DNS => dns = v.as_u32(tag, "mix")?,
            config_tag::MIX_TRANSFER => transfer = v.as_u32(tag, "mix")?,
            _ => {}
        }
    }
    if rtt + dns + transfer == 0 {
        return Err(CodecError::BadValue("all-zero mix"));
    }
    c.mix = SessionMix::new(rtt, dns, transfer);
    c.validate()
        .map_err(|_| CodecError::BadValue("service config"))?;
    Ok(c)
}

/// `SimTime` options on the wire: `u64::MAX` = `None` (no fire time can
/// reach it — that is 585 sim-years).
fn opt_time_to_wire(t: Option<SimTime>) -> u64 {
    t.map_or(u64::MAX, |t| t.as_nanos())
}

fn opt_time_from_wire(v: u64) -> Option<SimTime> {
    (v != u64::MAX).then(|| SimTime::from_nanos(v))
}

/// Intern an alpha-3 code to the measured set's `&'static str`.
fn intern_country(s: &str) -> Result<&'static str, CodecError> {
    Country::MEASURED
        .iter()
        .map(|c| c.alpha3())
        .find(|a3| *a3 == s)
        .ok_or(CodecError::BadValue("soak country"))
}

/// One scheduler job's resumable cursor, as stored in the frame —
/// exactly the [`Scheduler::job_states`](crate::Scheduler::job_states)
/// tuple.
pub(crate) type JobState = (String, Option<SimTime>, u64, Option<SimTime>);

/// Everything a killed agent needs to continue as if uninterrupted.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentState {
    /// Master seed.
    pub seed: u64,
    /// The resolved service knobs (env is *not* re-read on resume).
    pub config: ServiceConfig,
    /// The resolved telemetry mode.
    pub telemetry: TelemetryMode,
    /// The resolved fault spec.
    pub faults: FaultSpec,
    /// Virtual time of the last processed batch.
    pub clock: SimTime,
    /// Fault-calendar week counter.
    pub week: u64,
    /// Durable byte offset of the streamed session CSV (0 when the run
    /// has no file sink).
    pub export_bytes: u64,
    /// Records streamed through the bounded sink so far.
    pub streamed: u64,
    /// Cumulative fleet report across all cohort ticks.
    pub report: FleetReport,
    /// Scheduler cursors in registration order.
    pub jobs: Vec<JobState>,
    /// Cohort windows in cohort order.
    pub cohorts: Vec<crate::cohort::Cohort>,
    /// Vantage soak rows accumulated so far.
    pub soak: Vec<SoakRow>,
}

impl AgentState {
    /// The fingerprint this state is keyed by.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        service_fingerprint(self.seed, &self.config, self.telemetry, &self.faults)
    }

    /// Serialize into a sealed [`KIND_AGENT`] frame.
    #[must_use]
    pub fn to_frame(&self) -> Vec<u8> {
        self.frame_keyed(self.fingerprint())
    }

    /// [`AgentState::to_frame`] with the fingerprint already known — the
    /// agent computes it once per run, not once per checkpoint. It must
    /// be this state's [`AgentState::fingerprint`], or the frame will
    /// not decode.
    fn frame_keyed(&self, fingerprint: u64) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(agent_tag::SEED, self.seed);
        e.u64(agent_tag::FINGERPRINT, fingerprint);
        e.section(agent_tag::CONFIG, |se| encode_config(se, &self.config));
        e.u64(agent_tag::TELEMETRY, telemetry_to_wire(self.telemetry));
        e.section(agent_tag::FAULTS, |se| encode_faults(se, &self.faults));
        e.u64(agent_tag::CLOCK_NS, self.clock.as_nanos());
        e.u64(agent_tag::WEEK, self.week);
        e.u64(agent_tag::EXPORT_BYTES, self.export_bytes);
        e.u64(agent_tag::STREAMED, self.streamed);
        e.section(agent_tag::REPORT, |se| self.report.encode_fields(se));
        for (id, period, fires, next) in &self.jobs {
            e.section(agent_tag::JOB, |se| {
                se.str(job_tag::ID, id);
                se.u64(job_tag::PERIOD_NS, opt_time_to_wire(*period));
                se.u64(job_tag::FIRES, *fires);
                se.u64(job_tag::NEXT_NS, opt_time_to_wire(*next));
            });
        }
        for c in &self.cohorts {
            e.section(agent_tag::COHORT, |se| {
                se.u64(cohort_tag::INDEX, c.index as u64);
                se.u64(cohort_tag::RETIRED, c.retired);
                se.u64(cohort_tag::GROWN, c.grown);
                se.u64(cohort_tag::TICKS, c.ticks);
                se.u64(cohort_tag::EXPIRED, u64::from(c.expired));
            });
        }
        for r in &self.soak {
            e.section(agent_tag::SOAK, |se| {
                se.u64(soak_tag::WEEK, r.week);
                se.str(soak_tag::COUNTRY, r.country);
                se.u64(soak_tag::KIND, u64::from(r.kind));
                if let Some(ms) = r.ms {
                    se.f64(soak_tag::MS, ms);
                }
                se.u64(soak_tag::STATUS, u64::from(r.status));
            });
        }
        Frame::seal(KIND_AGENT, CKPT_VERSION, &e.into_bytes())
    }

    /// Decode a frame payload, enforcing the fingerprint.
    pub fn decode(payload: &[u8]) -> Result<Self, ResumeError> {
        let corrupt = |e: CodecError| ResumeError::Corrupt(std::path::PathBuf::from(AGENT_FILE), e);
        let mut d = Decoder::new(payload);
        let mut seed = None;
        let mut stored_fp = None;
        let mut config = None;
        let mut telemetry = TelemetryMode::Off;
        let mut faults = None;
        let mut clock = SimTime::ZERO;
        let mut week = 0;
        let mut export_bytes = 0;
        let mut streamed = 0;
        let mut report = None;
        let mut jobs = Vec::new();
        let mut cohorts = Vec::new();
        let mut soak = Vec::new();
        while let Some((tag, v)) = d.next_field().map_err(corrupt)? {
            match tag {
                agent_tag::SEED => seed = Some(v.as_u64(tag).map_err(corrupt)?),
                agent_tag::FINGERPRINT => stored_fp = Some(v.as_u64(tag).map_err(corrupt)?),
                agent_tag::CONFIG => {
                    let mut sd = v.as_section(tag).map_err(corrupt)?;
                    config = Some(decode_config(&mut sd).map_err(corrupt)?);
                }
                agent_tag::TELEMETRY => {
                    telemetry =
                        telemetry_from_wire(v.as_u64(tag).map_err(corrupt)?).map_err(corrupt)?;
                }
                agent_tag::FAULTS => {
                    let mut sd = v.as_section(tag).map_err(corrupt)?;
                    faults = Some(decode_faults(&mut sd).map_err(corrupt)?);
                }
                agent_tag::CLOCK_NS => {
                    clock = SimTime::from_nanos(v.as_u64(tag).map_err(corrupt)?);
                }
                agent_tag::WEEK => week = v.as_u64(tag).map_err(corrupt)?,
                agent_tag::EXPORT_BYTES => export_bytes = v.as_u64(tag).map_err(corrupt)?,
                agent_tag::STREAMED => streamed = v.as_u64(tag).map_err(corrupt)?,
                agent_tag::REPORT => {
                    let mut sd = v.as_section(tag).map_err(corrupt)?;
                    report = Some(FleetReport::decode_fields(&mut sd).map_err(corrupt)?);
                }
                agent_tag::JOB => {
                    let mut sd = v.as_section(tag).map_err(corrupt)?;
                    let (mut id, mut period, mut fires, mut next) = (None, u64::MAX, 0, u64::MAX);
                    while let Some((jt, jv)) = sd.next_field().map_err(corrupt)? {
                        match jt {
                            job_tag::ID => id = Some(jv.as_str(jt).map_err(corrupt)?.to_string()),
                            job_tag::PERIOD_NS => period = jv.as_u64(jt).map_err(corrupt)?,
                            job_tag::FIRES => fires = jv.as_u64(jt).map_err(corrupt)?,
                            job_tag::NEXT_NS => next = jv.as_u64(jt).map_err(corrupt)?,
                            _ => {}
                        }
                    }
                    jobs.push((
                        id.ok_or_else(|| corrupt(CodecError::MissingField("job id")))?,
                        opt_time_from_wire(period),
                        fires,
                        opt_time_from_wire(next),
                    ));
                }
                agent_tag::COHORT => {
                    let mut sd = v.as_section(tag).map_err(corrupt)?;
                    let mut c = crate::cohort::Cohort::new(0, 0);
                    while let Some((ct, cv)) = sd.next_field().map_err(corrupt)? {
                        match ct {
                            cohort_tag::INDEX => {
                                c.index = cv.as_usize(ct, "cohort index").map_err(corrupt)?;
                            }
                            cohort_tag::RETIRED => c.retired = cv.as_u64(ct).map_err(corrupt)?,
                            cohort_tag::GROWN => c.grown = cv.as_u64(ct).map_err(corrupt)?,
                            cohort_tag::TICKS => c.ticks = cv.as_u64(ct).map_err(corrupt)?,
                            cohort_tag::EXPIRED => c.expired = cv.as_u64(ct).map_err(corrupt)? != 0,
                            _ => {}
                        }
                    }
                    if c.retired > c.grown {
                        return Err(corrupt(CodecError::BadValue("cohort window")));
                    }
                    cohorts.push(c);
                }
                agent_tag::SOAK => {
                    let mut sd = v.as_section(tag).map_err(corrupt)?;
                    let mut r = SoakRow {
                        week: 0,
                        country: "",
                        kind: 0,
                        ms: None,
                        status: 0,
                    };
                    let mut seen_country = false;
                    while let Some((st, sv)) = sd.next_field().map_err(corrupt)? {
                        match st {
                            soak_tag::WEEK => r.week = sv.as_u64(st).map_err(corrupt)?,
                            soak_tag::COUNTRY => {
                                r.country = intern_country(sv.as_str(st).map_err(corrupt)?)
                                    .map_err(corrupt)?;
                                seen_country = true;
                            }
                            soak_tag::KIND => {
                                r.kind = u8::try_from(sv.as_u64(st).map_err(corrupt)?)
                                    .map_err(|_| corrupt(CodecError::BadValue("soak kind")))?;
                            }
                            soak_tag::MS => r.ms = Some(sv.as_f64(st).map_err(corrupt)?),
                            soak_tag::STATUS => {
                                r.status = u8::try_from(sv.as_u64(st).map_err(corrupt)?)
                                    .map_err(|_| corrupt(CodecError::BadValue("soak status")))?;
                            }
                            _ => {}
                        }
                    }
                    if !seen_country {
                        return Err(corrupt(CodecError::MissingField("soak country")));
                    }
                    soak.push(r);
                }
                _ => {}
            }
        }
        let state = AgentState {
            seed: seed.ok_or_else(|| corrupt(CodecError::MissingField("seed")))?,
            config: config.ok_or_else(|| corrupt(CodecError::MissingField("config")))?,
            telemetry,
            faults: faults.ok_or_else(|| corrupt(CodecError::MissingField("faults")))?,
            clock,
            week,
            export_bytes,
            streamed,
            report: report.ok_or_else(|| corrupt(CodecError::MissingField("report")))?,
            jobs,
            cohorts,
            soak,
        };
        let stored = stored_fp.ok_or_else(|| corrupt(CodecError::MissingField("fingerprint")))?;
        let computed = state.fingerprint();
        if stored != computed {
            return Err(ResumeError::FingerprintMismatch { stored, computed });
        }
        Ok(state)
    }

    /// Atomically persist into `dir/agent.ckpt`, creating `dir` first.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        self.save_keyed(dir, self.fingerprint())
    }

    /// [`AgentState::save`] with the fingerprint already known (see
    /// [`AgentState::frame_keyed`]).
    pub(crate) fn save_keyed(&self, dir: &Path, fingerprint: u64) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        write_atomic(&dir.join(AGENT_FILE), &self.frame_keyed(fingerprint))
    }

    /// Load from `dir/agent.ckpt`; `Ok(None)` when no agent checkpoint
    /// exists (a fresh start, not an error).
    pub fn load(dir: &Path) -> Result<Option<Self>, ResumeError> {
        let path = dir.join(AGENT_FILE);
        if !path.exists() {
            return Ok(None);
        }
        let payload = read_frame(&path, KIND_AGENT)?;
        Self::decode(&payload).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::Cohort;
    use crate::task::days;

    fn state() -> AgentState {
        let config = ServiceConfig::default();
        let mut report = FleetReport::new(config.sample);
        report.users = 42;
        report.rtt_ms.observe(33.0);
        AgentState {
            seed: 11,
            config,
            telemetry: TelemetryMode::Summary,
            faults: FaultSpec::heavy(),
            clock: days(9),
            week: 1,
            export_bytes: 12_345,
            streamed: 678,
            report,
            jobs: vec![
                ("cohort/0".into(), Some(days(7)), 2, Some(days(14))),
                ("probe/PAK".into(), Some(days(1)), 9, Some(days(10))),
                ("done".into(), None, 1, None),
            ],
            cohorts: vec![Cohort::new(0, 500), {
                let mut c = Cohort::new(1, 400);
                c.retired = 30;
                c.ticks = 2;
                c
            }],
            soak: vec![
                SoakRow {
                    week: 0,
                    country: Country::MEASURED[0].alpha3(),
                    kind: 0,
                    ms: Some(41.5),
                    status: 0,
                },
                SoakRow {
                    week: 1,
                    country: Country::MEASURED[1].alpha3(),
                    kind: 1,
                    ms: None,
                    status: 2,
                },
            ],
        }
    }

    #[test]
    fn frame_round_trip_is_identity() {
        let s = state();
        let frame = s.to_frame();
        let (parsed, used) = Frame::parse(&frame).expect("sealed frame parses");
        assert_eq!(used, frame.len());
        assert_eq!(parsed.kind, KIND_AGENT);
        let back = AgentState::decode(parsed.payload).expect("clean round trip");
        assert_eq!(back, s);
    }

    #[test]
    fn save_load_round_trips_and_missing_is_none() {
        let dir = std::env::temp_dir().join(format!("roam-service-ckpt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(AgentState::load(&dir), Ok(None)));
        let s = state();
        s.save(&dir).expect("save");
        let back = AgentState::load(&dir).expect("load").expect("present");
        assert_eq!(back, s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drifted_knobs_are_refused_by_fingerprint() {
        let s = state();
        let frame = s.to_frame();
        let (parsed, _) = Frame::parse(&frame).unwrap();
        // Re-encode with one knob changed but the *stored* fingerprint
        // kept: the decoder must notice the mismatch.
        let mut drifted = s.clone();
        drifted.config.probes += 1;
        let mut e = Encoder::new();
        e.u64(agent_tag::SEED, drifted.seed);
        e.u64(agent_tag::FINGERPRINT, s.fingerprint());
        e.section(agent_tag::CONFIG, |se| encode_config(se, &drifted.config));
        e.section(agent_tag::FAULTS, |se| encode_faults(se, &drifted.faults));
        e.section(agent_tag::REPORT, |se| drifted.report.encode_fields(se));
        let tampered = e.into_bytes();
        assert!(matches!(
            AgentState::decode(&tampered),
            Err(ResumeError::FingerprintMismatch { .. })
        ));
        // The untampered payload still decodes.
        assert!(AgentState::decode(parsed.payload).is_ok());
    }

    /// A frame stamped with another run's fingerprint — the agent's
    /// cached value, were it ever stale — is refused on decode.
    #[test]
    fn a_frame_keyed_for_other_knobs_is_refused() {
        let s = state();
        let mut other_seed = s.clone();
        other_seed.seed += 1;
        let mut other_faults = s.clone();
        other_faults.faults = FaultSpec::off();
        for other in [other_seed, other_faults] {
            let frame = other.frame_keyed(s.fingerprint());
            let (parsed, _) = Frame::parse(&frame).expect("sealed frame parses");
            assert!(matches!(
                AgentState::decode(parsed.payload),
                Err(ResumeError::FingerprintMismatch { .. })
            ));
        }
    }

    #[test]
    fn fingerprint_covers_service_knobs() {
        let s = state();
        let base = s.fingerprint();
        for mutate in [
            (|c: &mut ServiceConfig| c.users += 1) as fn(&mut ServiceConfig),
            |c| c.cohorts += 1,
            |c| c.tick_days += 1,
            |c| c.probes += 1,
            |c| c.ttl_ticks += 1,
            |c| c.churn_pct += 1,
        ] {
            let mut config = s.config;
            mutate(&mut config);
            assert_ne!(
                service_fingerprint(s.seed, &config, s.telemetry, &s.faults),
                base
            );
        }
        // Queue capacity and checkpoint cadence are execution shape, not
        // output shape: they must NOT invalidate a checkpoint.
        let mut config = s.config;
        config.queue_cap *= 2;
        config.ckpt_days += 3;
        assert_eq!(
            service_fingerprint(s.seed, &config, s.telemetry, &s.faults),
            base
        );
    }

    /// Pinned like the fleet's `run_fingerprint`: `agent.ckpt` files
    /// written before a refactor must still resume after it.
    #[test]
    fn service_fingerprint_is_pinned() {
        let fp = service_fingerprint(
            1,
            &ServiceConfig::default(),
            TelemetryMode::Off,
            &FaultSpec::off(),
        );
        assert_eq!(
            fp, 0x6d65_b5a2_3c28_5b0d,
            "service fingerprint moved: {fp:#018x}"
        );
    }
}
