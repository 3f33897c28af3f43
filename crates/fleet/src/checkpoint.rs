//! Checkpoint files: durable partial state for killed-and-resumed runs.
//!
//! A checkpointed fleet run leaves two kinds of files in its directory
//! (`ROAM_CHECKPOINT_DIR`), both sealed [`roam_codec`] frames:
//!
//! | file            | frame kind        | contents                          |
//! |-----------------|-------------------|-----------------------------------|
//! | `manifest.ckpt` | [`KIND_MANIFEST`] | run identity: seed, sizing, mode, |
//! |                 |                   | resolved faults, fingerprint      |
//! | `shard-NNN.ckpt`| [`KIND_SHARD`]    | one shard's partial state: next   |
//! |                 |                   | user id, report, telemetry        |
//!
//! The same kind registry also covers the frames that never touch disk:
//! `KIND_JOB` (parent → worker stdin), `KIND_RESULT` and
//! `KIND_HEARTBEAT` (worker stdout → parent, see
//! [`supervisor`](crate::supervisor)), and [`KIND_AGENT`]
//! (`roam-service`'s `agent.ckpt`).
//!
//! The **fingerprint** is the stale-checkpoint tripwire: a hash over the
//! seeded world, the generated market, and every knob that can reach the
//! report bytes. [`FleetRunner::resume`](crate::FleetRunner::resume)
//! recomputes it from the manifest's knobs against the *current* binary
//! and refuses loudly ([`ResumeError::FingerprintMismatch`]) when world
//! or market generation has drifted since the checkpoint was written —
//! resuming such a run would splice incompatible partial states.
//!
//! Writes are atomic (temp file + rename), so a kill mid-write leaves
//! the previous checkpoint intact, never a torn frame. Because every
//! per-user observable derives from the user's own keyed RNG stream, the
//! `next_uid` cursor plus the mergeable aggregates *are* the whole shard
//! state — resuming replays nothing and re-derives nothing.

use crate::config::{FleetConfig, SessionMix};
use crate::report::FleetReport;
use roam_codec::{CodecError, Decoder, Encoder, FieldWriter, Fields, Fnv64, Frame, Sink};
use roam_econ::{EsimOffer, Market};
use roam_netsim::FaultSpec;
use roam_telemetry::{TelemetryMode, TelemetrySnapshot};
use roam_world::World;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Checkpoint payload format version, carried in every sealed frame. Bump
/// on any incompatible layout change; resume refuses other versions with
/// [`ResumeError::VersionMismatch`].
pub const CKPT_VERSION: u16 = 1;

/// Frame kind of `manifest.ckpt`.
pub const KIND_MANIFEST: u16 = 1;
/// Frame kind of `shard-NNN.ckpt`.
pub const KIND_SHARD: u16 = 2;
/// Frame kind of a worker job (parent → worker stdin).
pub(crate) const KIND_JOB: u16 = 3;
/// Frame kind of a shard result (worker stdout → parent).
pub(crate) const KIND_RESULT: u16 = 4;
/// Frame kind of a service agent's checkpoint (`roam-service`). The kind
/// lives in this registry so every checkpoint-plane frame kind is
/// declared in one place.
pub const KIND_AGENT: u16 = 5;
/// Frame kind of a worker liveness heartbeat (worker stdout → parent):
/// emitted before each shard so the supervisor can tell a long shard
/// from a stalled worker and knows which shard an in-flight death
/// should be charged to.
pub(crate) const KIND_HEARTBEAT: u16 = 6;

/// File name of the run manifest inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.ckpt";

/// File name of shard `index`'s checkpoint inside the directory.
#[must_use]
pub fn shard_file(index: usize) -> String {
    format!("shard-{index:03}.ckpt")
}

/// Field tags for the manifest payload.
mod manifest_tag {
    pub const SEED: u32 = 1;
    pub const FINGERPRINT: u32 = 2;
    pub const SHARDS: u32 = 3;
    pub const EVERY: u32 = 4;
    pub const CONFIG: u32 = 5;
    pub const TELEMETRY: u32 = 6;
    pub const FAULTS: u32 = 7;
}

/// Field tags for a [`FleetConfig`] section (manifest and worker jobs).
mod config_tag {
    pub const USERS: u32 = 1;
    pub const SHARDS: u32 = 2;
    pub const DAYS: u32 = 3;
    pub const SAMPLE: u32 = 4;
    pub const MIX_RTT: u32 = 5;
    pub const MIX_DNS: u32 = 6;
    pub const MIX_TRANSFER: u32 = 7;
}

/// Field tags for a shard-state payload.
mod shard_tag {
    pub const INDEX: u32 = 1;
    pub const NEXT_UID: u32 = 2;
    pub const REPORT: u32 = 3;
    pub const TELEMETRY: u32 = 4;
}

/// Why a checkpoint directory could not be resumed. Every variant is a
/// *refusal*: resume never silently starts over or splices mismatched
/// state.
#[derive(Debug)]
pub enum ResumeError {
    /// The directory has no readable manifest — either the path is wrong
    /// or the run died before its first checkpoint.
    MissingManifest(PathBuf),
    /// Reading a checkpoint file failed below the codec layer.
    Io(PathBuf, std::io::Error),
    /// A file's frame or payload failed to decode (truncation, hash
    /// mismatch, missing fields, out-of-range values).
    Corrupt(PathBuf, CodecError),
    /// The checkpoint was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u16,
        /// Version this binary speaks.
        supported: u16,
    },
    /// The manifest's world/campaign fingerprint does not match what this
    /// binary generates from the manifest's own knobs: world, market or
    /// knob semantics drifted since the checkpoint was written.
    FingerprintMismatch {
        /// Fingerprint stored in the manifest.
        stored: u64,
        /// Fingerprint recomputed by this binary.
        computed: u64,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::MissingManifest(dir) => {
                write!(f, "no checkpoint manifest in {}", dir.display())
            }
            ResumeError::Io(path, e) => write!(f, "reading {}: {e}", path.display()),
            ResumeError::Corrupt(path, e) => {
                write!(f, "corrupt checkpoint {}: {e}", path.display())
            }
            ResumeError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint format v{found} is not resumable by this binary (v{supported})"
            ),
            ResumeError::FingerprintMismatch { stored, computed } => write!(
                f,
                "stale checkpoint: stored fingerprint {stored:#018x} != computed {computed:#018x} \
                 (world or campaign drifted since the checkpoint was written)"
            ),
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::Io(_, e) => Some(e),
            ResumeError::Corrupt(_, e) => Some(e),
            _ => None,
        }
    }
}

/// Stable discriminant for a [`TelemetryMode`] on the wire.
#[must_use]
pub fn telemetry_to_wire(mode: TelemetryMode) -> u64 {
    match mode {
        TelemetryMode::Off => 0,
        TelemetryMode::Summary => 1,
        TelemetryMode::Jsonl => 2,
    }
}

/// Inverse of [`telemetry_to_wire`].
///
/// # Errors
/// [`CodecError::BadValue`] on an unknown discriminant.
pub fn telemetry_from_wire(v: u64) -> Result<TelemetryMode, CodecError> {
    match v {
        0 => Ok(TelemetryMode::Off),
        1 => Ok(TelemetryMode::Summary),
        2 => Ok(TelemetryMode::Jsonl),
        _ => Err(CodecError::BadValue("telemetry mode")),
    }
}

/// Encode a [`FleetConfig`] as a section payload. Fixed tags, one field
/// per knob; the mix is flattened into its three weights.
pub(crate) fn encode_config(e: &mut Encoder, config: &FleetConfig) {
    e.u64(config_tag::USERS, config.users);
    e.u64(config_tag::SHARDS, config.shards as u64);
    e.u64(config_tag::DAYS, u64::from(config.days));
    e.u64(config_tag::SAMPLE, config.sample as u64);
    e.u64(config_tag::MIX_RTT, u64::from(config.mix.rtt));
    e.u64(config_tag::MIX_DNS, u64::from(config.mix.dns));
    e.u64(config_tag::MIX_TRANSFER, u64::from(config.mix.transfer));
}

pub(crate) fn decode_config(d: &mut Decoder<'_>) -> Result<FleetConfig, CodecError> {
    let mut c = FleetConfig::default();
    let (mut rtt, mut dns, mut transfer) = (c.mix.rtt, c.mix.dns, c.mix.transfer);
    while let Some((tag, v)) = d.next_field()? {
        match tag {
            config_tag::USERS => c.users = v.as_u64(tag)?.max(1),
            config_tag::SHARDS => {
                c.shards = usize::try_from(v.as_u64(tag)?)
                    .map_err(|_| CodecError::BadValue("shards"))?
                    .max(1);
            }
            config_tag::DAYS => {
                c.days = u32::try_from(v.as_u64(tag)?)
                    .map_err(|_| CodecError::BadValue("days"))?
                    .max(1);
            }
            config_tag::SAMPLE => {
                c.sample =
                    usize::try_from(v.as_u64(tag)?).map_err(|_| CodecError::BadValue("sample"))?;
            }
            config_tag::MIX_RTT => {
                rtt = u32::try_from(v.as_u64(tag)?).map_err(|_| CodecError::BadValue("mix"))?;
            }
            config_tag::MIX_DNS => {
                dns = u32::try_from(v.as_u64(tag)?).map_err(|_| CodecError::BadValue("mix"))?;
            }
            config_tag::MIX_TRANSFER => {
                transfer =
                    u32::try_from(v.as_u64(tag)?).map_err(|_| CodecError::BadValue("mix"))?;
            }
            _ => {}
        }
    }
    if rtt + dns + transfer == 0 {
        return Err(CodecError::BadValue("all-zero mix"));
    }
    c.mix = SessionMix::new(rtt, dns, transfer);
    Ok(c)
}

/// Encode a resolved [`FaultSpec`] as a section payload: the twelve
/// schedule fields at tags 1–12, bit-exact `f64`s in declaration order.
/// Fleet manifests, worker jobs and the agent checkpoint share it.
pub fn encode_faults(e: &mut Encoder, spec: &FaultSpec) {
    for (tag, v) in fault_fields(spec).into_iter().enumerate() {
        e.f64(tag as u32 + 1, v);
    }
}

/// Inverse of [`encode_faults`]. An absent tag decodes as `0.0`; every
/// writer emits all twelve.
///
/// # Errors
/// A malformed section or a non-`f64` field.
pub fn decode_faults(d: &mut Decoder<'_>) -> Result<FaultSpec, CodecError> {
    let mut fields = [0.0f64; 12];
    while let Some((tag, v)) = d.next_field()? {
        if let 1..=12 = tag {
            fields[tag as usize - 1] = v.as_f64(tag)?;
        }
    }
    let [link_flap_rate, flap_bad_loss, flap_good_ms, flap_bad_ms, gateway_outage_rate, outage_up_ms, outage_dark_ms, dns_blackhole_rate, cgnat_rebind_rate, rebind_up_ms, rebind_dark_ms, period_ms] =
        fields;
    Ok(FaultSpec {
        link_flap_rate,
        flap_bad_loss,
        flap_good_ms,
        flap_bad_ms,
        gateway_outage_rate,
        outage_up_ms,
        outage_dark_ms,
        dns_blackhole_rate,
        cgnat_rebind_rate,
        rebind_up_ms,
        rebind_dark_ms,
        period_ms,
    })
}

fn fault_fields(s: &FaultSpec) -> [f64; 12] {
    [
        s.link_flap_rate,
        s.flap_bad_loss,
        s.flap_good_ms,
        s.flap_bad_ms,
        s.gateway_outage_rate,
        s.outage_up_ms,
        s.outage_dark_ms,
        s.dns_blackhole_rate,
        s.cgnat_rebind_rate,
        s.rebind_up_ms,
        s.rebind_dark_ms,
        s.period_ms,
    ]
}

/// The run identity a checkpoint directory belongs to: everything resume
/// needs to rebuild an identical runner, plus the fingerprint that proves
/// this binary still generates the same world and market.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Master seed.
    pub seed: u64,
    /// Content-addressed world/campaign fingerprint ([`run_fingerprint`]).
    pub fingerprint: u64,
    /// Effective shard count (after clamping to the population).
    pub shards: usize,
    /// Checkpoint cadence, accumulated sim-days per shard between writes.
    pub every: u64,
    /// Sizing knobs of the run.
    pub config: FleetConfig,
    /// Telemetry mode of the run.
    pub telemetry: TelemetryMode,
    /// The *resolved* fault schedule (override or environment at launch
    /// time). Stored so resume replays the same schedule even if
    /// `ROAM_FAULTS` changed in between.
    pub faults: FaultSpec,
}

impl Manifest {
    /// Serialize into a sealed [`KIND_MANIFEST`] frame.
    #[must_use]
    pub fn to_frame(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(manifest_tag::SEED, self.seed);
        e.u64(manifest_tag::FINGERPRINT, self.fingerprint);
        e.u64(manifest_tag::SHARDS, self.shards as u64);
        e.u64(manifest_tag::EVERY, self.every);
        e.section(manifest_tag::CONFIG, |se| encode_config(se, &self.config));
        e.u64(manifest_tag::TELEMETRY, telemetry_to_wire(self.telemetry));
        e.section(manifest_tag::FAULTS, |se| encode_faults(se, &self.faults));
        e.into_frame(KIND_MANIFEST, CKPT_VERSION)
    }

    /// Decode a manifest payload (the frame has already been parsed and
    /// version-checked).
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(payload);
        let (mut seed, mut fingerprint, mut shards, mut every) = (None, None, None, None);
        let (mut config, mut telemetry, mut faults) = (None, None, None);
        while let Some((tag, v)) = d.next_field()? {
            match tag {
                manifest_tag::SEED => seed = Some(v.as_u64(tag)?),
                manifest_tag::FINGERPRINT => fingerprint = Some(v.as_u64(tag)?),
                manifest_tag::SHARDS => {
                    shards = Some(
                        usize::try_from(v.as_u64(tag)?)
                            .map_err(|_| CodecError::BadValue("shards"))?,
                    );
                }
                manifest_tag::EVERY => every = Some(v.as_u64(tag)?),
                manifest_tag::CONFIG => config = Some(decode_config(&mut v.as_section(tag)?)?),
                manifest_tag::TELEMETRY => telemetry = Some(telemetry_from_wire(v.as_u64(tag)?)?),
                manifest_tag::FAULTS => faults = Some(decode_faults(&mut v.as_section(tag)?)?),
                _ => {}
            }
        }
        Ok(Manifest {
            seed: seed.ok_or(CodecError::MissingField("seed"))?,
            fingerprint: fingerprint.ok_or(CodecError::MissingField("fingerprint"))?,
            shards: shards.ok_or(CodecError::MissingField("shards"))?,
            every: every.ok_or(CodecError::MissingField("every"))?,
            config: config.ok_or(CodecError::MissingField("config"))?,
            telemetry: telemetry.ok_or(CodecError::MissingField("telemetry"))?,
            faults: faults.ok_or(CodecError::MissingField("faults"))?,
        })
    }
}

/// One shard's resumable partial state: where to pick the user loop back
/// up, and everything accumulated so far. Because per-user observables
/// derive from per-user RNG streams, `next_uid` is the *complete* RNG
/// cursor — no generator state needs saving.
#[derive(Debug, Clone)]
pub struct ShardState {
    /// Which shard this is.
    pub index: usize,
    /// First user id the resumed loop will run.
    pub next_uid: u64,
    /// Aggregates over users `[lo, next_uid)`.
    pub report: FleetReport,
    /// Telemetry accumulated over the same prefix. Restored wholesale
    /// into the resumed shard's recorder (`Recorder::restore`) so the
    /// sequential `f64` histogram sums continue in original order —
    /// merging two partial snapshots would not be bit-identical.
    pub telemetry: TelemetrySnapshot,
}

impl ShardState {
    /// Encode this state's fields (shared by checkpoint files and worker
    /// job resume sections).
    pub fn encode_fields(&self, e: &mut Encoder) {
        e.u64(shard_tag::INDEX, self.index as u64);
        e.u64(shard_tag::NEXT_UID, self.next_uid);
        e.section(shard_tag::REPORT, |se| self.report.encode_fields(se));
        e.section(shard_tag::TELEMETRY, |se| self.telemetry.encode_fields(se));
    }

    /// Serialize into a sealed [`KIND_SHARD`] frame.
    #[must_use]
    pub fn to_frame(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_fields(&mut e);
        e.into_frame(KIND_SHARD, CKPT_VERSION)
    }

    /// Decode one shard state from `d`.
    pub fn decode_fields(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (mut index, mut next_uid, mut report, mut telemetry) = (None, None, None, None);
        while let Some((tag, v)) = d.next_field()? {
            match tag {
                shard_tag::INDEX => {
                    index = Some(
                        usize::try_from(v.as_u64(tag)?)
                            .map_err(|_| CodecError::BadValue("shard index"))?,
                    );
                }
                shard_tag::NEXT_UID => next_uid = Some(v.as_u64(tag)?),
                shard_tag::REPORT => {
                    report = Some(FleetReport::decode_fields(&mut v.as_section(tag)?)?)
                }
                shard_tag::TELEMETRY => {
                    telemetry = Some(TelemetrySnapshot::decode_fields(&mut v.as_section(tag)?)?);
                }
                _ => {}
            }
        }
        Ok(ShardState {
            index: index.ok_or(CodecError::MissingField("shard index"))?,
            next_uid: next_uid.ok_or(CodecError::MissingField("next_uid"))?,
            report: report.ok_or(CodecError::MissingField("shard report"))?,
            telemetry: telemetry.ok_or(CodecError::MissingField("shard telemetry"))?,
        })
    }
}

/// The content-addressed world/campaign fingerprint: a fold over the
/// seeded world's structure, every generated market offer, and each knob
/// that can reach the report bytes. Two binaries computing the same value
/// for the same manifest will drive byte-identical runs; anything else is
/// a stale checkpoint.
///
/// The value is [`roam_codec::hash64`] of a seven-field encoding (tags
/// 1–7: version, seed, world fingerprint, market section, config
/// section, telemetry mode, fault section). The encoding is never built:
/// its fields stream straight into an [`Fnv64`]. The market section is
/// sized first by a counting pass ([`FieldWriter::section_of`]); the
/// config and fault sections, a few dozen bytes each, are built in a
/// scratch [`Encoder`] and copied in. Beyond building the world, the
/// world's own fingerprint and the market, it allocates only those two
/// small buffers.
#[must_use]
pub fn run_fingerprint(
    seed: u64,
    config: &FleetConfig,
    telemetry: TelemetryMode,
    faults: &FaultSpec,
) -> u64 {
    let world = World::build(seed);
    let market = Market::generate(seed);
    let mut h = FieldWriter::with_sink(Fnv64::new());
    h.u64(1, u64::from(CKPT_VERSION));
    h.u64(2, seed);
    h.u64(3, world.fingerprint());
    h.section_of(4, &MarketFields(&market));
    h.section(5, |se| encode_config(se, config));
    h.u64(6, telemetry_to_wire(telemetry));
    h.section(7, |se| encode_faults(se, faults));
    h.into_sink().finish()
}

/// Section 4 of the fingerprint: one section per offer, then Airalo's id.
struct MarketFields<'a>(&'a Market);

impl Fields for MarketFields<'_> {
    fn write_fields<S: Sink>(&self, w: &mut FieldWriter<S>) {
        for offer in self.0.offers() {
            w.section_of(1, &OfferFields(offer));
        }
        w.u64(2, u64::from(self.0.airalo().0));
    }
}

struct OfferFields<'a>(&'a EsimOffer);

impl Fields for OfferFields<'_> {
    #[inline]
    fn write_fields<S: Sink>(&self, w: &mut FieldWriter<S>) {
        let offer = self.0;
        w.u64(1, u64::from(offer.provider.0));
        w.str(2, offer.country.alpha3());
        w.f64(3, offer.data_gb);
        w.u64(4, u64::from(offer.validity_days));
        w.f64(5, offer.base_price_usd);
        w.u64(6, offer.bmno.map_or(u64::MAX, u64::from));
    }
}

/// When and where a running shard writes checkpoints.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointPolicy {
    /// Directory holding `manifest.ckpt` and the shard files.
    pub dir: PathBuf,
    /// Accumulated sim-days between writes (`ROAM_CHECKPOINT_EVERY`).
    pub every_days: u64,
    /// Stop the shard after this many checkpoint writes — the
    /// kill-and-resume harness's deterministic stand-in for a SIGKILL.
    pub halt_after: Option<u32>,
}

/// Atomically persist the manifest into `dir`, creating it if needed.
pub(crate) fn write_manifest(dir: &Path, manifest: &Manifest) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_atomic(&dir.join(MANIFEST_FILE), &manifest.to_frame())
}

/// Atomically persist one shard's state into `dir`.
pub(crate) fn write_shard(dir: &Path, state: &ShardState) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_atomic(&dir.join(shard_file(state.index)), &state.to_frame())
}

/// Load the manifest from `dir`. A missing file is
/// [`ResumeError::MissingManifest`]; anything unreadable or undecodable
/// is reported as-is, never papered over.
pub(crate) fn load_manifest(dir: &Path) -> Result<Manifest, ResumeError> {
    let path = dir.join(MANIFEST_FILE);
    if !path.exists() {
        return Err(ResumeError::MissingManifest(dir.to_path_buf()));
    }
    let payload = read_frame(&path, KIND_MANIFEST)?;
    Manifest::decode(&payload).map_err(|e| ResumeError::Corrupt(path, e))
}

/// Load shard `index`'s state from `dir`. `Ok(None)` when the shard
/// never checkpointed (it will resume from its range start).
pub(crate) fn load_shard(dir: &Path, index: usize) -> Result<Option<ShardState>, ResumeError> {
    let path = dir.join(shard_file(index));
    if !path.exists() {
        return Ok(None);
    }
    let payload = read_frame(&path, KIND_SHARD)?;
    let state = ShardState::decode_fields(&mut Decoder::new(&payload))
        .map_err(|e| ResumeError::Corrupt(path.clone(), e))?;
    if state.index != index {
        return Err(ResumeError::Corrupt(
            path,
            CodecError::BadValue("shard index"),
        ));
    }
    Ok(Some(state))
}

/// Write `frame` to `path` atomically: a sibling temp file first, then a
/// rename over the target. A kill at any point leaves either the previous
/// file or the new one, never a torn frame. Public because the service
/// agent's checkpoint (`roam-service`) writes through the same plane.
pub fn write_atomic(path: &Path, frame: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(frame)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Read and unseal one checkpoint file, enforcing frame kind and version.
/// Public for the same reason as [`write_atomic`].
pub fn read_frame(path: &Path, kind: u16) -> Result<Vec<u8>, ResumeError> {
    let bytes = std::fs::read(path).map_err(|e| ResumeError::Io(path.to_path_buf(), e))?;
    let (frame, used) =
        Frame::parse(&bytes).map_err(|e| ResumeError::Corrupt(path.to_path_buf(), e))?;
    if used != bytes.len() {
        return Err(ResumeError::Corrupt(
            path.to_path_buf(),
            CodecError::BadValue("trailing bytes"),
        ));
    }
    if frame.version != CKPT_VERSION {
        return Err(ResumeError::VersionMismatch {
            found: frame.version,
            supported: CKPT_VERSION,
        });
    }
    if frame.kind != kind {
        return Err(ResumeError::Corrupt(
            path.to_path_buf(),
            CodecError::BadValue("frame kind"),
        ));
    }
    Ok(frame.payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn manifest() -> Manifest {
        Manifest {
            seed: 42,
            fingerprint: 0xDEAD_BEEF_F00D_CAFE,
            shards: 4,
            every: 120_000,
            config: FleetConfig {
                users: 100_000,
                shards: 4,
                days: 45,
                sample: 8,
                mix: SessionMix::new(3, 2, 1),
            },
            telemetry: TelemetryMode::Summary,
            faults: FaultSpec::heavy(),
        }
    }

    #[test]
    fn manifest_round_trips_through_its_frame() {
        let m = manifest();
        let frame = m.to_frame();
        let (parsed, used) = Frame::parse(&frame).expect("sealed frame parses");
        assert_eq!(used, frame.len());
        assert_eq!(parsed.kind, KIND_MANIFEST);
        assert_eq!(parsed.version, CKPT_VERSION);
        assert_eq!(Manifest::decode(parsed.payload).expect("decodes"), m);
    }

    #[test]
    fn shard_state_round_trips() {
        let state = ShardState {
            index: 2,
            next_uid: 51_200,
            report: FleetReport::new(8),
            telemetry: TelemetrySnapshot::default(),
        };
        let frame = state.to_frame();
        let (parsed, _) = Frame::parse(&frame).expect("sealed frame parses");
        assert_eq!(parsed.kind, KIND_SHARD);
        let back = ShardState::decode_fields(&mut Decoder::new(parsed.payload)).expect("decodes");
        assert_eq!(back.index, 2);
        assert_eq!(back.next_uid, 51_200);
        assert_eq!(back.report, state.report);
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = manifest();
        let fp = |m: &Manifest| run_fingerprint(m.seed, &m.config, m.telemetry, &m.faults);
        let reference = fp(&base);
        assert_eq!(fp(&base), reference, "fingerprint is deterministic");
        let mut other_seed = base.clone();
        other_seed.seed = 43;
        assert_ne!(fp(&other_seed), reference);
        let mut other_days = base.clone();
        other_days.config.days = 46;
        assert_ne!(fp(&other_days), reference);
        let mut other_faults = base.clone();
        other_faults.faults = FaultSpec::off();
        assert_ne!(fp(&other_faults), reference);
        let mut other_telemetry = base.clone();
        other_telemetry.telemetry = TelemetryMode::Off;
        assert_ne!(fp(&other_telemetry), reference);
    }

    /// The fingerprint's value is part of the checkpoint format: a
    /// refactor of how it is computed must not move it, or every
    /// checkpoint written before the refactor stops resuming.
    #[test]
    fn run_fingerprints_are_pinned() {
        let quiet = run_fingerprint(
            1,
            &FleetConfig::default(),
            TelemetryMode::Off,
            &FaultSpec::off(),
        );
        let loud = run_fingerprint(
            2,
            &FleetConfig::default(),
            TelemetryMode::Jsonl,
            &FaultSpec::heavy(),
        );
        assert_eq!(
            (quiet, loud),
            (0xdf44_c038_fb2b_45d3, 0xe728_661f_7e9b_29c6),
            "fingerprints moved: {quiet:#018x}, {loud:#018x}"
        );
    }

    /// The fingerprint as first written: the whole seven-field encoding
    /// built in memory, each offer section copied in, then hashed. The
    /// streaming [`run_fingerprint`] must give the same bits.
    fn materialised_fingerprint(
        seed: u64,
        config: &FleetConfig,
        telemetry: TelemetryMode,
        faults: &FaultSpec,
    ) -> u64 {
        let world = World::build(seed);
        let market = Market::generate(seed);
        let mut e = Encoder::new();
        e.u64(1, u64::from(CKPT_VERSION));
        e.u64(2, seed);
        e.u64(3, world.fingerprint());
        e.section(4, |se| {
            for offer in market.offers() {
                se.section(1, |oe| {
                    oe.u64(1, u64::from(offer.provider.0));
                    oe.str(2, offer.country.alpha3());
                    oe.f64(3, offer.data_gb);
                    oe.u64(4, u64::from(offer.validity_days));
                    oe.f64(5, offer.base_price_usd);
                    oe.u64(6, offer.bmno.map_or(u64::MAX, u64::from));
                });
            }
            se.u64(2, u64::from(market.airalo().0));
        });
        e.section(5, |se| encode_config(se, config));
        e.u64(6, telemetry_to_wire(telemetry));
        e.section(7, |se| encode_faults(se, faults));
        roam_codec::hash64(&e.into_bytes())
    }

    /// A fault-spec field: the presets' values, the floats whose bits a
    /// numeric compare would blur, or any bit pattern at all.
    fn fault_field() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(f64::INFINITY),
            Just(0.35),
            Just(2400.0),
            any::<u64>().prop_map(f64::from_bits),
        ]
    }

    fn fault_spec() -> impl Strategy<Value = FaultSpec> {
        proptest::collection::vec(fault_field(), 12).prop_map(|f| FaultSpec {
            link_flap_rate: f[0],
            flap_bad_loss: f[1],
            flap_good_ms: f[2],
            flap_bad_ms: f[3],
            gateway_outage_rate: f[4],
            outage_up_ms: f[5],
            outage_dark_ms: f[6],
            dns_blackhole_rate: f[7],
            cgnat_rebind_rate: f[8],
            rebind_up_ms: f[9],
            rebind_dark_ms: f[10],
            period_ms: f[11],
        })
    }

    fn fleet_config() -> impl Strategy<Value = FleetConfig> {
        // Weights stay below 2^30 so their sum cannot overflow; an
        // all-zero mix is not a config.
        let mix = (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(r, d, t)| {
            let (r, d, t) = (r >> 2, d >> 2, t >> 2);
            SessionMix::new(r.max(u32::from(d == 0 && t == 0)), d, t)
        });
        (
            any::<u64>(),
            any::<usize>(),
            any::<u32>(),
            any::<usize>(),
            mix,
        )
            .prop_map(|(users, shards, days, sample, mix)| FleetConfig {
                users,
                shards,
                days,
                sample,
                mix,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn streaming_fingerprint_matches_the_materialised_one(
            seed in prop_oneof![0u64..4096, any::<u64>()],
            config in fleet_config(),
            telemetry in prop_oneof![
                Just(TelemetryMode::Off),
                Just(TelemetryMode::Summary),
                Just(TelemetryMode::Jsonl),
            ],
            faults in prop_oneof![
                Just(FaultSpec::off()),
                Just(FaultSpec::heavy()),
                fault_spec(),
            ],
        ) {
            prop_assert_eq!(
                run_fingerprint(seed, &config, telemetry, &faults),
                materialised_fingerprint(seed, &config, telemetry, &faults)
            );
        }
    }

    #[test]
    fn atomic_write_replaces_and_read_enforces_kind_and_version() {
        let dir = std::env::temp_dir().join(format!("roam-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(MANIFEST_FILE);
        write_atomic(&path, &manifest().to_frame()).expect("write");
        let payload = read_frame(&path, KIND_MANIFEST).expect("read back");
        assert_eq!(Manifest::decode(&payload).expect("decode"), manifest());
        // Wrong expected kind → corrupt, not a decode attempt.
        assert!(matches!(
            read_frame(&path, KIND_SHARD),
            Err(ResumeError::Corrupt(_, CodecError::BadValue("frame kind")))
        ));
        // A frame sealed with a future version → VersionMismatch.
        let future = Encoder::new().into_frame(KIND_MANIFEST, CKPT_VERSION + 1);
        write_atomic(&path, &future).expect("write future");
        assert!(matches!(
            read_frame(&path, KIND_MANIFEST),
            Err(ResumeError::VersionMismatch { found, supported })
                if found == CKPT_VERSION + 1 && supported == CKPT_VERSION
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
