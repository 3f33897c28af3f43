//! Campaign orchestration and the records the measurement clients return.
//!
//! [`run_device_campaign`] mirrors §3.2: a rooted device with a local
//! physical SIM and an Airalo-style eSIM alternates between them, running
//! the Table-1 suite with per-country sample counts (Table 4 shows them
//! as `<physical SIM> // <Airalo eSIM>`). Each client returns its record
//! directly; this module only dispatches the plan and decides what a
//! failed measurement leaves behind. The web campaign's measurement is
//! [`crate::webtest::run_web_measurement`] (§3.1).

use crate::cdn::{fetch_jquery_checked, CdnOptions, CdnProvider};
use crate::dns::resolve_checked;
use crate::endpoint::Endpoint;
use crate::error::{MeasureError, MeasureStatus};
use crate::speedtest::ookla_speedtest_checked;
use crate::targets::{Service, ServiceTargets};
use crate::trace::mtr_run_checked;
use crate::video::{play_youtube_checked, Resolution};
use roam_cellular::{Cqi, Rat, SimType};
use roam_core::PathAnalysis;
use roam_geo::{City, Country};
use roam_ipx::RoamingArch;
use roam_netsim::Network;
use roam_telemetry::{Counter, Event, EventScope};

/// Context tag attached to every record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordTag {
    /// Country the measurement ran in.
    pub country: Country,
    /// Physical SIM or eSIM.
    pub sim_type: SimType,
    /// Roaming architecture of the session.
    pub arch: RoamingArch,
    /// RAT of the attachment.
    pub rat: Rat,
}

impl RecordTag {
    /// The context tag of a measurement run on `ep` — the one way every
    /// record, campaign or fleet, gets its four context columns.
    #[must_use]
    pub fn of(ep: &Endpoint) -> Self {
        RecordTag {
            country: ep.country,
            sim_type: ep.sim_type,
            arch: ep.att.arch,
            rat: ep.rat(),
        }
    }
}

/// One Ookla speedtest record.
#[derive(Debug, Clone, Copy)]
pub struct SpeedtestRecord {
    /// Context.
    pub tag: RecordTag,
    /// Downlink, Mbps (`NaN` on a failed run — exported empty).
    pub down_mbps: f64,
    /// Uplink, Mbps (`NaN` on a failed run).
    pub up_mbps: f64,
    /// Latency to the selected server, ms (`NaN` on a failed run).
    pub latency_ms: f64,
    /// Echo attempts the latency phase consumed (probe loss).
    pub attempts: u32,
    /// Channel quality during the test (`None` on a failed run — the test
    /// never got far enough to sample the channel).
    pub cqi: Option<Cqi>,
    /// How the measurement ended.
    pub status: MeasureStatus,
}

impl SpeedtestRecord {
    /// The explicit failure row: `NaN` metrics and no CQI.
    fn failed(tag: RecordTag, status: MeasureStatus, attempts: u32) -> Self {
        SpeedtestRecord {
            tag,
            down_mbps: f64::NAN,
            up_mbps: f64::NAN,
            latency_ms: f64::NAN,
            attempts,
            cqi: None,
            status,
        }
    }
}

/// One traceroute record.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Context.
    pub tag: RecordTag,
    /// Target service.
    pub service: Service,
    /// Path decomposition.
    pub analysis: PathAnalysis,
    /// How the run ended (`timeout` when the walk never reached the
    /// target).
    pub status: MeasureStatus,
}

/// One CDN fetch record.
#[derive(Debug, Clone, Copy)]
pub struct CdnRecord {
    /// Context.
    pub tag: RecordTag,
    /// Provider fetched from.
    pub provider: CdnProvider,
    /// Total download time, ms (`NaN` on a failed run).
    pub total_ms: f64,
    /// DNS component, ms (`NaN` on a failed run).
    pub dns_ms: f64,
    /// Cache state at the edge.
    pub cache_hit: bool,
    /// How the fetch ended.
    pub status: MeasureStatus,
}

impl CdnRecord {
    /// The explicit failure row: `NaN` times, no cache hit.
    fn failed(tag: RecordTag, provider: CdnProvider, status: MeasureStatus) -> Self {
        CdnRecord {
            tag,
            provider,
            total_ms: f64::NAN,
            dns_ms: f64::NAN,
            cache_hit: false,
            status,
        }
    }
}

/// One DNS lookup record.
#[derive(Debug, Clone, Copy)]
pub struct DnsRecord {
    /// Context.
    pub tag: RecordTag,
    /// Lookup time, ms (`NaN` on a failed run).
    pub lookup_ms: f64,
    /// Echo attempts the resolver RTT phase consumed.
    pub attempts: u32,
    /// Resolver city (`None` when the lookup never got an answer).
    pub resolver_city: Option<City>,
    /// DoH in use?
    pub doh: bool,
    /// How the lookup ended.
    pub status: MeasureStatus,
}

impl DnsRecord {
    /// The explicit failure row: `NaN` lookup time, no resolver, no DoH.
    fn failed(tag: RecordTag, status: MeasureStatus, attempts: u32) -> Self {
        DnsRecord {
            tag,
            lookup_ms: f64::NAN,
            attempts,
            resolver_city: None,
            doh: false,
            status,
        }
    }
}

/// One video playback record.
#[derive(Debug, Clone, Copy)]
pub struct VideoRecord {
    /// Context.
    pub tag: RecordTag,
    /// Resolution settled on (`None` when playback never started).
    pub resolution: Option<Resolution>,
    /// Buffer underrun?
    pub rebuffered: bool,
    /// How the session ended.
    pub status: MeasureStatus,
}

impl VideoRecord {
    /// The explicit failure row: no resolution, no rebuffering.
    fn failed(tag: RecordTag, status: MeasureStatus) -> Self {
        VideoRecord {
            tag,
            resolution: None,
            rebuffered: false,
            status,
        }
    }
}

/// All records of a campaign (possibly many countries merged).
#[derive(Debug, Default, Clone)]
pub struct CampaignData {
    /// Speedtests.
    pub speedtests: Vec<SpeedtestRecord>,
    /// Traceroutes.
    pub traces: Vec<TraceRecord>,
    /// CDN fetches.
    pub cdns: Vec<CdnRecord>,
    /// DNS lookups.
    pub dns: Vec<DnsRecord>,
    /// Video sessions.
    pub videos: Vec<VideoRecord>,
}

impl CampaignData {
    /// Merge another campaign's records into this one.
    pub fn extend(&mut self, other: CampaignData) {
        self.speedtests.extend(other.speedtests);
        self.traces.extend(other.traces);
        self.cdns.extend(other.cdns);
        self.dns.extend(other.dns);
        self.videos.extend(other.videos);
    }

    /// Speedtests passing the paper's CQI ≥ 7 filter. Failed runs carry no
    /// CQI and are excluded along with the weak-channel samples.
    #[must_use]
    pub fn filtered_speedtests(&self) -> Vec<&SpeedtestRecord> {
        self.speedtests
            .iter()
            .filter(|r| r.cqi.is_some_and(|c| c.passes_quality_filter()))
            .collect()
    }

    /// Per-status record counts across every dataset: the degraded-run
    /// summary a campaign reports instead of aborting under faults.
    #[must_use]
    pub fn degradation(&self) -> DegradationSummary {
        let mut d = DegradationSummary::default();
        for r in &self.speedtests {
            d.count(r.status);
        }
        for r in &self.traces {
            d.count(r.status);
        }
        for r in &self.cdns {
            d.count(r.status);
        }
        for r in &self.dns {
            d.count(r.status);
        }
        for r in &self.videos {
            d.count(r.status);
        }
        d
    }

    /// Total records across every dataset.
    #[must_use]
    pub fn len(&self) -> usize {
        self.speedtests.len()
            + self.traces.len()
            + self.cdns.len()
            + self.dns.len()
            + self.videos.len()
    }

    /// No records at all?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-status record counts: how degraded a (possibly fault-injected)
/// run was. Additive — shard summaries merge by summing fields.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DegradationSummary {
    /// Records measured on the primary path.
    pub ok: u64,
    /// Records measured via a failover gateway.
    pub failover: u64,
    /// Explicit failure rows: every probe (and retry) lost.
    pub timeout: u64,
    /// Explicit failure rows: destination unroutable or silent.
    pub unreachable: u64,
}

impl DegradationSummary {
    fn count(&mut self, status: MeasureStatus) {
        match status {
            MeasureStatus::Ok => self.ok += 1,
            MeasureStatus::Failover => self.failover += 1,
            MeasureStatus::Timeout => self.timeout += 1,
            MeasureStatus::Unreachable => self.unreachable += 1,
        }
    }

    /// Records that produced no sample.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.timeout + self.unreachable
    }

    /// Records that touched the fault plane at all (failover or failed).
    #[must_use]
    pub fn degraded(&self) -> u64 {
        self.failover + self.failed()
    }

    /// Merge another shard's summary into this one.
    pub fn merge(&mut self, other: DegradationSummary) {
        self.ok += other.ok;
        self.failover += other.failover;
        self.timeout += other.timeout;
        self.unreachable += other.unreachable;
    }

    /// Write the summary's fields into `e` (roam-codec wire form; tags
    /// 1–4 = ok/failover/timeout/unreachable, see DESIGN.md §11).
    pub fn encode_fields(&self, e: &mut roam_codec::Encoder) {
        e.u64(1, self.ok);
        e.u64(2, self.failover);
        e.u64(3, self.timeout);
        e.u64(4, self.unreachable);
    }

    /// Rebuild a summary from fields written by
    /// [`DegradationSummary::encode_fields`]. Absent fields decode as 0
    /// (the summary is additive, so zero is the honest default) and
    /// unknown tags are skipped.
    pub fn decode_fields(d: &mut roam_codec::Decoder) -> Result<Self, roam_codec::CodecError> {
        let mut out = DegradationSummary::default();
        while let Some((tag, v)) = d.next_field()? {
            match tag {
                1 => out.ok = v.as_u64(tag)?,
                2 => out.failover = v.as_u64(tag)?,
                3 => out.timeout = v.as_u64(tag)?,
                4 => out.unreachable = v.as_u64(tag)?,
                _ => {}
            }
        }
        Ok(out)
    }
}

/// Per-country sample counts, `(physical SIM, eSIM)` — the Table 4 format.
#[derive(Debug, Clone, Copy)]
pub struct DeviceCampaignSpec {
    /// Ookla speedtests.
    pub ookla: (u32, u32),
    /// `mtr` runs per target service (Google, Facebook, YouTube each).
    pub mtr_per_target: (u32, u32),
    /// CDN fetches per provider (five providers each).
    pub cdn_per_provider: (u32, u32),
    /// DNS lookups.
    pub dns: (u32, u32),
    /// Video playbacks.
    pub video: (u32, u32),
}

impl DeviceCampaignSpec {
    /// A small, fast spec for tests and examples.
    #[must_use]
    pub fn smoke() -> Self {
        DeviceCampaignSpec {
            ookla: (3, 3),
            mtr_per_target: (3, 3),
            cdn_per_provider: (2, 2),
            dns: (3, 3),
            video: (2, 2),
        }
    }
}

/// The traceroute targets of the device campaign.
const MTR_TARGETS: [Service; 3] = [Service::Google, Service::Facebook, Service::YouTube];

/// One planned measurement of the device campaign. The repetition index is
/// part of the plan entry, so every measurement names its own flow and the
/// outcome is a function of the entry alone — not of how many measurements
/// ran before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedMeasurement {
    /// The `i`-th Ookla speedtest.
    Ookla(u32),
    /// The `i`-th `mtr` run toward a service.
    Mtr(Service, u32),
    /// The `i`-th fetch from a CDN provider.
    Cdn(CdnProvider, u32),
    /// The `i`-th DNS check.
    Dns(u32),
    /// The `i`-th video playback.
    Video(u32),
}

impl DeviceCampaignSpec {
    /// Expand the per-country counts into the ordered measurement plan for
    /// one endpoint (`sim` selects the physical-SIM or eSIM column).
    #[must_use]
    pub fn plan(&self, sim: SimType) -> Vec<PlannedMeasurement> {
        let pick = |c: (u32, u32)| match sim {
            SimType::Physical => c.0,
            SimType::Esim => c.1,
        };
        let mut plan = Vec::new();
        for i in 0..pick(self.ookla) {
            plan.push(PlannedMeasurement::Ookla(i));
        }
        for service in MTR_TARGETS {
            for i in 0..pick(self.mtr_per_target) {
                plan.push(PlannedMeasurement::Mtr(service, i));
            }
        }
        for provider in CdnProvider::ALL {
            for i in 0..pick(self.cdn_per_provider) {
                plan.push(PlannedMeasurement::Cdn(provider, i));
            }
        }
        for i in 0..pick(self.dns) {
            plan.push(PlannedMeasurement::Dns(i));
        }
        for i in 0..pick(self.video) {
            plan.push(PlannedMeasurement::Video(i));
        }
        plan
    }
}

/// Execute one planned measurement on `ep`, appending any record it
/// produces to `data`. Each entry runs on its own flow, so a plan may be
/// executed in any order — the records come out the same.
pub fn run_measurement(
    net: &mut Network,
    ep: &Endpoint,
    targets: &ServiceTargets,
    m: PlannedMeasurement,
    data: &mut CampaignData,
) {
    let tag = RecordTag::of(ep);
    let before = data.len();
    execute_measurement(net, ep, targets, m, data, tag);
    let emitted = (data.len() - before) as u64;
    let t = net.telemetry_mut();
    t.add(Counter::PlansExecuted, 1);
    t.add(Counter::RecordsEmitted, emitted);
    if t.wants_events() {
        t.push_event(Event {
            at_ns: 0,
            scope: EventScope::Shard(format!("{:?}/{:?}", tag.country, tag.sim_type)),
            kind: "plan",
            label: format!("{m:?}"),
            value: Some(emitted as f64),
            attempts: None,
        });
    }
}

/// Decide what a failed measurement leaves behind. With the fault plane
/// active, a network failure becomes an explicit record (status column,
/// `NaN` metrics) so degraded runs are auditable; [`MeasureError::NoTarget`]
/// — a gap in the scenario, not the network — stays a silent skip in both
/// modes, as does everything when faults are off, preserving the campaign's
/// byte-identical record stream.
fn failed_status(net: &mut Network, e: &MeasureError) -> Option<MeasureStatus> {
    if matches!(e, MeasureError::NoTarget) || !net.faults_enabled() {
        return None;
    }
    net.telemetry_mut().add(Counter::MeasurementsFailed, 1);
    Some(e.status())
}

fn execute_measurement(
    net: &mut Network,
    ep: &Endpoint,
    targets: &ServiceTargets,
    m: PlannedMeasurement,
    data: &mut CampaignData,
    tag: RecordTag,
) {
    match m {
        PlannedMeasurement::Ookla(i) => {
            match ookla_speedtest_checked(net, ep, targets, &format!("ookla/{i}")) {
                Ok(r) => data.speedtests.push(r),
                Err(e) => data.speedtests.extend(
                    failed_status(net, &e).map(|s| SpeedtestRecord::failed(tag, s, e.attempts())),
                ),
            }
        }
        PlannedMeasurement::Mtr(service, run) => {
            data.traces
                .extend(mtr_run_checked(net, ep, targets, service, run).ok());
        }
        PlannedMeasurement::Cdn(provider, i) => {
            let label = format!("cdn/{provider:?}/{i}");
            match fetch_jquery_checked(net, ep, targets, provider, CdnOptions::default(), &label) {
                Ok(r) => data.cdns.push(r),
                Err(e) => data
                    .cdns
                    .extend(failed_status(net, &e).map(|s| CdnRecord::failed(tag, provider, s))),
            }
        }
        PlannedMeasurement::Dns(i) => {
            match resolve_checked(net, ep, targets, &format!("dns/{i}")) {
                Ok(r) => data.dns.push(r),
                Err(e) => data.dns.extend(
                    failed_status(net, &e).map(|s| DnsRecord::failed(tag, s, e.attempts())),
                ),
            }
        }
        PlannedMeasurement::Video(i) => {
            match play_youtube_checked(net, ep, targets, &format!("video/{i}")) {
                Ok(r) => data.videos.push(r),
                Err(e) => data
                    .videos
                    .extend(failed_status(net, &e).map(|s| VideoRecord::failed(tag, s))),
            }
        }
    }
}

/// Run the full device campaign for one country: the given counts on the
/// physical-SIM endpoint and on the eSIM endpoint, alternating as the real
/// testbed did.
pub fn run_device_campaign(
    net: &mut Network,
    sim: &Endpoint,
    esim: &Endpoint,
    spec: &DeviceCampaignSpec,
    targets: &ServiceTargets,
) -> CampaignData {
    let mut data = CampaignData::default();
    for ep in [sim, esim] {
        for m in spec.plan(ep.sim_type) {
            run_measurement(net, ep, targets, m, &mut data);
        }
    }
    data
}
