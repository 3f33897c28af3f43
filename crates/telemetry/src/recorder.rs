//! The recorder: counters, histograms, packet records and events.

use crate::TelemetryMode;

/// Monotonic counters, one per observable. The enum order is the render
/// order, so adding a counter never reshuffles existing report lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Packets injected by a source host.
    PacketsSent,
    /// Packets forwarded by an intermediate node.
    PacketsForwarded,
    /// Packets delivered to their final node.
    PacketsDelivered,
    /// Packets dropped by a lossy link.
    PacketsDropped,
    /// TTLs that hit zero mid-path.
    TtlExpired,
    /// Events pushed onto a packet-walk calendar.
    CalendarEvents,
    /// Measurement flows opened through `Endpoint::probe`.
    FlowsOpened,
    /// Echo attempts consumed by RTT probes (including successes).
    EchoAttempts,
    /// Echo attempts beyond the first (retries after loss).
    ProbeRetransmits,
    /// RTT probes that exhausted every retry.
    ProbesLost,
    /// Traceroute runs.
    TracerouteRuns,
    /// Bytes moved by bulk transfers (spec bytes, not wire bytes).
    TransferBytes,
    /// Planned measurements executed by the campaign driver.
    PlansExecuted,
    /// Campaign records the executed plans produced.
    RecordsEmitted,
    /// Shards merged into the final report, in key order.
    ShardsMerged,
    /// Synthetic subscribers simulated by a fleet run.
    FleetUsers,
    /// Data sessions churned through by fleet subscribers.
    FleetSessions,
    /// Marketplace purchases made by fleet subscribers.
    FleetPurchases,
    /// Packets killed by the fault plane (dark gateways, DNS blackholes,
    /// CG-NAT rebind windows).
    FaultDrops,
    /// Packets that detoured through a registered failover gateway.
    FaultFailovers,
    /// Client-side backoff retries after an exhausted probe burn.
    ProbeBackoffs,
    /// Measurements that failed after every retry and were recorded as
    /// explicit failed rows.
    MeasurementsFailed,
    /// Scheduler jobs fired by the service agent's virtual clock.
    ServiceJobFires,
    /// Cohort arrivals + departures applied by service churn ticks.
    ServiceCohortChurn,
    /// Bounded-queue flushes the service export stage pushed into its
    /// sink (each one a backpressure drain, never a drop).
    ServiceSinkFlushes,
    /// Fleet worker processes respawned by the supervisor after a
    /// crash, stall, nonzero exit or protocol violation.
    WorkerRestarts,
    /// Shard attempts re-dispatched after the worker running them died
    /// mid-shard (each retry re-executes a pure function of
    /// `(seed, shard)`, so the report bytes cannot change).
    WorkerRetries,
    /// Shards that exhausted their retry budget and fell back to
    /// in-process execution on the parent.
    WorkerQuarantines,
}

impl Counter {
    /// Every counter, in render order.
    pub const ALL: [Counter; 28] = [
        Counter::PacketsSent,
        Counter::PacketsForwarded,
        Counter::PacketsDelivered,
        Counter::PacketsDropped,
        Counter::TtlExpired,
        Counter::CalendarEvents,
        Counter::FlowsOpened,
        Counter::EchoAttempts,
        Counter::ProbeRetransmits,
        Counter::ProbesLost,
        Counter::TracerouteRuns,
        Counter::TransferBytes,
        Counter::PlansExecuted,
        Counter::RecordsEmitted,
        Counter::ShardsMerged,
        Counter::FleetUsers,
        Counter::FleetSessions,
        Counter::FleetPurchases,
        Counter::FaultDrops,
        Counter::FaultFailovers,
        Counter::ProbeBackoffs,
        Counter::MeasurementsFailed,
        Counter::ServiceJobFires,
        Counter::ServiceCohortChurn,
        Counter::ServiceSinkFlushes,
        Counter::WorkerRestarts,
        Counter::WorkerRetries,
        Counter::WorkerQuarantines,
    ];

    /// Stable snake_case name used in the summary report.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::PacketsSent => "packets_sent",
            Counter::PacketsForwarded => "packets_forwarded",
            Counter::PacketsDelivered => "packets_delivered",
            Counter::PacketsDropped => "packets_dropped",
            Counter::TtlExpired => "ttl_expired",
            Counter::CalendarEvents => "calendar_events",
            Counter::FlowsOpened => "flows_opened",
            Counter::EchoAttempts => "echo_attempts",
            Counter::ProbeRetransmits => "probe_retransmits",
            Counter::ProbesLost => "probes_lost",
            Counter::TracerouteRuns => "traceroute_runs",
            Counter::TransferBytes => "transfer_bytes",
            Counter::PlansExecuted => "plans_executed",
            Counter::RecordsEmitted => "records_emitted",
            Counter::ShardsMerged => "shards_merged",
            Counter::FleetUsers => "fleet_users",
            Counter::FleetSessions => "fleet_sessions",
            Counter::FleetPurchases => "fleet_purchases",
            Counter::FaultDrops => "fault_drops",
            Counter::FaultFailovers => "fault_failovers",
            Counter::ProbeBackoffs => "probe_backoffs",
            Counter::MeasurementsFailed => "measurements_failed",
            Counter::ServiceJobFires => "service_job_fires",
            Counter::ServiceCohortChurn => "service_cohort_churn",
            Counter::ServiceSinkFlushes => "service_sink_flushes",
            Counter::WorkerRestarts => "worker_restarts",
            Counter::WorkerRetries => "worker_retries",
            Counter::WorkerQuarantines => "worker_quarantines",
        }
    }
}

/// The histogram series the recorder keeps. Buckets are fixed at compile
/// time — the precondition for bit-identical merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Successful probe round-trip times, milliseconds.
    ProbeRttMs,
    /// Hops recorded per traceroute.
    TraceHops,
    /// Pending events in the walk calendar after a schedule.
    CalendarDepth,
}

impl Hist {
    /// Every series, in render order.
    pub const ALL: [Hist; 3] = [Hist::ProbeRttMs, Hist::TraceHops, Hist::CalendarDepth];

    /// Stable snake_case name used in the summary report.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Hist::ProbeRttMs => "probe_rtt_ms",
            Hist::TraceHops => "trace_hops",
            Hist::CalendarDepth => "calendar_depth",
        }
    }

    /// Inclusive upper bounds of the finite buckets; one overflow bucket
    /// follows implicitly.
    #[must_use]
    pub fn bounds(self) -> &'static [f64] {
        match self {
            Hist::ProbeRttMs => &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0, 800.0],
            Hist::TraceHops => &[2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0],
            Hist::CalendarDepth => &[1.0, 2.0, 4.0, 8.0, 16.0],
        }
    }
}

/// A fixed-bucket histogram: integer bucket counts plus a sum for mean
/// reporting. The sum is a float but stays deterministic because every
/// observation sequence that feeds it is shard-sequential and merges
/// happen in shard-key order.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    series: Hist,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// An empty histogram for `series`.
    #[must_use]
    pub fn new(series: Hist) -> Self {
        Histogram {
            series,
            counts: vec![0; series.bounds().len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// The series this histogram tracks.
    #[must_use]
    pub fn series(&self) -> Hist {
        self.series
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let bounds = self.series.bounds();
        let idx = bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Bucket counts, one per finite bound plus the overflow bucket.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Fold another histogram of the same series into this one.
    ///
    /// # Panics
    /// When the series differ — merging incompatible buckets would
    /// silently corrupt the report.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.series, other.series, "histogram series mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// What an [`Event`] is about.
#[derive(Debug, Clone, PartialEq)]
pub enum EventScope {
    /// A measurement flow, identified by its derived seed.
    Flow(u64),
    /// A campaign shard, identified by its stable key (`"device/PAK"`).
    Shard(String),
}

/// One structured telemetry event — a JSONL line in `jsonl` mode.
///
/// `at_ns` is sim-time (the completion time of the observation inside its
/// flow's walk), never wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Sim-time anchor in nanoseconds (0 for events with no clock).
    pub at_ns: u64,
    /// The flow or shard this event belongs to.
    pub scope: EventScope,
    /// Event kind (`"rtt"`, `"traceroute"`, `"measurement"`, `"shard"`).
    pub kind: &'static str,
    /// Free-form detail: measurement label, shard key…
    pub label: String,
    /// Primary value (RTT ms, hop count, merge index…), when meaningful.
    pub value: Option<f64>,
    /// Attempt count, when meaningful.
    pub attempts: Option<u32>,
}

impl Event {
    /// Render the event as one JSON object, stable field order.
    pub(crate) fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str("{\"ev\":\"");
        out.push_str(self.kind);
        out.push('"');
        match &self.scope {
            EventScope::Flow(id) => {
                let _ = write!(out, ",\"flow\":\"{id:#018x}\"");
            }
            EventScope::Shard(key) => {
                let _ = write!(out, ",\"shard\":\"{}\"", escape_json(key));
            }
        }
        let _ = write!(out, ",\"label\":\"{}\"", escape_json(&self.label));
        if self.at_ns != 0 {
            let _ = write!(out, ",\"at_ns\":{}", self.at_ns);
        }
        if let Some(v) = self.value {
            if v.is_finite() {
                let _ = write!(out, ",\"value\":{v}");
            } else {
                out.push_str(",\"value\":null");
            }
        }
        if let Some(a) = self.attempts {
            let _ = write!(out, ",\"attempts\":{a}");
        }
        out.push('}');
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One packet-level record — the simulator's pcap line, kept as plain
/// integers so the telemetry crate needs no knowledge of netsim's types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRecord {
    /// Sim-time of the event, nanoseconds.
    pub at_ns: u64,
    /// Node index where it happened.
    pub node: u32,
    /// Kind code (the network layer owns the mapping).
    pub code: u8,
    /// Kind argument (e.g. remaining TTL for a forward).
    pub arg: u8,
}

/// Everything one recorder accumulated: the unit of cross-shard merging.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Counter values, indexed by [`Counter`] discriminant.
    pub counters: [u64; Counter::ALL.len()],
    /// Histograms, indexed by [`Hist`] discriminant.
    pub hists: Vec<Histogram>,
    /// Structured events in recording order.
    pub events: Vec<Event>,
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        TelemetrySnapshot {
            counters: [0; Counter::ALL.len()],
            hists: Hist::ALL.iter().map(|&h| Histogram::new(h)).collect(),
            events: Vec::new(),
        }
    }
}

/// The concrete recorder a [`Network`](../../roam_netsim/net/struct.Network.html)
/// (and everything above it) writes into.
///
/// The mode gates accumulation: `Off` makes every method a single branch.
/// Packet tracing is a separate switch — the packet story is opt-in per
/// network because it records per hop, and it must work even with the
/// campaign-level mode off (that is how `Network::enable_tracing` keeps
/// its pre-telemetry behaviour).
#[derive(Debug, Clone)]
pub struct Recorder {
    mode: TelemetryMode,
    trace_packets: bool,
    snap: TelemetrySnapshot,
    packets: Vec<PacketRecord>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::off()
    }
}

impl Recorder {
    /// A disabled recorder — the zero-cost default.
    #[must_use]
    pub fn off() -> Self {
        Recorder::new(TelemetryMode::Off)
    }

    /// A recorder in the given mode.
    #[must_use]
    pub fn new(mode: TelemetryMode) -> Self {
        Recorder {
            mode,
            trace_packets: false,
            snap: TelemetrySnapshot::default(),
            packets: Vec::new(),
        }
    }

    /// The current mode.
    #[must_use]
    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Switch modes in place (accumulated data is kept).
    pub fn set_mode(&mut self, mode: TelemetryMode) {
        self.mode = mode;
    }

    /// Should call sites bother constructing events?
    #[must_use]
    pub fn wants_events(&self) -> bool {
        self.mode.wants_events()
    }

    /// Start (or restart) the packet story. Previously captured packet
    /// records are discarded; counters and histograms are untouched.
    pub fn enable_packet_trace(&mut self) {
        self.trace_packets = true;
        self.packets.clear();
    }

    /// The packet story captured so far. Unlike the pre-telemetry
    /// consume-once buffer, reading does not erase it.
    #[must_use]
    pub fn packet_records(&self) -> &[PacketRecord] {
        &self.packets
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        if self.mode.enabled() {
            self.snap.counters[c as usize] += n;
        }
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&mut self, h: Hist, value: f64) {
        if self.mode.enabled() {
            self.snap.hists[h as usize].observe(value);
        }
    }

    /// Record a structured event.
    #[inline]
    pub fn push_event(&mut self, ev: Event) {
        if self.mode.wants_events() {
            self.snap.events.push(ev);
        }
    }

    /// Is anything being recorded?
    #[inline]
    #[must_use]
    pub fn active(&self) -> bool {
        self.mode.enabled() || self.trace_packets
    }

    /// Record one packet-level event (no-op unless tracing is enabled).
    #[inline]
    pub fn packet(&mut self, at_ns: u64, node: u32, code: u8, arg: u8) {
        if self.trace_packets {
            self.packets.push(PacketRecord {
                at_ns,
                node,
                code,
                arg,
            });
        }
    }

    /// Drain the accumulated counters, histograms and events into a
    /// snapshot, leaving the recorder empty (mode and packet story are
    /// kept). This is the shard hand-off point.
    pub fn take(&mut self) -> TelemetrySnapshot {
        std::mem::take(&mut self.snap)
    }

    /// The state accumulated so far, without draining it — what the
    /// checkpoint layer serializes mid-run while the recorder keeps
    /// accumulating.
    #[must_use]
    pub fn snapshot(&self) -> &TelemetrySnapshot {
        &self.snap
    }

    /// Replace the recorder's accumulated state with `snap` — the resume
    /// half of checkpointing. The histogram `sum` fields are plain `f64`
    /// accumulated sequentially, so bit-identical resumed reports require
    /// *continuing* the original accumulation order from its exact state;
    /// restoring the snapshot and appending achieves that, where merging
    /// a restored snapshot with a separately-accumulated partial would
    /// not (float addition is not associative).
    pub fn restore(&mut self, snap: TelemetrySnapshot) {
        self.snap = snap;
    }
}

// ---------------------------------------------------------------------
// Wire form: snapshots checkpoint to disk and cross worker pipes in the
// roam-codec field format. Everything round-trips verbatim — counters,
// bucket vectors, the sequentially-accumulated float sums (as exact bit
// patterns) and the full event stream — so a restored snapshot is
// indistinguishable from the one that was taken.
// ---------------------------------------------------------------------

use roam_codec::{CodecError, Decoder, Encoder};

/// Event kinds this build can decode. `Event::kind` is a `&'static str`,
/// so decoding maps wire text back through this table instead of leaking
/// arbitrary strings; an unknown kind is a schema-drift error, caught
/// loudly.
const KNOWN_KINDS: [&str; 5] = ["rtt", "traceroute", "measurement", "plan", "shard"];

fn intern_kind(s: &str) -> Result<&'static str, CodecError> {
    KNOWN_KINDS
        .iter()
        .find(|k| **k == s)
        .copied()
        .ok_or(CodecError::BadValue("event kind"))
}

/// Field tags for [`TelemetrySnapshot`] and its parts (DESIGN.md §11).
mod snap_tag {
    pub const COUNTER: u32 = 1; // repeated u64, Counter::ALL order
    pub const HIST: u32 = 2; // repeated section, Hist::ALL order
    pub const EVENT: u32 = 3; // repeated section, recording order

    pub const HIST_SERIES: u32 = 1; // u64, Hist discriminant
    pub const HIST_BUCKET: u32 = 2; // repeated u64
    pub const HIST_COUNT: u32 = 3; // u64
    pub const HIST_SUM: u32 = 4; // f64 (exact bits)

    pub const EV_AT_NS: u32 = 1; // u64
    pub const EV_FLOW: u32 = 2; // u64 (scope, exclusive with EV_SHARD)
    pub const EV_SHARD: u32 = 3; // str (scope, exclusive with EV_FLOW)
    pub const EV_KIND: u32 = 4; // str, one of KNOWN_KINDS
    pub const EV_LABEL: u32 = 5; // str
    pub const EV_VALUE: u32 = 6; // f64, optional
    pub const EV_ATTEMPTS: u32 = 7; // u64, optional
}

impl Histogram {
    fn encode_fields(&self, e: &mut Encoder) {
        e.u64(snap_tag::HIST_SERIES, self.series as u64);
        for &c in &self.counts {
            e.u64(snap_tag::HIST_BUCKET, c);
        }
        e.u64(snap_tag::HIST_COUNT, self.count);
        e.f64(snap_tag::HIST_SUM, self.sum);
    }

    fn decode_fields(d: &mut Decoder) -> Result<Self, CodecError> {
        let mut series = None;
        let mut counts = Vec::new();
        let mut count = None;
        let mut sum = None;
        while let Some((tag, v)) = d.next_field()? {
            match tag {
                snap_tag::HIST_SERIES => {
                    let idx = v.as_u64(tag)?;
                    series = Some(
                        *Hist::ALL
                            .get(idx as usize)
                            .ok_or(CodecError::BadValue("histogram series"))?,
                    );
                }
                snap_tag::HIST_BUCKET => counts.push(v.as_u64(tag)?),
                snap_tag::HIST_COUNT => count = Some(v.as_u64(tag)?),
                snap_tag::HIST_SUM => sum = Some(v.as_f64(tag)?),
                _ => {}
            }
        }
        let series = series.ok_or(CodecError::MissingField("histogram series"))?;
        if counts.len() != series.bounds().len() + 1 {
            return Err(CodecError::BadValue("histogram bucket count"));
        }
        Ok(Histogram {
            series,
            counts,
            count: count.ok_or(CodecError::MissingField("histogram count"))?,
            sum: sum.ok_or(CodecError::MissingField("histogram sum"))?,
        })
    }
}

impl Event {
    fn encode_fields(&self, e: &mut Encoder) {
        e.u64(snap_tag::EV_AT_NS, self.at_ns);
        match &self.scope {
            EventScope::Flow(id) => e.u64(snap_tag::EV_FLOW, *id),
            EventScope::Shard(key) => e.str(snap_tag::EV_SHARD, key),
        }
        e.str(snap_tag::EV_KIND, self.kind);
        e.str(snap_tag::EV_LABEL, &self.label);
        if let Some(v) = self.value {
            e.f64(snap_tag::EV_VALUE, v);
        }
        if let Some(a) = self.attempts {
            e.u64(snap_tag::EV_ATTEMPTS, u64::from(a));
        }
    }

    fn decode_fields(d: &mut Decoder) -> Result<Self, CodecError> {
        let mut at_ns = None;
        let mut scope = None;
        let mut kind = None;
        let mut label = None;
        let mut value = None;
        let mut attempts = None;
        while let Some((tag, v)) = d.next_field()? {
            match tag {
                snap_tag::EV_AT_NS => at_ns = Some(v.as_u64(tag)?),
                snap_tag::EV_FLOW => scope = Some(EventScope::Flow(v.as_u64(tag)?)),
                snap_tag::EV_SHARD => scope = Some(EventScope::Shard(v.as_str(tag)?.to_string())),
                snap_tag::EV_KIND => kind = Some(intern_kind(v.as_str(tag)?)?),
                snap_tag::EV_LABEL => label = Some(v.as_str(tag)?.to_string()),
                snap_tag::EV_VALUE => value = Some(v.as_f64(tag)?),
                snap_tag::EV_ATTEMPTS => {
                    attempts = Some(
                        u32::try_from(v.as_u64(tag)?)
                            .map_err(|_| CodecError::BadValue("event attempts"))?,
                    );
                }
                _ => {}
            }
        }
        Ok(Event {
            at_ns: at_ns.ok_or(CodecError::MissingField("event at_ns"))?,
            scope: scope.ok_or(CodecError::MissingField("event scope"))?,
            kind: kind.ok_or(CodecError::MissingField("event kind"))?,
            label: label.ok_or(CodecError::MissingField("event label"))?,
            value,
            attempts,
        })
    }
}

impl TelemetrySnapshot {
    /// Write the snapshot's fields into `e` (no frame, no section — the
    /// caller chooses the envelope).
    pub fn encode_fields(&self, e: &mut Encoder) {
        for &c in &self.counters {
            e.u64(snap_tag::COUNTER, c);
        }
        for h in &self.hists {
            e.section(snap_tag::HIST, |s| h.encode_fields(s));
        }
        for ev in &self.events {
            e.section(snap_tag::EVENT, |s| ev.encode_fields(s));
        }
    }

    /// Rebuild a snapshot from fields written by
    /// [`TelemetrySnapshot::encode_fields`]. Counter and histogram
    /// cardinality must match this build exactly — a snapshot from a
    /// build with different observables is stale, not mergeable.
    pub fn decode_fields(d: &mut Decoder) -> Result<Self, CodecError> {
        let mut counters = Vec::new();
        let mut hists = Vec::new();
        let mut events = Vec::new();
        while let Some((tag, v)) = d.next_field()? {
            match tag {
                snap_tag::COUNTER => counters.push(v.as_u64(tag)?),
                snap_tag::HIST => {
                    let mut s = v.as_section(tag)?;
                    hists.push(Histogram::decode_fields(&mut s)?);
                }
                snap_tag::EVENT => {
                    let mut s = v.as_section(tag)?;
                    events.push(Event::decode_fields(&mut s)?);
                }
                _ => {}
            }
        }
        let counters: [u64; Counter::ALL.len()] = counters
            .try_into()
            .map_err(|_| CodecError::BadValue("counter cardinality"))?;
        if hists.len() != Hist::ALL.len()
            || hists
                .iter()
                .zip(Hist::ALL.iter())
                .any(|(h, &want)| h.series != want)
        {
            return Err(CodecError::BadValue("histogram cardinality"));
        }
        Ok(TelemetrySnapshot {
            counters,
            hists,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_only_when_enabled() {
        let mut off = Recorder::off();
        off.add(Counter::PacketsSent, 3);
        assert_eq!(off.take().counters[Counter::PacketsSent as usize], 0);

        let mut on = Recorder::new(TelemetryMode::Summary);
        on.add(Counter::PacketsSent, 3);
        on.add(Counter::PacketsSent, 2);
        assert_eq!(on.take().counters[Counter::PacketsSent as usize], 5);
    }

    #[test]
    fn histogram_buckets_and_merge() {
        let mut a = Histogram::new(Hist::ProbeRttMs);
        a.observe(0.5);
        a.observe(7.0);
        a.observe(5000.0); // overflow bucket
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets()[0], 1);
        assert_eq!(a.buckets()[3], 1); // (5, 10]
        assert_eq!(*a.buckets().last().unwrap(), 1);

        let mut b = Histogram::new(Hist::ProbeRttMs);
        b.observe(7.5);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.buckets()[3], 2);
        assert!((a.sum() - (0.5 + 7.0 + 5000.0 + 7.5)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "series mismatch")]
    fn merging_different_series_panics() {
        let mut a = Histogram::new(Hist::ProbeRttMs);
        a.merge(&Histogram::new(Hist::TraceHops));
    }

    #[test]
    fn events_only_in_jsonl_mode() {
        let ev = Event {
            at_ns: 0,
            scope: EventScope::Flow(7),
            kind: "rtt",
            label: "ookla/0".into(),
            value: Some(12.5),
            attempts: Some(1),
        };
        let mut summary = Recorder::new(TelemetryMode::Summary);
        summary.push_event(ev.clone());
        assert!(summary.take().events.is_empty());

        let mut jsonl = Recorder::new(TelemetryMode::Jsonl);
        jsonl.push_event(ev);
        assert_eq!(jsonl.take().events.len(), 1);
    }

    #[test]
    fn event_json_is_stable_and_escaped() {
        let mut out = String::new();
        Event {
            at_ns: 42,
            scope: EventScope::Shard("device/\"X\"".into()),
            kind: "shard",
            label: "a,b".into(),
            value: Some(1.0),
            attempts: None,
        }
        .write_json(&mut out);
        assert_eq!(
            out,
            "{\"ev\":\"shard\",\"shard\":\"device/\\\"X\\\"\",\"label\":\"a,b\",\
             \"at_ns\":42,\"value\":1}"
        );
        let mut flow = String::new();
        Event {
            at_ns: 0,
            scope: EventScope::Flow(0xABCD),
            kind: "rtt",
            label: String::new(),
            value: Some(f64::INFINITY),
            attempts: Some(3),
        }
        .write_json(&mut flow);
        assert!(flow.contains("\"flow\":\"0x000000000000abcd\""));
        assert!(flow.contains("\"value\":null"));
        assert!(flow.contains("\"attempts\":3"));
    }

    #[test]
    fn packet_trace_is_repeatable_not_consume_once() {
        let mut r = Recorder::off();
        r.packet(1, 0, 0, 0); // tracing not enabled: dropped
        assert!(r.packet_records().is_empty());
        r.enable_packet_trace();
        r.packet(1, 0, 0, 0);
        r.packet(2, 1, 1, 63);
        assert_eq!(r.packet_records().len(), 2);
        // Reading again sees the same story.
        assert_eq!(r.packet_records().len(), 2);
        // Re-enabling restarts it.
        r.enable_packet_trace();
        assert!(r.packet_records().is_empty());
    }

    #[test]
    fn take_resets_but_keeps_mode() {
        let mut r = Recorder::new(TelemetryMode::Summary);
        r.add(Counter::FlowsOpened, 1);
        r.observe(Hist::ProbeRttMs, 3.0);
        let snap = r.take();
        assert_eq!(snap.counters[Counter::FlowsOpened as usize], 1);
        assert_eq!(snap.hists[Hist::ProbeRttMs as usize].count(), 1);
        let empty = r.take();
        assert_eq!(empty.counters[Counter::FlowsOpened as usize], 0);
        assert_eq!(r.mode(), TelemetryMode::Summary);
    }

    fn busy_snapshot() -> TelemetrySnapshot {
        let mut r = Recorder::new(TelemetryMode::Jsonl);
        r.add(Counter::PacketsSent, 41);
        r.add(Counter::FleetUsers, 7);
        r.observe(Hist::ProbeRttMs, 12.5);
        r.observe(Hist::ProbeRttMs, 0.25);
        r.observe(Hist::TraceHops, 9.0);
        r.push_event(Event {
            at_ns: 77,
            scope: EventScope::Flow(0xFEED),
            kind: "rtt",
            label: "fleet/u1/l0/s2".into(),
            value: Some(12.5),
            attempts: Some(2),
        });
        r.push_event(Event {
            at_ns: 0,
            scope: EventScope::Shard("fleet/003".into()),
            kind: "shard",
            label: "merge".into(),
            value: Some(f64::NAN),
            attempts: None,
        });
        r.take()
    }

    #[test]
    fn snapshot_round_trips_through_the_codec() {
        for snap in [TelemetrySnapshot::default(), busy_snapshot()] {
            let mut e = Encoder::new();
            snap.encode_fields(&mut e);
            let bytes = e.into_bytes();
            let back = TelemetrySnapshot::decode_fields(&mut Decoder::new(&bytes))
                .expect("clean round trip");
            // NaN != NaN under PartialEq, so compare the float bits.
            assert_eq!(back.counters, snap.counters);
            assert_eq!(back.hists.len(), snap.hists.len());
            for (a, b) in back.hists.iter().zip(&snap.hists) {
                assert_eq!(a.series, b.series);
                assert_eq!(a.counts, b.counts);
                assert_eq!(a.count, b.count);
                assert_eq!(a.sum.to_bits(), b.sum.to_bits());
            }
            assert_eq!(back.events.len(), snap.events.len());
            for (a, b) in back.events.iter().zip(&snap.events) {
                assert_eq!((a.at_ns, &a.scope, a.kind), (b.at_ns, &b.scope, b.kind));
                assert_eq!(a.label, b.label);
                assert_eq!(a.value.map(f64::to_bits), b.value.map(f64::to_bits));
                assert_eq!(a.attempts, b.attempts);
            }
        }
    }

    #[test]
    fn snapshot_decode_rejects_foreign_cardinalities() {
        let mut e = Encoder::new();
        busy_snapshot().encode_fields(&mut e);
        let mut extra = e.into_bytes();
        // Append one more counter field: cardinality no longer matches.
        let mut tail = Encoder::new();
        tail.u64(snap_tag::COUNTER, 1);
        extra.extend_from_slice(&tail.into_bytes());
        assert_eq!(
            TelemetrySnapshot::decode_fields(&mut Decoder::new(&extra)).unwrap_err(),
            CodecError::BadValue("counter cardinality")
        );
    }

    #[test]
    fn unknown_event_kinds_fail_loudly() {
        let mut snap = Encoder::new();
        snap.section(snap_tag::EVENT, |s| {
            s.u64(snap_tag::EV_AT_NS, 1);
            s.u64(snap_tag::EV_FLOW, 2);
            s.str(snap_tag::EV_KIND, "from-the-future");
            s.str(snap_tag::EV_LABEL, "x");
        });
        let bytes = snap.into_bytes();
        assert_eq!(
            TelemetrySnapshot::decode_fields(&mut Decoder::new(&bytes)).unwrap_err(),
            CodecError::BadValue("event kind")
        );
    }

    #[test]
    fn restore_continues_accumulation_in_place() {
        let mut r = Recorder::new(TelemetryMode::Summary);
        r.add(Counter::FlowsOpened, 2);
        r.observe(Hist::ProbeRttMs, 1.5);
        let checkpoint = r.take();

        let mut resumed = Recorder::new(TelemetryMode::Summary);
        resumed.restore(checkpoint);
        resumed.add(Counter::FlowsOpened, 1);
        resumed.observe(Hist::ProbeRttMs, 2.5);

        let mut straight = Recorder::new(TelemetryMode::Summary);
        straight.add(Counter::FlowsOpened, 2);
        straight.observe(Hist::ProbeRttMs, 1.5);
        straight.add(Counter::FlowsOpened, 1);
        straight.observe(Hist::ProbeRttMs, 2.5);

        assert_eq!(resumed.take(), straight.take());
    }
}
