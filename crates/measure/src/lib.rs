//! Measurement clients and campaign orchestration.
//!
//! This crate is the simulator's counterpart of the paper's tooling stack —
//! the AmiGo-instrumented rooted Androids of the device campaign and the
//! JavaScript battery of the web campaign:
//!
//! | paper tool                | module        | observable                          |
//! |---------------------------|---------------|-------------------------------------|
//! | `mtr` to Google/FB/YT     | [`trace`]     | per-hop IP + RTT, path analysis     |
//! | Ookla speedtest           | [`speedtest`] | down/up Mbps + latency              |
//! | fast.com in an iframe     | [`webtest`]   | downlink + latency (web campaign)   |
//! | `curl` of jquery.min.js   | [`cdn`]       | download time, DNS time, HIT/MISS   |
//! | NextDNS resolver check    | [`dns`]       | resolver identity + lookup time     |
//! | YouTube stats-for-nerds   | [`video`]     | playback resolution, rebuffering    |
//!
//! [`endpoint::Endpoint`] bundles an attachment with the policy and channel
//! context a measurement needs; [`campaign`] drives the full device-based
//! and web-based campaigns with per-country sample counts mirroring
//! Tables 3 and 4. [`parallel`] is the deterministic shard runner the
//! campaign harness uses to spread per-country shards across worker
//! threads while keeping seeded output bit-identical to a sequential run.

pub mod campaign;
pub mod cdn;
pub mod dns;
pub mod endpoint;
pub mod error;
pub mod export;
pub mod parallel;
pub mod speedtest;
pub mod suite;
pub mod targets;
pub mod trace;
pub mod video;
pub mod voip;
pub mod webtest;

pub use campaign::{
    run_device_campaign, run_measurement, run_web_measurement, CampaignData, CdnRecord,
    DegradationSummary, DeviceCampaignSpec, DnsRecord, PlannedMeasurement, SpeedtestRecord,
    TraceRecord, VideoRecord, WebRecord,
};
pub use cdn::{fetch_jquery_checked, CdnProvider, CdnResult};
pub use dns::{resolve_checked, resolve_timing, DnsResult, DnsTiming, ResolverPlan};
pub use endpoint::{Endpoint, Probe, ProbeRtt};
pub use error::{MeasureError, MeasureStatus};
pub use export::{
    status_code, tag_cells, CellValue, ColumnarSink, DataSink, Dataset, Exporter, MemorySink,
    SharedSink, VoipRecord, STATUS_LABELS,
};
pub use parallel::{run_shards, RunMode, ShardTiming};
pub use speedtest::{ookla_speedtest_checked, SpeedtestResult};
pub use suite::measurement_suite;
pub use targets::{Service, ServiceTargets};
pub use trace::{mtr, TraceOutcome};
pub use video::{play_youtube_checked, Resolution, VideoResult};
pub use voip::{voip_probe, VoipResult};
