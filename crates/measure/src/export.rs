//! Dataset export: one row walk, many sinks.
//!
//! The paper's artifacts are per-measurement datasets ("our approach
//! compiles a dataset for each traceroute, detailing path length, PGW
//! provider, private and public hop counts…", §4.3). Each [`Dataset`]
//! has a typed schema ([`Dataset::schema`]); record containers flatten
//! themselves **once** into [`CellValue`] rows, and a [`DataSink`]
//! decides what those rows become:
//!
//! * `String` — the CSV thin view: rows append in the historical CSV
//!   dialect (quote-on-demand free text, fixed float precision, empty
//!   fields for null/non-finite), byte-identical to the pre-sink
//!   exporter;
//! * [`MemorySink`] — buffered CSV tables with headers, the backing of
//!   [`Exporter::export_all`];
//! * [`ColumnarSink`] — `roam-columnar` tables: typed column pages
//!   with null bitmaps, sealable into integrity-hashed frames and
//!   queryable without re-parsing.
//!
//! The API surface is the [`Exporter`] trait over the [`Dataset`]
//! enum: `data.export(Dataset::Speedtests)` names a table,
//! `datasets()` lists what a container can emit, and every table is
//! discoverable through [`Dataset::ALL`].

use crate::campaign::{CampaignData, RecordTag};
use crate::error::MeasureStatus;
use crate::voip::VoipResult;
use roam_columnar::csv::push_value;
use roam_columnar::{field, ColKind, Schema, Table, TableBuilder};
use std::sync::OnceLock;

pub use roam_columnar::CellValue;

/// Status labels in wire-code order ([`status_code`] indexes into it).
pub const STATUS_LABELS: [&str; 4] = ["ok", "failover", "timeout", "unreachable"];

/// Boolean column labels (`code = b as u8`).
pub(crate) const BOOL_LABELS: [&str; 2] = ["false", "true"];

/// Enum code of a measurement status, in [`STATUS_LABELS`] order.
#[must_use]
pub fn status_code(s: MeasureStatus) -> u8 {
    match s {
        MeasureStatus::Ok => 0,
        MeasureStatus::Failover => 1,
        MeasureStatus::Timeout => 2,
        MeasureStatus::Unreachable => 3,
    }
}

fn sim_code(s: roam_cellular::SimType) -> u8 {
    match s {
        roam_cellular::SimType::Physical => 0,
        roam_cellular::SimType::Esim => 1,
    }
}

fn arch_code(a: roam_ipx::RoamingArch) -> u8 {
    match a {
        roam_ipx::RoamingArch::Native => 0,
        roam_ipx::RoamingArch::HomeRouted => 1,
        roam_ipx::RoamingArch::LocalBreakout => 2,
        roam_ipx::RoamingArch::IpxHubBreakout => 3,
    }
}

fn rat_code(r: roam_cellular::Rat) -> u8 {
    match r {
        roam_cellular::Rat::Lte => 0,
        roam_cellular::Rat::Nr5g => 1,
    }
}

/// The shared `country,sim,arch,rat` cell prefix.
#[must_use]
pub fn tag_cells(tag: &RecordTag) -> [CellValue<'static>; 4] {
    [
        CellValue::Str(Some(tag.country.alpha3())),
        CellValue::Code(sim_code(tag.sim_type)),
        CellValue::Code(arch_code(tag.arch)),
        CellValue::Code(rat_code(tag.rat)),
    ]
}

/// One of the flat tables a campaign can emit — the paper's
/// per-measurement datasets, one variant per table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Ookla speedtests.
    Speedtests,
    /// Traceroutes with the §4.3 path decomposition.
    Traces,
    /// CDN object fetches.
    Cdn,
    /// DNS lookups.
    Dns,
    /// Video playback sessions.
    Videos,
    /// Scored VoIP probe bursts.
    Voip,
    /// Fleet-plane user sessions (emitted by `roam-fleet`'s sink hook).
    Sessions,
}

impl Dataset {
    /// Every dataset, in the stable order exports are enumerated in.
    pub const ALL: [Dataset; 7] = [
        Dataset::Speedtests,
        Dataset::Traces,
        Dataset::Cdn,
        Dataset::Dns,
        Dataset::Videos,
        Dataset::Voip,
        Dataset::Sessions,
    ];

    /// File-name stem for artifact directories (`speedtests.csv`, …).
    #[must_use]
    pub fn file_stem(self) -> &'static str {
        match self {
            Dataset::Speedtests => "speedtests",
            Dataset::Traces => "traces",
            Dataset::Cdn => "cdn",
            Dataset::Dns => "dns",
            Dataset::Videos => "videos",
            Dataset::Voip => "voip",
            Dataset::Sessions => "sessions",
        }
    }

    /// The table's CSV header row (no trailing newline). Column names
    /// equal the schema's field names in order (pinned by a test).
    #[must_use]
    pub fn header(self) -> &'static str {
        match self {
            Dataset::Speedtests => {
                "country,sim,arch,rat,down_mbps,up_mbps,latency_ms,attempts,cqi,status"
            }
            Dataset::Traces => {
                "country,sim,arch,rat,service,private_len,public_len,pgw_ip,pgw_asn,pgw_city,\
                 pgw_rtt_ms,final_rtt_ms,private_share,unique_asns,reached,status"
            }
            Dataset::Cdn => "country,sim,arch,rat,provider,total_ms,dns_ms,cache,status",
            Dataset::Dns => "country,sim,arch,rat,lookup_ms,attempts,resolver_city,doh,status",
            Dataset::Videos => "country,sim,arch,rat,resolution,rebuffered,status",
            Dataset::Voip => "country,sim,arch,rat,rtt_ms,jitter_ms,loss,r_factor,mos,status",
            Dataset::Sessions => "country,sim,arch,rat,kind,rtt_ms,lookup_ms,mb,status",
        }
    }

    /// The header row with its trailing newline, as an owned buffer ready
    /// to have rows appended — the start of every streamed export.
    #[must_use]
    pub fn header_csv(self) -> String {
        let mut out = String::with_capacity(self.header().len() + 1);
        out.push_str(self.header());
        out.push('\n');
        out
    }

    /// The dataset's typed column layout. Built once per process; field
    /// names match [`Dataset::header`] column for column.
    #[must_use]
    pub fn schema(self) -> &'static Schema {
        static SCHEMAS: OnceLock<[Schema; 7]> = OnceLock::new();
        let all = SCHEMAS.get_or_init(|| Dataset::ALL.map(build_schema));
        &all[self.index()]
    }

    fn index(self) -> usize {
        Dataset::ALL
            .iter()
            .position(|&d| d == self)
            .expect("dataset in ALL")
    }
}

fn build_schema(ds: Dataset) -> Schema {
    let status = || ColKind::enumeration(&STATUS_LABELS);
    let boolean = || ColKind::enumeration(&BOOL_LABELS);
    let f3 = ColKind::F64 { prec: 3 };
    let tag = |rest: Vec<roam_columnar::Field>| {
        let mut fields = vec![
            field("country", ColKind::Dict),
            field("sim", ColKind::enumeration(&["sim", "esim"])),
            field(
                "arch",
                ColKind::enumeration(&["Native", "HR", "LBO", "IHBO"]),
            ),
            field("rat", ColKind::enumeration(&["4G", "5G"])),
        ];
        fields.extend(rest);
        Schema::new(fields)
    };
    match ds {
        Dataset::Speedtests => tag(vec![
            field("down_mbps", f3.clone()),
            field("up_mbps", f3.clone()),
            field("latency_ms", f3.clone()),
            field("attempts", ColKind::U32),
            field("cqi", ColKind::U32),
            field("status", status()),
        ]),
        Dataset::Traces => tag(vec![
            field("service", ColKind::Dict),
            field("private_len", ColKind::U32),
            field("public_len", ColKind::U32),
            field("pgw_ip", ColKind::Ipv4),
            field("pgw_asn", ColKind::U32),
            field("pgw_city", ColKind::Dict),
            field("pgw_rtt_ms", f3.clone()),
            field("final_rtt_ms", f3.clone()),
            field("private_share", ColKind::F64 { prec: 4 }),
            field("unique_asns", ColKind::U32),
            field("reached", boolean()),
            field("status", status()),
        ]),
        Dataset::Cdn => tag(vec![
            field("provider", ColKind::Dict),
            field("total_ms", f3.clone()),
            field("dns_ms", f3.clone()),
            field("cache", ColKind::Dict),
            field("status", status()),
        ]),
        Dataset::Dns => tag(vec![
            field("lookup_ms", f3.clone()),
            field("attempts", ColKind::U32),
            field("resolver_city", ColKind::Dict),
            field("doh", boolean()),
            field("status", status()),
        ]),
        Dataset::Videos => tag(vec![
            field("resolution", ColKind::Dict),
            field("rebuffered", boolean()),
            field("status", status()),
        ]),
        Dataset::Voip => tag(vec![
            field("rtt_ms", f3.clone()),
            field("jitter_ms", f3.clone()),
            field("loss", ColKind::F64 { prec: 4 }),
            field("r_factor", ColKind::F64 { prec: 2 }),
            field("mos", ColKind::F64 { prec: 2 }),
            field("status", status()),
        ]),
        Dataset::Sessions => tag(vec![
            field("kind", ColKind::enumeration(&["rtt", "dns", "transfer"])),
            field("rtt_ms", f3.clone()),
            field("lookup_ms", f3.clone()),
            field("mb", f3),
            field("status", status()),
        ]),
    }
}

/// A sink shared between a runner and its caller: the runner streams
/// rows in while the caller keeps a handle to drain afterwards. The
/// `Mutex` serialises whole rows, so interleaving between datasets is
/// impossible; runners lock once per export walk, not per row.
pub type SharedSink = std::sync::Arc<std::sync::Mutex<dyn DataSink + Send>>;

/// Where exported rows land. One trait method, three stock
/// implementations:
///
/// * `String` — CSV rows append directly (no header), the thin view
///   every streamed CSV path writes through;
/// * [`MemorySink`] — per-dataset CSV tables with headers;
/// * [`ColumnarSink`] — per-dataset `roam-columnar` tables.
///
/// A sink receives rows in record order and must not reorder them:
/// every sink over the same walk sees the same deterministic stream.
pub trait DataSink {
    /// Accept one row of `ds`, cells in [`Dataset::schema`] order.
    fn row(&mut self, ds: Dataset, cells: &[CellValue<'_>]);
}

/// The CSV thin view: each row renders under the dataset schema's
/// kinds (dict quoting, float precision, empty null fields) straight
/// onto the buffer — byte-identical to the historical CSV emitters.
impl DataSink for String {
    fn row(&mut self, ds: Dataset, cells: &[CellValue<'_>]) {
        let fields = ds.schema().fields();
        debug_assert_eq!(fields.len(), cells.len(), "{ds:?} row arity");
        for (i, (f, cell)) in fields.iter().zip(cells).enumerate() {
            if i > 0 {
                self.push(',');
            }
            push_value(self, &f.kind, cell);
        }
        self.push('\n');
    }
}

/// Buffered CSV tables, one `header + rows` `String` per dataset.
/// Pre-registering datasets (see [`MemorySink::with_datasets`]) pins
/// the output order and yields header-only tables for empty datasets,
/// keeping artifact layouts uniform.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    tables: Vec<(Dataset, String)>,
}

impl MemorySink {
    /// An empty sink; tables appear as rows arrive, in first-row order.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink with `datasets` pre-registered as header-only tables.
    #[must_use]
    pub fn with_datasets(datasets: &[Dataset]) -> Self {
        MemorySink {
            tables: datasets.iter().map(|&ds| (ds, ds.header_csv())).collect(),
        }
    }

    /// The rendered table for `ds`, if any rows (or a registration)
    /// arrived.
    #[must_use]
    pub fn table(&self, ds: Dataset) -> Option<&str> {
        self.tables
            .iter()
            .find(|(d, _)| *d == ds)
            .map(|(_, t)| t.as_str())
    }

    /// All tables in registration/arrival order.
    #[must_use]
    pub fn into_tables(self) -> Vec<(Dataset, String)> {
        self.tables
    }
}

impl DataSink for MemorySink {
    fn row(&mut self, ds: Dataset, cells: &[CellValue<'_>]) {
        let table = match self.tables.iter().position(|(d, _)| *d == ds) {
            Some(i) => &mut self.tables[i].1,
            None => {
                self.tables.push((ds, ds.header_csv()));
                &mut self.tables.last_mut().expect("just pushed").1
            }
        };
        table.row(ds, cells);
    }
}

/// Columnar tables, one `roam-columnar` [`TableBuilder`] per dataset,
/// built straight from the row walk — no intermediate CSV.
#[derive(Debug, Clone, Default)]
pub struct ColumnarSink {
    builders: Vec<(Dataset, TableBuilder)>,
}

impl ColumnarSink {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish every builder, yielding immutable queryable tables in
    /// first-row order.
    #[must_use]
    pub fn into_tables(self) -> Vec<(Dataset, Table)> {
        self.builders
            .into_iter()
            .map(|(ds, b)| (ds, b.finish()))
            .collect()
    }

    /// Finish and return the single table for `ds`, if any rows arrived.
    #[must_use]
    pub fn into_table(self, ds: Dataset) -> Option<Table> {
        self.builders
            .into_iter()
            .find(|(d, _)| *d == ds)
            .map(|(_, b)| b.finish())
    }
}

impl DataSink for ColumnarSink {
    fn row(&mut self, ds: Dataset, cells: &[CellValue<'_>]) {
        let builder = match self.builders.iter().position(|(d, _)| *d == ds) {
            Some(i) => &mut self.builders[i].1,
            None => {
                self.builders
                    .push((ds, TableBuilder::new(ds.schema().clone())));
                &mut self.builders.last_mut().expect("just pushed").1
            }
        };
        builder.push_row(cells);
    }
}

/// Anything that can flatten (some of) its records into the canonical
/// datasets. The one export entry point: `data.export(Dataset::Speedtests)`.
///
/// The required method is the *streaming* half, [`Exporter::export_rows`]:
/// it walks records once and hands each row to the sink, so
/// population-scale callers (the fleet runner, chunked writers) can emit a
/// table incrementally — header once via [`Dataset::header_csv`], then rows
/// batch by batch — without ever materialising the whole table. A plain
/// `&mut String` is a CSV sink, so pre-redesign call sites stream
/// unchanged; `tests/prop_export_stream.rs` pins that buffered and
/// streamed spellings render identical bytes.
pub trait Exporter {
    /// The datasets this container actually holds records for.
    fn datasets(&self) -> &'static [Dataset];

    /// Walk this container's rows for `ds` (no header) into `sink`. A
    /// dataset outside [`Exporter::datasets`] emits nothing.
    fn export_rows(&self, ds: Dataset, sink: &mut dyn DataSink);

    /// The full CSV table for `ds`: header plus one row per record. A
    /// dataset outside [`Exporter::datasets`] yields the header alone, so
    /// artifact layouts stay uniform across container types.
    fn export(&self, ds: Dataset) -> String {
        let mut out = ds.header_csv();
        self.export_rows(ds, &mut out);
        out
    }

    /// Every held dataset with its rendered CSV table, in
    /// [`Exporter::datasets`] order — one row walk per dataset through
    /// the in-memory sink, the same code path streamed callers use.
    fn export_all(&self) -> Vec<(Dataset, String)> {
        let mut sink = MemorySink::with_datasets(self.datasets());
        for &ds in self.datasets() {
            self.export_rows(ds, &mut sink);
        }
        sink.into_tables()
    }

    /// Every held dataset as a columnar [`Table`], in
    /// [`Exporter::datasets`] order.
    fn export_tables(&self) -> Vec<(Dataset, Table)> {
        let mut sink = ColumnarSink::new();
        for &ds in self.datasets() {
            // Register even empty datasets so layouts stay uniform.
            sink.builders
                .push((ds, TableBuilder::new(ds.schema().clone())));
            self.export_rows(ds, &mut sink);
        }
        sink.into_tables()
    }
}

impl Exporter for CampaignData {
    fn datasets(&self) -> &'static [Dataset] {
        &[
            Dataset::Speedtests,
            Dataset::Traces,
            Dataset::Cdn,
            Dataset::Dns,
            Dataset::Videos,
        ]
    }

    fn export_rows(&self, ds: Dataset, sink: &mut dyn DataSink) {
        match ds {
            Dataset::Speedtests => speedtest_rows(self, sink),
            Dataset::Traces => trace_rows(self, sink),
            Dataset::Cdn => cdn_rows(self, sink),
            Dataset::Dns => dns_rows(self, sink),
            Dataset::Videos => video_rows(self, sink),
            // VoIP bursts live outside CampaignData (see [`VoipRecord`]);
            // session rows outside the campaign plane entirely.
            Dataset::Voip | Dataset::Sessions => {}
        }
    }
}

impl Exporter for [VoipRecord] {
    fn datasets(&self) -> &'static [Dataset] {
        &[Dataset::Voip]
    }

    fn export_rows(&self, ds: Dataset, sink: &mut dyn DataSink) {
        if ds == Dataset::Voip {
            voip_rows(self, sink);
        }
    }
}

fn speedtest_rows(data: &CampaignData, sink: &mut dyn DataSink) {
    for r in &data.speedtests {
        let [c, s, a, t] = tag_cells(&r.tag);
        sink.row(
            Dataset::Speedtests,
            &[
                c,
                s,
                a,
                t,
                CellValue::F64(Some(r.down_mbps)),
                CellValue::F64(Some(r.up_mbps)),
                CellValue::F64(Some(r.latency_ms)),
                CellValue::U32(Some(r.attempts)),
                CellValue::U32(r.cqi.map(|c| u32::from(c.value()))),
                CellValue::Code(status_code(r.status)),
            ],
        );
    }
}

fn trace_rows(data: &CampaignData, sink: &mut dyn DataSink) {
    for r in &data.traces {
        let [c, s, a, t] = tag_cells(&r.tag);
        let an = &r.analysis;
        sink.row(
            Dataset::Traces,
            &[
                c,
                s,
                a,
                t,
                CellValue::Str(Some(r.service.name())),
                CellValue::U32(Some(an.private_len as u32)),
                CellValue::U32(Some(an.public_len as u32)),
                CellValue::U32(an.pgw_ip.map(u32::from)),
                CellValue::U32(an.pgw_asn.map(|x| x.0)),
                CellValue::Str(an.pgw_city.map(|c| c.name())),
                CellValue::F64(an.pgw_rtt_ms),
                CellValue::F64(an.final_rtt_ms),
                CellValue::F64(an.private_share),
                CellValue::U32(Some(an.unique_public_asns as u32)),
                CellValue::Code(u8::from(an.reached)),
                CellValue::Code(status_code(r.status)),
            ],
        );
    }
}

fn cdn_rows(data: &CampaignData, sink: &mut dyn DataSink) {
    for r in &data.cdns {
        let [c, s, a, t] = tag_cells(&r.tag);
        let cache = if r.status.is_ok() {
            Some(if r.cache_hit { "HIT" } else { "MISS" })
        } else {
            None
        };
        sink.row(
            Dataset::Cdn,
            &[
                c,
                s,
                a,
                t,
                CellValue::Str(Some(r.provider.name())),
                CellValue::F64(Some(r.total_ms)),
                CellValue::F64(Some(r.dns_ms)),
                CellValue::Str(cache),
                CellValue::Code(status_code(r.status)),
            ],
        );
    }
}

fn dns_rows(data: &CampaignData, sink: &mut dyn DataSink) {
    for r in &data.dns {
        let [c, s, a, t] = tag_cells(&r.tag);
        sink.row(
            Dataset::Dns,
            &[
                c,
                s,
                a,
                t,
                CellValue::F64(Some(r.lookup_ms)),
                CellValue::U32(Some(r.attempts)),
                CellValue::Str(r.resolver_city.map(|c| c.name())),
                CellValue::Code(u8::from(r.doh)),
                CellValue::Code(status_code(r.status)),
            ],
        );
    }
}

fn video_rows(data: &CampaignData, sink: &mut dyn DataSink) {
    for r in &data.videos {
        let [c, s, a, t] = tag_cells(&r.tag);
        sink.row(
            Dataset::Videos,
            &[
                c,
                s,
                a,
                t,
                CellValue::Str(r.resolution.map(|res| res.label())),
                CellValue::Code(u8::from(r.rebuffered)),
                CellValue::Code(status_code(r.status)),
            ],
        );
    }
}

/// One scored VoIP probe burst with its context tag.
#[derive(Debug, Clone, Copy)]
pub struct VoipRecord {
    /// Context.
    pub tag: RecordTag,
    /// The burst's transport metrics and E-model score.
    pub result: VoipResult,
    /// How the burst ended.
    pub status: MeasureStatus,
}

/// Dead-path bursts report `rtt_ms = jitter_ms = ∞`; non-finite cells
/// render as empty CSV fields / columnar nulls, so the table stays
/// parseable.
fn voip_rows(records: &[VoipRecord], sink: &mut dyn DataSink) {
    for r in records {
        let [c, s, a, t] = tag_cells(&r.tag);
        let v = &r.result;
        sink.row(
            Dataset::Voip,
            &[
                c,
                s,
                a,
                t,
                CellValue::F64(Some(v.rtt_ms)),
                CellValue::F64(Some(v.jitter_ms)),
                CellValue::F64(Some(v.loss)),
                CellValue::F64(Some(v.r_factor)),
                CellValue::F64(Some(v.mos)),
                CellValue::Code(status_code(r.status)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CdnRecord, SpeedtestRecord, TraceRecord, VideoRecord};
    use crate::cdn::CdnProvider;
    use crate::targets::Service;
    use crate::video::Resolution;
    use roam_cellular::{Cqi, Rat, SimType};
    use roam_columnar::{render_csv, ColumnarSource, Query};
    use roam_core::PathAnalysis;
    use roam_geo::{City, Country};
    use roam_ipx::RoamingArch;

    fn tag() -> RecordTag {
        RecordTag {
            country: Country::PAK,
            sim_type: SimType::Esim,
            arch: RoamingArch::HomeRouted,
            rat: Rat::Lte,
        }
    }

    fn data() -> CampaignData {
        let mut d = CampaignData::default();
        d.speedtests.push(SpeedtestRecord {
            tag: tag(),
            down_mbps: 6.25,
            up_mbps: 1.5,
            latency_ms: 361.2,
            attempts: 2,
            cqi: Some(Cqi::new(11)),
            status: MeasureStatus::Ok,
        });
        d.traces.push(TraceRecord {
            tag: tag(),
            service: Service::Google,
            analysis: PathAnalysis {
                private_len: 8,
                public_len: 3,
                pgw_ip: Some("202.166.126.3".parse().unwrap()),
                pgw_asn: Some(roam_netsim::Asn(45143)),
                pgw_city: Some(City::Singapore),
                pgw_rtt_ms: Some(355.1),
                final_rtt_ms: Some(361.0),
                private_share: Some(0.9835),
                unique_public_asns: 2,
                reached: true,
            },
            status: MeasureStatus::Ok,
        });
        d.cdns.push(CdnRecord {
            tag: tag(),
            provider: CdnProvider::Cloudflare,
            total_ms: 3111.0,
            dns_ms: 390.0,
            cache_hit: true,
            status: MeasureStatus::Ok,
        });
        d.dns.push(crate::campaign::DnsRecord {
            tag: tag(),
            lookup_ms: 391.5,
            attempts: 1,
            resolver_city: Some(City::Singapore),
            doh: false,
            status: MeasureStatus::Ok,
        });
        d.videos.push(VideoRecord {
            tag: tag(),
            resolution: Some(Resolution::P720),
            rebuffered: false,
            status: MeasureStatus::Ok,
        });
        d
    }

    #[test]
    fn every_export_has_header_plus_rows() {
        let d = data();
        for (ds, csv) in d.export_all() {
            assert_eq!(csv.lines().count(), 2, "{ds:?}: {csv}");
            assert_eq!(csv.lines().next().unwrap(), ds.header());
            let header_cols = ds.header().split(',').count();
            for line in csv.lines().skip(1) {
                assert_eq!(line.split(',').count(), header_cols, "ragged row: {line}");
            }
        }
    }

    #[test]
    fn campaign_data_holds_five_of_the_seven_datasets() {
        let d = data();
        assert_eq!(d.datasets().len(), 5);
        assert!(!d.datasets().contains(&Dataset::Voip));
        assert!(!d.datasets().contains(&Dataset::Sessions));
        // Asking anyway yields the uniform header-only table.
        assert_eq!(
            d.export(Dataset::Voip),
            format!("{}\n", Dataset::Voip.header())
        );
        assert_eq!(Dataset::ALL.len(), 7);
        assert_eq!(Dataset::Voip.file_stem(), "voip");
        assert_eq!(Dataset::Sessions.file_stem(), "sessions");
    }

    #[test]
    fn schema_names_match_headers_for_every_dataset() {
        for ds in Dataset::ALL {
            let names: Vec<&str> = ds
                .schema()
                .fields()
                .iter()
                .map(|f| f.name.as_str())
                .collect();
            let header: Vec<&str> = ds.header().split(',').collect();
            assert_eq!(names, header, "{ds:?}");
        }
    }

    #[test]
    fn string_sink_memory_sink_and_buffered_export_agree() {
        let d = data();
        let mut sink = MemorySink::with_datasets(d.datasets());
        for &ds in d.datasets() {
            d.export_rows(ds, &mut sink);
        }
        for &ds in d.datasets() {
            assert_eq!(sink.table(ds), Some(d.export(ds).as_str()), "{ds:?}");
        }
    }

    #[test]
    fn columnar_sink_renders_the_same_bytes_as_csv() {
        let d = data();
        for (ds, table) in d.export_tables() {
            let mut csv = ds.header_csv();
            render_csv(&table, &mut csv);
            assert_eq!(csv, d.export(ds), "{ds:?}");
        }
    }

    #[test]
    fn columnar_tables_are_queryable() {
        let d = data();
        let table = d
            .export_tables()
            .into_iter()
            .find(|(ds, _)| *ds == Dataset::Speedtests)
            .map(|(_, t)| t)
            .unwrap();
        assert_eq!(table.rows(), 1);
        assert_eq!(
            Query::new(&table).eq("country", "PAK").values("down_mbps"),
            vec![6.25]
        );
        assert_eq!(table.schema(), Dataset::Speedtests.schema());
    }

    #[test]
    fn trace_row_carries_the_papers_columns() {
        let csv = data().export(Dataset::Traces);
        let row = csv.lines().nth(1).unwrap();
        assert!(row.starts_with("PAK,esim,HR,4G,"));
        assert!(row.contains("202.166.126.3"));
        assert!(row.contains("45143"));
        assert!(row.contains("Singapore"));
        assert!(row.contains("0.9835"));
    }

    #[test]
    fn non_finite_floats_export_as_empty_fields() {
        // Regression: a dead-path VoIP burst reports rtt = jitter = ∞; the
        // CSV must emit empty fields, not "inf".
        let rec = VoipRecord {
            tag: tag(),
            result: crate::voip::VoipResult {
                rtt_ms: f64::INFINITY,
                jitter_ms: f64::INFINITY,
                loss: 1.0,
                r_factor: 0.0,
                mos: 1.0,
            },
            status: MeasureStatus::Timeout,
        };
        let csv = [rec].export(Dataset::Voip);
        assert!(!csv.contains("inf"), "non-finite leaked: {csv}");
        let row = csv.lines().nth(1).unwrap();
        assert_eq!(row, "PAK,esim,HR,4G,,,1.0000,0.00,1.00,timeout");
        let header_cols = csv.lines().next().unwrap().split(',').count();
        assert_eq!(row.split(',').count(), header_cols);
        // The columnar sink nulls the same fields.
        let table = [rec].export_tables().into_iter().next().unwrap().1;
        let rtt_col = table.schema().col("rtt_ms").unwrap();
        assert_eq!(table.page(0, rtt_col).f64_at(0), None);
        let loss_col = table.schema().col("loss").unwrap();
        assert_eq!(table.page(0, loss_col).f64_at(0), Some(1.0));
    }

    #[test]
    fn voip_rows_with_finite_metrics_are_fully_populated() {
        let (r_factor, mos) = crate::voip::e_model(80.0, 3.0, 0.01);
        let rec = VoipRecord {
            tag: tag(),
            result: crate::voip::VoipResult {
                rtt_ms: 80.0,
                jitter_ms: 3.0,
                loss: 0.01,
                r_factor,
                mos,
            },
            status: MeasureStatus::Ok,
        };
        let csv = [rec].export(Dataset::Voip);
        let row = csv.lines().nth(1).unwrap();
        assert!(row.contains("80.000") && row.contains("3.000"));
        assert!(!row.contains(",,"), "no empty fields expected: {row}");
    }

    #[test]
    fn empty_campaign_yields_headers_only() {
        let d = CampaignData::default();
        for ds in Dataset::ALL {
            assert_eq!(d.export(ds).lines().count(), 1, "{ds:?}");
        }
    }

    #[test]
    fn status_codes_match_labels() {
        for (code, label) in STATUS_LABELS.iter().enumerate() {
            let status = [
                MeasureStatus::Ok,
                MeasureStatus::Failover,
                MeasureStatus::Timeout,
                MeasureStatus::Unreachable,
            ][code];
            assert_eq!(status_code(status) as usize, code);
            assert_eq!(status.as_str(), *label);
        }
    }
}
