//! Shared experiment harness for the per-figure/table binaries.
//!
//! Every `fig*`/`table*` binary in `src/bin/` reproduces one table or
//! figure of the paper from one of three campaigns, all run through
//! [`CampaignRunner`]: the device campaign ([`CampaignRunner::run`],
//! Table 4), the web campaign ([`CampaignRunner::run_web`], Table 3) and
//! the eSIM survey ([`CampaignRunner::run_survey`], Table 2 / Figs. 3–4).
//! The binaries read their knobs with
//! [`Env::run`](roam_service::config::Env::run) and hand them over with
//! [`CampaignRunner::knobs`]; the thread count cannot change the bytes,
//! only the wall clock.
//!
//! Each campaign is one **per-country shard** loop over
//! [`roam_measure::parallel`]: every shard builds its own world from the
//! master seed, and every measurement inside it runs on a flow derived
//! from the attachment's flow stamp and the measurement's label — never
//! from execution order — so the merged output is bit-identical on one
//! thread ([`RunMode::Sequential`]) or many ([`RunMode::Parallel`]).

use roam_core::EsimObservation;
use roam_geo::{City, Country};
use roam_measure::{
    run_device_campaign, run_shards, run_web_measurement, CampaignData, DeviceCampaignSpec,
    Endpoint, Exporter, RunMode, ShardTiming, SharedSink, WebRecord,
};
use roam_netsim::{FaultSpec, RunKnobs};
pub use roam_service::config::{Env, RunEnv};
use roam_telemetry::{merge_shards, TelemetryMode, TelemetryReport};
use roam_world::{DeviceCountrySpec, World};
use std::collections::BTreeMap;
use std::time::Instant;

/// Scale factor applied to the Table-4 sample counts. 1.0 is paper scale;
/// the unit tests of the binaries use ~0.1 for speed.
#[must_use]
pub fn scaled(count: u32, scale: f64) -> u32 {
    ((count as f64 * scale).round() as u32).max(u32::from(count > 0))
}

fn scale_spec(spec: &DeviceCampaignSpec, scale: f64) -> DeviceCampaignSpec {
    let s = |pair: (u32, u32)| (scaled(pair.0, scale), scaled(pair.1, scale));
    DeviceCampaignSpec {
        ookla: s(spec.ookla),
        mtr_per_target: s(spec.mtr_per_target),
        cdn_per_provider: s(spec.cdn_per_provider),
        dns: s(spec.dns),
        video: s(spec.video),
    }
}

/// One country's completed slice of the device campaign.
///
/// The endpoints' node ids are only meaningful inside [`Self::world`] —
/// each shard attaches into its own copy of the seeded world. Binaries
/// that re-probe endpoints live (e.g. the VoIP extension) must pair each
/// endpoint with the world of its own shard.
pub struct DeviceCountryRun {
    /// The campaign country.
    pub country: Country,
    /// The shard's world after its attachments and measurements.
    pub world: World,
    /// eSIM endpoints, one per day-chunk re-attachment.
    pub esims: Vec<Endpoint>,
}

/// Everything a figure binary needs from one full device-campaign run.
pub struct DeviceCampaignRun {
    /// Per-country shard results, in Table-4 order. Each carries the
    /// world its endpoints live in.
    pub shards: Vec<DeviceCountryRun>,
    /// All measurement records, all countries merged in Table-4 order.
    pub data: CampaignData,
    /// Telemetry merged in shard-key order (empty when the mode is off).
    pub telemetry: TelemetryReport,
    /// Per-shard wall time, in merge order (not byte-stable).
    pub timings: Vec<ShardTiming>,
}

impl DeviceCampaignRun {
    /// eSIM endpoints of every shard, flattened in Table-4 order.
    pub fn esims(&self) -> impl Iterator<Item = &Endpoint> {
        self.shards.iter().flat_map(|s| s.esims.iter())
    }
}

/// One full web-campaign run: per-country records plus the run's
/// telemetry.
pub struct WebCampaignRun {
    /// A fresh build of the master seed for static lookups (country
    /// plans, registry); the endpoints' node ids belong to their shard
    /// worlds, which are dropped with the shards.
    pub world: World,
    /// `(country, completed measurements, endpoint)` per Table-3 country.
    pub results: Vec<(Country, Vec<WebRecord>, Endpoint)>,
    /// Telemetry merged in shard-key order.
    pub telemetry: TelemetryReport,
    /// Per-shard wall time (not byte-stable).
    pub timings: Vec<ShardTiming>,
}

/// One eSIM survey run: the tomography observations plus telemetry.
pub struct SurveyRun {
    /// A fresh build of the master seed; resolves every observation.
    pub world: World,
    /// Per-country observations, the input to Table 2 / Figs. 3–4.
    pub observations: Vec<EsimObservation>,
    /// Telemetry merged in shard-key order.
    pub telemetry: TelemetryReport,
    /// Per-shard wall time (not byte-stable).
    pub timings: Vec<ShardTiming>,
}

/// The one way to run a campaign: seed in, then builder-style knobs for
/// scale, worker count, fault schedule and telemetry, shared by all three
/// campaign shapes.
///
/// ```no_run
/// use roam_bench::CampaignRunner;
/// use roam_telemetry::TelemetryMode;
///
/// let run = CampaignRunner::new(42)
///     .scale(0.1)
///     .parallel(4)
///     .telemetry(TelemetryMode::Summary)
///     .run();
/// print!("{}", run.telemetry.render());
/// ```
///
/// The worker count cannot change a campaign's bytes — shards merge in
/// shard-key order — so it chooses cost only; the fault schedule is part
/// of the scenario, and telemetry only chooses what is reported.
#[derive(Clone)]
pub struct CampaignRunner {
    seed: u64,
    scale: f64,
    mode: RunMode,
    faults: FaultSpec,
    telemetry: TelemetryMode,
    sink: Option<SharedSink>,
}

impl std::fmt::Debug for CampaignRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignRunner")
            .field("seed", &self.seed)
            .field("scale", &self.scale)
            .field("mode", &self.mode)
            .field("faults", &self.faults)
            .field("telemetry", &self.telemetry)
            .field("sink", &self.sink.as_ref().map(|_| "…"))
            .finish()
    }
}

impl CampaignRunner {
    /// A sequential, full-scale, fault-free, telemetry-off runner for
    /// `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        CampaignRunner {
            seed,
            scale: 1.0,
            mode: RunMode::Sequential,
            faults: FaultSpec::off(),
            telemetry: TelemetryMode::Off,
            sink: None,
        }
    }

    /// The thread count, fault schedule and telemetry mode an entry point
    /// parsed, as [`CampaignRunner::parallel`], [`CampaignRunner::faults`]
    /// and [`CampaignRunner::telemetry`] would set them.
    #[must_use]
    pub fn knobs(self, env: RunEnv) -> Self {
        self.parallel(env.threads)
            .faults(env.faults)
            .telemetry(env.telemetry)
    }

    /// Scale factor on the Table-4 sample counts (1.0 = paper scale).
    #[must_use]
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Spread shards over `workers` threads (`<= 1` means sequential).
    #[must_use]
    pub fn parallel(mut self, workers: usize) -> Self {
        self.mode = RunMode::threads(workers);
        self
    }

    /// The fault schedule for the run (default off). Every shard's world
    /// runs the same spec, so all shards see identical fault windows.
    #[must_use]
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = spec;
        self
    }

    /// Select what the run's telemetry plane records.
    #[must_use]
    pub fn telemetry(mut self, mode: TelemetryMode) -> Self {
        self.telemetry = mode;
        self
    }

    /// Attach a [`DataSink`](roam_measure::DataSink): after a device
    /// campaign ([`CampaignRunner::run`]) merges its shards, every held
    /// dataset's rows stream through the sink in [`Exporter::datasets`]
    /// order — the same walk `export`/`export_all` use, so a CSV sink sees
    /// the historical bytes and a columnar sink the same rows as typed
    /// pages. The sink is shared (`Arc<Mutex<…>>`) so the caller keeps a
    /// handle to drain after the run.
    #[must_use]
    pub fn sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The per-country shard loop every campaign runs on. Each shard builds
    /// the seeded world under the run's knobs, runs `body` for its country,
    /// then takes the world's telemetry and the shard's wall time. Shards
    /// fold in [`run_shards`] order under `"{prefix}/{alpha3}"`, and come
    /// back as `(shard world, body result)`.
    fn shards<T: Send>(
        &self,
        prefix: &str,
        countries: &[Country],
        body: impl Fn(&mut World, Country) -> T + Sync,
    ) -> (Vec<(World, T)>, TelemetryReport, Vec<ShardTiming>) {
        let knobs = RunKnobs {
            telemetry: self.telemetry,
            faults: self.faults,
        };
        let out = run_shards(self.mode, countries.len(), |i| {
            let started = Instant::now();
            let mut world = World::build(self.seed);
            world.net.set_knobs(knobs);
            let result = body(&mut world, countries[i]);
            let snap = world.net.take_telemetry();
            (world, result, snap, started.elapsed().as_secs_f64() * 1e3)
        });
        let (mut shards, mut snaps, mut timings) = (Vec::new(), Vec::new(), Vec::new());
        for (country, (world, result, snap, wall_ms)) in countries.iter().zip(out) {
            let key = format!("{prefix}/{}", country.alpha3());
            snaps.push((key.clone(), snap));
            timings.push(ShardTiming { key, wall_ms });
            shards.push((world, result));
        }
        (shards, merge_shards(self.telemetry, snaps), timings)
    }

    /// Run the device campaign across the 10 Table-4 countries.
    ///
    /// Each country's eSIM re-attaches every "day chunk" so that the
    /// Packet-Host/OVH alternation of §4.1 shows up in the observed public
    /// IPs — the campaigns saw both providers per eSIM, not per
    /// measurement.
    #[must_use]
    pub fn run(&self) -> DeviceCampaignRun {
        self.run_devices(&World::device_campaign_specs())
    }

    /// The device campaign over `specs`, one shard per spec.
    fn run_devices(&self, specs: &[DeviceCountrySpec]) -> DeviceCampaignRun {
        let countries: Vec<Country> = specs.iter().map(|s| s.country).collect();
        let (out, telemetry, timings) = self.shards("device", &countries, |world, country| {
            let spec = specs.iter().find(|s| s.country == country).expect("spec");
            let chunks = spec.days.clamp(2, 6);
            let chunk_spec = scale_spec(&spec.spec, self.scale / f64::from(chunks));
            let (mut data, mut esims) = (CampaignData::default(), Vec::new());
            for _ in 0..chunks {
                // Both SIMs re-attach per day-chunk: real devices detach
                // overnight, and per-attachment draws (core depth, PGW pool
                // slot, provider alternation) must average out on both
                // sides. Each attachment carries a fresh flow stamp, so
                // repeated plan labels across chunks still name distinct
                // flows.
                let phys = world.attach_physical(country);
                let esim = world.attach_esim(country);
                let targets = &world.internet.targets;
                let d = run_device_campaign(&mut world.net, &phys, &esim, &chunk_spec, targets);
                data.extend(d);
                esims.push(esim);
            }
            (country, esims, data)
        });
        let (mut shards, mut data) = (Vec::new(), CampaignData::default());
        for (world, (country, esims, shard_data)) in out {
            data.extend(shard_data);
            shards.push(DeviceCountryRun {
                country,
                world,
                esims,
            });
        }
        if let Some(sink) = &self.sink {
            let mut sink = sink.lock().expect("campaign sink poisoned");
            for &ds in data.datasets() {
                data.export_rows(ds, &mut *sink);
            }
        }
        DeviceCampaignRun {
            shards,
            data,
            telemetry,
            timings,
        }
    }

    /// Run the web campaign across the 14 Table-3 countries. The scale
    /// knob does not apply — Table 3's completed-measurement counts are
    /// what the campaign reproduces.
    #[must_use]
    pub fn run_web(&self) -> WebCampaignRun {
        let specs = World::web_campaign_specs();
        let countries: Vec<Country> = specs.iter().map(|s| s.country).collect();
        let (out, telemetry, timings) = self.shards("web", &countries, |world, country| {
            let spec = specs.iter().find(|s| s.country == country).expect("spec");
            let ep = world.attach_esim(country);
            let records: Vec<WebRecord> = (0..spec.measurements)
                .filter_map(|m| {
                    let label = format!("web/{m}");
                    run_web_measurement(&mut world.net, &ep, &world.internet.targets, &label)
                })
                .collect();
            (country, records, ep)
        });
        WebCampaignRun {
            world: World::build(self.seed),
            results: out.into_iter().map(|(_, result)| result).collect(),
            telemetry,
            timings,
        }
    }

    /// Attach every measured country's eSIM `attaches_per_country` times
    /// and collect observations — the input to Table 2 / Figs. 3–4. One
    /// shard per country.
    #[must_use]
    pub fn run_survey(&self, attaches_per_country: u32) -> SurveyRun {
        let world = World::build(self.seed);
        let (out, telemetry, timings) =
            self.shards("survey", &world.measured_countries(), |shard, country| {
                (0..attaches_per_country)
                    .map(|_| shard.attach_esim(country))
                    .collect::<Vec<Endpoint>>()
            });
        let endpoints: Vec<Endpoint> = out.into_iter().flat_map(|(_, eps)| eps).collect();
        SurveyRun {
            observations: observations_for(&world, &endpoints),
            world,
            telemetry,
            timings,
        }
    }
}

/// Build the tomography observations for a set of eSIM endpoints: each
/// endpoint contributes its country, operator identities and the public IP
/// its session used; repeated attachments of one country merge their IPs.
#[must_use]
pub(crate) fn observations_for(world: &World, endpoints: &[Endpoint]) -> Vec<EsimObservation> {
    let mut by_country: BTreeMap<Country, EsimObservation> = BTreeMap::new();
    for ep in endpoints {
        let b = world.ops.dir.get(ep.att.b_mno);
        let v = world.ops.dir.get(ep.att.v_mno);
        let entry = by_country
            .entry(ep.country)
            .or_insert_with(|| EsimObservation {
                visited: ep.country,
                b_mno_name: b.name.clone(),
                b_mno_country: b.country,
                b_mno_asn: b.asn,
                v_mno_asn: v.asn,
                user_city: City::sgw_city_for(ep.country).expect("measured country"),
                public_ips: vec![],
            });
        if !entry.public_ips.contains(&ep.att.public_ip) {
            entry.public_ips.push(ep.att.public_ip);
        }
    }
    by_country.into_values().collect()
}

/// Users-per-second throughput for a fleet run, guarded against a zero
/// wall clock (sub-nanosecond runs report a huge-but-finite rate).
#[must_use]
pub(crate) fn users_per_sec(users: u64, wall_secs: f64) -> f64 {
    users as f64 / wall_secs.max(1e-9)
}

/// The machine-parseable throughput line scraped by the CI
/// throughput-floor gate (`sed -n 's/^fleet_smoke_users_per_sec: //p'`).
/// It is formatted only here and emitted only by [`emit_users_per_sec`],
/// always on **stderr**: `fleet_smoke`'s stdout carries nothing but the
/// byte-stable report, so CI can `cmp` two runs, and scrapers redirect
/// `2>&1 >/dev/null | sed …`.
#[must_use]
pub(crate) fn users_per_sec_line(users: u64, wall_secs: f64) -> String {
    format!(
        "fleet_smoke_users_per_sec: {:.0}",
        users_per_sec(users, wall_secs)
    )
}

/// Emit `users_per_sec_line` on stderr and return the rate. The single
/// emission point for the gate line: binaries must not print it
/// themselves, so the stream contract lives (and is tested) here.
pub fn emit_users_per_sec(users: u64, wall_secs: f64) -> f64 {
    eprintln!("{}", users_per_sec_line(users, wall_secs));
    users_per_sec(users, wall_secs)
}

/// The machine-parseable agent throughput line scraped by the CI
/// service-floor gate (`sed -n 's/^service_events_per_sec: //p'`).
///
/// A *service event* is one unit of agent work: a scheduler job fire
/// (cohort tick, vantage probe, or fault-calendar advance) or one
/// session record flowing through the bounded export queue. Like the
/// fleet gate line, it lives on **stderr** — `service_smoke`'s stdout
/// carries nothing but the byte-stable agent report.
#[must_use]
pub(crate) fn service_events_per_sec_line(events: u64, wall_secs: f64) -> String {
    format!(
        "service_events_per_sec: {:.0}",
        events as f64 / wall_secs.max(1e-9)
    )
}

/// Emit `service_events_per_sec_line` on stderr and return the rate.
/// The single emission point, mirroring [`emit_users_per_sec`].
pub fn emit_service_events_per_sec(events: u64, wall_secs: f64) -> f64 {
    eprintln!("{}", service_events_per_sec_line(events, wall_secs));
    events as f64 / wall_secs.max(1e-9)
}

/// Format a boxplot row for the text figures.
#[must_use]
pub fn boxplot_row(label: &str, values: &[f64]) -> String {
    match roam_stats::BoxplotSummary::from(values) {
        Ok(b) => format!(
            "{:<22} {:>7.1} [{:>7.1} {:>7.1} {:>7.1}] {:>7.1}  (n={})",
            label, b.whisker_lo, b.q1, b.median, b.q3, b.whisker_hi, b.n
        ),
        Err(_) => format!("{label:<22} (no data)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_ipx::RoamingArch;

    #[test]
    fn small_device_run_covers_all_countries_and_kinds() {
        let run = CampaignRunner::new(5).scale(0.02).run();
        assert_eq!(run.shards.len(), 10, "one physical endpoint per country");
        assert!(run.esims().count() >= 10);
        assert!(!run.data.speedtests.is_empty());
        assert!(!run.data.traces.is_empty());
        assert!(!run.data.cdns.is_empty());
        assert!(!run.data.dns.is_empty());
        assert!(!run.data.videos.is_empty());
        // Telemetry is off by default: nothing recorded, nothing rendered.
        assert!(run.telemetry.render().is_empty());
        assert_eq!(
            run.telemetry.counter(roam_telemetry::Counter::PacketsSent),
            0
        );
        assert_eq!(run.timings.len(), 10);
        assert!(run.timings[0].key.starts_with("device/"));
    }

    #[test]
    fn survey_classifies_21_roaming_3_native() {
        let run = CampaignRunner::new(6).run_survey(3);
        let (world, obs) = (run.world, run.observations);
        assert_eq!(obs.len(), 24);
        let report = roam_core::TomographyReport::build(&obs, world.net.registry());
        assert_eq!(report.rows.len(), 24);
        assert_eq!(report.by_arch(RoamingArch::Native).len(), 3);
        assert_eq!(report.by_arch(RoamingArch::HomeRouted).len(), 5);
        assert_eq!(report.by_arch(RoamingArch::IpxHubBreakout).len(), 16);
        assert!(report.by_arch(RoamingArch::LocalBreakout).is_empty());
    }

    #[test]
    fn web_campaign_produces_table3_counts() {
        let run = CampaignRunner::new(7).run_web();
        assert_eq!(run.results.len(), 14);
        let total: usize = run.results.iter().map(|(_, r, _)| r.len()).sum();
        assert_eq!(total, 116, "Table 3's completed measurements");
    }

    #[test]
    fn runner_sink_streams_the_merged_campaign() {
        use roam_measure::{Dataset, MemorySink};
        use std::sync::{Arc, Mutex};
        let sink = Arc::new(Mutex::new(MemorySink::new()));
        let run = CampaignRunner::new(5)
            .scale(0.02)
            .sink(sink.clone() as SharedSink)
            .run();
        let sink = Arc::try_unwrap(sink)
            .expect("runner dropped its handle")
            .into_inner()
            .unwrap();
        // The sink saw exactly the bytes the buffered export renders.
        assert_eq!(
            sink.table(Dataset::Speedtests),
            Some(run.data.export(Dataset::Speedtests).as_str())
        );
        assert_eq!(
            sink.table(Dataset::Videos),
            Some(run.data.export(Dataset::Videos).as_str())
        );
    }

    #[test]
    fn telemetry_report_is_mode_and_worker_invariant() {
        use roam_telemetry::{Counter, TelemetryMode};
        let serial = CampaignRunner::new(9)
            .scale(0.02)
            .telemetry(TelemetryMode::Jsonl)
            .run();
        let parallel = CampaignRunner::new(9)
            .scale(0.02)
            .parallel(4)
            .telemetry(TelemetryMode::Jsonl)
            .run();
        assert!(serial.telemetry.counter(Counter::PacketsSent) > 0);
        assert!(serial.telemetry.counter(Counter::PlansExecuted) > 0);
        assert_eq!(serial.telemetry.counter(Counter::ShardsMerged), 10);
        assert_eq!(serial.telemetry.render(), parallel.telemetry.render());
    }

    #[test]
    fn runner_knobs_reach_every_shard_world() {
        let run = CampaignRunner::new(5)
            .scale(0.02)
            .telemetry(TelemetryMode::Summary)
            .faults(FaultSpec::heavy())
            .run();
        for shard in &run.shards {
            assert_eq!(shard.world.net.telemetry().mode(), TelemetryMode::Summary);
            assert_eq!(*shard.world.net.faults().spec(), FaultSpec::heavy());
        }
    }

    #[test]
    fn throughput_line_matches_the_ci_scrape_pattern() {
        assert_eq!(
            users_per_sec_line(100_000, 2.0),
            "fleet_smoke_users_per_sec: 50000"
        );
        // The CI gate scrapes stderr with
        // `sed -n 's/^fleet_smoke_users_per_sec: //p'`; the
        // prefix-stripped remainder must be a bare integer.
        let line = users_per_sec_line(123_456, 3.7);
        let rest = line
            .strip_prefix("fleet_smoke_users_per_sec: ")
            .expect("stable prefix");
        let parsed: u64 = rest.parse().expect("bare integer after the prefix");
        assert!(parsed > 0);
        // A zero wall clock must not poison the gate with inf/NaN.
        assert!(users_per_sec(1, 0.0).is_finite());
    }

    #[test]
    fn scaled_keeps_nonzero_counts_alive() {
        assert_eq!(scaled(10, 0.1), 1);
        assert_eq!(scaled(3, 0.1), 1);
        assert_eq!(scaled(0, 0.5), 0);
        assert_eq!(scaled(100, 1.0), 100);
    }
}
