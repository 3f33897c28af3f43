//! Determinism: the whole point of a seeded simulator is that two runs with
//! the same seed are indistinguishable — and runs with different seeds are
//! not. This guards every layer at once: world construction, attachment,
//! the event engine, the measurement clients and the economics pipeline.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use roamsim::econ::{Crawler, Market, Vantage};
use roamsim::geo::Country;
use roamsim::measure::{mtr, ookla_speedtest, Service};
use roamsim::world::World;

/// Fingerprint a short measurement session.
fn fingerprint(seed: u64) -> Vec<u64> {
    let mut world = World::build(seed);
    let mut out = Vec::new();
    for country in [Country::PAK, Country::DEU, Country::KOR, Country::FRA] {
        let ep = world.attach_esim(country);
        out.push(u64::from(u32::from(ep.att.public_ip)));
        out.push(ep.att.tunnel_km.to_bits());
        if let Some(o) = mtr(
            &mut world.net,
            &ep,
            &world.internet.targets,
            Service::Google,
        ) {
            out.push(o.analysis.private_len as u64);
            out.push(o.analysis.final_rtt_ms.unwrap_or(0.0).to_bits());
        }
        let label = format!("fp/{}", country.alpha3());
        if let Some(s) = ookla_speedtest(&mut world.net, &ep, &world.internet.targets, &label) {
            out.push(s.down_mbps.to_bits());
            out.push(s.latency_ms.to_bits());
        }
    }
    out
}

#[test]
fn same_seed_bit_identical() {
    assert_eq!(fingerprint(42), fingerprint(42));
    assert_eq!(fingerprint(1337), fingerprint(1337));
}

#[test]
fn different_seeds_differ() {
    assert_ne!(fingerprint(42), fingerprint(43));
}

/// The tentpole guarantee of the shard runner: a parallel campaign run is
/// not merely "statistically equivalent" to a sequential one — the
/// exported datasets are the same bytes, because every shard's RNG is
/// keyed by what it measures, never by which worker ran it when.
#[test]
fn parallel_campaigns_export_identical_bytes() {
    use roam_bench::CampaignRunner;
    use roamsim::measure::Exporter;

    let seq = CampaignRunner::new(11).scale(0.03).run();
    let par = CampaignRunner::new(11).scale(0.03).parallel(4).run();
    for (ds, csv) in seq.data.export_all() {
        assert_eq!(csv, par.data.export(ds), "{ds:?} diverged across workers");
    }

    let web_seq = CampaignRunner::new(11).run_web();
    let web_par = CampaignRunner::new(11).parallel(4).run_web();
    assert_eq!(
        format!("{:?}", web_seq.results),
        format!("{:?}", web_par.results)
    );

    let obs_seq = CampaignRunner::new(11).run_survey(2);
    let obs_par = CampaignRunner::new(11).parallel(4).run_survey(2);
    assert_eq!(
        format!("{:?}", obs_seq.observations),
        format!("{:?}", obs_par.observations)
    );
}

/// FNV-1a-64 digests of all three campaigns at seed 11 with jsonl
/// telemetry, faults off: the device campaign's `export_all` CSV, the web
/// results and the survey observations (each with the rendered telemetry),
/// plus every run's shard keys in merge order. Worker-count invariance
/// alone (above) would let both sides of a refactor move together.
#[test]
fn campaign_outputs_are_pinned() {
    use roam_bench::CampaignRunner;
    use roam_codec::hash64;
    use roamsim::measure::{Exporter, ShardTiming};
    use roamsim::netsim::FaultSpec;
    use roamsim::telemetry::TelemetryMode;

    let runner = CampaignRunner::new(11)
        .faults(FaultSpec::off())
        .telemetry(TelemetryMode::Jsonl);
    let keys = |timings: &[ShardTiming]| {
        let keys: Vec<&str> = timings.iter().map(|t| t.key.as_str()).collect();
        hash64(keys.join("\n").as_bytes())
    };

    let device = runner.clone().scale(0.03).run();
    let mut csv = String::new();
    for (ds, table) in device.data.export_all() {
        csv.push_str(&format!("{ds:?}\n{table}"));
    }
    let web = runner.run_web();
    let survey = runner.run_survey(2);
    let got = [
        hash64(csv.as_bytes()),
        hash64(device.telemetry.render().as_bytes()),
        keys(&device.timings),
        hash64(format!("{:?}", web.results).as_bytes()),
        hash64(web.telemetry.render().as_bytes()),
        keys(&web.timings),
        hash64(format!("{:?}", survey.observations).as_bytes()),
        hash64(survey.telemetry.render().as_bytes()),
        keys(&survey.timings),
    ];
    let want: [u64; 9] = [
        // device: export_all CSV, telemetry, shard keys
        0x4a91_0b97_6a51_68d3,
        0x36ff_7509_d3b4_4010,
        0x0a6a_157e_04f0_889f,
        // web: results, telemetry, shard keys
        0xc06d_7c37_701f_1cc9,
        0xfad5_d753_4762_f2c6,
        0xf4b8_f5e2_ceaf_de12,
        // survey: observations, telemetry, shard keys
        0xda70_e242_7faf_06b4,
        0xc588_60be_8d2d_3132,
        0x7821_0493_6502_ab40,
    ];
    assert_eq!(got, want, "campaign digests moved: {got:#018x?}");
}

#[test]
fn market_and_crawls_are_deterministic() {
    let a = Market::generate(9);
    let b = Market::generate(9);
    let ca = Crawler::new(Vantage::Madrid).crawl(&a, 55);
    let cb = Crawler::new(Vantage::Madrid).crawl(&b, 55);
    assert_eq!(ca.records.len(), cb.records.len());
    for (x, y) in ca.records.iter().zip(&cb.records) {
        assert_eq!(x.price_usd, y.price_usd);
        assert_eq!(x.offer.country, y.offer.country);
    }
}

#[test]
fn visibility_experiment_is_deterministic() {
    let exp = roamsim::core::VisibilityExperiment {
        n_native: 50,
        n_roamers: 30,
        n_aggregator: 20,
        days: 3,
        ..roamsim::core::VisibilityExperiment::paper_setup()
    };
    let run = |seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (records, planted) = roamsim::core::simulate_core_records(&exp, &mut rng);
        let sum: f64 = records.iter().map(|r| r.data_mb + r.signalling_mb).sum();
        (records.len(), planted.len(), sum.to_bits())
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5).2, run(6).2);
}

/// FNV-1a-64 digests of columnar table bytes, so a change to the ingest
/// path cannot move the frame or CSV bytes without failing here:
/// `Table::to_frame` and `render_csv` of the fleet sessions table (seed 1,
/// 2 000 users), of a synthetic table one chunk and ten rows long that
/// covers every column kind, nulls and CSV quoting, and of the agent's
/// `soak_frame` over fixed rows.
#[test]
fn table_frames_are_pinned() {
    use roam_codec::hash64;
    use roamsim::columnar::{
        field, render_csv, CellValue, ColKind, Schema, Table, TableBuilder, CHUNK_ROWS,
    };
    use roamsim::fleet::{FleetConfig, SessionRows, UserBatch};
    use roamsim::measure::{ColumnarSink, Dataset, Exporter};
    use roamsim::service::{agent::soak_frame, SoakRow};

    let digests = |t: &Table| {
        let mut csv = String::new();
        render_csv(t, &mut csv);
        [hash64(&t.to_frame()), hash64(csv.as_bytes())]
    };

    let sessions = UserBatch {
        record_sessions: true,
        ..UserBatch::new(1, FleetConfig::default(), 0, 2_000)
    }
    .run()
    .sessions;
    let mut sink = ColumnarSink::new();
    SessionRows(&sessions).export_rows(Dataset::Sessions, &mut sink);
    let sessions = sink
        .into_table(Dataset::Sessions)
        .expect("the batch records sessions");

    let mut b = TableBuilder::new(Schema::new(vec![
        field("n", ColKind::U32),
        field("ip", ColKind::Ipv4),
        field("ms", ColKind::F64 { prec: 3 }),
        field("status", ColKind::enumeration(&["ok", "timeout", "a,b"])),
        field("label", ColKind::Dict),
    ]));
    let labels = ["PAK", "ARE", "say \"hi\"", "x,y", "PAK"];
    let floats = [
        Some(1.25),
        Some(f64::NAN),
        Some(f64::INFINITY),
        Some(f64::NEG_INFINITY),
        None,
        Some(-0.0005),
    ];
    for i in 0..CHUNK_ROWS as u32 + 10 {
        let label = match i % 7 {
            6 => None,
            k if k % 2 == 0 => Some(labels[(i as usize / 2) % labels.len()]),
            _ => Some(labels[1]),
        };
        b.push_row(&[
            CellValue::U32((i % 5 != 0).then_some(i)),
            CellValue::U32((i % 3 != 0).then(|| i.wrapping_mul(2_654_435_761))),
            CellValue::F64(floats[i as usize % floats.len()].map(|x| x * f64::from(i))),
            CellValue::Code((i % 3) as u8),
            CellValue::Str(label),
        ]);
    }
    let synthetic = b.finish();

    let countries = ["PAK", "DEU", "KOR"];
    let soak: Vec<SoakRow> = (0..500u32)
        .map(|i| SoakRow {
            week: u64::from(i / 40),
            country: countries[i as usize % countries.len()],
            kind: (i % 2) as u8,
            ms: (i % 9 != 0).then(|| f64::from(i) * 0.37),
            status: (i % 4) as u8,
        })
        .collect();

    let [sf, sc] = digests(&sessions);
    let [yf, yc] = digests(&synthetic);
    let got = [sf, sc, yf, yc, hash64(&soak_frame(&soak))];
    let want: [u64; 5] = [
        // sessions: frame, CSV
        0x1e77_2540_5b72_73f7,
        0x0519_b3b0_dca2_5bdd,
        // synthetic: frame, CSV
        0xcb2e_0fc8_b44b_9f4a,
        0x57b5_fef1_8449_7ec6,
        // soak_frame
        0xacbf_f9e9_bf14_202e,
    ];
    assert_eq!(got, want, "table digests moved: {got:#018x?}");
}
