//! Criterion micro/meso-benchmarks for the simulator's hot paths.
//!
//! These are performance benchmarks (the figure reproductions live in
//! `src/bin/`): the event-driven traceroute walk, session establishment,
//! routing, the statistics kernels, and the economics pipeline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use roam_bench::{run_device_shard, CampaignRunner};
use roam_econ::{median_per_gb_by_country, Crawler, Market, Vantage};
use roam_geo::Country;
use roam_measure::Service;
use roam_netsim::engine::flow_seed;
use roam_netsim::{transfer_time_ms, FaultSpec, TracerouteOpts, TransferSpec};
use roam_stats::test::LeveneCenter;
use roam_stats::{levene_test, quantile, welch_t_test, Ecdf};
use roam_world::World;
use std::hint::black_box;

fn bench_world(c: &mut Criterion) {
    let mut g = c.benchmark_group("world");
    g.sample_size(10);
    g.bench_function("build_world", |b| b.iter(|| black_box(World::build(7))));
    g.bench_function("attach_esim", |b| {
        b.iter_batched(
            || World::build(7),
            |mut w| black_box(w.attach_esim(Country::DEU)),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_measure(c: &mut Criterion) {
    let mut g = c.benchmark_group("measure");
    g.sample_size(20);
    let mut world = World::build(7);
    let ep = world.attach_esim(Country::PAK);
    let google = world
        .internet
        .targets
        .nearest(&world.net, Service::Google, ep.att.breakout_city)
        .expect("google edge");
    g.bench_function("ping", |b| {
        b.iter(|| black_box(world.net.ping(ep.att.ue, google)))
    });
    g.bench_function("traceroute", |b| {
        b.iter(|| {
            black_box(
                world
                    .net
                    .traceroute(ep.att.ue, google, TracerouteOpts::default()),
            )
        })
    });
    g.finish();
}

/// The netsim hot paths the allocation-elimination work targets: the
/// cached route lookup (an `Arc` bump, no Vec clone) and the full
/// ping walk (an integer TTL and clock over the route's baked walk
/// plan, no allocation).
fn bench_netsim(c: &mut Criterion) {
    let mut g = c.benchmark_group("netsim");
    let mut world = World::build(7);
    let ep = world.attach_esim(Country::PAK);
    let google = world
        .internet
        .targets
        .nearest(&world.net, Service::Google, ep.att.breakout_city)
        .expect("google edge");
    // Prime the cache so the lookup benchmark measures the steady state.
    let _ = world.net.route(ep.att.ue, google);
    g.bench_function("route_lookup", |b| {
        b.iter(|| black_box(world.net.route(ep.att.ue, google)))
    });
    g.bench_function("packet_forward", |b| {
        b.iter(|| black_box(world.net.ping(ep.att.ue, google)))
    });
    g.bench_function("traceroute_walk", |b| {
        b.iter(|| {
            black_box(
                world
                    .net
                    .traceroute(ep.att.ue, google, TracerouteOpts::default()),
            )
        })
    });
    g.finish();
}

/// The fault plane's disabled-path promise, measured: with the schedule
/// off, a packet walk pays one always-false branch — `ping_faults_off`
/// must track `netsim/packet_forward` (same work, same numbers; CI gates
/// the ratio at ≤2%). `ping_faults_heavy` is the same walk consulting a
/// fully materialised heavy calendar set.
fn bench_faults(c: &mut Criterion) {
    let mut g = c.benchmark_group("faults");
    let ping_under = |g: &mut criterion::BenchmarkGroup<'_>, name: &str, spec: FaultSpec| {
        let mut world = World::build(7);
        world.net.set_faults(spec);
        let ep = world.attach_esim(Country::PAK);
        let google = world
            .internet
            .targets
            .nearest(&world.net, Service::Google, ep.att.breakout_city)
            .expect("google edge");
        let _ = world.net.route(ep.att.ue, google);
        g.bench_function(name, |b| {
            b.iter(|| black_box(world.net.ping(ep.att.ue, google)))
        });
    };
    ping_under(&mut g, "ping_faults_off", FaultSpec::off());
    ping_under(&mut g, "ping_faults_heavy", FaultSpec::heavy());
    g.finish();
}

/// Campaign-level benchmarks: one country's full device shard, and the
/// whole Table-4 campaign sequentially vs. on four workers. The two
/// full-campaign runs produce bit-identical data; the ratio of their
/// times is the wall-clock speedup on this host.
fn bench_campaign(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);
    let specs = World::device_campaign_specs();
    g.bench_function("device_country_shard", |b| {
        b.iter(|| black_box(run_device_shard(7, 0.1, &specs[0])))
    });
    g.bench_function("device_campaign_seq", |b| {
        b.iter(|| black_box(CampaignRunner::new(7).scale(0.1).run()))
    });
    g.bench_function("device_campaign_par4", |b| {
        b.iter(|| black_box(CampaignRunner::new(7).scale(0.1).parallel(4).run()))
    });
    g.finish();
}

/// The telemetry plane's two promises, measured: recording off must cost
/// one predictable branch on the ping hot path (compare `ping_recorder_off`
/// with `netsim/packet_forward` — same work, same numbers), and the no-op
/// sink must vanish entirely under static dispatch (compare the two
/// `sink_*` loops). `ping_recorder_summary` shows what turning counters on
/// actually buys/costs.
fn bench_telemetry(c: &mut Criterion) {
    use roam_telemetry::{Counter, Hist, NoopSink, Recorder, Sink, TelemetryMode};
    let mut g = c.benchmark_group("telemetry");
    let mut world = World::build(7);
    let ep = world.attach_esim(Country::PAK);
    let google = world
        .internet
        .targets
        .nearest(&world.net, Service::Google, ep.att.breakout_city)
        .expect("google edge");
    world.net.set_telemetry_mode(TelemetryMode::Off);
    g.bench_function("ping_recorder_off", |b| {
        b.iter(|| black_box(world.net.ping(ep.att.ue, google)))
    });
    world.net.set_telemetry_mode(TelemetryMode::Summary);
    g.bench_function("ping_recorder_summary", |b| {
        b.iter(|| black_box(world.net.ping(ep.att.ue, google)))
    });
    world.net.set_telemetry_mode(TelemetryMode::Off);
    g.bench_function("sink_noop_1k", |b| {
        b.iter(|| {
            let mut s = NoopSink;
            for i in 0..1_000u64 {
                s.add(Counter::PacketsSent, i);
                s.observe(Hist::ProbeRttMs, i as f64);
            }
            black_box(s.active())
        })
    });
    g.bench_function("sink_recorder_off_1k", |b| {
        b.iter(|| {
            let mut s = Recorder::off();
            for i in 0..1_000u64 {
                s.add(Counter::PacketsSent, i);
                s.observe(Hist::ProbeRttMs, i as f64);
            }
            black_box(s.active())
        })
    });
    g.bench_function("sink_recorder_summary_1k", |b| {
        b.iter(|| {
            let mut s = Recorder::new(TelemetryMode::Summary);
            for i in 0..1_000u64 {
                s.add(Counter::PacketsSent, i);
                s.observe(Hist::ProbeRttMs, i as f64);
            }
            black_box(s.take())
        })
    });
    g.finish();
}

/// The flow-engine layer: seed derivation, and the transfer model timing
/// one bulk transfer.
fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.bench_function("flow_seed", |b| {
        b.iter(|| {
            black_box(flow_seed(
                black_box(7),
                black_box("flow/s3/410012345/ookla/0"),
            ))
        })
    });
    let spec = TransferSpec {
        bytes: 50e6,
        rtt_ms: 80.0,
        policy_rate_mbps: 100.0,
        loss: 0.002,
        setup_rtts: 3.0,
        parallel: 8,
    };
    g.bench_function("transfer_closed_form", |b| {
        b.iter(|| black_box(transfer_time_ms(black_box(&spec))))
    });
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("stats");
    let mut rng = SmallRng::seed_from_u64(3);
    let a: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>() * 100.0).collect();
    let b2: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>() * 120.0).collect();
    g.bench_function("quantile_10k", |b| {
        b.iter(|| black_box(quantile(&a, 0.95).expect("non-empty")))
    });
    g.bench_function("ecdf_build_10k", |b| {
        b.iter(|| black_box(Ecdf::new(&a).expect("non-empty")))
    });
    g.bench_function("welch_t_10k", |b| {
        b.iter(|| black_box(welch_t_test(&a, &b2).expect("enough samples")))
    });
    g.bench_function("levene_10k", |b| {
        b.iter(|| black_box(levene_test(&[&a, &b2], LeveneCenter::Median).expect("groups")))
    });
    g.finish();
}

fn bench_econ(c: &mut Criterion) {
    let mut g = c.benchmark_group("econ");
    g.sample_size(10);
    g.bench_function("generate_market", |b| {
        b.iter(|| black_box(Market::generate(5)))
    });
    let market = Market::generate(5);
    let crawler = Crawler::new(Vantage::NewJersey);
    g.bench_function("daily_crawl", |b| {
        b.iter(|| black_box(crawler.crawl(&market, 40)))
    });
    let snap = crawler.crawl(&market, 40);
    g.bench_function("country_medians", |b| {
        b.iter(|| black_box(median_per_gb_by_country(&snap, market.airalo())))
    });
    g.finish();
}

fn bench_fleet(c: &mut Criterion) {
    use roam_fleet::FleetRunner;

    let mut g = c.benchmark_group("fleet");
    g.sample_size(10);
    // 2k users end-to-end; scripts/bench_json.sh divides USERS by the mean
    // run time to report the users/sec headline.
    const USERS: u64 = 2_000;
    g.bench_function("run_2k_users_sequential", |b| {
        b.iter(|| black_box(FleetRunner::new(11).users(USERS).shards(1).run()))
    });
    g.bench_function("run_2k_users_4_shards_parallel", |b| {
        b.iter(|| {
            black_box(
                FleetRunner::new(11)
                    .users(USERS)
                    .shards(4)
                    .parallel(4)
                    .run(),
            )
        })
    });
    let shard = FleetRunner::new(11).users(USERS).shards(4).run();
    g.bench_function("report_merge_and_render", |b| {
        b.iter_batched(
            || shard.report.clone(),
            |mut r| {
                r.merge(&shard.report);
                black_box(r.render())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    use roam_codec::{Decoder, Frame};
    use roam_fleet::{checkpoint, FleetRunner, ShardState};
    use std::io::Write as _;

    let mut g = c.benchmark_group("checkpoint");
    g.sample_size(10);
    // A halted 2k-user run leaves a real manifest + 4 shard files behind;
    // those frames are exactly the unit a production cadence writes per
    // window and a resume reads back. scripts/bench_json.sh reports the
    // write/restore latencies from this group.
    const USERS: u64 = 2_000;
    let dir = std::env::temp_dir().join(format!("roam-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let halted = FleetRunner::new(11)
        .users(USERS)
        .shards(4)
        .checkpoint_dir(&dir)
        .checkpoint_every(60 * 100) // one write per 100 users per shard
        .halt_after(1)
        .run();
    assert!(halted.halted, "bench fixture must stop at a checkpoint");

    let bytes = std::fs::read(dir.join(checkpoint::shard_file(0))).expect("shard checkpoint");
    let (frame, _) = Frame::parse(&bytes).expect("sealed frame");
    let state = ShardState::decode_fields(&mut Decoder::new(frame.payload)).expect("state");
    g.bench_function("shard_encode_2k", |b| {
        b.iter(|| black_box(state.to_frame()))
    });
    g.bench_function("shard_decode_2k", |b| {
        b.iter(|| {
            let (frame, _) = Frame::parse(black_box(&bytes)).expect("sealed frame");
            black_box(ShardState::decode_fields(&mut Decoder::new(frame.payload)).expect("state"))
        })
    });
    // The durable write, mirroring the runner's torn-write protocol:
    // temp file, fsync, rename. Dominated by the fsync on most hosts.
    g.bench_function("shard_write_2k", |b| {
        let tmp = dir.join("bench.ckpt.tmp");
        let dst = dir.join("bench.ckpt");
        b.iter(|| {
            let mut f = std::fs::File::create(&tmp).expect("create");
            f.write_all(&bytes).expect("write");
            f.sync_all().expect("fsync");
            std::fs::rename(&tmp, &dst).expect("rename");
        })
    });
    // Everything `FleetRunner::resume` pays before the first user runs:
    // manifest decode, fingerprint recompute (a full world + market
    // build), and loading + range-checking all four shard states.
    g.bench_function("resume_validate_2k", |b| {
        b.iter(|| black_box(FleetRunner::resume(&dir).expect("halted dir resumes")))
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_world,
    bench_measure,
    bench_netsim,
    bench_faults,
    bench_campaign,
    bench_telemetry,
    bench_engine,
    bench_stats,
    bench_econ,
    bench_fleet,
    bench_checkpoint
);
criterion_main!(benches);
