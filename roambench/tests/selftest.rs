//! Self-tests of the benchmark: metric naming, the tail-percentile rule,
//! span self time, the reference-speed normalization of each round, and
//! the output identities the workloads rely on.

use roambench::fleet::{chaos_reference, on_workers, population_runner};
use roambench::stats::{tail, Tail};
use roambench::trace::{self_time, Tracer};
use roambench::{digest, valid_metric_name, Ctx, Measured, PER_LAYER};
use std::path::PathBuf;
use std::sync::Mutex;

/// Fleet runs pin their fault spec and transport process-wide, so the
/// tests that run fleets take turns.
static FLEET: Mutex<()> = Mutex::new(());

/// The end-to-end metrics every untraced run prints.
const END_TO_END: [&str; 4] = ["setup_s", "rate_per_s", "latency_ms", "peak_rss_mb"];

fn ctx(threads: usize) -> Ctx {
    Ctx {
        seed: 7,
        seconds: 1.0,
        nproc: roambench::host::nproc(),
        threads,
        scratch: std::env::temp_dir(),
        worker_bin: PathBuf::from(env!("CARGO_BIN_EXE_fleet_worker")),
    }
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    names.extend(END_TO_END);
    for n in &names {
        assert!(valid_metric_name(n), "{n}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    for bad in ["", "-lead", "sp ace", "slash/name", "ü"] {
        assert!(!valid_metric_name(bad), "{bad:?}");
    }
}

#[test]
fn benchmark_json_lists_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in PER_LAYER {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            json.contains(&entry),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    for name in END_TO_END {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
}

#[test]
fn every_workload_pins_both_seeds() {
    for w in roambench::WORKLOADS {
        for seed in roambench::pins::PINNED_SEEDS {
            assert!(
                roambench::pins::PINS
                    .iter()
                    .any(|(pw, ps, _, _)| *pw == w && *ps == seed),
                "{w} has no pin for seed {seed}"
            );
        }
    }
    // A pin mismatch is an error; an unpinned seed passes through.
    assert!(roambench::pins::check("export-query", 1, "answers", 0).is_err());
    assert!(roambench::pins::check("export-query", 99, "answers", 0).is_ok());
}

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
    // 19 samples: the median (rank 10) has only 9 beyond it.
    assert_eq!(tail(&ramp(19)), None);
    // 20: p50 at rank 10 has 10 beyond; p75 at rank 15 has 5.
    let t = tail(&ramp(20)).expect("tail");
    assert_eq!((t.pct, t.value), (50.0, 10.0));
    // 100: p90 at rank 90 has 10 beyond; p95 would have 5.
    assert_eq!(
        tail(&ramp(100)),
        Some(Tail {
            pct: 90.0,
            value: 90.0,
            samples: 100
        })
    );
    // 1000: p99 at rank 990 has 10 beyond; p99.9 would have 1.
    let t = tail(&ramp(1000)).expect("tail");
    assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
    // Order of the input does not matter.
    let mut shuffled = ramp(100);
    shuffled.reverse();
    assert_eq!(tail(&shuffled).map(|t| t.value), Some(90.0));
}

#[test]
fn self_time_is_duration_minus_child_coverage() {
    assert_eq!(self_time(0, 100, &[]), 100);
    // Overlapping children count once; a child sticking out of the
    // parent counts only inside it.
    assert_eq!(self_time(0, 100, &[(10, 30), (20, 40), (90, 120)]), 60);
    assert_eq!(self_time(0, 100, &[(0, 100)]), 0);

    let mut t = Tracer::new();
    t.span("parent", 1, |t| {
        t.span("child", 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
    });
    let spans = t.spans();
    let selfs = t.self_ns();
    let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(selfs[0], dur(0) - dur(1));
    assert_eq!(selfs[1], dur(1));
}

#[test]
fn end_round_puts_each_round_at_reference_speed() {
    let mut m = Measured::default();
    m.setup_s.push(0.5);
    m.rate.push(100.0);
    m.latency_ms.push(20.0);
    m.end_round();
    m.latency_ms.push(40.0);
    m.end_round();
    let named = |n: &str| {
        m.named
            .iter()
            .find(|(k, _, _)| k == n)
            .map(|(_, _, v)| v.clone())
            .expect(n)
    };
    let f = named("host_factor");
    assert_eq!(named("raw_latency_ms"), vec![20.0, 40.0]);
    assert!((m.setup_s[0] * f[0] - 0.5).abs() < 1e-12);
    assert!((m.rate[0] / f[0] - 100.0).abs() < 1e-9);
    assert!((m.latency_ms[0] * f[0] - 20.0).abs() < 1e-9);
    assert!((m.latency_ms[1] * f[1] - 40.0).abs() < 1e-9);
    // The first round has only its closing reading; the second is
    // bracketed by both.
    let reading = named("host_reading");
    assert_eq!(f[0], reading[0]);
    assert!((f[1] - (reading[0] + reading[1]) / 2.0).abs() < 1e-12);
}

#[test]
fn fleet_population_digest_is_thread_invariant() {
    let _turn = FLEET
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let one = population_runner(&ctx(1), 600).run();
    let nproc = ctx(roambench::host::nproc());
    let many = population_runner(&nproc, 600).run();
    assert_eq!(
        digest(one.report.render().as_bytes()),
        digest(many.report.render().as_bytes())
    );
}

#[test]
fn fleet_chaos_digest_is_the_same_on_workers_and_threads() {
    let _turn = FLEET
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let c = ctx(roambench::host::nproc());
    let threads = chaos_reference(&c, 400).run();
    let workers = on_workers(&c, chaos_reference(&c, 400)).run();
    assert!(!workers.supervision.recovered());
    assert_eq!(
        digest(threads.report.render().as_bytes()),
        digest(workers.report.render().as_bytes())
    );
}
