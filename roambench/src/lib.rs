//! roambench: the roamsim benchmark.
//!
//! Four workloads drive `roamsim`'s public API from one closed-loop
//! caller (this process): `fleet-population`, `fleet-chaos-resume`,
//! `agent-soak` and `export-query`. An untraced run repeats the
//! workload's timed part for the requested seconds, checks every
//! round's output, and reports end-to-end medians of wall time at the
//! quiet tuning host's speed (see [`Measured::end_round`]). A traced
//! run measures each layer's cost per operation, runs the workload with
//! spans and telemetry counters, and reconciles the two in a cost
//! ladder. See `README.md` in this directory for the layer → metric →
//! workload map.

pub mod agent;
pub mod export;
pub mod fleet;
pub mod host;
pub mod layers;
pub mod pins;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// The workloads, by the names the benchmark and later changes use.
pub const WORKLOADS: [&str; 4] = [
    "fleet-population",
    "fleet-chaos-resume",
    "agent-soak",
    "export-query",
];

/// Every per-layer metric a traced run prints, `(name, unit)`, in
/// print order. A workload that does not exercise a layer reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Shard set-up.
    ("world.build_ms", "ms"),
    ("world.attach_us", "us"),
    ("econ.market_ms", "ms"),
    ("measure.plan_us", "us"),
    ("fleet.shard_setup_ms", "ms"),
    ("fleet.shard_setups", "count"),
    // Population and econ.
    ("fleet.synth_ns", "ns"),
    ("fleet.users", "count"),
    ("econ.price_ns", "ns"),
    ("fleet.purchases", "count"),
    // measure and netsim.
    ("measure.probe_ns", "ns"),
    ("measure.resolve_ns", "ns"),
    ("netsim.ping_ns", "ns"),
    ("netsim.transfer_ns", "ns"),
    ("measure.flows", "count"),
    ("measure.echo_attempts", "count"),
    ("measure.retransmits", "count"),
    ("measure.backoffs", "count"),
    ("measure.failed", "count"),
    ("netsim.packets_forwarded", "count"),
    ("netsim.fault_drops", "count"),
    ("netsim.fault_failovers", "count"),
    ("measure.delivered_ratio", "ratio"),
    // stats.
    ("stats.observe_ns", "ns"),
    ("stats.offer_ns", "ns"),
    // Fleet merge and shards.
    ("fleet.merge_us", "us"),
    ("fleet.render_us", "us"),
    ("fleet.shard_p50_ms", "ms"),
    ("fleet.shard_max_ms", "ms"),
    ("fleet.shard_skew", "ratio"),
    // Fleet worker and supervisor.
    ("fleet.worker_tax_share", "ratio"),
    ("fleet.supervisor.respawns", "count"),
    ("fleet.supervisor.retries", "count"),
    ("fleet.supervisor.quarantined", "count"),
    // Fleet checkpoint.
    ("fleet.ckpt_writes", "count"),
    ("fleet.ckpt_encode_us", "us"),
    ("fleet.ckpt_write_ms", "ms"),
    ("fleet.ckpt_read_us", "us"),
    ("fleet.fingerprint_ms", "ms"),
    ("fleet.resume_ms", "ms"),
    // service.
    ("service.fires", "count"),
    ("service.sched_pop_us", "us"),
    ("service.tick_p50_ms", "ms"),
    ("service.tick_tail_ms", "ms"),
    ("service.tick_tail_pct", "pct"),
    ("service.tick_samples", "count"),
    ("service.week_p50_ms", "ms"),
    ("service.week_tail_ms", "ms"),
    ("service.week_tail_pct", "pct"),
    ("service.week_samples", "count"),
    ("service.records", "count"),
    ("service.flushes", "count"),
    ("service.extend_ns", "ns"),
    ("service.csv_sync_ms", "ms"),
    ("service.csv_mb", "MB"),
    ("service.ckpts", "count"),
    ("service.ckpt_save_ms", "ms"),
    ("service.ckpt_kb", "kB"),
    // columnar and codec.
    ("columnar.rows", "count"),
    ("columnar.ingest_ns_per_row", "ns"),
    ("codec.frame_mb", "MB"),
    ("codec.seal_mb_per_s", "MB/s"),
    ("codec.parse_ms", "ms"),
    ("columnar.query_ms.country_rtt", "ms"),
    ("columnar.query_ms.arch_dns", "ms"),
    ("columnar.query_ms.status", "ms"),
    ("columnar.query_ms.transfer_mb", "ms"),
    ("columnar.query_ms.rat", "ms"),
    // Reconciliation.
    ("ladder.predicted_s", "s"),
    ("ladder.measured_s", "s"),
    ("ladder.unexplained_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("host.factor", "x"),
];

/// Everything a workload run needs from the command line and the host.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed: the same seed gives the same inputs and outputs.
    pub seed: u64,
    /// How long the timed loop runs, seconds.
    pub seconds: f64,
    /// Cores on the host; fleet workloads split into `2 * nproc` shards.
    pub nproc: usize,
    /// Threads, or fleet worker processes, the timed parts run on.
    pub threads: usize,
    /// Scratch directory under `roambench/out` (checkpoints, CSV files).
    pub scratch: PathBuf,
    /// The repository's fleet worker binary, built next to this one.
    pub worker_bin: PathBuf,
}

impl Ctx {
    /// The context for world `k` of this run: the same settings on the
    /// input seed `seed * WORLDS + k`. Each seed builds a different
    /// world, and worlds differ in how much work a user costs (path
    /// lengths moved packet forwarding per user by 11% between two
    /// seeds), so a run cycles through [`WORLDS`] of them and its
    /// medians describe the mix rather than one draw.
    #[must_use]
    pub fn world(&self, k: usize) -> Ctx {
        Ctx {
            seed: self.seed.wrapping_mul(WORLDS as u64).wrapping_add(k as u64),
            ..self.clone()
        }
    }

    /// The shard execution mode for [`Ctx::threads`].
    #[must_use]
    pub fn mode(&self) -> roamsim::measure::RunMode {
        if self.threads <= 1 {
            roamsim::measure::RunMode::Sequential
        } else {
            roamsim::measure::RunMode::Parallel(self.threads)
        }
    }
}

/// Worlds (derived input seeds) each run cycles through.
pub const WORLDS: usize = 8;

/// Threads (or worker processes) the timed parts use. One: on a shared
/// two-core host the second core's speed swings between rounds, and a
/// two-thread rate moved 1.1–2.2× from round to round while a
/// one-thread rate held within ±8%.
pub const THREADS: usize = 1;

/// Paired runs behind each ratio of two whole runs in a traced run
/// (`trace.overhead_share`, `fleet.worker_tax_share`); the ratio is
/// their median.
pub const PAIRS: usize = 3;

/// A metric as printed: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand for building a [`Metric`].
#[must_use]
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What an untraced run measured: one entry per round (or set-up) for
/// each end-to-end metric, plus named series for the human-readable
/// report.
///
/// A workload pushes wall times (and rates per wall second) as it
/// measures them and closes each round with [`Measured::end_round`],
/// which puts the round's values at the quiet tuning host's speed.
#[derive(Default)]
pub struct Measured {
    /// Time per set-up at reference speed, seconds.
    pub setup_s: Vec<f64>,
    /// The workload's headline rate per round at reference speed, 1/s.
    pub rate: Vec<f64>,
    /// The workload's latency per round at reference speed, ms.
    pub latency_ms: Vec<f64>,
    /// Further series (`host_factor`, the raw wall-time series, …),
    /// reported with their quartiles on stderr.
    pub named: Vec<(String, &'static str, Vec<f64>)>,
    /// Lengths of `setup_s`, `rate` and `latency_ms` when the open round
    /// began.
    marks: [usize; 3],
    /// The host's slowdown read when the previous round closed, just
    /// before the open one began.
    before: Option<f64>,
}

impl Measured {
    /// Append one value to the named series `name`.
    pub fn push_named(&mut self, name: &str, unit: &'static str, value: f64) {
        match self.named.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, _, v)) => v.push(value),
            None => self.named.push((name.to_string(), unit, vec![value])),
        }
    }

    /// Close a round: read the host's slowdown ([`host::slowdown`]), and
    /// put every value the round pushed (its set-ups and its timed part)
    /// at reference speed, dividing times (and multiplying rates) by the
    /// round's host factor. That factor is the mean of this reading and
    /// the previous one, which closed the previous round just before
    /// this one began, so the two bracket the round; the first round has
    /// only its own. The raw values and the factor are kept as named
    /// series.
    pub fn end_round(&mut self) {
        let now = host::slowdown();
        let f = self.before.map_or(now, |b| (b + now) / 2.0);
        let [s0, r0, l0] = self.marks;
        for i in s0..self.setup_s.len() {
            let raw = self.setup_s[i];
            self.push_named("raw_setup_s", "s", raw);
            self.setup_s[i] = raw / f;
        }
        for i in r0..self.rate.len() {
            let raw = self.rate[i];
            self.push_named("raw_rate_per_s", "1/s", raw);
            self.rate[i] = raw * f;
        }
        for i in l0..self.latency_ms.len() {
            let raw = self.latency_ms[i];
            self.push_named("raw_latency_ms", "ms", raw);
            self.latency_ms[i] = raw / f;
        }
        self.push_named("host_factor", "x", f);
        self.push_named("host_reading", "x", now);
        self.marks = [self.setup_s.len(), self.rate.len(), self.latency_ms.len()];
        self.before = Some(now);
    }

    /// Rounds measured (each one an output-checked operation).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rate.len()
    }
}

/// Run `f`, returning its output and its wall time, seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// Repeat `round` (given the round index) until `seconds` have passed
/// and at least `min_rounds` rounds ran. The first error stops the loop.
///
/// # Errors
/// The first round's error.
pub fn timed_loop(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
        round(rounds)?;
        rounds += 1;
    }
    Ok(())
}

/// The median over `pairs` paired runs of `b`'s wall time over `a`'s,
/// and `a`'s walls. Each closure runs once per pair and returns its wall
/// seconds; the pairs alternate which side runs first, so warming
/// favours neither.
///
/// # Errors
/// The first error either side returns.
pub fn paired_ratio(
    pairs: usize,
    mut a: impl FnMut() -> Result<f64, String>,
    mut b: impl FnMut() -> Result<f64, String>,
) -> Result<(f64, Vec<f64>), String> {
    let mut ratios = Vec::with_capacity(pairs);
    let mut walls_a = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let (wa, wb) = if i % 2 == 0 {
            let wa = a()?;
            (wa, b()?)
        } else {
            let wb = b()?;
            (a()?, wb)
        };
        ratios.push(wb / wa);
        walls_a.push(wa);
    }
    Ok((stats::median(&ratios), walls_a))
}

/// Seconds elapsed since `t`.
#[must_use]
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a-64 digest of `bytes`, the repository's content hash.
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    roam_codec::hash64(bytes)
}

/// One output's digests over a run: one per world, each of which must
/// repeat exactly every time that world runs again.
pub struct Digests {
    workload: &'static str,
    what: &'static str,
    per_world: Vec<Option<u64>>,
}

impl Digests {
    #[must_use]
    pub fn new(workload: &'static str, what: &'static str, worlds: usize) -> Self {
        Digests {
            workload,
            what,
            per_world: vec![None; worlds],
        }
    }

    /// Record world `k`'s digest, or check it against the first one.
    ///
    /// # Errors
    /// A message naming the output and both digests.
    pub fn check(&mut self, k: usize, got: u64) -> Result<(), String> {
        match self.per_world[k] {
            Some(want) if want != got => Err(format!(
                "{}: {} digest {got:#018x} of world {k} differs from its first {want:#018x}",
                self.workload, self.what
            )),
            Some(_) => Ok(()),
            None => {
                self.per_world[k] = Some(got);
                Ok(())
            }
        }
    }

    /// World `k`'s digest, once it has run.
    #[must_use]
    pub fn get(&self, k: usize) -> Option<u64> {
        self.per_world[k]
    }

    /// The run's digest, FNV-1a-64 over the per-world digests in world
    /// order, checked against the pin for `seed` when one exists.
    ///
    /// # Errors
    /// A world that never ran, or a pin mismatch.
    pub fn finish(&self, seed: u64) -> Result<u64, String> {
        let mut bytes = Vec::with_capacity(8 * self.per_world.len());
        for (k, d) in self.per_world.iter().enumerate() {
            let d = d.ok_or_else(|| format!("{}: world {k} never ran", self.workload))?;
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        let got = digest(&bytes);
        eprintln!(
            "roambench: {} seed {seed} {} digest {got:#018x}",
            self.workload, self.what
        );
        pins::check(self.workload, seed, self.what, got)?;
        Ok(got)
    }
}

/// `ok` or an error naming the failed condition.
///
/// # Errors
/// `msg` when `ok` is false.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// A fresh, empty directory `name` under the scratch directory.
///
/// # Errors
/// The I/O error, as text.
pub fn fresh_dir(ctx: &Ctx, name: &str) -> Result<PathBuf, String> {
    let dir = ctx.scratch.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The cost ladder's three reconciliation metrics: predicted and
/// measured seconds, and the share of the measured time the prediction
/// leaves unexplained (negative when the ladder over-predicts).
#[must_use]
pub fn ladder(predicted_s: f64, measured_s: f64) -> Vec<Metric> {
    vec![
        metric("ladder.predicted_s", predicted_s, "s"),
        metric("ladder.measured_s", measured_s, "s"),
        metric(
            "ladder.unexplained_share",
            (measured_s - predicted_s) / measured_s,
            "ratio",
        ),
    ]
}

/// Tail metrics for a timing series: median, the highest percentile
/// with at least ten samples beyond it, that percentile, and the sample
/// count. With too few samples for any tail the median stands in.
#[must_use]
pub fn tail_metrics(prefix: &str, unit: &'static str, v: &[f64]) -> Vec<Metric> {
    let t = stats::tail(v).unwrap_or(stats::Tail {
        pct: 50.0,
        value: stats::median(v),
        samples: v.len(),
    });
    vec![
        metric(format!("{prefix}_p50_{unit}"), stats::median(v), unit),
        metric(format!("{prefix}_tail_{unit}"), t.value, unit),
        metric(format!("{prefix}_tail_pct"), t.pct, "pct"),
        metric(format!("{prefix}_samples"), t.samples as f64, "count"),
    ]
}

/// Is `name` a valid metric name: non-empty, starts with a letter or
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
