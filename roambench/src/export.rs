//! The `export-query` workload. Set-up: one `UserBatch` with
//! `record_sessions` produces the session records. Timed writes: stream
//! them through `SessionRows` into a `ColumnarSink` and seal the table
//! with `Table::to_frame`. Timed reads: reopen with
//! `TableView::parse_frame` and answer a fixed five-query set. The
//! answers must equal a direct fold over the records.

use crate::fleet::{cost_metrics, DAYS};
use crate::layers;
use crate::trace::Tracer;
use crate::{
    digest, ensure, ladder, metric, paired_ratio, timed, timed_loop, Ctx, Digests, Measured,
    Metric,
};
use roamsim::columnar::{ColumnarSource, Query, Table, TableView};
use roamsim::fleet::{FleetConfig, SessionRecord, SessionRows, UserBatch};
use roamsim::measure::{status_code, tag_cells, CellValue, ColumnarSink, Dataset, Exporter};
use roamsim::netsim::FaultSpec;
use roamsim::stats::QuantileSketch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Users whose sessions feed the table (about 82 000 sessions).
pub const EXPORT_USERS: u64 = 12_000;
/// Rows of the table: the first sessions of the batch. A fixed row
/// count keeps the table, and the memory its builders grow to, the same
/// size for every seed.
pub const EXPORT_ROWS: usize = 60_000;
/// The five queries, by the names their per-layer timings use.
pub const QUERIES: [&str; 5] = ["country_rtt", "arch_dns", "status", "transfer_mb", "rat"];
/// Rounds between two timed set-ups. `setup_s` is their median
/// over the run; spread over its whole window, a brief host slowdown
/// moves it little.
const SETUP_EVERY: usize = 10;
/// Pairs of untraced and traced passes behind `trace.overhead_share`.
/// A pass takes about a tenth of a second, so more fit than
/// [`crate::PAIRS`].
const PASS_PAIRS: usize = 9;

const RTT_SKETCH: (f64, f64, u32) = (0.5, 2_000.0, 10);
const MB_SKETCH: (f64, f64, u32) = (0.01, 10_000.0, 10);

/// Generate the session records (the set-up): the batch's first
/// [`EXPORT_ROWS`] sessions.
///
/// # Errors
/// A batch that produced fewer sessions.
pub fn records(ctx: &Ctx) -> Result<Vec<SessionRecord>, String> {
    let config = FleetConfig {
        days: DAYS,
        ..FleetConfig::default()
    };
    let mut sessions = UserBatch {
        shards: 2 * ctx.nproc,
        mode: ctx.mode(),
        record_sessions: true,
        ..UserBatch::new(ctx.seed, config, 0, EXPORT_USERS)
    }
    .run()
    .sessions;
    ensure(sessions.len() >= EXPORT_ROWS, || {
        format!(
            "export-query: the batch made {} sessions, fewer than {EXPORT_ROWS}",
            sessions.len()
        )
    })?;
    sessions.truncate(EXPORT_ROWS);
    Ok(sessions)
}

/// Ingest the records into a columnar table (the write side, unsealed).
#[must_use]
pub fn ingest(records: &[SessionRecord]) -> Table {
    let mut sink = ColumnarSink::new();
    SessionRows(records).export_rows(Dataset::Sessions, &mut sink);
    sink.into_table(Dataset::Sessions).unwrap_or_else(|| {
        roamsim::columnar::TableBuilder::new(Dataset::Sessions.schema().clone()).finish()
    })
}

fn sketch_line(out: &mut String, what: &str, key: &str, s: &QuantileSketch) {
    let buckets: Vec<u8> = s.buckets().iter().flat_map(|b| b.to_le_bytes()).collect();
    let _ = writeln!(
        out,
        "{what} {key} n={} dropped={} buckets={:016x}",
        s.count(),
        s.dropped(),
        digest(&buckets)
    );
}

fn values_line(out: &mut String, key: &str, v: &[f64]) {
    let bits: Vec<u8> = v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    let _ = writeln!(
        out,
        "arch_dns {key} n={} values={:016x}",
        v.len(),
        digest(&bits)
    );
}

/// Run one query of the set against `src`, appending its canonical
/// answer lines to `out`.
pub fn query<S: ColumnarSource>(src: &S, which: &str, out: &mut String) {
    let q = Query::new(src);
    match which {
        "country_rtt" => {
            let (lo, hi, d) = RTT_SKETCH;
            for g in q.group_sketch("country", "rtt_ms", lo, hi, d) {
                sketch_line(out, which, g.key.label(), &g.value);
            }
        }
        "arch_dns" => {
            for g in q.group_values("arch", "lookup_ms") {
                values_line(out, &g.key.code().to_string(), &g.value);
            }
        }
        "status" | "rat" => {
            for g in q.group_count(which) {
                let _ = writeln!(out, "{which} {} {}", g.key.code(), g.value);
            }
        }
        "transfer_mb" => {
            let (lo, hi, d) = MB_SKETCH;
            sketch_line(out, which, "all", &q.sketch("mb", lo, hi, d));
        }
        _ => unreachable!("unknown query {which}"),
    }
}

/// All five answers from the table.
pub fn answers<S: ColumnarSource>(src: &S) -> String {
    let mut out = String::new();
    for q in QUERIES {
        query(src, q, &mut out);
    }
    out
}

fn code_of(c: &CellValue<'_>) -> u32 {
    match c {
        CellValue::Code(v) => u32::from(*v),
        _ => unreachable!("tag enum cells are codes"),
    }
}

/// The same five answers folded directly over the records, without the
/// columnar layer: the reference the table's answers must equal.
#[must_use]
pub fn direct_answers(records: &[SessionRecord]) -> String {
    let finite = |v: Option<f64>| v.filter(|x| x.is_finite());
    let (lo, hi, d) = RTT_SKETCH;
    let mut rtt: BTreeMap<&str, QuantileSketch> = BTreeMap::new();
    let mut dns: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    let mut status: BTreeMap<u32, u64> = BTreeMap::new();
    let mut rat: BTreeMap<u32, u64> = BTreeMap::new();
    let (mlo, mhi, md) = MB_SKETCH;
    let mut mb = QuantileSketch::log_spaced(mlo, mhi, md);
    for r in records {
        let [country, _, arch, rat_cell] = tag_cells(&r.tag);
        if let Some(v) = finite(r.rtt_ms) {
            let CellValue::Str(Some(c)) = country else {
                unreachable!("country cells are labels")
            };
            rtt.entry(c)
                .or_insert_with(|| QuantileSketch::log_spaced(lo, hi, d))
                .observe(v);
        }
        if let Some(v) = finite(r.lookup_ms) {
            dns.entry(code_of(&arch)).or_default().push(v);
        }
        *status.entry(u32::from(status_code(r.status))).or_default() += 1;
        *rat.entry(code_of(&rat_cell)).or_default() += 1;
        if let Some(v) = finite(r.mb) {
            mb.observe(v);
        }
    }
    let mut out = String::new();
    for (k, s) in &rtt {
        sketch_line(&mut out, "country_rtt", k, s);
    }
    for (k, v) in &dns {
        values_line(&mut out, &k.to_string(), v);
    }
    for (k, n) in &status {
        let _ = writeln!(out, "status {k} {n}");
    }
    sketch_line(&mut out, "transfer_mb", "all", &mb);
    for (k, n) in &rat {
        let _ = writeln!(out, "rat {k} {n}");
    }
    out
}

/// Untraced `export-query`: rounds of ingest + seal (timed writes) and
/// reopen + five queries (timed reads), with a timed set-up (session
/// generation) before the first round and every [`SETUP_EVERY`] rounds.
///
/// # Errors
/// The first failed output check.
pub fn export_query(ctx: &Ctx) -> Result<Measured, String> {
    const W: &str = "export-query";
    let seed = ctx.seed;
    let ctx = &ctx.world(0);
    let mut m = Measured::default();
    let mut recs = Vec::new();
    let mut answers_digest = Digests::new(W, "answers", 1);
    let mut setup = |m: &mut Measured, recs: &mut Vec<SessionRecord>| {
        // Free the previous copy first, so set-ups never hold two.
        drop(std::mem::take(recs));
        let (r, setup) = timed(|| records(ctx));
        *recs = r?;
        m.setup_s.push(setup);
        answers_digest.check(0, digest(direct_answers(recs).as_bytes()))
    };
    setup(&mut m, &mut recs)?;
    ensure(!recs.is_empty(), || {
        format!("{W}: the batch produced no sessions")
    })?;
    let expected = direct_answers(&recs);
    let rows = recs.len() as f64;
    timed_loop(ctx.seconds, 3, |round| {
        if round > 0 && round % SETUP_EVERY == 0 {
            setup(&mut m, &mut recs)?;
        }
        let (frame, write_s) = timed(|| ingest(&recs).to_frame());
        let (read, read_s) =
            timed(|| TableView::parse_frame(&frame).map(|view| (view.rows(), answers(&view))));
        let (got_rows, got) = read.map_err(|e| format!("{W}: reopen: {e}"))?;
        ensure(got_rows as f64 == rows, || {
            format!("{W}: the table lost rows")
        })?;
        ensure(got == expected, || {
            format!("{W}: query answers differ from the direct fold:\n{got}\nvs\n{expected}")
        })?;
        m.rate.push(rows / write_s);
        m.latency_ms.push(read_s * 1e3);
        m.end_round();
        let read_ms = m.latency_ms.last().copied().expect("pushed above");
        m.push_named(
            "query_rows_per_s",
            "rows/s",
            rows * QUERIES.len() as f64 * 1e3 / read_ms,
        );
        Ok(())
    })?;
    answers_digest.finish(seed)?;
    Ok(m)
}

/// Seconds of each phase of one traced pass.
struct Phases {
    ingest_s: f64,
    seal_s: f64,
    parse_s: f64,
    query_s: [f64; 5],
}

impl Phases {
    fn total_s(&self) -> f64 {
        self.ingest_s + self.seal_s + self.parse_s + self.query_s.iter().sum::<f64>()
    }
}

/// Ingest, seal, reopen and query `recs` with spans; returns the
/// per-phase seconds and the frame size.
fn phases(
    recs: &[SessionRecord],
    expected: &str,
    tracer: &mut Tracer,
) -> Result<(Phases, usize), String> {
    let n = recs.len() as u64;
    let table = tracer.span("columnar.ingest", n, |_| ingest(recs));
    let ingest_s = tracer.last_s("columnar.ingest");
    let frame = tracer.span("codec.seal", 1, |_| table.to_frame());
    let seal_s = tracer.last_s("codec.seal");
    let view = tracer
        .span("codec.parse", 1, |_| TableView::parse_frame(&frame))
        .map_err(|e| format!("export-query: reopen: {e}"))?;
    let parse_s = tracer.last_s("codec.parse");
    let mut got = String::new();
    let mut query_s = [0.0; 5];
    for (i, q) in QUERIES.iter().enumerate() {
        tracer.span(&format!("columnar.query.{q}"), n, |_| {
            query(&view, q, &mut got)
        });
        query_s[i] = tracer.last_s(&format!("columnar.query.{q}"));
    }
    ensure(got == expected, || {
        "export-query: traced answers differ".to_string()
    })?;
    let phases = Phases {
        ingest_s,
        seal_s,
        parse_s,
        query_s,
    };
    Ok((phases, frame.len()))
}

/// Traced `export-query`: layer costs; [`PASS_PAIRS`] pairs of the
/// whole pass untraced and with per-phase spans, whose wall ratio is the
/// trace overhead and whose traced phases (medians) are the per-layer
/// timings; then per-row costs on an eighth of the table, from which the
/// ladder predicts the full table.
///
/// # Errors
/// A failed output check.
pub fn export_query_traced(ctx: &Ctx, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let ctx = &ctx.world(0);
    let costs = layers::measure(ctx.seed, FaultSpec::off(), DAYS, tracer);
    let recs = tracer.span("fleet.user_batch", EXPORT_USERS, |_| records(ctx))?;
    let expected = direct_answers(&recs);
    let rows = recs.len() as f64;

    let mut traced = Vec::with_capacity(PASS_PAIRS);
    let mut frame_len = 0;
    let (overhead, plain_walls) = paired_ratio(
        PASS_PAIRS,
        || {
            let (got, wall) = timed(|| {
                let frame = ingest(&recs).to_frame();
                TableView::parse_frame(&frame).map(|view| answers(&view))
            });
            let got = got.map_err(|e| format!("export-query: reopen: {e}"))?;
            ensure(got == expected, || {
                "export-query: answers differ".to_string()
            })?;
            Ok(wall)
        },
        || {
            let (p, len) = tracer.span("export.round", recs.len() as u64, |t| {
                phases(&recs, &expected, t)
            })?;
            frame_len = len;
            traced.push(p);
            Ok(tracer.last_s("export.round"))
        },
    )?;
    // Per-row cost on the slice, warm after the passes: the median of as
    // many slice passes as there were pairs.
    let slice = &recs[..recs.len() / 8];
    let slice_expected = direct_answers(slice);
    let mut slice_s = Vec::with_capacity(PASS_PAIRS);
    for _ in 0..PASS_PAIRS {
        let (s, _) = tracer.span("ladder.slice", slice.len() as u64, |t| {
            phases(slice, &slice_expected, t)
        })?;
        slice_s.push(s.total_s());
    }
    let per_row = crate::stats::median(&slice_s) / slice.len().max(1) as f64;

    let med =
        |f: &dyn Fn(&Phases) -> f64| crate::stats::median(&traced.iter().map(f).collect::<Vec<_>>());
    let (ingest_s, seal_s, parse_s) = (
        med(&|p| p.ingest_s),
        med(&|p| p.seal_s),
        med(&|p| p.parse_s),
    );
    let frame_mb = frame_len as f64 / 1e6;

    let mut out = cost_metrics(&costs);
    out.extend([
        metric("columnar.rows", rows, "count"),
        metric("columnar.ingest_ns_per_row", ingest_s * 1e9 / rows, "ns"),
        metric("codec.frame_mb", frame_mb, "MB"),
        metric("codec.seal_mb_per_s", frame_mb / seal_s, "MB/s"),
        metric("codec.parse_ms", parse_s * 1e3, "ms"),
        metric("trace.overhead_share", overhead - 1.0, "ratio"),
    ]);
    for (i, q) in QUERIES.iter().enumerate() {
        let ms = med(&|p| p.query_s[i]) * 1e3;
        out.push(metric(format!("columnar.query_ms.{q}"), ms, "ms"));
    }
    out.extend(ladder(
        per_row * rows,
        crate::stats::median(&plain_walls),
    ));
    Ok(out)
}
