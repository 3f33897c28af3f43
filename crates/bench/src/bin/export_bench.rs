//! Export + analyze throughput: the columnar path against the CSV path,
//! end to end, on one fleet's streamed session table.
//!
//! One in-process fleet run streams its sessions into a columnar sink
//! (`ROAM_FLEET_USERS` sizes it; the CI gate runs 100k users). Both
//! pipelines then start from that same table:
//!
//! - **export** — produce the artifact bytes: the rendered CSV table vs
//!   the sealed `roam-codec` frame (`Table::to_frame`).
//! - **analyze** — answer one query from the artifact: mean RTT of
//!   delivered `rtt` sessions. The CSV side re-parses its text (line
//!   split, field split, float parse — the sessions table never quotes,
//!   so a comma split is a correct parser here); the columnar side
//!   reopens the frame zero-copy (`TableView::parse_frame`) and runs
//!   the streaming query engine over the pages.
//!
//! Both sides must produce the same answer (asserted) — the race is
//! fair by construction. Stderr carries machine-parseable lines; the CI
//! export gate reads `export_bench_speedup`:
//!
//! ```text
//! export_bench_csv_mb_per_sec: …        # CSV bytes rendered / sec
//! export_bench_columnar_mb_per_sec: …   # frame bytes sealed / sec
//! export_bench_export_speedup: …        # csv render time / frame seal time
//! export_bench_analyze_speedup: …       # csv parse+scan time / view+query time
//! export_bench_speedup: …               # end-to-end (export + analyze) ratio
//! ```

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use roam_columnar::{csv_header, render_csv, Query, TableView};
use roam_fleet::FleetRunner;
use roam_measure::{ColumnarSink, Dataset, SharedSink};

/// `MeasureStatus::is_ok` as status labels.
const DELIVERED: [&str; 2] = ["ok", "failover"];

/// Best wall time of three runs of `f`, with the result of the last.
fn best_of_three<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let started = Instant::now();
        let v = black_box(f());
        best = best.min(started.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("three runs"))
}

fn main() {
    let sink = Arc::new(Mutex::new(ColumnarSink::new()));
    let runner = FleetRunner::from_env(42).sink(sink.clone() as SharedSink);
    let users = runner.population();
    let run = runner.run();
    drop(runner);
    let sessions = Arc::try_unwrap(sink)
        .expect("runner releases its sink handle after run()")
        .into_inner()
        .expect("sink not poisoned")
        .into_table(Dataset::Sessions)
        .expect("fleet runs record sessions");
    println!(
        "export_bench: {} sessions from {} users ({} report-byte run)",
        run.report.sessions,
        users,
        run.report.render().len()
    );

    // ---- export: artifact bytes from the same table ---------------------
    let (csv_export_s, csv) = best_of_three(|| {
        let mut out = csv_header(&sessions);
        render_csv(&sessions, &mut out);
        out
    });
    let (col_export_s, frame) = best_of_three(|| sessions.to_frame());
    let csv_mb = csv.len() as f64 / 1e6;
    let col_mb = frame.len() as f64 / 1e6;
    println!(
        "export: CSV {:.1} MB in {:.3}s, frame {:.1} MB in {:.3}s",
        csv_mb, csv_export_s, col_mb, col_export_s
    );

    // ---- analyze: mean delivered rtt from the artifact ------------------
    let (csv_analyze_s, csv_answer) = best_of_three(|| {
        let mut sum = 0.0;
        let mut n = 0u64;
        for line in csv.lines().skip(1) {
            let mut fields = line.split(',');
            let kind = fields.nth(4).expect("kind column");
            if kind != "rtt" {
                continue;
            }
            let rtt = fields.next().expect("rtt_ms column");
            let status = fields.nth(2).expect("status column");
            if !DELIVERED.contains(&status) || rtt.is_empty() {
                continue;
            }
            sum += rtt.parse::<f64>().expect("well-formed float");
            n += 1;
        }
        (sum / n as f64, n)
    });
    let (col_analyze_s, col_answer) = best_of_three(|| {
        let view = TableView::parse_frame(&frame).expect("sealed frame parses");
        let v = Query::new(&view)
            .eq("kind", "rtt")
            .any_of("status", &DELIVERED)
            .values("rtt_ms");
        (v.iter().sum::<f64>() / v.len() as f64, v.len() as u64)
    });
    assert_eq!(csv_answer.1, col_answer.1, "row counts diverged");
    // CSV rounds every value to the column's 3 decimals; the frame keeps
    // the exact bits. Agreement to the rendered precision is the most the
    // text artifact can promise.
    assert!(
        (csv_answer.0 - col_answer.0).abs() < 5e-4,
        "answers diverged: csv {} vs columnar {}",
        csv_answer.0,
        col_answer.0
    );
    println!(
        "analyze: mean delivered rtt {:.3} ms over {} rows — CSV {:.3}s, columnar {:.3}s",
        col_answer.0, col_answer.1, csv_analyze_s, col_analyze_s
    );

    let export_speedup = csv_export_s / col_export_s;
    let analyze_speedup = csv_analyze_s / col_analyze_s;
    let total_speedup = (csv_export_s + csv_analyze_s) / (col_export_s + col_analyze_s);
    eprintln!("export_bench_csv_mb_per_sec: {:.1}", csv_mb / csv_export_s);
    eprintln!(
        "export_bench_columnar_mb_per_sec: {:.1}",
        col_mb / col_export_s
    );
    eprintln!("export_bench_export_speedup: {export_speedup:.2}");
    eprintln!("export_bench_analyze_speedup: {analyze_speedup:.2}");
    eprintln!("export_bench_speedup: {total_speedup:.2}");
}
