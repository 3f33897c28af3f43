//! The fleet session sink: per-session `Dataset::Sessions` rows
//! streamed through the redesigned export surface.
//!
//! Pins the contract of `FleetRunner::sink`:
//!
//! * the row stream is byte-identical across shard counts and thread
//!   counts (shards own contiguous ascending user ranges and stream in
//!   shard-index order, so the merged stream is user order);
//! * a columnar sink builds the same table the CSV sink renders;
//! * the sink refuses execution shapes that cannot carry records
//!   (worker processes, checkpointing).

use roam_fleet::{FleetConfigError, FleetRunner};
use roam_measure::{ColumnarSink, Dataset, MemorySink, SharedSink};
use roam_netsim::FaultSpec;
use std::sync::{Arc, Mutex};

const USERS: u64 = 150;
const DAYS: u32 = 5;

fn runner(shards: usize, parallel: usize) -> FleetRunner {
    FleetRunner::new(42)
        .users(USERS)
        .days(DAYS)
        .shards(shards)
        .parallel(parallel)
}

/// Run the fleet with a `MemorySink` and return the sessions CSV.
fn sessions_csv(shards: usize, parallel: usize) -> String {
    sink_csv(runner(shards, parallel))
}

/// Run `runner` with a `MemorySink` and return the sessions CSV.
fn sink_csv(runner: FleetRunner) -> String {
    let sink = Arc::new(Mutex::new(MemorySink::with_datasets(&[Dataset::Sessions])));
    let shared: SharedSink = sink.clone();
    let run = runner.sink(shared).run();
    assert!(!run.halted);
    assert!(run.report.sessions > 0, "fixture must produce sessions");
    let sink = Arc::try_unwrap(sink)
        .expect("runner dropped its sink handle")
        .into_inner()
        .expect("sink lock");
    sink.table(Dataset::Sessions)
        .expect("sessions table registered")
        .to_string()
}

#[test]
fn session_stream_is_invariant_across_shards_and_threads() {
    let baseline = sessions_csv(1, 1);
    assert!(baseline.lines().count() > 1, "rows expected: {baseline}");
    for (shards, parallel) in [(4, 1), (4, 4), (3, 2)] {
        assert_eq!(
            sessions_csv(shards, parallel),
            baseline,
            "shards={shards} parallel={parallel}"
        );
    }
}

/// FNV-1a-64 digests of the sessions CSV, faults off and
/// `FaultSpec::heavy()`. Row counts alone would let a metric move
/// between columns or a failed session change status unnoticed.
#[test]
fn session_stream_digests_are_pinned() {
    for (name, faults, want) in [
        ("off", FaultSpec::off(), 0xaa7b_239b_4dac_b495u64),
        ("heavy", FaultSpec::heavy(), 0x1abf_b0f0_0f38_4e40),
    ] {
        let csv = sink_csv(runner(2, 2).faults(faults));
        let failed = csv.lines().filter(|l| !l.ends_with(",ok")).count() - 1;
        assert_eq!(failed > 0, name == "heavy", "{name}: {failed} non-ok rows");
        let got = roam_codec::hash64(csv.as_bytes());
        assert_eq!(got, want, "{name}: sessions digest moved: {got:#018x}");
    }
}

#[test]
fn every_session_lands_in_the_stream() {
    let csv = sessions_csv(2, 2);
    let run = runner(2, 2).run();
    let rows = csv.lines().count() - 1;
    // Delivered + failed sessions stream; `NoTarget` scenario gaps are
    // the only sessions that stay out, and this fixture has none (every
    // measured country resolves a Google target).
    assert_eq!(rows as u64, run.report.sessions);
}

#[test]
fn columnar_and_csv_sinks_render_identical_tables() {
    let columnar = Arc::new(Mutex::new(ColumnarSink::new()));
    let shared: SharedSink = columnar.clone();
    let run = runner(3, 2).sink(shared).run();
    assert!(!run.halted);
    let table = Arc::try_unwrap(columnar)
        .expect("runner dropped its sink handle")
        .into_inner()
        .expect("sink lock")
        .into_table(Dataset::Sessions)
        .expect("sessions table");
    let mut rendered = Dataset::Sessions.header_csv();
    roam_columnar::render_csv(&table, &mut rendered);
    assert_eq!(rendered, sessions_csv(1, 1));

    // And the frame round-trips into a queryable zero-copy view.
    let frame = table.to_frame();
    let view = roam_columnar::TableView::parse_frame(&frame).expect("frame parses");
    let mut reread = Dataset::Sessions.header_csv();
    roam_columnar::render_csv(&view, &mut reread);
    assert_eq!(reread, rendered);
}

#[test]
#[should_panic(expected = "session sink requires the in-process backend")]
fn sink_refuses_worker_processes() {
    let sink: SharedSink = Arc::new(Mutex::new(MemorySink::new()));
    let _ = runner(2, 1).workers(2).sink(sink).run();
}

#[test]
#[should_panic(expected = "session sink is incompatible with checkpointing")]
fn sink_refuses_checkpointing() {
    let sink: SharedSink = Arc::new(Mutex::new(MemorySink::new()));
    let _ = runner(2, 1)
        .checkpoint_dir("/tmp/roam-sink-refuses-checkpointing")
        .sink(sink)
        .run();
}

#[test]
fn try_run_returns_typed_config_errors() {
    // The same contradictions `run()` panics on come back as typed,
    // matchable values from `try_run()`, before anything executes.
    let sink: SharedSink = Arc::new(Mutex::new(MemorySink::new()));
    let err = runner(2, 1)
        .workers(3)
        .sink(sink)
        .try_run()
        .err()
        .expect("sink + workers must refuse");
    assert!(
        matches!(
            err,
            roam_fleet::FleetError::Config(FleetConfigError::SinkWithWorkers { workers: 3 })
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("workers == 3"), "{err}");

    let sink: SharedSink = Arc::new(Mutex::new(MemorySink::new()));
    let err = runner(2, 1)
        .checkpoint_dir("/tmp/roam-sink-try-run-checkpointing")
        .sink(sink)
        .try_run()
        .err()
        .expect("sink + checkpointing must refuse");
    assert!(
        matches!(
            err,
            roam_fleet::FleetError::Config(FleetConfigError::SinkWithCheckpoint)
        ),
        "{err:?}"
    );
    // Nothing ran and nothing was written: the refusal is pre-flight.
    assert!(!std::path::Path::new("/tmp/roam-sink-try-run-checkpointing").exists());
}

#[test]
fn validate_accepts_compatible_shapes() {
    let sink: SharedSink = Arc::new(Mutex::new(MemorySink::new()));
    assert_eq!(runner(2, 2).sink(sink).validate(), Ok(()));
    // Workers + checkpointing without a sink is the supported
    // kill-tolerant shape.
    assert_eq!(
        runner(2, 1).workers(2).checkpoint_dir("/tmp/x").validate(),
        Ok(())
    );
}
