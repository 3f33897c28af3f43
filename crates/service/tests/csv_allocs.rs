//! The agent's CSV path allocates nothing per row: once the `String`
//! sink or the `CsvFile` write buffer is warm, rendering
//! `Dataset::Sessions` rows, floats included, must not touch the heap.
//!
//! This test owns its binary because it installs a counting global
//! allocator. The allocator counts per thread, and only on threads that
//! switch counting on, so the test harness's own threads do not disturb
//! it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use roam_cellular::{Rat, SimType};
use roam_fleet::{SessionKind, SessionRecord, SessionRows};
use roam_geo::Country;
use roam_ipx::RoamingArch;
use roam_measure::campaign::RecordTag;
use roam_measure::{Dataset, Exporter, MeasureStatus};
use roam_service::CsvFile;

struct Counting;

thread_local! {
    /// Allocations counted on this thread; `None` when not counting.
    static ALLOCS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    let _ = ALLOCS.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; counting touches only
// a thread-local without a destructor, and allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocs_in(f: impl FnOnce()) -> usize {
    ALLOCS.with(|c| c.set(Some(0)));
    f();
    ALLOCS.with(|c| c.replace(None)).expect("counting was on")
}

/// Session records of every kind, delivered and failed, with metrics on
/// both of the float writer's paths (0.0005 ms is a near tie at three
/// digits, so it takes std's exact formatter).
fn records(n: u32) -> Vec<SessionRecord> {
    (0..n)
        .map(|i| {
            let kind = [SessionKind::Rtt, SessionKind::Dns, SessionKind::Transfer][i as usize % 3];
            let metric = [
                Some(f64::from(i) * 0.173 + 12.5),
                None,
                Some(0.0005),
                Some(f64::from(i) / 7.0),
            ][i as usize % 4];
            SessionRecord {
                tag: RecordTag {
                    country: Country::MEASURED[i as usize % Country::MEASURED.len()],
                    sim_type: SimType::Esim,
                    arch: RoamingArch::HomeRouted,
                    rat: Rat::Lte,
                },
                kind,
                rtt_ms: metric.filter(|_| kind == SessionKind::Rtt),
                lookup_ms: metric.filter(|_| kind == SessionKind::Dns),
                mb: metric.filter(|_| kind == SessionKind::Transfer),
                status: if metric.is_some() {
                    MeasureStatus::Ok
                } else {
                    MeasureStatus::Timeout
                },
            }
        })
        .collect()
}

#[test]
fn session_rows_into_a_warm_string_allocate_nothing() {
    let rows = records(5_000);
    let mut out = String::new();
    SessionRows(&rows).export_rows(Dataset::Sessions, &mut out);
    let len = out.len();
    out.clear();
    let allocs = allocs_in(|| SessionRows(&rows).export_rows(Dataset::Sessions, &mut out));
    assert_eq!(allocs, 0, "5000 session rows allocated {allocs} times");
    assert_eq!(out.len(), len, "the counted pass renders the same rows");
}

#[test]
fn session_rows_into_a_warm_csv_file_allocate_nothing() {
    let dir = std::env::temp_dir().join(format!("roam-csv-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sessions.csv");
    let rows = records(5_000);
    let mut sink = CsvFile::create(&path, Dataset::Sessions).unwrap();
    SessionRows(&rows).export_rows(Dataset::Sessions, &mut sink);
    let warm = sink.sync().unwrap();
    // About 150 KB of rows: the write buffer flushes to the file at
    // least once inside the count.
    let allocs = allocs_in(|| SessionRows(&rows).export_rows(Dataset::Sessions, &mut sink));
    let total = sink.sync().unwrap();
    drop(sink);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(allocs, 0, "5000 session rows allocated {allocs} times");
    assert!(total - warm > 64 * 1024, "the count covers a buffer flush");
    assert_eq!(text.len() as u64, total);
    assert_eq!(text.lines().count(), 1 + 2 * rows.len());
}
