//! The write path allocates nothing per cell: once a chunk's first row
//! has reserved its pages, pushing rows whose dictionary labels are
//! already interned must not touch the heap.
//!
//! This test owns its binary because it installs a counting global
//! allocator. The allocator counts per thread, and only on threads that
//! switch counting on, so the test harness's own threads do not disturb
//! it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use roam_columnar::{field, CellValue, ColKind, ColumnarSource, Schema, TableBuilder, CHUNK_ROWS};

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

const LABELS: [&str; 4] = ["PAK", "ARE", "say \"hi\"", "x,y"];

fn push(b: &mut TableBuilder, i: usize) {
    let n = u32::try_from(i).expect("row index fits u32");
    b.push_row(&[
        CellValue::Str((i % 5 != 4).then_some(LABELS[i % LABELS.len()])),
        CellValue::U32([None, Some(n), Some(n)][i % 3]),
        CellValue::U32(Some(n.wrapping_mul(2_654_435_761))),
        CellValue::F64([Some(1.5), None, Some(f64::NAN)][i % 3]),
        CellValue::Code((i % 2) as u8),
        CellValue::Code((i % 4) as u8),
    ]);
}

#[test]
fn pushing_interned_rows_allocates_nothing() {
    let mut b = TableBuilder::new(Schema::new(vec![
        field("country", ColKind::Dict),
        field("n", ColKind::U32),
        field("ip", ColKind::Ipv4),
        field("ms", ColKind::F64 { prec: 3 }),
        field("sim", ColKind::enumeration(&["physical", "esim"])),
        field(
            "status",
            ColKind::enumeration(&["ok", "failover", "timeout", "unreachable"]),
        ),
    ]));
    // The first chunk interns every label; the second chunk's first row
    // reserves its pages. Its last row seals the chunk, which may
    // allocate, so it is pushed outside the count.
    for i in 0..=CHUNK_ROWS {
        push(&mut b, i);
    }
    let last = 2 * CHUNK_ROWS - 1;
    let allocs = allocs_in(|| {
        for i in CHUNK_ROWS + 1..last {
            push(&mut b, i);
        }
    });
    assert_eq!(
        allocs,
        0,
        "{} rows with interned labels allocated {allocs} times",
        last - CHUNK_ROWS - 1
    );
    push(&mut b, last);
    assert_eq!(b.finish().rows(), 2 * CHUNK_ROWS as u64);
}
