//! `run_fingerprint` folds a market of tens of thousands of offers, but
//! it hashes their encoding as it is written: beyond building the world
//! (with its own structural fingerprint) and the market, it allocates
//! nothing that grows with them.
//!
//! This test owns its binary because it installs a counting global
//! allocator. The allocator counts only on threads that switch
//! counting on, so the test harness's own threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use roam_econ::Market;
use roam_fleet::checkpoint::run_fingerprint;
use roam_fleet::FleetConfig;
use roam_netsim::FaultSpec;
use roam_telemetry::TelemetryMode;
use roam_world::World;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; counting touches only
// atomics and a thread-local without a destructor, and allocates
// nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes requested by `f` on this thread.
fn allocs_in(f: impl FnOnce()) -> (usize, usize) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (
        ALLOCS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}

/// What the fingerprint may allocate beyond its world and market: the
/// scratch buffers of its config and fault sections, which grow by
/// doubling to a few dozen bytes each (7 allocations, 272 B at seed 1),
/// whatever the market's size.
const EXTRA_ALLOCS: usize = 8;
const EXTRA_BYTES: usize = 1024;

#[test]
fn fingerprint_allocates_only_its_world_and_market() {
    let config = FleetConfig::default();
    for (seed, faults) in [(1, FaultSpec::heavy()), (2024, FaultSpec::off())] {
        let (inputs, input_bytes) = allocs_in(|| {
            std::hint::black_box(World::build(seed).fingerprint());
            std::hint::black_box(Market::generate(seed));
        });
        let (total, total_bytes) = allocs_in(|| {
            std::hint::black_box(run_fingerprint(
                seed,
                &config,
                TelemetryMode::Summary,
                &faults,
            ));
        });
        assert!(
            total <= inputs + EXTRA_ALLOCS && total_bytes <= input_bytes + EXTRA_BYTES,
            "seed {seed}: run_fingerprint made {total} allocations of {total_bytes} B; \
             its world and market alone make {inputs} of {input_bytes} B"
        );
    }
}
