//! `run_fingerprint` folds a market of tens of thousands of offers, but
//! it hashes their encoding as it is written: beyond building the world
//! and the market, it allocates nothing that grows with them, and the
//! world's own structural fingerprint allocates nothing at all. Neither
//! does a ping on a cached route, with faults or telemetry on or off, nor
//! one whose every hop asks a fault calendar the plane already built.
//! Cloning a set-up network copies none of its topology.
//!
//! These tests own their binary because it installs a counting global
//! allocator. The allocator counts per thread, and only on threads that
//! switch counting on, so neither the test harness's own threads nor the
//! other tests running alongside disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use roam_econ::Market;
use roam_fleet::checkpoint::run_fingerprint;
use roam_fleet::FleetConfig;
use roam_geo::Country;
use roam_measure::Service;
use roam_netsim::FaultSpec;
use roam_telemetry::TelemetryMode;
use roam_world::World;

struct Counting;

thread_local! {
    /// Allocations and bytes counted on this thread; `None` when not
    /// counting.
    static COUNTS: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = COUNTS.try_with(|c| {
        if let Some((allocs, bytes)) = c.get() {
            c.set(Some((allocs + 1, bytes + size)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; counting touches only
// a thread-local without a destructor, and allocates nothing itself.
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
    COUNTS.with(|c| c.set(Some((0, 0))));
    f();
    COUNTS.with(|c| c.replace(None)).expect("counting was on")
}

/// What the fingerprint may allocate beyond its world and market: the
/// scratch buffers of its config and fault sections, which grow by
/// doubling to a few dozen bytes each (7 allocations, 272 B at seed 1),
/// whatever the market's size.
const EXTRA_ALLOCS: usize = 8;
const EXTRA_BYTES: usize = 1024;

/// What cloning `World::build(1)`'s network may allocate: its own maps
/// and recorder (4 allocations, 344 B), none of them sized by the
/// topology. A clone that deep-copied the 616-node topology made 1,664
/// allocations of 141 KB.
const CLONE_ALLOCS: usize = 8;
const CLONE_BYTES: usize = 1024;

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

#[test]
fn a_ping_on_a_cached_route_allocates_nothing() {
    let settings = [
        (
            "faults and telemetry off",
            FaultSpec::off(),
            TelemetryMode::Off,
        ),
        ("heavy faults", FaultSpec::heavy(), TelemetryMode::Off),
        (
            "summary telemetry",
            FaultSpec::off(),
            TelemetryMode::Summary,
        ),
    ];
    for (name, faults, mode) in settings {
        let mut world = World::build(7);
        world.net.set_faults(faults);
        world.net.set_telemetry_mode(mode);
        let ep = world.attach_esim(Country::PAK);
        let google = world
            .internet
            .targets
            .nearest(&world.net, Service::Google, ep.att.breakout_city)
            .expect("google edge");
        let _ = world.net.route(ep.att.ue, google);
        for _ in 0..100 {
            std::hint::black_box(world.net.ping(ep.att.ue, google));
        }
        let mut answered = 0;
        let (allocs, bytes) = allocs_in(|| {
            for _ in 0..1_000 {
                let pong = std::hint::black_box(world.net.ping(ep.att.ue, google));
                answered += usize::from(pong.is_some());
            }
        });
        assert!(answered > 0, "{name}: no ping was answered");
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "{name}: 1,000 warm pings made {allocs} allocations of {bytes} B"
        );
    }
}

#[test]
fn a_heavy_fault_ping_on_built_calendars_allocates_nothing() {
    // Every link flaps and every gateway takes outages and rebinds, so
    // each hop of each walk reads a calendar, and the routes' sparse
    // link and node ids spread over the plane's tables.
    let every_entity = FaultSpec {
        link_flap_rate: 1.0,
        gateway_outage_rate: 1.0,
        dns_blackhole_rate: 1.0,
        cgnat_rebind_rate: 1.0,
        ..FaultSpec::heavy()
    };
    let mut world = World::build(7);
    world.net.set_faults(every_entity);
    let mut pairs = Vec::new();
    for country in [Country::PAK, Country::DEU, Country::KOR, Country::USA] {
        let ep = world.attach_esim(country);
        for service in [Service::Google, Service::Facebook, Service::YouTube] {
            let target = world
                .internet
                .targets
                .nearest(&world.net, service, ep.att.breakout_city)
                .expect("service edge");
            pairs.push((ep.att.ue, target));
        }
    }
    for &(ue, target) in &pairs {
        let _ = world.net.route(ue, target);
        for _ in 0..100 {
            std::hint::black_box(world.net.ping(ue, target));
        }
    }
    let drops = world.net.fault_drops();
    let mut answered = 0;
    let (allocs, bytes) = allocs_in(|| {
        for _ in 0..100 {
            for &(ue, target) in &pairs {
                let pong = std::hint::black_box(world.net.ping(ue, target));
                answered += usize::from(pong.is_some());
            }
        }
    });
    assert!(answered > 0, "no ping was answered");
    assert!(
        world.net.fault_drops() > drops,
        "no gateway window dropped a counted ping"
    );
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "{} warm pings over built calendars made {allocs} allocations of {bytes} B",
        100 * pairs.len()
    );
}

#[test]
fn a_world_fingerprint_allocates_nothing() {
    for seed in [1, 2024] {
        let world = World::build(seed);
        let (allocs, bytes) = allocs_in(|| {
            std::hint::black_box(world.fingerprint());
        });
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "seed {seed}: World::fingerprint made {allocs} allocations of {bytes} B"
        );
    }
}

#[test]
fn cloning_a_set_up_network_copies_no_topology() {
    let world = World::build(1);
    let (allocs, bytes) = allocs_in(|| {
        std::hint::black_box(world.net.clone());
    });
    assert!(
        allocs <= CLONE_ALLOCS && bytes <= CLONE_BYTES,
        "cloning a {}-node network made {allocs} allocations of {bytes} B",
        world.net.node_count()
    );
}
