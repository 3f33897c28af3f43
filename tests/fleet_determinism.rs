//! The fleet determinism contract: [`FleetReport::render`] is
//! byte-identical across shard counts and worker counts. Shard count
//! cannot matter because every shard starts from the same set-up network
//! and users only ever touch their own RNG streams; workers cannot matter
//! because shards merge in index order through exactly-associative
//! state. Only packet-walk RTTs, resolver lookups and drawn workload
//! sizes enter the report. (The test names still say "transports": the
//! transfer model used to be a third axis, and it has one value now.)

use roamsim::fleet::FleetRunner;
use roamsim::telemetry::TelemetryMode;

const SEED: u64 = 23;
const USERS: u64 = 1_500;

// shards × workers — every axis the report must be blind to.
const MATRIX: [(usize, usize); 4] = [(1, 1), (3, 1), (3, 4), (5, 2)];

#[test]
fn fleet_report_bytes_survive_shards_workers_and_transports() {
    let mut renders = Vec::new();
    for (shards, workers) in MATRIX {
        let run = FleetRunner::new(SEED)
            .users(USERS)
            .shards(shards)
            .parallel(workers)
            .run();
        assert_eq!(run.timings.len(), shards, "one timing per shard");
        renders.push((shards, workers, run.report.render()));
    }
    let (_, _, base) = &renders[0];
    // Not trivially empty: the whole population ran and every session
    // kind fired.
    assert!(base.contains(&format!("users                {USERS}")));
    assert!(!base.contains("count=0 "), "all metric sketches populated");
    for needle in ["rtt_probes", "dns_lookups", "transfers", "spend_usd"] {
        assert!(base.contains(needle), "report lost its {needle} line");
    }
    for (shards, workers, render) in &renders[1..] {
        assert_eq!(
            base, render,
            "fleet report diverged at shards={shards}, workers={workers}"
        );
    }
}

#[test]
fn telemetry_is_worker_and_transport_invariant_at_fixed_shards() {
    // Telemetry sees the shard structure (`shards_merged`), so unlike the
    // report it is only pinned across workers.
    let mut renders = Vec::new();
    for workers in [1, 4] {
        let run = FleetRunner::new(SEED)
            .users(400)
            .shards(2)
            .parallel(workers)
            .telemetry(TelemetryMode::Summary)
            .run();
        renders.push(run.telemetry.render());
    }
    assert!(renders[0].contains("fleet_users"));
    assert!(renders[0].contains("fleet_sessions"));
    assert!(renders[0].contains("fleet_purchases"));
    assert_eq!(renders[0], renders[1]);
}

#[test]
fn shards_partition_the_population_exactly() {
    // More shards than users degrades gracefully to one user per shard.
    let run = FleetRunner::new(7).users(3).shards(64).run();
    assert_eq!(run.timings.len(), 3);
    assert!(run.report.render().contains("users                3"));
}

/// The acceptance-scale run: a million subscribers in O(shards × sketch)
/// memory. Ignored by default (minutes in debug); CI exercises the same
/// path in release via the `fleet_smoke` job.
#[test]
#[ignore = "population-scale: run explicitly or via the CI fleet_smoke job"]
fn a_million_users_fit_through_the_streaming_plane() {
    let run = FleetRunner::new(SEED)
        .users(1_000_000)
        .shards(8)
        .parallel(4)
        .run();
    assert!(run.report.render().contains("users                1000000"));
}
