//! The worker-fault chaos plane contract: a supervised fleet run under
//! injected worker faults — crashes, stalls, torn result frames,
//! spurious nonzero exits — and under *external* SIGKILLs must end in
//! exactly the bytes of a clean run. Recovery is real work (respawns,
//! retries, quarantines, all visible in [`SupervisionStats`]) but never
//! observable in the report: shards are pure functions of
//! `(seed, spec)`, so a re-run shard is the shard.

use roam_fleet::{FleetRunner, SupervisionStats, WorkerFaultSpec};
use roam_netsim::FaultSpec;
use roam_telemetry::TelemetryMode;

const SEED: u64 = 47;
const USERS: u64 = 600;
const DAYS: u32 = 8;
const SHARDS: usize = 6;

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_fleet_worker")
}

fn base() -> FleetRunner {
    FleetRunner::new(SEED)
        .users(USERS)
        .shards(SHARDS)
        .days(DAYS)
        .telemetry(TelemetryMode::Summary)
}

/// `text` with every `0x…` hex value masked. A torn frame's integrity
/// hashes cover the shard's wall time, which no replay reproduces; the
/// rest of an error's rendering must.
fn mask_hex(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find("0x") {
        out.push_str(&rest[..at + 2]);
        out.push('…');
        rest = rest[at + 2..].trim_start_matches(|c: char| c.is_ascii_hexdigit());
    }
    out + rest
}

/// Heavy injected chaos with the netsim fault plane off and heavy:
/// every recovery path may fire (crash, stall,
/// torn frame, nonzero exit, retry, quarantine) and the report must
/// still be byte-identical to the clean in-process run. Injected faults
/// are keyed by `(seed, shard, attempt)` and each slot is supervised on
/// its own, so a second chaotic run must also replay the supervision
/// history: the same counters and the same errors in the same order.
#[test]
fn heavy_chaos_is_byte_identical_to_a_clean_run() {
    for faults in [None, Some(FaultSpec::heavy())] {
        let mut clean = base();
        let mut chaotic = base()
            .workers(3)
            .worker_bin(worker_bin())
            .worker_faults(WorkerFaultSpec::heavy())
            .worker_deadline_ms(1_500);
        if let Some(spec) = faults {
            clean = clean.faults(spec);
            chaotic = chaotic.faults(spec);
        }
        let clean = clean.run();
        let replay = chaotic.run();
        let chaotic = chaotic.run();
        assert_eq!(
            chaotic.report.render(),
            clean.report.render(),
            "heavy worker chaos (faults {faults:?}) must not change a byte of the report"
        );
        assert_eq!(
            chaotic.report.degraded, clean.report.degraded,
            "fault-plane tallies survive worker recovery"
        );
        assert!(
            chaotic.supervision.recovered(),
            "heavy chaos exercised at least one recovery path: {:?}",
            chaotic.supervision
        );
        assert!(clean.supervision.errors.is_empty());
        let (a, b) = (&chaotic.supervision, &replay.supervision);
        assert_eq!(
            (a.respawns, a.retries, a.quarantined),
            (b.respawns, b.retries, b.quarantined),
            "recovery counters replay (faults {faults:?})"
        );
        assert_eq!(
            (a.stalls, a.protocol_errors, a.heartbeats),
            (b.stalls, b.protocol_errors, b.heartbeats),
            "detection counters replay (faults {faults:?})"
        );
        let history = |s: &SupervisionStats| -> Vec<String> {
            s.errors.iter().map(|e| mask_hex(&e.to_string())).collect()
        };
        assert_eq!(
            history(a),
            history(b),
            "the failure history replays in order (faults {faults:?})"
        );
    }
}

/// `crash = 1.0`: every dispatch of every shard dies. The retry budget
/// drains, every shard lands in quarantine, and the in-process fallback
/// still produces the clean bytes — `supervise` is infallible.
#[test]
fn total_crash_chaos_quarantines_every_shard_and_still_finishes() {
    let clean = base().run();
    let doomed = base()
        .workers(2)
        .worker_bin(worker_bin())
        .worker_faults(WorkerFaultSpec {
            crash: 1.0,
            stall: 0.0,
            torn: 0.0,
            exit: 0.0,
        })
        .worker_retries(1)
        .run();
    assert_eq!(doomed.report.render(), clean.report.render());
    assert_eq!(
        doomed.supervision.quarantined, SHARDS as u64,
        "every shard fell through to the in-process fallback: {:?}",
        doomed.supervision
    );
    assert!(
        doomed.supervision.errors.len() as u64 >= doomed.supervision.quarantined,
        "each quarantine is backed by typed errors"
    );
}

/// Torn frames only: children complete their shards, then corrupt the
/// result frame on the way out (truncation or bit-flip) and exit 0 —
/// the "clean exit, dirty pipe" case. The parent must detect every
/// corruption by hash/length, retry, and converge on the clean bytes.
#[test]
fn torn_frames_are_detected_and_retried() {
    let clean = base().run();
    let torn = base()
        .workers(2)
        .worker_bin(worker_bin())
        .worker_faults(WorkerFaultSpec {
            crash: 0.0,
            stall: 0.0,
            torn: 0.6,
            exit: 0.0,
        })
        .run();
    assert_eq!(torn.report.render(), clean.report.render());
    assert!(
        torn.supervision.protocol_errors > 0,
        "a 60% torn rate over {SHARDS} shards fires at least once: {:?}",
        torn.supervision
    );
}

/// External violence: a sibling thread SIGKILLs live `fleet_worker`
/// children while the run is in flight. Whatever the kills land on —
/// mid-shard, between shards, before the job frame ships — the
/// supervisor respawns or quarantines and the bytes never change.
///
/// The run starts its children through a symlink named `shot_worker`,
/// and the killer only shoots processes of that name, so the other
/// tests' children in this process keep their deterministic history.
#[test]
#[cfg(unix)]
fn external_sigkills_are_byte_identical() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let clean = base().run();

    // The kernel names a process after the path it was started by.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("sigkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let victim = dir.join("shot_worker");
    std::os::unix::fs::symlink(worker_bin(), &victim).expect("worker symlink");

    // /proc scan for our direct children running the victim symlink.
    fn child_workers() -> Vec<u32> {
        let me = std::process::id().to_string();
        let mut pids = Vec::new();
        let Ok(entries) = std::fs::read_dir("/proc") else {
            return pids;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
                continue;
            };
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                continue;
            };
            // stat: "pid (comm) state ppid ..." — comm may hold spaces
            // and parens, so split on the *last* closing paren.
            let Some((head, tail)) = stat.rsplit_once(')') else {
                continue;
            };
            let comm_is_worker = head.contains("(shot_worker");
            let ppid = tail.split_whitespace().nth(1);
            if comm_is_worker && ppid == Some(me.as_str()) {
                pids.push(pid);
            }
        }
        pids
    }

    let stop = Arc::new(AtomicBool::new(false));
    let killer_stop = stop.clone();
    let killer = std::thread::spawn(move || {
        let mut kills = 0u32;
        while !killer_stop.load(Ordering::Relaxed) && kills < 6 {
            for pid in child_workers() {
                let _ = std::process::Command::new("kill")
                    .args(["-9", &pid.to_string()])
                    .status();
                kills += 1;
            }
            std::thread::sleep(std::time::Duration::from_millis(60));
        }
        kills
    });

    let brutal = base().workers(2).worker_bin(&victim).run();
    stop.store(true, Ordering::Relaxed);
    let kills = killer.join().expect("killer thread");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        brutal.report.render(),
        clean.report.render(),
        "{kills} external SIGKILLs must not change a byte"
    );
    if kills > 0 {
        assert!(
            brutal.supervision.respawns > 0 || brutal.supervision.quarantined > 0,
            "kills landed, so recovery ran: {:?}",
            brutal.supervision
        );
    }
}
