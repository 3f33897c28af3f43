//! The checkpoint/resume contract: a fleet run halted mid-flight and
//! resumed from its checkpoint directory renders a `FleetReport`
//! byte-identical to the uninterrupted run — healthy and under heavy
//! faults, in-process and in worker processes — and a stale or damaged
//! checkpoint directory is refused with a typed error, never silently
//! restarted.
//!
//! The halt is `halt_after(n)`: each shard stops right after its `n`-th
//! checkpoint write, which is the deterministic in-process stand-in for
//! the CI harness's real SIGKILL (`ci/kill_and_resume.sh`).

use roam_codec::Encoder;
use roam_fleet::checkpoint::{self, KIND_MANIFEST};
use roam_fleet::{FleetRunner, Manifest, ResumeError, ShardState, CKPT_VERSION};
use roam_netsim::FaultSpec;
use roam_telemetry::TelemetryMode;
use std::path::PathBuf;

const SEED: u64 = 23;
const USERS: u64 = 1_200;
const DAYS: u32 = 12;
/// One checkpoint per ten users per shard (cadence accumulates
/// `days` sim-days per user).
const EVERY: u64 = DAYS as u64 * 10;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "roam-ckpt-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn runner(faults: Option<FaultSpec>) -> FleetRunner {
    let r = FleetRunner::new(SEED)
        .users(USERS)
        .shards(3)
        .days(DAYS)
        .telemetry(TelemetryMode::Summary);
    match faults {
        Some(spec) => r.faults(spec),
        None => r,
    }
}

/// Halt a checkpointed run mid-flight, resume it, and demand both the
/// report and the telemetry render the uninterrupted run's exact bytes.
fn halt_and_resume_matches_straight(tag: &str, faults: Option<FaultSpec>, parallel: usize) {
    let straight = runner(faults).parallel(parallel).run();
    assert!(!straight.halted);

    let dir = temp_dir(tag);
    let halted = runner(faults)
        .parallel(parallel)
        .checkpoint_dir(&dir)
        .checkpoint_every(EVERY)
        .halt_after(2)
        .run();
    assert!(halted.halted, "halt_after must stop the run early");
    assert!(
        halted.report.users < straight.report.users,
        "the halted run must be genuinely partial"
    );

    let resumed = FleetRunner::resume(&dir)
        .expect("a freshly halted directory resumes")
        .parallel(1)
        .run();
    assert!(!resumed.halted);
    assert_eq!(
        resumed.report.render(),
        straight.report.render(),
        "resumed report bytes must match the uninterrupted run"
    );
    assert_eq!(
        resumed.telemetry.render(),
        straight.telemetry.render(),
        "resumed telemetry must match too (restored snapshots continue \
         the original accumulation order)"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_is_byte_identical_healthy() {
    halt_and_resume_matches_straight("healthy", None, 1);
}

#[test]
fn resume_is_byte_identical_under_heavy_faults() {
    halt_and_resume_matches_straight("heavy", Some(FaultSpec::heavy()), 1);
}

#[test]
fn resume_is_byte_identical_with_thread_parallelism() {
    halt_and_resume_matches_straight("parallel", None, 4);
}

#[test]
fn resuming_a_finished_run_renders_the_same_bytes_again() {
    let dir = temp_dir("finished");
    let straight = runner(None)
        .checkpoint_dir(&dir)
        .checkpoint_every(EVERY)
        .run();
    assert!(!straight.halted);
    // All users already done: every shard resumes into an empty or
    // short remainder and the merge still lands on the same bytes.
    let resumed = FleetRunner::resume(&dir)
        .expect("finished dir resumes")
        .run();
    assert_eq!(resumed.report.render(), straight.report.render());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_manifest_is_a_typed_refusal() {
    let dir = temp_dir("missing");
    std::fs::create_dir_all(&dir).expect("mkdir");
    match FleetRunner::resume(&dir) {
        Err(ResumeError::MissingManifest(d)) => assert_eq!(d, dir),
        other => panic!("expected MissingManifest, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_fingerprint_is_a_typed_refusal() {
    let dir = temp_dir("stale-fp");
    std::fs::create_dir_all(&dir).expect("mkdir");
    // A manifest whose knobs are self-consistent but whose fingerprint
    // claims a different world — exactly what a binary with drifted
    // world/market generation would compute.
    let config = roam_fleet::FleetConfig::default();
    let honest = checkpoint::run_fingerprint(SEED, &config, TelemetryMode::Off, &FaultSpec::off());
    let manifest = Manifest {
        seed: SEED,
        fingerprint: honest ^ 0xDEAD_BEEF,
        shards: 4,
        every: EVERY,
        config,
        telemetry: TelemetryMode::Off,
        faults: FaultSpec::off(),
    };
    std::fs::write(dir.join(checkpoint::MANIFEST_FILE), manifest.to_frame()).expect("write");
    match FleetRunner::resume(&dir) {
        Err(ResumeError::FingerprintMismatch { stored, computed }) => {
            assert_eq!(stored, honest ^ 0xDEAD_BEEF);
            assert_eq!(computed, honest);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn future_codec_version_is_a_typed_refusal() {
    let dir = temp_dir("stale-version");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let frame = Encoder::new().into_frame(KIND_MANIFEST, CKPT_VERSION + 1);
    std::fs::write(dir.join(checkpoint::MANIFEST_FILE), frame).expect("write");
    match FleetRunner::resume(&dir) {
        Err(ResumeError::VersionMismatch { found, supported }) => {
            assert_eq!(found, CKPT_VERSION + 1);
            assert_eq!(supported, CKPT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_or_corrupt_files_are_typed_refusals() {
    let dir = temp_dir("corrupt");
    let halted = runner(None)
        .checkpoint_dir(&dir)
        .checkpoint_every(EVERY)
        .halt_after(1)
        .run();
    assert!(halted.halted);
    // Truncate one shard checkpoint mid-frame, as a kill without the
    // atomic rename would have.
    let shard0 = dir.join(checkpoint::shard_file(0));
    let bytes = std::fs::read(&shard0).expect("shard file exists");
    std::fs::write(&shard0, &bytes[..bytes.len() / 2]).expect("truncate");
    match FleetRunner::resume(&dir) {
        Err(ResumeError::Corrupt(path, _)) => assert_eq!(path, shard0),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // Restore the intact frame: the directory resumes again.
    std::fs::write(&shard0, &bytes).expect("restore");
    assert!(FleetRunner::resume(&dir).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_files_carry_a_clean_prefix_state() {
    let dir = temp_dir("prefix");
    let halted = runner(None)
        .checkpoint_dir(&dir)
        .checkpoint_every(EVERY)
        .halt_after(1)
        .run();
    assert!(halted.halted);
    // With `halt_after(1)` every shard stops exactly at its first
    // checkpoint write, so the merged halted report must equal the sum
    // of what the shard files carry — each file is a clean
    // per-user-boundary prefix aggregate.
    let mut from_files = 0u64;
    for i in 0..3 {
        let bytes = std::fs::read(dir.join(checkpoint::shard_file(i)))
            .expect("every shard checkpointed once");
        let (frame, _) = roam_codec::Frame::parse(&bytes).expect("sealed frame parses");
        let state = ShardState::decode_fields(&mut roam_codec::Decoder::new(frame.payload))
            .expect("shard state decodes");
        assert_eq!(state.index, i);
        assert!(state.next_uid > 0);
        from_files += state.report.users;
    }
    assert_eq!(from_files, halted.report.users);
    let class_total: u64 = halted.report.class_counts.iter().sum();
    assert_eq!(class_total, halted.report.users);
    std::fs::remove_dir_all(&dir).ok();
}
