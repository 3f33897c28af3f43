//! The telemetry plane's determinism contract: the rendered summary and
//! the JSONL event stream are *byte-identical* across worker counts.
//! Worker count cannot matter because shards record locally and merge in
//! shard-key order. Packet walks, probe RTTs, attempt counts and byte
//! counts enter the plane; transfer durations never do. (The first test's
//! name still says "transports": the transfer model used to be a second
//! axis, and it has one value now.)

use roam_bench::CampaignRunner;
use roamsim::telemetry::TelemetryMode;

const SEED: u64 = 17;

/// Worker counts the bytes must be blind to.
const MATRIX: [usize; 2] = [1, 4];

#[test]
fn telemetry_bytes_survive_workers_and_transports() {
    let mut device = Vec::new();
    let mut survey = Vec::new();
    for workers in MATRIX {
        let run = CampaignRunner::new(SEED)
            .scale(0.02)
            .parallel(workers)
            .telemetry(TelemetryMode::Jsonl)
            .run();
        device.push((workers, run.telemetry.render()));

        // The Table-2 shape: the eSIM survey across every measured country.
        let s = CampaignRunner::new(SEED)
            .parallel(workers)
            .telemetry(TelemetryMode::Jsonl)
            .run_survey(6);
        survey.push((workers, s.telemetry.render()));
    }

    let (_, device_base) = &device[0];
    // Not trivially empty: the stream carries flow events and the summary
    // carries non-zero counters.
    assert!(device_base.contains("\"ev\":\"rtt\""));
    assert!(device_base.contains("\"ev\":\"plan\""));
    assert!(device_base.contains("\"ev\":\"shard\""));
    assert!(device_base.contains("packets_sent"));
    for (workers, render) in &device[1..] {
        assert_eq!(
            device_base, render,
            "device-campaign telemetry diverged at workers={workers}"
        );
    }

    let (_, survey_base) = &survey[0];
    assert!(survey_base.contains("shards_merged"));
    for (workers, render) in &survey[1..] {
        assert_eq!(
            survey_base, render,
            "survey telemetry diverged at workers={workers}"
        );
    }
}

#[test]
fn summary_mode_is_equally_stable_and_keeps_no_events() {
    let a = CampaignRunner::new(SEED)
        .scale(0.02)
        .telemetry(TelemetryMode::Summary)
        .run();
    let b = CampaignRunner::new(SEED)
        .scale(0.02)
        .parallel(4)
        .telemetry(TelemetryMode::Summary)
        .run();
    assert_eq!(a.telemetry.render(), b.telemetry.render());
    assert!(a
        .telemetry
        .render()
        .starts_with("== roam-telemetry summary"));
    assert!(a.telemetry.events().is_empty(), "summary keeps no events");
}
