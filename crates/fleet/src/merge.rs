//! The merger: fold shard outcomes into one [`FleetRun`].
//!
//! Order discipline lives here, in one place: outcomes are folded in
//! shard-index order no matter which backend produced them or how their
//! executions interleaved, so the in-process runner, the worker-process
//! runner and a resumed run all merge identically. (The report itself is
//! order-free — [`FleetReport::merge`] is associative and commutative —
//! but telemetry's shard keys and the timing rows keep merge order, so
//! the fold pins it.)

use crate::exec::ShardOutcome;
use crate::report::FleetReport;
use crate::runner::FleetRun;
use roam_measure::ShardTiming;
use roam_telemetry::{merge_shards, TelemetryMode};

/// Fold `outcomes` (any order) into a run: sort by shard index, merge
/// reports, telemetry, timings and degradation rows in that order.
pub(crate) fn merge_outcomes(
    sample: usize,
    telemetry: TelemetryMode,
    mut outcomes: Vec<ShardOutcome>,
) -> FleetRun {
    outcomes.sort_by_key(|o| o.index);
    let mut report = FleetReport::new(sample);
    let mut snaps = Vec::with_capacity(outcomes.len());
    let mut timings = Vec::with_capacity(outcomes.len());
    let mut degraded = Vec::with_capacity(outcomes.len());
    let mut halted = false;
    for outcome in outcomes {
        let key = format!("fleet/{:03}", outcome.index);
        report.merge(&outcome.report);
        snaps.push((key.clone(), outcome.snap));
        degraded.push((key.clone(), outcome.report.degraded));
        timings.push(ShardTiming {
            key,
            wall_ms: outcome.wall_ms,
        });
        halted |= !outcome.completed;
    }
    FleetRun {
        report,
        telemetry: merge_shards(telemetry, snaps),
        timings,
        degraded,
        halted,
        // The merger never sees recovery work; the runner fills this in
        // for supervised worker runs.
        supervision: crate::supervisor::SupervisionStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roam_telemetry::TelemetrySnapshot;

    fn outcome(index: usize, users: u64, completed: bool) -> ShardOutcome {
        let mut report = FleetReport::new(4);
        report.users = users;
        ShardOutcome {
            index,
            report,
            snap: TelemetrySnapshot::default(),
            wall_ms: 1.0,
            completed,
            sessions: Vec::new(),
        }
    }

    #[test]
    fn outcomes_merge_in_index_order_regardless_of_arrival() {
        let run = merge_outcomes(
            4,
            TelemetryMode::Off,
            vec![
                outcome(2, 30, true),
                outcome(0, 10, true),
                outcome(1, 20, true),
            ],
        );
        assert_eq!(run.report.users, 60);
        assert!(!run.halted);
        let keys: Vec<&str> = run.timings.iter().map(|t| t.key.as_str()).collect();
        assert_eq!(keys, ["fleet/000", "fleet/001", "fleet/002"]);
    }

    #[test]
    fn any_incomplete_shard_marks_the_run_halted() {
        let run = merge_outcomes(
            4,
            TelemetryMode::Off,
            vec![outcome(0, 10, true), outcome(1, 5, false)],
        );
        assert!(run.halted);
    }
}
