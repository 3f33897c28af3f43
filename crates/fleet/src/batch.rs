//! Cohort batches: the service-facing slice of the fleet plane.
//!
//! A long-running agent (roam-service) does not run one big population
//! once — it ticks *cohorts*: named groups of users, each owning a
//! contiguous uid range inside the shared per-seed uid namespace, each
//! ticked repeatedly as sim-time advances. [`UserBatch::run`] is the
//! hook that makes one such tick a first-class fleet operation: it
//! drives an arbitrary `[lo, hi)` uid range through the exact same
//! plan/exec/merge pipeline `FleetRunner` uses, splitting the range
//! into sub-shards for thread-level parallelism and folding the
//! outcomes in sub-shard order.
//!
//! Determinism is inherited wholesale from the shard contract: every
//! per-user observable derives from `flow_seed(seed, "fleet/…/<uid>")`,
//! so a batch's report and session stream depend only on
//! `(seed, config, faults, lo, hi)` — not on the sub-shard count, the
//! thread count, the transport backend, or which other cohorts (or
//! runs) execute in the same process. Two cohorts with disjoint uid
//! ranges draw from disjoint stream families by construction.

use crate::config::FleetConfig;
use crate::exec::{run_fleet_shard, ShardSpec};
use crate::plan::shard_range;
use crate::report::FleetReport;
use crate::sink::SessionRecord;
use roam_measure::{run_shards, RunMode};
use roam_netsim::{FaultSpec, RunKnobs, TransportKind};
use roam_telemetry::TelemetryMode;

/// One cohort tick's work order: drive users `[lo, hi)` of `seed`'s
/// population through a full calendar window.
#[derive(Debug, Clone)]
pub struct UserBatch {
    /// Master seed — must be shared by every batch in a run so all
    /// cohorts see the same world, market and endpoint pool.
    pub seed: u64,
    /// Sizing knobs. `users`/`shards` are ignored (the range and
    /// sub-shard split come from this struct); `days`, `mix` and
    /// `sample` apply per user.
    pub config: FleetConfig,
    /// First uid (inclusive).
    pub lo: u64,
    /// One past the last uid.
    pub hi: u64,
    /// Sub-shards to split the range into (clamped to the range size).
    pub shards: usize,
    /// Thread-level execution mode for the sub-shards.
    pub mode: RunMode,
    /// The fault schedule every sub-shard's network runs under.
    pub faults: FaultSpec,
    /// Record per-session [`SessionRecord`]s (the service's export
    /// stream) in addition to the aggregates.
    pub record_sessions: bool,
}

/// What one batch hands back: the merged aggregates plus the per-session
/// records in uid order (empty unless requested).
pub struct BatchRun {
    /// Exactly-merged aggregates for the range.
    pub report: FleetReport,
    /// Per-session records, in uid order (sessions within a user keep
    /// session order) — invariant across `shards`/`mode`.
    pub sessions: Vec<SessionRecord>,
}

impl UserBatch {
    /// A sequential, telemetry-off, fault-free batch of users `[lo, hi)`.
    #[must_use]
    pub fn new(seed: u64, config: FleetConfig, lo: u64, hi: u64) -> Self {
        UserBatch {
            seed,
            config,
            lo,
            hi,
            shards: 1,
            mode: RunMode::Sequential,
            faults: FaultSpec::off(),
            record_sessions: false,
        }
    }

    /// Execute the batch with telemetry off: split the range, run the
    /// sub-shards on `mode`, fold reports and sessions in sub-shard order.
    ///
    /// An empty range (`lo >= hi`) is a no-op batch: empty report, empty
    /// stream — the expired-cohort case in the service.
    #[must_use]
    pub fn run(&self) -> BatchRun {
        let span = self.hi.saturating_sub(self.lo);
        if span == 0 {
            return BatchRun {
                report: FleetReport::new(self.config.sample),
                sessions: Vec::new(),
            };
        }
        let n = (self.shards.max(1) as u64).min(span) as usize;
        let knobs = RunKnobs {
            telemetry: TelemetryMode::Off,
            // Output-invariant: which transport times the transfers
            // changes the cost of a batch, never its bytes.
            transport: TransportKind::from_env(),
            faults: self.faults,
        };
        let outcomes = run_shards(self.mode, n, |i| {
            // The planner's proportional split, offset into the batch.
            let (lo, hi) = shard_range(span, i, n);
            run_fleet_shard(
                self.seed,
                &self.config,
                ShardSpec {
                    index: i,
                    lo: self.lo + lo,
                    hi: self.lo + hi,
                    resume: None,
                    attempt: 0,
                },
                knobs,
                None,
                self.record_sessions,
            )
        });
        let mut report = FleetReport::new(self.config.sample);
        let mut sessions = Vec::new();
        for outcome in outcomes {
            report.merge(&outcome.report);
            sessions.extend(outcome.sessions);
        }
        BatchRun { report, sessions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(lo: u64, hi: u64, shards: usize, parallel: usize) -> UserBatch {
        let config = FleetConfig {
            days: 3,
            ..FleetConfig::default()
        };
        UserBatch {
            shards,
            mode: if parallel <= 1 {
                RunMode::Sequential
            } else {
                RunMode::Parallel(parallel)
            },
            record_sessions: true,
            ..UserBatch::new(99, config, lo, hi)
        }
    }

    #[test]
    fn batch_bytes_are_invariant_across_subshards_and_threads() {
        let base = batch(40, 120, 1, 1).run();
        assert_eq!(base.report.users, 80);
        assert!(!base.sessions.is_empty());
        for (shards, parallel) in [(4, 1), (4, 4), (3, 2)] {
            let other = batch(40, 120, shards, parallel).run();
            assert_eq!(
                other.report.render(),
                base.report.render(),
                "shards={shards} parallel={parallel}"
            );
            assert_eq!(other.sessions, base.sessions);
        }
    }

    #[test]
    fn disjoint_batches_tile_like_one_run() {
        // Users [0, 60) in one batch vs two disjoint batches: the merged
        // aggregates and concatenated streams must be identical — the
        // cohort property the service leans on.
        let whole = batch(0, 60, 2, 2).run();
        let left = batch(0, 25, 1, 1).run();
        let right = batch(25, 60, 3, 2).run();
        let mut merged = FleetReport::new(FleetConfig::default().sample);
        merged.merge(&left.report);
        merged.merge(&right.report);
        assert_eq!(merged.render(), whole.report.render());
        let mut stream = left.sessions.clone();
        stream.extend(right.sessions.clone());
        assert_eq!(stream, whole.sessions);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let run = batch(10, 10, 4, 4).run();
        assert_eq!(run.report.users, 0);
        assert!(run.sessions.is_empty());
    }
}
