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
//! `run` builds the batch's [`RunInputs`] (world, vantage pool, market)
//! itself. A caller that ticks many batches of one seed — the agent —
//! builds them once and hands them to [`UserBatch::run_on`] each tick,
//! so the per-tick cost is the users alone.
//!
//! Determinism is inherited wholesale from the shard contract: every
//! per-user observable derives from `flow_seed(seed, "fleet/…/<uid>")`,
//! so a batch's report and session stream depend only on
//! `(seed, config, faults, lo, hi)` — not on the sub-shard count, the
//! thread count, the transport backend, or which other cohorts (or
//! runs) execute in the same process. Two cohorts with disjoint uid
//! ranges draw from disjoint stream families by construction.

use crate::config::FleetConfig;
use crate::exec::{run_fleet_shard, RunInputs, ShardSpec};
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

    /// The knobs every sub-shard's network runs under: telemetry off,
    /// this batch's fault schedule, and the transport `ROAM_TRANSPORT`
    /// names. [`RunInputs`] handed to [`UserBatch::run_on`] must be
    /// built under exactly these.
    #[must_use]
    pub fn knobs(&self) -> RunKnobs {
        RunKnobs {
            telemetry: TelemetryMode::Off,
            // Output-invariant: which transport times the transfers
            // changes the cost of a batch, never its bytes.
            transport: TransportKind::from_env(),
            faults: self.faults,
        }
    }

    /// Execute the batch with telemetry off: build its [`RunInputs`],
    /// then [`UserBatch::run_on`] them.
    ///
    /// An empty range (`lo >= hi`) is a no-op batch: empty report, empty
    /// stream — the expired-cohort case in the service — and builds
    /// nothing.
    #[must_use]
    pub fn run(&self) -> BatchRun {
        if self.lo >= self.hi {
            return self.empty();
        }
        let knobs = self.knobs();
        self.run_under(&RunInputs::build(self.seed, knobs), knobs)
    }

    /// Execute the batch on prebuilt `inputs`: split the range, run the
    /// sub-shards on `mode`, fold reports and sessions in sub-shard
    /// order. The bytes equal [`UserBatch::run`]'s.
    ///
    /// # Panics
    /// When `inputs` were not built for this batch's seed and
    /// [`UserBatch::knobs`].
    #[must_use]
    pub fn run_on(&self, inputs: &RunInputs) -> BatchRun {
        self.run_under(inputs, self.knobs())
    }

    fn run_under(&self, inputs: &RunInputs, knobs: RunKnobs) -> BatchRun {
        inputs.assert_matches(self.seed, knobs);
        let span = self.hi.saturating_sub(self.lo);
        if span == 0 {
            return self.empty();
        }
        let n = (self.shards.max(1) as u64).min(span) as usize;
        let outcomes = run_shards(self.mode, n, |i| {
            // The planner's proportional split, offset into the batch.
            let (lo, hi) = shard_range(span, i, n);
            run_fleet_shard(
                inputs,
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

    fn empty(&self) -> BatchRun {
        BatchRun {
            report: FleetReport::new(self.config.sample),
            sessions: Vec::new(),
        }
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
    fn batches_on_one_set_of_inputs_match_their_own_runs() {
        let first = batch(0, 40, 3, 2);
        let inputs = RunInputs::build(first.seed, first.knobs());
        for b in [first, batch(40, 90, 2, 1), batch(7, 7, 4, 4)] {
            let (on, own) = (b.run_on(&inputs), b.run());
            assert_eq!(on.report.render(), own.report.render());
            assert_eq!(on.sessions, own.sessions);
        }
    }

    #[test]
    #[should_panic(expected = "run inputs were built for seed 100")]
    fn run_on_refuses_inputs_of_another_seed() {
        let b = batch(0, 10, 1, 1);
        let _ = b.run_on(&RunInputs::build(b.seed + 1, b.knobs()));
    }

    #[test]
    #[should_panic(expected = "run inputs were built for seed 99")]
    fn run_on_refuses_inputs_of_another_fault_spec() {
        let b = batch(0, 10, 1, 1);
        let knobs = RunKnobs {
            faults: FaultSpec::heavy(),
            ..b.knobs()
        };
        let _ = b.run_on(&RunInputs::build(b.seed, knobs));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let run = batch(10, 10, 4, 4).run();
        assert_eq!(run.report.users, 0);
        assert!(run.sessions.is_empty());
    }
}
