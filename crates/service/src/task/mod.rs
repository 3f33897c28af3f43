//! The virtual-clock task scheduler.
//!
//! A long-running agent is a set of recurring jobs — cohort ticks,
//! vantage probes, fault-calendar advancement — fired in simulated time
//! by a [`Scheduler`]. The job table is small (one job per cohort, one
//! probe per measured country, one fault-calendar job), so the table is
//! the whole calendar: each batch scans it for the earliest pending fire
//! and delivers every job due at that instant.
//!
//! Two contracts make the scheduler deterministic:
//!
//! 1. **Pop order is `(sim_time, job_seq)`.** Fires come out in strict
//!    virtual-time order; same-instant fires break ties by *registration
//!    order* (the stable `job_seq` assigned by [`Scheduler::register`]),
//!    which is the order of the scan. A resumed scheduler rebuilds the
//!    same table, so it fires in exactly the order the uninterrupted one
//!    would have.
//! 2. **Per-job keyed RNG streams.** A job's randomness derives from
//!    `flow_seed(master, "service/job/<id>")` and each fire's from that
//!    stream plus the fire index (`Scheduler::fire_rng`) — a pure
//!    function of `(master, id, index)`. Registering, cancelling or
//!    reordering *other* jobs cannot perturb it, and nothing about a
//!    fire's randomness needs checkpointing beyond the fire count.
//!
//! `tests/prop_scheduler.rs` pins both properties against reference
//! models.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use roam_netsim::engine::flow_seed;
use roam_netsim::SimTime;

/// Nanoseconds per simulated day — the scheduler's natural unit.
pub const DAY_NS: u64 = 86_400_000_000_000;

/// A simulated-day count as a [`SimTime`].
#[must_use]
pub fn days(n: u64) -> SimTime {
    SimTime::from_nanos(n * DAY_NS)
}

/// Stable handle to a registered job: its registration index
/// (`job_seq`), which is also the same-instant tie-break rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobHandle(pub(crate) usize);

impl JobHandle {
    /// The registration index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// One registered job.
#[derive(Debug, Clone)]
struct Slot {
    /// Stable string id — the RNG stream key.
    id: String,
    /// `flow_seed(master, "service/job/<id>")`.
    stream: u64,
    /// Fire-to-fire period; `None` = one-shot.
    period: Option<SimTime>,
    /// The pending fire time; `None` = cancelled, expired one-shot, or
    /// never armed.
    next: Option<SimTime>,
    /// Fires delivered so far (the complete resumable RNG cursor).
    fires: u64,
}

/// One delivered fire: which job, when, and its per-job fire index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fire {
    /// The fired job.
    pub job: JobHandle,
    /// Virtual time of the fire.
    pub at: SimTime,
    /// This job's fire count *before* this fire (0 for the first).
    pub index: u64,
}

/// The virtual-clock scheduler. See the module docs for the contract.
#[derive(Debug)]
pub struct Scheduler {
    master: u64,
    /// The instant of the last delivered batch.
    now: SimTime,
    /// Every registered job, indexed by `job_seq`.
    slots: Vec<Slot>,
}

impl Scheduler {
    /// An empty scheduler at virtual time zero, drawing job streams from
    /// `master`.
    #[must_use]
    pub fn new(master: u64) -> Self {
        Scheduler {
            master,
            now: SimTime::ZERO,
            slots: Vec::new(),
        }
    }

    /// The master seed job streams derive from.
    #[must_use]
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Current virtual time: the timestamp of the last delivered batch.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Register a job: first fire at `first`, then every `period`
    /// (`None` = one-shot). Returns the job's stable handle; handles
    /// are assigned in registration order and never reused.
    ///
    /// # Panics
    /// If `first` is in the scheduler's past, or `period` is zero.
    pub fn register(&mut self, id: &str, first: SimTime, period: Option<SimTime>) -> JobHandle {
        self.resume_job(id, period, 0, Some(first))
    }

    /// Register a job mid-stream — the resume path. `fires` fires have
    /// already been delivered (so the next fire's RNG picks up at index
    /// `fires`) and the next fire is at `next` (`None` = the job is
    /// done: cancelled or an expired one-shot).
    ///
    /// Call in original registration order: the handle (and with it the
    /// same-instant rank) is assigned sequentially.
    ///
    /// # Panics
    /// Same conditions as [`Scheduler::register`].
    pub(crate) fn resume_job(
        &mut self,
        id: &str,
        period: Option<SimTime>,
        fires: u64,
        next: Option<SimTime>,
    ) -> JobHandle {
        assert!(
            period.map_or(true, |p| p > SimTime::ZERO),
            "job {id:?}: zero period would fire forever at one instant"
        );
        if let Some(at) = next {
            assert!(
                at >= self.now,
                "job {id:?}: cannot schedule at {at} before now {}",
                self.now
            );
        }
        self.slots.push(Slot {
            id: id.to_string(),
            stream: flow_seed(self.master, &format!("service/job/{id}")),
            period,
            next,
            fires,
        });
        JobHandle(self.slots.len() - 1)
    }

    /// Cancel a job: it will not fire again. Idempotent.
    pub fn cancel(&mut self, job: JobHandle) {
        self.slots[job.0].next = None;
    }

    /// The job's stable string id.
    #[must_use]
    pub fn job_id(&self, job: JobHandle) -> &str {
        &self.slots[job.0].id
    }

    /// Snapshot every registered job in registration order:
    /// `(id, period, fires, next)` — exactly what a checkpoint stores
    /// and [`Scheduler::resume_job`] replays.
    #[must_use]
    pub(crate) fn job_states(&self) -> Vec<(String, Option<SimTime>, u64, Option<SimTime>)> {
        self.slots
            .iter()
            .map(|s| (s.id.clone(), s.period, s.fires, s.next))
            .collect()
    }

    /// The virtual time of the next fire, without delivering it.
    #[must_use]
    pub fn next_fire(&self) -> Option<SimTime> {
        self.slots.iter().filter_map(|s| s.next).min()
    }

    /// Deliver the next batch: every live fire at the next occupied
    /// instant, in `job_seq` order, appended to `fires` (which is
    /// cleared first). Recurring jobs are rescheduled one period out
    /// *before* this returns, so callers observe a consistent calendar.
    /// Advances the virtual clock to the batch instant; returns it, or
    /// `None` when nothing is pending.
    pub fn pop_batch(&mut self, fires: &mut Vec<Fire>) -> Option<SimTime> {
        fires.clear();
        let at = self.next_fire()?;
        self.now = at;
        // The scan runs in registration order, so a rescheduled old job
        // still outranks a newer job at the same instant.
        for (seq, slot) in self.slots.iter_mut().enumerate() {
            if slot.next == Some(at) {
                fires.push(Fire {
                    job: JobHandle(seq),
                    at,
                    index: slot.fires,
                });
                slot.fires += 1;
                slot.next = slot.period.map(|p| at.after(p));
            }
        }
        Some(at)
    }

    /// The deterministic RNG for one fire: seeded from the job's keyed
    /// stream and the fire index alone. A pure function of
    /// `(master, job id, index)` — schedule-order-free, other-job-free,
    /// and resumable by fire count.
    #[must_use]
    pub(crate) fn fire_rng(&self, fire: &Fire) -> SmallRng {
        SmallRng::seed_from_u64(self.fire_seed(fire))
    }

    /// The raw seed behind `Scheduler::fire_rng`.
    #[must_use]
    pub fn fire_seed(&self, fire: &Fire) -> u64 {
        flow_seed(self.slots[fire.job.0].stream, &format!("f{}", fire.index))
    }
}

/// The reference derivation [`Scheduler::fire_seed`] must equal —
/// exported so tests (and embedders that need a fire's stream without a
/// scheduler) can derive it independently.
#[must_use]
pub fn fire_seed_of(master: u64, job_id: &str, fire_index: u64) -> u64 {
    let stream = flow_seed(master, &format!("service/job/{job_id}"));
    flow_seed(stream, &format!("f{fire_index}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_deliver_in_time_then_registration_order() {
        let mut s = Scheduler::new(7);
        // b registered after a, both first-fire at day 2; c earlier.
        let a = s.register("a", days(2), Some(days(2)));
        let b = s.register("b", days(2), Some(days(1)));
        let c = s.register("c", days(1), None);
        let mut fires = Vec::new();
        assert_eq!(s.pop_batch(&mut fires), Some(days(1)));
        assert_eq!(fires.len(), 1);
        assert_eq!(fires[0].job, c);
        assert_eq!(s.pop_batch(&mut fires), Some(days(2)));
        assert_eq!(
            fires.iter().map(|f| f.job).collect::<Vec<_>>(),
            vec![a, b],
            "same-instant ties break by registration order"
        );
        // Day 3: only b (period 1). Day 4: b rescheduled *after* a was,
        // but a still ranks first by registration order.
        assert_eq!(s.pop_batch(&mut fires), Some(days(3)));
        assert_eq!(fires[0].job, b);
        assert_eq!(s.pop_batch(&mut fires), Some(days(4)));
        assert_eq!(fires.iter().map(|f| f.job).collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn cancelled_jobs_never_fire_and_leave_no_trace() {
        let mut s = Scheduler::new(7);
        let a = s.register("a", days(1), Some(days(1)));
        let doomed = s.register("doomed", days(1), Some(days(1)));
        s.cancel(doomed);
        assert!(s.slots[doomed.0].next.is_none());
        let mut fires = Vec::new();
        for day in 1..=3u64 {
            assert_eq!(s.pop_batch(&mut fires), Some(days(day)));
            assert_eq!(fires.iter().map(|f| f.job).collect::<Vec<_>>(), vec![a]);
        }
        assert_eq!(s.slots.iter().filter(|j| j.next.is_some()).count(), 1);
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn registering_before_the_last_batch_panics() {
        let mut s = Scheduler::new(7);
        s.register("a", days(2), None);
        assert_eq!(s.pop_batch(&mut Vec::new()), Some(days(2)));
        assert_eq!(s.now(), days(2));
        s.register("late", days(1), None);
    }

    #[test]
    fn one_shot_jobs_expire_after_firing() {
        let mut s = Scheduler::new(7);
        let one = s.register("once", days(5), None);
        let mut fires = Vec::new();
        assert_eq!(s.pop_batch(&mut fires), Some(days(5)));
        assert_eq!(fires[0].job, one);
        assert!(s.slots[one.0].next.is_none());
        assert_eq!(s.pop_batch(&mut fires), None);
    }

    #[test]
    fn fire_rng_is_a_pure_function_of_master_id_and_index() {
        let mut s = Scheduler::new(99);
        let job = s.register("cohort/3", days(1), Some(days(1)));
        let mut fires = Vec::new();
        for expect in 0..4u64 {
            s.pop_batch(&mut fires).expect("job is recurring");
            let fire = fires[0];
            assert_eq!(fire.index, expect);
            assert_eq!(fire.job, job);
            assert_eq!(s.fire_seed(&fire), fire_seed_of(99, "cohort/3", expect));
        }
    }

    #[test]
    fn resume_replays_the_uninterrupted_schedule() {
        let mut full = Scheduler::new(11);
        full.register("tick", days(1), Some(days(2)));
        full.register("probe", days(2), Some(days(3)));
        let mut fires = Vec::new();
        let mut log_full = Vec::new();
        for _ in 0..8 {
            let at = full.pop_batch(&mut fires).expect("recurring");
            for f in &fires {
                log_full.push((at, f.job.index(), f.index, full.fire_seed(f)));
            }
        }
        // Interrupt after 3 batches: rebuild from job_states().
        let mut first = Scheduler::new(11);
        first.register("tick", days(1), Some(days(2)));
        first.register("probe", days(2), Some(days(3)));
        for _ in 0..3 {
            first.pop_batch(&mut fires);
        }
        let mut resumed = Scheduler::new(11);
        for (id, period, n, next) in first.job_states() {
            resumed.resume_job(&id, period, n, next);
        }
        let mut log_resumed = Vec::new();
        let mut replay = Scheduler::new(11);
        replay.register("tick", days(1), Some(days(2)));
        replay.register("probe", days(2), Some(days(3)));
        for _ in 0..3 {
            let at = replay.pop_batch(&mut fires).expect("recurring");
            for f in &fires {
                log_resumed.push((at, f.job.index(), f.index, replay.fire_seed(f)));
            }
        }
        for _ in 0..5 {
            let at = resumed.pop_batch(&mut fires).expect("recurring");
            for f in &fires {
                log_resumed.push((at, f.job.index(), f.index, resumed.fire_seed(f)));
            }
        }
        assert_eq!(log_resumed, log_full);
    }
}
