//! roam-fleet: population-scale deterministic workload generation.
//!
//! The measurement crates replay the paper's *campaigns* — a few hundred
//! carefully-planned tests. This crate asks the scaling question behind
//! the Airalo ecosystem instead: what does the marketplace + IPX stack
//! look like under a whole *population* of roamers? It synthesizes
//! 10⁴–10⁷ subscribers, gives each an itinerary, walks every leg through
//! a marketplace purchase ([`roam_econ`]) and a churn of eSIM
//! measurement sessions ([`roam_measure`]), and streams every observable
//! into mergeable sketches ([`roam_stats::stream`]) so memory stays
//! O(shards × sketch) no matter the population.
//!
//! The module split mirrors the pipeline:
//!
//! | module         | role                                                |
//! |----------------|-----------------------------------------------------|
//! | [`batch`]      | cohort batches: arbitrary uid ranges for roam-service |
//! | [`config`]     | sizing knobs + `ROAM_FLEET_*` environment parsing   |
//! | [`population`] | per-user deterministic synthesis (class, itinerary) |
//! | `plan`         | shard work orders + worker striping                 |
//! | `exec`         | shard execution, checkpoint cadence, resume; the per-run inputs ([`RunInputs`]), the vantage pool and session kernel ([`CountrySlot`]) |
//! | [`worker`]     | multi-process backend (job/result frames on pipes)  |
//! | [`supervisor`] | worker crash recovery, retry/quarantine, chaos plane |
//! | `merge`        | the shard-order fold into one run                   |
//! | [`checkpoint`] | durable partial state: manifest + shard files       |
//! | [`runner`]     | the builder orchestrating all of the above          |
//! | [`report`]     | exactly-mergeable aggregates + stable render        |
//! | [`sink`]       | per-session records for the `Dataset::Sessions` export |
//!
//! # Determinism
//!
//! [`FleetReport::render`] is byte-identical across `ROAM_PARALLEL`
//! (worker threads), `ROAM_FLEET_WORKERS` (worker processes),
//! `ROAM_FLEET_SHARDS` (population partitioning) and a kill-and-resume
//! through `ROAM_CHECKPOINT_DIR`. See the module docs on [`runner`] for
//! the three-part contract, and `tests/fleet_determinism.rs` /
//! `crates/fleet/tests/checkpoint_resume.rs` for the pins.

pub mod batch;
pub mod checkpoint;
pub mod config;
mod exec;
mod merge;
mod plan;
pub mod population;
pub mod report;
pub mod runner;
pub mod sink;
pub mod supervisor;
pub mod worker;

pub use batch::{BatchRun, UserBatch};
pub use checkpoint::{Manifest, ResumeError, ShardState, CKPT_VERSION};
pub use config::{FleetConfig, SessionMix};
pub use exec::{CountrySlot, RunInputs};
pub use population::{synthesize, user_rng, Leg, TravelerClass, UserId, UserProfile};
pub use report::{FleetReport, JourneySample};
pub use runner::{FleetConfigError, FleetError, FleetRun, FleetRunner, DEFAULT_CHECKPOINT_EVERY};
pub use sink::{SessionKind, SessionRecord, SessionRows};
pub use supervisor::{
    InjectedFault, ProtocolViolation, SupervisionStats, SupervisorPolicy, WorkerError,
    WorkerFaultSpec, DEFAULT_WORKER_DEADLINE_MS, DEFAULT_WORKER_RETRIES,
};
