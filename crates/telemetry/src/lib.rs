//! Deterministic telemetry for the roamsim stack.
//!
//! Every table and figure of the paper is a *view* over quantities the
//! simulator computes anyway — latencies, attempts, path events, breakout
//! decisions. This crate is the instrumentation plane that keeps those
//! quantities instead of discarding them: monotonic [`Counter`]s,
//! fixed-bucket [`Histogram`]s, and structured [`Event`]s scoped to a flow
//! or a shard.
//!
//! The design contract mirrors the simulator's core guarantee:
//!
//! * **Determinism.** Everything a recorder emits is a pure function of
//!   what was measured. Counters and histogram buckets are integers;
//!   histogram sums are accumulated in shard-sequential order; events are
//!   recorded in shard-local order and merged in shard-key order. The
//!   rendered summary and JSONL stream are therefore byte-identical across
//!   `ROAM_PARALLEL` worker counts (the observables — packet walks, probe
//!   RTTs, byte counts — are functions of flow identity, never of
//!   scheduling).
//! * **Zero cost when off.** The disabled path is a single predictable
//!   branch per call site: no allocation, no bucket scan, no event
//!   construction. The counting-allocator test
//!   `crates/fleet/tests/fingerprint_allocs.rs` holds a warm ping to zero
//!   allocations with telemetry off and in summary mode, and roambench's
//!   `trace.overhead_share` measures what summary mode adds to a whole
//!   run.
//!
//! Wall-clock time never enters a recorder: it is not deterministic. The
//! campaign runner reports per-shard wall time separately, outside the
//! byte-stable report.

pub mod recorder;
pub mod report;

pub use recorder::{
    Counter, Event, EventScope, Hist, Histogram, PacketRecord, Recorder, TelemetrySnapshot,
};
pub use report::{merge_shards, TelemetryReport};

/// What the telemetry plane does with what it records, selected by the
/// `ROAM_TELEMETRY` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// Record nothing (the default). The hot paths pay one branch.
    #[default]
    Off,
    /// Accumulate counters and histograms; render a per-run summary.
    Summary,
    /// Everything `Summary` does, plus a structured JSONL event stream.
    Jsonl,
}

impl TelemetryMode {
    /// Read the mode from `ROAM_TELEMETRY`: `summary` or `jsonl` enable
    /// the plane; unset, empty, `off` or anything else disable it. Read
    /// per call (never cached) so tests can flip it mid-process.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("ROAM_TELEMETRY") {
            Ok(v) => match v.trim() {
                "summary" => TelemetryMode::Summary,
                "jsonl" => TelemetryMode::Jsonl,
                _ => TelemetryMode::Off,
            },
            Err(_) => TelemetryMode::Off,
        }
    }

    /// Is any recording enabled?
    #[must_use]
    pub fn enabled(self) -> bool {
        self != TelemetryMode::Off
    }

    /// Does this mode keep a structured event stream?
    #[must_use]
    pub fn wants_events(self) -> bool {
        self == TelemetryMode::Jsonl
    }

    /// Knob value naming this mode.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Summary => "summary",
            TelemetryMode::Jsonl => "jsonl",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_reads_env_per_call() {
        std::env::remove_var("ROAM_TELEMETRY");
        assert_eq!(TelemetryMode::from_env(), TelemetryMode::Off);
        std::env::set_var("ROAM_TELEMETRY", "summary");
        assert_eq!(TelemetryMode::from_env(), TelemetryMode::Summary);
        std::env::set_var("ROAM_TELEMETRY", "jsonl");
        assert_eq!(TelemetryMode::from_env(), TelemetryMode::Jsonl);
        std::env::set_var("ROAM_TELEMETRY", "verbose");
        assert_eq!(TelemetryMode::from_env(), TelemetryMode::Off);
        std::env::remove_var("ROAM_TELEMETRY");
    }

    #[test]
    fn mode_predicates() {
        assert!(!TelemetryMode::Off.enabled());
        assert!(TelemetryMode::Summary.enabled());
        assert!(!TelemetryMode::Summary.wants_events());
        assert!(TelemetryMode::Jsonl.wants_events());
        assert_eq!(TelemetryMode::Jsonl.label(), "jsonl");
    }
}
