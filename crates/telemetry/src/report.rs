//! The merged, renderable view of a run's telemetry.

use crate::recorder::{Counter, Event, EventScope, Hist, Histogram, TelemetrySnapshot};
use crate::TelemetryMode;
use std::fmt::Write as _;

/// Telemetry merged across shards, in shard-key order.
///
/// The renderers are the determinism boundary: [`TelemetryReport::summary`]
/// and [`TelemetryReport::jsonl`] must produce the same bytes for the same
/// measured work regardless of worker count. That
/// falls out of the construction — integer counters, fixed buckets,
/// ordered merges — and is pinned by `tests/telemetry_determinism.rs`.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    mode: TelemetryMode,
    merged: TelemetrySnapshot,
}

impl TelemetryReport {
    /// An empty report for a run in `mode`.
    #[must_use]
    pub fn new(mode: TelemetryMode) -> Self {
        TelemetryReport {
            mode,
            merged: TelemetrySnapshot::default(),
        }
    }

    /// The mode the run was recorded under.
    #[must_use]
    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Fold one shard's snapshot in. Call in shard-key order — the event
    /// stream concatenates in call order.
    pub fn absorb(&mut self, snap: TelemetrySnapshot) {
        for (a, b) in self.merged.counters.iter_mut().zip(&snap.counters) {
            *a += b;
        }
        for (a, b) in self.merged.hists.iter_mut().zip(&snap.hists) {
            a.merge(b);
        }
        if self.mode.wants_events() {
            self.merged.events.extend(snap.events);
        }
    }

    /// Add to a merged counter directly (runner-level counts such as
    /// [`Counter::ShardsMerged`]).
    pub fn add(&mut self, c: Counter, n: u64) {
        if self.mode.enabled() {
            self.merged.counters[c as usize] += n;
        }
    }

    /// Append a runner-level event (shard merges, phase markers).
    pub fn push_event(&mut self, ev: Event) {
        if self.mode.wants_events() {
            self.merged.events.push(ev);
        }
    }

    /// A merged counter's value.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.merged.counters[c as usize]
    }

    /// A merged histogram.
    #[must_use]
    pub fn histogram(&self, h: Hist) -> &Histogram {
        &self.merged.hists[h as usize]
    }

    /// The merged event stream.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.merged.events
    }

    /// The fixed-layout per-run summary. Every counter and every bucket is
    /// printed (zeros included), so the layout never depends on the data.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== roam-telemetry summary (mode={}) ==",
            self.mode.label()
        );
        let _ = writeln!(out, "counters:");
        for c in Counter::ALL {
            let _ = writeln!(out, "  {:<20} {}", c.name(), self.counter(c));
        }
        let _ = writeln!(out, "histograms:");
        for h in Hist::ALL {
            let hist = self.histogram(h);
            let mean = if hist.count() > 0 {
                hist.sum() / hist.count() as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<20} count={} sum={:.3} mean={:.3}",
                h.name(),
                hist.count(),
                hist.sum(),
                mean
            );
            for (i, n) in hist.buckets().iter().enumerate() {
                let label = match h.bounds().get(i) {
                    Some(b) => format!("<= {b}"),
                    None => "+inf".to_string(),
                };
                let _ = writeln!(out, "    {label:<10} {n}");
            }
        }
        let _ = writeln!(out, "events: {}", self.merged.events.len());
        out
    }

    /// The JSONL event stream: one JSON object per line, in merge order.
    /// Empty unless the run recorded in [`TelemetryMode::Jsonl`].
    #[must_use]
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.merged.events {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// What this run's mode says to emit: nothing, the summary, or the
    /// event stream followed by the summary.
    #[must_use]
    pub fn render(&self) -> String {
        match self.mode {
            TelemetryMode::Off => String::new(),
            TelemetryMode::Summary => self.summary(),
            TelemetryMode::Jsonl => {
                let mut out = self.jsonl();
                out.push_str(&self.summary());
                out
            }
        }
    }
}

/// Convenience: build a report from per-shard snapshots plus their stable
/// keys, stamping the merge order into counters and (in `jsonl` mode) one
/// `shard` event per shard.
#[must_use]
pub fn merge_shards(
    mode: TelemetryMode,
    shards: Vec<(String, TelemetrySnapshot)>,
) -> TelemetryReport {
    let mut report = TelemetryReport::new(mode);
    for (idx, (key, snap)) in shards.into_iter().enumerate() {
        report.absorb(snap);
        report.add(Counter::ShardsMerged, 1);
        report.push_event(Event {
            at_ns: 0,
            scope: EventScope::Shard(key),
            kind: "shard",
            label: "merged".into(),
            value: Some(idx as f64),
            attempts: None,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn snap(rtt: f64) -> TelemetrySnapshot {
        let mut r = Recorder::new(TelemetryMode::Jsonl);
        r.add(Counter::PacketsSent, 2);
        r.observe(Hist::ProbeRttMs, rtt);
        r.push_event(Event {
            at_ns: 1,
            scope: EventScope::Flow(1),
            kind: "rtt",
            label: "x".into(),
            value: Some(rtt),
            attempts: Some(1),
        });
        r.take()
    }

    #[test]
    fn merge_order_is_the_output_order() {
        let a = merge_shards(
            TelemetryMode::Jsonl,
            vec![("s/a".into(), snap(1.0)), ("s/b".into(), snap(2.0))],
        );
        assert_eq!(a.counter(Counter::PacketsSent), 4);
        assert_eq!(a.counter(Counter::ShardsMerged), 2);
        // flow event of shard a, shard-merge marker a, flow event b, marker b
        assert_eq!(a.events().len(), 4);
        let stream = a.jsonl();
        let lines: Vec<&str> = stream.lines().collect();
        assert!(lines[0].contains("\"value\":1"));
        assert!(lines[1].contains("s/a"));
        assert!(lines[2].contains("\"value\":2"));
        assert!(lines[3].contains("s/b"));
    }

    #[test]
    fn summary_layout_is_fixed() {
        let empty = TelemetryReport::new(TelemetryMode::Summary);
        let s = empty.summary();
        for c in Counter::ALL {
            assert!(s.contains(c.name()), "missing {}", c.name());
        }
        for h in Hist::ALL {
            assert!(s.contains(h.name()), "missing {}", h.name());
        }
        assert!(s.ends_with("events: 0\n"));
    }

    #[test]
    fn render_follows_mode() {
        assert!(TelemetryReport::new(TelemetryMode::Off).render().is_empty());
        let summary = merge_shards(TelemetryMode::Summary, vec![("k".into(), snap(1.0))]);
        assert!(summary.render().starts_with("== roam-telemetry summary"));
        assert!(summary.jsonl().is_empty(), "summary mode keeps no events");
        let jsonl = merge_shards(TelemetryMode::Jsonl, vec![("k".into(), snap(1.0))]);
        let r = jsonl.render();
        assert!(r.starts_with("{\"ev\":"));
        assert!(r.contains("== roam-telemetry summary"));
    }
}
