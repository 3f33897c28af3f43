//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the library is
//! instrumented. Each span has a name, start and end (nanoseconds from
//! the tracer's origin), the span that caused it, and an operation
//! count. Spans stay in memory and are written out as JSON lines when
//! the run ends.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's span list.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer boundary name, `layer.operation`.
    pub name: String,
    /// Start, nanoseconds from the tracer origin.
    pub start_ns: u64,
    /// End, nanoseconds from the tracer origin.
    pub end_ns: u64,
    /// Operations the span covered (1 for a single call).
    pub ops: u64,
}

/// Span recorder: a stack of open spans plus the closed list.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` covering `ops` operations.
    /// Spans opened inside `f` (through the tracer it receives) become
    /// its children.
    pub fn span<T>(&mut self, name: &str, ops: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            ops,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the last span named `name`, seconds (0 if absent).
    #[must_use]
    pub fn last_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Self time of every span, nanoseconds, indexed like [`Tracer::spans`].
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        self.spans
            .iter()
            .map(|s| {
                let children: Vec<(u64, u64)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(|c| (c.start_ns, c.end_ns))
                    .collect();
                self_time(s.start_ns, s.end_ns, &children)
            })
            .collect()
    }

    /// The spans as JSON lines: id, parent, name, start/end/self in
    /// microseconds, and the operation count.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_ns();
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3},\"ops\":{}}}\n",
                s.id,
                parent,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self_ns as f64 / 1e3,
                s.ops
            ));
        }
        out
    }
}

/// A span's self time: its duration minus the part of `[start, end)`
/// covered by its children's intervals (overlaps counted once, parts
/// outside the parent ignored).
#[must_use]
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}
