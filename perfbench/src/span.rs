//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer: a name, a start
//! and end on one monotonic clock, the span that caused it, and a group
//! id shared by every span of one unit of work (a grid cell, a SimPoint
//! workload, a served request). Spans stay in memory while the workload
//! runs and are written out once it ends. With tracing off the recorder
//! is a pass-through that reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`sim.run`, `harness.cell`, ...).
    pub name: &'static str,
    /// Unit of work the span belongs to (cell id, request id, ...).
    pub group: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder shared by every thread of one workload run.
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A recorder that records nothing (the untraced run).
    pub fn off() -> Tracer {
        Tracer { origin: Instant::now(), spans: None }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer { origin: Instant::now(), spans: Some(Mutex::new(Vec::new())) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id to parent its own spans on. Off: just runs `f(None)`.
    pub fn span<T>(
        &self,
        name: &'static str,
        group: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let Some(spans) = &self.spans else { return f(None) };
        let start_ns = self.ns(Instant::now());
        let id = {
            let mut v = spans.lock().unwrap_or_else(PoisonError::into_inner);
            v.push(Span { name, group, parent, start_ns, end_ns: start_ns });
            v.len() - 1
        };
        let out = f(Some(id));
        let end_ns = self.ns(Instant::now());
        spans.lock().unwrap_or_else(PoisonError::into_inner)[id].end_ns = end_ns;
        out
    }

    /// Records an interval measured elsewhere (a client-side request
    /// latency, for instance). Off: records nothing.
    pub fn record(
        &self,
        name: &'static str,
        group: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        if let Some(spans) = &self.spans {
            let span = Span { name, group, parent, start_ns: self.ns(start), end_ns: self.ns(end) };
            spans.lock().unwrap_or_else(PoisonError::into_inner).push(span);
        }
    }

    /// Every span recorded, in creation order (empty when off).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.map_or_else(Vec::new, |m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children running
/// in parallel (grid cells on two workers) are merged, not summed.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans.iter().zip(children).map(|(s, kids)| s.dur_ns() - union_ns(kids)).collect()
}

/// Total length of the union of half-open intervals.
pub fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Sum of the durations of the spans that have no parent. Top-level
/// spans are opened one after another on the main thread, so the traced
/// wall time minus this sum is the time no span accounts for.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent.is_none()).map(Span::dur_ns).sum()
}

/// Per-name totals: (spans, total ns, self ns).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
    }
    out
}

/// Writes the spans as JSON lines, one span per line with its self time.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"span\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.name, s.group, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<SpanId>, a: u64, b: u64) -> Span {
        Span { name, group: 0, parent, start_ns: a, end_ns: b }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10)]), 10);
        assert_eq!(union_ns(vec![(5, 15), (0, 10)]), 15);
        assert_eq!(union_ns(vec![(0, 10), (20, 30)]), 20);
        assert_eq!(union_ns(vec![(0, 10), (10, 20)]), 20);
        assert_eq!(union_ns(vec![(0, 30), (5, 10), (12, 14)]), 30);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp("grid", None, 0, 100),
            // Two workers' cells overlap in time: covered 10..70.
            sp("cell", Some(0), 10, 50),
            sp("cell", Some(0), 20, 70),
            // Grandchild: counts against its cell, not the grid.
            sp("run", Some(1), 15, 45),
            // A child that overruns its parent is clipped to it.
            sp("late", Some(3), 40, 60),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 50, 25, 20]);
    }

    #[test]
    fn closure_arithmetic_over_top_level_spans() {
        let spans = vec![
            sp("setup", None, 0, 30),
            sp("build", Some(0), 0, 20),
            sp("body", None, 35, 95),
            sp("cell", Some(2), 40, 90),
        ];
        assert_eq!(top_level_ns(&spans), 90);
        let by = by_name(&spans);
        assert_eq!(by["setup"], (1, 30, 10));
        assert_eq!(by["body"], (1, 60, 10));
        assert_eq!(by["cell"], (1, 50, 50));
        // Wall 100 ns traced: 10 ns fall between top-level spans.
        assert_eq!(100 - top_level_ns(&spans), 10);
    }

    #[test]
    fn tracer_records_nesting_and_off_records_nothing() {
        let tr = Tracer::on();
        let v = tr.span("outer", 7, None, |p| {
            assert_eq!(p, Some(0));
            tr.span("inner", 7, p, |q| q)
        });
        assert_eq!(v, Some(1));
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let off = Tracer::off();
        assert_eq!(off.span("x", 0, None, |p| p), None);
        off.record("y", 0, None, Instant::now(), Instant::now());
        assert!(off.into_spans().is_empty());
    }
}
