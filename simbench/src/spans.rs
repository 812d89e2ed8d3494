//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a simulator layer in a span
//! (name, start, end, parent span, point id). Spans stay in memory and are
//! written out once the run ends. A layer's **self time** is its span's
//! duration minus the part of that interval its child spans cover.
//!
//! A disabled [`Tracer`] records nothing and never reads the clock, so the
//! untraced runs carry no spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use iss_trace::HostTimer;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `mem.warm`.
    pub name: &'static str,
    /// Start time (ns).
    pub start_ns: u64,
    /// End time (ns).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark point the span belongs to (`u32::MAX` for none).
    pub point: u32,
}

/// Span id handed out by [`Tracer::enter`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    clock: Option<HostTimer>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            clock: enabled.then(HostTimer::start),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.clock.map_or(0, |c| (c.elapsed_seconds() * 1e9) as u64)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, point: u32) -> SpanId {
        self.clock?;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            point,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `id` (which must be the innermost open one).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans must nest");
        self.open.pop();
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, point: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, point);
        let out = f();
        self.exit(id);
        out
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as tab-separated `id name start_ns end_ns parent
    /// point` lines.
    ///
    /// # Errors
    ///
    /// Returns the file-system error.
    pub fn write_tsv(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\tpoint\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.point
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
    }
}

/// Self time (ns) of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time (ns) and span count per span name.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            point: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) with children [10,30), [20,50) and [60,70): the
        // overlap of the first two counts once. A grandchild [12,18)
        // belongs to the first child only.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            span("g", 12, 18, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![100 - 40 - 10, 20 - 6, 30, 10, 6]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], (50, 1));
        assert_eq!(by_name["g"], (6, 1));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 25, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn recorded_spans_nest_and_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        let answer = tracer.span("first", 1, || 7);
        assert_eq!(answer, 7);
        let outer = tracer.enter("outer", 2);
        let inner = tracer.enter("inner", 2);
        tracer.exit(inner);
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[1].start_ns <= spans[2].start_ns);
        assert!(spans[1].end_ns >= spans[2].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.enter("x", 0), None);
        off.span("y", 0, || ());
        assert!(off.spans().is_empty());
    }
}
