//! In-memory spans for the traced replay.
//!
//! A span is a named interval with a parent and the id of the request
//! it belongs to. Spans stay in memory until the run ends. A layer's
//! self time is its span's duration minus the part of that interval
//! its direct children cover (children may nest, overlap each other,
//! or stick out of the parent; only the covered part inside the
//! parent counts).

use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `service.json.parse`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
    /// The request (replayed operation) this span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans against one time origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin` (shared by the
    /// recorders of concurrent threads so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Recorder { origin, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span starting now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Lay measured durations end to end from the start of `parent`,
    /// as its children: the attribution of a call that was timed as a
    /// whole to the layers it runs, measured by replaying those layers
    /// separately.
    pub fn attribute(&mut self, parent: usize, parts: &[(&'static str, u64)]) {
        let request = self.spans[parent].request;
        let mut at = self.spans[parent].start;
        for &(name, ns) in parts {
            self.spans.push(Span { name, start: at, end: at + ns, parent: Some(parent), request });
            at += ns;
        }
    }

    /// All spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// direct children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.duration() - covered(span.start, span.end, kids))
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, request: 1 }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("root", 0, 100, None)];
        assert_eq!(self_times(&spans), vec![100]);
    }

    #[test]
    fn nested_children_count_only_against_their_parent() {
        // root [0,100] ⊃ a [10,60] ⊃ b [20,50]; c [70,90] under root.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 50, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 20, 50 - 30, 30, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two threads' spans under one parent: [10,50] and [30,70]
        // overlap on [30,50]; the union is [10,70].
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 40, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60);
    }

    #[test]
    fn children_sticking_out_are_clipped_to_the_parent() {
        let spans = vec![
            span("root", 10, 100, None),
            span("early", 0, 30, Some(0)),
            span("late", 90, 150, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 90 - 20 - 10);
        // Attribution that overshoots the parent leaves zero self time.
        let spans = vec![span("root", 0, 10, None), span("over", 0, 25, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn attribute_lays_parts_end_to_end() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.open("handle", None, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.close(root);
        rec.attribute(root, &[("csv", 300_000), ("core", 500_000)]);
        let spans = rec.into_spans();
        let at = spans[0].start;
        assert_eq!((spans[1].start - at, spans[1].end - at), (0, 300_000));
        assert_eq!((spans[2].start - at, spans[2].end - at), (300_000, 800_000));
        assert_eq!((spans[1].parent, spans[2].request), (Some(root), 7));
        assert_eq!(self_times(&spans)[0], spans[0].duration() - 800_000);
    }
}
