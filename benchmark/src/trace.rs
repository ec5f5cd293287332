//! Spans recorded by the benchmark around its calls into each layer:
//! name, start, end and parent. They are kept in memory and written out
//! when the run ends.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread: a span's parent is the span that
/// was open when it began.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn enter(&mut self, name: &'static str) {
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records a span that has already happened, under the open span.
    pub fn record(&mut self, name: &'static str, start: f64, end: f64) {
        self.spans.push(Span { name, start, end, parent: self.open.last().copied() });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Time covered by spans that have no parent.
    pub fn top_level_seconds(&self) -> f64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::seconds).sum()
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover. Children may overlap each other and may stick out
/// of the parent; only the covered part of the parent is subtracted.
pub fn self_seconds(spans: &[Span], index: usize) -> f64 {
    let parent = &spans[index];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = parent.start;
    for (start, end) in children {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    parent.seconds() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("round", 0.0, 10.0, None),
            span("prepare", 1.0, 3.0, Some(0)),
            span("scan", 3.0, 7.0, Some(0)),
            span("worker", 3.5, 6.5, Some(2)),
        ];
        assert_eq!(self_seconds(&spans, 0), 4.0);
        assert_eq!(self_seconds(&spans, 2), 1.0, "grandchildren count against their parent only");
        assert_eq!(self_seconds(&spans, 3), 3.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = vec![
            span("scope", 10.0, 20.0, None),
            span("a", 11.0, 15.0, Some(0)),
            span("b", 13.0, 17.0, Some(0)),
            span("c", 19.0, 25.0, Some(0)),
            span("d", 12.0, 14.0, Some(0)),
        ];
        // Covered: [11,17] and [19,20].
        assert_eq!(self_seconds(&spans, 0), 3.0);
    }

    #[test]
    fn tracer_nests_by_open_span() {
        let mut t = Tracer::new();
        t.enter("round");
        t.span("prepare", || ());
        t.enter("scan");
        t.exit();
        t.exit();
        t.span("publish", || ());
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert_eq!(t.durations("scan").len(), 1);
        assert!(t.spans().iter().all(|s| s.end >= s.start));
        let top = t.top_level_seconds();
        assert!((top - (t.total("round") + t.total("publish"))).abs() < 1e-12);
    }
}
