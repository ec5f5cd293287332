//! A structured trace journal: spans and instant events, exported as
//! Chrome trace-event JSON.
//!
//! Where the metric primitives aggregate (a histogram forgets *when* a
//! slow round happened), the journal keeps the timeline: every recorded
//! span carries its start offset, duration, thread and key/value
//! arguments. The export is the [Chrome trace-event format] — load the
//! file in `chrome://tracing` (or <https://ui.perfetto.dev>) and a whole
//! service run becomes an inspectable flame chart: rounds, per-protocol
//! scans, worker chunks, alias-detection sweeps.
//!
//! Handles follow the same pattern as [`Counter`](crate::Counter): a
//! [`TraceJournal`] is a cheap `Arc` clone, recording takes one short
//! mutex push, and the buffer is bounded ([`TraceJournal::dropped`]
//! counts what overflowed). A journal can be installed into a
//! [`Registry`](crate::Registry) so already-instrumented code paths find
//! it without new plumbing.
//!
//! [Chrome trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! ```
//! use sixdust_telemetry::TraceJournal;
//! let journal = TraceJournal::new();
//! {
//!     let _round = journal.span_with("service.round", &[("day", "330")]);
//!     journal.instant("service.anomaly", &[("proto", "udp53")]);
//! }
//! assert_eq!(journal.len(), 2);
//! let doc = sixdust_json::parse(&journal.to_chrome_json()).unwrap();
//! assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 2);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::sync::lock;

/// Default journal capacity in events. A four-year paper-scale service
/// run emits a few events per round per protocol — well under this.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stable per-thread id for trace events (Chrome's `tid` field).
    static TRACE_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u64 {
    TRACE_TID.with(|t| *t)
}

/// The kind of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A complete span (`ph: "X"`): start + duration.
    Complete,
    /// An instant event (`ph: "i"`).
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (dot-separated, like metric names).
    pub name: String,
    /// Span or instant.
    pub phase: TracePhase,
    /// Start offset from journal creation, microseconds.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Recording thread's stable id.
    pub tid: u64,
    /// Key/value arguments.
    pub args: Vec<(String, String)>,
}

#[derive(Debug)]
struct TraceCore {
    epoch: Instant,
    capacity: usize,
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
}

/// A shared, bounded journal of trace events.
///
/// Clones share the same buffer; the handle is `Send + Sync` and cheap to
/// move into worker threads.
#[derive(Clone, Debug)]
pub struct TraceJournal {
    inner: Arc<TraceCore>,
}

impl Default for TraceJournal {
    fn default() -> TraceJournal {
        TraceJournal::new()
    }
}

impl TraceJournal {
    /// Creates a journal with [`DEFAULT_TRACE_CAPACITY`].
    pub fn new() -> TraceJournal {
        TraceJournal::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates a journal holding at most `capacity` events (0 is treated
    /// as 1). Events past capacity are counted in [`dropped`] and
    /// discarded — a full journal never blocks or reallocates the world.
    ///
    /// [`dropped`]: TraceJournal::dropped
    pub fn with_capacity(capacity: usize) -> TraceJournal {
        TraceJournal {
            inner: Arc::new(TraceCore {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Microseconds since the journal was created.
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    fn push(&self, event: TraceEvent) {
        let mut events = lock(&self.inner.events);
        if events.len() < self.inner.capacity {
            events.push(event);
        } else {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an instant event.
    pub fn instant(&self, name: &str, args: &[(&str, &str)]) {
        self.push(TraceEvent {
            name: name.to_string(),
            phase: TracePhase::Instant,
            ts_us: self.now_us(),
            dur_us: 0,
            tid: current_tid(),
            args: own_args(args),
        });
    }

    /// Starts a span; the event is recorded when the returned guard drops
    /// (or [`TraceSpan::end`] is called).
    pub fn span(&self, name: &str) -> TraceSpan {
        self.span_with(name, &[])
    }

    /// [`span`](TraceJournal::span) with key/value arguments attached.
    pub fn span_with(&self, name: &str, args: &[(&str, &str)]) -> TraceSpan {
        TraceSpan {
            journal: self.clone(),
            name: name.to_string(),
            args: own_args(args),
            started_us: self.now_us(),
            ended_us: None,
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        lock(&self.inner.events).len()
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because the journal was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the retained events, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock(&self.inner.events).clone()
    }

    /// Serializes the journal as a Chrome trace-event JSON document
    /// (object format: `{"traceEvents": [...]}`), loadable in
    /// `chrome://tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        sixdust_json::json!({ "traceEvents": self.events() }).pretty()
    }
}

fn own_args(args: &[(&str, &str)]) -> Vec<(String, String)> {
    args.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

/// RAII guard for an in-flight span; records a complete (`"X"`) event
/// covering construction-to-drop when dropped.
#[derive(Debug)]
pub struct TraceSpan {
    journal: TraceJournal,
    name: String,
    args: Vec<(String, String)>,
    started_us: u64,
    /// When [`TraceSpan::end`] read the clock: the event records that
    /// instant, not a second reading taken at drop.
    ended_us: Option<u64>,
}

impl TraceSpan {
    /// Attaches one more argument to the span (recorded at drop).
    pub fn arg(&mut self, key: &str, value: &str) {
        self.args.push((key.to_string(), value.to_string()));
    }

    /// Ends the span now and returns its duration in microseconds, the
    /// duration its event records.
    pub fn end(mut self) -> u64 {
        let now = self.journal.now_us();
        self.ended_us = Some(now);
        now.saturating_sub(self.started_us)
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let now = self.ended_us.unwrap_or_else(|| self.journal.now_us());
        self.journal.push(TraceEvent {
            name: std::mem::take(&mut self.name),
            phase: TracePhase::Complete,
            ts_us: self.started_us,
            dur_us: now.saturating_sub(self.started_us),
            tid: current_tid(),
            args: std::mem::take(&mut self.args),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixdust_json::json;

    #[test]
    fn spans_record_on_drop_with_duration() {
        let j = TraceJournal::new();
        {
            let _outer = j.span("service.round");
            let _inner = j.span_with("scan.icmp", &[("targets", "1000")]);
        }
        // Inner drops first.
        let events = j.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "scan.icmp");
        assert_eq!(events[1].name, "service.round");
        assert!(events[1].ts_us <= events[0].ts_us);
        assert_eq!(events[0].args, vec![("targets".to_string(), "1000".to_string())]);
        assert_eq!(events[0].phase, TracePhase::Complete);
    }

    #[test]
    fn instants_and_args() {
        let j = TraceJournal::new();
        j.instant("service.anomaly", &[("proto", "udp53"), ("z", "12.5")]);
        let events = j.events();
        assert_eq!(events[0].phase, TracePhase::Instant);
        assert_eq!(events[0].dur_us, 0);
        assert_eq!(events[0].args.len(), 2);
    }

    #[test]
    fn capacity_bounds_and_counts_drops() {
        let j = TraceJournal::with_capacity(2);
        for i in 0..5 {
            j.instant(&format!("e{i}"), &[]);
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 3);
    }

    #[test]
    fn chrome_export_shape() {
        let j = TraceJournal::new();
        {
            let mut s = j.span("scan.udp53");
            s.arg("day", "330");
        }
        j.instant("marker \"quoted\"", &[]);
        let doc = sixdust_json::parse(&j.to_chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        let (span, instant) = (&events[0], &events[1]);
        assert_eq!(span.get("name"), Some(&json!("scan.udp53")));
        assert_eq!(span.get("cat"), Some(&json!("scan")));
        assert_eq!(span.get("ph"), Some(&json!("X")));
        assert!(span.get("dur").is_some() && span.get("s").is_none());
        assert_eq!(span.get("args"), Some(&json!({ "day": "330" })));
        assert_eq!(instant.get("name"), Some(&json!("marker \"quoted\"")), "names are escaped");
        assert_eq!((instant.get("ph"), instant.get("s")), (Some(&json!("i")), Some(&json!("t"))));
        assert_eq!(instant.get("pid"), Some(&json!(1u64)));
        assert!(instant.get("dur").is_none() && instant.get("args").is_none());
    }

    #[test]
    fn explicit_end_returns_duration() {
        let j = TraceJournal::new();
        let span = j.span("x");
        let dur = span.end();
        assert_eq!(j.len(), 1);
        assert_eq!(j.events()[0].dur_us, dur);
    }

    #[test]
    fn clones_share_and_threads_get_distinct_tids() {
        let j = TraceJournal::new();
        let j2 = j.clone();
        let main_tid = {
            let _s = j.span("main");
            current_tid()
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                j2.instant("worker", &[]);
            });
        });
        let events = j.events();
        assert_eq!(events.len(), 2);
        let worker = events.iter().find(|e| e.name == "worker").unwrap();
        assert_ne!(worker.tid, main_tid);
    }

    #[test]
    fn empty_journal_exports_valid_document() {
        let j = TraceJournal::new();
        assert!(j.is_empty());
        let doc = sixdust_json::parse(&j.to_chrome_json());
        assert_eq!(doc, Ok(json!({ "traceEvents": sixdust_json::Value::Array(Vec::new()) })));
    }
}
