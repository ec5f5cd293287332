//! The named-metric registry: a thread-safe map from metric names to
//! metric handles, cheap to clone and share across the whole pipeline.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use crate::flight::FlightRecorder;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::sync::{read, write};
use crate::trace::TraceJournal;

/// One row of a ledger's view in a registry: a counter's name, and how
/// to read the count it carries off the ledger `L`.
pub type Published<L> = (&'static str, fn(&L) -> u64);

#[derive(Default)]
struct Inner {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    tracer: RwLock<Option<TraceJournal>>,
    flight: RwLock<Option<FlightRecorder>>,
}

/// A thread-safe collection of named metrics.
///
/// Cloning a `Registry` clones an [`Arc`]; all clones see the same
/// metrics. Lookups take a read lock only; the write lock is taken once
/// per metric name, on first creation. Hot paths should resolve their
/// handles once up front and record through the handles.
///
/// ```
/// use sixdust_telemetry::Registry;
/// let reg = Registry::new();
/// let hits = reg.counter("scan.icmp.hits");
/// hits.add(3);
/// assert_eq!(reg.snapshot().counter("scan.icmp.hits"), Some(3));
/// ```
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter named `name`, creating it at zero if absent.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = read(&self.inner.counters).get(name) {
            return c.clone();
        }
        write(&self.inner.counters).entry(name.to_string()).or_default().clone()
    }

    /// Returns the gauge named `name`, creating it at zero if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = read(&self.inner.gauges).get(name) {
            return g.clone();
        }
        write(&self.inner.gauges).entry(name.to_string()).or_default().clone()
    }

    /// Returns the histogram named `name`, creating it empty if absent.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = read(&self.inner.histograms).get(name) {
            return h.clone();
        }
        write(&self.inner.histograms).entry(name.to_string()).or_default().clone()
    }

    /// Attaches an existing counter handle under `name`, so always-on
    /// counters created before the registry existed become visible in
    /// snapshots. Replaces any counter previously registered under the
    /// same name.
    pub fn register_counter(&self, name: &str, counter: &Counter) {
        write(&self.inner.counters).insert(name.to_string(), counter.clone());
    }

    /// Tells the registry what `ledger` has counted since this caller
    /// last did: each counter of `table` gains the growth of its count
    /// over `told`, the caller's record of what it has published, which
    /// is brought level. A component counts into its own ledger on its
    /// hot path and calls this where a reader can look; ledgers that
    /// share a table (the front ends of a mirror tier) add up under its
    /// names.
    ///
    /// # Panics
    ///
    /// If `told` is not as long as `table`, or a count fell below what
    /// was told (ledgers only grow).
    pub fn publish<L>(&self, table: &[Published<L>], ledger: &L, told: &mut [u64]) {
        assert_eq!(table.len(), told.len(), "one told count per table row");
        for ((name, read), told) in table.iter().zip(told) {
            let count = read(ledger);
            self.counter(name).add(count - *told);
            *told = count;
        }
    }

    /// Installs a trace journal: code paths that already hold this
    /// registry can then emit spans and instant events without any new
    /// plumbing (see [`Registry::tracer`]). Replaces a previously
    /// installed journal.
    pub fn install_tracer(&self, journal: &TraceJournal) {
        *write(&self.inner.tracer) = Some(journal.clone());
    }

    /// The installed trace journal, if any. Callers should resolve this
    /// once per scan/round (like metric handles), not per event.
    pub fn tracer(&self) -> Option<TraceJournal> {
        read(&self.inner.tracer).clone()
    }

    /// Installs a flight recorder, as [`Registry::install_tracer`] installs
    /// a journal: what this registry is attached to afterwards notes its
    /// events and freezes its captures there.
    pub fn install_flight(&self, recorder: &FlightRecorder) {
        *write(&self.inner.flight) = Some(recorder.clone());
    }

    /// The installed flight recorder, if any. Resolve it once, like the
    /// tracer.
    pub fn flight(&self) -> Option<FlightRecorder> {
        read(&self.inner.flight).clone()
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: read(&self.inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: read(&self.inner.gauges).iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: read(&self.inner.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &read(&self.inner.counters).len())
            .field("gauges", &read(&self.inner.gauges).len())
            .field("histograms", &read(&self.inner.histograms).len())
            .finish()
    }
}

/// A point-in-time copy of a [`Registry`]'s contents.
///
/// All entries are sorted by metric name (the registry stores them in
/// `BTreeMap`s), so snapshots of identical state compare equal and the
/// JSON export is deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, state)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Value of the counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Value of the gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// State of the histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Serializes the snapshot to a deterministic JSON document.
    pub fn to_json(&self) -> String {
        sixdust_json::to_string_pretty(self)
    }

    /// Parses a snapshot back from [`Snapshot::to_json`] output.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        sixdust_json::from_str(text).map_err(|e| format!("telemetry JSON: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_shared_handles() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(reg.counter("x").get(), 5);

        let h1 = reg.histogram("h");
        let h2 = reg.histogram("h");
        h1.record(1);
        h2.record(2);
        assert_eq!(reg.histogram("h").count(), 2);
    }

    #[test]
    fn register_attaches_preexisting_handles() {
        let detached = Counter::new();
        detached.add(7);
        let reg = Registry::new();
        reg.register_counter("net.probes", &detached);
        // Later increments through the original handle are visible.
        detached.incr();
        assert_eq!(reg.snapshot().counter("net.probes"), Some(8));
    }

    #[test]
    fn publish_adds_what_a_ledger_grew_by_and_ledgers_sharing_a_table_add_up() {
        const TABLE: [Published<(u64, u64)>; 2] = [("first", |l| l.0), ("sum", |l| l.0 + l.1)];
        let reg = Registry::new();
        let (mut told_a, mut told_b) = ([0; 2], [0; 2]);
        reg.publish(&TABLE, &(0, 0), &mut told_a);
        assert_eq!(reg.snapshot().counter("first"), Some(0), "a first publish registers");
        reg.publish(&TABLE, &(2, 3), &mut told_a);
        reg.publish(&TABLE, &(2, 3), &mut told_a);
        reg.publish(&TABLE, &(10, 0), &mut told_b);
        reg.publish(&TABLE, &(4, 3), &mut told_a);
        let snap = reg.snapshot();
        assert_eq!((snap.counter("first"), snap.counter("sum")), (Some(14), Some(17)));
        assert_eq!((told_a, told_b), ([4, 7], [10, 10]));
    }

    #[test]
    fn clones_share_state_and_snapshots_are_sorted() {
        let reg = Registry::new();
        let reg2 = reg.clone();
        reg.counter("b").add(1);
        reg2.counter("a").add(2);
        reg2.gauge("g").set(-4);
        reg.histogram("h").record(9);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
        assert_eq!(snap.gauge("g"), Some(-4));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn tracer_installs_and_shares_across_clones() {
        let reg = Registry::new();
        assert!(reg.tracer().is_none());
        let journal = crate::trace::TraceJournal::new();
        reg.install_tracer(&journal);
        let via_clone = reg.clone().tracer().expect("installed");
        via_clone.instant("x", &[]);
        assert_eq!(journal.len(), 1, "clones resolve the same journal");
    }

    #[test]
    fn flight_recorder_installs_and_shares_across_clones() {
        let reg = Registry::new();
        assert!(reg.flight().is_none());
        let recorder = FlightRecorder::new();
        reg.install_flight(&recorder);
        reg.clone().flight().expect("installed").capture(3, "x");
        assert_eq!(recorder.captures_len(), 1, "clones resolve the same recorder");
    }

    #[test]
    fn concurrent_get_or_create_is_consistent() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let reg = reg.clone();
                s.spawn(move || {
                    for i in 0..50u64 {
                        reg.counter(&format!("c{}", i % 5)).incr();
                    }
                });
            }
        });
        let snap = reg.snapshot();
        let total: u64 = snap.counters.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 400);
        assert_eq!(snap.counters.len(), 5);
    }
}
