//! The event-loop front end: a virtual-time reactor over a [`Backend`].
//!
//! The synchronous serve path couples one request to one caller "thread"
//! — `Frontend::handle` runs admit → cache/render → transfer to
//! completion before the caller may submit the next arrival. This module
//! decouples them: [`EventLoop::submit`] is *non-blocking* admission
//! (the ledger decision is made at arrival time, exactly as the
//! synchronous path does), and the request then lives as a small state
//! machine whose phase transitions — render done, transfer done /
//! retire — are events on a pending-completion heap. Concurrency is
//! bounded by the loop's in-flight set, not by the caller: a million
//! virtual clients can have thousands of transfers in flight while the
//! driver keeps submitting.
//!
//! The loop schedules over a [`Backend`]: a bare [`Frontend`], or the
//! resilient client of a mirror tier ([`resilience`](crate::resilience)).
//! It is generic over the backend, one compiled copy each, so a uniform
//! day still calls `Frontend::handle` directly where a `dyn` backend
//! would put an indirect call, and no inlining, on each of a day's
//! million requests.
//!
//! Determinism contract: submissions must arrive in non-decreasing
//! virtual time, and the loop calls the *same* `Frontend::handle` at the
//! same instants the synchronous path would, so the
//! [`DayReport`](crate::DayReport) ledger is byte-identical between the
//! two at matched configuration (pinned by tests). What the reactor adds
//! on top is completion *delivery* at retire time (the fleet applies
//! client-held state when the transfer finishes, not when it starts) and
//! the `serve.loop.*` phase telemetry.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sixdust_telemetry::{Gauge, HistogramSnapshot, Published, Registry};

use crate::server::{Frontend, FrontendTotals, Outcome, Request};
use crate::store::ArtifactKind;

/// What an [`EventLoop`] schedules over, and what a day's report reads
/// back afterwards.
pub trait Backend {
    /// Answers `request` (submission `id`) at its arrival instant: the
    /// outcome the client adopts, and the microseconds the client itself
    /// waited on top of the outcome's served latency (retry backoff; zero
    /// for a front end). `None` when the client is left with no answer —
    /// nothing retires into a completion then.
    fn answer(&mut self, id: u64, request: &Request) -> Option<(Outcome, u64)>;

    /// How long after arrival a cache-miss body's render phase ends, for
    /// a backend that is one front end; `None` when several may serve one
    /// request and there is no single render phase to schedule.
    fn render_us(&self) -> Option<u64> {
        None
    }

    /// Front-end totals over every request answered so far.
    fn totals(&self) -> FrontendTotals;

    /// The client-observed latency distribution so far, microseconds.
    fn latency(&self) -> HistogramSnapshot;

    /// Tells the attached registries, if any, what the backend's ledgers
    /// have counted since they were last told.
    fn publish(&mut self);

    /// `client`'s session is over: called once, after the client's last
    /// [`answer`](Backend::answer), and no request of that client follows.
    /// A backend drops what it keeps for the client alone.
    fn end_session(&mut self, _client: u64) {}
}

impl Backend for Frontend {
    #[inline]
    fn answer(&mut self, _id: u64, request: &Request) -> Option<(Outcome, u64)> {
        Some((self.handle(request), 0))
    }

    fn render_us(&self) -> Option<u64> {
        Some(self.config().base_latency_us.saturating_add(self.config().render_latency_us))
    }

    fn totals(&self) -> FrontendTotals {
        Frontend::totals(self).clone()
    }

    fn latency(&self) -> HistogramSnapshot {
        self.latency_snapshot()
    }

    fn publish(&mut self) {
        Frontend::publish(self);
    }

    fn end_session(&mut self, client: u64) {
        Frontend::end_session(self, client);
    }
}

/// The served latency of an answer (a shed or unavailable outcome has
/// none).
pub(crate) fn served_latency(outcome: &mut Outcome) -> Option<&mut u64> {
    match outcome {
        Outcome::Body { latency_us, .. } | Outcome::NotModified { latency_us, .. } => {
            Some(latency_us)
        }
        _ => None,
    }
}

/// A retired request, delivered by [`EventLoop::poll`] once its
/// transfer has completed on the virtual timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The submission id (the fleet's request index).
    pub id: u64,
    /// The requesting client.
    pub client: u64,
    /// The artifact the request asked for.
    pub kind: ArtifactKind,
    /// Retire time: arrival plus the served latency plus the client's own
    /// delay (arrival itself for shed and unavailable outcomes, which
    /// never occupy the loop).
    pub at_us: u64,
    /// How the backend answered.
    pub outcome: Outcome,
}

/// One entry of a [`Timeline`], ordered by `(at_us, seq)` alone.
#[derive(Debug)]
struct Timed<T> {
    at_us: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Timed<T> {
    fn eq(&self, other: &Timed<T>) -> bool {
        (self.at_us, self.seq) == (other.at_us, other.seq)
    }
}

impl<T> Eq for Timed<T> {}

impl<T> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Timed<T>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Timed<T> {
    fn cmp(&self, other: &Timed<T>) -> std::cmp::Ordering {
        (self.at_us, self.seq).cmp(&(other.at_us, other.seq))
    }
}

/// Items due at virtual instants, handed back in `(time, push order)`
/// order — the one total order every replay path delivers in.
#[derive(Debug)]
pub(crate) struct Timeline<T> {
    heap: BinaryHeap<Reverse<Timed<T>>>,
    seq: u64,
}

impl<T> Timeline<T> {
    pub(crate) fn new() -> Timeline<T> {
        Timeline { heap: BinaryHeap::new(), seq: 0 }
    }

    pub(crate) fn push(&mut self, at_us: u64, item: T) {
        self.seq += 1;
        self.heap.push(Reverse(Timed { at_us, seq: self.seq, item }));
    }

    /// The earliest item due at or before `until_us`, if any.
    pub(crate) fn pop_due(&mut self, until_us: u64) -> Option<T> {
        if self.heap.peek()?.0.at_us > until_us {
            return None;
        }
        self.heap.pop().map(|Reverse(timed)| timed.item)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// What a pending timeline event does when its time comes.
#[derive(Debug)]
enum Phase {
    /// A cache-miss body finished rendering (the transfer continues).
    RenderDone,
    /// The request retires: deliver its completion and free its slot.
    Retire(Completion),
}

/// The loop's own running counters — phase traffic and occupancy,
/// independent of the optional registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Requests submitted.
    pub arrivals: u64,
    /// Render phases completed (cache-miss bodies).
    pub renders: u64,
    /// Body transfers completed.
    pub transfers: u64,
    /// Requests retired (every submission retires exactly once).
    pub retired: u64,
    /// Requests currently between admission and retire.
    pub inflight: u64,
    /// High-water mark of `inflight` across the run.
    pub inflight_peak: u64,
}

/// The registry's view of the loop's phase counters.
pub(crate) const PUBLISHED: [Published<LoopStats>; 4] = [
    ("serve.loop.arrivals", |s| s.arrivals),
    ("serve.loop.renders", |s| s.renders),
    ("serve.loop.transfers", |s| s.transfers),
    ("serve.loop.retired", |s| s.retired),
];

/// An attached registry: the occupancy gauges, set as occupancy changes,
/// and how much of [`LoopStats`] it has been told.
struct LoopMeters {
    registry: Registry,
    told: [u64; PUBLISHED.len()],
    inflight: Gauge,
    inflight_peak: Gauge,
}

/// A virtual-time event loop over a borrowed [`Backend`].
pub struct EventLoop<'a, B = Frontend> {
    backend: &'a mut B,
    pending: Timeline<Phase>,
    /// Completions whose retire time has passed, awaiting a `poll`.
    ready: Vec<Completion>,
    stats: LoopStats,
    meters: Option<LoopMeters>,
    clock: u64,
}

impl<B> std::fmt::Debug for EventLoop<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoop")
            .field("clock", &self.clock)
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'a, B: Backend> EventLoop<'a, B> {
    /// Wraps a backend in a reactor. The backend keeps its totals, cache,
    /// buckets and latency histogram — the loop only schedules.
    pub fn new(backend: &'a mut B) -> EventLoop<'a, B> {
        EventLoop {
            backend,
            pending: Timeline::new(),
            ready: Vec::new(),
            stats: LoopStats::default(),
            meters: None,
            clock: 0,
        }
    }

    /// Attaches a metrics registry (`serve.loop.{arrivals,renders,`
    /// `transfers,retired,inflight,inflight_peak}`). The gauges follow
    /// occupancy as it changes; the counters are [`LoopStats`], and reach
    /// the registry on [`EventLoop::publish`].
    pub fn with_telemetry(mut self, registry: &Registry) -> EventLoop<'a, B> {
        self.meters = Some(LoopMeters {
            registry: registry.clone(),
            told: [0; PUBLISHED.len()],
            inflight: registry.gauge("serve.loop.inflight"),
            inflight_peak: registry.gauge("serve.loop.inflight_peak"),
        });
        // Every counter exists, at zero, from here on.
        self.publish();
        self
    }

    /// Tells the attached registry, if any, what the loop has counted
    /// since it was last told, and has the backend do the same. A day
    /// driver calls this when the day ends; a caller of
    /// [`EventLoop::submit`] does before reading the registry.
    pub fn publish(&mut self) {
        if let Some(m) = &mut self.meters {
            m.registry.publish(&PUBLISHED, &self.stats, &mut m.told);
        }
        self.backend.publish();
    }

    /// The wrapped backend (totals, latency snapshot).
    pub fn backend(&self) -> &B {
        self.backend
    }

    /// Ends `client`'s session at the backend ([`Backend::end_session`]):
    /// after its last [`EventLoop::submit`].
    pub(crate) fn end_session(&mut self, client: u64) {
        self.backend.end_session(client);
    }

    /// The loop's phase counters and occupancy so far.
    pub fn stats(&self) -> LoopStats {
        self.stats
    }

    fn set_inflight(&mut self, delta: i64) {
        self.stats.inflight = self.stats.inflight.checked_add_signed(delta).unwrap_or(0);
        self.stats.inflight_peak = self.stats.inflight_peak.max(self.stats.inflight);
        if let Some(m) = &self.meters {
            m.inflight.set(self.stats.inflight as i64);
            m.inflight_peak.set(self.stats.inflight_peak as i64);
        }
    }

    /// Non-blocking admission of one arrival. Every ledger decision
    /// (admit, shed, cache, totals, latency) is made here, at arrival
    /// time, through the same [`Backend::answer`] the synchronous path
    /// calls — the loop then schedules the request's remaining phases
    /// and returns immediately. Arrivals must be submitted in
    /// non-decreasing `at_us` order.
    pub fn submit(&mut self, id: u64, request: &Request) {
        debug_assert!(request.at_us >= self.clock, "arrivals must be time-ordered");
        self.advance_to(request.at_us);
        self.clock = request.at_us;
        self.stats.arrivals += 1;
        let at = request.at_us;
        let mut answer = self.backend.answer(id, request);
        // A served answer occupies the loop until its transfer and the
        // client's own delay are over.
        let retire = answer.as_mut().and_then(|(outcome, delay_us)| {
            let latency_us = *served_latency(outcome)?;
            Some(at.saturating_add(latency_us).saturating_add(*delay_us))
        });
        if let (Some(retire), Some((Outcome::Body { cached: false, .. }, _)), Some(render_us)) =
            (retire, &answer, self.backend.render_us())
        {
            // Render slot: the body was reserved (and the cache
            // populated) at admission; the render *phase* ends after
            // base + render latency, mid-transfer.
            self.pending.push(at.saturating_add(render_us).min(retire), Phase::RenderDone);
        }
        let completion = answer.map(|(outcome, _)| Completion {
            id,
            client: request.client,
            kind: request.kind,
            at_us: retire.unwrap_or(at),
            outcome,
        });
        match (retire, completion) {
            (Some(retire), Some(completion)) => {
                self.set_inflight(1);
                self.pending.push(retire, Phase::Retire(completion));
            }
            (_, rejection) => {
                // Rejected at admission, or left without an answer:
                // retires on the spot, occupying nothing. A rejection is
                // delivered on the next poll; no answer delivers nothing.
                self.stats.retired += 1;
                self.ready.extend(rejection);
            }
        }
    }

    fn advance_to(&mut self, until_us: u64) {
        while let Some(phase) = self.pending.pop_due(until_us) {
            match phase {
                Phase::RenderDone => {
                    self.stats.renders += 1;
                }
                Phase::Retire(completion) => {
                    self.stats.retired += 1;
                    if matches!(completion.outcome, Outcome::Body { .. }) {
                        self.stats.transfers += 1;
                    }
                    self.set_inflight(-1);
                    self.ready.push(completion);
                }
            }
        }
    }

    /// Fires every phase event due at or before `until_us` and returns
    /// the requests that retired, in `(retire time, submission order)`
    /// order. The fleet driver calls this before each submission so
    /// client-held state advances exactly when transfers complete.
    pub fn poll(&mut self, until_us: u64) -> Vec<Completion> {
        self.advance_to(until_us);
        std::mem::take(&mut self.ready)
    }

    /// [`poll`](EventLoop::poll) without a `Vec` allocated per call.
    pub(crate) fn poll_each(&mut self, until_us: u64, deliver: impl FnMut(Completion)) {
        self.advance_to(until_us);
        self.ready.drain(..).for_each(deliver);
    }

    /// Drains the loop: fires every remaining event and returns the
    /// final completions. The loop is reusable afterwards.
    pub fn finish(&mut self) -> Vec<Completion> {
        self.poll(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FetchKind, FrontendConfig};
    use crate::store::{SnapshotStore, StoreConfig};
    use std::sync::Arc;

    fn served_store() -> Arc<SnapshotStore> {
        let store = SnapshotStore::new(StoreConfig::default());
        let items: sixdust_addr::AddrSet = (0..2000u128).map(|i| i * 31).collect();
        store.publish_round(1, "d1", vec![(ArtifactKind::Responsive, items)]);
        Arc::new(store)
    }

    fn request(client: u64, at_us: u64) -> Request {
        Request {
            client,
            kind: ArtifactKind::Responsive,
            fetch: FetchKind::Full,
            if_none_match: None,
            at_us,
        }
    }

    #[test]
    fn phases_fire_in_order_and_completions_arrive_at_retire_time() {
        let mut fe = Frontend::new(FrontendConfig::default(), served_store());
        let mut el = EventLoop::new(&mut fe);
        el.submit(0, &request(1, 0));
        assert!(el.poll(0).is_empty(), "the transfer is still in flight at t=0");
        assert_eq!(el.stats().inflight, 1);
        let done = el.finish();
        assert_eq!(done.len(), 1);
        let Outcome::Body { latency_us, cached: false, .. } = done[0].outcome else {
            panic!("first fetch renders a body");
        };
        assert_eq!(done[0].at_us, latency_us, "retire = arrival + served latency");
        let s = el.stats();
        assert_eq!((s.arrivals, s.renders, s.transfers, s.retired), (1, 1, 1, 1));
        assert_eq!(s.inflight, 0);
        assert_eq!(s.inflight_peak, 1);
    }

    #[test]
    fn sheds_retire_immediately_without_occupancy() {
        let config = FrontendConfig::builder().with_client_bucket(1, 0);
        let mut fe = Frontend::new(config, served_store());
        let mut el = EventLoop::new(&mut fe);
        el.submit(0, &request(7, 0));
        el.submit(1, &request(7, 1));
        let now = el.poll(1);
        assert_eq!(now.len(), 1, "the shed resolves at once; the body is still in flight");
        assert!(matches!(now[0].outcome, Outcome::ShedClient));
        assert_eq!(el.stats().inflight, 1, "a shed never occupies a slot");
        assert_eq!(el.finish().len(), 1);
        assert_eq!(el.stats().transfers, 1);
        assert_eq!(el.stats().retired, 2, "every submission retires exactly once");
    }

    #[test]
    fn loop_telemetry_reports_phase_counters() {
        let reg = Registry::new();
        let mut fe = Frontend::new(FrontendConfig::default(), served_store());
        let mut el = EventLoop::new(&mut fe).with_telemetry(&reg);
        for (i, client) in (0..4u64).enumerate() {
            el.submit(i as u64, &request(client, i as u64 * 10));
        }
        el.finish();
        assert_eq!(reg.snapshot().counter("serve.loop.arrivals"), Some(0), "not told yet");
        el.publish();
        let (snap, stats) = (reg.snapshot(), el.stats());
        assert_eq!((stats.arrivals, stats.retired, stats.transfers), (4, 4, 4));
        assert_eq!(stats.renders, 1, "one miss, then cache hits");
        for (name, read) in PUBLISHED {
            assert_eq!(snap.counter(name), Some(read(&stats)), "{name}");
        }
        assert_eq!(snap.gauge("serve.loop.inflight_peak"), Some(stats.inflight_peak as i64));
        assert!(stats.inflight_peak >= 1);
    }
}
