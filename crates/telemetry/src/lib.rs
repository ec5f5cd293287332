//! Lightweight always-on metrics for the sixdust pipeline.
//!
//! This crate sits below every other crate in the workspace and provides
//! the four primitives the pipeline instruments itself with:
//!
//! - [`Counter`] — monotone event counts (probes sent, hits, rounds);
//! - [`Gauge`] — signed levels (queue depths, pool sizes);
//! - [`Histogram`] — log-bucketed `u64` samples (phase latencies in
//!   milliseconds, chunk sizes), and [`LocalHistogram`], the same for a
//!   distribution only its owner records and reads;
//! - [`SpanTimer`] — RAII wall-clock spans recording into a histogram.
//!
//! Handles are `Arc`-backed and record with relaxed atomics, so cloning
//! them into worker threads is free and recording never locks or
//! allocates. A [`Registry`] names the metrics and produces deterministic
//! [`Snapshot`]s exportable to JSON (see [`Snapshot::to_json`]). Every
//! telemetry export is written, and a snapshot read back, through
//! `sixdust-json`.
//!
//! On top of the point-in-time primitives sit three longitudinal layers
//! (added after the GFW post-mortem showed snapshots alone hide exactly
//! the events that matter):
//!
//! - [`SeriesRecorder`] — diffs successive registry snapshots into
//!   bounded per-round delta series, exported as JSON Lines and
//!   convertible to `sixdust_analysis::Series`;
//! - [`TraceJournal`] — a structured span/instant event journal exported
//!   as Chrome trace-event JSON (`chrome://tracing`-loadable), installed
//!   into a [`Registry`] so instrumented code finds it for free;
//! - [`MadDetector`] — an online rolling median + MAD anomaly monitor
//!   that flags a metric's round the moment it departs its baseline.
//!
//! Above the recording layers sits the *judgment-and-presentation*
//! layer (PR 7):
//!
//! - [`SloEngine`] — declarative SLOs with multi-window burn-rate
//!   alerting over the series stream, plus a bounded breach log;
//! - [`FlightRecorder`] — a bounded black-box ring of recent events and
//!   metric deltas, frozen into deterministic JSON captures when a
//!   degraded round, MAD anomaly or SLO breach fires; installed into a
//!   [`Registry`] like the journal, so whatever counts into the registry
//!   notes into it too;
//! - [`Observer`] — a series recorder and an SLO engine over one
//!   registry, recording and judging a round in one call: the hitlist
//!   service's scan days and the chaos day's hours alike;
//! - [`Dashboard`] — a self-contained static HTML ops dashboard
//!   (inline SVG sparklines, zero dependencies, byte-identical across
//!   runs at a fixed seed).
//!
//! # Naming scheme
//!
//! Metric names are dot-separated, lower-case paths:
//! `<subsystem>.<object>.<measure>[_<unit>]`, e.g. `scan.icmp.hits`,
//! `scan.worker.chunk_ms`, `service.round.phase.alias_ms`, `net.probes`.
//! Durations are histograms in milliseconds with an `_ms` suffix;
//! microsecond metrics use `_us`. Millisecond durations round **up** to
//! at least `1`, so a fast-but-real phase is distinguishable from one
//! that never ran (`0`); phases needing finer resolution should use a
//! `_us` metric instead.
//!
//! # Example
//!
//! ```
//! use sixdust_telemetry::{Registry, SpanTimer};
//!
//! let reg = Registry::new();
//! let hits = reg.counter("scan.icmp.hits");
//! let chunk_ms = reg.histogram("scan.worker.chunk_ms");
//! {
//!     let _span = SpanTimer::start(&chunk_ms);
//!     hits.add(3);
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("scan.icmp.hits"), Some(3));
//! assert_eq!(snap.histogram("scan.worker.chunk_ms").unwrap().count, 1);
//! let json = snap.to_json();
//! assert_eq!(sixdust_telemetry::Snapshot::from_json(&json).unwrap(), snap);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anomaly;
mod flight;
mod json;
mod metrics;
mod observer;
mod registry;
mod report;
mod series;
mod slo;
mod sync;
mod trace;

pub use anomaly::{flag_series, MadConfig, MadDetector, Verdict};
pub use flight::{
    FlightCapture, FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPTURES, DEFAULT_FLIGHT_EVENTS,
    DEFAULT_FLIGHT_ROUNDS,
};
pub use metrics::{
    bucket_floor, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, LocalHistogram,
    SpanTimer, BUCKETS,
};
pub use observer::Observer;
pub use registry::{Published, Registry, Snapshot};
pub use report::Dashboard;
pub use series::{is_deterministic_metric, SeriesRecorder, SeriesRound, DEFAULT_SERIES_CAPACITY};
pub use slo::{SloBreach, SloEngine, SloSignal, SloSpec, SloStatus, MAX_BREACH_LOG};
pub use trace::{TraceEvent, TraceJournal, TracePhase, TraceSpan, DEFAULT_TRACE_CAPACITY};
