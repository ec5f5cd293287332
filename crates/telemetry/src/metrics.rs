//! The metric primitives: counters, gauges, log-bucketed histograms and
//! RAII span timers.
//!
//! Every handle is a cheap [`Arc`] clone around lock-free atomics, so hot
//! paths can hold pre-resolved handles and record with a single relaxed
//! atomic operation — no registry lookup, no lock, no allocation. Handles
//! created with `new()` start *detached*: they count, but nothing reads
//! them until they are registered in a
//! [`Registry`](crate::registry::Registry).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of histogram buckets: one per power of two of `u64`, plus a
/// dedicated bucket for zero.
pub const BUCKETS: usize = 65;

/// A monotonically increasing event counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    inner: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a detached counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// A signed gauge for level-style metrics (queue depths, pool sizes).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    inner: Arc<AtomicI64>,
}

impl Gauge {
    /// Creates a detached gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.inner.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `d` to the gauge.
    #[inline]
    pub fn add(&self, d: i64) {
        self.inner.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.inner.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed histogram of `u64` samples (latencies in milliseconds,
/// sizes in bytes, …).
///
/// Bucket `0` holds the value `0`; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`. Recording is five relaxed atomic read-modify-writes
/// (the minimum and maximum are compare-and-swap loops) and never
/// allocates: the price of a handle that clones into a registry and into
/// other threads. A distribution only its owner records and reads — a
/// front end's or a client's own latency — is a [`LocalHistogram`]: the
/// same buckets and the same snapshot, recorded with plain adds.
#[derive(Clone, Default)]
pub struct Histogram {
    inner: Arc<HistogramCore>,
}

/// The bucket a value falls into: `0` for zero, otherwise
/// `floor(log2(value)) + 1`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The smallest value belonging to bucket `index` (inverse of
/// [`bucket_index`]).
pub fn bucket_floor(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

impl Histogram {
    /// Creates a detached, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let core = &*self.inner;
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in whole milliseconds (the unit every `*_ms`
    /// metric uses). Sub-millisecond but non-zero durations saturate **up**
    /// to `1` so fast phases land in the `[1, 2)` bucket instead of
    /// collapsing indistinguishably into the zero bucket; a literally
    /// zero duration still records `0`.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        let ms = d.as_millis().min(u128::from(u64::MAX)) as u64;
        self.record(if ms == 0 && d.as_nanos() > 0 { 1 } else { ms });
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.inner.min.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.inner.max.load(Ordering::Relaxed))
        }
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.inner;
        snapshot_of(
            core.count.load(Ordering::Relaxed),
            core.sum.load(Ordering::Relaxed),
            core.min.load(Ordering::Relaxed),
            core.max.load(Ordering::Relaxed),
            |i| core.buckets[i].load(Ordering::Relaxed),
        )
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("count", &self.count()).field("sum", &self.sum()).finish()
    }
}

/// The one snapshot builder of both histogram kinds: the totals as
/// recorded (`min` starts at `u64::MAX`) and each bucket's count.
fn snapshot_of(
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    bucket: impl Fn(usize) -> u64,
) -> HistogramSnapshot {
    let buckets: Vec<(u64, u64)> = (0..BUCKETS)
        .filter_map(|i| {
            let c = bucket(i);
            (c > 0).then(|| (bucket_floor(i), c))
        })
        .collect();
    HistogramSnapshot { count, sum, min: if count == 0 { 0 } else { min }, max, buckets }
}

/// A [`Histogram`] its one owner records through `&mut self`: the same
/// buckets, totals (the sum wraps on overflow) and [`HistogramSnapshot`],
/// with plain adds where the shared kind pays atomic read-modify-writes.
/// It cannot be registered; a distribution a registry reads stays a
/// [`Histogram`].
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl LocalHistogram {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// A copy of the histogram's state, as [`Histogram::snapshot`] gives.
    pub fn snapshot(&self) -> HistogramSnapshot {
        snapshot_of(self.count, self.sum, self.min, self.max, |i| self.buckets[i])
    }
}

/// A point-in-time copy of one histogram: totals plus the non-empty
/// buckets as `(bucket lower bound, sample count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (`0` when empty).
    pub min: u64,
    /// Largest sample (`0` when empty).
    pub max: u64,
    /// Non-empty buckets, ascending by lower bound.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by locating the
    /// bucket holding the ranked sample and interpolating linearly within
    /// the bucket's `[2^(i-1), 2^i)` range. The estimate is clamped to
    /// the recorded `min`/`max`, so degenerate one-sample histograms
    /// return the exact value. Returns `0` when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for &(floor, bucket_count) in &self.buckets {
            if cumulative + bucket_count >= rank {
                if floor == 0 {
                    return 0;
                }
                // The bucket spans [floor, 2*floor); spread its samples
                // evenly and pick the ranked one's position.
                let into = (rank - cumulative) as f64 / bucket_count as f64;
                let est = floor as f64 + into * (floor as f64 - 1.0);
                return (est as u64).clamp(self.min, self.max);
            }
            cumulative += bucket_count;
        }
        self.max
    }

    /// Median estimate; see [`HistogramSnapshot::percentile`].
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th-percentile estimate; see [`HistogramSnapshot::percentile`].
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th-percentile estimate; see [`HistogramSnapshot::percentile`].
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

/// An RAII span timer: starts on construction, records the elapsed wall
/// time into its histogram (in milliseconds) when dropped.
///
/// ```
/// use sixdust_telemetry::{Histogram, SpanTimer};
/// let h = Histogram::new();
/// {
///     let _span = SpanTimer::start(&h);
///     // … timed work …
/// }
/// assert_eq!(h.count(), 1);
/// ```
#[derive(Debug)]
pub struct SpanTimer {
    histogram: Histogram,
    started: Instant,
}

impl SpanTimer {
    /// Starts timing against `histogram`.
    pub fn start(histogram: &Histogram) -> SpanTimer {
        SpanTimer { histogram: histogram.clone(), started: Instant::now() }
    }

    /// Stops the span early and returns the elapsed time (also recorded).
    pub fn stop(self) -> Duration {
        let elapsed = self.started.elapsed();
        drop(self);
        elapsed
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.histogram.record_duration(self.started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Clones share the underlying cell.
        let c2 = c.clone();
        c2.incr();
        assert_eq!(c.get(), 43);

        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_edges() {
        // Zero gets its own bucket.
        assert_eq!(bucket_index(0), 0);
        // Powers of two open a new bucket; their predecessors close one.
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1 << 63), 64);
        assert_eq!(bucket_index((1 << 63) - 1), 63);
        // bucket_floor inverts bucket_index on bucket lower bounds.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_floor(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        // 0 → bucket 0; 1 → [1,2); 2 and 3 → [2,4); 1000 → [512,1024).
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (2, 2), (512, 1)]);
        assert!((snap.mean() - 201.2).abs() < 1e-9);
    }

    #[test]
    fn a_local_histogram_snapshots_as_the_shared_one() {
        // Seeded sequences of every magnitude, each with 0, 1 and
        // u64::MAX: the third sample already wraps the sum.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0usize, 1, 3, 17, 1_000] {
            let shared = Histogram::new();
            let mut local = LocalHistogram::default();
            assert_eq!(local.snapshot(), shared.snapshot(), "empty");
            let edges = [0, 1, u64::MAX];
            for i in 0..len {
                let value = match edges.get(i) {
                    Some(&edge) => edge,
                    None => next() >> (next() % 64),
                };
                shared.record(value);
                local.record(value);
            }
            let (a, b) = (local.snapshot(), shared.snapshot());
            assert_eq!(a, b, "{len} samples");
            assert_eq!((a.p50(), a.p90(), a.p99()), (b.p50(), b.p90(), b.p99()), "{len} samples");
            if len == 3 {
                assert_eq!(a.sum, 0, "0 + 1 + u64::MAX wraps");
            }
        }
    }

    #[test]
    fn sub_millisecond_durations_round_up_to_one() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(250));
        h.record_duration(Duration::from_nanos(1));
        h.record_duration(Duration::from_millis(5));
        h.record_duration(Duration::ZERO);
        assert_eq!(h.count(), 4);
        let snap = h.snapshot();
        // 250µs and 1ns → bucket [1,2); 5ms → [4,8); 0 → zero bucket.
        assert_eq!(snap.buckets, vec![(0, 1), (1, 2), (4, 1)]);
        assert_eq!(h.min(), Some(0));
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        let p50 = snap.p50();
        assert!((32..=64).contains(&p50), "p50={p50}");
        let p90 = snap.p90();
        assert!((64..=100).contains(&p90), "p90={p90}");
        let p99 = snap.p99();
        assert!((90..=100).contains(&p99), "p99={p99}");
        assert!(p50 <= p90 && p90 <= p99, "monotone: {p50} {p90} {p99}");
        assert_eq!(snap.percentile(0.0), snap.percentile(0.001));
        assert_eq!(snap.percentile(1.0), 100, "p100 clamps to max");
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(Histogram::new().snapshot().p50(), 0, "empty histogram");
        let h = Histogram::new();
        h.record(777);
        let snap = h.snapshot();
        // One sample: every percentile is that sample (min/max clamp).
        assert_eq!(snap.p50(), 777);
        assert_eq!(snap.p99(), 777);
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.snapshot().p90(), 0, "zero bucket");
    }

    #[test]
    fn span_timer_records_on_drop_and_stop() {
        let h = Histogram::new();
        {
            let _span = SpanTimer::start(&h);
        }
        assert_eq!(h.count(), 1);
        let span = SpanTimer::start(&h);
        let _elapsed = span.stop();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_is_shared_across_clones_and_threads() {
        let h = Histogram::new();
        let h2 = h.clone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for v in 0..100u64 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h2.count(), 400);
    }
}
