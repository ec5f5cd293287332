//! Longitudinal metric series: per-round deltas diffed out of successive
//! [`Registry`] snapshots.
//!
//! A [`Snapshot`](crate::Snapshot) is point-in-time; the paper's GFW
//! lesson (Sec. 4.2) is that point-in-time totals hide exactly the events
//! that matter — only the *trajectory* shows a 134 M-address injection
//! spike. [`SeriesRecorder`] turns the cumulative registry into per-round
//! series: call [`SeriesRecorder::record`] once per scan round (or day)
//! and it diffs the new snapshot against the previous one, producing one
//! delta point per metric:
//!
//! * **counters** — the per-round increment (`cur − prev`);
//! * **gauges** — the current level (clamped at zero);
//! * **histograms** — the per-round sample count and sum under
//!   `<name>.count` / `<name>.sum`, plus interpolated `p50`/`p90`/`p99`
//!   of the round's own samples (diffed bucket-by-bucket) when any were
//!   recorded.
//!
//! Rounds are held in a bounded ring buffer ([`SeriesRecorder::evicted`]
//! counts what aged out) and export as JSON Lines (one flat object per
//! round). [`SeriesRecorder::points`] extracts one
//! metric as `(key, value)` pairs — the exact shape
//! `sixdust_analysis::Series` consumes, so the existing spike/CDF
//! machinery runs directly on live telemetry.

use std::collections::VecDeque;

use crate::metrics::HistogramSnapshot;
use crate::registry::{Registry, Snapshot};

/// Default ring-buffer capacity: four years of daily rounds with room to
/// spare.
pub const DEFAULT_SERIES_CAPACITY: usize = 2048;

/// Whether a series column reproduces exactly across runs at a fixed
/// seed.
///
/// Everything the pipeline records is driven by seeded PRFs or virtual
/// time — except wall-clock duration metrics (`*_ms` histograms and the
/// `.count`/`.sum`/percentile columns derived from them, and `*_us`
/// timers such as `scan.rate.wait_us`), which vary run to run. The one
/// `_us` family that *is* deterministic is the serve frontend's
/// `latency_us`, which is measured in simulated (virtual) time. The
/// dashboard renderer and the flight recorder both filter through this
/// predicate so their output is byte-identical across runs.
pub fn is_deterministic_metric(name: &str) -> bool {
    let base = name
        .strip_suffix(".count")
        .or_else(|| name.strip_suffix(".sum"))
        .or_else(|| name.strip_suffix(".p50"))
        .or_else(|| name.strip_suffix(".p90"))
        .or_else(|| name.strip_suffix(".p99"))
        .unwrap_or(name);
    if base.ends_with("_ms") {
        return false;
    }
    if base.ends_with("_us") {
        // Virtual-time latency histograms (serve.latency_us and the
        // per-artifact-kind serve.kind.<stem>.latency_us) are exact.
        return base.ends_with("latency_us");
    }
    true
}

/// One recorded round: the key (round index or simulation day) plus every
/// metric's delta value, sorted by metric name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesRound {
    /// Round key (scan day, round index, …) as supplied to `record`.
    pub key: u32,
    /// `(metric name, value)` pairs, ascending by name.
    pub values: Vec<(String, u64)>,
}

impl SeriesRound {
    /// The value recorded for `metric` this round, if any.
    pub fn value(&self, metric: &str) -> Option<u64> {
        self.values
            .binary_search_by(|(name, _)| name.as_str().cmp(metric))
            .ok()
            .map(|i| self.values[i].1)
    }
}

/// Diffs successive registry snapshots into bounded per-round series.
///
/// ```
/// use sixdust_telemetry::{Registry, SeriesRecorder};
/// let reg = Registry::new();
/// let mut rec = SeriesRecorder::new(reg.clone(), 512);
/// reg.counter("scan.udp53.hits").add(10);
/// rec.record(1);
/// reg.counter("scan.udp53.hits").add(90);
/// rec.record(2);
/// assert_eq!(rec.points("scan.udp53.hits"), vec![(1, 10), (2, 90)]);
/// ```
#[derive(Debug)]
pub struct SeriesRecorder {
    registry: Registry,
    capacity: usize,
    prev: Snapshot,
    rounds: VecDeque<SeriesRound>,
    evicted: u64,
}

impl SeriesRecorder {
    /// Creates a recorder over `registry` keeping at most `capacity`
    /// rounds (0 is treated as 1).
    pub fn new(registry: Registry, capacity: usize) -> SeriesRecorder {
        SeriesRecorder {
            registry,
            capacity: capacity.max(1),
            prev: Snapshot::default(),
            rounds: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Snapshots the registry, diffs against the previous snapshot and
    /// appends one round keyed by `key`. Returns the recorded round.
    pub fn record(&mut self, key: u32) -> &SeriesRound {
        let cur = self.registry.snapshot();
        let mut values: Vec<(String, u64)> =
            Vec::with_capacity(cur.counters.len() + cur.gauges.len() + cur.histograms.len() * 5);

        // All three sections are sorted by name, so each diff is a single
        // merge walk against the previous snapshot.
        let mut prev_it = self.prev.counters.iter().peekable();
        for (name, value) in &cur.counters {
            let prev = loop {
                match prev_it.peek() {
                    Some((pn, pv)) if pn == name => break *pv,
                    Some((pn, _)) if pn.as_str() < name.as_str() => {
                        prev_it.next();
                    }
                    _ => break 0,
                }
            };
            values.push((name.clone(), value.saturating_sub(prev)));
        }
        for (name, value) in &cur.gauges {
            // Gauges are levels, not increments; negative levels clamp to
            // zero so the whole row stays uniformly unsigned.
            values.push((name.clone(), u64::try_from(*value).unwrap_or(0)));
        }
        let mut prev_it = self.prev.histograms.iter().peekable();
        for (name, h) in &cur.histograms {
            let prev = loop {
                match prev_it.peek() {
                    Some((pn, ph)) if pn == name => break Some(ph),
                    Some((pn, _)) if pn.as_str() < name.as_str() => {
                        prev_it.next();
                    }
                    _ => break None,
                }
            };
            let delta = diff_histogram(h, prev);
            values.push((format!("{name}.count"), delta.count));
            values.push((format!("{name}.sum"), delta.sum));
            if delta.count > 0 {
                values.push((format!("{name}.p50"), delta.p50()));
                values.push((format!("{name}.p90"), delta.p90()));
                values.push((format!("{name}.p99"), delta.p99()));
            }
        }
        values.sort_by(|a, b| a.0.cmp(&b.0));

        self.prev = cur;
        if self.rounds.len() == self.capacity {
            self.rounds.pop_front();
            self.evicted += 1;
        }
        self.rounds.push_back(SeriesRound { key, values });
        self.rounds.back().expect("just pushed")
    }

    /// The registry this recorder diffs.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Recorded rounds, oldest first.
    pub fn rounds(&self) -> impl Iterator<Item = &SeriesRound> {
        self.rounds.iter()
    }

    /// Number of retained rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Rounds evicted from the ring buffer so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Extracts one metric as `(key, value)` points, oldest first —
    /// directly consumable by `sixdust_analysis::Series::new`. Rounds in
    /// which the metric was absent are skipped.
    pub fn points(&self, metric: &str) -> Vec<(u32, u64)> {
        self.rounds.iter().filter_map(|r| r.value(metric).map(|v| (r.key, v))).collect()
    }

    /// Every metric name appearing in any retained round, sorted.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.rounds.iter().flat_map(|r| r.values.iter().map(|(n, _)| n.clone())).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Exports every retained round as JSON Lines: one compact object per
    /// round with a `"key"` field plus one field per metric, names sorted.
    pub fn to_jsonl(&self) -> String {
        self.rounds.iter().map(|round| sixdust_json::to_string(round) + "\n").collect()
    }
}

/// The distribution of samples recorded *between* two snapshots of one
/// histogram, reconstructed bucket-by-bucket.
fn diff_histogram(cur: &HistogramSnapshot, prev: Option<&HistogramSnapshot>) -> HistogramSnapshot {
    let Some(prev) = prev else {
        return cur.clone();
    };
    let count = cur.count.saturating_sub(prev.count);
    let sum = cur.sum.saturating_sub(prev.sum);
    let mut buckets: Vec<(u64, u64)> = Vec::with_capacity(cur.buckets.len());
    let mut prev_it = prev.buckets.iter().peekable();
    for &(floor, c) in &cur.buckets {
        let pc = loop {
            match prev_it.peek() {
                Some((pf, pc)) if *pf == floor => break *pc,
                Some((pf, _)) if *pf < floor => {
                    prev_it.next();
                }
                _ => break 0,
            }
        };
        if c > pc {
            buckets.push((floor, c - pc));
        }
    }
    // min/max of just this round are unknowable from cumulative state;
    // bound them by the occupied delta buckets.
    let min = buckets.first().map(|(f, _)| *f).unwrap_or(0);
    // The top bucket's floor is 2^63, so its bound is written not to
    // overflow.
    let max = buckets.last().map(|(f, _)| if *f == 0 { 0 } else { f + (f - 1) }).unwrap_or(0);
    HistogramSnapshot { count, sum, min, max, buckets }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_diff_gauges_level() {
        let reg = Registry::new();
        let mut rec = SeriesRecorder::new(reg.clone(), 16);
        reg.counter("c").add(5);
        reg.gauge("g").set(7);
        let r1 = rec.record(1).clone();
        assert_eq!(r1.value("c"), Some(5));
        assert_eq!(r1.value("g"), Some(7));
        reg.counter("c").add(3);
        reg.gauge("g").set(-2);
        let r2 = rec.record(2).clone();
        assert_eq!(r2.value("c"), Some(3), "counter delta, not total");
        assert_eq!(r2.value("g"), Some(0), "negative gauge clamps");
    }

    #[test]
    fn metrics_created_mid_run_join_the_series() {
        let reg = Registry::new();
        let mut rec = SeriesRecorder::new(reg.clone(), 16);
        reg.counter("a").add(1);
        rec.record(0);
        reg.counter("b").add(9);
        rec.record(1);
        assert_eq!(rec.points("b"), vec![(1, 9)]);
        assert_eq!(rec.points("a"), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn histogram_deltas_and_percentiles() {
        let reg = Registry::new();
        let mut rec = SeriesRecorder::new(reg.clone(), 16);
        let h = reg.histogram("phase_ms");
        for v in [10, 10, 10, 10] {
            h.record(v);
        }
        let r1 = rec.record(1).clone();
        assert_eq!(r1.value("phase_ms.count"), Some(4));
        assert_eq!(r1.value("phase_ms.sum"), Some(40));
        // This round's samples all sit in bucket [8,16).
        let p50 = r1.value("phase_ms.p50").unwrap();
        assert!((8..16).contains(&p50), "p50={p50}");
        // A quiet round records zero count and no percentiles.
        let r2 = rec.record(2).clone();
        assert_eq!(r2.value("phase_ms.count"), Some(0));
        assert_eq!(r2.value("phase_ms.p50"), None);
        // The next round's percentiles reflect only the new samples.
        h.record(1000);
        let r3 = rec.record(3).clone();
        assert_eq!(r3.value("phase_ms.count"), Some(1));
        let p50 = r3.value("phase_ms.p50").unwrap();
        assert!((512..1024).contains(&p50), "p50={p50} must be in the new bucket");
    }

    #[test]
    fn ring_buffer_bounds_and_counts_evictions() {
        let reg = Registry::new();
        let mut rec = SeriesRecorder::new(reg.clone(), 3);
        for i in 0..10 {
            reg.counter("c").incr();
            rec.record(i);
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.evicted(), 7);
        assert_eq!(rec.points("c"), vec![(7, 1), (8, 1), (9, 1)]);
    }

    #[test]
    fn jsonl_one_object_per_round() {
        let reg = Registry::new();
        let mut rec = SeriesRecorder::new(reg.clone(), 8);
        reg.counter("scan.hits").add(12);
        rec.record(100);
        reg.counter("scan.hits").add(1);
        rec.record(101);
        let jsonl = rec.to_jsonl();
        let lines: Vec<sixdust_json::Value> =
            jsonl.lines().map(|line| sixdust_json::parse(line).unwrap()).collect();
        assert_eq!(
            lines,
            [
                sixdust_json::json!({ "key": 100u32, "scan.hits": 12u64 }),
                sixdust_json::json!({ "key": 101u32, "scan.hits": 1u64 }),
            ]
        );
    }

    #[test]
    fn a_sample_in_the_top_bucket_bounds_its_round_without_overflow() {
        let reg = Registry::new();
        let mut rec = SeriesRecorder::new(reg.clone(), 8);
        let h = reg.histogram("h");
        h.record(1);
        rec.record(0);
        h.record(u64::MAX);
        let round = rec.record(1);
        assert_eq!(round.value("h.count"), Some(1));
        assert_eq!(round.value("h.p99"), Some(u64::MAX));
    }

    #[test]
    fn deterministic_metric_predicate_splits_wall_clock_from_virtual() {
        // Wall-clock durations are excluded, including derived columns.
        for name in [
            "service.round.phase.scan_ms",
            "scan.worker.chunk_ms.count",
            "alias.round_ms.p99",
            "serve.publish.encode_ms.sum",
            "scan.rate.wait_us",
            "scan.rate.wait_us.p50",
        ] {
            assert!(!is_deterministic_metric(name), "{name} must be excluded");
        }
        // Seeded counts, gauges and virtual-time latency stay in.
        for name in [
            "scan.icmp.hits",
            "service.degraded_rounds",
            "service.loss_estimate_permille",
            "serve.latency_us.p99",
            "serve.kind.responsive.latency_us.count",
        ] {
            assert!(is_deterministic_metric(name), "{name} must be included");
        }
    }

    #[test]
    fn empty_recorder_exports_empty() {
        let rec = SeriesRecorder::new(Registry::new(), 4);
        assert!(rec.is_empty());
        assert_eq!(rec.to_jsonl(), "");
        assert_eq!(rec.points("x"), vec![]);
    }
}
