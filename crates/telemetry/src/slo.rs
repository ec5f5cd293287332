//! Declarative service-level objectives with multi-window burn-rate
//! alerting, evaluated over the [`SeriesRecorder`](crate::SeriesRecorder)
//! stream.
//!
//! The raw telemetry layers record what happened; this module *judges*
//! it. An [`SloSpec`] names an objective, a per-round badness signal
//! derived from series columns, an error budget, and two evaluation
//! windows. Each recorded round is reduced to a badness fraction in
//! permille; the **burn rate** of a window is how fast that window is
//! consuming the error budget (`1000` milli = exactly on budget). A
//! breach fires only when *both* the short and the long window burn
//! faster than the threshold — the classic SRE multi-window rule: the
//! short window makes alerts fast to clear, the long window keeps a
//! single noisy round from paging anyone.
//!
//! Breaches are appended to a bounded log ([`SloEngine::breaches`])
//! and, when a [`Registry`] is
//! attached, emitted as `slo.<name>.burn_short_milli` /
//! `slo.<name>.burn_long_milli` gauges, a `slo.<name>.breach_rounds`
//! counter, and a `slo.breach` tracer instant.
//!
//! ```
//! use sixdust_telemetry::{Registry, SeriesRecorder, SloEngine, SloSpec};
//! let reg = Registry::new();
//! let mut rec = SeriesRecorder::new(reg.clone(), 64);
//! let mut slo = SloEngine::new(vec![SloSpec::ratio("avail", "shed", "reqs", 50, 2, 4, 2000)]);
//! for round in 0..4 {
//!     reg.counter("reqs").add(100);
//!     reg.counter("shed").add(40); // 400 permille bad, budget 50 permille
//!     let r = rec.record(round).clone();
//!     slo.observe(&r);
//! }
//! assert!(!slo.breaches().is_empty());
//! ```

use std::collections::VecDeque;

use crate::metrics::{Counter, Gauge};
use crate::registry::Registry;
use crate::series::SeriesRound;

/// Retained breach-log entries before the oldest are dropped (the drop
/// count is kept, so truncation is never silent).
pub const MAX_BREACH_LOG: usize = 4096;

/// The per-round badness signal of an SLO, computed from series columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SloSignal {
    /// Bad-event ratio: `bad` and `total` name counter-delta columns;
    /// the round's badness is `bad * 1000 / total` permille. Rounds with
    /// zero `total` carry no observation (no traffic is not good
    /// traffic) and are skipped.
    Ratio {
        /// Series column counting bad events this round.
        bad: String,
        /// Series column counting all events this round.
        total: String,
    },
    /// Threshold objective: the round is fully bad (1000 permille) when
    /// the column's value exceeds `max`, else fully good. Rounds where
    /// the column is absent (e.g. a percentile with no samples) are
    /// skipped.
    Above {
        /// Series column holding the judged value.
        metric: String,
        /// Largest acceptable value; anything greater is a bad round.
        max: u64,
    },
}

impl SloSignal {
    /// The round's badness in permille, or `None` when the round carries
    /// no observation for this SLO.
    fn bad_permille(&self, round: &SeriesRound) -> Option<u32> {
        match self {
            SloSignal::Ratio { bad, total } => {
                let total = round.value(total)?;
                if total == 0 {
                    return None;
                }
                let bad = round.value(bad).unwrap_or(0).min(total);
                Some((bad * 1000 / total) as u32)
            }
            SloSignal::Above { metric, max } => {
                let v = round.value(metric)?;
                Some(if v > *max { 1000 } else { 0 })
            }
        }
    }
}

/// One declarative SLO: a named signal, an error budget and the
/// multi-window burn-rate alerting policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloSpec {
    /// Objective name (`serve-availability`, `publish-freshness`, …);
    /// becomes part of the emitted metric names, so keep it
    /// dot-and-space free.
    pub name: String,
    /// How each round's badness is measured.
    pub signal: SloSignal,
    /// Error budget: the acceptable long-run badness in permille.
    pub budget_permille: u32,
    /// Rounds in the short (fast-trigger) window.
    pub short_window: usize,
    /// Rounds in the long (sustained-burn) window; also bounds retained
    /// history.
    pub long_window: usize,
    /// Burn-rate threshold in milli (1000 = consuming budget exactly at
    /// the allowed rate). Both windows must burn at or above this for a
    /// breach to fire.
    pub burn_threshold_milli: u64,
}

impl SloSpec {
    /// A ratio SLO (`bad / total` counter-delta columns).
    pub fn ratio(
        name: &str,
        bad: &str,
        total: &str,
        budget_permille: u32,
        short_window: usize,
        long_window: usize,
        burn_threshold_milli: u64,
    ) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            signal: SloSignal::Ratio { bad: bad.to_string(), total: total.to_string() },
            budget_permille,
            short_window,
            long_window,
            burn_threshold_milli,
        }
    }

    /// A threshold SLO (column value must stay at or below `max`).
    pub fn above(
        name: &str,
        metric: &str,
        max: u64,
        budget_permille: u32,
        short_window: usize,
        long_window: usize,
        burn_threshold_milli: u64,
    ) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            signal: SloSignal::Above { metric: metric.to_string(), max },
            budget_permille,
            short_window,
            long_window,
            burn_threshold_milli,
        }
    }

    /// The spec with a nonzero budget and `1 <= short_window <= long_window`.
    fn clamped(mut self) -> SloSpec {
        self.budget_permille = self.budget_permille.max(1);
        self.short_window = self.short_window.max(1);
        self.long_window = self.long_window.max(self.short_window);
        self
    }
}

/// One fired breach: an observed round where both windows burned over
/// threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloBreach {
    /// Name of the breached SLO.
    pub slo: String,
    /// Round key (scan day) the breach fired on.
    pub key: u32,
    /// This round's badness in permille.
    pub bad_permille: u32,
    /// Short-window burn rate in milli at breach time.
    pub burn_short_milli: u64,
    /// Long-window burn rate in milli at breach time.
    pub burn_long_milli: u64,
    /// Whether this is the first breached round of a breach episode
    /// (the previous observation was healthy) — capture triggers key off
    /// onsets so a long outage produces one black box, not hundreds.
    pub onset: bool,
}

/// Point-in-time state of one SLO, for dashboards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloStatus {
    /// SLO name.
    pub name: String,
    /// Error budget in permille.
    pub budget_permille: u32,
    /// Burn threshold in milli.
    pub burn_threshold_milli: u64,
    /// Most recent short-window burn rate in milli.
    pub burn_short_milli: u64,
    /// Most recent long-window burn rate in milli.
    pub burn_long_milli: u64,
    /// Total breached rounds so far.
    pub breach_rounds: u64,
    /// Rounds that carried an observation for this SLO.
    pub observed_rounds: u64,
    /// Whether the most recent observation was in breach.
    pub breached_now: bool,
}

struct SloState {
    spec: SloSpec,
    window: VecDeque<u32>,
    observed_rounds: u64,
    breach_rounds: u64,
    breached_now: bool,
    burn_short_milli: u64,
    burn_long_milli: u64,
    gauge_short: Option<Gauge>,
    gauge_long: Option<Gauge>,
    breach_counter: Option<Counter>,
}

impl SloState {
    fn burn_over(&self, rounds: usize) -> u64 {
        let n = rounds.min(self.window.len()).max(1) as u64;
        let sum: u64 = self.window.iter().rev().take(n as usize).map(|&b| u64::from(b)).sum();
        sum * 1000 / (n * u64::from(self.spec.budget_permille))
    }
}

/// Evaluates a set of [`SloSpec`]s against successive series rounds.
pub struct SloEngine {
    slos: Vec<SloState>,
    registry: Option<Registry>,
    breaches: Vec<SloBreach>,
    dropped_breaches: u64,
}

impl SloEngine {
    /// An engine over the given specs, each clamped, with no registry emission.
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        let slos = specs
            .into_iter()
            .map(|spec| SloState {
                spec: spec.clamped(),
                window: VecDeque::new(),
                observed_rounds: 0,
                breach_rounds: 0,
                breached_now: false,
                burn_short_milli: 0,
                burn_long_milli: 0,
                gauge_short: None,
                gauge_long: None,
                breach_counter: None,
            })
            .collect();
        SloEngine { slos, registry: None, breaches: Vec::new(), dropped_breaches: 0 }
    }

    /// The standard sixdust objective set, judging the hitlist service
    /// and the serve frontend:
    ///
    /// * `serve-availability` — shed requests within a 5% budget;
    /// * `serve-latency-p99` — request p99 at or below 50 ms (virtual
    ///   time, `serve.latency_us.p99`);
    /// * `publish-freshness` — at most 2 rounds since the last *clean*
    ///   publish (`service.publish.staleness_rounds` gauge);
    /// * `degraded-rounds` — degraded rounds within a 5% budget;
    /// * `mirror-availability` — client attempts that hit a dead mirror
    ///   (`serve.mirror.down_attempts` over `serve.retry.attempts`)
    ///   within a 10% budget. Rounds without a mirror tier carry no
    ///   `serve.retry.attempts` column and are skipped, so the spec is
    ///   inert for single-frontend and hitlist-only runs.
    pub fn standard() -> SloEngine {
        SloEngine::new(vec![
            SloSpec::ratio("serve-availability", "serve.shed", "serve.requests", 50, 1, 4, 2000),
            SloSpec::above("serve-latency-p99", "serve.latency_us.p99", 50_000, 100, 1, 4, 2000),
            SloSpec::above(
                "publish-freshness",
                "service.publish.staleness_rounds",
                2,
                100,
                2,
                8,
                2000,
            ),
            SloSpec::ratio(
                "degraded-rounds",
                "service.degraded_rounds",
                "service.rounds",
                50,
                3,
                12,
                2000,
            ),
            SloSpec::ratio(
                "mirror-availability",
                "serve.mirror.down_attempts",
                "serve.retry.attempts",
                100,
                1,
                4,
                2000,
            ),
        ])
    }

    /// Attaches a registry: burn rates become `slo.<name>.*` gauges, a
    /// breach increments `slo.<name>.breach_rounds` and emits a
    /// `slo.breach` tracer instant (handles resolved once, here).
    pub fn with_registry(mut self, registry: &Registry) -> SloEngine {
        for st in &mut self.slos {
            let name = &st.spec.name;
            st.gauge_short = Some(registry.gauge(&format!("slo.{name}.burn_short_milli")));
            st.gauge_long = Some(registry.gauge(&format!("slo.{name}.burn_long_milli")));
            st.breach_counter = Some(registry.counter(&format!("slo.{name}.breach_rounds")));
        }
        self.registry = Some(registry.clone());
        self
    }

    /// Feeds one recorded round through every SLO; returns the breaches
    /// fired by this round (also appended to the breach log).
    pub fn observe(&mut self, round: &SeriesRound) -> Vec<SloBreach> {
        let tracer = self.registry.as_ref().and_then(|r| r.tracer());
        let mut fired = Vec::new();
        for st in &mut self.slos {
            let Some(bad) = st.spec.signal.bad_permille(round) else {
                continue;
            };
            st.observed_rounds += 1;
            if st.window.len() == st.spec.long_window {
                st.window.pop_front();
            }
            st.window.push_back(bad);
            st.burn_short_milli = st.burn_over(st.spec.short_window);
            st.burn_long_milli = st.burn_over(st.window.len());
            if let Some(g) = &st.gauge_short {
                g.set(st.burn_short_milli as i64);
            }
            if let Some(g) = &st.gauge_long {
                g.set(st.burn_long_milli as i64);
            }
            // Warm-up guard: no verdict until the short window is full.
            let breached = st.window.len() >= st.spec.short_window
                && st.burn_short_milli >= st.spec.burn_threshold_milli
                && st.burn_long_milli >= st.spec.burn_threshold_milli;
            if breached {
                st.breach_rounds += 1;
                if let Some(c) = &st.breach_counter {
                    c.incr();
                }
                let breach = SloBreach {
                    slo: st.spec.name.clone(),
                    key: round.key,
                    bad_permille: bad,
                    burn_short_milli: st.burn_short_milli,
                    burn_long_milli: st.burn_long_milli,
                    onset: !st.breached_now,
                };
                if let Some(t) = &tracer {
                    t.instant(
                        "slo.breach",
                        &[
                            ("slo", st.spec.name.as_str()),
                            ("key", &round.key.to_string()),
                            ("bad_permille", &bad.to_string()),
                            ("burn_short_milli", &st.burn_short_milli.to_string()),
                            ("burn_long_milli", &st.burn_long_milli.to_string()),
                        ],
                    );
                }
                fired.push(breach);
            }
            st.breached_now = breached;
        }
        for b in &fired {
            if self.breaches.len() == MAX_BREACH_LOG {
                self.breaches.remove(0);
                self.dropped_breaches += 1;
            }
            self.breaches.push(b.clone());
        }
        fired
    }

    /// Every breach fired so far, oldest first (bounded by
    /// [`MAX_BREACH_LOG`]).
    pub fn breaches(&self) -> &[SloBreach] {
        &self.breaches
    }

    /// Breach-log entries dropped to the ring bound.
    pub fn dropped_breaches(&self) -> u64 {
        self.dropped_breaches
    }

    /// Current status of every SLO, in spec order.
    pub fn status(&self) -> Vec<SloStatus> {
        self.slos
            .iter()
            .map(|st| SloStatus {
                name: st.spec.name.clone(),
                budget_permille: st.spec.budget_permille,
                burn_threshold_milli: st.spec.burn_threshold_milli,
                burn_short_milli: st.burn_short_milli,
                burn_long_milli: st.burn_long_milli,
                breach_rounds: st.breach_rounds,
                observed_rounds: st.observed_rounds,
                breached_now: st.breached_now,
            })
            .collect()
    }
}

impl std::fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloEngine")
            .field("slos", &self.slos.len())
            .field("breaches", &self.breaches.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::series::SeriesRecorder;

    fn round(key: u32, values: &[(&str, u64)]) -> SeriesRound {
        let mut values: Vec<(String, u64)> =
            values.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        values.sort_by(|a, b| a.0.cmp(&b.0));
        SeriesRound { key, values }
    }

    #[test]
    fn ratio_burn_rate_math_is_exact() {
        // Budget 50 permille, short window 2, long window 4, threshold 2x.
        let mut eng = SloEngine::new(vec![SloSpec::ratio("avail", "bad", "total", 50, 2, 4, 2000)]);
        // Two clean rounds, then 100 permille bad (2x budget) forever.
        for k in 0..2 {
            assert!(eng.observe(&round(k, &[("bad", 0), ("total", 100)])).is_empty());
        }
        // Round 2: short window = [0, 100] -> avg 50 -> burn exactly 1000.
        assert!(eng.observe(&round(2, &[("bad", 10), ("total", 100)])).is_empty());
        let st = &eng.status()[0];
        assert_eq!(st.burn_short_milli, 1000, "avg 50 permille over budget 50 = 1.0x");
        assert_eq!(st.burn_long_milli, 666, "100 permille over 3 rounds / 50 = 0.666x");
        // Rounds 3-4: short window fully bad at 100 permille -> burn 2000.
        assert!(eng.observe(&round(3, &[("bad", 10), ("total", 100)])).is_empty());
        let fired = eng.observe(&round(4, &[("bad", 10), ("total", 100)]));
        // Long window [0, 100, 100, 100] -> avg 75 -> 1500 < 2000: still ok.
        assert!(fired.is_empty(), "long window still diluted: {fired:?}");
        let fired = eng.observe(&round(5, &[("bad", 10), ("total", 100)]));
        assert_eq!(fired.len(), 1, "long window now all-bad");
        assert_eq!(fired[0].burn_short_milli, 2000);
        assert_eq!(fired[0].burn_long_milli, 2000);
        assert!(fired[0].onset);
        // The following breached round is not an onset.
        let fired = eng.observe(&round(6, &[("bad", 10), ("total", 100)]));
        assert_eq!(fired.len(), 1);
        assert!(!fired[0].onset);
    }

    #[test]
    fn zero_total_rounds_carry_no_observation() {
        let mut eng = SloEngine::new(vec![SloSpec::ratio("avail", "bad", "total", 50, 1, 2, 1000)]);
        for k in 0..5 {
            assert!(eng.observe(&round(k, &[("bad", 0), ("total", 0)])).is_empty());
        }
        assert_eq!(eng.status()[0].observed_rounds, 0);
        // A single fully-bad round with traffic then breaches (short=1).
        // Long window holds only observations, so silence didn't dilute.
        eng.observe(&round(5, &[("bad", 100), ("total", 100)]));
        let fired = eng.observe(&round(6, &[("bad", 100), ("total", 100)]));
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn above_objective_judges_levels_and_skips_missing() {
        let mut eng = SloEngine::new(vec![SloSpec::above("fresh", "stale", 2, 100, 2, 4, 2000)]);
        // Missing column: skipped entirely.
        assert!(eng.observe(&round(0, &[("other", 9)])).is_empty());
        assert_eq!(eng.status()[0].observed_rounds, 0);
        // Level 3 > max 2 -> fully bad rounds; breach once short window
        // (2) fills and long-window average clears 2x of the 100
        // permille budget.
        assert!(eng.observe(&round(1, &[("stale", 3)])).is_empty(), "short window not full");
        let fired = eng.observe(&round(2, &[("stale", 4)]));
        assert_eq!(fired.len(), 1);
        // Recovery: the breach clears only once the short window drains
        // of bad rounds — one healthy round leaves it half bad.
        let fired = eng.observe(&round(3, &[("stale", 0)]));
        assert_eq!(fired.len(), 1, "short window still half bad");
        let fired = eng.observe(&round(4, &[("stale", 0)]));
        assert!(fired.is_empty());
        assert!(!eng.status()[0].breached_now);
    }

    #[test]
    fn registry_emission_and_breach_log() {
        let reg = Registry::new();
        let mut rec = SeriesRecorder::new(reg.clone(), 16);
        let mut eng = SloEngine::new(vec![SloSpec::ratio("avail", "shed", "reqs", 50, 1, 2, 2000)])
            .with_registry(&reg);
        for k in 0..3 {
            reg.counter("reqs").add(10);
            reg.counter("shed").add(5);
            let r = rec.record(k).clone();
            eng.observe(&r);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("slo.avail.breach_rounds"), Some(3));
        assert_eq!(snap.gauge("slo.avail.burn_short_milli"), Some(10_000));
        let log: Vec<(&str, u32, bool)> =
            eng.breaches().iter().map(|b| (b.slo.as_str(), b.key, b.onset)).collect();
        assert_eq!(log, [("avail", 0, true), ("avail", 1, false), ("avail", 2, false)]);
    }

    #[test]
    fn a_spec_literal_with_a_zero_budget_and_windows_is_clamped() {
        let spec = SloSpec {
            name: "literal".into(),
            signal: SloSignal::Ratio { bad: "bad".into(), total: "total".into() },
            budget_permille: 0,
            short_window: 0,
            long_window: 0,
            burn_threshold_milli: 2000,
        };
        let mut eng = SloEngine::new(vec![spec]);
        for k in 0..100 {
            eng.observe(&round(k, &[("bad", 1), ("total", 10)]));
            assert_eq!(eng.slos[0].window.len(), 1, "round {k}: the window is one round long");
        }
        let st = &eng.status()[0];
        assert_eq!((st.budget_permille, st.observed_rounds), (1, 100));
        // 100 permille bad over a budget of 1 permille.
        assert_eq!((st.burn_short_milli, st.burn_long_milli), (100_000, 100_000));
        assert_eq!(eng.breaches().len(), 100);
    }

    #[test]
    fn standard_set_names_are_stable() {
        let names: Vec<String> =
            SloEngine::standard().status().into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "serve-availability",
                "serve-latency-p99",
                "publish-freshness",
                "degraded-rounds",
                "mirror-availability"
            ]
        );
    }
}
