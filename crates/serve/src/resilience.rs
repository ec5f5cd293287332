//! The resilient client of a mirror tier, as a backend of the reactor.
//!
//! A chaos day is an ordinary day (`fleet::drive_day`) whose requests a
//! `TierClient` answers instead of a bare front end. Its
//! [`Backend::answer`] first brings the tier up to the arrival instant —
//! due publishes land on the origin or wait out a blackout, an attached
//! [`Observer`] records and judges the hour — then handles one logical
//! request, however many attempts that takes (affinity, failover, seeded
//! backoff, one hedge, a breaker per mirror), and returns the winning
//! [`Outcome`] with the backoff the client sat through. The walk counts
//! into [`ResilienceTotals`] alone, as the tier and its front ends count
//! into theirs; the ledgers are published to the registries just before
//! each tick, which is where the observer reads them, and when the day
//! ends.

use sixdust_addr::prf::prf_u128;
use sixdust_telemetry::{
    Counter, FlightRecorder, Gauge, Histogram, HistogramSnapshot, LocalHistogram, Observer,
    Published, Registry,
};

use crate::fleet::{drive_day, Clients, DayReport, FleetConfig, ResilienceTotals};
use crate::mirror::{MirrorTier, TimedPublish};
use crate::reactor::{served_latency, Backend, EventLoop};
use crate::server::{FrontendTotals, Outcome, Request};

const TAG_AFFINITY: u64 = 6;
const TAG_JITTER: u64 = 7;

const HOUR_US: u64 = 3_600_000_000;

/// Deterministic retry policy of the resilient client path: exponential
/// backoff with seeded jitter, and a hedging threshold after which a
/// second request races the slow primary.
struct RetryPolicy {
    /// Attempt budget per logical request (primary + retries; hedges and
    /// breaker-skipped mirrors do not consume it).
    max_attempts: u32,
    /// Backoff before retry `n` is `base << (n-1)`, capped.
    backoff_base_us: u64,
    /// Upper bound on a single backoff.
    backoff_cap_us: u64,
    /// Jitter span in permille of the backoff: the drawn backoff is
    /// uniform in `[b - b*j/1000, b + b*j/1000]`, seeded per
    /// (request, retry) so the day replays byte-identically.
    jitter_permille: u32,
    /// Serve latency above which a hedged second request is sent to the
    /// next healthy mirror; the client takes whichever answer is
    /// effectively earlier.
    hedge_after_us: u64,
}

/// The retry policy every chaos day's client runs.
const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 5,
    backoff_base_us: 50_000,
    backoff_cap_us: 2_000_000,
    jitter_permille: 250,
    hedge_after_us: 15_000,
};

/// Per-mirror circuit-breaker policy (closed → open → half-open).
struct BreakerConfig {
    /// Consecutive health failures (mirror down / nothing published)
    /// that trip the breaker open. Load sheds are *not* health failures.
    failure_threshold: u32,
    /// How long an open breaker skips its mirror before letting
    /// half-open probe requests through, virtual microseconds.
    open_cooldown_us: u64,
    /// Successful half-open probes required to re-close.
    half_open_probes: u32,
}

/// The breaker policy every chaos day's client runs.
const BREAKER: BreakerConfig =
    BreakerConfig { failure_threshold: 3, open_cooldown_us: 600_000_000, half_open_probes: 2 };

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { until_us: u64 },
    HalfOpen { successes: u32 },
}

/// One mirror's client-side circuit breaker, driven on virtual time.
#[derive(Debug, Clone, Copy)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
}

enum BreakerGate {
    /// Closed: attempt freely.
    Allowed,
    /// Half-open: this attempt is a probe.
    Probe,
    /// Open: skip this mirror.
    Skipped,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker { state: BreakerState::Closed, consecutive_failures: 0 }
    }

    /// Whether the breaker is currently engaged (open or half-open) —
    /// the level the `serve.breaker.open` gauge reports.
    fn engaged(&self) -> bool {
        !matches!(self.state, BreakerState::Closed)
    }

    fn gate(&mut self, at_us: u64) -> BreakerGate {
        match self.state {
            BreakerState::Closed => BreakerGate::Allowed,
            BreakerState::Open { until_us } if at_us >= until_us => {
                self.state = BreakerState::HalfOpen { successes: 0 };
                BreakerGate::Probe
            }
            BreakerState::Open { .. } => BreakerGate::Skipped,
            BreakerState::HalfOpen { .. } => BreakerGate::Probe,
        }
    }

    /// Returns whether this success re-closed a half-open breaker.
    fn on_success(&mut self, config: &BreakerConfig) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = 0;
                false
            }
            BreakerState::HalfOpen { successes } => {
                let successes = successes + 1;
                if successes >= config.half_open_probes {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    true
                } else {
                    self.state = BreakerState::HalfOpen { successes };
                    false
                }
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Returns whether this failure tripped the breaker open.
    fn on_failure(&mut self, at_us: u64, config: &BreakerConfig) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= config.failure_threshold {
                    self.state = BreakerState::Open { until_us: at_us + config.open_cooldown_us };
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen { .. } => {
                self.state = BreakerState::Open { until_us: at_us + config.open_cooldown_us };
                true
            }
            BreakerState::Open { .. } => false,
        }
    }
}

/// Configuration of one chaos day: the consumer fleet. The client's
/// retry and breaker policies are this module's fixed `RETRY` and
/// `BREAKER`.
#[derive(Debug, Clone, Default)]
pub struct ChaosDayConfig {
    /// The consumer fleet (same knobs as a single-frontend day).
    pub fleet: FleetConfig,
}

impl ChaosDayConfig {
    /// Starts from the default configuration.
    pub fn builder() -> ChaosDayConfig {
        ChaosDayConfig::default()
    }

    /// Sets the fleet configuration.
    pub fn with_fleet(mut self, fleet: FleetConfig) -> ChaosDayConfig {
        self.fleet = fleet;
        self
    }
}

/// The registry's view of the client's side of the ledger.
pub(crate) const PUBLISHED: [Published<ResilienceTotals>; 10] = [
    ("serve.retry.attempts", |t| t.attempts),
    ("serve.retry.retries", |t| t.retries),
    ("serve.retry.failovers", |t| t.failovers),
    ("serve.retry.hedged", |t| t.hedged),
    ("serve.retry.hedge_wins", |t| t.hedge_wins),
    ("serve.retry.exhausted", |t| t.hard_failures),
    ("serve.mirror.down_attempts", |t| t.down_attempts),
    ("serve.breaker.opened", |t| t.breaker_opened),
    ("serve.breaker.closed", |t| t.breaker_closed),
    ("serve.breaker.skipped", |t| t.breaker_skipped),
];

/// The seeded backoff before retry `retry_no` (1-based) of request
/// `request`: exponential in the retry number, jittered by a PRF draw so
/// equal seeds replay identical delays. The jitter is worked in `u128`,
/// where `base · permille`, `2 · jitter + 1` and `base + jitter` cannot
/// overflow for any cap, and the delay saturates at `u64::MAX`.
fn backoff_us(policy: &RetryPolicy, seed: u64, request: u64, retry_no: u32) -> u64 {
    let exp = retry_no.saturating_sub(1).min(20);
    let base = policy.backoff_base_us.saturating_mul(1u64 << exp).min(policy.backoff_cap_us);
    let jitter = u128::from(base) * u128::from(policy.jitter_permille.min(1_000)) / 1_000;
    if jitter == 0 {
        return base;
    }
    let draw =
        u128::from(prf_u128(seed, u128::from(request) << 8 | u128::from(retry_no), TAG_JITTER))
            % (2 * jitter + 1);
    u64::try_from(u128::from(base) - jitter + draw).unwrap_or(u64::MAX)
}

/// The resilient client path of one day over a [`MirrorTier`]: the
/// fleet's logical requests go in, the answer the client adopts comes
/// out.
struct TierClient<'a> {
    config: &'a ChaosDayConfig,
    tier: &'a mut MirrorTier,
    /// The day's publishes still to come, in `(time, round)` order.
    plan: std::iter::Peekable<std::vec::IntoIter<&'a TimedPublish>>,
    /// Publishes a blackout refused, waiting for the window to lift.
    deferred: Vec<&'a TimedPublish>,
    was_blackout: bool,
    breakers: Vec<Breaker>,
    ledger: ResilienceTotals,
    /// Client-observed latency: served latency plus accumulated backoff,
    /// a winning hedge counting `hedge_after + its own`.
    latency: LocalHistogram,
    /// Records and judges each hour of an observed day.
    observer: Option<&'a mut Observer>,
    /// The last hour the observer recorded.
    last_hour: Option<u32>,
    /// The observed registry's flight recorder: blackout onsets land there.
    flight: Option<FlightRecorder>,
    /// How much of the ledger the observer's registry has been told.
    told: [u64; PUBLISHED.len()],
    /// `service.publish.staleness_rounds`, `serve.retry.backoff_us`,
    /// `serve.breaker.probes` and `serve.breaker.open` of an observed
    /// day, which the ledger does not carry; unregistered handles
    /// otherwise.
    staleness: Gauge,
    backoff: Histogram,
    probes: Counter,
    breakers_engaged: Gauge,
}

impl<'a> TierClient<'a> {
    fn new(
        config: &'a ChaosDayConfig,
        tier: &'a mut MirrorTier,
        plan: &'a [TimedPublish],
        observer: Option<&'a mut Observer>,
    ) -> TierClient<'a> {
        let mut ordered: Vec<&TimedPublish> = plan.iter().collect();
        ordered.sort_by_key(|p| (p.at_us, p.round));
        let registry = observer.as_ref().map(|o| o.registry());
        let (staleness, backoff, probes, breakers_engaged) = match registry {
            Some(registry) => (
                registry.gauge("service.publish.staleness_rounds"),
                registry.histogram("serve.retry.backoff_us"),
                registry.counter("serve.breaker.probes"),
                registry.gauge("serve.breaker.open"),
            ),
            None => Default::default(),
        };
        TierClient {
            config,
            plan: ordered.into_iter().peekable(),
            deferred: Vec::new(),
            was_blackout: false,
            breakers: vec![Breaker::new(); tier.mirror_count()],
            tier,
            ledger: ResilienceTotals::default(),
            latency: LocalHistogram::default(),
            flight: registry.and_then(Registry::flight),
            staleness,
            backoff,
            probes,
            breakers_engaged,
            observer,
            last_hour: None,
            told: [0; PUBLISHED.len()],
        }
    }

    /// Brings the tier and the observer up to `at`: lands every publish
    /// that has come due — one that falls inside an origin blackout is
    /// deferred until the window lifts, while the target round (and hence
    /// staleness accounting) advances on schedule — and ticks the hour.
    fn catch_up(&mut self, at: u64) {
        while let Some(p) = self.plan.next_if(|p| p.at_us <= at) {
            if !self.tier.apply_publish(p.at_us, p) {
                self.deferred.push(p);
            }
        }
        let blackout = self.tier.faults().origin_blackout(at);
        if !self.deferred.is_empty() && !blackout {
            let tier = &mut *self.tier;
            self.deferred.retain(|p| !tier.apply_publish(at, p));
        }
        let hour = (at / HOUR_US) as u32;
        if let Some(flight) = &self.flight {
            if blackout && !self.was_blackout {
                flight.note(hour, "serve.origin.blackout", &[("at_us", &at.to_string())]);
                flight.capture(hour, "origin-blackout");
            }
        }
        self.tick(hour);
        self.was_blackout = blackout;
    }

    /// Records `hour`'s round on an attached observer, once, the day's
    /// ledgers and the tier's staleness published first.
    fn tick(&mut self, hour: u32) {
        if self.observer.is_none() || self.last_hour == Some(hour) {
            return;
        }
        self.last_hour = Some(hour);
        self.staleness.set(self.tier.staleness_rounds() as i64);
        self.publish();
        if let Some(o) = &mut self.observer {
            o.record(hour);
        }
    }

    /// A health failure of mirror `m` (down, or nothing published) as its
    /// breaker sees it. Load sheds are not health failures.
    fn health_failure(&mut self, m: usize, at: u64) {
        if self.breakers[m].on_failure(at, &BREAKER) {
            self.ledger.breaker_opened += 1;
            self.set_engaged_gauge();
        }
    }

    fn set_engaged_gauge(&self) {
        self.breakers_engaged.set(self.breakers.iter().filter(|b| b.engaged()).count() as i64);
    }

    /// One attempt at mirror `m`, with what every attempt means to the
    /// ledger and the mirror's breaker: no answer at all is a health
    /// failure, a served answer a success.
    fn attempt(&mut self, m: usize, request: &Request) -> Option<Outcome> {
        self.ledger.attempts += 1;
        let outcome = self.tier.handle(m, request);
        match &outcome {
            None => {
                self.ledger.down_attempts += 1;
                self.health_failure(m, request.at_us);
            }
            Some(Outcome::Body { .. } | Outcome::NotModified { .. }) => {
                if self.breakers[m].on_success(&BREAKER) {
                    self.ledger.breaker_closed += 1;
                    self.set_engaged_gauge();
                }
            }
            Some(_) => {}
        }
        outcome
    }

    /// Publishes the end of the day to an attached observer — the final
    /// partial hour gets its tick so the SLO engine judges it — and closes
    /// the ledger with the tier's side of it.
    fn finish(mut self, final_hour: u32) -> ResilienceTotals {
        self.tick(final_hour);
        let tier = self.tier.totals();
        ResilienceTotals {
            mirrors: self.breakers.len() as u64,
            stale_served: tier.stale_served,
            revalidations: tier.revalidations,
            syncs: tier.syncs,
            sync_rejected: tier.sync_rejected,
            ..self.ledger
        }
    }
}

impl Backend for TierClient<'_> {
    fn answer(&mut self, id: u64, request: &Request) -> Option<(Outcome, u64)> {
        let at = request.at_us;
        self.catch_up(at);
        self.ledger.logical_requests += 1;

        // Affinity + failover walk with retry budget and breakers.
        let mirrors = self.breakers.len();
        let preferred = (prf_u128(self.config.fleet.seed, u128::from(request.client), TAG_AFFINITY)
            % mirrors as u64) as usize;
        let mut attempts_used = 0u32;
        let mut backoff_total_us = 0u64;
        let mut winner: Option<(usize, Outcome)> = None;
        let mut shed = false;
        let max_iter = RETRY.max_attempts as usize + mirrors;
        let mut iter = 0usize;
        while attempts_used < RETRY.max_attempts && iter < max_iter {
            let m = (preferred + iter) % mirrors;
            iter += 1;
            match self.breakers[m].gate(at) {
                // Fail open on the final iteration of an all-skipped
                // walk: when every mirror's breaker is open, honoring the
                // skip would turn a partial outage into a total one —
                // attempt anyway rather than hard-fail.
                BreakerGate::Skipped if iter < max_iter || attempts_used > 0 => {
                    self.ledger.breaker_skipped += 1;
                    continue;
                }
                BreakerGate::Skipped | BreakerGate::Allowed => {}
                BreakerGate::Probe => self.probes.incr(),
            }
            attempts_used += 1;
            if attempts_used >= 2 {
                self.ledger.retries += 1;
                let b = backoff_us(&RETRY, self.config.fleet.seed, id, attempts_used - 1);
                backoff_total_us += b;
                self.backoff.record(b.max(1));
            }
            if m != preferred {
                self.ledger.failovers += 1;
            }
            match self.attempt(m, request) {
                None => {}
                Some(Outcome::Unavailable) => self.health_failure(m, at),
                Some(Outcome::ShedClient) => {
                    // A quota rejection is an answer, not a health
                    // signal; retrying it elsewhere would evade policy.
                    shed = true;
                    break;
                }
                // Overload: fail over, but an overloaded mirror is not an
                // unhealthy mirror — no breaker penalty.
                Some(Outcome::ShedGlobal) => shed = true,
                Some(outcome) => {
                    winner = Some((m, outcome));
                    break;
                }
            }
        }

        // Hedging: a slow (but successful) primary races one more request
        // on the next breaker-admitted mirror; an adopted hedge carries
        // the client-observed latency `hedge_after + hedge serve time`.
        let Some((m, mut outcome)) = winner else {
            if !shed {
                // Neither answered nor shed by policy: a hard failure.
                self.ledger.hard_failures += 1;
            }
            return None;
        };
        let mut latency = *served_latency(&mut outcome).expect("a winner was served");
        if latency > RETRY.hedge_after_us {
            let target = (1..mirrors)
                .map(|k| (m + k) % mirrors)
                .find(|&c| !matches!(self.breakers[c].gate(at), BreakerGate::Skipped));
            if let Some(m2) = target {
                self.ledger.hedged += 1;
                let mut hedge = self.attempt(m2, request);
                if let Some(hedge_latency) = hedge.as_mut().and_then(served_latency) {
                    *hedge_latency += RETRY.hedge_after_us;
                    if *hedge_latency < latency {
                        self.ledger.hedge_wins += 1;
                        latency = *hedge_latency;
                        outcome = hedge.expect("the hedge was served");
                    }
                }
            }
        }
        self.latency.record((latency + backoff_total_us).max(1));
        Some((outcome, backoff_total_us))
    }

    fn totals(&self) -> FrontendTotals {
        self.tier.merged_frontend_totals()
    }

    fn latency(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    /// The tier's and its front ends' ledgers to the registry attached to
    /// the tier, the client's own to the observer's.
    fn publish(&mut self) {
        self.tier.publish();
        if let Some(o) = &self.observer {
            o.registry().publish(&PUBLISHED, &self.ledger, &mut self.told);
        }
    }

    fn end_session(&mut self, client: u64) {
        self.tier.end_session(client);
    }
}

/// Replays one day of fleet load against a [`MirrorTier`] through the
/// resilient client path: per-client mirror affinity, failover to the
/// next healthy mirror, deterministic retries with exponential backoff
/// and seeded jitter, hedged second requests past a latency threshold,
/// and per-mirror circuit breakers. `plan` is the day's scheduled
/// publishes; entries falling inside an origin blackout are deferred
/// until the window lifts while the target round (and hence staleness
/// accounting) advances on schedule.
///
/// Latency percentiles in the returned report are *client-observed*:
/// served latency plus accumulated backoff, with hedges taking
/// `min(primary, hedge_after + hedge)`. Deterministic for a fixed
/// (config, tier construction, plan) — byte-identical reports across
/// runs at the same seed.
///
/// An `observer` records and judges one round per virtual hour, after
/// the day's ledgers have been published to their registries; attach its
/// registry to the tier too ([`MirrorTier::with_telemetry`]) so the
/// serve columns its SLOs read exist. With a flight recorder installed in
/// that registry, the origin blackout's onset freezes a capture.
pub fn run_chaos_day(
    config: &ChaosDayConfig,
    tier: &mut MirrorTier,
    plan: &[TimedPublish],
    observer: Option<&mut Observer>,
) -> DayReport {
    let origin = tier.origin().clone();
    let day_hours = (config.fleet.day_micros / HOUR_US) as u32;
    let mut client = TierClient::new(config, tier, plan, observer);
    let mut report =
        drive_day(&config.fleet, Clients::OfATier, &mut EventLoop::new(&mut client), &origin);
    report.resilience = client.finish(day_hours + 1);
    report
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sixdust_addr::AddrSet;

    use super::*;
    use crate::faults::ServeFaultConfig;
    use crate::fleet::tests::{seeded_store, KeepEveryBucket};
    use crate::fleet::{run_day, SessionShape};
    use crate::mirror::MirrorTierConfig;
    use crate::reactor::Completion;
    use crate::server::{FetchKind, Frontend, FrontendConfig};
    use crate::store::{ArtifactKind, SnapshotStore, StoreConfig};

    #[test]
    fn backoff_is_seeded_exponential_and_capped() {
        let policy = RETRY;
        // Deterministic: same (seed, request, retry) → same delay.
        assert_eq!(backoff_us(&policy, 7, 42, 1), backoff_us(&policy, 7, 42, 1));
        // Jitter keeps each delay within ±25% of the exponential base.
        for retry in 1..=6u32 {
            let base = (policy.backoff_base_us << (retry - 1)).min(policy.backoff_cap_us);
            let b = backoff_us(&policy, 7, 42, retry);
            let jitter = base / 4;
            assert!(
                b >= base - jitter && b <= base + jitter,
                "retry {retry}: {b} outside [{}, {}]",
                base - jitter,
                base + jitter
            );
        }
        // Zero jitter degenerates to the pure exponential.
        let flat = RetryPolicy { jitter_permille: 0, ..policy };
        assert_eq!(backoff_us(&flat, 7, 42, 1), 50_000);
        assert_eq!(backoff_us(&flat, 7, 42, 2), 100_000);
        assert_eq!(backoff_us(&flat, 7, 42, 20), 2_000_000, "cap holds");
    }

    #[test]
    fn the_default_policy_draws_the_delays_it_always_drew() {
        // (seed, request, retry, delay), recorded before the jitter moved
        // to u128: a chaos day's delays are bit-identical across it.
        let pinned: [(u64, u64, u32, u64); 8] = [
            (0x6d15_7a11, 0, 1, 60_143),
            (0x6d15_7a11, 1, 2, 115_925),
            (0x6d15_7a11, 17, 3, 207_218),
            (7, 42, 4, 414_370),
            (7, 42, 5, 850_354),
            (7, 299_999, 6, 1_629_314),
            (11, 123_456, 7, 1_961_102),
            (11, 5, 20, 1_745_792),
        ];
        let policy = RETRY;
        for (seed, request, retry, delay) in pinned {
            assert_eq!(
                backoff_us(&policy, seed, request, retry),
                delay,
                "{seed} {request} {retry}"
            );
        }
    }

    #[test]
    fn a_backoff_under_an_unbounded_cap_saturates_instead_of_overflowing() {
        for base_us in [50_000, u64::MAX / 1_000 + 1, u64::MAX / 4, u64::MAX] {
            for jitter_permille in [250, 1_000] {
                let policy = RetryPolicy {
                    backoff_base_us: base_us,
                    backoff_cap_us: u64::MAX,
                    jitter_permille,
                    ..RETRY
                };
                for retry in [1, 20, 40] {
                    let base = base_us.saturating_mul(1 << (retry - 1).min(20));
                    let jitter = u128::from(base) * u128::from(jitter_permille) / 1_000;
                    let low = u128::from(base) - jitter;
                    let high = u64::try_from(u128::from(base) + jitter).unwrap_or(u64::MAX);
                    let delay = backoff_us(&policy, 7, 42, retry);
                    assert!(
                        u128::from(delay) >= low && delay <= high,
                        "base {base_us}, jitter {jitter_permille}, retry {retry}: {delay}"
                    );
                }
            }
        }
    }

    #[test]
    fn breaker_walks_closed_open_half_open_deterministically() {
        let config =
            BreakerConfig { failure_threshold: 2, open_cooldown_us: 100, half_open_probes: 2 };
        let mut b = Breaker::new();
        assert!(matches!(b.gate(0), BreakerGate::Allowed));
        assert!(!b.on_failure(10, &config), "first failure under threshold");
        assert!(b.on_failure(10, &config), "second failure trips open");
        assert!(b.engaged());
        assert!(matches!(b.gate(50), BreakerGate::Skipped), "open inside cooldown");
        assert!(matches!(b.gate(110), BreakerGate::Probe), "cooldown expiry half-opens");
        assert!(!b.on_success(&config), "one probe is not enough");
        assert!(b.on_success(&config), "second probe re-closes");
        assert!(!b.engaged());
        // A half-open failure re-opens immediately (no threshold grace).
        let mut b = Breaker::new();
        b.on_failure(0, &config);
        b.on_failure(0, &config);
        assert!(matches!(b.gate(100), BreakerGate::Probe));
        assert!(b.on_failure(100, &config), "half-open failure re-trips");
        assert!(matches!(b.gate(150), BreakerGate::Skipped));
    }

    #[test]
    fn chaos_day_on_a_healthy_tier_matches_itself_and_never_hard_fails() {
        let run = || {
            let origin = seeded_store();
            let mut tier = MirrorTier::new(
                MirrorTierConfig::builder().with_mirrors(3),
                origin,
                ServeFaultConfig::lossless(),
            );
            let config = ChaosDayConfig::builder()
                .with_fleet(FleetConfig::builder().with_requests(4_000).with_clients(30));
            run_chaos_day(&config, &mut tier, &[], None)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "chaos day replays byte-identically at a fixed seed");
        assert_eq!(a.resilience.hard_failures, 0);
        assert_eq!(a.resilience.logical_requests, 4_000);
        assert!(a.resilience.attempts >= 4_000);
        assert_eq!(a.resilience.mirrors, 3);
        assert_eq!(a.round, 3);
        // Healthy tier: no breaker ever opens, warm-deployed mirrors
        // need no sync traffic (the plan is empty), and answered
        // requests land in the latency histogram.
        assert_eq!(a.resilience.breaker_opened, 0);
        assert_eq!(a.resilience.syncs, 0, "warm deploy: in sync without a transfer");
        assert_eq!(a.resilience.stale_served, 0);
        assert!(a.latency_p50_us > 0);
    }

    fn generation(round: u64) -> Vec<(ArtifactKind, AddrSet)> {
        ArtifactKind::ALL
            .iter()
            .map(|&kind| {
                let base = kind.index() as u128 * 1_000_000;
                let n = 300 + round as u128 * 40;
                (kind, (0..n).map(|i| base + i * 11).collect())
            })
            .collect()
    }

    /// A tier over an origin with round 1 live.
    fn tier(config: MirrorTierConfig, faults: ServeFaultConfig) -> MirrorTier {
        let origin = SnapshotStore::new(StoreConfig::default());
        origin.publish_round(1, "2022-01-01", generation(1));
        MirrorTier::new(config, Arc::new(origin), faults)
    }

    /// Rounds 2.. of a day's publish plan, landing at the given instants.
    fn plan_at(publish_at: &[u64]) -> Vec<TimedPublish> {
        publish_at
            .iter()
            .zip(2u64..)
            .map(|(&at_us, round)| TimedPublish {
                at_us,
                round,
                date: format!("2022-01-{round:02}"),
                artifacts: generation(round),
            })
            .collect()
    }

    fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
        sixdust_addr::digest::fnv_items(format!("{value:?}").bytes().map(u128::from))
    }

    type Day = (ChaosDayConfig, MirrorTier, Vec<TimedPublish>);

    /// The standard SLO set over a fresh registry with a flight recorder.
    fn standard_observer() -> Observer {
        let registry = Registry::new();
        registry.install_flight(&FlightRecorder::new());
        Observer::new(&registry, sixdust_telemetry::SloEngine::standard())
    }

    fn uniform_chaos() -> Day {
        let fleet = FleetConfig::builder().with_seed(7).with_requests(6_000).with_clients(40);
        let tier = tier(MirrorTierConfig::builder().with_mirrors(3), ServeFaultConfig::chaos(7, 3));
        let plan = plan_at(&[6 * HOUR_US, 12 * HOUR_US, 18 * HOUR_US]);
        (ChaosDayConfig::builder().with_fleet(fleet), tier, plan)
    }

    fn session_chaos() -> Day {
        let shape = SessionShape::builder()
            .with_spike(8 * HOUR_US, HOUR_US / 2)
            .with_spike(16 * HOUR_US, HOUR_US / 2);
        let fleet = FleetConfig::builder().with_seed(7).with_clients(5_000).with_session(shape);
        // The chaos blackout, [13 h, 19 h), covers four of the five
        // publishes; a tight front end makes the spikes shed both ways.
        let frontend =
            FrontendConfig::builder().with_client_bucket(2, 1).with_global_concurrency(1);
        let tier = tier(
            MirrorTierConfig::builder().with_mirrors(3).with_frontend(frontend),
            ServeFaultConfig::chaos(7, 3),
        );
        let plan = plan_at(&[8, 14, 15, 16, 17].map(|h| h * HOUR_US));
        (ChaosDayConfig::builder().with_fleet(fleet), tier, plan)
    }

    // Every expected value below was recorded from the two-driver code
    // this module replaced (commit c9a1c29), with these same days.

    #[test]
    fn chaos_day_reports_are_pinned_across_commits() {
        let (config, mut tier, plan) = uniform_chaos();
        let uniform = run_chaos_day(&config, &mut tier, &plan, None);
        assert_eq!(debug_digest(&uniform), 0xb1f0_dbe6_3c39_6e41, "{uniform:?}");
        assert!(uniform.resilience.hedge_wins > 0 && uniform.resilience.breaker_closed > 0);

        let (config, mut tier, plan) = session_chaos();
        let session = run_chaos_day(&config, &mut tier, &plan, None);
        assert_eq!(debug_digest(&session), 0xba20_91e1_7aa1_b54e, "{session:?}");
        assert!(session.totals.shed_client > 0 && session.totals.shed_global > 0);
        assert_eq!(session.round, 6, "the deferred publishes landed when the blackout lifted");
    }

    #[test]
    fn a_chaos_day_that_drops_finished_clients_buckets_reports_what_keeping_them_does() {
        let shape = SessionShape::builder()
            .with_think_time_us(10_000_000)
            .with_spike(8 * HOUR_US, HOUR_US / 60)
            .with_flash_permille(600);
        for seed in [7, 31] {
            let fleet = FleetConfig::builder()
                .with_seed(seed)
                .with_clients(2_000)
                .with_session(shape.clone());
            let config = ChaosDayConfig::builder().with_fleet(fleet);
            let plan = plan_at(&[8, 14, 15, 16, 17].map(|h| h * HOUR_US));
            for burst in [1, 2] {
                let frontend = FrontendConfig::builder()
                    .with_client_bucket(burst, 1)
                    .with_global_concurrency(1);
                let mirrors = MirrorTierConfig::builder().with_mirrors(3).with_frontend(frontend);
                let faults = ServeFaultConfig::chaos(seed, 3);
                let mut keeping = tier(mirrors.clone(), faults.clone());
                let origin = keeping.origin().clone();
                let mut client = TierClient::new(&config, &mut keeping, &plan, None);
                let mut kept = drive_day(
                    &config.fleet,
                    Clients::OfATier,
                    &mut KeepEveryBucket(EventLoop::new(&mut client)),
                    &origin,
                );
                // The final partial hour, as `run_chaos_day` closes a day.
                kept.resilience = client.finish(24 + 1);
                assert!(keeping.frontends().all(|fe| fe.buckets() > 0), "the oracle keeps them");
                assert!(kept.totals.shed_client > 0 && kept.totals.shed_global > 0, "{kept:?}");
                let mut dropping = tier(mirrors, faults);
                let dropped = run_chaos_day(&config, &mut dropping, &plan, None);
                assert_eq!(dropped, kept, "seed {seed}, burst {burst}");
                assert!(dropping.frontends().all(|fe| fe.buckets() == 0), "every session ended");
            }
        }
    }

    // Recorded at commit ca5d906, before the uniform schedule was streamed.
    #[test]
    fn run_day_reports_are_pinned_across_commits() {
        let store = seeded_store();
        // One virtual hour, so the buckets shed as well as serve.
        let mut fleet = FleetConfig::builder().with_seed(7).with_requests(6_000).with_clients(40);
        fleet.day_micros = HOUR_US;
        let uniform = run_day(&fleet, FrontendConfig::default(), &store, None);
        assert_eq!(debug_digest(&uniform), 0xb12d_6bff_3ae5_040f, "{uniform:?}");
        assert!(uniform.totals.shed_client > 0 && uniform.totals.not_modified > 0);

        let shape = SessionShape::builder().with_spike(8 * HOUR_US, HOUR_US / 2);
        let fleet = FleetConfig::builder().with_seed(7).with_clients(2_000).with_session(shape);
        let session = run_day(&fleet, FrontendConfig::default(), &store, None);
        assert_eq!(debug_digest(&session), 0xf7ff_1a1e_c6cd_5f4f, "{session:?}");
        assert!(session.flash_arrivals > 0);

        // Recorded at commit 20ed675, before a client's held copies were
        // dropped after its last arrival. One hour of sessions ten minutes
        // apart and a crowd whose window runs past midnight: most sessions
        // are cut there, so most clients' last arrival is the one before
        // midnight, not the last of their drawn length.
        let shape = SessionShape::builder()
            .with_think_time_us(600_000_000)
            .with_spike(50 * 60_000_000, 30 * 60_000_000);
        let mut fleet = FleetConfig::builder().with_seed(7).with_clients(2_000).with_session(shape);
        fleet.day_micros = HOUR_US;
        let cut = run_day(&fleet, FrontendConfig::default(), &store, None);
        assert_eq!(debug_digest(&cut), 0x8ada_247b_0a1d_0343, "{cut:?}");
        assert!(cut.flash_arrivals > 0 && cut.totals.not_modified > 0);
    }

    #[test]
    fn an_observed_chaos_day_reports_the_same_and_publishes_the_same_telemetry() {
        struct Pinned {
            counters: u64,
            breaches: &'static [(&'static str, u32)],
            captures: &'static [(u32, &'static str)],
            hourly_rounds: u64,
            full_captures: u64,
        }
        let days: [(fn() -> Day, Pinned); 2] = [
            (
                uniform_chaos,
                Pinned {
                    counters: 0x6c7b_5ad7_5fe1_0b82,
                    breaches: &[],
                    captures: &[(13, "origin-blackout")],
                    hourly_rounds: 0x3334_d509_fe92_1c27,
                    full_captures: 0x4abc_10d1_764e_b7d8,
                },
            ),
            (
                session_chaos,
                Pinned {
                    counters: 0xf5e6_a1c0_2da6_a00a,
                    breaches: &[
                        ("publish-freshness", 17),
                        ("publish-freshness", 18),
                        ("publish-freshness", 19),
                    ],
                    captures: &[(13, "origin-blackout"), (17, "slo:publish-freshness")],
                    hourly_rounds: 0x3624_7de6_23cd_4de3,
                    full_captures: 0x1a3b_d987_fdc3_d378,
                },
            ),
        ];
        for (day, pinned) in days {
            let (config, mut tier, plan) = day();
            let bare = run_chaos_day(&config, &mut tier, &plan, None);
            let (config, tier, plan) = day();
            let mut observer = standard_observer();
            let mut tier = tier.with_telemetry(observer.registry());
            let observed = run_chaos_day(&config, &mut tier, &plan, Some(&mut observer));
            assert_eq!(observed, bare, "observing a day does not change it");

            // The resilience counters at end of day, the hourly series
            // (every column, gauges and histograms included, as each
            // tick saw it) and what the flight recorder froze. The series
            // digests were re-pinned when the `serve.latency_ms`
            // histogram was deleted: each is what the commit before that
            // printed for its series with the `serve.latency_ms.*`
            // entries filtered out.
            let counters: Vec<(String, u64)> = observer
                .registry()
                .snapshot()
                .counters
                .into_iter()
                .filter(|(name, _)| {
                    ["serve.retry.", "serve.breaker.", "serve.mirror."]
                        .iter()
                        .any(|prefix| name.starts_with(prefix))
                })
                .collect();
            assert_eq!(debug_digest(&counters), pinned.counters, "{counters:?}");
            let breaches: Vec<(&str, u32)> =
                observer.slo().breaches().iter().map(|b| (b.slo.as_str(), b.key)).collect();
            assert_eq!(breaches, pinned.breaches);
            let captures = observer.registry().flight().expect("installed").captures();
            let reasons: Vec<(u32, &str)> =
                captures.iter().map(|c| (c.key, c.reason.as_str())).collect();
            assert_eq!(reasons, pinned.captures);
            let rounds: Vec<_> = observer.series().rounds().collect();
            assert_eq!(debug_digest(&rounds), pinned.hourly_rounds);
            assert_eq!(debug_digest(&captures), pinned.full_captures);
        }
    }

    /// Every counter of `table` carries what it reads off `ledgers`,
    /// summed.
    fn assert_reconciles<'a, L: 'a>(
        day: &str,
        snap: &sixdust_telemetry::Snapshot,
        table: &[Published<L>],
        ledgers: impl IntoIterator<Item = &'a L> + Clone,
    ) {
        for (name, read) in table {
            let counted: u64 = ledgers.clone().into_iter().map(read).sum();
            assert_eq!(snap.counter(name), Some(counted), "{day}: {name}");
        }
    }

    #[test]
    fn every_published_counter_equals_its_ledger_after_each_kind_of_day() {
        use crate::fleet::simulate_day_sync;
        use crate::{mirror, reactor, server};

        // One front end: through the loop, through the synchronous
        // engine, and an hour that sheds from the buckets and the cap.
        let store = seeded_store();
        let uniform = FleetConfig::builder().with_requests(20_000).with_clients(60);
        let hour = FleetConfig { day_micros: HOUR_US, ..uniform.clone() };
        let tight = FrontendConfig::builder().with_global_concurrency(2);
        for (day, fleet, frontend, through_the_loop) in [
            ("uniform", &uniform, FrontendConfig::default(), true),
            ("sync engine", &uniform, FrontendConfig::default(), false),
            ("shedding", &hour, tight, true),
        ] {
            let registry = Registry::new();
            let mut fe = Frontend::new(frontend, store.clone()).with_telemetry(&registry);
            if through_the_loop {
                let mut el = EventLoop::new(&mut fe).with_telemetry(&registry);
                drive_day(fleet, Clients::OfOneFrontend, &mut el, &store);
                let stats = el.stats();
                assert_eq!(stats.retired, 20_000);
                assert_reconciles(day, &registry.snapshot(), &reactor::PUBLISHED, [&stats]);
            } else {
                simulate_day_sync(fleet, &mut fe, &store);
            }
            let totals = fe.totals();
            assert_eq!(totals.requests, 20_000);
            assert_eq!(totals.shed_client + totals.shed_global > 0, day == "shedding");
            assert_reconciles(day, &registry.snapshot(), &server::PUBLISHED, [fe.ledger()]);
        }

        // Three mirrors under the chaos fault plan, observed.
        for (day, chaos) in
            [("uniform chaos", uniform_chaos as fn() -> Day), ("session chaos", session_chaos)]
        {
            let (config, tier, plan) = chaos();
            let mut observer = standard_observer();
            let mut tier = tier.with_telemetry(observer.registry());
            let report = run_chaos_day(&config, &mut tier, &plan, Some(&mut observer));
            let snap = observer.registry().snapshot();
            assert!(report.resilience.retries > 0 && tier.totals().sync_rejected > 0, "{day}");
            assert_reconciles(day, &snap, &PUBLISHED, [&report.resilience]);
            assert_reconciles(day, &snap, &mirror::PUBLISHED, [tier.totals()]);
            let ledgers: Vec<&server::Ledger> = tier.frontends().map(Frontend::ledger).collect();
            assert_eq!(ledgers.len(), 3);
            assert_reconciles(day, &snap, &server::PUBLISHED, ledgers);
        }
    }

    #[test]
    fn every_published_counter_is_inventoried_in_metrics_md() {
        let inventory =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS.md"))
                .expect("METRICS.md at the repository root");
        let names = (crate::server::PUBLISHED.iter().map(|row| row.0))
            .chain(crate::reactor::PUBLISHED.iter().map(|row| row.0))
            .chain(crate::mirror::PUBLISHED.iter().map(|row| row.0))
            .chain(PUBLISHED.iter().map(|row| row.0));
        for name in names {
            // The per-kind family is inventoried as a pattern.
            let listed =
                match name.strip_prefix("serve.kind.").and_then(|rest| rest.split_once('.')) {
                    Some((_stem, field)) => format!("`serve.kind.<stem>.{field}`"),
                    None => format!("`{name}`"),
                };
            assert!(inventory.contains(&listed), "{listed} is published but not in METRICS.md");
        }
    }

    #[test]
    fn the_event_loop_retires_a_tier_answer_after_latency_and_backoff() {
        // Two mirrors, mirror 0 dark for the first hour, both dark for
        // the second; one token per client.
        let faults = ServeFaultConfig::builder()
            .with_mirror_outage(0, 0, 2 * HOUR_US)
            .with_mirror_outage(1, HOUR_US, 2 * HOUR_US);
        let frontend = FrontendConfig::builder().with_client_bucket(1, 0);
        let mut tier =
            tier(MirrorTierConfig::builder().with_mirrors(2).with_frontend(frontend), faults);
        let config = ChaosDayConfig::default();
        let seed = config.fleet.seed;
        let prefers_dark = (0u64..)
            .find(|&c| prf_u128(seed, u128::from(c), TAG_AFFINITY).is_multiple_of(2))
            .expect("some client prefers mirror 0");
        let request = |at_us| Request {
            client: prefers_dark,
            kind: ArtifactKind::Responsive,
            fetch: FetchKind::Full,
            if_none_match: None,
            at_us,
        };
        let mut client = TierClient::new(&config, &mut tier, &[], None);
        let mut el = EventLoop::new(&mut client);

        // A body: the dark preferred mirror costs one retry's backoff.
        el.submit(0, &request(1_000));
        let backoff = backoff_us(&RETRY, seed, 0, 1);
        let done = el.finish();
        let [Completion { at_us, outcome: Outcome::Body { latency_us, .. }, .. }] = &done[..]
        else {
            panic!("one body, got {done:?}");
        };
        assert_eq!(*at_us, 1_000 + latency_us + backoff, "retire = at + latency + penalty");

        // A policy shed (the client's one token is spent) and an
        // exhausted request (every mirror dark) deliver nothing.
        el.submit(1, &request(2_000));
        el.submit(2, &request(HOUR_US + 1));
        assert_eq!(el.finish(), []);
        assert_eq!(el.stats().retired, 3, "every submission still retires exactly once");
        assert_eq!(el.stats().inflight, 0);
        let ledger = client.finish(2);
        assert_eq!((ledger.logical_requests, ledger.hard_failures), (3, 1));
        assert_eq!(tier.merged_frontend_totals().shed_client, 1);
    }
}
