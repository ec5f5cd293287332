//! End-to-end observability: the SLO engine, the black-box flight
//! recorder and the HTML ops dashboard over real pipeline runs.
//!
//! Two scenario fixtures drive the stack into judgment territory:
//! the chaos outage window from `tests/chaos.rs` (days [20, 25) are a
//! total vantage blackout, so rounds degrade and the degraded-rounds
//! SLO burns through its budget) and the first GFW injection era
//! (UDP/53 anomaly flags keep the publish-freshness clock climbing).
//! Everything is seeded, so breach logs, captures and the rendered
//! dashboard are byte-identical across runs.

use sixdust::hitlist::{HitlistService, ServiceConfig};
use sixdust::net::{
    events, Day, FaultConfig, GilbertElliott, IcmpRateLimit, Internet, Outage, Scale,
};
use sixdust::scan::ScanConfig;
use sixdust::telemetry::{
    Dashboard, FlightRecorder, Observer, Registry, SeriesRecorder, SloEngine, SloSpec,
};

/// The outage window every chaos run schedules: days `[20, 25)`
/// (mirrors `tests/chaos.rs`).
const OUTAGE_FROM: Day = Day(20);
const OUTAGE_UNTIL: Day = Day(25);
const RUN_UNTIL: Day = Day(60);

fn chaos_faults() -> FaultConfig {
    FaultConfig::lossless()
        .with_seed(0xC4A05)
        .with_burst(GilbertElliott {
            mean_good_days: 8,
            mean_bad_days: 4,
            good_drop_permille: 20,
            bad_drop_permille: 600,
        })
        .with_duplicate_permille(30)
        .with_icmp_rate_limit(IcmpRateLimit { per_day: 5 })
        .with_outage(Outage::vantage(OUTAGE_FROM, OUTAGE_UNTIL))
}

/// A service carrying the full judgment stack: a flight recorder in its
/// registry, and an observer judging its rounds by the standard SLO set.
fn ops_service(registry: &Registry) -> HitlistService {
    let config = ServiceConfig::default()
        .with_scan(ScanConfig::default().with_attempts(3).with_retry_backoff_ms(10))
        .with_traceroute_cap(800);
    registry.install_flight(&FlightRecorder::new());
    HitlistService::new(config).with_observer(Observer::new(registry, SloEngine::standard()))
}

fn run_chaos_ops() -> HitlistService {
    let registry = Registry::new();
    let net = Internet::build(Scale::tiny()).with_faults(chaos_faults()).with_telemetry(&registry);
    let mut svc = ops_service(&registry);
    svc.run(&net, Day(0), RUN_UNTIL);
    svc
}

#[test]
fn outage_burns_the_degraded_budget_and_freezes_a_black_box() {
    let svc = run_chaos_ops();
    let engine = svc.observer().expect("observer attached").slo();

    // The five-day blackout produces consecutive degraded rounds; by the
    // third the short (3-round) and long (12-round) windows both burn
    // past 2x, so a breach round must land inside the outage window.
    let in_outage: Vec<_> = engine
        .breaches()
        .iter()
        .filter(|b| b.slo == "degraded-rounds" && b.key >= OUTAGE_FROM.0 && b.key < OUTAGE_UNTIL.0)
        .collect();
    assert!(
        !in_outage.is_empty(),
        "degraded-rounds SLO must breach inside the outage; log: {:?}",
        engine.breaches()
    );
    assert!(engine.breaches().iter().any(|b| b.onset), "some breach is an onset");
    for b in &in_outage {
        assert_eq!(b.bad_permille, 1000, "blackout rounds are fully degraded");
        assert!(b.burn_short_milli >= 2_000, "short window burning: {}", b.burn_short_milli);
    }

    // The breach log carries the same story.
    assert!(engine.breaches().iter().any(|b| b.slo == "degraded-rounds"));

    // The flight recorder froze captures: one at the first degraded
    // round of an episode, one at each SLO breach onset.
    let flight =
        svc.observer().and_then(|o| o.registry().flight()).expect("flight recorder installed");
    let captures = flight.captures();
    assert!(!captures.is_empty(), "the blackout must freeze at least one capture");
    assert!(
        captures.iter().any(|c| c.reason == "degraded-round"),
        "a degraded-round onset capture exists: {:?}",
        captures.iter().map(|c| c.reason.as_str()).collect::<Vec<_>>()
    );
    assert!(
        captures.iter().any(|c| c.reason == "slo:degraded-rounds"),
        "an SLO breach onset capture exists"
    );
    // Captures carry context, not just the trigger: recent rounds and
    // the noted degraded/anomaly events leading up to it.
    let slo_cap = captures.iter().find(|c| c.reason == "slo:degraded-rounds").unwrap();
    assert!(!slo_cap.rounds.is_empty(), "capture carries recent metric rounds");
    assert!(
        slo_cap.events.iter().any(|e| e.kind == "service.degraded"),
        "capture carries the degraded-round events that led to the breach"
    );
    // Deterministic black boxes: no wall-clock metrics inside.
    for round in captures.iter().flat_map(|c| &c.rounds) {
        let timed = round.values.iter().find(|(name, _)| name.ends_with("_ms"));
        assert!(timed.is_none(), "captures must exclude wall-clock metrics: {timed:?}");
    }
}

#[test]
fn gfw_era_keeps_publishes_stale_and_fires_the_freshness_slo() {
    // Same window as the hitlist crate's era tests: enough pre-era
    // rounds to warm the MAD baselines, then into the injections, where
    // every round flags UDP/53 and the staleness clock climbs.
    let net =
        Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless().with_drop_permille(2));
    let registry = Registry::new();
    let flight = FlightRecorder::new();
    registry.install_flight(&flight);
    let config = ServiceConfig::default().with_alias_every_days(14).with_traceroute_cap(600);
    let mut svc =
        HitlistService::new(config).with_observer(Observer::new(&registry, SloEngine::standard()));
    let start = Day(events::GFW_ERA1.0 .0 - 40);
    svc.run(&net, start, events::GFW_ERA1.0.plus(10));

    let era_start = events::GFW_ERA1.0;
    assert!(
        svc.rounds().iter().any(|r| r.day >= era_start && r.anomalous.iter().any(|&a| a)),
        "era rounds carry anomaly flags"
    );
    // Anomaly-flagged rounds never reset the freshness clock, so the
    // staleness gauge exceeds the SLO's 2-round objective and the
    // publish-freshness SLO records breach rounds during the era.
    let engine = svc.observer().expect("observer attached").slo();
    assert!(
        engine.breaches().iter().any(|b| b.slo == "publish-freshness" && b.key >= era_start.0),
        "publish-freshness must breach during the era; log: {:?}",
        engine.breaches()
    );
    let snap = registry.snapshot();
    assert!(
        snap.gauge("service.publish.staleness_rounds").unwrap_or(0) > 2,
        "the era keeps the staleness clock above the objective"
    );
    // At least one black box froze (anomaly onset or breach onset).
    assert!(flight.captures_len() >= 1);
}

#[test]
fn ops_dashboard_renders_byte_identical_across_runs() {
    let a = run_chaos_ops();
    let b = run_chaos_ops();

    let render = |svc: &HitlistService| {
        Dashboard {
            title: "sixdust ops",
            subtitle: "chaos fixture, seed 0xC4A05",
            observer: svc.observer().expect("observer attached"),
        }
        .render()
    };
    let page_a = render(&a);
    let page_b = render(&b);
    assert_eq!(page_a, page_b, "same seed must render the identical dashboard");
    assert_eq!(page_a, render(&a), "rendering is a pure function of the run");

    // The page actually shows the incident: SLO table, breach rows and
    // flight captures all present.
    assert!(page_a.contains("degraded-rounds"));
    assert!(page_a.contains("sixdust ops"));
    assert!(!page_a.is_empty() && page_a.starts_with("<!DOCTYPE html>"));

    // The breach log and the captures beneath it replay identically too.
    let (oa, ob) = (a.observer().unwrap(), b.observer().unwrap());
    assert_eq!(oa.slo().breaches(), ob.slo().breaches());
    let (fa, fb) = (oa.registry().flight().unwrap(), ob.registry().flight().unwrap());
    assert_eq!(fa.captures(), fb.captures());
}

#[test]
fn burn_rate_math_is_exact_over_a_synthetic_series() {
    let registry = Registry::new();
    let mut recorder = SeriesRecorder::new(registry.clone(), 64);
    // 100‰ budget, short window 2, long window 4, alert at 2.0x burn.
    // A breach needs BOTH windows hot: the short window for recency,
    // the long window to confirm the burn is sustained.
    let mut engine =
        SloEngine::new(vec![SloSpec::ratio("avail", "bad", "total", 100, 2, 4, 2_000)])
            .with_registry(&registry);
    let bad = registry.counter("bad");
    let total = registry.counter("total");

    // Round 0: 4/10 bad = 400‰, but one round is below the
    // short-window warm-up — no verdict yet.
    total.add(10);
    bad.add(4);
    assert!(engine.observe(recorder.record(0)).is_empty());

    // Round 1: 400‰ again. Short window avg 400‰ = 4.0x of the 100‰
    // budget; long window (the same two rounds) identical. Breach, onset.
    total.add(10);
    bad.add(4);
    let fired = engine.observe(recorder.record(1));
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].slo, "avail");
    assert_eq!(fired[0].bad_permille, 400);
    assert_eq!(fired[0].burn_short_milli, 4_000, "avg 400‰ over budget 100‰ = 4.000x");
    assert_eq!(fired[0].burn_long_milli, 4_000);
    assert!(fired[0].onset);

    // Round 2: 400‰ a third time. Both windows stay at 4.0x — the
    // breach persists (not an onset).
    total.add(10);
    bad.add(4);
    let fired = engine.observe(recorder.record(2));
    assert_eq!(fired.len(), 1);
    assert!(!fired[0].onset, "continuation, not a new episode");

    // Round 3: clean. Short window (400 + 0)/2 = 200‰ sits exactly at
    // the 2.0x threshold; long window (3×400 + 0)/4 = 300‰ = 3.0x.
    // Still breached — the episode hasn't drained yet.
    total.add(10);
    let fired = engine.observe(recorder.record(3));
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].bad_permille, 0, "the round itself is clean");
    assert_eq!(fired[0].burn_short_milli, 2_000, "exactly at the threshold still fires");
    assert_eq!(fired[0].burn_long_milli, 3_000);
    assert!(!fired[0].onset);

    // Round 4: clean again. The short window is now all-clean, so the
    // alert clears even though the long window (2×400 + 2×0)/4 = 200‰
    // still remembers the bad rounds at exactly 2.0x.
    total.add(10);
    assert!(engine.observe(recorder.record(4)).is_empty());

    // The registry carries the final burn state for dashboards, and the
    // whole run was one three-round episode with a single onset.
    let snap = registry.snapshot();
    assert_eq!(snap.gauge("slo.avail.burn_short_milli"), Some(0));
    assert_eq!(snap.gauge("slo.avail.burn_long_milli"), Some(2_000));
    assert_eq!(snap.counter("slo.avail.breach_rounds"), Some(3));
    assert_eq!(engine.breaches().len(), 3);
    assert_eq!(engine.breaches().iter().filter(|b| b.onset).count(), 1);
}
