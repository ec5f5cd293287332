//! End-to-end chaos tests for the resilient distribution tier: a seeded
//! bad day over origin + edge mirrors (outages, an origin publish
//! blackout, sync corruption) ridden out by the retry / failover /
//! hedging / circuit-breaker client path — byte-identical at a fixed
//! seed, with zero client hard-failures; stale-while-revalidate
//! degradation burning the publish-freshness SLO and freezing a flight
//! capture at blackout onset.

use std::sync::Arc;

use sixdust::addr::AddrSet;
use sixdust::hitlist::{HitlistService, ServiceConfig};
use sixdust::serve::{
    run_chaos_day, ArtifactKind, ChaosDayConfig, FleetConfig, MirrorTier, MirrorTierConfig,
    ServeFaultConfig, SnapshotStore, StoreConfig, TimedPublish,
};
use sixdust::telemetry::{FlightCapture, FlightRecorder, Observer, Registry, SloEngine};

const HOUR: u64 = 3_600_000_000;
const DAY: u64 = 86_400_000_000;

/// Artifact payloads for `round`, varying per round so deltas are real.
fn artifacts(round: u64) -> Vec<(ArtifactKind, AddrSet)> {
    ArtifactKind::ALL
        .iter()
        .map(|&kind| {
            let base = kind.index() as u128 * 1_000_000;
            let n = 300 + round as u128 * 40;
            (kind, (0..n).map(|i| base + i * 11).collect::<AddrSet>())
        })
        .collect()
}

/// A fresh origin with round 1 already live (the pre-day baseline).
fn origin() -> Arc<SnapshotStore> {
    let store = SnapshotStore::new(StoreConfig::default());
    store.publish_round(1, "2022-01-01", artifacts(1));
    Arc::new(store)
}

/// The day's publish plan: rounds 2..=2+n land evenly across the day.
fn plan(n: u64) -> Vec<TimedPublish> {
    (0..n)
        .map(|i| TimedPublish {
            at_us: DAY / (n + 1) * (i + 1),
            round: 2 + i,
            date: format!("2022-01-{:02}", 2 + i),
            artifacts: artifacts(2 + i),
        })
        .collect()
}

fn fleet(seed: u64, requests: u64, clients: u64) -> FleetConfig {
    FleetConfig::builder().with_seed(seed).with_requests(requests).with_clients(clients)
}

/// The standard SLO set over a fresh registry with a flight recorder.
fn standard_observer() -> Observer {
    let registry = Registry::new();
    registry.install_flight(&FlightRecorder::new());
    Observer::new(&registry, SloEngine::standard())
}

#[test]
fn a_seeded_chaos_day_is_byte_identical_and_never_hard_fails() {
    let config = ChaosDayConfig::builder().with_fleet(fleet(7, 6_000, 40));
    let run = || {
        let faults = ServeFaultConfig::chaos(7, 3);
        let mut tier =
            MirrorTier::new(MirrorTierConfig::builder().with_mirrors(3), origin(), faults);
        run_chaos_day(&config, &mut tier, &plan(3), None)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical seed and fault plan must replay byte-identically");

    // The acceptance bar: a full chaos day with zero client-visible
    // hard failures — every logical request was answered or policy-shed.
    assert_eq!(a.resilience.hard_failures, 0, "resilient path must absorb the fault plan");

    // The fault plan actually engaged every mechanism under test.
    assert!(a.resilience.down_attempts > 0, "outage windows were hit");
    assert!(a.resilience.failovers > 0, "failover rerouted around them");
    assert!(a.resilience.retries > 0, "retry budget was spent");
    assert!(a.resilience.stale_served > 0, "blackout forced stale-while-revalidate serving");
    assert!(a.resilience.sync_rejected > 0, "corrupted syncs were rejected checksum-first");
    assert!(a.resilience.syncs > 0, "clean syncs still landed");

    // Cross-layer accounting: every client attempt either reached a
    // front end (tier totals) or died at a downed mirror.
    assert_eq!(
        a.resilience.attempts,
        a.totals.requests + a.resilience.down_attempts,
        "attempts = frontend requests + down attempts"
    );
    // Adopted logical bodies are a subset of per-attempt frontend bodies
    // (hedge losers and failed-over duplicates serve too).
    let logical_bodies: u64 = a.bodies_by_kind.iter().map(|(_, n)| n).sum();
    assert!(logical_bodies <= a.totals.bodies);
    assert!(logical_bodies > 0, "the day served real payloads");
    assert!(a.latency_p50_us > 0, "answered requests recorded client-observed latency");
}

#[test]
fn failover_rides_out_a_mirror_outage_with_deterministic_breakers() {
    // One fault only: mirror 0 dark from 6h to 9h. Clients with affinity
    // to it must fail over; its breaker must open under the consecutive
    // failures and re-close through half-open probes after the window.
    let config = ChaosDayConfig::builder().with_fleet(fleet(11, 4_000, 30));
    let run = || {
        let faults = ServeFaultConfig::builder().with_mirror_outage(0, 6 * HOUR, 9 * HOUR);
        let mut tier =
            MirrorTier::new(MirrorTierConfig::builder().with_mirrors(3), origin(), faults);
        run_chaos_day(&config, &mut tier, &plan(1), None)
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.resilience, b.resilience,
        "breaker transitions and retry accounting are deterministic"
    );

    assert_eq!(a.resilience.hard_failures, 0);
    assert!(a.resilience.down_attempts > 0, "requests hit the dark mirror");
    assert!(a.resilience.failovers > 0, "and were rerouted");
    assert!(a.resilience.breaker_opened > 0, "consecutive failures opened the breaker");
    assert!(a.resilience.breaker_skipped > 0, "an open breaker short-circuits attempts");
    assert!(a.resilience.breaker_closed > 0, "half-open probes re-closed it after the window");

    // Every logical request was answered: the day's only fault is one
    // mirror of three, well within the retry budget.
    let logical_bodies: u64 = a.bodies_by_kind.iter().map(|(_, n)| n).sum();
    assert!(logical_bodies > 0);
    assert_eq!(
        a.resilience.attempts,
        a.totals.requests + a.resilience.down_attempts,
        "attempts = frontend requests + down attempts"
    );
}

#[test]
fn a_blackout_serves_stale_burns_the_freshness_slo_and_freezes_a_capture() {
    // The origin goes dark at 2h and never recovers; four publishes are
    // scheduled during the blackout. The target round keeps advancing,
    // mirrors keep serving the last-good generation (counted stale), the
    // staleness gauge climbs past the publish-freshness objective and
    // the flight recorder freezes a capture at blackout onset.
    let faults = ServeFaultConfig::builder().with_origin_blackout(2 * HOUR, DAY);
    let mut tier = MirrorTier::new(MirrorTierConfig::builder().with_mirrors(2), origin(), faults);
    let mut observer = standard_observer();
    let publishes: Vec<TimedPublish> = (0..4)
        .map(|i| TimedPublish {
            at_us: (3 + 2 * i) * HOUR,
            round: 2 + i,
            date: format!("2022-01-{:02}", 2 + i),
            artifacts: artifacts(2 + i),
        })
        .collect();
    let config = ChaosDayConfig::builder().with_fleet(fleet(13, 3_000, 20));
    let report = run_chaos_day(&config, &mut tier, &publishes, Some(&mut observer));

    assert_eq!(report.resilience.hard_failures, 0, "stale service is still service");
    assert!(report.resilience.stale_served > 0, "mirrors served behind the target round");
    assert_eq!(report.round, 1, "no publish landed: the origin still serves the baseline");
    assert_eq!(tier.target_round(), 5, "the publish plan's target kept advancing");
    assert_eq!(tier.staleness_rounds(), 4, "four publishes owed by end of day");

    let breaches = observer.slo().breaches();
    assert!(
        breaches.iter().any(|b| b.slo == "publish-freshness"),
        "sustained staleness > 2 rounds burns the publish-freshness SLO, got {breaches:?}"
    );
    let captures = observer.registry().flight().expect("installed").captures();
    assert!(
        captures.iter().any(|c| c.reason == "origin-blackout"),
        "blackout onset freezes a flight capture"
    );

    // A breach is noted alike whoever was judged: three degraded service
    // rounds breach the degraded-rounds SLO through the same observer.
    let breach_fields = |captures: &[FlightCapture]| -> Vec<String> {
        let mut notes = captures.iter().flat_map(|c| &c.events);
        let note = notes.find(|e| e.kind == "slo.breach").expect("a breach note");
        note.args.iter().map(|(name, _)| name.clone()).collect()
    };
    let mut svc = HitlistService::new(ServiceConfig::default()).with_observer(standard_observer());
    let registry = svc.observer().expect("attached").registry().clone();
    for day in 0..3 {
        registry.counter("service.rounds").incr();
        registry.counter("service.degraded_rounds").incr();
        svc.observer_mut().expect("attached").record(day);
    }
    let service_captures = registry.flight().expect("installed").captures();
    assert_eq!(breach_fields(&service_captures), breach_fields(&captures));
    assert_eq!(breach_fields(&captures), ["slo", "bad_permille"]);
}

#[test]
fn a_lossless_tier_day_matches_the_acceptance_identities() {
    // No faults at all: nothing is shed to outages, no breaker ever
    // opens, no sync is rejected — the chaos path degrades to a plain
    // (but mirrored) day and the ledger shows it.
    let config = ChaosDayConfig::builder().with_fleet(fleet(3, 4_000, 25));
    let mut tier = MirrorTier::new(
        MirrorTierConfig::builder().with_mirrors(4),
        origin(),
        ServeFaultConfig::lossless(),
    );
    let report = run_chaos_day(&config, &mut tier, &plan(2), None);

    assert_eq!(report.resilience.hard_failures, 0);
    assert_eq!(report.resilience.down_attempts, 0);
    assert_eq!(report.resilience.sync_rejected, 0);
    assert!(report.resilience.syncs > 0, "mirrors synced all three generations");
    assert_eq!(report.round, 3, "the last planned publish landed");
}

#[test]
fn an_observer_sees_each_hour_what_it_saw_when_the_counters_were_live() {
    // The tier, its front ends and the client count into their ledgers
    // and tell the registry before each hourly round. Digests of the
    // hourly series, the SLO breach log and the flight captures, as
    // `Debug` prints them, for the seeded chaos day above and the
    // blackout day, which breaches. The breach log's was recorded at
    // 2f32690, where every serve counter was incremented per event; the
    // other two at 2c36ff1, where the exports recorded at 2f32690 still
    // held byte for byte. The series digests were re-pinned when the
    // `serve.latency_ms` histogram was deleted: each is the digest the
    // commit before that printed for its series with the
    // `serve.latency_ms.*` entries filtered out.
    let digest = |text: &str| sixdust::addr::digest::fnv_items(text.bytes().map(u128::from));
    let blackout: Vec<TimedPublish> = plan(4)
        .into_iter()
        .zip(0..)
        .map(|(publish, i)| TimedPublish { at_us: (3 + 2 * i) * HOUR, ..publish })
        .collect();
    let days = [
        (
            fleet(7, 6_000, 40),
            (3, ServeFaultConfig::chaos(7, 3), plan(3)),
            (0, [0x3334_d509_fe92_1c27, 0xd406_8488_2ca7_c363, 0x4abc_10d1_764e_b7d8]),
        ),
        (
            fleet(13, 3_000, 20),
            (2, ServeFaultConfig::builder().with_origin_blackout(2 * HOUR, DAY), blackout),
            (17, [0x25aa_d15f_f306_42de, 0xe27c_b54c_07cf_8eeb, 0x289a_7595_79b1_1f26]),
        ),
    ];
    for (fleet, (mirrors, faults, plan), (breach_rounds, pinned)) in days {
        let mut observer = standard_observer();
        let config = MirrorTierConfig::builder().with_mirrors(mirrors);
        let mut tier =
            MirrorTier::new(config, origin(), faults).with_telemetry(observer.registry());
        let config = ChaosDayConfig::builder().with_fleet(fleet);
        run_chaos_day(&config, &mut tier, &plan, Some(&mut observer));
        let breaches = observer.slo().breaches();
        assert_eq!(breaches.len(), breach_rounds);
        let seen = [
            digest(&format!("{:?}", observer.series().rounds().collect::<Vec<_>>())),
            digest(&format!("{breaches:?}")),
            digest(&format!("{:?}", observer.registry().flight().expect("installed").captures())),
        ];
        assert_eq!(seen, pinned, "{seen:#x?}");
    }
}
