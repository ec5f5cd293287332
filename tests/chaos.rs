//! Chaos-grade end-to-end test: the full hitlist pipeline under seeded
//! fault injection — bursty Gilbert–Elliott loss, response duplication,
//! ICMPv6 rate limiting and a multi-day vantage outage — must degrade
//! *gracefully*: rounds inside the outage are classified degraded and
//! quarantined (never swept), the published protocol mix keeps its shape
//! (ICMP dominates, Fig. 3), total evictions stay within a pinned margin
//! of the fault-free baseline, and every fault shows up in telemetry.
//!
//! Everything is seeded: the same chaos run twice is byte-identical.

use sixdust::hitlist::{HitlistService, ServiceConfig};
use sixdust::net::{
    Day, FaultConfig, GilbertElliott, IcmpRateLimit, Internet, Outage, Protocol, Scale,
};
use sixdust::scan::{scan_jobs_wire, ScanConfig, ScanJob};
use sixdust::telemetry::Registry;

/// The outage window every chaos run schedules: days `[20, 25)`.
const OUTAGE_FROM: Day = Day(20);
const OUTAGE_UNTIL: Day = Day(25);
const RUN_UNTIL: Day = Day(60);

/// The chaos fault profile: mostly-calm days with multi-day loss bursts,
/// occasional duplicated answers, routers that tire of ICMPv6, and a
/// five-day vantage blackout.
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

/// A service configured for degraded operation: retries mask loss so the
/// estimator can see it, and backoff spaces the re-probes out.
fn chaos_service(registry: &Registry) -> HitlistService {
    let config = ServiceConfig::default()
        .with_scan(ScanConfig::default().with_attempts(3).with_retry_backoff_ms(10))
        .with_traceroute_cap(800);
    HitlistService::new(config).with_telemetry(registry.clone())
}

fn run_chaos(registry: &Registry) -> (Internet, HitlistService) {
    let net = Internet::build(Scale::tiny()).with_faults(chaos_faults()).with_telemetry(registry);
    let mut svc = chaos_service(registry);
    svc.run(&net, Day(0), RUN_UNTIL);
    (net, svc)
}

#[test]
fn outage_rounds_degrade_gracefully_and_evictions_stay_bounded() {
    // Fault-free baseline at the same scale, seed and service config.
    let calm_registry = Registry::new();
    let calm_net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
    let mut calm = chaos_service(&calm_registry);
    calm.run(&calm_net, Day(0), RUN_UNTIL);

    let registry = Registry::new();
    let (_net, svc) = run_chaos(&registry);

    // Every round inside the outage window is a total blackout: degraded,
    // loss pegged at 1000 ‰, and — the point of quarantine — zero
    // evictions.
    let outage_rounds: Vec<_> =
        svc.rounds().iter().filter(|r| r.day >= OUTAGE_FROM && r.day < OUTAGE_UNTIL).collect();
    assert!(!outage_rounds.is_empty(), "rounds must fall inside the outage");
    for r in &outage_rounds {
        assert!(r.degraded, "blackout round {:?} must be degraded", r.day);
        assert_eq!(r.loss_estimate_permille, 1000, "round {:?}", r.day);
        assert_eq!(r.total_published, 0, "nothing answers during the outage");
        assert_eq!(r.dropped, 0, "degraded rounds must not evict");
    }
    // Chaos is not a permanent state: calm rounds exist too, and the
    // degraded count reconciles with the per-round flags.
    assert!(svc.rounds().iter().any(|r| !r.degraded), "calm rounds must exist");
    assert_eq!(svc.degraded_rounds(), svc.rounds().iter().filter(|r| r.degraded).count());

    // Eviction margin: quarantine defers sweeps, it never cancels them,
    // and loss+retries must not fabricate evictions. Upper bound: chaos
    // never evicts meaningfully more than the calm baseline. Lower bound:
    // every calm eviction whose deferred day still fits before the end of
    // the run must have happened under chaos too — each degraded (daily)
    // round grants at most one forgiven day, so the worst-case deferral is
    // the degraded-round count.
    let calm_dropped: usize = calm.rounds().iter().map(|r| r.dropped).sum();
    let chaos_dropped: usize = svc.rounds().iter().map(|r| r.dropped).sum();
    assert!(
        chaos_dropped <= calm_dropped + calm_dropped / 10 + 2,
        "chaos evictions {chaos_dropped} far above calm baseline {calm_dropped}"
    );
    let deferral = svc.degraded_rounds() as u32 + 3;
    let calm_due: usize =
        calm.rounds().iter().filter(|r| r.day.0 + deferral <= RUN_UNTIL.0).map(|r| r.dropped).sum();
    assert!(
        chaos_dropped >= calm_due,
        "chaos evictions {chaos_dropped} below the deferred-but-due baseline {calm_due}"
    );

    // Shape target: the published protocol mix survives the chaos — ICMP
    // stays the dominant protocol (Fig. 3) and the service still publishes.
    let last = svc.rounds().iter().rev().find(|r| !r.degraded).expect("a calm round exists");
    assert!(last.total_cleaned > 0, "service still publishes after chaos");
    let icmp = last.published[0];
    assert_eq!(Protocol::ALL[0], Protocol::Icmp);
    for (i, p) in Protocol::ALL.iter().enumerate().skip(1) {
        assert!(
            icmp >= last.published[i],
            "ICMP ({icmp}) must dominate {p:?} ({})",
            last.published[i]
        );
    }
}

#[test]
fn fault_counters_surface_in_exported_telemetry() {
    let registry = Registry::new();
    let (net, _svc) = run_chaos(&registry);

    // Corruption rides the wire path, which the semantic service scan does
    // not exercise — run one wire-level scan through an equally faulty net.
    // Registering a second net under the same registry would replace the
    // service net's counter handles, so the wire leg gets its own registry.
    let wire_registry = Registry::new();
    let wire = Internet::build(Scale::tiny())
        .with_faults(chaos_faults().with_corrupt_permille(400))
        .with_telemetry(&wire_registry);
    let targets: Vec<_> = wire
        .population()
        .enumerate_responsive(Day(30))
        .into_iter()
        .map(|(a, ..)| a)
        .take(400)
        .collect();
    let config = ScanConfig::default();
    let job = ScanJob {
        net: &wire,
        protocols: &[Protocol::Icmp],
        targets: &targets,
        day: Day(30),
        config: &config,
        telemetry: Some(&wire_registry),
    };
    let (results, _) = scan_jobs_wire(1, &[job]);
    assert!(results[0].stats.sent > 0);
    assert!(
        wire_registry.snapshot().counter("net.faults.corrupted").unwrap_or(0) > 0,
        "corruption must fire on the wire path"
    );

    let snap = registry.snapshot();
    assert!(snap.counter("net.faults.dropped").unwrap_or(0) > 0, "bursty loss must drop");
    assert!(snap.counter("net.faults.duplicated").unwrap_or(0) > 0, "duplication must fire");
    assert!(
        snap.counter("net.faults.rate_limited").unwrap_or(0) > 0,
        "traceroutes must exhaust ICMPv6 budgets"
    );
    // The service-side degradation metrics ride along in the same export.
    assert!(snap.counter("service.degraded_rounds").unwrap_or(0) > 0);
    let json = snap.to_json();
    for key in [
        "net.faults.dropped",
        "net.faults.duplicated",
        "net.faults.corrupted",
        "net.faults.rate_limited",
        "service.degraded_rounds",
        "service.loss_estimate_permille",
    ] {
        assert!(json.contains(key), "telemetry JSON must export {key}");
    }

    // The chaos net kept counting too (sanity: faults hit the service run).
    assert!(net.counters().faults_dropped.get() > 0);
}

#[test]
fn chaos_runs_are_deterministic() {
    let a = run_chaos(&Registry::new()).1;
    let b = run_chaos(&Registry::new()).1;
    assert_eq!(a.rounds(), b.rounds(), "same seed ⇒ byte-identical history");
    assert_eq!(
        a.unresponsive().quarantined(),
        b.unresponsive().quarantined(),
        "quarantine windows replay identically"
    );
}

#[test]
fn heavy_corruption_never_panics_the_wire_scanner() {
    let registry = Registry::new();
    let net = Internet::build(Scale::tiny())
        .with_faults(
            FaultConfig::lossless()
                .with_seed(0xBADF)
                .with_corrupt_permille(950)
                .with_duplicate_permille(500)
                .with_drop_permille(300),
        )
        .with_telemetry(&registry);
    let targets: Vec<_> = net
        .population()
        .enumerate_responsive(Day(10))
        .into_iter()
        .map(|(a, ..)| a)
        .take(300)
        .collect();
    let config = ScanConfig::default();
    let job = ScanJob {
        net: &net,
        protocols: &Protocol::ALL,
        targets: &targets,
        day: Day(10),
        config: &config,
        telemetry: Some(&registry),
    };
    for (proto, result) in Protocol::ALL.into_iter().zip(scan_jobs_wire(1, &[job]).0) {
        assert_eq!(result.protocol, proto);
        // Garbage in flight may eat hits, never invariants.
        assert!(result.stats.hits <= targets.len() as u64, "{proto:?}");
        assert_eq!(result.hits.len() as u64, result.stats.hits, "{proto:?}");
        let hit: std::collections::HashSet<_> = result.hit_addrs().collect();
        assert_eq!(hit.len(), result.hits.len(), "{proto:?}: a target is hit at most once");
        assert!(hit.iter().all(|a| targets.contains(a)), "{proto:?}: every hit was a target");
    }
    assert!(registry.snapshot().counter("net.faults.corrupted").unwrap_or(0) > 0);
}
