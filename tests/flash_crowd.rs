//! End-to-end flash-crowd tests for the event-loop serve front end: a
//! million session-based virtual clients (heavy-tailed request counts,
//! think time, publication-chasing arrival spikes) replayed through the
//! virtual-time reactor — byte-identical at a fixed seed, ledger-equal
//! to the synchronous reference path, and reconciled to the attempt
//! under chaos faults on a mirror tier.

use std::sync::Arc;

use sixdust::addr::AddrSet;
use sixdust::serve::{
    run_chaos_day, run_day, simulate_day, simulate_day_sync, ArtifactKind, ChaosDayConfig,
    FleetConfig, Frontend, FrontendConfig, MirrorTier, MirrorTierConfig, ServeFaultConfig,
    SessionShape, SnapshotStore, StoreConfig, TimedPublish,
};

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

/// A store with three published rounds, so one-behind clients have a
/// delta base and conditional fetches have history.
fn store() -> Arc<SnapshotStore> {
    let store = SnapshotStore::new(StoreConfig::default());
    for round in 1..=3u64 {
        store.publish_round(round, "2022-01-01", artifacts(round));
    }
    Arc::new(store)
}

/// The flash-crowd session shape: spikes at one third and two thirds of
/// the day, 30-minute pile-on windows.
fn flash_shape() -> SessionShape {
    SessionShape::builder()
        .with_spike(DAY / 3, 1_800_000_000)
        .with_spike(2 * DAY / 3, 1_800_000_000)
}

#[test]
fn a_million_client_flash_crowd_day_is_byte_identical() {
    let store = store();
    let fleet = FleetConfig::builder()
        .with_clients(1_000_000)
        .with_seed(11)
        .with_session(flash_shape())
        .build()
        .expect("valid fleet");
    let a = run_day(&fleet, FrontendConfig::default(), &store, None);
    let b = run_day(&fleet, FrontendConfig::default(), &store, None);
    assert_eq!(a, b, "a million-client day replays byte-identically at a fixed seed");
    assert_eq!(a.clients, 1_000_000);
    assert!(
        a.totals.requests > 1_000_000,
        "the heavy session tail multiplies a million clients into more requests ({})",
        a.totals.requests
    );
    assert!(a.flash_arrivals > 0, "the crowd showed up");
    assert_eq!(
        a.totals.bodies
            + a.totals.not_modified
            + a.totals.shed_client
            + a.totals.shed_global
            + a.totals.unavailable,
        a.totals.requests,
        "every request is accounted exactly once at scale"
    );
}

#[test]
fn event_loop_ledger_equals_synchronous_at_flash_crowd_scale() {
    let store = store();
    let fleet = FleetConfig::builder()
        .with_clients(100_000)
        .with_seed(23)
        .with_session(flash_shape())
        .build()
        .expect("valid fleet");
    let mut reactor_fe = Frontend::new(FrontendConfig::default(), store.clone());
    let reactor = simulate_day(&fleet, &mut reactor_fe, &store);
    let mut sync_fe = Frontend::new(FrontendConfig::default(), store.clone());
    let sync = simulate_day_sync(&fleet, &mut sync_fe, &store);
    assert_eq!(reactor, sync, "the reactor's ledger is pinned to the synchronous path");
    assert_eq!(
        sixdust::json::to_string_pretty(&reactor),
        sixdust::json::to_string_pretty(&sync),
        "byte-identical as `--serve-report` writes them, not merely Eq"
    );
    assert!(reactor.flash_arrivals > 0);
}

#[test]
fn chaos_faults_reconcile_under_session_load() {
    let fleet =
        FleetConfig::builder().with_clients(20_000).with_seed(7).with_session(flash_shape());
    let config = ChaosDayConfig::builder().with_fleet(fleet);
    let plan: Vec<TimedPublish> = (0..2u64)
        .map(|i| TimedPublish {
            at_us: DAY / 3 * (i + 1),
            round: 4 + i,
            date: format!("2022-01-{:02}", 4 + i),
            artifacts: artifacts(4 + i),
        })
        .collect();
    let run = || {
        let origin = store();
        let mut tier = MirrorTier::new(
            MirrorTierConfig::builder().with_mirrors(3),
            origin,
            ServeFaultConfig::chaos(7, 3),
        );
        run_chaos_day(&config, &mut tier, &plan, None)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "a session chaos day replays byte-identically");
    assert!(a.flash_arrivals > 0, "flash arrivals are counted on the chaos path too");
    assert!(a.resilience.logical_requests > 20_000, "sessions expand past one request per client");
    assert!(a.resilience.down_attempts > 0, "the fault plan was live");
    assert_eq!(
        a.resilience.attempts,
        a.totals.requests + a.resilience.down_attempts,
        "attempts = frontend requests + down attempts (nothing lost, nothing double-counted)"
    );
    assert_eq!(a.resilience.hard_failures, 0, "the resilient path absorbs the chaos");
}
