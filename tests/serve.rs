//! End-to-end tests for the distribution subsystem: a seeded multi-round
//! service run publishing into the sharded store, a ≥100k-request
//! simulated consumer day with deterministic totals, byte-identical
//! delta reconstruction, and concurrent readers racing a publisher.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sixdust::addr::AddrSet;
use sixdust::hitlist::{publish, HitlistService, ServiceConfig};
use sixdust::net::{Day, FaultConfig, Internet, Scale};
use sixdust::serve::codec;
use sixdust::serve::{
    run_day, ArtifactKind, FleetConfig, FrontendConfig, SnapshotStore, StoreConfig,
};
use sixdust::telemetry::Registry;

const LAST_DAY: Day = Day(30);

/// The responsive artifact's items per published round.
type History = Vec<(u64, Arc<AddrSet>)>;

/// Runs a seeded month of the service, publishing every round into a
/// fresh store; returns the service, the store, and the responsive
/// artifact's item history per published round.
fn run_and_publish(registry: Option<&Registry>) -> (HitlistService, Arc<SnapshotStore>, History) {
    let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
    let mut store = SnapshotStore::new(StoreConfig::builder().with_shards(8));
    if let Some(reg) = registry {
        store = store.with_telemetry(reg.clone());
    }
    let store = Arc::new(store);
    let mut svc = HitlistService::new(ServiceConfig::default().with_snapshot_days(vec![LAST_DAY]));
    let mut history = History::new();
    let hook_store = store.clone();
    svc.run_with(&net, Day(0), LAST_DAY, |svc, day| {
        hook_store.publish_service(svc, u64::from(day.0), &day.to_date());
        let version = hook_store.artifact(ArtifactKind::Responsive).expect("just published");
        history.push((version.round(), version.items().clone()));
    });
    (svc, store, history)
}

#[test]
fn service_rounds_land_in_the_store() {
    let (svc, store, history) = run_and_publish(None);
    assert!(history.len() >= 3, "a month spans several scan rounds");
    assert_eq!(store.current_round(), Some(u64::from(LAST_DAY.0)));
    assert_eq!(store.current_date(), Some(LAST_DAY.to_date()));

    // The responsive artifact is exactly the service's current view.
    let version = store.artifact(ArtifactKind::Responsive).expect("published");
    let expected = svc.current_responsive();
    assert!(!expected.is_empty(), "tiny scale still finds responsive addresses");
    assert_eq!(version.items().as_ref(), expected);

    // Shards partition the artifact exactly.
    let mut from_shards: Vec<u128> = Vec::new();
    for shard in version.shards() {
        shard.verify().expect("shard decodes to its own items");
        from_shards.extend(shard.items().iter());
    }
    from_shards.sort_unstable();
    assert_eq!(from_shards, expected.to_vec());

    // The store's ETag matches the digest manifest.json records for the
    // same artifact — consumers can revalidate against either.
    let manifest = publish::publish(&svc).manifest;
    let (_, recorded) = manifest
        .digests
        .iter()
        .find(|(stem, _)| stem == "responsive-addresses.txt")
        .expect("manifest records the responsive digest")
        .clone();
    assert_eq!(recorded, format!("{:016x}", version.digest()));

    // Per-protocol artifacts mirror the service's per-protocol slices.
    for (proto, set) in svc.proto_responsive() {
        let v = store.artifact(ArtifactKind::PerProtocol(proto)).expect("published");
        assert_eq!(v.items().as_ref(), &set, "{proto:?}");
    }
}

#[test]
fn deltas_reconstruct_byte_identical_artifacts() {
    let (_, store, history) = run_and_publish(None);
    let version = store.artifact(ArtifactKind::Responsive).expect("published");
    let delta = version.delta_encoded().expect("changing artifact carries a delta");
    let base_round = version.prev_round().expect("delta has a base round");
    let (_, base_items) = history
        .iter()
        .find(|(round, _)| *round == base_round)
        .expect("base round was published and recorded");

    // Applying the delta to the base reproduces the current item set…
    let rebuilt = codec::apply_delta(base_items, delta).expect("delta applies to its base");
    assert_eq!(&rebuilt, version.items().as_ref());
    // …and re-encoding it yields the exact bytes a full fetch serves.
    assert_eq!(&codec::encode_full(&rebuilt), version.full_encoded().as_ref());
    // The delta is the cheaper path for round-over-round churn.
    assert!(delta.len() < version.full_encoded().len(), "delta smaller than full snapshot");
}

#[test]
fn hundred_k_request_day_is_deterministic_and_reconciles() {
    let registry = Registry::new();
    let (_, store, _) = run_and_publish(None);
    let fleet = FleetConfig::builder().with_requests(120_000).with_clients(800).with_seed(0xDA7);

    let report = run_day(&fleet, FrontendConfig::default(), &store, Some(&registry));
    let t = &report.totals;

    // ≥100k requests, every one accounted exactly once.
    assert_eq!(t.requests, 120_000);
    assert_eq!(
        t.bodies + t.not_modified + t.shed_client + t.shed_global + t.unavailable,
        t.requests
    );
    assert_eq!(t.unavailable, 0);
    assert_eq!(t.bodies, t.full_fetches + t.delta_fetches);
    assert_eq!(t.cache_hits + t.cache_misses, t.bodies, "every body is a cache hit or miss");
    assert!(t.bytes_sent > 0);
    assert!(t.delta_fetches > 0, "one-behind consumers pull deltas");
    assert!(t.not_modified > 0, "up-to-date consumers revalidate for free");
    assert!(t.cache_hits > t.cache_misses, "a static day is cache-friendly");

    // The day's ledgers have reached the registry by the time it is over
    // (counter by counter: `every_published_counter_equals_its_ledger_…`
    // in `crates/serve`).
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.requests"), Some(t.requests));
    assert_eq!(snap.counter("serve.loop.retired"), Some(t.requests));

    // Determinism pin: replaying the identical seed over the identical
    // store reproduces the exact totals (requests, bytes, cache hits,
    // shed counts — the whole report).
    let replay = run_day(&fleet, FrontendConfig::default(), &store, None);
    assert_eq!(replay, report);

    // And a rebuilt store from the same seeded service run serves the
    // same day — end-to-end determinism, not just frontend determinism.
    let (_, store2, _) = run_and_publish(None);
    let cross = run_day(&fleet, FrontendConfig::default(), &store2, None);
    assert_eq!(cross, report);
}

#[test]
fn concurrent_readers_never_observe_torn_state() {
    let store = Arc::new(SnapshotStore::new(StoreConfig::builder().with_shards(8)));
    let rounds: u64 = 200;
    let items_for = |round: u64| -> AddrSet {
        // Each round shifts membership so most shards change each time.
        (0..2_000u128).map(|i| i * 31 + u128::from(round) * 7).collect()
    };
    store.publish_round(1, "d1", vec![(ArtifactKind::Responsive, items_for(1))]);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let store_ref = &store;
        let done_ref = &done;
        scope.spawn(move || {
            for round in 2..=rounds {
                store_ref.publish_round(
                    round,
                    "d",
                    vec![(ArtifactKind::Responsive, items_for(round))],
                );
            }
            done_ref.store(true, Ordering::Release);
        });
        for _ in 0..3 {
            scope.spawn(move || {
                let mut last_round = 0u64;
                let mut reads = 0u64;
                loop {
                    let finished = done_ref.load(Ordering::Acquire);
                    let version =
                        store_ref.artifact(ArtifactKind::Responsive).expect("round 1 published");
                    // A version is internally consistent no matter when
                    // the swap lands relative to this read.
                    assert!(version.round() >= last_round, "rounds never go backwards");
                    last_round = version.round();
                    let decoded =
                        codec::decode_full(version.full_encoded()).expect("full body decodes");
                    assert_eq!(&decoded, version.items().as_ref(), "body matches items");
                    assert_eq!(codec::content_digest(&decoded), version.digest());
                    let mut from_shards: Vec<u128> = Vec::new();
                    for shard in version.shards() {
                        shard.verify().expect("shard bytes match shard items");
                        from_shards.extend(shard.items().iter());
                    }
                    from_shards.sort_unstable();
                    assert_eq!(from_shards, version.items().to_vec(), "shards partition items");
                    if let Some(delta) = version.delta_encoded() {
                        let (_, result) =
                            codec::delta_digests(delta).expect("delta frame readable");
                        assert_eq!(result, version.digest(), "delta targets this version");
                    }
                    reads += 1;
                    if finished {
                        break;
                    }
                }
                assert!(reads > 0);
            });
        }
    });
    assert_eq!(store.current_round(), Some(rounds));
}

#[test]
fn manifest_and_serve_digests_agree_across_crates() {
    // The hitlist manifest and the serve codec re-export one content
    // digest (`sixdust_addr::digest`); both paths must keep resolving and
    // ETags from either side must match bit-for-bit.
    let samples: Vec<Vec<u128>> = vec![
        vec![],
        vec![0],
        vec![1, 2, 3, u128::MAX],
        (0..1_000u128).map(|i| i * 12_345).collect(),
    ];
    for items in samples {
        assert_eq!(
            publish::content_digest(items.iter().copied()),
            codec::content_digest(items.iter().copied()),
            "digest mismatch for {} items",
            items.len()
        );
        // And digesting through an AddrSet — whatever chunk representation
        // it picks — yields the same value as the flat item stream.
        let set = AddrSet::from_unsorted(items.clone());
        assert_eq!(codec::content_digest(&set), codec::content_digest(items.iter().copied()));
    }
}

#[test]
fn manifest_and_store_name_and_digest_every_artifact_alike() {
    // The publication's files and the store's artifact kinds list one
    // artifact set: each kind's file stem names a manifest entry, and the
    // entry records the digest the store serves it under.
    let (svc, store, _) = run_and_publish(None);
    let manifest = publish::publish(&svc).manifest;
    for kind in ArtifactKind::ALL {
        let file = format!("{}.txt", kind.file_stem());
        let recorded = manifest.digests.iter().find(|(stem, _)| *stem == file).map(|(_, hex)| hex);
        let served = store.artifact(kind).expect("published").digest();
        assert_eq!(recorded, Some(&format!("{served:016x}")), "{file}");
    }
}
