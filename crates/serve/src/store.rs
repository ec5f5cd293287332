//! The sharded snapshot store: publication-side state of the
//! distribution subsystem.
//!
//! A publishing round builds what is served — each changed artifact's
//! digest, full body and delta — *off to the side* and then swaps one
//! [`Arc`] under a short write lock, so concurrent readers never block
//! on a publication and never observe a torn (half-written) generation.
//! An artifact whose content did not change carries its whole version
//! over, so a quiet round costs almost nothing to publish.
//!
//! Each version's items are also hash-sharded across `N` shards, built
//! the first time something reads them ([`ArtifactVersion::shards`]):
//! every shard handle is a complete, checksummed snapshot from exactly
//! one round, and a shard whose content did not change since the
//! previous version is shared with it — its `Arc` carries over — when
//! that version is still held and its shards were built.
//!
//! Every swap also bumps the store's *epoch* while it holds the write
//! lock. A front end that serves the store keeps the epoch it last saw
//! with that generation's `Arc` (a `GenerationCache`): a request costs
//! one acquire load of the epoch, a plain load on x86, and the lock is
//! taken again only when a swap has moved it — so the request after a
//! publication serves the new generation, and every other request takes
//! no lock and no reference count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, Weak};

use sixdust_addr::AddrSet;
use sixdust_net::Protocol;
use sixdust_telemetry::Registry;

use crate::codec::{self, CodecError};

/// One artifact kind the service distributes — the files a registered
/// consumer can download.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArtifactKind {
    /// `responsive-addresses` — the full cleaned responsive list.
    Responsive,
    /// `responsive-<proto>` — the per-protocol slice.
    PerProtocol(Protocol),
    /// `aliased-prefixes` — MAPD labels as packed items
    /// ([`Prefix::packed`](sixdust_addr::Prefix::packed)).
    AliasedPrefixes,
    /// `gfw-filtered` — addresses the paper's filter removed.
    GfwFiltered,
}

impl ArtifactKind {
    /// Every artifact kind, in the serving layer's canonical (and Zipf
    /// popularity rank) order.
    pub const ALL: [ArtifactKind; 8] = [
        ArtifactKind::Responsive,
        ArtifactKind::PerProtocol(Protocol::Icmp),
        ArtifactKind::AliasedPrefixes,
        ArtifactKind::PerProtocol(Protocol::Tcp443),
        ArtifactKind::GfwFiltered,
        ArtifactKind::PerProtocol(Protocol::Udp53),
        ArtifactKind::PerProtocol(Protocol::Tcp80),
        ArtifactKind::PerProtocol(Protocol::Udp443),
    ];

    /// Position in [`ArtifactKind::ALL`].
    pub fn index(self) -> usize {
        ArtifactKind::ALL.iter().position(|k| *k == self).expect("ALL is exhaustive")
    }

    /// Stable file stem, mirroring the publication file names.
    pub fn file_stem(self) -> String {
        match self {
            ArtifactKind::Responsive => "responsive-addresses".to_string(),
            ArtifactKind::PerProtocol(p) => format!("responsive-{}", p.metric_key()),
            ArtifactKind::AliasedPrefixes => "aliased-prefixes".to_string(),
            ArtifactKind::GfwFiltered => "gfw-filtered".to_string(),
        }
    }
}

/// One shard of one artifact version: a consistent, checksummed slice of
/// the item set. Immutable once built; shared by `Arc`.
#[derive(Debug)]
pub struct ShardData {
    round: u64,
    digest: u64,
    items: AddrSet,
    encoded: Arc<Vec<u8>>,
}

impl ShardData {
    /// The round of the version this shard was built for. A shard kept
    /// from the previous version (see [`ArtifactVersion::shards`]) keeps
    /// the round that built it.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Content digest of the shard's items.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The shard's item set.
    pub fn items(&self) -> &AddrSet {
        &self.items
    }

    /// The shard body as an encoded full snapshot.
    pub fn encoded(&self) -> &Arc<Vec<u8>> {
        &self.encoded
    }

    /// Decodes the shard body and cross-checks it against the in-memory
    /// items and digest — the torn-read detector used by tests: a shard
    /// observed mid-publication must still verify.
    pub fn verify(&self) -> Result<(), CodecError> {
        let decoded = codec::decode_full(&self.encoded)?;
        if decoded != self.items || codec::content_digest(&decoded) != self.digest {
            return Err(CodecError::ChecksumMismatch);
        }
        Ok(())
    }
}

/// One published version of one artifact: the full item set, the
/// encoded full body, the delta from the previous round, and its shards
/// once something has read them.
#[derive(Debug)]
pub struct ArtifactVersion {
    kind: ArtifactKind,
    round: u64,
    digest: u64,
    items: Arc<AddrSet>,
    full: Arc<Vec<u8>>,
    delta: Option<Arc<Vec<u8>>>,
    prev_round: Option<u64>,
    shard_count: usize,
    /// The version this one replaced; its built shards are reused while
    /// someone still holds it.
    prev: Weak<ArtifactVersion>,
    shards: OnceLock<Vec<Arc<ShardData>>>,
}

impl ArtifactVersion {
    /// The artifact kind.
    pub fn kind(&self) -> ArtifactKind {
        self.kind
    }

    /// The round (simulation day) this version was published for.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Stable content digest — the serving layer's ETag value.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The item set.
    pub fn items(&self) -> &Arc<AddrSet> {
        &self.items
    }

    /// The encoded full snapshot body.
    pub fn full_encoded(&self) -> &Arc<Vec<u8>> {
        &self.full
    }

    /// The encoded delta from `prev_round`, when a previous version
    /// existed.
    pub fn delta_encoded(&self) -> Option<&Arc<Vec<u8>>> {
        self.delta.as_ref()
    }

    /// The round the delta applies on top of.
    pub fn prev_round(&self) -> Option<u64> {
        self.prev_round
    }

    /// The shard handles of this version, built on first read. A shard
    /// whose items equal those of the same shard of the previous version
    /// is that shard (same `Arc`, same round) when the previous version
    /// is still held and its shards were built. A reader may wait for
    /// another reader's first build, never for a publication.
    pub fn shards(&self) -> &[Arc<ShardData>] {
        self.shards.get_or_init(|| self.build_shards())
    }

    /// Splits the items by [`shard_of`] (each per-shard list stays
    /// ascending), hashes the shards and encodes every shard the previous
    /// version cannot lend.
    fn build_shards(&self) -> Vec<Arc<ShardData>> {
        let prev = self.prev.upgrade();
        let prev_shards = prev.as_ref().and_then(|pv| pv.shards.get());
        let mut per_shard: Vec<Vec<u128>> = vec![Vec::new(); self.shard_count];
        for item in self.items.iter() {
            per_shard[shard_of(item, self.shard_count)].push(item);
        }
        let mut shards: Vec<Arc<ShardData>> = Vec::with_capacity(self.shard_count);
        for (i, shard_items) in per_shard.into_iter().enumerate() {
            let shard_digest = codec::content_digest(shard_items.iter().copied());
            let reusable = prev_shards.and_then(|s| s.get(i)).filter(|old| {
                old.digest == shard_digest && old.items.iter().eq(shard_items.iter().copied())
            });
            shards.push(match reusable {
                Some(old) => old.clone(),
                None => Arc::new(ShardData {
                    round: self.round,
                    digest: shard_digest,
                    encoded: Arc::new(codec::encode_full(shard_items.iter().copied())),
                    items: AddrSet::from_sorted(shard_items),
                }),
            });
        }
        shards
    }
}

/// One atomically-swapped generation: every artifact of one round, in
/// [`ArtifactKind::ALL`] order.
#[derive(Debug)]
pub(crate) struct Generation {
    pub(crate) round: u64,
    pub(crate) date: String,
    pub(crate) artifacts: Vec<Arc<ArtifactVersion>>,
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of hash shards per artifact.
    pub shards: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig { shards: 8 }
    }
}

impl StoreConfig {
    /// Starts from the default configuration.
    pub fn builder() -> StoreConfig {
        StoreConfig::default()
    }

    /// Sets the shard count (clamped to at least 1).
    pub fn with_shards(mut self, shards: usize) -> StoreConfig {
        self.shards = shards.max(1);
        self
    }
}

/// The sharded, atomically-published snapshot store.
#[derive(Debug)]
pub struct SnapshotStore {
    shards: usize,
    current: RwLock<Option<Arc<Generation>>>,
    /// Swaps of `current` so far, bumped under its write lock.
    epoch: AtomicU64,
    telemetry: Option<Registry>,
}

/// One reader's copy of a store's current generation and the epoch it
/// was read at. Epoch 0 is the empty store's, before any swap.
#[derive(Debug, Default)]
pub(crate) struct GenerationCache {
    epoch: u64,
    generation: Option<Arc<Generation>>,
}

impl GenerationCache {
    /// `store`'s current generation: the one held, unless a swap has
    /// moved the epoch since it was read. A reader that sees a bumped
    /// epoch reads the generation under the lock after that swap's
    /// release, so it never holds one older than the epoch it records.
    #[inline]
    pub(crate) fn current(&mut self, store: &SnapshotStore) -> Option<&Arc<Generation>> {
        let epoch = store.epoch.load(Ordering::Acquire);
        if epoch != self.epoch {
            self.generation = store.generation();
            self.epoch = epoch;
        }
        self.generation.as_ref()
    }
}

/// Stable shard assignment for one item: any pure hash works, as long as
/// it never changes between rounds (structural sharing depends on it).
fn shard_of(item: u128, shards: usize) -> usize {
    (sixdust_addr::prf::prf_u128(0x51A2D, item, 0) % shards as u64) as usize
}

impl SnapshotStore {
    /// Creates an empty store.
    pub fn new(config: StoreConfig) -> SnapshotStore {
        SnapshotStore {
            shards: config.shards.max(1),
            current: RwLock::new(None),
            epoch: AtomicU64::new(0),
            telemetry: None,
        }
    }

    /// Attaches a metrics registry: publications report
    /// `serve.publish.*` counters and encode timings there.
    pub fn with_telemetry(mut self, registry: Registry) -> SnapshotStore {
        self.telemetry = Some(registry);
        self
    }

    /// Shards per artifact.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The current round, if anything has been published.
    pub fn current_round(&self) -> Option<u64> {
        self.current.read().expect("store lock").as_ref().map(|g| g.round)
    }

    /// ISO date of the current publication.
    pub fn current_date(&self) -> Option<String> {
        self.current.read().expect("store lock").as_ref().map(|g| g.date.clone())
    }

    /// The current generation, read under one lock: its round, date and
    /// versions are one publication's, whatever lands afterwards.
    pub(crate) fn generation(&self) -> Option<Arc<Generation>> {
        self.current.read().expect("store lock").clone()
    }

    /// The current version of one artifact. The returned handle stays
    /// valid (and immutable) across later publications.
    pub fn artifact(&self, kind: ArtifactKind) -> Option<Arc<ArtifactVersion>> {
        let guard = self.current.read().expect("store lock");
        guard.as_ref().map(|g| g.artifacts[kind.index()].clone())
    }

    /// One shard of one artifact's current version — what a concurrent
    /// reader grabs while a publication may be in flight.
    pub fn shard(&self, kind: ArtifactKind, index: usize) -> Option<Arc<ShardData>> {
        self.artifact(kind).and_then(|v| v.shards().get(index).cloned())
    }

    /// Publishes one round: an item set per artifact kind (missing kinds
    /// publish as empty sets; of two entries for one kind the first is
    /// published). [`AddrSet`]s are deduplicated and canonically ordered
    /// by construction, so no normalization happens here. Readers keep
    /// serving the previous generation until the single atomic swap at
    /// the end.
    ///
    /// Each address is hashed once per publish, into its artifact's
    /// digest, and every later user of a digest (the delta frame, a
    /// mirror's sync, an ETag) reads the stored value. Shards are not
    /// built here: [`ArtifactVersion::shards`] builds them on first read.
    pub fn publish_round(
        &self,
        round: u64,
        date: &str,
        mut artifacts: Vec<(ArtifactKind, AddrSet)>,
    ) {
        let started = std::time::Instant::now();
        let prev = self.generation();
        let mut bytes_full = 0u64;
        let mut bytes_delta = 0u64;

        let mut versions: Vec<Arc<ArtifactVersion>> = Vec::with_capacity(ArtifactKind::ALL.len());
        for kind in ArtifactKind::ALL {
            let supplied = artifacts.iter_mut().find(|(k, _)| *k == kind);
            let items = supplied.map(|(_, set)| std::mem::take(set)).unwrap_or_default();
            let digest = codec::content_digest(&items);
            let prev_version = prev.as_ref().map(|g| &g.artifacts[kind.index()]);

            // Unchanged artifact: carry the whole version over, only
            // bumping nothing — readers keep the same Arcs.
            if let Some(pv) = prev_version {
                if pv.digest == digest && *pv.items == items {
                    versions.push(pv.clone());
                    continue;
                }
            }

            let full = Arc::new(codec::encode_full(&items));
            bytes_full += full.len() as u64;
            let (delta, prev_round) = match prev_version {
                Some(pv) => {
                    let d =
                        Arc::new(codec::encode_delta_with(&pv.items, pv.digest, &items, digest));
                    bytes_delta += d.len() as u64;
                    (Some(d), Some(pv.round))
                }
                None => (None, None),
            };
            versions.push(Arc::new(ArtifactVersion {
                kind,
                round,
                digest,
                items: Arc::new(items),
                full,
                delta,
                prev_round,
                shard_count: self.shards,
                prev: prev_version.map_or_else(Weak::new, Arc::downgrade),
                shards: OnceLock::new(),
            }));
        }

        self.swap(Generation { round, date: date.to_string(), artifacts: versions });

        if let Some(t) = &self.telemetry {
            t.counter("serve.publish.rounds").incr();
            t.counter("serve.publish.bytes_full").add(bytes_full);
            t.counter("serve.publish.bytes_delta").add(bytes_delta);
            t.histogram("serve.publish.encode_ms").record_duration(started.elapsed());
        }
    }

    /// Installs an already-built generation: validated version handles
    /// an edge mirror adopted from its origin after a checksum-clean
    /// sync ([`MirrorTier`](crate::mirror::MirrorTier) is the caller).
    /// Nothing is re-encoded — structural sharing extends across the
    /// tier, and the swap is as atomic as a publication's, so a mirror
    /// never serves a torn mix of rounds. Returns `false` (installing
    /// nothing) unless exactly one version per [`ArtifactKind::ALL`]
    /// entry arrives in canonical order.
    pub fn install_generation(
        &self,
        round: u64,
        date: &str,
        artifacts: Vec<Arc<ArtifactVersion>>,
    ) -> bool {
        if artifacts.len() != ArtifactKind::ALL.len()
            || artifacts.iter().zip(ArtifactKind::ALL).any(|(v, k)| v.kind() != k)
        {
            return false;
        }
        self.swap(Generation { round, date: date.to_string(), artifacts });
        if let Some(t) = &self.telemetry {
            t.counter("serve.publish.installed").incr();
        }
        true
    }

    /// Makes `generation` current and bumps the epoch before the write
    /// lock is released: the one swap both publication paths share. The
    /// bump's `Release` pairs with the `Acquire` load in
    /// [`GenerationCache::current`].
    fn swap(&self, generation: Generation) {
        let mut current = self.current.write().expect("store lock");
        *current = Some(Arc::new(generation));
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Publishes a [`HitlistService`](sixdust_hitlist::HitlistService)'s
    /// current state as one round: the cleaned responsive set, the
    /// per-protocol slices from the last completed round, the aliased
    /// prefixes (as [`PrefixSet::packed`](sixdust_addr::PrefixSet::packed)
    /// items, one-to-one up to /124, the longest the detector emits) and
    /// the GFW-filtered pool. The natural hook body
    /// for [`HitlistService::run_with`](sixdust_hitlist::HitlistService::run_with).
    pub fn publish_service(&self, svc: &sixdust_hitlist::HitlistService, round: u64, date: &str) {
        self.publish_round(round, date, service_artifacts(svc));
    }
}

/// Extracts the artifact payloads a service round publishes — shared by
/// [`SnapshotStore::publish_service`] and the mirror tier's timed publish
/// plan ([`crate::mirror::TimedPublish::from_service`]) so both paths
/// ship byte-identical artifacts.
pub fn service_artifacts(svc: &sixdust_hitlist::HitlistService) -> Vec<(ArtifactKind, AddrSet)> {
    let mut artifacts: Vec<(ArtifactKind, AddrSet)> = vec![
        (ArtifactKind::Responsive, svc.current_responsive().clone()),
        (ArtifactKind::AliasedPrefixes, svc.aliased().packed()),
        (ArtifactKind::GfwFiltered, svc.gfw_impacted()),
    ];
    for (proto, set) in svc.proto_responsive() {
        artifacts.push((ArtifactKind::PerProtocol(proto), set));
    }
    artifacts
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn items(range: std::ops::Range<u128>) -> AddrSet {
        range.map(|i| i * 97 + 5).collect()
    }

    fn copy_of(version: &ArtifactVersion) -> ArtifactVersion {
        ArtifactVersion {
            kind: version.kind,
            round: version.round,
            digest: version.digest,
            items: version.items.clone(),
            full: version.full.clone(),
            delta: version.delta.clone(),
            prev_round: version.prev_round,
            shard_count: version.shard_count,
            prev: version.prev.clone(),
            shards: version.shards.clone(),
        }
    }

    /// `version` carrying some other delta stream: what an origin that
    /// swapped generations mid-transfer would hand a mirror.
    pub(crate) fn with_delta(version: &ArtifactVersion, delta: Vec<u8>) -> ArtifactVersion {
        ArtifactVersion { delta: Some(Arc::new(delta)), ..copy_of(version) }
    }

    /// `version` carrying some other full body.
    pub(crate) fn with_full(version: &ArtifactVersion, full: Vec<u8>) -> ArtifactVersion {
        ArtifactVersion { full: Arc::new(full), ..copy_of(version) }
    }

    /// What lets a publish and a sync reuse a stored digest in place of
    /// hashing the set again: every version and every shard the store
    /// currently holds carries `content_digest` of its own items.
    pub(crate) fn assert_digests_are_content_digests(store: &SnapshotStore) {
        for kind in ArtifactKind::ALL {
            let version = store.artifact(kind).expect("a generation holds every kind");
            assert_eq!(
                version.digest(),
                codec::content_digest(&**version.items()),
                "{kind:?} round {}",
                version.round()
            );
            for shard in version.shards() {
                assert_eq!(shard.digest(), codec::content_digest(shard.items()), "{kind:?} shard");
            }
        }
    }

    fn store() -> SnapshotStore {
        SnapshotStore::new(StoreConfig::builder().with_shards(4))
    }

    #[test]
    fn empty_store_serves_nothing() {
        let s = store();
        assert_eq!(s.current_round(), None);
        assert!(s.artifact(ArtifactKind::Responsive).is_none());
    }

    #[test]
    fn publish_then_read_round_trips() {
        let s = store();
        s.publish_round(3, "2021-01-03", vec![(ArtifactKind::Responsive, items(0..100))]);
        let v = s.artifact(ArtifactKind::Responsive).expect("published");
        assert_eq!(v.round(), 3);
        assert_eq!(v.items().len(), 100);
        assert_eq!(codec::decode_full(v.full_encoded()).expect("decodes"), **v.items());
        assert!(v.delta_encoded().is_none(), "first round has no delta");
        // Shards partition the items exactly.
        let mut recovered: Vec<u128> = Vec::new();
        for shard in v.shards() {
            shard.verify().expect("shard verifies");
            recovered.extend(shard.items().iter());
        }
        recovered.sort_unstable();
        assert_eq!(recovered, v.items().to_vec());
        // Unmentioned kinds exist as empty sets.
        let gfw = s.artifact(ArtifactKind::GfwFiltered).expect("empty artifact");
        assert!(gfw.items().is_empty());
    }

    #[test]
    fn second_round_carries_delta_and_reuses_unchanged_shards() {
        let s = store();
        s.publish_round(1, "d1", vec![(ArtifactKind::Responsive, items(0..1000))]);
        let v1 = s.artifact(ArtifactKind::Responsive).expect("v1");
        // One added item: at most one shard should be rebuilt.
        let mut next = items(0..1000);
        next.insert(999_999_999);
        s.publish_round(2, "d2", vec![(ArtifactKind::Responsive, next.clone())]);
        let v2 = s.artifact(ArtifactKind::Responsive).expect("v2");
        assert_eq!(v2.prev_round(), Some(1));
        let delta = v2.delta_encoded().expect("delta");
        let rebuilt = codec::apply_delta(v1.items(), delta).expect("applies");
        assert_eq!(rebuilt, next);
        // Framed with the stored digests, it is the stream the encoder
        // that hashes both sets writes.
        assert_eq!(**delta, codec::encode_delta(v1.items(), &next));
        let shared = v1.shards().iter().zip(v2.shards()).filter(|(a, b)| Arc::ptr_eq(a, b)).count();
        assert_eq!(shared, s.shard_count() - 1, "only the touched shard rebuilds");
    }

    #[test]
    fn unchanged_artifact_is_structurally_shared() {
        let s = store();
        s.publish_round(1, "d1", vec![(ArtifactKind::AliasedPrefixes, items(0..50))]);
        let v1 = s.artifact(ArtifactKind::AliasedPrefixes).expect("v1");
        s.publish_round(2, "d2", vec![(ArtifactKind::AliasedPrefixes, items(0..50))]);
        let v2 = s.artifact(ArtifactKind::AliasedPrefixes).expect("v2");
        assert!(Arc::ptr_eq(&v1, &v2), "identical content carries the version over");
        assert_eq!(v2.round(), 1, "round stays the one that built it");
    }

    #[test]
    fn stored_digests_are_content_digests_after_every_publish_and_install() {
        let origin = store();
        let mirror = store();
        // Growth, churn, an unchanged artifact, an artifact emptied and a
        // kind that comes and goes: every way a version is built or kept.
        let rounds: Vec<Vec<(ArtifactKind, AddrSet)>> = vec![
            vec![(ArtifactKind::Responsive, items(0..400))],
            vec![
                (ArtifactKind::Responsive, items(0..450)),
                (ArtifactKind::AliasedPrefixes, items(1_000..1_040)),
            ],
            vec![
                (ArtifactKind::Responsive, items(30..470)),
                (ArtifactKind::AliasedPrefixes, items(1_000..1_040)),
                (ArtifactKind::GfwFiltered, (0..3_000u128).map(|i| (0x2001 << 96) + i).collect()),
            ],
            vec![(ArtifactKind::Responsive, items(30..470))],
            vec![],
        ];
        for (i, artifacts) in rounds.into_iter().enumerate() {
            let round = i as u64 + 1;
            origin.publish_round(round, "d", artifacts);
            assert_digests_are_content_digests(&origin);
            let versions = ArtifactKind::ALL.map(|k| origin.artifact(k).expect("published"));
            assert!(mirror.install_generation(round, "d", versions.to_vec()));
            assert_digests_are_content_digests(&mirror);
        }
    }

    /// One shard as the eager publish built it: round, digest, items and
    /// encoded body.
    type RefShard = (u64, u64, Vec<u128>, Vec<u8>);

    /// The split a publish ran for every changed artifact before shards
    /// were built on first read: every shard hashed and encoded, or kept
    /// from the previous version's split when its content is unchanged.
    fn eager_split(items: &AddrSet, round: u64, shards: usize, prev: &[RefShard]) -> Vec<RefShard> {
        let mut per_shard: Vec<Vec<u128>> = vec![Vec::new(); shards];
        for item in items.iter() {
            per_shard[shard_of(item, shards)].push(item);
        }
        let split = per_shard.into_iter().enumerate().map(|(i, shard_items)| {
            let digest = codec::content_digest(shard_items.iter().copied());
            match prev.get(i).filter(|old| old.1 == digest && old.2 == shard_items) {
                Some(old) => old.clone(),
                None => {
                    let encoded = codec::encode_full(shard_items.iter().copied());
                    (round, digest, shard_items, encoded)
                }
            }
        });
        split.collect()
    }

    fn assert_shards_match(built: &[Arc<ShardData>], reference: &[RefShard], case: &str) {
        assert_eq!(built.len(), reference.len(), "{case}");
        for (i, (shard, (round, digest, items, encoded))) in built.iter().zip(reference).enumerate()
        {
            assert_eq!(shard.items().to_vec(), *items, "{case}, shard {i}");
            assert_eq!(shard.digest(), *digest, "{case}, shard {i}");
            assert_eq!(**shard.encoded(), *encoded, "{case}, shard {i}");
            assert_eq!(shard.round(), *round, "{case}, shard {i}");
        }
    }

    /// Round `round` of a seeded history: `Responsive` grows by zero to
    /// two addresses a round and loses its lowest every third, the ICMP
    /// slice is a fresh draw, the aliased prefixes never change (their
    /// version carries over), and the GFW pool is emptied in round 4.
    fn seeded_round(round: u64) -> Vec<(ArtifactKind, AddrSet)> {
        use sixdust_addr::prf::prf_u128;
        let grown: u128 = (1..=round).map(|r| u128::from(prf_u128(0x5EED, r.into(), 1) % 3)).sum();
        let icmp = (0..300u128).filter(|&i| prf_u128(0x5EED, i, round).is_multiple_of(3));
        let mut artifacts = vec![
            (ArtifactKind::Responsive, items(u128::from(round / 3)..300 + grown)),
            (ArtifactKind::PerProtocol(Protocol::Icmp), icmp.map(|i| i * 97 + 5).collect()),
            (ArtifactKind::AliasedPrefixes, items(1_000..1_040)),
        ];
        if round != 4 {
            let gfw = items(2_000..2_000 + 10 * u128::from(round));
            artifacts.push((ArtifactKind::GfwFiltered, gfw));
        }
        artifacts
    }

    #[test]
    fn a_publish_builds_no_shard_until_one_is_read() {
        let s = store();
        let mut reference: Vec<Vec<RefShard>> = vec![Vec::new(); ArtifactKind::ALL.len()];
        let mut held: Option<[Arc<ArtifactVersion>; 8]> = None;
        let (mut carried, mut kept) = (0, 0);
        for round in 1..=9u64 {
            s.publish_round(round, "d", seeded_round(round));
            let versions = ArtifactKind::ALL.map(|kind| s.artifact(kind).expect("published"));
            let is_carried =
                |i: usize| held.as_ref().is_some_and(|h| Arc::ptr_eq(&h[i], &versions[i]));
            for (i, version) in versions.iter().enumerate() {
                // A carried-over version is the previous round's, read then.
                assert!(
                    is_carried(i) || version.shards.get().is_none(),
                    "round {round}: {:?} was split at publish",
                    version.kind()
                );
            }
            for (i, version) in versions.iter().enumerate() {
                if is_carried(i) {
                    carried += 1;
                } else {
                    reference[i] = eager_split(version.items(), round, 4, &reference[i]);
                }
                let shards = version.shards();
                kept += shards.iter().filter(|shard| shard.round() < version.round()).count();
                assert_shards_match(shards, &reference[i], &format!("round {round}, {i}"));
            }
            held = Some(versions);
        }
        assert!(carried > 0 && kept > 0, "versions carried over ({carried}), shards kept ({kept})");
    }

    #[test]
    fn shards_read_after_the_previous_version_is_dropped_or_unread_carry_the_new_round() {
        let s = store();
        let mut next = items(0..1000);
        s.publish_round(1, "d1", vec![(ArtifactKind::Responsive, next.clone())]);
        let v1 = s.artifact(ArtifactKind::Responsive).expect("v1");
        assert_eq!(v1.shards().len(), s.shard_count());
        // Dropped before the new version's shards are read.
        next.insert(999_999_999);
        s.publish_round(2, "d2", vec![(ArtifactKind::Responsive, next.clone())]);
        drop(v1);
        let v2 = s.artifact(ArtifactKind::Responsive).expect("v2");
        let fresh = eager_split(v2.items(), 2, s.shard_count(), &[]);
        assert!(fresh.iter().all(|shard| shard.0 == 2));
        assert_shards_match(v2.shards(), &fresh, "round 2");
        // Held but never read: nothing is shared, and nothing is built
        // for it either.
        next.insert(999_999_998);
        s.publish_round(3, "d3", vec![(ArtifactKind::Responsive, next)]);
        let v3 = s.artifact(ArtifactKind::Responsive).expect("v3");
        drop(v2);
        s.publish_round(4, "d4", vec![(ArtifactKind::Responsive, items(0..1000))]);
        let v4 = s.artifact(ArtifactKind::Responsive).expect("v4");
        let fresh = eager_split(v4.items(), 4, s.shard_count(), &[]);
        assert_shards_match(v4.shards(), &fresh, "round 4");
        assert!(v3.shards.get().is_none(), "reading a version builds no other");
    }

    #[test]
    fn missing_kinds_publish_empty_and_the_first_duplicate_wins() {
        let s = store();
        s.publish_round(
            1,
            "d1",
            vec![
                (ArtifactKind::GfwFiltered, items(0..10)),
                (ArtifactKind::Responsive, items(0..100)),
                (ArtifactKind::GfwFiltered, items(500..700)),
                (ArtifactKind::Responsive, AddrSet::new()),
            ],
        );
        let published = |kind| s.artifact(kind).expect("every kind is published");
        assert_eq!(**published(ArtifactKind::Responsive).items(), items(0..100));
        assert_eq!(**published(ArtifactKind::GfwFiltered).items(), items(0..10));
        for kind in ArtifactKind::ALL {
            if !matches!(kind, ArtifactKind::Responsive | ArtifactKind::GfwFiltered) {
                let version = published(kind);
                assert!(version.items().is_empty(), "{kind:?} was not supplied");
                assert_eq!(version.digest(), codec::content_digest(&AddrSet::new()));
                assert_eq!(version.shards().len(), s.shard_count());
            }
        }
    }

    #[test]
    fn install_generation_adopts_handles_and_rejects_malformed_sets() {
        let origin = store();
        origin.publish_round(5, "d5", vec![(ArtifactKind::Responsive, items(0..200))]);
        let versions: Vec<Arc<ArtifactVersion>> =
            ArtifactKind::ALL.iter().map(|&k| origin.artifact(k).expect("published")).collect();
        let mirror = store();
        assert!(mirror.install_generation(5, "d5", versions.clone()));
        assert_eq!(mirror.current_round(), Some(5));
        let adopted = mirror.artifact(ArtifactKind::Responsive).expect("installed");
        assert!(
            Arc::ptr_eq(&adopted, &origin.artifact(ArtifactKind::Responsive).unwrap()),
            "structural sharing extends across the tier"
        );
        // A short or reordered set installs nothing.
        let empty_mirror = store();
        assert!(!empty_mirror.install_generation(5, "d5", versions[..3].to_vec()));
        let mut reversed = versions;
        reversed.reverse();
        assert!(!empty_mirror.install_generation(5, "d5", reversed));
        assert_eq!(empty_mirror.current_round(), None);
    }

    #[test]
    fn artifact_kinds_have_stable_order_and_stems() {
        for (i, kind) in ArtifactKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        assert_eq!(ArtifactKind::Responsive.file_stem(), "responsive-addresses");
        assert_eq!(ArtifactKind::PerProtocol(Protocol::Udp53).file_stem(), "responsive-udp53");
    }
}
