//! The request layer: what one front-end process does to a request
//! stream — ETag conditional fetches, an LRU cache of response bodies,
//! per-client token-bucket admission and a global concurrency cap with
//! explicit load-shedding accounting.
//!
//! The layer is driven on *virtual* time (microseconds since midnight of
//! the simulated day), so a whole high-QPS day replays in well under a
//! second of wall clock and every run is deterministic. Latencies are
//! synthetic but structurally honest: a constant service floor, a
//! render penalty on cache misses, and a transfer term proportional to
//! body size.

use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::Arc;

use sixdust_addr::AddrBuildHasher;
use sixdust_json::json_struct;
use sixdust_telemetry::{
    FlightRecorder, Histogram, HistogramSnapshot, LocalHistogram, Published, Registry,
};

use crate::rate::{Limit, TokenBucket};
use crate::store::{ArtifactKind, GenerationCache, SnapshotStore};

/// Front-end configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendConfig {
    /// LRU cache capacity, in encoded response bodies.
    pub cache_capacity: usize,
    /// Maximum requests in flight at once; arrivals beyond it are shed.
    pub global_concurrency: usize,
    /// Token-bucket burst per client.
    pub client_burst: u32,
    /// Token-bucket refill per client, tokens per virtual minute.
    pub client_rate_per_min: u32,
    /// Constant service floor, microseconds.
    pub base_latency_us: u64,
    /// Extra latency when a body misses the cache and must be rendered.
    pub render_latency_us: u64,
    /// Transfer rate for the size-proportional latency term, bytes per
    /// microsecond (50 ≈ 400 Mbit/s).
    pub bytes_per_us: u64,
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        FrontendConfig {
            cache_capacity: 12,
            global_concurrency: 64,
            client_burst: 8,
            client_rate_per_min: 4,
            base_latency_us: 1_500,
            render_latency_us: 4_000,
            bytes_per_us: 50,
        }
    }
}

/// Why a [`FrontendConfig`] failed validation. Each rejected value used
/// to be silently clamped or to produce pathological behavior (a
/// zero-capacity cache that thrashes, a zero cap that sheds everything,
/// a zero-burst bucket that admits nobody, a zero transfer rate that
/// divides away the size term) — [`FrontendConfig::build`] now rejects
/// them loudly instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendConfigError {
    /// `cache_capacity` is zero: every body would miss and re-render.
    ZeroCacheCapacity,
    /// `global_concurrency` is zero: every request would be shed.
    ZeroConcurrency,
    /// `client_burst` is zero: no client could ever be admitted. A zero
    /// *rate* with a positive burst stays legal — that is a finite total
    /// quota, a legitimate policy.
    ZeroClientBurst,
    /// `bytes_per_us` is zero: the size-proportional latency term would
    /// be undefined.
    ZeroTransferRate,
}

impl std::fmt::Display for FrontendConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendConfigError::ZeroCacheCapacity => {
                write!(f, "cache_capacity must be at least 1 body")
            }
            FrontendConfigError::ZeroConcurrency => {
                write!(f, "global_concurrency must admit at least 1 request")
            }
            FrontendConfigError::ZeroClientBurst => {
                write!(f, "client_burst must grant at least 1 token")
            }
            FrontendConfigError::ZeroTransferRate => {
                write!(f, "bytes_per_us must be at least 1")
            }
        }
    }
}

impl std::error::Error for FrontendConfigError {}

impl FrontendConfig {
    /// Starts from the default configuration.
    pub fn builder() -> FrontendConfig {
        FrontendConfig::default()
    }

    /// Sets the LRU cache capacity.
    pub fn with_cache_capacity(mut self, entries: usize) -> FrontendConfig {
        self.cache_capacity = entries;
        self
    }

    /// Sets the global concurrency cap.
    pub fn with_global_concurrency(mut self, cap: usize) -> FrontendConfig {
        self.global_concurrency = cap;
        self
    }

    /// Sets the per-client token bucket (burst, refill per minute).
    pub fn with_client_bucket(mut self, burst: u32, rate_per_min: u32) -> FrontendConfig {
        self.client_burst = burst;
        self.client_rate_per_min = rate_per_min;
        self
    }

    /// Checks the configuration without consuming it.
    pub fn validate(&self) -> Result<(), FrontendConfigError> {
        if self.cache_capacity == 0 {
            return Err(FrontendConfigError::ZeroCacheCapacity);
        }
        if self.global_concurrency == 0 {
            return Err(FrontendConfigError::ZeroConcurrency);
        }
        if self.client_burst == 0 {
            return Err(FrontendConfigError::ZeroClientBurst);
        }
        if self.bytes_per_us == 0 {
            return Err(FrontendConfigError::ZeroTransferRate);
        }
        Ok(())
    }

    /// Finishes the builder chain, rejecting configurations that would
    /// behave pathologically at serve time.
    pub fn build(self) -> Result<FrontendConfig, FrontendConfigError> {
        self.validate()?;
        Ok(self)
    }
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchKind {
    /// The full current snapshot.
    Full,
    /// The delta on top of the round the client already holds.
    DeltaSince(u64),
}

/// One consumer request at a point in virtual time.
#[derive(Debug, Clone)]
pub struct Request {
    /// Requesting client id.
    pub client: u64,
    /// Which artifact.
    pub kind: ArtifactKind,
    /// Full or delta fetch.
    pub fetch: FetchKind,
    /// Conditional-fetch ETag: the content digest the client holds.
    pub if_none_match: Option<u64>,
    /// Arrival time, microseconds into the simulated day.
    pub at_us: u64,
}

/// How the front end answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A body was served.
    Body {
        /// Bytes on the wire.
        bytes: u64,
        /// Round of the served version.
        round: u64,
        /// ETag (content digest) of the served version.
        digest: u64,
        /// Whether a delta (vs full) body was served.
        delta: bool,
        /// Whether the body came from the LRU cache.
        cached: bool,
        /// Synthetic service latency.
        latency_us: u64,
    },
    /// The client's ETag still matches: 304, no body.
    NotModified {
        /// Round of the current version.
        round: u64,
        /// Synthetic service latency.
        latency_us: u64,
    },
    /// Shed by the client's token bucket.
    ShedClient,
    /// Shed by the global concurrency cap.
    ShedGlobal,
    /// Nothing has been published yet.
    Unavailable,
}

/// Running totals of one front end — the per-day report card.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrontendTotals {
    /// Requests received (every outcome counts).
    pub requests: u64,
    /// Bodies served.
    pub bodies: u64,
    /// Body bytes sent.
    pub bytes_sent: u64,
    /// 304 responses.
    pub not_modified: u64,
    /// LRU cache hits.
    pub cache_hits: u64,
    /// LRU cache misses.
    pub cache_misses: u64,
    /// Requests shed by per-client buckets.
    pub shed_client: u64,
    /// Requests shed by the global concurrency cap.
    pub shed_global: u64,
    /// Delta bodies served.
    pub delta_fetches: u64,
    /// Full bodies served.
    pub full_fetches: u64,
    /// Delta requests that fell back to a full body (stale base round).
    pub delta_fallbacks: u64,
    /// Requests that arrived before anything was published.
    pub unavailable: u64,
    /// Bytes the delta encoding saved: the size of the full bodies each
    /// served delta replaced, minus the delta bytes actually sent.
    pub bytes_saved_by_delta: u64,
}
json_struct!(FrontendTotals {
    requests,
    bodies,
    bytes_sent,
    not_modified,
    cache_hits,
    cache_misses,
    shed_client,
    shed_global,
    delta_fetches,
    full_fetches,
    delta_fallbacks,
    unavailable,
    bytes_saved_by_delta = 0,
});

impl FrontendTotals {
    /// Adds another front end's totals into this one — how a
    /// [`MirrorTier`](crate::mirror::MirrorTier) day folds its mirrors
    /// into one report card.
    pub fn merge(&mut self, other: &FrontendTotals) {
        self.requests += other.requests;
        self.bodies += other.bodies;
        self.bytes_sent += other.bytes_sent;
        self.not_modified += other.not_modified;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.shed_client += other.shed_client;
        self.shed_global += other.shed_global;
        self.delta_fetches += other.delta_fetches;
        self.full_fetches += other.full_fetches;
        self.delta_fallbacks += other.delta_fallbacks;
        self.unavailable += other.unavailable;
        self.bytes_saved_by_delta += other.bytes_saved_by_delta;
    }
}

/// A tiny exact LRU keyed by `(artifact, round, delta)`. Capacity is a
/// handful of entries, so linear scans beat pointer-chasing here.
#[derive(Debug)]
struct LruCache {
    capacity: usize,
    tick: u64,
    entries: Vec<(CacheKey, Arc<Vec<u8>>, u64)>,
}

type CacheKey = (usize, u64, bool);

impl LruCache {
    fn new(capacity: usize) -> LruCache {
        LruCache { capacity: capacity.max(1), tick: 0, entries: Vec::new() }
    }

    /// The cached body's length, refreshing its recency.
    fn get(&mut self, key: CacheKey) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.iter_mut().find(|(k, _, _)| *k == key).map(|entry| {
            entry.2 = tick;
            entry.1.len() as u64
        })
    }

    fn insert(&mut self, key: CacheKey, body: Arc<Vec<u8>>) {
        self.tick += 1;
        if self.entries.len() >= self.capacity {
            if let Some(oldest) =
                self.entries.iter().enumerate().min_by_key(|(_, (_, _, t))| *t).map(|(i, _)| i)
            {
                self.entries.swap_remove(oldest);
            }
        }
        self.entries.push((key, body, self.tick));
    }
}

/// One artifact kind's share of the request stream.
#[derive(Debug, Clone, Copy, Default)]
struct KindCounts {
    requests: u64,
    /// Sheds and unavailable answers.
    errors: u64,
}

/// Everything one front end counts. `totals` is the report card; what
/// sits beside it only the registry carries, so the serialized
/// [`FrontendTotals`] keeps its shape.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    totals: FrontendTotals,
    /// Full-body bytes the 304s did not resend.
    bytes_saved_not_modified: u64,
    /// Indexed by [`ArtifactKind::index`].
    kinds: [KindCounts; ArtifactKind::ALL.len()],
}

/// The registry's view of a front end's ledger; the per-kind rows follow
/// [`ArtifactKind::ALL`] and [`ArtifactKind::file_stem`].
pub(crate) const PUBLISHED: [Published<Ledger>; 27] = [
    ("serve.requests", |l| l.totals.requests),
    ("serve.bytes_sent", |l| l.totals.bytes_sent),
    ("serve.cache.hits", |l| l.totals.cache_hits),
    ("serve.cache.misses", |l| l.totals.cache_misses),
    ("serve.shed", |l| l.totals.shed_client + l.totals.shed_global),
    ("serve.shed.client", |l| l.totals.shed_client),
    ("serve.shed.global", |l| l.totals.shed_global),
    ("serve.not_modified", |l| l.totals.not_modified),
    ("serve.delta_fallback", |l| l.totals.delta_fallbacks),
    ("serve.bytes_saved.delta", |l| l.totals.bytes_saved_by_delta),
    ("serve.bytes_saved.not_modified", |l| l.bytes_saved_not_modified),
    ("serve.kind.responsive-addresses.requests", |l| l.kinds[0].requests),
    ("serve.kind.responsive-addresses.errors", |l| l.kinds[0].errors),
    ("serve.kind.responsive-icmp.requests", |l| l.kinds[1].requests),
    ("serve.kind.responsive-icmp.errors", |l| l.kinds[1].errors),
    ("serve.kind.aliased-prefixes.requests", |l| l.kinds[2].requests),
    ("serve.kind.aliased-prefixes.errors", |l| l.kinds[2].errors),
    ("serve.kind.responsive-tcp443.requests", |l| l.kinds[3].requests),
    ("serve.kind.responsive-tcp443.errors", |l| l.kinds[3].errors),
    ("serve.kind.gfw-filtered.requests", |l| l.kinds[4].requests),
    ("serve.kind.gfw-filtered.errors", |l| l.kinds[4].errors),
    ("serve.kind.responsive-udp53.requests", |l| l.kinds[5].requests),
    ("serve.kind.responsive-udp53.errors", |l| l.kinds[5].errors),
    ("serve.kind.responsive-tcp80.requests", |l| l.kinds[6].requests),
    ("serve.kind.responsive-tcp80.errors", |l| l.kinds[6].errors),
    ("serve.kind.responsive-udp443.requests", |l| l.kinds[7].requests),
    ("serve.kind.responsive-udp443.errors", |l| l.kinds[7].errors),
];

/// An attached registry: the histograms, which have no ledger and are fed
/// as requests finish, and how much of the ledger it has been told.
struct Meters {
    registry: Registry,
    told: [u64; PUBLISHED.len()],
    /// Virtual-time request latency in microseconds — the measurement
    /// of record. Base latency is 1.5 ms, so log2 *millisecond* buckets
    /// crush the whole distribution into two bins; microseconds give the
    /// percentiles real resolution.
    latency_us: Histogram,
    /// Per-artifact-kind duration, indexed by [`ArtifactKind::index`].
    kind_latency_us: Vec<Histogram>,
    /// The registry's flight recorder, fed on the shed path.
    flight: Option<FlightRecorder>,
}

impl Meters {
    fn resolve(registry: &Registry) -> Meters {
        Meters {
            registry: registry.clone(),
            flight: registry.flight(),
            told: [0; PUBLISHED.len()],
            latency_us: registry.histogram("serve.latency_us"),
            kind_latency_us: ArtifactKind::ALL
                .iter()
                .map(|k| registry.histogram(&format!("serve.kind.{}.latency_us", k.file_stem())))
                .collect(),
        }
    }
}

/// One simulated front-end process serving a [`SnapshotStore`].
pub struct Frontend {
    config: FrontendConfig,
    store: Arc<SnapshotStore>,
    /// The store's generation as of the last request.
    seen: GenerationCache,
    cache: LruCache,
    buckets: HashMap<u64, TokenBucket, AddrBuildHasher>,
    /// Completion times of requests currently in flight (min-heap).
    inflight: BinaryHeap<std::cmp::Reverse<u64>>,
    meters: Option<Meters>,
    ledger: Ledger,
    /// Always-on virtual-time latency distribution, independent of the
    /// optional registry — [`DayReport`](crate::DayReport) percentiles
    /// come from here.
    latency: LocalHistogram,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("buckets", &self.buckets.len())
            .field("inflight", &self.inflight.len())
            .field("totals", &self.ledger.totals)
            .finish()
    }
}

impl Frontend {
    /// Creates a front end over a store.
    ///
    /// # Panics
    ///
    /// On a configuration [`FrontendConfig::validate`] rejects — run the
    /// builder chain through [`FrontendConfig::build`] to handle the
    /// error instead.
    pub fn new(config: FrontendConfig, store: Arc<SnapshotStore>) -> Frontend {
        config.validate().expect("FrontendConfig rejected");
        Frontend {
            cache: LruCache::new(config.cache_capacity),
            config,
            store,
            seen: GenerationCache::default(),
            buckets: HashMap::default(),
            inflight: BinaryHeap::new(),
            meters: None,
            ledger: Ledger::default(),
            latency: LocalHistogram::default(),
        }
    }

    /// Attaches a metrics registry (`serve.requests`, `serve.bytes_sent`,
    /// `serve.cache.{hits,misses}`, `serve.shed{,.client,.global}`,
    /// `serve.not_modified`, `serve.delta_fallback`,
    /// `serve.latency_us`,
    /// `serve.bytes_saved.{delta,not_modified}`, and the per-kind RED
    /// triplet `serve.kind.<stem>.{requests,errors,latency_us}`). The
    /// histograms are fed as requests finish; the counters are the ledger,
    /// and reach the registry on [`Frontend::publish`]. Shed decisions
    /// are noted into the registry's flight recorder, if one is installed,
    /// keyed by the virtual hour of day.
    pub fn with_telemetry(mut self, registry: &Registry) -> Frontend {
        self.meters = Some(Meters::resolve(registry));
        // Every counter exists, at zero, from here on.
        self.publish();
        self
    }

    /// Tells the attached registry, if any, what the ledger has counted
    /// since it was last told. A day driver does this when the day ends
    /// (and a chaos day's observer before each hourly round); a caller of
    /// [`Frontend::handle`] does it before reading the registry.
    pub fn publish(&mut self) {
        if let Some(m) = &mut self.meters {
            m.registry.publish(&PUBLISHED, &self.ledger, &mut m.told);
        }
    }

    /// The running totals so far.
    pub fn totals(&self) -> &FrontendTotals {
        &self.ledger.totals
    }

    /// Everything counted so far: what [`PUBLISHED`] reads.
    #[cfg(test)]
    pub(crate) fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Snapshot of the virtual-time latency distribution (microseconds)
    /// across every answered request so far.
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    /// The validated configuration this front end runs under — the
    /// reactor reads the phase latencies (base / render) from here to
    /// schedule per-request state-machine events.
    pub(crate) fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// The round of the generation the next request would be served
    /// from, read as [`Frontend::handle`] reads it: without the lock
    /// unless a swap has landed since.
    pub(crate) fn current_round(&mut self) -> Option<u64> {
        self.seen.current(&self.store).map(|g| g.round)
    }

    /// Drops `client`'s token bucket: its session is over and it sends
    /// nothing more ([`Backend::end_session`](crate::Backend::end_session)),
    /// so a front end keeps a bucket only for a client whose session lives.
    pub(crate) fn end_session(&mut self, client: u64) {
        self.buckets.remove(&client);
    }

    /// How many clients hold a token bucket.
    #[cfg(test)]
    pub(crate) fn buckets(&self) -> usize {
        self.buckets.len()
    }

    fn admit_client(&mut self, client: u64, now_us: u64) -> bool {
        let limit = Limit {
            rate: u64::from(self.config.client_rate_per_min),
            period_us: 60_000_000,
            burst: u64::from(self.config.client_burst),
        };
        self.buckets
            .entry(client)
            .or_insert_with(|| TokenBucket::full(&limit))
            .try_take(&limit, now_us)
    }

    /// Handles one request at its virtual arrival time. Requests must be
    /// fed in non-decreasing `at_us` order (the fleet replay submits its
    /// arrivals in time order); the concurrency window is maintained by
    /// retiring every in-flight request whose completion time has passed.
    pub fn handle(&mut self, request: &Request) -> Outcome {
        let kind = request.kind.index();
        self.ledger.totals.requests += 1;
        self.ledger.kinds[kind].requests += 1;
        let now = request.at_us;
        while self.inflight.peek().is_some_and(|done| done.0 <= now) {
            self.inflight.pop();
        }

        // Admission: the client's bucket first (cheapest rejection),
        // then the global in-flight cap.
        if !self.admit_client(request.client, now) {
            self.ledger.totals.shed_client += 1;
            self.ledger.kinds[kind].errors += 1;
            self.note_shed(request, "serve.shed.client");
            return Outcome::ShedClient;
        }
        if self.inflight.len() >= self.config.global_concurrency {
            self.ledger.totals.shed_global += 1;
            self.ledger.kinds[kind].errors += 1;
            self.note_shed(request, "serve.shed.global");
            return Outcome::ShedGlobal;
        }

        // The version and its bodies are borrowed from the generation the
        // front end holds; only a cache miss clones a body, to keep it.
        let Some(generation) = self.seen.current(&self.store) else {
            self.ledger.totals.unavailable += 1;
            self.ledger.kinds[kind].errors += 1;
            return Outcome::Unavailable;
        };
        let version = &generation.artifacts[kind];
        let (round, digest) = (version.round(), version.digest());
        let full = version.full_encoded();

        // Conditional fetch: the ETag is the content digest, so an
        // up-to-date consumer pays one round trip and zero body bytes.
        if request.if_none_match == Some(digest) {
            self.ledger.bytes_saved_not_modified += full.len() as u64;
            let latency = self.config.base_latency_us;
            self.finish(now, latency, kind);
            self.ledger.totals.not_modified += 1;
            return Outcome::NotModified { round, latency_us: latency };
        }

        // Body selection: a delta is only valid on top of the round the
        // store actually diffed against; anything else falls back to the
        // full snapshot (and is accounted, so staleness is visible).
        let mut serve_delta = false;
        let body = match request.fetch {
            FetchKind::DeltaSince(have) => match version.delta_encoded() {
                Some(delta) if version.prev_round() == Some(have) => {
                    serve_delta = true;
                    let saved = (full.len() as u64).saturating_sub(delta.len() as u64);
                    self.ledger.totals.bytes_saved_by_delta += saved;
                    delta
                }
                _ => {
                    self.ledger.totals.delta_fallbacks += 1;
                    full
                }
            },
            FetchKind::Full => full,
        };

        let key: CacheKey = (kind, round, serve_delta);
        let (bytes, cached) = match self.cache.get(key) {
            Some(bytes) => {
                self.ledger.totals.cache_hits += 1;
                (bytes, true)
            }
            None => {
                self.ledger.totals.cache_misses += 1;
                self.cache.insert(key, body.clone());
                (body.len() as u64, false)
            }
        };

        let mut latency = self.config.base_latency_us + bytes / self.config.bytes_per_us.max(1);
        if !cached {
            latency += self.config.render_latency_us;
        }
        self.finish(now, latency, kind);
        self.ledger.totals.bodies += 1;
        self.ledger.totals.bytes_sent += bytes;
        if serve_delta {
            self.ledger.totals.delta_fetches += 1;
        } else {
            self.ledger.totals.full_fetches += 1;
        }
        Outcome::Body { bytes, round, digest, delta: serve_delta, cached, latency_us: latency }
    }

    fn finish(&mut self, now_us: u64, latency_us: u64, kind: usize) {
        self.inflight.push(std::cmp::Reverse(now_us + latency_us));
        let us = latency_us.max(1);
        self.latency.record(us);
        if let Some(m) = &self.meters {
            m.latency_us.record(us);
            m.kind_latency_us[kind].record(us);
        }
    }

    fn note_shed(&self, request: &Request, kind: &str) {
        if let Some(flight) = self.meters.as_ref().and_then(|m| m.flight.as_ref()) {
            flight.note(
                (request.at_us / 3_600_000_000) as u32,
                kind,
                &[
                    ("client", &request.client.to_string()),
                    ("artifact", &request.kind.file_stem()),
                    ("at_us", &request.at_us.to_string()),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    fn served_store() -> Arc<SnapshotStore> {
        let store = SnapshotStore::new(StoreConfig::default());
        let items: sixdust_addr::AddrSet = (0..2000u128).map(|i| i * 31).collect();
        store.publish_round(1, "d1", vec![(ArtifactKind::Responsive, items.clone())]);
        let mut next = items;
        next.insert(1_000_000);
        store.publish_round(2, "d2", vec![(ArtifactKind::Responsive, next)]);
        Arc::new(store)
    }

    fn request(client: u64, at_us: u64) -> Request {
        Request {
            client,
            kind: ArtifactKind::Responsive,
            fetch: FetchKind::Full,
            if_none_match: None,
            at_us,
        }
    }

    #[test]
    fn full_fetch_serves_and_caches() {
        let mut fe = Frontend::new(FrontendConfig::default(), served_store());
        let first = fe.handle(&request(1, 0));
        let Outcome::Body { bytes, cached, round, .. } = first else {
            panic!("expected body, got {first:?}");
        };
        assert!(bytes > 0);
        assert!(!cached);
        assert_eq!(round, 2);
        let second = fe.handle(&request(2, 1_000_000));
        let Outcome::Body { cached, latency_us, .. } = second else { panic!("body") };
        assert!(cached, "second fetch hits the cache");
        assert!(latency_us < fe.config.render_latency_us + fe.config.base_latency_us + 100_000);
        assert_eq!(fe.totals().cache_hits, 1);
        assert_eq!(fe.totals().cache_misses, 1);
    }

    #[test]
    fn etag_match_returns_not_modified() {
        let store = served_store();
        let digest = store.artifact(ArtifactKind::Responsive).unwrap().digest();
        let mut fe = Frontend::new(FrontendConfig::default(), store);
        let mut req = request(1, 0);
        req.if_none_match = Some(digest);
        assert!(matches!(fe.handle(&req), Outcome::NotModified { round: 2, .. }));
        req.if_none_match = Some(digest ^ 1);
        assert!(matches!(fe.handle(&req), Outcome::Body { .. }), "stale etag gets a body");
        assert_eq!(fe.totals().not_modified, 1);
    }

    #[test]
    fn delta_since_prev_round_serves_delta_else_falls_back() {
        let mut fe = Frontend::new(FrontendConfig::default(), served_store());
        let mut req = request(1, 0);
        req.fetch = FetchKind::DeltaSince(1);
        let Outcome::Body { delta, bytes: delta_bytes, .. } = fe.handle(&req) else {
            panic!("body")
        };
        assert!(delta, "holder of round 1 gets the delta");
        req.fetch = FetchKind::DeltaSince(0);
        let Outcome::Body { delta, bytes: full_bytes, .. } = fe.handle(&request(2, 0)) else {
            panic!("body")
        };
        assert!(!delta);
        let out = fe.handle(&Request { client: 3, fetch: FetchKind::DeltaSince(0), ..req });
        let Outcome::Body { delta, .. } = out else { panic!("body") };
        assert!(!delta, "unknown base falls back to full");
        assert_eq!(fe.totals().delta_fallbacks, 1);
        assert!(delta_bytes < full_bytes, "delta is far smaller than full");
    }

    #[test]
    fn client_bucket_sheds_bursts_and_refills() {
        let config = FrontendConfig::builder().with_client_bucket(2, 60);
        let mut fe = Frontend::new(config, served_store());
        assert!(matches!(fe.handle(&request(7, 0)), Outcome::Body { .. }));
        assert!(matches!(fe.handle(&request(7, 1)), Outcome::Body { .. }));
        assert!(matches!(fe.handle(&request(7, 2)), Outcome::ShedClient));
        // 60 tokens/minute = one per second: a token is back after 1s.
        assert!(matches!(fe.handle(&request(7, 1_000_002)), Outcome::Body { .. }));
        assert_eq!(fe.totals().shed_client, 1);
    }

    #[test]
    fn dense_polling_does_not_starve_the_bucket() {
        // Regression: the old refill truncated `elapsed * rate / 60_000`
        // on every call *and* advanced `last_us`, so a rate-60/min
        // client polled every 999 µs (just under the 1000 µs one
        // milli-token needs at rate 60) accrued zero refill forever —
        // it got its burst and then starved. With the carry, refill is
        // exact: one token per second regardless of polling cadence.
        let config = FrontendConfig::builder().with_client_bucket(2, 60);
        let mut fe = Frontend::new(config, served_store());
        let mut admitted = 0u64;
        let polls = 3_003u64; // covers exactly 3.0 s minus one poll
        for k in 0..polls {
            if !matches!(fe.handle(&request(7, k * 999)), Outcome::ShedClient) {
                admitted += 1;
            }
        }
        // Burst of 2, plus one refilled token per elapsed second. The
        // last poll is at 2_999_998 µs < 3 s, so exactly 2 refills.
        assert_eq!(admitted, 2 + 2, "burst + one token per second; old math admits only 2");
    }

    #[test]
    fn refill_total_is_independent_of_arrival_spacing() {
        // Demand-saturated polling at three very different cadences must
        // earn the same refill over the same horizon: total admissions
        // are a function of elapsed time only. (The old math made them a
        // function of spacing: sub-interval cadences earned nothing.)
        let horizon_us = 60_000_000u64; // one virtual minute at rate 60
        let count_at = |spacing_us: u64| {
            // Burst 2 keeps a demand-saturated bucket strictly below its
            // cap after the first request, so nothing is ever forfeited
            // at the clamp and the carry's exactness is fully exposed:
            // admissions = (burst + floor(last_poll_us / 1000)) / 1000
            // milli-tokens, a function of elapsed time alone.
            let config = FrontendConfig::builder().with_client_bucket(2, 60);
            let mut fe = Frontend::new(config, served_store());
            let mut admitted = 0u64;
            let mut t = 0u64;
            while t <= horizon_us {
                if !matches!(fe.handle(&request(3, t)), Outcome::ShedClient) {
                    admitted += 1;
                }
                t += spacing_us;
            }
            admitted
        };
        let dense = count_at(999);
        let sparse = count_at(10_007);
        let coarse = count_at(399_989);
        assert_eq!(dense, 61, "burst 2 + 59.999 tokens refilled over the minute");
        assert_eq!(dense, sparse, "999 µs vs 10 ms spacing must earn identical refill");
        assert_eq!(dense, coarse, "999 µs vs 400 ms spacing must earn identical refill");
    }

    #[test]
    fn idle_clients_do_not_bank_credit_beyond_burst() {
        // A day of idleness refills to the cap and no further: the
        // residue is forfeit at the cap, so the first requests after the
        // idle gap are bounded by the burst (plus what trickles in
        // during them), not by the idle time.
        let config = FrontendConfig::builder().with_client_bucket(2, 60);
        let mut fe = Frontend::new(config, served_store());
        assert!(matches!(fe.handle(&request(9, 0)), Outcome::Body { .. }));
        // 1 token left; a long gap refills to the 2-token cap only.
        let after_gap = 86_400_000_000u64;
        let mut admitted = 0;
        for k in 0..10u64 {
            if !matches!(fe.handle(&request(9, after_gap + k)), Outcome::ShedClient) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 2, "the cap bounds post-idle credit at the burst");
    }

    #[test]
    fn global_cap_sheds_synchronized_arrivals() {
        let config = FrontendConfig::builder().with_global_concurrency(4);
        let mut fe = Frontend::new(config, served_store());
        let mut shed = 0;
        for client in 0..10u64 {
            // All at the same instant: only `cap` fit in flight.
            match fe.handle(&request(client, 5)) {
                Outcome::ShedGlobal => shed += 1,
                Outcome::Body { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(shed, 6);
        // Far enough later every in-flight request has drained.
        assert!(matches!(fe.handle(&request(99, 60_000_000)), Outcome::Body { .. }));
        assert_eq!(fe.totals().shed_global, 6);
    }

    #[test]
    fn latency_snapshot_and_byte_savings_accrue() {
        let reg = sixdust_telemetry::Registry::new();
        let store = served_store();
        let digest = store.artifact(ArtifactKind::Responsive).unwrap().digest();
        let mut fe = Frontend::new(FrontendConfig::default(), store).with_telemetry(&reg);
        // A delta fetch on the diffed base saves full-minus-delta bytes.
        let mut req = request(1, 0);
        req.fetch = FetchKind::DeltaSince(1);
        let Outcome::Body { delta: true, bytes: delta_bytes, .. } = fe.handle(&req) else {
            panic!("expected delta body");
        };
        assert!(fe.totals().bytes_saved_by_delta > 0);
        // A 304 saves the entire full body it didn't resend.
        let mut req = request(2, 10);
        req.if_none_match = Some(digest);
        assert!(matches!(fe.handle(&req), Outcome::NotModified { .. }));
        fe.publish();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.bytes_saved.delta"), Some(fe.totals().bytes_saved_by_delta));
        assert!(snap.counter("serve.bytes_saved.not_modified").unwrap() > delta_bytes);
        // Both answered requests landed in the always-on us histogram
        // and in the per-kind RED duration.
        let latency = fe.latency_snapshot();
        assert_eq!(latency.count, 2);
        assert!(latency.min >= 1_500, "virtual latency floor");
        assert_eq!(snap.histogram("serve.kind.responsive-addresses.latency_us").unwrap().count, 2);
        assert_eq!(snap.counter("serve.kind.responsive-addresses.requests"), Some(2));
    }

    #[test]
    fn shed_paths_feed_the_flight_recorder_and_error_meters() {
        let reg = sixdust_telemetry::Registry::new();
        let flight = FlightRecorder::new();
        reg.install_flight(&flight);
        let config = FrontendConfig::builder().with_client_bucket(1, 0);
        let mut fe = Frontend::new(config, served_store()).with_telemetry(&reg);
        assert!(matches!(fe.handle(&request(7, 0)), Outcome::Body { .. }));
        // Burst exhausted, no refill: the second request is shed and the
        // flight recorder notes it with deterministic virtual-time args.
        assert!(matches!(fe.handle(&request(7, 7_200_000_000)), Outcome::ShedClient));
        flight.capture(2, "test");
        let caps = flight.captures();
        assert_eq!(caps[0].events.len(), 1);
        let e = &caps[0].events[0];
        assert_eq!(e.kind, "serve.shed.client");
        assert_eq!(e.key, 2, "keyed by virtual hour of day");
        assert_eq!(e.args[0], ("client".to_string(), "7".to_string()));
        fe.publish();
        let snap = reg.snapshot();
        for (name, read) in PUBLISHED {
            assert_eq!(snap.counter(name), Some(read(fe.ledger())), "{name}");
        }
        assert_eq!(snap.counter("serve.kind.responsive-addresses.errors"), Some(1));
        assert_eq!(snap.counter("serve.shed"), Some(1));
    }

    #[test]
    fn the_per_kind_rows_follow_the_kinds_and_their_file_stems() {
        for (i, kind) in ArtifactKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
            let mut ledger = Ledger::default();
            ledger.kinds[i] = KindCounts { requests: 3, errors: 2 };
            for (field, count) in [("requests", 3), ("errors", 2)] {
                let name = format!("serve.kind.{}.{field}", kind.file_stem());
                let row = PUBLISHED.iter().find(|(n, _)| *n == name).expect(&name);
                assert_eq!((row.1)(&ledger), count, "{name}");
            }
        }
        let mut names: Vec<&str> = PUBLISHED.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PUBLISHED.len(), "a row is listed twice");
    }

    #[test]
    fn builder_rejects_pathological_configs() {
        assert_eq!(
            FrontendConfig::builder().with_cache_capacity(0).build(),
            Err(FrontendConfigError::ZeroCacheCapacity)
        );
        assert_eq!(
            FrontendConfig::builder().with_global_concurrency(0).build(),
            Err(FrontendConfigError::ZeroConcurrency)
        );
        assert_eq!(
            FrontendConfig::builder().with_client_bucket(0, 60).build(),
            Err(FrontendConfigError::ZeroClientBurst)
        );
        let zero_rate_transfer = FrontendConfig { bytes_per_us: 0, ..FrontendConfig::default() };
        assert_eq!(zero_rate_transfer.build(), Err(FrontendConfigError::ZeroTransferRate));
        // A zero refill rate with a positive burst is a finite total
        // quota, not a pathology — it must keep building.
        let quota = FrontendConfig::builder().with_client_bucket(1, 0).build().expect("legal");
        assert_eq!((quota.client_burst, quota.client_rate_per_min), (1, 0));
        assert!(FrontendConfig::default().build().is_ok());
    }

    #[test]
    #[should_panic(expected = "FrontendConfig rejected")]
    fn frontend_new_panics_on_invalid_config() {
        let config = FrontendConfig::builder().with_global_concurrency(0);
        let _ = Frontend::new(config, served_store());
    }

    #[test]
    fn empty_store_is_unavailable() {
        let store = Arc::new(SnapshotStore::new(StoreConfig::default()));
        let mut fe = Frontend::new(FrontendConfig::default(), store);
        assert_eq!(fe.handle(&request(1, 0)), Outcome::Unavailable);
    }

    #[test]
    fn the_request_after_a_swap_is_served_from_the_new_generation() {
        let store = Arc::new(SnapshotStore::new(StoreConfig::default()));
        let source = SnapshotStore::new(StoreConfig::default());
        let mut fe = Frontend::new(FrontendConfig::default(), store.clone());
        assert_eq!(fe.handle(&request(0, 0)), Outcome::Unavailable);
        let items = |n: u128| -> sixdust_addr::AddrSet { (0..n).map(|i| i * 31).collect() };
        // Publishes and installs in turn, and once a generation installed
        // under the round already served, with other content.
        let swaps: [(bool, u64, u128); 6] = [
            (true, 1, 100),
            (false, 2, 150),
            (true, 3, 200),
            (false, 3, 260),
            (true, 4, 10),
            (false, 7, 5),
        ];
        let mut held: Option<u64> = None;
        for (i, (publish, round, n)) in swaps.into_iter().enumerate() {
            let artifacts = vec![(ArtifactKind::Responsive, items(n))];
            if publish {
                store.publish_round(round, "d", artifacts);
            } else {
                source.publish_round(round, "d", artifacts);
                let versions = ArtifactKind::ALL.map(|k| source.artifact(k).expect("published"));
                assert!(store.install_generation(round, "d", versions.to_vec()));
            }
            let expected = store.artifact(ArtifactKind::Responsive).expect("swapped in");
            // The digest the previous answer carried is stale now: a body,
            // not a 304.
            let at = i as u64 * 60_000_000 + 1;
            let out = fe.handle(&Request { if_none_match: held, ..request(i as u64, at) });
            let Outcome::Body { round: served, digest, .. } = out else {
                panic!("swap {i}: {out:?}");
            };
            assert_eq!((served, digest), (expected.round(), expected.digest()), "swap {i}");
            held = Some(digest);
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = LruCache::new(2);
        lru.insert((0, 0, false), Arc::new(vec![0]));
        lru.insert((1, 0, false), Arc::new(vec![1]));
        assert!(lru.get((0, 0, false)).is_some(), "refresh entry 0");
        lru.insert((2, 0, false), Arc::new(vec![2]));
        assert!(lru.get((1, 0, false)).is_none(), "1 was evicted");
        assert!(lru.get((0, 0, false)).is_some());
        assert!(lru.get((2, 0, false)).is_some());
    }
}
