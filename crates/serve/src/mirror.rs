//! The resilient distribution tier: one origin, N edge mirrors.
//!
//! The ROADMAP's "serve path to millions of clients" calls for exactly
//! the architecture real hitlist services run: a single origin
//! [`SnapshotStore`] that publications land in, and a tier of edge
//! mirrors that *pull* from it over the delta codec and serve consumers
//! from their own generation state. This module models that tier on the
//! same virtual-microsecond timeline as the front ends:
//!
//! * **Sync with checksum-first validation** — a mirror transfers each
//!   changed artifact as a delta when its held round matches the
//!   origin's diff base (full snapshot otherwise), validates the wire
//!   bytes *before* adopting anything, and installs the whole
//!   generation with one atomic swap ([`SnapshotStore::install_generation`]).
//!   A corrupted transfer rejects the entire sync — a mirror never
//!   serves a torn mix of rounds (last-good wins).
//! * **Per-mirror sync lag** — mirrors sync on a staggered interval
//!   schedule, so at any instant different mirrors may hold different
//!   generations; consumers see that as per-mirror ETags.
//! * **Stale-while-revalidate** — when the publish plan says a newer
//!   round should be live (origin blackout, rejected syncs), a mirror
//!   keeps serving its last-good generation, *counts* the staleness
//!   (`serve.mirror.stale_served`), and schedules a cooldown-limited
//!   revalidation sync instead of erroring.
//!
//! Faults come from a seeded [`ServeFaultConfig`]; everything replays
//! byte-identically for a fixed seed.

use std::sync::Arc;

use sixdust_addr::AddrSet;
use sixdust_telemetry::{Gauge, Published, Registry};

use crate::codec;
use crate::faults::ServeFaultConfig;
use crate::server::{Frontend, FrontendConfig, FrontendTotals, Outcome, Request};
use crate::store::{ArtifactKind, SnapshotStore, StoreConfig};

/// Minimum gap between stale-triggered revalidation syncs of one mirror
/// (stale-while-revalidate cooldown), virtual microseconds.
const REVALIDATE_COOLDOWN_US: u64 = 300_000_000;

/// Tier configuration.
#[derive(Debug, Clone)]
pub struct MirrorTierConfig {
    /// Number of edge mirrors (at least 1).
    pub mirrors: usize,
    /// Interval between scheduled syncs of one mirror, virtual
    /// microseconds.
    pub sync_interval_us: u64,
    /// Phase offset between consecutive mirrors' sync schedules, so the
    /// tier does not hammer the origin in lockstep (and so per-mirror
    /// lag is observable).
    pub sync_stagger_us: u64,
    /// Front-end configuration applied to every mirror.
    pub frontend: FrontendConfig,
}

impl Default for MirrorTierConfig {
    fn default() -> MirrorTierConfig {
        MirrorTierConfig {
            mirrors: 4,
            sync_interval_us: 3_600_000_000,
            sync_stagger_us: 60_000_000,
            frontend: FrontendConfig::default(),
        }
    }
}

impl MirrorTierConfig {
    /// Starts from the default configuration.
    pub fn builder() -> MirrorTierConfig {
        MirrorTierConfig::default()
    }

    /// Sets the mirror count (at least 1).
    pub fn with_mirrors(mut self, mirrors: usize) -> MirrorTierConfig {
        self.mirrors = mirrors.max(1);
        self
    }

    /// Sets the scheduled sync interval.
    pub fn with_sync_interval_us(mut self, interval: u64) -> MirrorTierConfig {
        self.sync_interval_us = interval.max(1);
        self
    }

    /// Sets the per-mirror sync phase offset.
    pub fn with_sync_stagger_us(mut self, stagger: u64) -> MirrorTierConfig {
        self.sync_stagger_us = stagger;
        self
    }

    /// Sets the per-mirror front-end configuration.
    pub fn with_frontend(mut self, frontend: FrontendConfig) -> MirrorTierConfig {
        self.frontend = frontend;
        self
    }
}

/// One entry of a day's publish plan: at `at_us` the origin is supposed
/// to publish `round`. Under an origin blackout the publish is deferred
/// (the *target* round still advances, which is what makes mirror
/// staleness measurable and burns the publish-freshness SLO).
#[derive(Debug, Clone)]
pub struct TimedPublish {
    /// When the publish is scheduled, microseconds into the day.
    pub at_us: u64,
    /// Round the publish installs.
    pub round: u64,
    /// ISO date label of the publication.
    pub date: String,
    /// Artifact payloads (missing kinds publish as empty sets).
    pub artifacts: Vec<(ArtifactKind, AddrSet)>,
}

impl TimedPublish {
    /// Captures a hitlist service round as one plan entry, with the same
    /// artifact payloads [`SnapshotStore::publish_service`] would install
    /// — so a chaos-day replay can re-publish real service history on a
    /// schedule of its own choosing.
    pub fn from_service(
        svc: &sixdust_hitlist::HitlistService,
        at_us: u64,
        round: u64,
        date: &str,
    ) -> TimedPublish {
        TimedPublish {
            at_us,
            round,
            date: date.to_string(),
            artifacts: crate::store::service_artifacts(svc),
        }
    }
}

/// Running totals of the tier's sync and degradation machinery — the
/// mirror-side rows of the day's report card.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierTotals {
    /// Completed generation syncs (mirror adopted a new generation).
    pub syncs: u64,
    /// Artifacts transferred as full snapshots across all syncs.
    pub sync_full: u64,
    /// Artifacts transferred as deltas across all syncs.
    pub sync_delta: u64,
    /// Syncs rejected wholesale by checksum-first validation (torn-sync
    /// rejection kept the last-good generation).
    pub sync_rejected: u64,
    /// Sync attempts blocked by an origin blackout or mirror outage.
    pub sync_blocked: u64,
    /// Wire bytes moved by sync transfers.
    pub sync_bytes: u64,
    /// Requests answered from a generation older than the publish plan's
    /// target round (stale-while-revalidate serving).
    pub stale_served: u64,
    /// Stale-triggered revalidation syncs (cooldown-limited).
    pub revalidations: u64,
}

/// The registry's view of the tier's sync and degradation ledger.
pub(crate) const PUBLISHED: [Published<TierTotals>; 8] = [
    ("serve.mirror.syncs", |t| t.syncs),
    ("serve.mirror.sync_full", |t| t.sync_full),
    ("serve.mirror.sync_delta", |t| t.sync_delta),
    ("serve.mirror.sync_rejected", |t| t.sync_rejected),
    ("serve.mirror.sync_blocked", |t| t.sync_blocked),
    ("serve.mirror.sync_bytes", |t| t.sync_bytes),
    ("serve.mirror.stale_served", |t| t.stale_served),
    ("serve.mirror.revalidations", |t| t.revalidations),
];

/// An attached registry: the lag gauge, set on every walk of the tier,
/// and how much of [`TierTotals`] it has been told.
struct TierMeters {
    registry: Registry,
    told: [u64; PUBLISHED.len()],
    lag_rounds: Gauge,
}

/// One edge mirror: its own store (generation state) and front end.
struct Mirror {
    store: Arc<SnapshotStore>,
    frontend: Frontend,
    next_sync_us: u64,
    next_revalidate_us: u64,
    /// Transfer attempts so far — salts the in-flight corruption draw so
    /// a rejected sync re-rolls on retry instead of failing forever.
    sync_attempts: u64,
}

/// The origin + N-mirror distribution tier.
pub struct MirrorTier {
    config: MirrorTierConfig,
    origin: Arc<SnapshotStore>,
    faults: ServeFaultConfig,
    mirrors: Vec<Mirror>,
    /// The round the publish plan says should be live right now; mirrors
    /// serving older rounds are stale.
    target_round: u64,
    /// Earliest scheduled sync across mirrors — lets [`MirrorTier::advance`]
    /// return without walking the tier when nothing is due (zero forces a
    /// full walk on the next call, e.g. after a publish moves the target).
    next_due_us: u64,
    meters: Option<TierMeters>,
    totals: TierTotals,
}

impl std::fmt::Debug for MirrorTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MirrorTier")
            .field("mirrors", &self.mirrors.len())
            .field("target_round", &self.target_round)
            .field("totals", &self.totals)
            .finish()
    }
}

impl MirrorTier {
    /// Creates a tier of `config.mirrors` empty mirrors over `origin`.
    /// Mirror `i`'s first scheduled sync is at `i * sync_stagger_us`.
    ///
    /// # Panics
    ///
    /// If `config.frontend` fails [`FrontendConfig::validate`] (same
    /// contract as [`Frontend::new`]), or on zero `mirrors` or a zero
    /// `sync_interval_us`: the fields are public and only the `with_*`
    /// builders clamp them, and [`MirrorTier::advance`] would schedule the
    /// next sync of a zero interval at the same instant forever.
    pub fn new(
        config: MirrorTierConfig,
        origin: Arc<SnapshotStore>,
        faults: ServeFaultConfig,
    ) -> MirrorTier {
        assert!(config.mirrors > 0, "MirrorTierConfig rejected: mirrors must be at least 1");
        assert!(
            config.sync_interval_us > 0,
            "MirrorTierConfig rejected: sync_interval_us must be at least 1"
        );
        let target_round = origin.current_round().unwrap_or(0);
        let mut tier = MirrorTier {
            mirrors: Vec::new(),
            config,
            origin,
            faults,
            target_round,
            next_due_us: 0,
            meters: None,
            totals: TierTotals::default(),
        };
        tier.mirrors = (0..tier.config.mirrors)
            .map(|i| {
                let store = Arc::new(SnapshotStore::new(StoreConfig::default()));
                Mirror {
                    frontend: Frontend::new(tier.config.frontend.clone(), store.clone()),
                    store,
                    next_sync_us: i as u64 * tier.config.sync_stagger_us,
                    next_revalidate_us: 0,
                    sync_attempts: 0,
                }
            })
            .collect();
        // Warm deploy: mirrors start from the origin's current image
        // (an out-of-band copy, like service publication — not subject
        // to the fault plan) so a tier never boots cold behind a live
        // origin. Day-time sync traffic is what the faults govern.
        if let Some(live) = tier.origin.generation() {
            for mirror in &tier.mirrors {
                mirror.store.install_generation(live.round, &live.date, live.artifacts.clone());
            }
        }
        tier
    }

    /// Attaches a metrics registry (`serve.mirror.*` plus every mirror
    /// front end's `serve.*` set, aggregated across mirrors; shed
    /// decisions reach the registry's flight recorder, if one is
    /// installed). Attach before serving traffic: the mirror front ends
    /// are rebuilt. The lag gauge is set on every walk of the tier; the
    /// counters are [`TierTotals`], and reach the registry on
    /// [`MirrorTier::publish`].
    pub fn with_telemetry(mut self, registry: &Registry) -> MirrorTier {
        self.meters = Some(TierMeters {
            registry: registry.clone(),
            told: [0; PUBLISHED.len()],
            lag_rounds: registry.gauge("serve.mirror.lag_rounds"),
        });
        for mirror in &mut self.mirrors {
            mirror.frontend = Frontend::new(self.config.frontend.clone(), mirror.store.clone())
                .with_telemetry(registry);
        }
        // Every counter exists, at zero, from here on.
        self.publish();
        self
    }

    /// Tells the attached registry, if any, what the tier and each of its
    /// mirrors' front ends have counted since they were last told. A
    /// chaos day does this before each hourly round of its observer and
    /// when the day ends; a caller of [`MirrorTier::handle`] does before
    /// reading the registry.
    pub fn publish(&mut self) {
        if let Some(m) = &mut self.meters {
            m.registry.publish(&PUBLISHED, &self.totals, &mut m.told);
        }
        for mirror in &mut self.mirrors {
            mirror.frontend.publish();
        }
    }

    /// The origin store publications land in.
    pub fn origin(&self) -> &Arc<SnapshotStore> {
        &self.origin
    }

    /// The fault plan driving the tier.
    pub fn faults(&self) -> &ServeFaultConfig {
        &self.faults
    }

    /// Number of mirrors.
    pub fn mirror_count(&self) -> usize {
        self.mirrors.len()
    }

    /// The generation round mirror `i` currently serves, if any.
    pub fn mirror_round(&self, mirror: usize) -> Option<u64> {
        self.mirrors.get(mirror).and_then(|m| m.store.current_round())
    }

    /// The round the publish plan says should be live.
    pub fn target_round(&self) -> u64 {
        self.target_round
    }

    /// Rounds the *origin* is behind the publish plan — the
    /// publish-freshness staleness clock under a blackout.
    pub fn staleness_rounds(&self) -> u64 {
        self.target_round.saturating_sub(self.origin.current_round().unwrap_or(0))
    }

    /// Rounds the most-lagged mirror is behind the publish plan.
    pub fn max_lag_rounds(&self) -> u64 {
        self.mirrors
            .iter()
            .map(|m| self.target_round.saturating_sub(m.store.current_round().unwrap_or(0)))
            .max()
            .unwrap_or(0)
    }

    /// The tier's sync/degradation totals so far.
    pub fn totals(&self) -> &TierTotals {
        &self.totals
    }

    /// Every mirror's front end, in mirror order.
    pub(crate) fn frontends(&self) -> impl Iterator<Item = &Frontend> {
        self.mirrors.iter().map(|m| &m.frontend)
    }

    /// Ends `client`'s session at every mirror's front end: failover and
    /// hedging may have admitted it at any of them.
    pub(crate) fn end_session(&mut self, client: u64) {
        self.mirrors.iter_mut().for_each(|m| m.frontend.end_session(client));
    }

    /// Every mirror front end's totals folded into one report card.
    pub fn merged_frontend_totals(&self) -> FrontendTotals {
        let mut merged = FrontendTotals::default();
        for frontend in self.frontends() {
            merged.merge(frontend.totals());
        }
        merged
    }

    /// Advances the publish plan's target round (a publish is *due*,
    /// whether or not the blackout lets it land).
    pub fn set_target_round(&mut self, round: u64) {
        self.target_round = self.target_round.max(round);
        // Lag may have grown: force the next advance() to take the full
        // walk and refresh the gauge.
        self.next_due_us = 0;
    }

    /// Attempts to land a scheduled publish on the origin at `at_us`.
    /// Returns `false` (and publishes nothing) during an origin
    /// blackout — the caller keeps the entry queued and retries after
    /// the window.
    pub fn apply_publish(&mut self, at_us: u64, publish: &TimedPublish) -> bool {
        self.set_target_round(publish.round);
        if self.faults.origin_blackout(at_us) {
            return false;
        }
        self.origin.publish_round(publish.round, &publish.date, publish.artifacts.clone());
        true
    }

    /// Publishes a hitlist service round straight into the origin — the
    /// tier-aware replacement for
    /// [`SnapshotStore::publish_service`]; the natural
    /// [`HitlistService::run_with`](sixdust_hitlist::HitlistService::run_with)
    /// hook body when serving through mirrors. Not subject to the fault
    /// plan (service publication happens out of band of the serve day).
    pub fn publish_service(
        &mut self,
        svc: &sixdust_hitlist::HitlistService,
        round: u64,
        date: &str,
    ) {
        self.set_target_round(round);
        self.origin.publish_service(svc, round, date);
    }

    /// Processes every scheduled sync due at or before `at_us` and
    /// refreshes the lag gauge. Called implicitly by [`MirrorTier::handle`].
    pub fn advance(&mut self, at_us: u64) {
        // Fast path: no sync is due and no publish has moved the target
        // since the last walk. `handle` calls this per request, so a
        // million-arrival day must not pay O(mirrors) per arrival.
        if at_us < self.next_due_us {
            return;
        }
        for i in 0..self.mirrors.len() {
            while self.mirrors[i].next_sync_us <= at_us {
                let scheduled = self.mirrors[i].next_sync_us;
                self.try_sync(i, scheduled);
                self.mirrors[i].next_sync_us = scheduled + self.config.sync_interval_us;
            }
        }
        self.next_due_us = self.mirrors.iter().map(|m| m.next_sync_us).min().unwrap_or(u64::MAX);
        if let Some(m) = &self.meters {
            m.lag_rounds.set(self.max_lag_rounds() as i64);
        }
    }

    /// One sync attempt of mirror `i` at `at_us`: transfer every changed
    /// artifact (delta where the held round matches the origin's diff
    /// base), validate checksum-first, adopt the whole generation or
    /// nothing. Returns whether the mirror is in sync with the origin
    /// afterwards.
    ///
    /// Each transfer is checked as it arrives, and the first that fails
    /// ends the sync: stream checksum, magic and strict parse, then for a
    /// delta the base digest and lookups of its items in the held set,
    /// and last the digest of what it carries against the one its delta
    /// stream promised and the origin version's. A delta's digest is
    /// composed from the held one in the size of the delta, and no set
    /// is built: the handles adopted are the origin's. Whichever check
    /// fails, the sync counts as rejected once.
    pub fn try_sync(&mut self, i: usize, at_us: u64) -> bool {
        if self.faults.origin_blackout(at_us) || self.faults.mirror_down(i, at_us) {
            self.totals.sync_blocked += 1;
            return false;
        }
        // Round, date and versions of one publication, whatever lands on
        // the origin meanwhile.
        let Some(live) = self.origin.generation() else {
            return false;
        };
        if self.mirrors[i].store.current_round() == Some(live.round) {
            return true;
        }
        self.mirrors[i].sync_attempts += 1;
        let attempt = self.mirrors[i].sync_attempts;

        // The transfer of every changed artifact, checked.
        let mut full_transfers = 0u64;
        let mut delta_transfers = 0u64;
        let mut wire_bytes = 0u64;
        for (kind, version) in ArtifactKind::ALL.into_iter().zip(&live.artifacts) {
            let held = self.mirrors[i].store.artifact(kind);
            // Unchanged content: adopt the handle, no transfer.
            if held.as_ref().is_some_and(|h| h.digest() == version.digest()) {
                continue;
            }
            let base = held.filter(|h| Some(h.round()) == version.prev_round());
            let (wire, base) = match (version.delta_encoded(), base) {
                (Some(delta), Some(base)) => (delta.clone(), Some(base)),
                _ => (version.full_encoded().clone(), None),
            };
            // In-flight corruption (seeded, per transfer identity).
            let mut transfer: Vec<u8>;
            let body: &[u8] = if self.faults.corrupt_sync(i, version.round(), kind.index(), attempt)
            {
                transfer = (*wire).clone();
                if !transfer.is_empty() {
                    let pos = self.faults.corrupt_position(
                        i,
                        version.round(),
                        kind.index(),
                        attempt,
                        transfer.len(),
                    );
                    transfer[pos] ^= 0x20;
                }
                &transfer
            } else {
                &wire
            };
            // Checksum-first validation: a flip anywhere rejects the
            // whole sync, and the mirror keeps its last-good generation.
            let arrived = match &base {
                Some(base) => {
                    delta_transfers += 1;
                    codec::Opened::delta(base.items(), base.digest(), body, version.digest())
                }
                None => {
                    full_transfers += 1;
                    codec::Opened::full(body, version.digest())
                }
            };
            if arrived.and_then(|opened| opened.confirm()).is_err() {
                self.totals.sync_rejected += 1;
                return false;
            }
            wire_bytes += wire.len() as u64;
        }

        // Every version adopted, transferred or not: the origin's handles.
        let installed = self.mirrors[i].store.install_generation(
            live.round,
            &live.date,
            live.artifacts.clone(),
        );
        debug_assert!(installed, "origin generations are always complete and ordered");
        self.totals.syncs += 1;
        self.totals.sync_full += full_transfers;
        self.totals.sync_delta += delta_transfers;
        self.totals.sync_bytes += wire_bytes;
        true
    }

    /// Routes one request to mirror `mirror` at its virtual arrival
    /// time. Returns `None` when the mirror is inside an outage window
    /// (unreachable: no answer at all, the client's retry layer deals
    /// with it). Served latencies are inflated for slow mirrors; answers
    /// older than the publish plan's target round are counted stale and
    /// trigger a cooldown-limited revalidation sync
    /// (stale-while-revalidate).
    pub fn handle(&mut self, mirror: usize, request: &Request) -> Option<Outcome> {
        let at = request.at_us;
        self.advance(at);
        if self.faults.mirror_down(mirror, at) {
            return None;
        }
        // An empty mirror is infinitely stale: bootstrap-sync on demand
        // (cooldown-limited, same cooldown as revalidation) before answering
        // rather than shrugging `Unavailable` until the next scheduled
        // sync comes around.
        if self.mirrors[mirror].frontend.current_round().is_none()
            && self.origin.current_round().is_some()
            && at >= self.mirrors[mirror].next_revalidate_us
        {
            self.mirrors[mirror].next_revalidate_us = at + REVALIDATE_COOLDOWN_US;
            self.totals.revalidations += 1;
            self.try_sync(mirror, at);
        }
        let outcome = match self.mirrors[mirror].frontend.handle(request) {
            Outcome::Body { bytes, round, digest, delta, cached, latency_us } => Outcome::Body {
                bytes,
                round,
                digest,
                delta,
                cached,
                latency_us: self.faults.inflate_latency(mirror, latency_us),
            },
            Outcome::NotModified { round, latency_us } => Outcome::NotModified {
                round,
                latency_us: self.faults.inflate_latency(mirror, latency_us),
            },
            other => other,
        };
        let served_round = match &outcome {
            Outcome::Body { round, .. } | Outcome::NotModified { round, .. } => Some(*round),
            _ => None,
        };
        if served_round.is_some_and(|r| r < self.target_round) {
            self.totals.stale_served += 1;
            if at >= self.mirrors[mirror].next_revalidate_us {
                self.mirrors[mirror].next_revalidate_us = at + REVALIDATE_COOLDOWN_US;
                self.totals.revalidations += 1;
                self.try_sync(mirror, at);
            }
        }
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::FetchKind;
    use crate::store::ArtifactVersion;

    fn artifacts(round: u64) -> Vec<(ArtifactKind, AddrSet)> {
        vec![(ArtifactKind::Responsive, (0..500 + round as u128 * 40).map(|i| i * 13).collect())]
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

    fn tier_over(origin_rounds: u64, faults: ServeFaultConfig, mirrors: usize) -> MirrorTier {
        let origin = Arc::new(SnapshotStore::new(StoreConfig::default()));
        for round in 1..=origin_rounds {
            origin.publish_round(round, &format!("d{round}"), artifacts(round));
        }
        let config = MirrorTierConfig::builder()
            .with_mirrors(mirrors)
            .with_sync_stagger_us(0)
            .with_sync_interval_us(1_000_000);
        MirrorTier::new(config, origin, faults)
    }

    #[test]
    #[should_panic(expected = "sync_interval_us must be at least 1")]
    fn a_zero_sync_interval_is_rejected_not_spun_on() {
        // Set past the clamping builder: `advance` would reschedule the
        // sync at `scheduled + 0` forever.
        let config = MirrorTierConfig { sync_interval_us: 0, ..MirrorTierConfig::default() };
        let origin = Arc::new(SnapshotStore::new(StoreConfig::default()));
        let _ = MirrorTier::new(config, origin, ServeFaultConfig::lossless());
    }

    #[test]
    #[should_panic(expected = "mirrors must be at least 1")]
    fn a_tier_of_no_mirrors_is_rejected() {
        let config = MirrorTierConfig { mirrors: 0, ..MirrorTierConfig::default() };
        let origin = Arc::new(SnapshotStore::new(StoreConfig::default()));
        let _ = MirrorTier::new(config, origin, ServeFaultConfig::lossless());
    }

    #[test]
    fn mirrors_deploy_warm_then_sync_delta_with_structural_sharing() {
        let mut tier = tier_over(1, ServeFaultConfig::lossless(), 1);
        // Warm deploy: the origin's live generation is adopted at
        // construction, handle-for-handle — no wire transfer at all.
        assert_eq!(tier.mirror_round(0), Some(1));
        assert_eq!(tier.totals().syncs, 0, "deploy image, not a sync");
        assert_eq!(tier.totals().sync_bytes, 0);
        // Next round: the mirror holds the diff base, so the changed
        // artifact moves as a delta and unchanged handles are shared.
        tier.origin().publish_round(2, "d2", artifacts(2));
        tier.set_target_round(2);
        tier.advance(1_000_000);
        assert_eq!(tier.mirror_round(0), Some(2));
        assert_eq!(tier.totals().sync_delta, 1, "held diff base: the changed artifact is a delta");
        assert_eq!(tier.totals().sync_full, 0, "unchanged artifacts adopt by digest");
        let origin_v = tier.origin().artifact(ArtifactKind::Responsive).unwrap();
        let mirror_v = tier.mirrors[0].store.artifact(ArtifactKind::Responsive).unwrap();
        assert!(Arc::ptr_eq(&origin_v, &mirror_v), "validated sync adopts the origin handle");
        assert!(tier.totals().sync_bytes > 0);
    }

    #[test]
    fn a_cold_tier_bootstraps_with_full_snapshots() {
        // Origin empty at deploy: the first generation must move over
        // the wire, every artifact as a full snapshot.
        let mut tier = tier_over(0, ServeFaultConfig::lossless(), 1);
        assert_eq!(tier.mirror_round(0), None);
        tier.origin().publish_round(1, "d1", artifacts(1));
        tier.set_target_round(1);
        tier.advance(1_000_000);
        assert_eq!(tier.mirror_round(0), Some(1));
        assert_eq!(
            tier.totals().sync_full,
            ArtifactKind::ALL.len() as u64,
            "an empty mirror transfers every artifact as a full snapshot"
        );
        assert_eq!(tier.totals().sync_delta, 0);
        assert!(tier.totals().sync_bytes > 0);
    }

    #[test]
    fn corrupted_sync_rejects_wholesale_and_keeps_last_good() {
        let mut tier = tier_over(1, ServeFaultConfig::lossless(), 1);
        tier.advance(0);
        assert_eq!(tier.mirror_round(0), Some(1));
        // Every transfer corrupt from here on: round 2 must never land.
        tier.faults = ServeFaultConfig::builder().with_sync_corrupt_permille(1_000);
        tier.origin().publish_round(2, "d2", artifacts(2));
        tier.set_target_round(2);
        tier.advance(10_000_000);
        assert!(tier.totals().sync_rejected > 0);
        assert_eq!(tier.mirror_round(0), Some(1), "torn sync keeps the last-good generation");
        // The mirror still answers — stale, and counted as such.
        let out = tier.handle(0, &request(1, 10_000_001)).expect("mirror reachable");
        assert!(matches!(out, Outcome::Body { round: 1, .. }));
        assert!(tier.totals().stale_served > 0);
        assert!(tier.totals().revalidations > 0, "stale service schedules a revalidation");
    }

    #[test]
    fn a_delta_to_some_other_generation_is_rejected_and_last_good_is_kept() {
        let mut tier = tier_over(1, ServeFaultConfig::lossless(), 1);
        let v1 = tier.origin().artifact(ArtifactKind::Responsive).expect("round 1");
        tier.origin().publish_round(2, "d2", artifacts(2));
        tier.set_target_round(2);
        let honest: Vec<Arc<ArtifactVersion>> = ArtifactKind::ALL
            .iter()
            .map(|&kind| tier.origin().artifact(kind).expect("round 2"))
            .collect();
        // Round 2's handle, but the delta it ships leads from round 1 to
        // a set that is not round 2: a well-formed, checksummed stream
        // whose own base and result digests are both true.
        let v2 = &honest[ArtifactKind::Responsive.index()];
        let mut elsewhere = (**v2.items()).clone();
        elsewhere.insert(u128::MAX);
        let detour = codec::encode_delta(v1.items(), &elsewhere);
        assert_eq!(codec::apply_delta(v1.items(), &detour).expect("a valid delta"), elsewhere);
        let mut swapped = honest.clone();
        swapped[ArtifactKind::Responsive.index()] =
            Arc::new(crate::store::tests::with_delta(v2, detour));
        assert!(tier.origin().install_generation(2, "d2", swapped));

        assert!(!tier.try_sync(0, 1), "the delta does not lead to the origin's version");
        assert_eq!(tier.totals().sync_rejected, 1);
        assert_eq!(tier.totals().syncs, 0);
        assert_eq!(tier.mirror_round(0), Some(1), "the mirror keeps its last-good generation");
        let held = tier.mirrors[0].store.artifact(ArtifactKind::Responsive).expect("held");
        assert!(Arc::ptr_eq(&held, &v1));

        // The same sync with the delta that does lead there goes through.
        assert!(tier.origin().install_generation(2, "d2", honest));
        assert!(tier.try_sync(0, 2));
        assert_eq!(tier.totals().sync_delta, 1);
        assert_eq!(tier.mirror_round(0), Some(2));
    }

    /// A generation in which every kind changes from round to round.
    fn whole_generation(round: u64) -> Vec<(ArtifactKind, AddrSet)> {
        ArtifactKind::ALL
            .iter()
            .map(|&kind| {
                let k = kind.index() as u128;
                let len = 300 + 25 * k + 11 * u128::from(round);
                (kind, (0..len).map(|i| ((0x2001_0db8 + k) << 96) | (i * (k + 2))).collect())
            })
            .collect()
    }

    #[test]
    fn one_bad_transfer_at_any_index_rejects_the_generation_once_and_keeps_last_good() {
        use crate::store::tests::{with_delta, with_full};
        // How the transfer of one artifact goes wrong: a byte flipped in
        // flight, or a well-formed stream that leads to some other set.
        // `warm`: the mirror holds round 1 and syncs over deltas; cold, it
        // holds nothing and pulls full snapshots.
        for (warm, flipped) in [(true, true), (true, false), (false, true), (false, false)] {
            for bad in 0..ArtifactKind::ALL.len() {
                let origin = Arc::new(SnapshotStore::new(StoreConfig::default()));
                if warm {
                    origin.publish_round(1, "d1", whole_generation(1));
                }
                let config = MirrorTierConfig::builder().with_mirrors(1);
                let mut tier = MirrorTier::new(config, origin, ServeFaultConfig::lossless());
                let last_good = ArtifactKind::ALL.map(|kind| tier.mirrors[0].store.artifact(kind));
                tier.origin().publish_round(2, "d2", whole_generation(2));
                tier.set_target_round(2);
                let honest = ArtifactKind::ALL.map(|kind| tier.origin().artifact(kind).unwrap());

                let version = &honest[bad];
                let mut elsewhere = (**version.items()).clone();
                elsewhere.insert(u128::MAX);
                let tampered = match (warm, flipped) {
                    (true, true) => {
                        let mut delta = (**version.delta_encoded().expect("round 2")).clone();
                        let at = delta.len() * (bad + 1) / 10;
                        delta[at] ^= 0x20;
                        with_delta(version, delta)
                    }
                    (true, false) => {
                        let base = last_good[bad].as_ref().expect("warm").items();
                        with_delta(version, codec::encode_delta(base, &elsewhere))
                    }
                    (false, true) => {
                        let mut full = (**version.full_encoded()).clone();
                        let at = full.len() * (bad + 1) / 10;
                        full[at] ^= 0x20;
                        with_full(version, full)
                    }
                    (false, false) => with_full(version, codec::encode_full(&elsewhere)),
                };
                let mut swapped = honest.to_vec();
                swapped[bad] = Arc::new(tampered);
                assert!(tier.origin().install_generation(2, "d2", swapped));

                let case = format!("warm {warm}, flipped {flipped}, artifact {bad}");
                assert!(!tier.try_sync(0, 1), "{case}");
                let rejected = TierTotals { sync_rejected: 1, ..TierTotals::default() };
                assert_eq!(*tier.totals(), rejected, "{case}: one rejection, nothing else moved");
                assert_eq!(tier.mirror_round(0), warm.then_some(1), "{case}");
                for (kind, held) in ArtifactKind::ALL.into_iter().zip(&last_good) {
                    let now = tier.mirrors[0].store.artifact(kind);
                    assert_eq!(now.is_some(), held.is_some(), "{case}: {kind:?}");
                    if let (Some(now), Some(held)) = (&now, held) {
                        assert!(Arc::ptr_eq(now, held), "{case}: {kind:?} was adopted");
                    }
                }
                if warm {
                    let request = Request { kind: ArtifactKind::ALL[bad], ..request(1, 2) };
                    let served = tier.mirrors[0].frontend.handle(&request);
                    assert!(matches!(served, Outcome::Body { round: 1, .. }), "{case}: {served:?}");
                }

                // The same sync once the transfer is clean goes through.
                assert!(tier.origin().install_generation(2, "d2", honest.to_vec()));
                assert!(tier.try_sync(0, 2), "{case}");
                let all = ArtifactKind::ALL.len() as u64;
                let (deltas, fulls) = if warm { (all, 0) } else { (0, all) };
                assert_eq!(tier.totals().syncs, 1, "{case}");
                assert_eq!(tier.totals().sync_rejected, 1, "{case}");
                assert_eq!((tier.totals().sync_delta, tier.totals().sync_full), (deltas, fulls));
                assert_eq!(tier.mirror_round(0), Some(2), "{case}");
                for (kind, version) in ArtifactKind::ALL.into_iter().zip(&honest) {
                    let now = tier.mirrors[0].store.artifact(kind).expect("synced");
                    assert!(Arc::ptr_eq(&now, version), "{case}: {kind:?}");
                }
            }
        }
    }

    #[test]
    fn every_generation_a_mirror_holds_carries_content_digests() {
        use crate::store::tests::assert_digests_are_content_digests;
        // Half the transfers corrupt: mirrors lag, catch up over deltas
        // and full snapshots, and reject syncs in between.
        let faults = ServeFaultConfig::builder().with_sync_corrupt_permille(500);
        let mut tier = tier_over(1, faults, 3);
        for round in 2..=8u64 {
            tier.origin().publish_round(round, &format!("d{round}"), artifacts(round));
            tier.set_target_round(round);
            tier.advance(round * 1_000_000);
            assert_digests_are_content_digests(tier.origin());
            for mirror in &tier.mirrors {
                assert_digests_are_content_digests(&mirror.store);
            }
        }
        let totals = tier.totals();
        assert!(totals.sync_rejected > 0 && totals.sync_delta > 0 && totals.sync_full > 0);
    }

    #[test]
    fn a_sync_racing_publishes_installs_one_generation() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Every round changes every kind: a sync that took the round
        // before a publish landed and a version after it would install a
        // generation labelled round N holding round N + 1. The sets are
        // small, so a publish takes about as long as a sync and lands
        // inside one often.
        let generation = |round: u64| -> Vec<(ArtifactKind, AddrSet)> {
            let items =
                |k: usize| (0..16).map(move |i| (k as u128) << 64 | u128::from(round) << 4 | i);
            ArtifactKind::ALL.iter().map(|&kind| (kind, items(kind.index()).collect())).collect()
        };
        let mut tier = tier_over(1, ServeFaultConfig::lossless(), 1);
        let origin = tier.origin().clone();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 2..=10_000 {
                    origin.publish_round(round, "d", generation(round));
                }
                done.store(true, Ordering::Release);
            });
            let mut at_us = 0;
            loop {
                let finished = done.load(Ordering::Acquire);
                at_us += 1;
                if tier.try_sync(0, at_us) {
                    let installed = tier.mirror_round(0).expect("synced");
                    let held = ArtifactKind::ALL.map(|kind| tier.mirrors[0].store.artifact(kind));
                    for (kind, version) in ArtifactKind::ALL.into_iter().zip(held) {
                        let round = version.expect("a whole generation").round();
                        assert_eq!(round, installed, "{kind:?} in the generation of {installed}");
                    }
                }
                if finished {
                    break;
                }
            }
        });
        assert!(tier.totals().syncs > 0);
        assert_eq!(tier.totals().sync_rejected, 0);
    }

    #[test]
    fn a_front_end_racing_publishes_answers_only_published_generations_in_order() {
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicBool, Ordering};
        // Every round changes every kind, so each answer names the one
        // generation it came from.
        let generation = |round: u64| -> Vec<(ArtifactKind, AddrSet)> {
            let items =
                |k: usize| (0..16).map(move |i| (k as u128) << 64 | u128::from(round) << 4 | i);
            ArtifactKind::ALL.iter().map(|&kind| (kind, items(kind.index()).collect())).collect()
        };
        const LAST: u64 = 2_001;
        let published: HashSet<(usize, u64, u64)> = (1..=LAST)
            .flat_map(|round| {
                generation(round)
                    .into_iter()
                    .map(move |(kind, set)| (kind.index(), round, codec::content_digest(&set)))
            })
            .collect();
        let origin = Arc::new(SnapshotStore::new(StoreConfig::default()));
        origin.publish_round(1, "d", generation(1));
        let mut reader = Frontend::new(FrontendConfig::default(), origin.clone());
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 2..=LAST {
                    origin.publish_round(round, "d", generation(round));
                }
                done.store(true, Ordering::Release);
            });
            let mut last_round = 0;
            for n in 0u64.. {
                let finished = done.load(Ordering::Acquire);
                // One request a virtual second, spread over 64 clients: no
                // bucket or cap ever sheds.
                let kind = ArtifactKind::ALL[n as usize % ArtifactKind::ALL.len()];
                let served = reader.handle(&Request { kind, ..request(n % 64, n * 1_000_000) });
                let Outcome::Body { round, digest, .. } = served else {
                    panic!("request {n}: {served:?}");
                };
                let answer = (kind.index(), round, digest);
                assert!(published.contains(&answer), "request {n}: {answer:?} was not published");
                assert!(round >= last_round, "request {n}: round {round} after {last_round}");
                last_round = round;
                if finished {
                    // Every publish happened before this request.
                    assert_eq!(round, LAST, "request {n} after the last publish");
                    break;
                }
            }
        });
    }

    #[test]
    fn blackout_defers_publish_and_serves_stale_until_it_lifts() {
        let faults = ServeFaultConfig::builder().with_origin_blackout(100, 2_000_000);
        let mut tier = tier_over(1, faults, 1);
        tier.advance(0);
        let publish =
            TimedPublish { at_us: 500, round: 2, date: "d2".to_string(), artifacts: artifacts(2) };
        assert!(!tier.apply_publish(500, &publish), "blackout defers the publish");
        assert_eq!(tier.target_round(), 2, "the plan's target still advances");
        assert_eq!(tier.staleness_rounds(), 1, "origin is one round behind plan");
        let out = tier.handle(0, &request(1, 1_000)).expect("reachable");
        assert!(matches!(out, Outcome::Body { round: 1, .. }), "stale-while-revalidate");
        assert_eq!(tier.totals().stale_served, 1);
        assert!(tier.totals().sync_blocked > 0, "revalidation cannot reach the origin");
        // Blackout over: the publish lands, the next sync catches up.
        assert!(tier.apply_publish(2_000_000, &publish));
        assert_eq!(tier.staleness_rounds(), 0);
        tier.advance(3_000_000);
        assert_eq!(tier.mirror_round(0), Some(2));
        assert_eq!(tier.max_lag_rounds(), 0);
    }

    #[test]
    fn outage_makes_a_mirror_unreachable_and_slow_mirrors_inflate() {
        let faults =
            ServeFaultConfig::builder().with_mirror_outage(0, 0, 1_000).with_slow_mirror(1, 4_000);
        let mut tier = tier_over(1, faults, 2);
        assert!(tier.handle(0, &request(1, 500)).is_none(), "outage: no answer at all");
        // Mirror 0's t=0 sync fell inside its outage; the next scheduled
        // sync (1s) lands after the window, so by 2s it serves normally.
        let normal = tier.handle(0, &request(1, 2_000_000)).expect("outage over");
        let slow = tier.handle(1, &request(2, 2_000_000)).expect("reachable");
        let (Outcome::Body { latency_us: fast, .. }, Outcome::Body { latency_us: slow, .. }) =
            (normal, slow)
        else {
            panic!("both mirrors serve bodies");
        };
        assert_eq!(slow, fast * 5, "4000 permille inflation is 5x");
    }
}
