//! Seeded fault injection for the distribution tier.
//!
//! The scan path got chaos-grade faults in the `sixdust-net`
//! [`FaultConfig`](sixdust_net::FaultConfig); this module is its
//! serving-side sibling, expressed on the virtual-microsecond timeline
//! the front ends run on instead of the scan-day axis:
//!
//! * **mirror outage windows** — one edge mirror drops off the network
//!   for `[from_us, until_us)`: requests toward it get no answer at all
//!   and its sync attempts fail;
//! * **slow mirrors** — a mirror's served latency is inflated by a
//!   permille factor (a congested path, an overloaded box), the
//!   condition hedged requests exist for;
//! * **origin publish blackouts** — the origin cannot publish and
//!   mirrors cannot sync for a window; mirrors degrade to serving their
//!   last-good generation (stale-while-revalidate);
//! * **sync corruption** — a mirror's sync transfer has a byte flipped
//!   in flight with some probability, exercising the checksum-first
//!   torn-sync rejection path.
//!
//! Every stochastic decision is a pure function of `(seed, question)`
//! via [`sixdust_addr::prf`], so a chaos day replays byte-identically.
//! The shape mirrors `sixdust-net`: a [`ServeFaultConfig::builder`],
//! chainable `with_*` methods, and a [`ServeFaultConfig::lossless`]
//! all-off preset.

use sixdust_addr::prf;

const TAG_SYNC_CORRUPT: u64 = 0x5F_C0DE;

/// A scheduled outage of one edge mirror: the mirror answers nothing
/// (requests and sync attempts both fail) for `[from_us, until_us)` on
/// the virtual-day timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MirrorOutage {
    /// Index of the mirror that goes dark.
    pub mirror: usize,
    /// Start of the outage, microseconds into the day (inclusive).
    pub from_us: u64,
    /// End of the outage, microseconds into the day (exclusive).
    pub until_us: u64,
}

impl MirrorOutage {
    /// Whether the window covers `at_us`.
    pub fn active(&self, at_us: u64) -> bool {
        self.from_us <= at_us && at_us < self.until_us
    }
}

/// A window during which the origin cannot publish new generations and
/// mirrors cannot sync — the condition stale-while-revalidate exists
/// for. `[from_us, until_us)` on the virtual-day timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blackout {
    /// Start of the blackout, microseconds into the day (inclusive).
    pub from_us: u64,
    /// End of the blackout, microseconds into the day (exclusive).
    pub until_us: u64,
}

impl Blackout {
    /// Whether the window covers `at_us`.
    pub fn active(&self, at_us: u64) -> bool {
        self.from_us <= at_us && at_us < self.until_us
    }
}

/// A persistently slow mirror: every served latency is multiplied by
/// `(1000 + inflate_permille) / 1000`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowMirror {
    /// Index of the slow mirror.
    pub mirror: usize,
    /// Extra latency in permille of the true latency (4000 = 5× slower).
    pub inflate_permille: u32,
}

/// Fault injection knobs for the distribution tier.
///
/// Construct via [`ServeFaultConfig::builder`] or the chainable `with_*`
/// methods; [`ServeFaultConfig::lossless`] is the all-off preset and
/// [`ServeFaultConfig::chaos`] is a representative bad day.
///
/// ```
/// use sixdust_serve::faults::ServeFaultConfig;
/// let faults = ServeFaultConfig::builder()
///     .with_mirror_outage(1, 3_600_000_000, 7_200_000_000)
///     .with_origin_blackout(40_000_000_000, 60_000_000_000)
///     .with_sync_corrupt_permille(100);
/// assert!(faults.mirror_down(1, 3_600_000_000));
/// assert!(!faults.mirror_down(1, 7_200_000_000));
/// assert!(faults.origin_blackout(50_000_000_000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeFaultConfig {
    /// Fault-stream seed, mixed into every stochastic fault decision.
    /// Varying it yields a different fault *realization*; equal seed and
    /// config replay byte-identically.
    pub seed: u64,
    /// Scheduled per-mirror outage windows.
    pub mirror_outages: Vec<MirrorOutage>,
    /// Persistently slow mirrors (latency inflation).
    pub slow_mirrors: Vec<SlowMirror>,
    /// Windows during which the origin cannot publish and syncs fail.
    pub origin_blackouts: Vec<Blackout>,
    /// Probability (permille) that one artifact's sync transfer has a
    /// byte flipped in flight. The flip is deterministic per
    /// `(mirror, round, artifact, attempt)` — transient, so a rejected
    /// sync re-rolls on retry; the mirror's checksum-first validation
    /// must reject it wholesale (no torn generation).
    pub sync_corrupt_permille: u32,
}

impl ServeFaultConfig {
    /// Every fault off — the deterministic-world preset unit tests use.
    pub fn lossless() -> ServeFaultConfig {
        ServeFaultConfig::default()
    }

    /// Starts from the all-off preset.
    pub fn builder() -> ServeFaultConfig {
        ServeFaultConfig::lossless()
    }

    /// A representative bad day over a tier of `mirrors` mirrors: one
    /// mid-morning outage of mirror 0, an early-afternoon outage of
    /// mirror 1 (when present), the last mirror 5× slow all day, an
    /// origin publish blackout across the afternoon, and a 15 %
    /// per-artifact sync-corruption rate.
    pub fn chaos(seed: u64, mirrors: usize) -> ServeFaultConfig {
        ServeFaultConfig::chaos_scaled(seed, mirrors, 86_400_000_000)
    }

    /// [`ServeFaultConfig::chaos`] with its windows placed at the same
    /// fractions of an arbitrary `day_micros` — so a compressed
    /// quick-mode day (or a multi-day horizon) injects the same story:
    /// mirror 0 out across [1/4, 3/8) of the day, an origin blackout
    /// over [13/24, 19/24), mirror 1 out across [1/2, 7/12), the last
    /// mirror slow throughout. Identical to `chaos` at the standard
    /// 86,400-second day.
    pub fn chaos_scaled(seed: u64, mirrors: usize, day_micros: u64) -> ServeFaultConfig {
        let slice = day_micros / 24;
        let mut faults = ServeFaultConfig::builder()
            .with_seed(seed)
            .with_mirror_outage(0, 6 * slice, 9 * slice)
            .with_origin_blackout(13 * slice, 19 * slice)
            .with_sync_corrupt_permille(150);
        if mirrors > 1 {
            faults = faults
                .with_mirror_outage(1, 12 * slice, 14 * slice)
                .with_slow_mirror(mirrors - 1, 4_000);
        }
        faults
    }

    /// Returns the config with the fault-stream seed replaced.
    pub fn with_seed(mut self, seed: u64) -> ServeFaultConfig {
        self.seed = seed;
        self
    }

    /// Returns the config with a mirror outage window added.
    pub fn with_mirror_outage(mut self, mirror: usize, from_us: u64, until_us: u64) -> Self {
        self.mirror_outages.push(MirrorOutage { mirror, from_us, until_us });
        self
    }

    /// Returns the config with a slow mirror added.
    pub fn with_slow_mirror(mut self, mirror: usize, inflate_permille: u32) -> Self {
        self.slow_mirrors.push(SlowMirror { mirror, inflate_permille });
        self
    }

    /// Returns the config with an origin publish blackout added.
    pub fn with_origin_blackout(mut self, from_us: u64, until_us: u64) -> Self {
        self.origin_blackouts.push(Blackout { from_us, until_us });
        self
    }

    /// Returns the config with the sync corruption rate replaced.
    pub fn with_sync_corrupt_permille(mut self, permille: u32) -> Self {
        self.sync_corrupt_permille = permille;
        self
    }

    /// Whether mirror `mirror` is unreachable at `at_us`.
    pub fn mirror_down(&self, mirror: usize, at_us: u64) -> bool {
        self.mirror_outages.iter().any(|o| o.mirror == mirror && o.active(at_us))
    }

    /// Whether the origin is blacked out (no publishes, no syncs) at
    /// `at_us`.
    pub fn origin_blackout(&self, at_us: u64) -> bool {
        self.origin_blackouts.iter().any(|b| b.active(at_us))
    }

    /// The latency inflation for `mirror` in permille of the true
    /// latency (max-composed across matching entries; 0 = full speed).
    pub fn inflate_permille(&self, mirror: usize) -> u32 {
        self.slow_mirrors
            .iter()
            .filter(|s| s.mirror == mirror)
            .map(|s| s.inflate_permille)
            .max()
            .unwrap_or(0)
    }

    /// Inflates a served latency for `mirror`.
    pub fn inflate_latency(&self, mirror: usize, latency_us: u64) -> u64 {
        let inflate = u64::from(self.inflate_permille(mirror));
        latency_us.saturating_mul(1_000 + inflate) / 1_000
    }

    /// Whether the `attempt`-th sync transfer of
    /// `(mirror, round, artifact)` is corrupted in flight. Pure function
    /// of the fault seed, so the same transfer is corrupted (or not) on
    /// every replay; the attempt counter salts the draw so a *re*-sync
    /// of a rejected generation re-rolls instead of failing forever
    /// (in-flight corruption is transient, not sticky).
    pub fn corrupt_sync(&self, mirror: usize, round: u64, artifact: usize, attempt: u64) -> bool {
        if self.sync_corrupt_permille == 0 {
            return false;
        }
        let value = (mirror as u128) << 96
            | u128::from(round) << 64
            | (artifact as u128) << 48
            | u128::from(attempt);
        prf::chance(
            self.seed,
            value,
            TAG_SYNC_CORRUPT,
            u64::from(self.sync_corrupt_permille.min(1_000)),
            1_000,
        )
    }

    /// The byte position to flip in a corrupted transfer of `len`
    /// encoded bytes (deterministic per transfer identity).
    pub fn corrupt_position(
        &self,
        mirror: usize,
        round: u64,
        artifact: usize,
        attempt: u64,
        len: usize,
    ) -> usize {
        if len == 0 {
            return 0;
        }
        let value = (mirror as u128) << 96
            | u128::from(round) << 64
            | (artifact as u128) << 48
            | u128::from(attempt);
        (prf::uniform(self.seed, value, TAG_SYNC_CORRUPT + 1, len as u64)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let f = ServeFaultConfig::builder()
            .with_mirror_outage(2, 100, 200)
            .with_origin_blackout(50, 60);
        assert!(!f.mirror_down(2, 99));
        assert!(f.mirror_down(2, 100));
        assert!(f.mirror_down(2, 199));
        assert!(!f.mirror_down(2, 200));
        assert!(!f.mirror_down(1, 150), "other mirrors unaffected");
        assert!(f.origin_blackout(50));
        assert!(!f.origin_blackout(60));
    }

    #[test]
    fn inflation_max_composes_and_defaults_to_zero() {
        let f = ServeFaultConfig::builder().with_slow_mirror(1, 1_000).with_slow_mirror(1, 4_000);
        assert_eq!(f.inflate_permille(1), 4_000);
        assert_eq!(f.inflate_permille(0), 0);
        assert_eq!(f.inflate_latency(1, 1_000), 5_000);
        assert_eq!(f.inflate_latency(0, 1_000), 1_000);
    }

    #[test]
    fn corruption_is_seeded_and_deterministic() {
        let f = ServeFaultConfig::builder().with_seed(7).with_sync_corrupt_permille(500);
        let hits: Vec<bool> = (0..100).map(|r| f.corrupt_sync(1, r, 0, 1)).collect();
        let replay: Vec<bool> = (0..100).map(|r| f.corrupt_sync(1, r, 0, 1)).collect();
        assert_eq!(hits, replay, "pure function of (seed, transfer)");
        let n = hits.iter().filter(|&&h| h).count();
        assert!(n > 20 && n < 80, "roughly half at 500 permille, got {n}");
        let other = ServeFaultConfig::builder().with_seed(8).with_sync_corrupt_permille(500);
        assert_ne!(hits, (0..100).map(|r| other.corrupt_sync(1, r, 0, 1)).collect::<Vec<_>>());
        assert!(!ServeFaultConfig::lossless().corrupt_sync(1, 1, 1, 1), "all-off preset");
        assert!(f.corrupt_position(1, 3, 0, 1, 64) < 64);
    }
}
