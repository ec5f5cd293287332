//! Composable fault injection for the simulated Internet.
//!
//! The real hitlist service survives exactly the conditions a clean
//! simulation never exercises: bursty packet loss, ICMPv6 rate-limited
//! routers, duplicated and corrupted responses, and whole-AS or
//! vantage-point outages. Worse, the pipeline's own 30-day unresponsive
//! filter turns a broken scanner into a destructive one — a few bad
//! rounds silently evict live addresses (the bias mechanics of Gasser et
//! al., IMC 2018). This module models those conditions as a *composable,
//! seeded, deterministic* fault plan:
//!
//! * baseline uniform loss ([`FaultConfig::drop_permille`], the original
//!   single knob);
//! * **bursty loss** via a discretized two-state [Gilbert–Elliott]
//!   channel evaluated per /64 over days ([`GilbertElliott`]);
//! * per-protocol and per-AS loss overrides;
//! * response **duplication** and byte-level response **corruption**
//!   (the latter drives the never-panic wire-parser paths with real
//!   garbage);
//! * per-router **ICMPv6 rate limiting** (a day-bucketed token budget —
//!   degrades yarrp traceroutes and the Too Big Trick);
//! * scheduled **outage windows** for the vantage point, a single AS, or
//!   a single protocol (total blackout of one probe module), expressed in
//!   the same [`Day`] timeline as every other event.
//!
//! Every stochastic decision is a pure function of `(world seed, fault
//! seed, question)` via [`sixdust_addr::prf`], so two runs with the same
//! seeds and the same [`FaultConfig`] produce byte-identical results
//! regardless of worker count or probe order. The only stateful fault is
//! the ICMPv6 rate limiter (a real token bucket is stateful by nature);
//! it never affects the end-to-end scan modules, only hop-limited
//! traceroute replies and Packet Too Big absorption.
//!
//! [Gilbert–Elliott]: https://en.wikipedia.org/wiki/Burst_error#Gilbert%E2%80%93Elliott_model

use sixdust_addr::{prf, Addr};

use crate::proto::Protocol;
use crate::time::Day;

/// A discretized two-state Gilbert–Elliott loss channel.
///
/// Each /64 destination prefix carries an independent two-state Markov
/// process over days: sojourn times in the Good and Bad states are drawn
/// (deterministically, from the fault seed and the prefix) with the
/// configured means, and probes are dropped with the state's loss
/// probability. This yields *bursts*: a subnet behind a congested or
/// rate-limited path stays lossy for `mean_bad_days` in a row rather
/// than losing an uncorrelated trickle — the failure shape that defeats
/// naive retry loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GilbertElliott {
    /// Mean sojourn time in the Good state, in days (≥ 1).
    pub mean_good_days: u32,
    /// Mean sojourn time in the Bad state, in days (≥ 1) — the expected
    /// burst length.
    pub mean_bad_days: u32,
    /// Loss probability in the Good state, in permille.
    pub good_drop_permille: u32,
    /// Loss probability in the Bad state, in permille.
    pub bad_drop_permille: u32,
}

impl Default for GilbertElliott {
    fn default() -> GilbertElliott {
        GilbertElliott {
            mean_good_days: 12,
            mean_bad_days: 3,
            good_drop_permille: 5,
            bad_drop_permille: 500,
        }
    }
}

impl GilbertElliott {
    /// Whether the channel for `key` (a /64 prefix identifier) is in the
    /// Bad state on `day`. Pure function of `(seed, key, day)`: the chain
    /// is replayed from day 0 with deterministic sojourn draws, so any
    /// caller — any thread, any probe order — sees the same state.
    pub fn bad_on(&self, seed: u64, key: u128, day: Day) -> bool {
        let good = self.mean_good_days.max(1);
        let bad = self.mean_bad_days.max(1);
        let mut stream = prf::PrfStream::new(seed, key, 0x6E11);
        // Start from the stationary distribution.
        let mut in_bad = stream.next_bounded(u64::from(good + bad)) < u64::from(bad);
        let mut t: u64 = 0;
        loop {
            // Sojourn uniform in [1, 2·mean − 1]: mean `mean`, bounded walk.
            let mean = if in_bad { bad } else { good };
            let run = 1 + stream.next_bounded(u64::from(2 * mean - 1).max(1));
            if t + run > u64::from(day.0) {
                return in_bad;
            }
            t += run;
            in_bad = !in_bad;
        }
    }

    /// The loss probability (permille) this channel applies to `key` on
    /// `day`.
    pub fn drop_permille_on(&self, seed: u64, key: u128, day: Day) -> u32 {
        if self.bad_on(seed, key, day) {
            self.bad_drop_permille
        } else {
            self.good_drop_permille
        }
    }
}

/// A day-bucketed ICMPv6 token budget per router interface (and per
/// PMTU-cache backend for Packet Too Big absorption). Real routers rate
/// limit ICMPv6 error generation (RFC 4443 §2.4f); under a tight budget
/// yarrp's Time Exceeded harvest and the Too Big Trick's cache seeding
/// degrade exactly like they do against production hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpRateLimit {
    /// ICMPv6 error/control messages each entity handles per day.
    pub per_day: u32,
}

/// What an [`Outage`] takes down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutageScope {
    /// The scanning vantage point itself: *nothing* answers (the scanner
    /// is cut off, every probe of every protocol times out).
    Vantage,
    /// One origin AS withdraws: probes toward its address space get no
    /// response at all (not even on-path middlebox injections).
    Asn(u32),
    /// One protocol goes fully dark (a filtered port, a dead middlebox, a
    /// broken probe module): every probe of that protocol times out, for
    /// every destination, while the other four protocols keep answering.
    Protocol(Protocol),
}

/// A scheduled outage window `[from, until)` on the simulation timeline —
/// the same [`Day`] axis as the GFW eras and source events in
/// [`crate::time::events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// First day of the outage (inclusive).
    pub from: Day,
    /// First day after the outage (exclusive).
    pub until: Day,
    /// What is down.
    pub scope: OutageScope,
    /// For [`OutageScope::Vantage`]: the ASN of the *specific* vantage
    /// point this window cuts off, or `None` for the historical meaning
    /// of "every vantage is down". Ignored for the other scopes.
    pub vantage: Option<u32>,
}

impl Outage {
    /// A vantage-point outage window `[from, until)` downing every
    /// vantage (the scanner side is cut off globally).
    pub fn vantage(from: Day, until: Day) -> Outage {
        Outage { from, until, scope: OutageScope::Vantage, vantage: None }
    }

    /// A vantage outage window `[from, until)` downing only the vantage
    /// whose source AS is `asn`; other vantages keep scanning.
    pub fn vantage_asn(asn: u32, from: Day, until: Day) -> Outage {
        Outage { from, until, scope: OutageScope::Vantage, vantage: Some(asn) }
    }

    /// An AS outage window `[from, until)`.
    pub fn asn(asn: u32, from: Day, until: Day) -> Outage {
        Outage { from, until, scope: OutageScope::Asn(asn), vantage: None }
    }

    /// A single-protocol blackout window `[from, until)`.
    pub fn protocol(proto: Protocol, from: Day, until: Day) -> Outage {
        Outage { from, until, scope: OutageScope::Protocol(proto), vantage: None }
    }

    /// Whether the window covers `day`.
    pub fn active(&self, day: Day) -> bool {
        self.from <= day && day < self.until
    }
}

/// Fault injection knobs (smoltcp-style: every example and test can dial
/// adverse conditions in).
///
/// Construct with the chainable `with_*` methods, like every other config
/// in the workspace, from [`FaultConfig::lossless`] — the all-off preset
/// unit tests want, and the `Default` — or from
/// [`FaultConfig::default_loss`], the original single-knob model: 0.4 %
/// uniform loss, nothing else.
///
/// ```
/// use sixdust_net::{Day, FaultConfig, GilbertElliott, Outage};
/// let faults = FaultConfig::lossless()
///     .with_drop_permille(10)
///     .with_burst(GilbertElliott::default())
///     .with_duplicate_permille(20)
///     .with_outage(Outage::vantage(Day(60), Day(68)));
/// assert!(faults.vantage_down(Day(63)));
/// assert!(!faults.vantage_down(Day(68)));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// Baseline probe/response drop probability in permille (applies per
    /// probe attempt).
    pub drop_permille: u32,
    /// Extra fault-stream seed, mixed into every fault decision. Varying
    /// it yields a different fault *realization* over the same simulated
    /// world; two runs with equal world seed and equal `FaultConfig` are
    /// byte-identical.
    pub seed: u64,
    /// Bursty loss channel layered on top of the baseline (the effective
    /// loss for a probe is the *maximum* of all applicable rates).
    pub burst: Option<GilbertElliott>,
    /// Per-protocol loss overrides in permille (max-composed with the
    /// other rates). Models e.g. UDP/53 middleboxes shedding load.
    pub proto_drop: Vec<(Protocol, u32)>,
    /// Per-origin-AS loss overrides in permille (max-composed). Models a
    /// congested peering edge toward one network.
    pub as_drop: Vec<(u32, u32)>,
    /// Probability (permille) that a response is delivered twice.
    pub duplicate_permille: u32,
    /// Probability (permille) that a wire-level response has bytes
    /// flipped in flight. Only observable on the byte path
    /// ([`crate::Internet::send_bytes`]); the semantic fast path carries
    /// typed responses that cannot be bit-flipped.
    pub corrupt_permille: u32,
    /// Per-router ICMPv6 rate limiting.
    pub icmp_rate_limit: Option<IcmpRateLimit>,
    /// Scheduled outage windows.
    pub outages: Vec<Outage>,
}

impl FaultConfig {
    /// The historical default: 0.4 % uniform loss, no other faults.
    pub fn default_loss() -> FaultConfig {
        FaultConfig { drop_permille: 4, ..FaultConfig::default() }
    }

    /// Every fault off — the deterministic-world preset unit tests use.
    pub fn lossless() -> FaultConfig {
        FaultConfig::default()
    }

    /// Returns the config with the baseline drop rate replaced.
    pub fn with_drop_permille(mut self, permille: u32) -> FaultConfig {
        self.drop_permille = permille;
        self
    }

    /// Returns the config with the fault-stream seed replaced.
    pub fn with_seed(mut self, seed: u64) -> FaultConfig {
        self.seed = seed;
        self
    }

    /// Returns the config with the burst channel replaced.
    pub fn with_burst(mut self, burst: GilbertElliott) -> FaultConfig {
        self.burst = Some(burst);
        self
    }

    /// Returns the config with a per-protocol loss override added.
    pub fn with_proto_drop(mut self, proto: Protocol, permille: u32) -> FaultConfig {
        self.proto_drop.push((proto, permille));
        self
    }

    /// Returns the config with a per-AS loss override added.
    pub fn with_as_drop(mut self, asn: u32, permille: u32) -> FaultConfig {
        self.as_drop.push((asn, permille));
        self
    }

    /// Returns the config with the duplication rate replaced.
    pub fn with_duplicate_permille(mut self, permille: u32) -> FaultConfig {
        self.duplicate_permille = permille;
        self
    }

    /// Returns the config with the corruption rate replaced.
    pub fn with_corrupt_permille(mut self, permille: u32) -> FaultConfig {
        self.corrupt_permille = permille;
        self
    }

    /// Returns the config with ICMPv6 rate limiting enabled.
    pub fn with_icmp_rate_limit(mut self, limit: IcmpRateLimit) -> FaultConfig {
        self.icmp_rate_limit = Some(limit);
        self
    }

    /// Returns the config with an outage window added.
    pub fn with_outage(mut self, outage: Outage) -> FaultConfig {
        self.outages.push(outage);
        self
    }

    /// Whether *every* vantage point is down on `day` (a global
    /// vantage outage; windows naming a specific vantage don't count).
    pub fn vantage_down(&self, day: Day) -> bool {
        self.outages
            .iter()
            .any(|o| o.scope == OutageScope::Vantage && o.vantage.is_none() && o.active(day))
    }

    /// Whether the vantage whose source AS is `asn` is down on `day` —
    /// true for global vantage outages and for windows naming `asn`.
    pub fn vantage_down_from(&self, asn: u32, day: Day) -> bool {
        self.outages.iter().any(|o| {
            o.scope == OutageScope::Vantage
                && o.active(day)
                && (o.vantage.is_none() || o.vantage == Some(asn))
        })
    }

    /// Whether `asn` is down on `day`.
    pub fn asn_down(&self, asn: u32, day: Day) -> bool {
        self.outages.iter().any(|o| o.scope == OutageScope::Asn(asn) && o.active(day))
    }

    /// Whether `proto` is fully blacked out on `day`.
    pub fn proto_down(&self, proto: Protocol, day: Day) -> bool {
        self.outages.iter().any(|o| o.scope == OutageScope::Protocol(proto) && o.active(day))
    }

    /// The effective loss probability (permille) for a probe toward
    /// `dst` using `proto` on `day`, where `origin_asn` is the
    /// destination's origin AS if routed. Max-composes the baseline, the
    /// burst channel state for the destination /64, and the per-protocol
    /// and per-AS overrides. Outages are handled separately (total
    /// silence, not a loss rate).
    #[inline]
    pub fn loss_permille(
        &self,
        seed: u64,
        dst: Addr,
        proto: Option<Protocol>,
        origin_asn: Option<u32>,
        day: Day,
    ) -> u32 {
        let mut permille = self.drop_permille;
        if let Some(burst) = &self.burst {
            permille = permille.max(burst.drop_permille_on(seed, dst.0 >> 64, day));
        }
        if let Some(p) = proto {
            permille = permille.max(self.proto_drop_permille(p));
        }
        if let Some(asn) = origin_asn {
            for (o_asn, rate) in &self.as_drop {
                if *o_asn == asn {
                    permille = permille.max(*rate);
                }
            }
        }
        permille
    }

    /// The loss override (permille) configured for `proto`; zero without
    /// one. The one term of [`FaultConfig::loss_permille`] that depends
    /// on the protocol.
    pub fn proto_drop_permille(&self, proto: Protocol) -> u32 {
        self.proto_drop
            .iter()
            .filter(|(p, _)| *p == proto)
            .map(|(_, rate)| *rate)
            .max()
            .unwrap_or(0)
    }

    /// Whether any stochastic fault is configured (fast-path gate: a
    /// lossless config skips every per-probe fault branch).
    pub fn any_loss(&self) -> bool {
        self.drop_permille > 0
            || self.burst.is_some()
            || !self.proto_drop.is_empty()
            || !self.as_drop.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_reproduces_chained() {
        let a = FaultConfig::lossless()
            .with_drop_permille(7)
            .with_seed(9)
            .with_burst(GilbertElliott::default())
            .with_proto_drop(Protocol::Udp53, 100)
            .with_as_drop(4134, 200)
            .with_duplicate_permille(3)
            .with_corrupt_permille(2)
            .with_icmp_rate_limit(IcmpRateLimit { per_day: 10 })
            .with_outage(Outage::vantage(Day(1), Day(2)));
        let b = FaultConfig {
            drop_permille: 7,
            seed: 9,
            burst: Some(GilbertElliott::default()),
            proto_drop: vec![(Protocol::Udp53, 100)],
            as_drop: vec![(4134, 200)],
            duplicate_permille: 3,
            corrupt_permille: 2,
            icmp_rate_limit: Some(IcmpRateLimit { per_day: 10 }),
            outages: vec![Outage::vantage(Day(1), Day(2))],
        };
        assert_eq!(a, b);
    }

    #[test]
    fn default_is_lossless_and_default_loss_matches_seed_world() {
        assert!(!FaultConfig::lossless().any_loss());
        assert_eq!(FaultConfig::default_loss().drop_permille, 4);
        assert!(FaultConfig::default_loss().any_loss());
    }

    #[test]
    fn gilbert_elliott_is_deterministic_and_bursty() {
        let ge = GilbertElliott {
            mean_good_days: 10,
            mean_bad_days: 5,
            good_drop_permille: 0,
            bad_drop_permille: 1000,
        };
        let key = 0x2001_0db8_u128 << 96 >> 64;
        // Deterministic.
        for d in 0..200 {
            assert_eq!(ge.bad_on(1, key, Day(d)), ge.bad_on(1, key, Day(d)));
        }
        // Bursty: state changes are far rarer than days.
        let states: Vec<bool> = (0..600).map(|d| ge.bad_on(1, key, Day(d))).collect();
        let flips = states.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(flips > 10, "the chain must alternate: {flips} flips");
        assert!(flips < 200, "sojourns must be multi-day: {flips} flips");
        // Stationary share of bad days ≈ 5/15 = 1/3, loosely.
        let bad_days = states.iter().filter(|b| **b).count();
        assert!((100..350).contains(&bad_days), "bad days {bad_days}/600");
    }

    #[test]
    fn burst_states_differ_across_prefixes_and_seeds() {
        let ge = GilbertElliott::default();
        let days: Vec<Day> = (0..300).map(Day).collect();
        let a: Vec<bool> = days.iter().map(|d| ge.bad_on(1, 1 << 32, *d)).collect();
        let b: Vec<bool> = days.iter().map(|d| ge.bad_on(1, 2 << 32, *d)).collect();
        let c: Vec<bool> = days.iter().map(|d| ge.bad_on(2, 1 << 32, *d)).collect();
        assert_ne!(a, b, "independent per prefix");
        assert_ne!(a, c, "seed changes the realization");
    }

    #[test]
    fn loss_composes_by_max() {
        let f = FaultConfig::lossless()
            .with_drop_permille(10)
            .with_proto_drop(Protocol::Udp53, 300)
            .with_as_drop(4134, 500);
        let a: Addr = "2001:db8::1".parse().unwrap();
        assert_eq!(f.loss_permille(1, a, Some(Protocol::Icmp), None, Day(0)), 10);
        assert_eq!(f.loss_permille(1, a, Some(Protocol::Udp53), None, Day(0)), 300);
        assert_eq!(f.loss_permille(1, a, Some(Protocol::Udp53), Some(4134), Day(0)), 500);
        assert_eq!(f.loss_permille(1, a, Some(Protocol::Icmp), Some(9999), Day(0)), 10);
    }

    #[test]
    fn outage_windows_half_open() {
        let f = FaultConfig::lossless()
            .with_outage(Outage::vantage(Day(10), Day(12)))
            .with_outage(Outage::asn(4134, Day(20), Day(25)))
            .with_outage(Outage::protocol(Protocol::Udp53, Day(30), Day(33)));
        assert!(!f.vantage_down(Day(9)));
        assert!(f.vantage_down(Day(10)));
        assert!(f.vantage_down(Day(11)));
        assert!(!f.vantage_down(Day(12)));
        assert!(f.asn_down(4134, Day(20)));
        assert!(!f.asn_down(4134, Day(25)));
        assert!(!f.asn_down(3356, Day(20)));
        assert!(!f.proto_down(Protocol::Udp53, Day(29)));
        assert!(f.proto_down(Protocol::Udp53, Day(30)));
        assert!(f.proto_down(Protocol::Udp53, Day(32)));
        assert!(!f.proto_down(Protocol::Udp53, Day(33)));
        assert!(!f.proto_down(Protocol::Icmp, Day(30)), "other protocols stay up");
    }
}
