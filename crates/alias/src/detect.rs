//! Multi-level aliased prefix detection, as deployed by the IPv6 Hitlist
//! service (Gasser et al. 2018; described in Sec. 3.1 of the paper).
//!
//! Candidate prefixes:
//!
//! 1. every IPv6 prefix announced in BGP,
//! 2. every /64 with at least one address in the service input,
//! 3. longer prefixes (in 4-bit steps: /68 … /124) holding at least 100
//!    input addresses.
//!
//! For each candidate the detector draws **one pseudo-random address in
//! each of its 16 nibble sub-prefixes** and probes ICMP and TCP/80. If all
//! 16 answer (on either protocol), the prefix is *fully responsive*.
//! Results are merged with the previous three detection rounds so that a
//! single lossy round cannot clear (or set) the label — the ablation bench
//! shows the misclassification rate without that merge.

use std::collections::{HashMap, HashSet};

use sixdust_addr::{prf, Addr, Prefix, PrefixSet};
use sixdust_json::json_struct;
use sixdust_net::{Day, Internet, ProbeKind, ProbeTally, Response};
use sixdust_telemetry::{Registry, SpanTimer};

/// Detector configuration.
///
/// Construct with the chainable `with_*` methods on
/// [`DetectorConfig::default`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Minimum input addresses for longer-than-/64 candidates.
    pub min_addrs_long: usize,
    /// How many past rounds are merged into the current label.
    pub merge_rounds: usize,
    /// Per-round probe seed basis.
    pub seed: u64,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig { min_addrs_long: 100, merge_rounds: 3, seed: 0xA11A5 }
    }
}

impl DetectorConfig {
    /// Returns the config with the long-prefix address floor replaced.
    pub fn with_min_addrs_long(mut self, min_addrs_long: usize) -> DetectorConfig {
        self.min_addrs_long = min_addrs_long;
        self
    }

    /// Returns the config with the merge-window size replaced.
    pub fn with_merge_rounds(mut self, merge_rounds: usize) -> DetectorConfig {
        self.merge_rounds = merge_rounds;
        self
    }

    /// Returns the config with the probe seed basis replaced.
    pub fn with_seed(mut self, seed: u64) -> DetectorConfig {
        self.seed = seed;
        self
    }
}

/// A prefix labeled fully responsive, with the protocols that answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectedPrefix {
    /// The fully responsive prefix.
    pub prefix: Prefix,
    /// Whether all 16 probes answered ICMP.
    pub icmp: bool,
    /// Whether all 16 probes answered TCP/80.
    pub tcp80: bool,
}
json_struct!(DetectedPrefix { prefix, icmp, tcp80 });

/// One detection round's outcome.
#[derive(Debug, Clone)]
pub struct DetectionRound {
    /// Day the round ran.
    pub day: Day,
    /// Prefixes fully responsive in *this* round.
    pub detected: Vec<DetectedPrefix>,
    /// Candidates probed.
    pub candidates: usize,
    /// Probes sent (16 per candidate and protocol).
    pub probes: u64,
}

/// The stateful detector (holds the merge window).
#[derive(Debug, Clone, Default)]
pub struct AliasDetector {
    history: Vec<HashSet<Prefix>>,
    last_round_info: HashMap<Prefix, DetectedPrefix>,
    config: DetectorConfig,
    /// Optional metrics sink; not part of checkpointed state.
    telemetry: Option<Registry>,
}

/// Builds the candidate prefix list from the BGP table and the service
/// input. Pure function of public data — no ground truth consulted.
///
/// Memory-conscious: the input can hold hundreds of thousands of
/// addresses, so the per-length counting walks a sorted copy instead of
/// hashing every (address, length) pair.
pub fn candidates(net: &Internet, input: &[Addr], min_addrs_long: usize) -> Vec<Prefix> {
    // 1. BGP-announced prefixes (only those that can have 16 nibble subs).
    let mut found: Vec<Prefix> =
        net.registry().announced_prefixes().map(|(p, _)| p).filter(|p| p.len() <= 124).collect();
    let mut sorted: Vec<Addr> = input.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    // 2. /64s with at least one input address, each once.
    for a in &sorted {
        let subnet = Prefix::new(*a, 64);
        if found.last() != Some(&subnet) {
            found.push(subnet);
        }
    }
    // 3. Longer prefixes (4-bit steps) with >= min_addrs_long addresses:
    // consecutive runs in sorted order share prefixes, so one linear pass
    // per length suffices.
    for plen in (68..=124u8).step_by(4) {
        let shift = 128 - u32::from(plen);
        let mut run_start = 0usize;
        for i in 1..=sorted.len() {
            let boundary =
                i == sorted.len() || (sorted[i].0 >> shift) != (sorted[run_start].0 >> shift);
            if boundary {
                if i - run_start >= min_addrs_long {
                    found.push(Prefix::new(sorted[run_start], plen));
                }
                run_start = i;
            }
        }
    }
    // A /64 or a longer prefix may be announced as well.
    found.sort_unstable();
    found.dedup();
    found
}

impl AliasDetector {
    /// Creates a detector.
    pub fn new(config: DetectorConfig) -> AliasDetector {
        AliasDetector { config, ..AliasDetector::default() }
    }

    /// The configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Attaches a metrics registry: every subsequent [`run_round`]
    /// records `alias.rounds` / `alias.candidates` / `alias.probes` /
    /// `alias.detected` counters and the `alias.round_ms` histogram.
    ///
    /// [`run_round`]: AliasDetector::run_round
    pub fn set_telemetry(&mut self, registry: Registry) {
        self.telemetry = Some(registry);
    }

    /// Probes one candidate: 16 pseudo-random addresses, one per nibble
    /// sub-prefix, each resolved once and probed on ICMP and TCP/80.
    /// Returns per-protocol all-16 flags and the probes sent; what the
    /// simulator counts goes to the caller's `tally`.
    fn probe_prefix(
        net: &Internet,
        prefix: Prefix,
        day: Day,
        seed: u64,
        tally: &mut ProbeTally,
    ) -> (bool, bool, u64) {
        let mut icmp_all = true;
        let mut tcp_all = true;
        let mut probes = 0u64;
        for (i, sub) in prefix.nibble_subprefixes().enumerate() {
            let target = net.resolve(sub.random_addr(prf::mix2(seed, i as u64)), day);
            if icmp_all {
                probes += 1;
                let ok = net
                    .probe_resolved(&target, &ProbeKind::IcmpEcho { size: 8 }, 0, tally)
                    .iter()
                    .any(|r| matches!(r, Response::EchoReply { .. }));
                icmp_all &= ok;
            }
            if tcp_all {
                probes += 1;
                let ok = net
                    .probe_resolved(&target, &ProbeKind::TcpSyn { port: 80 }, 0, tally)
                    .iter()
                    .any(|r| matches!(r, Response::SynAck { .. }));
                tcp_all &= ok;
            }
            if !icmp_all && !tcp_all {
                // Early exit: candidate already disqualified on both.
                break;
            }
        }
        (icmp_all, tcp_all, probes)
    }

    /// Runs a detection round over the given candidates and merges it into
    /// the label window.
    pub fn run_round(&mut self, net: &Internet, cands: &[Prefix], day: Day) -> DetectionRound {
        let _round_span =
            self.telemetry.as_ref().map(|t| SpanTimer::start(&t.histogram("alias.round_ms")));
        let _trace_span = self.telemetry.as_ref().and_then(|t| t.tracer()).map(|j| {
            j.span_with(
                "alias.round",
                &[
                    ("day", day.0.to_string().as_str()),
                    ("candidates", cands.len().to_string().as_str()),
                ],
            )
        });
        let seed = prf::mix2(self.config.seed, u64::from(day.0));
        let mut detected = Vec::new();
        let mut probes = 0u64;
        // One tally per round: its probes reach the shared counters in
        // one add when the round is done.
        let mut tally = ProbeTally::default();
        for &p in cands {
            let ps = prf::mix2(seed, p.network().iid() ^ u64::from(p.len()));
            let (icmp, tcp80, n) = Self::probe_prefix(net, p, day, ps, &mut tally);
            probes += n;
            if icmp || tcp80 {
                let d = DetectedPrefix { prefix: p, icmp, tcp80 };
                self.last_round_info.insert(p, d);
                detected.push(d);
            }
        }
        net.counters().add(&tally);
        let this_round: HashSet<Prefix> = detected.iter().map(|d| d.prefix).collect();
        self.history.push(this_round);
        if self.history.len() > self.config.merge_rounds + 1 {
            self.history.remove(0);
        }
        if let Some(reg) = &self.telemetry {
            reg.counter("alias.rounds").incr();
            reg.counter("alias.candidates").add(cands.len() as u64);
            reg.counter("alias.probes").add(probes);
            reg.counter("alias.detected").add(detected.len() as u64);
        }
        DetectionRound { day, detected, candidates: cands.len(), probes }
    }

    /// The current label set: the union over the merge window.
    pub fn aliased(&self) -> PrefixSet {
        self.history.iter().flatten().copied().collect()
    }

    /// The merge window, oldest round first: the prefixes each round
    /// detected, ascending. With [`AliasDetector::detected_details`] it is
    /// what a checkpoint keeps of a detector.
    pub fn window(&self) -> Vec<Vec<Prefix>> {
        let ascending = |round: &HashSet<Prefix>| {
            let mut round: Vec<Prefix> = round.iter().copied().collect();
            round.sort_unstable();
            round
        };
        self.history.iter().map(ascending).collect()
    }

    /// Puts back what [`AliasDetector::window`] and
    /// [`AliasDetector::detected_details`] returned, so the next rounds
    /// merge into the window the checkpointed detector had; an empty
    /// window is a cold start. Rounds older than this detector's
    /// `merge_rounds` reaches are left out.
    pub fn restore(&mut self, window: &[Vec<Prefix>], details: &[DetectedPrefix]) {
        let reach = window.len().saturating_sub(self.config.merge_rounds + 1);
        self.history = window[reach..].iter().map(|r| r.iter().copied().collect()).collect();
        self.last_round_info = details.iter().map(|d| (d.prefix, *d)).collect();
    }

    /// All labeled prefixes with their per-protocol detection detail.
    pub fn detected_details(&self) -> Vec<DetectedPrefix> {
        let labels = self.aliased();
        let mut v: Vec<DetectedPrefix> =
            labels.iter().filter_map(|p| self.last_round_info.get(&p).copied()).collect();
        v.sort_unstable_by_key(|d| d.prefix);
        v
    }
}

/// Removes prefixes covered by another prefix in the set (keeps the
/// shortest covering labels); used for per-AS aliased-space accounting
/// (Fig. 6) so a /64 inside a labeled /48 is not double counted.
pub fn minimal_cover(prefixes: &[Prefix]) -> Vec<Prefix> {
    let mut sorted: Vec<Prefix> = prefixes.to_vec();
    sorted.sort_unstable();
    let mut out: Vec<Prefix> = Vec::new();
    for p in sorted {
        if let Some(last) = out.last() {
            if last.covers(p) {
                continue;
            }
        }
        // A shorter covering prefix sorts before p only when it shares the
        // network bits; the single look-back is sufficient because sorted
        // order groups covered prefixes directly after their cover.
        if !out.iter().rev().take(4).any(|q| q.covers(p)) {
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixdust_net::{FaultConfig, Scale};

    fn net() -> Internet {
        Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless())
    }

    #[test]
    fn candidate_classes() {
        let net = net();
        let input: Vec<Addr> =
            (0..150u128).map(|i| Addr(0x2001_0db8_0000_0000_0000_0000_0000_0000u128 + i)).collect();
        let cands = candidates(&net, &input, 100);
        // The /64 of the input cluster is a candidate.
        assert!(cands.contains(&"2001:db8::/64".parse().unwrap()));
        // 150 addresses within one /120: every 4-bit level from /68 on is
        // a candidate around them.
        assert!(cands.contains(&"2001:db8::/120".parse().unwrap()));
        assert!(cands.contains(&"2001:db8::/68".parse().unwrap()));
        // BGP prefixes are included.
        let some_bgp = net.registry().announced_prefixes().next().unwrap().0;
        assert!(cands.contains(&some_bgp));
    }

    /// `candidates` as it read before: every class thrown into a hash set,
    /// which did the deduplicating.
    fn candidates_by_hashing(net: &Internet, input: &[Addr], min_addrs_long: usize) -> Vec<Prefix> {
        let mut set: HashSet<Prefix> = net
            .registry()
            .announced_prefixes()
            .map(|(p, _)| p)
            .filter(|p| p.len() <= 124)
            .collect();
        let mut sorted: Vec<Addr> = input.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        set.extend(sorted.iter().map(|a| Prefix::new(*a, 64)));
        for plen in (68..=124u8).step_by(4) {
            let shift = 128 - u32::from(plen);
            let mut run_start = 0usize;
            for i in 1..=sorted.len() {
                let boundary =
                    i == sorted.len() || (sorted[i].0 >> shift) != (sorted[run_start].0 >> shift);
                if boundary {
                    if i - run_start >= min_addrs_long {
                        set.insert(Prefix::new(sorted[run_start], plen));
                    }
                    run_start = i;
                }
            }
        }
        let mut v: Vec<Prefix> = set.into_iter().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn candidates_are_the_hashed_set_in_order() {
        let net = net();
        let announced: Vec<Prefix> = net.registry().announced_prefixes().map(|(p, _)| p).collect();
        let mut rng = prf::PrfStream::new(0xca4d, 0, 0);
        for case in 0..40u64 {
            let min_addrs_long = [1, 2, 5, 100][(case % 4) as usize];
            let mut input: Vec<Addr> = Vec::new();
            // Clusters one short of, at and one past the floor, under
            // prefixes of every candidate length, some inside announced
            // space (where a /64 or a longer prefix can be announced too).
            for cluster in 0..12u64 {
                let base = if cluster % 3 == 0 {
                    announced[rng.next_bounded(announced.len() as u64) as usize].random_addr(case).0
                } else {
                    u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())
                };
                let plen = 64 + 4 * rng.next_bounded(16) as u32;
                let room = 128 - plen;
                let size = (min_addrs_long + cluster as usize % 3).saturating_sub(1).max(1);
                for _ in 0..size {
                    let inside = u128::from(rng.next_u64()) & ((1u128 << room) - 1).max(1);
                    input.push(Addr((base >> room << room) | inside));
                }
            }
            // Duplicates, and no particular order.
            let repeats: Vec<Addr> = input.iter().copied().step_by(3).collect();
            input.extend(repeats);
            input.sort_by_key(|a| prf::prf_u128(case, a.0, 1));
            let found = candidates(&net, &input, min_addrs_long);
            assert_eq!(found, candidates_by_hashing(&net, &input, min_addrs_long), "case {case}");
            let long = found.iter().filter(|p| p.len() > 64).count();
            assert!(long > 0 || min_addrs_long == 100, "case {case}: {long} long candidates");
        }
        assert_eq!(candidates(&net, &[], 100), candidates_by_hashing(&net, &[], 100));
    }

    #[test]
    fn detects_planted_aliased_prefixes_and_not_servers() {
        let net = net();
        let day = Day(100);
        let truth: Vec<Prefix> = net
            .population()
            .aliased_groups(day)
            .filter(|g| g.protos.contains(sixdust_net::Protocol::Icmp))
            .map(|g| g.prefix)
            .take(30)
            .collect();
        // Use a couple of live server /64s as negative controls.
        let negatives: Vec<Prefix> = net
            .population()
            .enumerate_responsive(day)
            .iter()
            .take(10)
            .map(|(a, ..)| Prefix::new(*a, 64))
            .collect();
        let mut cands = truth.clone();
        cands.extend(negatives.iter().copied());
        let mut det = AliasDetector::new(DetectorConfig::default());
        let round = det.run_round(&net, &cands, day);
        let labeled = det.aliased();
        for p in &truth {
            assert!(labeled.contains_exact(*p), "missed {p}");
        }
        for p in &negatives {
            // A server /64 would require 16 random addresses to respond.
            assert!(
                !labeled.contains_exact(*p) || truth.iter().any(|t| t.covers(*p)),
                "false positive {p}"
            );
        }
        assert!(round.probes > 0);
    }

    #[test]
    fn merge_window_masks_single_round_loss() {
        let lossy = Internet::build(Scale::tiny())
            .with_faults(FaultConfig::lossless().with_drop_permille(60));
        let day = Day(100);
        let truth: Vec<Prefix> = lossy
            .population()
            .aliased_groups(day)
            .filter(|g| g.protos.contains(sixdust_net::Protocol::Icmp))
            .map(|g| g.prefix)
            .take(60)
            .collect();
        let mut det = AliasDetector::new(DetectorConfig::default());
        // Single round: ~6 % loss per probe means ~1-(0.94^16) ≈ 60 % of
        // prefixes would drop at least one ICMP probe; TCP rescues many but
        // single-round detection still misses a chunk.
        let r1 = det.run_round(&lossy, &truth, day);
        let single = r1.detected.len();
        for gap in [1u32, 2, 3] {
            det.run_round(&lossy, &truth, day.plus(gap));
        }
        let merged = det.aliased();
        let merged_hits = truth.iter().filter(|p| merged.contains_exact(**p)).count();
        assert!(
            merged_hits >= single,
            "merging rounds cannot lose labels: {merged_hits} vs {single}"
        );
        // ICMP-only prefixes detect with p≈0.37 per round at 6 % loss;
        // four merged rounds lift that to ≈0.84 (dual-protocol prefixes
        // reach ≈0.97). Require clear improvement over a single round.
        assert!(
            merged_hits as f64 >= truth.len() as f64 * 0.75,
            "merge recovers most: {merged_hits}/{}",
            truth.len()
        );
        assert!(merged_hits > truth.len() / 2, "sanity: {merged_hits}/{}", truth.len());
    }

    #[test]
    fn trafficforce_flood_detected_only_after_event() {
        let net = net();
        let tf = net.registry().by_asn(212144).unwrap();
        let tf_prefixes: Vec<Prefix> = net
            .population()
            .aliased_groups(sixdust_net::events::TRAFFICFORCE_FLOOD.plus(1))
            .filter(|g| g.asid == tf)
            .map(|g| g.prefix)
            .take(20)
            .collect();
        assert!(!tf_prefixes.is_empty());
        let mut det = AliasDetector::new(DetectorConfig::default());
        let before = det.run_round(&net, &tf_prefixes, Day(1000));
        assert!(before.detected.is_empty());
        let after =
            det.run_round(&net, &tf_prefixes, sixdust_net::events::TRAFFICFORCE_FLOOD.plus(2));
        assert_eq!(after.detected.len(), tf_prefixes.len());
        // ICMP-only: TCP/80 must NOT have detected them.
        assert!(after.detected.iter().all(|d| d.icmp && !d.tcp80));
    }

    #[test]
    fn builder_reproduces_default_and_round_metrics_reconcile() {
        assert_eq!(
            DetectorConfig::default().with_min_addrs_long(5).with_merge_rounds(0).with_seed(9),
            DetectorConfig { min_addrs_long: 5, merge_rounds: 0, seed: 9 }
        );
        let net = net();
        let day = Day(100);
        let cands: Vec<Prefix> =
            net.population().aliased_groups(day).map(|g| g.prefix).take(10).collect();
        let mut det = AliasDetector::new(DetectorConfig::default());
        let reg = sixdust_telemetry::Registry::new();
        det.set_telemetry(reg.clone());
        let round = det.run_round(&net, &cands, day);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("alias.rounds"), Some(1));
        assert_eq!(snap.counter("alias.candidates"), Some(cands.len() as u64));
        assert_eq!(snap.counter("alias.probes"), Some(round.probes));
        assert_eq!(snap.counter("alias.detected"), Some(round.detected.len() as u64));
        assert_eq!(snap.histogram("alias.round_ms").unwrap().count, 1);
    }

    #[test]
    fn a_round_counts_on_the_simulator_what_it_reports() {
        let day = Day(100);
        let world = net();
        // Aliased prefixes (all 32 probes sent) and server /64s (early
        // exit after the first silent address).
        let mut cands: Vec<Prefix> =
            world.population().aliased_groups(day).map(|g| g.prefix).take(20).collect();
        cands.extend(
            world
                .population()
                .enumerate_responsive(day)
                .iter()
                .take(20)
                .map(|(a, ..)| Prefix::new(*a, 64)),
        );
        let net = net();
        let mut det = AliasDetector::new(DetectorConfig::default());
        let round = det.run_round(&net, &cands, day);
        // The round adds its tally once; after the round the shared
        // counter is exact.
        assert_eq!(net.counters().probes.get(), round.probes);
        assert!(round.probes > 20 * 32, "{} probes", round.probes);
    }

    #[test]
    fn minimal_cover_dedups() {
        let ps: Vec<Prefix> =
            ["2001:db8::/48", "2001:db8::/64", "2001:db8:0:1::/64", "2001:db9::/64"]
                .iter()
                .map(|s| s.parse().unwrap())
                .collect();
        let cover = minimal_cover(&ps);
        assert_eq!(cover, vec!["2001:db8::/48".parse().unwrap(), "2001:db9::/64".parse().unwrap()]);
    }
}
