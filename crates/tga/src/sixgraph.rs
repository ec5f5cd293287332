//! 6Graph (Yang et al. 2022): graph-theoretic pattern mining.
//!
//! 6Graph mines address *patterns*: seeds are connected when they are
//! close in nibble space, connected components become pattern outlines
//! (fixed nibbles + wildcard dimensions with observed value sets), and
//! generation fills the wildcard combinations. Compared with 6Tree it
//! merges sibling /64s of the same deployment into one pattern —
//! wildcarding subnet nibbles as well — which yields a larger candidate
//! volume at a lower hit rate (the Table 4 relationship).

use std::collections::BTreeMap;

use sixdust_addr::Addr;

use crate::corpus::{by_network, dedup_excluding};
use crate::TargetGenerator;

/// 6Graph configuration.
#[derive(Debug, Clone)]
pub struct SixGraph {
    /// Minimum seeds for a /64 bucket to form a pattern.
    pub min_bucket: usize,
    /// Maximum wildcard dimensions enumerated per pattern.
    pub max_wildcards: usize,
}

impl Default for SixGraph {
    fn default() -> SixGraph {
        SixGraph { min_bucket: 4, max_wildcards: 4 }
    }
}

/// A mined pattern: a nibble template plus wildcard positions with their
/// observed value ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Template nibbles (wildcard positions hold the minimum value).
    pub template: [u8; 32],
    /// `(position, lo, hi)` wildcard dimensions.
    pub wildcards: Vec<(usize, u8, u8)>,
    /// Seeds supporting the pattern.
    pub support: usize,
}

impl Pattern {
    /// Number of candidate combinations the pattern spans.
    pub fn combinations(&self) -> u64 {
        self.wildcards.iter().map(|(_, lo, hi)| u64::from(hi - lo) + 1).product()
    }

    /// Seed density over the pattern space.
    pub fn density(&self) -> f64 {
        self.support as f64 / self.combinations().max(1) as f64
    }

    /// Enumerates candidates into `out`, stopping at `budget` total.
    fn enumerate(&self, out: &mut Vec<Addr>, budget: usize) {
        let mut idx: Vec<u8> = self.wildcards.iter().map(|(_, lo, _)| *lo).collect();
        loop {
            let mut cand = self.template;
            for (k, (d, ..)) in self.wildcards.iter().enumerate() {
                cand[*d] = idx[k];
            }
            out.push(Addr::from_nibbles(&cand));
            if out.len() >= budget {
                return;
            }
            let mut k = 0;
            loop {
                if k == self.wildcards.len() {
                    return;
                }
                if idx[k] < self.wildcards[k].2 {
                    idx[k] += 1;
                    break;
                }
                idx[k] = self.wildcards[k].1;
                k += 1;
            }
        }
    }
}

/// Mines per-/64 patterns and merges sibling /64s into /48-wide patterns.
pub fn mine_patterns(seeds: &[Addr], min_bucket: usize, max_wildcards: usize) -> Vec<Pattern> {
    let buckets = by_network(seeds);
    let mut patterns: Vec<Pattern> = Vec::new();
    // Sibling merge: group /64 buckets by /48.
    let mut by48: BTreeMap<u64, Vec<(u64, &Vec<Addr>)>> = BTreeMap::new();
    for (net, addrs) in &buckets {
        by48.entry(net >> 16).or_default().push((*net, addrs));
    }
    for (_net48, siblings) in by48 {
        let qualified: Vec<&(u64, &Vec<Addr>)> =
            siblings.iter().filter(|(_, a)| a.len() >= min_bucket).collect();
        if qualified.is_empty() {
            continue;
        }
        // Pool all sibling seeds into one pattern: wildcards cover both the
        // varying subnet nibbles and the varying IID nibbles.
        let pooled: Vec<Addr> = qualified.iter().flat_map(|(_, a)| a.iter().copied()).collect();
        let nibbles: Vec<[u8; 32]> = pooled.iter().map(|a| a.nibbles()).collect();
        let mut wildcards = Vec::new();
        for pos in 0..32 {
            let lo = nibbles.iter().map(|n| n[pos]).min().expect("nonempty");
            let hi = nibbles.iter().map(|n| n[pos]).max().expect("nonempty");
            if lo != hi {
                wildcards.push((pos, lo, hi));
            }
        }
        // Always open the final nibble fully (pattern outlines end with a
        // free low dimension).
        match wildcards.iter_mut().find(|(p, ..)| *p == 31) {
            Some(w) => {
                w.1 = 0;
                w.2 = 0xf;
            }
            None => wildcards.push((31, 0, 0xf)),
        }
        // Keep the highest-variance dimensions within the cap, preferring
        // the rightmost (IID) dimensions.
        if wildcards.len() > max_wildcards {
            wildcards.sort_by_key(|(p, ..)| std::cmp::Reverse(*p));
            wildcards.truncate(max_wildcards);
            wildcards.sort_by_key(|(p, ..)| *p);
        }
        patterns.push(Pattern { template: nibbles[0], wildcards, support: pooled.len() });
    }
    patterns
}

impl TargetGenerator for SixGraph {
    fn name(&self) -> &'static str {
        "6graph"
    }

    fn generate(&self, seeds: &[Addr], budget: usize) -> Vec<Addr> {
        let mut patterns = mine_patterns(seeds, self.min_bucket, self.max_wildcards);
        patterns.sort_by(|a, b| b.density().partial_cmp(&a.density()).expect("finite"));
        let mut out = Vec::new();
        for p in &patterns {
            if out.len() >= budget {
                break;
            }
            p.enumerate(&mut out, budget);
        }
        dedup_excluding(out, seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_mining_finds_wildcards() {
        let net = 0x2001_0db8_0000_0005u128 << 64;
        let seeds: Vec<Addr> = (0..8u128).map(|i| Addr(net | (0x100 + i * 2))).collect();
        let patterns = mine_patterns(&seeds, 4, 4);
        assert_eq!(patterns.len(), 1);
        let p = &patterns[0];
        assert!(p.wildcards.iter().any(|(pos, ..)| *pos == 31));
        assert_eq!(p.support, 8);
        assert!(p.combinations() >= 16);
    }

    #[test]
    fn sibling_64s_merge_into_wider_pattern() {
        // Two /64s of the same /48 with the same low-byte deployment.
        let mut seeds = Vec::new();
        for subnet in [1u128, 2] {
            let net = (0x2001_0db8_0001u128 << 80) | (subnet << 64);
            seeds.extend((1..=6u128).map(|i| Addr(net | i)));
        }
        let patterns = mine_patterns(&seeds, 4, 4);
        assert_eq!(patterns.len(), 1, "siblings merged");
        let p = &patterns[0];
        // The subnet nibble (position 15) must be wildcarded.
        assert!(
            p.wildcards.iter().any(|(pos, lo, hi)| *pos == 15 && *lo == 1 && *hi == 2),
            "{:?}",
            p.wildcards
        );
        // Generation produces addresses in both /64s and beyond the seeds.
        let gen = SixGraph::default().generate(&seeds, 100);
        assert!(gen.iter().any(|a| (a.0 >> 64) & 0xffff == 1));
        assert!(gen.iter().any(|a| (a.0 >> 64) & 0xffff == 2));
    }

    #[test]
    fn small_buckets_ignored() {
        let net = 0x2001_0db8u128 << 96;
        let seeds: Vec<Addr> = (0..3u128).map(|i| Addr(net | i)).collect();
        assert!(mine_patterns(&seeds, 4, 4).is_empty());
        assert!(SixGraph::default().generate(&seeds, 100).is_empty());
    }

    #[test]
    fn budget_and_dedup() {
        let net = 0x2001_0db8_0000_0009u128 << 64;
        let seeds: Vec<Addr> = (0..16u128).map(|i| Addr(net | i)).collect();
        let gen = SixGraph::default().generate(&seeds, 50);
        assert!(gen.len() <= 50);
        for g in &gen {
            assert!(!seeds.contains(g));
        }
    }

    #[test]
    fn wildcard_cap_enforced() {
        // Seeds varying in 6 positions; cap at 4.
        let seeds: Vec<Addr> =
            (0..32u128).map(|i| Addr((0x2001_0db8_0000_0100u128 << 64) | (i * 0x11111))).collect();
        let patterns = mine_patterns(&seeds, 4, 4);
        assert!(patterns.iter().all(|p| p.wildcards.len() <= 4));
    }
}
