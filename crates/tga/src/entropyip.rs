//! Entropy/IP-style generation (Foremski et al. 2016).
//!
//! Entropy/IP segments the address into runs of nibble positions with
//! similar entropy, models each segment's value distribution, and samples
//! new addresses segment-by-segment (the original adds a Bayesian network
//! over segments; this implementation samples segments independently,
//! which preserves the method's qualitative yield). Included because the
//! lineage 6Gen → 6Tree → … starts here and the paper's related-work
//! section frames every TGA against it.

use std::collections::HashMap;

use sixdust_addr::{prf, Addr};

use crate::corpus::{dedup_excluding, nibble_entropy};
use crate::TargetGenerator;

/// Entropy/IP-style generator configuration.
#[derive(Debug, Clone)]
pub struct EntropyIp {
    /// Entropy difference that starts a new segment.
    pub split_threshold: f64,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for EntropyIp {
    fn default() -> EntropyIp {
        EntropyIp { split_threshold: 0.8, seed: 0xE17 }
    }
}

/// A segment of adjacent nibble positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// First nibble position (inclusive).
    pub start: usize,
    /// Last nibble position (exclusive).
    pub end: usize,
}

/// Splits positions into segments of similar entropy.
pub fn segment(entropy: &[f64; 32], threshold: f64) -> Vec<Segment> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for i in 1..32 {
        if (entropy[i] - entropy[i - 1]).abs() > threshold {
            out.push(Segment { start, end: i });
            start = i;
        }
    }
    out.push(Segment { start, end: 32 });
    out
}

impl TargetGenerator for EntropyIp {
    fn name(&self) -> &'static str {
        "entropy-ip"
    }

    fn generate(&self, seeds: &[Addr], budget: usize) -> Vec<Addr> {
        if seeds.len() < 4 {
            return Vec::new();
        }
        let entropy = nibble_entropy(seeds);
        let segments = segment(&entropy, self.split_threshold);
        // Per-segment value distribution (over observed seed values).
        let nibble_seeds: Vec<[u8; 32]> = seeds.iter().map(|a| a.nibbles()).collect();
        let mut seg_values: Vec<Vec<(Vec<u8>, u32)>> = Vec::with_capacity(segments.len());
        for seg in &segments {
            let mut counts: HashMap<Vec<u8>, u32> = HashMap::new();
            for s in &nibble_seeds {
                *counts.entry(s[seg.start..seg.end].to_vec()).or_insert(0) += 1;
            }
            let mut v: Vec<(Vec<u8>, u32)> = counts.into_iter().collect();
            v.sort(); // deterministic order
            seg_values.push(v);
        }
        let mut rng = prf::PrfStream::new(self.seed, seeds.len() as u128, 0xE1B);
        let mut out = Vec::new();
        for _ in 0..budget * 2 {
            if out.len() >= budget {
                break;
            }
            let mut cand = [0u8; 32];
            for (seg, values) in segments.iter().zip(&seg_values) {
                let total: u32 = values.iter().map(|(_, c)| *c).sum();
                let mut pick = (rng.next_u64() % u64::from(total.max(1))) as u32;
                for (val, c) in values {
                    if pick < *c {
                        cand[seg.start..seg.end].copy_from_slice(val);
                        break;
                    }
                    pick -= c;
                }
            }
            out.push(Addr::from_nibbles(&cand));
        }
        dedup_excluding(out, seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segmentation_splits_on_entropy_jump() {
        let mut h = [0f64; 32];
        for v in h.iter_mut().skip(28) {
            *v = 4.0;
        }
        let segs = segment(&h, 0.8);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], Segment { start: 0, end: 28 });
        assert_eq!(segs[1], Segment { start: 28, end: 32 });
    }

    #[test]
    fn flat_entropy_single_segment() {
        let h = [0f64; 32];
        assert_eq!(segment(&h, 0.8).len(), 1);
    }

    #[test]
    fn recombines_segment_values() {
        // Two independent varying segments: subnet in {1,2}, host in
        // {0x10, 0x20}; seeds only cover 3 of the 4 combinations — the
        // generator should produce the missing one.
        let base = 0x2001_0db8_0001u128 << 80;
        let seeds = vec![
            Addr(base | (1u128 << 64) | 0x10),
            Addr(base | (1u128 << 64) | 0x20),
            Addr(base | (2u128 << 64) | 0x10),
            Addr(base | (1u128 << 64) | 0x10), // duplicate weight
        ];
        let gen = EntropyIp { split_threshold: 0.3, ..Default::default() }.generate(&seeds, 200);
        let missing = Addr(base | (2u128 << 64) | 0x20);
        assert!(gen.contains(&missing), "{gen:?}");
    }

    #[test]
    fn budget_and_determinism() {
        let seeds: Vec<Addr> =
            (1..60u128).map(|i| Addr((0x2001_0db8u128 << 96) | (i * 9))).collect();
        let a = EntropyIp::default().generate(&seeds, 77);
        let b = EntropyIp::default().generate(&seeds, 77);
        assert_eq!(a, b);
        assert!(a.len() <= 77);
    }
}
