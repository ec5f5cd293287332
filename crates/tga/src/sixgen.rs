//! 6Gen (Murdock et al., IMC 2017): seed-density cluster growth.
//!
//! 6Gen is the direct ancestor of the whole TGA lineage the paper
//! evaluates (it produced the 55 M-address hitlist of which 98 % turned
//! out to be aliased — the finding that motivated multi-level alias
//! detection in the first place). The algorithm grows *ranges* around
//! dense seed clusters: starting from each seed as a degenerate range, it
//! repeatedly widens the nibble range that gains the most seeds per added
//! address, then emits the covered addresses.
//!
//! This implementation keeps 6Gen's greedy range-growth core with a
//! budgeted emit phase, organized per /64 like the reference tool's
//! cluster loop.

use sixdust_addr::Addr;

use crate::corpus::{by_network, dedup_excluding};
use crate::TargetGenerator;

/// 6Gen configuration.
#[derive(Debug, Clone)]
pub struct SixGen {
    /// Number of range-growth steps per cluster.
    pub growth_steps: usize,
    /// Minimum seeds per /64 bucket to grow a cluster.
    pub min_bucket: usize,
}

impl Default for SixGen {
    fn default() -> SixGen {
        SixGen { growth_steps: 8, min_bucket: 2 }
    }
}

/// A nibble range: per-position low/high bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NibbleRange {
    /// Inclusive per-position bounds.
    pub bounds: [(u8, u8); 32],
}

impl NibbleRange {
    /// The degenerate range of one address.
    pub fn of(addr: Addr) -> NibbleRange {
        let n = addr.nibbles();
        let mut bounds = [(0u8, 0u8); 32];
        for (i, v) in n.iter().enumerate() {
            bounds[i] = (*v, *v);
        }
        NibbleRange { bounds }
    }

    /// Whether an address falls inside the range.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.nibbles().iter().zip(self.bounds.iter()).all(|(v, (lo, hi))| v >= lo && v <= hi)
    }

    /// Number of addresses covered (saturating).
    pub fn size(&self) -> u128 {
        let mut s: u128 = 1;
        for (lo, hi) in self.bounds.iter() {
            s = s.saturating_mul(u128::from(hi - lo) + 1);
        }
        s
    }

    /// Grows the single dimension whose widening to cover `seeds` gains
    /// the most seeds per added address. Returns false when no dimension
    /// can grow usefully.
    pub fn grow_best(&mut self, seeds: &[[u8; 32]]) -> bool {
        let mut best: Option<(usize, u8, u8, f64)> = None;
        for pos in 0..32 {
            let (lo, hi) = self.bounds[pos];
            // Candidate widened bounds: the min/max of seeds matching the
            // range on every *other* dimension.
            let mut new_lo = lo;
            let mut new_hi = hi;
            let mut gained = 0u64;
            for s in seeds {
                let matches_others = s
                    .iter()
                    .enumerate()
                    .all(|(i, v)| i == pos || (*v >= self.bounds[i].0 && *v <= self.bounds[i].1));
                if matches_others {
                    if s[pos] < lo || s[pos] > hi {
                        gained += 1;
                    }
                    new_lo = new_lo.min(s[pos]);
                    new_hi = new_hi.max(s[pos]);
                }
            }
            if gained == 0 || (new_lo == lo && new_hi == hi) {
                continue;
            }
            let added = (u128::from(new_hi - new_lo) + 1) as f64 / (u128::from(hi - lo) + 1) as f64;
            let density = gained as f64 / added.max(1.0);
            if best.as_ref().map(|(.., d)| density > *d).unwrap_or(true) {
                best = Some((pos, new_lo, new_hi, density));
            }
        }
        match best {
            Some((pos, lo, hi, _)) => {
                self.bounds[pos] = (lo, hi);
                true
            }
            None => false,
        }
    }

    /// Emits the covered addresses into `out`, up to `budget` total.
    pub fn emit(&self, out: &mut Vec<Addr>, budget: usize) {
        let mut cur: Vec<u8> = self.bounds.iter().map(|(lo, _)| *lo).collect();
        loop {
            let mut arr = [0u8; 32];
            arr.copy_from_slice(&cur);
            out.push(Addr::from_nibbles(&arr));
            if out.len() >= budget {
                return;
            }
            // Odometer increment from the rightmost position.
            let mut pos = 31usize;
            loop {
                if cur[pos] < self.bounds[pos].1 {
                    cur[pos] += 1;
                    break;
                }
                cur[pos] = self.bounds[pos].0;
                if pos == 0 {
                    return;
                }
                pos -= 1;
            }
        }
    }
}

impl TargetGenerator for SixGen {
    fn name(&self) -> &'static str {
        "6gen"
    }

    fn generate(&self, seeds: &[Addr], budget: usize) -> Vec<Addr> {
        let buckets = by_network(seeds);
        // Grow one range per qualifying /64, densest seed buckets first.
        let mut clusters: Vec<(u64, Vec<Addr>)> =
            buckets.into_iter().filter(|(_, v)| v.len() >= self.min_bucket).collect();
        clusters.sort_by_key(|(_, v)| std::cmp::Reverse(v.len()));
        let mut out = Vec::new();
        for (_, bucket) in clusters {
            if out.len() >= budget {
                break;
            }
            let nibbles: Vec<[u8; 32]> = bucket.iter().map(|a| a.nibbles()).collect();
            let mut range = NibbleRange::of(bucket[0]);
            for _ in 0..self.growth_steps {
                if !range.grow_best(&nibbles) {
                    break;
                }
                // 6Gen bails on ranges that explode (that is how its 2017
                // run flooded into what turned out to be aliased space —
                // the modern pipeline catches this with the MAPD instead).
                if range.size() > 1 << 20 {
                    break;
                }
            }
            range.emit(&mut out, budget);
        }
        dedup_excluding(out, seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_of_single_address() {
        let a: Addr = "2001:db8::42".parse().unwrap();
        let r = NibbleRange::of(a);
        assert!(r.contains(a));
        assert_eq!(r.size(), 1);
        assert!(!r.contains("2001:db8::43".parse().unwrap()));
    }

    #[test]
    fn grow_covers_cluster() {
        let net = 0x2001_0db8_0000_0001u128 << 64;
        let seeds: Vec<Addr> = (1..=12u128).map(|i| Addr(net | i)).collect();
        let nibbles: Vec<[u8; 32]> = seeds.iter().map(|a| a.nibbles()).collect();
        let mut r = NibbleRange::of(seeds[0]);
        while r.grow_best(&nibbles) {}
        for s in &seeds {
            assert!(r.contains(*s), "{s}");
        }
        assert!(r.size() >= 12);
    }

    #[test]
    fn generates_infill_around_seeds() {
        let net = 0x2001_0db8_0000_0002u128 << 64;
        // Seeds 1..=8 with a hole at 5.
        let seeds: Vec<Addr> = [1u128, 2, 3, 4, 6, 7, 8].iter().map(|i| Addr(net | i)).collect();
        let gen = SixGen::default().generate(&seeds, 10_000);
        assert!(gen.contains(&Addr(net | 5)), "fills the hole: {gen:?}");
        assert!(!gen.contains(&Addr(net | 3)), "seeds excluded");
    }

    #[test]
    fn budget_and_determinism() {
        let net = 0x2001_0db8_0000_0003u128 << 64;
        let seeds: Vec<Addr> = (0..60u128).map(|i| Addr(net | (i * 5))).collect();
        let a = SixGen::default().generate(&seeds, 100);
        let b = SixGen::default().generate(&seeds, 100);
        assert_eq!(a, b);
        assert!(a.len() <= 100);
    }

    #[test]
    fn range_size_guard() {
        // Seeds spread over many dimensions would explode; 6Gen caps the
        // range size and emits what it has.
        let seeds: Vec<Addr> = (0..40u128)
            .map(|i| Addr((0x2001_0db8_0000_0004u128 << 64) | (i * 0x1111_1111)))
            .collect();
        let gen = SixGen::default().generate(&seeds, 5_000);
        assert!(gen.len() <= 5_000);
    }

    #[test]
    fn sparse_buckets_skipped() {
        let seeds = vec![
            Addr(0x2001_0db8_0000_0005u128 << 64 | 1),
            Addr(0x2001_0db8_0000_0006u128 << 64 | 1),
        ];
        // One seed per /64 < min_bucket of 2.
        assert!(SixGen::default().generate(&seeds, 100).is_empty());
    }
}
