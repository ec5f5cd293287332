//! 6Tree (Liu et al. 2019): space-tree-guided target generation.
//!
//! 6Tree builds a space tree over the nibble representation of the seed
//! set via divisive hierarchical clustering (split at the leftmost varying
//! nibble), then generates candidates inside the densest leaf regions by
//! enumerating free-dimension values. The original tool interleaves active
//! scanning to steer generation; following the paper (Sec. 6.1), the
//! active part is disabled — the hitlist's own alias detection replaces
//! 6Tree's (ineffective) built-in alias heuristic — so this is the pure
//! generation component.

use sixdust_addr::Addr;

use crate::corpus::dedup_excluding;
use crate::TargetGenerator;

/// 6Tree configuration.
#[derive(Debug, Clone)]
pub struct SixTree {
    /// Maximum seeds per leaf before splitting stops.
    pub leaf_size: usize,
    /// Maximum free dimensions expanded per leaf region.
    pub max_free_dims: usize,
}

impl Default for SixTree {
    fn default() -> SixTree {
        SixTree { leaf_size: 16, max_free_dims: 3 }
    }
}

/// A leaf region of the space tree.
#[derive(Debug, Clone)]
struct Region {
    seeds: Vec<[u8; 32]>,
    /// Positions that vary among the leaf's seeds.
    free: Vec<usize>,
}

impl Region {
    /// Seed density over the enumerable combination space.
    fn density(&self, max_dims: usize) -> f64 {
        let dims = self.free.len().min(max_dims).max(1);
        self.seeds.len() as f64 / 16f64.powi(dims as i32)
    }
}

fn split(seeds: Vec<[u8; 32]>, leaf_size: usize, out: &mut Vec<Region>) {
    // Find the leftmost varying nibble.
    let varying = (0..32).find(|&i| seeds.iter().any(|s| s[i] != seeds[0][i]));
    let free: Vec<usize> = (0..32).filter(|&i| seeds.iter().any(|s| s[i] != seeds[0][i])).collect();
    match varying {
        None => out.push(Region { seeds, free }),
        Some(pos) => {
            if seeds.len() <= leaf_size {
                out.push(Region { seeds, free });
                return;
            }
            let mut buckets: Vec<Vec<[u8; 32]>> = vec![Vec::new(); 16];
            for s in seeds {
                buckets[s[pos] as usize].push(s);
            }
            for b in buckets {
                if !b.is_empty() {
                    split(b, leaf_size, out);
                }
            }
        }
    }
}

impl TargetGenerator for SixTree {
    fn name(&self) -> &'static str {
        "6tree"
    }

    fn generate(&self, seeds: &[Addr], budget: usize) -> Vec<Addr> {
        if seeds.len() < 2 {
            return Vec::new();
        }
        let nibble_seeds: Vec<[u8; 32]> = seeds.iter().map(|a| a.nibbles()).collect();
        let mut regions = Vec::new();
        split(nibble_seeds, self.leaf_size, &mut regions);
        // Densest regions first (6Tree's entropy ordering).
        regions.sort_by(|a, b| {
            b.density(self.max_free_dims)
                .partial_cmp(&a.density(self.max_free_dims))
                .expect("finite")
        });

        let mut out: Vec<Addr> = Vec::new();
        'outer: for region in &regions {
            if region.free.is_empty() {
                continue;
            }
            // Expand the rightmost free dims over the min..=max observed
            // values (full range for the final nibble).
            let dims: Vec<usize> =
                region.free.iter().rev().take(self.max_free_dims).copied().collect();
            let template = region.seeds[0];
            let mut ranges: Vec<(usize, u8, u8)> = Vec::new();
            for &d in &dims {
                let lo = region.seeds.iter().map(|s| s[d]).min().expect("nonempty");
                let hi = region.seeds.iter().map(|s| s[d]).max().expect("nonempty");
                if d == 31 {
                    ranges.push((d, 0, 0xf));
                } else {
                    ranges.push((d, lo, hi));
                }
            }
            // Cartesian enumeration.
            let mut idx: Vec<u8> = ranges.iter().map(|(_, lo, _)| *lo).collect();
            loop {
                let mut cand = template;
                for (k, (d, ..)) in ranges.iter().enumerate() {
                    cand[*d] = idx[k];
                }
                out.push(Addr::from_nibbles(&cand));
                if out.len() >= budget {
                    break 'outer;
                }
                // Increment multi-digit counter.
                let mut k = 0;
                loop {
                    if k == ranges.len() {
                        break;
                    }
                    if idx[k] < ranges[k].2 {
                        idx[k] += 1;
                        break;
                    }
                    idx[k] = ranges[k].1;
                    k += 1;
                }
                if k == ranges.len() {
                    break;
                }
            }
        }
        dedup_excluding(out, seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds_lowbyte(net: u128, n: u128) -> Vec<Addr> {
        (1..=n).map(|i| Addr(net | i)).collect()
    }

    #[test]
    fn expands_dense_low_byte_region() {
        let net = 0x2001_0db8_0000_0001u128 << 64;
        // Seeds ::1..::8 — 6Tree should extend toward ::9..::f.
        let seeds = seeds_lowbyte(net, 8);
        let gen = SixTree::default().generate(&seeds, 1000);
        assert!(gen.contains(&Addr(net | 0xc)), "extends the last nibble");
        assert!(!gen.contains(&Addr(net | 0x3)), "seeds excluded");
    }

    #[test]
    fn respects_budget() {
        let net = 0x2001_0db8u128 << 96;
        let seeds: Vec<Addr> = (0..64u128).map(|i| Addr(net | (i * 5))).collect();
        let gen = SixTree::default().generate(&seeds, 37);
        assert!(gen.len() <= 37);
    }

    #[test]
    fn two_regions_densest_first() {
        let dense_net = 0x2001_0db8_0000_0002u128 << 64;
        let sparse_net = 0x2001_0db9_0000_0003u128 << 64;
        let mut seeds = seeds_lowbyte(dense_net, 12);
        // Sparse: 4 seeds spread over 3 nibbles of space.
        seeds.extend([0x10u128, 0x400, 0x800, 0xc00].iter().map(|i| Addr(sparse_net | i)));
        let gen = SixTree::default().generate(&seeds, 8);
        assert!(
            gen.iter().all(|a| (a.0 >> 64) == (dense_net >> 64)),
            "dense region expanded first: {gen:?}"
        );
    }

    #[test]
    fn degenerate_inputs() {
        assert!(SixTree::default().generate(&[], 10).is_empty());
        assert!(SixTree::default().generate(&[Addr(1)], 10).is_empty());
        // Identical seeds: no free dimension, nothing to expand.
        let same = vec![Addr(42), Addr(42)];
        assert!(SixTree::default().generate(&same, 10).is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let net = 0x2001_0db8u128 << 96;
        let seeds: Vec<Addr> = (0..40u128).map(|i| Addr(net | (i * 3))).collect();
        let a = SixTree::default().generate(&seeds, 500);
        let b = SixTree::default().generate(&seeds, 500);
        assert_eq!(a, b);
    }
}
