//! Distance clustering — the paper's own naive target generator (Sec. 6.1).
//!
//! "We collected clusters of addresses with at least 10 addresses and a
//! distance of at most 64 between two addresses. […] We generated missing
//! addresses within these clusters." Despite its simplicity it achieved
//! the best hit rate (~12 %) of all evaluated generators, because dense
//! address regions are dense for a reason — active assignment policies.

use sixdust_addr::Addr;

use crate::corpus::dedup_excluding;
use crate::TargetGenerator;

/// Distance clustering configuration (paper defaults).
///
/// ```
/// use sixdust_tga::{DistanceClustering, TargetGenerator};
/// use sixdust_addr::Addr;
/// // Twelve seeds spaced 4 apart: one cluster; DC fills the gaps.
/// let seeds: Vec<Addr> = (0..12u128).map(|i| Addr(0x2001_0db8 << 96 | i * 4)).collect();
/// let dc = DistanceClustering::default();
/// let out = dc.generate(&seeds, 1_000);
/// assert!(out.contains(&Addr(0x2001_0db8 << 96 | 1)));
/// assert!(!out.contains(&seeds[0]), "seeds are never re-emitted");
/// ```
#[derive(Debug, Clone)]
pub struct DistanceClustering {
    /// Minimum addresses per cluster.
    pub min_cluster: usize,
    /// Maximum gap between consecutive addresses within a cluster.
    pub max_gap: u128,
}

impl Default for DistanceClustering {
    fn default() -> DistanceClustering {
        DistanceClustering { min_cluster: 10, max_gap: 64 }
    }
}

/// A detected seed cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Lowest member.
    pub min: Addr,
    /// Highest member.
    pub max: Addr,
    /// Seed count inside.
    pub seeds: usize,
}

impl DistanceClustering {
    /// Finds all clusters in the (unsorted) seed list.
    pub fn clusters(&self, seeds: &[Addr]) -> Vec<Cluster> {
        let mut sorted: Vec<Addr> = seeds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut out = Vec::new();
        let mut start = 0usize;
        for i in 1..=sorted.len() {
            let split = i == sorted.len() || sorted[i].distance(sorted[i - 1]) > self.max_gap;
            if split {
                let len = i - start;
                if len >= self.min_cluster {
                    out.push(Cluster { min: sorted[start], max: sorted[i - 1], seeds: len });
                }
                start = i;
            }
        }
        out
    }
}

impl TargetGenerator for DistanceClustering {
    fn name(&self) -> &'static str {
        "distance-clustering"
    }

    fn generate(&self, seeds: &[Addr], budget: usize) -> Vec<Addr> {
        let clusters = self.clusters(seeds);
        let seed_set: std::collections::HashSet<Addr> = seeds.iter().copied().collect();
        let mut out = Vec::new();
        // Densest clusters first: highest seeds-per-span ratio.
        let mut ordered = clusters;
        ordered.sort_by(|a, b| {
            let da = a.seeds as f64 / (a.max.distance(a.min).max(1)) as f64;
            let db = b.seeds as f64 / (b.max.distance(b.min).max(1)) as f64;
            db.partial_cmp(&da).expect("finite densities")
        });
        'outer: for c in ordered {
            let mut v = c.min.0;
            while v <= c.max.0 {
                if out.len() >= budget {
                    break 'outer;
                }
                // The budget counts *new* candidates, so skip seeds inline.
                if !seed_set.contains(&Addr(v)) {
                    out.push(Addr(v));
                }
                v += 1;
            }
        }
        dedup_excluding(out, seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_seeds(base: u128, n: usize, stride: u128) -> Vec<Addr> {
        (0..n as u128).map(|i| Addr(base + i * stride)).collect()
    }

    #[test]
    fn detects_clusters_with_thresholds() {
        let dc = DistanceClustering::default();
        let mut seeds = cluster_seeds(0x2001_0db8u128 << 96 | 0x100, 20, 8);
        // Too small a cluster (5 addrs) elsewhere:
        seeds.extend(cluster_seeds(0x2001_0db9u128 << 96, 5, 4));
        // Too wide a gap (65):
        seeds.extend(cluster_seeds(0x2001_0dbau128 << 96, 20, 65));
        let clusters = dc.clusters(&seeds);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].seeds, 20);
    }

    #[test]
    fn gap_exactly_64_is_kept() {
        let dc = DistanceClustering::default();
        let seeds = cluster_seeds(0x2001_0db8u128 << 96, 12, 64);
        assert_eq!(dc.clusters(&seeds).len(), 1);
    }

    #[test]
    fn fills_within_cluster_excluding_seeds() {
        let dc = DistanceClustering::default();
        let seeds = cluster_seeds(0x2001_0db8u128 << 96 | 0x10, 10, 4);
        let gen = dc.generate(&seeds, 10_000);
        // Span: 9*4 = 36 addresses between min..max, 10 are seeds.
        assert_eq!(gen.len(), 37 - 10);
        for g in &gen {
            assert!(!seeds.contains(g));
            assert!(*g >= seeds[0] && *g <= seeds[9]);
        }
    }

    #[test]
    fn budget_respected_and_dense_first() {
        let dc = DistanceClustering::default();
        let mut seeds = cluster_seeds(0x2001_0db8u128 << 96, 10, 60); // sparse
        seeds.extend(cluster_seeds(0x2001_0db9u128 << 96, 10, 2)); // dense
        let gen = dc.generate(&seeds, 5);
        assert_eq!(gen.len(), 5);
        // Dense cluster fills first.
        assert!(gen.iter().all(|a| a.0 >= 0x2001_0db9u128 << 96));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let dc = DistanceClustering::default();
        assert!(dc.generate(&[], 100).is_empty());
        assert!(dc.generate(&[Addr(42)], 100).is_empty());
    }
}
