//! Property tests for the target generation algorithms: every generator
//! must honour the shared contract for arbitrary seed corpora. Seeded
//! loops, 48 cases each.

use sixdust_addr::prf::PrfStream;
use sixdust_addr::Addr;
use sixdust_tga::{
    corpus, DistanceClustering, SixGan, SixGraph, SixTree, SixVecLm, TargetGenerator,
};

const CASES: u64 = 48;

fn stream(property: u64, case: u64) -> PrfStream {
    PrfStream::new(0x76A, u128::from(case), property)
}

/// Structured corpora: a few /64 networks with clustered low IIDs — the
/// regime all generators are built for (fully random corpora are
/// degenerate for every method).
fn seed_corpus(rng: &mut PrfStream) -> Vec<Addr> {
    let salt = rng.next_bounded(7);
    let mut out = Vec::new();
    for _ in 0..4 + rng.next_bounded(36) {
        let (net_id, base, stride) =
            (rng.next_bounded(4), rng.next_bounded(0x400), 1 + rng.next_bounded(31));
        let net = (0x2001_0db8_0000_0000u128 + u128::from(net_id + salt)) << 64;
        out.extend((0..6u64).map(|j| Addr(net | u128::from(base + j * stride))));
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn generators() -> Vec<Box<dyn TargetGenerator>> {
    vec![
        Box::new(SixTree::default()),
        Box::new(SixGraph::default()),
        Box::new(SixGan::default()),
        Box::new(SixVecLm::default()),
        Box::new(DistanceClustering::default()),
        Box::new(DistanceClustering { min_cluster: 3, max_gap: 128 }),
    ]
}

#[test]
fn generators_respect_budget_and_exclusions() {
    for case in 0..CASES {
        let rng = &mut stream(1, case);
        let (seeds, budget) = (seed_corpus(rng), rng.next_bounded(800) as usize);
        for g in generators() {
            let out = g.generate(&seeds, budget);
            assert!(out.len() <= budget, "{} exceeded budget", g.name());
            let set: std::collections::HashSet<Addr> = out.iter().copied().collect();
            assert_eq!(set.len(), out.len(), "{} emitted duplicates", g.name());
            for s in &seeds {
                assert!(!set.contains(s), "{} re-emitted a seed", g.name());
            }
        }
    }
}

#[test]
fn generators_are_deterministic() {
    for case in 0..CASES {
        let seeds = seed_corpus(&mut stream(2, case));
        for g in generators() {
            assert_eq!(
                g.generate(&seeds, 300),
                g.generate(&seeds, 300),
                "{} nondeterministic",
                g.name()
            );
        }
    }
}

#[test]
fn dc_output_stays_within_cluster_hulls() {
    for case in 0..CASES {
        let seeds = seed_corpus(&mut stream(3, case));
        let dc = DistanceClustering::default();
        let clusters = dc.clusters(&seeds);
        let out = dc.generate(&seeds, 5_000);
        for a in &out {
            assert!(
                clusters.iter().any(|c| *a >= c.min && *a <= c.max),
                "{a} outside every cluster hull"
            );
        }
        // And the fill is complete under a large budget: every non-seed
        // position inside a hull is emitted.
        let seed_set: std::collections::HashSet<Addr> = seeds.iter().copied().collect();
        let expected: usize =
            clusters.iter().map(|c| (c.max.0 - c.min.0 + 1) as usize - c.seeds).sum();
        if expected <= 5_000 {
            assert_eq!(out.len(), expected);
            for c in &clusters {
                for v in c.min.0..=c.max.0 {
                    let a = Addr(v);
                    assert!(seed_set.contains(&a) || out.contains(&a));
                }
            }
        }
    }
}

#[test]
fn dc_clusters_satisfy_thresholds() {
    for case in 0..CASES {
        let rng = &mut stream(4, case);
        let seeds = seed_corpus(rng);
        let (min, gap) = (2 + rng.next_bounded(10) as usize, 1 + u128::from(rng.next_bounded(199)));
        let dc = DistanceClustering { min_cluster: min, max_gap: gap };
        for c in dc.clusters(&seeds) {
            assert!(c.seeds >= min);
            assert!(c.max >= c.min);
            // The hull's widest internal seed gap is <= gap by construction:
            let mut inside: Vec<Addr> =
                seeds.iter().filter(|a| **a >= c.min && **a <= c.max).copied().collect();
            inside.sort_unstable();
            for w in inside.windows(2) {
                assert!(w[1].distance(w[0]) <= gap);
            }
        }
    }
}

#[test]
fn pattern_miners_stay_inside_seed_networks() {
    for case in 0..CASES {
        let seeds = seed_corpus(&mut stream(5, case));
        // 6Tree/6Graph generalize within observed nibble bounds; they must
        // never invent addresses outside the /32 hull of the corpus.
        let hull_min = seeds.iter().map(|a| a.0 >> 96).min().unwrap_or(0);
        let hull_max = seeds.iter().map(|a| a.0 >> 96).max().unwrap_or(0);
        for g in [&SixTree::default() as &dyn TargetGenerator, &SixGraph::default()] {
            for a in g.generate(&seeds, 2_000) {
                let top = a.0 >> 96;
                assert!(top >= hull_min && top <= hull_max, "{} left the hull", g.name());
            }
        }
    }
}

#[test]
fn dedup_excluding_invariants() {
    for case in 0..CASES {
        let rng = &mut stream(6, case);
        // A narrow range, so candidates repeat and collide with seeds.
        let mut draw = |max_len: u64| -> Vec<Addr> {
            (0..rng.next_bounded(max_len))
                .map(|_| Addr(u128::from(rng.next_bounded(256))))
                .collect()
        };
        let (cands, seeds) = (draw(200), draw(50));
        let out = corpus::dedup_excluding(cands.clone(), &seeds);
        // Sorted, unique, disjoint from seeds, exactly the rest of the
        // candidates.
        for w in out.windows(2) {
            assert!(w[0] < w[1]);
        }
        for a in &out {
            assert!(cands.contains(a));
            assert!(!seeds.contains(a));
        }
        for a in cands.iter().filter(|a| !seeds.contains(a)) {
            assert!(out.contains(a), "{a} dropped");
        }
    }
}

#[test]
fn entropy_matches_definition() {
    for case in 0..CASES {
        let seeds = seed_corpus(&mut stream(7, case));
        let h = corpus::nibble_entropy(&seeds);
        for (i, v) in h.iter().enumerate() {
            assert!((0.0..=4.0).contains(v), "entropy[{i}] = {v}");
        }
        // A constant position has zero entropy.
        assert!(h[0] < 1e-9, "leading nibble is constant in the corpus");
    }
}
