//! # sixdust-tga — IPv6 target generation algorithms
//!
//! From-scratch Rust implementations of the candidate-generation methods
//! the paper evaluates as new hitlist input sources (Sec. 6):
//!
//! | module | method | character |
//! |---|---|---|
//! | [`sixtree`] | 6Tree (Liu 2019) | space-tree DHC; dense-region in-fill |
//! | [`sixgraph`] | 6Graph (Yang 2022) | pattern mining; merges sibling /64s, biggest yield |
//! | [`sixgan`] | 6GAN-style (Cui 2021) | per-class learned sampler; tiny hit rate |
//! | [`sixveclm`] | 6VecLM-style (Cui 2021) | embedding LM decode; tiny, low-diversity output |
//! | [`dc`] | distance clustering | the paper's own naive gap-filler, best hit rate |
//! | [`seedless`] | AddrMiner-style (the paper's Sec. 7 future work) | convention transfer into seed-free ASes |
//!
//! The two learned methods substitute deterministic statistical cores for
//! GPU training (see `DESIGN.md` §2); the evaluation only consumes each
//! algorithm's candidate list, and the coverage/hit-rate profile is what
//! the substitution preserves.
//!
//! All generators implement [`TargetGenerator`]: seeds in, deduplicated
//! *new* candidates out, hard budget respected, fully deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod dc;
pub mod seedless;
pub mod sixgan;
pub mod sixgraph;
pub mod sixtree;
pub mod sixveclm;

use sixdust_addr::Addr;
use sixdust_telemetry::Registry;

pub use dc::DistanceClustering;
pub use seedless::Seedless;
pub use sixgan::SixGan;
pub use sixgraph::SixGraph;
pub use sixtree::SixTree;
pub use sixveclm::SixVecLm;

/// A target generation algorithm: seed addresses in, candidate addresses
/// out.
pub trait TargetGenerator {
    /// Short identifier used in tables and experiment output.
    fn name(&self) -> &'static str;

    /// Generates up to `budget` *new* candidate addresses (seeds and
    /// duplicates excluded) from the seed corpus. Deterministic.
    fn generate(&self, seeds: &[Addr], budget: usize) -> Vec<Addr>;
}

/// The full generator line-up with the paper's per-method generation
/// volumes (Table 3), scaled by `addr_div`.
pub fn paper_lineup(addr_div: u64) -> Vec<(Box<dyn TargetGenerator>, usize)> {
    let scale = |n: u64| (n / addr_div).max(50) as usize;
    vec![
        (Box::new(SixGraph::default()) as Box<dyn TargetGenerator>, scale(125_800_000)),
        (Box::new(SixTree::default()), scale(37_600_000)),
        (Box::new(SixGan::default()), scale(3_300_000)),
        (Box::new(SixVecLm::default()), scale(70_300)),
        (Box::new(DistanceClustering::default()), scale(5_300_000)),
    ]
}

/// Wraps a generator so every [`TargetGenerator::generate`] call records
/// `tga.<name>.candidates` (a counter of emitted candidates) and
/// `tga.<name>.gen_ms` (a histogram of generation wall time) in `registry`.
pub struct InstrumentedGenerator {
    inner: Box<dyn TargetGenerator>,
    registry: Registry,
}

impl InstrumentedGenerator {
    /// Instruments `inner` against `registry`. Metric keys derive from
    /// [`TargetGenerator::name`], lower-cased: `tga.6graph.candidates`.
    pub fn new(inner: Box<dyn TargetGenerator>, registry: Registry) -> InstrumentedGenerator {
        InstrumentedGenerator { inner, registry }
    }

    fn key(&self, suffix: &str) -> String {
        format!("tga.{}.{suffix}", self.inner.name().to_ascii_lowercase())
    }
}

impl TargetGenerator for InstrumentedGenerator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn generate(&self, seeds: &[Addr], budget: usize) -> Vec<Addr> {
        let started = std::time::Instant::now();
        let out = self.inner.generate(seeds, budget);
        self.registry.histogram(&self.key("gen_ms")).record(started.elapsed().as_millis() as u64);
        self.registry.counter(&self.key("candidates")).add(out.len() as u64);
        out
    }
}

/// [`paper_lineup`] with every generator wrapped in an
/// [`InstrumentedGenerator`] reporting to `registry`.
pub fn instrumented_lineup(
    addr_div: u64,
    registry: &Registry,
) -> Vec<(Box<dyn TargetGenerator>, usize)> {
    paper_lineup(addr_div)
        .into_iter()
        .map(|(g, budget)| {
            let wrapped: Box<dyn TargetGenerator> =
                Box::new(InstrumentedGenerator::new(g, registry.clone()));
            (wrapped, budget)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared scenario: a jittered dense cluster (mean gap 8) with a
    /// partially visible seed sample — the shape `sixdust-net` gives the
    /// hidden TGA-target regions.
    fn scenario() -> (Vec<Addr>, Vec<Addr>) {
        let net = 0x2001_0db8_0000_0777u128 << 64;
        let members: Vec<Addr> =
            (0..400u128).map(|j| Addr(net | (0x1000 + j * 8 + (j * 2654435761) % 8))).collect();
        // 30% visible.
        let seeds: Vec<Addr> =
            members.iter().enumerate().filter(|(i, _)| i % 10 < 3).map(|(_, a)| *a).collect();
        (members, seeds)
    }

    fn hit_rate(generated: &[Addr], members: &[Addr]) -> f64 {
        let set: std::collections::HashSet<Addr> = members.iter().copied().collect();
        generated.iter().filter(|a| set.contains(a)).count() as f64 / generated.len().max(1) as f64
    }

    #[test]
    fn dc_beats_pattern_miners_on_hit_rate() {
        let (members, seeds) = scenario();
        let dc = DistanceClustering::default().generate(&seeds, 20_000);
        let tree = SixTree::default().generate(&seeds, 20_000);
        let graph = SixGraph::default().generate(&seeds, 20_000);
        let r_dc = hit_rate(&dc, &members);
        let r_tree = hit_rate(&tree, &members);
        let r_graph = hit_rate(&graph, &members);
        assert!(r_dc > 0.04, "DC rate {r_dc}");
        assert!(r_dc >= r_tree * 0.8, "DC {r_dc} vs 6Tree {r_tree}");
        assert!(r_tree >= r_graph * 0.8, "6Tree {r_tree} vs 6Graph {r_graph}");
    }

    #[test]
    fn learned_methods_are_weak() {
        let (members, seeds) = scenario();
        let gan = SixGan::default().generate(&seeds, 5_000);
        let veclm = SixVecLm::default().generate(&seeds, 5_000);
        assert!(hit_rate(&gan, &members) < 0.25);
        // 6VecLM yields few candidates at all.
        assert!(veclm.len() < gan.len().max(200));
    }

    #[test]
    fn all_generators_respect_contract() {
        let (_, seeds) = scenario();
        for (g, _) in paper_lineup(1000) {
            let out = g.generate(&seeds, 500);
            assert!(out.len() <= 500, "{} over budget", g.name());
            // No seed leaks, no duplicates.
            let set: std::collections::HashSet<Addr> = out.iter().copied().collect();
            assert_eq!(set.len(), out.len(), "{} duplicates", g.name());
            for s in &seeds {
                assert!(!set.contains(s), "{} leaked a seed", g.name());
            }
            // Determinism.
            assert_eq!(out, g.generate(&seeds, 500), "{}", g.name());
        }
    }

    #[test]
    fn lineup_budgets_scale() {
        let l = paper_lineup(1000);
        assert_eq!(l.len(), 5);
        assert_eq!(l[0].1, 125_800, "6graph budget");
        assert_eq!(l[3].1, 70, "6veclm budget");
    }

    #[test]
    fn instrumented_lineup_reports_per_generator_metrics() {
        let (_, seeds) = scenario();
        let registry = Registry::new();
        for (g, _) in instrumented_lineup(1000, &registry) {
            let out = g.generate(&seeds, 200);
            // Wrapping must not change the output.
            let key = format!("tga.{}.candidates", g.name().to_ascii_lowercase());
            assert_eq!(registry.snapshot().counter(&key), Some(out.len() as u64), "{key}");
        }
        let snap = registry.snapshot();
        for (g, _) in paper_lineup(1000) {
            let gen_ms = format!("tga.{}.gen_ms", g.name().to_ascii_lowercase());
            assert_eq!(snap.histogram(&gen_ms).map(|h| h.count), Some(1), "{gen_ms}");
        }
    }
}
