//! 6VecLM-style generation (Cui et al. 2021), simplified.
//!
//! 6VecLM embeds address "words" (nibble, position) into a vector space
//! and decodes new addresses with a transformer language model and
//! temperature sampling. Per the substitution rule, the transformer is
//! replaced by its statistical skeleton: a (position → nibble) frequency
//! embedding with context-similarity decoding over the most frequent seed
//! prefixes. Like the original as evaluated by the paper, it produces a
//! *small*, low-diversity candidate set with a very low hit rate — it
//! keeps re-deriving near-seed sequences.

use sixdust_addr::{prf, Addr};

use crate::corpus::{dedup_excluding, nibble_entropy};
use crate::TargetGenerator;

/// 6VecLM-style generator configuration.
#[derive(Debug, Clone)]
pub struct SixVecLm {
    /// Decoding temperature in permille (higher = more exploration).
    pub temperature_permille: u32,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for SixVecLm {
    fn default() -> SixVecLm {
        SixVecLm { temperature_permille: 150, seed: 0x6A3C }
    }
}

impl TargetGenerator for SixVecLm {
    fn name(&self) -> &'static str {
        "6veclm"
    }

    fn generate(&self, seeds: &[Addr], budget: usize) -> Vec<Addr> {
        if seeds.len() < 4 {
            return Vec::new();
        }
        // Frequency "embedding": per-position nibble distribution.
        let mut freq = [[0u32; 16]; 32];
        for a in seeds {
            for (i, n) in a.nibbles().iter().enumerate() {
                freq[i][*n as usize] += 1;
            }
        }
        let entropy = nibble_entropy(seeds);
        let mut rng = prf::PrfStream::new(self.seed, seeds.len() as u128, 0x6C1A);
        let mut out = Vec::new();
        // Decode from each seed as context: keep the low-entropy positions
        // verbatim, re-decode high-entropy tail positions greedily with a
        // little temperature. Low diversity is intrinsic: most decodes
        // collapse onto the argmax path.
        for a in seeds.iter().cycle().take(budget.max(seeds.len()).min(budget * 2)) {
            if out.len() >= budget {
                break;
            }
            let mut nibbles = a.nibbles();
            for pos in 16..32 {
                if entropy[pos] < 0.5 {
                    continue;
                }
                let explore = rng.next_bounded(1000) < u64::from(self.temperature_permille);
                if explore {
                    // Temperature step: sample from the frequency-weighted
                    // distribution instead of the argmax.
                    let total: u32 = freq[pos].iter().sum();
                    let mut pick = (rng.next_u64() % u64::from(total.max(1))) as u32;
                    for (v, &c) in freq[pos].iter().enumerate() {
                        if pick < c {
                            nibbles[pos] = v as u8;
                            break;
                        }
                        pick -= c;
                    }
                } else {
                    // Greedy argmax decode.
                    let best = freq[pos]
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, c)| **c)
                        .map(|(v, _)| v as u8)
                        .unwrap_or(0);
                    nibbles[pos] = best;
                }
            }
            out.push(Addr::from_nibbles(&nibbles));
        }
        dedup_excluding(out, seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds() -> Vec<Addr> {
        let net = 0x2001_0db8_0000_0042u128 << 64;
        (1..120u128).map(|i| Addr(net | (i * 3))).collect()
    }

    #[test]
    fn low_diversity_output() {
        let s = seeds();
        let gen = SixVecLm::default().generate(&s, 1000);
        // Deduped output is much smaller than the budget: the decoder
        // collapses (the paper's 70.3 k candidates vs the millions other
        // TGAs emit).
        assert!(!gen.is_empty());
        assert!(gen.len() < 600, "{} candidates", gen.len());
    }

    #[test]
    fn keeps_network_prefix() {
        let s = seeds();
        for g in SixVecLm::default().generate(&s, 200) {
            assert_eq!(g.0 >> 96, 0x2001_0db8);
        }
    }

    #[test]
    fn deterministic() {
        let s = seeds();
        assert_eq!(SixVecLm::default().generate(&s, 300), SixVecLm::default().generate(&s, 300));
    }

    #[test]
    fn tiny_inputs() {
        assert!(SixVecLm::default().generate(&[], 10).is_empty());
    }
}
