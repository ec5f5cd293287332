//! 6GAN-style generation (Cui et al. 2021), simplified.
//!
//! The original 6GAN trains one generative-adversarial generator per seed
//! *pattern class* with reinforcement-learning rewards. The paper itself
//! could not reproduce its published hit rates ("we were not able to
//! reproduce results of 6GAN, but it only generated 4 k responsive
//! addresses"). Per the substitution rule, the adversarial training is
//! replaced by its deterministic core: seeds are classified into IID
//! pattern classes, an order-2 nibble Markov model is fitted per class,
//! and candidates are sampled from it. The observable property the
//! evaluation depends on — a learned sampler that reproduces global
//! nibble statistics but rarely lands on individual live addresses — is
//! preserved.

use sixdust_addr::{prf, Addr, Eui64};

use crate::corpus::dedup_excluding;
use crate::TargetGenerator;

/// Seed pattern classes (the "multi-pattern" part of 6GAN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedClass {
    /// Low-byte / small-integer IIDs.
    LowByte,
    /// EUI-64 (`ff:fe`) IIDs.
    Eui64,
    /// Everything else (pseudo-random IIDs).
    Random,
}

/// Classifies one seed.
pub fn classify(addr: Addr) -> SeedClass {
    if Eui64::addr_is_eui64(addr) {
        SeedClass::Eui64
    } else if addr.iid() < 0x1_0000 {
        SeedClass::LowByte
    } else {
        SeedClass::Random
    }
}

/// 6GAN-style generator configuration.
#[derive(Debug, Clone)]
pub struct SixGan {
    /// Sampling seed (stands in for the GAN's noise vector).
    pub seed: u64,
}

impl Default for SixGan {
    fn default() -> SixGan {
        SixGan { seed: 0x66A4 }
    }
}

/// An order-2 Markov chain over nibble sequences.
struct Markov {
    /// Indexed as `pos*256 + prev2*16 + prev1` → next-nibble counts.
    counts: Vec<[u32; 16]>,
    start: Vec<[u8; 2]>,
}

impl Markov {
    fn fit(seeds: &[[u8; 32]]) -> Markov {
        // counts is indexed as [pos*256 + prev2*16 + prev1] -> [next; 16].
        let mut counts = vec![[0u32; 16]; 32 * 256];
        let mut start = Vec::with_capacity(seeds.len());
        for s in seeds {
            start.push([s[0], s[1]]);
            for pos in 2..32 {
                let idx = pos * 256 + (s[pos - 2] as usize) * 16 + s[pos - 1] as usize;
                counts[idx][s[pos] as usize] += 1;
            }
        }
        Markov { counts, start }
    }

    fn sample(&self, rng: &mut prf::PrfStream) -> [u8; 32] {
        let mut s = [0u8; 32];
        let st = self.start[(rng.next_u64() % self.start.len() as u64) as usize];
        s[0] = st[0];
        s[1] = st[1];
        for pos in 2..32 {
            let row = &self.counts[(pos * 256) + (s[pos - 2] as usize * 16) + s[pos - 1] as usize];
            let total: u32 = row.iter().sum();
            if total == 0 {
                s[pos] = (rng.next_u64() % 16) as u8;
                continue;
            }
            let mut pick = (rng.next_u64() % u64::from(total)) as u32;
            for (v, &c) in row.iter().enumerate() {
                if pick < c {
                    s[pos] = v as u8;
                    break;
                }
                pick -= c;
            }
        }
        s
    }
}

impl TargetGenerator for SixGan {
    fn name(&self) -> &'static str {
        "6gan"
    }

    fn generate(&self, seeds: &[Addr], budget: usize) -> Vec<Addr> {
        if seeds.len() < 4 {
            return Vec::new();
        }
        // Partition by class; fit one model per class; sample proportional
        // to class support.
        let mut classes: std::collections::HashMap<SeedClass, Vec<[u8; 32]>> = Default::default();
        for a in seeds {
            classes.entry(classify(*a)).or_default().push(a.nibbles());
        }
        let total = seeds.len();
        let mut out = Vec::new();
        for (class, class_seeds) in classes {
            if class_seeds.len() < 4 {
                continue;
            }
            let model = Markov::fit(&class_seeds);
            let share = budget * class_seeds.len() / total;
            let mut rng = prf::PrfStream::new(self.seed, class_seeds.len() as u128, class as u64);
            for _ in 0..share {
                out.push(Addr::from_nibbles(&model.sample(&mut rng)));
            }
        }
        dedup_excluding(out, seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("2001:db8::1".parse().unwrap()), SeedClass::LowByte);
        let e = Eui64::from_oui_serial(0x001422, 9).apply_to("2001:db8::".parse().unwrap());
        assert_eq!(classify(e), SeedClass::Eui64);
        assert_eq!(classify("2001:db8::89ab:cdef:1234:5678".parse().unwrap()), SeedClass::Random);
    }

    #[test]
    fn samples_respect_global_structure() {
        // All seeds share a /32: the model must never leave it. Seeds vary
        // in five nibble positions so the order-2 chain can recombine
        // contexts into novel addresses (with fewer varying positions the
        // chain collapses onto the seeds — see mode_collapse_on_narrow_seeds).
        let net = 0x2001_0db8u128 << 96;
        let seeds: Vec<Addr> = (1..200u128).map(|i| Addr(net | (i * 0x10111))).collect();
        let gen = SixGan::default().generate(&seeds, 500);
        assert!(!gen.is_empty());
        for g in &gen {
            assert_eq!(g.0 >> 96, 0x2001_0db8, "{g}");
        }
    }

    #[test]
    fn mode_collapse_on_narrow_seeds() {
        // With only three varying nibbles, an order-2 chain can only ever
        // re-derive observed suffixes — every sample is a seed and the
        // deduped yield is empty. (The GAN-replacement shares this
        // qualitative failure mode with low-entropy corpora.)
        let net = 0x2001_0db8u128 << 96;
        let seeds: Vec<Addr> = (1..200u128).map(|i| Addr(net | (i * 7))).collect();
        assert!(SixGan::default().generate(&seeds, 500).is_empty());
    }

    #[test]
    fn low_individual_precision() {
        // Seeds on a sparse jittered lattice: the Markov sampler should
        // mostly miss exact member addresses (the paper's observed 6GAN
        // behaviour), unlike the in-fill generators.
        let net = 0x2001_0db8_0000_0003u128 << 64;
        let members: Vec<Addr> = (0..300u128).map(|i| Addr(net | (i * 8 + (i * i) % 8))).collect();
        let seeds: Vec<Addr> = members.iter().step_by(3).copied().collect();
        let gen = SixGan::default().generate(&seeds, 2000);
        let hits = gen.iter().filter(|g| members.contains(g)).count();
        let rate = hits as f64 / gen.len().max(1) as f64;
        assert!(rate < 0.2, "hit rate {rate} should be low");
    }

    #[test]
    fn deterministic_and_budgeted() {
        let seeds: Vec<Addr> = (1..100u128).map(|i| Addr((0x2001u128 << 112) | i)).collect();
        let a = SixGan::default().generate(&seeds, 100);
        let b = SixGan::default().generate(&seeds, 100);
        assert_eq!(a, b);
        assert!(a.len() <= 100);
    }

    #[test]
    fn tiny_seed_sets_yield_nothing() {
        assert!(SixGan::default().generate(&[Addr(1), Addr(2)], 100).is_empty());
    }
}
