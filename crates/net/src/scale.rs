//! Scaling the paper's Internet down to a laptop.
//!
//! The real IPv6 Hitlist input holds ~790 M addresses across ~22 k ASes; a
//! faithful re-run needs a scanning vantage point and four years. sixdust
//! scales all *magnitudes* by a configurable divisor while keeping all
//! *shapes* (CDF skew, hit-rate ratios, growth factors) intact. Every
//! experiment prints the divisor next to its counts so paper-vs-measured
//! comparisons stay honest.
//!
//! The [`Scale::population_mult`] knob points the other way: it multiplies
//! scaled address counts back up (1×/10×/100×) so the hitlist-at-scale
//! bench can sweep population without touching the entity structure —
//! the same ASes and prefixes, each simply denser.

/// Magnitude scaling configuration for the simulated Internet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Divisor applied to the paper's address counts (population sizes,
    /// source volumes). `1000` means one simulated address per thousand
    /// real ones.
    pub addr_div: u64,
    /// Divisor applied to entity counts that are already "small" in the
    /// paper (ASes, aliased prefixes, CPE fleets); usually gentler than
    /// `addr_div` so distributions keep enough support points.
    pub entity_div: u64,
    /// Multiplier applied to scaled address counts, after `addr_div`.
    /// Sweeping 1 → 10 → 100 grows the simulated population toward
    /// paper magnitudes while the entity structure (AS and prefix
    /// counts) stays fixed.
    pub population_mult: u64,
    /// Master RNG seed; every derived decision is a pure function of this.
    pub seed: u64,
}

impl Scale {
    /// The default experiment scale: 1/1000 of paper address magnitudes,
    /// 1/10 of entity counts. A full four-year service run completes in
    /// minutes.
    pub fn paper() -> Scale {
        Scale { addr_div: 1000, entity_div: 10, population_mult: 1, seed: 0x0D06_F00D }
    }

    /// A miniature Internet for unit and integration tests: sub-second
    /// whole-pipeline runs.
    pub fn tiny() -> Scale {
        Scale { addr_div: 20_000, entity_div: 50, population_mult: 1, seed: 0x0D06_F00D }
    }

    /// Between `tiny` and `paper`; used by benches that need realistic
    /// shapes without multi-minute runtimes.
    pub fn small() -> Scale {
        Scale { addr_div: 5000, entity_div: 20, population_mult: 1, seed: 0x0D06_F00D }
    }

    /// Scales a paper address count, keeping at least `min`.
    pub fn addrs(&self, paper_count: u64, min: u64) -> u64 {
        (paper_count / self.addr_div).max(min).saturating_mul(self.population_mult.max(1))
    }

    /// Scales an entity count, keeping at least `min`.
    pub fn entities(&self, paper_count: u64, min: u64) -> u64 {
        (paper_count / self.entity_div).max(min)
    }

    /// Scales an address count with *stochastic rounding*: the fractional
    /// remainder becomes a deterministic per-`key` coin flip. Summed over
    /// many entities this preserves totals exactly, where a per-entity
    /// floor would inflate small populations at aggressive scales.
    pub fn addrs_frac(&self, paper_count: u64, key: u64) -> u64 {
        let whole = paper_count / self.addr_div;
        let rem = paper_count % self.addr_div;
        let bump =
            sixdust_addr::prf::chance(self.seed, u128::from(key), 0xF4AC, rem, self.addr_div);
        (whole + u64::from(bump)).saturating_mul(self.population_mult.max(1))
    }

    /// Returns a copy with a different seed (for determinism tests).
    pub fn with_seed(mut self, seed: u64) -> Scale {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different population multiplier (the
    /// 1×/10×/100× axis of the hitlist-at-scale bench curve).
    pub fn with_population_mult(mut self, mult: u64) -> Scale {
        self.population_mult = mult.max(1);
        self
    }
}

impl Default for Scale {
    fn default() -> Scale {
        Scale::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_math() {
        let s = Scale::paper();
        assert_eq!(s.addrs(790_000_000, 1), 790_000);
        assert_eq!(s.addrs(100, 10), 10, "floor respected");
        assert_eq!(s.entities(22_000, 1), 2_200);
    }

    #[test]
    fn presets_ordered() {
        assert!(Scale::tiny().addr_div > Scale::small().addr_div);
        assert!(Scale::small().addr_div > Scale::paper().addr_div);
    }

    #[test]
    fn with_seed_only_changes_seed() {
        let s = Scale::paper().with_seed(42);
        assert_eq!(s.seed, 42);
        assert_eq!(s.addr_div, Scale::paper().addr_div);
    }

    #[test]
    fn population_mult_scales_addresses_not_entities() {
        let s = Scale::paper().with_population_mult(10);
        assert_eq!(s.addrs(790_000_000, 1), 7_900_000);
        assert_eq!(s.entities(22_000, 1), 2_200, "entity structure is fixed");
        // Stochastic rounding scales too: whole part multiplies exactly.
        assert_eq!(s.addrs_frac(1_000_000, 7), Scale::paper().addrs_frac(1_000_000, 7) * 10);
        // Zero is clamped so a bad config can't empty the Internet.
        assert_eq!(Scale::paper().with_population_mult(0).addrs(1000, 1), 1);
    }
}
