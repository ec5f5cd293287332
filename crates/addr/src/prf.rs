//! A small deterministic pseudo-random function (PRF).
//!
//! The simulated Internet must answer "does address X respond to protocol P
//! on day D?" identically every time it is asked, without storing a record
//! per address (the paper's input list has hundreds of millions of entries).
//! Every such decision is therefore a pure function of a seed and the
//! question, computed with the SplitMix64 finalizer — a well-studied mixer
//! with full avalanche behaviour that is more than random enough for
//! statistical modelling and orders of magnitude faster than a
//! cryptographic hash.

/// SplitMix64 finalizer: a bijective mixer over `u64`.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Combines two words into one mixed word (not commutative).
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b ^ 0x6a09_e667_f3bc_c909))
}

/// PRF over a 128-bit value (e.g. an address) plus a seed and a domain tag.
///
/// The `tag` separates independent decision streams (liveness vs. churn vs.
/// fingerprint choice) so they are uncorrelated even for the same address.
#[inline]
pub fn prf_u128(seed: u64, value: u128, tag: u64) -> u64 {
    Keyed::new(seed, tag).draw(value)
}

/// [`prf_u128`] with its `(seed, tag)` half mixed once: a loop that draws
/// for many values under one seed and tag builds the key outside it and
/// pays three mixes a value instead of five.
///
/// The key also holds the high-word half for a value whose high 64 bits
/// are zero, `mix2(key, 0)`, so a draw for a value below 2^64 (a domain,
/// client or request id) pays two mixes. An address pays three, behind a
/// branch that a stream of addresses or of ids predicts.
#[derive(Debug, Clone, Copy)]
pub struct Keyed {
    key: u64,
    zero_high: u64,
}

impl Keyed {
    /// The key of the stream `prf_u128(seed, _, tag)`.
    #[inline]
    pub fn new(seed: u64, tag: u64) -> Keyed {
        let key = mix2(seed, tag);
        Keyed { key, zero_high: mix2(key, 0) }
    }

    /// `prf_u128(seed, value, tag)` for the key's seed and tag.
    #[inline]
    pub fn draw(self, value: u128) -> u64 {
        let hi = (value >> 64) as u64;
        let lo = value as u64;
        let high_half = if hi == 0 { self.zero_high } else { mix2(self.key, hi) };
        mix64(high_half ^ mix64(lo))
    }
}

/// Uniform coin flip with probability `p_num / p_den`.
///
/// # Panics
///
/// Panics if `p_den == 0`.
#[inline]
pub fn chance(seed: u64, value: u128, tag: u64, p_num: u64, p_den: u64) -> bool {
    assert!(p_den > 0, "zero denominator");
    if p_num >= p_den {
        return true;
    }
    prf_u128(seed, value, tag) % p_den < p_num
}

/// Uniform draw in `0..bound` (`bound > 0`).
#[inline]
pub fn uniform(seed: u64, value: u128, tag: u64, bound: u64) -> u64 {
    assert!(bound > 0, "zero bound");
    prf_u128(seed, value, tag) % bound
}

/// A tiny deterministic stream generator for when a sequence of values is
/// needed (e.g. drawing several probe addresses). Equivalent to SplitMix64
/// seeded from the PRF.
#[derive(Debug, Clone)]
pub struct PrfStream {
    state: u64,
}

impl PrfStream {
    /// Creates a stream keyed by `(seed, value, tag)`.
    pub fn new(seed: u64, value: u128, tag: u64) -> PrfStream {
        PrfStream { state: prf_u128(seed, value, tag) }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// Next value uniform in `0..bound`.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Next coin flip with probability `p` (clamped to `[0,1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn tags_separate_streams() {
        let v = 0x2001_0db8_u128 << 96;
        assert_ne!(prf_u128(1, v, 0), prf_u128(1, v, 1));
        assert_ne!(prf_u128(1, v, 0), prf_u128(2, v, 0));
    }

    /// `prf_u128` as it read before the keyed form existed.
    fn prf_u128_in_one_piece(seed: u64, value: u128, tag: u64) -> u64 {
        mix64(mix2(mix2(seed, tag), (value >> 64) as u64) ^ mix64(value as u64))
    }

    #[test]
    fn keyed_draws_are_prf_u128() {
        let mut rng = PrfStream::new(0x6b65_7965, 0, 0);
        for case in 0..2_000u32 {
            let (seed, tag) = (rng.next_u64(), rng.next_u64());
            let key = Keyed::new(seed, tag);
            // One key serves many values; the edge values ride along,
            // those around 2^64 where the cached zero-high half stops.
            for value in [
                0,
                u128::MAX,
                u128::from(u64::MAX),
                1 << 64,
                (1 << 64) + 1,
                (1 << 64) - 1,
                u128::from(rng.next_u64()),
                u128::from(rng.next_u64()) << 64,
                u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()),
            ] {
                let expected = prf_u128_in_one_piece(seed, value, tag);
                assert_eq!(key.draw(value), expected, "case {case}: {seed:#x} {value:#x} {tag:#x}");
                assert_eq!(prf_u128(seed, value, tag), expected, "case {case}");
            }
        }
    }

    #[test]
    fn chance_extremes() {
        assert!(chance(1, 42, 0, 1, 1));
        assert!(chance(1, 42, 0, 5, 3), "num >= den is always true");
        assert!(!chance(1, 42, 0, 0, 10));
    }

    #[test]
    fn chance_is_roughly_uniform() {
        let hits = (0..10_000u128).filter(|&i| chance(7, i, 3, 1, 4)).count();
        // 1/4 of 10k = 2500; allow generous tolerance.
        assert!((2100..2900).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn uniform_in_bounds() {
        for i in 0..1000u128 {
            assert!(uniform(9, i, 1, 17) < 17);
        }
    }

    #[test]
    fn stream_reproducible() {
        let mut a = PrfStream::new(3, 99, 5);
        let mut b = PrfStream::new(3, 99, 5);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = PrfStream::new(3, 99, 6);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn stream_bool_probability() {
        let mut s = PrfStream::new(11, 0, 0);
        let hits = (0..10_000).filter(|_| s.next_bool(0.9)).count();
        assert!(hits > 8700 && hits < 9300, "hits = {hits}");
    }
}
