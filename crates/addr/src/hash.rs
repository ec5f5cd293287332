//! A hasher that costs one mix, for the `u128`- and `u64`-keyed tables
//! of the simulator and the serve tier.
//!
//! std's default hasher is SipHash-1-3: keyed against collision attacks
//! and several times the price of what these tables need — every key
//! they hold comes out of the simulator, none from an adversary. A
//! `u128` key (the simulator's interface table) hashes through
//! [`Hasher::write_u128`], which [`AddrHasher`] answers with a single
//! [`prf::mix64`] over the two halves folded into one word; a `u64` key
//! (a serve client id, a packed `(client, kind)` pair) through
//! [`Hasher::write_u64`], one [`prf::mix64`] of the word. No table of
//! the round's address state uses it: those are sorted columns. Every
//! table draws its own key when it is constructed, so iteration order
//! still differs from table to table and from run to run: code that lets
//! a record depend on it keeps getting caught.

use std::hash::{BuildHasher, Hasher, RandomState};

use crate::prf;

/// Builds [`AddrHasher`]s that share one table's key.
#[derive(Debug, Clone)]
pub struct AddrBuildHasher {
    key: u64,
}

impl Default for AddrBuildHasher {
    /// Draws a fresh key from std's per-thread random source.
    fn default() -> AddrBuildHasher {
        AddrBuildHasher { key: RandomState::new().hash_one(0u8) }
    }
}

impl BuildHasher for AddrBuildHasher {
    type Hasher = AddrHasher;

    fn build_hasher(&self) -> AddrHasher {
        AddrHasher(self.key)
    }
}

/// One [`prf::mix64`] per address; the table's key is the initial state.
#[derive(Debug)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn write_u128(&mut self, v: u128) {
        // The halves meet through an odd multiply, not a plain xor: a
        // population's prefixes and interface identifiers both differ in
        // their low bits, and `hi ^ lo` would let those cancel.
        let folded = ((v >> 64) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ v as u64;
        self.0 = prf::mix64(self.0 ^ folded);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = prf::mix64(self.0 ^ v);
    }

    /// The fallback for keys that are not a bare `u128` or `u64`.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = prf::mix64(self.0 ^ u64::from(byte));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::{Addr, Eui64};

    /// 50 000 addresses of the shapes the simulated population mints.
    fn population_shapes() -> Vec<Addr> {
        let net = |i: u128| (0x2001_0db8u128 << 96) | (i << 64);
        let mut addrs = Vec::new();
        // Low-byte runs: `::1 … ::25` under 500 neighbouring /64s.
        addrs.extend((0..500).flat_map(|n| (1..=25).map(move |i| Addr(net(n) | i))));
        // Stride-64 incrementals from a base per /64.
        addrs
            .extend((0..125).flat_map(|n| {
                (0..100).map(move |i| Addr(net(0x1_0000 + n) | (n * 0x10 + i * 64)))
            }));
        // Consecutive EUI-64 serials of one vendor under 50 /64s.
        addrs.extend((0..50).flat_map(|n| {
            (0..250u32).map(move |i| {
                Eui64::from_oui_serial(0x00_1A_2B, 0x4000 + n as u32 * 250 + i)
                    .apply_to(Addr(net(0x2_0000 + n)))
            })
        }));
        // Multiples of 0x1000 across the whole space.
        addrs.extend((1..=12_500).map(|i| Addr(i * 0x1000)));
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 50_000);
        addrs
    }

    /// Asserts that 50 000 keys hashed under two table keys fill a table
    /// as 50 000 uniform draws would.
    fn assert_spread_like_uniform_draws<K: std::hash::Hash>(keys: &[K], what: &str) {
        assert_eq!(keys.len(), 50_000);
        for key in [0, 0x5eed_0fa7_ab1e] {
            let build = AddrBuildHasher { key };
            // hashbrown indexes its buckets with the hash's low bits and
            // tags each entry with its top seven.
            let mut buckets = vec![0u32; 1 << 16];
            let mut tags = [0u32; 128];
            for k in keys {
                let h = build.hash_one(k);
                buckets[(h & 0xffff) as usize] += 1;
                tags[(h >> 57) as usize] += 1;
            }
            // 50 000 uniform draws over 65 536 buckets occupy
            // 65 536 · (1 − e^(−50 000 / 65 536)) ≈ 34 980 of them and put
            // about eight in the fullest; a tag expects 390.6 ± 20.
            let occupied = buckets.iter().filter(|n| **n > 0).count();
            let fullest = *buckets.iter().max().unwrap();
            assert!(occupied >= 34_980 * 97 / 100, "{what}, key {key:#x}: {occupied} occupied");
            assert!(fullest <= 12, "{what}, key {key:#x}: {fullest} in one bucket");
            let (low, high) = (*tags.iter().min().unwrap(), *tags.iter().max().unwrap());
            assert!(
                low >= 293 && high <= 488,
                "{what}, key {key:#x}: tags hold {low}..={high}, not 391 ± 25 %"
            );
        }
    }

    #[test]
    fn population_shapes_spread_like_uniform_draws() {
        assert_spread_like_uniform_draws(&population_shapes(), "population shapes");
    }

    #[test]
    fn packed_client_keys_spread_like_uniform_draws() {
        // The shape of a serve day's `(client, kind)` table: `client * 8 +
        // kind` over 150 000 clients, every third of which holds the kind
        // its id selects. The low bits repeat every 8 192 clients and the
        // top seven are zero, so a hash that passes the word through
        // fills an eighth of the buckets and one tag.
        let keys: Vec<u64> =
            (0..150_000u64).step_by(3).map(|client| client * 8 + client % 8).collect();
        assert_spread_like_uniform_draws(&keys, "packed client keys");
    }

    #[test]
    fn every_table_draws_its_own_key() {
        let keys: HashSet<u64> = (0..8).map(|_| AddrBuildHasher::default().key).collect();
        assert_eq!(keys.len(), 8, "RandomState hands every construction another key");
        // Same members, another key: equal sets that iterate differently.
        let members = population_shapes();
        let a: HashSet<Addr, AddrBuildHasher> = members.iter().copied().collect();
        let b: HashSet<Addr, AddrBuildHasher> = members.iter().copied().collect();
        assert_eq!(a, b);
        assert!(a.iter().ne(b.iter()), "iteration order is per table");
    }

    #[test]
    fn other_keys_hash_through_the_byte_fallback() {
        let build = AddrBuildHasher { key: 7 };
        assert_ne!(build.hash_one("ab"), build.hash_one("ba"));
        assert_eq!(build.hash_one(Addr(5)), build.hash_one(Addr(5)));
        assert_ne!(build.hash_one(Addr(5)), build.hash_one(Addr(5 << 64)));
    }
}
