//! The content digest of an item set: a keyed sum of one hash per item,
//! `OFFSET_BASIS + Σ item_hash(a) mod 2⁶⁴`.
//!
//! One value names one set everywhere it travels: `manifest.json` records
//! it per artifact, the serve layer uses it as the ETag and frames every
//! delta stream with the digests of both endpoints. It is defined here,
//! once, so the publisher and the distribution tier cannot drift apart.
//!
//! The terms are independent of each other and of order, so the digest
//! composes: the set a delta leads to has
//! `digest(base) + Σ item_hash(added) − Σ item_hash(removed)`
//! ([`content_digest_after`]), which a receiver that holds the base's
//! digest computes in the size of the delta, without building or hashing
//! the result. Hashing a whole set costs two multiplies an item, and the
//! items of a set do not wait on each other.
//!
//! What the digest guards against is corruption and torn transfers, not
//! forgers: a sum of 64-bit terms is no more collision-resistant against
//! someone who chooses the items than the FNV chain it replaced.
//!
//! FNV-1a 64 over the little-endian bytes of each item ([`fnv_items`],
//! [`FnvHasher`]) stays for what pins a byte stream in a test (checkpoint
//! bytes, reports, zone answers); it is order-dependent and serial, and
//! names no set.

/// The digest of the empty set (FNV-1a 64's offset basis, the value it
/// always had).
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;
/// The key [`item_hash`] folds the high half with, so that item 0 has a
/// term other than 0.
const KEY: u64 = 0x243f_6a88_85a3_08d3;
/// The two odd multipliers of [`item_hash`] (the golden ratio's and
/// splitmix64's).
const MUL_HIGH: u64 = 0x9e37_79b9_7f4a_7c15;
const MUL_LOW: u64 = 0xbf58_476d_1ce4_e5b9;

/// The term one item adds to a set's digest: the high half keyed and
/// multiplied, folded onto itself and into the low half, multiplied
/// again and folded. Each step is a bijection of what it reads while the
/// other half is held, so two items that differ in one half — by a
/// single bit or by more — never share a term. Both halves pass through
/// the second multiply together, so two items that trade halves do not
/// sum to what the original two did, as a sum of one term per half would.
#[inline]
pub fn item_hash(item: u128) -> u64 {
    let (high, low) = ((item >> 64) as u64, item as u64);
    let high = (high ^ KEY).wrapping_mul(MUL_HIGH);
    let mixed = (high ^ (high >> 32) ^ low).wrapping_mul(MUL_LOW);
    mixed ^ (mixed >> 31)
}

/// The content digest of a set: the empty set's digest plus the
/// [`item_hash`] of each item, wrapping. Consumes any item iterator, and
/// an [`&AddrSet`](crate::AddrSet) directly; the items must be distinct,
/// and their order does not matter.
///
/// ```
/// use sixdust_addr::digest::content_digest;
/// assert_eq!(content_digest([9u128, 1, 5]), content_digest([1u128, 5, 9]));
/// ```
pub fn content_digest<I: IntoIterator<Item = u128>>(items: I) -> u64 {
    content_digest_after(OFFSET_BASIS, std::iter::empty(), items)
}

/// The content digest of the set that a set whose digest is `base`
/// becomes when `removed` leave it and `added` join it. Holds only when
/// every removed item was a member and no added one was: the caller
/// checks that, this adds and subtracts terms.
///
/// ```
/// use sixdust_addr::digest::{content_digest, content_digest_after};
/// let base = content_digest([1u128, 5, 9]);
/// assert_eq!(content_digest_after(base, [5u128], [2u128, 7]), content_digest([1u128, 2, 7, 9]));
/// ```
pub fn content_digest_after(
    base: u64,
    removed: impl IntoIterator<Item = u128>,
    added: impl IntoIterator<Item = u128>,
) -> u64 {
    let digest = removed.into_iter().fold(base, |sum, item| sum.wrapping_sub(item_hash(item)));
    added.into_iter().fold(digest, |sum, item| sum.wrapping_add(item_hash(item)))
}

/// FNV-1a 64 over the 16 little-endian bytes of each item, in the order
/// given: the digest a test pins a byte stream or an answer sequence by.
pub fn fnv_items<I: IntoIterator<Item = u128>>(items: I) -> u64 {
    let mut hasher = FnvHasher::new();
    items.into_iter().for_each(|item| hasher.push(item));
    hasher.finish()
}

/// The streaming form of [`fnv_items`]: push items, then
/// [`finish`](FnvHasher::finish).
///
/// ```
/// use sixdust_addr::digest::{fnv_items, FnvHasher};
/// let mut hasher = FnvHasher::new();
/// for item in [9u128, 1, 5] {
///     hasher.push(item);
/// }
/// assert_eq!(hasher.finish(), fnv_items([9u128, 1, 5]));
/// ```
#[derive(Debug)]
pub struct FnvHasher(u64);

impl FnvHasher {
    /// A hasher that has seen no item.
    pub const fn new() -> FnvHasher {
        FnvHasher(OFFSET_BASIS)
    }

    /// Folds one item into the digest, a byte at a time.
    pub fn push(&mut self, item: u128) {
        for byte in item.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest of the items pushed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prf, AddrSet};

    /// A set of about `len` items, seeded: runs of many in two /64s and
    /// one item in five alone in a /64 of its own (runs of one).
    fn mixed_set(seed: u64, len: u64) -> AddrSet {
        (0..u128::from(len))
            .map(|i| match i % 5 {
                0 => (u128::from(prf::prf_u128(seed, i, 1)) << 64) | i,
                _ => ((0x2001_0db8 + i % 2) << 96) | (u128::from(seed % 7 + 1) * i),
            })
            .collect()
    }

    /// How many of `set`'s /64 runs hold one member, and how many more.
    fn run_shapes(set: &AddrSet) -> (usize, usize) {
        let items = set.to_vec();
        let runs: Vec<usize> =
            items.chunk_by(|a, b| a >> 64 == b >> 64).map(<[u128]>::len).collect();
        let one = runs.iter().filter(|&&len| len == 1).count();
        (one, runs.len() - one)
    }

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(content_digest(std::iter::empty::<u128>()), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv_items(std::iter::empty::<u128>()), 0xcbf2_9ce4_8422_2325);
        assert_eq!(FnvHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn published_digests_are_pinned() {
        // Every ETag and manifest digest published depends on these
        // values: a change here is a format change.
        assert_eq!(content_digest([0u128]), 0xb87e_2d7c_642e_7a36);
        assert_eq!(content_digest([1u128, 2, 3]), 0x1045_dd80_70d7_913a);
        assert_eq!(content_digest([u128::MAX]), 0x599d_ccb7_3bc7_6f45);
        // The FNV chain the set digest was until the sum replaced it; the
        // checkpoint, report and zone pins are taken with it.
        assert_eq!(fnv_items([0u128]), 0x88201fb960ff6465);
        assert_eq!(fnv_items([1u128, 2, 3]), 0x135739c3fb88c6e5);
        assert_eq!(fnv_items([u128::MAX]), 0xd6607508f5a1e855);
    }

    #[test]
    fn the_digest_after_a_delta_is_the_digest_of_the_result() {
        let (mut removals, mut additions) = (0, 0);
        for seed in 0..60u64 {
            let base = mixed_set(seed, prf::prf_u128(seed, 0, 2) % 400);
            let churn = 2 + prf::prf_u128(seed, 1, 2) % 9;
            let removed: AddrSet =
                base.iter().filter(|&a| prf::prf_u128(seed, a, 3).is_multiple_of(churn)).collect();
            // Items in /64s the base has, and in /64s it has not.
            let added: AddrSet = (0..u128::from(prf::prf_u128(seed, 2, 2) % 60))
                .map(|i| match i % 2 {
                    0 => (0x2001_0db8 << 96) | (1 << 40) | i,
                    _ => u128::from(prf::prf_u128(seed, i, 4)) << 64 | 7,
                })
                .filter(|&a| !base.contains(a))
                .collect();
            let mut next = base.diff(&removed);
            next.union_in_place(&added);
            let composed = content_digest_after(content_digest(&base), &removed, &added);
            assert_eq!(composed, content_digest(&next), "seed {seed}");
            // Back again: the terms cancel.
            assert_eq!(content_digest_after(composed, &added, &removed), content_digest(&base));
            removals += removed.len();
            additions += added.len();
        }
        assert!(removals > 500 && additions > 500, "{removals} removed, {additions} added");
    }

    #[test]
    fn every_single_bit_flip_changes_the_item_hash() {
        let items = (0..200u128)
            .map(|i| u128::from(prf::prf_u128(7, i, 5)) << 64 | u128::from(prf::prf_u128(7, i, 6)))
            .chain([0, 1, u128::MAX, 1 << 64, u128::from(u64::MAX)]);
        for item in items {
            for bit in 0..128 {
                let flipped = item ^ (1 << bit);
                assert_ne!(item_hash(item), item_hash(flipped), "{item:#x}, bit {bit}");
            }
        }
    }

    #[test]
    fn items_that_trade_halves_change_the_set_digest() {
        let halves = |x: u128| (x >> 64, x & u128::from(u64::MAX));
        // Small structured items, and seeded ones.
        let small =
            (1..12u128).flat_map(|a| (1..12u128).map(move |b| ((a << 64) | b, (b << 64) | a)));
        let draw = |i, tag| {
            u128::from(prf::prf_u128(9, i, tag)) << 64 | u128::from(prf::prf_u128(9, i, tag + 1))
        };
        let seeded = (0..500u128).map(|i| (draw(i, 6), draw(i, 8)));
        for (x, y) in small.chain(seeded) {
            let ((xh, xl), (yh, yl)) = (halves(x), halves(y));
            let (u, v) = ((xh << 64) | yl, (yh << 64) | xl);
            if [u, v].contains(&x) {
                continue; // the same two items
            }
            assert_ne!(content_digest([x, y]), content_digest([u, v]), "{x:#x}, {y:#x}");
        }
    }

    #[test]
    fn streaming_and_one_shot_agree_on_chunked_sets() {
        // A run of 3 000, runs of one, and the two neighbours of the 2^64
        // boundary (key 0 then joins `0 << 80` in a run of two).
        let mut items: Vec<u128> = (0..3_000u128).map(|i| (0x2001u128 << 96) + i).collect();
        items.extend((0..200u128).map(|i| i << 80));
        items.extend([u128::from(u64::MAX), 1 << 64]);
        let set = AddrSet::from_unsorted(items);
        assert_eq!(run_shapes(&set), (200, 2), "test needs both run shapes");
        let mut hasher = FnvHasher::new();
        for item in set.iter() {
            hasher.push(item);
        }
        assert_eq!(hasher.finish(), fnv_items(&set));
        assert_eq!(fnv_items(&set), fnv_items(set.to_vec()));
        assert_eq!(content_digest(&set), content_digest(set.to_vec()));
        assert_eq!(content_digest(&set), content_digest(set.to_vec().into_iter().rev()));
    }
}
