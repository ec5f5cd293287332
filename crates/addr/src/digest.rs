//! The content digest of an item set: FNV-1a 64 over the little-endian
//! bytes of each item, in ascending order.
//!
//! One value names one set everywhere it travels: `manifest.json` records
//! it per artifact, the serve layer uses it as the ETag and frames every
//! delta stream with the digests of both endpoints. It is defined here,
//! once, so the publisher and the distribution tier cannot drift apart.
//!
//! The function is a serial multiply chain — sixteen dependent multiplies
//! per item, about 20 ns — and any other mixing would change every
//! published digest, so one set cannot be hashed faster. Several sets
//! can: their chains are independent, and [`content_digests`] steps up
//! to four of them side by side through the same byte step, which costs
//! the multiplier's throughput (5 ns per item, off flat slices and
//! `AddrSet` iterators alike) where one chain costs its latency. A caller
//! with two or more sets to hash — a publish
//! has eight artifacts, the first read of a version's shards those
//! shards, a mirror sync the changed artifacts of a generation, a delta
//! both of its endpoints — hands them over together; a caller with one calls
//! [`content_digest`], and either way a set is hashed once and the value
//! carried.

/// FNV-1a 64 offset basis: the digest of the empty set.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const PRIME: u64 = 0x100_0000_01b3;
/// Chains [`content_digests`] keeps in flight: a multiply takes about
/// three cycles to finish and one can start every cycle, so a fourth
/// chain is the last that still finds the multiplier idle.
const LANES: usize = 4;
// `content_digests` names a lockstep for every group size up to this.
const _: () = assert!(LANES == 4);

/// The byte step of the digest, the only one there is: folds one item
/// into each of `N` running digests, a byte of every lane at a time, so
/// that the `N` multiply chains overlap.
#[inline(always)]
fn fold<const N: usize>(hashes: &mut [u64; N], items: [u128; N]) {
    let bytes = items.map(u128::to_le_bytes);
    for byte in 0..16 {
        for (hash, item) in hashes.iter_mut().zip(&bytes) {
            *hash = (*hash ^ u64::from(item[byte])).wrapping_mul(PRIME);
        }
    }
}

/// The streaming form of [`content_digest`]: push items in ascending
/// deduplicated order, then [`finish`](ContentHasher::finish).
///
/// ```
/// use sixdust_addr::digest::{content_digest, ContentHasher};
/// let mut hasher = ContentHasher::new();
/// for item in [1u128, 5, 9] {
///     hasher.push(item);
/// }
/// assert_eq!(hasher.finish(), content_digest([1u128, 5, 9]));
/// ```
#[derive(Debug)]
pub struct ContentHasher(u64);

impl ContentHasher {
    /// A hasher that has seen no item.
    pub const fn new() -> ContentHasher {
        ContentHasher(OFFSET_BASIS)
    }

    /// Folds one item into the digest.
    #[inline]
    pub fn push(&mut self, item: u128) {
        fold(std::array::from_mut(&mut self.0), [item]);
    }

    /// The digest of the items pushed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for ContentHasher {
    fn default() -> ContentHasher {
        ContentHasher::new()
    }
}

/// FNV-1a 64-bit digest over the little-endian bytes of each item — the
/// stable per-artifact content digest. Streaming: consumes any item
/// iterator, and an [`&AddrSet`](crate::AddrSet) directly; items must
/// arrive in ascending deduplicated order (the order every `AddrSet`
/// iterates in) so the digest depends on content alone.
pub fn content_digest<I: IntoIterator<Item = u128>>(items: I) -> u64 {
    let mut hasher = ContentHasher::new();
    for item in items {
        hasher.push(item);
    }
    hasher.finish()
}

/// [`content_digest`] of every stream, in the order given: the same
/// values, several chains at a time. Streams are taken four to a group
/// and stepped in lockstep, an item of each per step, until the shortest
/// of the group runs out; what is left of the others, and a stream that
/// has a group to itself, is hashed as [`content_digest`] would. A group
/// of two or three runs as many chains. Sets of similar length therefore
/// gain the most, and no order of the streams changes a value.
///
/// The streams are consumed as they come — pass `&AddrSet`s or
/// `slice.iter().copied()`, not flat copies made for the call.
///
/// ```
/// use sixdust_addr::digest::{content_digest, content_digests};
/// let sets = [vec![1u128, 5, 9], vec![], vec![2, 3]];
/// let together = content_digests(sets.iter().map(|set| set.iter().copied()));
/// let apart: Vec<u64> = sets.iter().map(|set| content_digest(set.iter().copied())).collect();
/// assert_eq!(together, apart);
/// ```
pub fn content_digests<S>(streams: impl IntoIterator<Item = S>) -> Vec<u64>
where
    S: IntoIterator<Item = u128>,
{
    let mut streams: Vec<_> = streams.into_iter().map(|s| s.into_iter().fuse()).collect();
    let mut digests = vec![OFFSET_BASIS; streams.len()];
    for (group, hashes) in streams.chunks_mut(LANES).zip(digests.chunks_mut(LANES)) {
        match group.len() {
            4 => lockstep::<4, _>(group, hashes),
            3 => lockstep::<3, _>(group, hashes),
            2 => lockstep::<2, _>(group, hashes),
            _ => {}
        }
        for (stream, hash) in group.iter_mut().zip(hashes) {
            for item in stream {
                fold(std::array::from_mut(hash), [item]);
            }
        }
    }
    digests
}

/// Steps `N` streams side by side, folding an item of each into its
/// digest per step, until one of them ends; no item is taken from a
/// stream without being folded in.
fn lockstep<const N: usize, I: Iterator<Item = u128>>(streams: &mut [I], hashes: &mut [u64]) {
    let mut running: [u64; N] = (&*hashes).try_into().expect("one digest per lane");
    let (items, taken) = loop {
        let mut items = [0u128; N];
        let mut taken = 0;
        for stream in streams.iter_mut() {
            let Some(item) = stream.next() else { break };
            items[taken] = item;
            taken += 1;
        }
        if taken < N {
            break (items, taken);
        }
        fold(&mut running, items);
    };
    // The lanes before the one that ended gave up an item in that step.
    for (hash, &item) in running.iter_mut().zip(&items[..taken]) {
        fold(std::array::from_mut(hash), [item]);
    }
    hashes.copy_from_slice(&running);
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
        assert_eq!(ContentHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn published_digests_are_pinned() {
        // Every ETag and manifest digest ever published depends on these
        // values: a change here is a format change.
        assert_eq!(content_digest([0u128]), 0x88201fb960ff6465);
        assert_eq!(content_digest([1u128, 2, 3]), 0x135739c3fb88c6e5);
        assert_eq!(content_digest([u128::MAX]), 0xd6607508f5a1e855);
    }

    #[test]
    fn side_by_side_digests_equal_one_at_a_time_for_every_stream_count() {
        // How long stream `i` of `count` is under each shape; 40 rounds
        // of seeded ragged lengths follow the three fixed ones.
        type Shape = fn(u64, u64, u64) -> u64;
        let all_equal: Shape = |_, _, _| 333;
        let one_long: Shape = |_, i, count| if i == count / 2 { 4_000 } else { 100 };
        let some_empty: Shape = |seed, i, _| if (seed + i) % 3 == 0 { 0 } else { 150 + 7 * i };
        let ragged: Shape = |seed, i, _| match prf::prf_u128(seed, u128::from(i), 9) % 700 {
            len if len < 70 => 0,
            len => len,
        };
        let shapes = [all_equal, one_long, some_empty].into_iter().chain([ragged; 40]);
        let (mut runs_of_one, mut runs_of_many) = (0, 0);
        for (round, shape) in shapes.enumerate() {
            for count in 0..=9u64 {
                let seed = round as u64 * 16 + count;
                let sets: Vec<AddrSet> =
                    (0..count).map(|i| mixed_set(seed + i, shape(seed, i, count))).collect();
                for set in &sets {
                    let (one, many) = run_shapes(set);
                    runs_of_one += one;
                    runs_of_many += many;
                }
                let apart: Vec<u64> = sets.iter().map(content_digest).collect();
                assert_eq!(content_digests(&sets), apart, "round {round}, {count} sets");
                // Flat copies of the same items, and the reverse order.
                let flat: Vec<Vec<u128>> = sets.iter().map(AddrSet::to_vec).collect();
                assert_eq!(content_digests(flat.iter().map(|v| v.iter().copied())), apart);
                let reversed: Vec<u64> = content_digests(sets.iter().rev());
                assert!(reversed.iter().eq(apart.iter().rev()), "round {round}, {count} sets");
            }
        }
        assert!(runs_of_one > 100 && runs_of_many > 100, "test needs both run shapes");
    }

    #[test]
    fn a_stream_that_ends_mid_step_loses_no_item() {
        // Lane 2 of 4 ends first: lanes 0 and 1 have already handed over
        // their item of that step.
        let streams = [vec![1u128, 2, 3], vec![4, 5, 6], vec![7, 8], vec![9, 10, 11]];
        let apart: Vec<u64> = streams.iter().map(|s| content_digest(s.iter().copied())).collect();
        assert_eq!(content_digests(streams.iter().map(|s| s.iter().copied())), apart);
        assert_eq!(content_digests(Vec::<Vec<u128>>::new()), Vec::<u64>::new());
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
        let mut hasher = ContentHasher::new();
        for item in set.iter() {
            hasher.push(item);
        }
        assert_eq!(hasher.finish(), content_digest(&set));
        assert_eq!(content_digest(&set), content_digest(set.to_vec()));
    }
}
