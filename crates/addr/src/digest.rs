//! The content digest of an item set: FNV-1a 64 over the little-endian
//! bytes of each item, in ascending order.
//!
//! One value names one set everywhere it travels: `manifest.json` records
//! it per artifact, the serve layer uses it as the ETag and frames every
//! delta stream with the digests of both endpoints. It is defined here,
//! once, so the publisher and the distribution tier cannot drift apart.
//!
//! The function is a serial multiply chain (sixteen dependent multiplies
//! per item), so the way to make a caller faster is to hash each set
//! once and carry the value, not to hash faster: any other mixing would
//! change every published digest.

/// FNV-1a 64 offset basis: the digest of the empty set.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const PRIME: u64 = 0x100_0000_01b3;

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
        let mut hash = self.0;
        for byte in item.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
        self.0 = hash;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AddrSet;

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
    fn streaming_and_one_shot_agree_on_chunked_sets() {
        let mut items: Vec<u128> = (0..3_000u128).map(|i| (0x2001u128 << 96) + i).collect();
        items.extend((0..200u128).map(|i| i << 80));
        let set = AddrSet::from_unsorted(items);
        assert!(set.bitmap_chunk_count() > 0, "test needs a bitmap chunk");
        let mut hasher = ContentHasher::new();
        for item in set.iter() {
            hasher.push(item);
        }
        assert_eq!(hasher.finish(), content_digest(&set));
        assert_eq!(content_digest(&set), content_digest(set.to_vec()));
    }
}
