//! [`AddrSet`] — the chunked address-set type every crate boundary
//! speaks.
//!
//! The paper's pipeline tracked hundreds of millions of candidates (134 M
//! GFW-polluted addresses alone); a flat sorted `Vec<u128>` spends 16
//! bytes per address no matter how clustered the population is, and leaks
//! that representation into every API that touches a set. `AddrSet`
//! buckets addresses by their top 32 bits (the routing /32) into chunks,
//! roaring-bitmap style, and picks each chunk's representation by
//! density:
//!
//! * **sorted block** — a sorted, deduplicated `Vec<u128>`; the sparse
//!   default, merged with the same linear kernels the round hot path has
//!   always used.
//! * **bitmap** — a base offset plus a `u64` bit array; chosen exactly
//!   when it is no larger than the sorted block it replaces, which makes
//!   the representation a pure function of the chunk's *content*. Two
//!   sets holding the same addresses are structurally identical no matter
//!   how they were built, so `PartialEq` derives and snapshots stay
//!   byte-stable.
//!
//! Iteration is ascending and streaming (chunk by chunk, never
//! materializing the whole set), identical to the order a normalized
//! `Vec<u128>` would give. The JSON form is the same plain sequence of
//! integers a `Vec<Addr>` writes, so existing checkpoints and manifests
//! parse unchanged.

use sixdust_json::{Error, FromJson, ToJson, Value};

use crate::sorted;
use crate::Addr;

/// A chunk's bucket key: the top 32 bits of the address (its /32).
fn key_of(value: u128) -> u32 {
    (value >> 96) as u32
}

/// Per-chunk payload. The variant is canonical: [`ChunkData::from_vec`]
/// picks the bitmap exactly when its backing array is no larger than the
/// sorted block, so equal content always yields equal structure.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ChunkData {
    /// Sorted, deduplicated values (full 128-bit form).
    Sorted(Vec<u128>),
    /// Dense range: bit `i` set means `base + i` is a member.
    Bitmap {
        /// The lowest member; bit 0 of `words[0]`.
        base: u128,
        /// The bit array, little-endian within each word.
        words: Vec<u64>,
    },
}

impl ChunkData {
    /// The bitmap form of a sorted, deduplicated, non-empty value list,
    /// when that is its canonical representation.
    fn bitmap_of(values: &[u128]) -> Option<ChunkData> {
        debug_assert!(!values.is_empty());
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        let base = values[0];
        let span = values[values.len() - 1] - base + 1;
        // Bitmap bytes = ceil(span/64)·8; sorted bytes = n·16. The bitmap
        // wins exactly when span ≤ 128·n — at least one member per 16
        // bytes of bit array, the break-even density.
        if values.len() < 2 || span > 128 * values.len() as u128 {
            return None;
        }
        let mut words = vec![0u64; span.div_ceil(64) as usize];
        for &v in values {
            let offset = (v - base) as usize;
            words[offset / 64] |= 1 << (offset % 64);
        }
        Some(ChunkData::Bitmap { base, words })
    }

    /// Builds the canonical representation of a sorted, deduplicated,
    /// non-empty value list, keeping the vector when the chunk stays a
    /// sorted block.
    fn from_vec(values: Vec<u128>) -> ChunkData {
        ChunkData::bitmap_of(&values).unwrap_or(ChunkData::Sorted(values))
    }

    /// [`ChunkData::from_vec`] over a borrowed run: a sorted block is one
    /// exactly sized copy.
    fn from_slice(values: &[u128]) -> ChunkData {
        ChunkData::bitmap_of(values).unwrap_or_else(|| ChunkData::Sorted(values.to_vec()))
    }

    fn len(&self) -> usize {
        match self {
            ChunkData::Sorted(v) => v.len(),
            ChunkData::Bitmap { words, .. } => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    fn contains(&self, value: u128) -> bool {
        match self {
            ChunkData::Sorted(v) => v.binary_search(&value).is_ok(),
            ChunkData::Bitmap { base, words } => {
                if value < *base {
                    return false;
                }
                let offset = value - base;
                let word = (offset / 64) as usize;
                word < words.len() && words[word] & (1 << (offset % 64)) != 0
            }
        }
    }

    /// Appends the chunk's values, ascending, onto `out`.
    fn extend_into(&self, out: &mut Vec<u128>) {
        match self {
            ChunkData::Sorted(v) => out.extend_from_slice(v),
            ChunkData::Bitmap { base, words } => {
                for (i, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let bit = bits.trailing_zeros();
                        out.push(base + (i as u128) * 64 + u128::from(bit));
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// Heap bytes held by the chunk payload.
    fn heap_bytes(&self) -> usize {
        match self {
            ChunkData::Sorted(v) => v.capacity() * std::mem::size_of::<u128>(),
            ChunkData::Bitmap { words, .. } => words.capacity() * std::mem::size_of::<u64>(),
        }
    }
}

/// One /32 bucket of the set.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Chunk {
    key: u32,
    data: ChunkData,
}

impl Chunk {
    fn from_vec(key: u32, values: Vec<u128>) -> Chunk {
        Chunk { key, data: ChunkData::from_vec(values) }
    }
}

/// A set of 128-bit addresses, chunked by /32 prefix with per-density
/// chunk representations: a chunk is a sorted block or, exactly when
/// that is no larger, a base offset and a bitmap — a function of its
/// content alone. The address-set currency at every sixdust crate
/// boundary.
///
/// Deterministic: iteration is ascending, equal content means equal
/// structure, and JSON output matches a sorted `Vec<Addr>` element for
/// element.
///
/// ```
/// use sixdust_addr::AddrSet;
/// let set: AddrSet = [3u128, 1, 2, 3].into_iter().collect();
/// assert_eq!(set.len(), 3);
/// assert_eq!(set.iter().collect::<Vec<u128>>(), vec![1, 2, 3]);
/// assert!(set.contains(2));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddrSet {
    chunks: Vec<Chunk>,
    len: usize,
}

impl AddrSet {
    /// Creates an empty set. `const`, so a `static` empty set costs
    /// nothing.
    pub const fn new() -> AddrSet {
        AddrSet { chunks: Vec::new(), len: 0 }
    }

    /// Builds from a sorted, strictly increasing (deduplicated) vector.
    /// This is the zero-comparison fast path used when the caller already
    /// holds canonical order — debug builds assert it. The input is cut
    /// into its /32 runs and each chunk is built from its run at its exact
    /// size; a set inside one /32 keeps the vector it was given.
    pub fn from_sorted(mut values: Vec<u128>) -> AddrSet {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]), "input must be strictly increasing");
        let len = values.len();
        let (Some(&first), Some(&last)) = (values.first(), values.last()) else {
            return AddrSet::new();
        };
        if key_of(first) == key_of(last) {
            values.shrink_to_fit();
            return AddrSet { chunks: vec![Chunk::from_vec(key_of(first), values)], len };
        }
        let mut chunks = Vec::new();
        let mut rest = values.as_slice();
        while let Some(&head) = rest.first() {
            let key = key_of(head);
            let run_len = rest.iter().position(|&v| key_of(v) != key).unwrap_or(rest.len());
            let (run, tail) = rest.split_at(run_len);
            chunks.push(Chunk { key, data: ChunkData::from_slice(run) });
            rest = tail;
        }
        AddrSet { chunks, len }
    }

    /// Builds from values in any order, with duplicates allowed.
    pub fn from_unsorted(mut values: Vec<u128>) -> AddrSet {
        sorted::normalize(&mut values);
        AddrSet::from_sorted(values)
    }

    /// Builds from a sorted, strictly increasing slice of [`Addr`]s — the
    /// form the scan merge path produces.
    pub fn from_sorted_addrs(addrs: &[Addr]) -> AddrSet {
        AddrSet::from_sorted(addrs.iter().map(|a| a.0).collect())
    }

    /// Number of addresses in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks (distinct /32 buckets).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Number of chunks currently stored as bitmaps (dense buckets).
    pub fn bitmap_chunk_count(&self) -> usize {
        self.chunks.iter().filter(|c| matches!(c.data, ChunkData::Bitmap { .. })).count()
    }

    /// Resident bytes: the struct itself plus all heap the chunks hold.
    /// This is what the population-scale bench curve tracks.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<AddrSet>()
            + self.chunks.capacity() * std::mem::size_of::<Chunk>()
            + self.chunks.iter().map(|c| c.data.heap_bytes()).sum::<usize>()
    }

    fn chunk_index(&self, key: u32) -> Result<usize, usize> {
        self.chunks.binary_search_by_key(&key, |c| c.key)
    }

    /// Whether `value` is a member.
    pub fn contains(&self, value: u128) -> bool {
        match self.chunk_index(key_of(value)) {
            Ok(i) => self.chunks[i].data.contains(value),
            Err(_) => false,
        }
    }

    /// Whether `addr` is a member.
    pub fn contains_addr(&self, addr: Addr) -> bool {
        self.contains(addr.0)
    }

    /// Inserts one value; returns `true` if it was new. Prefer the bulk
    /// operations ([`AddrSet::union_in_place`]) on hot paths — a single
    /// insert rebuilds its chunk.
    pub fn insert(&mut self, value: u128) -> bool {
        let key = key_of(value);
        match self.chunk_index(key) {
            Ok(i) => {
                if self.chunks[i].data.contains(value) {
                    return false;
                }
                let mut values = Vec::with_capacity(self.chunks[i].data.len() + 1);
                self.chunks[i].data.extend_into(&mut values);
                let at = values.binary_search(&value).expect_err("not a member");
                values.insert(at, value);
                self.chunks[i] = Chunk::from_vec(key, values);
                self.len += 1;
                true
            }
            Err(i) => {
                self.chunks.insert(i, Chunk::from_vec(key, vec![value]));
                self.len += 1;
                true
            }
        }
    }

    /// Removes one value; returns `true` if it was a member.
    pub fn remove(&mut self, value: u128) -> bool {
        let key = key_of(value);
        let Ok(i) = self.chunk_index(key) else { return false };
        if !self.chunks[i].data.contains(value) {
            return false;
        }
        let mut values = Vec::with_capacity(self.chunks[i].data.len());
        self.chunks[i].data.extend_into(&mut values);
        values.retain(|&v| v != value);
        if values.is_empty() {
            self.chunks.remove(i);
        } else {
            self.chunks[i] = Chunk::from_vec(key, values);
        }
        self.len -= 1;
        true
    }

    /// Merges `other` into `self`, chunk by chunk: untouched chunks of
    /// either side are moved or cloned whole, overlapping /32 buckets go
    /// through the linear union kernel. Never materializes more than one
    /// bucket at a time.
    pub fn union_in_place(&mut self, other: &AddrSet) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        let mut merged: Vec<Chunk> = Vec::with_capacity(self.chunks.len() + other.chunks.len());
        let mut len = 0usize;
        let mut ours = std::mem::take(&mut self.chunks).into_iter().peekable();
        let mut theirs = other.chunks.iter().peekable();
        let mut a_scratch: Vec<u128> = Vec::new();
        let mut b_scratch: Vec<u128> = Vec::new();
        let mut out_scratch: Vec<u128> = Vec::new();
        loop {
            let chunk = match (ours.peek(), theirs.peek()) {
                (Some(a), Some(b)) if a.key == b.key => {
                    let a = ours.next().expect("peeked");
                    let b = theirs.next().expect("peeked");
                    a_scratch.clear();
                    b_scratch.clear();
                    a.data.extend_into(&mut a_scratch);
                    b.data.extend_into(&mut b_scratch);
                    sorted::union_into(&a_scratch, &b_scratch, &mut out_scratch);
                    Chunk::from_vec(a.key, out_scratch.clone())
                }
                (Some(a), Some(b)) if a.key < b.key => ours.next().expect("peeked"),
                (Some(_), Some(_)) => theirs.next().expect("peeked").clone(),
                (Some(_), None) => ours.next().expect("peeked"),
                (None, Some(_)) => theirs.next().expect("peeked").clone(),
                (None, None) => break,
            };
            len += chunk.data.len();
            merged.push(chunk);
        }
        self.chunks = merged;
        self.len = len;
    }

    /// Merges a sorted, strictly increasing [`Addr`] slice — the per-round
    /// scan-merge hot path, equivalent to the old
    /// `sorted::union_in_place` over flat vectors.
    pub fn union_sorted_addrs(&mut self, addrs: &[Addr]) {
        if addrs.is_empty() {
            return;
        }
        self.union_in_place(&AddrSet::from_sorted_addrs(addrs));
    }

    /// Returns `self \ other` as a new set (chunks absent from `other`
    /// are cloned whole; overlapping buckets go through the diff kernel).
    pub fn diff(&self, other: &AddrSet) -> AddrSet {
        let mut out = AddrSet::new();
        let mut a_scratch: Vec<u128> = Vec::new();
        let mut b_scratch: Vec<u128> = Vec::new();
        let mut d_scratch: Vec<u128> = Vec::new();
        for chunk in &self.chunks {
            match other.chunk_index(chunk.key) {
                Err(_) => {
                    out.len += chunk.data.len();
                    out.chunks.push(chunk.clone());
                }
                Ok(i) => {
                    a_scratch.clear();
                    b_scratch.clear();
                    chunk.data.extend_into(&mut a_scratch);
                    other.chunks[i].data.extend_into(&mut b_scratch);
                    sorted::diff_into(&a_scratch, &b_scratch, &mut d_scratch);
                    if !d_scratch.is_empty() {
                        out.len += d_scratch.len();
                        out.chunks.push(Chunk::from_vec(chunk.key, d_scratch.clone()));
                    }
                }
            }
        }
        out
    }

    /// Counts `|self \ other|` without materializing the difference.
    pub fn diff_count(&self, other: &AddrSet) -> usize {
        let mut count = 0usize;
        let mut a_scratch: Vec<u128> = Vec::new();
        let mut b_scratch: Vec<u128> = Vec::new();
        for chunk in &self.chunks {
            match other.chunk_index(chunk.key) {
                Err(_) => count += chunk.data.len(),
                Ok(i) => {
                    a_scratch.clear();
                    b_scratch.clear();
                    chunk.data.extend_into(&mut a_scratch);
                    other.chunks[i].data.extend_into(&mut b_scratch);
                    count += sorted::diff_count(&a_scratch, &b_scratch);
                }
            }
        }
        count
    }

    /// Counts `|self ∩ other|` without materializing the intersection.
    pub fn intersect_count(&self, other: &AddrSet) -> usize {
        let mut count = 0usize;
        let mut a_scratch: Vec<u128> = Vec::new();
        let mut b_scratch: Vec<u128> = Vec::new();
        for chunk in &self.chunks {
            if let Ok(i) = other.chunk_index(chunk.key) {
                a_scratch.clear();
                b_scratch.clear();
                chunk.data.extend_into(&mut a_scratch);
                other.chunks[i].data.extend_into(&mut b_scratch);
                count += a_scratch.len() - sorted::diff_count(&a_scratch, &b_scratch);
            }
        }
        count
    }

    /// Returns `self ∩ other` as a new set.
    pub fn intersect(&self, other: &AddrSet) -> AddrSet {
        let mut out = AddrSet::new();
        let mut a_scratch: Vec<u128> = Vec::new();
        let mut b_scratch: Vec<u128> = Vec::new();
        let mut i_scratch: Vec<u128> = Vec::new();
        for chunk in &self.chunks {
            if let Ok(i) = other.chunk_index(chunk.key) {
                a_scratch.clear();
                b_scratch.clear();
                chunk.data.extend_into(&mut a_scratch);
                other.chunks[i].data.extend_into(&mut b_scratch);
                sorted::intersect_into(&a_scratch, &b_scratch, &mut i_scratch);
                if !i_scratch.is_empty() {
                    out.len += i_scratch.len();
                    out.chunks.push(Chunk::from_vec(chunk.key, i_scratch.clone()));
                }
            }
        }
        out
    }

    /// Streaming ascending iteration over the raw 128-bit values —
    /// exactly the order a normalized `Vec<u128>` iterates in. Exact-size
    /// and cloneable, so encoders can write a count first.
    pub fn iter(&self) -> Iter<'_> {
        Iter { chunks: self.chunks.iter(), current: ChunkCursor::Empty, remaining: self.len }
    }

    /// Streaming ascending iteration as [`Addr`]s.
    pub fn addrs(&self) -> impl ExactSizeIterator<Item = Addr> + Clone + '_ {
        self.iter().map(Addr)
    }

    /// Materializes the set as a sorted `Vec<u128>` (compatibility edges
    /// only — prefer [`AddrSet::iter`]).
    pub fn to_vec(&self) -> Vec<u128> {
        let mut out = Vec::with_capacity(self.len);
        for chunk in &self.chunks {
            chunk.data.extend_into(&mut out);
        }
        out
    }

    /// Materializes the set as a sorted `Vec<Addr>`.
    pub fn to_addr_vec(&self) -> Vec<Addr> {
        self.addrs().collect()
    }
}

/// Per-chunk cursor of the streaming iterator.
#[derive(Debug, Clone)]
enum ChunkCursor<'a> {
    Empty,
    Sorted(std::slice::Iter<'a, u128>),
    Bitmap { base: u128, words: &'a [u64], word_index: usize, bits: u64 },
}

/// Streaming ascending iterator over an [`AddrSet`]; see
/// [`AddrSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, Chunk>,
    current: ChunkCursor<'a>,
    remaining: usize,
}

impl Iterator for Iter<'_> {
    type Item = u128;

    fn next(&mut self) -> Option<u128> {
        loop {
            match &mut self.current {
                ChunkCursor::Sorted(it) => {
                    if let Some(&v) = it.next() {
                        self.remaining -= 1;
                        return Some(v);
                    }
                }
                ChunkCursor::Bitmap { base, words, word_index, bits } => loop {
                    if *bits != 0 {
                        let bit = bits.trailing_zeros();
                        *bits &= *bits - 1;
                        self.remaining -= 1;
                        return Some(*base + (*word_index as u128 - 1) * 64 + u128::from(bit));
                    }
                    if *word_index >= words.len() {
                        break;
                    }
                    *bits = words[*word_index];
                    *word_index += 1;
                },
                ChunkCursor::Empty => {}
            }
            let chunk = self.chunks.next()?;
            self.current = match &chunk.data {
                ChunkData::Sorted(v) => ChunkCursor::Sorted(v.iter()),
                ChunkData::Bitmap { base, words } => {
                    ChunkCursor::Bitmap { base: *base, words, word_index: 0, bits: 0 }
                }
            };
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Once the chunks run out they stay out, and the last cursor stays
/// drained: `None` repeats.
impl std::iter::FusedIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a AddrSet {
    type Item = u128;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<u128> for AddrSet {
    fn from_iter<I: IntoIterator<Item = u128>>(iter: I) -> AddrSet {
        AddrSet::from_unsorted(iter.into_iter().collect())
    }
}

impl FromIterator<Addr> for AddrSet {
    fn from_iter<I: IntoIterator<Item = Addr>>(iter: I) -> AddrSet {
        iter.into_iter().map(|a| a.0).collect()
    }
}

impl From<Vec<u128>> for AddrSet {
    fn from(values: Vec<u128>) -> AddrSet {
        AddrSet::from_unsorted(values)
    }
}

impl ToJson for AddrSet {
    /// A plain ascending array of integers — the exact shape a sorted
    /// `Vec<Addr>` (or `Vec<u128>`) has, so checkpoints and artifacts
    /// stay byte-identical across the representation change.
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Value::UInt).collect())
    }
}

impl FromJson for AddrSet {
    /// Reads an array of 128-bit integers in any order, duplicates
    /// included: a legacy `Vec<Addr>` payload normalizes on the way in.
    fn from_value(v: &Value) -> Result<AddrSet, Error> {
        Vec::<u128>::from_value(v).map(AddrSet::from_unsorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A clustered population: `n` addresses spread over `prefixes` /32
    /// buckets, dense strides inside each — the shape real hitlists have.
    fn clustered(n: u128, prefixes: u128) -> Vec<u128> {
        (0..n)
            .map(|i| {
                let key = (0x2001_0000 + (i % prefixes)) << 96;
                key | ((i / prefixes) * 3)
            })
            .collect()
    }

    fn clustered_sorted(n: u128, prefixes: u128) -> Vec<u128> {
        let mut values = clustered(n, prefixes);
        sorted::normalize(&mut values);
        values
    }

    #[test]
    fn canonical_representation_is_construction_independent() {
        let values = clustered(1000, 7);
        let a = AddrSet::from_unsorted(values.clone());
        let mut b = AddrSet::new();
        for &v in values.iter().rev() {
            b.insert(v);
        }
        let mut c = AddrSet::new();
        let (lo, hi) = values.split_at(values.len() / 2);
        c.union_in_place(&AddrSet::from_unsorted(hi.to_vec()));
        c.union_in_place(&AddrSet::from_unsorted(lo.to_vec()));
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.chunk_count(), 7);
        assert!(a.bitmap_chunk_count() > 0, "stride-3 buckets are dense enough for bitmaps");
    }

    #[test]
    fn iteration_matches_normalized_vec() {
        let mut values = clustered(5000, 11);
        values.extend_from_slice(&[0, u128::MAX, 1 << 96, (1 << 96) + 1]);
        let set = AddrSet::from_unsorted(values.clone());
        sorted::normalize(&mut values);
        assert_eq!(set.len(), values.len());
        assert_eq!(set.iter().len(), values.len());
        assert_eq!(set.to_vec(), values);
        let iterated: Vec<u128> = set.iter().collect();
        assert_eq!(iterated, values);
    }

    #[test]
    fn insert_remove_contains_against_btreeset() {
        let mut set = AddrSet::new();
        let mut model: BTreeSet<u128> = BTreeSet::new();
        for i in 0u128..2000 {
            let v = ((i % 5) << 96) | ((i * i) % 701);
            assert_eq!(set.insert(v), model.insert(v), "insert {v}");
            if i % 3 == 0 {
                let w = ((i % 5) << 96) | ((i * 7) % 701);
                assert_eq!(set.remove(w), model.remove(&w), "remove {w}");
            }
            assert_eq!(set.len(), model.len());
        }
        assert_eq!(set.to_vec(), model.iter().copied().collect::<Vec<u128>>());
        for v in model.iter().take(50) {
            assert!(set.contains(*v));
            assert!(set.contains_addr(Addr(*v)));
        }
        assert!(!set.contains(u128::MAX));
    }

    #[test]
    fn set_algebra_matches_btreeset() {
        let a_vals = clustered(800, 5);
        let b_vals = clustered(600, 3);
        let a = AddrSet::from_unsorted(a_vals.clone());
        let b = AddrSet::from_unsorted(b_vals.clone());
        let ma: BTreeSet<u128> = a_vals.into_iter().collect();
        let mb: BTreeSet<u128> = b_vals.into_iter().collect();

        let mut union = a.clone();
        union.union_in_place(&b);
        assert_eq!(union.to_vec(), ma.union(&mb).copied().collect::<Vec<u128>>());

        let diff = a.diff(&b);
        assert_eq!(diff.to_vec(), ma.difference(&mb).copied().collect::<Vec<u128>>());
        assert_eq!(a.diff_count(&b), ma.difference(&mb).count());
        assert_eq!(b.diff_count(&a), mb.difference(&ma).count());

        let inter = a.intersect(&b);
        assert_eq!(inter.to_vec(), ma.intersection(&mb).copied().collect::<Vec<u128>>());
        assert_eq!(a.intersect_count(&b), ma.intersection(&mb).count());
    }

    #[test]
    fn union_sorted_addrs_is_the_round_merge() {
        let mut acc = AddrSet::new();
        let batch1: Vec<Addr> = [1u128, 5, 9].into_iter().map(Addr).collect();
        let batch2: Vec<Addr> = [2u128, 5, (7 << 96) + 1].into_iter().map(Addr).collect();
        acc.union_sorted_addrs(&batch1);
        acc.union_sorted_addrs(&batch2);
        acc.union_sorted_addrs(&[]);
        assert_eq!(acc.to_vec(), vec![1, 2, 5, 9, (7 << 96) + 1]);
    }

    #[test]
    fn empty_set_edges() {
        let empty = AddrSet::new();
        assert!(empty.is_empty());
        assert_eq!(empty.iter().count(), 0);
        assert_eq!(empty.diff(&empty), AddrSet::new());
        assert_eq!(empty.diff_count(&empty), 0);
        assert_eq!(empty.intersect_count(&empty), 0);
        let some = AddrSet::from_sorted(vec![1, 2]);
        assert_eq!(some.diff(&empty), some);
        assert_eq!(empty.diff(&some), empty);
        let mut u = AddrSet::new();
        u.union_in_place(&some);
        assert_eq!(u, some);
    }

    #[test]
    fn json_matches_vec_of_addrs_byte_for_byte() {
        let values = clustered(300, 4);
        let set = AddrSet::from_unsorted(values.clone());
        let vec: Vec<Addr> = set.addrs().collect();
        let set_json = sixdust_json::to_string(&set);
        let vec_json = sixdust_json::to_string(&vec);
        assert_eq!(set_json, vec_json, "AddrSet must serialize exactly like a sorted Vec<Addr>");
        let back: AddrSet = sixdust_json::from_str(&set_json).expect("round trip");
        assert_eq!(back, set);
        // A legacy unsorted Vec<Addr> payload still parses (and
        // normalizes) — backward compatibility with v2 checkpoints.
        let legacy: AddrSet = sixdust_json::from_str("[3, 1, 2, 3]").expect("legacy payload");
        assert_eq!(legacy.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn dense_chunks_use_less_memory_than_flat_vecs() {
        // A fully dense /32 bucket: 100k consecutive addresses.
        let dense: Vec<u128> = (0..100_000u128).map(|i| (0x2001u128 << 96) + i).collect();
        let flat_bytes = dense.len() * std::mem::size_of::<u128>();
        let set = AddrSet::from_sorted(dense);
        assert_eq!(set.bitmap_chunk_count(), 1);
        assert!(
            set.mem_bytes() < flat_bytes / 8,
            "dense bitmap ({} B) should be far under the flat vec ({} B)",
            set.mem_bytes(),
            flat_bytes
        );
        // A sparse population stays a sorted block and costs about the
        // same as the flat vec.
        let sparse: Vec<u128> = (0..1000u128).map(|i| i << 80).collect();
        let set = AddrSet::from_sorted(sparse);
        assert_eq!(set.bitmap_chunk_count(), 0);
    }

    /// The construction `from_sorted` used before it sliced its input by
    /// /32 run: one value at a time into a growing per-chunk vector. Kept
    /// as the reference the slicing construction is compared against.
    fn from_sorted_one_by_one(values: Vec<u128>) -> AddrSet {
        let mut set = AddrSet::new();
        set.len = values.len();
        let mut values = values.into_iter().peekable();
        while let Some(&first) = values.peek() {
            let key = key_of(first);
            let mut chunk_values = Vec::new();
            while let Some(v) = values.next_if(|&v| key_of(v) == key) {
                chunk_values.push(v);
            }
            set.chunks.push(Chunk::from_vec(key, chunk_values));
        }
        set
    }

    #[test]
    fn from_sorted_matches_the_one_by_one_construction() {
        // `n` values in one /32 whose span is exactly `span`.
        let run = |key: u128, n: u128, span: u128| -> Vec<u128> {
            let base = (key << 96) | 0x1000;
            (0..n - 1).map(|i| base + i).chain([base + span - 1]).collect()
        };
        let mut inputs: Vec<Vec<u128>> = vec![
            vec![],
            vec![0],
            vec![u128::MAX],
            vec![0, u128::MAX],
            clustered_sorted(5_000, 11),
            (0..1_000u128).map(|i| i << 80).collect(),
            (0..100_000u128).map(|i| (0x2001u128 << 96) + i).collect(),
        ];
        for n in [2u128, 3, 64, 1_000] {
            // Either side of the sorted↔bitmap threshold, alone (the
            // input vector is reused) and between other runs (sliced).
            for span in [128 * n, 128 * n + 1] {
                inputs.push(run(7, n, span));
                let mut mixed = run(6, 40, 40);
                mixed.extend(run(7, n, span));
                mixed.extend(run(8, 5, 1 << 40));
                mixed.extend(run(9, n, 128 * n + 1));
                mixed.extend(run(10, n, 128 * n));
                inputs.push(mixed);
            }
        }
        for values in inputs {
            let reference = from_sorted_one_by_one(values.clone());
            let set = AddrSet::from_sorted(values.clone());
            assert_eq!(set, reference, "{} values", values.len());
            assert_eq!(set.len(), values.len());
            assert_eq!(set.to_vec(), values);
            assert!(set.mem_bytes() <= reference.mem_bytes(), "chunks are built at their size");
            // Spare capacity in the input does not leak into the set.
            let mut roomy = Vec::with_capacity(values.len() * 2 + 8);
            roomy.extend_from_slice(&values);
            assert_eq!(AddrSet::from_sorted(roomy).mem_bytes(), set.mem_bytes());
        }
        let at = AddrSet::from_sorted(run(7, 64, 128 * 64));
        let over = AddrSet::from_sorted(run(7, 64, 128 * 64 + 1));
        assert_eq!((at.bitmap_chunk_count(), over.bitmap_chunk_count()), (1, 0));
    }

    #[test]
    fn bitmap_threshold_is_exact_break_even() {
        // Two values spanning exactly 256 positions: bitmap (4 words,
        // 32 B) equals sorted (2 × 16 B) — the rule prefers the bitmap at
        // break-even. One position wider and the sorted block wins.
        let at = AddrSet::from_sorted(vec![0, 255]);
        assert_eq!(at.bitmap_chunk_count(), 1);
        let over = AddrSet::from_sorted(vec![0, 256]);
        assert_eq!(over.bitmap_chunk_count(), 0);
        // Both still iterate identically.
        assert_eq!(at.to_vec(), vec![0, 255]);
        assert_eq!(over.to_vec(), vec![0, 256]);
    }
}
