//! [`AddrSet`] — the address-set type every crate boundary speaks.
//!
//! The paper's pipeline tracked hundreds of millions of candidates (134 M
//! GFW-polluted addresses alone), and hitlist addresses cluster by /64: the
//! sets of the four-year service hold two to three members for every
//! distinct /64 among them. A flat sorted `Vec<u128>` spends 16 bytes
//! on every member and repeats its /64 in each. `AddrSet` stores each /64
//! once, in three columns:
//!
//! * `keys` — the distinct /64s (the members' high 64 bits), ascending;
//! * `ends` — where each key's run ends in `lows`, a `u32`;
//! * `lows` — the members' low 64 bits, ascending within each run.
//!
//! A member costs 8 bytes and a /64 12, and every kernel builds its output
//! at its exact size, so a set holds `size_of::<AddrSet>() + 12 × runs +
//! 8 × members` bytes. There is one representation: equal content is equal
//! columns, so `PartialEq` derives and snapshots stay byte-stable.
//!
//! Every kernel is a merge over keys. A stretch of runs only one side holds
//! is found by galloping and copied whole; where the keys meet, the two
//! runs' lows go through the linear kernels of `sorted`.
//!
//! Iteration is ascending and streaming, identical to the order a
//! normalized `Vec<u128>` would give. The JSON form is one string, the
//! base64 of the set's [`codec`](crate::codec) body; the plain integer
//! array older checkpoints wrote still reads.

use std::cmp::Ordering;
use std::ops::Range;

use sixdust_json::{Error, FromJson, ToJson, Value};

use crate::sorted;
use crate::{codec, Addr};

/// A value's run key: its high 64 bits, the /64 it lies in.
fn key_of(value: u128) -> u64 {
    (value >> 64) as u64
}

/// A run end at `len` members; a set holds fewer than 2³² of them.
fn end_at(len: usize) -> u32 {
    u32::try_from(len).expect("an AddrSet holds fewer than 2^32 members")
}

/// How many of the ascending `keys` lie below `bound`: doubling probes,
/// then a binary search inside the last step, so a stretch costs the log
/// of its own length rather than of the whole column.
fn count_below(keys: &[u64], bound: u64) -> usize {
    let mut end = 1;
    while end < keys.len() && keys[end] < bound {
        end *= 2;
    }
    let end = end.min(keys.len());
    let start = end / 2;
    start + keys[start..end].partition_point(|&k| k < bound)
}

/// One step of a merge over two sets' keys.
enum Step {
    /// A stretch of runs only the left set holds.
    Left(Range<usize>),
    /// A stretch of runs only the right set holds.
    Right(Range<usize>),
    /// A key both sets hold: the left run and the right run.
    Both(usize, usize),
}

/// The steps of a merge of the ascending keys `a` with `b`, in key order.
fn steps<'a>(a: &'a [u64], b: &'a [u64]) -> impl Iterator<Item = Step> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let step = match (a.get(i), b.get(j)) {
            (Some(&ka), Some(&kb)) => match ka.cmp(&kb) {
                Ordering::Less => Step::Left(i..i + count_below(&a[i..], kb)),
                Ordering::Greater => Step::Right(j..j + count_below(&b[j..], ka)),
                Ordering::Equal => Step::Both(i, j),
            },
            (Some(_), None) => Step::Left(i..a.len()),
            (None, Some(_)) => Step::Right(j..b.len()),
            (None, None) => return None,
        };
        match &step {
            Step::Left(runs) => i = runs.end,
            Step::Right(runs) => j = runs.end,
            Step::Both(..) => (i, j) = (i + 1, j + 1),
        }
        Some(step)
    })
}

/// A set of 128-bit addresses in /64 columns: each distinct /64 once, and
/// the low 64 bits of its members in one ascending run. A member costs 8
/// bytes and a /64 12. The address-set currency at every sixdust crate
/// boundary.
///
/// Deterministic: iteration is ascending, equal content means equal
/// structure, and equal sets write equal JSON.
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
    /// The distinct /64s, ascending.
    keys: Vec<u64>,
    /// Where each key's run ends in `lows`; a run starts where the one
    /// before it ends. Strictly increasing: no run is empty.
    ends: Vec<u32>,
    /// The members' low halves, ascending within each run.
    lows: Vec<u64>,
}

impl AddrSet {
    /// Creates an empty set. `const`, so a `static` empty set costs
    /// nothing.
    pub const fn new() -> AddrSet {
        AddrSet { keys: Vec::new(), ends: Vec::new(), lows: Vec::new() }
    }

    /// An empty set with room for `runs` runs and `members` members: a
    /// kernel's output buffer, sized for the most it can hold.
    fn with_capacity(runs: usize, members: usize) -> AddrSet {
        AddrSet {
            keys: Vec::with_capacity(runs),
            ends: Vec::with_capacity(runs),
            lows: Vec::with_capacity(members),
        }
    }

    /// Drops the spare capacity of a kernel's output, so that what
    /// [`AddrSet::mem_bytes`] counts is what the set holds.
    fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.lows.shrink_to_fit();
    }

    /// Builds from a sorted, strictly increasing (deduplicated) vector.
    /// This is the zero-comparison fast path used when the caller already
    /// holds canonical order — debug builds assert it. The runs are
    /// counted first, so each column is allocated once, at its exact size.
    pub fn from_sorted(values: Vec<u128>) -> AddrSet {
        AddrSet::from_ascending(values.iter().copied())
    }

    /// [`AddrSet::from_sorted`] over any strictly increasing values.
    fn from_ascending(values: impl ExactSizeIterator<Item = u128> + Clone) -> AddrSet {
        debug_assert!(
            values.clone().zip(values.clone().skip(1)).all(|(a, b)| a < b),
            "input must be strictly increasing"
        );
        // Fewer than 2^32 members, so every end below fits its `u32`.
        end_at(values.len());
        let keys = values.clone().map(key_of);
        let runs = usize::from(values.len() > 0)
            + keys.clone().zip(keys.clone().skip(1)).filter(|(a, b)| a != b).count();
        let mut set = AddrSet {
            keys: vec![0; runs],
            ends: vec![0; runs],
            lows: values.clone().map(|value| value as u64).collect(),
        };
        // Every member writes its run's key and end, so the walk does not
        // branch on where runs start.
        let (mut run, mut last) = (0, None);
        for (at, key) in keys.enumerate() {
            run += usize::from(last != Some(key));
            last = Some(key);
            set.keys[run - 1] = key;
            set.ends[run - 1] = at as u32 + 1;
        }
        set
    }

    /// Builds from values in any order, with duplicates allowed.
    pub fn from_unsorted(mut values: Vec<u128>) -> AddrSet {
        sorted::normalize(&mut values);
        AddrSet::from_sorted(values)
    }

    /// Builds from a sorted, strictly increasing slice of [`Addr`]s — the
    /// form the scan merge path produces.
    pub fn from_sorted_addrs(addrs: &[Addr]) -> AddrSet {
        AddrSet::from_ascending(addrs.iter().map(|a| a.0))
    }

    /// Number of addresses in the set.
    pub fn len(&self) -> usize {
        self.lows.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.lows.is_empty()
    }

    /// Number of runs: the distinct /64s the members lie in.
    pub fn chunk_count(&self) -> usize {
        self.keys.len()
    }

    /// Resident bytes: the struct itself plus the heap its three columns
    /// hold — `12 × runs + 8 × members` for a set a kernel built. This is
    /// what the population-scale bench curve tracks.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<AddrSet>()
            + self.keys.capacity() * std::mem::size_of::<u64>()
            + self.ends.capacity() * std::mem::size_of::<u32>()
            + self.lows.capacity() * std::mem::size_of::<u64>()
    }

    /// Where run `run` starts in `lows`; `len()` for the run past the last.
    fn start(&self, run: usize) -> usize {
        run.checked_sub(1).map_or(0, |before| self.ends[before] as usize)
    }

    /// The positions in `lows` of the runs `runs`.
    fn span(&self, runs: Range<usize>) -> Range<usize> {
        self.start(runs.start)..self.start(runs.end)
    }

    /// The lows of run `run`.
    fn run(&self, run: usize) -> &[u64] {
        &self.lows[self.span(run..run + 1)]
    }

    /// Appends the runs `runs` of `src`, whose keys all lie above this
    /// set's last: one copy of their keys, one of their lows, and their
    /// ends moved to where those lows now lie.
    fn extend_runs(&mut self, src: &AddrSet, runs: Range<usize>) {
        let lows = src.span(runs.clone());
        let shift = end_at(self.lows.len()).wrapping_sub(lows.start as u32);
        self.lows.extend_from_slice(&src.lows[lows]);
        // The last end moved fits its `u32`, so the wrapping shift puts
        // every end where its lows now lie.
        end_at(self.lows.len());
        self.ends.extend(src.ends[runs.clone()].iter().map(|&end| end.wrapping_add(shift)));
        self.keys.extend_from_slice(&src.keys[runs]);
    }

    /// Closes the run of `key` whose lows a kernel has just appended; an
    /// empty run is not kept.
    fn close_run(&mut self, key: u64) {
        let end = end_at(self.lows.len());
        if self.ends.last().map_or(0, |&last| last) < end {
            self.keys.push(key);
            self.ends.push(end);
        }
    }

    /// Whether `value` is a member.
    pub fn contains(&self, value: u128) -> bool {
        self.keys
            .binary_search(&key_of(value))
            .is_ok_and(|run| sorted::contains(self.run(run), &(value as u64)))
    }

    /// Whether `addr` is a member.
    pub fn contains_addr(&self, addr: Addr) -> bool {
        self.contains(addr.0)
    }

    /// Inserts one value; returns `true` if it was new. Prefer the bulk
    /// operations ([`AddrSet::union_in_place`]) on hot paths — a single
    /// insert shifts every member above it.
    pub fn insert(&mut self, value: u128) -> bool {
        let (key, low) = (key_of(value), value as u64);
        let (run, known) = match self.keys.binary_search(&key) {
            Ok(run) => (run, true),
            Err(run) => (run, false),
        };
        let start = self.start(run);
        let at = match known.then(|| self.run(run).binary_search(&low)) {
            Some(Ok(_)) => return false,
            Some(Err(at)) => start + at,
            None => start,
        };
        end_at(self.len() + 1); // the member to come must fit
        if !known {
            self.keys.reserve_exact(1);
            self.keys.insert(run, key);
            self.ends.reserve_exact(1);
            self.ends.insert(run, start as u32);
        }
        self.lows.reserve_exact(1);
        self.lows.insert(at, low);
        for end in &mut self.ends[run..] {
            *end += 1;
        }
        true
    }

    /// Removes one value; returns `true` if it was a member.
    pub fn remove(&mut self, value: u128) -> bool {
        let Ok(run) = self.keys.binary_search(&key_of(value)) else { return false };
        let Ok(at) = self.run(run).binary_search(&(value as u64)) else { return false };
        self.lows.remove(self.start(run) + at);
        for end in &mut self.ends[run..] {
            *end -= 1;
        }
        if self.run(run).is_empty() {
            self.keys.remove(run);
            self.ends.remove(run);
        }
        self.shrink_to_fit();
        true
    }

    /// Merges `other` into `self`, key by key: a stretch of runs only one
    /// side holds is copied whole, and where the keys meet the two runs'
    /// lows are merged.
    pub fn union_in_place(&mut self, other: &AddrSet) {
        if other.is_empty() {
            return;
        }
        let mut out =
            AddrSet::with_capacity(self.keys.len() + other.keys.len(), self.len() + other.len());
        for step in steps(&self.keys, &other.keys) {
            match step {
                Step::Left(runs) => out.extend_runs(self, runs),
                Step::Right(runs) => out.extend_runs(other, runs),
                Step::Both(i, j) => {
                    sorted::union_into(self.run(i), other.run(j), &mut out.lows);
                    out.close_run(self.keys[i]);
                }
            }
        }
        out.shrink_to_fit();
        *self = out;
    }

    /// Merges a sorted, strictly increasing [`Addr`] slice — the per-round
    /// scan-merge hot path.
    pub fn union_sorted_addrs(&mut self, addrs: &[Addr]) {
        if addrs.is_empty() {
            return;
        }
        self.union_in_place(&AddrSet::from_sorted_addrs(addrs));
    }

    /// Returns `self \ other` as a new set (runs whose key `other` lacks
    /// are copied whole; where the keys meet, the lows are diffed).
    pub fn diff(&self, other: &AddrSet) -> AddrSet {
        let mut out = AddrSet::with_capacity(self.keys.len(), self.len());
        for step in steps(&self.keys, &other.keys) {
            match step {
                Step::Left(runs) => out.extend_runs(self, runs),
                Step::Right(_) => {}
                Step::Both(i, j) => {
                    sorted::diff_into(self.run(i), other.run(j), &mut out.lows);
                    out.close_run(self.keys[i]);
                }
            }
        }
        out.shrink_to_fit();
        out
    }

    /// Counts `|self \ other|` without materializing the difference.
    pub fn diff_count(&self, other: &AddrSet) -> usize {
        steps(&self.keys, &other.keys)
            .map(|step| match step {
                Step::Left(runs) => self.span(runs).len(),
                Step::Right(_) => 0,
                Step::Both(i, j) => sorted::diff_count(self.run(i), other.run(j)),
            })
            .sum()
    }

    /// Counts `|self ∩ other|` without materializing the intersection.
    pub fn intersect_count(&self, other: &AddrSet) -> usize {
        steps(&self.keys, &other.keys)
            .map(|step| match step {
                Step::Both(i, j) => {
                    self.run(i).len() - sorted::diff_count(self.run(i), other.run(j))
                }
                Step::Left(_) | Step::Right(_) => 0,
            })
            .sum()
    }

    /// Returns `self ∩ other` as a new set.
    pub fn intersect(&self, other: &AddrSet) -> AddrSet {
        let mut out = AddrSet::with_capacity(
            self.keys.len().min(other.keys.len()),
            self.len().min(other.len()),
        );
        for step in steps(&self.keys, &other.keys) {
            if let Step::Both(i, j) = step {
                sorted::intersect_into(self.run(i), other.run(j), &mut out.lows);
                out.close_run(self.keys[i]);
            }
        }
        out.shrink_to_fit();
        out
    }

    /// Streaming ascending iteration over the raw 128-bit values —
    /// exactly the order a normalized `Vec<u128>` iterates in. Exact-size
    /// and cloneable, so encoders can write a count first.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, run: 0, key: 0, run_end: 0, at: 0 }
    }

    /// Streaming ascending iteration as [`Addr`]s.
    pub fn addrs(&self) -> impl ExactSizeIterator<Item = Addr> + Clone + '_ {
        self.iter().map(Addr)
    }

    /// Materializes the set as a sorted `Vec<u128>` (compatibility edges
    /// only — prefer [`AddrSet::iter`]).
    pub fn to_vec(&self) -> Vec<u128> {
        let mut out = Vec::with_capacity(self.len());
        for (run, &key) in self.keys.iter().enumerate() {
            let key = u128::from(key) << 64;
            out.extend(self.run(run).iter().map(|&low| key | u128::from(low)));
        }
        out
    }

    /// Materializes the set as a sorted `Vec<Addr>`.
    pub fn to_addr_vec(&self) -> Vec<Addr> {
        self.addrs().collect()
    }
}

/// Streaming ascending iterator over an [`AddrSet`]; see
/// [`AddrSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a AddrSet,
    /// The next run to open.
    run: usize,
    /// The open run's key, shifted into place.
    key: u128,
    /// Where the open run ends in `lows`.
    run_end: usize,
    /// The next member's position in `lows`.
    at: usize,
}

impl Iterator for Iter<'_> {
    type Item = u128;

    fn next(&mut self) -> Option<u128> {
        let low = *self.set.lows.get(self.at)?;
        // No run is empty, so a member past the open run opens the next.
        if self.at == self.run_end {
            self.key = u128::from(self.set.keys[self.run]) << 64;
            self.run_end = self.set.ends[self.run] as usize;
            self.run += 1;
        }
        self.at += 1;
        Some(self.key | u128::from(low))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.set.len() - self.at;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Once the members run out they stay out: `None` repeats.
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
    /// One string: the padded base64 of the set's
    /// [`encode_full`](crate::codec::encode_full) body, about 1.33 bytes
    /// a body byte.
    fn to_value(&self) -> Value {
        Value::String(crate::base64::encode(&codec::encode_full(self)))
    }
}

impl FromJson for AddrSet {
    /// Reads the string [`ToJson`] writes through every check of
    /// [`decode_full`](crate::codec::decode_full); a string that is not
    /// canonical base64 is rejected before them.
    fn from_value(v: &Value) -> Result<AddrSet, Error> {
        let body = crate::base64::decode(v.as_str()?)
            .ok_or_else(|| Error::new("set body is not canonical base64"))?;
        codec::decode_full(&body).map_err(|e| Error::new(format!("set body: {e}")))
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

    /// What a set without spare capacity holds: 12 bytes a run, 8 a member.
    fn exact_bytes(set: &AddrSet) -> usize {
        std::mem::size_of::<AddrSet>() + 12 * set.chunk_count() + 8 * set.len()
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
        for set in [&a, &b, &c] {
            assert_eq!(set.mem_bytes(), exact_bytes(set), "built at its exact size");
        }
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
        for set in [&union, &diff, &inter] {
            assert_eq!(set.mem_bytes(), exact_bytes(set), "no spare capacity");
        }
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
        assert_eq!(empty.mem_bytes(), std::mem::size_of::<AddrSet>());
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
    fn json_is_the_base64_codec_body() {
        let values = clustered(300, 4);
        let set = AddrSet::from_unsorted(values.clone());
        let json = sixdust_json::to_string(&set);
        let body = codec::encode_full(&set);
        assert_eq!(json, format!("\"{}\"", crate::base64::encode(&body)));
        let back: AddrSet = sixdust_json::from_str(&json).expect("round trip");
        assert_eq!(back, set);
        let empty: AddrSet = sixdust_json::from_str(&sixdust_json::to_string(&AddrSet::new()))
            .expect("the empty set");
        assert!(empty.is_empty());
        // The string form holds the body to every check of the codec, and
        // nothing else is a set: not the integer array old checkpoints
        // wrote either.
        for bad in ["\"\"", "\"U0RGMQ==\"", "\"not base64\"", "1", "{}", "[3, 1, 2, 3]"] {
            assert!(sixdust_json::from_str::<AddrSet>(bad).is_err(), "{bad}");
        }
        let mut torn = body.clone();
        torn[6] ^= 1;
        let torn = format!("\"{}\"", crate::base64::encode(&torn));
        let err = sixdust_json::from_str::<AddrSet>(&torn).unwrap_err();
        assert_eq!(err.to_string(), "set body: checksum mismatch");
    }

    #[test]
    fn dense_chunks_use_less_memory_than_flat_vecs() {
        // A run of many: 100k consecutive addresses in one /64 cost their
        // 8-byte lows and one key, half the flat vec.
        let dense: Vec<u128> = (0..100_000u128).map(|i| (0x2001u128 << 96) + i).collect();
        let flat_bytes = dense.len() * std::mem::size_of::<u128>();
        let set = AddrSet::from_sorted(dense);
        assert_eq!(set.chunk_count(), 1);
        assert_eq!(set.mem_bytes(), std::mem::size_of::<AddrSet>() + 12 + 8 * 100_000);
        assert!(set.mem_bytes() < flat_bytes / 2 + 100, "{} B", set.mem_bytes());
        // Runs of one: every member pays its /64 too, 20 B against the
        // flat vec's 16.
        let sparse: Vec<u128> = (0..1000u128).map(|i| i << 80).collect();
        let set = AddrSet::from_sorted(sparse);
        assert_eq!(set.chunk_count(), 1000);
        assert_eq!(set.mem_bytes(), std::mem::size_of::<AddrSet>() + 20 * 1000);
    }

    #[test]
    fn from_sorted_matches_the_one_by_one_construction() {
        let low_max = u128::from(u64::MAX);
        let inputs: Vec<Vec<u128>> = vec![
            vec![],
            vec![0],
            vec![u128::MAX],
            vec![0, u128::MAX],
            // Either side of the 2^64 boundary: keys 0 and 1.
            vec![low_max, low_max + 1],
            // Keys 0 and u64::MAX, each with lows 0 and u64::MAX.
            vec![0, low_max, u128::MAX - low_max, u128::MAX],
            clustered_sorted(5_000, 11),
            // Runs of one.
            (0..1_000u128).map(|i| i << 80).collect(),
            // A run of many, and runs of many beside runs of one.
            (0..20_000u128).map(|i| (0x2001u128 << 96) + i).collect(),
            (0..3_000u128).map(|i| ((i / 300) << 64) | ((i % 300) * 7)).collect(),
        ];
        for values in inputs {
            // The reference: one insert at a time, each into its place.
            let mut reference = AddrSet::new();
            for &v in &values {
                reference.insert(v);
            }
            let set = AddrSet::from_sorted(values.clone());
            assert_eq!(set, reference, "{} values", values.len());
            assert_eq!(set.len(), values.len());
            assert_eq!(set.to_vec(), values);
            assert_eq!(set.mem_bytes(), exact_bytes(&set), "columns are built at their size");
            assert_eq!(reference.mem_bytes(), set.mem_bytes(), "an insert grows by one member");
            // Spare capacity in the input does not leak into the set.
            let mut roomy = Vec::with_capacity(values.len() * 2 + 8);
            roomy.extend_from_slice(&values);
            assert_eq!(AddrSet::from_sorted(roomy).mem_bytes(), set.mem_bytes());
            let addrs: Vec<Addr> = values.iter().copied().map(Addr).collect();
            assert_eq!(AddrSet::from_sorted_addrs(&addrs), set);
        }
    }

    #[test]
    fn bitmap_threshold_is_exact_break_even() {
        // There is no density threshold: a run costs 8 bytes a member
        // whatever its span. Two members 255 apart, 256 apart or at the
        // two ends of a /64 cost the same; the same two either side of
        // the 2^64 boundary are two runs.
        let one_run = std::mem::size_of::<AddrSet>() + 12 + 2 * 8;
        for pair in [[0u128, 255], [0, 256], [0, u128::from(u64::MAX)]] {
            let set = AddrSet::from_sorted(pair.to_vec());
            assert_eq!((set.chunk_count(), set.mem_bytes()), (1, one_run), "{pair:?}");
            assert_eq!(set.to_vec(), pair);
        }
        let straddle = AddrSet::from_sorted(vec![u128::from(u64::MAX), 1 << 64]);
        assert_eq!((straddle.chunk_count(), straddle.mem_bytes()), (2, one_run + 12));
        assert_eq!(straddle.to_vec(), vec![u128::from(u64::MAX), 1 << 64]);
    }
}
