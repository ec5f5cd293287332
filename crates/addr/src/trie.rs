//! A sorted prefix table with longest-prefix-match lookup.
//!
//! This is the data structure behind every routing-flavoured question in
//! sixdust: "which AS originates this address?" (BGP table), "who, if
//! anyone, is behind this address?" (the population index), "is this
//! address inside a known aliased prefix?", "is this address blocklisted?".
//! Every simulated probe asks at least one of them, so the unit cost of
//! [`PrefixTrie::lookup`] is the unit cost of a scan.
//!
//! ## Structure
//!
//! One `Vec` of entries sorted by `(network, len)` — the order of
//! [`Prefix`], so a covering prefix sorts before its more-specifics — each
//! holding its value and a link to its *nearest enclosing* entry. Prefixes
//! are laminar (two of them nest or are disjoint, never partially
//! overlap), which gives the lookup: of the entries that start at or
//! below `addr`, take the last; every stored prefix that contains `addr`
//! is that entry or encloses it. So `lookup` is one binary search followed
//! by a walk up the enclosing links to the first entry that contains the
//! address, and that entry is the longest match.
//!
//! ## Costs (n stored prefixes, d = nesting depth of the match)
//!
//! * `lookup`, `covers`, `lookup_covering`: `O(log n + d)` over one
//!   contiguous array. d is 1–3 for every table sixdust builds.
//! * `get`, `get_mut`: `O(log n)`.
//! * bulk build (`FromIterator`, `Extend`): one stable `O(n log n)` sort,
//!   then the links in one `O(n)` pass. This is how every large table is
//!   built.
//! * `insert`: `O(log n)` to find the slot, then `O(n)` in the worst case —
//!   the tail of the array shifts and is relinked. Appending in ascending
//!   order relinks only the new entry. Tables that receive many prefixes at
//!   once should `extend` or `collect`.
//! * memory: 32 bytes per prefix for values up to 8 bytes.
//!
//! ## Why not a trie
//!
//! This type used to be a bit-per-level binary trie over a node arena,
//! without path compression: one dependent load per address *bit*, up to
//! 64 sixteen-byte nodes for each /64 group, so the population's ~3 000
//! prefixes took megabytes and a lookup was 64–128 pointer hops through
//! them, three lookups for a dark or CPE target. Path compression would
//! have cut the hops to the branching depth but kept the pointer chase
//! and made `insert` the intricate part; the tables here are built in bulk
//! and then only read, which is the case a sorted array serves with the
//! least code. The name stays because the API is that of a prefix trie.
//!
//! Measured on the benchmark's `service_dense` workload (2 cores, seed 11,
//! bit trie → this table): a covering-prefix lookup 100–114 → 31 ns
//! (`addr.trie_lookup_ns`), an answered probe 380–500 → 133–148 ns
//! (`net.probe_hit_ns`), `Internet::build` 2.4 → 1.4–1.5 ms, peak
//! resident memory 26.1 → 24.1 MiB, rounds per second 15.7 → 23.2.

use crate::{Addr, Prefix};

#[derive(Debug, Clone)]
struct Entry<V> {
    network: Addr,
    len: u8,
    /// The nearest enclosing entry as its index plus one; 0 for none.
    up: u32,
    value: V,
}

impl<V> Entry<V> {
    fn prefix(&self) -> Prefix {
        Prefix::new(self.network, self.len)
    }

    fn key(&self) -> (Addr, u8) {
        (self.network, self.len)
    }
}

/// A map from [`Prefix`] to `V` supporting exact and longest-prefix-match
/// lookups.
///
/// ```
/// use sixdust_addr::{PrefixTrie, Prefix, Addr};
/// let mut t = PrefixTrie::new();
/// t.insert("2001:db8::/32".parse().unwrap(), "coarse");
/// t.insert("2001:db8:1::/48".parse().unwrap(), "fine");
/// let addr: Addr = "2001:db8:1::42".parse().unwrap();
/// assert_eq!(t.lookup(addr), Some((&"fine", "2001:db8:1::/48".parse().unwrap())));
/// ```
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    /// Sorted by `(network, len)`, no two entries with the same prefix.
    entries: Vec<Entry<V>>,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTrie<V> {
    /// Creates an empty trie.
    pub fn new() -> PrefixTrie<V> {
        PrefixTrie { entries: Vec::new() }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no prefix is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn position(&self, prefix: Prefix) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&(prefix.network(), prefix.len()), Entry::key)
    }

    /// Recomputes the enclosing links of `entries[from..]`; the entries
    /// before `from` must be linked already. An entry's nearest enclosing
    /// entry is its predecessor or one of the predecessor's enclosers, so
    /// the walk below is the classic stack pass with the stack kept in the
    /// links themselves.
    fn relink(&mut self, from: usize) {
        assert!(self.entries.len() < u32::MAX as usize, "too many prefixes for 32-bit links");
        for i in from..self.entries.len() {
            let prefix = self.entries[i].prefix();
            let mut up = i;
            while up != 0 && !self.entries[up - 1].prefix().covers(prefix) {
                up = self.entries[up - 1].up as usize;
            }
            self.entries[i].up = up as u32;
        }
    }

    /// Inserts a prefix, returning the previous value if it was present.
    ///
    /// See the module documentation for the cost; prefer
    /// [`Extend::extend`] for a batch.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        match self.position(prefix) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].value, value)),
            Err(i) => {
                let entry = Entry { network: prefix.network(), len: prefix.len(), up: 0, value };
                self.entries.insert(i, entry);
                self.relink(i);
                None
            }
        }
    }

    /// Exact-match lookup for a prefix.
    pub fn get(&self, prefix: Prefix) -> Option<&V> {
        self.position(prefix).ok().map(|i| &self.entries[i].value)
    }

    /// Mutable exact-match lookup.
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut V> {
        self.position(prefix).ok().map(|i| &mut self.entries[i].value)
    }

    /// Longest-prefix-match: the most specific stored prefix covering
    /// `addr`, together with that prefix.
    #[inline]
    pub fn lookup(&self, addr: Addr) -> Option<(&V, Prefix)> {
        self.lookup_covering(Prefix::new(addr, 128))
    }

    /// The most specific stored prefix that covers the *whole* of
    /// `prefix` (itself included), together with its value. An address is
    /// its own /128, so [`PrefixTrie::lookup`] is this query at length 128.
    #[inline]
    pub fn lookup_covering(&self, prefix: Prefix) -> Option<(&V, Prefix)> {
        let start = prefix.network();
        // The last entry starting at or below `start`: it and its
        // enclosers are the only entries that can contain `start`.
        let mut at = self.entries.partition_point(|e| e.network <= start);
        while at != 0 {
            let e = &self.entries[at - 1];
            let stored = e.prefix();
            if stored.covers(prefix) {
                return Some((&e.value, stored));
            }
            at = e.up as usize;
        }
        None
    }

    /// [`PrefixTrie::lookup_value`], and the last address up to which the
    /// answer stays the one `addr` gets: the match ends there, or the next
    /// stored prefix starts right after it. A caller that asks about
    /// ascending addresses asks the table once per span.
    pub fn lookup_span(&self, addr: Addr) -> (Option<&V>, Addr) {
        let mut at = self.entries.partition_point(|e| e.network <= addr);
        // No prefix starts in `addr + 1..=last`, so every address there
        // walks up from the same entry, past the same enclosers that end
        // below `addr`.
        let last = self.entries.get(at).map_or(Addr(u128::MAX), |next| Addr(next.network.0 - 1));
        while at != 0 {
            let e = &self.entries[at - 1];
            let stored = e.prefix();
            if stored.contains(addr) {
                return (Some(&e.value), last.min(stored.last()));
            }
            at = e.up as usize;
        }
        (None, last)
    }

    /// Shorthand: the value of the longest matching prefix, if any.
    #[inline]
    pub fn lookup_value(&self, addr: Addr) -> Option<&V> {
        self.lookup(addr).map(|(v, _)| v)
    }

    /// Whether any stored prefix covers `addr`.
    #[inline]
    pub fn covers(&self, addr: Addr) -> bool {
        self.lookup(addr).is_some()
    }

    /// Iterates over all `(prefix, value)` pairs in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> + '_ {
        self.entries.iter().map(|e| (e.prefix(), &e.value))
    }
}

impl<V> Extend<(Prefix, V)> for PrefixTrie<V> {
    /// Adds a batch of prefixes with one sort and one linking pass. As with
    /// repeated [`PrefixTrie::insert`], the last value given for a prefix
    /// wins.
    fn extend<I: IntoIterator<Item = (Prefix, V)>>(&mut self, iter: I) {
        self.entries.extend(iter.into_iter().map(|(prefix, value)| Entry {
            network: prefix.network(),
            len: prefix.len(),
            up: 0,
            value,
        }));
        // Stable, so equal prefixes stay in arrival order and the swap
        // leaves the latest arrival in the slot that survives.
        self.entries.sort_by_key(Entry::key);
        self.entries.dedup_by(|later, earlier| {
            let same = later.key() == earlier.key();
            if same {
                std::mem::swap(later, earlier);
            }
            same
        });
        self.relink(0);
    }
}

impl<V> FromIterator<(Prefix, V)> for PrefixTrie<V> {
    fn from_iter<I: IntoIterator<Item = (Prefix, V)>>(iter: I) -> PrefixTrie<V> {
        let mut t = PrefixTrie::new();
        t.extend(iter);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }
    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn empty_trie() {
        let t: PrefixTrie<u32> = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup(a("::1")), None);
    }

    #[test]
    fn exact_and_lpm() {
        let mut t = PrefixTrie::new();
        t.insert(p("2001:db8::/32"), 1);
        t.insert(p("2001:db8:1::/48"), 2);
        t.insert(p("::/0"), 0);
        assert_eq!(t.len(), 3);

        assert_eq!(t.get(p("2001:db8::/32")), Some(&1));
        assert_eq!(t.get(p("2001:db8::/33")), None);

        assert_eq!(t.lookup_value(a("2001:db8:1::9")), Some(&2));
        assert_eq!(t.lookup_value(a("2001:db8:2::9")), Some(&1));
        assert_eq!(t.lookup_value(a("9999::1")), Some(&0));
        let (_, matched) = t.lookup(a("2001:db8:1::9")).unwrap();
        assert_eq!(matched, p("2001:db8:1::/48"));
    }

    #[test]
    fn insert_replaces() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p("2001:db8::/32"), 1), None);
        assert_eq!(t.insert(p("2001:db8::/32"), 5), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("2001:db8::/32")), Some(&5));
    }

    #[test]
    fn host_routes() {
        let mut t = PrefixTrie::new();
        t.insert(p("2001:db8::1/128"), 7);
        assert_eq!(t.lookup_value(a("2001:db8::1")), Some(&7));
        assert_eq!(t.lookup_value(a("2001:db8::2")), None);
    }

    #[test]
    fn no_default_no_match() {
        let mut t = PrefixTrie::new();
        t.insert(p("fd00::/8"), 1);
        assert!(!t.covers(a("fe00::1")));
        assert!(t.covers(a("fd12::1")));
    }

    #[test]
    fn iter_sorted() {
        let mut t = PrefixTrie::new();
        for (i, s) in
            ["2001:db8:2::/48", "2001:db8::/32", "2001:db8:1::/48", "::/0"].iter().enumerate()
        {
            t.insert(p(s), i);
        }
        let got: Vec<Prefix> = t.iter().map(|(p, _)| p).collect();
        assert_eq!(
            got,
            vec![p("::/0"), p("2001:db8::/32"), p("2001:db8:1::/48"), p("2001:db8:2::/48")]
        );
    }

    #[test]
    fn lpm_matches_naive_scan() {
        // Differential test against a brute-force implementation.
        let prefixes = [
            ("2001::/16", 1),
            ("2001:db8::/32", 2),
            ("2001:db8:8000::/33", 3),
            ("2001:db8:8000::/48", 4),
            ("2400::/12", 5),
        ];
        let t: PrefixTrie<i32> = prefixes.iter().map(|(s, v)| (p(s), *v)).collect();
        let probes = [
            "2001:db8:8000::1",
            "2001:db8:8001::1",
            "2001:db8::1",
            "2001:1::1",
            "2400:cb00::1",
            "3000::1",
        ];
        for s in probes {
            let addr = a(s);
            let naive = prefixes
                .iter()
                .filter(|(q, _)| p(q).contains(addr))
                .max_by_key(|(q, _)| p(q).len())
                .map(|(_, v)| *v);
            assert_eq!(t.lookup_value(addr).copied(), naive, "probe {s}");
        }
    }

    /// The reference the differential tests compare against: an unsorted
    /// list, scanned linearly for every question.
    #[derive(Default)]
    struct Naive(Vec<(Prefix, u32)>);

    impl Naive {
        fn insert(&mut self, prefix: Prefix, value: u32) -> Option<u32> {
            match self.0.iter_mut().find(|(q, _)| *q == prefix) {
                Some(slot) => Some(std::mem::replace(&mut slot.1, value)),
                None => {
                    self.0.push((prefix, value));
                    None
                }
            }
        }

        fn get(&self, prefix: Prefix) -> Option<&u32> {
            self.0.iter().find(|(q, _)| *q == prefix).map(|(_, v)| v)
        }

        fn lookup_covering(&self, prefix: Prefix) -> Option<(&u32, Prefix)> {
            self.0
                .iter()
                .filter(|(q, _)| q.covers(prefix))
                .max_by_key(|(q, _)| q.len())
                .map(|(q, v)| (v, *q))
        }

        fn sorted(&self) -> Vec<(Prefix, u32)> {
            let mut v = self.0.clone();
            v.sort();
            v
        }
    }

    /// A prefix family with every shape the structure has a case for:
    /// `::/0`, a chain nested six deep, siblings that differ in their last
    /// bit, /128 host routes (adjacent ones and the two ends of the address
    /// space), random prefixes of every length, and repeats of earlier
    /// prefixes.
    fn family(seed: u64) -> Vec<Prefix> {
        let mut rng = crate::prf::PrfStream::new(seed, 0x781E, 0);
        let mut draw = || (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
        let mut out = vec![Prefix::ALL];
        let deep = Addr(draw());
        out.extend([12u8, 28, 32, 48, 64, 128].map(|len| Prefix::new(deep, len)));
        for len in [1u8, 33, 64, 128] {
            let base = draw();
            let bit = 1u128 << (128 - u32::from(len));
            out.push(Prefix::new(Addr(base & !bit), len));
            out.push(Prefix::new(Addr(base | bit), len));
        }
        let host = draw() | 1;
        out.extend([host - 1, host, host + 1, 0, u128::MAX].map(|a| Prefix::new(Addr(a), 128)));
        for _ in 0..24 {
            let len = (draw() % 129) as u8;
            // Half of them inside the deep chain, so that nesting is dense.
            let base = if draw() % 2 == 0 { deep.0 ^ (draw() >> 20) } else { draw() };
            out.push(Prefix::new(Addr(base), len));
        }
        for i in 0..8 {
            let repeat = out[(draw() % out.len() as u128) as usize];
            out.insert(i * 5, repeat);
        }
        out
    }

    /// The addresses worth asking about: both ends of every prefix, their
    /// outside neighbours, and one address inside.
    fn probes(prefixes: &[Prefix], seed: u64) -> Vec<Addr> {
        let mut out = Vec::new();
        for (i, q) in prefixes.iter().enumerate() {
            let (first, last) = (q.network().0, q.last().0);
            out.extend([first, last, first.wrapping_sub(1), last.wrapping_add(1)].map(Addr));
            out.push(q.random_addr(seed ^ i as u64));
        }
        out
    }

    /// Every link names the nearest enclosing entry, found by brute force.
    fn assert_links(t: &PrefixTrie<u32>) {
        for (i, e) in t.entries.iter().enumerate() {
            let nearest = (0..t.entries.len())
                .filter(|j| *j != i && t.entries[*j].prefix().covers(e.prefix()))
                .max_by_key(|j| t.entries[*j].len)
                .map_or(0, |j| j + 1);
            assert_eq!(e.up as usize, nearest, "link of {} among {} entries", e.prefix(), t.len());
        }
    }

    fn assert_same_answers(t: &PrefixTrie<u32>, naive: &Naive, asked: &[Prefix], addrs: &[Addr]) {
        assert_eq!(t.len(), naive.0.len());
        assert_eq!(t.is_empty(), naive.0.is_empty());
        let listed: Vec<(Prefix, u32)> = t.iter().map(|(q, v)| (q, *v)).collect();
        assert_eq!(listed, naive.sorted(), "iter is the sorted reference");
        assert_links(t);
        for q in asked {
            assert_eq!(t.get(*q), naive.get(*q), "get {q}");
            assert_eq!(t.lookup_covering(*q), naive.lookup_covering(*q), "lookup_covering {q}");
        }
        for addr in addrs {
            let want = naive.lookup_covering(Prefix::new(*addr, 128));
            assert_eq!(t.lookup(*addr), want, "lookup {addr}");
            assert_eq!(t.lookup_value(*addr), want.map(|(v, _)| v), "lookup_value {addr}");
            assert_eq!(t.covers(*addr), want.is_some(), "covers {addr}");
            // The span holds one answer from end to end and stops only
            // where the match does or another prefix starts.
            let (value, last) = t.lookup_span(*addr);
            assert_eq!(value, want.map(|(v, _)| v), "lookup_span {addr}");
            assert!(last >= *addr, "span of {addr} ends at {last}");
            for inside in [last, Addr(addr.0 + (last.0 - addr.0) / 2)] {
                let there = naive.lookup_covering(Prefix::new(inside, 128));
                assert_eq!(there, want, "{inside} in the span of {addr}");
            }
            if let Some(after) = last.0.checked_add(1).map(Addr) {
                let ends = want.is_some_and(|(_, q)| q.last() == last);
                let starts = naive.0.iter().any(|(q, _)| q.network() == after);
                assert!(ends || starts, "the span of {addr} stops short at {last}");
            }
        }
    }

    #[test]
    fn an_entry_is_two_to_a_cache_line() {
        // The module documentation's bytes per prefix.
        assert_eq!(std::mem::size_of::<Entry<()>>(), 32);
        assert_eq!(std::mem::size_of::<Entry<u32>>(), 32);
        assert_eq!(std::mem::size_of::<Entry<(u32, u32)>>(), 32);
    }

    #[test]
    fn random_sequences_match_a_linear_scan() {
        for seed in 0..12u64 {
            let fam = family(seed);
            let addrs = probes(&fam, seed);
            let mut ascending = fam.clone();
            ascending.sort();
            let mut descending = ascending.clone();
            descending.reverse();
            let mut shuffled = fam.clone();
            shuffled.sort_by_key(|q| crate::prf::prf_u128(seed, q.network().0, u64::from(q.len())));
            for (order, seq) in [
                ("drawn", &fam),
                ("ascending", &ascending),
                ("descending", &descending),
                ("shuffled", &shuffled),
            ] {
                let mut t = PrefixTrie::new();
                let mut naive = Naive::default();
                assert_same_answers(&t, &naive, &fam, &addrs);
                for (step, q) in seq.iter().enumerate() {
                    let value = (seed as u32) << 16 | step as u32;
                    assert_eq!(
                        t.insert(*q, value),
                        naive.insert(*q, value),
                        "{order} step {step}: {q}"
                    );
                    if let Some(v) = t.get_mut(*q) {
                        *v ^= 1;
                    }
                    if let Some(slot) = naive.0.iter_mut().find(|(x, _)| x == q) {
                        slot.1 ^= 1;
                    }
                    if step % 7 == 0 || step + 1 == seq.len() {
                        assert_same_answers(&t, &naive, &fam, &addrs);
                    }
                }

                // The bulk paths end where the inserts ended: collected in
                // one go, and extended in two batches of which the second
                // repeats prefixes of the first.
                let pairs = || seq.iter().enumerate().map(|(i, q)| (*q, i as u32));
                let mut by_insert = Naive::default();
                for (q, v) in pairs() {
                    by_insert.insert(q, v);
                }
                let collected: PrefixTrie<u32> = pairs().collect();
                assert_same_answers(&collected, &by_insert, &fam, &addrs);
                let mut extended: PrefixTrie<u32> = pairs().take(seq.len() / 2).collect();
                extended.extend(std::iter::empty());
                extended.extend(pairs().skip(seq.len() / 2));
                assert_same_answers(&extended, &by_insert, &fam, &addrs);
            }
        }
    }
}
