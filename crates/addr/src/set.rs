//! [`PrefixSet`]: a set of prefixes with coverage queries.
//!
//! Used for the blocklist filter, the aliased-prefix filter and the GFW
//! impacted-address bookkeeping of the hitlist pipeline.

use sixdust_json::{Error, FromJson, ToJson, Value};

use crate::{Addr, AddrSet, Prefix, PrefixTrie};

/// A set of IPv6 prefixes answering "is this address covered?" and
/// "is this prefix (partially) covered?".
///
/// Its JSON form is that of an [`AddrSet`] of its [packed
/// items](PrefixSet::packed): one base64 codec body.
#[derive(Debug, Clone, Default)]
pub struct PrefixSet {
    trie: PrefixTrie<()>,
}

impl PartialEq for PrefixSet {
    fn eq(&self, other: &PrefixSet) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for PrefixSet {}

impl PrefixSet {
    /// Creates an empty set.
    pub fn new() -> PrefixSet {
        PrefixSet::default()
    }

    /// Number of distinct prefixes stored.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// Inserts a prefix. Returns `true` if it was newly inserted.
    pub fn insert(&mut self, prefix: Prefix) -> bool {
        self.trie.insert(prefix, ()).is_none()
    }

    /// Whether this exact prefix is in the set.
    pub fn contains_exact(&self, prefix: Prefix) -> bool {
        self.trie.get(prefix).is_some()
    }

    /// Whether any stored prefix covers the address.
    pub fn covers_addr(&self, addr: Addr) -> bool {
        self.trie.covers(addr)
    }

    /// Whether any stored prefix covers the *whole* given prefix
    /// (i.e. a stored prefix at least as short contains it).
    pub fn covers_prefix(&self, prefix: Prefix) -> bool {
        self.trie.lookup_covering(prefix).is_some()
    }

    /// Iterates the stored prefixes in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.trie.iter().map(|(p, _)| p)
    }

    /// Adds every prefix of `other` into `self`.
    pub fn extend_from(&mut self, other: &PrefixSet) {
        self.extend(other.iter());
    }

    /// Every prefix as its [`Prefix::packed`] item, in one set: what the
    /// aliased-prefix artifact ships, its digest covers and a checkpoint
    /// writes. The packing keeps the order, so this is one pass.
    ///
    /// # Panics
    ///
    /// Panics if the set holds a prefix longer than /124.
    pub fn packed(&self) -> AddrSet {
        AddrSet::from_sorted(self.iter().map(Prefix::packed).collect())
    }
}

impl ToJson for PrefixSet {
    /// The JSON form of [`PrefixSet::packed`]: one base64 codec body.
    fn to_value(&self) -> Value {
        self.packed().to_value()
    }
}

impl FromJson for PrefixSet {
    /// Reads the body [`ToJson`] writes through every check of `AddrSet`'s
    /// reader, and rejects an item no prefix packs to.
    fn from_value(v: &Value) -> Result<PrefixSet, Error> {
        AddrSet::from_value(v)?
            .iter()
            .map(|item| {
                Prefix::unpack(item)
                    .ok_or_else(|| Error::new(format!("item {item:#x} is not a packed prefix")))
            })
            .collect()
    }
}

impl FromIterator<Prefix> for PrefixSet {
    fn from_iter<I: IntoIterator<Item = Prefix>>(iter: I) -> PrefixSet {
        PrefixSet { trie: iter.into_iter().map(|p| (p, ())).collect() }
    }
}

impl Extend<Prefix> for PrefixSet {
    fn extend<I: IntoIterator<Item = Prefix>>(&mut self, iter: I) {
        self.trie.extend(iter.into_iter().map(|p| (p, ())));
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
    fn insert_and_membership() {
        let mut s = PrefixSet::new();
        assert!(s.insert(p("2001:db8::/32")));
        assert!(!s.insert(p("2001:db8::/32")), "duplicate");
        assert_eq!(s.len(), 1);
        assert!(s.covers_addr(a("2001:db8::1")));
        assert!(!s.covers_addr(a("2001:db9::1")));
    }

    #[test]
    fn covers_prefix_semantics() {
        let s: PrefixSet = [p("2001:db8::/32")].into_iter().collect();
        assert!(s.covers_prefix(p("2001:db8:1::/48")), "more specific covered");
        assert!(s.covers_prefix(p("2001:db8::/32")), "exact covered");
        assert!(!s.covers_prefix(p("2001::/16")), "shorter not covered");
        assert!(!s.covers_prefix(p("2001:db9::/48")));
        assert!(s.covers_prefix(p("2001:db8::1/128")), "a host route inside");
        assert!(!s.covers_prefix(p("2001:db9::1/128")), "a host route outside");

        // The match of the network address may be longer than the query:
        // the answer is an encloser of that match.
        let nested: PrefixSet =
            [p("2001:db8::/32"), p("2001:db8::/64"), p("2001:db8::1/128")].into_iter().collect();
        assert!(nested.covers_prefix(p("2001:db8::/48")), "covered by the /32 above the /64");
        assert!(nested.covers_prefix(p("2001:db8::1/128")), "a stored /128 covers itself");
        assert!(!nested.covers_prefix(p("2001::/16")));

        let all: PrefixSet = [p("::/0")].into_iter().collect();
        assert!(all.covers_prefix(p("::/0")), "::/0 stored covers ::/0");
        assert!(all.covers_prefix(p("2001:db8::/32")), "::/0 stored covers everything");
        assert!(all.covers_prefix(p("ffff::1/128")));
        assert!(!s.covers_prefix(p("::/0")), "nothing short of ::/0 covers ::/0");
    }

    #[test]
    fn exact_membership_vs_coverage() {
        let s: PrefixSet = [p("2001:db8::/32")].into_iter().collect();
        assert!(!s.contains_exact(p("2001:db8:1::/48")));
        assert!(s.contains_exact(p("2001:db8::/32")));
    }

    #[test]
    fn extend_unions() {
        let mut a_set: PrefixSet = [p("2001:db8::/32")].into_iter().collect();
        let b_set: PrefixSet = [p("2400::/12"), p("2001:db8::/32")].into_iter().collect();
        a_set.extend_from(&b_set);
        assert_eq!(a_set.len(), 2);
        assert!(a_set.covers_addr(a("2400::1")));
    }

    #[test]
    fn json_is_the_packed_items_codec_body_and_refuses_the_legacy_objects() {
        let s: PrefixSet =
            [p("2001:db8::70/124"), p("2001:db8::c0/124"), p("::/0"), p("2400::/12")]
                .into_iter()
                .collect();
        let json = sixdust_json::to_string(&s);
        assert_eq!(json, sixdust_json::to_string(&s.packed()));
        assert_eq!(sixdust_json::from_str::<PrefixSet>(&json), Ok(s));
        // The `{"network", "len"}` objects old checkpoints wrote are no
        // prefix set.
        let legacy = r#"[{"network": 0, "len": 0}]"#;
        assert!(sixdust_json::from_str::<PrefixSet>(legacy).is_err());
        // A body whose item no prefix packs to: a network bit past the
        // length, or a code past the tree below a /120.
        for item in [0x1_00 | 32, 151] {
            let body = sixdust_json::to_string(&AddrSet::from_sorted(vec![item]));
            let err = sixdust_json::from_str::<PrefixSet>(&body).unwrap_err();
            assert!(err.to_string().contains("not a packed prefix"), "{err}");
        }
    }

    #[test]
    fn iter_sorted() {
        let s: PrefixSet = [p("fd00::/8"), p("2001:db8::/32")].into_iter().collect();
        let got: Vec<Prefix> = s.iter().collect();
        assert_eq!(got, vec![p("2001:db8::/32"), p("fd00::/8")]);
    }
}
