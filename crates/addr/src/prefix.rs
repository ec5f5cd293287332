//! CIDR prefixes with the operations the aliased-prefix machinery needs.

use std::fmt;
use std::str::FromStr;

use crate::prf;
use crate::Addr;

/// An IPv6 CIDR prefix such as `2001:db8::/32`.
///
/// The address part is always stored in canonical (masked) form: bits past
/// the prefix length are zero. Ordering is `(network, len)` so that a sorted
/// list groups covering prefixes before their more-specifics.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    network: Addr,
    len: u8,
}

/// Error returned when parsing a [`Prefix`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePrefixError {
    /// Missing `/` separator.
    MissingSlash,
    /// The address part failed to parse.
    BadAddress,
    /// The length part failed to parse or exceeded 128.
    BadLength,
}

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePrefixError::MissingSlash => write!(f, "prefix is missing '/' separator"),
            ParsePrefixError::BadAddress => write!(f, "invalid IPv6 address in prefix"),
            ParsePrefixError::BadLength => write!(f, "invalid prefix length"),
        }
    }
}

impl std::error::Error for ParsePrefixError {}

impl Prefix {
    /// The whole IPv6 address space, `::/0`.
    pub const ALL: Prefix = Prefix { network: Addr(0), len: 0 };

    /// Creates a prefix, masking the address to its canonical network form.
    ///
    /// # Panics
    ///
    /// Panics if `len > 128`.
    pub fn new(addr: Addr, len: u8) -> Prefix {
        assert!(len <= 128, "prefix length {len} out of range");
        Prefix { network: Addr(addr.0 & mask(len)), len }
    }

    /// The canonical (masked) network address.
    #[inline]
    pub fn network(self) -> Addr {
        self.network
    }

    /// The prefix length in bits.
    ///
    /// (Not a container length — `is_empty` would be meaningless; see
    /// [`Prefix::is_default`] for the `/0` check.)
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(self) -> u8 {
        self.len
    }

    /// The prefix as one 128-bit item: how the aliased-prefix artifact,
    /// its digest and a checkpoint's prefix sets carry a prefix among
    /// addresses. Up to /120 the item is `network | len`: the length sits
    /// in the low byte, which such a network leaves zero. A /121–/124
    /// network has bits in that byte, so its item keeps the network's
    /// /120 and puts in the low byte 120 plus the prefix's place in the
    /// preorder of the binary tree below that /120 (121–150). Either way
    /// two prefixes pack apart and in the order of [`Prefix`];
    /// [`Prefix::unpack`] is the inverse.
    ///
    /// # Panics
    ///
    /// Panics for a prefix longer than /124, which has no item.
    #[inline]
    pub fn packed(self) -> u128 {
        let Some(depth) = self.len.checked_sub(120) else {
            return self.network.0 | u128::from(self.len);
        };
        assert!(depth <= 4, "a /{} prefix has no packed item", self.len);
        // Down the tree below the /120, one network bit a level: a left
        // step passes the node, a right step the node and its whole left
        // subtree, 2^(4 - level) - 1 nodes.
        let low = self.network.0 & 0xff;
        let place: u128 =
            (0..depth).map(|level| if low >> (7 - level) & 1 == 1 { 16 >> level } else { 1 }).sum();
        (self.network.0 & !0xff) | (120 + place)
    }

    /// The prefix [`Prefix::packed`] made `item` from, or `None` for an
    /// item no prefix packs to.
    pub fn unpack(item: u128) -> Option<Prefix> {
        let (mut network, code) = (item & !0xff, (item & 0xff) as u8);
        let len = match code.checked_sub(120) {
            None => code,
            Some(mut place) => {
                let mut level = 0;
                while place > 0 {
                    if level == 4 {
                        return None;
                    }
                    place -= 1;
                    let left = (16 >> level) - 1;
                    if place >= left {
                        place -= left;
                        network |= 0x80 >> level;
                    }
                    level += 1;
                }
                120 + level
            }
        };
        let prefix = Prefix::new(Addr(network), len);
        (prefix.network.0 == network).then_some(prefix)
    }

    /// `true` only for `::/0`.
    #[inline]
    pub fn is_default(self) -> bool {
        self.len == 0
    }

    /// The highest address inside the prefix.
    #[inline]
    pub fn last(self) -> Addr {
        Addr(self.network.0 | !mask(self.len))
    }

    /// Number of addresses covered, as a power of two exponent
    /// (`128 - len`). Avoids overflow for short prefixes.
    #[inline]
    pub fn size_log2(self) -> u8 {
        128 - self.len
    }

    /// Whether `addr` falls inside this prefix.
    #[inline]
    pub fn contains(self, addr: Addr) -> bool {
        addr.0 & mask(self.len) == self.network.0
    }

    /// Whether `other` is fully covered by this prefix (including equality).
    #[inline]
    pub fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && self.contains(other.network)
    }

    /// The immediately covering prefix one bit shorter, or `None` at `/0`.
    pub fn supernet(self) -> Option<Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Prefix::new(self.network, self.len - 1))
        }
    }

    /// The covering prefix of the given (shorter or equal) length.
    ///
    /// # Panics
    ///
    /// Panics if `len` is longer than this prefix's length.
    pub fn trim(self, len: u8) -> Prefix {
        assert!(len <= self.len, "cannot trim /{} to longer /{len}", self.len);
        Prefix::new(self.network, len)
    }

    /// Iterator over the 16 sub-prefixes four bits longer — the nibble
    /// expansion the multi-level aliased prefix detection probes
    /// (`2001:db8::/32` → `2001:db8:[0-f]000::/36`).
    ///
    /// # Panics
    ///
    /// Panics if the prefix is longer than /124.
    pub fn nibble_subprefixes(self) -> SubPrefixes {
        assert!(self.len <= 124, "/{} has no nibble sub-prefixes", self.len);
        SubPrefixes { base: self, next: 0 }
    }

    /// The `i`-th (0..16) nibble sub-prefix.
    pub fn nibble_subprefix(self, i: u8) -> Prefix {
        assert!(i < 16 && self.len <= 124);
        let shift = 128 - u32::from(self.len) - 4;
        Prefix::new(Addr(self.network.0 | (u128::from(i) << shift)), self.len + 4)
    }

    /// Draws a deterministic pseudo-random address inside the prefix.
    ///
    /// The same `(prefix, seed)` pair always yields the same address, which
    /// keeps alias-detection probe sets reproducible across scan rounds,
    /// mirroring how the IPv6 Hitlist seeds its per-prefix probes.
    pub fn random_addr(self, seed: u64) -> Addr {
        let host_bits = 128 - u32::from(self.len);
        if host_bits == 0 {
            return self.network;
        }
        let hi = prf::mix64(seed ^ self.network.network_u64() ^ 0xa5a5_5a5a);
        let lo = prf::mix64(seed.wrapping_add(self.network.iid()).wrapping_add(1));
        let rand = ((hi as u128) << 64 | lo as u128) & !mask(self.len);
        Addr(self.network.0 | rand)
    }

    /// Enumerates the first `count` addresses of the prefix in order.
    pub fn first_addrs(self, count: usize) -> impl Iterator<Item = Addr> {
        let base = self.network.0;
        let cap = if self.size_log2() >= 64 { u64::MAX } else { 1u64 << self.size_log2() };
        (0..count as u64).take_while(move |i| *i < cap).map(move |i| Addr(base + i as u128))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Prefix, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(ParsePrefixError::MissingSlash)?;
        let addr: Addr = addr.parse().map_err(|_| ParsePrefixError::BadAddress)?;
        let len: u8 = len.parse().map_err(|_| ParsePrefixError::BadLength)?;
        if len > 128 {
            return Err(ParsePrefixError::BadLength);
        }
        Ok(Prefix::new(addr, len))
    }
}

/// Iterator over the 16 nibble sub-prefixes of a prefix.
#[derive(Debug, Clone)]
pub struct SubPrefixes {
    base: Prefix,
    next: u8,
}

impl Iterator for SubPrefixes {
    type Item = Prefix;

    fn next(&mut self) -> Option<Prefix> {
        if self.next >= 16 {
            return None;
        }
        let p = self.base.nibble_subprefix(self.next);
        self.next += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (16 - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for SubPrefixes {}

/// Bit mask with the top `len` bits set.
#[inline]
fn mask(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - u32::from(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(p("2001:db8::/32").to_string(), "2001:db8::/32");
        assert_eq!(p("2001:db8::1/32").to_string(), "2001:db8::/32", "masked");
        assert_eq!("x/32".parse::<Prefix>(), Err(ParsePrefixError::BadAddress));
        assert_eq!("::1".parse::<Prefix>(), Err(ParsePrefixError::MissingSlash));
        assert_eq!("::/200".parse::<Prefix>(), Err(ParsePrefixError::BadLength));
    }

    #[test]
    fn contains_and_covers() {
        let net = p("2001:db8::/32");
        assert!(net.contains("2001:db8:ffff::1".parse().unwrap()));
        assert!(!net.contains("2001:db9::".parse().unwrap()));
        assert!(net.covers(p("2001:db8:1::/48")));
        assert!(net.covers(net));
        assert!(!p("2001:db8:1::/48").covers(net));
    }

    #[test]
    fn packed_keeps_network_and_length_apart() {
        assert_eq!(p("2001:db8::/32").packed(), 0x2001_0db8 << 96 | 32);
        assert_eq!(p("2001:db8::ab00/120").packed() & 0xff, 120);
        assert_eq!(Prefix::ALL.packed(), 0);
    }

    #[test]
    fn every_length_to_124_packs_apart_in_order_and_unpacks() {
        // Two /124s that differ only in the network bits 4–7, which
        // `network | len` would have ORed the length into.
        let (a, b) = (p("2001:db8::/124"), p("2001:db8::70/124"));
        assert_eq!(a.network().0 | 124, b.network().0 | 124);
        assert_ne!(a.packed(), b.packed());
        // Every length, at networks whose low bits are all zero, all one
        // and mixed.
        let mut prefixes: Vec<Prefix> =
            [0u128, u128::MAX, 0x2001_0db8_0000_0000_0000_0000_dead_beef]
                .iter()
                .flat_map(|&bits| (0..=124).map(move |len| Prefix::new(Addr(bits), len)))
                .collect();
        // And the whole tree below one /120.
        for low in 0..=0xffu128 {
            for len in 120..=124 {
                prefixes.push(Prefix::new(Addr(0x2001_0db8 << 96 | low), len));
            }
        }
        prefixes.sort_unstable();
        prefixes.dedup();
        for q in &prefixes {
            assert_eq!(Prefix::unpack(q.packed()), Some(*q), "{q}");
            if q.len() <= 120 {
                assert_eq!(q.packed(), q.network().0 | u128::from(q.len()), "{q} kept its item");
            }
        }
        let packed: Vec<u128> = prefixes.iter().map(|q| q.packed()).collect();
        assert!(packed.windows(2).all(|w| w[0] < w[1]), "one-to-one and in prefix order");
        // Every code of the low byte under `::/120` is a prefix that packs
        // back to it, or no prefix at all.
        let codes = (0..=0xffu128).filter_map(Prefix::unpack);
        assert!(codes.clone().all(|q| Prefix::unpack(q.packed()) == Some(q)));
        assert_eq!(codes.count(), 151, "/0–/120 and the 30 prefixes below the /120");
        assert_eq!(Prefix::unpack(0x1_00 | 32), None, "a network bit past the length");
    }

    #[test]
    #[should_panic(expected = "no packed item")]
    fn a_prefix_past_124_does_not_pack() {
        p("2001:db8::/125").packed();
    }

    #[test]
    fn last_address() {
        assert_eq!(
            p("2001:db8::/32").last(),
            "2001:db8:ffff:ffff:ffff:ffff:ffff:ffff".parse().unwrap()
        );
        assert_eq!(p("::1/128").last(), "::1".parse().unwrap());
    }

    #[test]
    fn default_route() {
        assert!(Prefix::ALL.is_default());
        assert!(Prefix::ALL.contains("abcd::1".parse().unwrap()));
        assert_eq!(Prefix::ALL.supernet(), None);
    }

    #[test]
    fn nibble_subprefixes_cover_exactly() {
        let net = p("2001:db8::/32");
        let subs: Vec<Prefix> = net.nibble_subprefixes().collect();
        assert_eq!(subs.len(), 16);
        assert_eq!(subs[0], p("2001:db8::/36"));
        assert_eq!(subs[1], p("2001:db8:1000::/36"));
        assert_eq!(subs[15], p("2001:db8:f000::/36"));
        for s in &subs {
            assert!(net.covers(*s));
        }
        // Disjoint: each address in the parent is in exactly one child.
        let probe: Addr = "2001:db8:4abc::99".parse().unwrap();
        assert_eq!(subs.iter().filter(|s| s.contains(probe)).count(), 1);
    }

    #[test]
    fn random_addr_is_inside_and_deterministic() {
        let net = p("2001:db8:4000::/36");
        let a = net.random_addr(7);
        let b = net.random_addr(7);
        let c = net.random_addr(8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds draw different addresses");
        assert!(net.contains(a));
        assert!(net.contains(c));
    }

    #[test]
    fn random_addr_full_length() {
        let host = p("2001:db8::1/128");
        assert_eq!(host.random_addr(1), "2001:db8::1".parse().unwrap());
    }

    #[test]
    fn trim_to_shorter() {
        assert_eq!(p("2001:db8:abcd::/48").trim(32), p("2001:db8::/32"));
    }

    #[test]
    #[should_panic(expected = "cannot trim")]
    fn trim_to_longer_panics() {
        p("2001:db8::/32").trim(48);
    }

    #[test]
    fn first_addrs_enumerates() {
        let addrs: Vec<Addr> = p("2001:db8::/126").first_addrs(10).collect();
        assert_eq!(addrs.len(), 4, "stops at prefix capacity");
        assert_eq!(addrs[3], "2001:db8::3".parse().unwrap());
    }

    #[test]
    fn ordering_groups_parents_first() {
        let mut v = [p("2001:db8::/48"), p("2001:db8::/32"), p("2001:db8:1::/48")];
        v.sort();
        assert_eq!(v[0], p("2001:db8::/32"));
    }
}
