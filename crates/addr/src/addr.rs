//! The [`Addr`] newtype: a 128-bit IPv6 address with nibble-level access.

use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

use sixdust_json::{Error, FromJson, ToJson, Value};

/// A 128-bit IPv6 address.
///
/// Stored as a big-endian-interpreted `u128` so that ordinary integer
/// ordering matches lexicographic address ordering, which the distance
/// clustering algorithm and the prefix trie both rely on.
///
/// ```
/// use sixdust_addr::Addr;
/// let a: Addr = "2001:db8::1".parse().unwrap();
/// assert_eq!(a.nibble(0), 0x2);
/// assert_eq!(a.nibble(1), 0x0);
/// assert_eq!(a.nibble(31), 0x1);
/// assert_eq!(a.to_string(), "2001:db8::1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u128);

/// A bare 128-bit integer on the wire.
impl ToJson for Addr {
    fn to_value(&self) -> Value {
        Value::UInt(self.0)
    }
}

impl FromJson for Addr {
    fn from_value(v: &Value) -> Result<Addr, Error> {
        u128::from_value(v).map(Addr)
    }
}

impl Addr {
    /// The unspecified address `::`.
    pub const UNSPECIFIED: Addr = Addr(0);

    /// Number of nibbles (4-bit groups) in an IPv6 address.
    pub const NIBBLES: usize = 32;

    /// Builds an address from eight 16-bit segments, mirroring
    /// [`Ipv6Addr::new`].
    #[allow(clippy::too_many_arguments)] // mirrors std's Ipv6Addr::new
    pub const fn new(a: u16, b: u16, c: u16, d: u16, e: u16, f: u16, g: u16, h: u16) -> Addr {
        Addr(
            (a as u128) << 112
                | (b as u128) << 96
                | (c as u128) << 80
                | (d as u128) << 64
                | (e as u128) << 48
                | (f as u128) << 32
                | (g as u128) << 16
                | (h as u128),
        )
    }

    /// Returns the `i`-th nibble (0 = most significant), `0..=0xf`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    #[inline]
    pub fn nibble(self, i: usize) -> u8 {
        assert!(i < Self::NIBBLES, "nibble index {i} out of range");
        ((self.0 >> (124 - 4 * i)) & 0xf) as u8
    }

    /// Returns a copy of the address with the `i`-th nibble replaced.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32` or `v > 0xf`.
    #[inline]
    pub fn with_nibble(self, i: usize, v: u8) -> Addr {
        assert!(i < Self::NIBBLES, "nibble index {i} out of range");
        assert!(v <= 0xf, "nibble value {v} out of range");
        let shift = 124 - 4 * i;
        Addr((self.0 & !(0xfu128 << shift)) | ((v as u128) << shift))
    }

    /// Returns all 32 nibbles, most significant first.
    pub fn nibbles(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.nibble(i);
        }
        out
    }

    /// Reconstructs an address from 32 nibbles (most significant first).
    pub fn from_nibbles(nibbles: &[u8; 32]) -> Addr {
        let mut v = 0u128;
        for &n in nibbles.iter() {
            debug_assert!(n <= 0xf);
            v = (v << 4) | (n as u128 & 0xf);
        }
        Addr(v)
    }

    /// Returns the `i`-th bit (0 = most significant).
    #[inline]
    pub fn bit(self, i: u8) -> bool {
        debug_assert!(i < 128);
        (self.0 >> (127 - i)) & 1 == 1
    }

    /// The upper 64 bits: the network/subnet part under the conventional
    /// /64 split.
    #[inline]
    pub fn network_u64(self) -> u64 {
        (self.0 >> 64) as u64
    }

    /// The lower 64 bits: the interface identifier (IID) under the
    /// conventional /64 split.
    #[inline]
    pub fn iid(self) -> u64 {
        self.0 as u64
    }

    /// Replaces the low 64 bits (the IID).
    #[inline]
    pub fn with_iid(self, iid: u64) -> Addr {
        Addr((self.0 & !0xffff_ffff_ffff_ffffu128) | iid as u128)
    }

    /// Absolute distance between two addresses as unsigned integers.
    #[inline]
    pub fn distance(self, other: Addr) -> u128 {
        self.0.abs_diff(other.0)
    }

    /// Saturating integer addition; used by cluster-filling generators.
    #[inline]
    pub fn saturating_add(self, delta: u128) -> Addr {
        Addr(self.0.saturating_add(delta))
    }

    /// Conversion to the standard library representation.
    #[inline]
    pub fn to_ipv6(self) -> Ipv6Addr {
        Ipv6Addr::from(self.0)
    }
}

impl From<Ipv6Addr> for Addr {
    fn from(a: Ipv6Addr) -> Addr {
        Addr(u128::from(a))
    }
}

impl From<Addr> for Ipv6Addr {
    fn from(a: Addr) -> Ipv6Addr {
        a.to_ipv6()
    }
}

impl From<u128> for Addr {
    fn from(v: u128) -> Addr {
        Addr(v)
    }
}

impl From<Addr> for u128 {
    fn from(a: Addr) -> u128 {
        a.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_ipv6().fmt(f)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({})", self.to_ipv6())
    }
}

impl FromStr for Addr {
    type Err = std::net::AddrParseError;

    fn from_str(s: &str) -> Result<Addr, Self::Err> {
        Ipv6Addr::from_str(s).map(Addr::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_roundtrip() {
        let a: Addr = "2001:db8:1234:5678:9abc:def0:1122:3344".parse().unwrap();
        assert_eq!(Addr::from_nibbles(&a.nibbles()), a);
    }

    #[test]
    fn nibble_indexing_matches_text() {
        let a: Addr = "fedc:ba98:7654:3210:0123:4567:89ab:cdef".parse().unwrap();
        let expect = [
            0xf, 0xe, 0xd, 0xc, 0xb, 0xa, 0x9, 0x8, 0x7, 0x6, 0x5, 0x4, 0x3, 0x2, 0x1, 0x0, 0x0,
            0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, 0x8, 0x9, 0xa, 0xb, 0xc, 0xd, 0xe, 0xf,
        ];
        assert_eq!(a.nibbles(), expect);
    }

    #[test]
    fn with_nibble_sets_only_target() {
        let a: Addr = "2001:db8::".parse().unwrap();
        let b = a.with_nibble(31, 0xf);
        assert_eq!(b.to_string(), "2001:db8::f");
        assert_eq!(b.with_nibble(31, 0), a);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nibble_index_bound() {
        Addr::UNSPECIFIED.nibble(32);
    }

    #[test]
    fn bit_access() {
        let a = Addr(1u128 << 127);
        assert!(a.bit(0));
        assert!(!a.bit(1));
        let b = Addr(1);
        assert!(b.bit(127));
    }

    #[test]
    fn iid_split() {
        let a: Addr = "2001:db8::1:2:3:4".parse().unwrap();
        assert_eq!(a.network_u64(), 0x2001_0db8_0000_0000);
        assert_eq!(a.iid(), 0x0001_0002_0003_0004);
        assert_eq!(a.with_iid(0xff), "2001:db8::ff".parse().unwrap());
    }

    #[test]
    fn ordering_matches_numeric() {
        let lo: Addr = "2001:db8::1".parse().unwrap();
        let hi: Addr = "2001:db8::2".parse().unwrap();
        assert!(lo < hi);
        assert_eq!(lo.distance(hi), 1);
        assert_eq!(hi.distance(lo), 1);
    }

    #[test]
    fn display_is_canonical() {
        let a: Addr = "2001:0db8:0000:0000:0000:0000:0000:0001".parse().unwrap();
        assert_eq!(a.to_string(), "2001:db8::1");
    }

    #[test]
    fn new_matches_parse() {
        let a = Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1);
        assert_eq!(a, "2001:db8::1".parse().unwrap());
    }
}
