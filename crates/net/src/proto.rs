//! The five probed protocols and compact protocol sets.

use std::fmt;

use sixdust_json::{json_enum, Error, FromJson, ToJson, Value};

/// A protocol the IPv6 Hitlist scans (Fig. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Protocol {
    /// ICMPv6 echo.
    Icmp,
    /// TCP port 80 (HTTP).
    Tcp80,
    /// TCP port 443 (HTTPS).
    Tcp443,
    /// UDP port 53 (DNS).
    Udp53,
    /// UDP port 443 (QUIC).
    Udp443,
}
json_enum!(Protocol { Icmp, Tcp80, Tcp443, Udp53, Udp443 });

impl Protocol {
    /// All five protocols in the paper's table order
    /// (ICMP, TCP/443, TCP/80, UDP/443, UDP/53).
    pub const ALL: [Protocol; 5] =
        [Protocol::Icmp, Protocol::Tcp443, Protocol::Tcp80, Protocol::Udp443, Protocol::Udp53];

    /// Stable bit index for [`ProtoSet`].
    pub fn bit(self) -> u8 {
        match self {
            Protocol::Icmp => 0,
            Protocol::Tcp80 => 1,
            Protocol::Tcp443 => 2,
            Protocol::Udp53 => 3,
            Protocol::Udp443 => 4,
        }
    }

    /// Stable metric-key segment, used in names like `scan.icmp.hits`,
    /// `service.hits.cleaned.udp53` and `responsive-tcp443.txt`.
    pub fn metric_key(self) -> &'static str {
        match self {
            Protocol::Icmp => "icmp",
            Protocol::Tcp443 => "tcp443",
            Protocol::Tcp80 => "tcp80",
            Protocol::Udp443 => "udp443",
            Protocol::Udp53 => "udp53",
        }
    }

    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Icmp => "ICMP",
            Protocol::Tcp80 => "TCP/80",
            Protocol::Tcp443 => "TCP/443",
            Protocol::Udp53 => "UDP/53",
            Protocol::Udp443 => "UDP/443",
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A set of protocols as a 5-bit mask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ProtoSet(pub u8);

impl ToJson for ProtoSet {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl FromJson for ProtoSet {
    fn from_value(v: &Value) -> Result<ProtoSet, Error> {
        u8::from_value(v).map(ProtoSet)
    }
}

impl ProtoSet {
    /// The empty set.
    pub const EMPTY: ProtoSet = ProtoSet(0);

    /// Builds a set from a protocol list.
    pub fn of(protos: &[Protocol]) -> ProtoSet {
        let mut s = ProtoSet::EMPTY;
        for p in protos {
            s.insert(*p);
        }
        s
    }

    /// All five protocols.
    pub fn all() -> ProtoSet {
        ProtoSet::of(&Protocol::ALL)
    }

    /// Adds a protocol.
    pub fn insert(&mut self, p: Protocol) {
        self.0 |= 1 << p.bit();
    }

    /// Membership test.
    pub fn contains(self, p: Protocol) -> bool {
        self.0 & (1 << p.bit()) != 0
    }

    /// `true` when no protocol is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of protocols present.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Union.
    pub fn union(self, other: ProtoSet) -> ProtoSet {
        ProtoSet(self.0 | other.0)
    }

    /// Intersection.
    pub fn intersect(self, other: ProtoSet) -> ProtoSet {
        ProtoSet(self.0 & other.0)
    }

    /// Iterates the contained protocols.
    pub fn iter(self) -> impl Iterator<Item = Protocol> {
        Protocol::ALL.into_iter().filter(move |p| self.contains(*p))
    }
}

impl fmt::Debug for ProtoSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProtoSet{{")?;
        let mut first = true;
        for p in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Protocol> for ProtoSet {
    fn from_iter<I: IntoIterator<Item = Protocol>>(iter: I) -> ProtoSet {
        let mut s = ProtoSet::EMPTY;
        for p in iter {
            s.insert(p);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_are_distinct() {
        let bits: Vec<u8> = Protocol::ALL.iter().map(|p| p.bit()).collect();
        let mut dedup = bits.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5);
        assert_eq!(bits.iter().max(), Some(&4));
    }

    #[test]
    fn set_operations() {
        let mut s = ProtoSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Protocol::Icmp);
        s.insert(Protocol::Udp53);
        assert!(s.contains(Protocol::Icmp));
        assert!(!s.contains(Protocol::Tcp80));
        assert_eq!(s.len(), 2);
        let t = ProtoSet::of(&[Protocol::Udp53, Protocol::Tcp80]);
        assert_eq!(s.union(t).len(), 3);
        assert_eq!(s.intersect(t).len(), 1);
        assert!(s.intersect(t).contains(Protocol::Udp53));
    }

    #[test]
    fn all_has_five() {
        assert_eq!(ProtoSet::all().len(), 5);
        assert_eq!(ProtoSet::all().iter().count(), 5);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Protocol::Udp443.label(), "UDP/443");
        assert_eq!(Protocol::Icmp.to_string(), "ICMP");
    }
}
