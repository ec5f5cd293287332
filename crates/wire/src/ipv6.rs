//! The fixed IPv6 header (RFC 8200 §3).

use sixdust_addr::Addr;

use crate::WireError;

/// Length of the fixed IPv6 header in bytes.
pub const IPV6_HEADER_LEN: usize = 40;

/// The minimum MTU every IPv6 link must support (RFC 8200 §5) — the floor
/// the Too Big Trick pushes targets toward.
pub const IPV6_MIN_MTU: u32 = 1280;

/// IPv6 next-header values sixdust decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NextHeader {
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// ICMPv6 (58).
    Icmpv6,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl NextHeader {
    /// Protocol number as used on the wire and in pseudo-headers.
    pub fn value(self) -> u8 {
        match self {
            NextHeader::Tcp => 6,
            NextHeader::Udp => 17,
            NextHeader::Icmpv6 => 58,
            NextHeader::Other(v) => v,
        }
    }
}

impl From<u8> for NextHeader {
    fn from(v: u8) -> NextHeader {
        match v {
            6 => NextHeader::Tcp,
            17 => NextHeader::Udp,
            58 => NextHeader::Icmpv6,
            other => NextHeader::Other(other),
        }
    }
}

/// The fixed IPv6 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6Header {
    /// Traffic class (DSCP+ECN).
    pub traffic_class: u8,
    /// 20-bit flow label.
    pub flow_label: u32,
    /// Upper-layer payload length in bytes.
    pub payload_len: u16,
    /// Transport protocol selector.
    pub next_header: NextHeader,
    /// Hop limit (TTL); the iTTL fingerprint feature rounds the received
    /// value up to the next common initial value (32, 64, 128 or 255) to
    /// recover what this field was when the reply left.
    pub hop_limit: u8,
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
}

impl Ipv6Header {
    /// Convenience constructor with default class/flow, payload length and
    /// next-header filled in by [`crate::Packet::to_bytes`].
    pub fn new(src: Addr, dst: Addr, hop_limit: u8) -> Ipv6Header {
        Ipv6Header {
            traffic_class: 0,
            flow_label: 0,
            payload_len: 0,
            next_header: NextHeader::Other(59), // "no next header" placeholder
            hop_limit,
            src,
            dst,
        }
    }

    /// Serializes the 40-byte header.
    pub fn to_bytes(&self) -> [u8; IPV6_HEADER_LEN] {
        let mut b = [0u8; IPV6_HEADER_LEN];
        let vtf: u32 =
            (6u32 << 28) | (u32::from(self.traffic_class) << 20) | (self.flow_label & 0xf_ffff);
        b[0..4].copy_from_slice(&vtf.to_be_bytes());
        b[4..6].copy_from_slice(&self.payload_len.to_be_bytes());
        b[6] = self.next_header.value();
        b[7] = self.hop_limit;
        b[8..24].copy_from_slice(&self.src.0.to_be_bytes());
        b[24..40].copy_from_slice(&self.dst.0.to_be_bytes());
        b
    }

    /// Parses the header from the front of `bytes`.
    pub fn parse(bytes: &[u8]) -> Result<Ipv6Header, WireError> {
        if bytes.len() < IPV6_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let vtf = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let version = (vtf >> 28) as u8;
        if version != 6 {
            return Err(WireError::BadVersion(version));
        }
        Ok(Ipv6Header {
            traffic_class: ((vtf >> 20) & 0xff) as u8,
            flow_label: vtf & 0xf_ffff,
            payload_len: u16::from_be_bytes([bytes[4], bytes[5]]),
            next_header: NextHeader::from(bytes[6]),
            hop_limit: bytes[7],
            src: Addr(u128::from_be_bytes(bytes[8..24].try_into().expect("16 bytes"))),
            dst: Addr(u128::from_be_bytes(bytes[24..40].try_into().expect("16 bytes"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn roundtrip() {
        let h = Ipv6Header {
            traffic_class: 0xb8,
            flow_label: 0xabcde,
            payload_len: 1234,
            next_header: NextHeader::Udp,
            hop_limit: 64,
            src: a("2001:db8::1"),
            dst: a("2a00:1450::5"),
        };
        assert_eq!(Ipv6Header::parse(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn version_enforced() {
        let h = Ipv6Header::new(a("::1"), a("::2"), 64);
        let mut bytes = h.to_bytes();
        bytes[0] = 0x45; // IPv4-looking
        assert_eq!(Ipv6Header::parse(&bytes), Err(WireError::BadVersion(4)));
    }

    #[test]
    fn truncation() {
        assert_eq!(Ipv6Header::parse(&[0x60; 39]), Err(WireError::Truncated));
    }

    #[test]
    fn next_header_mapping() {
        assert_eq!(NextHeader::from(6), NextHeader::Tcp);
        assert_eq!(NextHeader::from(17), NextHeader::Udp);
        assert_eq!(NextHeader::from(58), NextHeader::Icmpv6);
        assert_eq!(NextHeader::from(43), NextHeader::Other(43));
        assert_eq!(NextHeader::Other(43).value(), 43);
    }

    #[test]
    fn flow_label_masked_to_20_bits() {
        let mut h = Ipv6Header::new(a("::1"), a("::2"), 64);
        h.flow_label = 0xfff_ffff; // 28 bits
        let parsed = Ipv6Header::parse(&h.to_bytes()).unwrap();
        assert_eq!(parsed.flow_label, 0xf_ffff);
    }
}
