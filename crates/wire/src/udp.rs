//! UDP datagrams (RFC 768 over IPv6 per RFC 8200 §8.1).

use sixdust_addr::Addr;

use crate::checksum;
use crate::WireError;

/// A UDP datagram: ports plus an opaque payload (DNS or QUIC bytes in
/// sixdust's probes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl UdpDatagram {
    /// Serializes with a valid pseudo-header checksum (mandatory for IPv6).
    pub fn to_bytes(&self, src: Addr, dst: Addr) -> Vec<u8> {
        let len = 8 + self.payload.len();
        assert!(len <= usize::from(u16::MAX), "UDP payload too long");
        let mut b = Vec::with_capacity(len);
        b.extend_from_slice(&self.src_port.to_be_bytes());
        b.extend_from_slice(&self.dst_port.to_be_bytes());
        b.extend_from_slice(&(len as u16).to_be_bytes());
        b.extend_from_slice(&[0, 0]); // checksum placeholder
        b.extend_from_slice(&self.payload);
        let mut ck = checksum::transport_checksum(src, dst, 17, &b);
        // RFC 768: an all-zero computed checksum is transmitted as 0xffff.
        if ck == 0 {
            ck = 0xffff;
        }
        b[6..8].copy_from_slice(&ck.to_be_bytes());
        b
    }

    /// Parses and checksum-verifies a datagram.
    pub fn parse(bytes: &[u8], src: Addr, dst: Addr) -> Result<UdpDatagram, WireError> {
        if bytes.len() < 8 {
            return Err(WireError::Truncated);
        }
        let len = usize::from(u16::from_be_bytes([bytes[4], bytes[5]]));
        if len < 8 || bytes.len() < len {
            return Err(WireError::Truncated);
        }
        let bytes = &bytes[..len];
        // IPv6 forbids a zero UDP checksum (RFC 8200 §8.1).
        if bytes[6] == 0 && bytes[7] == 0 {
            return Err(WireError::Malformed("zero udp checksum"));
        }
        if !checksum::verify_transport_checksum(src, dst, 17, bytes) {
            // 0xffff-for-zero special case: re-check with the substitution.
            let mut copy = bytes.to_vec();
            copy[6] = 0;
            copy[7] = 0;
            if !(bytes[6] == 0xff
                && bytes[7] == 0xff
                && checksum::transport_checksum(src, dst, 17, &copy) == 0)
            {
                return Err(WireError::BadChecksum);
            }
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
            dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            payload: bytes[8..].to_vec(),
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
        let d = UdpDatagram { src_port: 53535, dst_port: 53, payload: b"payload".to_vec() };
        let bytes = d.to_bytes(a("2001:db8::1"), a("2001:db8::2"));
        assert_eq!(UdpDatagram::parse(&bytes, a("2001:db8::1"), a("2001:db8::2")).unwrap(), d);
    }

    #[test]
    fn empty_payload() {
        let d = UdpDatagram { src_port: 1, dst_port: 2, payload: vec![] };
        let bytes = d.to_bytes(a("::1"), a("::2"));
        assert_eq!(bytes.len(), 8);
        assert_eq!(UdpDatagram::parse(&bytes, a("::1"), a("::2")).unwrap(), d);
    }

    #[test]
    fn zero_checksum_rejected() {
        let d = UdpDatagram { src_port: 1, dst_port: 2, payload: vec![9] };
        let mut bytes = d.to_bytes(a("::1"), a("::2"));
        bytes[6] = 0;
        bytes[7] = 0;
        assert_eq!(
            UdpDatagram::parse(&bytes, a("::1"), a("::2")),
            Err(WireError::Malformed("zero udp checksum"))
        );
    }

    #[test]
    fn corruption_detected() {
        let d = UdpDatagram { src_port: 1, dst_port: 2, payload: vec![1, 2, 3] };
        let mut bytes = d.to_bytes(a("::1"), a("::2"));
        bytes[9] ^= 0xf0;
        assert_eq!(UdpDatagram::parse(&bytes, a("::1"), a("::2")), Err(WireError::BadChecksum));
    }

    #[test]
    fn length_field_respected() {
        let d = UdpDatagram { src_port: 1, dst_port: 2, payload: vec![7; 4] };
        let mut bytes = d.to_bytes(a("::1"), a("::2"));
        bytes.extend_from_slice(&[0xde, 0xad]); // trailing junk beyond UDP length
        let parsed = UdpDatagram::parse(&bytes, a("::1"), a("::2")).unwrap();
        assert_eq!(parsed.payload, vec![7; 4]);
    }
}
