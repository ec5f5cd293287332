//! A minimal QUIC encoding (RFC 8999 invariants, RFC 9000 framing shape).
//!
//! The hitlist's UDP/443 probe is a QUIC Initial-like datagram; a QUIC
//! endpoint answers either with an Initial of its own or — when probed with
//! an unknown version, as ZMapv6's module deliberately does — with a
//! **Version Negotiation** packet, which is the success signal. Only those
//! two packet shapes are modelled.

use crate::WireError;

/// The reserved version-negotiation-forcing version (any 0x?a?a?a?a is
/// reserved; ZMap-style probes use one to always elicit VN).
pub const FORCE_VN_VERSION: u32 = 0x1a2a_3a4a;

/// QUIC v1.
pub const QUIC_V1: u32 = 0x0000_0001;

/// A QUIC long-header packet, reduced to what the probe path needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuicPacket {
    /// A client Initial(-like) probe.
    Initial {
        /// Version field; `FORCE_VN_VERSION` to force version negotiation.
        version: u32,
        /// Destination connection id (1..=20 bytes).
        dcid: Vec<u8>,
        /// Source connection id (0..=20 bytes).
        scid: Vec<u8>,
    },
    /// A server Version Negotiation packet.
    VersionNegotiation {
        /// Echoed destination connection id (the probe's SCID).
        dcid: Vec<u8>,
        /// Echoed source connection id (the probe's DCID).
        scid: Vec<u8>,
        /// Versions the server supports.
        supported: Vec<u32>,
    },
}

impl QuicPacket {
    /// Serializes to datagram payload bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        match self {
            QuicPacket::Initial { version, dcid, scid } => {
                assert!(dcid.len() <= 20 && scid.len() <= 20, "cid too long");
                b.push(0xc0); // long header, Initial type bits zeroed
                b.extend_from_slice(&version.to_be_bytes());
                b.push(dcid.len() as u8);
                b.extend_from_slice(dcid);
                b.push(scid.len() as u8);
                b.extend_from_slice(scid);
                // Minimal padding so the probe is not an empty datagram;
                // real Initials are padded to 1200 B, the model does not
                // need the bulk.
                b.extend_from_slice(&[0u8; 16]);
            }
            QuicPacket::VersionNegotiation { dcid, scid, supported } => {
                b.push(0x80); // long header, version negotiation
                b.extend_from_slice(&0u32.to_be_bytes()); // version == 0
                b.push(dcid.len() as u8);
                b.extend_from_slice(dcid);
                b.push(scid.len() as u8);
                b.extend_from_slice(scid);
                for v in supported {
                    b.extend_from_slice(&v.to_be_bytes());
                }
            }
        }
        b
    }

    /// Parses a datagram payload.
    pub fn parse(bytes: &[u8]) -> Result<QuicPacket, WireError> {
        if bytes.len() < 7 {
            return Err(WireError::Truncated);
        }
        if bytes[0] & 0x80 == 0 {
            return Err(WireError::Malformed("short header"));
        }
        let version = u32::from_be_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]);
        let dcid_len = bytes[5] as usize;
        if dcid_len > 20 {
            return Err(WireError::Malformed("dcid length"));
        }
        let mut pos = 6;
        let dcid = bytes.get(pos..pos + dcid_len).ok_or(WireError::Truncated)?.to_vec();
        pos += dcid_len;
        let scid_len = *bytes.get(pos).ok_or(WireError::Truncated)? as usize;
        if scid_len > 20 {
            return Err(WireError::Malformed("scid length"));
        }
        pos += 1;
        let scid = bytes.get(pos..pos + scid_len).ok_or(WireError::Truncated)?.to_vec();
        pos += scid_len;
        if version == 0 {
            let rest = &bytes[pos..];
            if !rest.len().is_multiple_of(4) || rest.is_empty() {
                return Err(WireError::Malformed("vn version list"));
            }
            let supported = rest
                .chunks_exact(4)
                .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            Ok(QuicPacket::VersionNegotiation { dcid, scid, supported })
        } else {
            Ok(QuicPacket::Initial { version, dcid, scid })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_roundtrip() {
        let p = QuicPacket::Initial {
            version: FORCE_VN_VERSION,
            dcid: vec![1, 2, 3, 4, 5, 6, 7, 8],
            scid: vec![9, 9],
        };
        assert_eq!(QuicPacket::parse(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn vn_roundtrip() {
        let p = QuicPacket::VersionNegotiation {
            dcid: vec![9, 9],
            scid: vec![1, 2, 3, 4, 5, 6, 7, 8],
            supported: vec![QUIC_V1, 0xff00_001d],
        };
        assert_eq!(QuicPacket::parse(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn vn_echoes_cids_swapped() {
        // Contract used by the responder: VN must echo the probe's cids
        // swapped, which the scanner validates.
        let probe = QuicPacket::Initial {
            version: FORCE_VN_VERSION,
            dcid: vec![0xaa; 8],
            scid: vec![0xbb; 4],
        };
        if let QuicPacket::Initial { dcid, scid, .. } = &probe {
            let vn = QuicPacket::VersionNegotiation {
                dcid: scid.clone(),
                scid: dcid.clone(),
                supported: vec![QUIC_V1],
            };
            let parsed = QuicPacket::parse(&vn.to_bytes()).unwrap();
            match parsed {
                QuicPacket::VersionNegotiation { dcid: d, scid: s, .. } => {
                    assert_eq!(d, vec![0xbb; 4]);
                    assert_eq!(s, vec![0xaa; 8]);
                }
                _ => panic!("expected VN"),
            }
        }
    }

    #[test]
    fn short_header_rejected() {
        assert!(matches!(
            QuicPacket::parse(&[0x40, 0, 0, 0, 0, 0, 0]),
            Err(WireError::Malformed("short header"))
        ));
    }

    #[test]
    fn truncated_rejected() {
        let p = QuicPacket::Initial { version: QUIC_V1, dcid: vec![1; 20], scid: vec![] };
        let bytes = p.to_bytes();
        assert!(QuicPacket::parse(&bytes[..10]).is_err());
    }

    #[test]
    fn bad_vn_length_rejected() {
        let p =
            QuicPacket::VersionNegotiation { dcid: vec![], scid: vec![], supported: vec![QUIC_V1] };
        let mut bytes = p.to_bytes();
        bytes.push(0xff); // version list no longer a multiple of 4
        assert!(QuicPacket::parse(&bytes).is_err());
    }
}
