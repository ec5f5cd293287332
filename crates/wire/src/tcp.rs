//! TCP segments (RFC 9293) with the option kinds fingerprinting reads.
//!
//! The paper's aliased-prefix fingerprinting (Sec. 5.1) compares five
//! features across addresses of a prefix: the order-preserving
//! **Optionstext**, window size, window scale, MSS, and iTTL. The segment
//! type here carries options as a *sequence* precisely so the option order
//! survives the roundtrip, and [`TcpSegment::optionstext`] renders the
//! canonical string.

use sixdust_addr::Addr;

use crate::checksum;
use crate::WireError;

/// TCP header flags (subset sixdust uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// SYN.
    pub syn: bool,
    /// ACK.
    pub ack: bool,
    /// RST.
    pub rst: bool,
    /// FIN.
    pub fin: bool,
}

impl TcpFlags {
    const SYN: u8 = 0x02;
    const RST: u8 = 0x04;
    const ACK: u8 = 0x10;
    const FIN: u8 = 0x01;

    fn to_byte(self) -> u8 {
        let mut b = 0;
        if self.fin {
            b |= Self::FIN;
        }
        if self.syn {
            b |= Self::SYN;
        }
        if self.rst {
            b |= Self::RST;
        }
        if self.ack {
            b |= Self::ACK;
        }
        b
    }

    fn from_byte(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & Self::FIN != 0,
            syn: b & Self::SYN != 0,
            rst: b & Self::RST != 0,
            ack: b & Self::ACK != 0,
        }
    }
}

/// A TCP option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpOption {
    /// End of option list (kind 0).
    EndOfList,
    /// No-operation padding (kind 1).
    Nop,
    /// Maximum segment size (kind 2).
    Mss(u16),
    /// Window scale shift (kind 3).
    WindowScale(u8),
    /// SACK permitted (kind 4).
    SackPermitted,
    /// Timestamps (kind 8): TSval, TSecr.
    Timestamps(u32, u32),
}

impl TcpOption {
    /// The short mnemonic used in the Optionstext fingerprint string,
    /// following the convention of the IPv6 Hitlist fingerprinting.
    pub fn mnemonic(self) -> &'static str {
        match self {
            TcpOption::EndOfList => "E",
            TcpOption::Nop => "N",
            TcpOption::Mss(_) => "M",
            TcpOption::WindowScale(_) => "W",
            TcpOption::SackPermitted => "S",
            TcpOption::Timestamps(..) => "T",
        }
    }
}

/// A TCP segment (header only; sixdust probes carry no TCP payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack_no: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Options in wire order.
    pub options: Vec<TcpOption>,
}

impl TcpSegment {
    /// A SYN probe as the ZMapv6 `tcp_synscan` module sends it.
    pub fn syn(dst_port: u16, src_port: u16, seq: u32) -> TcpSegment {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack_no: 0,
            flags: TcpFlags { syn: true, ..TcpFlags::default() },
            window: 65535,
            options: Vec::new(),
        }
    }

    /// A SYN-ACK answering `probe`, as a responsive host would.
    pub fn syn_ack(probe: &TcpSegment, seq: u32, window: u16) -> TcpSegment {
        TcpSegment {
            src_port: probe.dst_port,
            dst_port: probe.src_port,
            seq,
            ack_no: probe.seq.wrapping_add(1),
            flags: TcpFlags { syn: true, ack: true, ..TcpFlags::default() },
            window,
            options: Vec::new(),
        }
    }

    /// A RST answering `probe`, as a closed port would.
    pub fn rst(probe: &TcpSegment) -> TcpSegment {
        TcpSegment {
            src_port: probe.dst_port,
            dst_port: probe.src_port,
            seq: 0,
            ack_no: probe.seq.wrapping_add(1),
            flags: TcpFlags { rst: true, ack: true, ..TcpFlags::default() },
            window: 0,
            options: Vec::new(),
        }
    }

    /// Builder-style option append.
    pub fn with_option(mut self, opt: TcpOption) -> TcpSegment {
        self.options.push(opt);
        self
    }

    /// The order-preserving Optionstext fingerprint string, e.g. `MSTNW`
    /// for MSS, SACK-permitted, Timestamps, NOP, WindowScale.
    pub fn optionstext(&self) -> String {
        self.options.iter().map(|o| o.mnemonic()).collect()
    }

    /// The MSS option value, if present.
    pub fn mss(&self) -> Option<u16> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Mss(v) => Some(*v),
            _ => None,
        })
    }

    /// The window-scale option value, if present.
    pub fn window_scale(&self) -> Option<u8> {
        self.options.iter().find_map(|o| match o {
            TcpOption::WindowScale(v) => Some(*v),
            _ => None,
        })
    }

    fn options_bytes(&self) -> Vec<u8> {
        let mut b = Vec::new();
        for opt in &self.options {
            match opt {
                TcpOption::EndOfList => b.push(0),
                TcpOption::Nop => b.push(1),
                TcpOption::Mss(v) => {
                    b.push(2);
                    b.push(4);
                    b.extend_from_slice(&v.to_be_bytes());
                }
                TcpOption::WindowScale(v) => {
                    b.push(3);
                    b.push(3);
                    b.push(*v);
                }
                TcpOption::SackPermitted => {
                    b.push(4);
                    b.push(2);
                }
                TcpOption::Timestamps(val, ecr) => {
                    b.push(8);
                    b.push(10);
                    b.extend_from_slice(&val.to_be_bytes());
                    b.extend_from_slice(&ecr.to_be_bytes());
                }
            }
        }
        // Pad to a multiple of 4 with NOPs (kept out of `options` on parse
        // only if they are trailing padding after EndOfList; plain NOPs are
        // significant for the fingerprint, so we pad with EOL + zeros).
        while b.len() % 4 != 0 {
            b.push(0);
        }
        b
    }

    /// Serializes with a valid pseudo-header checksum.
    pub fn to_bytes(&self, src: Addr, dst: Addr) -> Vec<u8> {
        let opts = self.options_bytes();
        let data_offset_words = 5 + opts.len() / 4;
        assert!(data_offset_words <= 15, "too many TCP options");
        let mut b = Vec::with_capacity(20 + opts.len());
        b.extend_from_slice(&self.src_port.to_be_bytes());
        b.extend_from_slice(&self.dst_port.to_be_bytes());
        b.extend_from_slice(&self.seq.to_be_bytes());
        b.extend_from_slice(&self.ack_no.to_be_bytes());
        b.push((data_offset_words as u8) << 4);
        b.push(self.flags.to_byte());
        b.extend_from_slice(&self.window.to_be_bytes());
        b.extend_from_slice(&[0, 0]); // checksum placeholder
        b.extend_from_slice(&[0, 0]); // urgent pointer
        b.extend_from_slice(&opts);
        let ck = checksum::transport_checksum(src, dst, 6, &b);
        b[16..18].copy_from_slice(&ck.to_be_bytes());
        b
    }

    /// Parses and checksum-verifies a segment.
    pub fn parse(bytes: &[u8], src: Addr, dst: Addr) -> Result<TcpSegment, WireError> {
        if bytes.len() < 20 {
            return Err(WireError::Truncated);
        }
        if !checksum::verify_transport_checksum(src, dst, 6, bytes) {
            return Err(WireError::BadChecksum);
        }
        let data_offset = usize::from(bytes[12] >> 4) * 4;
        if data_offset < 20 || bytes.len() < data_offset {
            return Err(WireError::Malformed("tcp data offset"));
        }
        let mut options = Vec::new();
        let mut i = 20;
        while i < data_offset {
            match bytes[i] {
                0 => break, // end of list; rest is padding
                1 => {
                    options.push(TcpOption::Nop);
                    i += 1;
                }
                kind => {
                    if i + 1 >= data_offset {
                        return Err(WireError::Malformed("tcp option length"));
                    }
                    let len = usize::from(bytes[i + 1]);
                    if len < 2 || i + len > data_offset {
                        return Err(WireError::Malformed("tcp option length"));
                    }
                    let body = &bytes[i + 2..i + len];
                    match (kind, body.len()) {
                        (2, 2) => {
                            options.push(TcpOption::Mss(u16::from_be_bytes([body[0], body[1]])))
                        }
                        (3, 1) => options.push(TcpOption::WindowScale(body[0])),
                        (4, 0) => options.push(TcpOption::SackPermitted),
                        (8, 8) => options.push(TcpOption::Timestamps(
                            u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                            u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                        )),
                        _ => return Err(WireError::Malformed("tcp option kind/len")),
                    }
                    i += len;
                }
            }
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
            dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            seq: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
            ack_no: u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
            flags: TcpFlags::from_byte(bytes[13]),
            window: u16::from_be_bytes([bytes[14], bytes[15]]),
            options,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn roundtrip(seg: TcpSegment) {
        let src = a("2001:db8::1");
        let dst = a("2001:db8::2");
        let bytes = seg.to_bytes(src, dst);
        assert_eq!(TcpSegment::parse(&bytes, src, dst).unwrap(), seg);
    }

    #[test]
    fn bare_syn_roundtrip() {
        roundtrip(TcpSegment::syn(80, 40000, 12345));
    }

    #[test]
    fn options_roundtrip_in_order() {
        let seg = TcpSegment::syn(443, 1, 2)
            .with_option(TcpOption::Mss(1440))
            .with_option(TcpOption::SackPermitted)
            .with_option(TcpOption::Timestamps(111, 0))
            .with_option(TcpOption::Nop)
            .with_option(TcpOption::WindowScale(7));
        assert_eq!(seg.optionstext(), "MSTNW");
        roundtrip(seg);
    }

    #[test]
    fn accessors() {
        let seg = TcpSegment::syn(80, 1, 2)
            .with_option(TcpOption::Mss(1380))
            .with_option(TcpOption::WindowScale(9));
        assert_eq!(seg.mss(), Some(1380));
        assert_eq!(seg.window_scale(), Some(9));
        assert_eq!(TcpSegment::syn(80, 1, 2).mss(), None);
    }

    #[test]
    fn syn_ack_answers_probe() {
        let probe = TcpSegment::syn(80, 40000, 999);
        let sa = TcpSegment::syn_ack(&probe, 5, 29200);
        assert!(sa.flags.syn && sa.flags.ack && !sa.flags.rst);
        assert_eq!(sa.ack_no, 1000);
        assert_eq!(sa.src_port, 80);
        assert_eq!(sa.dst_port, 40000);
    }

    #[test]
    fn rst_answers_probe() {
        let probe = TcpSegment::syn(81, 40000, 7);
        let rst = TcpSegment::rst(&probe);
        assert!(rst.flags.rst && !rst.flags.syn);
        assert_eq!(rst.ack_no, 8);
    }

    #[test]
    fn bad_checksum_rejected() {
        let seg = TcpSegment::syn(80, 1, 2);
        let mut bytes = seg.to_bytes(a("::1"), a("::2"));
        bytes[4] ^= 0x40;
        assert_eq!(TcpSegment::parse(&bytes, a("::1"), a("::2")), Err(WireError::BadChecksum));
    }

    #[test]
    fn flags_byte_mapping() {
        let f = TcpFlags { syn: true, ack: true, rst: false, fin: true };
        assert_eq!(TcpFlags::from_byte(f.to_byte()), f);
    }
}
