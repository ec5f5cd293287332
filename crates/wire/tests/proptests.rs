//! Roundtrip property tests for every wire codec: seeded loops, 256
//! cases each.

use sixdust_addr::prf::PrfStream;
use sixdust_addr::Addr;
use sixdust_wire::{dns, icmpv6, quic, tcp, udp, Ipv6Header, NextHeader, Packet, Transport};

const CASES: u64 = 256;

fn stream(property: u64, case: u64) -> PrfStream {
    PrfStream::new(0x31BE, u128::from(case), property)
}

fn addr(rng: &mut PrfStream) -> Addr {
    Addr(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()))
}

/// Fewer than `max_len` random bytes.
fn bytes(rng: &mut PrfStream, max_len: u64) -> Vec<u8> {
    (0..rng.next_bounded(max_len)).map(|_| rng.next_u64() as u8).collect()
}

/// A DNS label of 1..=20 characters from `[a-z0-9-]`.
fn label(rng: &mut PrfStream) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    (0..1 + rng.next_bounded(20))
        .map(|_| ALPHABET[rng.next_bounded(ALPHABET.len() as u64) as usize] as char)
        .collect()
}

/// A name of 1..=4 labels.
fn name(rng: &mut PrfStream) -> String {
    (0..1 + rng.next_bounded(4)).map(|_| label(rng)).collect::<Vec<_>>().join(".")
}

fn tcp_option(rng: &mut PrfStream) -> tcp::TcpOption {
    match rng.next_bounded(5) {
        0 => tcp::TcpOption::Nop,
        1 => tcp::TcpOption::Mss(rng.next_u64() as u16),
        2 => tcp::TcpOption::WindowScale(rng.next_bounded(15) as u8),
        3 => tcp::TcpOption::SackPermitted,
        _ => tcp::TcpOption::Timestamps(rng.next_u64() as u32, rng.next_u64() as u32),
    }
}

fn record(rng: &mut PrfStream) -> dns::Record {
    let rdata = match rng.next_bounded(6) {
        0 => dns::Rdata::A(rng.next_u64() as u32),
        1 => dns::Rdata::Aaaa(addr(rng)),
        2 => dns::Rdata::Ns(name(rng)),
        3 => dns::Rdata::Mx(rng.next_u64() as u16, name(rng)),
        4 => dns::Rdata::Cname(name(rng)),
        _ => dns::Rdata::Txt(label(rng)),
    };
    dns::Record { name: name(rng), ttl: rng.next_u64() as u32, rdata }
}

#[test]
fn ipv6_header_roundtrip() {
    for case in 0..CASES {
        let rng = &mut stream(1, case);
        let h = Ipv6Header {
            traffic_class: rng.next_u64() as u8,
            flow_label: rng.next_bounded(0x10_0000) as u32,
            payload_len: rng.next_u64() as u16,
            next_header: NextHeader::from(rng.next_u64() as u8),
            hop_limit: rng.next_u64() as u8,
            src: addr(rng),
            dst: addr(rng),
        };
        assert_eq!(Ipv6Header::parse(&h.to_bytes()).unwrap(), h);
    }
}

#[test]
fn icmp_echo_roundtrip() {
    for case in 0..CASES {
        let rng = &mut stream(2, case);
        let (src, dst) = (addr(rng), addr(rng));
        let (ident, seq) = (rng.next_u64() as u16, rng.next_u64() as u16);
        let payload = bytes(rng, 256);
        let req = icmpv6::Icmpv6::EchoRequest { ident, seq, payload: payload.clone() };
        assert_eq!(icmpv6::Icmpv6::parse(&req.to_bytes(src, dst), src, dst).unwrap(), req);
        let rep = icmpv6::Icmpv6::EchoReply { ident, seq, payload, fragmented: case % 2 == 0 };
        assert_eq!(icmpv6::Icmpv6::parse(&rep.to_bytes(src, dst), src, dst).unwrap(), rep);
    }
}

#[test]
fn tcp_roundtrip() {
    for case in 0..CASES {
        let rng = &mut stream(3, case);
        let (src, dst) = (addr(rng), addr(rng));
        let flags = rng.next_u64();
        let seg = tcp::TcpSegment {
            src_port: rng.next_u64() as u16,
            dst_port: rng.next_u64() as u16,
            seq: rng.next_u64() as u32,
            ack_no: rng.next_u64() as u32,
            flags: tcp::TcpFlags {
                syn: flags & 1 != 0,
                ack: flags & 2 != 0,
                rst: flags & 4 != 0,
                fin: flags & 8 != 0,
            },
            window: rng.next_u64() as u16,
            // At most three: four timestamps already fill the 40-byte
            // option space.
            options: (0..rng.next_bounded(4)).map(|_| tcp_option(rng)).collect(),
        };
        assert_eq!(tcp::TcpSegment::parse(&seg.to_bytes(src, dst), src, dst).unwrap(), seg);
    }
}

/// The case the roundtrip property once shrank to, when it still drew
/// five options: 41 bytes of them cannot be encoded, and `to_bytes` says
/// so instead of writing a data offset that lies.
#[test]
#[should_panic(expected = "too many TCP options")]
fn option_lists_past_the_40_byte_space_are_refused() {
    use tcp::TcpOption::{Nop, Timestamps};
    let seg = tcp::TcpSegment {
        src_port: 0,
        dst_port: 0,
        seq: 0,
        ack_no: 0,
        flags: tcp::TcpFlags { syn: false, ack: false, rst: false, fin: false },
        window: 0,
        options: vec![Timestamps(0, 0), Nop, Timestamps(0, 0), Timestamps(0, 0), Timestamps(0, 0)],
    };
    seg.to_bytes(Addr(0), Addr(0));
}

#[test]
fn udp_roundtrip() {
    for case in 0..CASES {
        let rng = &mut stream(4, case);
        let (src, dst) = (addr(rng), addr(rng));
        let d = udp::UdpDatagram {
            src_port: rng.next_u64() as u16,
            dst_port: rng.next_u64() as u16,
            payload: bytes(rng, 512),
        };
        assert_eq!(udp::UdpDatagram::parse(&d.to_bytes(src, dst), src, dst).unwrap(), d);
    }
}

#[test]
fn dns_roundtrip() {
    for case in 0..CASES {
        let rng = &mut stream(5, case);
        let q = dns::DnsMessage::aaaa_query(rng.next_u64() as u16, &name(rng));
        let mut r = dns::DnsMessage::response_to(&q, dns::Rcode::NoError);
        r.rcode = match rng.next_bounded(16) as u8 {
            0 => dns::Rcode::NoError,
            1 => dns::Rcode::FormErr,
            2 => dns::Rcode::ServFail,
            3 => dns::Rcode::NxDomain,
            4 => dns::Rcode::NotImp,
            5 => dns::Rcode::Refused,
            other => dns::Rcode::Other(other),
        };
        r.answers = (0..rng.next_bounded(5)).map(|_| record(rng)).collect();
        r.authority = (0..rng.next_bounded(3)).map(|_| record(rng)).collect();
        assert_eq!(dns::DnsMessage::parse(&r.to_bytes()).unwrap(), r);
    }
}

#[test]
fn quic_roundtrip() {
    for case in 0..CASES {
        let rng = &mut stream(6, case);
        let version = |rng: &mut PrfStream| 1 + rng.next_bounded(u64::from(u32::MAX)) as u32;
        let (dcid, scid) = (bytes(rng, 20), bytes(rng, 20));
        let init = quic::QuicPacket::Initial {
            version: version(rng),
            dcid: dcid.clone(),
            scid: scid.clone(),
        };
        assert_eq!(quic::QuicPacket::parse(&init.to_bytes()).unwrap(), init);
        let supported = (0..1 + rng.next_bounded(7)).map(|_| version(rng)).collect();
        let vn = quic::QuicPacket::VersionNegotiation { dcid, scid, supported };
        assert_eq!(quic::QuicPacket::parse(&vn.to_bytes()).unwrap(), vn);
    }
}

#[test]
fn full_packet_roundtrip() {
    for case in 0..CASES {
        let rng = &mut stream(7, case);
        let (src, dst, hop) = (addr(rng), addr(rng), 1 + rng.next_bounded(255) as u8);
        let payload = bytes(rng, 128);
        let transport = match case % 3 {
            0 => Transport::Icmpv6(icmpv6::Icmpv6::EchoRequest { ident: 1, seq: 2, payload }),
            1 => Transport::Tcp(tcp::TcpSegment::syn(80, 4000, 77)),
            _ => Transport::Udp(udp::UdpDatagram { src_port: 5, dst_port: 53, payload }),
        };
        let pkt = Packet { ipv6: Ipv6Header::new(src, dst, hop), transport };
        assert_eq!(Packet::parse(&pkt.to_bytes()).unwrap(), pkt.canonical());
    }
}

#[test]
fn parse_never_panics() {
    for case in 0..CASES {
        let rng = &mut stream(8, case);
        // Fuzz-shaped robustness: arbitrary bytes must not panic — raw
        // ones, and a valid packet with a few bytes overwritten, which
        // gets past the first length and version checks.
        let mut input = bytes(rng, 200);
        if case % 2 == 0 {
            let transport = Transport::Tcp(tcp::TcpSegment::syn(80, 4000, 77));
            let mut valid =
                Packet { ipv6: Ipv6Header::new(addr(rng), addr(rng), 64), transport }.to_bytes();
            for &b in input.iter().take(4) {
                let pos = rng.next_bounded(valid.len() as u64) as usize;
                valid[pos] = b;
            }
            input = valid;
        }
        let _ = Packet::parse(&input);
        let _ = dns::DnsMessage::parse(&input);
        let _ = quic::QuicPacket::parse(&input);
    }
}
