//! Property tests for the simulated Internet's core invariants: seeded
//! loops, 64 cases each.

use std::sync::OnceLock;

use sixdust_addr::prf::PrfStream;
use sixdust_addr::Addr;
use sixdust_net::pattern::{AddrPattern, Feistel64};
use sixdust_net::{Day, FaultConfig, Internet, ProbeKind, Scale};

const CASES: u64 = 64;

fn stream(property: u64, case: u64) -> PrfStream {
    PrfStream::new(0x1E7, u128::from(case), property)
}

fn wide(rng: &mut PrfStream) -> u128 {
    u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())
}

fn day(rng: &mut PrfStream) -> Day {
    Day(rng.next_bounded(1376) as u32)
}

fn net() -> &'static Internet {
    static NET: OnceLock<Internet> = OnceLock::new();
    NET.get_or_init(|| Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless()))
}

/// An address the registry routes (drawn from a responsive host's /64)
/// on even cases, any address at all on odd ones: uniform 128-bit draws
/// alone would never leave unrouted space.
fn routed_or_random(rng: &mut PrfStream, case: u64) -> Addr {
    if case % 2 == 1 {
        return Addr(wide(rng));
    }
    let all = net().population().enumerate_responsive(Day(700));
    let (host, ..) = all[rng.next_bounded(all.len() as u64) as usize];
    host.with_iid(rng.next_u64())
}

#[test]
fn feistel_bijective() {
    for case in 0..CASES {
        let rng = &mut stream(1, case);
        let (f, x) = (Feistel64::new(rng.next_u64()), rng.next_u64());
        assert_eq!(f.invert(f.permute(x)), x);
        assert_eq!(f.permute(f.invert(x)), x);
    }
}

#[test]
fn pattern_member_roundtrip() {
    let prefix: sixdust_addr::Prefix = "2001:db8:77::/64".parse().unwrap();
    for case in 0..CASES {
        let rng = &mut stream(2, case);
        let (base, step) = (rng.next_bounded(0xffff), 1 + rng.next_bounded(63));
        let (count, key) = (1 + rng.next_bounded(499), rng.next_u64());
        let pattern = match case % 5 {
            0 => AddrPattern::LowByte { count },
            1 => AddrPattern::Incremental { base_iid: base, stride: step, count },
            2 => AddrPattern::Eui64Block { oui: 0x00_1422, serial_base: base as u32, count },
            3 => AddrPattern::RandomIid { key, count },
            _ => AddrPattern::Jittered { base_iid: base, step, count, key },
        };
        let i = rng.next_bounded(count);
        let addr = pattern.member_addr(prefix, i);
        assert!(prefix.contains(addr));
        assert_eq!(pattern.member_index(prefix, addr), Some(i), "{pattern:?}");
    }
}

#[test]
fn pattern_membership_rejects_outsiders() {
    // Jittered membership must agree with exhaustive enumeration.
    let prefix: sixdust_addr::Prefix = "2001:db8:78::/64".parse().unwrap();
    for case in 0..CASES {
        let rng = &mut stream(3, case);
        let (step, count) = (1 + rng.next_bounded(63), 1 + rng.next_bounded(199));
        let pattern = AddrPattern::Jittered { base_iid: 0x100, step, count, key: rng.next_u64() };
        let members = pattern.enumerate(prefix, count as usize);
        // Members, their neighbours, and anything at all.
        let probe = match case % 3 {
            0 => members[rng.next_bounded(members.len() as u64) as usize],
            1 => Addr(members[rng.next_bounded(members.len() as u64) as usize].0 + 1),
            _ => prefix.network().with_iid(rng.next_u64()),
        };
        let truth = members.iter().position(|a| *a == probe).map(|i| i as u64);
        assert_eq!(pattern.member_index(prefix, probe), truth, "{pattern:?} {probe}");
    }
}

#[test]
fn bgp_origin_consistent_with_announcements() {
    let mut routed = 0;
    for case in 0..CASES {
        let addr = routed_or_random(&mut stream(4, case), case);
        if let Some((id, prefix)) = net().registry().origin_prefix(addr) {
            routed += 1;
            assert!(prefix.contains(addr));
            // The matched AS really announces a covering prefix (possibly
            // an aliased-prefix route added on top of the block routes).
            let info = net().registry().get(id);
            let in_block = info.blocks.iter().any(|b| b.contains(addr));
            assert!(in_block, "AS{} matched {addr} outside its blocks", info.asn);
        }
    }
    assert!(routed >= CASES / 2, "only {routed} routed probes");
}

#[test]
fn probe_responses_deterministic() {
    let probe = ProbeKind::IcmpEcho { size: 8 };
    for case in 0..CASES {
        let rng = &mut stream(5, case);
        let (addr, day) = (routed_or_random(rng, case), day(rng));
        assert_eq!(net().probe(addr, &probe, day), net().probe(addr, &probe, day));
    }
}

#[test]
fn responsive_hosts_answer_probes() {
    for case in 0..CASES {
        let rng = &mut stream(6, case);
        let day = day(rng);
        let all = net().population().enumerate_responsive(day);
        assert!(!all.is_empty(), "no responsive host on {day:?}");
        let (addr, protos, asid) = all[rng.next_bounded(all.len() as u64) as usize];
        // The BGP origin matches the population's attribution.
        assert_eq!(net().registry().origin(addr), Some(asid));
        if protos.contains(sixdust_net::Protocol::Icmp) {
            let rs = net().probe(addr, &ProbeKind::IcmpEcho { size: 8 }, day);
            assert!(!rs.is_empty(), "{addr} enumerated responsive but silent");
        }
    }
}

#[test]
fn hop_addresses_are_routed() {
    for case in 0..CASES {
        let rng = &mut stream(7, case);
        let (addr, hop, day) =
            (routed_or_random(rng, case), 1 + rng.next_bounded(5) as u8, day(rng));
        let hop_addr = net().hop_addr(addr, hop, day);
        if hop_addr != Addr(0) {
            assert!(net().registry().origin(hop_addr).is_some(), "unrouted hop {hop_addr}");
        }
    }
}

#[test]
fn wire_and_semantic_icmp_agree() {
    for case in 0..CASES {
        let rng = &mut stream(8, case);
        let day = day(rng);
        let all = net().population().enumerate_responsive(day);
        let (addr, ..) = all[rng.next_bounded(all.len() as u64) as usize];
        let semantic = !net().probe(addr, &ProbeKind::IcmpEcho { size: 8 }, day).is_empty();
        let probe = sixdust_wire::Packet {
            ipv6: sixdust_wire::Ipv6Header::new(net().registry().vantage_addr(), addr, 64),
            transport: sixdust_wire::Transport::Icmpv6(sixdust_wire::icmpv6::Icmpv6::EchoRequest {
                ident: 7,
                seq: 1,
                payload: vec![0; 8],
            }),
        };
        let wire = !net().send_bytes(&probe.to_bytes(), day).is_empty();
        assert_eq!(semantic, wire, "{addr} on {day:?}");
    }
}
