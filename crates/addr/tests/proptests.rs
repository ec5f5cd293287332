//! Property tests for the sixdust-addr primitives: seeded loops, 256
//! cases each, every case an independent [`PrfStream`].

use sixdust_addr::prf::PrfStream;
use sixdust_addr::{teredo, Addr, Eui64, Prefix, PrefixSet, PrefixTrie};

const CASES: u64 = 256;

fn stream(property: u64, case: u64) -> PrfStream {
    PrfStream::new(0xADD2, u128::from(case), property)
}

fn wide(rng: &mut PrfStream) -> u128 {
    u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())
}

/// A prefix of any length `min_len..=max_len` over random bits.
fn prefix(rng: &mut PrfStream, min_len: u8, max_len: u8) -> Prefix {
    let len = min_len + rng.next_bounded(u64::from(max_len - min_len) + 1) as u8;
    Prefix::new(Addr(wide(rng)), len)
}

#[test]
fn nibbles_roundtrip() {
    for case in 0..CASES {
        let addr = Addr(wide(&mut stream(1, case)));
        assert_eq!(Addr::from_nibbles(&addr.nibbles()), addr);
    }
}

#[test]
fn display_parse_roundtrip() {
    for case in 0..CASES {
        let rng = &mut stream(2, case);
        // Runs of zero groups exercise the `::` compression.
        let addr = Addr(if case % 2 == 0 { wide(rng) } else { wide(rng) & wide(rng) & wide(rng) });
        let back: Addr = addr.to_string().parse().unwrap();
        assert_eq!(back, addr);
    }
}

#[test]
fn with_nibble_then_read() {
    for case in 0..CASES {
        let rng = &mut stream(3, case);
        let addr = Addr(wide(rng));
        let (i, v) = (rng.next_bounded(32) as usize, rng.next_bounded(16) as u8);
        let b = addr.with_nibble(i, v);
        assert_eq!(b.nibble(i), v);
        for j in (0..32).filter(|&j| j != i) {
            assert_eq!(b.nibble(j), addr.nibble(j), "other nibbles untouched");
        }
    }
}

#[test]
fn prefix_contains_its_network_and_last() {
    for case in 0..CASES {
        let p = prefix(&mut stream(4, case), 0, 128);
        assert!(p.contains(p.network()), "{p}");
        assert!(p.contains(p.last()), "{p}");
    }
}

#[test]
fn prefix_parse_roundtrip() {
    for case in 0..CASES {
        let p = prefix(&mut stream(5, case), 0, 128);
        let back: Prefix = p.to_string().parse().unwrap();
        assert_eq!(back, p);
    }
}

#[test]
fn supernet_covers() {
    for case in 0..CASES {
        let p = prefix(&mut stream(6, case), 0, 128);
        if let Some(sup) = p.supernet() {
            assert!(sup.covers(p), "{sup} covers {p}");
        }
    }
}

#[test]
fn random_addr_inside() {
    for case in 0..CASES {
        let rng = &mut stream(7, case);
        let p = prefix(rng, 0, 128);
        assert!(p.contains(p.random_addr(rng.next_u64())), "{p}");
    }
}

#[test]
fn nibble_subprefixes_partition() {
    // A probe inside the parent must be in exactly one nibble child.
    let check = |prefix_v: u128, len: u8, probe_low: u128| {
        let prefix = Prefix::new(Addr(prefix_v), len);
        let host_mask = if len == 0 { u128::MAX } else { !(u128::MAX << (128 - len as u32)) };
        let probe = Addr(prefix.network().0 | (probe_low & host_mask));
        assert!(prefix.contains(probe));
        let n = prefix.nibble_subprefixes().filter(|s| s.contains(probe)).count();
        assert_eq!(n, 1, "{prefix} {probe}");
    };
    // The case a shift by 128 once broke.
    check(0, 0, 0);
    for case in 0..CASES {
        let rng = &mut stream(8, case);
        check(wide(rng), rng.next_bounded(125) as u8, wide(rng));
    }
}

#[test]
fn eui64_roundtrip() {
    for case in 0..CASES {
        let bytes = stream(9, case).next_u64().to_be_bytes();
        let mac = [bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5]];
        let e = Eui64::from_mac(mac);
        assert_eq!(Eui64::from_iid(e.to_iid()), Some(e));
    }
}

#[test]
fn teredo_roundtrip() {
    for case in 0..CASES {
        let rng = &mut stream(10, case);
        let parts = teredo::TeredoParts {
            server_v4: rng.next_u64() as u32,
            flags: rng.next_u64() as u16,
            client_port: rng.next_u64() as u16,
            client_v4: rng.next_u64() as u32,
        };
        assert_eq!(teredo::decode(teredo::encode(parts)), Some(parts));
    }
}

#[test]
fn trie_lpm_matches_naive() {
    for case in 0..CASES {
        let rng = &mut stream(11, case);
        // Half the cases nest their prefixes under one /16 so that longest
        // match has something to choose between.
        let base = wide(rng);
        let nested = case % 2 == 0;
        let prefixes: Vec<(Prefix, usize)> = (0..1 + rng.next_bounded(39) as usize)
            .map(|i| {
                let bits =
                    if nested { base & !(u128::MAX >> 16) | wide(rng) >> 16 } else { wide(rng) };
                (Prefix::new(Addr(bits), rng.next_bounded(65) as u8), i)
            })
            .collect();
        let trie: PrefixTrie<usize> = prefixes.iter().cloned().collect();
        for _ in 0..1 + rng.next_bounded(19) {
            let addr = match prefixes.get(rng.next_bounded(2 * prefixes.len() as u64) as usize) {
                Some((p, _)) => p.random_addr(rng.next_u64()),
                None => Addr(wide(rng)),
            };
            // Naive: longest covering prefix; ties by length share the same
            // canonical network, and later insert wins in both impls.
            let naive = prefixes
                .iter()
                .filter(|(p, _)| p.contains(addr))
                .max_by(|(p1, i1), (p2, i2)| p1.len().cmp(&p2.len()).then(i1.cmp(i2)))
                .map(|(_, i)| *i);
            assert_eq!(trie.lookup_value(addr).copied(), naive, "case {case}: {addr}");
        }
    }
}

#[test]
fn prefix_set_covers_agrees_with_scan() {
    for case in 0..CASES {
        let rng = &mut stream(12, case);
        let prefixes: Vec<Prefix> =
            (0..1 + rng.next_bounded(29)).map(|_| prefix(rng, 8, 64)).collect();
        let set: PrefixSet = prefixes.iter().cloned().collect();
        // Uniform probes almost never land inside a prefix; draw half of
        // them from one.
        let addr = match case % 2 {
            0 => prefixes[rng.next_bounded(prefixes.len() as u64) as usize]
                .random_addr(rng.next_u64()),
            _ => Addr(wide(rng)),
        };
        let naive = prefixes.iter().any(|p| p.contains(addr));
        assert_eq!(set.covers_addr(addr), naive, "case {case}: {addr}");
    }
}
