//! Property tests for [`AddrSet`]: every operation must agree with the
//! obviously-correct model (`BTreeSet<u128>`) whatever the shape of its
//! /64 runs — one member or thousands, keys and lows at both ends of their
//! range, neighbours either side of a /64 boundary — every set a kernel
//! builds must hold no spare capacity, and the serialized form must be
//! the set's codec body and nothing else: the legacy integer array is
//! refused.
//! Seeded loops, 256 cases each.

use std::collections::BTreeSet;

use sixdust_addr::prf::PrfStream;
use sixdust_addr::{base64, codec, Addr, AddrSet};

const CASES: u64 = 256;

fn stream(property: u64, case: u64) -> PrfStream {
    PrfStream::new(0xADD5, u128::from(case), property)
}

/// Up to `max_len` raw items mixing dense runs in /64 0, strided runs in
/// four /32s, values in the low /64s, and fully random sparse values
/// (runs of one).
fn items(rng: &mut PrfStream, max_len: u64) -> Vec<u128> {
    (0..rng.next_bounded(max_len))
        .map(|_| match rng.next_bounded(5) {
            0 => u128::from(rng.next_bounded(10_000)),
            1 => (u128::from(rng.next_bounded(4)) << 96) + u128::from(rng.next_bounded(2_000)) * 17,
            2 => u128::from(rng.next_u64()),
            3 => u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()),
            _ => u128::MAX,
        })
        .collect()
}

fn model(items: &[u128]) -> BTreeSet<u128> {
    items.iter().copied().collect()
}

/// What a set without spare capacity holds: the struct, 12 bytes a /64
/// run and 8 a member.
fn exact_bytes(set: &AddrSet) -> usize {
    std::mem::size_of::<AddrSet>() + 12 * set.chunk_count() + 8 * set.len()
}

#[test]
fn construction_matches_model() {
    for case in 0..CASES {
        let items = items(&mut stream(1, case), 400);
        let set = AddrSet::from_unsorted(items.clone());
        let reference = model(&items);
        assert_eq!(set.len(), reference.len());
        assert!(set.iter().eq(reference.iter().copied()), "iteration order is sorted");
        assert_eq!(set.to_vec(), reference.iter().copied().collect::<Vec<_>>());
        // Bulk and incremental construction canonicalize identically.
        let mut incremental = AddrSet::new();
        for &item in &items {
            incremental.insert(item);
        }
        assert_eq!(incremental, set);
        assert_eq!(incremental.chunk_count(), set.chunk_count());
        assert_eq!(set.mem_bytes(), exact_bytes(&set));
    }
}

#[test]
fn contains_matches_model() {
    for case in 0..CASES {
        let rng = &mut stream(2, case);
        let (items, probes) = (items(rng, 200), items(rng, 50));
        let set = AddrSet::from_unsorted(items.clone());
        let reference = model(&items);
        for p in items.iter().chain(probes.iter()) {
            assert_eq!(set.contains(*p), reference.contains(p));
        }
    }
}

#[test]
fn insert_remove_match_model() {
    for case in 0..CASES {
        let rng = &mut stream(3, case);
        let (items, ops, mask) = (items(rng, 200), items(rng, 60), rng.next_u64());
        let mut set = AddrSet::from_unsorted(items.clone());
        let mut reference = model(&items);
        for (i, &v) in ops.iter().enumerate() {
            if mask >> (i % 64) & 1 == 0 {
                assert_eq!(set.insert(v), reference.insert(v));
            } else {
                assert_eq!(set.remove(v), reference.remove(&v));
            }
            assert_eq!(set.len(), reference.len());
        }
        assert!(set.iter().eq(reference.iter().copied()));
    }
}

#[test]
fn set_algebra_matches_model() {
    for case in 0..CASES {
        let rng = &mut stream(4, case);
        let (a, b) = (items(rng, 250), items(rng, 250));
        let sa = AddrSet::from_unsorted(a.clone());
        let sb = AddrSet::from_unsorted(b.clone());
        let ma = model(&a);
        let mb = model(&b);

        let mut union = sa.clone();
        union.union_in_place(&sb);
        assert!(union.iter().eq(ma.union(&mb).copied()));

        let diff = sa.diff(&sb);
        assert!(diff.iter().eq(ma.difference(&mb).copied()));
        assert_eq!(sa.diff_count(&sb), ma.difference(&mb).count());

        let inter = sa.intersect(&sb);
        assert!(inter.iter().eq(ma.intersection(&mb).copied()));
        assert_eq!(sa.intersect_count(&sb), ma.intersection(&mb).count());

        // Counting shortcuts agree with materializing.
        assert_eq!(sa.diff_count(&sb), diff.len());
        assert_eq!(sa.intersect_count(&sb), inter.len());
    }
}

#[test]
fn json_is_the_codec_body_and_refuses_the_legacy_array() {
    for case in 0..CASES {
        let items = items(&mut stream(5, case), 200);
        let set = AddrSet::from_unsorted(items.clone());
        let via_set = sixdust_json::to_string(&set);
        let body = base64::encode(&codec::encode_full(&set));
        assert_eq!(via_set, format!("\"{body}\""), "AddrSet wire form is its codec body");
        let back: AddrSet = sixdust_json::from_str(&via_set).expect("round trip");
        assert_eq!(back, set);
        // The form old checkpoints wrote, a sorted Vec<Addr>, is no set,
        // and neither are the raw items, unsorted and duplicated.
        let flat: Vec<Addr> = model(&items).into_iter().map(Addr).collect();
        assert!(sixdust_json::from_str::<AddrSet>(&sixdust_json::to_string(&flat)).is_err());
        assert!(sixdust_json::from_str::<AddrSet>(&sixdust_json::to_string(&items)).is_err());
    }
}

#[test]
fn mem_bytes_accounts_every_chunk() {
    for case in 0..CASES {
        let set = AddrSet::from_unsorted(items(&mut stream(6, case), 300));
        // Exactly the struct, its runs and its members: nothing spare.
        assert_eq!(set.mem_bytes(), exact_bytes(&set));
        assert_eq!(set.is_empty(), set.chunk_count() == 0);
    }
}

#[test]
fn dense_bucket_is_a_bitmap_and_cheap() {
    // 100k consecutive addresses from 0: one run in /64 0, its key paid
    // once and every member 8 bytes, half the 1.6 MB a Vec<u128> spends.
    let set: AddrSet = (0..100_000u128).collect();
    assert_eq!(set.len(), 100_000);
    assert_eq!(set.chunk_count(), 1, "a solid run is one run");
    assert_eq!(set.mem_bytes(), exact_bytes(&set));
    assert!(set.mem_bytes() < 100_000 * 16 / 2 + 100, "{} bytes", set.mem_bytes());
    // 100k consecutive addresses centred on 2^64: two runs of 50k.
    let straddling: AddrSet = ((1u128 << 64) - 50_000..(1 << 64) + 50_000).collect();
    assert_eq!(straddling.chunk_count(), 2);
    assert_eq!(straddling.mem_bytes(), set.mem_bytes() + 12);
}

/// Keys at both ends of their range, side by side, and in the middle.
const EDGE_KEYS: [u64; 8] =
    [0, 1, 2, 0x2001_0db8_0000_0001, 0x2001_0db8_0000_0002, u64::MAX - 2, u64::MAX - 1, u64::MAX];

/// A low half: 0, `u64::MAX`, near either, or anywhere.
fn edge_low(rng: &mut PrfStream) -> u64 {
    match rng.next_bounded(5) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.next_bounded(64),
        3 => u64::MAX - rng.next_bounded(64),
        _ => rng.next_u64(),
    }
}

fn edge_value(rng: &mut PrfStream, keys: &[u64]) -> u128 {
    let key = keys[rng.next_bounded(keys.len() as u64) as usize];
    u128::from(key) << 64 | u128::from(edge_low(rng))
}

/// Runs of consecutive values in `keys`: of one, of a few, or of
/// thousands. A run that starts near a low of `u64::MAX` carries on into
/// the next /64 (from `u64::MAX` into /64 0).
fn edge_runs(rng: &mut PrfStream, keys: &[u64]) -> Vec<u128> {
    let mut items = Vec::new();
    for _ in 0..rng.next_bounded(6) {
        let len = match rng.next_bounded(4) {
            0 => 1,
            1 => 2 + rng.next_bounded(8),
            2 => 500 + rng.next_bounded(2_500),
            _ => 0,
        };
        let first = edge_value(rng, keys);
        items.extend((0..u128::from(len)).map(|i| first.wrapping_add(i)));
    }
    items
}

/// The set of `items` through one of the constructors, chosen by `rng`.
fn construct(rng: &mut PrfStream, items: &[u128]) -> AddrSet {
    let mut ascending = items.to_vec();
    ascending.sort_unstable();
    ascending.dedup();
    match rng.next_bounded(7) {
        0 => AddrSet::from_unsorted(items.to_vec()),
        1 => AddrSet::from_sorted(ascending),
        2 => AddrSet::from_sorted_addrs(&ascending.into_iter().map(Addr).collect::<Vec<_>>()),
        3 => AddrSet::from(items.to_vec()),
        4 => items.iter().map(|&v| Addr(v)).collect(),
        5 => {
            let json = sixdust_json::to_string(&AddrSet::from_unsorted(items.to_vec()));
            sixdust_json::from_str(&json).expect("parses")
        }
        _ => {
            let mut set = AddrSet::new();
            for &v in items {
                set.insert(v);
            }
            set
        }
    }
}

/// A member of `model` chosen by `rng`, if it has any.
fn member(rng: &mut PrfStream, model: &BTreeSet<u128>) -> Option<u128> {
    model.iter().nth(rng.next_bounded(model.len() as u64 + 1) as usize).copied()
}

/// `set` holds what `model` holds, canonically, at its exact size.
fn check(set: &AddrSet, model: &BTreeSet<u128>, what: &str) {
    assert_eq!(set.len(), model.len(), "{what}");
    assert!(set.iter().eq(model.iter().copied()), "{what}");
    assert_eq!(*set, AddrSet::from_sorted(model.iter().copied().collect()), "{what}: canonical");
    assert_eq!(set.mem_bytes(), exact_bytes(set), "{what}: no spare capacity");
}

#[test]
fn seeded_op_sequences_match_the_btreeset_oracle() {
    for case in 0..64 {
        let rng = &mut stream(7, case);
        // Interleaved: both sides draw from every key. Disjoint: one side
        // the even keys, the other the odd.
        let (mut keys_a, mut keys_b) = if rng.next_bounded(2) == 0 {
            (EDGE_KEYS.to_vec(), EDGE_KEYS.to_vec())
        } else {
            (
                EDGE_KEYS.iter().step_by(2).copied().collect(),
                EDGE_KEYS[1..].iter().step_by(2).copied().collect(),
            )
        };
        let items = edge_runs(rng, &keys_a);
        let (mut a, mut ma) = (construct(rng, &items), model(&items));
        let items = edge_runs(rng, &keys_b);
        let (mut b, mut mb) = (construct(rng, &items), model(&items));
        check(&a, &ma, "constructed");
        check(&b, &mb, "constructed");
        for step in 0..16 {
            let what = format!("case {case} step {step}");
            match rng.next_bounded(10) {
                0 => {
                    let v = edge_value(rng, &keys_a);
                    assert_eq!(a.insert(v), ma.insert(v), "{what}: insert {v:#x}");
                }
                // Beside a member, inside its run or across a /64 boundary.
                1 => {
                    if let Some(v) = member(rng, &ma) {
                        let w = if rng.next_bounded(2) == 0 {
                            v.wrapping_add(1)
                        } else {
                            v.wrapping_sub(1)
                        };
                        assert_eq!(a.insert(w), ma.insert(w), "{what}: insert {w:#x}");
                    }
                }
                2 => {
                    let v = member(rng, &ma).unwrap_or_else(|| edge_value(rng, &keys_a));
                    assert_eq!(a.remove(v), ma.remove(&v), "{what}: remove {v:#x}");
                }
                // Empty a run, one member at a time.
                3 => {
                    if let Some(v) = member(rng, &ma) {
                        let key = v >> 64 << 64;
                        let run: Vec<u128> =
                            ma.range(key..=key | u128::from(u64::MAX)).copied().collect();
                        for w in run {
                            assert!(a.remove(w) && ma.remove(&w), "{what}: remove {w:#x}");
                        }
                        assert!(a.iter().all(|w| w >> 64 != v >> 64), "{what}: run emptied");
                    }
                }
                4 => {
                    if rng.next_bounded(2) == 0 {
                        a.union_in_place(&b);
                    } else {
                        a.union_sorted_addrs(&b.to_addr_vec());
                    }
                    ma.extend(&mb);
                }
                5 => {
                    a = a.diff(&b);
                    ma = ma.difference(&mb).copied().collect();
                }
                6 => {
                    a = a.intersect(&b);
                    ma = ma.intersection(&mb).copied().collect();
                }
                7 => {
                    let items = edge_runs(rng, &keys_a);
                    (a, ma) = (construct(rng, &items), model(&items));
                }
                8 => {
                    let items = edge_runs(rng, &keys_b);
                    (b, mb) = (construct(rng, &items), model(&items));
                }
                _ => {
                    std::mem::swap(&mut a, &mut b);
                    std::mem::swap(&mut ma, &mut mb);
                    std::mem::swap(&mut keys_a, &mut keys_b);
                }
            }
            check(&a, &ma, &what);
            assert_eq!(a.diff_count(&b), ma.difference(&mb).count(), "{what}");
            assert_eq!(b.diff_count(&a), mb.difference(&ma).count(), "{what}");
            assert_eq!(a.intersect_count(&b), ma.intersection(&mb).count(), "{what}");
            let edges = [0, u128::MAX, (1 << 64) - 1, 1 << 64];
            let probes = mb.iter().take(20).chain(ma.iter().rev().take(20)).chain(&edges);
            for &p in probes {
                assert_eq!(a.contains(p), ma.contains(&p), "{what}: contains {p:#x}");
            }
        }
    }
}
