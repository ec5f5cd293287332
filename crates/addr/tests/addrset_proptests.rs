//! Property tests for [`AddrSet`]: every operation must agree with the
//! obviously-correct model (`BTreeSet<u128>`) regardless of which chunk
//! representation — sorted block or bitmap — each /32 bucket lands in,
//! and the serialized form must stay byte-identical to a sorted
//! `Vec<Addr>`. Seeded loops, 256 cases each.

use std::collections::BTreeSet;

use sixdust_addr::prf::PrfStream;
use sixdust_addr::{Addr, AddrSet};

const CASES: u64 = 256;

fn stream(property: u64, case: u64) -> PrfStream {
    PrfStream::new(0xADD5, u128::from(case), property)
}

/// Up to `max_len` raw items mixing dense runs (bitmap chunks), strided
/// mid-density buckets, several distinct /32 keys, and fully random
/// sparse values.
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
        assert_eq!(incremental.bitmap_chunk_count(), set.bitmap_chunk_count());
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
fn json_is_byte_identical_to_sorted_vec() {
    for case in 0..CASES {
        let items = items(&mut stream(5, case), 200);
        let set = AddrSet::from_unsorted(items.clone());
        let flat: Vec<Addr> = model(&items).into_iter().map(Addr).collect();
        let via_set = sixdust_json::to_string(&set);
        let via_vec = sixdust_json::to_string(&flat);
        assert_eq!(via_set, via_vec, "AddrSet wire form is the sorted Vec<Addr> wire form");
        let back: AddrSet = sixdust_json::from_str(&via_set).expect("round trip");
        assert_eq!(back, set);
        // The legacy form: the raw items, unsorted and duplicated.
        let legacy: AddrSet = sixdust_json::from_str(&sixdust_json::to_string(&items)).unwrap();
        assert_eq!(legacy, set);
    }
}

#[test]
fn mem_bytes_accounts_every_chunk() {
    for case in 0..CASES {
        let set = AddrSet::from_unsorted(items(&mut stream(6, case), 300));
        // Lower bound: the bookkeeping itself, plus at least one byte of
        // payload per chunk.
        if set.is_empty() {
            assert_eq!(set.chunk_count(), 0);
        } else {
            assert!(set.mem_bytes() > 0);
            assert!(set.chunk_count() >= 1);
        }
    }
}

#[test]
fn dense_bucket_is_a_bitmap_and_cheap() {
    // 100k consecutive addresses: one bucket, bitmap-packed, far below
    // the 1.6 MB a Vec<u128> would spend.
    let set: AddrSet = (0..100_000u128).collect();
    assert_eq!(set.len(), 100_000);
    assert!(set.bitmap_chunk_count() >= 1, "a solid run packs as bitmap");
    assert!(
        set.mem_bytes() < 100_000 * 16 / 4,
        "bitmap run far cheaper than flat vec: {} bytes",
        set.mem_bytes()
    );
}
