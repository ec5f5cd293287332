//! Property tests for the delta codec: round-trips, delta application,
//! corrupted-input rejection (errors, never panics), and byte-identity
//! of the wire streams across [`AddrSet`] chunk representations. Seeded
//! loops, 256 cases each.

use sixdust_addr::prf::PrfStream;
use sixdust_addr::AddrSet;
use sixdust_serve::codec::{
    apply_delta, content_digest, decode_full, delta_digests, encode_delta, encode_full,
};

const CASES: u64 = 256;

fn stream(property: u64, case: u64) -> PrfStream {
    PrfStream::new(0x5E27E, u128::from(case), property)
}

/// A set of fewer than `max_len` items with a mix of small and huge
/// values. The low-range component is dense enough that bitmap chunks
/// occur routinely, so every property below also exercises the packed
/// representation.
fn addr_set(rng: &mut PrfStream, max_len: u64) -> AddrSet {
    (0..rng.next_bounded(max_len))
        .map(|_| match rng.next_bounded(4) {
            0 => u128::from(rng.next_bounded(5_000)),
            1 => u128::from(rng.next_u64()),
            2 => u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()),
            _ => u128::MAX,
        })
        .collect()
}

/// A pair (prev, next) sharing structure: next is prev with some items
/// removed and some added, like consecutive hitlist rounds.
fn related_pair(rng: &mut PrfStream) -> (AddrSet, AddrSet) {
    let (prev, extra, mask) = (addr_set(rng, 200), addr_set(rng, 40), rng.next_u64());
    let mut next: AddrSet = prev
        .iter()
        .enumerate()
        .filter(|(i, _)| mask >> (i % 16) & 1 == 0)
        .map(|(_, a)| a)
        .collect();
    next.union_in_place(&extra);
    (prev, next)
}

#[test]
fn full_round_trips() {
    for case in 0..CASES {
        let items = addr_set(&mut stream(1, case), 300);
        let decoded = decode_full(&encode_full(&items)).expect("own encoding decodes");
        assert_eq!(decoded, items);
    }
}

#[test]
fn streams_match_flat_vec_path() {
    for case in 0..CASES {
        // The wire bytes and digest are defined over the sorted item
        // sequence, never the chunk layout: encoding through whatever
        // mix of sorted and bitmap chunks the set picked is
        // byte-identical to encoding the flat sorted vector directly.
        let items = addr_set(&mut stream(2, case), 300);
        let flat = items.to_vec();
        assert_eq!(encode_full(&items), encode_full(flat.iter().copied()));
        assert_eq!(content_digest(&items), content_digest(flat.iter().copied()));
    }
}

#[test]
fn delta_applies_to_next() {
    for case in 0..CASES {
        let (prev, next) = related_pair(&mut stream(3, case));
        let delta = encode_delta(&prev, &next);
        let rebuilt = apply_delta(&prev, &delta).expect("own delta applies");
        assert_eq!(rebuilt, next);
        // The advertised digests match the actual contents.
        let (base, result) = delta_digests(&delta).expect("digests readable");
        assert_eq!(base, content_digest(&prev));
        assert_eq!(result, content_digest(&next));
        // And the delta round-trip lands on the same bytes as a full
        // snapshot of `next` — byte-identical artifacts either way.
        assert_eq!(encode_full(&rebuilt), encode_full(&next));
    }
}

#[test]
fn delta_bytes_ignore_chunk_representation() {
    for case in 0..CASES {
        let (prev, next) = related_pair(&mut stream(4, case));
        // Rebuild both endpoints one insert at a time; the incremental
        // path splits and converts chunks in a different order than the
        // bulk constructor, but the delta stream must not care.
        let mut prev_inc = AddrSet::new();
        for item in prev.iter() {
            prev_inc.insert(item);
        }
        let mut next_inc = AddrSet::new();
        for item in next.iter() {
            next_inc.insert(item);
        }
        assert_eq!(encode_delta(&prev_inc, &next_inc), encode_delta(&prev, &next));
        assert_eq!(encode_full(&next_inc), encode_full(&next));
    }
}

#[test]
fn delta_rejects_wrong_base() {
    for case in 0..CASES {
        let rng = &mut stream(5, case);
        let (prev, next) = related_pair(rng);
        let nudge = 1 + u128::from(rng.next_bounded(999));
        let delta = encode_delta(&prev, &next);
        let mut wrong = prev.clone();
        wrong.insert(prev.iter().last().map_or(nudge, |l| l.wrapping_add(nudge)));
        if content_digest(&wrong) != content_digest(&prev) {
            assert!(apply_delta(&wrong, &delta).is_err());
        }
    }
}

#[test]
fn truncation_always_rejected() {
    for case in 0..CASES {
        let rng = &mut stream(6, case);
        let encoded = encode_full(&addr_set(rng, 120));
        let cut = rng.next_bounded(encoded.len() as u64) as usize;
        assert!(decode_full(&encoded[..cut]).is_err(), "prefix of length {cut} accepted");
    }
}

#[test]
fn byte_flips_never_panic() {
    for case in 0..CASES {
        let rng = &mut stream(7, case);
        let mut encoded = encode_full(&addr_set(rng, 120));
        let pos = rng.next_bounded(encoded.len() as u64) as usize;
        encoded[pos] ^= 1 << rng.next_bounded(8);
        // Any single-bit flip must be rejected (checksum or structural
        // validation) — and must never panic.
        assert!(decode_full(&encoded).is_err());
    }
}

#[test]
fn delta_byte_flips_never_panic() {
    for case in 0..CASES {
        let rng = &mut stream(8, case);
        let (prev, next) = related_pair(rng);
        let mut delta = encode_delta(&prev, &next);
        let pos = rng.next_bounded(delta.len() as u64) as usize;
        delta[pos] ^= 1 << rng.next_bounded(8);
        assert!(apply_delta(&prev, &delta).is_err());
    }
}

#[test]
fn garbage_never_panics() {
    for case in 0..CASES {
        let rng = &mut stream(9, case);
        // Arbitrary byte soup: both decoders must return Err, not panic.
        let bytes: Vec<u8> = (0..rng.next_bounded(300)).map(|_| rng.next_u64() as u8).collect();
        let base = addr_set(rng, 50);
        let _ = decode_full(&bytes);
        let _ = apply_delta(&base, &bytes);
    }
}

#[test]
fn empty_singleton_and_removal_only_deltas() {
    let set = |v: &[u128]| AddrSet::from_unsorted(v.to_vec());
    let empty = set(&[]);
    let one = set(&[42]);
    let many = set(&[1, 5, 9]);

    // empty -> empty, empty -> singleton, singleton -> empty.
    for (prev, next) in
        [(&empty, &empty), (&empty, &one), (&one, &empty), (&many, &one), (&one, &many)]
    {
        let delta = encode_delta(prev, next);
        assert_eq!(&apply_delta(prev, &delta).unwrap(), next);
    }

    // Removal-only delta is smaller than the full snapshot it replaces.
    let big: AddrSet = (0..500u128).map(|i| i * 97).collect();
    let smaller: AddrSet = big.iter().filter(|a| a % 5 != 0).collect();
    let delta = encode_delta(&big, &smaller);
    assert_eq!(apply_delta(&big, &delta).unwrap(), smaller);
    assert!(delta.len() < encode_full(&smaller).len());
}
