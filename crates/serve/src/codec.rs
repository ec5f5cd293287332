//! The artifact delta codec: chunked item sets ([`AddrSet`]) as compact,
//! checksummed byte streams.
//!
//! The real hitlist service ships multi-megabyte daily text files; a
//! consumer who already holds yesterday's list only needs the day's
//! churn, which is orders of magnitude smaller. An artifact travels two
//! ways:
//!
//! * **full** — the whole set as one body of the full-set codec
//!   ([`sixdust_addr::codec`], re-exported here: [`encode_full`],
//!   [`decode_full`], [`CodecError`], [`FULL_MAGIC`]), the same body a
//!   service checkpoint stores each set as.
//! * **delta** — the removed and added items versus a base set, plus the
//!   content digests of both the base and the result, so a consumer can
//!   detect applying a delta to the wrong base *before* trusting the
//!   output. Its two item streams and its checksum are the full codec's
//!   parts, framed by `SDD2` and the two digests. (`SDD1` framed the
//!   same parts with the FNV-1a digests the set digest was before it
//!   became a sum; such a stream is rejected as [`CodecError::BadMagic`].)
//!
//! Every stream ends in an FNV-1a checksum over the preceding bytes.
//! Decoding is panic-free: corrupted, truncated or internally
//! inconsistent input yields a [`CodecError`], never UB or an abort.
//!
//! # Consumers of a delta
//!
//! * [`apply_delta`] is for a consumer that wants the new set and holds
//!   no digest: it rebuilds the result by one walk (`ParsedDelta::replay`:
//!   the base is flattened, each removed or added item is found by binary
//!   search from where the last one was, and the run between two of them
//!   is copied as a block), hashes base and result and returns the set.
//! * [`verify_delta`] is for a consumer that holds the base and its
//!   digest and only has to decide whether the stream is a faithful path
//!   to a set it has been told to expect. It builds nothing: each removed
//!   item must be in the base and each added one must not, by lookups,
//!   and the result's digest is the base's plus the added items' terms
//!   minus the removed ones' ([`content_digest_after`]), so it costs the
//!   size of the delta, not of the base.
//! * An edge mirror's sync ([`MirrorTier::try_sync`](crate::mirror::MirrorTier::try_sync))
//!   opens every changed artifact of a generation the way [`verify_delta`]
//!   and [`verify_full`] do (`Opened`).
//!
//! All read the stream through one header parser and run the same checks
//! in the same order, so they reject the same streams with the same
//! error.

use std::cmp::Ordering;

use sixdust_addr::codec::{checked_payload, full_items, push_checksum, push_items, read_items};
pub use sixdust_addr::codec::{decode_full, encode_full, CodecError, FULL_MAGIC};
use sixdust_addr::digest::content_digest_after;
use sixdust_addr::AddrSet;

/// Magic prefix of a delta stream (`SDD2`).
pub const DELTA_MAGIC: [u8; 4] = *b"SDD2";

/// The per-artifact content digest: [`sixdust_addr::digest::content_digest`],
/// re-exported where the serve layer has always offered it. The same
/// function as `sixdust_hitlist::publish::content_digest`, so serve-layer
/// ETags key off the value `manifest.json` records.
pub use sixdust_addr::digest::content_digest;

/// Decodes a full snapshot *and* pins it to an expected content digest
/// — the checksum-first validation an edge mirror runs on a sync
/// transfer before adopting it. The stream checksum catches in-flight
/// corruption; the digest cross-check additionally catches a
/// well-formed-but-wrong body (e.g. the origin swapped generations
/// mid-transfer).
pub fn verify_full(bytes: &[u8], expected_digest: u64) -> Result<AddrSet, CodecError> {
    let items = full_items(bytes)?;
    check_result(content_digest(items.iter().copied()), expected_digest)?;
    Ok(AddrSet::from_sorted(items))
}

/// Encodes the delta from set `prev` to set `next`: the removed and
/// added items, framed by the digests of both endpoints. Hashes both
/// sets, for a caller that holds no digest of either.
pub fn encode_delta(prev: &AddrSet, next: &AddrSet) -> Vec<u8> {
    encode_delta_with(prev, content_digest(prev), next, content_digest(next))
}

/// [`encode_delta`] for a caller that holds both endpoint digests (the
/// store computed them to key its versions): the same bytes, with no set
/// hashed again. The digests are written as given, so this stays inside
/// the crate, next to the one caller whose digests are
/// `content_digest(items)` by construction.
pub(crate) fn encode_delta_with(
    prev: &AddrSet,
    prev_digest: u64,
    next: &AddrSet,
    next_digest: u64,
) -> Vec<u8> {
    frame_delta(prev_digest, next_digest, &prev.diff(next), &next.diff(prev))
}

/// Writes a delta stream: magic, the two endpoint digests, the removed
/// and the added items, checksum.
fn frame_delta(
    base_digest: u64,
    result_digest: u64,
    removed: &AddrSet,
    added: &AddrSet,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + (removed.len() + added.len()) * 2);
    out.extend_from_slice(&DELTA_MAGIC);
    out.extend_from_slice(&base_digest.to_le_bytes());
    out.extend_from_slice(&result_digest.to_le_bytes());
    push_items(&mut out, removed.iter());
    push_items(&mut out, added.iter());
    push_checksum(&mut out);
    out
}

/// The fixed head of a delta stream — checksum, magic, then the two
/// endpoint digests — and the payload whose item streams start at byte
/// 20. The one parser [`delta_digests`] and [`ParsedDelta::parse`] read
/// a delta header through.
fn delta_header(bytes: &[u8]) -> Result<(&[u8], u64, u64), CodecError> {
    let payload = checked_payload(bytes)?;
    if payload[..4] != DELTA_MAGIC {
        return Err(CodecError::BadMagic);
    }
    if payload.len() < 20 {
        return Err(CodecError::Truncated);
    }
    let base = u64::from_le_bytes(payload[4..12].try_into().expect("8 bytes"));
    let result = u64::from_le_bytes(payload[12..20].try_into().expect("8 bytes"));
    Ok((payload, base, result))
}

/// The `(base, result)` digests a delta stream was encoded against,
/// without applying it — the serve layer's ETag fast path.
pub fn delta_digests(bytes: &[u8]) -> Result<(u64, u64), CodecError> {
    let (_, base, result) = delta_header(bytes)?;
    Ok((base, result))
}

/// A delta stream that passed every check which needs no base set:
/// checksum, magic, both item streams well-formed, nothing trailing.
struct ParsedDelta {
    base_digest: u64,
    result_digest: u64,
    removed: Vec<u128>,
    added: Vec<u128>,
}

impl ParsedDelta {
    fn parse(bytes: &[u8]) -> Result<ParsedDelta, CodecError> {
        let (payload, base_digest, result_digest) = delta_header(bytes)?;
        let mut pos = 20;
        let removed = read_items(payload, &mut pos)?;
        let added = read_items(payload, &mut pos)?;
        if pos != payload.len() {
            return Err(CodecError::TrailingBytes);
        }
        Ok(ParsedDelta { base_digest, result_digest, removed, added })
    }

    /// A base whose content digest is `actual` must be the one the
    /// stream was encoded against. The first check that involves the
    /// base: a wrong base is reported as such, not as whatever its
    /// items make of the delta.
    fn check_base(&self, actual: u64) -> Result<(), CodecError> {
        if actual != self.base_digest {
            return Err(CodecError::BaseMismatch { expected: self.base_digest, actual });
        }
        Ok(())
    }

    /// The content digest of the set the delta leads to from `base`,
    /// whose content digest is `base_digest`, without building that set:
    /// every removed item must be in the base and every added item must
    /// not, which is looked up in `base`, and then the digest moves by
    /// their terms. An item in both lists fails one of the two lookups,
    /// whether the base holds it or not, as the replay rejects it. The
    /// caller owes the digest the result checks, as after a replay.
    fn result_digest_over(&self, base: &AddrSet, base_digest: u64) -> Result<u64, CodecError> {
        let removes_members = self.removed.iter().all(|&item| base.contains(item));
        let adds_strangers = !self.added.iter().any(|&item| base.contains(item));
        if !(removes_members && adds_strangers) {
            return Err(CodecError::InconsistentDelta);
        }
        let (removed, added) = (self.removed.iter().copied(), self.added.iter().copied());
        Ok(content_digest_after(base_digest, removed, added))
    }

    /// Replays the delta over `base`, the ascending items of the base
    /// set, and returns the ascending items of the result: every removed
    /// item must be in the base and is dropped, every added item must be
    /// new and is put in its place, and the runs of the base between two
    /// such places are copied whole. The caller owes the result the two
    /// digest checks ([`ParsedDelta::check_base`] before reporting an
    /// error from here, the result digest after).
    fn replay(&self, base: &[u128]) -> Result<Vec<u128>, CodecError> {
        let kept = base.len().saturating_sub(self.removed.len());
        let mut next = Vec::with_capacity(kept + self.added.len());
        let mut rest = base;
        let (mut removed, mut added) = (self.removed.as_slice(), self.added.as_slice());
        loop {
            // The next place the delta touches, in item order; an item
            // in both lists contradicts itself.
            let (item, removal) = match (removed.first(), added.first()) {
                (Some(&r), Some(&a)) => match r.cmp(&a) {
                    Ordering::Less => (r, true),
                    Ordering::Greater => (a, false),
                    Ordering::Equal => return Err(CodecError::InconsistentDelta),
                },
                (Some(&r), None) => (r, true),
                (None, Some(&a)) => (a, false),
                (None, None) => break,
            };
            let (untouched, from_item) = rest.split_at(rest.partition_point(|&held| held < item));
            next.extend_from_slice(untouched);
            let held = from_item.first() == Some(&item);
            if held != removal {
                return Err(CodecError::InconsistentDelta);
            }
            if removal {
                rest = &from_item[1..];
                removed = &removed[1..];
            } else {
                next.push(item);
                rest = from_item;
                added = &added[1..];
            }
        }
        next.extend_from_slice(rest);
        Ok(next)
    }
}

/// A transfer whose every check has passed that does not involve what
/// its receiver expects, and the content digest of the set it carries:
/// for a full snapshot the stream checks, for a delta also the base
/// digest and the membership lookups. What is still owed is
/// [`Opened::confirm`].
pub(crate) struct Opened {
    /// The content digest of the set the transfer leads to.
    digest: u64,
    /// The result digest a delta stream carries.
    promised: Option<u64>,
    /// The digest the receiver was told to expect.
    expected: u64,
}

impl Opened {
    /// Opens a full-snapshot stream that should hold the set whose
    /// content digest is `expected`.
    pub(crate) fn full(bytes: &[u8], expected: u64) -> Result<Opened, CodecError> {
        let digest = content_digest(full_items(bytes)?);
        Ok(Opened { digest, promised: None, expected })
    }

    /// Opens a delta stream that should lead from the base set `prev`,
    /// whose content digest the caller holds as `prev_digest`, to the
    /// set whose content digest is `expected`. Costs the size of the
    /// delta, whatever the size of `prev`.
    pub(crate) fn delta(
        prev: &AddrSet,
        prev_digest: u64,
        bytes: &[u8],
        expected: u64,
    ) -> Result<Opened, CodecError> {
        let delta = ParsedDelta::parse(bytes)?;
        delta.check_base(prev_digest)?;
        let digest = delta.result_digest_over(prev, prev_digest)?;
        Ok(Opened { digest, promised: Some(delta.result_digest), expected })
    }

    /// Holds the digest of what arrived to the one a delta stream
    /// promised, then to the one the receiver was told to expect.
    pub(crate) fn confirm(&self) -> Result<(), CodecError> {
        let mut owed = self.promised.into_iter().chain([self.expected]);
        owed.try_for_each(|expected| check_result(self.digest, expected))
    }
}

/// A set whose content digest is `actual` must be the one whose digest
/// is `expected`.
fn check_result(actual: u64, expected: u64) -> Result<(), CodecError> {
    if actual != expected {
        return Err(CodecError::ResultMismatch { expected, actual });
    }
    Ok(())
}

/// Applies a delta stream to the base set `prev`, returning the
/// reconstructed result set. For a consumer that wants the set and holds
/// no digest of `prev`: base and result are hashed here.
///
/// Three layers of validation guard the reconstruction: the stream
/// checksum, the base digest (a wrong base is reported as
/// [`CodecError::BaseMismatch`] whatever else its items make of the
/// delta), and the result digest (a forged-but-checksummed delta still
/// cannot produce a silently wrong set).
pub fn apply_delta(prev: &AddrSet, bytes: &[u8]) -> Result<AddrSet, CodecError> {
    let delta = ParsedDelta::parse(bytes)?;
    let replayed = delta.replay(&prev.to_vec());
    delta.check_base(content_digest(prev))?;
    let next = replayed?;
    check_result(content_digest(next.iter().copied()), delta.result_digest)?;
    Ok(AddrSet::from_sorted(next))
}

/// Validates a delta stream against the base set `prev` — a faithful
/// path from `prev` to the set whose digest is `expected_digest`, or an
/// error.
///
/// Every check of [`apply_delta`] runs, in the same order and with the
/// same errors, in the size of the delta. Three things differ. The base
/// is not hashed: the caller passes `prev_digest`, the digest it holds
/// for `prev` (for a store's
/// [`ArtifactVersion`](crate::store::ArtifactVersion), `digest()` is
/// `content_digest(items())` by construction). The result is not built:
/// its items are checked against `prev` by lookups and its digest is
/// composed from `prev_digest` ([`content_digest_after`]). And that
/// digest must equal `expected_digest` as well as the digest the stream
/// carries, so a well-formed delta from the right base to some *other*
/// set is rejected, as [`verify_full`] rejects such a body.
pub fn verify_delta(
    prev: &AddrSet,
    prev_digest: u64,
    bytes: &[u8],
    expected_digest: u64,
) -> Result<(), CodecError> {
    Opened::delta(prev, prev_digest, bytes, expected_digest)?.confirm()
}

#[cfg(test)]
mod tests {
    use super::*;

    use sixdust_addr::codec::fnv_bytes;
    use sixdust_addr::prf;

    fn set(v: &[u128]) -> AddrSet {
        AddrSet::from_unsorted(v.to_vec())
    }

    /// The reference oracle: `apply_delta` as it was before the replay
    /// copied runs — the base hashed first, then one merge walk that
    /// visits every base item, drops removed items (which must exist) and
    /// interleaves added items (which must be new), and last the result
    /// hashed whole: rebuild and hash, nothing composed.
    fn reference_apply(prev: &AddrSet, bytes: &[u8]) -> Result<AddrSet, CodecError> {
        let delta = ParsedDelta::parse(bytes)?;
        delta.check_base(content_digest(prev))?;
        let mut next = Vec::new();
        let mut emit = |item: u128| next.push(item);
        let mut rem = delta.removed.iter().copied().peekable();
        let mut add = delta.added.iter().copied().peekable();
        for p in prev.iter() {
            while let Some(a) = add.next_if(|&a| a < p) {
                emit(a);
            }
            if add.peek() == Some(&p) {
                return Err(CodecError::InconsistentDelta);
            }
            if rem.next_if_eq(&p).is_none() {
                emit(p);
            }
        }
        add.for_each(&mut emit);
        if rem.next().is_some() {
            return Err(CodecError::InconsistentDelta);
        }
        check_result(content_digest(next.iter().copied()), delta.result_digest)?;
        Ok(AddrSet::from_sorted(next))
    }

    /// Length and FNV-1a of `encode_delta(hitlist_generations())`.
    const GOLDEN_LEN: usize = 1302;
    const GOLDEN_FNV: u64 = 0x0eef_65a5_2226_b6f5;

    #[test]
    fn verify_full_pins_the_digest() {
        let items = set(&[1, 5, 9, 1000]);
        let bytes = encode_full(&items);
        let digest = content_digest(&items);
        assert_eq!(verify_full(&bytes, digest).expect("clean transfer"), items);
        // Wrong expectation: a well-formed body for a different artifact.
        assert!(matches!(verify_full(&bytes, digest ^ 1), Err(CodecError::ResultMismatch { .. })));
        // In-flight corruption: the checksum layer fires first.
        let mut torn = bytes.clone();
        let mid = torn.len() / 2;
        torn[mid] ^= 0x40;
        assert!(verify_full(&torn, digest).is_err());
    }

    #[test]
    fn delta_round_trips_including_edge_shapes() {
        let cases: Vec<(Vec<u128>, Vec<u128>)> = vec![
            (vec![], vec![]),
            (vec![], vec![5]),
            (vec![5], vec![]),
            (vec![1, 2, 3], vec![1, 2, 3]),
            (vec![1, 2, 3], vec![2]), // removal-only (plus keeps)
            (vec![1, 2, 3], vec![1, 2, 3, 4, 9]), // addition-only
            (vec![10, 20, 30, 40], vec![5, 20, 35, 40, 50]),
        ];
        for (prev, next) in cases {
            let (prev, next) = (set(&prev), set(&next));
            let delta = encode_delta(&prev, &next);
            assert_eq!(apply_delta(&prev, &delta).expect("apply"), next, "{prev:?} -> {next:?}");
            let (b, r) = delta_digests(&delta).expect("digests");
            assert_eq!(b, content_digest(&prev));
            assert_eq!(r, content_digest(&next));
        }
    }

    #[test]
    fn wrong_base_is_rejected_before_reconstruction() {
        let prev = set(&[1, 2, 3]);
        let next = set(&[1, 2, 3, 4]);
        let delta = encode_delta(&prev, &next);
        let err = apply_delta(&set(&[1, 2]), &delta).expect_err("wrong base");
        assert!(matches!(err, CodecError::BaseMismatch { .. }), "{err:?}");
    }

    /// Two generations of a hitlist-shaped artifact: runs of many in a few
    /// /64s, a sparse tail of runs of one, and a day of churn between
    /// them — some addresses gone, some new, one /32 appearing and one
    /// disappearing.
    fn hitlist_generations() -> (AddrSet, AddrSet) {
        let mut prev: Vec<u128> = Vec::new();
        for net in 0..4u128 {
            let base = (0x2001_0db8 + net) << 96;
            prev.extend((0..600u128).map(|i| base + i * 2));
        }
        prev.extend((0..150u128).map(|i| (0x2a00_0000u128 << 96) | (i << 64) | (i * i + 1)));
        let mut next: Vec<u128> =
            prev.iter().copied().filter(|v| v % 37 != 0 && v >> 96 != 0x2001_0dbb).collect();
        next.extend((0..300u128).map(|i| (0x2001_0db8u128 << 96) + 1 + i * 6));
        next.extend((0..80u128).map(|i| (0x2c0f_0000u128 << 96) | (i << 70)));
        let (prev, next) = (set(&prev), set(&next));
        assert_eq!(
            (prev.len(), prev.chunk_count()),
            (4 * 600 + 150, 4 + 150),
            "runs of 600 and of one"
        );
        (prev, next)
    }

    /// Runs both consumers on one stream, with the digests an honest
    /// mirror would hold, and insists they agree with each other and
    /// with the reference walk: same verdict, same error, and on success
    /// the set `apply_delta` built is the expected one. Returns the
    /// shared verdict.
    fn both(prev: &AddrSet, bytes: &[u8], expected: &AddrSet) -> Result<(), CodecError> {
        let applied = apply_delta(prev, bytes);
        let verified = verify_delta(prev, content_digest(prev), bytes, content_digest(expected));
        if let Ok(rebuilt) = &applied {
            assert_eq!(rebuilt, expected, "apply_delta accepted a stream to some other set");
        }
        assert_eq!(applied, reference_apply(prev, bytes), "the replay left the reference walk");
        assert_eq!(applied.map(|_| ()), verified, "apply_delta and verify_delta disagree");
        verified
    }

    #[test]
    fn delta_stream_bytes_are_pinned() {
        // The stream is a published format: mirrors and consumers written
        // against it must keep decoding it. One golden stream's length
        // and FNV-1a, taken from the encoder before it learned to reuse
        // digests, pin every byte of it.
        let (prev, next) = hitlist_generations();
        let delta = encode_delta(&prev, &next);
        assert_eq!((delta.len(), fnv_bytes(&delta)), (GOLDEN_LEN, GOLDEN_FNV));
        // The digest-reusing encoder writes the same bytes.
        let reused = encode_delta_with(&prev, content_digest(&prev), &next, content_digest(&next));
        assert_eq!(reused, delta);
    }

    #[test]
    fn an_sdd1_stream_is_rejected_as_bad_magic() {
        // The same two item streams framed as they were before the set
        // digest became a sum: `SDD1` and the FNV digests of both sets.
        // That stream is the golden one of then, byte for byte, and it is
        // no longer read.
        let (prev, next) = hitlist_generations();
        let mut sdd1 = encode_delta(&prev, &next);
        sdd1.truncate(sdd1.len() - 8);
        sdd1[..4].copy_from_slice(b"SDD1");
        sdd1[4..12].copy_from_slice(&sixdust_addr::digest::fnv_items(&prev).to_le_bytes());
        sdd1[12..20].copy_from_slice(&sixdust_addr::digest::fnv_items(&next).to_le_bytes());
        push_checksum(&mut sdd1);
        assert_eq!((sdd1.len(), fnv_bytes(&sdd1)), (GOLDEN_LEN, 0xb469_e3f4_4fa3_0117));
        assert_eq!(delta_digests(&sdd1), Err(CodecError::BadMagic));
        assert_eq!(both(&prev, &sdd1, &next), Err(CodecError::BadMagic));
    }

    #[test]
    fn verify_delta_agrees_with_apply_delta_on_every_byte_flip() {
        let (prev, next) = hitlist_generations();
        let good = encode_delta(&prev, &next);
        assert_eq!(both(&prev, &good, &next), Ok(()));
        for i in 0..good.len() {
            // As corrupted in flight: the checksum layer fires.
            let mut flipped = good.clone();
            flipped[i] ^= 0x20;
            assert_eq!(both(&prev, &flipped, &next), Err(CodecError::ChecksumMismatch), "at {i}");
            // As forged: the checksum is made to fit again, so the flip
            // reaches whichever inner check guards that byte.
            if i < good.len() - 8 {
                flipped.truncate(good.len() - 8);
                push_checksum(&mut flipped);
                assert!(both(&prev, &flipped, &next).is_err(), "forged flip at {i} accepted");
            }
        }
        // Truncation at every length, and bytes after the checksum.
        for len in 0..good.len() {
            assert!(both(&prev, &good[..len], &next).is_err(), "truncated to {len} accepted");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(both(&prev, &trailing, &next), Err(CodecError::ChecksumMismatch));
        // Bytes between the item streams and a checksum that covers them.
        let mut padded = good[..good.len() - 8].to_vec();
        padded.push(0);
        push_checksum(&mut padded);
        assert_eq!(both(&prev, &padded, &next), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn verify_delta_rejects_what_apply_delta_rejects_for_the_same_reason() {
        let (prev, next) = hitlist_generations();
        let good = encode_delta(&prev, &next);
        let (d_prev, d_next) = (content_digest(&prev), content_digest(&next));

        // Wrong base: fails before any reconstruction.
        let mut other = prev.clone();
        other.insert(7);
        let err = both(&other, &good, &next).expect_err("wrong base");
        assert_eq!(
            err,
            CodecError::BaseMismatch { expected: d_prev, actual: content_digest(&other) }
        );

        let member = prev.iter().nth(10).expect("non-empty");
        let absent = member + 1;
        assert!(!prev.contains(absent));
        // Removing an item the base does not hold, early and past its end.
        for ghost in [absent, u128::MAX] {
            let forged = frame_delta(d_prev, d_next, &set(&[ghost]), &set(&[]));
            assert_eq!(both(&prev, &forged, &next), Err(CodecError::InconsistentDelta));
        }
        // Adding an item the base already holds.
        let forged = frame_delta(d_prev, d_next, &set(&[]), &set(&[member]));
        assert_eq!(both(&prev, &forged, &next), Err(CodecError::InconsistentDelta));
        // A consistent delta whose promised result digest is a lie.
        let forged = frame_delta(d_prev, d_next, &set(&[member]), &set(&[absent]));
        assert!(matches!(
            both(&prev, &forged, &next),
            Err(CodecError::ResultMismatch { expected, .. }) if expected == d_next
        ));
    }

    #[test]
    fn run_replay_agrees_with_the_reference_walk_on_seeded_triples() {
        // (base, removed, added) from a seed: honest triples, and the
        // same triples bent each way a hostile stream can be. Every
        // stream is well-formed and checksummed, so what answers is the
        // replay; `both` holds it to the reference walk's items or error.
        let mut accepted = 0;
        // By error: inconsistent, wrong base, wrong result.
        let mut rejected = [0usize; 3];
        for seed in 0..240u64 {
            let draw = |tag: u64, modulo: u64| prf::prf_u128(seed, u128::from(tag), 21) % modulo;
            let (len, churn) = (draw(0, 900), 2 + draw(1, 40));
            // Dense runs in two /32s and a sparse tail: both chunk forms.
            let base: AddrSet = (0..u128::from(len))
                .map(|i| match i % 7 {
                    0 => (u128::from(prf::prf_u128(seed, i, 22)) << 64) | i,
                    _ => ((0x2001_0db8 + i % 2) << 96) | (i * 3),
                })
                .collect();
            let pick = |tag: u64| base.iter().nth(draw(tag, len.max(1)) as usize);
            let fresh = |tag: u64| (0x2001_0db8 + u128::from(draw(tag, 3))) << 96 | 1 << 40 | 1;
            let mut removed: Vec<u128> =
                base.iter().filter(|v| prf::prf_u128(seed, *v, 23).is_multiple_of(churn)).collect();
            let mut added: Vec<u128> = (0..u128::from(len / churn))
                .map(|i| (0x2001_0db8 + i % 3) << 96 | 1 << 40 | i << 8 | 2)
                .collect();
            let next: AddrSet =
                base.iter().filter(|v| !removed.contains(v)).chain(added.iter().copied()).collect();
            let mut held = base.clone();
            let bent = seed % 7;
            match bent {
                // A removed item the base does not hold.
                1 => removed.push(fresh(2)),
                // An added item the base holds.
                2 => added.extend(pick(3).filter(|v| !removed.contains(v))),
                // One item in both lists, held or not.
                3 => {
                    let item = if seed % 2 == 0 { pick(4) } else { Some(fresh(4)) };
                    removed.extend(item);
                    added.extend(item);
                }
                // A removal past the end of the base.
                4 => removed.push(u128::MAX - u128::from(draw(5, 9))),
                // A consistent delta applied to some other base — and,
                // every other time, one that is inconsistent with it too.
                5 => {
                    held.insert(fresh(6) + 1);
                    if seed % 2 == 0 {
                        held.remove(removed.first().copied().unwrap_or(0));
                    }
                }
                _ => {}
            }
            let stream = frame_delta(
                content_digest(&base),
                // Bent 6: a consistent delta whose promised result is a lie.
                content_digest(&next) ^ u64::from(bent == 6),
                &set(&removed),
                &set(&added),
            );
            match both(&held, &stream, &next) {
                // Bent 0, and bent 2 or 3 over a base with nothing to pick.
                Ok(()) => accepted += 1,
                Err(CodecError::InconsistentDelta) if (1..=4).contains(&bent) => rejected[0] += 1,
                Err(CodecError::BaseMismatch { .. }) if bent == 5 => rejected[1] += 1,
                Err(CodecError::ResultMismatch { .. }) if bent == 6 => rejected[2] += 1,
                other => panic!("seed {seed} (bent {bent}): {other:?}"),
            }
        }
        assert!(accepted >= 30 && rejected.iter().all(|&n| n >= 30), "{accepted} {rejected:?}");
        assert!(accepted <= 40 && rejected[0] >= 130, "too few triples came out bent");
    }

    #[test]
    fn the_mirror_path_agrees_with_the_rebuild_and_hash_oracle_on_every_byte_flip() {
        use crate::store::{ArtifactKind, SnapshotStore, StoreConfig};
        // Four seeded generations of an artifact as a store publishes them:
        // the full body of each and the delta from the one before, the
        // transfers a mirror syncs.
        let store = SnapshotStore::new(StoreConfig::builder().with_shards(2));
        let mut transfers = Vec::new();
        let mut held = None;
        for round in 1..=4u64 {
            let draw = |i: u128, tag: u64| prf::prf_u128(round, i, tag);
            let items: AddrSet = (0..500u128)
                .filter(|&i| draw(i, 31) % 9 != 0)
                .map(|i| match i % 6 {
                    0 => u128::from(draw(i, 32)) << 64 | i,
                    _ => ((0x2001_0db8 + i % 3) << 96) | (i * 5),
                })
                .collect();
            store.publish_round(round, "d", vec![(ArtifactKind::Responsive, items)]);
            let version = store.artifact(ArtifactKind::Responsive).expect("published");
            transfers.push((None, version.full_encoded().to_vec(), version.digest()));
            if let (Some(base), Some(delta)) = (held, version.delta_encoded()) {
                transfers.push((Some(base), delta.to_vec(), version.digest()));
            }
            held = Some(version.clone());
        }
        assert_eq!(transfers.len(), 7);
        // Errors of forged flips, by kind.
        let mut kinds = std::collections::BTreeSet::new();
        for (base, good, expected) in &transfers {
            let verdict = |bytes: &[u8]| {
                let (mirror, oracle) = match base {
                    Some(base) => (
                        Opened::delta(base.items(), base.digest(), bytes, *expected),
                        reference_apply(base.items(), bytes)
                            .and_then(|set| check_result(content_digest(&set), *expected)),
                    ),
                    None => {
                        (Opened::full(bytes, *expected), verify_full(bytes, *expected).map(drop))
                    }
                };
                let mirror = mirror.and_then(|opened| opened.confirm());
                assert_eq!(mirror, oracle, "the mirror path left the oracle");
                mirror
            };
            assert_eq!(verdict(good), Ok(()));
            for i in 0..good.len() {
                let mut flipped = good.clone();
                flipped[i] ^= 0x20;
                assert_eq!(verdict(&flipped), Err(CodecError::ChecksumMismatch), "at {i}");
                if i < good.len() - 8 {
                    flipped.truncate(good.len() - 8);
                    push_checksum(&mut flipped);
                    let err = verdict(&flipped).expect_err("a forged flip was accepted");
                    let name = format!("{err:?}");
                    kinds.insert(name.split([' ', '{']).next().unwrap_or_default().to_owned());
                }
            }
        }
        // Every inner check answered some flip: each error but
        // `ChecksumMismatch`, which the refitted checksum rules out, and
        // `BadVarint`, which a flip of a varint's data bit cannot reach.
        assert_eq!(kinds.len(), 8, "{kinds:?}");
    }

    #[test]
    fn verify_delta_pins_the_result_to_the_expected_digest() {
        // An honest, checksummed delta from the right base to a set the
        // caller did not ask for: `apply_delta` has no expectation to
        // hold it to, `verify_delta` does.
        let (prev, next) = hitlist_generations();
        let mut elsewhere = next.clone();
        elsewhere.insert(9);
        let detour = encode_delta(&prev, &elsewhere);
        assert_eq!(apply_delta(&prev, &detour).expect("a valid delta"), elsewhere);
        let (d_prev, d_next) = (content_digest(&prev), content_digest(&next));
        assert_eq!(
            verify_delta(&prev, d_prev, &detour, d_next),
            Err(CodecError::ResultMismatch {
                expected: d_next,
                actual: content_digest(&elsewhere)
            })
        );
        assert_eq!(verify_delta(&prev, d_prev, &detour, content_digest(&elsewhere)), Ok(()));
        // A stale digest for the base is a wrong base.
        assert!(matches!(
            verify_delta(&prev, d_prev ^ 1, &detour, content_digest(&elsewhere)),
            Err(CodecError::BaseMismatch { .. })
        ));
    }

    #[test]
    fn digest_is_content_stable() {
        let a = set(&[3, 1, 2]);
        let b = set(&[2, 3, 1]);
        assert_eq!(content_digest(&a), content_digest(&b));
        assert_ne!(content_digest(&a), content_digest([1u128, 2]));
        // The empty set sums no terms: its digest is the summed digest's
        // chosen base, which is FNV-1a 64's offset basis.
        assert_eq!(content_digest(std::iter::empty::<u128>()), 0xcbf2_9ce4_8422_2325);
    }
}
