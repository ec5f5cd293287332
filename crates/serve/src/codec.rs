//! The artifact delta codec: chunked item sets ([`AddrSet`]) as compact,
//! checksummed byte streams.
//!
//! The real hitlist service ships multi-megabyte daily text files; a
//! consumer who already holds yesterday's list only needs the day's
//! churn, which is orders of magnitude smaller. This module encodes a
//! set of 128-bit items (addresses, or packed prefixes) two ways:
//!
//! * **full** — the whole set, varint delta-of-delta encoded: the first
//!   item absolute, the first gap plain, every later gap as a zigzag
//!   second difference. Structured address sets (regular strides inside
//!   a prefix) collapse to near one byte per item.
//! * **delta** — the removed and added items versus a base set, plus the
//!   FNV-1a digests of both the base and the result, so a consumer can
//!   detect applying a delta to the wrong base *before* trusting the
//!   output.
//!
//! Every stream ends in an FNV-1a checksum over the preceding bytes.
//! Decoding is panic-free: corrupted, truncated or internally
//! inconsistent input yields a [`CodecError`], never UB or an abort.
//!
//! Since the `AddrSet` redesign, encoders stream straight off the chunked
//! set's ascending iterator (the byte streams are unchanged — they were
//! always defined over the sorted item sequence, which is exactly the
//! order an `AddrSet` iterates in), and decoders hand back an `AddrSet`.
//!
//! # Consumers of a delta
//!
//! * [`apply_delta`] is for a consumer that wants the new set and holds
//!   no digest: it rebuilds the result, hashes base and result and
//!   returns the set.
//! * [`verify_delta`] is for a consumer that only has to decide whether
//!   the stream is a faithful path from a set it holds to a set it has
//!   been told to expect. It takes the base's digest from the caller and
//!   additionally pins the result to the expected digest.
//! * An edge mirror's sync ([`MirrorTier::try_sync`](crate::mirror::MirrorTier::try_sync))
//!   opens every changed artifact of a generation the same way
//!   (`Opened`) and confirms them together.
//!
//! All read the stream through one header parser and rebuild the result
//! by one walk (`ParsedDelta::replay`): the base is flattened, each
//! removed or added item is found by binary search from where the last
//! one was, and the run between two of them — what the delta leaves
//! alone — is copied as a block. They run the same checks in the same
//! order and reject the same streams with the same error. The result
//! digest is always computed from the items the walk produced; it is a
//! serial multiply chain (about 20 ns per item), which is why each entry
//! point hashes a set only when nobody has hashed it yet, and hashes the
//! sets it must side by side
//! ([`content_digests`]).

use std::cmp::Ordering;
use std::fmt;

use sixdust_addr::digest::content_digests;
use sixdust_addr::AddrSet;

/// Magic prefix of a full-snapshot stream (`SDF1`).
pub const FULL_MAGIC: [u8; 4] = *b"SDF1";
/// Magic prefix of a delta stream (`SDD1`).
pub const DELTA_MAGIC: [u8; 4] = *b"SDD1";

/// Why a stream failed to decode or apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the structure it promised.
    Truncated,
    /// The stream does not start with the expected magic bytes.
    BadMagic,
    /// The trailing checksum does not match the stream contents.
    ChecksumMismatch,
    /// A varint ran past the width of `u128`.
    BadVarint,
    /// The item count claims more items than the stream could hold.
    LengthOverflow,
    /// Decoded items were not strictly increasing.
    NotSorted,
    /// Bytes remained after the advertised structure was consumed.
    TrailingBytes,
    /// A delta was applied to a base set with the wrong digest.
    BaseMismatch {
        /// Digest the delta was encoded against.
        expected: u64,
        /// Digest of the base actually supplied.
        actual: u64,
    },
    /// The delta applied cleanly but the result digest disagrees.
    ResultMismatch {
        /// Digest the delta promised for the result.
        expected: u64,
        /// Digest of the set actually produced.
        actual: u64,
    },
    /// A delta removed an item the base does not hold, or added one it
    /// already holds.
    InconsistentDelta,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "stream truncated"),
            CodecError::BadMagic => write!(f, "bad magic bytes"),
            CodecError::ChecksumMismatch => write!(f, "checksum mismatch"),
            CodecError::BadVarint => write!(f, "varint exceeds 128 bits"),
            CodecError::LengthOverflow => write!(f, "item count exceeds stream size"),
            CodecError::NotSorted => write!(f, "items not strictly increasing"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after structure"),
            CodecError::BaseMismatch { expected, actual } => {
                write!(f, "delta base digest {expected:#x} != supplied base {actual:#x}")
            }
            CodecError::ResultMismatch { expected, actual } => {
                write!(f, "delta result digest {expected:#x} != reconstructed {actual:#x}")
            }
            CodecError::InconsistentDelta => write!(f, "delta inconsistent with base set"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The per-artifact content digest: [`sixdust_addr::digest::content_digest`],
/// re-exported where the serve layer has always offered it. The same
/// function as `sixdust_hitlist::publish::content_digest`, so serve-layer
/// ETags key off the value `manifest.json` records.
pub use sixdust_addr::digest::content_digest;

/// FNV-1a 64-bit over raw bytes (stream checksums).
fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn push_varint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u128, CodecError> {
    let mut value: u128 = 0;
    let mut shift: u32 = 0;
    loop {
        let byte = *bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 128 {
            return Err(CodecError::BadVarint);
        }
        let part = u128::from(byte & 0x7f);
        // The final 7-bit group may not carry bits past position 127.
        if shift > 121 && (part >> (128 - shift)) != 0 {
            return Err(CodecError::BadVarint);
        }
        value |= part << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Zigzag-maps a wrapped second difference into an unsigned varint-friendly
/// value. Works over the full `u128` ring: `wrapping_sub` then zigzag is a
/// bijection, so even pathological gap sequences round-trip exactly.
fn zigzag(d: i128) -> u128 {
    ((d << 1) ^ (d >> 127)) as u128
}

fn unzigzag(z: u128) -> i128 {
    ((z >> 1) as i128) ^ -((z & 1) as i128)
}

/// Appends `count` + the delta-of-delta item stream for an ascending,
/// deduplicated item iterator (exact-size so the count leads the stream
/// without a second pass — streaming straight off an [`AddrSet`] chunk
/// cursor never materializes the flat item vector).
fn push_items<I: ExactSizeIterator<Item = u128>>(out: &mut Vec<u8>, items: I) {
    push_varint(out, items.len() as u128);
    let mut prev_item: u128 = 0;
    let mut prev_gap: u128 = 0;
    for (i, item) in items.enumerate() {
        debug_assert!(i == 0 || item > prev_item, "items must be strictly increasing");
        match i {
            0 => push_varint(out, item),
            1 => {
                prev_gap = item - prev_item;
                push_varint(out, prev_gap);
            }
            _ => {
                let gap = item - prev_item;
                push_varint(out, zigzag(gap.wrapping_sub(prev_gap) as i128));
                prev_gap = gap;
            }
        }
        prev_item = item;
    }
}

/// Reads one item stream written by [`push_items`].
fn read_items(bytes: &[u8], pos: &mut usize) -> Result<Vec<u128>, CodecError> {
    let count = read_varint(bytes, pos)?;
    // Each encoded item costs at least one byte, so a count beyond the
    // stream length is corrupt — reject before allocating.
    if count > bytes.len() as u128 {
        return Err(CodecError::LengthOverflow);
    }
    let count = count as usize;
    let mut items = Vec::with_capacity(count);
    let mut prev_item: u128 = 0;
    let mut prev_gap: u128 = 0;
    for i in 0..count {
        let item = match i {
            0 => read_varint(bytes, pos)?,
            _ => {
                let gap = if i == 1 {
                    read_varint(bytes, pos)?
                } else {
                    prev_gap.wrapping_add(unzigzag(read_varint(bytes, pos)?) as u128)
                };
                if gap == 0 {
                    return Err(CodecError::NotSorted);
                }
                prev_gap = gap;
                prev_item.checked_add(gap).ok_or(CodecError::NotSorted)?
            }
        };
        items.push(item);
        prev_item = item;
    }
    Ok(items)
}

/// Checks the trailing 8-byte checksum and returns the payload in front
/// of it.
fn checked_payload(bytes: &[u8]) -> Result<&[u8], CodecError> {
    if bytes.len() < 12 {
        return Err(CodecError::Truncated);
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("split_at leaves 8 bytes"));
    if fnv_bytes(payload) != stored {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(payload)
}

fn push_checksum(out: &mut Vec<u8>) {
    let sum = fnv_bytes(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Encodes a full snapshot of an item set, streaming chunk by chunk off
/// the set's ascending iterator. Accepts any exact-size ascending item
/// iterator — pass an `&AddrSet` directly.
pub fn encode_full<I>(items: I) -> Vec<u8>
where
    I: IntoIterator<Item = u128>,
    I::IntoIter: ExactSizeIterator,
{
    let items = items.into_iter();
    let mut out = Vec::with_capacity(16 + items.len() * 2);
    out.extend_from_slice(&FULL_MAGIC);
    push_items(&mut out, items);
    push_checksum(&mut out);
    out
}

/// Decodes a full snapshot, verifying magic, checksum, sortedness and
/// exact consumption. Never panics on corrupt input.
pub fn decode_full(bytes: &[u8]) -> Result<AddrSet, CodecError> {
    // `read_items` enforces strictly increasing order, so the canonical
    // fast path applies.
    Ok(AddrSet::from_sorted(full_items(bytes)?))
}

/// The items of a full-snapshot stream that passed every stream check.
fn full_items(bytes: &[u8]) -> Result<Vec<u128>, CodecError> {
    let payload = checked_payload(bytes)?;
    if payload[..4] != FULL_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let mut pos = 4;
    let items = read_items(payload, &mut pos)?;
    if pos != payload.len() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(items)
}

/// Decodes a full snapshot *and* pins it to an expected content digest
/// — the checksum-first validation an edge mirror runs on a sync
/// transfer before adopting it. The stream checksum catches in-flight
/// corruption; the digest cross-check additionally catches a
/// well-formed-but-wrong body (e.g. the origin swapped generations
/// mid-transfer).
pub fn verify_full(bytes: &[u8], expected_digest: u64) -> Result<AddrSet, CodecError> {
    let opened = Opened::full(bytes, expected_digest)?;
    confirm(std::slice::from_ref(&opened))?;
    Ok(AddrSet::from_sorted(opened.items))
}

/// Encodes the delta from set `prev` to set `next`: the removed and
/// added items, framed by the digests of both endpoints. Hashes both
/// sets, side by side, for a caller that holds no digest of either.
pub fn encode_delta(prev: &AddrSet, next: &AddrSet) -> Vec<u8> {
    let digests = content_digests([prev, next]);
    encode_delta_with(prev, digests[0], next, digests[1])
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

/// The items a transfer carries, every check passed that needs no
/// content digest of them: for a full snapshot the stream checks, for a
/// delta also the base digest and the replay. What is still owed is
/// [`confirm`], which settles several transfers at once — an edge
/// mirror's sync opens every changed artifact of a generation first.
pub(crate) struct Opened {
    items: Vec<u128>,
    /// The result digest a delta stream carries.
    promised: Option<u64>,
    /// The digest the receiver was told to expect.
    expected: u64,
}

impl Opened {
    /// Opens a full-snapshot stream that should hold the set whose
    /// content digest is `expected`.
    pub(crate) fn full(bytes: &[u8], expected: u64) -> Result<Opened, CodecError> {
        Ok(Opened { items: full_items(bytes)?, promised: None, expected })
    }

    /// Opens a delta stream that should lead from the base set `prev`,
    /// whose content digest the caller holds as `prev_digest`, to the
    /// set whose content digest is `expected`.
    pub(crate) fn delta(
        prev: &AddrSet,
        prev_digest: u64,
        bytes: &[u8],
        expected: u64,
    ) -> Result<Opened, CodecError> {
        let delta = ParsedDelta::parse(bytes)?;
        delta.check_base(prev_digest)?;
        let items = delta.replay(&prev.to_vec())?;
        Ok(Opened { items, promised: Some(delta.result_digest), expected })
    }
}

/// A reconstructed set whose content digest is `actual` must be the one
/// whose digest is `expected`.
fn check_result(actual: u64, expected: u64) -> Result<(), CodecError> {
    if actual != expected {
        return Err(CodecError::ResultMismatch { expected, actual });
    }
    Ok(())
}

/// Hashes the items of every opened transfer, side by side, and holds
/// each to the digest its receiver was told to expect — and first, for a
/// delta, to the digest its own stream promised. The first transfer that
/// fails either is the error.
pub(crate) fn confirm(opened: &[Opened]) -> Result<(), CodecError> {
    let digests = content_digests(opened.iter().map(|o| o.items.iter().copied()));
    for (transfer, actual) in opened.iter().zip(digests) {
        let mut owed = transfer.promised.into_iter().chain([transfer.expected]);
        owed.try_for_each(|expected| check_result(actual, expected))?;
    }
    Ok(())
}

/// Applies a delta stream to the base set `prev`, returning the
/// reconstructed result set. For a consumer that wants the set and holds
/// no digest of `prev`: base and result are hashed here, side by side.
///
/// Three layers of validation guard the reconstruction: the stream
/// checksum, the base digest (a wrong base is reported as
/// [`CodecError::BaseMismatch`] whatever else its items make of the
/// delta), and the result digest (a forged-but-checksummed delta still
/// cannot produce a silently wrong set).
pub fn apply_delta(prev: &AddrSet, bytes: &[u8]) -> Result<AddrSet, CodecError> {
    let delta = ParsedDelta::parse(bytes)?;
    let base = prev.to_vec();
    let replayed = delta.replay(&base);
    // A replay that failed leaves the base alone to hash.
    let sets = [Some(&base), replayed.as_ref().ok()];
    let digests = content_digests(sets.iter().flatten().map(|items| items.iter().copied()));
    delta.check_base(digests[0])?;
    let next = replayed?;
    check_result(digests[1], delta.result_digest)?;
    Ok(AddrSet::from_sorted(next))
}

/// Validates a delta stream against the base set `prev` — a faithful
/// path from `prev` to the set whose digest is `expected_digest`, or an
/// error.
///
/// Every check of [`apply_delta`] runs, in the same order and through the
/// same parser and replay. Two things differ. The base is not hashed:
/// the caller passes `prev_digest`, the digest it holds for `prev` (for
/// a store's [`ArtifactVersion`](crate::store::ArtifactVersion),
/// `digest()` is `content_digest(items())` by construction). And the
/// reconstructed digest must equal `expected_digest` as well as the
/// digest the stream carries, so a well-formed delta from the right base
/// to some *other* set is rejected, as [`verify_full`] rejects such a
/// body.
pub fn verify_delta(
    prev: &AddrSet,
    prev_digest: u64,
    bytes: &[u8],
    expected_digest: u64,
) -> Result<(), CodecError> {
    let opened = Opened::delta(prev, prev_digest, bytes, expected_digest)?;
    confirm(std::slice::from_ref(&opened))
}

#[cfg(test)]
mod tests {
    use super::*;

    use sixdust_addr::digest::ContentHasher;
    use sixdust_addr::prf;

    fn set(v: &[u128]) -> AddrSet {
        AddrSet::from_unsorted(v.to_vec())
    }

    /// The reference oracle: `apply_delta` as it was before the replay
    /// copied runs — the base hashed first, then one merge walk that
    /// visits every base item, drops removed items (which must exist),
    /// interleaves added items (which must be new) and folds each item
    /// of the result into a running digest as it goes.
    fn reference_apply(prev: &AddrSet, bytes: &[u8]) -> Result<AddrSet, CodecError> {
        let delta = ParsedDelta::parse(bytes)?;
        delta.check_base(content_digest(prev))?;
        let mut hasher = ContentHasher::new();
        let mut next = Vec::new();
        let mut emit = |item: u128| {
            hasher.push(item);
            next.push(item);
        };
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
        check_result(hasher.finish(), delta.result_digest)?;
        Ok(AddrSet::from_sorted(next))
    }

    /// Length and FNV-1a of `encode_delta(hitlist_generations())`.
    const GOLDEN_LEN: usize = 1302;
    const GOLDEN_FNV: u64 = 0xb469_e3f4_4fa3_0117;

    #[test]
    fn full_round_trips() {
        for items in [
            vec![],
            vec![0u128],
            vec![u128::MAX],
            vec![1, 2, 3, 1000, u128::MAX - 1, u128::MAX],
            (0..500u128).map(|i| i * 7 + 3).collect(),
        ] {
            let items = set(&items);
            let bytes = encode_full(&items);
            let decoded = decode_full(&bytes).expect("round trip");
            assert_eq!(decoded, items);
            // Built at its exact size: the struct, 12 B a /64, 8 a member.
            let exact = std::mem::size_of::<AddrSet>() + 12 * items.chunk_count() + 8 * items.len();
            assert_eq!(decoded.mem_bytes(), exact);
        }
    }

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
    fn streams_are_byte_identical_across_chunk_representations() {
        // A run of many in one /64, a sparse spread of runs of one, and
        // the two neighbours of the 2^64 boundary: the encoder streaming
        // off the /64 columns must produce the same bytes as one walking
        // the flat sorted vector.
        let mut items: Vec<u128> = (0..5_000u128).map(|i| (0x2001u128 << 96) + i).collect();
        items.extend((0..100u128).map(|i| i << 80));
        items.extend([u128::from(u64::MAX), 1 << 64]);
        let chunked = set(&items);
        assert_eq!(
            (chunked.len(), chunked.chunk_count()),
            (5_102, 1 + 100 + 1),
            "a run of 5 000, runs of one"
        );
        let flat = chunked.to_vec();
        assert_eq!(encode_full(&chunked), encode_full(flat.iter().copied()));
        assert_eq!(content_digest(&chunked), content_digest(flat.into_iter()));
    }

    #[test]
    fn regular_strides_compress_to_near_one_byte_per_item() {
        // A structured /64 sweep: constant gap, so every second
        // difference is zero — one byte each after the first two items.
        let items: Vec<u128> = (0..10_000u128).map(|i| (0x2001 << 112) + i * 256).collect();
        let count = items.len();
        let bytes = encode_full(AddrSet::from_sorted(items).iter());
        assert!(
            bytes.len() < count + 64,
            "dod encoding should collapse strides: {} bytes for {count} items",
            bytes.len(),
        );
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
    fn corrupt_streams_error_instead_of_panicking() {
        let items = set(&[7, 9, 100, 2000]);
        let good = encode_full(&items);
        assert_eq!(decode_full(&[]).expect_err("empty"), CodecError::Truncated);
        assert_eq!(decode_full(&good[..good.len() - 1]).expect_err("truncated"), {
            CodecError::ChecksumMismatch
        });
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(decode_full(&bad_magic).is_err());
        for i in 0..good.len() {
            let mut flipped = good.clone();
            flipped[i] ^= 0x55;
            assert!(decode_full(&flipped).is_err(), "flip at {i} must not decode");
        }
    }

    #[test]
    fn oversized_count_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FULL_MAGIC);
        push_varint(&mut bytes, u128::from(u64::MAX)); // absurd count
        push_checksum(&mut bytes);
        assert_eq!(decode_full(&bytes).expect_err("huge count"), CodecError::LengthOverflow);
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 19 continuation bytes push past 128 bits.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FULL_MAGIC);
        bytes.push(1); // count = 1
        bytes.extend_from_slice(&[0xff; 19]);
        bytes.push(0x7f);
        push_checksum(&mut bytes);
        assert_eq!(decode_full(&bytes).expect_err("overflow"), CodecError::BadVarint);
    }

    #[test]
    fn digest_is_content_stable() {
        let a = set(&[3, 1, 2]);
        let b = set(&[2, 3, 1]);
        assert_eq!(content_digest(&a), content_digest(&b));
        assert_ne!(content_digest(&a), content_digest([1u128, 2]));
        // Known FNV-1a property: empty input is the offset basis.
        assert_eq!(content_digest(std::iter::empty::<u128>()), 0xcbf2_9ce4_8422_2325);
    }
}
