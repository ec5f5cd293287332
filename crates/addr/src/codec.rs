//! The full-set codec: an [`AddrSet`] as one compact, checksummed byte
//! body — the one encoding a set has wherever it is stored or shipped.
//!
//! A body is the magic `SDF1`, the item count and the items varint
//! delta-of-delta encoded — the first item absolute, the first gap plain,
//! every later gap as a zigzag second difference — then an FNV-1a
//! checksum over everything before it. Structured address sets (regular
//! strides inside a prefix) collapse to near one byte per item; random
//! 64-bit interface identifiers cost about nine.
//!
//! The serve layer publishes these bodies as full artifacts and frames
//! its delta streams from the same parts ([`push_items`], [`read_items`],
//! [`push_checksum`], [`checked_payload`]); a service checkpoint writes
//! every set as the base64 of its body (`AddrSet`'s `ToJson`).
//!
//! Encoders stream straight off the set's ascending iterator, so the
//! flat item vector is never built. Decoding is panic-free: corrupted,
//! truncated or internally inconsistent input yields a [`CodecError`],
//! never UB or an abort.

use std::fmt;

use crate::AddrSet;

/// Magic prefix of a full-snapshot stream (`SDF1`).
pub const FULL_MAGIC: [u8; 4] = *b"SDF1";

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

/// FNV-1a 64-bit over raw bytes: the stream checksum.
pub fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

// Inline: the generic `push_items` that calls it per item is compiled in
// the crate that encodes, and a call across crates would not be inlined.
#[inline]
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
#[inline]
fn zigzag(d: i128) -> u128 {
    ((d << 1) ^ (d >> 127)) as u128
}

fn unzigzag(z: u128) -> i128 {
    ((z >> 1) as i128) ^ -((z & 1) as i128)
}

/// Appends `count` + the delta-of-delta item stream for an ascending,
/// deduplicated item iterator (exact-size so the count leads the stream
/// without a second pass — streaming straight off an [`AddrSet`] cursor
/// never materializes the flat item vector).
pub fn push_items<I: ExactSizeIterator<Item = u128>>(out: &mut Vec<u8>, items: I) {
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

/// Reads one item stream written by [`push_items`] from `bytes` at `pos`,
/// advancing `pos` past it. The items must be strictly increasing.
pub fn read_items(bytes: &[u8], pos: &mut usize) -> Result<Vec<u128>, CodecError> {
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

/// Checks the trailing 8-byte checksum of a stream and returns the
/// payload in front of it, which is at least the 4 magic bytes long.
pub fn checked_payload(bytes: &[u8]) -> Result<&[u8], CodecError> {
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

/// Appends the checksum of everything `out` holds: a stream's last step.
pub fn push_checksum(out: &mut Vec<u8>) {
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
pub fn full_items(bytes: &[u8]) -> Result<Vec<u128>, CodecError> {
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

#[cfg(test)]
mod tests {
    use super::*;

    use crate::digest::content_digest;

    fn set(v: &[u128]) -> AddrSet {
        AddrSet::from_unsorted(v.to_vec())
    }

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
}
