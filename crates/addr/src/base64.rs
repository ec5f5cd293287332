//! Base64 (RFC 4648 §4: the standard alphabet, padded): how a set's codec
//! body travels inside a JSON string.
//!
//! Decoding is strict. Every string has exactly one byte sequence and
//! every byte sequence exactly one string: no whitespace, no missing or
//! extra padding, and the bits that padding leaves over must be zero. A
//! changed character therefore changes the bytes, where the codec's
//! checksum catches it, or is rejected here.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// `bytes` as padded base64.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for group in bytes.chunks(3) {
        let word =
            group.iter().enumerate().fold(0u32, |w, (i, &b)| w | u32::from(b) << (16 - 8 * i));
        for i in 0..4 {
            if i <= group.len() {
                out.push(char::from(ALPHABET[(word >> (18 - 6 * i)) as usize & 63]));
            } else {
                out.push('=');
            }
        }
    }
    out
}

/// The 6-bit value of one base64 character.
fn sextet(c: u8) -> Option<u32> {
    let value = match c {
        b'A'..=b'Z' => c - b'A',
        b'a'..=b'z' => c - b'a' + 26,
        b'0'..=b'9' => c - b'0' + 52,
        b'+' => 62,
        b'/' => 63,
        _ => return None,
    };
    Some(u32::from(value))
}

/// The bytes of the canonical padded base64 string `text`, or `None` for
/// any string [`encode`] does not write.
pub fn decode(text: &str) -> Option<Vec<u8>> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    let groups = text.len() / 4;
    for (g, group) in text.chunks(4).enumerate() {
        // Only the last group may pad, and only its last one or two places.
        let padding = group.iter().rev().take_while(|&&c| c == b'=').count();
        if padding > 2 || (padding > 0 && g + 1 != groups) {
            return None;
        }
        let mut word = 0u32;
        for (i, &c) in group[..4 - padding].iter().enumerate() {
            word |= sextet(c)? << (18 - 6 * i);
        }
        let len = 3 - padding;
        // The bits below the last whole byte must be zero.
        if word & ((1 << (8 * (3 - len))) - 1) != 0 {
            return None;
        }
        out.extend_from_slice(&word.to_be_bytes()[1..1 + len]);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc_4648_test_vectors() {
        for (plain, coded) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(plain.as_bytes()), coded);
            assert_eq!(decode(coded).as_deref(), Some(plain.as_bytes()), "{coded:?}");
        }
    }

    #[test]
    fn every_byte_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        for len in 0..bytes.len() {
            let coded = encode(&bytes[..len]);
            assert_eq!(decode(&coded).as_deref(), Some(&bytes[..len]), "{len} bytes");
        }
    }

    #[test]
    fn only_the_canonical_string_decodes() {
        for bad in [
            "Zg",
            "Zg=",
            "Zg===",
            "Z===",
            "====",
            "Zh==",
            "Zm9=",
            "Zg==Zg==",
            "Zm 9v",
            "Zm9v\n",
            "Zm-v",
            "Zm_v",
            "Zm9\u{e9}",
        ] {
            assert_eq!(decode(bad), None, "{bad:?}");
        }
        // Every second character of `f` but the canonical one leaves a
        // padding bit set.
        let accepted: Vec<char> = ALPHABET
            .iter()
            .map(|&c| char::from(c))
            .filter(|c| decode(&format!("Z{c}==")).is_some())
            .collect();
        assert_eq!(accepted.len(), 4, "{accepted:?}");
        assert!(accepted.contains(&'g'));
    }
}
