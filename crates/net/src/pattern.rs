//! Address assignment patterns inside subnet groups.
//!
//! Real IPv6 deployments assign addresses in structured ways — low-byte
//! counters (`::1`, `::2`, …), incremental server farms, EUI-64 SLAAC,
//! privacy (random) IIDs — and every target generation algorithm in the
//! paper exists *because* of that structure. A [`AddrPattern`] answers two
//! dual questions about a `/64` (or wider) group:
//!
//! * membership: given an address, which member index is it (if any)?
//! * enumeration: what are the first `n` member addresses?
//!
//! For pseudo-random IIDs the two directions are reconciled with a small
//! Feistel permutation: member `i` maps to IID `feistel(i)`, and membership
//! inverts the permutation and checks the index bound — random-looking
//! addresses with O(1) membership and no stored state.

use sixdust_addr::{prf, Addr, Eui64, Prefix};

/// A 4-round balanced Feistel permutation over `u64`, keyed by `key`.
///
/// Not cryptography — just a deterministic bijection whose output looks
/// uniform, which is all an address simulator needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Feistel64 {
    key: u64,
}

impl Feistel64 {
    /// Creates a permutation for the given key.
    pub fn new(key: u64) -> Feistel64 {
        Feistel64 { key }
    }

    fn round(&self, half: u32, r: u64) -> u32 {
        (prf::mix2(self.key ^ r, u64::from(half)) & 0xffff_ffff) as u32
    }

    /// Forward permutation.
    pub fn permute(&self, x: u64) -> u64 {
        let (mut l, mut r) = ((x >> 32) as u32, x as u32);
        for i in 0..4u64 {
            let nl = r;
            let nr = l ^ self.round(r, i);
            l = nl;
            r = nr;
        }
        (u64::from(l) << 32) | u64::from(r)
    }

    /// Inverse permutation.
    pub fn invert(&self, y: u64) -> u64 {
        let (mut l, mut r) = ((y >> 32) as u32, y as u32);
        for i in (0..4u64).rev() {
            let pr = l;
            let pl = r ^ self.round(l, i);
            l = pl;
            r = pr;
        }
        (u64::from(l) << 32) | u64::from(r)
    }
}

/// How member addresses are laid out inside a group's prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrPattern {
    /// `prefix::1 … prefix::count` — the classic low-byte server block.
    LowByte {
        /// Number of members.
        count: u64,
    },
    /// A dense incremental cluster: `base_iid + i * stride`.
    ///
    /// With `stride <= 64` these are exactly the clusters the paper's
    /// distance clustering extends; with `stride == 1` they are the
    /// Akamai-style incrementally assigned farms 6Tree over-generates in.
    Incremental {
        /// IID of member 0.
        base_iid: u64,
        /// Gap between consecutive members (>= 1).
        stride: u64,
        /// Number of members.
        count: u64,
    },
    /// SLAAC EUI-64 addresses from a vendor OUI and consecutive serials.
    Eui64Block {
        /// The 24-bit vendor OUI.
        oui: u32,
        /// Serial of member 0.
        serial_base: u32,
        /// Number of members.
        count: u64,
    },
    /// Pseudo-random (privacy-extension-style) IIDs via a Feistel
    /// permutation keyed by the group.
    RandomIid {
        /// Permutation key.
        key: u64,
        /// Number of members.
        count: u64,
    },
    /// A sparse-but-clustered range: member `j` sits at
    /// `base_iid + j*step + jitter(j)` with `jitter(j) < step`. Mean gap
    /// `step`, density `1/step` — the "densely populated but not fully
    /// responsive" regions the paper's distance clustering extends, where
    /// naive in-fill hits only ~1/step of generated addresses.
    Jittered {
        /// IID floor of the range.
        base_iid: u64,
        /// Mean gap between members (>= 1).
        step: u64,
        /// Number of members.
        count: u64,
        /// Jitter PRF key.
        key: u64,
    },
    /// Every address in the prefix is a member (fully responsive /
    /// "aliased" prefix).
    FullPrefix,
}

impl AddrPattern {
    /// Number of members (capped at `u64::MAX` for [`AddrPattern::FullPrefix`]).
    pub fn count(&self, prefix: Prefix) -> u64 {
        match self {
            AddrPattern::LowByte { count }
            | AddrPattern::Incremental { count, .. }
            | AddrPattern::Eui64Block { count, .. }
            | AddrPattern::Jittered { count, .. }
            | AddrPattern::RandomIid { count, .. } => *count,
            AddrPattern::FullPrefix => {
                let bits = prefix.size_log2();
                if bits >= 64 {
                    u64::MAX
                } else {
                    1u64 << bits
                }
            }
        }
    }

    /// The member index of `addr` inside `prefix`, if it is a member.
    pub fn member_index(&self, prefix: Prefix, addr: Addr) -> Option<u64> {
        if !prefix.contains(addr) {
            return None;
        }
        match self {
            AddrPattern::LowByte { count } => {
                let off = addr.0 - prefix.network().0;
                if off >= 1 && off <= u128::from(*count) {
                    Some((off - 1) as u64)
                } else {
                    None
                }
            }
            AddrPattern::Incremental { base_iid, stride, count } => {
                let iid = addr.iid();
                if addr.network_u64() != prefix.network().network_u64() {
                    return None;
                }
                if iid < *base_iid {
                    return None;
                }
                let off = iid - base_iid;
                if off.is_multiple_of(*stride) && off / stride < *count {
                    Some(off / stride)
                } else {
                    None
                }
            }
            AddrPattern::Eui64Block { oui, serial_base, count } => {
                let e = Eui64::from_addr(addr)?;
                if addr.network_u64() != prefix.network().network_u64() || e.oui() != *oui {
                    return None;
                }
                let mac = e.mac();
                let serial =
                    (u32::from(mac[3]) << 16) | (u32::from(mac[4]) << 8) | u32::from(mac[5]);
                let idx = serial.checked_sub(*serial_base)?;
                if u64::from(idx) < *count {
                    Some(u64::from(idx))
                } else {
                    None
                }
            }
            AddrPattern::RandomIid { key, count } => {
                if addr.network_u64() != prefix.network().network_u64() {
                    return None;
                }
                let idx = Feistel64::new(*key).invert(addr.iid());
                if idx < *count {
                    Some(idx)
                } else {
                    None
                }
            }
            AddrPattern::Jittered { base_iid, step, count, key } => {
                if addr.network_u64() != prefix.network().network_u64() {
                    return None;
                }
                let iid = addr.iid();
                if iid < *base_iid {
                    return None;
                }
                let j = (iid - base_iid) / (*step).max(1);
                let probe = AddrPattern::Jittered {
                    base_iid: *base_iid,
                    step: *step,
                    count: *count,
                    key: *key,
                };
                if j < *count && probe.member_addr(prefix, j) == addr {
                    Some(j)
                } else {
                    None
                }
            }
            AddrPattern::FullPrefix => {
                let off = addr.0 - prefix.network().0;
                Some(off as u64) // low 64 bits suffice as a member id
            }
        }
    }

    /// The address of member `i` (must be `< count`).
    pub fn member_addr(&self, prefix: Prefix, i: u64) -> Addr {
        debug_assert!(
            matches!(self, AddrPattern::FullPrefix) || i < self.count(prefix),
            "member index out of range"
        );
        match self {
            AddrPattern::LowByte { .. } => Addr(prefix.network().0 + u128::from(i) + 1),
            AddrPattern::Incremental { base_iid, stride, .. } => {
                prefix.network().with_iid(base_iid + i * stride)
            }
            AddrPattern::Eui64Block { oui, serial_base, .. } => {
                Eui64::from_oui_serial(*oui, serial_base + i as u32).apply_to(prefix.network())
            }
            AddrPattern::RandomIid { key, .. } => {
                prefix.network().with_iid(Feistel64::new(*key).permute(i))
            }
            AddrPattern::Jittered { base_iid, step, key, .. } => {
                let jitter = prf::prf_u128(*key, u128::from(i), 0x717) % step.max(&1u64);
                prefix.network().with_iid(base_iid + i * step + jitter)
            }
            AddrPattern::FullPrefix => Addr(prefix.network().0 + u128::from(i)),
        }
    }

    /// Enumerates up to `limit` member addresses in index order.
    pub fn enumerate(&self, prefix: Prefix, limit: usize) -> Vec<Addr> {
        let n = self.count(prefix).min(limit as u64);
        (0..n).map(|i| self.member_addr(prefix, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn feistel_is_a_bijection() {
        let f = Feistel64::new(0xabcd);
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let y = f.permute(i);
            assert_eq!(f.invert(y), i);
            assert!(seen.insert(y), "collision at {i}");
        }
    }

    #[test]
    fn feistel_keys_differ() {
        let a = Feistel64::new(1).permute(42);
        let b = Feistel64::new(2).permute(42);
        assert_ne!(a, b);
    }

    #[test]
    fn low_byte_membership() {
        let pat = AddrPattern::LowByte { count: 10 };
        let net = p("2001:db8:1:2::/64");
        assert_eq!(pat.member_addr(net, 0), "2001:db8:1:2::1".parse().unwrap());
        assert_eq!(pat.member_index(net, "2001:db8:1:2::a".parse().unwrap()), Some(9));
        assert_eq!(pat.member_index(net, "2001:db8:1:2::b".parse().unwrap()), None);
        assert_eq!(pat.member_index(net, "2001:db8:1:2::".parse().unwrap()), None);
        assert_eq!(pat.member_index(net, "2001:db8:9::1".parse().unwrap()), None);
    }

    #[test]
    fn incremental_with_stride() {
        let pat = AddrPattern::Incremental { base_iid: 0x1000, stride: 4, count: 100 };
        let net = p("2001:db8::/64");
        let a7 = pat.member_addr(net, 7);
        assert_eq!(a7.iid(), 0x1000 + 28);
        assert_eq!(pat.member_index(net, a7), Some(7));
        // Off-stride address is not a member.
        let off = net.network().with_iid(0x1000 + 27);
        assert_eq!(pat.member_index(net, off), None);
        // Below base is not a member (no underflow panic).
        let below = net.network().with_iid(0xfff);
        assert_eq!(pat.member_index(net, below), None);
    }

    #[test]
    fn eui64_block() {
        let pat = AddrPattern::Eui64Block { oui: 0x001422, serial_base: 100, count: 50 };
        let net = p("2001:db8:5::/64");
        let a = pat.member_addr(net, 3);
        assert!(Eui64::addr_is_eui64(a));
        assert_eq!(pat.member_index(net, a), Some(3));
        // Wrong OUI rejected.
        let other = Eui64::from_oui_serial(0x002686, 103).apply_to(net.network());
        assert_eq!(pat.member_index(net, other), None);
    }

    #[test]
    fn random_iid_roundtrip_and_bounds() {
        let pat = AddrPattern::RandomIid { key: 77, count: 1000 };
        let net = p("2001:db8:7::/64");
        for i in [0u64, 1, 500, 999] {
            let a = pat.member_addr(net, i);
            assert_eq!(pat.member_index(net, a), Some(i));
        }
        // An address whose inverse falls outside the count is rejected:
        // member 1000 of a larger pattern with the same key.
        let big = AddrPattern::RandomIid { key: 77, count: 2000 };
        let outside = big.member_addr(net, 1500);
        assert_eq!(pat.member_index(net, outside), None);
    }

    #[test]
    fn full_prefix_all_members() {
        let pat = AddrPattern::FullPrefix;
        let net = p("2001:db8:42::/64");
        assert_eq!(
            pat.member_index(net, "2001:db8:42::dead:beef".parse().unwrap()),
            Some(0xdead_beef)
        );
        assert_eq!(pat.member_index(net, "2001:db8:43::1".parse().unwrap()), None);
        assert_eq!(pat.count(p("2001:db8::/120")), 256);
    }

    #[test]
    fn enumerate_respects_limit() {
        let pat = AddrPattern::LowByte { count: 100 };
        let net = p("2001:db8::/64");
        assert_eq!(pat.enumerate(net, 5).len(), 5);
        assert_eq!(pat.enumerate(net, 1000).len(), 100);
    }

    #[test]
    fn enumeration_and_membership_agree() {
        let net = p("2001:db8:9::/64");
        for pat in [
            AddrPattern::LowByte { count: 40 },
            AddrPattern::Incremental { base_iid: 9, stride: 16, count: 40 },
            AddrPattern::Eui64Block { oui: 0x001422, serial_base: 0, count: 40 },
            AddrPattern::RandomIid { key: 5, count: 40 },
        ] {
            for (i, a) in pat.enumerate(net, 40).into_iter().enumerate() {
                assert_eq!(pat.member_index(net, a), Some(i as u64), "{pat:?}");
            }
        }
    }
}
