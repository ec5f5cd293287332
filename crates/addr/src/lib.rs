//! IPv6 address primitives for the sixdust project.
//!
//! This crate provides the address-level building blocks that every other
//! sixdust crate relies on:
//!
//! * [`Addr`] — a compact, ordered 128-bit IPv6 address newtype with nibble
//!   accessors and conversions to/from [`std::net::Ipv6Addr`].
//! * [`Prefix`] — a CIDR prefix (`2001:db8::/32`) with containment tests,
//!   sub-prefix enumeration and pseudo-random address drawing, exactly the
//!   operations the multi-level aliased prefix detection needs.
//! * [`Eui64`] — embedding and extraction of EUI-64 interface identifiers
//!   (MAC-derived `ff:fe` IIDs) plus a small OUI vendor registry; the paper
//!   uses these to explain the input-list bias of the IPv6 Hitlist.
//! * [`teredo`] — Teredo (RFC 4380) tunnel-address encoding/decoding; the
//!   Great Firewall's 2021/2022 DNS injections carried Teredo AAAA records,
//!   which is the detection signal the paper's cleaning filter keys on.
//! * [`PrefixTrie`] / [`PrefixSet`] — a sorted prefix table with
//!   enclosing-entry links for longest-prefix match (BGP-style lookups, the
//!   population index) and prefix-set membership (blocklists,
//!   aliased-prefix filters): one binary search and a short walk per
//!   lookup.
//! * [`classify`] — interface-identifier taxonomy (low-byte, EUI-64,
//!   embedded IPv4, port/word, random) used by the bias analyses and the
//!   6GAN-style seed classes.
//! * [`prf`] — a small deterministic pseudo-random function used everywhere
//!   a reproducible per-address coin flip is required (host liveness, churn,
//!   probe address generation).
//! * [`AddrSet`] — the address-set type every crate boundary speaks: /64
//!   columns (each distinct /64 once, 12 bytes, and the low 64 bits of its
//!   members in one ascending run, 8 bytes a member), streaming ascending
//!   iteration, and a JSON form that is its codec body. The
//!   linear merge kernels (union/diff/intersect over sorted slices) that
//!   used to be public as `sorted::*` are now crate-private plumbing
//!   behind this type.
//! * [`AddrBuildHasher`] — a per-table-keyed hasher that spends one
//!   [`prf::mix64`] on a `u128` or `u64` key where SipHash spends several:
//!   the simulator's interface table and the serve tier's client maps.
//!   No address state of the hitlist service is a hash table.
//! * [`codec`] — the full-set codec: a set as one compact, checksummed
//!   byte body (varint delta-of-delta items, FNV-1a checksum). The serve
//!   layer publishes these bodies and frames its deltas from their parts;
//!   a checkpoint stores every set as one, in [`base64`].
//! * [`digest`] — the content digest of an item set (a keyed sum of one
//!   hash per item, so a delta's result digest composes from its base's):
//!   the value `manifest.json` records and the serve layer uses as ETag
//!   and delta frame.
//!
//! All types are `Copy` where possible, serializable, and allocate only when
//! a collection genuinely must.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod addrset;
pub mod base64;
pub mod classify;
pub mod codec;
pub mod digest;
mod eui64;
mod hash;
mod prefix;
pub mod prf;
mod set;
pub(crate) mod sorted;
pub mod teredo;
mod trie;

pub use addr::Addr;
pub use addrset::{AddrSet, Iter as AddrSetIter};
pub use classify::{classify_iid, IidBreakdown, IidClass};
pub use eui64::{Eui64, OuiVendor, OUI_REGISTRY, ZTE_OUI};
pub use hash::{AddrBuildHasher, AddrHasher};
pub use prefix::{ParsePrefixError, Prefix, SubPrefixes};
pub use set::PrefixSet;
pub use trie::PrefixTrie;
