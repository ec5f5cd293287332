//! # sixdust-alias — aliased ("fully responsive") prefix analysis
//!
//! The three methodologies of the paper's Sec. 5, built on `sixdust-net`
//! and `sixdust-scan`:
//!
//! * [`detect`] — the IPv6 Hitlist's multi-level aliased prefix detection:
//!   BGP / per-/64 / long-prefix candidates, 16 nibble-spread pseudo-random
//!   probes on ICMP + TCP/80, and the three-round merge that makes labels
//!   robust to packet loss.
//! * [`fingerprint`] — TCP handshake fingerprinting (Optionstext, window,
//!   window scale, MSS, iTTL) across each labeled prefix.
//! * [`tbt`] — the Too Big Trick: PMTU-cache sharing distinguishes a true
//!   single-host alias from a load-balanced CDN pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detect;
pub mod fingerprint;
pub mod tbt;

pub use detect::{
    candidates, minimal_cover, AliasDetector, DetectedPrefix, DetectionRound, DetectorConfig,
};
pub use fingerprint::{fingerprint_all, fingerprint_prefix, FingerprintSummary, PrefixFingerprint};
pub use tbt::{tbt_all, too_big_trick, TbtOutcome, TbtResult, TbtSummary};
