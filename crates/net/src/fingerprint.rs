//! Host-level behavioural fingerprints.
//!
//! Each simulated backend host owns a TCP fingerprint (the five features
//! the paper's Sec. 5.1 compares: Optionstext, window, window scale, MSS,
//! iTTL) and — if it speaks DNS — a responder behaviour class matching the
//! paper's validation experiment (Sec. 4.2: 93.8 % errors, 4.6 % recursive,
//! referrals, proxies, broken).

use std::borrow::Cow;

use sixdust_addr::prf;

/// The TCP handshake features used to fingerprint aliased prefixes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TcpFingerprint {
    /// Order-preserving options string (e.g. `MSTNW`): borrowed from the
    /// profile pool for a simulated host — every answered probe builds a
    /// fingerprint, most never read it — owned when parsed off the wire.
    pub optionstext: Cow<'static, str>,
    /// Receive window.
    pub window: u16,
    /// Window scale option.
    pub wscale: u8,
    /// Maximum segment size.
    pub mss: u16,
    /// Initial TTL (already rounded to a power of two).
    pub ittl: u8,
}

/// A canned OS/stack profile.
struct FpProfile {
    optionstext: &'static str,
    window: u16,
    wscale: u8,
    mss: u16,
    ittl: u8,
}

/// The profile pool the population draws from; values mirror common
/// Linux/BSD/Windows/load-balancer stacks.
const PROFILES: [FpProfile; 6] = [
    FpProfile { optionstext: "MSTNW", window: 29200, wscale: 7, mss: 1460, ittl: 64 },
    FpProfile { optionstext: "MSTNW", window: 64240, wscale: 7, mss: 1460, ittl: 64 },
    FpProfile { optionstext: "MNWNNTS", window: 65535, wscale: 6, mss: 1440, ittl: 64 },
    FpProfile { optionstext: "MNWNNS", window: 8192, wscale: 8, mss: 1460, ittl: 128 },
    FpProfile { optionstext: "MSW", window: 65535, wscale: 9, mss: 1380, ittl: 255 },
    FpProfile { optionstext: "MW", window: 5840, wscale: 2, mss: 1436, ittl: 64 },
];

impl TcpFingerprint {
    /// The fingerprint of profile `idx` (mod pool size).
    pub fn profile(idx: u64) -> TcpFingerprint {
        let p = &PROFILES[(idx % PROFILES.len() as u64) as usize];
        TcpFingerprint {
            optionstext: Cow::Borrowed(p.optionstext),
            window: p.window,
            wscale: p.wscale,
            mss: p.mss,
            ittl: p.ittl,
        }
    }

    /// Number of canned profiles.
    pub fn profile_count() -> u64 {
        PROFILES.len() as u64
    }

    /// A copy with a perturbed window (the "same host, different
    /// connection" variation the paper notes makes window size a weak
    /// discriminator).
    pub fn with_window(mut self, window: u16) -> TcpFingerprint {
        self.window = window;
        self
    }
}

/// DNS responder behaviour classes (Sec. 4.2 validation experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsBehavior {
    /// An authoritative server or locked-down resolver: answers every query
    /// for a foreign name with REFUSED — a *valid* DNS response, hence
    /// counted responsive by ZMap (93.8 % of the cleaned UDP/53 set).
    AuthRefused,
    /// An open resolver that recursively resolves (4.6 %).
    OpenResolver,
    /// Replies with a referral to the root / parent zone (≈0.4 %).
    Referral,
    /// Resolves via another interface/proxy: the answer is correct but the
    /// query arrives at the authoritative server from a different source
    /// address (the paper's 15-address cohort).
    Proxy,
    /// Broken: wrong status codes or `localhost` referrals (≈1.1 %).
    Broken,
}

impl DnsBehavior {
    /// Draws a behaviour for a host with the paper's observed proportions.
    pub fn draw(seed: u64, host_uid: u64) -> DnsBehavior {
        // Out of 10 000: 9380 refused, 460 resolver, 42 referral,
        // 11 proxy, 107 broken.
        let r = prf::uniform(seed, u128::from(host_uid), 0xD27, 10_000);
        match r {
            0..=9379 => DnsBehavior::AuthRefused,
            9380..=9839 => DnsBehavior::OpenResolver,
            9840..=9881 => DnsBehavior::Referral,
            9882..=9892 => DnsBehavior::Proxy,
            _ => DnsBehavior::Broken,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_distinct_and_stable() {
        let a = TcpFingerprint::profile(0);
        let b = TcpFingerprint::profile(1);
        assert_ne!(a, b);
        assert_eq!(a, TcpFingerprint::profile(0));
        assert_eq!(TcpFingerprint::profile(6), TcpFingerprint::profile(0), "wraps");
    }

    #[test]
    fn ittl_values_are_powers_of_two() {
        for i in 0..TcpFingerprint::profile_count() {
            let fp = TcpFingerprint::profile(i);
            assert!(fp.ittl.is_power_of_two() || fp.ittl == 255, "ittl {}", fp.ittl);
        }
    }

    #[test]
    fn with_window_only_touches_window() {
        let fp = TcpFingerprint::profile(0);
        let fp2 = fp.clone().with_window(1234);
        assert_eq!(fp2.window, 1234);
        assert_eq!(fp2.mss, fp.mss);
        assert_eq!(fp2.optionstext, fp.optionstext);
    }

    #[test]
    fn dns_behavior_distribution() {
        let mut counts = std::collections::HashMap::new();
        for uid in 0..100_000u64 {
            *counts.entry(DnsBehavior::draw(1, uid)).or_insert(0usize) += 1;
        }
        let refused = counts[&DnsBehavior::AuthRefused] as f64 / 100_000.0;
        let resolver = counts[&DnsBehavior::OpenResolver] as f64 / 100_000.0;
        assert!((0.92..0.96).contains(&refused), "refused {refused}");
        assert!((0.035..0.06).contains(&resolver), "resolver {resolver}");
        assert!(counts.contains_key(&DnsBehavior::Referral));
        assert!(counts.contains_key(&DnsBehavior::Broken));
    }

    #[test]
    fn dns_behavior_deterministic() {
        assert_eq!(DnsBehavior::draw(9, 42), DnsBehavior::draw(9, 42));
    }
}
