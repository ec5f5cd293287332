//! TCP fingerprinting of fully responsive prefixes (Sec. 5.1).
//!
//! For each prefix the 16 nibble probes' SYN-ACKs are compared on five
//! features: Optionstext, window size, window scale, MSS and iTTL. Uniform
//! values are consistent with a single host behind the prefix; differing
//! values indicate multiple hosts. The paper finds 99.5 % uniform, with the
//! window size being by far the most common differing feature (154 of 160).

use std::collections::HashSet;

use sixdust_addr::{prf, Prefix};
use sixdust_net::{Day, Internet, ProbeKind, Response};

/// Per-feature uniformity of one prefix's fingerprints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixFingerprint {
    /// The prefix under test.
    pub prefix: Prefix,
    /// SYN-ACKs collected (of 16 probes).
    pub responses: u8,
    /// Distinct Optionstext values seen.
    pub optionstext_variants: u8,
    /// Distinct window sizes seen.
    pub window_variants: u8,
    /// Distinct window scale values seen.
    pub wscale_variants: u8,
    /// Distinct MSS values seen.
    pub mss_variants: u8,
    /// Distinct iTTLs seen.
    pub ittl_variants: u8,
}

impl PrefixFingerprint {
    /// All five features uniform?
    pub fn uniform(&self) -> bool {
        self.optionstext_variants <= 1
            && self.window_variants <= 1
            && self.wscale_variants <= 1
            && self.mss_variants <= 1
            && self.ittl_variants <= 1
    }

    /// Uniform ignoring the window size (the weak feature: single hosts
    /// legitimately vary it across connections).
    pub fn uniform_ignoring_window(&self) -> bool {
        self.optionstext_variants <= 1
            && self.wscale_variants <= 1
            && self.mss_variants <= 1
            && self.ittl_variants <= 1
    }
}

/// Summary across all fingerprinted prefixes.
#[derive(Debug, Clone, Default)]
pub struct FingerprintSummary {
    /// Prefixes with at least one TCP/80 SYN-ACK.
    pub fingerprintable: usize,
    /// Fully uniform prefixes.
    pub uniform: usize,
    /// Prefixes differing only in window size.
    pub window_only_diff: usize,
    /// Prefixes differing in other features too.
    pub other_diff: usize,
}

/// Fingerprints one prefix with 16 TCP/80 probes (one per nibble sub).
pub fn fingerprint_prefix(
    net: &Internet,
    prefix: Prefix,
    day: Day,
    seed: u64,
) -> Option<PrefixFingerprint> {
    let mut opts = HashSet::new();
    let mut windows = HashSet::new();
    let mut wscales = HashSet::new();
    let mut msses = HashSet::new();
    let mut ittls = HashSet::new();
    let mut responses = 0u8;
    for (i, sub) in prefix.nibble_subprefixes().enumerate() {
        let target = sub.random_addr(prf::mix2(seed, 0x1000 + i as u64));
        for r in net.probe(target, &ProbeKind::TcpSyn { port: 80 }, day) {
            if let Response::SynAck { fp } = r {
                responses += 1;
                opts.insert(fp.optionstext.clone());
                windows.insert(fp.window);
                wscales.insert(fp.wscale);
                msses.insert(fp.mss);
                ittls.insert(fp.ittl);
            }
        }
    }
    if responses == 0 {
        return None;
    }
    Some(PrefixFingerprint {
        prefix,
        responses,
        optionstext_variants: opts.len() as u8,
        window_variants: windows.len() as u8,
        wscale_variants: wscales.len() as u8,
        mss_variants: msses.len() as u8,
        ittl_variants: ittls.len() as u8,
    })
}

/// Fingerprints a list of prefixes and summarizes (Sec. 5.1's headline
/// numbers: fingerprintable count, uniform share, window-only cohort).
pub fn fingerprint_all(
    net: &Internet,
    prefixes: &[Prefix],
    day: Day,
    seed: u64,
) -> (Vec<PrefixFingerprint>, FingerprintSummary) {
    let mut out = Vec::new();
    let mut summary = FingerprintSummary::default();
    for p in prefixes {
        if let Some(fp) = fingerprint_prefix(net, *p, day, prf::mix2(seed, p.network().iid())) {
            summary.fingerprintable += 1;
            if fp.uniform() {
                summary.uniform += 1;
            } else if fp.uniform_ignoring_window() {
                summary.window_only_diff += 1;
            } else {
                summary.other_diff += 1;
            }
            out.push(fp);
        }
    }
    (out, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixdust_net::{BackendMode, FaultConfig, GroupKind, Internet, Protocol, Scale};

    fn net() -> Internet {
        Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless())
    }

    #[test]
    fn uniform_single_host_prefix() {
        let net = net();
        let day = Day(100);
        let g = net
            .population()
            .aliased_groups(day)
            .find(|g| {
                g.protos.contains(Protocol::Tcp80)
                    && matches!(
                        g.kind,
                        GroupKind::Aliased {
                            backends: BackendMode::Single,
                            hetero_window: false,
                            ..
                        }
                    )
            })
            .expect("single-host TCP alias");
        let fp = fingerprint_prefix(&net, g.prefix, day, 7).expect("fingerprintable");
        assert_eq!(fp.responses, 16);
        assert!(fp.uniform(), "{fp:?}");
    }

    #[test]
    fn hetero_window_prefix_differs_only_in_window() {
        let net = net();
        let day = Day(100);
        let g = net.population().aliased_groups(day).find(|g| {
            g.protos.contains(Protocol::Tcp80)
                && matches!(g.kind, GroupKind::Aliased { hetero_window: true, .. })
        });
        let Some(g) = g else {
            return; // tiny scale may have no heterogeneous group
        };
        let fp = fingerprint_prefix(&net, g.prefix, day, 7).expect("fingerprintable");
        assert!(!fp.uniform());
        assert!(fp.uniform_ignoring_window(), "{fp:?}");
    }

    #[test]
    fn icmp_only_prefix_not_fingerprintable() {
        let net = net();
        let day = sixdust_net::events::TRAFFICFORCE_FLOOD.plus(2);
        let g = net
            .population()
            .aliased_groups(day)
            .find(|g| !g.protos.contains(Protocol::Tcp80))
            .expect("icmp-only alias");
        assert!(fingerprint_prefix(&net, g.prefix, day, 7).is_none());
    }

    #[test]
    fn summary_shape() {
        let net = net();
        let day = Day(100);
        let prefixes: Vec<Prefix> = net
            .population()
            .aliased_groups(day)
            .filter(|g| g.protos.contains(Protocol::Tcp80))
            .map(|g| g.prefix)
            .take(120)
            .collect();
        let (fps, summary) = fingerprint_all(&net, &prefixes, day, 3);
        assert_eq!(fps.len(), summary.fingerprintable);
        assert!(summary.fingerprintable > 50);
        let uniform_share = summary.uniform as f64 / summary.fingerprintable as f64;
        assert!(uniform_share > 0.9, "uniform share {uniform_share}");
        assert!(summary.window_only_diff >= summary.other_diff);
    }
}
