//! Yarrp-style randomized high-speed traceroute.
//!
//! Yarrp (Beverly, IMC 2016) probes the `(target, TTL)` space in a random
//! permutation, statelessly matching ICMPv6 Time Exceeded quotes back to
//! probes. This is the full sweep over every (target, TTL) pair, the one
//! `examples/topology.rs` maps a topology with. The hitlist service does
//! not run it: a round traces a capped sample of its input that rotates
//! weekly, and walks only the last hops of each path
//! (`Internet::trace_tails`). That harvesting is what drags the rotating
//! Chinese last-hop addresses (later GFW-polluted) and rotating ISP CPE
//! space into the input list (Sec. 4).

use std::collections::HashMap;

use sixdust_addr::Addr;
use sixdust_net::{Day, Internet, ProbeKind, Response};

use crate::permute::CyclicPermutation;

/// Traceroute engine configuration.
///
/// Construct with the chainable `with_*` methods on
/// [`YarrpConfig::default`].
#[derive(Debug, Clone, PartialEq)]
pub struct YarrpConfig {
    /// Highest TTL probed.
    pub max_ttl: u8,
    /// Permutation seed.
    pub seed: u64,
}

impl Default for YarrpConfig {
    fn default() -> YarrpConfig {
        YarrpConfig { max_ttl: 12, seed: 0x7A99 }
    }
}

impl YarrpConfig {
    /// Returns the config with the highest probed TTL replaced.
    pub fn with_max_ttl(mut self, max_ttl: u8) -> YarrpConfig {
        self.max_ttl = max_ttl;
        self
    }

    /// Returns the config with the permutation seed replaced.
    pub fn with_seed(mut self, seed: u64) -> YarrpConfig {
        self.seed = seed;
        self
    }
}

/// The trace toward one target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The traced target.
    pub target: Addr,
    /// `(ttl, router)` pairs that answered with Time Exceeded.
    pub hops: Vec<(u8, Addr)>,
    /// Whether the destination itself answered at full TTL.
    pub reached: bool,
}

impl Trace {
    /// The last responsive hop: the destination if reached, otherwise the
    /// highest-TTL router (the address class the GFW analysis shows gets
    /// accumulated for Chinese networks).
    pub fn last_responsive_hop(&self) -> Option<Addr> {
        if self.reached {
            Some(self.target)
        } else {
            self.hops.iter().max_by_key(|(ttl, _)| *ttl).map(|(_, a)| *a)
        }
    }
}

/// The result of a Yarrp run.
#[derive(Debug, Clone)]
pub struct YarrpResult {
    /// Per-target traces (targets with zero responses included).
    pub traces: Vec<Trace>,
    /// Probes sent.
    pub sent: u64,
}

impl YarrpResult {
    /// All distinct router addresses discovered.
    pub fn discovered_routers(&self) -> Vec<Addr> {
        let mut set: Vec<Addr> =
            self.traces.iter().flat_map(|t| t.hops.iter().map(|(_, a)| *a)).collect();
        set.sort_unstable();
        set.dedup();
        set
    }
}

/// Runs a randomized traceroute sweep over `targets`.
pub fn yarrp(net: &Internet, targets: &[Addr], day: Day, config: &YarrpConfig) -> YarrpResult {
    // Stateless probing needs unique targets to attribute replies.
    let mut targets: Vec<Addr> = targets.to_vec();
    targets.sort_unstable();
    targets.dedup();
    let targets = &targets[..];
    let max_ttl = u64::from(config.max_ttl.max(1));
    let space = targets.len() as u64 * max_ttl;
    let mut by_target: HashMap<Addr, Trace> = targets
        .iter()
        .map(|t| (*t, Trace { target: *t, hops: Vec::new(), reached: false }))
        .collect();
    let probe = ProbeKind::IcmpEcho { size: 16 };
    let mut sent = 0u64;
    for idx in CyclicPermutation::new(space, config.seed ^ u64::from(day.0)) {
        let target = targets[(idx / max_ttl) as usize];
        let ttl = (idx % max_ttl) as u8 + 1;
        sent += 1;
        match net.probe_ttl(target, ttl, &probe, day, 0) {
            Some(Response::TimeExceeded { hop }) => {
                by_target.get_mut(&target).expect("known target").hops.push((ttl, hop));
            }
            Some(Response::EchoReply { .. }) => {
                by_target.get_mut(&target).expect("known target").reached = true;
            }
            _ => {}
        }
    }
    let mut traces: Vec<Trace> =
        targets.iter().map(|t| by_target.remove(t).expect("trace")).collect();
    for t in &mut traces {
        t.hops.sort_unstable_by_key(|(ttl, _)| *ttl);
        t.hops.dedup();
    }
    YarrpResult { traces, sent }
}
