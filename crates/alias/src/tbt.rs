//! The Too Big Trick (Beverly et al. 2013; applied to fully responsive
//! prefixes by Song et al. 2022 and Sec. 5.1 of the paper).
//!
//! IPv6 routers never fragment; only end hosts do, and they remember the
//! path MTU per destination. So:
//!
//! 1. verify eight addresses in the prefix answer 1300-byte echoes
//!    unfragmented,
//! 2. send an ICMPv6 Packet Too Big (MTU 1280) to *one* of them,
//! 3. re-probe all; addresses sharing the seeded host's PMTU cache now
//!    reply fragmented.
//!
//! All eight fragmenting ⇒ one host owns the prefix (a true alias); none ⇒
//! independent per-address state; two-to-seven ⇒ a load-balanced pool
//! (the Akamai/Cloudflare cohort).

use sixdust_addr::{prf, Addr, Prefix};
use sixdust_net::{Day, Internet, ProbeKind, Response};
use sixdust_wire::IPV6_MIN_MTU;

/// Number of addresses probed per prefix.
pub const TBT_ADDRS: usize = 8;
/// Echo payload size used for the oversized probes.
pub const TBT_PROBE_SIZE: u16 = 1300;

/// The classification of one prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TbtOutcome {
    /// Preconditions failed (no unfragmented baseline from all addresses).
    Unsuitable,
    /// All probed addresses fragmented after seeding one: shared cache,
    /// single host.
    SharedAll,
    /// No other address fragmented: every address keeps its own state.
    SharedNone,
    /// `n` of the other seven shared the seeded cache: load balancing.
    SharedPartial(u8),
}

/// A full TBT measurement of one prefix.
#[derive(Debug, Clone)]
pub struct TbtResult {
    /// The prefix under test.
    pub prefix: Prefix,
    /// Outcome classification.
    pub outcome: TbtOutcome,
    /// The probed addresses.
    pub addrs: Vec<Addr>,
}

/// Runs the Too Big Trick on one prefix.
pub fn too_big_trick(net: &Internet, prefix: Prefix, day: Day, seed: u64) -> TbtResult {
    let addrs: Vec<Addr> = (0..TBT_ADDRS)
        .map(|i| {
            // Spread across nibble subs like the detection probes.
            prefix.nibble_subprefix((i * 2) as u8).random_addr(prf::mix2(seed, 0x7B7 + i as u64))
        })
        .collect();

    // Step 1: all addresses must answer 1300 B unfragmented.
    let echo = ProbeKind::IcmpEcho { size: TBT_PROBE_SIZE };
    for a in &addrs {
        let ok = net
            .probe(*a, &echo, day)
            .iter()
            .any(|r| matches!(r, Response::EchoReply { fragmented: false }));
        if !ok {
            return TbtResult { prefix, outcome: TbtOutcome::Unsuitable, addrs };
        }
    }

    // Step 2: seed the PMTU cache via the first address.
    net.probe(addrs[0], &ProbeKind::TooBig { mtu: IPV6_MIN_MTU }, day);

    // The seeded address itself must now fragment; otherwise the target
    // ignores PTB and the methodology yields nothing.
    let seeded_fragmented = net
        .probe(addrs[0], &echo, day)
        .iter()
        .any(|r| matches!(r, Response::EchoReply { fragmented: true }));
    if !seeded_fragmented {
        return TbtResult { prefix, outcome: TbtOutcome::Unsuitable, addrs };
    }

    // Step 3: probe the remaining addresses without further error messages.
    let mut shared = 0u8;
    for a in &addrs[1..] {
        let fragmented = net
            .probe(*a, &echo, day)
            .iter()
            .any(|r| matches!(r, Response::EchoReply { fragmented: true }));
        if fragmented {
            shared += 1;
        }
    }
    let outcome = match shared as usize {
        n if n == TBT_ADDRS - 1 => TbtOutcome::SharedAll,
        0 => TbtOutcome::SharedNone,
        n => TbtOutcome::SharedPartial(n as u8),
    };
    TbtResult { prefix, outcome, addrs }
}

/// Aggregate TBT statistics over many prefixes (the Sec. 5.1 table).
#[derive(Debug, Clone, Default)]
pub struct TbtSummary {
    /// Prefixes with successful preconditions.
    pub successful: usize,
    /// Prefixes where the methodology could not run.
    pub unsuitable: usize,
    /// Fully shared (single host).
    pub shared_all: usize,
    /// No sharing.
    pub shared_none: usize,
    /// Partial sharing (load balancing).
    pub shared_partial: usize,
}

/// Runs the TBT over a prefix list.
pub fn tbt_all(
    net: &Internet,
    prefixes: &[Prefix],
    day: Day,
    seed: u64,
) -> (Vec<TbtResult>, TbtSummary) {
    let mut results = Vec::with_capacity(prefixes.len());
    let mut summary = TbtSummary::default();
    for p in prefixes {
        let r = too_big_trick(net, *p, day, prf::mix2(seed, p.network().iid()));
        match r.outcome {
            TbtOutcome::Unsuitable => summary.unsuitable += 1,
            TbtOutcome::SharedAll => {
                summary.successful += 1;
                summary.shared_all += 1;
            }
            TbtOutcome::SharedNone => {
                summary.successful += 1;
                summary.shared_none += 1;
            }
            TbtOutcome::SharedPartial(_) => {
                summary.successful += 1;
                summary.shared_partial += 1;
            }
        }
        results.push(r);
    }
    (results, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixdust_net::{BackendMode, FaultConfig, GroupKind, Protocol, Scale};

    fn net() -> Internet {
        Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless())
    }

    fn find_prefix(net: &Internet, day: Day, want: BackendMode) -> Option<Prefix> {
        net.population()
            .aliased_groups(day)
            .find(|g| {
                g.protos.contains(Protocol::Icmp)
                    && matches!(
                        (&g.kind, want),
                        (
                            GroupKind::Aliased { backends: BackendMode::Single, .. },
                            BackendMode::Single,
                        ) | (
                            GroupKind::Aliased { backends: BackendMode::PerAddr, .. },
                            BackendMode::PerAddr,
                        ) | (
                            GroupKind::Aliased { backends: BackendMode::LoadBalanced(_), .. },
                            BackendMode::LoadBalanced(_),
                        )
                    )
            })
            .map(|g| g.prefix)
    }

    #[test]
    fn single_host_prefix_shares_fully() {
        let net = net();
        let day = Day(100);
        let p = find_prefix(&net, day, BackendMode::Single).expect("single alias");
        net.reset_state();
        let r = too_big_trick(&net, p, day, 1);
        assert_eq!(r.outcome, TbtOutcome::SharedAll);
        assert_eq!(r.addrs.len(), TBT_ADDRS);
    }

    #[test]
    fn per_addr_prefix_shares_nothing() {
        let net = net();
        let day = Day(100);
        let p = find_prefix(&net, day, BackendMode::PerAddr).expect("per-addr alias");
        net.reset_state();
        let r = too_big_trick(&net, p, day, 1);
        assert_eq!(r.outcome, TbtOutcome::SharedNone);
    }

    #[test]
    fn load_balanced_prefix_shares_partially() {
        let net = net();
        let day = Day(100);
        // Partial sharing is probabilistic per prefix (addresses hash to
        // backends); check the aggregate over several prefixes.
        let prefixes: Vec<Prefix> = net
            .population()
            .aliased_groups(day)
            .filter(|g| {
                g.protos.contains(Protocol::Icmp)
                    && matches!(
                        g.kind,
                        GroupKind::Aliased { backends: BackendMode::LoadBalanced(_), .. }
                    )
            })
            .map(|g| g.prefix)
            .take(30)
            .collect();
        assert!(!prefixes.is_empty());
        net.reset_state();
        let (_, summary) = tbt_all(&net, &prefixes, day, 2);
        assert!(summary.successful > 0);
        assert!(
            summary.shared_partial > 0,
            "load-balanced pools must show partial sharing: {summary:?}"
        );
        assert_eq!(summary.shared_all, 0, "k>=2 backends cannot share fully: {summary:?}");
    }

    #[test]
    fn unresponsive_prefix_unsuitable() {
        let net = net();
        let r = too_big_trick(&net, "3fff:dead::/64".parse().unwrap(), Day(100), 1);
        assert_eq!(r.outcome, TbtOutcome::Unsuitable);
    }

    #[test]
    fn icmp_only_trafficforce_is_suitable() {
        // Trafficforce prefixes answer ICMP, which is all the TBT needs.
        let net = net();
        let day = sixdust_net::events::TRAFFICFORCE_FLOOD.plus(2);
        let tf = net.registry().by_asn(212144).unwrap();
        let p = net
            .population()
            .aliased_groups(day)
            .find(|g| g.asid == tf)
            .map(|g| g.prefix)
            .expect("trafficforce prefix");
        net.reset_state();
        let r = too_big_trick(&net, p, day, 3);
        assert_eq!(r.outcome, TbtOutcome::SharedAll);
    }

    #[test]
    fn aggregate_summary_counts_consistent() {
        let net = net();
        let day = Day(100);
        let prefixes: Vec<Prefix> =
            net.population().aliased_groups(day).map(|g| g.prefix).take(60).collect();
        net.reset_state();
        let (results, summary) = tbt_all(&net, &prefixes, day, 4);
        assert_eq!(results.len(), prefixes.len());
        assert_eq!(
            summary.successful + summary.unsuitable,
            prefixes.len(),
            "every prefix classified"
        );
        assert_eq!(
            summary.shared_all + summary.shared_none + summary.shared_partial,
            summary.successful
        );
    }
}
