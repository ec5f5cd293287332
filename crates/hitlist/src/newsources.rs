//! The new input sources evaluated in Sec. 6 and their scan harness.
//!
//! * **Passive sources** — NS/MX record targets (newly included by this
//!   paper), CAIDA-Ark-style traceroute addresses from a different vantage,
//!   and the DET snapshot.
//! * **Unresponsive addresses** — the 30-day-filtered pool, re-scanned once.
//! * **Target generation** — candidates from `sixdust-tga` seeded with the
//!   hitlist's cleaned responsive set.
//!
//! [`evaluate_source`] scans a candidate list with all five protocol
//! modules across several days (the paper aggregates four weeks of scans),
//! merges results, and applies the GFW cleaning filter.

use std::collections::BTreeMap;

use sixdust_addr::{prf, Addr, AddrSet, PrefixSet};
use sixdust_net::{Day, Internet, Protocol};
use sixdust_scan::{scan, ScanConfig};

use crate::filters::gfw_clean;

/// NS and MX record targets from the zone file (Sec. 6: "the name server
/// and mail exchanger domains were not explicitly included" before).
pub fn ns_mx_records(net: &Internet, day: Day) -> Vec<Addr> {
    let zones = net.zones();
    let pop = net.population();
    let mut out = Vec::new();
    for d in 0..zones.total_domains() {
        // Not every domain has resolvable NS/MX hosts with AAAA records;
        // sample a third.
        if d % 3 == 0 {
            out.push(zones.resolve_ns(pop, d, day).0);
        }
        if d % 7 == 0 {
            out.push(zones.resolve_mx(pop, d, day).0);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// CAIDA-Ark-style traceroute snapshot: router interfaces plus targets
/// observed from additional vantage points.
pub fn ark_snapshot(net: &Internet, day: Day) -> Vec<Addr> {
    let mut out = Vec::new();
    for pool in net.population().router_pools() {
        out.extend(pool.addrs_at(day));
    }
    // Academic-vantage extras: a thin slice of responsive hosts the
    // German vantage's sources happen not to carry (hidden dense clusters
    // are invisible to traceroute-based collection too).
    out.extend(
        net.population()
            .enumerate_responsive(day)
            .into_iter()
            .filter(|(a, ..)| {
                prf::chance(0xA47, a.0, 2, 1, 300) && !net.population().is_dense_member(*a)
            })
            .map(|(a, ..)| a),
    );
    out
}

/// The DET snapshot (Song et al. 2022): a one-time dump of responsive
/// addresses plus generated-but-dead candidates.
pub fn det_snapshot(net: &Internet, day: Day) -> Vec<Addr> {
    let mut out: Vec<Addr> = net
        .population()
        .enumerate_responsive(day)
        .into_iter()
        .filter(|(a, ..)| {
            prf::chance(0xDE7, a.0, 1, 1, 80) && !net.population().is_dense_member(*a)
        })
        .map(|(a, ..)| a)
        .collect();
    // Dead generated tails accompany the snapshot (DET mixes TGA output
    // into its published list).
    let n = out.len();
    let tails: Vec<Addr> =
        (0..n * 2).map(|i| out[i % n.max(1)].saturating_add(0x10_0000 + i as u128)).collect();
    out.extend(tails);
    out
}

/// The combined "passive sources" row of Table 3.
pub fn passive_sources(net: &Internet, day: Day) -> Vec<Addr> {
    let mut out = ns_mx_records(net, day);
    out.extend(ark_snapshot(net, day));
    out.extend(det_snapshot(net, day));
    out.sort_unstable();
    out.dedup();
    out
}

/// Result of evaluating one candidate source (a Table 3 + Table 4 row).
#[derive(Debug, Clone)]
pub struct SourceEval {
    /// Source label.
    pub name: String,
    /// Candidate count before filtering.
    pub candidates: usize,
    /// Candidates surviving the aliased-prefix and blocklist filters.
    pub scanned: usize,
    /// Responsive addresses per protocol (cleaned of GFW injections).
    pub per_proto: Vec<(Protocol, Vec<Addr>)>,
    /// Addresses responsive to at least one protocol.
    pub responsive: Vec<Addr>,
    /// Candidates whose DNS "responses" were GFW injections.
    pub gfw_filtered: usize,
}

impl SourceEval {
    /// Responsive count for one protocol.
    pub fn count(&self, proto: Protocol) -> usize {
        self.per_proto.iter().find(|(p, _)| *p == proto).map(|(_, v)| v.len()).unwrap_or(0)
    }

    /// The hit rate (responsive / scanned).
    pub fn hit_rate(&self) -> f64 {
        self.responsive.len() as f64 / self.scanned.max(1) as f64
    }
}

/// Scans a candidate source with every protocol module over several days,
/// merging results (the paper scans "multiple times across four weeks").
pub fn evaluate_source(
    net: &Internet,
    name: &str,
    candidates: &[Addr],
    aliased: &PrefixSet,
    days: &[Day],
    config: &ScanConfig,
) -> SourceEval {
    let targets: Vec<Addr> = {
        let mut t: Vec<Addr> =
            candidates.iter().filter(|a| !aliased.covers_addr(**a)).copied().collect();
        t.sort_unstable();
        t.dedup();
        t
    };
    let mut injected = AddrSet::new();
    let mut per_proto: Vec<(Protocol, AddrSet)> =
        Protocol::ALL.iter().map(|p| (*p, AddrSet::new())).collect();
    for &day in days {
        for (proto, hits) in &mut per_proto {
            let (clean, flagged) = gfw_clean(&scan(net, *proto, &targets, day, config));
            hits.union_in_place(&clean.into_iter().collect());
            injected.union_in_place(&flagged.into_iter().collect());
        }
    }
    let mut responsive = AddrSet::new();
    for (_, hits) in &per_proto {
        responsive.union_in_place(hits);
    }
    SourceEval {
        name: name.to_string(),
        candidates: candidates.len(),
        scanned: targets.len(),
        per_proto: per_proto.into_iter().map(|(p, hits)| (p, hits.to_addr_vec())).collect(),
        responsive: responsive.to_addr_vec(),
        gfw_filtered: injected.len(),
    }
}

/// Groups responsive addresses by AS and returns `(asn, name, count)` rows
/// sorted by count (Table 4's Top-AS columns, Fig. 8's distributions).
pub fn by_as(net: &Internet, addrs: &[Addr]) -> Vec<(u32, String, usize)> {
    let mut counts: BTreeMap<sixdust_net::AsId, usize> = BTreeMap::new();
    for a in addrs {
        if let Some(id) = net.registry().origin(*a) {
            *counts.entry(id).or_insert(0) += 1;
        }
    }
    let mut rows: Vec<(u32, String, usize)> = counts
        .into_iter()
        .map(|(id, n)| {
            let info = net.registry().get(id);
            (info.asn, info.name.clone(), n)
        })
        .collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    rows
}
