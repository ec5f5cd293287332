//! Vantage-disagreement analysis.
//!
//! After every synchronized batch (all vantages scanned the same day),
//! the fleet merges the per-vantage responsive sets with
//! [`AddrSet`] union/intersection kernels and explains the difference:
//! every address responsive from at least one vantage but silent from
//! at least one other is grouped by its origin AS and classified.
//! `Gfw` means the origin sits behind the Great Firewall — foreign
//! vantages "see" the address through injected DNS answers while the
//! Chinese vantage's own probes are egress-filtered, the exact
//! visibility split the paper's cleaning filter exists for. Everything
//! else is `Fault`: per-vantage loss, outages, or rate-limiting that
//! happened to break differently across source networks.

use std::collections::BTreeMap;

use sixdust_addr::{Addr, AddrSet};
use sixdust_json::{json_enum, json_struct};
use sixdust_net::{AsRegistry, Day};

/// How many concrete example addresses each per-AS entry carries.
const SAMPLES_PER_AS: usize = 8;

/// Why a set of addresses looks responsive from one vantage and silent
/// from another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisagreementClass {
    /// Origin AS is behind the Great Firewall: injection makes the
    /// address visible from abroad, egress filtering hides it at home.
    Gfw,
    /// Plain per-vantage fault realization (loss, outage, rate limits).
    Fault,
}
json_enum!(DisagreementClass { Gfw, Fault });

/// One concrete disagreeing address with the split that condemned it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrSample {
    /// The address.
    pub addr: Addr,
    /// Vantage ASNs whose scans found it responsive this round.
    pub responsive_from: Vec<u32>,
    /// Vantage ASNs whose scans found it silent this round.
    pub silent_from: Vec<u32>,
}
json_struct!(AddrSample { addr, responsive_from, silent_from });

/// All disagreeing addresses originated by one AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsDisagreement {
    /// Origin AS number (`0` for addresses with no BGP origin).
    pub asn: u32,
    /// Origin country code (empty for unrouted space).
    pub country: String,
    /// The classification for this AS's disagreements.
    pub class: DisagreementClass,
    /// How many distinct addresses disagreed.
    pub addrs: u64,
    /// Up to eight (`SAMPLES_PER_AS`) example addresses, lowest first —
    /// deterministic because the union set iterates in address order.
    pub samples: Vec<AddrSample>,
}
json_struct!(AsDisagreement { asn, country, class, addrs, samples });

/// One synchronized batch's cross-vantage merge and disagreement
/// breakdown. Serialized as the `vantage_disagreement.json` artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VantageReport {
    /// The batch day.
    pub day: Day,
    /// Vantage ASNs that scanned this day, fleet order.
    pub vantages: Vec<u32>,
    /// `|union|` of the per-vantage responsive sets.
    pub union: u64,
    /// `|intersection|` of the per-vantage responsive sets.
    pub intersection: u64,
    /// `union - intersection`: addresses at least one vantage missed.
    pub disagreements: u64,
    /// Disagreements whose origin AS is behind the GFW.
    pub gfw_disagreements: u64,
    /// Per-origin-AS breakdown, ascending ASN.
    pub by_as: Vec<AsDisagreement>,
}
json_struct!(VantageReport {
    day,
    vantages,
    union,
    intersection,
    disagreements,
    gfw_disagreements,
    by_as
});

impl VantageReport {
    /// Builds the report for one synchronized batch from the raw
    /// (pre-cleaning) per-vantage responsive sets. `sets[i]` belongs to
    /// the vantage with ASN `vantage_asns[i]`; `registry` resolves
    /// origins (identical across the fleet's per-vantage worlds).
    pub fn build(
        day: Day,
        vantage_asns: &[u32],
        sets: &[AddrSet],
        registry: &AsRegistry,
    ) -> VantageReport {
        assert_eq!(vantage_asns.len(), sets.len());
        let mut union = AddrSet::new();
        for set in sets {
            union.union_in_place(set);
        }
        let intersection = match sets.split_first() {
            None => AddrSet::new(),
            Some((first, rest)) => {
                let mut acc = first.clone();
                for set in rest {
                    acc = acc.intersect(set);
                }
                acc
            }
        };
        let disagreeing = union.diff(&intersection);

        // Group by origin AS, iterating the diff set in address order so
        // the per-AS sample lists are deterministic.
        struct Entry {
            country: String,
            class: DisagreementClass,
            addrs: u64,
            samples: Vec<AddrSample>,
        }
        let mut by_as: BTreeMap<u32, Entry> = BTreeMap::new();
        for addr in disagreeing.addrs() {
            let (asn, country, behind_gfw) = match registry.origin(addr) {
                Some(id) => {
                    let info = registry.get(id);
                    (info.asn, info.country.clone(), info.behind_gfw())
                }
                None => (0, String::new(), false),
            };
            let entry = by_as.entry(asn).or_insert_with(|| Entry {
                country,
                class: if behind_gfw { DisagreementClass::Gfw } else { DisagreementClass::Fault },
                addrs: 0,
                samples: Vec::new(),
            });
            entry.addrs += 1;
            if entry.samples.len() < SAMPLES_PER_AS {
                let mut responsive_from = Vec::new();
                let mut silent_from = Vec::new();
                for (i, set) in sets.iter().enumerate() {
                    if set.contains_addr(addr) {
                        responsive_from.push(vantage_asns[i]);
                    } else {
                        silent_from.push(vantage_asns[i]);
                    }
                }
                entry.samples.push(AddrSample { addr, responsive_from, silent_from });
            }
        }

        let gfw_disagreements =
            by_as.values().filter(|e| e.class == DisagreementClass::Gfw).map(|e| e.addrs).sum();
        VantageReport {
            day,
            vantages: vantage_asns.to_vec(),
            union: union.len() as u64,
            intersection: intersection.len() as u64,
            disagreements: disagreeing.len() as u64,
            gfw_disagreements,
            by_as: by_as
                .into_iter()
                .map(|(asn, e)| AsDisagreement {
                    asn,
                    country: e.country,
                    class: e.class,
                    addrs: e.addrs,
                    samples: e.samples,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixdust_net::{Internet, Scale};

    fn set_of(addrs: &[Addr]) -> AddrSet {
        let mut sorted = addrs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        AddrSet::from_sorted_addrs(&sorted)
    }

    #[test]
    fn agreeing_sets_produce_no_disagreements() {
        let net = Internet::build(Scale::tiny());
        let addrs: Vec<Addr> =
            net.population().enumerate_responsive(Day(5)).iter().take(10).map(|e| e.0).collect();
        let sets = vec![set_of(&addrs), set_of(&addrs)];
        let report = VantageReport::build(Day(5), &[64496, 64497], &sets, net.registry());
        assert_eq!(report.union, report.intersection);
        assert_eq!(report.disagreements, 0);
        assert!(report.by_as.is_empty());
    }

    #[test]
    fn split_sets_classify_by_origin() {
        let net = Internet::build(Scale::tiny());
        let addrs: Vec<Addr> =
            net.population().enumerate_responsive(Day(5)).iter().take(6).map(|e| e.0).collect();
        let (shared, only_a) = addrs.split_at(4);
        let a = set_of(&[shared, only_a].concat());
        let b = set_of(shared);
        let report = VantageReport::build(Day(5), &[64496, 64497], &[a, b], net.registry());
        assert_eq!(report.disagreements, 2);
        let total: u64 = report.by_as.iter().map(|e| e.addrs).sum();
        assert_eq!(total, 2);
        for entry in &report.by_as {
            for sample in &entry.samples {
                assert_eq!(sample.responsive_from, vec![64496]);
                assert_eq!(sample.silent_from, vec![64497]);
            }
        }
    }
}
