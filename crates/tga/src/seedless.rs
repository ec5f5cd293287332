//! Seedless discovery — the paper's future-work direction (Sec. 7).
//!
//! The paper closes by pointing at AddrMiner (Song et al., ATC 2022): a
//! system that finds candidates in ASes *without any seeds*, which is what
//! limits the hitlist to 62 % of announced prefixes. The mechanism behind
//! the seedless mode is transferable knowledge: addresses across
//! organizations concentrate on a small set of conventions (`::1`, low
//! counters, service ports, subnet 0/1), so probing those conventions in
//! every uncovered announced prefix recovers targets at a usable rate.
//!
//! [`Seedless`] implements that transfer: it mines the *global* IID
//! convention distribution from whatever seeds exist anywhere, then emits
//! the top conventions into announced prefixes that have no seeds at all.

use std::collections::{BTreeSet, HashMap};

use sixdust_addr::Addr;
use sixdust_addr::Prefix;

use crate::corpus::dedup_excluding;

/// Seedless generator configuration.
#[derive(Debug, Clone)]
pub struct Seedless {
    /// Candidate conventions emitted per uncovered /64.
    pub per_subnet: usize,
    /// Subnets tried per uncovered announced prefix (subnet ids 0..n).
    pub subnets_per_prefix: u64,
}

impl Default for Seedless {
    fn default() -> Seedless {
        Seedless { per_subnet: 4, subnets_per_prefix: 4 }
    }
}

/// The built-in convention fallback, by global prevalence.
const FALLBACK_IIDS: [u64; 8] = [0x1, 0x2, 0x3, 0x53, 0x80, 0x443, 0x10, 0x100];

impl Seedless {
    /// Mines the most common IIDs across the seed corpus (the transferable
    /// knowledge), most frequent first, falling back to the built-ins.
    pub fn mine_conventions(seeds: &[Addr], top: usize) -> Vec<u64> {
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for a in seeds {
            let iid = a.iid();
            // Only small, convention-looking IIDs transfer across orgs.
            if iid > 0 && iid < 0x1_0000 {
                *counts.entry(iid).or_insert(0) += 1;
            }
        }
        let mut ranked: Vec<(u64, u64)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out: Vec<u64> = ranked.into_iter().map(|(iid, _)| iid).take(top).collect();
        for f in FALLBACK_IIDS {
            if out.len() >= top {
                break;
            }
            if !out.contains(&f) {
                out.push(f);
            }
        }
        out
    }

    /// Announced prefixes with no seed inside (the uncovered 38 %).
    pub fn uncovered<'a>(
        announced: impl Iterator<Item = Prefix> + 'a,
        seeds: &[Addr],
    ) -> Vec<Prefix> {
        let sorted: BTreeSet<Addr> = seeds.iter().copied().collect();
        announced
            .filter(|p| {
                // No seed within [network, last].
                sorted.range(p.network()..=p.last()).next().is_none()
            })
            .collect()
    }

    /// Generates candidates for uncovered announced prefixes.
    pub fn generate_for(
        &self,
        announced: impl Iterator<Item = Prefix>,
        seeds: &[Addr],
        budget: usize,
    ) -> Vec<Addr> {
        let conventions = Seedless::mine_conventions(seeds, self.per_subnet);
        let uncovered = Seedless::uncovered(announced, seeds);
        let mut out = Vec::new();
        'outer: for p in uncovered {
            // Try the first few /64 subnets of the prefix (subnet ids
            // 0..n at the /64 boundary), emitting each convention.
            for subnet in 0..self.subnets_per_prefix {
                let base = if p.len() >= 64 {
                    p.network()
                } else {
                    Addr(p.network().0 | (u128::from(subnet) << 64))
                };
                for iid in conventions.iter().take(self.per_subnet) {
                    if out.len() >= budget {
                        break 'outer;
                    }
                    out.push(base.with_iid(*iid));
                }
                if p.len() >= 64 {
                    break; // a /64+ prefix has exactly one subnet
                }
            }
        }
        dedup_excluding(out, seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn mines_conventions_by_frequency() {
        let mut seeds = Vec::new();
        for net in 0..10u128 {
            let base = (0x2001_0db8u128 + net) << 96;
            seeds.push(Addr(base | 0x1)); // universal
            if net % 2 == 0 {
                seeds.push(Addr(base | 0x53)); // common
            }
            if net == 0 {
                seeds.push(Addr(base | 0x9999)); // rare
            }
        }
        let conv = Seedless::mine_conventions(&seeds, 3);
        assert_eq!(conv[0], 0x1);
        assert_eq!(conv[1], 0x53);
    }

    #[test]
    fn fallback_when_no_seeds() {
        let conv = Seedless::mine_conventions(&[], 4);
        assert_eq!(conv, vec![0x1, 0x2, 0x3, 0x53]);
    }

    #[test]
    fn uncovered_detection() {
        let announced = vec![p("2001:db8::/32"), p("2001:db9::/32")];
        let seeds = vec![Addr((0x2001_0db8u128 << 96) | 0x42)];
        let un = Seedless::uncovered(announced.into_iter(), &seeds);
        assert_eq!(un, vec![p("2001:db9::/32")]);
    }

    #[test]
    fn generates_only_into_uncovered_space() {
        let announced = vec![p("2001:db8::/32"), p("2001:db9::/32")];
        let seeds = vec![Addr((0x2001_0db8u128 << 96) | 0x1)];
        let gen = Seedless::default().generate_for(announced.into_iter(), &seeds, 1000);
        assert!(!gen.is_empty());
        for a in &gen {
            assert!(p("2001:db9::/32").contains(*a), "{a} must be in the uncovered prefix");
        }
        // Conventions learned from the covered AS transfer over.
        assert!(gen.contains(&Addr((0x2001_0db9u128 << 96) | 0x1)));
    }

    #[test]
    fn budget_respected() {
        let announced: Vec<Prefix> =
            (0..50u128).map(|i| Prefix::new(Addr((0x2400 + i) << 100), 32)).collect();
        let gen = Seedless::default().generate_for(announced.into_iter(), &[], 37);
        assert!(gen.len() <= 37);
    }

    #[test]
    fn narrow_prefixes_single_subnet() {
        let announced = vec![p("2001:db9:0:1::/64")];
        let gen = Seedless { per_subnet: 2, subnets_per_prefix: 8 }.generate_for(
            announced.into_iter(),
            &[],
            100,
        );
        // Only one /64 exists; two conventions emitted.
        assert_eq!(gen.len(), 2);
        for a in &gen {
            assert!(p("2001:db9:0:1::/64").contains(*a));
        }
    }
}
