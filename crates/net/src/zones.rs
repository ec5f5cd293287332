//! The simulated DNS namespace: domains, their hosting, NS/MX records and
//! ranked top lists.
//!
//! Feeds three parts of the reproduction:
//!
//! * the hitlist's **domain resolution input source** (AAAA records, plus
//!   the NS/MX extension this paper adds in Sec. 6),
//! * the **aliased-prefix domain analysis** (Sec. 5.2: 15 M domains inside
//!   aliased prefixes, Cloudflare's 3.94 M-domain /48, top-list presence),
//! * the **controlled-domain validation experiment** (Sec. 4.2).

use sixdust_addr::{prf, Addr};

use crate::population::{GroupId, GroupKind, Population};
use crate::registry::{AsCategory, AsId, AsRegistry};
use crate::time::Day;

/// The domain sixdust "owns" for the validation experiment. The firewall
/// never blocks it, and its authoritative server records incoming queries.
pub const CONTROLLED_DOMAIN: &str = "sixdust-owned.test";

/// Where a domain's AAAA record points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainHost {
    /// Origin AS of the record target.
    pub asid: AsId,
    /// The aliased group containing the target, when the domain is hosted
    /// on a fully responsive prefix.
    pub aliased: Option<GroupId>,
}

#[derive(Debug, Clone)]
struct HostingEntry {
    asid: AsId,
    /// Hyperscale clouds rotate their load-balancer addresses every four
    /// days (the Amazon-style input accumulation); CDNs answer from a
    /// small static pool per prefix.
    fast_rotation: bool,
    /// Alias groups of the AS (empty ⇒ hosted on regular servers).
    alias_groups: Vec<u32>,
    /// Server groups of the AS usable as stable targets.
    server_groups: Vec<u32>,
    weight: u64,
    cumulative: u64,
}

/// The zone universe.
#[derive(Debug, Clone)]
pub struct DnsZones {
    entries: Vec<HostingEntry>,
    total_weight: u64,
    total_domains: u64,
    toplist_len: u64,
    aliased_entry_idx: Vec<u32>,
    ns_providers: u64,
    seed: u64,
}

/// Which host a resolution key names, before the day is known.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// Member `member` of a server group: the same address every day.
    Member { group: u32, member: u64 },
    /// Slot `slot` of an alias group's static answer pool of eight.
    Pooled { group: u32, slot: u8 },
    /// An alias group's one current answer, replaced every `period` days.
    Rotating { group: u32, period: u32 },
}

/// The zone's distinct AAAA answers: what one walk over every domain
/// resolves to, without the repeats. Holds no day — a walk materialises
/// the rotating pools for the day it is asked about.
#[derive(Debug)]
pub(crate) struct ZoneIndex {
    /// Every answer that is the same on every day, ascending.
    fixed: Vec<Addr>,
    /// The `(group, period)` of every pool whose answer moves, ascending.
    rotating: Vec<(u32, u32)>,
}

impl DnsZones {
    /// Builds the namespace from the registry and population.
    pub fn build(registry: &AsRegistry, population: &Population) -> DnsZones {
        let scale = registry.scale();
        let seed = prf::mix2(scale.seed, 0x20E5);

        // Index groups per AS.
        let mut alias_by_as: std::collections::HashMap<AsId, Vec<u32>> = Default::default();
        let mut servers_by_as: std::collections::HashMap<AsId, Vec<u32>> = Default::default();
        for g in population.groups() {
            match g.kind {
                GroupKind::Aliased { .. } => alias_by_as.entry(g.asid).or_default().push(g.id),
                GroupKind::Servers => servers_by_as.entry(g.asid).or_default().push(g.id),
                _ => {}
            }
        }

        let mut entries = Vec::new();
        for (asid, info) in registry.iter() {
            let alias_domains: u64 = info.profile.aliased.iter().map(|s| s.domains).sum();
            let alias_groups = alias_by_as.get(&asid).cloned().unwrap_or_default();
            let server_groups = servers_by_as.get(&asid).cloned().unwrap_or_default();
            if alias_domains > 0 && !alias_groups.is_empty() {
                entries.push(HostingEntry {
                    asid,
                    fast_rotation: matches!(info.category, AsCategory::Cloud),
                    alias_groups: alias_groups.clone(),
                    server_groups: server_groups.clone(),
                    weight: scale.addrs(alias_domains, 2),
                    cumulative: 0,
                });
            }
            if info.profile.domains > 0 && !server_groups.is_empty() {
                entries.push(HostingEntry {
                    asid,
                    fast_rotation: false,
                    alias_groups: Vec::new(),
                    server_groups,
                    weight: scale.addrs(info.profile.domains, 2),
                    cumulative: 0,
                });
            }
        }
        let mut cum = 0u64;
        let mut aliased_entry_idx = Vec::new();
        for (i, e) in entries.iter_mut().enumerate() {
            cum += e.weight;
            e.cumulative = cum;
            if !e.alias_groups.is_empty() {
                aliased_entry_idx.push(i as u32);
            }
        }
        DnsZones {
            entries,
            total_weight: cum,
            total_domains: scale.addrs(300_000_000, 3000),
            toplist_len: scale.addrs(1_000_000, 100),
            aliased_entry_idx,
            ns_providers: scale.addrs(520_000, 40),
            seed,
        }
    }

    /// Number of registered domains.
    pub fn total_domains(&self) -> u64 {
        self.total_domains
    }

    /// Length of each of the three top lists.
    pub fn toplist_len(&self) -> u64 {
        self.toplist_len
    }

    /// The DNS name of domain `d`.
    pub fn domain_name(&self, d: u64) -> String {
        format!("www.d{d}.sim-zone{}.example", d % 13)
    }

    fn entry_for(&self, key: u64) -> &HostingEntry {
        let target = prf::prf_u128(self.seed, u128::from(key), 0xD0) % self.total_weight.max(1);
        let i =
            self.entries.partition_point(|e| e.cumulative <= target).min(self.entries.len() - 1);
        &self.entries[i]
    }

    /// The day-free half of an answer: which host `key` names under
    /// `entry`.
    fn pick(&self, entry: &HostingEntry, population: &Population, key: u64) -> Pick {
        if !entry.alias_groups.is_empty() {
            // Head-heavy pick: a quarter of the weight lands on the first
            // group (Cloudflare's 3.94 M-domain /48 pattern).
            let group = if prf::chance(self.seed, u128::from(key), 0xD1, 1, 4) {
                entry.alias_groups[0]
            } else {
                let j =
                    prf::uniform(self.seed, u128::from(key), 0xD2, entry.alias_groups.len() as u64);
                entry.alias_groups[j as usize]
            };
            let g = population.group(GroupId(group));
            // Load-balancer addresses are a property of the *prefix*, not
            // the domain: every domain on the same prefix resolves into the
            // same small answer pool. Hyperscale clouds rotate that pool
            // every four days (each rotation mints one new input address
            // per prefix — the Amazon accumulation of Sec. 4.1); narrow
            // (>64) prefixes rotate weekly regardless of operator (their
            // small host space cycles visibly — also what accumulates the
            // 100+ input addresses the long-prefix alias detection class
            // needs); CDNs keep a static pool of eight.
            if entry.fast_rotation && g.prefix.len() >= 64 {
                Pick::Rotating { group, period: 4 }
            } else if g.prefix.len() > 64 {
                Pick::Rotating { group, period: 7 }
            } else {
                let slot = (prf::prf_u128(self.seed, u128::from(key), 0xDC) % 8) as u8;
                Pick::Pooled { group, slot }
            }
        } else {
            let group = entry.server_groups[(prf::prf_u128(self.seed, u128::from(key), 0xD3)
                % entry.server_groups.len() as u64)
                as usize];
            let g = population.group(GroupId(group));
            let n = g.pattern.count(g.prefix).max(1);
            Pick::Member { group, member: prf::uniform(self.seed, u128::from(key), 0xD4, n) }
        }
    }

    /// The address `pick` stands for on `day`.
    fn materialise(&self, population: &Population, pick: Pick, day: Day) -> Addr {
        let pool_answer = |group: u32, slot: u64| {
            let group_key = prf::mix2(self.seed, u64::from(group));
            population.group(GroupId(group)).prefix.random_addr(prf::mix2(group_key, slot))
        };
        match pick {
            Pick::Member { group, member } => {
                let g = population.group(GroupId(group));
                g.pattern.member_addr(g.prefix, member)
            }
            Pick::Pooled { group, slot } => pool_answer(group, u64::from(slot)),
            Pick::Rotating { group, period } => pool_answer(group, u64::from(day.0 / period)),
        }
    }

    fn resolve_entry(
        &self,
        entry: &HostingEntry,
        population: &Population,
        key: u64,
        day: Day,
    ) -> (Addr, DomainHost) {
        let pick = self.pick(entry, population, key);
        let aliased = match pick {
            Pick::Member { .. } => None,
            Pick::Pooled { group, .. } | Pick::Rotating { group, .. } => Some(GroupId(group)),
        };
        (self.materialise(population, pick, day), DomainHost { asid: entry.asid, aliased })
    }

    /// Resolves domain `d`'s AAAA record at `day`.
    pub fn resolve(&self, population: &Population, d: u64, day: Day) -> (Addr, DomainHost) {
        debug_assert!(d < self.total_domains);
        self.resolve_entry(self.entry_for(d), population, d, day)
    }

    /// One pass over the domains, marking what each one picks: a bit per
    /// picked member or pool slot of a group, and the rotating pools as a
    /// short sorted list. No address is built for a repeated pick.
    pub(crate) fn index(&self, population: &Population) -> ZoneIndex {
        let groups = population.groups().len();
        let mut members: Vec<Vec<u64>> = vec![Vec::new(); groups];
        let mut slots = vec![0u8; groups];
        let mut rotating: Vec<(u32, u32)> = Vec::new();
        for d in 0..self.total_domains {
            match self.pick(self.entry_for(d), population, d) {
                Pick::Member { group, member } => {
                    let words = &mut members[group as usize];
                    let word = (member / 64) as usize;
                    if words.len() <= word {
                        words.resize(word + 1, 0);
                    }
                    words[word] |= 1 << (member % 64);
                }
                Pick::Pooled { group, slot } => slots[group as usize] |= 1 << slot,
                Pick::Rotating { group, period } => {
                    if let Err(at) = rotating.binary_search(&(group, period)) {
                        rotating.insert(at, (group, period));
                    }
                }
            }
        }
        let mut fixed = Vec::new();
        let day = Day(0); // a fixed answer does not read it
        for (group, (words, slots)) in members.iter().zip(&slots).enumerate() {
            let group = group as u32;
            for (word, bits) in words.iter().enumerate() {
                for bit in (0..64).filter(|bit| (bits >> bit) & 1 == 1) {
                    let member = word as u64 * 64 + bit;
                    fixed.push(self.materialise(population, Pick::Member { group, member }, day));
                }
            }
            for slot in (0..8).filter(|slot| (slots >> slot) & 1 == 1) {
                fixed.push(self.materialise(population, Pick::Pooled { group, slot }, day));
            }
        }
        // Two picks may name one address.
        fixed.sort_unstable();
        fixed.dedup();
        fixed.shrink_to_fit();
        ZoneIndex { fixed, rotating }
    }

    /// Feeds `sink` every distinct answer of `index` on `day`.
    pub(crate) fn walk(
        &self,
        population: &Population,
        index: &ZoneIndex,
        day: Day,
        mut sink: impl FnMut(Addr),
    ) {
        index.fixed.iter().copied().for_each(&mut sink);
        for &(group, period) in &index.rotating {
            sink(self.materialise(population, Pick::Rotating { group, period }, day));
        }
    }

    /// Resolves the name-server host of domain `d`. NS hosting is heavily
    /// concentrated on a provider pool, 71 % of which resolves into the
    /// Amazon-style aliased space (Sec. 6.1).
    pub fn resolve_ns(&self, population: &Population, d: u64, day: Day) -> (Addr, DomainHost) {
        let provider = prf::prf_u128(self.seed, u128::from(d), 0xD5) % self.ns_providers.max(1);
        let key = 0x4e50_0000_0000 | provider;
        if prf::chance(self.seed, u128::from(provider), 0xD6, 71, 100) {
            if let Some(&idx) = self.aliased_entry_idx.first() {
                return self.resolve_entry(&self.entries[idx as usize], population, key, day);
            }
        }
        self.resolve_entry(self.entry_for(key), population, key, day)
    }

    /// Resolves the mail-exchanger host of domain `d` (same provider-pool
    /// structure as NS records).
    pub fn resolve_mx(&self, population: &Population, d: u64, day: Day) -> (Addr, DomainHost) {
        let provider =
            prf::prf_u128(self.seed, u128::from(d), 0xD7) % (self.ns_providers / 2).max(1);
        let key = 0x4d58_0000_0000 | provider;
        if prf::chance(self.seed, u128::from(provider), 0xD8, 60, 100) {
            if let Some(&idx) = self.aliased_entry_idx.first() {
                return self.resolve_entry(&self.entries[idx as usize], population, key, day);
            }
        }
        self.resolve_entry(self.entry_for(key), population, key, day)
    }

    /// The domain at `rank` (0-based) of top list `list` (0 = Alexa-like,
    /// 1 = Majestic-like, 2 = Umbrella-like). Top lists over-sample
    /// CDN-hosted (aliased) domains relative to the full zone.
    pub fn toplist_domain(&self, list: u8, rank: u64) -> u64 {
        debug_assert!(rank < self.toplist_len);
        let key = (u128::from(list) << 64) | u128::from(rank);
        // Umbrella-like lists skew to infrastructure, fewer aliased hits.
        let aliased_pct: u64 = match list {
            2 => 12,
            _ => 18,
        };
        if prf::chance(self.seed, key, 0xD9, aliased_pct, 100) {
            // Draw until the domain resolves into an aliased entry —
            // bounded deterministic retries.
            for attempt in 0..16u64 {
                let d = prf::prf_u128(self.seed, key, 0xDA ^ attempt) % self.total_domains;
                if !self.entry_for(d).alias_groups.is_empty() {
                    return d;
                }
            }
        }
        prf::prf_u128(self.seed, key, 0xDB) % self.total_domains
    }

    /// Whether domain `d`'s hosting entry is an aliased deployment
    /// (cheap check without resolving the address).
    pub fn is_aliased_hosted(&self, d: u64) -> bool {
        !self.entry_for(d).alias_groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::AsRegistry;
    use crate::scale::Scale;

    fn setup() -> (AsRegistry, Population, DnsZones) {
        let r = AsRegistry::build(Scale::tiny());
        let p = Population::build(&r);
        let z = DnsZones::build(&r, &p);
        (r, p, z)
    }

    #[test]
    fn resolution_is_deterministic_within_week() {
        let (_, p, z) = setup();
        let (a1, h1) = z.resolve(&p, 42, Day(0));
        let (a2, h2) = z.resolve(&p, 42, Day(3));
        assert_eq!(a1, a2);
        assert_eq!(h1, h2);
    }

    #[test]
    fn aliased_hosted_domains_rotate_addresses() {
        let (r, p, z) = setup();
        // Cloud-hosted (Amazon-style) domains rotate weekly; CDN-hosted
        // ones answer from a static pool. Find one of each behaviour.
        let mut saw_rotation = false;
        let mut saw_static = false;
        for d in 0..z.total_domains() {
            if !z.is_aliased_hosted(d) {
                continue;
            }
            let (a1, h1) = z.resolve(&p, d, Day(0));
            let (a2, h2) = z.resolve(&p, d, Day(21));
            assert!(h1.aliased.is_some());
            assert_eq!(h1.aliased, h2.aliased, "same prefix");
            let g = p.group(h1.aliased.unwrap());
            assert!(g.prefix.contains(a1) && g.prefix.contains(a2));
            let cloud = matches!(r.get(h1.asid).category, crate::registry::AsCategory::Cloud);
            if cloud && g.prefix.len() >= 64 {
                assert_ne!(a1, a2, "cloud LB rotates weekly (domain {d})");
                saw_rotation = true;
            } else if a1 == a2 {
                saw_static = true;
            }
            if saw_rotation && saw_static {
                break;
            }
        }
        assert!(saw_rotation, "no rotating cloud-hosted domain found");
        assert!(saw_static, "no static CDN-hosted domain found");
    }

    #[test]
    fn server_hosted_domains_are_stable() {
        let (_, p, z) = setup();
        let d = (0..z.total_domains())
            .find(|d| !z.is_aliased_hosted(*d))
            .expect("some server-hosted domain");
        let (a1, _) = z.resolve(&p, d, Day(0));
        let (a2, _) = z.resolve(&p, d, Day(500));
        assert_eq!(a1, a2);
    }

    #[test]
    fn aliased_share_of_zone_near_five_percent() {
        let (_, _, z) = setup();
        let n = z.total_domains().min(20_000);
        let aliased = (0..n).filter(|d| z.is_aliased_hosted(*d)).count() as f64 / n as f64;
        // At the tiny test scale most filler hosting ASes round to zero
        // servers and lose their zone weight, inflating the aliased share
        // well above the paper-scale ~5 % (verified in EXPERIMENTS.md).
        assert!((0.01..0.35).contains(&aliased), "aliased share {aliased}");
    }

    #[test]
    fn toplists_oversample_aliased() {
        let (_, _, z) = setup();
        let n = z.toplist_len();
        let top_aliased = (0..n).filter(|r| z.is_aliased_hosted(z.toplist_domain(0, *r))).count()
            as f64
            / n as f64;
        let base = (0..z.total_domains().min(20_000)).filter(|d| z.is_aliased_hosted(*d)).count()
            as f64
            / z.total_domains().min(20_000) as f64;
        assert!(top_aliased > base, "toplist {top_aliased} vs zone {base}");
    }

    #[test]
    fn ns_records_concentrate_on_aliased_providers() {
        let (_, p, z) = setup();
        let n = 500;
        let aliased = (0..n).filter(|d| z.resolve_ns(&p, *d, Day(0)).1.aliased.is_some()).count()
            as f64
            / n as f64;
        assert!(aliased > 0.5, "NS aliased share {aliased}");
    }

    #[test]
    fn resolved_addresses_have_bgp_origin() {
        let (r, p, z) = setup();
        for d in 0..200 {
            let (addr, host) = z.resolve(&p, d, Day(10));
            assert_eq!(r.origin(addr), Some(host.asid), "domain {d}");
        }
    }

    #[test]
    fn domain_names_are_never_blocked() {
        let (_, _, z) = setup();
        for d in 0..1000 {
            assert!(!crate::gfw::Gfw::is_blocked(&z.domain_name(d)));
        }
    }

    #[test]
    fn the_zone_walk_is_every_distinct_answer() {
        use crate::Internet;
        // Days 3 → 4 and 7 → 8 cross a `day / 4` rotation, 6 → 7 a
        // `day / 7` one.
        let days = [0, 3, 4, 6, 7, 8, 21, 400, Day::PAPER_END.0].map(Day);
        let second_world = Scale { seed: 0x5eed, ..Scale::tiny() };
        for scale in [Scale::tiny(), Scale::tiny().with_population_mult(5), second_world] {
            // One simulator for every day: its index holds none of them.
            let net = Internet::build(scale);
            let (p, z) = (net.population(), net.zones());
            let index = z.index(p);
            assert!(index.fixed.windows(2).all(|w| w[0] < w[1]), "ascending, no address twice");
            assert!(index.rotating.windows(2).all(|w| w[0] < w[1]));
            let mut walks = Vec::new();
            for day in days {
                let mut walked = Vec::new();
                net.for_each_zone_answer(day, |a| walked.push(a));
                assert!((walked.len() as u64) < z.total_domains() / 2, "{} offered", walked.len());
                walked.sort_unstable();
                walked.dedup();
                let mut resolved: Vec<Addr> =
                    (0..z.total_domains()).map(|d| z.resolve(p, d, day).0).collect();
                resolved.sort_unstable();
                resolved.dedup();
                assert_eq!(walked, resolved, "seed {:#x}, {day:?}", scale.seed);
                walks.push(walked);
            }
            assert_eq!(walks[0], walks[1], "days 0 and 3 share every rotation slot");
            assert_ne!(walks[1], walks[2], "the cloud pools moved between days 3 and 4");
        }
    }

    /// FNV-1a over every answer `resolve`, `resolve_ns` and `resolve_mx`
    /// give the first 2 000 domains on three days, hosts included.
    fn answers_digest(scale: Scale) -> u64 {
        let r = AsRegistry::build(scale);
        let p = Population::build(&r);
        let z = DnsZones::build(&r, &p);
        let mut h = sixdust_addr::digest::ContentHasher::new();
        for day in [Day(0), Day(9), Day(1000)] {
            for d in 0..2_000 {
                for (addr, host) in
                    [z.resolve(&p, d, day), z.resolve_ns(&p, d, day), z.resolve_mx(&p, d, day)]
                {
                    h.push(addr.0);
                    h.push(u128::from(host.asid.0));
                    h.push(host.aliased.map_or(u128::MAX, |g| u128::from(g.0)));
                }
            }
        }
        h.finish()
    }

    #[test]
    fn answers_are_pinned() {
        // Computed before `resolve_entry` was split into `pick` and
        // `materialise`: the split must answer as the one function did.
        assert_eq!(answers_digest(Scale::tiny()), 0x85bf36a0166d8a8e);
        assert_eq!(answers_digest(Scale::tiny().with_population_mult(5)), 0xf1be270efdee68ec);
    }
}
