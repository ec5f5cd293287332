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

use sixdust_addr::prf::{self, Keyed};
use sixdust_addr::Addr;

use crate::population::{GroupId, GroupKind, Population};
use crate::registry::{AsCategory, AsId, AsRegistry};
use crate::time::Day;

/// The domain sixdust "owns" for the validation experiment. The firewall
/// never blocks it, and its authoritative server records incoming queries.
pub const CONTROLLED_DOMAIN: &str = "sixdust-owned.test";

/// Domains per block of [`DnsZones::index`]: the block's working lists
/// stay in L1.
const INDEX_BLOCK: usize = 256;

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
    /// Alias groups of the AS (empty ⇒ hosted on regular servers).
    alias_groups: Vec<AliasGroup>,
    /// Server groups of the AS usable as stable targets.
    server_groups: Vec<ServerGroup>,
}

/// An alias group and how its answer pool moves, fixed when the zone is
/// built.
#[derive(Debug, Clone, Copy)]
struct AliasGroup {
    group: u32,
    /// Days between the pool's rotations; `None` for a static pool of
    /// eight.
    rotation: Option<u32>,
}

/// A server group and its member count (at least one).
#[derive(Debug, Clone, Copy)]
struct ServerGroup {
    group: u32,
    members: u64,
}

/// The zone's draw streams, one per fixed tag, keyed once when the zone
/// is built.
#[derive(Debug, Clone, Copy)]
struct Draws {
    /// `0xD0`: the hosting entry a domain or provider key lands in.
    entry: Keyed,
    /// `0xD1`: whether an alias pick takes the entry's first group.
    alias_head: Keyed,
    /// `0xD2`: an alias pick's group otherwise.
    alias_group: Keyed,
    /// `0xDC`: a static pool's slot.
    pool_slot: Keyed,
    /// `0xD3`: a server pick's group.
    server_group: Keyed,
    /// `0xD4`: a server pick's member.
    member: Keyed,
    /// `0xD5`: a domain's NS provider.
    ns_provider: Keyed,
    /// `0xD6`: whether an NS provider is hosted in aliased space.
    ns_aliased: Keyed,
    /// `0xD7`: a domain's MX provider.
    mx_provider: Keyed,
    /// `0xD8`: whether an MX provider is hosted in aliased space.
    mx_aliased: Keyed,
    /// `0xD9`: whether a top-list rank seeks an aliased-hosted domain.
    top_aliased: Keyed,
    /// `0xDB`: the domain a top-list rank names otherwise.
    top_domain: Keyed,
}

impl Draws {
    fn new(seed: u64) -> Draws {
        let key = |tag| Keyed::new(seed, tag);
        Draws {
            entry: key(0xD0),
            alias_head: key(0xD1),
            alias_group: key(0xD2),
            pool_slot: key(0xDC),
            server_group: key(0xD3),
            member: key(0xD4),
            ns_provider: key(0xD5),
            ns_aliased: key(0xD6),
            mx_provider: key(0xD7),
            mx_aliased: key(0xD8),
            top_aliased: key(0xD9),
            top_domain: key(0xDB),
        }
    }
}

/// The most cumulative weights one bucket of an [`EntryTable`] holds.
const BUCKET_SPAN: usize = 4;

/// The hosting entries' weights, cut so that a weight target finds its
/// entry without a search.
///
/// The weights `0..=total` fall into buckets of `2^shift`: the coarsest
/// cut whose every bucket holds at most [`BUCKET_SPAN`] of the entries'
/// cumulative weights. A target's bucket tells how many cumulatives lie
/// below the bucket, and comparing the next [`BUCKET_SPAN`] tells the
/// rest.
#[derive(Debug, Clone)]
struct EntryTable {
    /// Each entry's weight summed with those before it, ascending, then
    /// [`BUCKET_SPAN`] copies of `u64::MAX`.
    cumulative: Vec<u64>,
    /// How many cumulatives lie below each bucket.
    below: Vec<u32>,
    shift: u32,
}

impl EntryTable {
    /// The table over positive `weights`.
    fn new(weights: &[u64]) -> EntryTable {
        let mut cumulative: Vec<u64> = weights
            .iter()
            .scan(0u64, |sum, &weight| {
                *sum += weight;
                Some(*sum)
            })
            .collect();
        let total = cumulative.last().copied().unwrap_or(0);
        // At shift 0 no two distinct cumulatives share a bucket.
        let shift = (0..u64::BITS)
            .rev()
            .find(|&shift| {
                let runs = cumulative.chunk_by(|a, b| a >> shift == b >> shift);
                runs.map(<[u64]>::len).all(|run| run <= BUCKET_SPAN)
            })
            .expect("the weights are positive");
        let below = (0..=total >> shift)
            .map(|bucket| cumulative.partition_point(|&sum| sum >> shift < bucket) as u32)
            .collect();
        cumulative.extend([u64::MAX; BUCKET_SPAN]);
        EntryTable { cumulative, below, shift }
    }

    /// The entry a weight `target` falls in: the first whose cumulative
    /// weight is above it, or the last. Nothing branches on `target`.
    fn select(&self, target: u64) -> usize {
        let bucket = ((target >> self.shift) as usize).min(self.below.len() - 1);
        let first = self.below[bucket] as usize;
        let window = &self.cumulative[first..first + BUCKET_SPAN];
        let within: usize = window.iter().map(|&sum| usize::from(sum <= target)).sum();
        (first + within).min(self.cumulative.len() - BUCKET_SPAN - 1)
    }
}

/// The zone universe.
#[derive(Debug, Clone)]
pub struct DnsZones {
    entries: Vec<HostingEntry>,
    /// Where a weight draw lands among `entries`.
    table: EntryTable,
    total_weight: u64,
    total_domains: u64,
    toplist_len: u64,
    aliased_entry_idx: Vec<u32>,
    ns_providers: u64,
    seed: u64,
    draws: Draws,
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
        let mut weights = Vec::new();
        for (asid, info) in registry.iter() {
            let alias_domains: u64 = info.profile.aliased.iter().map(|s| s.domains).sum();
            let alias_groups = alias_by_as.get(&asid).map(Vec::as_slice).unwrap_or_default();
            let server_groups = servers_by_as.get(&asid).map(Vec::as_slice).unwrap_or_default();
            if alias_domains > 0 && !alias_groups.is_empty() {
                // Load-balancer addresses are a property of the *prefix*,
                // not the domain: every domain on the same prefix resolves
                // into the same small answer pool. Hyperscale clouds rotate
                // that pool every four days (each rotation mints one new
                // input address per prefix — the Amazon accumulation of
                // Sec. 4.1); narrow (>64) prefixes rotate weekly regardless
                // of operator (their small host space cycles visibly — also
                // what accumulates the 100+ input addresses the long-prefix
                // alias detection class needs); CDNs keep a static pool of
                // eight.
                let cloud = matches!(info.category, AsCategory::Cloud);
                let alias_groups = alias_groups
                    .iter()
                    .map(|&group| {
                        let len = population.group(GroupId(group)).prefix.len();
                        let rotation =
                            if cloud && len >= 64 { Some(4) } else { (len > 64).then_some(7) };
                        AliasGroup { group, rotation }
                    })
                    .collect();
                entries.push(HostingEntry { asid, alias_groups, server_groups: Vec::new() });
                weights.push(scale.addrs(alias_domains, 2));
            }
            if info.profile.domains > 0 && !server_groups.is_empty() {
                let server_groups = server_groups
                    .iter()
                    .map(|&group| {
                        let g = population.group(GroupId(group));
                        ServerGroup { group, members: g.pattern.count(g.prefix).max(1) }
                    })
                    .collect();
                entries.push(HostingEntry { asid, alias_groups: Vec::new(), server_groups });
                weights.push(scale.addrs(info.profile.domains, 2));
            }
        }
        let aliased_entry_idx = (0..entries.len() as u32)
            .filter(|&i| !entries[i as usize].alias_groups.is_empty())
            .collect();
        DnsZones {
            entries,
            table: EntryTable::new(&weights),
            total_weight: weights.iter().sum(),
            total_domains: scale.addrs(300_000_000, 3000),
            toplist_len: scale.addrs(1_000_000, 100),
            aliased_entry_idx,
            ns_providers: scale.addrs(520_000, 40),
            seed,
            draws: Draws::new(seed),
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

    /// The index of the hosting entry `key` draws.
    fn entry_index(&self, key: u64) -> usize {
        self.table.select(self.draws.entry.draw(u128::from(key)) % self.total_weight.max(1))
    }

    fn entry_for(&self, key: u64) -> &HostingEntry {
        &self.entries[self.entry_index(key)]
    }

    /// The day-free half of an answer: which host `key` names under
    /// `entry`.
    fn pick(&self, entry: &HostingEntry, key: u64) -> Pick {
        if entry.alias_groups.is_empty() {
            self.pick_member(entry, key)
        } else {
            self.pick_alias(entry, key)
        }
    }

    /// [`Self::pick`] under an entry hosted on alias groups.
    fn pick_alias(&self, entry: &HostingEntry, key: u64) -> Pick {
        let key = u128::from(key);
        // Head-heavy pick: a quarter of the weight lands on the first
        // group (Cloudflare's 3.94 M-domain /48 pattern).
        let head = self.draws.alias_head.draw(key).is_multiple_of(4);
        let any = self.draws.alias_group.draw(key) % entry.alias_groups.len() as u64;
        let AliasGroup { group, rotation } =
            entry.alias_groups[if head { 0 } else { any as usize }];
        match rotation {
            Some(period) => Pick::Rotating { group, period },
            None => Pick::Pooled { group, slot: (self.draws.pool_slot.draw(key) % 8) as u8 },
        }
    }

    /// [`Self::pick`] under an entry hosted on server groups.
    fn pick_member(&self, entry: &HostingEntry, key: u64) -> Pick {
        let key = u128::from(key);
        let servers = &entry.server_groups;
        let ServerGroup { group, members } =
            servers[(self.draws.server_group.draw(key) % servers.len() as u64) as usize];
        Pick::Member { group, member: self.draws.member.draw(key) % members }
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
        let pick = self.pick(entry, key);
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
    /// picked member or pool slot of a group, and the period of a picked
    /// rotating pool. No address is built for a repeated pick.
    ///
    /// The pass runs in blocks of [`INDEX_BLOCK`] domains, each in four
    /// loops:
    /// - draw every domain's entry through the [`EntryTable`] and append
    ///   the domain to both the alias-hosted and the server-hosted list,
    ///   advancing only the count of the list it belongs on, so that
    ///   nothing branches on the draw;
    /// - pick the alias-hosted list through [`Self::pick_alias`];
    /// - pick the server-hosted list through [`Self::pick_member`];
    /// - mark the block's picks.
    ///
    /// No pick branches on its entry's kind. Both halves are the ones
    /// [`Self::pick`] calls, so `resolve` and the index answer by one
    /// formula.
    pub(crate) fn index(&self, population: &Population) -> ZoneIndex {
        let groups = population.groups().len();
        let mut members: Vec<Vec<u64>> = vec![Vec::new(); groups];
        let mut slots = vec![0u8; groups];
        // A group's pool rotates on one period (its `AliasGroup`'s), or 0.
        let mut periods = vec![0u32; groups];
        let mut mark = |pick: Pick| match pick {
            Pick::Member { group, member } => {
                let words = &mut members[group as usize];
                let word = (member / 64) as usize;
                if words.len() <= word {
                    words.resize(word + 1, 0);
                }
                words[word] |= 1 << (member % 64);
            }
            Pick::Pooled { group, slot } => slots[group as usize] |= 1 << slot,
            Pick::Rotating { group, period } => periods[group as usize] = period,
        };
        // `(domain, entry)` pairs of the block, split by how the entry hosts.
        let mut alias = [(0u64, 0usize); INDEX_BLOCK];
        let mut server = [(0u64, 0usize); INDEX_BLOCK];
        let mut picks = [Pick::Pooled { group: 0, slot: 0 }; INDEX_BLOCK];
        for start in (0..self.total_domains).step_by(INDEX_BLOCK) {
            let end = self.total_domains.min(start + INDEX_BLOCK as u64);
            let (mut aliased, mut served) = (0, 0);
            for d in start..end {
                let e = self.entry_index(d);
                alias[aliased] = (d, e);
                server[served] = (d, e);
                let on_alias = !self.entries[e].alias_groups.is_empty();
                aliased += usize::from(on_alias);
                served += usize::from(!on_alias);
            }
            for (pick, &(d, e)) in picks.iter_mut().zip(&alias[..aliased]) {
                *pick = self.pick_alias(&self.entries[e], d);
            }
            for (pick, &(d, e)) in picks[aliased..].iter_mut().zip(&server[..served]) {
                *pick = self.pick_member(&self.entries[e], d);
            }
            picks[..aliased + served].iter().for_each(|&pick| mark(pick));
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
        let rotating = (0..groups as u32).zip(periods).filter(|&(_, period)| period > 0).collect();
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
        let provider = self.draws.ns_provider.draw(u128::from(d)) % self.ns_providers.max(1);
        let key = 0x4e50_0000_0000 | provider;
        if self.draws.ns_aliased.draw(u128::from(provider)) % 100 < 71 {
            if let Some(&idx) = self.aliased_entry_idx.first() {
                return self.resolve_entry(&self.entries[idx as usize], population, key, day);
            }
        }
        self.resolve_entry(self.entry_for(key), population, key, day)
    }

    /// Resolves the mail-exchanger host of domain `d` (same provider-pool
    /// structure as NS records).
    pub fn resolve_mx(&self, population: &Population, d: u64, day: Day) -> (Addr, DomainHost) {
        let provider = self.draws.mx_provider.draw(u128::from(d)) % (self.ns_providers / 2).max(1);
        let key = 0x4d58_0000_0000 | provider;
        if self.draws.mx_aliased.draw(u128::from(provider)) % 100 < 60 {
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
        if self.draws.top_aliased.draw(key) % 100 < aliased_pct {
            // Draw until the domain resolves into an aliased entry —
            // bounded deterministic retries.
            for attempt in 0..16u64 {
                let d = prf::prf_u128(self.seed, key, 0xDA ^ attempt) % self.total_domains;
                if !self.entry_for(d).alias_groups.is_empty() {
                    return d;
                }
            }
        }
        self.draws.top_domain.draw(key) % self.total_domains
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
        let mut h = sixdust_addr::digest::FnvHasher::new();
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
    fn the_dense_worlds_index_is_pinned() {
        // The world `service_dense` runs, and the tiny one beside it. No
        // block of 32 domains or more divides 15 000 or 750 000, so each
        // ends on a partial block. In the dense world every answer of that
        // block repeats an earlier domain's; in the tiny world some do not.
        // Computed by the one-domain-at-a-time pass the block kernel
        // replaced.
        for (mult, domains, digest) in
            [(1, 15_000, 0xd083b2e9ea44b006), (50, 750_000, 0xb48ae653001d69f3)]
        {
            let net = crate::Internet::build(Scale::tiny().with_population_mult(mult));
            assert_eq!(net.zones().total_domains(), domains);
            let index = net.zones().index(net.population());
            let mut h = sixdust_addr::digest::FnvHasher::new();
            index.fixed.iter().for_each(|a| h.push(a.0));
            for &(group, period) in &index.rotating {
                h.push(u128::from(group) << 32 | u128::from(period));
            }
            assert_eq!(h.finish(), digest, "population ×{mult}");
        }
    }

    #[test]
    fn entry_selection_is_partition_point() {
        // 30, 107 and 494 hosting entries.
        for scale in [Scale::tiny(), Scale::small(), Scale::paper()] {
            let r = AsRegistry::build(scale);
            let z = DnsZones::build(&r, &Population::build(&r));
            let cumulative = &z.table.cumulative[..z.entries.len()];
            let expected = |target: u64| {
                cumulative.partition_point(|&sum| sum <= target).min(cumulative.len() - 1)
            };
            let around = cumulative.iter().flat_map(|&sum| [sum.saturating_sub(1), sum, sum + 1]);
            for target in around.chain([0, z.total_weight - 1]) {
                assert_eq!(z.table.select(target), expected(target), "target {target}");
            }
        }
    }

    #[test]
    fn answers_are_pinned() {
        // Computed before `resolve_entry` was split into `pick` and
        // `materialise`: the split must answer as the one function did.
        assert_eq!(answers_digest(Scale::tiny()), 0x85bf36a0166d8a8e);
        assert_eq!(answers_digest(Scale::tiny().with_population_mult(5)), 0xf1be270efdee68ec);
    }
}
