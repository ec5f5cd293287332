//! The generative host population of the simulated Internet.
//!
//! Built deterministically from the [`AsRegistry`]: every AS profile is
//! translated into *subnet groups* (servers, dense hidden clusters, flaky
//! hosts, DNS servers, fully responsive prefixes) plus per-AS CPE fleets
//! and router pools. The population answers the central question of the
//! whole simulation — "who, if anyone, is behind this address on this
//! day?" — in O(trie lookup) without storing per-address state.
//!
//! ## Address layout within an AS
//!
//! Announced space is carved into 256 `/40` slots per announced `/32`.
//! A slot allocator hands slots to, in order: coverage-style aliased
//! prefixes (plen ≤ 40, aligned), bulk aliased prefixes (plen > 40, packed
//! by capacity), then one slot each for servers, dense clusters, flaky
//! hosts, DNS servers, the CPE region and the router region.

use sixdust_addr::{prf, Addr, Prefix, PrefixTrie};

use crate::fingerprint::{DnsBehavior, TcpFingerprint};
use crate::fleet::{CpeFleet, RouterPool};
use crate::proto::{ProtoSet, Protocol};
use crate::registry::{AsCategory, AsId, AsRegistry, BackendMode, ProtoMix};
use crate::time::Day;

/// Index of a subnet group in the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(pub u32);

/// What kind of hosts a group holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKind {
    /// Stable responsive servers (churny, growing).
    Servers,
    /// Dense incremental clusters invisible to passive sources.
    DenseHidden,
    /// Responsive early, then dark, with sparse revivals.
    Flaky,
    /// Dedicated UDP/53 responders.
    DnsServers,
    /// A fully responsive ("aliased") prefix.
    Aliased {
        /// Backend topology for the TBT.
        backends: BackendMode,
        /// First day the prefix answers.
        since: Day,
        /// Whether addresses show differing TCP window sizes (the 0.5 %
        /// heterogeneous cohort of Sec. 5.1).
        hetero_window: bool,
    },
}

/// A subnet group: a prefix, a member pattern and liveness parameters.
#[derive(Debug, Clone)]
pub struct SubnetGroup {
    /// Covering prefix (a /64 except for aliased groups).
    pub prefix: Prefix,
    /// Member layout.
    pub pattern: crate::pattern::AddrPattern,
    /// Host kind.
    pub kind: GroupKind,
    /// Owning AS.
    pub asid: AsId,
    /// Protocols: for servers a per-member draw from this mix; for aliased
    /// groups the fixed set.
    pub protos: ProtoSet,
    /// Protocol mix archetype for per-member draws (servers only).
    pub mix: ProtoMix,
    /// Fraction (percent) of members already active at day 0.
    pub start_pct: u8,
    /// Liveness epoch length in days.
    pub epoch_days: u32,
    /// Per-epoch uptime percentage.
    pub uptime_pct: u8,
    /// Percentage of members visible to passive sources (used by
    /// [`Population::dense_visible`] for [`GroupKind::DenseHidden`]).
    pub visible_pct: u8,
    /// Group id (self reference for PRF keying).
    pub id: u32,
}

impl SubnetGroup {
    /// The activation day of member `i` (growth model): `start_pct` of the
    /// members are active from day 0, the rest activate uniformly over the
    /// four-year window.
    pub fn activation_day(&self, seed: u64, member: u64) -> Day {
        let key = member ^ (u64::from(self.id) << 40);
        if prf::chance(seed, u128::from(key), 0x9C7, u64::from(self.start_pct), 100) {
            Day(0)
        } else {
            Day(prf::uniform(seed, u128::from(key), 0x9C8, u64::from(Day::PAPER_END.0)) as u32)
        }
    }

    /// Whether member `i` is alive (responsive) on `day`.
    pub fn member_alive(&self, seed: u64, member: u64, day: Day) -> bool {
        let key = u128::from(member) | (u128::from(self.id) << 80);
        match self.kind {
            GroupKind::Aliased { since, .. } => day >= since,
            GroupKind::Flaky => {
                // Alive during an initial window, then dark, reviving with
                // ~45 % duty in sparse later epochs (the Sec. 6 rescan pool).
                let act = prf::uniform(seed, key, 0xF1A, 650);
                let life = 45 + prf::uniform(seed, key, 0xF1B, 130);
                let d = u64::from(day.0);
                if d < act {
                    false
                } else if d < act + life {
                    true
                } else {
                    let epoch = (d - act - life) / 75;
                    prf::chance(seed, key, 0xF1C ^ epoch, 45, 100)
                }
            }
            GroupKind::Servers | GroupKind::DenseHidden | GroupKind::DnsServers => {
                if day < self.activation_day(seed, member) {
                    return false;
                }
                // Two cohorts: most members are near-always-on (long dark
                // runs are rare, so the 30-day filter rarely evicts them);
                // a flappy minority churns on short epochs and produces the
                // per-scan churn of Fig. 4.
                // Per-member phase offsets desynchronize epoch boundaries
                // so churn is spread over days instead of spiking.
                let phase = prf::uniform(seed, key, 0xA1F, 64) as u32;
                if prf::chance(seed, key, 0xA10, 22, 25) {
                    // Dark runs of the stable cohort stay under the 30-day
                    // filter window (a host that answers 97 % of epochs is
                    // essentially never evicted, matching the longevity of
                    // real server deployments).
                    let len = self.epoch_days.clamp(1, 14);
                    let epoch = u64::from((day.0 + phase) / len);
                    prf::chance(seed, key, 0xA11 ^ (epoch << 4), 97, 100)
                } else {
                    let epoch = u64::from((day.0 + phase) / 7);
                    prf::chance(
                        seed,
                        key,
                        0xA12 ^ (epoch << 4),
                        u64::from(self.uptime_pct.min(70)),
                        100,
                    )
                }
            }
        }
    }

    /// The protocol set of member `i`.
    pub fn member_protos(&self, seed: u64, member: u64) -> ProtoSet {
        match self.kind {
            GroupKind::Aliased { .. } => self.protos,
            GroupKind::DnsServers => {
                ProtoMix::DnsServer.draw(seed, u128::from(member) | (u128::from(self.id) << 80))
            }
            _ => self.mix.draw(seed, u128::from(member) | (u128::from(self.id) << 80)),
        }
    }
}

/// What lookup resolved an address to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostView {
    /// Stable backend identity (keys the PMTU cache and the fingerprint).
    pub backend_uid: u64,
    /// Owning AS.
    pub asid: AsId,
    /// Protocols this address answers *today*.
    pub protos: ProtoSet,
    /// TCP fingerprint of the backend.
    pub fingerprint: TcpFingerprint,
    /// DNS responder behaviour (when UDP/53 is answered).
    pub dns: Option<DnsBehavior>,
    /// The group, if the host belongs to one (CPE devices do not).
    pub group: Option<GroupId>,
}

/// What a prefix of the population index resolves to: an index into
/// `groups`, `routers` or `cpe`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    Group(u32),
    RouterPool(u32),
    CpeFleet(u32),
}

/// The full population.
#[derive(Debug, Clone)]
pub struct Population {
    groups: Vec<SubnetGroup>,
    cpe: Vec<CpeFleet>,
    routers: Vec<RouterPool>,
    /// Group prefixes, router regions and CPE regions in one table. Group
    /// prefixes may nest among themselves; a region nests with nothing
    /// ([`Population::assemble`] asserts it).
    index: PrefixTrie<Owner>,
    /// `routers` index of each AS's pool, by `AsId` (ASes registered
    /// after the build lie past the end and own none).
    router_of_as: Vec<Option<u32>>,
    seed: u64,
}

/// Per-AS /40 slot allocator.
struct SlotAlloc {
    slots: Vec<Prefix>, // all /40 slots in announcement order
    next: usize,
}

impl SlotAlloc {
    fn new(announced: &[Prefix]) -> SlotAlloc {
        let mut slots = Vec::new();
        for p in announced {
            match p.len() {
                32 => {
                    for i in 0..16 {
                        let p36 = p.nibble_subprefix(i);
                        for j in 0..16 {
                            slots.push(p36.nibble_subprefix(j));
                        }
                    }
                }
                28 => { /* whole-block announcements are aliased wholesale */ }
                other => panic!("unsupported announced prefix length /{other}"),
            }
        }
        SlotAlloc { slots, next: 0 }
    }

    fn take(&mut self) -> Prefix {
        let p = self
            .slots
            .get(self.next)
            .copied()
            .unwrap_or_else(|| panic!("AS ran out of /40 slots (allocated {})", self.next));
        self.next += 1;
        p
    }

    /// Takes a /36-aligned run of 16 slots and returns the covering /36.
    fn take_aligned_36(&mut self) -> Prefix {
        while !self.next.is_multiple_of(16) {
            self.next += 1;
        }
        let p = self.take();
        self.next += 15;
        p.trim(36)
    }
}

impl Population {
    /// Builds the population for a registry.
    pub fn build(registry: &AsRegistry) -> Population {
        let scale = registry.scale();
        let seed = scale.seed;
        let mut groups: Vec<SubnetGroup> = Vec::new();
        let mut cpe = Vec::new();
        let mut routers = Vec::new();

        let push_group = |groups: &mut Vec<SubnetGroup>, mut g: SubnetGroup| {
            g.id = groups.len() as u32;
            groups.push(g);
        };

        for (asid, info) in registry.iter() {
            let p = &info.profile;
            let mut alloc = SlotAlloc::new(&info.prefixes);
            let as_seed = prf::mix2(seed, u64::from(info.asn));

            // ---- aliased prefixes ----
            for (spec_idx, spec) in p.aliased.iter().enumerate() {
                let hetero = |gidx: u64| prf::chance(as_seed, u128::from(gidx), 0x4E7, 1, 200);
                if spec.plen == 28 {
                    // Whole-block aliases (EpicUp): one group per block.
                    for (i, block) in info.blocks.iter().enumerate() {
                        push_group(
                            &mut groups,
                            SubnetGroup {
                                prefix: *block,
                                pattern: crate::pattern::AddrPattern::FullPrefix,
                                kind: GroupKind::Aliased {
                                    backends: spec.backends,
                                    since: spec.since,
                                    hetero_window: hetero(i as u64),
                                },
                                asid,
                                protos: spec.protos,
                                mix: ProtoMix::Web,
                                start_pct: 100,
                                epoch_days: 30,
                                uptime_pct: 100,
                                visible_pct: 100,
                                id: 0,
                            },
                        );
                    }
                    continue;
                }
                let count =
                    if spec.count <= 16 { spec.count } else { scale.entities(spec.count, 4) };
                if spec.plen <= 40 {
                    // Coverage aliases: /36s (aligned) or /40 slots.
                    for i in 0..count {
                        let prefix =
                            if spec.plen == 36 { alloc.take_aligned_36() } else { alloc.take() };
                        push_group(
                            &mut groups,
                            SubnetGroup {
                                prefix,
                                pattern: crate::pattern::AddrPattern::FullPrefix,
                                kind: GroupKind::Aliased {
                                    backends: spec.backends,
                                    since: spec.since,
                                    hetero_window: hetero(i),
                                },
                                asid,
                                protos: spec.protos,
                                mix: ProtoMix::Web,
                                start_pct: 100,
                                epoch_days: 30,
                                uptime_pct: 100,
                                visible_pct: 100,
                                id: 0,
                            },
                        );
                    }
                } else {
                    // Bulk aliases: packed into /40 slots by capacity. New
                    // deployments appear over the window (the Fig. 5 growth
                    // from 12 k to 42.8 k labels): ~28 % exist at launch,
                    // the rest activate uniformly.
                    let cap: u64 = 1u64 << (spec.plen - 40).min(24);
                    let mut remaining = count;
                    while remaining > 0 {
                        let slot = alloc.take();
                        let here = remaining.min(cap);
                        for j in 0..here {
                            let net = Addr(
                                slot.network().0 | (u128::from(j) << (128 - u32::from(spec.plen))),
                            );
                            let gkey = net.0 >> 64;
                            let since = if spec.since > Day::LAUNCH {
                                spec.since
                            } else if prf::chance(as_seed, gkey, 0xA5E, 28, 100) {
                                Day(0)
                            } else {
                                Day(prf::uniform(as_seed, gkey, 0xA5F, u64::from(Day::PAPER_END.0))
                                    as u32)
                            };
                            push_group(
                                &mut groups,
                                SubnetGroup {
                                    prefix: Prefix::new(net, spec.plen),
                                    pattern: crate::pattern::AddrPattern::FullPrefix,
                                    kind: GroupKind::Aliased {
                                        backends: spec.backends,
                                        since,
                                        hetero_window: hetero(
                                            (u64::from(spec_idx as u32) << 32) | j,
                                        ),
                                    },
                                    asid,
                                    protos: spec.protos,
                                    mix: ProtoMix::Web,
                                    start_pct: 100,
                                    epoch_days: 30,
                                    uptime_pct: 100,
                                    visible_pct: 100,
                                    id: 0,
                                },
                            );
                        }
                        remaining -= here;
                    }
                }
            }

            // ---- servers ----
            let start_pct = (p.growth_start_frac * 100.0) as u8;
            let servers_n = scale.addrs_frac(p.responsive_servers, as_seed ^ 0x51);
            Self::build_member_groups(
                &mut groups,
                &mut alloc,
                asid,
                as_seed,
                servers_n,
                GroupKind::Servers,
                p.proto_mix,
                start_pct,
                10,
                86,
                0x51,
            );

            // ---- dense hidden clusters ----
            let dense_n = scale.addrs_frac(p.dense_hidden, as_seed ^ 0xDE);
            if dense_n > 0 {
                let region = alloc.take();
                let mut remaining = dense_n;
                let mut c = 0u64;
                while remaining > 0 {
                    let r = prf::prf_u128(as_seed, u128::from(c), 0xDE2);
                    let count = (40 + r % 760).min(remaining);
                    // Mean gap 4-12 between members: densely populated but
                    // not fully responsive (the Sec. 6 DC hit-rate shape).
                    let step = 4 + (r >> 32) % 9;
                    let base_iid = (r >> 40 & 0xfff) * 0x100;
                    let subnet = prf::prf_u128(as_seed, u128::from(c), 0xDE3) & 0xff_ffff;
                    let prefix =
                        Prefix::new(Addr(region.network().0 | (u128::from(subnet) << 64)), 64);
                    push_group(
                        &mut groups,
                        SubnetGroup {
                            prefix,
                            pattern: crate::pattern::AddrPattern::Jittered {
                                base_iid,
                                step,
                                count,
                                key: prf::mix2(as_seed, c),
                            },
                            kind: GroupKind::DenseHidden,
                            asid,
                            protos: ProtoSet::EMPTY,
                            mix: p.proto_mix,
                            start_pct,
                            epoch_days: 60,
                            uptime_pct: 96,
                            visible_pct: p.dense_visible_pct,
                            id: 0,
                        },
                    );
                    remaining -= count;
                    c += 1;
                }
            }

            // ---- flaky hosts ----
            let flaky_n = scale.addrs_frac(p.flaky_servers, as_seed ^ 0xF1);
            Self::build_member_groups(
                &mut groups,
                &mut alloc,
                asid,
                as_seed,
                flaky_n,
                GroupKind::Flaky,
                p.proto_mix,
                start_pct,
                10,
                86,
                0x52,
            );

            // ---- DNS servers ----
            let dns_n = scale.addrs_frac(p.dns_servers, as_seed ^ 0xD5);
            Self::build_member_groups(
                &mut groups,
                &mut alloc,
                asid,
                as_seed,
                dns_n,
                GroupKind::DnsServers,
                ProtoMix::DnsServer,
                start_pct.max(60),
                30,
                94,
                0x53,
            );

            // ---- CPE fleet ----
            let devices = scale.addrs_frac(p.cpe_devices, as_seed ^ 0xCE);
            let shared = if p.shared_mac_addrs == 0 {
                0
            } else {
                // Accumulated shared-MAC addresses = devices × epochs; with
                // fortnightly rotation over the window there are ~98 epochs.
                (scale.addrs(p.shared_mac_addrs, 98) / 98).max(2)
            };
            if devices + shared > 0 {
                let region = alloc.take();
                cpe.push(CpeFleet {
                    asid,
                    region,
                    devices: devices + shared,
                    shared_mac: shared,
                    oui: if p.shared_mac_addrs > 0 { 0x001422 } else { cpe_oui(info.asn) },
                    rotation_days: 14,
                    respond_pct: 28,
                    seed: as_seed,
                });
            }

            // ---- router pool ----
            let hops = if p.router_hops == 0 { 0 } else { scale.addrs(p.router_hops, 0) };
            if hops > 0 || matches!(info.category, AsCategory::Transit | AsCategory::Measurement) {
                let region = alloc.take();
                let mut rotation: u32 = match info.category {
                    AsCategory::ChineseIsp => 7,
                    AsCategory::Isp => 30,
                    _ => 0,
                };
                let epochs = Day::PAPER_END.0.checked_div(rotation).map_or(1, u64::from);
                // Accumulated distinct addresses ≈ slots × epochs; when the
                // scaled pool is too small to sustain rotation, model it as
                // a static set of exactly `hops` interfaces so the AS's
                // accumulated contribution stays proportional.
                let mut slots = hops / epochs;
                if slots == 0 {
                    rotation = 0;
                    slots = hops.max(2);
                }
                routers.push(RouterPool {
                    asid,
                    region,
                    slots,
                    rotation_days: rotation,
                    seed: as_seed,
                });
            }
        }

        Population::assemble(groups, cpe, routers, registry.len(), seed)
    }

    /// Indexes the generated groups, fleets and pools.
    ///
    /// # Panics
    ///
    /// Panics, naming the two prefixes, if a router or CPE region nests
    /// with (or equals) a group prefix or another region. That
    /// disjointness is what lets [`Population::lookup`] take the one
    /// longest match as the answer.
    fn assemble(
        groups: Vec<SubnetGroup>,
        cpe: Vec<CpeFleet>,
        routers: Vec<RouterPool>,
        as_count: usize,
        seed: u64,
    ) -> Population {
        // Regions first: a later prefix replaces an equal earlier one, so
        // a region that is also a fleet's or a group's prefix does not
        // resolve to itself below. Two groups may share a prefix (their
        // /64s are drawn); the later one answers, as it always did.
        let regions = (routers.iter().enumerate())
            .map(|(i, r)| (r.region, Owner::RouterPool(i as u32)))
            .chain(cpe.iter().enumerate().map(|(i, f)| (f.region, Owner::CpeFleet(i as u32))));
        let index: PrefixTrie<Owner> =
            regions.clone().chain(groups.iter().map(|g| (g.prefix, Owner::Group(g.id)))).collect();
        for (region, owner) in regions {
            let found = index.get(region);
            assert!(found == Some(&owner), "region {region} of {owner:?} is also {found:?}");
        }
        // In sorted order an entry is enclosed by an earlier one exactly
        // when it starts at or before the furthest end seen so far.
        let mut outer: Option<(Prefix, Owner)> = None;
        for (prefix, owner) in index.iter().map(|(prefix, owner)| (prefix, *owner)) {
            match outer {
                Some((enclosing, by)) if prefix.network() <= enclosing.last() => assert!(
                    matches!((by, owner), (Owner::Group(_), Owner::Group(_))),
                    "population prefixes nest across families: {prefix} ({owner:?}) \
                     lies inside {enclosing} ({by:?})"
                ),
                _ => outer = Some((prefix, owner)),
            }
        }
        let mut router_of_as = vec![None; as_count];
        for (i, r) in routers.iter().enumerate() {
            router_of_as[r.asid.0 as usize] = Some(i as u32);
        }
        Population { groups, cpe, routers, index, router_of_as, seed }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_member_groups(
        groups: &mut Vec<SubnetGroup>,
        alloc: &mut SlotAlloc,
        asid: AsId,
        as_seed: u64,
        total: u64,
        kind: GroupKind,
        mix: ProtoMix,
        start_pct: u8,
        epoch_days: u32,
        uptime_pct: u8,
        tag: u64,
    ) {
        if total == 0 {
            return;
        }
        let region = alloc.take();
        let mut remaining = total;
        let mut c = 0u64;
        while remaining > 0 {
            let r = prf::prf_u128(as_seed, u128::from(c), tag);
            let count = (4 + r % 28).min(remaining);
            let subnet = prf::prf_u128(as_seed, u128::from(c), tag ^ 0x77) & 0xff_ffff;
            let prefix = Prefix::new(Addr(region.network().0 | (u128::from(subnet) << 64)), 64);
            let pattern = match (r >> 40) % 10 {
                0..=5 => crate::pattern::AddrPattern::LowByte { count },
                6..=7 => crate::pattern::AddrPattern::RandomIid { key: r ^ as_seed, count },
                _ => crate::pattern::AddrPattern::Incremental {
                    base_iid: ((r >> 44) & 0xff) * 0x10,
                    stride: 1,
                    count,
                },
            };
            let id = groups.len() as u32;
            groups.push(SubnetGroup {
                prefix,
                pattern,
                kind,
                asid,
                protos: ProtoSet::EMPTY,
                mix,
                start_pct,
                epoch_days,
                uptime_pct,
                visible_pct: 100,
                id,
            });
            remaining -= count;
            c += 1;
        }
    }

    /// The PRF seed (shared with the registry's scale).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All groups.
    pub fn groups(&self) -> &[SubnetGroup] {
        &self.groups
    }

    /// A group by id.
    pub fn group(&self, id: GroupId) -> &SubnetGroup {
        &self.groups[id.0 as usize]
    }

    /// All CPE fleets.
    pub fn cpe_fleets(&self) -> &[CpeFleet] {
        &self.cpe
    }

    /// All router pools.
    pub fn router_pools(&self) -> &[RouterPool] {
        &self.routers
    }

    /// The router pool owned by `asid`, if any.
    pub fn router_pool_of(&self, asid: AsId) -> Option<&RouterPool> {
        let i = (*self.router_of_as.get(asid.0 as usize)?)?;
        Some(&self.routers[i as usize])
    }

    /// Resolves an address to a live host view on `day`.
    ///
    /// One longest-prefix match over the population index decides who, if
    /// anyone, owns the address. That is the whole answer because router
    /// and CPE regions nest with nothing — not with each other and not
    /// with a group prefix — which [`Population::build`] asserts: an
    /// address inside a group prefix that is no member of the group cannot
    /// also lie in a region.
    pub fn lookup(&self, addr: Addr, day: Day) -> Option<HostView> {
        match *self.index.lookup_value(addr)? {
            Owner::Group(gid) => {
                let g = &self.groups[gid as usize];
                let member = g.pattern.member_index(g.prefix, addr)?;
                self.member_view(g, member, addr, day)
            }
            Owner::RouterPool(ri) => router_view(&self.routers[ri as usize], addr, day),
            Owner::CpeFleet(ci) => cpe_view(&self.cpe[ci as usize], addr, day),
        }
    }

    fn member_view(&self, g: &SubnetGroup, member: u64, addr: Addr, day: Day) -> Option<HostView> {
        if !g.member_alive(self.seed, member, day) {
            return None;
        }
        let (backend_uid, fingerprint) = match g.kind {
            GroupKind::Aliased { backends, hetero_window, .. } => {
                let backend = match backends {
                    BackendMode::Single => 0u64,
                    BackendMode::LoadBalanced(k) => {
                        prf::uniform(self.seed, addr.0, 0xB4C, u64::from(k.max(1)))
                    }
                    BackendMode::PerAddr => prf::prf_u128(self.seed, addr.0, 0xB4D),
                };
                let uid = prf::mix2(u64::from(g.id) | (1 << 40), backend);
                // Uniform fingerprint per group; heterogeneous groups vary
                // the TCP window per address.
                let fp_idx = prf::prf_u128(self.seed, u128::from(g.id), 0xF9);
                let mut fp = TcpFingerprint::profile(fp_idx);
                if hetero_window {
                    fp = fp.with_window(
                        16384 + (prf::prf_u128(self.seed, addr.0, 0xFA) % 8) as u16 * 4096,
                    );
                }
                (uid, fp)
            }
            _ => {
                let uid = prf::mix2(u64::from(g.id) | (2 << 40), member);
                (uid, TcpFingerprint::profile(prf::mix2(uid, 0xF5)))
            }
        };
        let protos = g.member_protos(self.seed, member);
        let dns = if protos.contains(Protocol::Udp53) {
            Some(DnsBehavior::draw(self.seed, backend_uid))
        } else {
            None
        };
        Some(HostView {
            backend_uid,
            asid: g.asid,
            protos,
            fingerprint,
            dns,
            group: Some(GroupId(g.id)),
        })
    }

    /// Calls `f` for every responsive address on `day` from non-aliased
    /// groups that `pick` selects (ground truth; also the raw material for
    /// TGA seed corpora and the sampling feeds), with its protocols and
    /// owning AS: group members in group order, then stable router
    /// interfaces, then CPE devices. Aliased prefixes are skipped — they
    /// are unbounded by construction.
    ///
    /// `pick` sees each candidate address before its liveness is drawn, so
    /// a caller that keeps a few percent of the population pays the
    /// liveness draws of those few percent only. The walk yields what the
    /// unpicked walk yields, filtered by `pick`, in the same order.
    pub fn for_each_responsive(
        &self,
        day: Day,
        mut pick: impl FnMut(Addr) -> bool,
        mut f: impl FnMut(Addr, ProtoSet, AsId),
    ) {
        for g in &self.groups {
            if matches!(g.kind, GroupKind::Aliased { .. }) {
                continue;
            }
            let n = g.pattern.count(g.prefix);
            for m in 0..n {
                let addr = g.pattern.member_addr(g.prefix, m);
                if pick(addr) && g.member_alive(self.seed, m, day) {
                    f(addr, g.member_protos(self.seed, m), g.asid);
                }
            }
        }
        // Stable router interfaces that answer echo.
        for pool in &self.routers {
            if pool.rotation_days == 0 {
                for s in 0..pool.slots {
                    let addr = pool.hop_addr(s, day);
                    if pick(addr) && pool.slot_responds(s, day) {
                        f(addr, ProtoSet::of(&[Protocol::Icmp]), pool.asid);
                    }
                }
            }
        }
        // CPE devices currently responding.
        for fleet in &self.cpe {
            for d in 0..fleet.devices {
                let addr = fleet.current_addr(d, day);
                if pick(addr) && fleet.device_responds(d) {
                    f(addr, ProtoSet::of(&[Protocol::Icmp]), fleet.asid);
                }
            }
        }
    }

    /// [`Population::for_each_responsive`] with nothing left out, collected.
    pub fn enumerate_responsive(&self, day: Day) -> Vec<(Addr, ProtoSet, AsId)> {
        let mut out = Vec::new();
        self.for_each_responsive(
            day,
            |_| true,
            |addr, protos, asid| out.push((addr, protos, asid)),
        );
        out
    }

    /// Whether an address belongs to a dense hidden cluster (those are by
    /// definition invisible to generic discovery feeds; only the
    /// [`Population::dense_visible`] sample ever reaches public data).
    pub fn is_dense_member(&self, addr: Addr) -> bool {
        let Some(&Owner::Group(gid)) = self.index.lookup_value(addr) else {
            return false;
        };
        let g = &self.groups[gid as usize];
        matches!(g.kind, GroupKind::DenseHidden) && g.pattern.member_index(g.prefix, addr).is_some()
    }

    /// The passive-source-visible sample of the dense hidden clusters:
    /// for each dense group, the `visible_pct` of members that appear in
    /// public data (and therefore in the hitlist input), provided they are
    /// alive on `day`.
    pub fn dense_visible(&self, day: Day) -> Vec<Addr> {
        let mut out = Vec::new();
        for g in &self.groups {
            if !matches!(g.kind, GroupKind::DenseHidden) {
                continue;
            }
            let n = g.pattern.count(g.prefix);
            for m in 0..n {
                if prf::chance(
                    self.seed,
                    u128::from(m) | (u128::from(g.id) << 80),
                    0xD5E,
                    u64::from(g.visible_pct),
                    100,
                ) && g.member_alive(self.seed, m, day)
                {
                    out.push(g.pattern.member_addr(g.prefix, m));
                }
            }
        }
        out
    }

    /// Aliased groups active on `day`.
    pub fn aliased_groups(&self, day: Day) -> impl Iterator<Item = &SubnetGroup> {
        self.groups.iter().filter(move |g| match g.kind {
            GroupKind::Aliased { since, .. } => day >= since,
            _ => false,
        })
    }
}

/// A stable router interface that answers echo on `day`.
fn router_view(pool: &RouterPool, addr: Addr, day: Day) -> Option<HostView> {
    let slot = pool.lookup_static(addr)?;
    pool.slot_responds(slot, day).then(|| HostView {
        backend_uid: prf::mix2(pool.seed, slot) | (1 << 62),
        asid: pool.asid,
        protos: ProtoSet::of(&[Protocol::Icmp]),
        fingerprint: TcpFingerprint::profile(4),
        dns: None,
        group: None,
    })
}

/// A CPE device at its current address, if it is one that answers.
fn cpe_view(fleet: &CpeFleet, addr: Addr, day: Day) -> Option<HostView> {
    let v = fleet.lookup(addr, day)?;
    (v.current && v.responds).then(|| HostView {
        backend_uid: prf::mix2(fleet.seed, v.device) | (1 << 63),
        asid: fleet.asid,
        protos: ProtoSet::of(&[Protocol::Icmp]),
        fingerprint: TcpFingerprint::profile(5),
        dns: None,
        group: None,
    })
}

fn cpe_oui(asn: u32) -> u32 {
    const OUIS: [u32; 4] = [0x002686, 0x0024FE, 0x0018E7, 0x0019C6];
    OUIS[(asn % 4) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::AsRegistry;
    use crate::scale::Scale;

    fn pop() -> (AsRegistry, Population) {
        let r = AsRegistry::build(Scale::tiny());
        let p = Population::build(&r);
        (r, p)
    }

    #[test]
    fn build_is_deterministic() {
        let (_, a) = pop();
        let (_, b) = pop();
        assert_eq!(a.groups().len(), b.groups().len());
        assert_eq!(a.groups()[10].prefix, b.groups()[10].prefix);
    }

    #[test]
    fn lookup_finds_enumerated_hosts() {
        let (_, p) = pop();
        let day = Day(100);
        let responsive = p.enumerate_responsive(day);
        assert!(!responsive.is_empty());
        let mut checked = 0;
        for (addr, protos, asid) in responsive.iter().take(500) {
            let v = p.lookup(*addr, day).unwrap_or_else(|| panic!("{addr} should be live"));
            assert_eq!(v.protos, *protos);
            assert_eq!(v.asid, *asid);
            checked += 1;
        }
        assert!(checked > 100);
    }

    /// `enumerate_responsive` as it was before it became a collector over
    /// `for_each_responsive`.
    fn enumerate_eagerly(p: &Population, day: Day) -> Vec<(Addr, ProtoSet, AsId)> {
        let mut out = Vec::new();
        for g in &p.groups {
            if matches!(g.kind, GroupKind::Aliased { .. }) {
                continue;
            }
            for m in 0..g.pattern.count(g.prefix) {
                if g.member_alive(p.seed, m, day) {
                    let protos = g.member_protos(p.seed, m);
                    out.push((g.pattern.member_addr(g.prefix, m), protos, g.asid));
                }
            }
        }
        for pool in p.routers.iter().filter(|pool| pool.rotation_days == 0) {
            for s in (0..pool.slots).filter(|s| pool.slot_responds(*s, day)) {
                out.push((pool.hop_addr(s, day), ProtoSet::of(&[Protocol::Icmp]), pool.asid));
            }
        }
        for f in &p.cpe {
            for d in (0..f.devices).filter(|d| f.device_responds(*d)) {
                out.push((f.current_addr(d, day), ProtoSet::of(&[Protocol::Icmp]), f.asid));
            }
        }
        out
    }

    #[test]
    fn for_each_responsive_walks_what_enumerate_collected() {
        let (_, p) = pop();
        for day in [Day(0), Day(13), Day(14), Day(700), Day::PAPER_END] {
            let eager = enumerate_eagerly(&p, day);
            assert!(!eager.is_empty());
            let mut walked = Vec::new();
            p.for_each_responsive(
                day,
                |_| true,
                |addr, protos, asid| walked.push((addr, protos, asid)),
            );
            assert_eq!(walked, eager, "element for element on {day:?}");
            assert_eq!(p.enumerate_responsive(day), eager, "the collector on {day:?}");
        }
    }

    #[test]
    fn a_picked_walk_is_the_unpicked_walk_filtered() {
        for mult in [1, 50] {
            let p = Population::build(&AsRegistry::build(Scale::tiny().with_population_mult(mult)));
            for day in [Day(0), crate::time::events::RDNS_IMPORT, Day(700)] {
                let everything = enumerate_eagerly(&p, day);
                // The kinds of pick a feed makes: a few percent of the
                // population, about half of it, none of it, all of it, and
                // a pick that looks the address up itself.
                let picks: [(&str, &dyn Fn(Addr) -> bool); 6] = [
                    ("weekly 3 %", &|a| prf::chance(0xD819, a.0, u64::from(day.0 / 7), 3, 100)),
                    ("launch 55 %", &|a| prf::chance(0xB007, a.0, 0, 11, 20)),
                    ("rdns 30 %", &|a| prf::chance(0xD45, a.0, 0x1, 3, 10)),
                    ("nothing", &|_| false),
                    ("everything", &|_| true),
                    ("public", &|a| !p.is_dense_member(a)),
                ];
                for (kind, pick) in picks {
                    let mut picked = Vec::new();
                    p.for_each_responsive(day, pick, |addr, protos, asid| {
                        picked.push((addr, protos, asid))
                    });
                    let filtered: Vec<_> =
                        everything.iter().filter(|(addr, ..)| pick(*addr)).copied().collect();
                    assert_eq!(picked, filtered, "{kind} on {day:?} at x{mult}");
                    assert_eq!(
                        picked.is_empty(),
                        kind == "nothing",
                        "{kind} on {day:?} at x{mult}"
                    );
                }
            }
        }
    }

    #[test]
    fn router_pool_index_matches_a_linear_search() {
        let (r, p) = pop();
        assert!(!p.router_pools().is_empty());
        // One past the registry: an AS registered after the build.
        for id in (0..=r.len() as u32).map(AsId) {
            let found = p.router_pool_of(id).map(|pool| pool.region);
            let searched = p.router_pools().iter().find(|pool| pool.asid == id).map(|x| x.region);
            assert_eq!(found, searched, "{id:?}");
        }
    }

    /// `lookup` as it read when the population kept three tries, with every
    /// prefix found by a linear scan: the most specific group prefix first,
    /// falling through when the address is no member of that group, then
    /// the router regions, then the CPE regions.
    fn lookup_by_scanning(p: &Population, addr: Addr, day: Day) -> Option<HostView> {
        // `max_by_key` keeps the last of equals, as a later insert replaced
        // an earlier one.
        let group =
            p.groups.iter().filter(|g| g.prefix.contains(addr)).max_by_key(|g| g.prefix.len());
        if let Some(g) = group {
            if let Some(member) = g.pattern.member_index(g.prefix, addr) {
                return p.member_view(g, member, addr, day);
            }
        }
        let pool =
            p.routers.iter().filter(|r| r.region.contains(addr)).max_by_key(|r| r.region.len());
        if let Some(pool) = pool {
            return router_view(pool, addr, day);
        }
        let fleet = p.cpe.iter().filter(|f| f.region.contains(addr)).max_by_key(|f| f.region.len());
        fleet.and_then(|fleet| cpe_view(fleet, addr, day))
    }

    fn is_dense_member_by_scanning(p: &Population, addr: Addr) -> bool {
        p.groups
            .iter()
            .filter(|g| g.prefix.contains(addr))
            .max_by_key(|g| g.prefix.len())
            .is_some_and(|g| {
                matches!(g.kind, GroupKind::DenseHidden)
                    && g.pattern.member_index(g.prefix, addr).is_some()
            })
    }

    #[test]
    fn one_index_resolves_what_three_scans_resolved() {
        for scale in [Scale::tiny(), Scale::tiny().with_population_mult(5)] {
            let p = Population::build(&AsRegistry::build(scale));
            let prefixes: Vec<Prefix> = (p.groups.iter().map(|g| g.prefix))
                .chain(p.routers.iter().map(|r| r.region))
                .chain(p.cpe.iter().map(|f| f.region))
                .collect();
            assert!(!p.routers.is_empty() && !p.cpe.is_empty());

            let days = [Day(0), Day(700), Day::PAPER_END];
            // Whether the address is live, once both ways agree.
            let check = |addr: Addr, day: Day| {
                let found = p.lookup(addr, day);
                assert_eq!(found, lookup_by_scanning(&p, addr, day), "{addr} on {day:?}");
                assert_eq!(
                    p.is_dense_member(addr),
                    is_dense_member_by_scanning(&p, addr),
                    "{addr}"
                );
                found.is_some()
            };
            // Everything that answers.
            for day in days {
                let mut responsive = Vec::new();
                p.for_each_responsive(day, |_| true, |addr, _, _| responsive.push(addr));
                assert!(responsive.len() > 100, "{} answer on {day:?}", responsive.len());
                for addr in responsive {
                    assert!(check(addr, day), "{addr} answers on {day:?}");
                }
            }
            // The edges of every prefix and what lies just outside them.
            for q in &prefixes {
                let (first, last) = (q.network().0, q.last().0);
                for addr in [first, last, first.wrapping_sub(1), last.wrapping_add(1)] {
                    check(Addr(addr), days[1]);
                }
            }
            // Dark space: inside a prefix of the index (a member only by
            // accident), inside announced space, and anywhere at all.
            let mut live = 0;
            for i in 0..10_000u64 {
                let r = prf::prf_u128(scale.seed, u128::from(i), 0xDA2C);
                let addr = match i % 3 {
                    0 => prefixes[(r % prefixes.len() as u64) as usize].random_addr(r),
                    1 => {
                        let g = &p.groups[(r % p.groups.len() as u64) as usize];
                        Prefix::new(g.prefix.network(), 28).random_addr(r)
                    }
                    _ => Addr(u128::from(r) << 64 | u128::from(prf::mix64(r))),
                };
                live += usize::from(check(addr, days[(i % 3) as usize]));
            }
            assert!((100..5000).contains(&live), "{live} of the 10 000 drawn addresses are live");
        }
    }

    /// The panic message of `assemble` over the tiny population with its
    /// first group's prefix replaced.
    fn assemble_with_first_group_at(prefix: impl Fn(&Population) -> Prefix) -> String {
        let (r, p) = pop();
        let mut groups = p.groups.clone();
        groups[0].prefix = prefix(&p);
        let payload = std::panic::catch_unwind(|| {
            Population::assemble(groups, p.cpe.clone(), p.routers.clone(), r.len(), p.seed)
        })
        .expect_err("a group nested with a region must not assemble");
        payload.downcast_ref::<String>().expect("a formatted panic").clone()
    }

    #[test]
    fn build_refuses_a_group_that_nests_with_a_region() {
        let (r, p) = pop();
        // As generated, the parts assemble.
        Population::assemble(p.groups.clone(), p.cpe.clone(), p.routers.clone(), r.len(), p.seed);

        let router = p.routers[0].region;
        let fleet = p.cpe[0].region;
        let inside = Prefix::new(router.last(), 64);
        let message = assemble_with_first_group_at(|_| inside);
        assert!(message.contains(&inside.to_string()), "{message}");
        assert!(message.contains(&router.to_string()), "{message}");

        let around = fleet.trim(36);
        let message = assemble_with_first_group_at(|_| around);
        assert!(message.contains(&around.to_string()), "{message}");
        assert!(message.contains(&fleet.to_string()), "{message}");

        let message = assemble_with_first_group_at(|_| router);
        assert!(message.contains(&router.to_string()) && message.contains("Group(0)"), "{message}");
    }

    #[test]
    fn unknown_addresses_are_dark() {
        let (_, p) = pop();
        assert!(p.lookup("3fff::1".parse().unwrap(), Day(10)).is_none());
    }

    #[test]
    fn aliased_prefixes_answer_everywhere() {
        let (_, p) = pop();
        let day = Day(100);
        let g = p.aliased_groups(day).next().expect("some aliased group");
        for seed in 0..5u64 {
            let addr = g.prefix.random_addr(seed);
            let v = p.lookup(addr, day).expect("aliased addr responds");
            assert_eq!(v.protos, g.protos);
        }
    }

    #[test]
    fn aliased_single_backend_shares_uid() {
        let (_, p) = pop();
        let day = Day(100);
        let g = p
            .aliased_groups(day)
            .find(|g| matches!(g.kind, GroupKind::Aliased { backends: BackendMode::Single, .. }))
            .expect("single-backend alias");
        let a = p.lookup(g.prefix.random_addr(1), day).unwrap();
        let b = p.lookup(g.prefix.random_addr(2), day).unwrap();
        assert_eq!(a.backend_uid, b.backend_uid, "one host, one PMTU cache");
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn trafficforce_appears_late() {
        let (r, p) = pop();
        let tf = r.by_asn(212144).unwrap();
        let early = p.aliased_groups(Day(100)).filter(|g| g.asid == tf).count();
        let late = p
            .aliased_groups(crate::time::events::TRAFFICFORCE_FLOOD.plus(1))
            .filter(|g| g.asid == tf)
            .count();
        assert_eq!(early, 0);
        assert!(late > 0);
    }

    #[test]
    fn population_grows_over_time() {
        let (_, p) = pop();
        let start = p.enumerate_responsive(Day(0)).len();
        let end = p.enumerate_responsive(Day::PAPER_END).len();
        assert!(end > start, "start={start} end={end}");
        let ratio = end as f64 / start as f64;
        assert!((1.3..2.6).contains(&ratio), "growth ratio {ratio}");
    }

    #[test]
    fn churn_between_close_days() {
        let (_, p) = pop();
        let a: std::collections::HashSet<Addr> =
            p.enumerate_responsive(Day(500)).into_iter().map(|(a, ..)| a).collect();
        let b: std::collections::HashSet<Addr> =
            p.enumerate_responsive(Day(503)).into_iter().map(|(a, ..)| a).collect();
        let gone = a.difference(&b).count();
        let new = b.difference(&a).count();
        assert!(gone > 0 && new > 0, "churn must be visible: -{gone} +{new}");
        // But the sets mostly overlap.
        let inter = a.intersection(&b).count();
        assert!(inter as f64 / a.len() as f64 > 0.7);
    }

    #[test]
    fn cpe_addresses_resolve() {
        let (_, p) = pop();
        let fleet = &p.cpe_fleets()[0];
        let day = Day(50);
        let dev =
            (0..fleet.devices).find(|d| fleet.device_responds(*d)).expect("some device responds");
        let addr = fleet.current_addr(dev, day);
        let v = p.lookup(addr, day).expect("current CPE addr responds");
        assert!(v.protos.contains(Protocol::Icmp));
        assert_eq!(v.protos.len(), 1);
        // The same address is dark after rotation.
        assert!(p.lookup(addr, Day(50 + 30)).is_none());
    }

    #[test]
    fn dns_servers_have_behavior() {
        let (_, p) = pop();
        let day = Day(200);
        let found = p
            .enumerate_responsive(day)
            .into_iter()
            .filter(|(_, protos, _)| protos.contains(Protocol::Udp53))
            .take(20)
            .map(|(addr, ..)| p.lookup(addr, day).unwrap())
            .collect::<Vec<_>>();
        assert!(!found.is_empty());
        assert!(found.iter().all(|v| v.dns.is_some()));
    }

    #[test]
    fn dense_hidden_exists_for_free_sas() {
        let (r, p) = pop();
        let free = r.by_asn(12322).unwrap();
        let dense = p
            .groups()
            .iter()
            .filter(|g| g.asid == free && matches!(g.kind, GroupKind::DenseHidden))
            .count();
        assert!(dense > 0, "Free SAS needs dense clusters for the TGAs");
    }
}
