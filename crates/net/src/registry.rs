//! The autonomous-system registry and BGP table of the simulated Internet.
//!
//! Every AS the paper names — the CDNs whose space is fully responsive
//! (Fastly, Cloudflare, Akamai, Amazon, Google), the eyeball ISPs whose
//! rotating CPE addresses bias the hitlist input (ANTEL, DTAG), the Chinese
//! networks behind the GFW (Table 5), the TGA-favourite dense deployments
//! (Free SAS, DigitalOcean), oddballs (EpicUp's /28s, Trafficforce's /64
//! flood, Misaka's anycast DNS) — appears here with a behavioural profile.
//! A long tail of synthetic filler ASes provides the distributional mass.
//!
//! Address space is carved deterministically: the registry allocates
//! disjoint `/28` blocks under `2000::/4`, one or more per AS, so no two
//! ASes ever overlap and a BGP longest-prefix match is unambiguous.

use std::collections::HashMap;

use sixdust_addr::{prf, Addr, Prefix, PrefixTrie};

use crate::proto::{ProtoSet, Protocol};
use crate::scale::Scale;
use crate::time::{events, Day};

/// Index of an AS inside the registry (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsId(pub u32);

/// Behavioural category of an AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsCategory {
    /// Eyeball ISP with a CPE fleet.
    Isp,
    /// Chinese network behind the GFW.
    ChineseIsp,
    /// Cloud/VPS hosting.
    Cloud,
    /// Content delivery network.
    Cdn,
    /// Generic web hosting.
    Hosting,
    /// Academic network.
    Academic,
    /// Transit backbone.
    Transit,
    /// Anycast DNS operator.
    Dns,
    /// The measurement vantage point's network.
    Measurement,
}

/// How addresses within a fully responsive prefix map to backend hosts,
/// which is what the Too Big Trick distinguishes (Sec. 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendMode {
    /// A true alias: one host owns the whole prefix (one PMTU cache).
    Single,
    /// CDN-style load balancing across `k` backends (2–7 shared caches).
    LoadBalanced(u8),
    /// Every address keeps its own PMTU state (no sharing observed).
    PerAddr,
}

/// A specification of fully responsive ("aliased") prefixes within an AS.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasSpec {
    /// Prefix length of each aliased prefix.
    pub plen: u8,
    /// Number of such prefixes (paper magnitude; scaled by entity divisor).
    pub count: u64,
    /// Protocols every address in the prefix answers.
    pub protos: ProtoSet,
    /// Backend topology (drives the TBT outcome).
    pub backends: BackendMode,
    /// Domains hosted across these prefixes (paper magnitude).
    pub domains: u64,
    /// First day these prefixes exist (Trafficforce appears in Feb 2022).
    pub since: Day,
}

impl AliasSpec {
    /// Convenience constructor with the common defaults: present from
    /// launch, single-host, web protocols.
    pub fn new(plen: u8, count: u64) -> AliasSpec {
        AliasSpec {
            plen,
            count,
            protos: ProtoSet::of(&[
                Protocol::Icmp,
                Protocol::Tcp80,
                Protocol::Tcp443,
                Protocol::Udp443,
            ]),
            backends: BackendMode::Single,
            domains: 0,
            since: Day::LAUNCH,
        }
    }
}

/// Protocol-mix archetypes used to draw per-server protocol sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoMix {
    /// General server population: everything answers ICMP; a third HTTP,
    /// a bit less HTTPS, little QUIC, rare DNS — matches the cleaned
    /// hitlist's per-protocol ratios (Table 1).
    Web,
    /// Ping-only boxes (CPE, routers with addresses in server space).
    IcmpOnly,
    /// Name servers: ICMP + UDP/53.
    DnsServer,
    /// QUIC-forward deployments (CDN edge outside aliased space).
    QuicEdge,
}

impl ProtoMix {
    /// Draws a protocol set for host number `idx` under this mix.
    pub fn draw(self, seed: u64, idx: u128) -> ProtoSet {
        let mut s = ProtoSet::of(&[Protocol::Icmp]);
        match self {
            ProtoMix::IcmpOnly => {}
            ProtoMix::DnsServer => {
                s.insert(Protocol::Udp53);
                if prf::chance(seed, idx, 0x10, 1, 5) {
                    s.insert(Protocol::Tcp443);
                }
            }
            ProtoMix::QuicEdge => {
                s.insert(Protocol::Udp443);
                s.insert(Protocol::Tcp443);
                s.insert(Protocol::Tcp80);
            }
            ProtoMix::Web => {
                // Tuned to land near Table 1 column ratios.
                if prf::chance(seed, idx, 0x11, 33, 100) {
                    s.insert(Protocol::Tcp80);
                }
                if prf::chance(seed, idx, 0x12, 29, 100) {
                    s.insert(Protocol::Tcp443);
                }
                if prf::chance(seed, idx, 0x13, 3, 100) {
                    s.insert(Protocol::Udp443);
                }
                if prf::chance(seed, idx, 0x14, 2, 100) {
                    s.insert(Protocol::Udp53);
                }
            }
        }
        s
    }
}

/// Static behavioural profile of an AS (paper-scale magnitudes; the
/// population builder scales them).
#[derive(Debug, Clone, PartialEq)]
pub struct AsProfile {
    /// Stable responsive server addresses at the end of the window.
    pub responsive_servers: u64,
    /// Protocol mix for those servers.
    pub proto_mix: ProtoMix,
    /// Dedicated UDP/53 responders (name servers / resolvers).
    pub dns_servers: u64,
    /// Responsive addresses in dense incremental clusters that no passive
    /// source sees — the raw material target-generation algorithms mine.
    pub dense_hidden: u64,
    /// Percentage of each dense cluster visible to passive sources (and
    /// hence in the hitlist as seeds). High visibility (small seed gaps)
    /// is what lets distance clustering latch on; low visibility leaves
    /// the clusters to the pattern-mining TGAs.
    pub dense_visible_pct: u8,
    /// Addresses responsive early in the window that then go dark — the
    /// population the 30-day filter removes and Sec. 6 re-scans.
    pub flaky_servers: u64,
    /// Rotating EUI-64 CPE fleet size (devices, not addresses).
    pub cpe_devices: u64,
    /// Accumulated EUI-64 addresses all sharing one MAC (the ZTE artifact).
    pub shared_mac_addrs: u64,
    /// Accumulated rotating random-IID last-hop router addresses the
    /// traceroutes capture over the window (input-only; never responsive).
    pub router_hops: u64,
    /// Fully responsive prefixes.
    pub aliased: Vec<AliasSpec>,
    /// Fraction of the server population already active at day 0
    /// (the rest activates linearly over the window → input/responsive
    /// growth).
    pub growth_start_frac: f64,
    /// Domains hosted on non-aliased infrastructure (paper magnitude).
    pub domains: u64,
}

impl Default for AsProfile {
    fn default() -> AsProfile {
        AsProfile {
            responsive_servers: 0,
            proto_mix: ProtoMix::Web,
            dns_servers: 0,
            dense_hidden: 0,
            dense_visible_pct: 10,
            flaky_servers: 0,
            cpe_devices: 0,
            shared_mac_addrs: 0,
            router_hops: 0,
            aliased: Vec::new(),
            growth_start_frac: 0.55,
            domains: 0,
        }
    }
}

/// A registered AS.
#[derive(Debug, Clone)]
pub struct AsInfo {
    /// The autonomous system number.
    pub asn: u32,
    /// Operator name.
    pub name: String,
    /// Behavioural category.
    pub category: AsCategory,
    /// ISO-ish country code.
    pub country: String,
    /// Announced BGP prefixes.
    pub prefixes: Vec<Prefix>,
    /// Behavioural profile.
    pub profile: AsProfile,
    /// `/28` blocks allocated to this AS (prefixes are carved from these).
    pub blocks: Vec<Prefix>,
}

impl AsInfo {
    /// Whether this AS sits behind the Great Firewall.
    pub fn behind_gfw(&self) -> bool {
        self.country == "CN"
    }

    /// Total announced address space as a log2 count (sum over prefixes,
    /// reported as the largest exponent plus fractional load for Fig. 6).
    pub fn announced_space_log2(&self) -> f64 {
        let total: f64 = self.prefixes.iter().map(|p| 2f64.powi(i32::from(p.size_log2()))).sum();
        total.log2()
    }
}

/// The AS registry: all ASes plus the BGP table.
#[derive(Debug, Clone)]
pub struct AsRegistry {
    infos: Vec<AsInfo>,
    by_asn: HashMap<u32, AsId>,
    bgp: PrefixTrie<AsId>,
    scale: Scale,
    /// Registered measurement vantage ASes, in registration order. The
    /// first entry is the default vantage. Serde default keeps old
    /// serialized registries loading; [`AsRegistry::vantage`] falls back
    /// to a category scan when the list is empty.
    vantage_ids: Vec<AsId>,
}

/// Allocates disjoint /28 blocks under 2000::/4.
struct BlockAllocator {
    next: u128,
}

impl BlockAllocator {
    fn new() -> BlockAllocator {
        BlockAllocator { next: 1 } // block 0 reserved (never allocated)
    }

    fn alloc(&mut self) -> Prefix {
        let idx = self.next;
        self.next += 1;
        assert!(idx < (1 << 24), "block space exhausted");
        Prefix::new(Addr((0x2u128 << 124) | (idx << 100)), 28)
    }
}

impl AsRegistry {
    /// Builds the registry for a given scale.
    pub fn build(scale: Scale) -> AsRegistry {
        let mut alloc = BlockAllocator::new();
        let mut infos = Vec::new();

        for spec in named_specs() {
            let n_blocks = spec.blocks.max(1);
            let blocks: Vec<Prefix> = (0..n_blocks).map(|_| alloc.alloc()).collect();
            // Announce one /32 per block by default; ASes that alias whole
            // blocks announce the blocks themselves.
            let prefixes: Vec<Prefix> = if spec.announce_blocks {
                blocks.clone()
            } else {
                blocks
                    .iter()
                    .flat_map(|b| (0..spec.announce_per_block).map(|i| b.nibble_subprefix(i)))
                    .collect()
            };
            infos.push(AsInfo {
                asn: spec.asn,
                name: spec.name.to_string(),
                category: spec.category,
                country: spec.country.to_string(),
                prefixes,
                profile: spec.profile,
                blocks,
            });
        }

        // Filler ASes: enough to reach the (scaled) count of IPv6-announcing
        // ASes. Categories and sizes drawn deterministically; sizes follow a
        // Zipf-flavoured tail so the responsive CDF has realistic mass.
        let target_total = scale.entities(29_000, 120) as usize;
        let named_count = infos.len();
        let filler = target_total.saturating_sub(named_count);
        let chinese_filler = scale.entities(685, 8) as usize;
        for i in 0..filler {
            let china = i < chinese_filler;
            let tag = prf::prf_u128(scale.seed, i as u128, 0xA5);
            let category = if china {
                AsCategory::ChineseIsp
            } else {
                match tag % 10 {
                    0..=3 => AsCategory::Isp,
                    4..=6 => AsCategory::Hosting,
                    7 => AsCategory::Cloud,
                    8 => AsCategory::Academic,
                    _ => AsCategory::Dns,
                }
            };
            let rank = (i + 2) as f64;
            // Paper-magnitude responsive servers for this filler AS. The
            // global head is held by named ASes; the tail decays ~1/rank.
            let servers = if china {
                (30_000.0 / rank.powf(0.7)) as u64
            } else {
                (120_000.0 / rank.powf(0.82)) as u64
            };
            let profile = AsProfile {
                responsive_servers: servers.max(120),
                dns_servers: if matches!(category, AsCategory::Dns | AsCategory::Hosting) {
                    (servers / 12).max(60)
                } else {
                    servers / 60
                },
                flaky_servers: servers / 5,
                dense_hidden: if china { servers / 2 } else { servers * 7 },
                dense_visible_pct: if tag.is_multiple_of(5) { 42 } else { 8 },
                router_hops: if china {
                    // Tail of the GFW-impacted input outside the Top 10
                    // (Table 5: top 10 hold 93.9 %).
                    8_200_000 / chinese_filler.max(1) as u64
                } else {
                    servers
                },
                cpe_devices: if matches!(category, AsCategory::Isp) { servers * 6 } else { 0 },
                aliased: if !china && tag % 48 == 7 {
                    // A rare filler AS aliases 15/16 of its announced /32
                    // (the Fig. 6 cohort of >90 %-aliased operators); the
                    // last /36 keeps room for its other regions.
                    vec![AliasSpec::new(36, 15)]
                } else if !china && tag.is_multiple_of(17) {
                    // Sparse tail of small aliased deployments.
                    vec![AliasSpec::new(64, 40)]
                } else {
                    Vec::new()
                },
                domains: if matches!(category, AsCategory::Hosting | AsCategory::Cloud) {
                    servers * 250
                } else {
                    0
                },
                growth_start_frac: 0.45 + (tag % 30) as f64 / 100.0,
                ..AsProfile::default()
            };
            let blocks = vec![alloc.alloc()];
            let prefixes = vec![blocks[0].nibble_subprefix(0)];
            infos.push(AsInfo {
                asn: 400_000 + i as u32,
                name: format!("{}-{}", if china { "CN-NET" } else { "FILLER" }, i),
                category,
                country: if china { "CN".to_string() } else { filler_country(tag).to_string() },
                prefixes,
                profile,
                blocks,
            });
        }

        let ids = || infos.iter().enumerate().map(|(i, info)| (AsId(i as u32), info));
        let by_asn = ids().map(|(id, info)| (info.asn, id)).collect();
        let bgp =
            ids().flat_map(|(id, info)| info.prefixes.iter().map(move |p| (*p, id))).collect();
        let vantage_ids = ids()
            .filter(|(_, info)| info.category == AsCategory::Measurement)
            .map(|(id, _)| id)
            .collect();
        AsRegistry { infos, by_asn, bgp, scale, vantage_ids }
    }

    /// The scale this registry was built for.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Number of registered ASes.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// `true` if the registry is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Looks an AS up by id.
    pub fn get(&self, id: AsId) -> &AsInfo {
        &self.infos[id.0 as usize]
    }

    /// Looks an AS up by its number.
    pub fn by_asn(&self, asn: u32) -> Option<AsId> {
        self.by_asn.get(&asn).copied()
    }

    /// BGP origin lookup: which AS announces the covering prefix?
    pub fn origin(&self, addr: Addr) -> Option<AsId> {
        self.bgp.lookup_value(addr).copied()
    }

    /// [`AsRegistry::origin`], and the last address up to which the origin
    /// stays the same BGP match ([`PrefixTrie::lookup_span`]).
    pub fn origin_span(&self, addr: Addr) -> (Option<AsId>, Addr) {
        let (origin, last) = self.bgp.lookup_span(addr);
        (origin.copied(), last)
    }

    /// The matched announced prefix for an address.
    pub fn origin_prefix(&self, addr: Addr) -> Option<(AsId, Prefix)> {
        self.bgp.lookup(addr).map(|(id, p)| (*id, p))
    }

    /// Adds an extra BGP route (operators announce the prefixes they use;
    /// CDNs announce the /48s and /36s they alias, which is how they end up
    /// in the alias detection's BGP candidate class).
    pub fn add_route(&mut self, prefix: Prefix, id: AsId) {
        self.bgp.insert(prefix, id);
    }

    /// [`AsRegistry::add_route`] for a batch, in one rebuild of the table
    /// instead of one shift of it per route.
    pub fn add_routes(&mut self, routes: impl IntoIterator<Item = (Prefix, AsId)>) {
        self.bgp.extend(routes);
    }

    /// Iterates all ASes.
    pub fn iter(&self) -> impl Iterator<Item = (AsId, &AsInfo)> {
        self.infos.iter().enumerate().map(|(i, info)| (AsId(i as u32), info))
    }

    /// All announced BGP prefixes (the alias detection's first candidate
    /// class).
    pub fn announced_prefixes(&self) -> impl Iterator<Item = (Prefix, AsId)> + '_ {
        self.bgp.iter().map(|(p, id)| (p, *id))
    }

    /// The default measurement vantage AS: the first registered vantage.
    ///
    /// Vantages are registered data, not a hardcoded ASN: the built-in
    /// roster always contains one `Measurement`-category AS, and more can
    /// be added with [`AsRegistry::register_vantage`]. Falls back to a
    /// category scan (then `AsId(0)`) instead of panicking if a
    /// deserialized registry predates the vantage list.
    pub fn vantage(&self) -> AsId {
        if let Some(id) = self.vantage_ids.first() {
            return *id;
        }
        self.infos
            .iter()
            .position(|info| info.category == AsCategory::Measurement)
            .map_or(AsId(0), |i| AsId(i as u32))
    }

    /// All registered vantage ASes, default first, in registration order.
    pub fn vantages(&self) -> &[AsId] {
        &self.vantage_ids
    }

    /// The default vantage point's scanner source address.
    pub fn vantage_addr(&self) -> Addr {
        self.vantage_addr_of(self.vantage())
    }

    /// The scanner source address of a specific vantage AS: the first
    /// address of its first announced prefix. An AS with no announced
    /// prefixes (impossible for built or registered ASes, but tolerated)
    /// yields the loopback-ish `::1` rather than panicking.
    pub fn vantage_addr_of(&self, id: AsId) -> Addr {
        let info = self.get(id);
        match info.prefixes.first() {
            Some(p) => Addr(p.network().0 | 0x1),
            None => Addr(1),
        }
    }

    /// Registers an additional measurement vantage AS and returns its id.
    ///
    /// Idempotent on the ASN: re-registering an existing AS only ensures
    /// it is on the vantage list. New ASes get a fresh `/28` block carved
    /// after every existing allocation (the block cursor is reconstructed
    /// from the registered blocks, so registration order — not call
    /// site — determines addressing, keeping multi-instance worlds
    /// byte-identical when they register the same roster in the same
    /// order).
    pub fn register_vantage(&mut self, asn: u32, name: &str, country: &str) -> AsId {
        if let Some(id) = self.by_asn(asn) {
            if !self.vantage_ids.contains(&id) {
                self.vantage_ids.push(id);
            }
            return id;
        }
        let next = 1 + self.infos.iter().map(|info| info.blocks.len() as u128).sum::<u128>();
        let mut alloc = BlockAllocator { next };
        let block = alloc.alloc();
        let prefixes = vec![block.nibble_subprefix(0)];
        let id = AsId(self.infos.len() as u32);
        for p in &prefixes {
            self.bgp.insert(*p, id);
        }
        self.infos.push(AsInfo {
            asn,
            name: name.to_string(),
            category: AsCategory::Measurement,
            country: country.to_string(),
            prefixes,
            profile: AsProfile::default(),
            blocks: vec![block],
        });
        self.by_asn.insert(asn, id);
        self.vantage_ids.push(id);
        id
    }
}

fn filler_country(tag: u64) -> &'static str {
    const POOL: [&str; 12] =
        ["US", "DE", "FR", "GB", "NL", "JP", "BR", "IN", "SE", "PL", "IT", "AU"];
    POOL[(tag % POOL.len() as u64) as usize]
}

/// A named-AS specification (construction-time only).
struct NamedSpec {
    asn: u32,
    name: &'static str,
    category: AsCategory,
    country: &'static str,
    blocks: u32,
    announce_blocks: bool,
    announce_per_block: u8,
    profile: AsProfile,
}

impl NamedSpec {
    fn new(asn: u32, name: &'static str, category: AsCategory, country: &'static str) -> NamedSpec {
        NamedSpec {
            asn,
            name,
            category,
            country,
            blocks: 1,
            announce_blocks: false,
            announce_per_block: 1,
            profile: AsProfile::default(),
        }
    }
}

/// The paper's cast of characters. All magnitudes are paper-scale; the
/// population builder divides by the scale factors.
fn named_specs() -> Vec<NamedSpec> {
    let web_alias =
        ProtoSet::of(&[Protocol::Icmp, Protocol::Tcp80, Protocol::Tcp443, Protocol::Udp443]);
    let mut v = Vec::new();

    // Measurement vantage (the scanner's own network).
    v.push(NamedSpec::new(64496, "SIXDUST-MSM", AsCategory::Measurement, "DE"));

    // ---- CDNs and hyperscale clouds (Sec. 5) ----
    let mut amazon = NamedSpec::new(16509, "Amazon", AsCategory::Cloud, "US");
    amazon.announce_per_block = 4;
    amazon.profile = AsProfile {
        responsive_servers: 25_000,
        // ~200 M addresses from fully responsive prefixes: dominated by
        // /64s plus some /56s; 32 % of the raw input resolves here.
        aliased: vec![
            // The /64s behave as one host each (true aliases); only the
            // /56 farm is load balanced.
            AliasSpec { domains: 1_300_000, ..AliasSpec::new(64, 14_000) },
            AliasSpec {
                backends: BackendMode::LoadBalanced(4),
                domains: 400_000,
                ..AliasSpec::new(56, 600)
            },
        ],
        domains: 2_000_000,
        growth_start_frac: 0.5,
        ..AsProfile::default()
    };
    amazon.profile.aliased[0].protos = web_alias;
    amazon.profile.aliased[1].protos = web_alias;
    v.push(amazon);

    let mut cloudflare = NamedSpec::new(13335, "Cloudflare", AsCategory::Cdn, "US");
    cloudflare.profile = AsProfile {
        responsive_servers: 8_000,
        aliased: vec![
            // 115 prefixes hosting a mean of 167 k domains; one /48 with
            // 3.94 M. All protocols somewhere: Cloudflare is the only AS
            // with at least one prefix per probe (Table 2 discussion).
            AliasSpec {
                protos: web_alias,
                backends: BackendMode::LoadBalanced(3),
                domains: 5_000_000,
                ..AliasSpec::new(48, 115)
            },
            AliasSpec {
                protos: ProtoSet::of(&[Protocol::Icmp, Protocol::Udp53, Protocol::Tcp443]),
                backends: BackendMode::LoadBalanced(3),
                domains: 0,
                ..AliasSpec::new(64, 60)
            },
        ],
        domains: 1_500_000,
        ..AsProfile::default()
    };
    v.push(cloudflare);

    let mut cf_alias = NamedSpec::new(209242, "Cloudflare-London", AsCategory::Cdn, "GB");
    cf_alias.announce_blocks = false;
    cf_alias.announce_per_block = 1;
    cf_alias.profile = AsProfile {
        // 100 % of announced space aliased: one /32 announced, same /32
        // aliased (modelled as 16 aliased /36s covering it).
        aliased: vec![AliasSpec {
            protos: web_alias,
            backends: BackendMode::LoadBalanced(3),
            domains: 120_000,
            ..AliasSpec::new(36, 16)
        }],
        ..AsProfile::default()
    };
    v.push(cf_alias);

    let mut fastly = NamedSpec::new(54113, "Fastly", AsCategory::Cdn, "US");
    fastly.profile = AsProfile {
        responsive_servers: 1_200,
        // ~95 % of announced space aliased: 15 of 16 /36s; the last /36
        // holds the (sparse) origin servers, which keeps the announced /32
        // itself from being (mis)labeled fully responsive.
        aliased: vec![AliasSpec {
            protos: web_alias,
            backends: BackendMode::LoadBalanced(5),
            domains: 400_000,
            ..AliasSpec::new(36, 15)
        }],
        domains: 200_000,
        ..AsProfile::default()
    };
    v.push(fastly);

    let mut akamai = NamedSpec::new(20940, "Akamai", AsCategory::Cdn, "US");
    akamai.announce_per_block = 3;
    akamai.profile = AsProfile {
        responsive_servers: 30_000,
        // The incrementally-assigned, fully responsive /48 that trapped
        // 6Tree (8.3 M addresses, correctly flagged by the hitlist MAPD):
        // modelled as aliased /48s with per-address PMTU state plus /64s
        // with partial sharing (the Akamai TBT cohort of Sec. 5.1).
        aliased: vec![
            AliasSpec {
                protos: web_alias,
                backends: BackendMode::PerAddr,
                domains: 150_000,
                ..AliasSpec::new(48, 12)
            },
            AliasSpec { protos: web_alias, domains: 80_000, ..AliasSpec::new(64, 10_000) },
        ],
        domains: 700_000,
        ..AsProfile::default()
    };
    v.push(akamai);

    let mut akamai_alias = NamedSpec::new(33905, "Akamai-ALIAS", AsCategory::Cdn, "US");
    akamai_alias.profile = AsProfile {
        // 100 % aliased, like AS209242.
        aliased: vec![AliasSpec {
            protos: web_alias,
            backends: BackendMode::LoadBalanced(4),
            domains: 30_000,
            ..AliasSpec::new(36, 16)
        }],
        ..AsProfile::default()
    };
    v.push(akamai_alias);

    let mut google = NamedSpec::new(15169, "Google", AsCategory::Cdn, "US");
    google.profile = AsProfile {
        responsive_servers: 12_000,
        proto_mix: ProtoMix::QuicEdge,
        aliased: vec![AliasSpec {
            protos: web_alias,
            backends: BackendMode::LoadBalanced(6),
            domains: 300_000,
            ..AliasSpec::new(52, 400)
        }],
        domains: 900_000,
        ..AsProfile::default()
    };
    v.push(google);

    let mut epicup = NamedSpec::new(397165, "EpicUp", AsCategory::Cloud, "US");
    epicup.blocks = 61;
    epicup.announce_blocks = true;
    epicup.profile = AsProfile {
        // 61 fully responsive /28s — the shortest aliased prefixes seen.
        aliased: vec![AliasSpec {
            plen: 28,
            count: 61,
            protos: ProtoSet::of(&[Protocol::Icmp, Protocol::Tcp80, Protocol::Tcp443]),
            backends: BackendMode::Single,
            domains: 0,
            since: Day::LAUNCH,
        }],
        ..AsProfile::default()
    };
    v.push(epicup);

    let mut trafficforce = NamedSpec::new(212144, "Trafficforce", AsCategory::Hosting, "LT");
    trafficforce.announce_per_block = 8;
    trafficforce.profile = AsProfile {
        // 66.4 k ICMP-only /64s appearing in February 2022 (Sec. 5).
        aliased: vec![AliasSpec {
            plen: 64,
            count: 66_400,
            protos: ProtoSet::of(&[Protocol::Icmp]),
            backends: BackendMode::Single,
            domains: 0,
            since: events::TRAFFICFORCE_FLOOD,
        }],
        ..AsProfile::default()
    };
    v.push(trafficforce);

    // ---- Eyeball ISPs driving input accumulation (Sec. 4.1) ----
    let mut antel = NamedSpec::new(6057, "ANTEL", AsCategory::Isp, "UY");
    antel.profile = AsProfile {
        responsive_servers: 15_000,
        cpe_devices: 900_000,
        router_hops: 400_000,
        ..AsProfile::default()
    };
    v.push(antel);

    let mut dtag = NamedSpec::new(3320, "DTAG", AsCategory::Isp, "DE");
    dtag.profile = AsProfile {
        responsive_servers: 40_000,
        cpe_devices: 550_000,
        router_hops: 500_000,
        ..AsProfile::default()
    };
    v.push(dtag);

    let mut zte_isp = NamedSpec::new(17621, "China-Unicom-Shanghai", AsCategory::ChineseIsp, "CN");
    zte_isp.profile = AsProfile {
        // The /32 where one ZTE MAC appears in 240 k distinct addresses.
        shared_mac_addrs: 240_000,
        cpe_devices: 120_000,
        router_hops: 300_000,
        responsive_servers: 3_000,
        ..AsProfile::default()
    };
    v.push(zte_isp);

    // ---- GFW-impacted Chinese networks (Table 5) ----
    let gfw_top: [(u32, &str, u64, u64); 10] = [
        (4134, "China-Telecom-Backbone", 62_300_000, 60_000),
        (4812, "China-Telecom", 19_500_000, 237_000),
        (134774, "ChinaNet-Hubei", 18_600_000, 8_000),
        (134773, "ChinaNet-Hunan", 10_700_000, 6_000),
        (140329, "ChinaNet-Shaanxi", 3_100_000, 3_000),
        (134772, "ChinaNet-Guizhou", 2_500_000, 3_000),
        (4837, "China-Unicom", 2_500_000, 40_000),
        (136200, "ChinaNet-Jiangxi", 2_300_000, 2_000),
        (140330, "ChinaNet-Gansu", 2_300_000, 2_000),
        (140316, "ChinaNet-Qinghai", 1_600_000, 2_000),
    ];
    for (asn, name, hops, servers) in gfw_top {
        let mut spec = NamedSpec::new(asn, name, AsCategory::ChineseIsp, "CN");
        spec.announce_per_block = 4;
        spec.profile = AsProfile {
            router_hops: hops,
            responsive_servers: servers,
            flaky_servers: servers,
            // Eyeball CPE contributes little to the GFW-impacted set —
            // Table 5 is dominated by the rotating backbone router pools.
            cpe_devices: servers / 2,
            ..AsProfile::default()
        };
        v.push(spec);
    }

    let mut china_mobile = NamedSpec::new(9808, "China-Mobile", AsCategory::ChineseIsp, "CN");
    china_mobile.profile = AsProfile {
        router_hops: 900_000,
        responsive_servers: 12_000,
        // Second-largest contributor to the re-scanned unresponsive pool.
        flaky_servers: 90_000,
        ..AsProfile::default()
    };
    v.push(china_mobile);

    // ---- The responsive head (Fig. 2 right tail) ----
    let mut linode = NamedSpec::new(63949, "Linode", AsCategory::Cloud, "US");
    linode.profile = AsProfile {
        // Top responsive AS: 7.9 % of 3.2 M.
        responsive_servers: 253_000,
        dns_servers: 6_000,
        flaky_servers: 120_000,
        domains: 3_000_000,
        ..AsProfile::default()
    };
    v.push(linode);

    // ---- TGA-favourite dense deployments (Sec. 6) ----
    let mut free = NamedSpec::new(12322, "Free-SAS", AsCategory::Isp, "FR");
    free.announce_per_block = 2;
    free.profile = AsProfile {
        // 149.8 k already in the hitlist; ~2 M more responsive addresses in
        // dense incremental clusters only the TGAs find (52.1 % of
        // 6Graph's yield).
        responsive_servers: 150_000,
        dense_hidden: 5_200_000,
        dense_visible_pct: 6,
        cpe_devices: 100_000,
        ..AsProfile::default()
    };
    v.push(free);

    let mut digitalocean = NamedSpec::new(14061, "DigitalOcean", AsCategory::Cloud, "US");
    digitalocean.profile = AsProfile {
        responsive_servers: 110_000,
        dense_hidden: 1_700_000,
        dense_visible_pct: 10,
        dns_servers: 4_000,
        flaky_servers: 60_000,
        domains: 1_200_000,
        ..AsProfile::default()
    };
    v.push(digitalocean);

    let mut vnpt = NamedSpec::new(45899, "VNPT", AsCategory::Isp, "VN");
    vnpt.profile = AsProfile {
        // Dominates the re-scanned 30-day pool (34.4 % of its yield).
        responsive_servers: 18_000,
        flaky_servers: 1_300_000,
        cpe_devices: 180_000,
        ..AsProfile::default()
    };
    v.push(vnpt);

    let mut racktech = NamedSpec::new(208861, "Racktech", AsCategory::Hosting, "RU");
    racktech.profile = AsProfile {
        responsive_servers: 9_000,
        dense_hidden: 650_000,
        dense_visible_pct: 45,
        // The long tail of Fig. 5: aliased prefixes down to /112.
        aliased: vec![AliasSpec { domains: 20_000, ..AliasSpec::new(112, 40) }],
        ..AsProfile::default()
    };
    v.push(racktech);

    let mut deutsche_glasfaser = NamedSpec::new(60294, "Deutsche-Glasfaser", AsCategory::Isp, "DE");
    deutsche_glasfaser.profile = AsProfile {
        responsive_servers: 20_000,
        dense_hidden: 550_000,
        dense_visible_pct: 45,
        cpe_devices: 90_000,
        ..AsProfile::default()
    };
    v.push(deutsche_glasfaser);

    let mut homepl = NamedSpec::new(12824, "home.pl", AsCategory::Hosting, "PL");
    homepl.profile = AsProfile {
        responsive_servers: 30_000,
        dense_hidden: 620_000,
        dense_visible_pct: 35,
        dns_servers: 5_000,
        domains: 900_000,
        // Fig. 5 long-prefix tail: aliased /96s.
        aliased: vec![AliasSpec { domains: 30_000, ..AliasSpec::new(96, 60) }],
        ..AsProfile::default()
    };
    v.push(homepl);

    let mut cern = NamedSpec::new(513, "CERN", AsCategory::Academic, "CH");
    cern.profile = AsProfile {
        // Passive-source-visible academic hosts (CAIDA Ark vantage space).
        responsive_servers: 6_000,
        router_hops: 160_000,
        ..AsProfile::default()
    };
    v.push(cern);

    let mut arnes = NamedSpec::new(2107, "ARNES", AsCategory::Academic, "SI");
    arnes.profile =
        AsProfile { responsive_servers: 5_000, dns_servers: 800, ..AsProfile::default() };
    v.push(arnes);

    let mut level3 = NamedSpec::new(3356, "Level3", AsCategory::Transit, "US");
    level3.profile =
        AsProfile { responsive_servers: 30_000, router_hops: 2_000_000, ..AsProfile::default() };
    v.push(level3);

    let mut misaka = NamedSpec::new(50069, "Misaka", AsCategory::Dns, "US");
    misaka.profile = AsProfile {
        responsive_servers: 1_500,
        dns_servers: 2_500,
        // Anycast DNS: aliased prefixes answering UDP/53 (Table 2's rare
        // UDP/53-responsive aliased cohort).
        aliased: vec![AliasSpec {
            protos: ProtoSet::of(&[Protocol::Icmp, Protocol::Udp53]),
            backends: BackendMode::Single,
            domains: 0,
            ..AliasSpec::new(64, 120)
        }],
        ..AsProfile::default()
    };
    v.push(misaka);

    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> AsRegistry {
        AsRegistry::build(Scale::tiny())
    }

    #[test]
    fn named_ases_present() {
        let r = registry();
        for asn in [16509, 13335, 54113, 20940, 212144, 6057, 3320, 4134, 4812, 63949, 12322] {
            assert!(r.by_asn(asn).is_some(), "AS{asn} missing");
        }
    }

    #[test]
    fn origin_lookup_round_trips() {
        let r = registry();
        for (id, info) in r.iter() {
            for p in &info.prefixes {
                let probe = Addr(p.network().0 | 0x42);
                assert_eq!(r.origin(probe), Some(id), "AS{} prefix {p}", info.asn);
            }
        }
    }

    #[test]
    fn batched_routes_resolve_like_routes_added_one_by_one() {
        use crate::population::{GroupKind, Population};
        let base = registry();
        let population = Population::build(&base);
        // The routes `Internet::build` adds: the aliased prefixes an
        // operator announces.
        let routes: Vec<(Prefix, AsId)> = population
            .groups()
            .iter()
            .filter(|g| matches!(g.kind, GroupKind::Aliased { .. }) && g.prefix.len() <= 64)
            .map(|g| (g.prefix, g.asid))
            .collect();
        assert!(routes.len() > 100, "{} routes", routes.len());
        let mut batched = base.clone();
        batched.add_routes(routes.iter().copied());
        let mut one_by_one = base.clone();
        for (prefix, id) in &routes {
            one_by_one.add_route(*prefix, *id);
        }

        let table = |r: &AsRegistry| r.announced_prefixes().collect::<Vec<_>>();
        assert_eq!(table(&batched), table(&one_by_one));
        assert!(table(&batched).len() > table(&base).len());
        assert_eq!(table(crate::Internet::build(Scale::tiny()).registry()), table(&one_by_one));

        let mut more_specific = 0;
        for (i, (prefix, _)) in table(&batched).into_iter().enumerate() {
            let (first, last) = (prefix.network().0, prefix.last().0);
            let inside = prefix.random_addr(i as u64).0;
            for addr in [first, last, inside, first.wrapping_sub(1), last.wrapping_add(1)] {
                let origin = batched.origin_prefix(Addr(addr));
                assert_eq!(origin, one_by_one.origin_prefix(Addr(addr)), "{prefix} at {addr:x}");
                assert_eq!(batched.origin(Addr(addr)), origin.map(|(id, _)| id));
                more_specific += usize::from(origin != base.origin_prefix(Addr(addr)));
            }
        }
        assert!(more_specific > 100, "the added routes answer for their space");
    }

    #[test]
    fn blocks_are_disjoint() {
        let r = registry();
        let mut seen = std::collections::HashSet::new();
        for (_, info) in r.iter() {
            for b in &info.blocks {
                assert_eq!(b.len(), 28);
                assert!(seen.insert(b.network()), "block {b} reused");
            }
        }
    }

    #[test]
    fn china_flagged() {
        let r = registry();
        let ct = r.get(r.by_asn(4134).unwrap());
        assert!(ct.behind_gfw());
        let linode = r.get(r.by_asn(63949).unwrap());
        assert!(!linode.behind_gfw());
    }

    #[test]
    fn vantage_exists_with_addr() {
        let r = registry();
        let addr = r.vantage_addr();
        assert_eq!(r.origin(addr), Some(r.vantage()));
        assert!(!r.get(r.vantage()).behind_gfw());
    }

    #[test]
    fn scaled_counts_reasonable() {
        let tiny = AsRegistry::build(Scale::tiny());
        let paper = AsRegistry::build(Scale::paper());
        assert!(paper.len() > tiny.len());
        assert!(tiny.len() >= 120);
    }

    #[test]
    fn epicup_announces_28s() {
        let r = registry();
        let epic = r.get(r.by_asn(397165).unwrap());
        assert_eq!(epic.prefixes.len(), 61);
        assert!(epic.prefixes.iter().all(|p| p.len() == 28));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = AsRegistry::build(Scale::tiny());
        let b = AsRegistry::build(Scale::tiny());
        assert_eq!(a.len(), b.len());
        for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.prefixes, y.prefixes);
        }
    }

    #[test]
    fn announced_space_log2_sane() {
        let r = registry();
        let epic = r.get(r.by_asn(397165).unwrap());
        // 61 /28s: log2(61 * 2^100) ≈ 105.9
        let l = epic.announced_space_log2();
        assert!((105.0..107.0).contains(&l), "log2 = {l}");
    }
}
