//! The composed simulator: registry + population + zones + GFW + routing,
//! with a probe/response interface at two fidelity levels.
//!
//! * [`Internet::probe`] — the semantic fast path the bulk scanner uses
//!   (hundreds of millions of probes across a four-year service run). It
//!   is [`Internet::resolve`] followed by [`Internet::probe_resolved`]: a
//!   caller that sends a target several probes resolves it once.
//! * [`Internet::send_bytes`] — the wire path: real packet bytes in, real
//!   packet bytes out. It parses the probe, sends it through the entry
//!   points above ([`Internet::probe_attempt`], the attempt number read
//!   from the IPv6 flow label, or [`Internet::probe_ttl`] when its hop
//!   limit runs out on the way) and serializes the answers, so every
//!   decision has one path. Whole faulty service runs scanned both ways
//!   are held to identical results.
//!
//! Mutable state is limited to PMTU caches (what the Too Big Trick pokes)
//! and the controlled-domain query log (what the validation experiment
//! reads), both behind a `Mutex`.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use sixdust_addr::{prf, Addr, AddrBuildHasher};
use sixdust_telemetry::{Counter, Registry};
use sixdust_wire::dns::{DnsMessage, Rcode, Rdata, Record};
use sixdust_wire::icmpv6::Icmpv6;
use sixdust_wire::quic::{QuicPacket, QUIC_V1};
use sixdust_wire::tcp::{TcpOption, TcpSegment};
use sixdust_wire::udp::UdpDatagram;
use sixdust_wire::{
    fragment, Ipv6Header, NextHeader, Packet, Transport, IPV6_HEADER_LEN, IPV6_MIN_MTU,
};

use crate::faults::{FaultConfig, OutageScope};
use crate::fingerprint::{DnsBehavior, TcpFingerprint};
use crate::fleet::RouterPool;
use crate::gfw::Gfw;
use crate::population::{HostView, Population};
use crate::proto::Protocol;
use crate::registry::{AsId, AsInfo, AsRegistry};
use crate::scale::Scale;
use crate::time::Day;
use crate::zones::{DnsZones, ZoneIndex, CONTROLLED_DOMAIN};

/// Default path MTU when no Packet Too Big message has been absorbed.
pub const DEFAULT_MTU: u32 = 1500;

/// ICMPv6 rate-limiter bucket classes (see [`Internet::icmp_rate_limited`]).
const RL_ROUTER: u8 = 0;
const RL_BACKEND: u8 = 1;

/// A semantic probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeKind {
    /// ICMPv6 echo request with a given total payload size in bytes.
    IcmpEcho {
        /// Payload size (drives fragmentation against the PMTU cache).
        size: u16,
    },
    /// TCP SYN to a port.
    TcpSyn {
        /// Destination port.
        port: u16,
    },
    /// A UDP/53 AAAA query.
    Dns {
        /// Queried name.
        qname: String,
    },
    /// A UDP/443 QUIC Initial with a version-negotiation-forcing version.
    Quic,
    /// An ICMPv6 Packet Too Big *sent by us* (the TBT's cache-seeding step).
    TooBig {
        /// Advertised MTU.
        mtu: u32,
    },
}

/// A semantic response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Echo reply; `fragmented` reflects the responder's PMTU cache.
    EchoReply {
        /// Whether the reply came back as fragments.
        fragmented: bool,
    },
    /// SYN-ACK carrying the responder's TCP fingerprint.
    SynAck {
        /// Handshake fingerprint features.
        fp: TcpFingerprint,
    },
    /// RST (port closed but host alive).
    Rst,
    /// A DNS message (real answer, error, or GFW injection).
    Dns(DnsMessage),
    /// QUIC Version Negotiation.
    QuicVn,
    /// Hop-limit expiry en route.
    TimeExceeded {
        /// The router interface that answered.
        hop: Addr,
    },
}

/// The simulated IPv6 Internet.
///
/// ```
/// use sixdust_net::{Internet, ProbeKind, Scale, Day, FaultConfig};
/// let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
/// // Ground truth can enumerate; a scanner can only probe.
/// let (addr, ..) = net.population().enumerate_responsive(Day(100))[0];
/// let replies = net.probe(addr, &ProbeKind::IcmpEcho { size: 8 }, Day(100));
/// assert!(!replies.is_empty());
/// ```
pub struct Internet {
    registry: AsRegistry,
    population: Population,
    zones: DnsZones,
    /// The zone's distinct answers, built by the first zone walk and not
    /// by [`Internet::build`]; a cache of `zones` over `population`,
    /// never state.
    zone_index: OnceLock<ZoneIndex>,
    gfw: Gfw,
    faults: FaultConfig,
    pmtu: Mutex<HashMap<u64, u32>>,
    /// ICMPv6 rate-limiter budgets: `(class, entity) -> (day, spent)`.
    /// Bounded by entity count — each entry resets when its day advances.
    icmp_budget: Mutex<HashMap<(u8, u64), (u32, u32)>>,
    /// Queries that reached the controlled domain's authoritative server:
    /// `(source address, queried name)`.
    ns_log: Mutex<Vec<(Addr, String)>>,
    seed: u64,
    counters: NetCounters,
    /// The vantage AS probes originate from; `None` means the registry's
    /// default vantage (the historical single-vantage behavior,
    /// bit-for-bit).
    source_vantage: Option<AsId>,
    /// The transit AS whose router pool answers hops 2 and 3 of every
    /// path (and the last hops of a destination AS that owns no pool).
    transit: Option<AsId>,
}

/// A destination's path on one day as far as no hop changes it: what
/// [`HopWalk::path`] resolves once for every hop-limited probe toward it.
struct HopPath<'a> {
    dst: Addr,
    /// Hops from the vantage point to `dst`, which is hop `path_len`.
    path_len: u8,
    /// The router pool of the destination's origin AS (the last hops).
    own: Option<&'a RouterPool>,
    /// An outage window silences the probes: the path is down or their
    /// protocol is blacked out.
    silenced: bool,
    /// The loss rate of the probes' protocol toward `dst`, in permille.
    loss_permille: u32,
}

/// What the hop-limited probes of one call share — one
/// [`Internet::probe_ttl`] or every traceroute of a round
/// ([`Internet::trace_tails`]): the protocol's fault state on the day, the
/// two router pools every path crosses, the interfaces resolved so far and
/// the counts, which [`HopWalk::finish`] adds to the shared counters.
struct HopWalk<'a> {
    net: &'a Internet,
    day: Day,
    proto_down: bool,
    proto_drop_permille: u32,
    /// The source vantage's pool: hop 1.
    first: Option<&'a RouterPool>,
    /// Hops 2 and 3, and the last hops of an origin AS that owns no pool.
    transit: Option<&'a RouterPool>,
    /// The slot draw and the loss draw with the hop limit mixed in, for
    /// every hop limit that can expire on a path.
    slot_draws: [prf::Keyed; MAX_PATH_LEN],
    loss_draws: [prf::Keyed; MAX_PATH_LEN],
    /// The last BGP match: the addresses it holds for, and the origin
    /// ([`AsRegistry::origin_span`]). Neighbours in address order share it.
    origin_span: (RangeInclusive<Addr>, Option<AsId>),
    /// `(owner AS, slot) -> (interface, whether it has answered)`:
    /// [`RouterPool::hop_addr`] is a pure function, computed once a slot.
    interfaces: HashMap<u128, (Addr, bool), AddrBuildHasher>,
    tally: ProbeTally,
}

/// The longest path: [`Internet::path_len`] is five to eight hops.
const MAX_PATH_LEN: usize = 8;

/// A destination on one day as far as it does not depend on the probe:
/// what [`Internet::resolve`] works out once so that the probes of
/// several protocols and retry attempts ([`Internet::probe_resolved`])
/// share it.
#[derive(Debug)]
pub struct ResolvedTarget {
    dst: Addr,
    day: Day,
    /// An outage window silences every protocol: the source vantage is
    /// down, or the origin AS has withdrawn its routes.
    path_down: bool,
    /// The loss rate every protocol shares, in permille: the baseline,
    /// the /64's burst state and the origin AS's override.
    loss_permille: u32,
    /// The loss draw of attempt 0, which each protocol holds against its
    /// own rate. A retry's draw is made when the retry is sent.
    first_draw: u32,
    /// The BGP origin, matched at most once and only when something
    /// asks: AS-scoped loss or outages, or a DNS probe during a GFW era.
    origin: OnceCell<Option<AsId>>,
    /// The host answering at `dst` on `day`, if any.
    host: Option<HostView>,
}

/// What the probes of one task counted. A scan worker or a round's
/// traceroutes keep one beside their loop and add it to the shared
/// [`NetCounters`] once ([`NetCounters::add`]) instead of bumping an
/// atomic per probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeTally {
    /// End-to-end probes sent ([`NetCounters::probes`]).
    probes: u64,
    /// Hop-limited probes sent ([`NetCounters::ttl_probes`]).
    ttl_probes: u64,
    /// Probes silenced by loss or an outage window
    /// ([`NetCounters::faults_dropped`]).
    dropped: u64,
    /// Responses delivered twice ([`NetCounters::faults_duplicated`]).
    duplicated: u64,
    /// Hop-limit expiries a router's ICMPv6 budget left unanswered
    /// ([`NetCounters::faults_rate_limited`]).
    rate_limited: u64,
    /// DNS queries filtered on egress
    /// ([`NetCounters::gfw_egress_filtered`]).
    gfw_egress_filtered: u64,
}

/// Always-on traffic counters of one [`Internet`]. They count from the
/// moment the simulator is built; attaching a registry (see
/// [`Internet::with_telemetry`]) merely makes them visible in snapshots.
#[derive(Debug, Clone, Default)]
pub struct NetCounters {
    /// End-to-end probes, structured or carried by a wire packet
    /// ([`Internet::probe`], [`Internet::send_bytes`]).
    pub probes: Counter,
    /// TTL-limited traceroute probes ([`Internet::probe_ttl`]).
    pub ttl_probes: Counter,
    /// Wire-level packets handled ([`Internet::send_bytes`]).
    pub wire_packets: Counter,
    /// Probes silenced by fault injection (loss or an outage window).
    pub faults_dropped: Counter,
    /// Responses delivered twice by fault injection.
    pub faults_duplicated: Counter,
    /// Wire responses with bytes flipped in flight.
    pub faults_corrupted: Counter,
    /// ICMPv6 messages suppressed/ignored by router rate limiting.
    pub faults_rate_limited: Counter,
    /// Hop-1 traceroute answers synthesized because the source vantage
    /// owns no router pool (vantages registered after the population was
    /// built).
    pub hops_vantage_fallback: Counter,
    /// DNS queries for GFW-blocked names filtered on *egress* because the
    /// source vantage sits behind the firewall.
    pub gfw_egress_filtered: Counter,
}

impl NetCounters {
    /// Registers the counter handles under their `net.*` names.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter("net.probes", &self.probes);
        registry.register_counter("net.ttl_probes", &self.ttl_probes);
        registry.register_counter("net.wire_packets", &self.wire_packets);
        registry.register_counter("net.faults.dropped", &self.faults_dropped);
        registry.register_counter("net.faults.duplicated", &self.faults_duplicated);
        registry.register_counter("net.faults.corrupted", &self.faults_corrupted);
        registry.register_counter("net.faults.rate_limited", &self.faults_rate_limited);
        registry.register_counter("net.hops.vantage_fallback", &self.hops_vantage_fallback);
        registry.register_counter("net.gfw.egress_filtered", &self.gfw_egress_filtered);
    }

    /// Adds what a task's probes counted. A count of zero touches
    /// nothing, so a single probe costs the one atomic it always did.
    pub fn add(&self, tally: &ProbeTally) {
        for (counter, n) in [
            (&self.probes, tally.probes),
            (&self.ttl_probes, tally.ttl_probes),
            (&self.faults_dropped, tally.dropped),
            (&self.faults_duplicated, tally.duplicated),
            (&self.faults_rate_limited, tally.rate_limited),
            (&self.gfw_egress_filtered, tally.gfw_egress_filtered),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

impl Internet {
    /// Builds the whole simulated Internet at a given scale.
    pub fn build(scale: Scale) -> Internet {
        let mut registry = AsRegistry::build(scale);
        let population = Population::build(&registry);
        // Operators announce the aliased prefixes they use (plen <= 64):
        // this is what makes them BGP candidates for the alias detection,
        // mirroring how Cloudflare's /48s or EpicUp's /28s show up in
        // routing tables.
        registry.add_routes(
            population
                .groups()
                .iter()
                .filter(|g| {
                    matches!(g.kind, crate::population::GroupKind::Aliased { .. })
                        && g.prefix.len() <= 64
                })
                .map(|g| (g.prefix, g.asid)),
        );
        let zones = DnsZones::build(&registry, &population);
        let transit = registry.by_asn(3356);
        Internet {
            gfw: Gfw::new(prf::mix2(scale.seed, 0x6F0)),
            seed: scale.seed,
            registry,
            population,
            zones,
            zone_index: OnceLock::new(),
            faults: FaultConfig::default_loss(),
            pmtu: Mutex::new(HashMap::new()),
            icmp_budget: Mutex::new(HashMap::new()),
            ns_log: Mutex::new(Vec::new()),
            counters: NetCounters::default(),
            source_vantage: None,
            transit,
        }
    }

    /// Overrides the fault configuration.
    pub fn with_faults(mut self, faults: FaultConfig) -> Internet {
        self.faults = faults;
        self
    }

    /// Returns the simulator scanning *from* vantage `id` instead of the
    /// default vantage. The source vantage determines the outage identity
    /// (see [`crate::Outage::vantage_asn`]), the fault realization (each
    /// non-default vantage sees an independent drop-coin stream over the
    /// same world), GFW egress filtering (a vantage behind the firewall
    /// cannot get queries for blocked names out), and the hop-1
    /// traceroute interface. Selecting the default vantage preserves the
    /// historical streams bit-for-bit.
    pub fn with_source_vantage(mut self, id: AsId) -> Internet {
        self.source_vantage = Some(id);
        self
    }

    /// Registers an additional measurement vantage AS in the underlying
    /// registry (see [`AsRegistry::register_vantage`]) and returns its
    /// id. Registration order determines the new AS's address block, so
    /// multiple `Internet` instances registering the same roster in the
    /// same order agree on every address.
    pub fn register_vantage(&mut self, asn: u32, name: &str, country: &str) -> AsId {
        self.registry.register_vantage(asn, name, country)
    }

    /// The AS the scanner's probes originate from.
    pub fn source_vantage(&self) -> AsId {
        self.source_vantage.unwrap_or_else(|| self.registry.vantage())
    }

    /// The source address probes originate from.
    pub fn source_addr(&self) -> Addr {
        self.registry.vantage_addr_of(self.source_vantage())
    }

    /// The active fault configuration.
    pub fn faults(&self) -> &FaultConfig {
        &self.faults
    }

    /// Exposes the simulator's always-on traffic counters in `registry`
    /// (as `net.probes`, `net.ttl_probes`, `net.wire_packets`).
    pub fn with_telemetry(self, registry: &Registry) -> Internet {
        self.counters.register(registry);
        self
    }

    /// The always-on traffic counters.
    pub fn counters(&self) -> &NetCounters {
        &self.counters
    }

    /// The AS registry.
    pub fn registry(&self) -> &AsRegistry {
        &self.registry
    }

    /// The host population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The DNS namespace.
    pub fn zones(&self) -> &DnsZones {
        &self.zones
    }

    /// Feeds `sink` the zone's AAAA answers on `day`, each distinct
    /// address at least once and in no particular order: what
    /// [`DnsZones::resolve`] returns over every domain, without a call per
    /// domain. The first walk indexes the zone (one pass over the domains);
    /// every later one costs in proportion to the distinct answers.
    pub fn for_each_zone_answer(&self, day: Day, sink: impl FnMut(Addr)) {
        let index = self.zone_index.get_or_init(|| self.zones.index(&self.population));
        self.zones.walk(&self.population, index, day, sink);
    }

    /// Resets mutable state (PMTU caches, ICMPv6 rate budgets, NS query
    /// log).
    pub fn reset_state(&self) {
        lock(&self.pmtu).clear();
        lock(&self.icmp_budget).clear();
        lock(&self.ns_log).clear();
    }

    /// Drains the controlled-domain query log.
    pub fn take_ns_log(&self) -> Vec<(Addr, String)> {
        std::mem::take(&mut lock(&self.ns_log))
    }

    /// The fault-stream seed: the world seed mixed with the fault
    /// config's own seed (zero by default, preserving the historical
    /// drop-coin stream) and — for non-default vantages only — a salt
    /// derived from the source vantage's ASN, so each vantage experiences
    /// an independent fault realization over the same world.
    fn fault_seed(&self) -> u64 {
        self.seed ^ self.faults.seed ^ self.vantage_salt()
    }

    /// Zero for the default vantage (historical streams intact); a PRF of
    /// the source ASN otherwise.
    fn vantage_salt(&self) -> u64 {
        match self.source_vantage {
            Some(id) if id != self.registry.vantage() => {
                prf::mix2(0x56A7_A6E0, u64::from(self.registry.get(id).asn))
            }
            _ => 0,
        }
    }

    /// The AS announcing `dst`, through a cell that holds the one BGP
    /// match per destination.
    fn origin_as(&self, dst: Addr, origin: &OnceCell<Option<AsId>>) -> Option<&AsInfo> {
        origin.get_or_init(|| self.registry.origin(dst)).map(|id| self.registry.get(id))
    }

    /// The half of an outage check no protocol changes, for a config
    /// that has outage windows: the source vantage is down (nothing
    /// answers), or the destination's origin AS has withdrawn its routes.
    fn path_down(&self, dst: Addr, day: Day, origin: &OnceCell<Option<AsId>>) -> bool {
        let source_asn = self.registry.get(self.source_vantage()).asn;
        self.faults.vantage_down_from(source_asn, day)
            || (self.faults.outages.iter().any(|o| matches!(o.scope, OutageScope::Asn(_)))
                && self.origin_as(dst, origin).is_some_and(|o| self.faults.asn_down(o.asn, day)))
    }

    /// The loss rate toward `dst` on `day` before any per-protocol
    /// override.
    fn shared_loss_permille(&self, dst: Addr, day: Day, origin: &OnceCell<Option<AsId>>) -> u32 {
        let origin_asn = if self.faults.as_drop.is_empty() {
            None
        } else {
            self.origin_as(dst, origin).map(|o| o.asn)
        };
        self.faults.loss_permille(self.fault_seed(), dst, None, origin_asn, day)
    }

    /// The loss coins of one day under one salt, keyed for many
    /// destinations ([`loss_coin`]).
    #[inline]
    fn loss_draws(&self, day: Day, salt: u64) -> prf::Keyed {
        prf::Keyed::new(self.fault_seed() ^ salt, 0x10_55 ^ u64::from(day.0))
    }

    /// Charges one ICMPv6 message against `entity`'s daily budget and
    /// reports whether the budget is exhausted (the message must be
    /// suppressed). Always false when rate limiting is off.
    fn icmp_rate_limited(&self, class: u8, entity: u64, day: Day) -> bool {
        let Some(limit) = self.faults.icmp_rate_limit else {
            return false;
        };
        let mut budgets = lock(&self.icmp_budget);
        let slot = budgets.entry((class, entity)).or_insert((day.0, 0));
        if slot.0 != day.0 {
            *slot = (day.0, 0);
        }
        slot.1 += 1;
        slot.1 > limit.per_day
    }

    // ---- routing -------------------------------------------------------

    /// Number of hops from the vantage point to `dst` (the destination is
    /// hop `path_len`).
    pub fn path_len(&self, dst: Addr) -> u8 {
        5 + (prf::prf_u128(self.seed, dst.0 >> 80, 0x9A7) % 4) as u8
    }

    /// The router interface answering at `hop` (1-based, `< path_len`) on
    /// the way to `dst`; `Addr(0)` where no router sits.
    pub fn hop_addr(&self, dst: Addr, hop: u8, day: Day) -> Addr {
        let mut walk = self.hop_walk(Protocol::Icmp, day);
        let path = walk.path(dst);
        walk.interface(&path, hop).map_or(Addr(0), |(addr, _)| *addr)
    }

    /// What every hop-limited probe of protocol `proto` on `day` shares.
    fn hop_walk(&self, proto: Protocol, day: Day) -> HopWalk<'_> {
        HopWalk {
            net: self,
            day,
            proto_down: self.faults.proto_down(proto, day),
            proto_drop_permille: self.faults.proto_drop_permille(proto),
            first: self.population.router_pool_of(self.source_vantage()),
            transit: self.transit.and_then(|id| self.population.router_pool_of(id)),
            slot_draws: std::array::from_fn(|hop| prf::Keyed::new(self.seed, hop as u64)),
            loss_draws: std::array::from_fn(|ttl| self.loss_draws(day, ttl as u64)),
            // Empty: the first destination asks the table.
            origin_span: (Addr(1)..=Addr(0), None),
            interfaces: HashMap::default(),
            tally: ProbeTally::default(),
        }
    }

    /// A probe carrying an explicit hop limit (traceroute). Returns the
    /// single response, if any.
    ///
    /// One probe through the steps [`Internet::trace_tails`] takes for
    /// every hop of every destination, and past the last hop an
    /// end-to-end [`Internet::probe_attempt`]. Its loss coin is salted by
    /// `attempt` as an end-to-end retry's is; attempt 0 draws the coin
    /// every traceroute draws.
    pub fn probe_ttl(
        &self,
        dst: Addr,
        hop_limit: u8,
        kind: &ProbeKind,
        day: Day,
        attempt: u8,
    ) -> Option<Response> {
        let mut walk = self.hop_walk(probe_proto(kind), day);
        let path = walk.path(dst);
        let answer = if !walk.send(&path, hop_limit, attempt) {
            None
        } else if hop_limit < path.path_len {
            walk.expire(&path, hop_limit).map(|(hop, _)| Response::TimeExceeded { hop })
        } else {
            self.probe_attempt(dst, kind, day, attempt).into_iter().next()
        };
        walk.finish();
        answer
    }

    /// Traceroutes toward every one of `dsts`, each cut down to the last
    /// `tail` hops before the destination — where the interfaces a hitlist
    /// does not know yet sit. Returns the interfaces that answered, each
    /// once and in the order they first did, and the number of expiries
    /// answered (an interface shared by many paths answers many).
    ///
    /// A destination's BGP origin is matched once, for its route and its
    /// fault state alike; what is left per hop is the loss draw, the slot
    /// draw and the ICMPv6 budget of the interface, which every expiry
    /// charges. No result depends on the order of `dsts` (a budget admits
    /// its first `per_day` expiries whichever they are); ascending
    /// addresses make the BGP matches cheapest.
    pub fn trace_tails(
        &self,
        dsts: &[Addr],
        tail: u8,
        kind: &ProbeKind,
        day: Day,
    ) -> (Vec<Addr>, u64) {
        let mut walk = self.hop_walk(probe_proto(kind), day);
        let (mut hops, mut answered) = (Vec::new(), 0u64);
        for &dst in dsts {
            let path = walk.path(dst);
            for ttl in path.path_len.saturating_sub(tail)..path.path_len {
                if !walk.send(&path, ttl, 0) {
                    continue;
                }
                if let Some((hop, answered_before)) = walk.expire(&path, ttl) {
                    answered += 1;
                    if !answered_before {
                        hops.push(hop);
                    }
                }
            }
        }
        walk.finish();
        (hops, answered)
    }

    // ---- end-to-end probes ----------------------------------------------

    /// Sends a probe to `dst` and returns every response that comes back
    /// (the GFW can answer in addition to — or instead of — the target).
    ///
    /// Equivalent to [`Internet::probe_attempt`] with `attempt == 0`.
    pub fn probe(&self, dst: Addr, kind: &ProbeKind, day: Day) -> Vec<Response> {
        self.probe_attempt(dst, kind, day, 0)
    }

    /// Sends one retry attempt of a probe. The loss coin is salted by
    /// `attempt`, so consecutive attempts toward the same destination on
    /// the same day see *independent* drop decisions — this is what makes
    /// retries actually mask loss (a retry loop replaying attempt 0 gets
    /// the identical coin and learns nothing). Attempt 0 reproduces the
    /// historical [`Internet::probe`] stream bit-for-bit.
    ///
    /// One [`Internet::resolve`], one [`Internet::probe_resolved`], and
    /// the probe's counts added to [`Internet::counters`].
    pub fn probe_attempt(
        &self,
        dst: Addr,
        kind: &ProbeKind,
        day: Day,
        attempt: u8,
    ) -> Vec<Response> {
        let mut tally = ProbeTally::default();
        let out = self.probe_resolved(&self.resolve(dst, day), kind, attempt, &mut tally);
        self.counters.add(&tally);
        out
    }

    /// Resolves `dst` on `day` as far as no probe kind changes it: the
    /// host behind the address (the one population lookup of the
    /// end-to-end path), whether an outage takes the whole path down, and
    /// the loss rate and first loss draw all protocols share. The BGP
    /// origin is matched only if a fault scoped to an AS, or later a DNS
    /// probe in a GFW era, asks for it.
    ///
    /// Inlined into its callers (as are `loss_draw` and
    /// [`FaultConfig::loss_permille`] beneath it): built in place, the
    /// resolution keeps a single probe of a dark address at the cost it
    /// had before the probe was split.
    #[inline]
    pub fn resolve(&self, dst: Addr, day: Day) -> ResolvedTarget {
        let origin = OnceCell::new();
        let path_down = !self.faults.outages.is_empty() && self.path_down(dst, day, &origin);
        let (loss_permille, first_draw) = if self.faults.any_loss() {
            (
                self.shared_loss_permille(dst, day, &origin),
                loss_coin(self.loss_draws(day, attempt_salt(0)), dst),
            )
        } else {
            (0, 0)
        };
        let host = self.population.lookup(dst, day);
        ResolvedTarget { dst, day, path_down, loss_permille, first_draw, origin, host }
    }

    /// [`Internet::probe_attempt`] toward an already resolved target,
    /// counting into the caller's `tally` (see [`NetCounters::add`])
    /// instead of the shared counters. This is the one end-to-end probe
    /// body: a scan resolves a target once and sends it every protocol's
    /// probes and retries through here.
    pub fn probe_resolved(
        &self,
        target: &ResolvedTarget,
        kind: &ProbeKind,
        attempt: u8,
        tally: &mut ProbeTally,
    ) -> Vec<Response> {
        let (dst, day) = (target.dst, target.day);
        let proto = probe_proto(kind);
        tally.probes += 1;
        let loss_permille = target.loss_permille.max(self.faults.proto_drop_permille(proto));
        let lost = loss_permille > 0
            && loss_permille
                > match attempt {
                    0 => target.first_draw,
                    _ => loss_coin(self.loss_draws(day, attempt_salt(attempt)), dst),
                };
        if target.path_down || self.faults.proto_down(proto, day) || lost {
            tally.dropped += 1;
            return Vec::new();
        }
        // The name the firewall acts on: a blocked one, inside an era.
        // Tested before anything is built: on a day without an era a
        // query pays for neither the BGP match nor the message the
        // injector would read.
        let censored = match kind {
            ProbeKind::Dns { qname } if Gfw::era(day).is_some() && Gfw::is_blocked(qname) => {
                Some(qname.as_str())
            }
            _ => None,
        };
        // Only a host or the firewall can answer.
        if target.host.is_none() && censored.is_none() {
            return Vec::new();
        }
        self.answers(target, kind, censored, attempt, tally)
    }

    /// What comes back for a probe that was neither silenced nor lost,
    /// `censored` being the name the firewall acts on, if it does. Out
    /// of line on purpose: nine probes in ten of a scan end before this,
    /// and should not pay for the frame the answers need.
    #[inline(never)]
    fn answers(
        &self,
        target: &ResolvedTarget,
        kind: &ProbeKind,
        censored: Option<&str>,
        attempt: u8,
        tally: &mut ProbeTally,
    ) -> Vec<Response> {
        let (dst, day) = (target.dst, target.day);
        let mut out = Vec::new();
        if let Some(qname) = censored {
            // A vantage behind the firewall can't get blocked queries
            // *out*: during an active era the GFW filters on egress too,
            // so a CN-source scanner sees silence where an EU vantage
            // sees injected answers — the disagreement the multi-vantage
            // analysis classifies.
            if self.registry.get(self.source_vantage()).behind_gfw() {
                tally.gfw_egress_filtered += 1;
                return out;
            }
            // The firewall sits on-path and acts before delivery.
            if self.origin_as(dst, &target.origin).is_some_and(AsInfo::behind_gfw) {
                let query = DnsMessage::aaaa_query(0, qname);
                out.extend(self.gfw.inject(dst, &query, day).into_iter().map(Response::Dns));
            }
        }

        if let Some(host) = &target.host {
            out.extend(self.host_response(dst, host, kind, day));
        }

        // In-flight duplication: the last response arrives twice.
        if self.faults.duplicate_permille > 0
            && !out.is_empty()
            && prf::chance(
                self.fault_seed() ^ attempt_salt(attempt),
                dst.0,
                0xD0_B1 ^ u64::from(day.0),
                u64::from(self.faults.duplicate_permille),
                1000,
            )
        {
            out.push(out.last().expect("non-empty").clone());
            tally.duplicated += 1;
        }
        out
    }

    fn host_response(
        &self,
        dst: Addr,
        host: &HostView,
        kind: &ProbeKind,
        day: Day,
    ) -> Option<Response> {
        match kind {
            ProbeKind::IcmpEcho { size } => {
                if !host.protos.contains(Protocol::Icmp) {
                    return None;
                }
                // Every cached MTU is held to `IPV6_MIN_MTU` or more when a
                // Too Big is absorbed (below), so an echo that fits the
                // minimum never fragments and never needs the cache.
                let wire_len = u32::from(*size) + 48;
                let fragmented = wire_len > IPV6_MIN_MTU
                    && wire_len
                        > lock(&self.pmtu).get(&host.backend_uid).copied().unwrap_or(DEFAULT_MTU);
                Some(Response::EchoReply { fragmented })
            }
            ProbeKind::TooBig { mtu } => {
                // Only hosts that answer pings process the error message.
                if host.protos.contains(Protocol::Icmp) {
                    // Hosts rate-limit inbound ICMPv6 error processing too:
                    // over budget, the Too Big is ignored and the TBT's
                    // cache seeding silently fails.
                    if self.icmp_rate_limited(RL_BACKEND, host.backend_uid, day) {
                        self.counters.faults_rate_limited.incr();
                        return None;
                    }
                    lock(&self.pmtu).insert(host.backend_uid, (*mtu).max(IPV6_MIN_MTU));
                }
                None
            }
            ProbeKind::TcpSyn { port } => {
                let proto = match port {
                    80 => Protocol::Tcp80,
                    443 => Protocol::Tcp443,
                    _ => {
                        return if host.protos.contains(Protocol::Tcp80)
                            || host.protos.contains(Protocol::Tcp443)
                        {
                            Some(Response::Rst)
                        } else {
                            None
                        }
                    }
                };
                if host.protos.contains(proto) {
                    Some(Response::SynAck { fp: host.fingerprint.clone() })
                } else if host.protos.contains(Protocol::Tcp80)
                    || host.protos.contains(Protocol::Tcp443)
                {
                    // TCP stack present, port closed.
                    Some(Response::Rst)
                } else {
                    None
                }
            }
            ProbeKind::Dns { qname } => {
                if !host.protos.contains(Protocol::Udp53) {
                    return None;
                }
                let behavior = host.dns.unwrap_or(DnsBehavior::AuthRefused);
                let query = DnsMessage::aaaa_query(0, qname);
                Some(Response::Dns(self.dns_answer(dst, behavior, &query, day)))
            }
            ProbeKind::Quic => {
                if host.protos.contains(Protocol::Udp443) {
                    Some(Response::QuicVn)
                } else {
                    None
                }
            }
        }
    }

    fn dns_answer(
        &self,
        responder: Addr,
        behavior: DnsBehavior,
        query: &DnsMessage,
        day: Day,
    ) -> DnsMessage {
        let qname = query.qname().unwrap_or("").to_string();
        let is_controlled = qname.ends_with(CONTROLLED_DOMAIN);
        match behavior {
            DnsBehavior::AuthRefused => DnsMessage::response_to(query, Rcode::Refused),
            DnsBehavior::OpenResolver | DnsBehavior::Proxy => {
                let mut resp = DnsMessage::response_to(query, Rcode::NoError);
                if is_controlled {
                    // Recursion reaches our authoritative server; log the
                    // querying source. Proxies resolve via another
                    // interface, so the observed source differs from the
                    // probed address.
                    let observed_src = if behavior == DnsBehavior::Proxy {
                        Addr(responder.0 ^ 0xffff)
                    } else {
                        responder
                    };
                    lock(&self.ns_log).push((observed_src, qname.clone()));
                    resp.answers.push(Record {
                        name: qname,
                        ttl: 300,
                        rdata: Rdata::Aaaa(self.registry.vantage_addr()),
                    });
                } else if Gfw::is_blocked(&qname) {
                    // A real resolver would answer; give a plausible AAAA.
                    resp.answers.push(Record {
                        name: qname,
                        ttl: 300,
                        rdata: Rdata::Aaaa(Addr(0x2a00_1450_4001_0800_u128 << 64 | 0x200e)),
                    });
                } else {
                    // Resolve within the simulated namespace when possible;
                    // otherwise NXDOMAIN.
                    let d = prf::prf_u128(self.seed, qname_hash(&qname), 0xDD)
                        % self.zones.total_domains();
                    let (addr, _) = self.zones.resolve(&self.population, d, day);
                    resp.answers.push(Record { name: qname, ttl: 300, rdata: Rdata::Aaaa(addr) });
                }
                resp
            }
            DnsBehavior::Referral => {
                let mut resp = DnsMessage::response_to(query, Rcode::NoError);
                resp.authority.push(Record {
                    name: "test".into(),
                    ttl: 86_400,
                    rdata: Rdata::Ns("a.root-servers.net".into()),
                });
                resp
            }
            DnsBehavior::Broken => {
                if prf::chance(self.seed, responder.0, 0xDE, 1, 2) {
                    DnsMessage::response_to(query, Rcode::Other(11))
                } else {
                    let mut resp = DnsMessage::response_to(query, Rcode::NoError);
                    resp.authority.push(Record {
                        name: qname,
                        ttl: 0,
                        rdata: Rdata::Ns("localhost".into()),
                    });
                    resp
                }
            }
        }
    }

    // ---- wire adapter ----------------------------------------------------

    /// Full wire-level send: parses the probe bytes, sends the probe they
    /// carry through the structured entry points, and serializes what
    /// comes back. There is one decision path: a probe whose hop limit
    /// runs out before `dst` is [`Internet::probe_ttl`], any other is
    /// [`Internet::probe_attempt`], each with the attempt number the IPv6
    /// flow label carries (0, a first probe, unless the sender set it), so
    /// a retry draws the loss coin a structured retry draws. Outages, loss,
    /// duplication and the firewall are decided there and counted in the
    /// same counters; only corruption is the wire's own. A SYN-ACK leaves
    /// with its fingerprint's initial hop limit, less the path length.
    pub fn send_bytes(&self, bytes: &[u8], day: Day) -> Vec<Vec<u8>> {
        self.counters.wire_packets.incr();
        let Ok(probe) = Packet::parse(bytes) else {
            return Vec::new();
        };
        let Some(kind) = probe_kind(&probe.transport) else {
            return Vec::new();
        };
        let (src, dst) = (probe.ipv6.src, probe.ipv6.dst);
        let attempt = u8::try_from(probe.ipv6.flow_label).unwrap_or(u8::MAX);
        if probe.ipv6.hop_limit < self.path_len(dst) {
            let Some(Response::TimeExceeded { hop }) =
                self.probe_ttl(dst, probe.ipv6.hop_limit, &kind, day, attempt)
            else {
                return Vec::new();
            };
            let reply = Packet {
                ipv6: Ipv6Header::new(hop, src, 64),
                transport: Transport::Icmpv6(Icmpv6::TimeExceeded { orig_dst: dst }),
            };
            return vec![self.maybe_corrupt(reply.to_bytes(), dst, day, 0)];
        }
        let mut replies = Vec::new();
        for (i, response) in self.probe_attempt(dst, &kind, day, attempt).into_iter().enumerate() {
            let mut ipv6 = Ipv6Header::new(dst, src, 64);
            let mut fragments = false;
            let transport = match (response, &probe.transport) {
                (
                    Response::EchoReply { fragmented },
                    Transport::Icmpv6(Icmpv6::EchoRequest { ident, seq, payload }),
                ) => {
                    fragments = fragmented;
                    Transport::Icmpv6(Icmpv6::EchoReply {
                        ident: *ident,
                        seq: *seq,
                        payload: vec![0u8; payload.len()],
                        fragmented,
                    })
                }
                (Response::SynAck { fp }, Transport::Tcp(syn)) => {
                    ipv6.hop_limit = fp.ittl.saturating_sub(self.path_len(dst));
                    let seq = prf::prf_u128(self.seed, dst.0, 0x5EC) as u32;
                    let mut syn_ack = TcpSegment::syn_ack(syn, seq, fp.window);
                    syn_ack.options = fingerprint_options(&fp);
                    Transport::Tcp(syn_ack)
                }
                (Response::Rst, Transport::Tcp(syn)) => Transport::Tcp(TcpSegment::rst(syn)),
                (Response::Dns(mut msg), Transport::Udp(query)) => {
                    // The query's id: the first two bytes of a message
                    // that parsed.
                    msg.id = u16::from_be_bytes([query.payload[0], query.payload[1]]);
                    Transport::Udp(UdpDatagram {
                        src_port: 53,
                        dst_port: query.src_port,
                        payload: msg.to_bytes(),
                    })
                }
                (Response::QuicVn, Transport::Udp(initial)) => {
                    let Ok(QuicPacket::Initial { dcid, scid, .. }) =
                        QuicPacket::parse(&initial.payload)
                    else {
                        continue;
                    };
                    Transport::Udp(UdpDatagram {
                        src_port: 443,
                        dst_port: initial.src_port,
                        payload: QuicPacket::VersionNegotiation {
                            dcid: scid,
                            scid: dcid,
                            supported: vec![QUIC_V1],
                        }
                        .to_bytes(),
                    })
                }
                _ => continue,
            };
            let reply = Packet { ipv6, transport }.to_bytes();
            if fragments {
                // A host whose PMTU cache says 1280 sends real fragments,
                // each datagram it sends under its own identification.
                let ident = prf::prf_u128(self.seed, dst.0, 0xF4A6) as u32;
                replies.extend(fragment::fragment(
                    &ipv6,
                    NextHeader::Icmpv6,
                    &reply[IPV6_HEADER_LEN..],
                    IPV6_MIN_MTU,
                    ident.wrapping_add(i as u32),
                ));
            } else {
                replies.push(reply);
            }
        }
        replies
            .into_iter()
            .enumerate()
            .map(|(i, bytes)| self.maybe_corrupt(bytes, dst, day, i as u64))
            .collect()
    }

    /// Applies in-flight corruption to one wire response: with probability
    /// `corrupt_permille`, a handful of bytes are deterministically
    /// flipped. Downstream parsers must treat the result as untrusted
    /// input — this is the fault that drives the never-panic guarantee of
    /// the wire stack with realistic garbage instead of fuzzer noise.
    fn maybe_corrupt(&self, mut bytes: Vec<u8>, dst: Addr, day: Day, idx: u64) -> Vec<u8> {
        if self.faults.corrupt_permille == 0 || bytes.is_empty() {
            return bytes;
        }
        let tag = 0xC0_22 ^ (u64::from(day.0) << 8) ^ idx;
        if !prf::chance(
            self.fault_seed(),
            dst.0,
            tag,
            u64::from(self.faults.corrupt_permille),
            1000,
        ) {
            return bytes;
        }
        let mut stream = prf::PrfStream::new(self.fault_seed(), dst.0, tag ^ 0xAA);
        let flips = 1 + stream.next_bounded(4);
        for _ in 0..flips {
            let pos = stream.next_bounded(bytes.len() as u64) as usize;
            bytes[pos] ^= 1 + stream.next_bounded(255) as u8;
        }
        self.counters.faults_corrupted.incr();
        bytes
    }
}

impl<'a> HopWalk<'a> {
    /// Resolves the path to `dst`: one BGP match at most, which finds the
    /// origin AS's router pool and decides the AS-scoped outages and loss.
    fn path(&mut self, dst: Addr) -> HopPath<'a> {
        let net = self.net;
        if !self.origin_span.0.contains(&dst) {
            let (origin, last) = net.registry.origin_span(dst);
            self.origin_span = (dst..=last, origin);
        }
        let origin = OnceCell::from(self.origin_span.1);
        let silenced = !net.faults.outages.is_empty()
            && (self.proto_down || net.path_down(dst, self.day, &origin));
        let loss_permille = if net.faults.any_loss() {
            net.shared_loss_permille(dst, self.day, &origin).max(self.proto_drop_permille)
        } else {
            0
        };
        let own = origin.into_inner().flatten().and_then(|id| net.population.router_pool_of(id));
        let path_len = net.path_len(dst);
        debug_assert!(usize::from(path_len) <= MAX_PATH_LEN);
        HopPath { dst, path_len, own, silenced, loss_permille }
    }

    /// Counts one probe toward `path.dst` with hop limit `ttl`; false when
    /// an outage silences it or it is lost on the way. The loss coin is
    /// salted by `ttl` and by the retry `attempt` ([`attempt_salt`], 0 for
    /// a first probe); only first probes within every path's length (the
    /// probe expires on the way) have their key made.
    fn send(&mut self, path: &HopPath<'_>, ttl: u8, attempt: u8) -> bool {
        let coin = || {
            let made = self.loss_draws.get(usize::from(ttl)).filter(|_| attempt == 0).copied();
            let salt = u64::from(ttl) ^ attempt_salt(attempt);
            loss_coin(made.unwrap_or_else(|| self.net.loss_draws(self.day, salt)), path.dst)
        };
        let lost = path.silenced || (path.loss_permille > 0 && coin() < path.loss_permille);
        self.tally.ttl_probes += 1;
        self.tally.dropped += u64::from(lost);
        !lost
    }

    /// The router interface at `hop` (1-based, `< path_len`) of the path,
    /// and whether it has answered in this walk; `None` where no router
    /// sits.
    fn interface(&mut self, path: &HopPath<'_>, hop: u8) -> Option<&mut (Addr, bool)> {
        let (net, day) = (self.net, self.day);
        // A route varies per /48-ish block up to the transit and per /64
        // inside the destination's network.
        let (pool, key) = match hop {
            1 => (self.first, path.dst.0 >> 80),
            2 | 3 => (self.transit, path.dst.0 >> 80),
            _ => (path.own.or(self.transit), path.dst.0 >> 64),
        };
        let (owner, slot) = match pool {
            // No path is long enough for a hop the table has no key for.
            Some(pool) => {
                (pool.asid, self.slot_draws.get(usize::from(hop))?.draw(key) % pool.slots.max(1))
            }
            // Vantages registered after the population was built own no
            // router pool; synthesize a stable first-hop interface inside
            // the vantage's own prefix instead of panicking.
            None if hop == 1 => {
                net.counters.hops_vantage_fallback.incr();
                (net.source_vantage(), 2 + prf::prf_u128(net.seed, key, 0xF4_11) % 14)
            }
            None => return None,
        };
        let resolved = self.interfaces.entry(u128::from(owner.0) << 64 | u128::from(slot));
        Some(resolved.or_insert_with(|| {
            let addr = match pool {
                Some(pool) => pool.hop_addr(slot, day),
                None => {
                    Addr(net.registry.vantage_addr_of(owner).0 & (u128::MAX << 64) | slot as u128)
                }
            };
            (addr, false)
        }))
    }

    /// Lets a probe that was not lost expire at hop `ttl` (`< path_len`):
    /// the interface there and whether it had answered before, or `None`
    /// where no router sits or its ICMPv6 budget is spent.
    fn expire(&mut self, path: &HopPath<'_>, ttl: u8) -> Option<(Addr, bool)> {
        let (net, day) = (self.net, self.day);
        let interface = self.interface(path, ttl.max(1))?;
        let hop = interface.0;
        // Routers rate-limit ICMPv6 error generation (RFC 4443 §2.4f):
        // once an interface's daily budget is spent, further expiries go
        // unanswered and yarrp sees a gap. Every expiry charges it.
        if net.icmp_rate_limited(RL_ROUTER, (hop.0 >> 64) as u64 ^ hop.0 as u64, day) {
            self.tally.rate_limited += 1;
            return None;
        }
        Some((hop, std::mem::replace(&mut interface.1, true)))
    }

    /// Adds the walk's counts to the shared counters.
    fn finish(self) {
        self.net.counters.add(&self.tally);
    }
}

/// Takes one of the simulator's state locks. Every update under them is
/// a single map or vector operation, so a lock poisoned by a panicking
/// scan worker is recovered rather than failing every later probe.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The scan protocol a probe kind exercises (for per-protocol fault
/// overrides). `TooBig` rides ICMPv6.
fn probe_proto(kind: &ProbeKind) -> Protocol {
    match kind {
        ProbeKind::IcmpEcho { .. } | ProbeKind::TooBig { .. } => Protocol::Icmp,
        ProbeKind::TcpSyn { port: 443 } => Protocol::Tcp443,
        ProbeKind::TcpSyn { .. } => Protocol::Tcp80,
        ProbeKind::Dns { .. } => Protocol::Udp53,
        ProbeKind::Quic => Protocol::Udp443,
    }
}

/// The probe a parsed packet carries, if the simulator answers it: an
/// echo request, a Too Big, a SYN, a DNS query to port 53 or a QUIC
/// Initial to port 443.
fn probe_kind(transport: &Transport) -> Option<ProbeKind> {
    Some(match transport {
        Transport::Icmpv6(Icmpv6::EchoRequest { payload, .. }) => {
            ProbeKind::IcmpEcho { size: payload.len() as u16 }
        }
        Transport::Icmpv6(Icmpv6::PacketTooBig { mtu }) => ProbeKind::TooBig { mtu: *mtu },
        Transport::Tcp(seg) if seg.flags.syn && !seg.flags.ack => {
            ProbeKind::TcpSyn { port: seg.dst_port }
        }
        Transport::Udp(d) if d.dst_port == 53 => {
            let query = DnsMessage::parse(&d.payload).ok()?;
            ProbeKind::Dns { qname: query.qname().unwrap_or("").to_string() }
        }
        Transport::Udp(d) if d.dst_port == 443 && QuicPacket::parse(&d.payload).is_ok() => {
            ProbeKind::Quic
        }
        _ => return None,
    })
}

/// One probe's loss coin, in `0..1000`: the probe is lost when it falls
/// below the loss rate in permille.
#[inline]
fn loss_coin(draws: prf::Keyed, dst: Addr) -> u32 {
    (draws.draw(dst.0) % 1000) as u32
}

/// Salts the per-attempt loss coin. Attempt 0 maps to salt 0 so the
/// first attempt reproduces the historical single-attempt stream.
fn attempt_salt(attempt: u8) -> u64 {
    u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Reconstructs a TCP option list realizing a fingerprint's Optionstext.
pub fn fingerprint_options(fp: &TcpFingerprint) -> Vec<TcpOption> {
    fp.optionstext
        .chars()
        .map(|c| match c {
            'M' => TcpOption::Mss(fp.mss),
            'S' => TcpOption::SackPermitted,
            'T' => TcpOption::Timestamps(0xdead_0001, 0),
            'N' => TcpOption::Nop,
            'W' => TcpOption::WindowScale(fp.wscale),
            'E' => TcpOption::EndOfList,
            other => unreachable!("unknown option mnemonic {other}"),
        })
        .collect()
}

fn qname_hash(name: &str) -> u128 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    u128::from(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ProtoSet;

    fn net() -> Internet {
        Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless())
    }

    fn find_host(net: &Internet, day: Day, want: Protocol) -> Addr {
        net.population()
            .enumerate_responsive(day)
            .into_iter()
            .find(|(_, protos, _)| protos.contains(want))
            .map(|(a, ..)| a)
            .expect("responsive host")
    }

    #[test]
    fn icmp_echo_end_to_end() {
        let net = net();
        let day = Day(100);
        let dst = find_host(&net, day, Protocol::Icmp);
        let rs = net.probe(dst, &ProbeKind::IcmpEcho { size: 64 }, day);
        assert_eq!(rs, vec![Response::EchoReply { fragmented: false }]);
    }

    #[test]
    fn tcp_syn_gets_synack_with_fingerprint() {
        let net = net();
        let day = Day(100);
        let dst = find_host(&net, day, Protocol::Tcp80);
        let rs = net.probe(dst, &ProbeKind::TcpSyn { port: 80 }, day);
        assert!(matches!(rs.as_slice(), [Response::SynAck { .. }]));
    }

    #[test]
    fn dark_space_is_silent() {
        let net = net();
        let rs = net.probe("3fff::1".parse().unwrap(), &ProbeKind::IcmpEcho { size: 64 }, Day(5));
        assert!(rs.is_empty());
    }

    #[test]
    fn gfw_injects_for_blocked_domain_on_dark_chinese_address() {
        let net = net();
        let day = crate::time::events::GFW_ERA3.0.plus(5);
        let ct = net.registry().by_asn(4134).unwrap();
        let info = net.registry().get(ct);
        // A dark (non-host) address inside China Telecom's space.
        let dst = Addr(info.prefixes[0].network().0 | 0xdead_beef);
        assert!(net.population().lookup(dst, day).is_none(), "address must be dark");
        let rs = net.probe(dst, &ProbeKind::Dns { qname: "www.google.com".into() }, day);
        assert!(rs.len() >= 2, "GFW injected {} responses", rs.len());
        for r in &rs {
            match r {
                Response::Dns(m) => assert!(crate::gfw::looks_injected(m)),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Same address, unblocked domain: silence.
        let rs2 = net.probe(dst, &ProbeKind::Dns { qname: "harmless.example".into() }, day);
        assert!(rs2.is_empty());
        // Same address, outside an era: silence.
        let rs3 = net.probe(dst, &ProbeKind::Dns { qname: "www.google.com".into() }, Day(100));
        assert!(rs3.is_empty());
    }

    #[test]
    fn tbt_pmtu_cache_shared_per_backend() {
        let net = net();
        let day = Day(100);
        let g = net
            .population()
            .aliased_groups(day)
            .find(|g| {
                matches!(
                    g.kind,
                    crate::population::GroupKind::Aliased {
                        backends: crate::registry::BackendMode::Single,
                        ..
                    }
                ) && g.protos.contains(Protocol::Icmp)
            })
            .expect("single-host alias");
        let a = g.prefix.random_addr(1);
        let b = g.prefix.random_addr(2);
        // Baseline: no fragmentation.
        assert_eq!(
            net.probe(a, &ProbeKind::IcmpEcho { size: 1300 }, day),
            vec![Response::EchoReply { fragmented: false }]
        );
        // Seed the cache via one address...
        net.probe(a, &ProbeKind::TooBig { mtu: 1280 }, day);
        // ...and the sibling address fragments too: one shared cache.
        assert_eq!(
            net.probe(b, &ProbeKind::IcmpEcho { size: 1300 }, day),
            vec![Response::EchoReply { fragmented: true }]
        );
        net.reset_state();
        assert_eq!(
            net.probe(b, &ProbeKind::IcmpEcho { size: 1300 }, day),
            vec![Response::EchoReply { fragmented: false }]
        );
    }

    #[test]
    fn an_echo_within_the_minimum_mtu_never_reads_the_pmtu_cache() {
        let net = net();
        let day = Day(100);
        let dst = find_host(&net, day, Protocol::Icmp);
        let scan_echo = ProbeKind::IcmpEcho { size: 8 };
        let whole = vec![Response::EchoReply { fragmented: false }];
        assert_eq!(net.probe(dst, &scan_echo, day), whole);
        // A Too Big is absorbed, and one advertising less than the IPv6
        // minimum is held to the minimum: no cached MTU is below 1280.
        net.probe(dst, &ProbeKind::TooBig { mtu: 1280 }, day);
        net.probe(dst, &ProbeKind::TooBig { mtu: 600 }, day);
        assert_eq!(net.probe(dst, &scan_echo, day), whole, "same answer after the Too Big");
        // The boundary: 1232 + 48 bytes is the minimum MTU exactly.
        assert_eq!(net.probe(dst, &ProbeKind::IcmpEcho { size: 1232 }, day), whole);
        assert_eq!(
            net.probe(dst, &ProbeKind::IcmpEcho { size: 1233 }, day),
            vec![Response::EchoReply { fragmented: true }]
        );
    }

    /// Every kind of probe a caller sends, the TBT's pair included.
    fn every_probe_kind() -> Vec<ProbeKind> {
        vec![
            ProbeKind::IcmpEcho { size: 8 },
            ProbeKind::IcmpEcho { size: 1300 },
            ProbeKind::TooBig { mtu: 1280 },
            ProbeKind::IcmpEcho { size: 1300 },
            ProbeKind::TcpSyn { port: 80 },
            ProbeKind::TcpSyn { port: 443 },
            ProbeKind::TcpSyn { port: 8080 },
            ProbeKind::Dns { qname: "www.google.com".into() },
            ProbeKind::Dns { qname: "harmless.example".into() },
            ProbeKind::Quic,
        ]
    }

    /// Group members, aliased addresses, router interfaces, CPE devices,
    /// dark space and dark space behind the firewall.
    fn every_target_class(net: &Internet, day: Day) -> Vec<Addr> {
        let (mut members, mut routers, mut cpe) = (Vec::new(), Vec::new(), Vec::new());
        for (addr, ..) in net.population().enumerate_responsive(day) {
            let view = net.population().lookup(addr, day).expect("enumerated as responsive");
            let class = match (view.group, view.backend_uid >> 62) {
                (Some(_), _) => &mut members,
                (None, 1) => &mut routers,
                (None, _) => &mut cpe,
            };
            class.push(addr);
        }
        let aliased: Vec<Addr> = net
            .population()
            .aliased_groups(day)
            .take(20)
            .flat_map(|g| [g.prefix.random_addr(1), g.prefix.random_addr(2)])
            .collect();
        let ct = net.registry().get(net.registry().by_asn(4134).unwrap());
        let behind_firewall =
            (0..10u128).map(|i| Addr(ct.prefixes[0].network().0 | (0xdead_0000 + i)));
        let dark = (0..10u128).map(|i| Addr((0x3fff_u128 << 112) | i));
        for (class, name) in
            [(&members, "members"), (&routers, "routers"), (&cpe, "cpe"), (&aliased, "aliased")]
        {
            assert!(class.len() >= 10, "only {} {name} to probe", class.len());
        }
        let step = |class: &[Addr]| class.iter().copied().step_by(class.len() / 40 + 1).collect();
        let sampled: [Vec<Addr>; 3] = [step(&members), step(&routers), step(&cpe)];
        sampled.into_iter().flatten().chain(aliased).chain(behind_firewall).chain(dark).collect()
    }

    #[test]
    fn resolve_then_probe_is_probe_attempt() {
        // Loss from every source at once, so that a target's shared rate,
        // its per-protocol override and its per-attempt draws all matter.
        let era_day = crate::time::events::GFW_ERA3.0.plus(5);
        // The AS whose routes the plan withdraws holds the first target.
        let plain = net();
        let first = every_target_class(&plain, Day(100))[0];
        let withdrawn = plain.registry().get(plain.registry().origin(first).unwrap()).asn;
        let faults = |day: Day| {
            FaultConfig::lossless()
                .with_seed(7)
                .with_drop_permille(200)
                .with_burst(crate::faults::GilbertElliott {
                    mean_good_days: 3,
                    mean_bad_days: 3,
                    good_drop_permille: 20,
                    bad_drop_permille: 600,
                })
                .with_proto_drop(Protocol::Udp53, 450)
                .with_as_drop(4134, 700)
                .with_duplicate_permille(300)
                .with_outage(crate::faults::Outage::protocol(Protocol::Udp443, day, day.plus(1)))
                .with_outage(crate::faults::Outage::asn(withdrawn, day, day.plus(1)))
        };
        for (day, behind_firewall) in [(Day(100), false), (era_day, false), (era_day, true)] {
            let world = || {
                let mut net = Internet::build(Scale::tiny());
                let cn = net.register_vantage(64_498, "cn vantage", "CN");
                let net = net.with_faults(faults(day));
                if behind_firewall {
                    net.with_source_vantage(cn)
                } else {
                    net
                }
            };
            let (one_by_one, resolved_once) = (world(), world());
            let kinds = every_probe_kind();
            let mut tally = ProbeTally::default();
            let mut sent = 0u64;
            for dst in every_target_class(&one_by_one, day) {
                // One resolution serves every kind and every attempt.
                let target = resolved_once.resolve(dst, day);
                for kind in &kinds {
                    for attempt in 0..3 {
                        assert_eq!(
                            resolved_once.probe_resolved(&target, kind, attempt, &mut tally),
                            one_by_one.probe_attempt(dst, kind, day, attempt),
                            "{dst} {kind:?} attempt {attempt} on day {}",
                            day.0
                        );
                        sent += 1;
                    }
                }
            }
            // Nothing reaches the shared counters until the caller adds
            // its tally; then they read as if every probe had counted.
            let counted = |net: &Internet| {
                let c = net.counters();
                [&c.probes, &c.faults_dropped, &c.faults_duplicated, &c.gfw_egress_filtered]
                    .map(Counter::get)
            };
            assert_eq!(counted(&resolved_once), [0; 4]);
            resolved_once.counters().add(&tally);
            assert_eq!(counted(&resolved_once), counted(&one_by_one));
            let [probes, dropped, duplicated, egress_filtered] = counted(&one_by_one);
            assert_eq!(probes, sent);
            assert!(dropped > 0 && duplicated > 0, "{dropped} dropped, {duplicated} duplicated");
            assert_eq!(
                egress_filtered > 0,
                behind_firewall,
                "{egress_filtered} filtered on egress"
            );
        }
    }

    #[test]
    fn traceroute_hops_expire() {
        let net = net();
        let day = Day(100);
        let dst = find_host(&net, day, Protocol::Icmp);
        let plen = net.path_len(dst);
        let r = net
            .probe_ttl(dst, 2, &ProbeKind::IcmpEcho { size: 16 }, day, 0)
            .expect("hop 2 answers");
        assert!(matches!(r, Response::TimeExceeded { .. }));
        let r2 = net.probe_ttl(dst, plen, &ProbeKind::IcmpEcho { size: 16 }, day, 0);
        assert_eq!(r2, Some(Response::EchoReply { fragmented: false }));
    }

    /// `hop_addr` as it was before routes were resolved once: every pool
    /// found by a search, per hop.
    fn hop_addr_by_search(net: &Internet, dst: Addr, hop: u8, day: Day) -> Addr {
        let pool_of = |id: AsId| net.population.router_pools().iter().find(|r| r.asid == id);
        let transit = net.registry.by_asn(3356).and_then(pool_of);
        let key = dst.0 >> 80;
        let slot = |pool: &RouterPool, key: u128, tweak: u8| {
            pool.hop_addr(prf::prf_u128(net.seed, key, u64::from(tweak)) % pool.slots.max(1), day)
        };
        match hop {
            1 => match pool_of(net.source_vantage()) {
                Some(pool) => slot(pool, key, 1),
                None => {
                    let base = net.registry.vantage_addr_of(net.source_vantage());
                    let iid = 2 + prf::prf_u128(net.seed, key, 0xF4_11) % 14;
                    Addr((base.0 & (u128::MAX << 64)) | u128::from(iid))
                }
            },
            2 | 3 => transit.map_or(Addr(0), |pool| slot(pool, key, hop)),
            h => net
                .registry
                .origin(dst)
                .and_then(pool_of)
                .or(transit)
                .map_or(Addr(0), |pool| slot(pool, dst.0 >> 64, h)),
        }
    }

    /// `probe_ttl` as it read before the hop-limited probes of a call
    /// shared a [`HopWalk`]: every probe matches the BGP origin for its
    /// outage check, again for its loss rate and again for its route,
    /// resolves its interface anew and bumps the shared counters itself.
    fn probe_ttl_one_by_one(
        net: &Internet,
        dst: Addr,
        hop_limit: u8,
        kind: &ProbeKind,
        day: Day,
    ) -> Option<Response> {
        let proto = probe_proto(kind);
        net.counters.ttl_probes.incr();
        let silenced = !net.faults.outages.is_empty()
            && (net.path_down(dst, day, &OnceCell::new()) || net.faults.proto_down(proto, day));
        let lost = net.faults.any_loss() && {
            let permille = net
                .shared_loss_permille(dst, day, &OnceCell::new())
                .max(net.faults.proto_drop_permille(proto));
            let tag = 0x10_55 ^ u64::from(day.0);
            let draw = prf::prf_u128(net.fault_seed() ^ u64::from(hop_limit), dst.0, tag) % 1000;
            draw < u64::from(permille)
        };
        if silenced || lost {
            net.counters.faults_dropped.incr();
            return None;
        }
        if hop_limit >= net.path_len(dst) {
            return net.probe(dst, kind, day).into_iter().next();
        }
        let first_hop = hop_limit <= 1;
        if first_hop && net.population.router_pool_of(net.source_vantage()).is_none() {
            net.counters.hops_vantage_fallback.incr();
        }
        let hop = hop_addr_by_search(net, dst, hop_limit.max(1), day);
        if hop == Addr(0) {
            return None;
        }
        if net.icmp_rate_limited(RL_ROUTER, (hop.0 >> 64) as u64 ^ hop.0 as u64, day) {
            net.counters.faults_rate_limited.incr();
            return None;
        }
        Some(Response::TimeExceeded { hop })
    }

    /// What a batch of traceroutes leaves behind, however it was sent: the
    /// interfaces that answered, how many expiries they answered, and
    /// what the simulator counted.
    #[derive(Debug, PartialEq)]
    struct Traced {
        hops: Vec<Addr>,
        answered: u64,
        counted: [u64; 5],
    }

    /// Runs `trace` on a simulator with fresh ICMPv6 budgets and reads
    /// the counters' growth.
    fn traced(net: &Internet, trace: impl FnOnce() -> (Vec<Addr>, u64)) -> Traced {
        let counted = || {
            let c = net.counters();
            [
                &c.ttl_probes,
                &c.faults_dropped,
                &c.faults_rate_limited,
                &c.hops_vantage_fallback,
                &c.probes,
            ]
            .map(Counter::get)
        };
        net.reset_state();
        let before = counted();
        let (mut hops, answered) = trace();
        let after = counted();
        hops.sort_unstable();
        Traced { hops, answered, counted: std::array::from_fn(|i| after[i] - before[i]) }
    }

    #[test]
    fn a_walk_of_tails_is_the_probes_sent_one_by_one() {
        use crate::faults::{GilbertElliott, IcmpRateLimit, Outage};
        let probe = ProbeKind::IcmpEcho { size: 16 };
        let day = Day(400);
        let plain = net();
        let mut dsts: Vec<Addr> = plain
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .step_by(7)
            .map(|(a, ..)| a)
            .chain(every_target_class(&plain, day))
            .collect();
        dsts.sort_unstable();
        dsts.dedup();
        let in_address_order = dsts.clone();
        let mut in_draw_order = dsts;
        in_draw_order.sort_by_key(|a| prf::prf_u128(0x7ace, a.0, 57));
        // An AS that originates a good share of the destinations.
        let busy = {
            let registry = plain.registry();
            let asn_of = |a: &Addr| registry.origin(*a).map(|id| registry.get(id).asn);
            let asns: Vec<u32> = in_address_order.iter().filter_map(asn_of).collect();
            *asns.iter().max_by_key(|asn| asns.iter().filter(|a| a == asn).count()).unwrap()
        };
        let late_asn = 64_999;
        let bursts = GilbertElliott {
            mean_good_days: 3,
            mean_bad_days: 3,
            good_drop_permille: 20,
            bad_drop_permille: 600,
        };
        let window = |scope: fn(Day, Day) -> Outage| scope(day, day.plus(1));
        let lossless = FaultConfig::lossless;
        let plans: Vec<(&str, FaultConfig)> = vec![
            ("lossless", lossless()),
            ("base loss", lossless().with_seed(3).with_drop_permille(150)),
            ("bursts", lossless().with_seed(5).with_drop_permille(10).with_burst(bursts)),
            ("as and protocol loss", {
                lossless().with_as_drop(busy, 700).with_proto_drop(Protocol::Icmp, 90)
            }),
            ("every vantage down", lossless().with_outage(window(Outage::vantage))),
            ("late vantage down", {
                lossless().with_outage(Outage::vantage_asn(late_asn, day, day.plus(1)))
            }),
            ("origin withdrawn", {
                lossless().with_drop_permille(100).with_outage(Outage::asn(busy, day, day.plus(1)))
            }),
            ("icmp blacked out", {
                lossless().with_outage(Outage::protocol(Protocol::Icmp, day, day.plus(1)))
            }),
            ("another day's outage", {
                lossless().with_outage(Outage::protocol(Protocol::Icmp, day.plus(1), day.plus(2)))
            }),
            ("tcp blacked out", {
                lossless().with_outage(Outage::protocol(Protocol::Tcp80, day, day.plus(1)))
            }),
        ]
        .into_iter()
        .chain([0u32, 1, 3].map(|per_day| {
            let limited =
                lossless().with_drop_permille(50).with_icmp_rate_limit(IcmpRateLimit { per_day });
            ("rate limit", limited)
        }))
        .collect();

        let mut seen = [false; 5];
        for (name, faults) in plans {
            for late in [false, true] {
                // A vantage registered after the build owns no router
                // pool: its first hop is synthesised.
                let mut net = Internet::build(Scale::tiny());
                let late_vantage = net.register_vantage(late_asn, "late vantage", "ZZ");
                let mut net = net.with_faults(faults.clone());
                if late {
                    net = net.with_source_vantage(late_vantage);
                }
                // The service's three last hops, and whole paths: hop 1,
                // and a hop limit of zero, which expires there too.
                for tail in [3u8, u8::MAX] {
                    let one_by_one = |dsts: &[Addr]| {
                        traced(&net, || {
                            let mut hops = Vec::new();
                            let mut answered = 0;
                            for &dst in dsts {
                                let path_len = net.path_len(dst);
                                for ttl in path_len.saturating_sub(tail)..path_len {
                                    match probe_ttl_one_by_one(&net, dst, ttl, &probe, day) {
                                        Some(Response::TimeExceeded { hop }) => {
                                            answered += 1;
                                            hops.push(hop);
                                        }
                                        Some(other) => panic!("{other:?} before the last hop"),
                                        None => {}
                                    }
                                }
                            }
                            hops.sort_unstable();
                            hops.dedup();
                            (hops, answered)
                        })
                    };
                    let walked = |dsts: &[Addr]| {
                        let (hops, answered) = net.trace_tails(dsts, tail, &probe, day);
                        let mut distinct = hops.clone();
                        distinct.sort_unstable();
                        distinct.dedup();
                        assert_eq!(distinct.len(), hops.len(), "{name}: a hop reported twice");
                        (hops, answered)
                    };
                    let expected = one_by_one(&in_draw_order);
                    let case = format!("{name}, late vantage {late}, tail {tail}");
                    // No budget, draw or count depends on the order.
                    assert_eq!(one_by_one(&in_address_order), expected, "{case}");
                    assert_eq!(traced(&net, || walked(&in_draw_order)), expected, "{case}");
                    assert_eq!(traced(&net, || walked(&in_address_order)), expected, "{case}");
                    let [sent, dropped, rate_limited, fallback, end_to_end] = expected.counted;
                    assert!(sent >= 3 * in_address_order.len() as u64, "{case}: {sent} sent");
                    assert_eq!(end_to_end, 0, "{case}: no hop limit reaches a destination");
                    assert!(fallback == 0 || (late && tail == u8::MAX), "{case}: {fallback}");
                    seen[4] |= fallback > 0;
                    seen[0] |= dropped > 0 && dropped < sent;
                    seen[1] |= dropped == sent;
                    seen[2] |= rate_limited > 0 && expected.answered > 0;
                    seen[3] |= rate_limited > 0 && expected.answered == 0;
                }

                // One probe at a time, past the last hop too: a hop limit
                // that reaches the destination is an end-to-end probe.
                let single = |send: &dyn Fn(Addr, u8) -> Option<Response>| {
                    let mut answers = Vec::new();
                    let sent = traced(&net, || {
                        for &dst in in_draw_order.iter().step_by(5) {
                            for ttl in 0..net.path_len(dst) + 2 {
                                answers.push(send(dst, ttl));
                            }
                        }
                        (Vec::new(), 0)
                    });
                    (answers, sent.counted)
                };
                assert_eq!(
                    single(&|dst, ttl| net.probe_ttl(dst, ttl, &probe, day, 0)),
                    single(&|dst, ttl| probe_ttl_one_by_one(&net, dst, ttl, &probe, day)),
                    "{name}, late vantage {late}: single probes"
                );
            }
        }
        assert_eq!(seen, [true; 5], "loss, silence, budgets spent and absent, a made-up hop");
    }

    #[test]
    fn resolved_routes_answer_with_the_same_hops() {
        let probe = ProbeKind::IcmpEcho { size: 16 };
        let day = Day(400);
        let mut late = net();
        let late_vantage = late.register_vantage(64_999, "late vantage", "ZZ");
        for net in [net(), late.with_source_vantage(late_vantage)] {
            let dsts: Vec<Addr> = net
                .population()
                .enumerate_responsive(day)
                .into_iter()
                .step_by(3)
                .map(|(a, ..)| a)
                .chain(["3fff::1".parse().unwrap()])
                .collect();
            let mut hops = 0u64;
            for &dst in &dsts {
                for ttl in 1..net.path_len(dst) {
                    let expected = hop_addr_by_search(&net, dst, ttl, day);
                    assert_eq!(net.hop_addr(dst, ttl, day), expected, "{dst} hop {ttl}");
                    let answer =
                        (expected != Addr(0)).then_some(Response::TimeExceeded { hop: expected });
                    assert_eq!(probe_ttl_one_by_one(&net, dst, ttl, &probe, day), answer);
                    assert_eq!(net.probe_ttl(dst, ttl, &probe, day, 0), answer);
                    hops += 1;
                }
            }
            assert!(hops > 1000, "{hops} hops compared");
            assert_eq!(net.counters().ttl_probes.get(), 2 * hops, "one count per TTL probe");
            // Hop 1 from a vantage without a pool: once per `hop_addr`,
            // `probe_ttl_one_by_one` and `probe_ttl` above, as before.
            let fallback = net.counters().hops_vantage_fallback.get();
            let pool = net.population().router_pool_of(net.source_vantage());
            assert_eq!(fallback, if pool.is_some() { 0 } else { 3 * dsts.len() as u64 });
        }
    }

    #[test]
    fn wire_path_agrees_with_semantic_path() {
        let net = net();
        let day = Day(200);
        let src = net.registry().vantage_addr();
        // ICMP
        let dst = find_host(&net, day, Protocol::Icmp);
        let probe = Packet {
            ipv6: Ipv6Header::new(src, dst, 64),
            transport: Transport::Icmpv6(Icmpv6::EchoRequest {
                ident: 9,
                seq: 1,
                payload: vec![0; 32],
            }),
        };
        let replies = net.send_bytes(&probe.to_bytes(), day);
        assert_eq!(replies.len(), net.probe(dst, &ProbeKind::IcmpEcho { size: 32 }, day).len());
        let parsed = Packet::parse(&replies[0]).unwrap();
        assert_eq!(parsed.ipv6.src, dst);
        assert!(matches!(
            parsed.transport,
            Transport::Icmpv6(Icmpv6::EchoReply { ident: 9, seq: 1, .. })
        ));
        // TCP fingerprint options survive the wire.
        let dst80 = find_host(&net, day, Protocol::Tcp80);
        let syn = Packet {
            ipv6: Ipv6Header::new(src, dst80, 64),
            transport: Transport::Tcp(TcpSegment::syn(80, 44123, 7)),
        };
        let replies = net.send_bytes(&syn.to_bytes(), day);
        assert_eq!(replies.len(), 1);
        let parsed = Packet::parse(&replies[0]).unwrap();
        let semantic = net.probe(dst80, &ProbeKind::TcpSyn { port: 80 }, day);
        let Response::SynAck { fp } = &semantic[0] else { panic!() };
        match parsed.transport {
            Transport::Tcp(seg) => {
                assert!(seg.flags.syn && seg.flags.ack);
                assert_eq!(seg.optionstext(), fp.optionstext);
                assert_eq!(seg.window, fp.window);
                assert_eq!(seg.mss(), Some(fp.mss));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wire_dns_query_roundtrip() {
        let net = net();
        let day = Day(300);
        let src = net.registry().vantage_addr();
        let dst = net
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .find(|(_, p, _)| p.contains(Protocol::Udp53))
            .map(|(a, ..)| a)
            .expect("dns host");
        let q = DnsMessage::aaaa_query(0x4242, "www.google.com");
        let probe = Packet {
            ipv6: Ipv6Header::new(src, dst, 64),
            transport: Transport::Udp(UdpDatagram {
                src_port: 53535,
                dst_port: 53,
                payload: q.to_bytes(),
            }),
        };
        let replies = net.send_bytes(&probe.to_bytes(), day);
        assert_eq!(replies.len(), 1);
        let parsed = Packet::parse(&replies[0]).unwrap();
        match parsed.transport {
            Transport::Udp(d) => {
                assert_eq!(d.src_port, 53);
                let msg = DnsMessage::parse(&d.payload).unwrap();
                assert!(msg.is_response);
                assert_eq!(msg.id, 0x4242, "transaction id echoed");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn controlled_domain_logs_resolver_sources() {
        let net = net();
        let day = Day(300);
        // Find an open resolver.
        let resolver = net
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .filter(|(_, p, _)| p.contains(Protocol::Udp53))
            .map(|(a, ..)| a)
            .find(|a| {
                net.population().lookup(*a, day).and_then(|v| v.dns)
                    == Some(DnsBehavior::OpenResolver)
            });
        let Some(resolver) = resolver else {
            // Tiny scale may have no resolver; acceptable.
            return;
        };
        let q = format!("abc123.{CONTROLLED_DOMAIN}");
        let rs = net.probe(resolver, &ProbeKind::Dns { qname: q.clone() }, day);
        assert_eq!(rs.len(), 1);
        let log = net.take_ns_log();
        assert_eq!(log, vec![(resolver, q)]);
    }

    #[test]
    fn fault_injection_drops_probes() {
        let lossy = Internet::build(Scale::tiny())
            .with_faults(FaultConfig::lossless().with_drop_permille(500));
        let day = Day(100);
        let targets: Vec<Addr> = lossy
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .filter(|(_, p, _)| p.contains(Protocol::Icmp))
            .map(|(a, ..)| a)
            .take(400)
            .collect();
        let answered = targets
            .iter()
            .filter(|a| !lossy.probe(**a, &ProbeKind::IcmpEcho { size: 16 }, day).is_empty())
            .count();
        let rate = answered as f64 / targets.len() as f64;
        assert!((0.3..0.7).contains(&rate), "answer rate {rate} under 50% loss");
    }

    #[test]
    fn retries_see_independent_loss_coins() {
        let lossy = Internet::build(Scale::tiny())
            .with_faults(FaultConfig::lossless().with_drop_permille(500));
        let day = Day(100);
        let targets: Vec<Addr> = lossy
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .filter(|(_, p, _)| p.contains(Protocol::Icmp))
            .map(|(a, ..)| a)
            .take(400)
            .collect();
        // Three salted attempts: residual loss should be ~0.5³ = 12.5%,
        // far below the 50% a single attempt sees.
        let answered = targets
            .iter()
            .filter(|a| {
                (0..3).any(|att| {
                    !lossy
                        .probe_attempt(**a, &ProbeKind::IcmpEcho { size: 16 }, day, att)
                        .is_empty()
                })
            })
            .count();
        let rate = answered as f64 / targets.len() as f64;
        assert!(rate > 0.78, "3-attempt answer rate {rate} under 50% loss");
        // And attempt 0 is the historical probe() stream.
        let a = targets[0];
        assert_eq!(
            lossy.probe(a, &ProbeKind::IcmpEcho { size: 16 }, day),
            lossy.probe_attempt(a, &ProbeKind::IcmpEcho { size: 16 }, day, 0),
        );
    }

    #[test]
    fn a_hop_limited_retry_on_the_wire_draws_its_own_loss_coin() {
        let lossy = Internet::build(Scale::tiny())
            .with_faults(FaultConfig::lossless().with_drop_permille(500));
        let day = Day(100);
        let src = lossy.registry().vantage_addr();
        let dsts: Vec<Addr> = lossy
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .map(|(a, ..)| a)
            .take(300)
            .collect();
        let probe = ProbeKind::IcmpEcho { size: 16 };
        // Which destinations a hop-limit-2 echo with `label` in its flow
        // label comes back from.
        let answered = |label: u32| -> Vec<bool> {
            dsts.iter()
                .map(|&dst| {
                    let echo = Packet {
                        ipv6: Ipv6Header { flow_label: label, ..Ipv6Header::new(src, dst, 2) },
                        transport: Transport::Icmpv6(Icmpv6::EchoRequest {
                            ident: 1,
                            seq: 1,
                            payload: vec![0; 16],
                        }),
                    };
                    !lossy.send_bytes(&echo.to_bytes(), day).is_empty()
                })
                .collect()
        };
        let (first, retry) = (answered(0), answered(1));
        let structured: Vec<bool> =
            dsts.iter().map(|&dst| lossy.probe_ttl(dst, 2, &probe, day, 0).is_some()).collect();
        let one_by_one: Vec<bool> = dsts
            .iter()
            .map(|&dst| probe_ttl_one_by_one(&lossy, dst, 2, &probe, day).is_some())
            .collect();
        assert_eq!(first, structured, "flow label 0 is a first probe");
        assert_eq!(first, one_by_one, "a first probe draws the coin it always drew");
        let lost = |answers: &[bool]| answers.iter().filter(|a| !**a).count();
        assert!(
            lost(&first) > 100 && lost(&retry) > 100,
            "{} and {} lost",
            lost(&first),
            lost(&retry)
        );
        assert_ne!(first, retry, "a retry redraws the loss coin");
        let retried: Vec<bool> =
            dsts.iter().map(|&dst| lossy.probe_ttl(dst, 2, &probe, day, 1).is_some()).collect();
        assert_eq!(retry, retried, "flow label 1 is the structured attempt 1");
    }

    #[test]
    fn per_protocol_loss_override_only_hits_that_protocol() {
        let net = Internet::build(Scale::tiny())
            .with_faults(FaultConfig::lossless().with_proto_drop(Protocol::Udp53, 1000));
        let day = Day(100);
        let dst = find_host(&net, day, Protocol::Icmp);
        assert!(!net.probe(dst, &ProbeKind::IcmpEcho { size: 16 }, day).is_empty());
        let dns = find_host(&net, day, Protocol::Udp53);
        assert!(net.probe(dns, &ProbeKind::Dns { qname: "a.example".into() }, day).is_empty());
    }

    #[test]
    fn vantage_outage_silences_everything() {
        let net = Internet::build(Scale::tiny()).with_faults(
            FaultConfig::lossless().with_outage(crate::faults::Outage::vantage(Day(99), Day(101))),
        );
        let dst = find_host(&net, Day(100), Protocol::Icmp);
        assert!(net.probe(dst, &ProbeKind::IcmpEcho { size: 16 }, Day(100)).is_empty());
        assert!(net.probe_ttl(dst, 2, &ProbeKind::IcmpEcho { size: 16 }, Day(100), 0).is_none());
        // The window is half-open: the day after, service resumes.
        assert!(!net.probe(dst, &ProbeKind::IcmpEcho { size: 16 }, Day(101)).is_empty());
        assert!(net.counters().faults_dropped.get() >= 2);
    }

    #[test]
    fn asn_outage_withdraws_routes_including_gfw_injection() {
        let day = crate::time::events::GFW_ERA3.0.plus(5);
        let net = Internet::build(Scale::tiny()).with_faults(
            FaultConfig::lossless().with_outage(crate::faults::Outage::asn(4134, day, day.plus(2))),
        );
        let ct = net.registry().by_asn(4134).unwrap();
        let info = net.registry().get(ct);
        let dst = Addr(info.prefixes[0].network().0 | 0xdead_beef);
        // During the outage even the on-path injector has nothing to
        // intercept — the route is withdrawn.
        assert!(net.probe(dst, &ProbeKind::Dns { qname: "www.google.com".into() }, day).is_empty());
        // After it, injection resumes.
        assert!(!net
            .probe(dst, &ProbeKind::Dns { qname: "www.google.com".into() }, day.plus(2))
            .is_empty());
    }

    #[test]
    fn duplication_delivers_twice() {
        let net = Internet::build(Scale::tiny())
            .with_faults(FaultConfig::lossless().with_duplicate_permille(1000));
        let day = Day(100);
        let dst = find_host(&net, day, Protocol::Icmp);
        let rs = net.probe(dst, &ProbeKind::IcmpEcho { size: 16 }, day);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0], rs[1]);
        assert_eq!(net.counters().faults_duplicated.get(), 1);
    }

    #[test]
    fn icmp_rate_limit_caps_time_exceeded_per_router_per_day() {
        let net = Internet::build(Scale::tiny()).with_faults(
            FaultConfig::lossless()
                .with_icmp_rate_limit(crate::faults::IcmpRateLimit { per_day: 3 }),
        );
        let day = Day(100);
        let dst = find_host(&net, day, Protocol::Icmp);
        // Same router interface answers hop 2 every time; budget is 3/day.
        let answers = (0..10)
            .filter(|_| net.probe_ttl(dst, 2, &ProbeKind::IcmpEcho { size: 16 }, day, 0).is_some())
            .count();
        assert_eq!(answers, 3);
        assert_eq!(net.counters().faults_rate_limited.get(), 7);
        // Next day the budget refills.
        assert!(net.probe_ttl(dst, 2, &ProbeKind::IcmpEcho { size: 16 }, day.plus(1), 0).is_some());
    }

    #[test]
    fn icmp_rate_limit_starves_toobig_cache_seeding() {
        let net = Internet::build(Scale::tiny()).with_faults(
            FaultConfig::lossless()
                .with_icmp_rate_limit(crate::faults::IcmpRateLimit { per_day: 0 }),
        );
        let day = Day(100);
        let dst = find_host(&net, day, Protocol::Icmp);
        net.probe(dst, &ProbeKind::TooBig { mtu: 1280 }, day);
        // The Too Big was absorbed by the rate limiter: no fragmentation.
        assert_eq!(
            net.probe(dst, &ProbeKind::IcmpEcho { size: 1300 }, day),
            vec![Response::EchoReply { fragmented: false }]
        );
    }

    #[test]
    fn corruption_flips_wire_bytes_deterministically() {
        let make = || {
            Internet::build(Scale::tiny())
                .with_faults(FaultConfig::lossless().with_corrupt_permille(1000))
        };
        let net = make();
        let day = Day(100);
        let src = net.registry().vantage_addr();
        let dst = find_host(&net, day, Protocol::Icmp);
        let probe = Packet {
            ipv6: Ipv6Header::new(src, dst, 64),
            transport: Transport::Icmpv6(Icmpv6::EchoRequest {
                ident: 1,
                seq: 1,
                payload: vec![0; 32],
            }),
        };
        let corrupted = net.send_bytes(&probe.to_bytes(), day);
        assert_eq!(corrupted.len(), 1);
        let clean = Internet::build(Scale::tiny())
            .with_faults(FaultConfig::lossless())
            .send_bytes(&probe.to_bytes(), day);
        assert_ne!(corrupted, clean, "bytes must differ in flight");
        assert_eq!(net.counters().faults_corrupted.get(), 1);
        // Deterministic: a fresh simulator corrupts identically.
        assert_eq!(make().send_bytes(&probe.to_bytes(), day), corrupted);
        // And the parser treats the garbage as untrusted input (no panic).
        let _ = Packet::parse(&corrupted[0]);
    }

    #[test]
    fn quic_version_negotiation() {
        let net = net();
        let day = Day(600);
        let dst = net
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .find(|(_, p, _)| p.contains(Protocol::Udp443))
            .map(|(a, ..)| a)
            .expect("quic host");
        assert_eq!(net.probe(dst, &ProbeKind::Quic, day), vec![Response::QuicVn]);
    }

    #[test]
    fn proto_set_gates_everything() {
        let net = net();
        let day = Day(100);
        // An ICMP-only host must not answer TCP or QUIC.
        let only_icmp = net
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .find(|(_, p, _)| *p == ProtoSet::of(&[Protocol::Icmp]))
            .map(|(a, ..)| a)
            .expect("icmp-only host");
        assert!(net.probe(only_icmp, &ProbeKind::Quic, day).is_empty());
        assert!(net.probe(only_icmp, &ProbeKind::TcpSyn { port: 80 }, day).is_empty());
        assert!(!net.probe(only_icmp, &ProbeKind::IcmpEcho { size: 8 }, day).is_empty());
    }
}
