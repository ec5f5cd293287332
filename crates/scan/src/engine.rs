//! The ZMapv6-style scan engine.
//!
//! One probe module per hitlist protocol, a cyclic-group permutation over
//! the target list, retries with backoff on virtual time, one scan loop
//! over two links (structured probes or real packet bytes), and —
//! crucially — ZMap's actual classification semantics, including the flaw
//! the paper's GFW analysis hinges on: **any parseable DNS response counts
//! as success**, so injected answers for `www.google.com` make dark
//! Chinese addresses look UDP/53-responsive. The engine records whether
//! answers carried injection markers (A records / Teredo AAAA) so the
//! hitlist's cleaning filter can act on them, exactly like the ZMap-output
//! filter tool the authors published.
//!
//! The permutation sets the order a scan *reports* in, not the order the
//! simulator is asked in. ZMapv6 sends in cycle order to spread its load
//! over networks; the simulator answers every probe from (target, day,
//! attempt) alone, so a segment probes its targets in index order —
//! ascending addresses for the service's sorted target lists, which keeps
//! neighbouring lookups in the population index's cache — and puts each
//! protocol's hits back into cycle order before it returns. Results are
//! the cycle-order walk's, field for field. The one piece of simulator
//! state a probe order could reorder is the controlled-domain NS log
//! ([`Internet::take_ns_log`]); no scan job writes to it, since only a DNS
//! probe for the controlled domain does.

use std::borrow::Cow;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

use sixdust_addr::Addr;
use sixdust_net::{Day, Internet, ProbeKind, ProbeTally, Protocol, ResolvedTarget, Response};
use sixdust_telemetry::{Registry, SpanTimer, TraceJournal};
use sixdust_wire::dns::DnsMessage;
use sixdust_wire::icmpv6::Icmpv6;
use sixdust_wire::quic::{QuicPacket, FORCE_VN_VERSION};
use sixdust_wire::tcp::TcpSegment;
use sixdust_wire::udp::UdpDatagram;
use sixdust_wire::{Ipv6Header, Packet, Transport};

use crate::permute::CyclicPermutation;

/// The DNS name the hitlist's UDP/53 module queries. Blocked by the GFW —
/// which is the root cause of the injected-response pollution.
pub const DEFAULT_DNS_QNAME: &str = "www.google.com";

/// Scan engine configuration.
///
/// Construct with the chainable `with_*` methods on
/// [`ScanConfig::default`]; the fields stay public for struct literals.
///
/// ```
/// use sixdust_scan::ScanConfig;
/// let cfg = ScanConfig::default().with_threads(8).with_rate_pps(1_000_000);
/// assert_eq!(cfg.threads, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScanConfig {
    /// The thread budget, calling thread included: 1 (the default) scans
    /// inline, the measured fastest on the simulator. [`scan_jobs`]
    /// clamps the effective value to `1..=32` at scan time — a `0` runs
    /// single-threaded and anything above 32 runs with 32. A clamped scan
    /// bumps the `scan.config.threads_clamped` telemetry counter (once
    /// per scan) when a registry is attached, so a misconfigured fleet is
    /// visible instead of silently slower. Results do not depend on it.
    pub threads: usize,
    /// Probes sent per target (ZMap default 1; retries mask loss).
    ///
    /// Invariant: `attempts >= 1`. `with_attempts` clamps 0 to 1 (a "scan
    /// that sends nothing" config is always a bug); the engine
    /// additionally defends against a hand-rolled struct literal
    /// smuggling a 0 through direct field access.
    pub attempts: u8,
    /// Probe rate in packets per second of virtual time.
    pub rate_pps: u64,
    /// Permutation seed.
    pub seed: u64,
    /// DNS query name for the UDP/53 module.
    pub dns_qname: String,
    /// Base virtual-time backoff between retry attempts, in milliseconds.
    /// Attempt `i` (1-based retry) waits `retry_backoff_ms · 2^(i−1)`
    /// before re-probing, giving bursty loss time to clear; the waits are
    /// virtual (accounted in [`ScanStats::backoff_secs`]) and never sleep
    /// the real thread. `0` (the default) retries back-to-back, matching
    /// the engine's historical behaviour.
    pub retry_backoff_ms: u64,
}

impl Default for ScanConfig {
    fn default() -> ScanConfig {
        ScanConfig {
            threads: 1,
            attempts: 1,
            rate_pps: 100_000,
            seed: 0x5CA7,
            dns_qname: DEFAULT_DNS_QNAME.to_string(),
            retry_backoff_ms: 0,
        }
    }
}

impl ScanConfig {
    /// Returns the config with the worker-thread count replaced.
    pub fn with_threads(mut self, threads: usize) -> ScanConfig {
        self.threads = threads;
        self
    }

    /// Returns the config with the per-target attempt count replaced,
    /// clamped to at least 1.
    pub fn with_attempts(mut self, attempts: u8) -> ScanConfig {
        self.attempts = attempts.max(1);
        self
    }

    /// Returns the config with the retry backoff base replaced.
    pub fn with_retry_backoff_ms(mut self, retry_backoff_ms: u64) -> ScanConfig {
        self.retry_backoff_ms = retry_backoff_ms;
        self
    }

    /// Returns the config with the probe rate replaced.
    pub fn with_rate_pps(mut self, rate_pps: u64) -> ScanConfig {
        self.rate_pps = rate_pps;
        self
    }

    /// Returns the config with the permutation seed replaced.
    pub fn with_seed(mut self, seed: u64) -> ScanConfig {
        self.seed = seed;
        self
    }

    /// Returns the config with the UDP/53 query name replaced.
    pub fn with_dns_qname(mut self, dns_qname: impl Into<String>) -> ScanConfig {
        self.dns_qname = dns_qname.into();
        self
    }
}

/// A target the protocol module classified as responsive — all a scan
/// keeps of a probe. Silent and RST targets are counts in [`ScanStats`]
/// and nothing else, the way ZMap's output modules write only the
/// responsive targets a hitlist asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// Probed address.
    pub target: Addr,
    /// Response detail: never [`Detail::Silent`] or [`Detail::Rst`].
    pub detail: Detail,
}

/// Classification detail per protocol module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detail {
    /// No response.
    Silent,
    /// ICMP echo reply.
    Echo,
    /// TCP SYN-ACK with fingerprint features.
    SynAck {
        /// Order-preserving options string: borrowed from the simulator's
        /// profile pool on the semantic path, owned when parsed off the
        /// wire — the [`sixdust_net::fingerprint::TcpFingerprint`] field
        /// as it is.
        optionstext: Cow<'static, str>,
        /// Window size.
        window: u16,
        /// Window scale.
        wscale: u8,
        /// MSS.
        mss: u16,
        /// Initial TTL estimate.
        ittl: u8,
    },
    /// TCP RST (alive, port closed — not counted as success).
    Rst,
    /// DNS response(s).
    Dns {
        /// Number of responses received (GFW injects several).
        responses: u8,
        /// Whether any response carried injection markers.
        injected: bool,
    },
    /// QUIC version negotiation.
    QuicVn,
}

/// Aggregate statistics of one scan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanStats {
    /// Probes sent.
    pub sent: u64,
    /// Responses received.
    pub received: u64,
    /// Targets classified responsive.
    pub hits: u64,
    /// Virtual scan duration in seconds (targets / rate), including any
    /// virtual retry backoff.
    pub duration_secs: f64,
    /// Probes beyond the first attempt per target (0 when `attempts` is 1
    /// or every target answered immediately).
    pub retries: u64,
    /// Online loss estimate in permille: of the targets that eventually
    /// responded, the fraction of their probe attempts that went
    /// unanswered — `failed · 1000 / (failed + responders)`. Silent
    /// targets are excluded (dark space is indistinguishable from loss),
    /// so with `attempts == 1` this is always 0; retries are what make
    /// loss observable.
    pub loss_estimate_permille: u32,
    /// Virtual seconds spent in retry backoff (already folded into
    /// `duration_secs`).
    pub backoff_secs: f64,
}

/// A completed scan: its hits and the counts of every probe.
///
/// Only responsive targets are kept (`hits.len() == stats.hits`); a
/// silent or RST-answering target shows in `stats.sent` and
/// `stats.received` alone.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResult {
    /// Scanned protocol.
    pub protocol: Protocol,
    /// Simulation day the scan ran.
    pub day: Day,
    /// The responsive targets, in probe order.
    pub hits: Vec<Hit>,
    /// Aggregate statistics.
    pub stats: ScanStats,
}

impl ScanResult {
    /// Iterates the responsive targets' addresses, in probe order.
    pub fn hit_addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.hits.iter().map(|h| h.target)
    }

    /// Iterates responsive targets that did NOT look GFW-injected — the
    /// cleaning filter this paper added to the service.
    pub fn clean_hits(&self) -> impl Iterator<Item = Addr> + '_ {
        self.hits
            .iter()
            .filter(|h| !matches!(h.detail, Detail::Dns { injected: true, .. }))
            .map(|h| h.target)
    }
}

/// The probe a protocol module sends.
pub fn probe_for(protocol: Protocol, dns_qname: &str) -> ProbeKind {
    match protocol {
        Protocol::Icmp => ProbeKind::IcmpEcho { size: 8 },
        Protocol::Tcp80 => ProbeKind::TcpSyn { port: 80 },
        Protocol::Tcp443 => ProbeKind::TcpSyn { port: 443 },
        Protocol::Udp53 => ProbeKind::Dns { qname: dns_qname.to_string() },
        Protocol::Udp443 => ProbeKind::Quic,
    }
}

/// Classifies semantic responses per module.
pub fn classify(protocol: Protocol, responses: &[Response]) -> (bool, Detail) {
    if responses.is_empty() {
        return (false, Detail::Silent);
    }
    match protocol {
        Protocol::Icmp => {
            if responses.iter().any(|r| matches!(r, Response::EchoReply { .. })) {
                (true, Detail::Echo)
            } else {
                (false, Detail::Silent)
            }
        }
        Protocol::Tcp80 | Protocol::Tcp443 => {
            for r in responses {
                if let Response::SynAck { fp } = r {
                    return (
                        true,
                        Detail::SynAck {
                            optionstext: fp.optionstext.clone(),
                            window: fp.window,
                            wscale: fp.wscale,
                            mss: fp.mss,
                            ittl: fp.ittl,
                        },
                    );
                }
            }
            if responses.iter().any(|r| matches!(r, Response::Rst)) {
                (false, Detail::Rst)
            } else {
                (false, Detail::Silent)
            }
        }
        Protocol::Udp53 => {
            let (mut answers, mut injected) = (0usize, false);
            for r in responses {
                if let Response::Dns(m) = r {
                    answers += 1;
                    injected |= sixdust_net::gfw::looks_injected(m);
                }
            }
            if answers == 0 {
                (false, Detail::Silent)
            } else {
                // ZMap semantics: any response is success. The injection
                // marker is recorded for the post-scan cleaning filter.
                (true, Detail::Dns { responses: answers.min(255) as u8, injected })
            }
        }
        Protocol::Udp443 => {
            if responses.iter().any(|r| matches!(r, Response::QuicVn)) {
                (true, Detail::QuicVn)
            } else {
                (false, Detail::Silent)
            }
        }
    }
}

/// Per-segment accounting of one protocol's probes, merged into
/// [`ScanStats`] once every segment of a scan has run. Every field is a
/// sum, so merging segment tallies in any order yields the same totals —
/// what lets [`scan_jobs`] hand segments to whichever thread is free
/// without perturbing the assembled [`ScanResult`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SegmentTally {
    /// Probe attempts actually emitted (the retry loop stops early).
    pub sent: u64,
    /// Attempts beyond the first, per target.
    pub retries: u64,
    /// Unanswered attempts of targets that eventually responded — the
    /// numerator of the loss estimator. Silent targets never contribute.
    pub failed_of_responders: u64,
    /// Targets that produced at least one response.
    pub responders: u64,
    /// Accumulated exponential-backoff wait, saturating at `u64::MAX`.
    pub backoff_ms: u64,
    /// Targets that answered at all: every classification but
    /// [`Detail::Silent`], RST included.
    pub received: u64,
    /// Targets classified responsive.
    pub hits: u64,
}

impl SegmentTally {
    /// Accumulates another segment's counts into this tally.
    pub fn merge(&mut self, other: SegmentTally) {
        self.sent += other.sent;
        self.retries += other.retries;
        self.failed_of_responders += other.failed_of_responders;
        self.responders += other.responders;
        self.backoff_ms = self.backoff_ms.saturating_add(other.backoff_ms);
        self.received += other.received;
        self.hits += other.hits;
    }
}

/// One protocol's share of a walked segment: its hits, in cycle order,
/// and the tally of every probe.
type Lane = (Vec<Hit>, SegmentTally);

/// A set of target indices, one bit an index.
struct IndexSet {
    words: Vec<u64>,
}

impl IndexSet {
    fn new(n: usize) -> IndexSet {
        IndexSet { words: vec![0; n.div_ceil(64)] }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// How many members lie below each word: with it, a member's rank
    /// among the members is one lookup and one popcount.
    fn ranks(&self) -> Vec<u32> {
        let mut below = 0;
        (self.words.iter())
            .map(|word| {
                let rank = below;
                below += word.count_ones();
                rank
            })
            .collect()
    }

    /// The number of members below `i`, given [`IndexSet::ranks`].
    fn rank(&self, ranks: &[u32], i: usize) -> u32 {
        ranks[i / 64] + (self.words[i / 64] & ((1 << (i % 64)) - 1)).count_ones()
    }
}

/// How a probe crosses the simulator: the one thing [`walk_segment`]
/// leaves open. The kernel works out each target once through its link
/// and sends every protocol's probes and retries through it.
trait Link {
    /// What the link keeps of a target between its probes.
    type Target;

    /// Works out what every probe toward `dst` shares; `nonce` is the
    /// target's position in the permutation cycle.
    fn target(job: &ScanJob<'_>, dst: Addr, nonce: u32) -> Self::Target;

    /// Sends one attempt of a protocol module's probe and returns every
    /// response that came back. What the simulator counts goes to `tally`
    /// or straight to its shared counters.
    fn send(
        job: &ScanJob<'_>,
        target: &Self::Target,
        module: &(Protocol, ProbeKind),
        attempt: u8,
        tally: &mut ProbeTally,
    ) -> Vec<Response>;
}

/// The structured link the service scans on: [`Internet::probe_resolved`]
/// on the one [`Internet::resolve`] of a target, so a round of five
/// protocols pays one population lookup per target, not five.
struct Structured;

impl Link for Structured {
    type Target = ResolvedTarget;

    #[inline]
    fn target(job: &ScanJob<'_>, dst: Addr, _nonce: u32) -> ResolvedTarget {
        job.net.resolve(dst, job.day)
    }

    #[inline]
    fn send(
        job: &ScanJob<'_>,
        target: &ResolvedTarget,
        (_, probe): &(Protocol, ProbeKind),
        attempt: u8,
        tally: &mut ProbeTally,
    ) -> Vec<Response> {
        job.net.probe_resolved(target, probe, attempt, tally)
    }
}

/// The byte link: each attempt is a real packet (the attempt number in
/// its flow label) through [`Internet::send_bytes`], and the replies are
/// reassembled and parsed the way a receive path would. The simulator
/// counts these probes into its shared counters itself.
struct Wire;

impl Link for Wire {
    type Target = (Addr, u32);

    fn target(_job: &ScanJob<'_>, dst: Addr, nonce: u32) -> (Addr, u32) {
        (dst, nonce)
    }

    fn send(
        job: &ScanJob<'_>,
        &(dst, nonce): &(Addr, u32),
        (protocol, probe): &(Protocol, ProbeKind),
        attempt: u8,
        _tally: &mut ProbeTally,
    ) -> Vec<Response> {
        let bytes = probe_packet(probe, job.net.source_addr(), dst, nonce, attempt);
        reassemble_replies(job.net.send_bytes(&bytes, job.day))
            .iter()
            .filter_map(|reply| parse_response(*protocol, reply))
            .collect()
    }
}

/// The one segment kernel: probes the targets a contiguous range of
/// `job`'s permutation cycle covers and returns one [`Lane`] per protocol
/// of the job, in the job's protocol order, each lane's hits in cycle
/// order.
///
/// The walk runs in three steps, each a `scan.order`, `scan.walk` and
/// `scan.report` span under the caller's `scan.worker` span when a
/// journal is given:
/// - *order*: the indices the range covers, one bit per target of the
///   job;
/// - *walk*: those indices in ascending order. A target is worked out
///   once ([`Link::target`]) and every protocol's retry loop and
///   classification runs against it; a lane keeps a target only if the
///   module classified it responsive, and marks its index, and every
///   probe is counted in the tally;
/// - *report*: the range's cycle walked once more, without probing, to
///   put each lane's hits back into cycle order in place, one `u32` a hit.
///
/// The simulator answers a probe from (target, day, attempt) alone, so
/// the order it is asked in changes no answer; ascending indices, which
/// the service's ascending target lists make ascending addresses, let
/// neighbouring targets share the population index's cache lines. The
/// one piece of simulator state a probe order could reorder is the
/// controlled-domain NS log ([`Internet::take_ns_log`]), which only a
/// DNS probe for the controlled domain writes, and no scan job sends one.
/// What the probes count on the simulator's side is kept beside the loop
/// and added to the shared counters once, when the segment is done; every
/// count is a sum, so no order shows in it either.
fn walk_segment<L: Link>(
    job: &ScanJob<'_>,
    perm: &CyclicPermutation,
    start: u64,
    len: u64,
    tracer: Option<&TraceJournal>,
) -> Vec<Lane> {
    let &ScanJob { net, protocols, targets, config, .. } = job;
    let modules: Vec<(Protocol, ProbeKind)> =
        protocols.iter().map(|&p| (p, probe_for(p, &config.dns_qname))).collect();
    let mut lanes: Vec<Lane> = protocols.iter().map(|_| Lane::default()).collect();
    // The indices each lane kept a hit for.
    let mut answered: Vec<IndexSet> =
        protocols.iter().map(|_| IndexSet::new(targets.len())).collect();
    let mut net_tally = ProbeTally::default();

    let span = tracer.map(|t| t.span("scan.order"));
    let mut covered = IndexSet::new(targets.len());
    for i in perm.segment(start, len) {
        covered.insert(i as usize);
    }
    drop(span);

    let span = tracer.map(|t| t.span("scan.walk"));
    for i in covered.iter() {
        let target = targets[i];
        let resolved = L::target(job, target, i as u32);
        for ((module, (hits, tally)), answered) in modules.iter().zip(&mut lanes).zip(&mut answered)
        {
            let protocol = module.0;
            let mut responses = Vec::new();
            // The retry loop stops on the first response, so count the
            // probes actually emitted instead of assuming `attempts` per
            // target. Each attempt draws an independent loss coin, so
            // retries mask transient loss rather than replaying it.
            let mut failed_before_response = 0u64;
            for attempt in 0..config.attempts.max(1) {
                if attempt > 0 {
                    tally.retries += 1;
                    tally.backoff_ms = tally.backoff_ms.saturating_add(
                        config
                            .retry_backoff_ms
                            .saturating_mul(1u64 << (u64::from(attempt) - 1).min(32)),
                    );
                }
                tally.sent += 1;
                responses = L::send(job, &resolved, module, attempt, &mut net_tally);
                if !responses.is_empty() {
                    break;
                }
                failed_before_response += 1;
            }
            if !responses.is_empty() {
                tally.responders += 1;
                tally.failed_of_responders += failed_before_response;
            }
            let (success, detail) = classify(protocol, &responses);
            tally.received += u64::from(detail != Detail::Silent);
            if success {
                tally.hits += 1;
                hits.push(Hit { target, detail });
                answered.insert(i);
            }
        }
    }
    net.counters().add(&net_tally);
    drop(span);

    let _span = tracer.map(|t| t.span("scan.report"));
    // Per lane, where each hit of the cycle order sits among the hits in
    // index order: an answered index's rank among the answered ones.
    let ranks: Vec<Vec<u32>> = answered.iter().map(IndexSet::ranks).collect();
    let mut sources: Vec<Vec<u32>> =
        lanes.iter().map(|(hits, _)| Vec::with_capacity(hits.len())).collect();
    for i in perm.segment(start, len) {
        let i = i as usize;
        for ((set, ranks), sources) in answered.iter().zip(&ranks).zip(&mut sources) {
            if set.contains(i) {
                sources.push(set.rank(ranks, i));
            }
        }
    }
    for ((hits, _), sources) in lanes.iter_mut().zip(&mut sources) {
        permute_in_place(hits, sources);
    }
    lanes
}

/// Moves `hits[sources[place]]` to `place` for every place, in place:
/// `sources` must be a permutation of `0..hits.len()`, and is left
/// holding nothing of use.
fn permute_in_place(hits: &mut [Hit], sources: &mut [u32]) {
    const MOVED: u32 = u32::MAX;
    // Follow each cycle of the permutation: every swap settles one place.
    for first in 0..hits.len() {
        let mut place = first;
        while sources[place] != MOVED {
            let from = sources[place] as usize;
            sources[place] = MOVED;
            if from == first {
                break;
            }
            hits.swap(place, from);
            place = from;
        }
    }
}

/// Probes one contiguous range of a scan's permutation cycle and returns
/// the hits (in cycle order) plus the tally of every probe of the range.
///
/// The one-protocol case of the kernel [`scan_jobs`] runs on each range,
/// public so a caller can time or partition a scan itself:
/// concatenating the hit vectors of contiguous segments in cycle order
/// and merging their tallies reproduces `scan_with`'s result
/// byte-for-byte regardless of which thread ran which segment — see
/// [`assemble_scan`].
// One argument over clippy's limit: the benchmark's scan kernel calls
// this signature, and the arguments are the scan's own coordinates.
#[allow(clippy::too_many_arguments)]
pub fn scan_segment(
    net: &Internet,
    protocol: Protocol,
    targets: &[Addr],
    day: Day,
    config: &ScanConfig,
    perm: &CyclicPermutation,
    start: u64,
    len: u64,
) -> (Vec<Hit>, SegmentTally) {
    let job = ScanJob { net, protocols: &[protocol], targets, day, config, telemetry: None };
    walk_segment::<Structured>(&job, perm, start, len, None).pop().expect("one lane per protocol")
}

/// Assembles a [`ScanResult`] from merged segment hits and the summed
/// tally, recording the scan's telemetry tail. `hits` must be the
/// concatenation of contiguous [`scan_segment`] ranges covering the whole
/// cycle, in cycle order.
pub fn assemble_scan(
    protocol: Protocol,
    day: Day,
    config: &ScanConfig,
    hits: Vec<Hit>,
    tally: SegmentTally,
    telemetry: Option<&Registry>,
) -> ScanResult {
    let loss_samples = tally.failed_of_responders + tally.responders;
    let loss_estimate_permille =
        (tally.failed_of_responders * 1000).checked_div(loss_samples).unwrap_or(0) as u32;
    if let Some(reg) = telemetry {
        let key = protocol.metric_key();
        reg.counter(&format!("scan.{key}.probes_sent")).add(tally.sent);
        reg.counter(&format!("scan.{key}.responses")).add(tally.received);
        reg.counter(&format!("scan.{key}.hits")).add(tally.hits);
        reg.counter(&format!("scan.{key}.retries")).add(tally.retries);
        reg.gauge(&format!("scan.{key}.loss_estimate_permille"))
            .set(i64::from(loss_estimate_permille));
    }
    let backoff_secs = tally.backoff_ms as f64 / 1e3;
    ScanResult {
        protocol,
        day,
        hits,
        stats: ScanStats {
            sent: tally.sent,
            received: tally.received,
            hits: tally.hits,
            duration_secs: tally.sent as f64 / config.rate_pps.max(1) as f64 + backoff_secs,
            retries: tally.retries,
            loss_estimate_permille,
            backoff_secs,
        },
    }
}

/// Runs one protocol scan over the target list (semantic fast path).
pub fn scan(
    net: &Internet,
    protocol: Protocol,
    targets: &[Addr],
    day: Day,
    config: &ScanConfig,
) -> ScanResult {
    scan_with(net, protocol, targets, day, config, None)
}

/// [`scan`] with an optional telemetry registry attached: one
/// [`ScanJob`] of one protocol on a budget of `config.threads`.
pub fn scan_with(
    net: &Internet,
    protocol: Protocol,
    targets: &[Addr],
    day: Day,
    config: &ScanConfig,
    telemetry: Option<&Registry>,
) -> ScanResult {
    let job = ScanJob { net, protocols: &[protocol], targets, day, config, telemetry };
    let (mut results, _) = scan_jobs(config.threads, &[job]);
    results.pop().expect("one result per protocol")
}

/// One walk of a target list for [`scan_jobs`] to run, probing every
/// target on each of `protocols`: what [`scan_with`] takes, for one
/// protocol or several.
///
/// With a registry, the job records per-protocol counters
/// (`scan.<proto>.probes_sent` / `.responses` / `.hits` / `.retries`) and
/// per-segment timings (`scan.worker.chunk_ms`). If the registry has a
/// trace journal installed (see [`Registry::install_tracer`]), the job
/// also emits one span covering the whole call, named for the protocols
/// it walks (`scan.icmp` for one, `scan.icmp+tcp443+tcp80+udp443+udp53`
/// for a service round), plus one `scan.worker` span per segment. With
/// `None` the only cost over the uninstrumented path is a handful of
/// branches.
#[derive(Clone, Copy)]
pub struct ScanJob<'a> {
    /// The world to probe.
    pub net: &'a Internet,
    /// The protocol modules, in the order their results come back.
    pub protocols: &'a [Protocol],
    /// The target list.
    pub targets: &'a [Addr],
    /// Simulation day of the scan.
    pub day: Day,
    /// Scanner settings; [`ScanConfig::threads`] is not read here — the
    /// budget is [`scan_jobs`]' argument.
    pub config: &'a ScanConfig,
    /// Where the scan's metrics and spans go, if anywhere.
    pub telemetry: Option<&'a Registry>,
}

/// What a [`scan_jobs`] call ran: the number of cycle ranges its jobs
/// were cut into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Ranges walked: at most the budget per job, none for an empty job.
    pub executed: u64,
    /// Always 0: no range changes hands. The field stays only because the
    /// benchmark harness reads it.
    pub stolen: u64,
}

/// The scan scheduler: runs every job on one budget of `threads` and
/// returns one [`ScanResult`] per (job, protocol), in job order and
/// within a job in the order of [`ScanJob::protocols`].
///
/// Each job's permutation cycle is cut into `threads` contiguous ranges:
/// a range jumps to its first cycle position (O(log start) setup), marks
/// the indices it covers (one bit per target of the job) and probes those
/// targets in index order, every protocol of the job against one
/// resolution of each target, then puts its hits back into cycle order.
/// The calling thread and `threads − 1` scoped threads take the next
/// range of any job off one shared cursor until none is left, so a thread
/// that finishes early takes a busy job's next range. Each job's hits are
/// put together in cycle order, so results are byte-identical at any
/// budget. A range keeps only its hits,
/// in vectors that start empty and grow: the result adopts the first
/// range's and appends the later ones', so at a budget of 1 nothing is
/// copied. A budget outside `1..=32` is clamped, and counted once per
/// instrumented job in `scan.config.threads_clamped`. A panic in a walk
/// reaches the caller with its own payload.
pub fn scan_jobs(threads: usize, jobs: &[ScanJob<'_>]) -> (Vec<ScanResult>, ExecutorStats) {
    run_jobs::<Structured>(threads, jobs)
}

/// [`scan_jobs`] on the byte link: the same segments, retries, backoff,
/// tallies, counters and spans, but every probe is a real packet through
/// [`Internet::send_bytes`] (its attempt number in the IPv6 flow label)
/// and every reply is reassembled and parsed from bytes. Slower; what it
/// returns is held to [`scan_jobs`]' result, field for field, over whole
/// faulty service runs.
pub fn scan_jobs_wire(threads: usize, jobs: &[ScanJob<'_>]) -> (Vec<ScanResult>, ExecutorStats) {
    run_jobs::<Wire>(threads, jobs)
}

/// The scheduler of [`scan_jobs`] on the link `L`.
fn run_jobs<L: Link>(threads: usize, jobs: &[ScanJob<'_>]) -> (Vec<ScanResult>, ExecutorStats) {
    let budget = threads.clamp(1, 32);
    // Per job: its permutation and telemetry handles, and how many ranges
    // it was cut into.
    let mut cuts = Vec::with_capacity(jobs.len());
    // Every range of every job, in job order and within a job in cycle
    // order: (job, index within the job, start, len).
    let mut ranges = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let ScanJob { protocols, targets, day, config, telemetry, .. } = *job;
        let n = targets.len() as u64;
        let perm = CyclicPermutation::new(n, config.seed ^ u64::from(day.0));
        if budget != threads {
            if let Some(t) = telemetry {
                t.counter("scan.config.threads_clamped").incr();
            }
        }
        // Resolved once per job, not once per segment.
        let chunk_hist = telemetry.map(|t| t.histogram("scan.worker.chunk_ms"));
        let tracer = telemetry.and_then(|t| t.tracer());
        let scan_span = tracer.as_ref().map(|t| {
            let keys: Vec<&str> = protocols.iter().map(|p| p.metric_key()).collect();
            t.span_with(
                &format!("scan.{}", keys.join("+")),
                &[("day", day.0.to_string().as_str()), ("targets", n.to_string().as_str())],
            )
        });
        let cycle = perm.cycle_len();
        let per_range = cycle.div_ceil(budget as u64).max(1);
        let first = ranges.len();
        for (index, start) in (0..cycle).step_by(per_range as usize).enumerate() {
            ranges.push((j, index, start, per_range.min(cycle - start)));
        }
        cuts.push((perm, chunk_hist, tracer, ranges.len() - first, scan_span));
    }
    let cursor = AtomicUsize::new(0);
    let walk = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(j, index, start, len)) = ranges.get(i) else { return done };
            let (perm, chunk_hist, tracer, ..) = &cuts[j];
            let _span = chunk_hist.as_ref().map(SpanTimer::start);
            let _trace_span = tracer.as_ref().map(|t| {
                t.span_with(
                    "scan.worker",
                    &[("worker", index.to_string().as_str()), ("chunk", len.to_string().as_str())],
                )
            });
            done.push((i, walk_segment::<L>(&jobs[j], perm, start, len, tracer.as_ref())));
        }
    };
    let mut walked = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..budget.min(ranges.len())).map(|_| s.spawn(walk)).collect();
        let mut walked = walk();
        for helper in helpers {
            walked.extend(helper.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        walked
    });
    walked.sort_unstable_by_key(|&(i, _)| i);
    // Sorted by range index, each job's ranges are contiguous and in
    // cycle order.
    let mut walked = walked.into_iter().map(|(_, lanes)| lanes);
    let mut results = Vec::new();
    for (job, (.., cut, _scan_span)) in jobs.iter().zip(cuts) {
        let mut lanes_of_job = walked.by_ref().take(cut);
        // An empty target list has an empty cycle and no range at all.
        let mut lanes = lanes_of_job
            .next()
            .unwrap_or_else(|| job.protocols.iter().map(|_| Lane::default()).collect());
        for later in lanes_of_job {
            for ((hits, tally), (more, more_tally)) in lanes.iter_mut().zip(later) {
                hits.extend(more);
                tally.merge(more_tally);
            }
        }
        results.extend(job.protocols.iter().zip(lanes).map(|(&protocol, (hits, tally))| {
            assemble_scan(protocol, job.day, job.config, hits, tally, job.telemetry)
        }));
    }
    (results, ExecutorStats { executed: ranges.len() as u64, stolen: 0 })
}

/// Reassembles fragment packets in a reply batch: the fragments of one
/// datagram (one source and identification) are replaced by the whole
/// packet, at the place its first fragment arrived; other packets pass
/// through in order. A datagram whose fragments do not reassemble is
/// dropped, the way a real receive path times it out.
pub fn reassemble_replies(replies: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    use sixdust_wire::fragment;
    /// A whole packet (no key), or the fragments of one datagram.
    type Arrival = (Option<(Addr, u32)>, Vec<Vec<u8>>);
    let mut arrivals: Vec<Arrival> = Vec::new();
    for r in replies {
        if !fragment::is_fragment(&r) {
            arrivals.push((None, vec![r]));
            continue;
        }
        let (Some(src), Some(ident)) = (fragment::src_of(&r), fragment::fragment_ident(&r)) else {
            continue;
        };
        let key = Some((src, ident));
        match arrivals.iter_mut().find(|(k, _)| *k == key) {
            Some((_, fragments)) => fragments.push(r),
            None => arrivals.push((key, vec![r])),
        }
    }
    arrivals
        .into_iter()
        .filter_map(|(key, mut packets)| match key {
            None => packets.pop(),
            Some(_) => fragment::reassemble(&packets).ok(),
        })
        .collect()
}

/// Builds the module's probe packet bytes: a first attempt (flow label 0).
pub fn build_probe_bytes(
    protocol: Protocol,
    src: Addr,
    dst: Addr,
    dns_qname: &str,
    nonce: u32,
) -> Vec<u8> {
    probe_packet(&probe_for(protocol, dns_qname), src, dst, nonce, 0)
}

/// The packet that carries `probe`, with `attempt` in its IPv6 flow label
/// (which no checksum covers) and `nonce` in the fields a reply echoes.
fn probe_packet(probe: &ProbeKind, src: Addr, dst: Addr, nonce: u32, attempt: u8) -> Vec<u8> {
    let src_port = 40_000 + (nonce % 20_000) as u16;
    let transport = match probe {
        ProbeKind::IcmpEcho { size } => Transport::Icmpv6(Icmpv6::EchoRequest {
            ident: (nonce >> 16) as u16,
            seq: nonce as u16,
            payload: vec![0u8; usize::from(*size)],
        }),
        ProbeKind::TooBig { mtu } => Transport::Icmpv6(Icmpv6::PacketTooBig { mtu: *mtu }),
        ProbeKind::TcpSyn { port } => Transport::Tcp(TcpSegment::syn(*port, src_port, nonce)),
        ProbeKind::Dns { qname } => Transport::Udp(UdpDatagram {
            src_port,
            dst_port: 53,
            payload: DnsMessage::aaaa_query(nonce as u16, qname).to_bytes(),
        }),
        ProbeKind::Quic => Transport::Udp(UdpDatagram {
            src_port,
            dst_port: 443,
            payload: QuicPacket::Initial {
                version: FORCE_VN_VERSION,
                dcid: nonce.to_be_bytes().to_vec(),
                scid: vec![0x51],
            }
            .to_bytes(),
        }),
    };
    let ipv6 = Ipv6Header { flow_label: u32::from(attempt), ..Ipv6Header::new(src, dst, 64) };
    Packet { ipv6, transport }.to_bytes()
}

/// The initial hop limit a reply left with: the smallest of the common
/// stack defaults (32, 64, 128, 255) at or above the hop limit it
/// arrived with.
fn initial_ttl(hop_limit: u8) -> u8 {
    match hop_limit {
        0..=32 => 32,
        33..=64 => 64,
        65..=128 => 128,
        _ => 255,
    }
}

fn parse_response(protocol: Protocol, bytes: &[u8]) -> Option<Response> {
    let pkt = Packet::parse(bytes).ok()?;
    match (protocol, pkt.transport) {
        (Protocol::Icmp, Transport::Icmpv6(Icmpv6::EchoReply { fragmented, .. })) => {
            Some(Response::EchoReply { fragmented })
        }
        (Protocol::Tcp80 | Protocol::Tcp443, Transport::Tcp(seg)) => {
            if seg.flags.syn && seg.flags.ack {
                Some(Response::SynAck {
                    fp: sixdust_net::fingerprint::TcpFingerprint {
                        optionstext: seg.optionstext().into(),
                        window: seg.window,
                        wscale: seg.window_scale().unwrap_or(0),
                        mss: seg.mss().unwrap_or(0),
                        ittl: initial_ttl(pkt.ipv6.hop_limit),
                    },
                })
            } else if seg.flags.rst {
                Some(Response::Rst)
            } else {
                None
            }
        }
        (Protocol::Udp53, Transport::Udp(d)) => {
            DnsMessage::parse(&d.payload).ok().map(Response::Dns)
        }
        (Protocol::Udp443, Transport::Udp(d)) => match QuicPacket::parse(&d.payload) {
            Ok(QuicPacket::VersionNegotiation { .. }) => Some(Response::QuicVn),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixdust_net::{events, FaultConfig, Outage, Scale};

    #[test]
    fn the_two_links_answer_every_probe_alike() {
        // Loss, duplication and a protocol outage on a GFW era day, and
        // beside the five modules' probes a Too Big followed by an echo
        // that comes back in fragments.
        let day = events::GFW_ERA3.0.plus(5);
        let world = || {
            Internet::build(Scale::tiny()).with_faults(
                FaultConfig::lossless()
                    .with_seed(11)
                    .with_drop_permille(250)
                    .with_duplicate_permille(300)
                    .with_outage(Outage::protocol(Protocol::Udp443, day, day.plus(1))),
            )
        };
        let (structured, wire) = (world(), world());
        let ct = structured.registry().by_asn(4134).expect("China Telecom");
        let block = structured.registry().get(ct).prefixes[0].network();
        let targets: Vec<Addr> = structured
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .step_by(7)
            .take(60)
            .map(|(a, ..)| a)
            .chain((0..5u128).map(|i| Addr(block.0 | (0xdead_0000 + i))))
            .collect();
        let config = ScanConfig::default();
        let job = |net| ScanJob {
            net,
            protocols: &Protocol::ALL,
            targets: &targets,
            day,
            config: &config,
            telemetry: None,
        };
        let (on_structured, on_wire) = (job(&structured), job(&wire));
        let mut modules: Vec<(Protocol, ProbeKind)> =
            Protocol::ALL.iter().map(|&p| (p, probe_for(p, DEFAULT_DNS_QNAME))).collect();
        modules.push((Protocol::Icmp, ProbeKind::TooBig { mtu: 1280 }));
        modules.push((Protocol::Icmp, ProbeKind::IcmpEcho { size: 1400 }));
        let mut tally = ProbeTally::default();
        let (mut answered, mut fragmented) = (0, 0);
        for &dst in &targets {
            let resolved = Structured::target(&on_structured, dst, 0);
            for module in &modules {
                for attempt in 0..3 {
                    let expected =
                        Structured::send(&on_structured, &resolved, module, attempt, &mut tally);
                    let got = Wire::send(&on_wire, &(dst, 0), module, attempt, &mut tally);
                    assert_eq!(got, expected, "{dst} {module:?} attempt {attempt}");
                    answered += usize::from(!got.is_empty());
                    fragmented += got
                        .iter()
                        .filter(|r| matches!(r, Response::EchoReply { fragmented: true }))
                        .count();
                }
            }
        }
        assert!(answered > 100 && fragmented > 10, "{answered} answered, {fragmented} fragmented");
        structured.counters().add(&tally);
        let counted = |net: &Internet| {
            let c = net.counters();
            [&c.probes, &c.ttl_probes, &c.faults_dropped, &c.faults_duplicated].map(|c| c.get())
        };
        assert_eq!(counted(&wire), counted(&structured));
    }
}
