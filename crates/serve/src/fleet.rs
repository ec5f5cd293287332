//! A deterministic simulated fleet of registered hitlist consumers.
//!
//! Every schedule decision — who asks, for what, when, and how fresh
//! their local copy is — is derived from a seed through the same
//! SplitMix-based PRF the rest of the workspace uses, so a day of load
//! replays bit-identically. Artifact popularity follows a Zipf law over
//! [`ArtifactKind::ALL`] (the full responsive list dominates, exotic
//! slices tail off), matching how real hitlist mirrors see traffic.
//!
//! One driver, `drive_day`, replays every day: it takes the arrivals in
//! `(time, id)` order and, for each, delivers the transfers that have
//! finished, draws the request and submits it. Two load shapes feed it:
//!
//! * **Uniform** (the default): `requests` arrivals spread PRF-uniform
//!   across the day — the original 100k-request replay. An arrival's
//!   instant and client are draws keyed by its id alone, so the day holds
//!   no schedule: it files each id under a power-of-two span of the day
//!   (four bytes a request) and draws the arrivals of one span again,
//!   sorted, when the replay reaches it.
//! * **Sessions** ([`SessionShape`]): each of `clients` virtual clients
//!   runs one session — a heavy-tailed (Zipf) number of requests spaced
//!   by jittered think time — and a configurable slice of sessions joins
//!   a flash crowd at each publication ([`FlashSpike`]), front-loaded
//!   the way real consumers pile onto a fresh hitlist. This is what
//!   scales the day to a million-plus virtual clients. An arrival
//!   depends on the session walk before it, so a started session is kept
//!   as its paused walk, filed under the same power-of-two spans by its
//!   next arrival, and the sessions of one span walk up to its end when
//!   the replay reaches it. A session not yet started keeps only its first
//!   request id and a link in its start span's list (12 bytes a client);
//!   it is drawn again when the replay reaches that span. A client whose
//!   session has ended is forgotten: its paused walk, what it held and its
//!   token bucket at the front end are never read again.
//!
//! Two backends answer it through the
//! [`EventLoop`]: a bare [`Frontend`]
//! ([`simulate_day`]) and the resilient client of a mirror tier
//! ([`run_chaos_day`](crate::run_chaos_day)); `Clients` is where their
//! clients differ. [`simulate_day_sync`] is the synchronous reference
//! engine the event loop's ledger is pinned byte-identical against.

use std::collections::HashMap;
use std::sync::Arc;

use sixdust_addr::prf::Keyed;
use sixdust_addr::AddrBuildHasher;
use sixdust_json::json_struct;
use sixdust_telemetry::Registry;

use crate::reactor::{served_latency, Backend, Completion, EventLoop, Timeline};
use crate::server::{FetchKind, Frontend, FrontendConfig, FrontendTotals, Outcome, Request};
use crate::store::{ArtifactKind, SnapshotStore};

const TAG_TIME: u64 = 1;
const TAG_CLIENT: u64 = 2;
const TAG_KIND: u64 = 3;
const TAG_FRESH: u64 = 4;
const TAG_COND: u64 = 5;
const TAG_SESSION_LEN: u64 = 8;
const TAG_FLASH: u64 = 9;
const TAG_SPIKE: u64 = 10;
const TAG_THINK: u64 = 11;

/// A day's draw streams, one per tag, keyed once from the fleet seed.
#[derive(Debug, Clone, Copy)]
struct Draws {
    time: Keyed,
    client: Keyed,
    kind: Keyed,
    fresh: Keyed,
    cond: Keyed,
    session_len: Keyed,
    flash: Keyed,
    spike: Keyed,
    think: Keyed,
}

impl Draws {
    fn new(seed: u64) -> Draws {
        let key = |tag| Keyed::new(seed, tag);
        Draws {
            time: key(TAG_TIME),
            client: key(TAG_CLIENT),
            kind: key(TAG_KIND),
            fresh: key(TAG_FRESH),
            cond: key(TAG_COND),
            session_len: key(TAG_SESSION_LEN),
            flash: key(TAG_FLASH),
            spike: key(TAG_SPIKE),
            think: key(TAG_THINK),
        }
    }
}

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of distinct registered consumers. At most `u32::MAX` on a
    /// session day: the day links its clients by `u32` index.
    pub clients: u64,
    /// Requests issued across the day (uniform shape). At most
    /// `u32::MAX`: a uniform day files each request id in four bytes.
    pub requests: u64,
    /// Zipf exponent over artifact popularity ranks (milli-units:
    /// 1000 = classic 1/rank).
    pub zipf_exponent_milli: u32,
    /// PRNG seed; equal seeds replay the identical day.
    pub seed: u64,
    /// Permille of requests from clients holding the round the store
    /// last diffed against (e.g. yesterday's mirror sync); they ask for
    /// a delta on top of it.
    pub one_behind_permille: u32,
    /// Permille of requests sent conditionally (If-None-Match with the
    /// digest the client last saw).
    pub conditional_permille: u32,
    /// Length of the simulated day in virtual microseconds.
    pub day_micros: u64,
    /// Session-based load shape. `None` replays `requests` PRF-uniform
    /// arrivals (the classic day); `Some` generates one session per
    /// client instead — heavy-tailed request counts, think time, and
    /// optional flash-crowd spikes — and `requests` is ignored.
    pub session: Option<SessionShape>,
}

/// One flash-crowd spike: a publication lands at `at_us` and the crowd
/// piles on across the following `window_us`, front-loaded (arrival
/// offsets are drawn quadratically toward the publication instant, the
/// shape a fresh-hitlist announcement produces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashSpike {
    /// Publication instant, microseconds into the day.
    pub at_us: u64,
    /// How long the crowd keeps arriving after the publication.
    pub window_us: u64,
}

/// The session-based virtual-client behavior model: how many requests a
/// client makes (heavy-tailed), how it paces them (think time), and
/// which sessions chase publications (flash crowds). Modeled on the
/// virtual-user trafficgen pattern: every client is an independent
/// deterministic "task" whose think-time jitter and request count come
/// from per-client PRF draws.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionShape {
    /// Mean think time between a session's consecutive requests,
    /// microseconds (each gap is drawn uniform in `[1, 2·mean]`).
    pub think_time_us: u64,
    /// Cap on per-client request counts; counts are Zipf-distributed
    /// over `1..=cap`, so most sessions are short and a heavy tail
    /// hammers the service.
    pub max_requests_per_client: u32,
    /// Zipf exponent over session lengths (milli-units, like
    /// [`FleetConfig::zipf_exponent_milli`]).
    pub length_zipf_milli: u32,
    /// Permille of sessions that join a flash crowd (when `spikes` is
    /// non-empty): their session starts inside a spike window instead of
    /// uniformly across the day.
    pub flash_permille: u32,
    /// The day's flash-crowd spikes (typically one per publication).
    pub spikes: Vec<FlashSpike>,
}

impl Default for SessionShape {
    fn default() -> SessionShape {
        SessionShape {
            think_time_us: 120_000_000,
            max_requests_per_client: 64,
            length_zipf_milli: 1_300,
            flash_permille: 400,
            spikes: Vec::new(),
        }
    }
}

impl SessionShape {
    /// Starts from the default shape (2-minute mean think time, Zipf-1.3
    /// session lengths capped at 64, no spikes).
    pub fn builder() -> SessionShape {
        SessionShape::default()
    }

    /// Sets the mean think time.
    pub fn with_think_time_us(mut self, think: u64) -> SessionShape {
        self.think_time_us = think;
        self
    }

    /// Sets the per-client request-count cap.
    pub fn with_max_requests_per_client(mut self, cap: u32) -> SessionShape {
        self.max_requests_per_client = cap;
        self
    }

    /// Adds a flash-crowd spike.
    pub fn with_spike(mut self, at_us: u64, window_us: u64) -> SessionShape {
        self.spikes.push(FlashSpike { at_us, window_us });
        self
    }

    /// Sets the share of sessions that join a flash crowd.
    pub fn with_flash_permille(mut self, permille: u32) -> SessionShape {
        self.flash_permille = permille;
        self
    }
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            clients: 500,
            requests: 100_000,
            zipf_exponent_milli: 1_000,
            seed: 0x6D15_7A11,
            one_behind_permille: 350,
            conditional_permille: 250,
            day_micros: 86_400_000_000,
            session: None,
        }
    }
}

/// Why a [`FleetConfig`] failed validation — the same loud-rejection
/// pattern as [`FrontendConfigError`](crate::FrontendConfigError).
/// Each rejected value used to panic deep in the replay (an extreme
/// Zipf exponent overflowing `rank.pow`), loop forever, or silently
/// produce an empty day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConfigError {
    /// `clients` is zero: nobody to draw arrivals from.
    ZeroClients,
    /// `requests` is zero in uniform mode: the day would be empty.
    ZeroRequests,
    /// `requests` is above `u32::MAX` in uniform mode: the day files
    /// each request id in a `u32`.
    TooManyRequests,
    /// `clients` is above `u32::MAX` in session mode: the day links its
    /// clients by `u32` index.
    TooManyClients,
    /// `day_micros` is zero: no timeline to schedule on.
    ZeroDayMicros,
    /// A Zipf exponent so extreme the fixed-point `rank^s` computation
    /// overflows (applies to `zipf_exponent_milli` and to a session's
    /// `length_zipf_milli`).
    ZipfExponentOverflow,
    /// A session's `max_requests_per_client` is zero: every session
    /// would be empty.
    ZeroSessionRequestCap,
    /// A flash spike is scheduled at or past the end of the day.
    FlashSpikeOutsideDay,
}

impl std::fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetConfigError::ZeroClients => write!(f, "clients must be at least 1"),
            FleetConfigError::ZeroRequests => {
                write!(f, "requests must be at least 1 (uniform mode)")
            }
            FleetConfigError::TooManyRequests => {
                write!(f, "requests must be at most {} (uniform mode)", u32::MAX)
            }
            FleetConfigError::TooManyClients => {
                write!(f, "clients must be at most {} (session mode)", u32::MAX)
            }
            FleetConfigError::ZeroDayMicros => write!(f, "day_micros must be at least 1"),
            FleetConfigError::ZipfExponentOverflow => {
                write!(f, "zipf exponent overflows the fixed-point rank^s computation")
            }
            FleetConfigError::ZeroSessionRequestCap => {
                write!(f, "max_requests_per_client must be at least 1")
            }
            FleetConfigError::FlashSpikeOutsideDay => {
                write!(f, "flash spike scheduled at or past the end of the day")
            }
        }
    }
}

impl std::error::Error for FleetConfigError {}

impl FleetConfig {
    /// Starts from the default configuration.
    pub fn builder() -> FleetConfig {
        FleetConfig::default()
    }

    /// Sets the consumer count.
    pub fn with_clients(mut self, clients: u64) -> FleetConfig {
        self.clients = clients;
        self
    }

    /// Sets the total request count for the day.
    pub fn with_requests(mut self, requests: u64) -> FleetConfig {
        self.requests = requests;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> FleetConfig {
        self.seed = seed;
        self
    }

    /// Switches the day to session-based generation.
    pub fn with_session(mut self, session: SessionShape) -> FleetConfig {
        self.session = Some(session);
        self
    }

    /// Checks the configuration without consuming it.
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        if self.clients == 0 {
            return Err(FleetConfigError::ZeroClients);
        }
        if self.day_micros == 0 {
            return Err(FleetConfigError::ZeroDayMicros);
        }
        if zipf_cumulative_checked(ArtifactKind::ALL.len() as u64, self.zipf_exponent_milli)
            .is_none()
        {
            return Err(FleetConfigError::ZipfExponentOverflow);
        }
        match &self.session {
            None => {
                if self.requests == 0 {
                    return Err(FleetConfigError::ZeroRequests);
                }
                if self.requests > u64::from(u32::MAX) {
                    return Err(FleetConfigError::TooManyRequests);
                }
            }
            Some(shape) => {
                if self.clients > u64::from(u32::MAX) {
                    return Err(FleetConfigError::TooManyClients);
                }
                if shape.max_requests_per_client == 0 {
                    return Err(FleetConfigError::ZeroSessionRequestCap);
                }
                if zipf_cumulative_checked(
                    u64::from(shape.max_requests_per_client),
                    shape.length_zipf_milli,
                )
                .is_none()
                {
                    return Err(FleetConfigError::ZipfExponentOverflow);
                }
                if shape.spikes.iter().any(|s| s.at_us >= self.day_micros) {
                    return Err(FleetConfigError::FlashSpikeOutsideDay);
                }
            }
        }
        Ok(())
    }

    /// Finishes the builder chain, rejecting configurations that would
    /// panic or degenerate at replay time.
    pub fn build(self) -> Result<FleetConfig, FleetConfigError> {
        self.validate()?;
        Ok(self)
    }
}

/// The report card of one simulated day, serializable for
/// `--serve-report`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DayReport {
    /// Seed the day was generated from.
    pub seed: u64,
    /// Configured consumer count.
    pub clients: u64,
    /// Store round the day was served from.
    pub round: u64,
    /// Front-end totals (requests, bytes, cache, shed, …).
    pub totals: FrontendTotals,
    /// Served bodies per artifact kind, in [`ArtifactKind::ALL`] order.
    pub bodies_by_kind: Vec<(String, u64)>,
    /// Median answered-request latency, virtual microseconds. Zero when
    /// the report predates these fields (their keys are optional) or no request
    /// was answered.
    pub latency_p50_us: u64,
    /// 90th-percentile answered-request latency, virtual microseconds.
    pub latency_p90_us: u64,
    /// 99th-percentile answered-request latency, virtual microseconds.
    pub latency_p99_us: u64,
    /// Bytes the delta encoding saved across the day (full bodies
    /// replaced minus delta bytes sent).
    pub bytes_saved_by_delta: u64,
    /// Delta requests that fell back to a full body because the client's
    /// base round was not the store's diff base — degradation made
    /// visible in the replayed-day artifact, not only in telemetry.
    pub delta_fallbacks: u64,
    /// Requests shed by policy (per-client buckets + the global
    /// concurrency cap).
    pub shed: u64,
    /// Arrivals that landed inside a flash-crowd window (zero for
    /// uniform days and for reports predating this field).
    pub flash_arrivals: u64,
    /// Resilience accounting of a mirror-tier chaos day (all zero for a
    /// single-frontend day and for reports predating these fields).
    pub resilience: ResilienceTotals,
}
json_struct!(DayReport {
    seed,
    clients,
    round,
    totals,
    bodies_by_kind,
    latency_p50_us = 0,
    latency_p90_us = 0,
    latency_p99_us = 0,
    bytes_saved_by_delta = 0,
    delta_fallbacks = 0,
    shed = 0,
    flash_arrivals = 0,
    resilience = ResilienceTotals::default(),
});

/// The resilience ledger of one chaos day: what the retry / hedging /
/// circuit-breaker client path and the mirror sync machinery did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceTotals {
    /// Mirrors in the tier.
    pub mirrors: u64,
    /// Logical consumer requests issued (each may take several
    /// attempts).
    pub logical_requests: u64,
    /// Attempts sent to mirrors (primaries + retries + hedges +
    /// half-open probes).
    pub attempts: u64,
    /// Attempts beyond the first for a logical request.
    pub retries: u64,
    /// Attempts routed away from the client's affinity mirror.
    pub failovers: u64,
    /// Hedged second requests issued after the latency threshold.
    pub hedged: u64,
    /// Hedges that beat the primary response.
    pub hedge_wins: u64,
    /// Circuit-breaker transitions into open.
    pub breaker_opened: u64,
    /// Circuit-breaker re-closes out of half-open.
    pub breaker_closed: u64,
    /// Attempts skipped because a mirror's breaker was open.
    pub breaker_skipped: u64,
    /// Attempts that hit a mirror inside an outage window (no answer).
    pub down_attempts: u64,
    /// Requests answered from a generation behind the publish plan
    /// (stale-while-revalidate; also in `serve.mirror.stale_served`).
    pub stale_served: u64,
    /// Stale-triggered revalidation syncs.
    pub revalidations: u64,
    /// Completed mirror generation syncs.
    pub syncs: u64,
    /// Syncs rejected wholesale by checksum-first validation.
    pub sync_rejected: u64,
    /// Logical requests that exhausted every attempt without an answer
    /// or a policy shed — the hard failures a resilient tier must keep
    /// at zero.
    pub hard_failures: u64,
}
json_struct!(ResilienceTotals {
    mirrors,
    logical_requests,
    attempts,
    retries,
    failovers,
    hedged,
    hedge_wins,
    breaker_opened,
    breaker_closed,
    breaker_skipped,
    down_attempts,
    stale_served,
    revalidations,
    syncs,
    sync_rejected,
    hard_failures,
});

/// Zipf cumulative weights over `n` popularity ranks, in integer
/// weights so the draw is exact and portable. Returns `None` when the
/// exponent overflows the fixed-point `rank^s` computation or every
/// weight rounds to zero — [`FleetConfig::validate`] surfaces that as
/// [`FleetConfigError::ZipfExponentOverflow`] instead of panicking
/// mid-replay.
fn zipf_cumulative_checked(n: u64, exponent_milli: u32) -> Option<Vec<u64>> {
    let mut acc = 0u64;
    let mut cumulative = Vec::with_capacity(usize::try_from(n).ok()?);
    let s = exponent_milli;
    let frac = u128::from(s % 1000);
    for rank in 1..=n {
        // weight = 1 / rank^s with s in milli-units, computed as a
        // fixed-point power: rank^s = exp2(s * log2(rank)). Integer
        // approximation: interpolate between the two nearest integer
        // exponents, which is exact at s = 0 and s = 1000 (the default).
        let lo = rank.checked_pow(s / 1000)?;
        let hi = lo.checked_mul(rank)?;
        let denom_milli = u128::from(lo)
            .checked_mul(1000 - frac)
            .and_then(|l| l.checked_add(u128::from(hi).checked_mul(frac)?))?;
        // weight in parts-per-million of the rank-1 weight; deep ranks
        // of a steep law may round to zero (they are simply never drawn).
        let weight = u64::try_from(1_000_000_000u128 / denom_milli.max(1)).ok()?;
        acc = acc.checked_add(weight)?;
        cumulative.push(acc);
    }
    (acc > 0).then_some(cumulative)
}

/// The artifact-kind popularity table; infallible once the config passed
/// [`FleetConfig::validate`].
fn zipf_cumulative(exponent_milli: u32) -> Vec<u64> {
    zipf_cumulative_checked(ArtifactKind::ALL.len() as u64, exponent_milli)
        .expect("FleetConfig rejected: zipf exponent overflows")
}

/// Exact weighted draw from a cumulative table: the 64-bit draw is
/// scaled onto `[0, total)` with a 128-bit widening multiply, so every
/// slot gets a share of the draw space proportional to its weight (to
/// within one part in 2^64). The previous `draw % total` biased the
/// point toward low values whenever `total` did not divide 2^64 —
/// systematically over-serving the Zipf head.
fn pick_weighted(cumulative: &[u64], draw: u64) -> usize {
    let total = *cumulative.last().expect("non-empty weight table");
    let point = ((u128::from(draw) * u128::from(total)) >> 64) as u64;
    cumulative.iter().position(|&c| point < c).unwrap_or(cumulative.len() - 1)
}

fn pick_kind(cumulative: &[u64], draw: u64) -> ArtifactKind {
    ArtifactKind::ALL[pick_weighted(cumulative, draw)]
}

/// What a client remembers of the copy of one artifact it last
/// downloaded. Updated when the transfer *completes* — a client cannot
/// revalidate against a digest still on the wire.
#[derive(Debug, Clone, Copy)]
struct Held {
    round: u64,
    /// The content digest: the client's ETag.
    digest: u64,
}

/// `(client, artifact kind index)` packed into one word, so a held entry
/// of a million-client day stays three words and hashes in one mix.
fn held_key(client: u64, kind: usize) -> u64 {
    client.wrapping_mul(ArtifactKind::ALL.len() as u64).wrapping_add(kind as u64)
}

/// What every client holds, by [`held_key`].
type HeldTable = HashMap<u64, Held, AddrBuildHasher>;

/// What the clients hold, and on a session day which kinds each holds
/// and whose sessions have ended. A held copy is read only at its own
/// client's arrivals, so a client past its last arrival keeps nothing: its
/// copies are dropped and the bodies still on the wire to it are not kept.
struct Holdings {
    table: HeldTable,
    /// A bit per [`ArtifactKind::index`] a client holds (session days
    /// only; empty on a uniform day).
    kinds: Vec<u8>,
    /// A bit per client whose session has ended (session days only).
    finished: Vec<u64>,
}

impl Holdings {
    fn for_day(config: &FleetConfig) -> Holdings {
        let tracked = match config.session {
            Some(_) => usize::try_from(config.clients).unwrap_or(usize::MAX),
            None => 0,
        };
        Holdings {
            table: HeldTable::default(),
            kinds: vec![0; tracked],
            finished: vec![0; tracked.div_ceil(64)],
        }
    }

    fn get(&self, client: u64, kind: ArtifactKind) -> Option<Held> {
        self.table.get(&held_key(client, kind.index())).copied()
    }

    /// Records a delivered body, unless its client's session has ended.
    fn keep(&mut self, client: u64, kind: ArtifactKind, held: Held) {
        let (c, kind) = (client as usize, kind.index());
        if let Some(kinds) = self.kinds.get_mut(c) {
            if self.finished[c / 64] >> (c % 64) & 1 == 1 {
                return;
            }
            *kinds |= 1 << kind;
        }
        self.table.insert(held_key(client, kind), held);
    }

    /// Drops what `client` holds once its session's last request is out.
    fn forget(&mut self, client: u64) {
        let c = client as usize;
        let mut kinds = std::mem::take(&mut self.kinds[c]);
        while kinds != 0 {
            self.table.remove(&held_key(client, kinds.trailing_zeros() as usize));
            kinds &= kinds - 1;
        }
        self.finished[c / 64] |= 1 << (c % 64);
    }
}

/// Whose clients a day's are: what they ask for, given what they hold,
/// is the one thing the two kinds of day differ in on the client side.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Clients {
    /// One front end's, over a store that stands still all day. A
    /// one-behind client holds the round the store diffed against at day
    /// start (yesterday's sync) and asks for the delta without an ETag; an
    /// up-to-date one revalidates on the `conditional_permille` draw.
    OfOneFrontend,
    /// A mirror tier's, republishing during the day. A one-behind client
    /// asks for the delta on the round it holds, and every holder
    /// revalidates: the mirror's generation may lag the one the client
    /// fetched elsewhere, and the ETag keeps that cheap (304).
    OfATier,
}

/// One arrival of the day, after the load shape has been expanded:
/// request `id` from `client` at `at_us`.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at_us: u64,
    id: u64,
    client: u64,
}

/// The shift that cuts a day of `arrivals` into power-of-two spans of
/// microseconds, eight to sixteen arrivals a span on average (more only
/// when one microsecond holds more).
fn bucket_shift(day_micros: u64, arrivals: u64) -> u32 {
    let last_us = day_micros - 1;
    // The narrowest span that keeps the bucket count at most arrivals / 8.
    let span = last_us / (arrivals / 8).max(1) + 1;
    (u64::BITS - (span - 1).leading_zeros()).min(u64::BITS - 1)
}

/// Marks an empty span and the end of a span's list.
const NONE: u32 = u32::MAX;

/// A started session paused before its next arrival, in the day's slab of
/// started sessions.
struct Session {
    /// When the next arrival comes.
    at_us: u64,
    /// The next arrival's request id.
    id: u64,
    /// The end of the session's flash-crowd window (zero outside a crowd):
    /// an arrival before it lands inside the window.
    flash_until: u64,
    /// Whose session it is.
    client: u32,
    /// Which think-time draw spaces the next arrival from the one after.
    think: u32,
    /// Arrivals still to come before midnight, the next one included.
    left: u32,
    /// The next slot filed under the same span, or [`NONE`].
    next: u32,
}

/// When `client`'s session starts, and the end of its flash-crowd window
/// (zero outside a crowd). A slice of sessions starts inside a spike
/// window, offset quadratically toward the publication instant (d²/w
/// front-loads small offsets); the others start uniformly across the day.
fn session_start(shape: &SessionShape, draws: &Draws, day: u64, client: u64) -> (u64, u64) {
    let c = u128::from(client);
    let crowd =
        !shape.spikes.is_empty() && draws.flash.draw(c) % 1000 < u64::from(shape.flash_permille);
    if !crowd {
        return (draws.time.draw(c) % day, 0);
    }
    let s = shape.spikes[(draws.spike.draw(c) % shape.spikes.len() as u64) as usize];
    let w = s.window_us.max(1);
    let d = draws.time.draw(c) % w;
    let start = s.at_us.saturating_add((u128::from(d) * u128::from(d) / u128::from(w)) as u64);
    (start, s.at_us.saturating_add(s.window_us))
}

/// When `client`'s session sends its next request after the one at
/// `at_us`, by its `think`-th think-time draw. A gap is 1 + a draw below
/// `think_bound`, twice the mean think time; past a mean of `u64::MAX / 2`
/// that bound takes 65 bits.
fn next_at(draws: &Draws, think_bound: u128, client: u64, think: u32, at_us: u64) -> u64 {
    let think =
        u128::from(draws.think.draw(u128::from(client) << 32 | u128::from(think))) % think_bound;
    at_us.saturating_add(u64::try_from(1 + think).unwrap_or(u64::MAX))
}

/// Hands a session day's arrivals to `each` in `(time, id)` order without
/// holding them all, each with whether it is the last of its session, and
/// returns how many landed inside a flash-crowd window. A first pass walks
/// the clients in order: each session's length and start, and how many of
/// its arrivals come before midnight, which fixes every request id (a
/// client's ids follow the ids of the clients before it). A client keeps
/// only its first id, and is linked into the list of the power-of-two span
/// of the day ([`bucket_shift`]) its session starts in. When the replay
/// reaches a span, the sessions starting there are drawn again and join a
/// slab of started sessions; each session of the span walks on to the
/// span's end and is filed again under the span of the arrival after, and
/// the span's arrivals are sorted. A session's slot is freed after its
/// last arrival. Spans are monotone in time, so their concatenation is the
/// whole day's sorted schedule.
fn for_each_session_arrival(
    config: &FleetConfig,
    draws: &Draws,
    mut each: impl FnMut(Arrival, bool),
) -> u64 {
    let shape = config.session.as_ref().expect("only a session day has sessions");
    let day = config.day_micros;
    let clients = u32::try_from(config.clients).expect("FleetConfig rejected: too many clients");
    let lengths =
        zipf_cumulative_checked(u64::from(shape.max_requests_per_client), shape.length_zipf_milli)
            .expect("FleetConfig rejected: session zipf exponent overflows");
    let think_bound = (2 * u128::from(shape.think_time_us)).max(1);
    // `first[c]` is client `c`'s first request id, `first[c + 1] - first[c]`
    // its arrivals before midnight.
    let mut first = Vec::with_capacity(clients as usize + 1);
    let mut id = 0u64;
    for client in 0..u64::from(clients) {
        first.push(id);
        // Heavy-tailed session length: rank 1 (one request) dominates, a
        // Zipf tail of long sessions hammers on.
        let len_draw = draws.session_len.draw(u128::from(client));
        let count = 1 + pick_weighted(&lengths, len_draw) as u32;
        let (start, _) = session_start(shape, draws, day, client);
        // The session is truncated at midnight; only a session that may
        // reach it walks its think times here.
        let left = if start >= day {
            0
        } else if u128::from(start) + u128::from(count - 1) * think_bound < u128::from(day) {
            count
        } else {
            let (mut at, mut n) = (start, 1);
            while n < count {
                at = next_at(draws, think_bound, client, n - 1, at);
                if at >= day {
                    break;
                }
                n += 1;
            }
            n
        };
        id += u64::from(left);
    }
    first.push(id);

    let shift = bucket_shift(day, id);
    let spans = ((day - 1) >> shift) as usize + 1;
    let span = |at_us: u64| (at_us >> shift) as usize;
    let mut starting = vec![NONE; spans];
    let mut links = vec![NONE; clients as usize];
    for client in (0..clients).filter(|&c| first[c as usize + 1] > first[c as usize]) {
        let (start, _) = session_start(shape, draws, day, u64::from(client));
        links[client as usize] = std::mem::replace(&mut starting[span(start)], client);
    }

    let mut heads = vec![NONE; spans];
    let mut slab: Vec<Session> = Vec::new();
    let mut free = Vec::new();
    let mut flash_arrivals = 0u64;
    let mut arrivals = Vec::new();
    for b in 0..spans {
        let mut client = std::mem::replace(&mut starting[b], NONE);
        while client != NONE {
            let c = client as usize;
            let (at_us, flash_until) = session_start(shape, draws, day, u64::from(client));
            let left = (first[c + 1] - first[c]) as u32;
            let session = Session {
                at_us,
                id: first[c],
                flash_until,
                client,
                think: 0,
                left,
                next: heads[b],
            };
            heads[b] = match free.pop() {
                Some(slot) => {
                    slab[slot as usize] = session;
                    slot
                }
                None => {
                    slab.push(session);
                    (slab.len() - 1) as u32
                }
            };
            client = links[c];
        }
        let mut slot = std::mem::replace(&mut heads[b], NONE);
        while slot != NONE {
            let session = &mut slab[slot as usize];
            let following = session.next;
            let client = u64::from(session.client);
            loop {
                let at_us = session.at_us;
                session.left -= 1;
                let last = session.left == 0;
                arrivals.push((Arrival { at_us, id: session.id, client }, last));
                flash_arrivals += u64::from(at_us < session.flash_until);
                if last {
                    break;
                }
                session.at_us = next_at(draws, think_bound, client, session.think, at_us);
                session.id += 1;
                session.think += 1;
                let next = span(session.at_us);
                if next != b {
                    session.next = std::mem::replace(&mut heads[next], slot);
                    break;
                }
            }
            if session.left == 0 {
                free.push(slot);
            }
            slot = following;
        }
        arrivals.sort_unstable_by_key(|(a, _)| (a.at_us, a.id));
        arrivals.drain(..).for_each(|(a, last)| each(a, last));
    }
    flash_arrivals
}

/// A uniform day's request `id`: its instant and its client are draws
/// keyed by the id alone.
fn uniform_arrival(config: &FleetConfig, draws: &Draws, id: u32) -> Arrival {
    let id = u64::from(id);
    let at_us = draws.time.draw(u128::from(id)) % config.day_micros;
    let client = draws.client.draw(u128::from(id)) % config.clients;
    Arrival { at_us, id, client }
}

/// Hands a uniform day's arrivals to `each` in `(time, id)` order without
/// holding them all. The day is cut into power-of-two spans of
/// microseconds ([`bucket_shift`]); two passes over the ids file each id
/// under its bucket, four bytes a request, and each bucket's arrivals are
/// drawn again and sorted when it is replayed. Buckets are monotone in
/// time, so their concatenation is the whole day's sorted schedule.
fn for_each_uniform_arrival(config: &FleetConfig, draws: &Draws, mut each: impl FnMut(Arrival)) {
    let requests = u32::try_from(config.requests).expect("FleetConfig rejected: too many requests");
    let shift = bucket_shift(config.day_micros, u64::from(requests));
    let buckets = ((config.day_micros - 1) >> shift) as usize + 1;
    let bucket =
        |id: u32| ((draws.time.draw(u128::from(id)) % config.day_micros) >> shift) as usize;

    // `bounds[b]` counts bucket `b`, then (prefix sums) marks where it
    // ends; filing each id at its bucket's end, counting down, leaves it
    // marking where `b` starts. Bucket `b` is `ids[bounds[b]..bounds[b + 1]]`,
    // its ids descending: the replay's sort, not the filing, puts the
    // arrivals of one instant in id order.
    let mut bounds = vec![0u32; buckets + 1];
    for id in 0..requests {
        bounds[bucket(id)] += 1;
    }
    let mut total = 0;
    for bound in &mut bounds {
        total += *bound;
        *bound = total;
    }
    let mut ids = vec![0u32; requests as usize];
    for id in 0..requests {
        let bound = &mut bounds[bucket(id)];
        *bound -= 1;
        ids[*bound as usize] = id;
    }

    let mut arrivals = Vec::new();
    for b in 0..buckets {
        arrivals.extend(
            ids[bounds[b] as usize..bounds[b + 1] as usize]
                .iter()
                .map(|&id| uniform_arrival(config, draws, id)),
        );
        arrivals.sort_unstable_by_key(|a| (a.at_us, a.id));
        arrivals.drain(..).for_each(&mut each);
    }
}

/// The per-request PRF draws: which artifact, delta-vs-full freshness,
/// and conditional revalidation.
fn draw_request(
    config: &FleetConfig,
    draws: &Draws,
    clients: Clients,
    cumulative: &[u64],
    prev_rounds: &[Option<u64>],
    held: &Holdings,
    arrival: Arrival,
) -> Request {
    let id = u128::from(arrival.id);
    let kind = pick_kind(cumulative, draws.kind.draw(id));
    let state = held.get(arrival.client, kind);
    let one_behind = draws.fresh.draw(id) % 1000 < u64::from(config.one_behind_permille);
    let (delta_base, if_none_match) = match clients {
        Clients::OfOneFrontend => {
            let conditional =
                !one_behind && draws.cond.draw(id) % 1000 < u64::from(config.conditional_permille);
            (prev_rounds[kind.index()], state.filter(|_| conditional).map(|h| h.digest))
        }
        Clients::OfATier => (state.map(|h| h.round), state.map(|h| h.digest)),
    };
    let fetch = match delta_base {
        Some(round) if one_behind => FetchKind::DeltaSince(round),
        _ => FetchKind::Full,
    };
    Request { client: arrival.client, kind, fetch, if_none_match, at_us: arrival.at_us }
}

/// What [`drive_day`] drives: submissions in arrival order, completions
/// back in `(retire time, submission order)` order.
pub(crate) trait Engine {
    type Backend: Backend;
    fn submit(&mut self, id: u64, request: &Request);
    fn poll(&mut self, until_us: u64, deliver: impl FnMut(Completion));
    fn backend(&self) -> &Self::Backend;
    /// Ends `client`'s session at the backend, after its last `submit`
    /// ([`Backend::end_session`]).
    fn end_session(&mut self, client: u64);
    /// Tells the attached registries what the engine's and its backend's
    /// ledgers have counted.
    fn publish(&mut self);
}

impl<B: Backend> Engine for EventLoop<'_, B> {
    type Backend = B;

    fn submit(&mut self, id: u64, request: &Request) {
        EventLoop::submit(self, id, request);
    }

    fn poll(&mut self, until_us: u64, deliver: impl FnMut(Completion)) {
        self.poll_each(until_us, deliver);
    }

    fn backend(&self) -> &B {
        EventLoop::backend(self)
    }

    fn end_session(&mut self, client: u64) {
        EventLoop::end_session(self, client);
    }

    fn publish(&mut self) {
        EventLoop::publish(self);
    }
}

/// The synchronous reference engine: a request runs to completion inline
/// in `Frontend::handle` and its completion is queued arithmetically.
/// Shares nothing with the event loop but the queue's order.
struct SyncEngine<'a> {
    frontend: &'a mut Frontend,
    pending: Timeline<Completion>,
}

impl Engine for SyncEngine<'_> {
    type Backend = Frontend;

    fn submit(&mut self, id: u64, request: &Request) {
        let mut outcome = self.frontend.handle(request);
        let latency = served_latency(&mut outcome).map_or(0, |latency_us| *latency_us);
        let at_us = request.at_us.saturating_add(latency);
        self.pending.push(
            at_us,
            Completion { id, client: request.client, kind: request.kind, at_us, outcome },
        );
    }

    fn poll(&mut self, until_us: u64, deliver: impl FnMut(Completion)) {
        std::iter::from_fn(|| self.pending.pop_due(until_us)).for_each(deliver);
    }

    fn backend(&self) -> &Frontend {
        self.frontend
    }

    fn end_session(&mut self, client: u64) {
        self.frontend.end_session(client);
    }

    fn publish(&mut self) {
        self.frontend.publish();
    }
}

/// The one day driver: for each arrival in `(time, id)` order first
/// apply every completion whose transfer has finished (updating what the
/// clients hold), then draw and submit the request; after a session's
/// last request, its client is forgotten here and at the backend. `store` is where
/// publications land: its round at day's end is the report's. The day's
/// ledgers are published to the attached registries when it ends.
pub(crate) fn drive_day(
    config: &FleetConfig,
    clients: Clients,
    engine: &mut impl Engine,
    store: &SnapshotStore,
) -> DayReport {
    config.validate().expect("FleetConfig rejected");
    let cumulative = zipf_cumulative(config.zipf_exponent_milli);
    let prev_rounds: Vec<Option<u64>> =
        ArtifactKind::ALL.iter().map(|&k| store.artifact(k).and_then(|v| v.prev_round())).collect();
    let draws = Draws::new(config.seed);

    let mut held = Holdings::for_day(config);
    let mut bodies_by_kind = vec![0u64; ArtifactKind::ALL.len()];
    // Only a body leaves a client holding something.
    let mut deliver = |c: Completion, held: &mut Holdings| {
        if let Outcome::Body { round, digest, .. } = c.outcome {
            bodies_by_kind[c.kind.index()] += 1;
            held.keep(c.client, c.kind, Held { round, digest });
        }
    };

    let mut arrive = |arrival: Arrival, last: bool| {
        engine.poll(arrival.at_us, |c| deliver(c, &mut held));
        let request =
            draw_request(config, &draws, clients, &cumulative, &prev_rounds, &held, arrival);
        engine.submit(arrival.id, &request);
        if last {
            held.forget(arrival.client);
            engine.end_session(arrival.client);
        }
    };
    let flash_arrivals = match config.session {
        None => {
            for_each_uniform_arrival(config, &draws, |arrival| arrive(arrival, false));
            0
        }
        Some(_) => for_each_session_arrival(config, &draws, arrive),
    };
    engine.poll(u64::MAX, |c| deliver(c, &mut held));
    engine.publish();

    let totals = engine.backend().totals();
    let latency = engine.backend().latency();
    DayReport {
        seed: config.seed,
        clients: config.clients,
        round: store.current_round().unwrap_or(0),
        bytes_saved_by_delta: totals.bytes_saved_by_delta,
        delta_fallbacks: totals.delta_fallbacks,
        shed: totals.shed_client + totals.shed_global,
        flash_arrivals,
        resilience: ResilienceTotals::default(),
        totals,
        bodies_by_kind: ArtifactKind::ALL
            .iter()
            .zip(bodies_by_kind)
            .map(|(kind, n)| (kind.file_stem(), n))
            .collect(),
        latency_p50_us: latency.p50(),
        latency_p90_us: latency.p90(),
        latency_p99_us: latency.p99(),
    }
}

/// Drives one simulated day of fleet load through the event-loop
/// reactor and returns the report. Deterministic for a fixed
/// (config, store state).
///
/// # Panics
///
/// On a configuration [`FleetConfig::validate`] rejects — run the
/// builder chain through [`FleetConfig::build`] to handle the error
/// instead.
pub fn simulate_day(
    config: &FleetConfig,
    frontend: &mut Frontend,
    store: &SnapshotStore,
) -> DayReport {
    drive_day(config, Clients::OfOneFrontend, &mut EventLoop::new(frontend), store)
}

/// The synchronous reference path: [`simulate_day`] without the event
/// loop. Exists to pin the event loop's ledger — the two must produce
/// byte-identical [`DayReport`]s at matched config.
pub fn simulate_day_sync(
    config: &FleetConfig,
    frontend: &mut Frontend,
    store: &SnapshotStore,
) -> DayReport {
    let mut engine = SyncEngine { frontend, pending: Timeline::new() };
    drive_day(config, Clients::OfOneFrontend, &mut engine, store)
}

/// Convenience wrapper: build a front end over `store` with `frontend`
/// config (telemetry optional) and replay one day of `fleet` load. With a
/// flight recorder installed in the registry, every shed decision lands
/// in its event ring.
pub fn run_day(
    fleet: &FleetConfig,
    frontend: FrontendConfig,
    store: &Arc<SnapshotStore>,
    telemetry: Option<&Registry>,
) -> DayReport {
    let mut fe = Frontend::new(frontend, store.clone());
    if let Some(registry) = telemetry {
        fe = fe.with_telemetry(registry);
    }
    let mut el = EventLoop::new(&mut fe);
    if let Some(registry) = telemetry {
        el = el.with_telemetry(registry);
    }
    drive_day(fleet, Clients::OfOneFrontend, &mut el, store)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::store::StoreConfig;

    pub(crate) fn seeded_store() -> Arc<SnapshotStore> {
        let store = SnapshotStore::new(StoreConfig::default());
        for round in 1..=3u64 {
            let artifacts = ArtifactKind::ALL
                .iter()
                .map(|&kind| {
                    let base = kind.index() as u128 * 1_000_000;
                    let n = 200 + round as u128 * 50;
                    (kind, (0..n).map(|i| base + i * 7).collect::<sixdust_addr::AddrSet>())
                })
                .collect();
            store.publish_round(round, "day", artifacts);
        }
        Arc::new(store)
    }

    #[test]
    fn zipf_weights_decrease_and_cover() {
        let c = zipf_cumulative(1_000);
        assert_eq!(c.len(), ArtifactKind::ALL.len());
        let mut prev = 0;
        let mut prev_w = u64::MAX;
        for &cum in &c {
            let w = cum - prev;
            assert!(w <= prev_w, "weights are non-increasing in rank");
            assert!(w > 0);
            prev = cum;
            prev_w = w;
        }
        // Exponent 0 degenerates to uniform.
        let flat = zipf_cumulative(0);
        let w0 = flat[0];
        assert!(flat.windows(2).all(|w| w[1] - w[0] == w0));
    }

    #[test]
    fn weighted_draw_splits_the_draw_space_exactly() {
        // Two equal weights: the widening multiply splits the 64-bit
        // draw space exactly in half (the old `draw % total` gave the
        // low slot 2^64 mod total extra points).
        let c = vec![500, 1_000];
        assert_eq!(pick_weighted(&c, 0), 0);
        assert_eq!(pick_weighted(&c, u64::MAX / 2), 0);
        assert_eq!(pick_weighted(&c, u64::MAX / 2 + 1), 1);
        assert_eq!(pick_weighted(&c, u64::MAX), 1);
    }

    #[test]
    fn build_rejects_degenerate_configs() {
        assert!(FleetConfig::builder().build().is_ok());
        let err = FleetConfig::builder().with_clients(0).build().unwrap_err();
        assert_eq!(err, FleetConfigError::ZeroClients, "the builder does not clamp it away");
        let err = FleetConfig { requests: 0, ..FleetConfig::default() }.build().unwrap_err();
        assert_eq!(err, FleetConfigError::ZeroRequests);
        let err = FleetConfig { day_micros: 0, ..FleetConfig::default() }.build().unwrap_err();
        assert_eq!(err, FleetConfigError::ZeroDayMicros);
        // A uniform day files its request ids as `u32`s.
        let most = FleetConfig { requests: u64::from(u32::MAX), ..FleetConfig::default() };
        assert!(most.build().is_ok());
        let over = FleetConfig { requests: u64::from(u32::MAX) + 1, ..FleetConfig::default() };
        let err = over.clone().build().unwrap_err();
        assert_eq!(err, FleetConfigError::TooManyRequests);
        assert_eq!(err.to_string(), "requests must be at most 4294967295 (uniform mode)");
        assert!(over.with_session(SessionShape::default()).build().is_ok(), "sessions ignore it");
        // 8 artifact ranks at exponent 40.0: 8^40 overflows the
        // fixed-point rank^s — the panic this used to be.
        let err = FleetConfig { zipf_exponent_milli: 40_000, ..FleetConfig::default() }
            .build()
            .unwrap_err();
        assert_eq!(err, FleetConfigError::ZipfExponentOverflow);
        // Session shapes get the same scrutiny.
        let shape = SessionShape::builder().with_max_requests_per_client(0);
        let err = FleetConfig::builder().with_session(shape).build().unwrap_err();
        assert_eq!(err, FleetConfigError::ZeroSessionRequestCap);
        let shape = SessionShape { length_zipf_milli: 90_000, ..SessionShape::default() };
        let err = FleetConfig::builder().with_session(shape).build().unwrap_err();
        assert_eq!(err, FleetConfigError::ZipfExponentOverflow);
        let shape = SessionShape::builder().with_spike(86_400_000_000, 1);
        let err = FleetConfig::builder().with_session(shape).build().unwrap_err();
        assert_eq!(err, FleetConfigError::FlashSpikeOutsideDay);
        // A session config with requests = 0 is fine: sessions ignore it.
        let ok = FleetConfig { requests: 0, ..FleetConfig::default() }
            .with_session(SessionShape::default())
            .build();
        assert!(ok.is_ok());
    }

    /// The whole-day schedule a uniform day used to build: every arrival
    /// collected, then sorted by `(time, id)`.
    fn sorted_uniform_schedule(config: &FleetConfig, draws: &Draws) -> Vec<(u64, u64, u64)> {
        let mut schedule: Vec<(u64, u64, u64)> = (0..config.requests)
            .map(|i| {
                let at = draws.time.draw(u128::from(i)) % config.day_micros;
                (at, i, draws.client.draw(u128::from(i)) % config.clients)
            })
            .collect();
        schedule.sort_unstable_by_key(|&(at, id, _)| (at, id));
        schedule
    }

    #[test]
    fn uniform_arrivals_come_out_as_the_sorted_schedule() {
        // One bucket, a bucket a microsecond, ties at equal instants, the
        // default day, and the widest day (a 63-bit shift).
        let days = [1, 2, 1_000, FleetConfig::default().day_micros, u64::MAX];
        for seed in [1, 31, 0x6D15_7A11] {
            for requests in [1, 7, 8, 9, 1_000, 100_000] {
                for day_micros in days {
                    for clients in [1, 5_000] {
                        let config = FleetConfig {
                            requests,
                            day_micros,
                            clients,
                            seed,
                            ..FleetConfig::default()
                        }
                        .build()
                        .expect("valid uniform config");
                        let draws = Draws::new(seed);
                        let mut streamed = Vec::new();
                        for_each_uniform_arrival(&config, &draws, |a| {
                            streamed.push((a.at_us, a.id, a.client))
                        });
                        assert!(
                            streamed == sorted_uniform_schedule(&config, &draws),
                            "seed {seed}, {requests} requests, day {day_micros} µs, {clients} clients"
                        );
                    }
                }
            }
        }
    }

    /// The whole-day schedule a session day used to build, the reference
    /// for [`for_each_session_arrival`]: every session walked in client
    /// order, every arrival collected, then sorted by `(time, id)`. Returns
    /// the schedule and the number of arrivals that landed inside a
    /// flash-crowd window.
    fn build_schedule(config: &FleetConfig, draws: &Draws) -> (Vec<Arrival>, u64) {
        let shape = config.session.as_ref().expect("only a session day has a schedule");
        let day = config.day_micros;
        let mut flash_arrivals = 0u64;
        let lengths = zipf_cumulative_checked(
            u64::from(shape.max_requests_per_client),
            shape.length_zipf_milli,
        )
        .expect("FleetConfig rejected: session zipf exponent overflows");
        let mut schedule = Vec::new();
        let mut id = 0u64;
        for client in 0..config.clients {
            // Heavy-tailed session length: rank 1 (one request)
            // dominates, a Zipf tail of long sessions hammers on.
            let len_draw = draws.session_len.draw(u128::from(client));
            let count = 1 + pick_weighted(&lengths, len_draw) as u64;
            // Flash crowd: a slice of sessions starts inside a spike
            // window, offset quadratically toward the publication
            // instant (d²/w front-loads small offsets).
            let spike = (!shape.spikes.is_empty()
                && draws.flash.draw(u128::from(client)) % 1000 < u64::from(shape.flash_permille))
            .then(|| {
                let pick = draws.spike.draw(u128::from(client)) % shape.spikes.len() as u64;
                shape.spikes[pick as usize]
            });
            let mut at = match spike {
                Some(s) => {
                    let w = s.window_us.max(1);
                    let d = draws.time.draw(u128::from(client)) % w;
                    s.at_us.saturating_add((u128::from(d) * u128::from(d) / u128::from(w)) as u64)
                }
                None => draws.time.draw(u128::from(client)) % day,
            };
            // A gap is 1 + a draw below twice the mean think time; past
            // a mean of `u64::MAX / 2` that bound takes 65 bits.
            let think_bound = (2 * u128::from(shape.think_time_us)).max(1);
            for r in 0..count {
                if at >= day {
                    // The session is truncated at midnight.
                    break;
                }
                schedule.push(Arrival { at_us: at, id, client });
                id += 1;
                if let Some(s) = spike {
                    if at >= s.at_us && at < s.at_us.saturating_add(s.window_us) {
                        flash_arrivals += 1;
                    }
                }
                let think = u128::from(draws.think.draw(u128::from(client) << 32 | u128::from(r)))
                    % think_bound;
                at = at.saturating_add(u64::try_from(1 + think).unwrap_or(u64::MAX));
            }
        }
        schedule.sort_unstable_by_key(|a| (a.at_us, a.id));
        (schedule, flash_arrivals)
    }

    /// Holds [`for_each_session_arrival`] to the reference schedule of one
    /// session day: the same arrivals in the same order, each client's last
    /// one marked, and the same flash count.
    fn assert_sessions_stream_the_schedule(config: &FleetConfig) {
        let draws = Draws::new(config.seed);
        let (schedule, flash) = build_schedule(config, &draws);
        // A client's ids are consecutive: its last arrival has its largest id.
        let mut last_id = vec![0; config.clients as usize];
        for a in &schedule {
            let last = &mut last_id[a.client as usize];
            *last = a.id.max(*last);
        }
        let expected: Vec<_> = schedule
            .iter()
            .map(|a| (a.at_us, a.id, a.client, last_id[a.client as usize] == a.id))
            .collect();
        let mut streamed = Vec::new();
        let streamed_flash = for_each_session_arrival(config, &draws, |a, last| {
            streamed.push((a.at_us, a.id, a.client, last))
        });
        assert!(
            streamed == expected && streamed_flash == flash,
            "{config:?}: {} arrivals, {streamed_flash} in a crowd; expected {} and {flash}",
            streamed.len(),
            expected.len()
        );
    }

    #[test]
    fn session_arrivals_come_out_as_the_sorted_schedule() {
        // One bucket, a bucket a microsecond, cut sessions, the default day.
        let days = [1, 1_000, 3_600_000_000, FleetConfig::default().day_micros];
        for seed in [1, 31, 0x6D15_7A11] {
            for clients in [1, 7, 2_000, 30_000] {
                for day_micros in days {
                    // No crowd (no spike, or 0 ‰); then at 500 and 1000 ‰ a
                    // spike across the day, one at the last microsecond
                    // whose window runs past midnight, and a zero-width one.
                    let spikes = [
                        FlashSpike { at_us: 0, window_us: day_micros },
                        FlashSpike { at_us: day_micros - 1, window_us: day_micros + 1 },
                        FlashSpike { at_us: day_micros / 2, window_us: 0 },
                    ];
                    let crowds = std::iter::once((vec![], 0))
                        .chain(spikes.iter().flat_map(|&s| [500, 1000].map(|p| (vec![s], p))));
                    for (spikes, flash_permille) in crowds {
                        for think_time_us in [1, 30_000_000, u64::MAX] {
                            let shape = SessionShape {
                                think_time_us,
                                flash_permille,
                                spikes: spikes.clone(),
                                ..SessionShape::default()
                            };
                            let config =
                                FleetConfig { clients, day_micros, seed, ..FleetConfig::default() }
                                    .with_session(shape)
                                    .build()
                                    .expect("valid session config");
                            assert_sessions_stream_the_schedule(&config);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_flash_crowd_at_the_end_of_the_widest_day_is_cut_at_midnight() {
        // A crowd's start, `at_us + d²/w`, passes `u64::MAX` here: it must
        // saturate to past midnight, not wrap to before the publication.
        let spike_at = u64::MAX - 10;
        let shape =
            SessionShape::builder().with_spike(spike_at, u64::MAX).with_flash_permille(1000);
        let config = FleetConfig { day_micros: u64::MAX, ..FleetConfig::default() }
            .with_session(shape)
            .build()
            .expect("valid session config");
        let draws = Draws::new(config.seed);
        let mut arrivals = Vec::new();
        let flash = for_each_session_arrival(&config, &draws, |a, _| arrivals.push(a.at_us));
        assert!(
            arrivals.iter().all(|&at| at >= spike_at && at < config.day_micros),
            "{arrivals:?}"
        );
        assert_eq!(flash, arrivals.len() as u64, "every arrival is inside the crowd's window");
        let (schedule, reference_flash) = build_schedule(&config, &draws);
        assert!(schedule.iter().all(|a| a.at_us >= spike_at && a.at_us < config.day_micros));
        assert_eq!((schedule.len(), reference_flash), (arrivals.len(), flash));
        let report = run_day(&config, FrontendConfig::default(), &seeded_store(), None);
        assert_eq!((report.totals.requests, report.flash_arrivals), (flash, flash));
    }

    #[test]
    fn a_session_day_of_more_than_u32_max_clients_is_refused() {
        // A session day links its clients by `u32` index. These counts
        // were once valid and reserved a bounded table.
        for clients in [u64::from(u32::MAX) + 1, 1 << 40, 1 << 63, u64::MAX] {
            let config = FleetConfig::builder().with_clients(clients);
            let err = config.clone().with_session(SessionShape::default()).build().unwrap_err();
            assert_eq!(err, FleetConfigError::TooManyClients, "{clients} clients");
            assert!(config.build().is_ok(), "a uniform day draws its clients by modulo");
        }
        let most = FleetConfig::builder().with_clients(u64::from(u32::MAX));
        assert!(most.with_session(SessionShape::default()).build().is_ok());
        assert_eq!(
            FleetConfigError::TooManyClients.to_string(),
            "clients must be at most 4294967295 (session mode)"
        );
    }

    /// An engine whose sessions never end at the backend, so every front
    /// end keeps every client's token bucket all day: the oracle a day
    /// that drops a finished client's bucket is held to.
    pub(crate) struct KeepEveryBucket<E>(pub(crate) E);

    impl<E: Engine> Engine for KeepEveryBucket<E> {
        type Backend = E::Backend;

        fn submit(&mut self, id: u64, request: &Request) {
            self.0.submit(id, request);
        }

        fn poll(&mut self, until_us: u64, deliver: impl FnMut(Completion)) {
            self.0.poll(until_us, deliver);
        }

        fn backend(&self) -> &E::Backend {
            self.0.backend()
        }

        fn end_session(&mut self, _client: u64) {}

        fn publish(&mut self) {
            self.0.publish();
        }
    }

    #[test]
    fn a_day_that_drops_finished_clients_buckets_reports_what_keeping_them_does() {
        let store = seeded_store();
        // Sessions ten seconds apart against one token a minute, and a
        // one-minute crowd over two render slots: both the buckets and the
        // cap shed.
        let shape = SessionShape::builder()
            .with_think_time_us(10_000_000)
            .with_spike(8 * 3_600_000_000, 60_000_000)
            .with_flash_permille(600);
        for seed in [7, 31] {
            let fleet = FleetConfig::builder()
                .with_seed(seed)
                .with_clients(2_000)
                .with_session(shape.clone());
            for burst in [1, 2] {
                let config = FrontendConfig::builder()
                    .with_client_bucket(burst, 1)
                    .with_global_concurrency(2);
                let mut fe = Frontend::new(config.clone(), store.clone());
                let kept = drive_day(
                    &fleet,
                    Clients::OfOneFrontend,
                    &mut KeepEveryBucket(EventLoop::new(&mut fe)),
                    &store,
                );
                assert!(fe.buckets() > 0, "the oracle keeps the buckets");
                assert!(kept.totals.shed_client > 0 && kept.totals.shed_global > 0, "{kept:?}");
                let mut fe = Frontend::new(config.clone(), store.clone());
                assert_eq!(
                    simulate_day(&fleet, &mut fe, &store),
                    kept,
                    "seed {seed}, burst {burst}"
                );
                assert_eq!(fe.buckets(), 0, "every session ended");

                let mut fe = Frontend::new(config.clone(), store.clone());
                let sync = SyncEngine { frontend: &mut fe, pending: Timeline::new() };
                let kept =
                    drive_day(&fleet, Clients::OfOneFrontend, &mut KeepEveryBucket(sync), &store);
                let mut fe = Frontend::new(config, store.clone());
                assert_eq!(simulate_day_sync(&fleet, &mut fe, &store), kept);
                assert_eq!(fe.buckets(), 0);
            }
        }
    }

    #[test]
    fn event_loop_ledger_is_byte_identical_to_synchronous() {
        let store = seeded_store();
        let fleet = FleetConfig::builder().with_requests(20_000).with_clients(60);
        let mut fe_a = Frontend::new(FrontendConfig::default(), store.clone());
        let a = simulate_day(&fleet, &mut fe_a, &store);
        let mut fe_b = Frontend::new(FrontendConfig::default(), store.clone());
        let b = simulate_day_sync(&fleet, &mut fe_b, &store);
        assert_eq!(a, b, "reactor and synchronous paths keep one ledger");
        assert_eq!(
            sixdust_json::to_string_pretty(&a),
            sixdust_json::to_string_pretty(&b),
            "byte-identical as `--serve-report` writes them, not merely Eq"
        );
        assert_eq!(sixdust_json::from_str::<DayReport>(&sixdust_json::to_string(&a)), Ok(a));
    }

    #[test]
    fn session_day_front_loads_the_flash_crowd() {
        let spike_at = 10_000_000_000u64;
        let window = 600_000_000u64;
        let shape = SessionShape::builder().with_spike(spike_at, window).with_flash_permille(500);
        let config = FleetConfig::builder()
            .with_clients(2_000)
            .with_session(shape)
            .build()
            .expect("valid session config");
        let draws = Draws::new(config.seed);
        let (schedule, flash) = build_schedule(&config, &draws);
        assert!(!schedule.is_empty());
        assert!(flash > 0, "half the sessions chase the publication");
        assert!(
            schedule.windows(2).all(|w| (w[0].at_us, w[0].id) <= (w[1].at_us, w[1].id)),
            "schedule is sorted by (time, id)"
        );
        assert!(schedule.iter().all(|a| a.at_us < config.day_micros), "truncated at midnight");
        // The quadratic offset front-loads the spike window: more
        // arrivals land in its first half than its second.
        let first = schedule
            .iter()
            .filter(|a| a.at_us >= spike_at && a.at_us < spike_at + window / 2)
            .count();
        let second = schedule
            .iter()
            .filter(|a| a.at_us >= spike_at + window / 2 && a.at_us < spike_at + window)
            .count();
        assert!(first > second, "front-loaded: {first} first-half vs {second} second-half");
        // And the expansion is deterministic.
        let (again, flash_again) = build_schedule(&config, &draws);
        assert_eq!(flash, flash_again);
        assert_eq!(schedule.len(), again.len());
        assert!(schedule
            .iter()
            .zip(&again)
            .all(|(a, b)| (a.at_us, a.id, a.client) == (b.at_us, b.id, b.client)));
    }

    #[test]
    fn session_day_replays_byte_identically_through_the_reactor() {
        let store = seeded_store();
        let shape = SessionShape::builder()
            .with_think_time_us(30_000_000)
            .with_spike(43_200_000_000, 1_800_000_000);
        let fleet = FleetConfig::builder().with_clients(3_000).with_session(shape);
        let a = run_day(&fleet, FrontendConfig::default(), &store, None);
        let b = run_day(&fleet, FrontendConfig::default(), &store, None);
        assert_eq!(a, b, "session day replays identically");
        assert!(a.flash_arrivals > 0);
        assert!(a.totals.requests > 3_000, "the heavy tail multiplies arrivals");
        let mut fe = Frontend::new(FrontendConfig::default(), store.clone());
        let sync = simulate_day_sync(&fleet, &mut fe, &store);
        assert_eq!(a, sync, "event loop ≡ synchronous under sessions too");
    }

    #[test]
    fn a_session_day_survives_the_longest_think_time() {
        // Twice the mean no longer fits a `u64`: the gap saturates, and
        // every session ends at midnight after its first request.
        let store = seeded_store();
        let shape = SessionShape::builder().with_think_time_us(u64::MAX);
        let fleet = FleetConfig::builder()
            .with_clients(3)
            .with_session(shape)
            .build()
            .expect("any think time is valid");
        let report = run_day(&fleet, FrontendConfig::default(), &store, None);
        assert_eq!(report.totals.requests, 3);
    }

    #[test]
    fn same_seed_same_day() {
        let store = seeded_store();
        let fleet = FleetConfig::builder().with_requests(5_000).with_clients(40);
        let a = run_day(&fleet, FrontendConfig::default(), &store, None);
        let b = run_day(&fleet, FrontendConfig::default(), &store, None);
        assert_eq!(a, b, "identical seed and store replay identically");
        let c = run_day(&fleet.clone().with_seed(99), FrontendConfig::default(), &store, None);
        assert_ne!(a.totals, c.totals, "different seed gives a different day");
    }

    #[test]
    fn seeded_100k_day_has_resolved_percentiles_and_delta_savings() {
        // The microsecond histogram must give the percentiles real
        // resolution: in log2 millisecond bins, base latency 1.5 ms
        // would crush p50 and p99 into the same bin.
        let store = seeded_store();
        let reg = sixdust_telemetry::Registry::new();
        let report =
            run_day(&FleetConfig::default(), FrontendConfig::default(), &store, Some(&reg));
        assert_eq!(report.totals.requests, 100_000);
        assert!(
            report.latency_p50_us < report.latency_p99_us,
            "p50 {} must resolve below p99 {}",
            report.latency_p50_us,
            report.latency_p99_us
        );
        assert!(report.latency_p50_us >= 1_500, "latency floor is the 1.5 ms base");
        assert!(report.latency_p50_us <= report.latency_p90_us);
        assert!(report.latency_p90_us <= report.latency_p99_us);
        assert!(report.bytes_saved_by_delta > 0, "one-behind clients pull cheaper deltas");
        assert_eq!(report.bytes_saved_by_delta, report.totals.bytes_saved_by_delta);
        let snap = reg.snapshot();
        let us = snap.histogram("serve.latency_us").expect("microsecond histogram");
        assert_eq!(us.count, report.totals.bodies + report.totals.not_modified);
        assert!(us.p50() < us.p99(), "registry view resolves too");
        assert_eq!(snap.counter("serve.bytes_saved.delta"), Some(report.bytes_saved_by_delta));
        // The per-kind RED rate reconciles with the aggregate.
        let by_kind: u64 = ArtifactKind::ALL
            .iter()
            .filter_map(|k| snap.counter(&format!("serve.kind.{}.requests", k.file_stem())))
            .sum();
        assert_eq!(by_kind, report.totals.requests);
    }

    #[test]
    fn day_exercises_every_path() {
        let store = seeded_store();
        let mut fleet = FleetConfig::builder().with_requests(20_000).with_clients(60);
        // Compress the day to one virtual hour: per-client demand
        // (20000/60 ≈ 333) then provably exceeds the per-client token
        // budget (burst 8 + 4/min × 60 min = 248), so shedding is
        // guaranteed by arithmetic, not by arrival clustering.
        fleet.day_micros = 3_600_000_000;
        let report = run_day(&fleet, FrontendConfig::default(), &store, None);
        let t = &report.totals;
        assert_eq!(t.requests, 20_000);
        assert_eq!(
            t.bodies + t.not_modified + t.shed_client + t.shed_global + t.unavailable,
            t.requests,
            "every request is accounted exactly once"
        );
        assert_eq!(t.unavailable, 0, "a fully published store always has a body");
        assert_eq!(t.bodies, t.delta_fetches + t.full_fetches);
        assert!(t.cache_hits > 0 && t.not_modified > 0 && t.shed_client > 0);
        assert!(t.delta_fetches > 0, "one-behind clients pull deltas");
        assert!(t.bytes_sent > 0);
        // Zipf head: the full responsive list is the most-served body.
        let responsive = report.bodies_by_kind[0].1;
        assert!(report.bodies_by_kind[1..].iter().all(|&(_, n)| n <= responsive));
        assert_eq!(report.round, 3);
    }

    #[test]
    fn event_loop_equals_synchronous_on_a_day_that_sheds() {
        // One virtual hour of 20 000 requests from 60 clients over a
        // two-slot front end: both the buckets and the global cap shed,
        // and a shed completes at its arrival instant in both engines.
        let store = seeded_store();
        let mut fleet = FleetConfig::builder().with_requests(20_000).with_clients(60);
        fleet.day_micros = 3_600_000_000;
        let config = FrontendConfig::builder().with_global_concurrency(2);
        let mut fe = Frontend::new(config.clone(), store.clone());
        let reactor = simulate_day(&fleet, &mut fe, &store);
        let mut fe = Frontend::new(config, store.clone());
        let sync = simulate_day_sync(&fleet, &mut fe, &store);
        assert_eq!(reactor, sync);
        assert_eq!((reactor.totals.shed_client, reactor.totals.shed_global), (5_329, 2));
    }
}
