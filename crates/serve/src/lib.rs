//! `sixdust-serve`: the hitlist distribution subsystem.
//!
//! A paper-scale hitlist is only useful if researchers can actually
//! fetch it, so this crate models the publishing side that sits between
//! [`HitlistService`](sixdust_hitlist::HitlistService) rounds and a
//! fleet of registered consumers:
//!
//! * [`store`] — a sharded snapshot store. A publishing round builds a
//!   fresh generation off to the side and installs it with one atomic
//!   pointer swap, so concurrent readers never block and never observe a
//!   torn mix of rounds. A version's items are PRF-sharded across N
//!   shards on first read. Unchanged artifacts, and unchanged shards of
//!   a held previous version, are structurally shared (`Arc` reuse).
//! * [`codec`] — full-snapshot and delta wire formats for sorted
//!   `u128` address sets: varint delta-of-delta encoding, composable
//!   content digests, and FNV-1a-checksummed frames whose decoder
//!   rejects corruption instead of panicking.
//! * [`server`] — what one front end does to a request stream: ETag
//!   conditional fetches (304s), an LRU of encoded bodies, per-client
//!   token buckets ([`rate`]) plus a global concurrency cap, and explicit
//!   load-shedding accounting. Emits per-artifact-kind RED metrics
//!   (`serve.kind.<stem>.{requests,errors,latency_us}`), virtual-time
//!   latency in microseconds, and delta/304 byte-savings counters;
//!   shed decisions feed the
//!   [`FlightRecorder`](sixdust_telemetry::FlightRecorder) installed in
//!   the attached registry.
//! * [`fleet`] — a seeded, Zipf-popular simulated consumer fleet and the
//!   one driver that replays its day into a [`DayReport`]. Load comes in
//!   two shapes: the classic uniform request spread and session-based
//!   generation ([`SessionShape`]) — heavy-tailed per-client request
//!   counts, think time, and flash-crowd spikes — which scales a day past
//!   a million virtual clients. Either shape runs against either backend
//!   of the reactor.
//! * [`reactor`] — the event-loop front end the driver submits to:
//!   requests run as per-request state machines (admit → render →
//!   transfer → retire) on a virtual-time completion heap, so in-flight
//!   concurrency is bounded by the loop, not the caller's thread. It is
//!   generic, by static dispatch, over what answers a request: a bare
//!   [`Frontend`] ([`run_day`]), whose ledger is pinned byte-identical to
//!   the synchronous path ([`simulate_day_sync`]), or
//! * [`resilience`] — the resilient client of a mirror tier
//!   ([`run_chaos_day`]): affinity, failover, retries with seeded backoff,
//!   hedging and per-mirror circuit breakers around each logical request;
//!   an [`Observer`](sixdust_telemetry::Observer) handed to the day
//!   records and judges each virtual hour.
//! * [`mirror`] — the fault-tolerant distribution tier: N edge mirrors
//!   syncing generations from the origin store over the delta codec
//!   with checksum-first torn-sync rejection, serving stale-but-counted
//!   generations while the origin is blacked out.
//! * [`faults`] — the seeded failure model the tier runs under: mirror
//!   outage windows, slow-mirror latency inflation, origin publish
//!   blackouts and sync corruption.
//!
//! All request handling runs on virtual time, so a 100k-request day
//! replays in milliseconds and bit-identically for a fixed seed.
//!
//! A ledger is its own meter: a front end, the loop, a tier and the
//! resilient client count into their own totals and nothing else as they
//! work, and each has one `PUBLISHED` table naming the registry counter
//! that carries each count.
//! [`Registry::publish`](sixdust_telemetry::Registry::publish) brings an
//! attached registry level with the ledger where a reader can look: when
//! a day ends, before each hourly round of a chaos day's observer, and on an
//! explicit `publish()` ([`Frontend::publish`], [`EventLoop::publish`],
//! [`MirrorTier::publish`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod faults;
pub mod fleet;
pub mod mirror;
pub mod rate;
pub mod reactor;
pub mod resilience;
pub mod server;
pub mod store;

pub use codec::{
    apply_delta, content_digest, decode_full, encode_delta, encode_full, verify_delta, verify_full,
    CodecError,
};
pub use faults::ServeFaultConfig;
pub use fleet::{
    run_day, simulate_day, simulate_day_sync, DayReport, FlashSpike, FleetConfig, FleetConfigError,
    ResilienceTotals, SessionShape,
};
pub use mirror::{MirrorTier, MirrorTierConfig, TierTotals, TimedPublish};
pub use reactor::{Backend, Completion, EventLoop, LoopStats};
pub use resilience::{run_chaos_day, ChaosDayConfig};
pub use server::{
    FetchKind, Frontend, FrontendConfig, FrontendConfigError, FrontendTotals, Outcome, Request,
};
pub use store::{
    service_artifacts, ArtifactKind, ArtifactVersion, ShardData, SnapshotStore, StoreConfig,
};
