//! # sixdust-net — a deterministic simulated IPv6 Internet
//!
//! The paper under reproduction measures the *real* IPv6 Internet over
//! four years from a scanning vantage point. That substrate is not
//! available here, so this crate builds the closest synthetic equivalent
//! that exercises the same code paths (see `DESIGN.md` §2 for the full
//! substitution table):
//!
//! * [`registry::AsRegistry`] — ASes with announced prefixes and
//!   behavioural profiles: the paper's named cast (Fastly, Cloudflare,
//!   Akamai, Amazon, ANTEL, DTAG, Free SAS, the GFW-impacted Chinese
//!   networks of Table 5, Trafficforce, EpicUp, …) plus a scaled filler
//!   tail.
//! * [`population::Population`] — a generative host population: subnet
//!   groups with realistic address patterns, churn and growth; CPE fleets
//!   with rotating EUI-64 addresses; router interface pools.
//! * [`gfw::Gfw`] — the Great Firewall's DNS injection with its three
//!   observed eras.
//! * [`zones::DnsZones`] — domains, NS/MX records and top lists.
//! * [`internet::Internet`] — the composed simulator answering probes both
//!   semantically (fast path) and at wire level (bytes in, bytes out).
//!
//! Adverse conditions are first-class: [`faults::FaultConfig`] composes
//! bursty Gilbert–Elliott loss, per-protocol/per-AS overrides, response
//! duplication and corruption, ICMPv6 rate limiting and scheduled outage
//! windows, all seeded and deterministic.
//!
//! Everything is a pure function of [`scale::Scale::seed`]; the only
//! mutable state is PMTU caches (poked by the Too Big Trick), ICMPv6
//! rate-limiter budgets, and the controlled-domain query log. (The index
//! of the zone's distinct answers that the first
//! [`Internet::for_each_zone_answer`] builds is a cache of that pure
//! function, not state.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod fingerprint;
pub mod fleet;
pub mod gfw;
pub mod internet;
pub mod pattern;
pub mod population;
pub mod proto;
pub mod registry;
pub mod scale;
pub mod time;
pub mod zones;

pub use faults::{FaultConfig, GilbertElliott, IcmpRateLimit, Outage, OutageScope};
pub use internet::{Internet, NetCounters, ProbeKind, ProbeTally, ResolvedTarget, Response};
pub use population::{GroupId, GroupKind, HostView, Population, SubnetGroup};
pub use proto::{ProtoSet, Protocol};
pub use registry::{AsCategory, AsId, AsInfo, AsRegistry, BackendMode};
pub use scale::Scale;
pub use time::{events, Day};
