//! Multi-vantage scanning: N simulated vantage points, one scheduler.
//!
//! The IPv6 Hitlist service scans from a single measurement network in
//! Europe; the paper's GFW analysis is the textbook consequence — what a
//! scan "sees" depends on where it stands. This crate runs N vantage
//! points over the *same* simulated Internet, each with its own source
//! AS, regional position (EU / US / behind-GFW CN) and fault exposure,
//! under one deterministic discrete-event round scheduler:
//!
//! * **Roster** ([`VantageSpec`]): vantage 0 is always the service's
//!   historical Munich vantage, so an `N = 1` fleet *is* today's
//!   single-vantage pipeline — byte-identical rounds, snapshots and
//!   checkpoints at any thread budget (pinned by `tests/vantage.rs`).
//! * **Scheduler** ([`VantageFleet`]): a min-heap of `(day, vantage)`
//!   events replays the historical scan cadence per vantage; all
//!   vantages due on the same day form one synchronized batch.
//! * **Executor** ([`execute`], which lives in `sixdust-scan`): every
//!   vantage round of a batch is one five-protocol
//!   [`sixdust_scan::ScanJob`], cut into lazy
//!   [`sixdust_scan::CyclicPermutation`] cycle segments — no
//!   materialized permutations — and fanned out across a work-stealing
//!   deque; idle workers steal segments from busy siblings, so a slow
//!   vantage's scan is finished by the whole fleet. Segment hits
//!   merge in cycle order, which keeps results byte-identical no matter
//!   which worker ran which segment.
//! * **Disagreement analysis** ([`VantageReport`]): per synchronized
//!   batch, the per-vantage responsive sets are merged with
//!   [`sixdust_addr::AddrSet`] union/intersection kernels and every
//!   address responsive from one region but silent from another is
//!   classified per origin AS — `gfw` when the origin sits behind the
//!   Great Firewall (injection visible from abroad, egress-filtered at
//!   home), `fault` otherwise.
//!
//! Everything is a pure function of the scale seed: same inputs, same
//! fleet, same disagreements, at any worker count.

mod fleet;
mod report;
mod spec;
mod state;

pub use fleet::{FleetConfig, VantageFleet};
pub use report::{AddrSample, AsDisagreement, DisagreementClass, VantageReport};
pub use sixdust_scan::{execute, ExecutorStats};
pub use spec::VantageSpec;
pub use state::FleetState;
