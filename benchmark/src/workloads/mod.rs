//! The six workloads. Each module sets its workload up from the seed,
//! runs passes over it through the library crates' public functions, and
//! in a traced run spans the stages and replays the layers' kernels on
//! inputs captured from that same workload.

pub mod kernels;
pub mod serve;
pub mod service;
pub mod vantage;

use sixdust_hitlist::{HitlistService, RoundRecord, ServiceConfig};
use sixdust_net::time::events;
use sixdust_net::{Day, FaultConfig, Scale};
use sixdust_scan::ScanConfig;

use crate::digest::Digest;
use crate::harness::{Opts, Report};
use crate::spec::THREADS;

pub fn run(opts: &Opts) -> Report {
    match opts.workload {
        "service_4y" => service::run(opts, service::Variant::FourYear),
        "service_dense" => service::run(opts, service::Variant::Dense),
        "vantage_fleet" => vantage::run(opts),
        "serve_uniform_day" => serve::run(opts, serve::Variant::Uniform),
        "serve_flash_day" => serve::run(opts, serve::Variant::Flash),
        "serve_chaos_day" => serve::run(opts, serve::Variant::Chaos),
        other => unreachable!("workload {other} passed argument checking"),
    }
}

/// The simulated Internet of every round-driven workload. Its size and
/// topology are pinned to `Scale::tiny()`'s own seed: worlds of different
/// seeds differ by several percent in how many addresses they hold, and
/// that difference in input size would sit inside every bound. The
/// workload seed drives what happens on this world instead: which probes
/// are lost, the order scans walk their targets in, and the addresses
/// alias detection draws.
pub(crate) fn world_scale() -> Scale {
    Scale::tiny()
}

/// The fault plan of every round-driven workload: two probes in a
/// thousand are lost, so the retry path runs. The seed picks which.
pub(crate) fn faults(seed: u64) -> FaultConfig {
    FaultConfig::lossless().with_drop_permille(2).with_seed(seed)
}

/// The default service on the benchmark's thread budget, scanning and
/// detecting aliases with the workload seed.
pub(crate) fn service_config(seed: u64) -> ServiceConfig {
    let config = ServiceConfig::default();
    let detector = config.detector.clone().with_seed(seed);
    config
        .with_scan(ScanConfig::default().with_threads(THREADS).with_seed(seed))
        .with_detector(detector)
}

/// The paper's scan cadence from `from` to `until`, both included: the
/// days `HitlistService::run` and `VantageFleet::run` visit.
pub(crate) fn cadence(from: Day, until: Day) -> Vec<Day> {
    let mut days = Vec::new();
    let mut day = from;
    while day < until {
        days.push(day);
        day = day.plus(events::scan_gap(day)).min(until);
    }
    days.push(until);
    days
}

/// Folds a service's round records into a ledger digest.
pub(crate) fn digest_rounds(d: &mut Digest, rounds: &[RoundRecord]) {
    for r in rounds {
        d.u64(u64::from(r.day.0));
        d.u64(r.input_total as u64);
        d.u64(r.targets as u64);
        for i in 0..5 {
            d.u64(r.published[i]);
            d.u64(r.cleaned[i]);
            d.u64(u64::from(r.anomalous[i]));
        }
        d.u64(r.total_published);
        d.u64(r.total_cleaned);
        d.u64(r.churn_brand_new);
        d.u64(r.churn_recurring);
        d.u64(r.churn_gone);
        d.u64(r.aliased_prefixes as u64);
        d.u64(r.dropped as u64);
        d.u64(u64::from(r.degraded));
        d.u64(u64::from(r.loss_estimate_permille));
    }
}

/// A service's ledger: its round records and the addresses it ends on.
pub(crate) fn digest_service(d: &mut Digest, svc: &HitlistService) {
    digest_rounds(d, svc.rounds());
    for addr in svc.current_responsive().iter() {
        d.u128(addr);
    }
}

/// What every round record must satisfy whatever the seed.
pub(crate) fn check_rounds(svc: &HitlistService, days: &[Day], violations: &mut Vec<String>) {
    let rounds = svc.rounds();
    if rounds.len() != days.len() {
        violations.push(format!("{} rounds recorded for {} days", rounds.len(), days.len()));
    }
    for (r, day) in rounds.iter().zip(days) {
        if r.day != *day {
            violations.push(format!("round for day {} recorded as day {}", day.0, r.day.0));
        }
        if r.targets > r.input_total {
            violations.push(format!("day {}: more targets than input", r.day.0));
        }
        if r.total_cleaned > r.targets as u64 || r.total_published > r.targets as u64 {
            violations.push(format!("day {}: more responsive addresses than targets", r.day.0));
        }
    }
}
