//! `vantage_fleet`: three vantage points scanning one seeded Internet
//! through the work-stealing segment executor, across the onset of the
//! first GFW injection era.

use std::time::Instant;

use sixdust_hitlist::HitlistService;
use sixdust_net::{Day, Internet};
use sixdust_vantage::{FleetConfig, VantageFleet};

use super::{
    cadence, check_rounds, digest_rounds, digest_service, faults, service_config, world_scale,
};
use crate::digest::Digest;
use crate::harness::{self, Layers, Opts, Pass, Report};
use crate::spec::THREADS;
use crate::stats;
use crate::trace::Tracer;

fn fleet(opts: &Opts, vantages: usize, threads: usize) -> VantageFleet {
    VantageFleet::build(
        FleetConfig::new(world_scale(), vantages)
            .with_faults(faults(opts.seed))
            .with_service(service_config(opts.seed))
            .with_threads(threads),
    )
}

fn window(opts: &Opts) -> (Day, Day) {
    (Day(opts.sizes.vantage_from), Day(opts.sizes.vantage_until))
}

fn ledger(fleet: &VantageFleet) -> u64 {
    let mut d = Digest::new();
    for svc in fleet.services() {
        digest_service(&mut d, svc);
    }
    for report in fleet.reports() {
        d.u64(u64::from(report.day.0));
        d.u64(report.union);
        d.u64(report.intersection);
        d.u64(report.disagreements);
        d.u64(report.gfw_disagreements);
    }
    d.finish()
}

/// Runs `fleet` over the window and returns the host seconds of each
/// batch day.
fn run_window(fleet: &mut VantageFleet, from: Day, until: Day) -> Vec<f64> {
    let mut steps = Vec::new();
    let mut last = Instant::now();
    fleet.run_with(from, until, |_, _| {
        let now = Instant::now();
        steps.push((now - last).as_secs_f64());
        last = now;
    });
    steps
}

fn finish_pass(fleet: &VantageFleet, from: Day, until: Day, steps: Vec<f64>) -> Pass {
    let days = cadence(from, until);
    let mut violations = Vec::new();
    for svc in fleet.services() {
        check_rounds(svc, &days, &mut violations);
    }
    if fleet.reports().len() != days.len() {
        violations.push(format!("{} reports for {} batch days", fleet.reports().len(), days.len()));
    }
    for report in fleet.reports() {
        if report.intersection > report.union
            || report.disagreements != report.union - report.intersection
        {
            violations.push(format!("day {}: disagreement report does not add up", report.day.0));
        }
    }
    let (mut set_bytes, mut set_addrs) = (0u64, 0u64);
    for svc in fleet.services() {
        let last = svc.rounds().last().expect("every vantage ran");
        set_bytes += svc.resident_set_bytes() as u64;
        set_addrs += last.input_total as u64 + last.total_cleaned;
    }
    Pass {
        steps,
        ops: fleet.services().map(|svc| svc.rounds().len() as u64).sum(),
        failed: 0,
        ledger: ledger(fleet),
        set_bytes,
        set_addrs,
        violations,
    }
}

fn pass(opts: &Opts, mut fleet: VantageFleet) -> Pass {
    let (from, until) = window(opts);
    let steps = run_window(&mut fleet, from, until);
    finish_pass(&fleet, from, until, steps)
}

pub fn run(opts: &Opts) -> Report {
    if opts.trace {
        traced(opts)
    } else {
        harness::measure(opts, || fleet(opts, opts.sizes.vantages, THREADS), |f| pass(opts, f))
    }
}

fn traced(opts: &Opts) -> Report {
    let mut layers = Layers::default();
    let (from, until) = window(opts);
    let reference = pass(opts, fleet(opts, opts.sizes.vantages, THREADS));
    let reference_seconds = reference.seconds();

    // The fleet's batch is private to it, so a batch day is the finest
    // stage the benchmark can span from outside. The spans come from the
    // hook's timestamps; the wall is taken around the whole call, so that
    // what the fleet does outside its batch days is left unattributed.
    let mut traced_fleet = fleet(opts, opts.sizes.vantages, THREADS);
    let mut tracer = Tracer::new();
    let started = tracer.now();
    let steps = run_window(&mut traced_fleet, from, until);
    let traced_wall = tracer.now() - started;
    let mut at = started;
    for seconds in steps {
        tracer.record("vantage.batch", at, at + seconds);
        at += seconds;
    }
    let mut done = finish_pass(&traced_fleet, from, until, tracer.durations("vantage.batch"));
    if done.ledger != reference.ledger {
        done.violations.push("two runs of one fleet differ in their ledger".to_string());
    }
    done.violations.extend(reference.violations);

    let batch_ms: Vec<f64> = tracer.durations("vantage.batch").iter().map(|s| s * 1e3).collect();
    let stats = traced_fleet.stats();
    let primary = traced_fleet.service(0);
    let last_round = primary.rounds().last().expect("rounds ran");
    let targets: usize = traced_fleet.services().flat_map(|s| s.rounds()).map(|r| r.targets).sum();
    layers.set("vantage.run_s", traced_wall);
    layers.set("vantage.batch_ms_p50", stats::median(&batch_ms));
    layers.set("vantage.batch_ms_p95", stats::percentile(&batch_ms, 95.0));
    layers.set("vantage.segments_executed", stats.executed as f64);
    layers.set("vantage.stolen_ratio", harness::ratio(stats.stolen, stats.executed));
    layers.set(
        "vantage.disagreements",
        traced_fleet.reports().iter().map(|r| r.disagreements).sum::<u64>() as f64,
    );
    layers.set("hitlist.rounds", done.ops as f64);
    layers.set(
        "hitlist.degraded_rounds",
        traced_fleet.services().map(HitlistService::degraded_rounds).sum::<usize>() as f64,
    );
    layers.set("hitlist.targets_per_round", targets as f64 / done.ops.max(1) as f64);
    layers.set("hitlist.input_addrs", last_round.input_total as f64);
    layers.set("hitlist.responsive_addrs", last_round.total_cleaned as f64);
    layers.set("hitlist.resident_set_bytes", done.set_bytes as f64);
    layers.set("alias.aliased_prefixes", primary.aliased().len() as f64);

    // What the scheduler costs and what a second thread buys, on the
    // first days of the window.
    let ratio_until = Day((from.0 + opts.sizes.vantage_ratio_days).min(until.0));
    let timed = |vantages: usize, threads: usize| {
        let mut fleet = fleet(opts, vantages, threads);
        let seconds: f64 = run_window(&mut fleet, from, ratio_until).iter().sum();
        (fleet, seconds)
    };
    let (_, two_threads) = timed(opts.sizes.vantages, THREADS);
    let (_, one_thread) = timed(opts.sizes.vantages, 1);
    layers.set("vantage.thread_speedup", one_thread / two_threads);

    let (single, single_seconds) = timed(1, THREADS);
    let net = Internet::build(world_scale()).with_faults(faults(opts.seed));
    let mut plain = HitlistService::new(service_config(opts.seed));
    let plain_started = Instant::now();
    plain.run(&net, from, ratio_until);
    let plain_seconds = plain_started.elapsed().as_secs_f64();
    layers.set("vantage.n1_overhead_ratio", single_seconds / plain_seconds);
    let digest = |svc: &HitlistService| {
        let mut d = Digest::new();
        digest_rounds(&mut d, svc.rounds());
        d.finish()
    };
    if digest(single.service(0)) != digest(&plain) {
        done.violations.push("a fleet of one vantage and the plain service differ".to_string());
    }

    let overhead = tracer.total("vantage.batch") / reference_seconds;
    harness::finish_trace(opts, &tracer, &mut layers, traced_wall, overhead);
    harness::traced_report(opts, layers, done.ops, done.failed, done.ledger, &done.violations)
}
