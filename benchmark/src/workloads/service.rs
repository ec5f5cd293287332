//! `service_4y` and `service_dense`: the hitlist service driven round by
//! round over one simulated Internet.

use std::time::Instant;

use sixdust_addr::{Addr, AddrSet};
use sixdust_hitlist::HitlistService;
use sixdust_net::{Day, Internet, Scale};
use sixdust_telemetry::Registry;

use super::{cadence, check_rounds, digest_service, faults, kernels, service_config, world_scale};
use crate::digest::Digest;
use crate::harness::{self, Layers, Opts, Pass, Report};
use crate::stats;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Every `stride`-th round of the paper's cadence over all four years.
    FourYear,
    /// Daily rounds over a population many times denser.
    Dense,
}

struct World {
    scale: Scale,
    net: Internet,
    svc: HitlistService,
    days: Vec<Day>,
}

fn scale(opts: &Opts, variant: Variant) -> Scale {
    match variant {
        Variant::FourYear => world_scale(),
        Variant::Dense => world_scale().with_population_mult(opts.sizes.dense_population_mult),
    }
}

fn days(opts: &Opts, variant: Variant) -> Vec<Day> {
    match variant {
        Variant::FourYear => {
            let all = cadence(Day::LAUNCH, Day::PAPER_END);
            let last = all.len() - 1;
            all.iter()
                .enumerate()
                .filter(|(i, _)| i % opts.sizes.service_4y_stride == 0 || *i == last)
                .map(|(_, day)| *day)
                .collect()
        }
        Variant::Dense => cadence(Day::LAUNCH, Day(opts.sizes.dense_until)),
    }
}

fn setup(opts: &Opts, variant: Variant) -> World {
    let scale = scale(opts, variant);
    let config = service_config(opts.seed);
    let config = match variant {
        // Alias detection keeps its share of the rounds: one round in
        // about fifteen, as on the full cadence.
        Variant::FourYear => {
            let every = config.alias_every_days * opts.sizes.service_4y_stride as u32;
            config.with_alias_every_days(every)
        }
        Variant::Dense => config,
    };
    World {
        scale,
        net: Internet::build(scale).with_faults(faults(opts.seed)),
        svc: HitlistService::new(config),
        days: days(opts, variant),
    }
}

fn ledger(svc: &HitlistService) -> u64 {
    let mut d = Digest::new();
    digest_service(&mut d, svc);
    d.finish()
}

/// The pass's result once its rounds have run and `steps` holds their
/// times.
fn finish_pass(world: &World, steps: Vec<f64>) -> Pass {
    let mut violations = Vec::new();
    check_rounds(&world.svc, &world.days, &mut violations);
    let last = world.svc.rounds().last().expect("a pass runs at least one round");
    Pass {
        steps,
        ops: world.svc.rounds().len() as u64,
        // A degraded round is the simulated service's own verdict on a
        // round it completed, and part of the ledger; no round fails to
        // run.
        failed: 0,
        ledger: ledger(&world.svc),
        set_bytes: world.svc.resident_set_bytes() as u64,
        set_addrs: last.input_total as u64 + last.total_cleaned,
        violations,
    }
}

fn pass(mut world: World) -> Pass {
    let mut steps = Vec::with_capacity(world.days.len());
    for &day in &world.days {
        let started = Instant::now();
        world.svc.run_round(&world.net, day);
        steps.push(started.elapsed().as_secs_f64());
    }
    finish_pass(&world, steps)
}

pub fn run(opts: &Opts, variant: Variant) -> Report {
    if opts.trace {
        traced(opts, variant)
    } else {
        harness::measure(opts, || setup(opts, variant), pass)
    }
}

fn traced(opts: &Opts, variant: Variant) -> Report {
    let budget = opts.kernel_budget();
    let mut layers = Layers::default();
    let reference = pass(setup(opts, variant));
    let reference_seconds = reference.seconds();

    // The same rounds, each stage called on its own inside a span.
    let mut world = setup(opts, variant);
    let mut tracer = Tracer::new();
    let (mut sent, mut hits, mut targets_total) = (0u64, 0u64, 0u64);
    let mut last_targets: Vec<Addr> = Vec::new();
    let started = tracer.now();
    for (i, &day) in world.days.iter().enumerate() {
        tracer.enter("hitlist.round");
        tracer.enter("hitlist.prepare");
        let prepared = world.svc.prepare_round(&world.net, day);
        tracer.exit();
        targets_total += prepared.targets.len() as u64;
        if i + 1 == world.days.len() {
            last_targets.clone_from(&prepared.targets);
        }
        tracer.enter("hitlist.scan");
        let results = world.svc.scan_prepared(&world.net, &prepared);
        tracer.exit();
        for result in &results {
            sent += result.stats.sent;
            hits += result.stats.hits;
        }
        tracer.enter("hitlist.complete");
        world.svc.complete_round(&world.net, prepared, results);
        tracer.exit();
        tracer.exit();
    }
    let rounds_wall = tracer.now() - started;
    let publication = tracer.span("hitlist.publish", || sixdust_hitlist::publish(&world.svc));
    let traced_wall = tracer.now() - started;

    let round_ms: Vec<f64> = tracer.durations("hitlist.round").iter().map(|s| s * 1e3).collect();
    let mut done = finish_pass(&world, tracer.durations("hitlist.round"));
    if done.ledger != reference.ledger {
        done.violations
            .push("staged rounds and run_round rounds differ in their ledger".to_string());
    }
    done.violations.extend(reference.violations);
    if publication.responsive.lines().count() != world.svc.current_responsive().len() {
        done.violations.push("publication does not list the responsive set".to_string());
    }

    let svc = &world.svc;
    let last = svc.rounds().last().expect("rounds ran");
    let last_day = last.day;
    layers.set("hitlist.prepare_s", tracer.total("hitlist.prepare"));
    layers.set("hitlist.scan_s", tracer.total("hitlist.scan"));
    layers.set("hitlist.complete_s", tracer.total("hitlist.complete"));
    layers.set("hitlist.publish_ms", tracer.total("hitlist.publish") * 1e3);
    layers.set("hitlist.round_ms_p50", stats::median(&round_ms));
    layers.set("hitlist.round_ms_p95", stats::percentile(&round_ms, 95.0));
    layers.set("hitlist.rounds", svc.rounds().len() as f64);
    layers.set("hitlist.degraded_rounds", svc.degraded_rounds() as f64);
    layers.set("hitlist.targets_per_round", targets_total as f64 / svc.rounds().len() as f64);
    layers.set("hitlist.input_addrs", last.input_total as f64);
    layers.set("hitlist.responsive_addrs", last.total_cleaned as f64);
    layers.set("hitlist.resident_set_bytes", svc.resident_set_bytes() as f64);
    layers.set("scan.probes", sent as f64);
    layers.set("scan.hit_ratio", harness::ratio(hits, sent));
    layers.set("alias.aliased_prefixes", svc.aliased().len() as f64);

    // Kernel replays on what the rounds left behind.
    let responsive = svc.current_responsive();
    let first_snapshot: AddrSet =
        svc.snapshots().first().map(|s| s.cleaned_total()).unwrap_or_default();
    let last_snapshot: Vec<Addr> =
        svc.snapshots().last().map(|s| s.cleaned_total().to_addr_vec()).unwrap_or_default();
    let mut input: Vec<Addr> = svc.input().iter().copied().collect();
    input.sort_unstable();
    let config = svc.config();
    kernels::addr_sets(&mut layers, budget, opts.seed, responsive, &first_snapshot);
    kernels::trie_lookup(&mut layers, budget, svc.aliased(), &last_targets);
    kernels::wire_and_net(
        &mut layers,
        budget,
        world.scale,
        &world.net,
        last_day,
        &last_targets,
        responsive,
    );
    kernels::scan(&mut layers, budget, &world.net, last_day, &config.scan, &last_targets);
    kernels::alias(&mut layers, budget, &world.net, last_day, &config.detector, &input);
    kernels::tga(&mut layers, budget, world.scale, &last_snapshot);
    kernels::telemetry(&mut layers, budget);
    layers.set("telemetry.round_overhead_ratio", telemetry_overhead(opts, variant));

    harness::finish_trace(opts, &tracer, &mut layers, traced_wall, rounds_wall / reference_seconds);
    harness::traced_report(opts, layers, done.ops, done.failed, done.ledger, &done.violations)
}

/// The first rounds of the workload with a telemetry registry attached
/// to the Internet and the service, over the same rounds without one.
/// Every other run of the benchmark has telemetry detached; this is the
/// price of attaching it.
fn telemetry_overhead(opts: &Opts, variant: Variant) -> f64 {
    let rounds = match variant {
        Variant::FourYear => opts.sizes.telemetry_rounds_4y,
        Variant::Dense => opts.sizes.telemetry_rounds_dense,
    };
    let window = |attach: bool| {
        let mut world = setup(opts, variant);
        if attach {
            let registry = Registry::new();
            world.net = world.net.with_telemetry(&registry);
            world.svc = world.svc.with_telemetry(registry);
        }
        let started = Instant::now();
        for &day in world.days.iter().take(rounds) {
            world.svc.run_round(&world.net, day);
        }
        started.elapsed().as_secs_f64()
    };
    let detached = window(false);
    window(true) / detached
}
