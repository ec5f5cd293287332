//! The three serve days: a uniform read-only day, a flash-crowd day of
//! session clients, and a chaos day over a faulty mirror tier that
//! republishes the store every hour.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sixdust_addr::{prf, AddrSet};
use sixdust_net::Protocol;
use sixdust_serve::{
    run_chaos_day, run_day, ArtifactKind, ArtifactVersion, ChaosDayConfig, DayReport, EventLoop,
    FetchKind, FleetConfig, Frontend, FrontendConfig, MirrorTier, MirrorTierConfig, Outcome,
    Request, ServeFaultConfig, SessionShape, SnapshotStore, StoreConfig, TimedPublish,
};

use super::kernels;
use crate::digest::Digest;
use crate::harness::{self, ns_per_elem, ratio, time_call, Layers, Opts, Pass, Report};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Uniform,
    Flash,
    Chaos,
}

type Generation = Vec<(ArtifactKind, AddrSet)>;

const MIRRORS: usize = 4;
/// Rounds published before the day starts, so that delta fetches have a
/// base to diff against.
const WARM_ROUNDS: u64 = 3;
/// Requests the reactor and frontend replays are capped at.
const REPLAY_CAP: u64 = 2_000_000;

/// A hitlist-shaped generation: per kind, dense strides spread over 61
/// /32 prefixes (bitmap chunks) with one address in 17 isolated in a
/// sparse /32 of its own (sorted chunks). Strides and isolated addresses
/// come from the seed.
fn first_generation(seed: u64, addrs: u64) -> Generation {
    ArtifactKind::ALL
        .iter()
        .map(|&kind| {
            let k = kind.index() as u128;
            let stride = 3 + u128::from(prf::prf_u128(seed, k, 1) % 13);
            let set: AddrSet = (0..u128::from(addrs))
                .map(|i| {
                    if i % 17 == 0 {
                        let draw = prf::prf_u128(seed, i << 8 | k, 2);
                        let prefix = 0x2a00_0000 + u128::from(draw % 4096);
                        (prefix << 96) | u128::from(prf::mix64(draw))
                    } else {
                        ((0x2001_0000 + k * 0x100 + i % 61) << 96) | ((i / 61) * stride)
                    }
                })
                .collect();
            (kind, set)
        })
        .collect()
}

/// The generation after `prev`: about one address in a hundred gone and
/// as many new ones, the churn of consecutive hitlist rounds.
fn next_generation(seed: u64, round: u64, prev: &Generation) -> Generation {
    prev.iter()
        .map(|(kind, set)| {
            let k = kind.index() as u128;
            let mut next: AddrSet = set
                .iter()
                .filter(|v| !prf::prf_u128(seed ^ round, *v, 3).is_multiple_of(100))
                .collect();
            let fresh: AddrSet = (0..set.len() as u128 / 100)
                .map(|i| {
                    ((0x2001_0000 + k * 0x100 + i % 61) << 96)
                        | (1 << 48)
                        | (u128::from(round) << 24)
                        | i
                })
                .collect();
            next.union_in_place(&fresh);
            (*kind, next)
        })
        .collect()
}

struct World {
    store: Arc<SnapshotStore>,
    /// The last two warm generations, for the kernel replays.
    previous: Generation,
    current: Generation,
    fleet: FleetConfig,
    frontend: FrontendConfig,
    /// The chaos day's tier and publish plan.
    chaos: Option<(MirrorTier, Vec<TimedPublish>)>,
}

fn fleet_config(opts: &Opts, variant: Variant) -> FleetConfig {
    let sizes = opts.sizes;
    let fleet = FleetConfig::builder().with_seed(opts.seed);
    let fleet = match variant {
        Variant::Uniform => {
            fleet.with_clients(sizes.uniform_clients).with_requests(sizes.uniform_requests)
        }
        Variant::Flash => {
            let day = fleet.day_micros;
            let half_hour = 1_800_000_000;
            fleet.with_clients(sizes.flash_clients).with_session(
                SessionShape::builder()
                    .with_spike(day / 3, half_hour)
                    .with_spike(2 * day / 3, half_hour),
            )
        }
        Variant::Chaos => {
            fleet.with_clients(sizes.chaos_clients).with_requests(sizes.chaos_requests)
        }
    };
    fleet.build().expect("the size table holds valid fleets")
}

fn setup(opts: &Opts, variant: Variant) -> World {
    let sizes = opts.sizes;
    let addrs = if variant == Variant::Chaos { sizes.chaos_store_addrs } else { sizes.store_addrs };
    let store = Arc::new(SnapshotStore::new(StoreConfig::default()));
    let mut previous = Generation::new();
    let mut current = first_generation(opts.seed, addrs);
    store.publish_round(1, "day", current.clone());
    for round in 2..=WARM_ROUNDS {
        let next = next_generation(opts.seed, round, &current);
        store.publish_round(round, "day", next.clone());
        previous = std::mem::replace(&mut current, next);
    }
    let fleet = fleet_config(opts, variant);
    // The default frontend: at these sizes its admission control, which
    // runs on every request, refuses none, even at the spikes' front edge.
    let frontend = FrontendConfig::default().build().expect("valid frontend");
    let chaos = (variant == Variant::Chaos).then(|| {
        let hour = fleet.day_micros / sizes.chaos_publishes.max(1);
        let mut generation = current.clone();
        let plan: Vec<TimedPublish> = (0..sizes.chaos_publishes)
            .map(|i| {
                let round = WARM_ROUNDS + 1 + i;
                generation = next_generation(opts.seed, round, &generation);
                TimedPublish {
                    at_us: i * hour + hour / 2,
                    round,
                    date: "day".to_string(),
                    artifacts: generation.clone(),
                }
            })
            .collect();
        let tier = MirrorTier::new(
            MirrorTierConfig::builder().with_mirrors(MIRRORS).with_frontend(frontend.clone()),
            store.clone(),
            ServeFaultConfig::chaos(opts.seed, MIRRORS),
        );
        (tier, plan)
    });
    World { store, previous, current, fleet, frontend, chaos }
}

fn ledger(report: &DayReport) -> u64 {
    let mut d = Digest::new();
    let t = &report.totals;
    let r = &report.resilience;
    for v in [
        report.clients,
        report.round,
        t.requests,
        t.bodies,
        t.bytes_sent,
        t.not_modified,
        t.cache_hits,
        t.cache_misses,
        t.shed_client,
        t.shed_global,
        t.delta_fetches,
        t.full_fetches,
        t.delta_fallbacks,
        t.unavailable,
        t.bytes_saved_by_delta,
        report.latency_p50_us,
        report.latency_p90_us,
        report.latency_p99_us,
        report.flash_arrivals,
        r.mirrors,
        r.logical_requests,
        r.attempts,
        r.retries,
        r.failovers,
        r.hedged,
        r.hedge_wins,
        r.breaker_opened,
        r.breaker_closed,
        r.breaker_skipped,
        r.down_attempts,
        r.stale_served,
        r.revalidations,
        r.syncs,
        r.sync_rejected,
        r.hard_failures,
    ] {
        d.u64(v);
    }
    for (stem, bodies) in &report.bodies_by_kind {
        d.bytes(stem.as_bytes());
        d.u64(*bodies);
    }
    d.finish()
}

fn replay_day(world: &mut World) -> DayReport {
    match &mut world.chaos {
        Some((tier, plan)) => {
            let config = ChaosDayConfig::builder().with_fleet(world.fleet.clone());
            run_chaos_day(&config, tier, plan, None)
        }
        None => run_day(&world.fleet, world.frontend.clone(), &world.store, None),
    }
}

fn finish_pass(world: &World, report: &DayReport, seconds: f64) -> Pass {
    let t = &report.totals;
    let shed = t.shed_client + t.shed_global;
    let mut violations = Vec::new();
    if t.bodies + t.not_modified + shed + t.unavailable != t.requests {
        violations.push(format!(
            "bodies {} + not_modified {} + shed {shed} + unavailable {} != requests {}",
            t.bodies, t.not_modified, t.unavailable, t.requests
        ));
    }
    if report.resilience.hard_failures != 0 {
        violations.push(format!("{} hard failures", report.resilience.hard_failures));
    }
    // On the chaos day a hedged request can be served two bodies, of
    // which the client keeps one.
    let kept_bodies = report.bodies_by_kind.iter().map(|(_, n)| n).sum::<u64>();
    if kept_bodies > t.bodies || (world.chaos.is_none() && kept_bodies != t.bodies) {
        violations.push("bodies by kind do not add up to bodies".to_string());
    }
    let ops = if world.chaos.is_some() { report.resilience.logical_requests } else { t.requests };
    if world.fleet.session.is_none() && ops != world.fleet.requests {
        violations.push(format!("{ops} requests replayed of {}", world.fleet.requests));
    }
    let versions: Vec<Arc<ArtifactVersion>> =
        ArtifactKind::ALL.iter().filter_map(|&kind| world.store.artifact(kind)).collect();
    Pass {
        steps: vec![seconds],
        ops,
        failed: shed + t.unavailable + report.resilience.hard_failures,
        ledger: ledger(report),
        set_bytes: versions.iter().map(|v| v.items().mem_bytes() as u64).sum(),
        set_addrs: versions.iter().map(|v| v.items().len() as u64).sum(),
        violations,
    }
}

fn pass(mut world: World) -> Pass {
    let started = Instant::now();
    let report = replay_day(&mut world);
    let seconds = started.elapsed().as_secs_f64();
    finish_pass(&world, &report, seconds)
}

pub fn run(opts: &Opts, variant: Variant) -> Report {
    if opts.trace {
        traced(opts, variant)
    } else {
        harness::measure(opts, || setup(opts, variant), pass)
    }
}

fn set_of(generation: &Generation, kind: ArtifactKind) -> &AddrSet {
    generation
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, set)| set)
        .expect("every kind is published")
}

/// A request vector with the fleet's arrival spread, kind popularity,
/// delta share and conditional share, for the frontend and reactor
/// replays. The fleet's own generator is private to `run_day`.
fn replay_requests(world: &World, count: u64) -> Vec<Request> {
    let fleet = &world.fleet;
    let versions: Vec<Arc<ArtifactVersion>> = ArtifactKind::ALL
        .iter()
        .map(|&kind| world.store.artifact(kind).expect("every kind is published"))
        .collect();
    // Popularity 1/rank over the canonical kind order.
    let weights: Vec<u64> =
        (1..=ArtifactKind::ALL.len() as u64).map(|rank| 1_000_000 / rank).collect();
    let total: u64 = weights.iter().sum();
    let mut requests: Vec<Request> = (0..count)
        .map(|i| {
            let id = u128::from(i);
            let mut point = prf::prf_u128(fleet.seed, id, 3) % total;
            let mut rank = 0;
            while point >= weights[rank] {
                point -= weights[rank];
                rank += 1;
            }
            let version = &versions[rank];
            let behind =
                prf::prf_u128(fleet.seed, id, 4) % 1000 < u64::from(fleet.one_behind_permille);
            let conditional =
                prf::prf_u128(fleet.seed, id, 5) % 1000 < u64::from(fleet.conditional_permille);
            Request {
                client: prf::prf_u128(fleet.seed, id, 2) % fleet.clients,
                kind: version.kind(),
                fetch: match version.prev_round() {
                    Some(prev) if behind => FetchKind::DeltaSince(prev),
                    _ => FetchKind::Full,
                },
                if_none_match: (!behind && conditional).then(|| version.digest()),
                at_us: prf::prf_u128(fleet.seed, id, 1) % fleet.day_micros,
            }
        })
        .collect();
    requests.sort_by_key(|r| r.at_us);
    requests
}

fn traced(opts: &Opts, variant: Variant) -> Report {
    let budget = opts.kernel_budget();
    let mut layers = Layers::default();
    let reference = pass(setup(opts, variant));
    let reference_seconds = reference.seconds();

    // The day is one call into the fleet; its span is the top level.
    let mut world = setup(opts, variant);
    let mut tracer = Tracer::new();
    let report = tracer.span("serve.fleet.day", || replay_day(&mut world));
    let traced_wall = tracer.total("serve.fleet.day");
    let mut done = finish_pass(&world, &report, traced_wall);
    if done.ledger != reference.ledger {
        done.violations.push("two replays of one day differ in their ledger".to_string());
    }
    done.violations.extend(reference.violations);

    let t = &report.totals;
    layers.set("serve.fleet.day_ns_per_request", traced_wall * 1e9 / done.ops.max(1) as f64);
    layers.set("serve.fleet.flash_arrivals", report.flash_arrivals as f64);
    layers.set("serve.server.cache_hit_ratio", ratio(t.cache_hits, t.cache_hits + t.cache_misses));
    layers.set("serve.server.not_modified_ratio", ratio(t.not_modified, t.requests));
    layers.set("serve.server.delta_ratio", ratio(t.delta_fetches, t.bodies));
    layers.set("serve.server.shed_ratio", ratio(t.shed_client + t.shed_global, t.requests));

    // Kernel replays on the store's own generations.
    let prev_set = set_of(&world.previous, ArtifactKind::Responsive);
    let next_set = set_of(&world.current, ArtifactKind::Responsive);
    kernels::codec(&mut layers, budget, prev_set, next_set, &mut done.violations);
    kernels::addr_sets(
        &mut layers,
        budget,
        opts.seed,
        next_set,
        set_of(&world.current, ArtifactKind::PerProtocol(Protocol::Icmp)),
    );
    store_kernels(&mut layers, opts, &world);
    frontend_kernels(&mut layers, opts, &world, done.ops, traced_wall, &mut done.violations);
    if variant == Variant::Chaos {
        mirror_kernels(&mut layers, opts, &world, &report, &mut done.violations);
    }

    harness::finish_trace(opts, &tracer, &mut layers, traced_wall, traced_wall / reference_seconds);
    harness::traced_report(opts, layers, done.ops, done.failed, done.ledger, &done.violations)
}

/// `serve.store`: publishing the current generation over the previous
/// one, how many shards the two share, and a shard read.
fn store_kernels(layers: &mut Layers, opts: &Opts, world: &World) {
    let budget = opts.kernel_budget();
    let warm = || {
        let store = SnapshotStore::new(StoreConfig::default());
        store.publish_round(1, "day", world.previous.clone());
        (store, world.current.clone())
    };
    layers.set(
        "serve.store.publish_ms",
        time_call(budget, warm, |(store, next)| {
            store.publish_round(2, "day", next);
            store
        }) * 1e3,
    );

    let (store, next) = warm();
    let versions =
        |s: &SnapshotStore| ArtifactKind::ALL.map(|kind| s.artifact(kind).expect("published"));
    let before = versions(&store);
    store.publish_round(2, "day", next);
    let after = versions(&store);
    let (mut shared, mut shards) = (0u64, 0u64);
    for (old, new) in before.iter().zip(&after) {
        for (a, b) in old.shards().iter().zip(new.shards()) {
            shards += 1;
            shared += u64::from(Arc::ptr_eq(a, b));
        }
    }
    layers.set("serve.store.shard_reuse_ratio", ratio(shared, shards));

    let reads = ArtifactKind::ALL.len() * world.store.shard_count();
    layers.set(
        "serve.store.shard_read_ns",
        ns_per_elem(budget, reads, || {
            let mut items = 0usize;
            for kind in ArtifactKind::ALL {
                for index in 0..world.store.shard_count() {
                    items +=
                        black_box(&world.store).shard(kind, index).map_or(0, |s| s.items().len());
                }
            }
            items
        }),
    );
}

/// `serve.server` and `serve.reactor`: one request vector handled by a
/// bare frontend, then submitted and polled through the event loop. What
/// the day costs beyond the reactor replay is the fleet's own work:
/// schedule build, sort and per-client state.
fn frontend_kernels(
    layers: &mut Layers,
    opts: &Opts,
    world: &World,
    day_requests: u64,
    day_seconds: f64,
    violations: &mut Vec<String>,
) {
    let budget = opts.kernel_budget();
    let requests = replay_requests(world, day_requests.min(REPLAY_CAP));
    let fresh = || Frontend::new(world.frontend.clone(), world.store.clone());

    layers.set(
        "serve.server.handle_ns",
        time_call(budget, fresh, |mut frontend| {
            requests.iter().filter(|r| matches!(frontend.handle(r), Outcome::Body { .. })).count()
        }) * 1e9
            / requests.len().max(1) as f64,
    );

    let mut peak = 0u64;
    let mut unretired = 0u64;
    let reactor = time_call(budget, fresh, |mut frontend| {
        let mut el = EventLoop::new(&mut frontend);
        let mut completions = 0usize;
        for (id, request) in requests.iter().enumerate() {
            completions += el.poll(request.at_us).len();
            el.submit(id as u64, request);
        }
        completions += el.finish().len();
        let stats = el.stats();
        peak = stats.inflight_peak;
        unretired = stats.arrivals - stats.retired;
        completions
    });
    if unretired != 0 {
        violations.push(format!("reactor replay left {unretired} arrivals unretired"));
    }
    let reactor_ns = reactor * 1e9 / requests.len().max(1) as f64;
    layers.set("serve.reactor.ns_per_request", reactor_ns);
    layers.set("serve.reactor.peak_in_flight", peak as f64);
    layers.set(
        "serve.fleet.generator_ns_per_request",
        day_seconds * 1e9 / day_requests.max(1) as f64 - reactor_ns,
    );
}

/// `serve.mirror`: one clean sync of every mirror after a publish, and
/// the day's resilience ledger as shares of its logical requests.
fn mirror_kernels(
    layers: &mut Layers,
    opts: &Opts,
    world: &World,
    report: &DayReport,
    violations: &mut Vec<String>,
) {
    let publish = TimedPublish {
        at_us: 1,
        round: 2,
        date: "day".to_string(),
        artifacts: world.current.clone(),
    };
    let mut out_of_sync = 0usize;
    let sync = time_call(
        opts.kernel_budget(),
        || {
            let origin = Arc::new(SnapshotStore::new(StoreConfig::default()));
            origin.publish_round(1, "day", world.previous.clone());
            let mut tier = MirrorTier::new(
                MirrorTierConfig::builder().with_mirrors(MIRRORS),
                origin,
                ServeFaultConfig::lossless(),
            );
            for mirror in 0..MIRRORS {
                tier.try_sync(mirror, 0);
            }
            tier.apply_publish(publish.at_us, &publish);
            tier
        },
        |mut tier| {
            out_of_sync = (0..MIRRORS).filter(|&mirror| !tier.try_sync(mirror, 2)).count();
            tier
        },
    );
    if out_of_sync != 0 {
        violations.push(format!("{out_of_sync} mirrors out of sync after a fault-free sync"));
    }
    layers.set("serve.mirror.sync_ms", sync * 1e3 / MIRRORS as f64);

    let r = &report.resilience;
    let tier_totals =
        world.chaos.as_ref().map(|(tier, _)| tier.totals().clone()).unwrap_or_default();
    layers.set("serve.mirror.attempts_per_request", ratio(r.attempts, r.logical_requests));
    layers.set("serve.mirror.retry_ratio", ratio(r.retries, r.logical_requests));
    layers.set("serve.mirror.hedge_ratio", ratio(r.hedged, r.logical_requests));
    layers.set("serve.mirror.failover_ratio", ratio(r.failovers, r.logical_requests));
    layers.set("serve.mirror.stale_served_ratio", ratio(r.stale_served, r.logical_requests));
    layers.set(
        "serve.mirror.sync_rejected_ratio",
        ratio(tier_totals.sync_rejected, tier_totals.sync_full + tier_totals.sync_delta),
    );
    layers.set("serve.mirror.hard_failures", r.hard_failures as f64);
}
