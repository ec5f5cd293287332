//! `sixdust-exp` — the experiment harness, the command line over the
//! `sixdust_experiments` library.
//!
//! One subcommand per entry of the library's `EXPERIMENTS` table (see
//! `DESIGN.md` §4 for the index). Results are printed as paper-style text
//! tables and written to `results/<id>.{txt,json}`.
//!
//! ```text
//! sixdust-exp [--scale tiny|small|paper] [--seed N] [--out DIR] \
//!             [--telemetry PATH] [--series PATH] [--trace PATH] \
//!             [--checkpoint PATH] [--serve-report PATH] <experiment>|all
//! ```
//!
//! `--telemetry PATH` dumps the shared metrics registry (scan, alias,
//! service and TGA series — see README "Observability") as JSON after
//! every experiment, so the file is complete even on partial runs.
//! `--series PATH` records per-round metric deltas during the service run
//! and writes them as JSONL (one object per round). `--trace PATH`
//! installs a trace journal and writes Chrome trace-event JSON loadable
//! in `chrome://tracing` / Perfetto. `--checkpoint PATH` saves the
//! service state crash-safely during the four-year run and resumes from
//! it on restart (a checkpoint it cannot use is moved aside to
//! `PATH.unusable.N` and the run starts afresh).
//! `--serve-report PATH` publishes every service round into a serve-layer
//! snapshot store, replays a deterministic high-QPS day of simulated
//! registered-consumer load against it (100k requests, Zipf artifact
//! popularity, ETag and delta fetches, admission control) and writes the
//! day's totals as JSON. `--dashboard PATH` builds the full ops stack —
//! per-round series, the standard SLO engine with burn-rate alerting, a
//! black-box flight recorder, and the serve-day replay — and writes a
//! self-contained static HTML ops dashboard (byte-identical across runs
//! at a fixed seed). `--vantages N` runs the multi-vantage fleet (EU /
//! US / behind-GFW CN roster) over the GFW filtering era instead of the
//! experiment suite and writes the per-day disagreement artifact to
//! `<out>/vantage_disagreement.json`; with `--checkpoint PATH` the fleet
//! saves (and resumes from) a crash-safe fleet checkpoint. See
//! EXPERIMENTS.md for worked examples.

use std::path::{Path, PathBuf};

use sixdust_experiments::{run, set_aside, Ctx, ObsOptions, EXPERIMENTS};
use sixdust_net::Scale;

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: sixdust-exp [--scale tiny|small|paper] [--seed N] [--out DIR] \
         [--telemetry PATH] [--series PATH] [--trace PATH] [--checkpoint PATH] \
         [--serve-report PATH] [--dashboard PATH] [--mirrors N] [--serve-faults] \
         [--clients N] [--flash-crowd] [--vantages N] <experiment>|all\n\
         (--clients N switches the serve day to N session-based virtual clients, N < 2^32;\n\
          --flash-crowd adds a publication-chasing arrival spike — implies sessions)\n\
         (--vantages N runs the multi-vantage fleet and exits; no experiment needed)\n\
         experiments: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

/// The value, or the error printed under the `[log]` tag and exit 1.
fn or_exit<T>(result: std::io::Result<T>, log: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("[{log}] {e}");
        std::process::exit(1);
    })
}

/// Window a flash crowd keeps arriving after a publication: 30 virtual
/// minutes, the shape of a fresh-hitlist announcement.
const FLASH_WINDOW_US: u64 = 1_800_000_000;

/// The serve-day fleet for the CLI flags: the classic uniform 100k-request
/// replay by default, or — under `--clients` / `--flash-crowd` — a
/// session-based day (heavy-tailed per-client request counts, think time,
/// publication-chasing spikes) that scales to millions of virtual clients.
fn fleet_for(
    seed: u64,
    clients: Option<u64>,
    flash_crowd: bool,
    spikes: &[(u64, u64)],
) -> sixdust_serve::FleetConfig {
    let mut fleet = sixdust_serve::FleetConfig::default().with_seed(seed);
    if clients.is_some() || flash_crowd {
        let mut shape = sixdust_serve::SessionShape::builder();
        if flash_crowd {
            for &(at_us, window_us) in spikes {
                shape = shape.with_spike(at_us, window_us);
            }
        }
        fleet = fleet.with_clients(clients.unwrap_or(100_000)).with_session(shape);
    }
    fleet.build().expect("serve fleet config rejected")
}

/// The command line, parsed.
#[derive(Default)]
struct Flags {
    scale: Scale,
    out_dir: PathBuf,
    telemetry: Option<PathBuf>,
    series: Option<PathBuf>,
    trace: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    serve_report: Option<PathBuf>,
    dashboard: Option<PathBuf>,
    mirrors: Option<usize>,
    vantages: Option<usize>,
    serve_faults: bool,
    clients: Option<u64>,
    flash_crowd: bool,
    cmds: Vec<String>,
}

fn parse_flags() -> Flags {
    // The scale defaults to the paper's.
    let mut flags = Flags { out_dir: PathBuf::from("results"), ..Flags::default() };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let seed = flags.scale.seed;
                flags.scale = match args.next().as_deref() {
                    Some("tiny") => Scale::tiny(),
                    Some("small") => Scale::small(),
                    Some("paper") => Scale::paper(),
                    other => {
                        eprintln!("unknown scale {other:?}");
                        usage()
                    }
                }
                .with_seed(seed);
            }
            "--seed" => {
                let Some(s) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    usage();
                };
                flags.scale = flags.scale.with_seed(s);
            }
            "--out" => flags.out_dir = path(args.next()),
            "--telemetry" => flags.telemetry = Some(path(args.next())),
            "--series" => flags.series = Some(path(args.next())),
            "--trace" => flags.trace = Some(path(args.next())),
            "--checkpoint" => flags.checkpoint = Some(path(args.next())),
            "--serve-report" => flags.serve_report = Some(path(args.next())),
            "--dashboard" => flags.dashboard = Some(path(args.next())),
            "--mirrors" => flags.mirrors = Some(positive(args.next())),
            "--vantages" => flags.vantages = Some(positive(args.next())),
            // A session day links its clients by `u32` index.
            "--clients" => flags.clients = Some(u64::from(positive::<u32>(args.next()))),
            "--flash-crowd" => flags.flash_crowd = true,
            "--serve-faults" => flags.serve_faults = true,
            "--help" | "-h" => usage(),
            other => flags.cmds.push(other.to_string()),
        }
    }
    // `--vantages N` needs no experiment.
    if flags.vantages.is_none() {
        if flags.cmds.is_empty() {
            usage();
        }
        if flags.cmds.iter().any(|c| c == "all") {
            flags.cmds = EXPERIMENTS.iter().map(|(name, _)| name.to_string()).collect();
        }
        let known = |c: &String| EXPERIMENTS.iter().any(|(name, _)| name == c);
        if let Some(c) = flags.cmds.iter().find(|c| !known(c)) {
            eprintln!("unknown experiment {c:?}");
            usage();
        }
    }
    flags
}

/// A flag's value as a path, or the usage text.
fn path(value: Option<String>) -> PathBuf {
    value.map(PathBuf::from).unwrap_or_else(|| usage())
}

/// A flag's value as a number above zero, or the usage text.
fn positive<T: std::str::FromStr + Default + PartialOrd>(value: Option<String>) -> T {
    match value.and_then(|v| v.parse::<T>().ok()) {
        Some(n) if n > T::default() => n,
        _ => usage(),
    }
}

fn main() {
    let flags = parse_flags();
    std::fs::create_dir_all(&flags.out_dir).expect("create results dir");
    // `--vantages N` is its own mode: run the fleet, write the
    // disagreement artifact, exit. The experiment suite stays
    // single-vantage (its world *is* vantage 0's world).
    if let Some(n) = flags.vantages {
        run_vantage_fleet(n, &flags);
        return;
    }
    let ctx = Ctx::build_resumable(
        flags.scale,
        ObsOptions {
            series: flags.series.is_some(),
            trace: flags.trace.is_some(),
            serve: flags.serve_report.is_some(),
            dashboard: flags.dashboard.is_some(),
            mirror: flags.mirrors.is_some(),
        },
        flags.checkpoint.as_deref(),
    );
    let mut ctx = or_exit(ctx, "ctx");
    if let Some(path) = &flags.series {
        write_series(&ctx, path);
    }
    match flags.mirrors {
        Some(n) => chaos_day(&ctx, n, &flags),
        None if flags.serve_report.is_some() || flags.dashboard.is_some() => {
            serve_day(&ctx, &flags);
        }
        None => {}
    }
    if let Some(path) = &flags.dashboard {
        dashboard(&mut ctx, path, &flags);
    }
    run_experiments(&ctx, &flags);
}

/// Writes the per-round series. The service run is over, so the series
/// is complete now; it is written once up front rather than after each
/// experiment.
fn write_series(ctx: &Ctx, path: &Path) {
    let recorder = ctx.svc.observer().expect("observer attached").series();
    write_observability(path, &recorder.to_jsonl());
    eprintln!("[obs] wrote {} rounds of series data to {}", recorder.len(), path.display());
}

/// Chaos replay (`--mirrors N`): rebuild the origin from the captured
/// publish history and drive the same simulated day through an N-mirror
/// tier via the resilient client path — affinity, failover, retries with
/// seeded backoff, hedging, circuit breakers — under the seeded fault plan
/// when `--serve-faults` is given. Replaces the flat single-frontend
/// serve-day replay; metrics land in the chaos day's own registry so the
/// shared one stays undisturbed.
fn chaos_day(ctx: &Ctx, n: usize, flags: &Flags) {
    let seed = flags.scale.seed;
    let day = sixdust_serve::FleetConfig::default().day_micros;
    let faults = if flags.serve_faults {
        sixdust_serve::ServeFaultConfig::chaos_scaled(seed, n, day)
    } else {
        sixdust_serve::ServeFaultConfig::lossless()
    };
    let (origin, plan) = ctx.chaos_origin_and_plan(day);
    // A flash crowd chases publications: one spike per planned
    // publish (or fixed thirds of the day when the plan is empty).
    let spikes: Vec<(u64, u64)> = if plan.is_empty() {
        vec![(day / 3, FLASH_WINDOW_US), (2 * day / 3, FLASH_WINDOW_US)]
    } else {
        plan.iter().filter(|p| p.at_us < day).map(|p| (p.at_us, FLASH_WINDOW_US)).collect()
    };
    let fleet = fleet_for(seed, flags.clients, flags.flash_crowd, &spikes);
    let registry = sixdust_telemetry::Registry::new();
    let flight = sixdust_telemetry::FlightRecorder::new();
    registry.install_flight(&flight);
    let mut observer =
        sixdust_telemetry::Observer::new(&registry, sixdust_telemetry::SloEngine::standard());
    let mut tier = sixdust_serve::MirrorTier::new(
        sixdust_serve::MirrorTierConfig::builder().with_mirrors(n),
        origin,
        faults,
    )
    .with_telemetry(&registry);
    let config = sixdust_serve::ChaosDayConfig::builder().with_fleet(fleet);
    let started = std::time::Instant::now();
    let report = sixdust_serve::run_chaos_day(&config, &mut tier, &plan, Some(&mut observer));
    let wall = started.elapsed().as_secs_f64();
    let r = &report.resilience;
    // Wall-clock throughput goes to stderr only: the report file
    // stays byte-identical across runs at a fixed seed.
    eprintln!(
        "[bench] chaos day: {} requests in {:.3} s wall ({:.0} requests/sec)",
        r.logical_requests,
        wall,
        r.logical_requests as f64 / wall.max(1e-9),
    );
    if report.flash_arrivals > 0 {
        eprintln!("[obs] flash crowd: {} arrivals inside spike windows", report.flash_arrivals);
    }
    eprintln!(
        "[obs] chaos day over {} mirrors ({}): {} requests / {} attempts, \
         {} retries, {} failovers, {} hedged ({} wins), {} breaker opens, \
         {} stale served, {} syncs ({} rejected), {} hard failures",
        r.mirrors,
        if flags.serve_faults { "chaos faults" } else { "lossless" },
        r.logical_requests,
        r.attempts,
        r.retries,
        r.failovers,
        r.hedged,
        r.hedge_wins,
        r.breaker_opened,
        r.stale_served,
        r.syncs,
        r.sync_rejected,
        r.hard_failures,
    );
    eprintln!(
        "[obs] chaos day observability: {} SLO breach rounds, {} flight captures",
        observer.slo().breaches().len(),
        flight.captures_len(),
    );
    if let Some(path) = &flags.serve_report {
        let json = sixdust_json::to_string_pretty(&report);
        write_observability(path, &json);
        eprintln!("[obs] wrote chaos serve report to {}", path.display());
    }
}

/// The flat serve day: the store holds every round of the run, so replay
/// one high-QPS day of simulated consumer load against it and write the
/// report.
fn serve_day(ctx: &Ctx, flags: &Flags) {
    let store = ctx.serve.clone().expect("serve store attached");
    let day = sixdust_serve::FleetConfig::default().day_micros;
    let spikes = [(day / 3, FLASH_WINDOW_US), (2 * day / 3, FLASH_WINDOW_US)];
    let fleet = fleet_for(flags.scale.seed, flags.clients, flags.flash_crowd, &spikes);
    let started = std::time::Instant::now();
    let report = sixdust_serve::run_day(
        &fleet,
        sixdust_serve::FrontendConfig::default(),
        &store,
        Some(&ctx.telemetry),
    );
    let wall = started.elapsed().as_secs_f64();
    eprintln!(
        "[obs] serve day: {} requests, {} bodies ({} delta), {} bytes, {} hits/{} misses, \
         {} not-modified, {} shed",
        report.totals.requests,
        report.totals.bodies,
        report.totals.delta_fetches,
        report.totals.bytes_sent,
        report.totals.cache_hits,
        report.totals.cache_misses,
        report.totals.not_modified,
        report.totals.shed_client + report.totals.shed_global,
    );
    if report.flash_arrivals > 0 {
        eprintln!("[obs] flash crowd: {} arrivals inside spike windows", report.flash_arrivals);
    }
    eprintln!(
        "[obs] serve day ledger: {} clients, {} bytes saved by delta, {} delta fallbacks, \
         p50/p90/p99 latency {}/{}/{} us",
        report.clients,
        report.bytes_saved_by_delta,
        report.delta_fallbacks,
        report.latency_p50_us,
        report.latency_p90_us,
        report.latency_p99_us,
    );
    // Wall-clock throughput goes to stderr only: the report file
    // stays byte-identical across runs at a fixed seed.
    eprintln!(
        "[bench] serve day: {} requests in {:.3} s wall ({:.0} requests/sec)",
        report.totals.requests,
        wall,
        report.totals.requests as f64 / wall.max(1e-9),
    );
    if let Some(path) = &flags.serve_report {
        let json = sixdust_json::to_string_pretty(&report);
        write_observability(path, &json);
        eprintln!("[obs] wrote serve report to {}", path.display());
    }
}

/// Folds the flat serve day's registry deltas into the observability
/// stream as one extra round (keyed past the last service day), then
/// renders the self-contained ops dashboard. Rendered before the
/// experiments run so their registry churn cannot perturb the page: at a
/// fixed seed the HTML is byte-identical across runs. A `--mirrors` chaos
/// replay keeps its metrics in a registry of its own, so there is no flat
/// serve day to fold in and the subtitle says so.
fn dashboard(ctx: &mut Ctx, path: &Path, flags: &Flags) {
    let flat_day = flags.mirrors.is_none();
    if flat_day {
        let serve_key = ctx.svc.rounds().last().map(|r| r.day.0 + 1).unwrap_or(0);
        ctx.svc.observer_mut().expect("dashboard implies an observer").record(serve_key);
    }
    let scale = flags.scale;
    let subtitle = format!(
        "scale addr 1/{} entity 1/{} seed {:#x} — {} service rounds{}",
        scale.addr_div,
        scale.entity_div,
        scale.seed,
        ctx.svc.rounds().len(),
        if flat_day { " + 1 serve day" } else { "" },
    );
    let observer = ctx.svc.observer().expect("dashboard implies an observer");
    let dash = sixdust_telemetry::Dashboard { title: "sixdust ops", subtitle: &subtitle, observer };
    write_observability(path, &dash.render());
    eprintln!(
        "[obs] wrote ops dashboard to {} ({} SLO breach rounds, {} flight captures)",
        path.display(),
        observer.slo().breaches().len(),
        observer.registry().flight().map_or(0, |f| f.captures_len()),
    );
}

/// Runs each requested experiment, printing its text and writing
/// `<out>/<id>.{txt,json}`.
fn run_experiments(ctx: &Ctx, flags: &Flags) {
    let scale = flags.scale;
    for id in &flags.cmds {
        let t0 = std::time::Instant::now();
        let out = run(id, ctx, &flags.out_dir).expect("validated experiment name");
        println!("\n================ {} ({:.1}s) ================", id, t0.elapsed().as_secs_f64());
        println!("{}", out.text);
        write_observability(&flags.out_dir.join(format!("{id}.txt")), &out.text);
        let enriched = sixdust_json::json!({
            "experiment": id,
            "scale": { "addr_div": scale.addr_div, "entity_div": scale.entity_div, "seed": scale.seed },
            "result": out.json,
        });
        let json = format!("{}\n", enriched.pretty());
        write_observability(&flags.out_dir.join(format!("{id}.json")), &json);
        // Dump after every experiment so the telemetry and trace files are
        // complete even if a later experiment aborts the run (experiments
        // keep emitting spans, e.g. the new-source alias pass).
        if let Some(path) = &flags.telemetry {
            write_observability(path, &ctx.telemetry.snapshot().to_json());
        }
        if let Some(path) = &flags.trace {
            let journal = ctx.trace.as_ref().expect("trace journal installed");
            write_observability(path, &journal.to_chrome_json());
        }
    }
    if let Some(path) = &flags.trace {
        let journal = ctx.trace.as_ref().expect("trace journal installed");
        eprintln!(
            "[obs] wrote {} trace events to {} (open in chrome://tracing)",
            journal.len(),
            path.display()
        );
    }
}

/// The `--vantages N` mode: run the default N-vantage roster (EU / US /
/// behind-GFW CN, extras in neutral regions) over the GFW filtering era
/// with the cleaning filter live — the window where standing somewhere
/// else actually changes what a scan sees — and write the per-day
/// disagreement reports as `<out>/vantage_disagreement.json`.
///
/// With `--checkpoint PATH` the fleet saves a crash-safe checkpoint
/// after every synchronized batch and resumes from it on restart; a
/// corrupt or roster-incompatible checkpoint is moved aside
/// ([`set_aside`]) and the fleet starts afresh.
/// With `--telemetry PATH` the fleet's registry (including the
/// `vantage.*` metrics) is dumped as JSON at the end of the run.
fn run_vantage_fleet(n: usize, flags: &Flags) {
    use sixdust_net::{events, FaultConfig};
    use sixdust_vantage::{FleetConfig, FleetState, VantageFleet};

    let (scale, out_dir) = (flags.scale, &flags.out_dir);
    let (telemetry_path, checkpoint_path) =
        (flags.telemetry.as_deref(), flags.checkpoint.as_deref());

    let registry = sixdust_telemetry::Registry::new();
    let config =
        FleetConfig::new(scale, n).with_faults(FaultConfig::lossless().with_drop_permille(2));
    let from = events::GFW_FILTER_DEPLOYED;
    let until = from.plus(20);

    let mut fleet = match checkpoint_path.filter(|p| p.exists()) {
        Some(path) => match FleetState::load(path) {
            Ok(state) if state.specs == config.specs => {
                eprintln!(
                    "[vantage] resuming from checkpoint {} ({} reports so far)",
                    path.display(),
                    state.reports.len()
                );
                VantageFleet::restore_with_telemetry(config, &registry, &state)
            }
            Ok(_) => {
                or_exit(set_aside(path, "vantage", "a different roster"), "vantage");
                VantageFleet::build_with_telemetry(config, &registry)
            }
            Err(e) => {
                or_exit(set_aside(path, "vantage", &e), "vantage");
                VantageFleet::build_with_telemetry(config, &registry)
            }
        },
        None => VantageFleet::build_with_telemetry(config, &registry),
    };

    let t0 = std::time::Instant::now();
    fleet.run_with(from, until, |fleet, day| {
        if let Some(path) = checkpoint_path {
            FleetState::capture(fleet).save_atomic(path).expect("fleet checkpoint save");
        }
        if let Some(report) = fleet.reports().last().filter(|r| r.day == day) {
            eprintln!(
                "[vantage] day {}: union {} / intersection {} — {} disagreements ({} gfw)",
                day.0,
                report.union,
                report.intersection,
                report.disagreements,
                report.gfw_disagreements
            );
        }
    });

    let artifact = out_dir.join("vantage_disagreement.json");
    let json = sixdust_json::to_string_pretty(fleet.reports());
    write_observability(&artifact, &json);
    let total: u64 = fleet.reports().iter().map(|r| r.disagreements).sum();
    let gfw: u64 = fleet.reports().iter().map(|r| r.gfw_disagreements).sum();
    let stats = fleet.stats();
    eprintln!(
        "[obs] vantage fleet: {} vantages over days {}..{} in {:.1}s — {} reports, \
         {} disagreements ({} gfw-class), {} segments executed; wrote {}",
        fleet.len(),
        from.0,
        until.0,
        t0.elapsed().as_secs_f64(),
        fleet.reports().len(),
        total,
        gfw,
        stats.executed,
        artifact.display()
    );
    if let Some(path) = telemetry_path {
        write_observability(path, &registry.snapshot().to_json());
        eprintln!("[obs] wrote fleet telemetry to {}", path.display());
    }
}

/// Writes one output file (an experiment's or an observability artifact),
/// creating parent directories.
fn write_observability(path: &Path, contents: &str) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(path, contents).expect("write observability output");
}
