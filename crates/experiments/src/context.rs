//! Shared experiment context: one simulated Internet, one four-year
//! service run, one set of new-source evaluations — reused by every
//! table/figure so `all` does the expensive work exactly once.

use std::cell::OnceCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sixdust_addr::Addr;
use sixdust_alias::{candidates as alias_candidates, AliasDetector, DetectorConfig};
use sixdust_hitlist::{newsources, HitlistService, ServiceConfig, ServiceState, SourceEval};
use sixdust_net::{events, Day, FaultConfig, Internet, Scale};
use sixdust_scan::ScanConfig;
use sixdust_serve::{SnapshotStore, StoreConfig, TimedPublish};
use sixdust_telemetry::{FlightRecorder, Observer, Registry, SloEngine, TraceJournal};
use sixdust_tga::instrumented_lineup;

/// The day Table 3's TGA seeds are taken ("responsive addresses in
/// December 2021"), 2021-12-01.
pub const TGA_SEED_DAY: Day = Day(1249);

/// The experiment context.
pub struct Ctx {
    /// The simulated Internet.
    pub net: Internet,
    /// The hitlist service, already run over the full window.
    pub svc: HitlistService,
    /// The scale everything was built at.
    pub scale: Scale,
    /// Metrics registry every pipeline stage reports into; dumped by
    /// `--telemetry <path>`.
    pub telemetry: Registry,
    /// Trace journal installed into the registry when `--trace <path>` is
    /// given; dumped as Chrome trace-event JSON.
    pub trace: Option<TraceJournal>,
    /// Serve-layer snapshot store, populated with every round of the
    /// service run when `--serve-report <path>` is given.
    pub serve: Option<Arc<SnapshotStore>>,
    /// The last `PUBLISH_HISTORY` service publishes, captured with full
    /// artifact payloads when `--mirrors` is given — the raw material for
    /// the chaos day's timed publish plan (oldest first).
    pub publish_history: Vec<TimedPublish>,
    new_sources: OnceCell<Vec<SourceEval>>,
}

/// Service publishes retained for the chaos day's publish plan: one
/// pre-day baseline plus three mid-day publishes.
pub const PUBLISH_HISTORY: usize = 4;

/// Observability options for [`Ctx::build_resumable`], derived from the
/// `--series` / `--trace` command-line flags.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsOptions {
    /// Attach an [`Observer`] recording the service's rounds before the
    /// four-year run.
    pub series: bool,
    /// Install a [`TraceJournal`] into the registry so the service, scan
    /// engine and alias detector emit spans.
    pub trace: bool,
    /// Attach a serve-layer [`SnapshotStore`] and publish every round of
    /// the service run into it.
    pub serve: bool,
    /// Build the full ops stack for the HTML dashboard: implies `series`
    /// and `serve`, judges the rounds by the standard [`SloEngine`] and
    /// installs a [`FlightRecorder`] in the registry.
    pub dashboard: bool,
    /// Replay the serve day through a mirror tier (`--mirrors`): implies
    /// `serve` and additionally captures the tail of the publish history
    /// with full artifact payloads during the run.
    pub mirror: bool,
}

/// Rounds between crash-safe checkpoint saves during the service run.
pub const CHECKPOINT_EVERY_ROUNDS: usize = 64;

/// Runs the service with the historical cadence from the round after
/// `resume_from` (or day 0) to `until`, checkpointing atomically every
/// [`CHECKPOINT_EVERY_ROUNDS`] rounds and at the end when `checkpoint` is
/// given. Walks the [`events::cadence`] [`HitlistService::run`] walks, so
/// a resumed run lands on the same round days an uninterrupted one would.
fn run_checkpointed(
    svc: &mut HitlistService,
    net: &Internet,
    resume_from: Option<Day>,
    until: Day,
    checkpoint: Option<&Path>,
    serve: Option<&SnapshotStore>,
    mut history: Option<&mut Vec<TimedPublish>>,
) {
    // A resumed run walks on from its last round, which already ran (one
    // at or past `until` leaves nothing to run).
    let days = events::cadence(resume_from.unwrap_or(Day(0)), until);
    let mut rounds_since_save = 0usize;
    for day in days.into_iter().skip(usize::from(resume_from.is_some())) {
        svc.run_round(net, day);
        if let Some(store) = serve {
            store.publish_service(svc, u64::from(day.0), &day.to_date());
        }
        if let Some(h) = history.as_deref_mut() {
            // Rolling tail of the publish history (artifacts included) —
            // `at_us` is a placeholder the chaos replay reschedules.
            h.push(TimedPublish::from_service(svc, 0, u64::from(day.0), &day.to_date()));
            if h.len() > PUBLISH_HISTORY {
                h.remove(0);
            }
        }
        rounds_since_save += 1;
        if let Some(path) = checkpoint {
            if rounds_since_save >= CHECKPOINT_EVERY_ROUNDS || day >= until {
                if let Err(e) = ServiceState::capture(svc).save_atomic(path) {
                    eprintln!("[ctx] checkpoint save failed: {e}");
                } else {
                    rounds_since_save = 0;
                }
            }
        }
    }
}

/// Moves a checkpoint this run will not resume from out of the way
/// before the run starts, so that its first save does not replace the
/// file (a newer binary's checkpoint, say): to `PATH.unusable.N`, the
/// first `N` from 1 that names no file, and the log says where. A file
/// that cannot be moved is an error, and the run must not start.
pub fn set_aside(path: &Path, log: &str, why: &str) -> io::Result<()> {
    let aside = (1..)
        .map(|n| {
            let mut name = path.as_os_str().to_os_string();
            name.push(format!(".unusable.{n}"));
            PathBuf::from(name)
        })
        .find(|name| !name.exists())
        .expect("some name is free");
    std::fs::rename(path, &aside).map_err(|e| {
        let what = format!("cannot move the unusable checkpoint {} aside: {e}", path.display());
        io::Error::new(e.kind(), what)
    })?;
    eprintln!(
        "[{log}] ignoring unusable checkpoint {} ({why}); moved it to {}",
        path.display(),
        aside.display()
    );
    Ok(())
}

impl Ctx {
    /// Builds the Internet and runs the service from launch to the paper's
    /// final day — the expensive step (~minutes at paper scale) — with
    /// observability options plus an optional crash-safe checkpoint file.
    ///
    /// With a checkpoint path the four-year run saves its state atomically
    /// every `CHECKPOINT_EVERY_ROUNDS` rounds and at completion; if a
    /// valid checkpoint already exists, the service resumes from the day
    /// after its last recorded round instead of replaying from day 0. A
    /// corrupt or version-incompatible checkpoint is never trusted: it is
    /// moved aside ([`set_aside`]) and the run starts afresh; the error is
    /// that move's, when it fails.
    pub fn build_resumable(
        scale: Scale,
        opts: ObsOptions,
        checkpoint: Option<&Path>,
    ) -> io::Result<Ctx> {
        let telemetry = Registry::new();
        let trace = opts.trace.then(TraceJournal::new);
        if let Some(journal) = &trace {
            telemetry.install_tracer(journal);
        }
        if opts.dashboard {
            telemetry.install_flight(&FlightRecorder::new());
        }
        let net = Internet::build(scale)
            .with_faults(FaultConfig::lossless().with_drop_permille(2))
            .with_telemetry(&telemetry);
        let mut days = Day::SNAPSHOTS.to_vec();
        days.push(TGA_SEED_DAY);
        days.sort_unstable();
        let config = ServiceConfig::default().with_snapshot_days(days);

        let mut resume_from: Option<Day> = None;
        let mut svc = match checkpoint.filter(|p| p.exists()) {
            Some(path) => match ServiceState::load(path) {
                Ok(state) => {
                    let last = state.rounds.last().map(|r| r.day);
                    eprintln!(
                        "[ctx] resuming from checkpoint {} ({} rounds, day {:?})",
                        path.display(),
                        state.rounds.len(),
                        last
                    );
                    resume_from = last;
                    state.restore(config.clone())
                }
                Err(e) => {
                    set_aside(path, "ctx", &e)?;
                    HitlistService::new(config.clone())
                }
            },
            None => HitlistService::new(config.clone()),
        };
        svc = svc.with_telemetry(telemetry.clone());
        if opts.series || opts.dashboard {
            // A bare `--series` run judges nothing, so its series carries
            // no `slo.*` columns.
            let slo =
                if opts.dashboard { SloEngine::standard() } else { SloEngine::new(Vec::new()) };
            svc = svc.with_observer(Observer::new(&telemetry, slo));
        }
        let serve = (opts.serve || opts.dashboard || opts.mirror).then(|| {
            Arc::new(SnapshotStore::new(StoreConfig::default()).with_telemetry(telemetry.clone()))
        });
        let mut publish_history: Vec<TimedPublish> = Vec::new();
        eprintln!(
            "[ctx] running four-year service (addr 1/{}, entity 1/{}, seed {:#x})…",
            scale.addr_div, scale.entity_div, scale.seed
        );
        let t0 = std::time::Instant::now();
        run_checkpointed(
            &mut svc,
            &net,
            resume_from,
            Day::PAPER_END,
            checkpoint,
            serve.as_deref(),
            opts.mirror.then_some(&mut publish_history),
        );
        if let Some(store) = &serve {
            // A fully resumed run executes zero new rounds; publish the
            // restored final state once so the store is never empty.
            if store.current_round().is_none() {
                let day = svc.rounds().last().map(|r| r.day).unwrap_or(Day(0));
                store.publish_service(&svc, u64::from(day.0), &day.to_date());
                if opts.mirror {
                    publish_history.push(TimedPublish::from_service(
                        &svc,
                        0,
                        u64::from(day.0),
                        &day.to_date(),
                    ));
                }
            }
        }
        eprintln!(
            "[ctx] service done: {} rounds, input {}, responsive {} ({:.1}s)",
            svc.rounds().len(),
            svc.rounds().last().map(|r| r.input_total).unwrap_or(0),
            svc.rounds().last().map(|r| r.total_cleaned).unwrap_or(0),
            t0.elapsed().as_secs_f64()
        );
        let new_sources = OnceCell::new();
        Ok(Ctx { net, svc, scale, telemetry, trace, serve, publish_history, new_sources })
    }

    /// Builds the chaos replay inputs from the captured publish history:
    /// a fresh origin store seeded with the *oldest* captured publish as
    /// the pre-day baseline, plus the remaining publishes rescheduled
    /// evenly across the serve day (1/(n+1), 2/(n+1), … of `day_micros`).
    /// With an empty history (no rounds ran) the origin starts empty and
    /// the plan is empty — the replay still completes, serving nothing.
    pub fn chaos_origin_and_plan(
        &self,
        day_micros: u64,
    ) -> (Arc<SnapshotStore>, Vec<TimedPublish>) {
        let origin = Arc::new(SnapshotStore::new(StoreConfig::default()));
        let mut history = self.publish_history.clone();
        if history.is_empty() {
            return (origin, Vec::new());
        }
        let baseline = history.remove(0);
        origin.publish_round(baseline.round, &baseline.date, baseline.artifacts);
        let n = history.len() as u64;
        let plan = history
            .into_iter()
            .enumerate()
            .map(|(i, mut p)| {
                p.at_us = day_micros / (n + 1) * (i as u64 + 1);
                p
            })
            .collect();
        (origin, plan)
    }

    /// The snapshot at (or just after) a requested day.
    pub fn snapshot_at(&self, day: Day) -> &sixdust_hitlist::Snapshot {
        self.svc
            .snapshots()
            .iter()
            .find(|s| s.day >= day)
            .or_else(|| self.svc.snapshots().last())
            .expect("service retained snapshots")
    }

    /// The TGA seed corpus: the cleaned responsive set of December 2021.
    pub fn tga_seeds(&self) -> Vec<Addr> {
        self.snapshot_at(TGA_SEED_DAY).cleaned_total().to_addr_vec()
    }

    /// The Sec. 6 new-source evaluations, computed by the first caller.
    pub fn new_sources(&self) -> &[SourceEval] {
        self.new_sources.get_or_init(|| self.eval_new_sources())
    }

    fn eval_new_sources(&self) -> Vec<SourceEval> {
        let net = &self.net;
        let day = Day::PAPER_END;
        let scan_days = [day, day.plus(7), day.plus(14), day.plus(21)];
        let cfg = ScanConfig::default();
        let known = self.svc.input();
        let seeds = self.tga_seeds();
        eprintln!("[ctx] evaluating new sources ({} TGA seeds)…", seeds.len());

        // Collect every candidate list first so one fresh alias-detection
        // pass can cover them all — the paper runs the hitlist's MAPD over
        // the new candidates before scanning (this is what caught 6Tree's
        // 8.3 M-address Akamai expansion).
        let passive_all = newsources::passive_sources(net, day);
        let passive_new: Vec<Addr> =
            passive_all.iter().filter(|a| known.binary_search(a).is_err()).copied().collect();
        // The dropped pool less what the GFW filter flagged (`c` a clock, `s`
        // a byte), in one walk of the input table.
        let rows = self.svc.unresponsive().rows();
        let pool: Vec<Addr> =
            rows.filter(|(_, c, s)| c.is_none() && !s.gfw_cleaned()).map(|r| r.0).collect();
        let mut tga_lists: Vec<(&'static str, Vec<Addr>)> = Vec::new();
        for (generator, budget) in instrumented_lineup(self.scale.addr_div, &self.telemetry) {
            let t0 = std::time::Instant::now();
            let candidates = generator.generate(&seeds, budget);
            eprintln!(
                "[ctx] {} generated {} candidates ({:.1}s)",
                generator.name(),
                candidates.len(),
                t0.elapsed().as_secs_f64()
            );
            tga_lists.push((generator.name(), candidates));
        }

        // Fresh multi-level alias detection over all candidates, merged
        // with the service's accumulated labels.
        let mut all_candidates: Vec<Addr> = passive_new.clone();
        all_candidates.extend(pool.iter().copied());
        for (_, list) in &tga_lists {
            all_candidates.extend(list.iter().copied());
        }
        let mut detector = AliasDetector::new(DetectorConfig::default());
        detector.set_telemetry(self.telemetry.clone());
        let cands = alias_candidates(net, &all_candidates, 100);
        detector.run_round(net, &cands, day);
        let mut aliased = self.svc.aliased().clone();
        aliased.extend_from(&detector.aliased());
        eprintln!(
            "[ctx] pre-scan alias detection: {} candidate prefixes, {} labels total",
            cands.len(),
            aliased.len()
        );

        let mut evals = Vec::new();
        evals.push(newsources::evaluate_source(
            net,
            "passive",
            &passive_new,
            &aliased,
            &scan_days,
            &cfg,
        ));
        // The pool is only scanned once for ethical reasons (Sec. 6.2).
        evals.push(newsources::evaluate_source(
            net,
            "unresponsive",
            &pool,
            &aliased,
            &scan_days[..1],
            &cfg,
        ));
        for (name, candidates) in &tga_lists {
            evals.push(newsources::evaluate_source(
                net, name, candidates, &aliased, &scan_days, &cfg,
            ));
        }
        evals
    }
}
