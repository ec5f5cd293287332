//! The vantage fleet: N services, N vantage worlds, one scheduler.
//!
//! Each vantage owns its *own* [`Internet`] instance built from the
//! same [`Scale`] — the simulated world is a pure function of the seed,
//! so the instances agree on every host, route and fault plan — with
//! the full roster registered in identical order and the vantage's own
//! AS installed as the probe source. Per-vantage divergence (fault
//! salt, GFW egress position, vantage-scoped outages) then comes
//! entirely from [`Internet::with_source_vantage`].
//!
//! The scheduler is a discrete-event loop over a min-heap of
//! `(day, vantage)` events. Every vantage replays the historical scan
//! cadence ([`events::cadence`]); vantages due on the same day form a
//! *synchronized batch*: their rounds are prepared together, their scans
//! run as one [`sixdust_scan::scan_jobs`] call — one five-protocol job
//! per vantage, cut into permutation-cycle segments on one work-stealing
//! budget — and their rounds complete in roster order. Segment hits
//! are merged in cycle order, so every round artifact is byte-identical
//! at any thread budget — with one vantage, identical to
//! [`HitlistService::run_with`] itself.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use sixdust_addr::{Addr, AddrSet};
use sixdust_hitlist::{HitlistService, PreparedRound, ServiceConfig};
use sixdust_net::{events, Day, FaultConfig, Internet, Protocol, Scale};
use sixdust_scan::{scan_jobs, ExecutorStats, ScanJob, ScanResult};
use sixdust_telemetry::Registry;

use crate::report::VantageReport;
use crate::spec::VantageSpec;
use crate::state::FleetState;

/// Everything a fleet needs to exist: the world, the faults, the
/// per-vantage service configuration, the roster, and a worker budget.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Scale the per-vantage worlds are built at.
    pub scale: Scale,
    /// Fault plan shared by every vantage world (each vantage evaluates
    /// it under its own source salt).
    pub faults: FaultConfig,
    /// Service configuration, cloned per vantage.
    pub service: ServiceConfig,
    /// The roster; index 0 must be the historical default vantage.
    pub specs: Vec<VantageSpec>,
    /// Worker-thread budget for the work-stealing executor.
    pub threads: usize,
}

impl FleetConfig {
    /// A fleet of `n` default-roster vantages at `scale`, lossless
    /// faults, default service configuration, four workers.
    pub fn new(scale: Scale, n: usize) -> FleetConfig {
        FleetConfig {
            scale,
            faults: FaultConfig::lossless(),
            service: ServiceConfig::default(),
            specs: VantageSpec::default_roster(n),
            threads: 4,
        }
    }

    /// Replaces the fault plan.
    pub fn with_faults(mut self, faults: FaultConfig) -> FleetConfig {
        self.faults = faults;
        self
    }

    /// Replaces the per-vantage service configuration.
    pub fn with_service(mut self, service: ServiceConfig) -> FleetConfig {
        self.service = service;
        self
    }

    /// Replaces the executor worker budget.
    pub fn with_threads(mut self, threads: usize) -> FleetConfig {
        self.threads = threads;
        self
    }
}

/// One vantage: its spec, its world, its service.
struct VantageUnit {
    spec: VantageSpec,
    net: Internet,
    svc: HitlistService,
}

/// The running fleet. See the module docs for the execution model.
pub struct VantageFleet {
    config: FleetConfig,
    telemetry: Option<Registry>,
    units: Vec<VantageUnit>,
    reports: Vec<VantageReport>,
    stats: ExecutorStats,
}

impl VantageFleet {
    /// Builds a fresh fleet.
    pub fn build(config: FleetConfig) -> VantageFleet {
        VantageFleet::assemble(config, None, None)
    }

    /// Builds a fresh fleet with a telemetry registry attached to the
    /// fleet's own `vantage.*` metrics and to the *primary* vantage's
    /// world and service (secondary vantages run uninstrumented, so the
    /// registry's `service.*`/`scan.*` metrics keep their historical
    /// single-pipeline meaning).
    pub fn build_with_telemetry(config: FleetConfig, registry: &Registry) -> VantageFleet {
        VantageFleet::assemble(config, Some(registry), None)
    }

    /// Restores a fleet from a checkpoint. The checkpoint's roster must
    /// match `config.specs` exactly — a fleet cannot change shape
    /// mid-run.
    pub fn restore(config: FleetConfig, state: &FleetState) -> VantageFleet {
        VantageFleet::assemble(config, None, Some(state))
    }

    /// [`VantageFleet::restore`] with telemetry, wired like
    /// [`VantageFleet::build_with_telemetry`].
    pub fn restore_with_telemetry(
        config: FleetConfig,
        registry: &Registry,
        state: &FleetState,
    ) -> VantageFleet {
        VantageFleet::assemble(config, Some(registry), Some(state))
    }

    fn assemble(
        config: FleetConfig,
        telemetry: Option<&Registry>,
        state: Option<&FleetState>,
    ) -> VantageFleet {
        assert!(!config.specs.is_empty(), "a fleet needs at least one vantage");
        if let Some(state) = state {
            assert_eq!(
                state.specs, config.specs,
                "fleet checkpoint roster does not match the configured roster"
            );
            assert_eq!(state.services.len(), config.specs.len());
        }
        let units: Vec<VantageUnit> = config
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let primary = i == 0;
                // Every world registers the *full* roster in roster
                // order, so block allocation, BGP tables and origin
                // lookups agree across all fleet members. Registering
                // the default vantage is a no-op (it is born in the
                // registry), which is what keeps an N = 1 world
                // byte-identical to a plain `Internet::build`.
                let mut net = Internet::build(config.scale);
                for s in &config.specs {
                    net.register_vantage(s.asn, &s.name, &s.country);
                }
                let id = net.registry().by_asn(spec.asn).expect("vantage just registered");
                net = net.with_faults(config.faults.clone()).with_source_vantage(id);
                if primary {
                    if let Some(reg) = telemetry {
                        net = net.with_telemetry(reg);
                    }
                }
                let mut svc = match state {
                    Some(state) => state.services[i].restore(config.service.clone()),
                    None => HitlistService::new(config.service.clone()),
                };
                if primary {
                    if let Some(reg) = telemetry {
                        svc = svc.with_telemetry(reg.clone());
                    }
                }
                VantageUnit { spec: spec.clone(), net, svc }
            })
            .collect();
        if let Some(reg) = telemetry {
            reg.gauge("vantage.fleet.size").set(units.len() as i64);
        }
        VantageFleet {
            config,
            telemetry: telemetry.cloned(),
            units,
            reports: state.map(|s| s.reports.clone()).unwrap_or_default(),
            stats: ExecutorStats::default(),
        }
    }

    /// The roster.
    pub fn specs(&self) -> &[VantageSpec] {
        &self.config.specs
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of vantages.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the fleet is empty (it never is; see `assemble`).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Vantage `i`'s service.
    pub fn service(&self, i: usize) -> &HitlistService {
        &self.units[i].svc
    }

    /// Vantage `i`'s world.
    pub fn net(&self, i: usize) -> &Internet {
        &self.units[i].net
    }

    /// Every vantage's service, roster order.
    pub fn services(&self) -> impl Iterator<Item = &HitlistService> {
        self.units.iter().map(|u| &u.svc)
    }

    /// Disagreement reports for every synchronized batch so far.
    pub fn reports(&self) -> &[VantageReport] {
        &self.reports
    }

    /// Cumulative executor statistics.
    pub fn stats(&self) -> ExecutorStats {
        self.stats
    }

    /// Runs the fleet from `from` to `until` (inclusive) with the
    /// historical scan cadence.
    pub fn run(&mut self, from: Day, until: Day) {
        self.run_with(from, until, |_, _| {});
    }

    /// Like [`VantageFleet::run`], but invokes `hook` with the fleet
    /// and the day after every completed batch — the integration point
    /// for checkpointing.
    ///
    /// A restored fleet resumes where it left off: each vantage skips
    /// every scheduled day it has already recorded a round for, so
    /// calling `run_with` with the original `(from, until)` window
    /// after a restore completes the run exactly as if it had never
    /// stopped.
    pub fn run_with(&mut self, from: Day, until: Day, mut hook: impl FnMut(&VantageFleet, Day)) {
        let days = events::cadence(from, until);
        // Min-heap of (day, vantage) events; `Reverse` turns std's
        // max-heap around, and the tuple order makes same-day events
        // pop in roster order.
        let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
        let mut cursor: Vec<usize> = Vec::with_capacity(self.units.len());
        for (v, unit) in self.units.iter().enumerate() {
            let done_through = unit.svc.rounds().last().map(|r| r.day);
            let next = match done_through {
                None => 0,
                Some(last) => days.partition_point(|&d| d <= last),
            };
            cursor.push(next);
            if next < days.len() {
                heap.push(Reverse((days[next].0, v)));
            }
        }
        while let Some(&Reverse((day, _))) = heap.peek() {
            let mut batch = Vec::new();
            while let Some(&Reverse((d, v))) = heap.peek() {
                if d != day {
                    break;
                }
                heap.pop();
                batch.push(v);
            }
            let day = Day(day);
            self.run_batch(day, &batch);
            hook(self, day);
            for v in batch {
                cursor[v] += 1;
                if cursor[v] < days.len() {
                    heap.push(Reverse((days[cursor[v]].0, v)));
                }
            }
        }
    }

    /// Runs one synchronized batch: prepare every due vantage's round,
    /// run their scans as one [`scan_jobs`] call (a job per vantage),
    /// complete in roster order, then (if the whole fleet scanned) build
    /// the day's disagreement report.
    fn run_batch(&mut self, day: Day, batch: &[usize]) {
        // Stage 1: prepare (sources, alias detection, target selection).
        let mut prepared: Vec<PreparedRound> = Vec::with_capacity(batch.len());
        for &v in batch {
            let unit = &mut self.units[v];
            prepared.push(unit.svc.prepare_round(&unit.net, day));
        }

        // Stage 2: one five-protocol job per due vantage, all on the
        // fleet's one budget — this is where an idle vantage's workers
        // drain a busy one's segments.
        let scan_started = Instant::now();
        let jobs: Vec<ScanJob<'_>> = batch
            .iter()
            .zip(&prepared)
            .map(|(&v, prep)| self.units[v].svc.round_job(&self.units[v].net, prep))
            .collect();
        let (results, stats) = scan_jobs(self.config.threads, &jobs);
        let scan_elapsed = scan_started.elapsed();
        self.stats.executed += stats.executed;
        self.stats.stolen += stats.stolen;

        // Stage 3: per vantage, the raw (pre-cleaning) responsive set for
        // the disagreement merge, then complete its round — in roster
        // order. The scan-phase histogram gets its one sample per round
        // here, since stage 2 bypassed `scan_prepared`.
        let mut results = results.into_iter();
        let mut raw_sets: Vec<AddrSet> = Vec::with_capacity(batch.len());
        for (&v, prep) in batch.iter().zip(prepared) {
            let results: Vec<ScanResult> = results.by_ref().take(Protocol::ALL.len()).collect();
            raw_sets.push(raw_hits(&results));
            let unit = &mut self.units[v];
            unit.svc.record_external_scan_phase(scan_elapsed);
            unit.svc.complete_round(&unit.net, prep, results);
        }

        // Stage 4: cross-vantage merge + disagreement analysis, only
        // when the whole fleet scanned this day (a partially resumed
        // fleet skips the days it cannot compare).
        if batch.len() == self.units.len() {
            let asns: Vec<u32> = batch.iter().map(|&v| self.units[v].spec.asn).collect();
            let report =
                VantageReport::build(day, &asns, &raw_sets, self.units[batch[0]].net.registry());
            if let Some(reg) = &self.telemetry {
                reg.counter("vantage.disagreements").add(report.disagreements);
                reg.counter("vantage.disagreements.gfw").add(report.gfw_disagreements);
                reg.gauge("vantage.merge.union").set(report.union as i64);
                reg.gauge("vantage.merge.intersection").set(report.intersection as i64);
            }
            self.reports.push(report);
        }
        if let Some(reg) = &self.telemetry {
            reg.counter("vantage.rounds").add(batch.len() as u64);
            reg.counter("vantage.segments.executed").add(stats.executed);
            reg.counter("vantage.segments.stolen").add(stats.stolen);
        }
    }
}

/// The union of every successful probe target across a round's scan
/// results — the raw, pre-cleaning responsive set the disagreement
/// analysis compares across vantages. (The *cleaned* sets would hide
/// the GFW split: cleaning exists precisely to delete it.)
fn raw_hits(results: &[ScanResult]) -> AddrSet {
    let mut addrs: Vec<Addr> = results.iter().flat_map(ScanResult::hit_addrs).collect();
    addrs.sort_unstable();
    addrs.dedup();
    AddrSet::from_sorted_addrs(&addrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_vantage_fleet_matches_the_plain_service() {
        let scale = Scale::tiny();
        let faults = FaultConfig::lossless().with_drop_permille(2);
        let config = ServiceConfig::default();

        let net = Internet::build(scale).with_faults(faults.clone());
        let mut svc = HitlistService::new(config.clone());
        svc.run(&net, Day(0), Day(12));

        let fleet_config =
            FleetConfig::new(scale, 1).with_faults(faults).with_service(config).with_threads(3);
        let mut fleet = VantageFleet::build(fleet_config);
        fleet.run(Day(0), Day(12));

        assert_eq!(fleet.service(0).rounds(), svc.rounds());
        assert_eq!(fleet.service(0).current_responsive(), svc.current_responsive());
    }

    #[test]
    fn three_vantage_fleet_reports_every_batch() {
        let scale = Scale::tiny();
        let mut fleet = VantageFleet::build(FleetConfig::new(scale, 3).with_threads(4));
        fleet.run(Day(0), Day(6));
        assert_eq!(fleet.reports().len(), 7, "one report per synchronized day");
        for report in fleet.reports() {
            assert_eq!(report.vantages.len(), 3);
            assert!(report.union >= report.intersection);
        }
        assert!(fleet.stats().executed > 0);
    }
}
