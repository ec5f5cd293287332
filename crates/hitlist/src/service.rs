//! The IPv6 Hitlist service loop (Fig. 1 of the paper).
//!
//! Each round: ingest sources → filter (blocklist, aliased prefixes,
//! 30-day) → scan five protocols with ZMapv6 semantics → clean UDP/53 from
//! GFW injections (once the paper's filter is deployed) → traceroute for
//! new candidates → periodically re-run the multi-level aliased prefix
//! detection. The service records both the **published** view (what the
//! real service reported until February 2022, spikes included) and the
//! **cleaned** view (the paper's retroactive correction) so Fig. 3 can be
//! drawn from one run.

use std::time::{Duration, Instant};

use sixdust_addr::{prf, Addr, AddrHashMap, AddrHashSet, AddrSet, PrefixSet};
use sixdust_alias::{candidates, AliasDetector, DetectorConfig};
use sixdust_json::json_struct;
use sixdust_net::{events, Day, Internet, ProbeKind, ProtoSet, Protocol};
use sixdust_scan::{scan_jobs, ScanConfig, ScanJob, ScanResult};
use sixdust_telemetry::{MadConfig, MadDetector, Observer, Registry, TraceSpan};

use crate::filters::{Blocklist, GfwFilter, UnresponsiveFilter};
use crate::sources;

/// Service configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Scanner settings shared by all protocol modules.
    /// [`ScanConfig::threads`] is the round's one thread budget: the
    /// five protocol scans share it. Alias detection probes on the
    /// calling thread.
    pub scan: ScanConfig,
    /// Alias detector settings.
    pub detector: DetectorConfig,
    /// Day the GFW cleaning filter goes live (None = never; the paper's
    /// deployment day by default).
    pub gfw_filter_from: Option<Day>,
    /// Days between alias detection runs.
    pub alias_every_days: u32,
    /// Maximum traceroute targets per round.
    pub traceroute_cap: usize,
    /// Days whose full responsive sets are kept as snapshots.
    pub snapshot_days: Vec<Day>,
    /// Aggregate loss estimate (permille) at or above which a round is
    /// classified degraded and quarantined instead of swept by the 30-day
    /// filter. A round is also degraded when ≥3 protocol monitors flag a
    /// *downward* anomaly, or when a non-empty target list yields zero
    /// responses (vantage blackout).
    pub degraded_loss_permille: u32,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            scan: ScanConfig::default(),
            detector: DetectorConfig::default(),
            gfw_filter_from: Some(events::GFW_FILTER_DEPLOYED),
            alias_every_days: 28,
            traceroute_cap: 4000,
            snapshot_days: Day::SNAPSHOTS.to_vec(),
            degraded_loss_permille: 350,
        }
    }
}

impl ServiceConfig {
    /// Returns the config with a different scanner configuration.
    pub fn with_scan(mut self, scan: ScanConfig) -> ServiceConfig {
        self.scan = scan;
        self
    }

    /// Returns the config with a different alias detector configuration.
    pub fn with_detector(mut self, detector: DetectorConfig) -> ServiceConfig {
        self.detector = detector;
        self
    }

    /// Returns the config with a different GFW filter deployment day.
    pub fn with_gfw_filter_from(mut self, day: Option<Day>) -> ServiceConfig {
        self.gfw_filter_from = day;
        self
    }

    /// Returns the config with a different alias detection cadence.
    pub fn with_alias_every_days(mut self, days: u32) -> ServiceConfig {
        self.alias_every_days = days;
        self
    }

    /// Returns the config with a different traceroute cap.
    pub fn with_traceroute_cap(mut self, cap: usize) -> ServiceConfig {
        self.traceroute_cap = cap;
        self
    }

    /// Returns the config with a different degraded-round loss threshold.
    pub fn with_degraded_loss_permille(mut self, permille: u32) -> ServiceConfig {
        self.degraded_loss_permille = permille;
        self
    }

    /// Returns the config with different snapshot days.
    pub fn with_snapshot_days(mut self, days: Vec<Day>) -> ServiceConfig {
        self.snapshot_days = days;
        self
    }
}

/// Per-round longitudinal record (the rows behind Figs. 3 and 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// Scan day.
    pub day: Day,
    /// Accumulated input size after ingestion.
    pub input_total: usize,
    /// Addresses actually probed this round.
    pub targets: usize,
    /// Responsive count per protocol, published view (Protocol::ALL order).
    pub published: [u64; 5],
    /// Responsive count per protocol, GFW-cleaned view.
    pub cleaned: [u64; 5],
    /// Addresses responsive to ≥1 protocol, published view.
    pub total_published: u64,
    /// Addresses responsive to ≥1 protocol, cleaned view.
    pub total_cleaned: u64,
    /// Newly responsive addresses never seen responsive before (cleaned).
    pub churn_brand_new: u64,
    /// Newly responsive addresses that were responsive in some earlier
    /// round but not the previous one (cleaned).
    pub churn_recurring: u64,
    /// Addresses responsive in the previous round but not this one.
    pub churn_gone: u64,
    /// Currently labeled aliased prefixes.
    pub aliased_prefixes: usize,
    /// Addresses dropped by the 30-day filter this round.
    pub dropped: usize,
    /// Per-protocol anomaly verdicts on the published counts
    /// (Protocol::ALL order): `true` where the online MAD monitor judged
    /// this round's count far outside its rolling baseline — the live
    /// version of Fig. 3's GFW spike eras. Absent in records checkpointed
    /// before the monitor existed, hence the optional key.
    pub anomalous: [bool; 5],
    /// Whether this round was classified degraded (heavy loss, outage or
    /// broad downward anomaly) and therefore quarantined: the 30-day
    /// filter did not sweep, and the silent days will not count against
    /// any address. Absent in pre-quarantine checkpoints.
    pub degraded: bool,
    /// Aggregate loss estimate for the round's scans in permille,
    /// weighting each protocol by the probes it *sent* (0 when
    /// unobservable, 1000 on a total blackout). A protocol with a
    /// cleaned-responsive history that goes completely silent counts as
    /// 1000‰ for its share of probes: weighting by responses — as this
    /// service once did — gives exactly the blacked-out scans zero say
    /// in the average the degraded-round classifier reads.
    pub loss_estimate_permille: u32,
}
json_struct!(RoundRecord {
    day,
    input_total,
    targets,
    published,
    cleaned,
    total_published,
    total_cleaned,
    churn_brand_new,
    churn_recurring,
    churn_gone,
    aliased_prefixes,
    dropped,
    anomalous = [false; 5],
    degraded = false,
    loss_estimate_permille = 0,
});

/// A retained full snapshot (Table 1 / Figs. 2, 9, 10 inputs).
///
/// The per-protocol sets are [`AddrSet`]s; they serialize as the same
/// plain address sequences the old `Vec<Addr>` layout wrote, so
/// checkpoints containing snapshots are byte-identical across the
/// representation change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Snapshot day (the first scan round at or after the requested day).
    pub day: Day,
    /// Cleaned responsive addresses per protocol.
    pub cleaned: Vec<(Protocol, AddrSet)>,
    /// Published responsive addresses per protocol.
    pub published: Vec<(Protocol, AddrSet)>,
    /// Aliased prefix labels at snapshot time (Fig. 5's yearly series).
    pub aliased: Vec<sixdust_addr::Prefix>,
}
json_struct!(Snapshot { day, cleaned, published, aliased });

/// The shared empty set returned by by-protocol accessors when a
/// protocol has no retained slice.
static EMPTY_SET: AddrSet = AddrSet::new();

impl Snapshot {
    /// The cleaned set for one protocol.
    pub fn cleaned_for(&self, proto: Protocol) -> &AddrSet {
        self.cleaned.iter().find(|(p, _)| *p == proto).map(|(_, v)| v).unwrap_or(&EMPTY_SET)
    }

    /// All addresses responsive to at least one protocol (cleaned).
    pub fn cleaned_total(&self) -> AddrSet {
        let mut total = AddrSet::new();
        for (_, set) in &self.cleaned {
            total.union_in_place(set);
        }
        total
    }
}

/// One round's pre-scan work product — what
/// [`HitlistService::prepare_round`] selected and
/// [`HitlistService::complete_round`] consumes. Between the two, any
/// executor may produce the per-protocol [`ScanResult`]s over `targets`
/// (the built-in path is [`HitlistService::scan_prepared`]).
#[derive(Debug)]
pub struct PreparedRound {
    /// The round's day.
    pub day: Day,
    /// Blocklist- and alias-filtered scan targets for every protocol.
    pub targets: Vec<Addr>,
    /// Whether the GFW filter deployment is live on `day` (the service
    /// publishes the cleaned view).
    pub gfw_live: bool,
    /// The round-spanning trace span; closes when the round completes.
    round_span: Option<TraceSpan>,
}

/// The running service.
#[derive(Debug)]
pub struct HitlistService {
    config: ServiceConfig,
    telemetry: Option<Registry>,
    blocklist: Blocklist,
    /// The 30-day filter, which also holds the input.
    unresp: UnresponsiveFilter,
    gfw: GfwFilter,
    detector: AliasDetector,
    aliased: PrefixSet,
    /// Cumulative per-address protocols (cleaned view).
    cumulative: AddrHashMap<ProtoSet>,
    /// Previous round's cleaned responsive set (churn baseline).
    prev_responsive: AddrSet,
    /// Every address ever seen cleaned-responsive.
    ever: AddrSet,
    /// Whether each protocol (Protocol::ALL order) has ever produced a
    /// cleaned responsive hit. Distinguishes a previously-alive protocol
    /// going totally silent (loss) from one that was always dark (not
    /// loss); replayed from the round records on restore so resumed
    /// services estimate identically.
    proto_seen: [bool; 5],
    next_alias_day: Day,
    pending_snapshots: Vec<Day>,
    rounds: Vec<RoundRecord>,
    snapshots: Vec<Snapshot>,
    /// The most recent round's cleaned responsive sets per protocol
    /// (Protocol::ALL order) — retained every round, not just snapshot
    /// days, so publication and the serve layer can slice the current
    /// state by protocol.
    last_proto_cleaned: Vec<(Protocol, AddrSet)>,
    last_zone_week: Option<u32>,
    /// One online MAD monitor per protocol, fed the published responsive
    /// counts (Protocol::ALL order). Always on: the detectors are a few
    /// floats of state and make every round self-describing.
    anomaly: [MadDetector; 5],
    /// Rounds since the last *clean* publish (neither degraded nor
    /// anomaly-flagged) — the publish-freshness signal, exported as the
    /// `service.publish.staleness_rounds` gauge and judged by the
    /// `publish-freshness` SLO.
    staleness_rounds: u32,
    observer: Option<Observer>,
}

impl HitlistService {
    /// Creates a fresh service.
    pub fn new(config: ServiceConfig) -> HitlistService {
        let mut pending = config.snapshot_days.clone();
        pending.sort_unstable();
        HitlistService {
            detector: AliasDetector::new(config.detector.clone()),
            config,
            telemetry: None,
            blocklist: Blocklist::new(),
            unresp: UnresponsiveFilter::new(),
            gfw: GfwFilter::new(),
            aliased: PrefixSet::new(),
            cumulative: AddrHashMap::default(),
            prev_responsive: AddrSet::new(),
            ever: AddrSet::new(),
            proto_seen: [false; 5],
            next_alias_day: Day(0),
            pending_snapshots: pending,
            rounds: Vec::new(),
            snapshots: Vec::new(),
            last_proto_cleaned: Vec::new(),
            last_zone_week: None,
            anomaly: std::array::from_fn(|_| MadDetector::new(MadConfig::default())),
            staleness_rounds: 0,
            observer: None,
        }
    }

    /// Attaches a metrics registry: per-round counters and phase duration
    /// histograms land there (`service.*`), and the embedded alias detector
    /// reports its own `alias.*` series to the same registry.
    pub fn with_telemetry(mut self, registry: Registry) -> HitlistService {
        self.detector.set_telemetry(registry.clone());
        self.telemetry = Some(registry);
        self
    }

    /// Attaches an [`Observer`], which records and judges a round at the
    /// end of every [`HitlistService::run_round`], after the round's
    /// counters; its registry becomes the service's telemetry registry.
    /// A flight recorder installed in that registry
    /// ([`Registry::install_flight`]) also receives the round's anomaly
    /// and degraded-round events, and a capture at each degraded-round or
    /// anomaly onset.
    pub fn with_observer(self, observer: Observer) -> HitlistService {
        let mut svc = self.with_telemetry(observer.registry().clone());
        svc.observer = Some(observer);
        svc
    }

    /// The observer, if one was attached with
    /// [`HitlistService::with_observer`].
    pub fn observer(&self) -> Option<&Observer> {
        self.observer.as_ref()
    }

    /// The observer, to fold out-of-band registry activity (the serve day
    /// `sixdust-exp` replays) into the same series as one more round.
    pub fn observer_mut(&mut self) -> Option<&mut Observer> {
        self.observer.as_mut()
    }

    /// The service's blocklist (opt-out registration).
    pub fn blocklist_mut(&mut self) -> &mut Blocklist {
        &mut self.blocklist
    }

    /// Overrides the 30-day filter window (ablation support; a very large
    /// window effectively disables the filter).
    pub fn set_unresponsive_window(&mut self, days: u32) {
        self.unresp.window = days;
    }

    /// Accumulated input addresses, active and dropped: the 30-day filter's.
    pub fn input(&self) -> &AddrHashSet {
        self.unresp.input()
    }

    /// Current aliased prefix labels.
    pub fn aliased(&self) -> &PrefixSet {
        &self.aliased
    }

    /// The alias detector (fingerprints and details live here).
    pub fn detector(&self) -> &AliasDetector {
        &self.detector
    }

    /// GFW-impacted addresses recorded so far, the GFW filter's own set.
    pub fn gfw_impacted(&self) -> &AddrSet {
        self.gfw.impacted()
    }

    /// The 30-day-filtered pool (Sec. 6's re-scan source): the input
    /// without a clock, built on each call.
    pub fn unresponsive_pool(&self) -> AddrSet {
        self.unresp.dropped_pool()
    }

    /// The 30-day unresponsive filter itself (active clocks, quarantined
    /// windows — checkpoint capture reads these).
    pub fn unresponsive(&self) -> &UnresponsiveFilter {
        &self.unresp
    }

    /// The day the next periodic alias detection is due.
    pub fn next_alias_day(&self) -> Day {
        self.next_alias_day
    }

    /// Rounds classified degraded (and therefore quarantined) so far.
    pub fn degraded_rounds(&self) -> usize {
        self.rounds.iter().filter(|r| r.degraded).count()
    }

    /// Rebuilds a service from a checkpoint — the inverse of
    /// [`ServiceState::capture`](crate::ServiceState::capture). The alias
    /// detector gets its merge window back (a checkpoint older than v4
    /// has none: the labels are restored and the detector restarts cold)
    /// and the per-protocol anomaly monitors are re-warmed by replaying
    /// the checkpointed published series, so a resumed service continues
    /// the timeline the original would have produced.
    pub fn from_state(config: ServiceConfig, state: &crate::state::ServiceState) -> HitlistService {
        let mut svc = HitlistService::new(config);
        svc.aliased = state.aliased.iter().copied().collect();
        svc.detector.restore(&state.alias_window, &state.alias_detail);
        svc.gfw = GfwFilter::restore(state.gfw_impacted.clone());
        let active: Vec<(Addr, Day)> = if state.active.is_empty() && !state.input.is_empty() {
            // v1 checkpoint: per-address clocks were not captured, so
            // every still-active input restarts its clock at the last
            // checkpointed round (graceful, slightly lenient fallback).
            let day = state.rounds.last().map(|r| r.day).unwrap_or(Day(0));
            let dropped = &state.unresponsive_pool;
            state.input.addrs().filter(|a| !dropped.contains_addr(*a)).map(|a| (a, day)).collect()
        } else {
            state.active.clone()
        };
        svc.unresp = UnresponsiveFilter::restore(
            active,
            state.unresponsive_pool.addrs(),
            state.unresponsive_window,
            state.quarantined.clone(),
        );
        svc.cumulative = state.cumulative.iter().copied().collect();
        svc.prev_responsive = state.current_responsive.clone();
        // `ever` and `cumulative` accumulate from the same cleaned hits.
        svc.ever = state.cumulative.iter().map(|(a, _)| *a).collect();
        svc.next_alias_day = state.next_alias_day;
        svc.rounds = state.rounds.clone();
        svc.snapshots = state.snapshots.clone();
        // Per-protocol sets are only checkpointed inside snapshots; when
        // the last checkpointed round was a snapshot day its sets are the
        // current ones, otherwise they re-fill on the next round.
        svc.last_proto_cleaned = match (state.snapshots.last(), state.rounds.last()) {
            (Some(snap), Some(round)) if snap.day == round.day => snap.cleaned.clone(),
            _ => Vec::new(),
        };
        // The week whose zone sample the input already holds; see
        // `ingest_sources` for why a resume must not forget it.
        svc.last_zone_week = state.rounds.last().map(|r| r.day.0 / 7);
        let mut pending = svc.config.snapshot_days.clone();
        pending.sort_unstable();
        pending.drain(..state.snapshots.len().min(pending.len()));
        svc.pending_snapshots = pending;
        for r in &state.rounds {
            for i in 0..5 {
                svc.anomaly[i].observe(r.published[i] as f64);
                svc.proto_seen[i] |= r.cleaned[i] > 0;
            }
            // Replay the publish-freshness clock so a resumed service
            // reports the same staleness the original would have.
            let clean = !r.degraded && !r.anomalous.iter().any(|&a| a);
            svc.staleness_rounds = if clean { 0 } else { svc.staleness_rounds.saturating_add(1) };
        }
        svc
    }

    /// Addresses responsive at least once, with their cumulative protocol
    /// sets (cleaned view).
    pub fn cumulative(&self) -> &AddrHashMap<ProtoSet> {
        &self.cumulative
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Longitudinal per-round records.
    pub fn rounds(&self) -> &[RoundRecord] {
        &self.rounds
    }

    /// Retained snapshots.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// The most recent cleaned responsive set (ascending iteration via
    /// [`AddrSet::iter`] / [`AddrSet::addrs`]).
    pub fn current_responsive(&self) -> &AddrSet {
        &self.prev_responsive
    }

    /// The most recent round's cleaned responsive sets per protocol
    /// (Protocol::ALL order). Empty until the first round runs (or, on a
    /// resumed service, until the first post-resume round when the
    /// checkpoint did not end on a snapshot day).
    pub fn proto_responsive(&self) -> &[(Protocol, AddrSet)] {
        &self.last_proto_cleaned
    }

    /// Approximate heap bytes currently held by the service's address
    /// sets: the churn baselines, the per-protocol slices of the last
    /// round, and every retained snapshot. This is the resident-set
    /// metric the population-scale bench curve tracks.
    pub fn resident_set_bytes(&self) -> usize {
        let mut bytes = self.prev_responsive.mem_bytes() + self.ever.mem_bytes();
        for (_, set) in &self.last_proto_cleaned {
            bytes += set.mem_bytes();
        }
        for snap in &self.snapshots {
            for (_, set) in snap.cleaned.iter().chain(snap.published.iter()) {
                bytes += set.mem_bytes();
            }
        }
        bytes
    }

    /// Round stage 1: admits every candidate that is due on `day`.
    ///
    /// The service *samples* the zone once a week, on the first round of
    /// each week; the zone itself moves faster (cloud answers rotate on
    /// `day / 4`), so which rotation slots the input accumulates depends
    /// on the days it is walked. `last_zone_week` is therefore resume
    /// state: [`HitlistService::from_state`] restores it from the last
    /// checkpointed round, or a service resumed mid-week would walk the
    /// zone again and ingest a 4-day slot the uninterrupted run never saw.
    fn ingest_sources(&mut self, net: &Internet, day: Day) {
        let week = day.0 / 7;
        let zone_due = self.last_zone_week != Some(week);
        self.last_zone_week = Some(week);
        let unresp = &mut self.unresp;
        let mut new = 0u64;
        let offered = sources::for_each_due(net, day, zone_due, |a| {
            if unresp.register(a, day) {
                new += 1;
            }
        });
        if let Some(t) = &self.telemetry {
            t.counter("service.ingest.offered").add(offered);
            t.counter("service.ingest.new").add(new);
        }
    }

    fn traceroute(&mut self, net: &Internet, day: Day) {
        // Rotating weekly sample of the whole input (covers the Chinese
        // router pools whose interfaces rotate weekly).
        let targets =
            traceroute_sample(self.input(), self.config.traceroute_cap, u64::from(day.0 / 7));
        let (discovered, answered) =
            net.trace_tails(&targets, 3, &ProbeKind::IcmpEcho { size: 16 }, day);
        // The input's other way in: with `service.ingest.new`, these add
        // up to its growth.
        let mut new = 0u64;
        for &hop in &discovered {
            if self.unresp.register(hop, day) {
                new += 1;
            }
        }
        if let Some(t) = &self.telemetry {
            t.counter("service.traceroute.offered").add(answered);
            t.counter("service.traceroute.new").add(new);
        }
    }

    /// Records one phase duration, in milliseconds, when telemetry is
    /// attached. Every phase is recorded every round so each
    /// `service.round.phase.*` histogram has exactly one sample per round;
    /// sub-millisecond phases round up to `1` rather than truncating to a
    /// never-ran-looking `0` (see [`sixdust_telemetry::Histogram::record_duration`]).
    fn record_phase(&self, phase: Phase, elapsed: Duration) {
        if let Some(t) = &self.telemetry {
            t.histogram(Phase::HISTOGRAMS[phase as usize]).record_duration(elapsed);
        }
    }

    /// Records the round's scan-phase duration on behalf of an external
    /// executor that bypasses [`HitlistService::scan_prepared`] (the
    /// multi-vantage scheduler runs the protocol scans itself). Keeps the
    /// `service.round.phase.scan_ms` histogram at exactly one sample per
    /// round, the invariant every other phase histogram upholds.
    pub fn record_external_scan_phase(&self, elapsed: Duration) {
        self.record_phase(Phase::Scan, elapsed);
    }

    /// Runs one full service round on `day`.
    ///
    /// Composed from the three round stages — [`HitlistService::prepare_round`]
    /// (sources, alias detection, target selection),
    /// [`HitlistService::scan_prepared`] (the five protocol scans), and
    /// [`HitlistService::complete_round`] (merge, cleaning, bookkeeping) —
    /// which external schedulers (the multi-vantage fleet in
    /// `sixdust-vantage`) drive individually to interleave many services'
    /// scan work.
    pub fn run_round(&mut self, net: &Internet, day: Day) -> &RoundRecord {
        let prepared = self.prepare_round(net, day);
        let results = self.scan_prepared(net, &prepared);
        self.complete_round(net, prepared, results)
    }

    /// Round stages 1–3: source ingestion, periodic alias detection, and
    /// target selection — everything that must happen before the first
    /// probe of the round is sent. Opens the round's trace span; it closes
    /// when the returned [`PreparedRound`] is consumed by
    /// [`HitlistService::complete_round`].
    pub fn prepare_round(&mut self, net: &Internet, day: Day) -> PreparedRound {
        // Resolve the trace journal once per round (like metric handles).
        let tracer = self.telemetry.as_ref().and_then(|t| t.tracer());
        let day_str = day.0.to_string();
        let round_span =
            tracer.as_ref().map(|j| j.span_with("service.round", &[("day", day_str.as_str())]));

        // 1. Sources.
        let phase_started = Instant::now();
        self.ingest_sources(net, day);
        self.record_phase(Phase::Ingest, phase_started.elapsed());

        self.select_targets(net, day, round_span)
    }

    /// Round stages 2–3, over whatever the input holds once stage 1 ran.
    fn select_targets(
        &mut self,
        net: &Internet,
        day: Day,
        round_span: Option<TraceSpan>,
    ) -> PreparedRound {
        // 2. Alias detection (periodic) — runs before target selection so
        // even the very first scan is alias-filtered, like the pipeline in
        // Fig. 1.
        let phase_started = Instant::now();
        if day >= self.next_alias_day {
            let input_vec: Vec<Addr> = self.input().iter().copied().collect();
            let cands = candidates(net, &input_vec, self.config.detector.min_addrs_long);
            self.detector.run_round(net, &cands, day);
            self.aliased = self.detector.aliased();
            self.next_alias_day = day.plus(self.config.alias_every_days);
        }
        self.record_phase(Phase::Alias, phase_started.elapsed());

        // 3. Target selection.
        let phase_started = Instant::now();
        let aliased = &self.aliased;
        let blocklist = &self.blocklist;
        let targets: Vec<Addr> = self
            .unresp
            .active_targets()
            .filter(|a| blocklist.allows(*a) && !aliased.covers_addr(*a))
            .collect();
        self.record_phase(Phase::Select, phase_started.elapsed());

        let gfw_live = self.config.gfw_filter_from.map(|d| day >= d).unwrap_or(false);
        PreparedRound { day, targets, gfw_live, round_span }
    }

    /// The scans of a prepared round as one scheduler job: every target
    /// probed on the five protocols, results in `Protocol::ALL` order —
    /// what [`HitlistService::scan_prepared`] runs, for an executor that
    /// batches several services' rounds.
    pub fn round_job<'a>(&'a self, net: &'a Internet, prepared: &'a PreparedRound) -> ScanJob<'a> {
        ScanJob {
            net,
            protocols: &Protocol::ALL,
            targets: &prepared.targets,
            day: prepared.day,
            config: &self.config.scan,
            telemetry: self.telemetry.as_ref(),
        }
    }

    /// Round stage 3b: the five protocol scans over a prepared round's
    /// targets, as one [`scan_jobs`] call on the round's thread budget:
    /// one walk of the targets, each resolved once and probed on all five
    /// protocols (a budget of 1 walks on the calling thread). A scan is a
    /// pure function of (net, protocol, targets, day, config), and the
    /// merge in [`HitlistService::complete_round`] is strictly sequential
    /// in Protocol::ALL order: records, snapshots and checkpoints come
    /// out byte-identical at any thread budget. The returned results are
    /// in `Protocol::ALL` order, which is what `complete_round` requires —
    /// external executors producing the same ordered results by other
    /// partitions are interchangeable.
    pub fn scan_prepared(&self, net: &Internet, prepared: &PreparedRound) -> Vec<ScanResult> {
        let scan_started = Instant::now();
        let (results, _) = scan_jobs(self.config.scan.threads, &[self.round_job(net, prepared)]);
        self.record_phase(Phase::Scan, scan_started.elapsed());
        results
    }

    /// Round stages 3c–9: merge the per-protocol scan results (which must
    /// be in `Protocol::ALL` order over the prepared targets), clean,
    /// classify, sweep, traceroute, and record. Consumes the
    /// [`PreparedRound`], closing the round's trace span.
    pub fn complete_round(
        &mut self,
        net: &Internet,
        prepared: PreparedRound,
        results: Vec<ScanResult>,
    ) -> &RoundRecord {
        let PreparedRound { day, targets, gfw_live, mut round_span } = prepared;
        let tracer = self.telemetry.as_ref().and_then(|t| t.tracer());
        let flight = self.telemetry.as_ref().and_then(|t| t.flight());
        let day_str = day.0.to_string();

        // 3c. Merge, strictly in Protocol::ALL order. GFW cleaning
        // mutates filter state and stays sequential; set bookkeeping
        // accumulates into chunked [`AddrSet`]s one /32 bucket at a time
        // instead of per-protocol HashSet churn or full flat-vector
        // rebuilds.
        let mut published = [0u64; 5];
        let mut cleaned = [0u64; 5];
        let mut responsive_published = AddrSet::new();
        let mut responsive_cleaned = AddrSet::new();
        let mut proto_cleaned_sets: Vec<(Protocol, AddrSet)> = Vec::new();
        let mut proto_published_sets: Vec<(Protocol, AddrSet)> = Vec::new();
        let mut gfw_elapsed = Duration::ZERO;
        let mut loss_weighted = 0u64;
        let mut sent_total = 0u64;
        let mut received_total = 0u64;
        for (i, result) in results.into_iter().enumerate() {
            let proto = result.protocol;
            debug_assert_eq!(proto, Protocol::ALL[i], "merge order is Protocol::ALL order");
            // Weight each scan's loss estimate by the probes it *sent*.
            // Weighting by responses — as this loop once did — hands a
            // fully blacked-out protocol zero weight, hiding exactly the
            // rounds the estimate feeds the degraded classifier for. A
            // protocol whose cleaned history proves it can answer
            // (`proto_seen`, read before this round updates it) counts
            // a zero-response scan as total loss; an always-dark one
            // stays excluded (dark space is not loss).
            let sent = result.stats.sent;
            let per_scan = if sent > 0 && result.stats.received == 0 && self.proto_seen[i] {
                1000
            } else {
                u64::from(result.stats.loss_estimate_permille)
            };
            loss_weighted += per_scan * sent;
            sent_total += sent;
            received_total += result.stats.received;
            let mut pub_hits: Vec<Addr> = result.hit_addrs().collect();
            pub_hits.sort_unstable();
            let pub_set = AddrSet::from_sorted_addrs(&pub_hits);
            let gfw_started = Instant::now();
            let clean_set: AddrSet = if proto == Protocol::Udp53 {
                let mut v = self.gfw.clean(&result);
                v.sort_unstable();
                AddrSet::from_sorted_addrs(&v)
            } else {
                pub_set.clone()
            };
            gfw_elapsed += gfw_started.elapsed();
            published[i] = pub_set.len() as u64;
            cleaned[i] = clean_set.len() as u64;
            self.proto_seen[i] |= !clean_set.is_empty();
            responsive_published.union_in_place(&pub_set);
            responsive_cleaned.union_in_place(&clean_set);
            for a in clean_set.addrs() {
                self.cumulative.entry(a).or_insert(ProtoSet::EMPTY).insert(proto);
            }
            proto_published_sets.push((proto, pub_set));
            proto_cleaned_sets.push((proto, clean_set));
        }
        self.record_phase(Phase::Gfw, gfw_elapsed);

        // 4. Once the filter is deployed the service *publishes* cleaned
        // results too (the February 2022 drop in Fig. 3 left).
        if gfw_live {
            published = cleaned;
            responsive_published = responsive_cleaned.clone();
        }

        // 4b. Online anomaly monitoring over the published counts — the
        // view the real service fed its users, where the GFW injections
        // actually showed up (Fig. 3 left). Anomalous rounds are not
        // absorbed into the baseline, so multi-round eras stay flagged
        // from first spike to last. Runs before the 30-day sweep because
        // broad *downward* anomalies feed the degraded-round classifier.
        let mut anomalous = [false; 5];
        let mut downward_anomalies = 0usize;
        for (i, [.., anomaly_name]) in PROTO_COUNTERS.into_iter().enumerate() {
            let verdict = self.anomaly[i].observe(published[i] as f64);
            anomalous[i] = verdict.anomalous;
            if verdict.anomalous && verdict.z < 0.0 {
                downward_anomalies += 1;
            }
            if verdict.anomalous {
                let value = published[i].to_string();
                let z = format!("{:.1}", verdict.z);
                let args =
                    [("day", day_str.as_str()), ("value", value.as_str()), ("z", z.as_str())];
                if let Some(j) = &tracer {
                    j.instant(anomaly_name, &args);
                }
                if let Some(flight) = &flight {
                    flight.note(day.0, anomaly_name, &args);
                }
            }
        }

        // 4c. Degraded-round classification: a round is degraded when the
        // scans themselves are suspect — heavy estimated loss, a total
        // blackout of a non-empty target list, or most protocols spiking
        // *downward* at once (loss is protocol-agnostic; a real population
        // collapse would show as churn, not a synchronized cliff).
        let loss_estimate_permille = if targets.is_empty() {
            0
        } else if received_total == 0 {
            1000
        } else {
            (loss_weighted / sent_total.max(1)) as u32
        };
        let degraded = !targets.is_empty()
            && (loss_estimate_permille >= self.config.degraded_loss_permille
                || downward_anomalies >= 3);

        // Publish freshness: rounds since the last *clean* publish. A
        // degraded or anomaly-flagged round ships a suspect hitlist, so
        // the staleness clock keeps counting until a round with neither.
        let clean_publish = !degraded && !anomalous.iter().any(|&a| a);
        self.staleness_rounds =
            if clean_publish { 0 } else { self.staleness_rounds.saturating_add(1) };

        // 5. Responsiveness bookkeeping: before the filter deployment the
        // service kept GFW-"responsive" addresses in rotation. A degraded
        // round still credits whoever answered, but never sweeps: silence
        // during a broken measurement proves nothing, so the round's days
        // are quarantined in the 30-day filter instead.
        let effective: &AddrSet =
            if gfw_live { &responsive_cleaned } else { &responsive_published };
        for a in effective.addrs() {
            self.unresp.mark_responsive(a, day);
        }
        let dropped = if degraded {
            let from = self.rounds.last().map(|r| r.day.plus(1)).unwrap_or(day);
            self.unresp.quarantine(from, day.plus(1));
            let loss = loss_estimate_permille.to_string();
            let downward = downward_anomalies.to_string();
            let args = [
                ("day", day_str.as_str()),
                ("loss_permille", loss.as_str()),
                ("downward_anomalies", downward.as_str()),
            ];
            if let Some(j) = &tracer {
                j.instant("service.degraded", &args);
            }
            if let Some(flight) = &flight {
                flight.note(day.0, "service.degraded", &args);
            }
            0
        } else {
            self.unresp.sweep(day)
        };

        // 6. Traceroutes discover new candidates for the next round.
        let phase_started = Instant::now();
        self.traceroute(net, day);
        self.record_phase(Phase::Traceroute, phase_started.elapsed());

        // 7. Churn accounting (cleaned view, Fig. 4): an address newly
        // responsive this round is "brand new" if no earlier round ever saw
        // it responsive, "recurring" otherwise.
        let phase_started = Instant::now();
        let newly = responsive_cleaned.diff(&self.prev_responsive);
        // A linear merge count per chunk pair, not a per-address binary
        // search over `ever` — the newly-responsive set is intersected
        // against the ever-responsive accumulator in one pass.
        let churn_recurring = newly.intersect_count(&self.ever) as u64;
        let churn_brand_new = (newly.len() - churn_recurring as usize) as u64;
        let churn_gone = self.prev_responsive.diff_count(&responsive_cleaned) as u64;
        self.ever.union_in_place(&responsive_cleaned);
        self.record_phase(Phase::Churn, phase_started.elapsed());

        let record = RoundRecord {
            day,
            input_total: self.input().len(),
            targets: targets.len(),
            published,
            cleaned,
            total_published: responsive_published.len() as u64,
            total_cleaned: responsive_cleaned.len() as u64,
            churn_brand_new,
            churn_recurring,
            churn_gone,
            aliased_prefixes: self.aliased.len(),
            dropped,
            anomalous,
            degraded,
            loss_estimate_permille,
        };
        self.prev_responsive = responsive_cleaned;

        // Counters are fed from the very values the record carries, so a
        // registry snapshot reconciles exactly with summed RoundRecords.
        if let Some(t) = &self.telemetry {
            t.counter("service.rounds").incr();
            t.counter("service.targets").add(record.targets as u64);
            t.counter("service.dropped").add(record.dropped as u64);
            t.counter("service.churn.brand_new").add(record.churn_brand_new);
            t.counter("service.churn.recurring").add(record.churn_recurring);
            t.counter("service.churn.gone").add(record.churn_gone);
            // 0/1 per round, like the anomaly flags below.
            t.counter("service.degraded_rounds").add(u64::from(record.degraded));
            // Flags raised this round across all protocols — the dashboard's
            // round-health strip reads this as its amber signal.
            t.counter("service.anomalies")
                .add(record.anomalous.iter().filter(|&&a| a).count() as u64);
            t.gauge("service.loss_estimate_permille").set(i64::from(record.loss_estimate_permille));
            t.gauge("service.publish.staleness_rounds").set(i64::from(self.staleness_rounds));
            for (i, [published, cleaned, anomaly]) in PROTO_COUNTERS.into_iter().enumerate() {
                t.counter(published).add(record.published[i]);
                t.counter(cleaned).add(record.cleaned[i]);
                // 0/1 per round, so the series recorder's deltas expose a
                // ready-made per-round anomaly flag series.
                t.counter(anomaly).add(u64::from(record.anomalous[i]));
            }
        }

        // 8. Per-protocol state and snapshots. The per-protocol sets are
        // retained every round (publication and the serve layer read
        // them); snapshot days additionally archive them permanently.
        if self.pending_snapshots.first().is_some_and(|d| day >= *d) {
            self.pending_snapshots.remove(0);
            self.snapshots.push(Snapshot {
                day,
                cleaned: proto_cleaned_sets.clone(),
                published: proto_published_sets,
                aliased: self.aliased.iter().collect(),
            });
        }
        self.last_proto_cleaned = proto_cleaned_sets;

        // Onsets (first round of an episode) trigger black-box captures;
        // later rounds of the same episode only extend the event ring.
        let prev = self.rounds.last();
        let degraded_onset = record.degraded && prev.is_none_or(|r| !r.degraded);
        let anomaly_onset = record.anomalous.iter().any(|&a| a)
            && prev.is_none_or(|r| !r.anomalous.iter().any(|&a| a));
        self.rounds.push(record);

        // 9. Longitudinal series: record after every counter for the round
        // has been fed, so each SeriesRound is exactly this round's deltas,
        // and judge it.
        if let Some(observer) = &mut self.observer {
            observer.record(day.0);
        }
        if let Some(flight) = &flight {
            if degraded_onset {
                flight.capture(day.0, "degraded-round");
            } else if anomaly_onset {
                flight.capture(day.0, "mad-anomaly");
            }
        }
        if let Some(span) = &mut round_span {
            span.arg("targets", &targets.len().to_string());
        }

        self.rounds.last().expect("just pushed")
    }

    /// Runs the service from `from` to `until` (inclusive) with the
    /// historical scan cadence. The final round always lands exactly on
    /// `until` so snapshots for that day exist.
    pub fn run(&mut self, net: &Internet, from: Day, until: Day) {
        self.run_with(net, from, until, |_, _| {});
    }

    /// Like [`HitlistService::run`], but invokes `hook` with the service
    /// and the round's day after every completed round — the integration
    /// point for per-round consumers (checkpointing, publication into a
    /// serve-layer snapshot store) that must not live inside this crate.
    pub fn run_with(
        &mut self,
        net: &Internet,
        from: Day,
        until: Day,
        mut hook: impl FnMut(&HitlistService, Day),
    ) {
        for day in events::cadence(from, until) {
            self.run_round(net, day);
            hook(self, day);
        }
    }
}

/// The timed phases of a round; each records one sample a round.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Ingest,
    Alias,
    Select,
    Scan,
    Gfw,
    Traceroute,
    Churn,
}

impl Phase {
    /// The phases' histograms, in declaration order.
    const HISTOGRAMS: [&'static str; 7] = [
        "service.round.phase.ingest_ms",
        "service.round.phase.alias_ms",
        "service.round.phase.select_ms",
        "service.round.phase.scan_ms",
        "service.round.phase.gfw_ms",
        "service.round.phase.traceroute_ms",
        "service.round.phase.churn_ms",
    ];
}

/// The per-protocol counters of a round in `Protocol::ALL` order:
/// published hits, cleaned hits and the 0/1 anomaly flag.
const PROTO_COUNTERS: [[&str; 3]; 5] = [
    ["service.hits.published.icmp", "service.hits.cleaned.icmp", "service.anomaly.icmp"],
    ["service.hits.published.tcp443", "service.hits.cleaned.tcp443", "service.anomaly.tcp443"],
    ["service.hits.published.tcp80", "service.hits.cleaned.tcp80", "service.anomaly.tcp80"],
    ["service.hits.published.udp443", "service.hits.cleaned.udp443", "service.anomaly.udp443"],
    ["service.hits.published.udp53", "service.hits.cleaned.udp53", "service.anomaly.udp53"],
];

/// One week's rotating traceroute sample, ascending by address. The PRF
/// filter admits roughly `cap · stride` of the input; the cap then keeps
/// the `cap` *lowest draws*, a fresh pseudo-random cross-section each
/// week. Ranking by the draw rather than by address is what makes the
/// sample actually rotate: cutting a sorted-by-address candidate list at
/// `cap` — as this service once did — handed the numerically lowest
/// addresses a permanent seat, and with `stride == 1` returned the
/// identical set every single week. Ties break by address, so the result
/// is deterministic at any HashSet iteration order.
///
/// The draw chooses and the address orders: nothing a traceroute finds or
/// counts depends on the order of its targets, and neighbours in address
/// order share the BGP table's cache lines ([`Internet::trace_tails`]).
fn traceroute_sample(input: &AddrHashSet, cap: usize, week: u64) -> Vec<Addr> {
    let stride = MultipleOf::new((input.len() / cap.max(1)).max(1) as u64);
    let draws = prf::Keyed::new(0x7ace, week);
    let mut ranked: Vec<(u64, Addr)> = input
        .iter()
        .filter_map(|a| {
            let draw = draws.draw(a.0);
            stride.divides(draw).then_some((draw, *a))
        })
        .collect();
    if cap < ranked.len() {
        ranked.select_nth_unstable(cap);
        ranked.truncate(cap);
    }
    let mut sample: Vec<Addr> = ranked.into_iter().map(|(_, a)| a).collect();
    sample.sort_unstable();
    sample
}

/// `n % d == 0` for one divisor and many `n`, without dividing: `d` is
/// `odd · 2^k`, multiplying by the inverse of `odd` modulo 2^64 sends its
/// multiples — and nothing else — onto `0..=u64::MAX / odd`, and rotating
/// the low `k` bits to the top leaves a value that small only if they
/// were zero (Granlund and Montgomery 1994; Lemire, Kaser and Kurz 2019).
#[derive(Debug, Clone, Copy)]
struct MultipleOf {
    odd_inverse: u64,
    twos: u32,
    largest_quotient: u64,
}

impl MultipleOf {
    /// The test for multiples of `d`, which must not be zero.
    fn new(d: u64) -> MultipleOf {
        assert!(d > 0, "zero divisor");
        let twos = d.trailing_zeros();
        let odd = d >> twos;
        // Newton's iteration doubles the correct low bits: 3, 6, … 96.
        let mut odd_inverse = odd;
        for _ in 0..5 {
            odd_inverse =
                odd_inverse.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(odd_inverse)));
        }
        MultipleOf { odd_inverse, twos, largest_quotient: u64::MAX / d }
    }

    #[inline]
    fn divides(self, n: u64) -> bool {
        n.wrapping_mul(self.odd_inverse).rotate_right(self.twos) <= self.largest_quotient
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use sixdust_net::{FaultConfig, Internet, Scale};

    #[test]
    fn traceroute_sample_rotates_weekly_beyond_the_cap() {
        // An input 1.5× the cap makes the stride 1, so the PRF filter
        // admits *everything* — the exact regime where cutting a
        // sorted-by-address list at the cap returned the identical
        // lowest-`cap` set every single week.
        let cap = 100;
        let input: AddrHashSet =
            (0..150u128).map(|i| Addr((0x2001u128 << 112) | (i << 82) | 7)).collect();
        let mut all: Vec<Addr> = input.iter().copied().collect();
        all.sort_unstable();
        let lowest_cap: Vec<Addr> = all.iter().take(cap).copied().collect();

        let sample = |week: u64| -> Vec<Addr> {
            let mut s = traceroute_sample(&input, cap, week);
            s.sort_unstable();
            s
        };
        let w0 = sample(0);
        let w1 = sample(1);
        assert_eq!(w0, sample(0), "same week, same sample");
        assert_eq!(w0.len(), cap);
        assert_eq!(w1.len(), cap);
        assert_ne!(w0, w1, "consecutive weeks must draw different samples");
        assert_ne!(w0, lowest_cap, "the lowest addresses must not always win");
        assert_ne!(w1, lowest_cap, "the lowest addresses must not always win");
        // Linear chunk-merge intersection count — one pass over both
        // sorted samples, not a binary search per member.
        let overlap =
            AddrSet::from_sorted_addrs(&w0).intersect_count(&AddrSet::from_sorted_addrs(&w1));
        assert!(overlap < cap, "rotation changes membership beyond the cap boundary");
        // Small inputs are untouched: everything under the cap is traced.
        let tiny: AddrHashSet = all.iter().take(10).copied().collect();
        let mut traced = traceroute_sample(&tiny, cap, 3);
        traced.sort_unstable();
        assert_eq!(traced, all[..10].to_vec());
    }

    /// `traceroute_sample` as it read before: a remainder per address, and
    /// every admitted draw sorted to keep the lowest `cap`.
    fn traceroute_sample_by_sorting(input: &AddrHashSet, cap: usize, week: u64) -> Vec<Addr> {
        let stride = (input.len() / cap.max(1)).max(1) as u64;
        let mut ranked: Vec<(u64, Addr)> = input
            .iter()
            .filter_map(|a| {
                let draw = prf::prf_u128(0x7ace, a.0, week);
                draw.is_multiple_of(stride).then_some((draw, *a))
            })
            .collect();
        ranked.sort_unstable();
        ranked.truncate(cap);
        ranked.into_iter().map(|(_, a)| a).collect()
    }

    #[test]
    fn traceroute_sample_is_the_sorted_formula_as_a_set() {
        let mut rng = prf::PrfStream::new(0x5a3b1e, 0, 0);
        let mut addrs = |n: usize| -> AddrHashSet {
            (0..n)
                .map(|_| Addr(u128::from(rng.next_u64() % 64) << 64 | u128::from(rng.next_u64())))
                .collect()
        };
        // Strides of one, odd, a power of two and mixed; a cap of nothing,
        // a cap no filter fills, and an input smaller than the cap.
        let shapes = [1usize, 2, 3, 4, 6, 7, 8, 9, 12, 40]
            .map(|stride| (50, 50 * stride + 13))
            .into_iter()
            .chain([(0, 300), (1, 97), (300, 301), (300, 299), (1000, 300), (7, 0)]);
        let mut filled = 0;
        for (cap, len) in shapes {
            let input = addrs(len);
            for week in 0..6 {
                let sample = traceroute_sample(&input, cap, week);
                assert!(sample.is_sorted(), "cap {cap} of {len}, week {week}: ascending");
                let mut expected = traceroute_sample_by_sorting(&input, cap, week);
                expected.sort_unstable();
                assert_eq!(sample, expected, "cap {cap} of {len}, week {week}");
                filled += usize::from(cap > 0 && sample.len() == cap);
            }
        }
        assert!(filled >= 20, "the cap cut {filled} samples");
    }

    #[test]
    fn multiple_of_is_the_remainder_test() {
        let mut rng = prf::PrfStream::new(0xd1f1de, 0, 0);
        let fixed = [1, 2, 3, 5, 6, 7, 8, 12, 96, 1000, 1 << 32, 1 << 63, u64::MAX, u64::MAX - 1];
        let drawn: Vec<u64> = (0..200)
            .map(|i| match i % 4 {
                // Odd, a power of two, mixed and small.
                0 => rng.next_u64() | 1,
                1 => 1 << rng.next_bounded(64),
                2 => (rng.next_u64() >> rng.next_bounded(60)).max(1) << rng.next_bounded(4),
                _ => 1 + rng.next_bounded(5000),
            })
            .collect();
        for d in fixed.into_iter().chain(drawn) {
            let test = MultipleOf::new(d);
            // The ends, and every neighbour of the first and the last
            // multiples and of a few between.
            let mut quotients = vec![0, 1, 2, u64::MAX / d - 1, u64::MAX / d];
            quotients.extend((0..8).map(|_| rng.next_bounded(u64::MAX / d) + 1));
            let around = quotients
                .into_iter()
                .filter_map(|q| q.checked_mul(d))
                .flat_map(|m| [m.checked_sub(1), Some(m), m.checked_add(1)]);
            let anywhere: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
            let mut multiples = 0;
            for n in around.flatten().chain([0, u64::MAX]).chain(anywhere) {
                assert_eq!(test.divides(n), n.is_multiple_of(d), "{n} by {d}");
                multiples += u32::from(n.is_multiple_of(d));
            }
            assert!(multiples >= 6, "{d}: {multiples} multiples asked about");
        }
    }

    #[test]
    fn metric_name_tables_spell_the_families_out() {
        for (i, proto) in Protocol::ALL.into_iter().enumerate() {
            let key = sixdust_scan::proto_metric_key(proto);
            let expected = [
                format!("service.hits.published.{key}"),
                format!("service.hits.cleaned.{key}"),
                format!("service.anomaly.{key}"),
            ];
            assert_eq!(PROTO_COUNTERS[i].map(str::to_string), expected);
        }
        let phases = [
            (Phase::Ingest, "ingest"),
            (Phase::Alias, "alias"),
            (Phase::Select, "select"),
            (Phase::Scan, "scan"),
            (Phase::Gfw, "gfw"),
            (Phase::Traceroute, "traceroute"),
            (Phase::Churn, "churn"),
        ];
        assert_eq!(phases.len(), Phase::HISTOGRAMS.len());
        for (phase, name) in phases {
            let expected = format!("service.round.phase.{name}_ms");
            assert_eq!(Phase::HISTOGRAMS[phase as usize], expected);
        }
    }

    #[test]
    fn slo_breach_through_shared_series_path_freezes_a_capture() {
        let reg = Registry::new();
        let flight = sixdust_telemetry::FlightRecorder::new();
        reg.install_flight(&flight);
        let observer = Observer::new(&reg, sixdust_telemetry::SloEngine::standard());
        let mut svc = HitlistService::new(ServiceConfig::default()).with_observer(observer);
        assert!(svc.telemetry.is_some(), "the observer's registry is the service's");
        let rounds = reg.counter("service.rounds");
        let degraded = reg.counter("service.degraded_rounds");
        // Three consecutive fully-degraded rounds: the degraded-rounds
        // SLO's short (3) and long (12) windows both read 1000‰ bad
        // against a 50‰ budget — a 20× burn, breaching at round three.
        for key in 0..3 {
            rounds.incr();
            degraded.incr();
            svc.observer_mut().expect("attached above").record(key);
        }
        let engine = svc.observer().expect("attached above").slo();
        assert!(
            engine.breaches().iter().any(|b| b.slo == "degraded-rounds" && b.onset),
            "breach log must carry the degraded-rounds onset: {:?}",
            engine.breaches()
        );
        assert_eq!(flight.captures_len(), 1, "exactly one capture at the breach onset");
        let cap = &flight.captures()[0];
        assert_eq!(cap.reason, "slo:degraded-rounds");
        assert!(cap.events.iter().any(|e| e.kind == "slo.breach"));
        assert!(!cap.rounds.is_empty(), "captures carry the recent metric rounds");
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("slo.degraded-rounds.burn_short_milli"), Some(20_000));
        assert_eq!(snap.counter("slo.degraded-rounds.breach_rounds"), Some(1));
    }

    #[test]
    fn freshness_clock_counts_suspect_rounds_and_replays_through_checkpoints() {
        let mut svc = HitlistService::new(ServiceConfig::default());
        // Synthesize a round history: clean, degraded, anomalous, clean.
        let mk = |day: u32, degraded: bool, anomalous: bool| RoundRecord {
            day: Day(day),
            input_total: 0,
            targets: 0,
            published: [0; 5],
            cleaned: [0; 5],
            total_published: 0,
            total_cleaned: 0,
            churn_brand_new: 0,
            churn_recurring: 0,
            churn_gone: 0,
            aliased_prefixes: 0,
            dropped: 0,
            anomalous: [anomalous, false, false, false, false],
            degraded,
            loss_estimate_permille: 0,
        };
        svc.rounds =
            vec![mk(0, false, false), mk(1, true, false), mk(2, false, true), mk(3, false, false)];
        let state = crate::state::ServiceState::capture(&svc);
        let resumed = HitlistService::from_state(ServiceConfig::default(), &state);
        assert_eq!(resumed.staleness_rounds, 0, "last round was a clean publish");
        // Drop the final clean round: two suspect rounds back-to-back.
        svc.rounds.pop();
        let state = crate::state::ServiceState::capture(&svc);
        let resumed = HitlistService::from_state(ServiceConfig::default(), &state);
        assert_eq!(resumed.staleness_rounds, 2, "degraded then anomalous, never reset");
    }

    /// Stage 1 as the service ran it before sources streamed: every source
    /// materialised, in the old order, and the zone-backed ones dropped
    /// afterwards when their week had not changed.
    fn ingest_eagerly(svc: &mut HitlistService, net: &Internet, day: Day) {
        let week = day.0 / 7;
        let run_zone_sources = svc.last_zone_week != Some(week);
        svc.last_zone_week = Some(week);
        let zone_backed = [sources::domains_aaaa(net, day), sources::ct_logs(net, day)];
        let others = [
            sources::ripe_atlas(net, day),
            sources::rdns_import(net, day),
            sources::initial_import(net, day),
            sources::passive_visible(net, day),
            sources::discovery_drip(net, day),
        ];
        for addrs in zone_backed.into_iter().filter(|_| run_zone_sources).chain(others) {
            for a in addrs {
                svc.unresp.register(a, day);
            }
        }
    }

    fn active_clocks(svc: &HitlistService) -> HashMap<Addr, Day> {
        svc.unresponsive().active_entries().collect()
    }

    #[test]
    fn streamed_ingestion_matches_the_eager_reference() {
        // Sixteen daily rounds from launch cross the launch import and two
        // week boundaries; the second window crosses the rDNS import.
        let windows =
            [Day(0)..Day(16), Day(events::RDNS_IMPORT.0 - 2)..events::RDNS_IMPORT.plus(3)];
        for scale in [Scale::tiny(), Scale::tiny().with_population_mult(5)] {
            let net = Internet::build(scale).with_faults(FaultConfig::lossless());
            let domains = net.zones().total_domains();
            for window in windows.clone() {
                let cfg = ServiceConfig::default().with_traceroute_cap(300);
                let registry = Registry::new();
                let mut streamed =
                    HitlistService::new(cfg.clone()).with_telemetry(registry.clone());
                let mut eager = HitlistService::new(cfg);
                let (mut offered_before, mut new_before, mut traced_before) = (0, 0, 0);
                for day in (window.start.0..window.end.0).map(Day) {
                    let input_before = streamed.input().len();
                    assert_eq!(
                        input_before,
                        streamed.rounds().last().map_or(0, |r| r.input_total),
                        "ingestion starts from the last record's input on {day:?}"
                    );
                    let zone_due = streamed.last_zone_week != Some(day.0 / 7);
                    streamed.ingest_sources(&net, day);
                    ingest_eagerly(&mut eager, &net, day);
                    assert_eq!(streamed.input(), eager.input(), "input after ingesting {day:?}");
                    assert_eq!(active_clocks(&streamed), active_clocks(&eager), "clocks, {day:?}");

                    // The wasted-work counters: what was offered, and what
                    // of it the input did not hold yet.
                    let snap = registry.snapshot();
                    let offered = snap.counter("service.ingest.offered").unwrap() - offered_before;
                    let new = snap.counter("service.ingest.new").unwrap() - new_before;
                    (offered_before, new_before) = (offered_before + offered, new_before + new);
                    assert_eq!(new as usize, streamed.input().len() - input_before, "{day:?}");
                    assert!(offered >= new, "{day:?}: {new} new of {offered}");
                    // Only a due round pays for the zone, and once per domain.
                    assert_eq!(zone_due, day == window.start || day.0 % 7 == 0, "{day:?}");
                    let zone_share = if zone_due { domains } else { 0 };
                    assert!(
                        (zone_share..zone_share + domains).contains(&offered),
                        "{day:?}: {offered} offered, {domains} domains, zone due: {zone_due}"
                    );

                    for svc in [&mut streamed, &mut eager] {
                        let prepared = svc.select_targets(&net, day, None);
                        let results = svc.scan_prepared(&net, &prepared);
                        svc.complete_round(&net, prepared, results);
                    }
                    assert_eq!(streamed.rounds(), eager.rounds(), "records through {day:?}");
                    // Ingestion and traceroute are the input's only ways
                    // in: their `new` counters add up to its growth.
                    let snap = registry.snapshot();
                    let hops = snap.counter("service.traceroute.offered").unwrap();
                    let traced_so_far = snap.counter("service.traceroute.new").unwrap();
                    assert!(hops >= traced_so_far, "{day:?}: {traced_so_far} new of {hops} hops");
                    let traced = traced_so_far - traced_before;
                    traced_before = traced_so_far;
                    let grown = streamed.rounds().last().unwrap().input_total - input_before;
                    assert_eq!(grown as u64, new + traced, "input growth on {day:?}");
                    assert_eq!(streamed.input(), eager.input(), "input after round {day:?}");
                    assert_eq!(active_clocks(&streamed), active_clocks(&eager), "swept, {day:?}");
                }
                assert_eq!(
                    crate::ServiceState::capture(&streamed),
                    crate::ServiceState::capture(&eager),
                    "checkpoints after {window:?}"
                );
            }
        }
    }

    #[test]
    fn mid_week_resume_does_not_walk_the_zone_again() {
        let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
        // One detection at launch: a resumed detector restarts cold.
        let cfg = ServiceConfig::default().with_traceroute_cap(300).with_alias_every_days(10_000);
        let mut uninterrupted = HitlistService::new(cfg.clone());
        uninterrupted.run(&net, Day(0), Day(9));

        // Day 9 is in the week the day-7 round sampled, but in another of
        // the cloud answers' 4-day slots (9 / 4 != 7 / 4).
        let mut first_leg = HitlistService::new(cfg.clone());
        first_leg.run(&net, Day(0), Day(8));
        let checkpoint = crate::ServiceState::capture(&first_leg);
        let mut resumed = HitlistService::from_state(cfg.clone(), &checkpoint);
        assert_eq!(resumed.last_zone_week, Some(1));
        resumed.run_round(&net, Day(9));
        assert_eq!(
            crate::ServiceState::capture(&resumed),
            crate::ServiceState::capture(&uninterrupted)
        );

        // What restoring the week prevents.
        let mut forgetful = HitlistService::from_state(cfg.clone(), &checkpoint);
        forgetful.last_zone_week = None;
        forgetful.run_round(&net, Day(9));
        assert!(
            forgetful.input().len() > uninterrupted.input().len(),
            "a second walk in the same week ingests a slot the uninterrupted run never saw"
        );

        // The zone index `net` has built by now is a cache, not resume
        // state: a simulator that has never walked its zone resumes alike,
        // through the day-14 walk that makes it build its own.
        let fresh = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
        let mut elsewhere = HitlistService::from_state(cfg, &checkpoint);
        for day in (9..=14).map(Day) {
            elsewhere.run_round(&fresh, day);
        }
        for day in (10..=14).map(Day) {
            uninterrupted.run_round(&net, day);
        }
        assert_eq!(
            crate::ServiceState::capture(&elsewhere),
            crate::ServiceState::capture(&uninterrupted),
            "resumed mid-week against a freshly built Internet"
        );
    }

    #[test]
    fn traceroute_offers_every_answered_expiry() {
        let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
        let day = Day(30);
        let cfg = ServiceConfig::default().with_traceroute_cap(150);
        let registry = Registry::new();
        let mut svc = HitlistService::new(cfg).with_telemetry(registry.clone());
        let input: AddrHashSet = net
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .map(|(a, ..)| a)
            .take(400)
            .collect();
        for &a in &input {
            svc.unresp.register(a, day);
        }
        // Sent one by one: every expiry an interface answers is an offer,
        // however many paths share the interface.
        let probe = ProbeKind::IcmpEcho { size: 16 };
        let mut answered = 0;
        for dst in traceroute_sample(&input, 150, u64::from(day.0 / 7)) {
            let path_len = net.path_len(dst);
            for ttl in path_len - 3..path_len {
                answered += u64::from(net.probe_ttl(dst, ttl, &probe, day).is_some());
            }
        }
        svc.traceroute(&net, day);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("service.traceroute.offered"), Some(answered));
        let new = (svc.input().len() - input.len()) as u64;
        assert_eq!(snap.counter("service.traceroute.new"), Some(new));
        assert!(0 < new && new < answered, "{new} new interfaces of {answered} offered");
    }

    #[test]
    fn traceroute_rotation_reaches_different_router_interfaces() {
        // Two fresh services with identical inputs, traced in different
        // weeks on the same day-of-week: the rotated samples reach
        // different targets, so the discovered hop interfaces differ too.
        let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
        let cfg = ServiceConfig::default().with_traceroute_cap(40).with_alias_every_days(10_000);
        let input: AddrHashSet =
            (0..80u128).map(|i| Addr((0x2001u128 << 112) | (i << 82) | 7)).collect();
        let mut week_a = HitlistService::new(cfg.clone());
        for &a in &input {
            week_a.unresp.register(a, Day(0));
        }
        week_a.traceroute(&net, Day(0));
        let mut week_b = HitlistService::new(cfg);
        for &a in &input {
            week_b.unresp.register(a, Day(7));
        }
        week_b.traceroute(&net, Day(7));
        let mut hops_a: Vec<Addr> =
            week_a.input().iter().filter(|a| !input.contains(a)).copied().collect();
        let mut hops_b: Vec<Addr> =
            week_b.input().iter().filter(|a| !input.contains(a)).copied().collect();
        hops_a.sort_unstable();
        hops_b.sort_unstable();
        assert_ne!(hops_a, hops_b, "different weeks discover different router interfaces");
    }
}
