//! A plain reference service: the hitlist pipeline of the paper's Fig. 1,
//! as Gasser et al. ("Scanning the IPv6 Internet", 2016; "Clusters in the
//! Expanse", 2018) describe it, kept in `BTreeSet`s and `BTreeMap`s and
//! held to `HitlistService` round by round.
//!
//! Each round the model registers the candidates `sources::for_each_due`
//! offers (walking the zone on the first round of each week), drops
//! blocklisted and aliased addresses, takes the active rest as targets,
//! GFW-cleans the service's own scan results, restarts the clocks of the
//! published responders, sweeps the 30-day window or quarantines a
//! degraded round's days, registers the traceroute's finds, and updates
//! `ever`, churn, the round's view and the snapshots. It takes from the
//! service only the alias labels, the degraded and anomaly verdicts and
//! the traceroute's discoveries. After every round it compares the input,
//! the clocks, the dropped pool, `ever` with its protocols, the current
//! view, the GFW-impacted set, the snapshots and the round record.
//!
//! Each run has loss, a vantage outage whose rounds are degraded, and
//! GFW era 1, with the paper's filter going live halfway; one run is
//! saved to a checkpoint and loaded again mid-week.

use std::collections::{BTreeMap, BTreeSet};

use sixdust::addr::{Addr, Prefix};
use sixdust::hitlist::{sources, HitlistService, RoundRecord, ServiceConfig, ServiceState};
use sixdust::net::{events, Day, FaultConfig, Internet, Outage, ProtoSet, Protocol, Scale};
use sixdust::scan::{Detail, ScanResult};

/// Ten days before GFW era 1 opens, through 62 daily rounds.
const FROM: Day = Day(events::GFW_ERA1.0 .0 - 10);
const UNTIL: Day = Day(events::GFW_ERA1.0 .0 + 51);
/// The filter goes live mid-run: before, the published view carries the
/// injected answers the cleaned one drops.
const GFW_FILTER_FROM: Day = Day(events::GFW_ERA1.0 .0 + 30);
/// The vantage is cut off on `[from, until)`: those rounds are degraded.
const OUTAGE: (Day, Day) = (Day(events::GFW_ERA1.0 .0 + 6), Day(events::GFW_ERA1.0 .0 + 9));
/// The last round before the resume: day 345, in the week whose zone
/// day 343 walked, while day 346 lies in another 4-day answer slot.
const RESUME_AFTER: Day = Day(345);
const SNAPSHOT_DAYS: [Day; 2] = [Day(335), Day(370)];
/// The paper's window.
const WINDOW: u32 = 30;

fn config() -> ServiceConfig {
    ServiceConfig::default()
        .with_gfw_filter_from(Some(GFW_FILTER_FROM))
        .with_snapshot_days(SNAPSHOT_DAYS.to_vec())
}

/// A round's view: each responsive address with the protocols it answered.
type View = BTreeMap<Addr, ProtoSet>;

/// The service in plain collections.
struct Reference {
    /// Every address ever admitted.
    input: BTreeSet<Addr>,
    /// Beside each active address, the day it last answered or entered.
    clocks: BTreeMap<Addr, Day>,
    /// Addresses the window dropped; they never come back.
    dropped: BTreeSet<Addr>,
    quarantined: Vec<(Day, Day)>,
    blocklist: Vec<Prefix>,
    /// Every address seen responsive in the cleaned view, with every
    /// protocol it answered there.
    ever: View,
    /// Every address whose UDP/53 answer the GFW filter cleaned.
    impacted: BTreeSet<Addr>,
    current: View,
    snapshots: Vec<(Day, View, Vec<Prefix>)>,
    pending_snapshots: Vec<Day>,
    last_zone_week: Option<u32>,
    last_round: Option<Day>,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            input: BTreeSet::new(),
            clocks: BTreeMap::new(),
            dropped: BTreeSet::new(),
            quarantined: Vec::new(),
            blocklist: Vec::new(),
            ever: View::new(),
            impacted: BTreeSet::new(),
            current: View::new(),
            snapshots: Vec::new(),
            pending_snapshots: SNAPSHOT_DAYS.to_vec(),
            last_zone_week: None,
            last_round: None,
        }
    }

    /// A new address enters the input on an active clock; a known one,
    /// active or dropped, is left as it is.
    fn register(&mut self, addr: Addr, day: Day) {
        if self.input.insert(addr) {
            self.clocks.insert(addr, day);
        }
    }

    /// The candidates due on `day`: the zone on the first round of a week.
    fn ingest(&mut self, net: &Internet, day: Day) {
        let week = day.0 / 7;
        let zone_due = self.last_zone_week != Some(week);
        self.last_zone_week = Some(week);
        let mut offered = Vec::new();
        sources::for_each_due(net, day, zone_due, None, |a| offered.push(a));
        for addr in offered {
            self.register(addr, day);
        }
    }

    /// The active addresses neither blocklisted nor aliased, ascending.
    fn targets(&self, aliased: &[Prefix]) -> Vec<Addr> {
        let mut covered = BTreeSet::new();
        for p in self.blocklist.iter().chain(aliased) {
            covered.extend(self.clocks.range(p.network()..=p.last()).map(|(a, _)| *a));
        }
        self.clocks.keys().filter(|a| !covered.contains(a)).copied().collect()
    }

    /// Whether the silence of an address last seen on `last` has lasted
    /// the window by `day`, net of the quarantined days within it.
    fn expired(&self, last: Day, day: Day) -> bool {
        // The silent days are `[last + 1, day + 1)`.
        let forgiven: u32 = self
            .quarantined
            .iter()
            .map(|(from, until)| until.0.min(day.0 + 1).saturating_sub(from.0.max(last.0 + 1)))
            .sum();
        day.since(last).saturating_sub(forgiven) >= WINDOW
    }

    /// The rest of a round, after the scans; `service` is the service's
    /// record of it, read for its verdicts only.
    #[allow(clippy::too_many_arguments)]
    fn complete(
        &mut self,
        day: Day,
        targets: &[Addr],
        results: &[ScanResult],
        service: &RoundRecord,
        aliased: &[Prefix],
        discovered: &[Addr],
    ) -> RoundRecord {
        let gfw_live = day >= GFW_FILTER_FROM;
        let mut published = [0u64; 5];
        let mut cleaned = [0u64; 5];
        let mut view = View::new();
        let mut published_view = BTreeSet::new();
        let (mut loss_weighted, mut sent_total, mut received_total) = (0u64, 0u64, 0u64);
        for (i, result) in results.iter().enumerate() {
            let proto = Protocol::ALL[i];
            assert_eq!(result.protocol, proto);
            let mut answered = BTreeSet::new();
            let mut injected = BTreeSet::new();
            for hit in &result.hits {
                answered.insert(hit.target);
                if proto == Protocol::Udp53
                    && matches!(hit.detail, Detail::Dns { injected: true, .. })
                {
                    injected.insert(hit.target);
                }
            }
            let clean: BTreeSet<Addr> = answered.difference(&injected).copied().collect();
            published[i] = answered.len() as u64;
            cleaned[i] = clean.len() as u64;
            self.impacted.extend(&injected);
            for a in &clean {
                view.entry(*a).or_insert(ProtoSet::EMPTY).insert(proto);
            }
            if !gfw_live {
                published_view.extend(&answered);
            }
            // A silent scan of a protocol that has answered before is
            // all loss; one of a protocol never heard is dark space.
            let heard_before = self.ever.values().any(|p| p.contains(proto));
            let stats = &result.stats;
            let loss = if stats.sent > 0 && stats.received == 0 && heard_before {
                1000
            } else {
                u64::from(stats.loss_estimate_permille)
            };
            loss_weighted += loss * stats.sent;
            sent_total += stats.sent;
            received_total += stats.received;
        }
        published_view.extend(view.keys());
        if gfw_live {
            published = cleaned;
        }
        let loss_estimate_permille = if targets.is_empty() {
            0
        } else if received_total == 0 {
            1000
        } else {
            (loss_weighted / sent_total.max(1)) as u32
        };

        // Whoever the published view holds answered: its clock restarts.
        for a in &published_view {
            if let Some(last) = self.clocks.get_mut(a) {
                *last = day;
            }
        }
        let mut dropped = 0;
        if service.degraded {
            let from = self.last_round.map_or(day, |d| d.plus(1));
            if from < day.plus(1) {
                self.quarantined.push((from, day.plus(1)));
            }
        } else {
            let expired: Vec<Addr> = self
                .clocks
                .iter()
                .filter(|(_, last)| self.expired(**last, day))
                .map(|(a, _)| *a)
                .collect();
            for a in expired {
                self.clocks.remove(&a);
                self.dropped.insert(a);
                dropped += 1;
            }
        }
        for a in discovered {
            self.register(*a, day);
        }

        let newly: Vec<Addr> =
            view.keys().filter(|a| !self.current.contains_key(a)).copied().collect();
        let churn_recurring = newly.iter().filter(|a| self.ever.contains_key(a)).count() as u64;
        let churn_brand_new = newly.len() as u64 - churn_recurring;
        let churn_gone = self.current.keys().filter(|a| !view.contains_key(a)).count() as u64;
        for (a, protos) in &view {
            let ever = self.ever.entry(*a).or_insert(ProtoSet::EMPTY);
            *ever = ever.union(*protos);
        }
        if self.pending_snapshots.first().is_some_and(|d| *d <= day) {
            self.pending_snapshots.remove(0);
            self.snapshots.push((day, view.clone(), aliased.to_vec()));
        }
        let total_cleaned = view.len() as u64;
        self.current = view;
        self.last_round = Some(day);

        RoundRecord {
            day,
            input_total: self.input.len(),
            targets: targets.len(),
            published,
            cleaned,
            total_published: published_view.len() as u64,
            total_cleaned,
            churn_brand_new,
            churn_recurring,
            churn_gone,
            aliased_prefixes: aliased.len(),
            dropped,
            anomalous: service.anomalous,
            degraded: service.degraded,
            loss_estimate_permille,
        }
    }

    /// Holds the service to the model after a round.
    fn assert_matches(&self, svc: &HitlistService, record: &RoundRecord, at: &str) {
        let input: Vec<Addr> = self.input.iter().copied().collect();
        assert_eq!(svc.input(), input, "{at}: input");
        let clocks: BTreeMap<Addr, Day> = svc.unresponsive().active_entries().collect();
        assert_eq!(clocks, self.clocks, "{at}: clocks");
        let pool: BTreeSet<Addr> = svc.unresponsive_pool().addrs().collect();
        assert_eq!(pool, self.dropped, "{at}: dropped pool");
        let ever: View = svc.cumulative().iter().collect();
        assert_eq!(ever, self.ever, "{at}: ever");
        let current: View = svc.current().iter().collect();
        assert_eq!(current, self.current, "{at}: current view");
        let impacted: BTreeSet<Addr> = svc.gfw_impacted().addrs().collect();
        assert_eq!(impacted, self.impacted, "{at}: GFW-impacted");
        assert_eq!(svc.unresponsive().quarantined(), self.quarantined, "{at}: quarantine");
        let snapshots: Vec<(Day, View, Vec<Prefix>)> = svc
            .snapshots()
            .iter()
            .map(|s| (s.day, s.responsive.iter().collect(), s.aliased.iter().collect()))
            .collect();
        assert_eq!(snapshots, self.snapshots, "{at}: snapshots");
        assert_eq!(svc.rounds().last(), Some(record), "{at}: round record");
    }
}

/// One run of the service beside the model; with `resume`, the service
/// is saved after `RESUME_AFTER` and the run goes on with what loads.
/// Returns how many rounds were degraded, recurred and were GFW-cleaned.
fn run(seed: u64, resume: bool) -> (usize, u64, usize) {
    let net = Internet::build(Scale::tiny().with_seed(seed)).with_faults(
        FaultConfig::lossless()
            .with_seed(seed)
            .with_drop_permille(20)
            .with_outage(Outage::vantage(OUTAGE.0, OUTAGE.1)),
    );
    let mut svc = HitlistService::new(config());
    let mut model = Reference::new();
    let mut recurring = 0;
    for day in events::cadence(FROM, UNTIL) {
        let at = format!("seed {seed}, {day:?}");
        model.ingest(&net, day);
        if model.blocklist.is_empty() {
            // A /40 around the middle of the first round's input.
            let middle = *model.input.iter().nth(model.input.len() / 2).expect("an input");
            model.blocklist.push(Prefix::new(middle, 40));
            svc.blocklist_mut().add(model.blocklist[0]);
        }
        let prepared = svc.prepare_round(&net, day);
        let ingested: BTreeSet<Addr> = svc.input().iter().copied().collect();
        assert_eq!(ingested, model.input, "{at}: input after ingestion");
        let aliased: Vec<Prefix> = svc.aliased().iter().collect();
        assert_eq!(prepared.targets, model.targets(&aliased), "{at}: targets");
        assert_eq!(prepared.gfw_live, day >= GFW_FILTER_FROM, "{at}: filter");
        let targets = prepared.targets.clone();
        let results = svc.scan_prepared(&net, &prepared);
        let record = svc.complete_round(&net, prepared, results.clone()).clone();
        let discovered: Vec<Addr> =
            svc.input().iter().filter(|a| !ingested.contains(a)).copied().collect();
        let expected = model.complete(day, &targets, &results, &record, &aliased, &discovered);
        model.assert_matches(&svc, &expected, &at);
        recurring += expected.churn_recurring;

        if resume && day == RESUME_AFTER {
            let dir =
                std::env::temp_dir().join(format!("sixdust_reference_{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("service.ckpt");
            ServiceState::capture(&svc).save_atomic(&path).expect("saves");
            let loaded = ServiceState::load(&path).expect("loads");
            std::fs::remove_dir_all(&dir).ok();
            svc = loaded.restore(config());
            // The blocklist is the operator's, not the checkpoint's.
            svc.blocklist_mut().add(model.blocklist[0]);
            model.assert_matches(&svc, &expected, &format!("{at}, resumed"));
        }
    }
    assert_eq!(svc.rounds().len(), 62);
    (svc.degraded_rounds(), recurring, model.impacted.len())
}

/// What each run must have gone through to mean anything.
fn assert_exercised((degraded, recurring, impacted): (usize, u64, usize)) {
    assert_eq!(degraded, 3, "the outage's three rounds are degraded");
    assert!(recurring > 0, "some addresses come back");
    assert!(impacted > 0, "the GFW filter cleaned something");
}

#[test]
fn the_service_is_the_reference_at_seed_11() {
    assert_exercised(run(11, false));
}

#[test]
fn the_service_is_the_reference_at_seed_101() {
    assert_exercised(run(101, false));
}

#[test]
fn the_service_resumed_mid_week_is_the_reference_at_seed_202() {
    assert_exercised(run(202, true));
}
