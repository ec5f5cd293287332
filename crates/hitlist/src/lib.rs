//! # sixdust-hitlist — the IPv6 Hitlist service
//!
//! The paper's primary subject: the long-running hitlist pipeline of
//! Fig. 1, reimplemented end-to-end over the simulated Internet.
//!
//! * [`sources`] — candidate ingestion (domain AAAA, CT logs, RIPE-Atlas
//!   style probes, one-time rDNS, passive dense samples).
//! * [`filters`] — blocklist, the paper's GFW cleaning filter, and the
//!   30-day unresponsive filter, which holds the per-address table.
//! * [`service`] — the orchestrating service: scans, alias detection,
//!   traceroute feedback, longitudinal records, snapshots. Produces both
//!   the *published* and the *cleaned* views of responsiveness.
//! * [`newsources`] — the Sec. 6 evaluation harness: NS/MX, Ark, DET,
//!   the re-scanned unresponsive pool, and TGA candidates.
//! * [`mod@publish`] — the community-facing artifact set the service ships
//!   (responsive addresses, aliased prefixes, GFW-filter output).
//! * [`state`] — serializable checkpoints so a restarted service keeps its
//!   four years of accumulated knowledge; [`checkpoint`] writes them to
//!   disk so that a crash cannot truncate one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod filters;
pub mod newsources;
pub mod publish;
pub mod service;
pub mod sources;
pub mod state;

pub use filters::{gfw_clean, Blocklist, Seen, UnresponsiveFilter};
pub use newsources::{evaluate_source, passive_sources, SourceEval};
pub use publish::{publish, Manifest, Publication};
pub use service::{HitlistService, PreparedRound, RoundRecord, ServiceConfig, Snapshot};
pub use state::ServiceState;

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use sixdust_addr::Addr;
    use sixdust_net::{events, Day, FaultConfig, Internet, ProtoSet, Protocol, Scale};

    fn net() -> Internet {
        Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless().with_drop_permille(2))
    }

    fn quick_config() -> ServiceConfig {
        ServiceConfig::default().with_alias_every_days(14).with_traceroute_cap(600)
    }

    #[test]
    fn service_accumulates_and_scans() {
        let net = net();
        let mut svc = HitlistService::new(quick_config());
        svc.run(&net, Day(0), Day(20));
        assert!(!svc.rounds().is_empty());
        let r = svc.rounds().last().unwrap();
        assert!(r.input_total > 100, "input accumulated: {}", r.input_total);
        assert!(r.total_cleaned > 20, "responsive found: {}", r.total_cleaned);
        assert!(r.targets > 0);
        // ICMP dominates (Table 1 shape). published/cleaned arrays follow
        // Protocol::ALL order: [ICMP, TCP/443, TCP/80, UDP/443, UDP/53].
        assert!(r.cleaned[0] >= r.cleaned[1]);
        assert!(r.cleaned[0] >= r.cleaned[2]);
    }

    #[test]
    fn resident_sets_cost_under_eleven_bytes_an_address() {
        // The address sets a month of daily rounds keeps — churn
        // baselines, per-protocol slices, snapshots — against the input
        // and responsive addresses: at 12 B a /64 and 8 a member they
        // read about 7.8 B an address here.
        let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
        let mut svc = HitlistService::new(ServiceConfig::default());
        for day in 0..30 {
            svc.run_round(&net, Day(day));
        }
        let r = svc.rounds().last().unwrap();
        let addrs = r.input_total + r.total_cleaned as usize;
        let bytes = svc.resident_set_bytes();
        assert!(bytes <= 11 * addrs, "{bytes} B for {addrs} addresses");
    }

    #[test]
    fn input_grows_monotonically() {
        let net = net();
        let mut svc = HitlistService::new(quick_config());
        svc.run(&net, Day(0), Day(30));
        let inputs: Vec<usize> = svc.rounds().iter().map(|r| r.input_total).collect();
        for w in inputs.windows(2) {
            assert!(w[1] >= w[0], "input only accumulates: {inputs:?}");
        }
        assert!(inputs.last().unwrap() > inputs.first().unwrap());
    }

    #[test]
    fn gfw_spike_in_published_not_cleaned() {
        let net = net();
        let mut svc = HitlistService::new(quick_config());
        // Run across the start of era 1 so Chinese router addresses are in
        // the input (via traceroute) before the injections begin.
        let start = events::GFW_ERA1.0 .0 - 40;
        svc.run(&net, Day(start), events::GFW_ERA1.0.plus(10));
        let in_era: Vec<&RoundRecord> =
            svc.rounds().iter().filter(|r| r.day >= events::GFW_ERA1.0).collect();
        assert!(!in_era.is_empty());
        let udp53_idx = Protocol::ALL.iter().position(|p| *p == Protocol::Udp53).unwrap();
        let spike = in_era.iter().map(|r| r.published[udp53_idx]).max().unwrap();
        let cleaned = in_era.iter().map(|r| r.cleaned[udp53_idx]).max().unwrap();
        assert!(
            spike > cleaned,
            "published UDP/53 must exceed cleaned during an era: {spike} vs {cleaned}"
        );
        assert!(!svc.gfw_impacted().is_empty());
    }

    #[test]
    fn thirty_day_filter_builds_pool() {
        let net = net();
        let mut svc = HitlistService::new(quick_config());
        svc.run(&net, Day(0), Day(45));
        assert!(
            !svc.unresponsive_pool().is_empty(),
            "rotated CPE and router addresses must age out"
        );
        // Dropped addresses are not scanned again: targets < input.
        let r = svc.rounds().last().unwrap();
        assert!(r.targets < r.input_total);
    }

    #[test]
    fn alias_labels_accumulate() {
        let net = net();
        let mut svc = HitlistService::new(quick_config());
        svc.run(&net, Day(0), Day(16));
        assert!(svc.aliased().len() > 10, "aliased prefixes labeled: {}", svc.aliased().len());
        let r = svc.rounds().last().unwrap();
        assert_eq!(r.aliased_prefixes, svc.aliased().len());
    }

    #[test]
    fn churn_fields_consistent() {
        let net = net();
        let mut svc = HitlistService::new(quick_config());
        svc.run(&net, Day(0), Day(12));
        for w in svc.rounds().windows(2) {
            let (prev, cur) = (&w[0], &w[1]);
            let new_total = cur.churn_brand_new + cur.churn_recurring;
            // total_cleaned = prev_total - gone + new
            assert_eq!(
                cur.total_cleaned,
                prev.total_cleaned - cur.churn_gone + new_total,
                "churn bookkeeping at day {:?}",
                cur.day
            );
        }
    }

    #[test]
    fn snapshots_recorded_on_schedule() {
        let net = net();
        let cfg = quick_config().with_snapshot_days(vec![Day(0), Day(10)]);
        let mut svc = HitlistService::new(cfg);
        svc.run(&net, Day(0), Day(15));
        assert_eq!(svc.snapshots().len(), 2);
        assert_eq!(svc.snapshots()[0].day, Day(0));
        let snap = &svc.snapshots()[1];
        assert!(snap.day >= Day(10));
        assert_eq!(snap.responsive.protos.len(), snap.responsive.members.len());
        assert!(!snap.cleaned_total().is_empty());
    }

    #[test]
    fn blocklist_respected() {
        let net = net();
        let mut svc = HitlistService::new(quick_config());
        // Block everything: no probes should find anything.
        svc.blocklist_mut().add("::/0".parse().unwrap());
        svc.run(&net, Day(0), Day(3));
        let r = svc.rounds().last().unwrap();
        assert_eq!(r.targets, 0);
        assert_eq!(r.total_published, 0);
    }

    #[test]
    fn cumulative_superset_of_current() {
        let net = net();
        let mut svc = HitlistService::new(quick_config());
        svc.run(&net, Day(0), Day(20));
        let ever = svc.cumulative().members;
        assert!(ever.len() as u64 >= svc.rounds().last().unwrap().total_cleaned);
        for a in svc.current_responsive().addrs().take(20) {
            assert!(ever.contains_addr(a));
        }
    }

    /// Each protocol's hits of one round straight from its scan results,
    /// in `Protocol::ALL` order: UDP/53 without its injected answers.
    fn hits_of(results: &[sixdust_scan::ScanResult]) -> Vec<BTreeSet<Addr>> {
        let injected = |d: &sixdust_scan::Detail| {
            matches!(d, sixdust_scan::Detail::Dns { injected: true, .. })
        };
        results
            .iter()
            .map(|r| {
                let udp53 = r.protocol == Protocol::Udp53;
                r.hits
                    .iter()
                    .filter(|h| !(udp53 && injected(&h.detail)))
                    .map(|h| h.target)
                    .collect()
            })
            .collect()
    }

    fn slices_of(view: &service::Responders) -> Vec<BTreeSet<Addr>> {
        Protocol::ALL.iter().map(|&p| view.slice(p).addrs().collect()).collect()
    }

    #[test]
    fn the_views_are_the_scan_results_round_by_round() {
        // Across the start of GFW era 1, where the published UDP/53 view
        // carries injected hits the cleaned one does not. Loss draws one
        // coin a target for every protocol, so TCP/80 loses a tenth on
        // top: an address then answers fewer protocols in some rounds.
        let faults = FaultConfig::lossless().with_drop_permille(2);
        let net = Internet::build(Scale::tiny())
            .with_faults(faults.with_proto_drop(Protocol::Tcp80, 100));
        let snapshot_days = vec![Day(325), Day(370)];
        let mut svc = HitlistService::new(quick_config().with_snapshot_days(snapshot_days));
        let mut ever: BTreeMap<Addr, ProtoSet> = BTreeMap::new();
        let mut of_snapshot_rounds = Vec::new();
        for day in events::cadence(Day(320), Day(380)) {
            let prepared = svc.prepare_round(&net, day);
            let results = svc.scan_prepared(&net, &prepared);
            let hits = hits_of(&results);
            svc.complete_round(&net, prepared, results);
            for (set, proto) in hits.iter().zip(Protocol::ALL) {
                for a in set {
                    ever.entry(*a).or_insert(ProtoSet::EMPTY).insert(proto);
                }
            }
            assert_eq!(slices_of(svc.current()), hits, "the current view after {day:?}");
            let published: Vec<BTreeSet<Addr>> =
                svc.proto_responsive().iter().map(|(_, set)| set.addrs().collect()).collect();
            assert_eq!(published, hits, "the published slices after {day:?}");
            if svc.snapshots().last().is_some_and(|s| s.day == day) {
                of_snapshot_rounds.push(hits);
            }
            assert_eq!(svc.snapshots().len(), of_snapshot_rounds.len());
            for (snap, hits) in svc.snapshots().iter().zip(&of_snapshot_rounds) {
                assert_eq!(&slices_of(&snap.responsive), hits, "{:?} after {day:?}", snap.day);
            }
            let expected: Vec<(Addr, ProtoSet)> = ever.iter().map(|(a, p)| (*a, *p)).collect();
            assert_eq!(svc.cumulative().iter().collect::<Vec<_>>(), expected, "ever after {day:?}");
        }
        assert_eq!((svc.rounds().len(), svc.snapshots().len()), (61, 2));
        let published: u64 = svc.rounds().iter().map(|r| r.total_published).sum();
        let cleaned: u64 = svc.rounds().iter().map(|r| r.total_cleaned).sum();
        assert!(
            published > cleaned,
            "the window publishes injected hits: {published} vs {cleaned}"
        );
    }

    #[test]
    fn a_resume_off_a_snapshot_day_publishes_what_the_uninterrupted_run_does() {
        let net = net();
        let config = || quick_config().with_snapshot_days(vec![Day(5)]);
        let mut original = HitlistService::new(config());
        original.run(&net, Day(0), Day(9));
        let json = ServiceState::capture(&original).to_json();
        let resumed = ServiceState::from_json(&json).expect("parses").restore(config());
        assert_ne!(original.snapshots().last().map(|s| s.day), Some(Day(9)));
        assert_eq!(resumed.proto_responsive(), original.proto_responsive());
        let published = publish(&original).per_protocol;
        assert_eq!(published.len(), 5, "responsive-<proto>.txt for each protocol");
        assert!(published.iter().all(|(_, body)| !body.is_empty()));
        assert_eq!(publish(&resumed).per_protocol, published);
        assert_eq!(publish(&resumed).manifest.digests, publish(&original).manifest.digests);
    }

    #[test]
    fn new_sources_pipeline() {
        let net = net();
        let day = Day(100);
        let candidates = passive_sources(&net, day);
        assert!(!candidates.is_empty());
        let eval = evaluate_source(
            &net,
            "passive",
            &candidates,
            &sixdust_addr::PrefixSet::new(),
            &[day, day.plus(7)],
            &sixdust_scan::ScanConfig::default(),
        );
        assert_eq!(eval.scanned, candidates.len());
        assert!(!eval.responsive.is_empty());
        assert!(eval.hit_rate() > 0.0 && eval.hit_rate() <= 1.0);
        assert_eq!(eval.per_proto.len(), 5);
    }

    #[test]
    fn builder_reproduces_default() {
        let scan = sixdust_scan::ScanConfig::default().with_attempts(2);
        let detector = sixdust_alias::DetectorConfig::default().with_merge_rounds(1);
        let chained = ServiceConfig::default()
            .with_scan(scan.clone())
            .with_detector(detector.clone())
            .with_gfw_filter_from(None)
            .with_alias_every_days(7)
            .with_traceroute_cap(123)
            .with_degraded_loss_permille(400)
            .with_snapshot_days(vec![Day(3)]);
        let literal = ServiceConfig {
            scan,
            detector,
            gfw_filter_from: None,
            alias_every_days: 7,
            traceroute_cap: 123,
            snapshot_days: vec![Day(3)],
            degraded_loss_permille: 400,
        };
        assert_eq!(chained, literal);
    }

    /// The 30-day filter splits the input: each address is on an active
    /// clock or in the dropped pool, never both and never neither.
    fn assert_input_split(svc: &HitlistService) {
        let active: Vec<Addr> = svc.unresponsive().active_entries().map(|(a, _)| a).collect();
        let pool = svc.unresponsive_pool();
        assert!(active.iter().all(|a| !pool.contains_addr(*a)), "an address is active and dropped");
        assert!(
            svc.input().iter().all(|a| active.binary_search(a).is_ok() || pool.contains_addr(*a)),
            "an input address is neither active nor dropped"
        );
        assert_eq!(active.len() + pool.len(), svc.input().len(), "a filter entry is not input");
    }

    #[test]
    fn the_unresponsive_filter_splits_the_input_through_sweeps_and_a_resume() {
        let net = net();
        let mut svc = HitlistService::new(quick_config());
        svc.set_unresponsive_window(3);
        svc.run_with(&net, Day(0), Day(40), |svc, _| assert_input_split(svc));
        assert!(!svc.unresponsive_pool().is_empty(), "sweeps dropped addresses");
        assert!(svc.unresponsive().active_entries().next().is_some(), "some stay active");

        let json = ServiceState::capture(&svc).to_json();
        let mut resumed = ServiceState::from_json(&json).unwrap().restore(quick_config());
        assert_eq!(resumed.unresponsive().window, 3, "the window survives the checkpoint");
        assert_input_split(&resumed);
        resumed.run_with(&net, Day(41), Day(60), |svc, _| assert_input_split(svc));
    }

    /// Days 0..=10 run at a round-level thread budget of 1 — every scan
    /// and alias round inline on the calling thread, the sequential
    /// reference — and at budgets 2, 4 and 8.
    fn sequential_and_parallel_runs() -> (HitlistService, Vec<(usize, HitlistService)>) {
        let net = net();
        let base = quick_config().with_snapshot_days(vec![Day(5)]);
        let run = |budget: usize| {
            let scan = sixdust_scan::ScanConfig::default().with_threads(budget);
            let mut svc = HitlistService::new(base.clone().with_scan(scan));
            svc.run(&net, Day(0), Day(10));
            svc
        };
        let parallel = [2usize, 4, 8].into_iter().map(|budget| (budget, run(budget))).collect();
        (run(1), parallel)
    }

    #[test]
    fn parallel_rounds_identical_to_sequential_at_any_thread_budget() {
        // The determinism pin: any round-level thread budget produces
        // the rounds, snapshots, sets and checkpoint a budget of 1 does.
        let (sequential, parallel) = sequential_and_parallel_runs();
        assert!(!sequential.snapshots().is_empty(), "snapshot comparison is non-trivial");
        let seq_checkpoint = ServiceState::capture(&sequential);
        for (budget, svc) in &parallel {
            assert_eq!(svc.rounds(), sequential.rounds(), "rounds at budget {budget}");
            assert_eq!(svc.snapshots(), sequential.snapshots(), "snapshots at budget {budget}");
            assert_eq!(
                svc.current_responsive(),
                sequential.current_responsive(),
                "responsive set at budget {budget}"
            );
            assert_eq!(
                svc.proto_responsive(),
                sequential.proto_responsive(),
                "per-protocol sets at budget {budget}"
            );
            assert_eq!(ServiceState::capture(svc), seq_checkpoint, "checkpoint at budget {budget}");
        }
    }

    #[test]
    fn parallel_checkpoint_bytes_identical_to_sequential_at_any_thread_budget() {
        let (sequential, parallel) = sequential_and_parallel_runs();
        let seq_checkpoint = ServiceState::capture(&sequential).to_json();
        for (budget, svc) in &parallel {
            assert_eq!(
                ServiceState::capture(svc).to_json(),
                seq_checkpoint,
                "checkpoint bytes at budget {budget}"
            );
        }
    }

    #[test]
    fn single_protocol_blackout_raises_aggregate_loss() {
        // Regression: the aggregate loss estimate used to weight each
        // protocol by the responses it received — so a protocol blacked
        // out entirely contributed *zero* weight and the very rounds the
        // estimate exists to flag looked healthy. Weighting by probes
        // sent (with a previously-responsive protocol's silent scan
        // counting as total loss) makes the blackout visible.
        let blackout_net = Internet::build(Scale::tiny()).with_faults(
            FaultConfig::lossless()
                .with_drop_permille(2)
                .with_outage(sixdust_net::Outage::protocol(Protocol::Icmp, Day(12), Day(18))),
        );
        let mut svc = HitlistService::new(quick_config().with_degraded_loss_permille(150));
        svc.run(&blackout_net, Day(0), Day(30));

        assert!(
            svc.rounds().iter().filter(|r| r.day < Day(12)).any(|r| r.cleaned[0] > 0),
            "ICMP answered before the window, so its silence is loss — not dark space"
        );
        let in_window: Vec<&RoundRecord> =
            svc.rounds().iter().filter(|r| r.day >= Day(12) && r.day < Day(18)).collect();
        assert!(in_window.len() >= 5, "daily cadence fills the window: {}", in_window.len());
        for r in &in_window {
            assert_eq!(r.cleaned[0], 0, "day {:?}: the outage silences ICMP", r.day);
            assert!(
                r.loss_estimate_permille >= 150,
                "day {:?}: one blacked-out protocol must raise the aggregate estimate \
                 (got {}‰) instead of being response-weighted away",
                r.day,
                r.loss_estimate_permille
            );
            assert!(r.degraded, "day {:?}: blackout rounds are quarantined", r.day);
            assert_eq!(r.dropped, 0, "day {:?}: degraded rounds never sweep", r.day);
        }
        // Rounds outside the window stay healthy — the reweighting only
        // moves genuinely broken rounds past the threshold.
        for r in svc.rounds().iter().filter(|r| r.day < Day(12) || r.day >= Day(18)) {
            assert!(!r.degraded, "day {:?} outside the window must stay healthy", r.day);
            assert!(r.loss_estimate_permille < 150, "day {:?}", r.day);
        }
    }

    #[test]
    fn churn_accounting_pinned_across_gfw_filter_deployment() {
        // An independent HashSet-based churn reference, evaluated after
        // every round, pins churn_brand_new / churn_recurring /
        // churn_gone across the raw→cleaned publication flip on the
        // filter deployment day.
        use sixdust_addr::Addr;
        use std::collections::HashSet;
        let net = net();
        let start = events::GFW_ERA1.0 .0 - 40;
        let deploy = events::GFW_ERA1.0.plus(5);
        let mut svc = HitlistService::new(quick_config().with_gfw_filter_from(Some(deploy)));
        let mut prev: HashSet<Addr> = HashSet::new();
        let mut ever: HashSet<Addr> = HashSet::new();
        let mut checked = 0u32;
        svc.run_with(&net, Day(start), deploy.plus(10), |s, day| {
            let r = s.rounds().last().expect("round just ran");
            assert_eq!(r.day, day);
            let cur: HashSet<Addr> = s.current_responsive().addrs().collect();
            let brand_new = cur.difference(&prev).filter(|a| !ever.contains(a)).count() as u64;
            let recurring = cur.difference(&prev).filter(|a| ever.contains(a)).count() as u64;
            let gone = prev.difference(&cur).count() as u64;
            assert_eq!(r.churn_brand_new, brand_new, "brand_new at {day:?}");
            assert_eq!(r.churn_recurring, recurring, "recurring at {day:?}");
            assert_eq!(r.churn_gone, gone, "gone at {day:?}");
            if day >= deploy {
                // Once deployed, the service publishes the cleaned view.
                assert_eq!(r.published, r.cleaned, "published flips to cleaned at {day:?}");
                assert_eq!(r.total_published, r.total_cleaned, "{day:?}");
            }
            ever.extend(cur.iter().copied());
            prev = cur;
            checked += 1;
        });
        assert!(checked > 20, "rounds hooked: {checked}");
        // Before deployment, inside the injection era, the published
        // UDP/53 view exceeded the cleaned one — the flip is observable.
        let udp53_idx = Protocol::ALL.iter().position(|p| *p == Protocol::Udp53).unwrap();
        assert!(
            svc.rounds().iter().any(|r| r.day >= events::GFW_ERA1.0
                && r.day < deploy
                && r.published[udp53_idx] > r.cleaned[udp53_idx]),
            "pre-deployment era rounds publish the spike"
        );
    }

    #[test]
    fn telemetry_reconciles_with_round_records() {
        let net = net();
        let registry = sixdust_telemetry::Registry::new();
        let mut svc = HitlistService::new(quick_config()).with_telemetry(registry.clone());
        svc.run(&net, Day(0), Day(12));
        let snap = registry.snapshot();
        let rounds = svc.rounds();
        assert!(!rounds.is_empty());

        // Per-round counters reconcile exactly with summed RoundRecords.
        assert_eq!(snap.counter("service.rounds"), Some(rounds.len() as u64));
        let sum = |f: &dyn Fn(&RoundRecord) -> u64| rounds.iter().map(f).sum::<u64>();
        assert_eq!(snap.counter("service.targets"), Some(sum(&|r| r.targets as u64)));
        assert_eq!(snap.counter("service.dropped"), Some(sum(&|r| r.dropped as u64)));
        assert_eq!(snap.counter("service.churn.brand_new"), Some(sum(&|r| r.churn_brand_new)));
        assert_eq!(snap.counter("service.churn.recurring"), Some(sum(&|r| r.churn_recurring)));
        assert_eq!(snap.counter("service.churn.gone"), Some(sum(&|r| r.churn_gone)));
        for (i, proto) in Protocol::ALL.into_iter().enumerate() {
            let key = proto.metric_key();
            assert_eq!(
                snap.counter(&format!("service.hits.published.{key}")),
                Some(sum(&|r| r.published[i])),
                "published counter for {key}"
            );
            assert_eq!(
                snap.counter(&format!("service.hits.cleaned.{key}")),
                Some(sum(&|r| r.cleaned[i])),
                "cleaned counter for {key}"
            );
        }

        // Every phase histogram gets exactly one sample per round; fast
        // phases round up to 1 ms instead of truncating to 0.
        for phase in ["ingest", "alias", "select", "scan", "gfw", "traceroute", "churn"] {
            let name = format!("service.round.phase.{phase}_ms");
            let h = snap.histogram(&name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(h.count, rounds.len() as u64, "{name} samples");
        }

        // The scanner and alias detector share the registry.
        assert!(snap.counter("scan.icmp.probes_sent").unwrap_or(0) > 0);
        assert_eq!(
            snap.counter("scan.icmp.hits"),
            Some(sum(&|r| r.cleaned[0])),
            "scanner hit counter matches ICMP round records"
        );
        assert!(snap.counter("alias.rounds").unwrap_or(0) >= 1);
    }

    #[test]
    fn gfw_era_trips_udp53_anomaly_flags() {
        let net = net();
        let registry = sixdust_telemetry::Registry::new();
        let mut svc = HitlistService::new(quick_config()).with_telemetry(registry.clone());
        // Same window as gfw_spike_in_published_not_cleaned: enough pre-era
        // rounds to build a baseline, then into the injections.
        let start = events::GFW_ERA1.0 .0 - 40;
        svc.run(&net, Day(start), events::GFW_ERA1.0.plus(10));
        let udp53_idx = Protocol::ALL.iter().position(|p| *p == Protocol::Udp53).unwrap();

        let pre_era: Vec<&RoundRecord> =
            svc.rounds().iter().filter(|r| r.day < events::GFW_ERA1.0).collect();
        let in_era: Vec<&RoundRecord> =
            svc.rounds().iter().filter(|r| r.day >= events::GFW_ERA1.0).collect();
        assert!(pre_era.len() >= 6, "baseline rounds before the era: {}", pre_era.len());
        assert!(!in_era.is_empty());

        // The injections dwarf the organic baseline, so every in-era round
        // must trip the UDP/53 monitor — live detection of Fig. 3's spike.
        for r in &in_era {
            assert!(
                r.anomalous[udp53_idx],
                "round on day {:?} (udp53={}) must be flagged",
                r.day, r.published[udp53_idx]
            );
        }
        // The baseline before the era stays quiet on UDP/53.
        for r in &pre_era {
            assert!(!r.anomalous[udp53_idx], "false alarm on day {:?}", r.day);
        }
        // ICMP sees no injections, so era onset must not *newly* trip its
        // monitor: the first era round carries whatever flag state the
        // organic-growth phase left it with (this window's steady input
        // growth keeps several protocol monitors in a long flagged streak
        // that has nothing to do with the GFW), but the injections
        // themselves must not leak into the ICMP flag.
        let icmp_flagged_pre = pre_era.last().unwrap().anomalous[0];
        assert!(
            !in_era.first().unwrap().anomalous[0] || icmp_flagged_pre,
            "era onset newly tripped the ICMP monitor"
        );

        // The 0/1-per-round anomaly counters reconcile with the records.
        let snap = registry.snapshot();
        let flagged = svc.rounds().iter().filter(|r| r.anomalous[udp53_idx]).count() as u64;
        assert_eq!(snap.counter("service.anomaly.udp53"), Some(flagged));
    }

    #[test]
    fn series_recorder_reconciles_with_round_records() {
        let net = net();
        let observer = sixdust_telemetry::Observer::new(
            &sixdust_telemetry::Registry::new(),
            sixdust_telemetry::SloEngine::new(Vec::new()),
        );
        let mut svc = HitlistService::new(quick_config()).with_observer(observer);
        svc.run(&net, Day(0), Day(12));
        let rec = svc.observer().expect("observer attached").series();
        assert_eq!(rec.len(), svc.rounds().len());

        let udp53_idx = Protocol::ALL.iter().position(|p| *p == Protocol::Udp53).unwrap();
        for (round, record) in rec.rounds().zip(svc.rounds()) {
            assert_eq!(Day(round.key), record.day);
            // The recorder's counter deltas are exactly the per-round values.
            assert_eq!(
                round.value("service.hits.published.udp53"),
                Some(record.published[udp53_idx]),
                "day {:?}",
                record.day
            );
            assert_eq!(
                round.value("service.anomaly.udp53"),
                Some(u64::from(record.anomalous[udp53_idx])),
            );
            assert_eq!(round.value("service.rounds"), Some(1));
        }

        // The recorded series feeds the analysis machinery directly.
        let pts = rec.points("service.hits.published.icmp");
        assert_eq!(pts.len(), svc.rounds().len());
        assert!(pts.iter().map(|(_, v)| v).sum::<u64>() > 0);

        // The export carries every round.
        assert_eq!(rec.to_jsonl().lines().count(), svc.rounds().len());
    }

    #[test]
    fn service_emits_round_spans_when_tracer_installed() {
        let net = net();
        let registry = sixdust_telemetry::Registry::new();
        let journal = sixdust_telemetry::TraceJournal::new();
        registry.install_tracer(&journal);
        let mut svc = HitlistService::new(quick_config()).with_telemetry(registry);
        svc.run(&net, Day(0), Day(8));

        let events = journal.events();
        let round_spans = events.iter().filter(|e| e.name == "service.round").count();
        assert_eq!(round_spans, svc.rounds().len(), "one span per round");
        assert!(
            events.iter().any(|e| e.name.starts_with("scan.")),
            "scan engine spans ride the installed tracer"
        );
        assert!(
            events.iter().any(|e| e.name == "alias.round"),
            "alias detector spans ride the installed tracer"
        );
        // The export holds every event.
        let chrome = sixdust_json::parse(&journal.to_chrome_json()).expect("a JSON document");
        let exported = chrome.get("traceEvents").and_then(|e| e.as_array().ok());
        assert_eq!(exported.map(<[_]>::len), Some(events.len()));
    }

    #[test]
    fn outage_rounds_are_quarantined_not_swept() {
        // A vantage outage spanning days 20..25 silences every scan.
        let outage_net = Internet::build(Scale::tiny()).with_faults(
            FaultConfig::lossless()
                .with_drop_permille(2)
                .with_outage(sixdust_net::Outage::vantage(Day(20), Day(25))),
        );
        let calm_net = net();
        let mut hit = HitlistService::new(quick_config());
        hit.run(&outage_net, Day(0), Day(45));
        let mut calm = HitlistService::new(quick_config());
        calm.run(&calm_net, Day(0), Day(45));

        // Blackout rounds are classified degraded with a pegged estimate
        // and never sweep.
        let degraded: Vec<&RoundRecord> = hit.rounds().iter().filter(|r| r.degraded).collect();
        assert!(degraded.len() >= 5, "outage rounds flagged: {}", degraded.len());
        for r in &degraded {
            assert!(r.day >= Day(20) && r.day < Day(25), "flag only in window: {:?}", r.day);
            assert_eq!(r.loss_estimate_permille, 1000, "blackout pegs the estimate");
            assert_eq!(r.dropped, 0, "degraded rounds never sweep");
            assert_eq!(r.total_published, 0);
        }
        // Healthy rounds outside the window stay unflagged.
        assert!(hit
            .rounds()
            .iter()
            .filter(|r| r.day < Day(20) || r.day >= Day(25))
            .all(|r| !r.degraded));
        assert_eq!(hit.degraded_rounds(), degraded.len());
        assert_eq!(hit.unresponsive().quarantined().len(), degraded.len());

        // Quarantine defers eviction instead of mass-evicting: the outage
        // run must not drop meaningfully more than the calm run.
        let dropped_hit: usize = hit.rounds().iter().map(|r| r.dropped).sum();
        let dropped_calm: usize = calm.rounds().iter().map(|r| r.dropped).sum();
        assert!(
            dropped_hit <= dropped_calm,
            "outage must not mass-evict: {dropped_hit} vs calm {dropped_calm}"
        );
    }

    #[test]
    fn degraded_round_counter_reconciles() {
        let outage_net = Internet::build(Scale::tiny()).with_faults(
            FaultConfig::lossless()
                .with_drop_permille(2)
                .with_outage(sixdust_net::Outage::vantage(Day(6), Day(9))),
        );
        let registry = sixdust_telemetry::Registry::new();
        let mut svc = HitlistService::new(quick_config()).with_telemetry(registry.clone());
        svc.run(&outage_net, Day(0), Day(12));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("service.degraded_rounds"), Some(svc.degraded_rounds() as u64));
        assert!(svc.degraded_rounds() >= 2);
        let last = svc.rounds().last().unwrap();
        assert_eq!(
            snap.gauge("service.loss_estimate_permille"),
            Some(i64::from(last.loss_estimate_permille))
        );
    }
}
