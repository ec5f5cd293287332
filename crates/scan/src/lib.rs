//! # sixdust-scan — ZMapv6-style scanning and Yarrp traceroute
//!
//! Reimplements the measurement tools the IPv6 Hitlist service runs
//! (Fig. 1 of the paper), against the `sixdust-net` simulator instead of a
//! raw socket:
//!
//! * [`engine`] — the scanner: probe modules for ICMP, TCP/80, TCP/443,
//!   UDP/53 (DNS) and UDP/443 (QUIC), ZMap's cyclic-group target
//!   permutation, token-bucket rate limiting, and faithful classification
//!   semantics (a DNS *response* is a success, which is how GFW injections
//!   polluted the hitlist).
//! * [`mod@yarrp`] — stateless randomized traceroute over the `(target, TTL)`
//!   space, the service's router-harvesting input source.
//! * [`scan_jobs`] — the scan scheduler: the service's rounds and the
//!   vantage fleet's batches hand it every job of a round at once, each
//!   job's permutation cycle cut into one contiguous range per thread of
//!   the budget, the way ZMap shards one cycle across its sender threads.
//! * [`permute`] / [`rate`] — the reusable mechanics.
//! * [`pcap`] — libpcap traces of wire-mode runs (Wireshark-inspectable).
//!
//! Two fidelity levels: [`engine::scan`] drives the simulator's semantic
//! fast path; [`engine::scan_wire`] serializes real packets both ways.
//! The test suite pins them to identical classifications.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod pcap;
pub mod permute;
pub mod rate;
pub mod yarrp;

pub use engine::{
    assemble_scan, proto_metric_key, reassemble_replies, scan, scan_jobs, scan_segment, scan_wire,
    scan_wire_with, scan_with, Detail, ExecutorStats, Hit, ScanConfig, ScanJob, ScanResult,
    ScanStats, SegmentTally,
};
pub use pcap::{PcapReader, PcapWriter};
pub use permute::{CyclicPermutation, PermutationSegment};
pub use rate::{Limit, TokenBucket};
pub use yarrp::{yarrp, Trace, YarrpConfig, YarrpResult};

#[cfg(test)]
mod tests {
    use super::*;
    use sixdust_addr::Addr;
    use sixdust_net::{events, Day, FaultConfig, Internet, Protocol, Scale};

    fn net() -> Internet {
        Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless())
    }

    fn responsive_targets(
        net: &Internet,
        day: Day,
        proto: Protocol,
        extra_dark: usize,
    ) -> Vec<Addr> {
        let mut t: Vec<Addr> = net
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .filter(|(_, p, _)| p.contains(proto))
            .map(|(a, ..)| a)
            .take(100)
            .collect();
        for i in 0..extra_dark {
            t.push(Addr(0x3fff_0000_0000_0000_0000_0000_0000_0000u128 + i as u128));
        }
        t
    }

    #[test]
    fn icmp_scan_finds_responsive_hosts() {
        let net = net();
        let day = Day(100);
        let targets = responsive_targets(&net, day, Protocol::Icmp, 50);
        let result = scan(&net, Protocol::Icmp, &targets, day, &ScanConfig::default());
        let hits: Vec<Addr> = result.hit_addrs().collect();
        assert_eq!(hits.len(), targets.len() - 50, "every live target hit, no dark hit");
        assert_eq!(result.stats.hits, hits.len() as u64);
        assert!(result.stats.duration_secs > 0.0);
    }

    #[test]
    fn scan_outcome_order_covers_all_targets() {
        let net = net();
        let day = Day(100);
        // A scan keeps only its hits, so on an all-live list (lossless
        // net) the hit addresses are the target set exactly.
        let live = responsive_targets(&net, day, Protocol::Icmp, 0);
        let result = scan(&net, Protocol::Icmp, &live, day, &ScanConfig::default());
        assert_eq!(result.hits.len(), live.len());
        let mut probed: Vec<Addr> = result.hit_addrs().collect();
        let mut expected = live.clone();
        probed.sort_unstable();
        expected.sort_unstable();
        assert_eq!(probed, expected);
        // The dark targets leave no hit, but each was still probed.
        let targets = responsive_targets(&net, day, Protocol::Icmp, 10);
        let result = scan(&net, Protocol::Icmp, &targets, day, &ScanConfig::default());
        let mut hit: Vec<Addr> = result.hit_addrs().collect();
        hit.sort_unstable();
        assert_eq!(hit, expected);
        assert_eq!(result.stats.sent, live.len() as u64 + 10);
    }

    #[test]
    fn dns_scan_counts_gfw_injections_as_success() {
        let net = net();
        let day = events::GFW_ERA3.0.plus(5);
        let ct = net.registry().by_asn(4134).unwrap();
        let block = net.registry().get(ct).prefixes[0].network();
        // Dark Chinese addresses.
        let targets: Vec<Addr> = (0..40u128).map(|i| Addr(block.0 | (0xdead_0000 + i))).collect();
        let result = scan(&net, Protocol::Udp53, &targets, day, &ScanConfig::default());
        assert_eq!(result.stats.hits, 40, "ZMap counts injected answers as success");
        for h in &result.hits {
            match &h.detail {
                Detail::Dns { responses, injected } => {
                    assert!(*injected, "injection marker set");
                    assert!(*responses >= 2, "multiple injectors");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // The cleaning filter removes all of them.
        assert_eq!(result.clean_hits().count(), 0);
        // Outside the era the same scan is silent.
        let quiet = scan(&net, Protocol::Udp53, &targets, Day(100), &ScanConfig::default());
        assert_eq!(quiet.stats.hits, 0);
    }

    #[test]
    fn tcp_scan_captures_fingerprints() {
        let net = net();
        let day = Day(100);
        let targets = responsive_targets(&net, day, Protocol::Tcp80, 0);
        let result = scan(&net, Protocol::Tcp80, &targets, day, &ScanConfig::default());
        assert_eq!(result.stats.hits as usize, targets.len());
        for h in &result.hits {
            match &h.detail {
                Detail::SynAck { optionstext, mss, .. } => {
                    assert!(!optionstext.is_empty());
                    assert!(*mss >= 1280);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn quic_scan() {
        let net = net();
        let day = Day(600);
        let targets = responsive_targets(&net, day, Protocol::Udp443, 20);
        let result = scan(&net, Protocol::Udp443, &targets, day, &ScanConfig::default());
        assert_eq!(result.stats.hits as usize, targets.len() - 20);
    }

    #[test]
    fn wire_and_semantic_paths_agree() {
        let net = net();
        let day = Day(200);
        for proto in [Protocol::Icmp, Protocol::Tcp80, Protocol::Udp53, Protocol::Udp443] {
            let mut targets = responsive_targets(&net, day, proto, 5);
            targets.truncate(30);
            let fast = scan(&net, proto, &targets, day, &ScanConfig::default());
            let wire = scan_wire(&net, proto, &targets, day, &ScanConfig::default());
            let mut fast_hits: Vec<Addr> = fast.hit_addrs().collect();
            let mut wire_hits: Vec<Addr> = wire.hit_addrs().collect();
            fast_hits.sort_unstable();
            wire_hits.sort_unstable();
            assert_eq!(fast_hits, wire_hits, "{proto}");
            // Fingerprint details must agree too.
            for (f, w) in fast
                .hits
                .iter()
                .flat_map(|f| wire.hits.iter().find(|w| w.target == f.target).map(|w| (f, w)))
                .take(10)
            {
                match (&f.detail, &w.detail) {
                    (
                        Detail::SynAck { optionstext: a, window: wa, mss: ma, .. },
                        Detail::SynAck { optionstext: b, window: wb, mss: mb, .. },
                    ) => {
                        assert_eq!(a, b);
                        assert_eq!(wa, wb);
                        assert_eq!(ma, mb);
                    }
                    (Detail::Dns { injected: a, .. }, Detail::Dns { injected: b, .. }) => {
                        assert_eq!(a, b)
                    }
                    (x, y) => assert_eq!(std::mem::discriminant(x), std::mem::discriminant(y)),
                }
            }
        }
    }

    #[test]
    fn multi_day_merge_masks_loss() {
        let lossy = Internet::build(Scale::tiny())
            .with_faults(FaultConfig::lossless().with_drop_permille(300));
        let day = Day(100);
        let targets: Vec<Addr> = lossy
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .filter(|(_, p, _)| p.contains(Protocol::Icmp))
            .map(|(a, ..)| a)
            .take(200)
            .collect();
        let one =
            scan(&lossy, Protocol::Icmp, &targets, day, &ScanConfig::default().with_attempts(1));
        // With a single attempt per target, drops are only masked by
        // merging *multiple days* (same-day retries with independent
        // loss coins are exercised in retries_mask_loss_and_estimate_it).
        let next_day = scan(&lossy, Protocol::Icmp, &targets, day.plus(1), &ScanConfig::default());
        let merged: std::collections::HashSet<Addr> =
            one.hit_addrs().chain(next_day.hit_addrs()).collect();
        assert!(merged.len() >= one.stats.hits as usize);
        assert!(
            merged.len() as f64 >= targets.len() as f64 * 0.80,
            "two-day merge recovers most targets: {} of {}",
            merged.len(),
            targets.len()
        );
    }

    #[test]
    fn yarrp_discovers_routers_and_reaches_targets() {
        let net = net();
        let day = Day(100);
        let targets = responsive_targets(&net, day, Protocol::Icmp, 0);
        let result = yarrp(&net, &targets[..20], day, &YarrpConfig::default());
        assert_eq!(result.traces.len(), 20);
        let routers = result.discovered_routers();
        assert!(!routers.is_empty(), "routers discovered");
        for t in &result.traces {
            assert!(t.reached, "live target reached");
            assert!(!t.hops.is_empty());
            // Hops are sorted by TTL.
            let ttls: Vec<u8> = t.hops.iter().map(|(ttl, _)| *ttl).collect();
            let mut sorted = ttls.clone();
            sorted.sort_unstable();
            assert_eq!(ttls, sorted);
        }
    }

    #[test]
    fn yarrp_unresponsive_target_leaves_last_hop() {
        let net = net();
        let day = Day(100);
        let dark: Vec<Addr> = vec![Addr(0x3fff_dead_0000_0000_0000_0000_0000_0001u128)];
        let result = yarrp(&net, &dark, day, &YarrpConfig::default());
        let t = &result.traces[0];
        assert!(!t.reached);
        let last = t.last_responsive_hop();
        // Transit routers answer even toward dark space.
        assert!(last.is_some());
        assert_ne!(last, Some(dark[0]));
    }

    #[test]
    fn builders_reproduce_defaults() {
        // Each setter replaces its own field of the default and no other.
        let cfg = ScanConfig::default()
            .with_threads(8)
            .with_attempts(2)
            .with_rate_pps(1_000_000)
            .with_seed(42)
            .with_dns_qname("example.org")
            .with_retry_backoff_ms(10);
        let literal = ScanConfig {
            threads: 8,
            attempts: 2,
            rate_pps: 1_000_000,
            seed: 42,
            dns_qname: "example.org".to_string(),
            retry_backoff_ms: 10,
        };
        assert_eq!(cfg, literal);
        assert_eq!(
            ScanConfig::default().with_threads(8),
            ScanConfig { threads: 8, ..ScanConfig::default() }
        );
        assert_eq!(
            YarrpConfig::default().with_max_ttl(20).with_seed(3),
            YarrpConfig { max_ttl: 20, seed: 3 }
        );
    }

    #[test]
    fn sent_counts_actual_probes_not_attempts_times_targets() {
        let net = net();
        let day = Day(100);
        let live = responsive_targets(&net, day, Protocol::Icmp, 0);
        let dark = 25usize;
        let targets = responsive_targets(&net, day, Protocol::Icmp, dark);
        let cfg = ScanConfig::default().with_attempts(3);
        let result = scan(&net, Protocol::Icmp, &targets, day, &cfg);
        // Live targets answer the first probe (no faults); only dark
        // targets burn all three attempts.
        assert_eq!(result.stats.sent, live.len() as u64 + 3 * dark as u64);
        assert!(result.stats.sent < targets.len() as u64 * 3, "no blanket n*attempts");
    }

    #[test]
    fn scan_with_registry_reconciles_counters_with_stats() {
        let net = net();
        let day = Day(100);
        let targets = responsive_targets(&net, day, Protocol::Icmp, 30);
        let reg = sixdust_telemetry::Registry::new();
        let result =
            scan_with(&net, Protocol::Icmp, &targets, day, &ScanConfig::default(), Some(&reg));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("scan.icmp.probes_sent"), Some(result.stats.sent));
        assert_eq!(snap.counter("scan.icmp.responses"), Some(result.stats.received));
        assert_eq!(snap.counter("scan.icmp.hits"), Some(result.stats.hits));
        // Worker chunk timings recorded once per worker.
        let chunks = snap.histogram("scan.worker.chunk_ms").unwrap();
        assert_eq!(chunks.count, ScanConfig::default().threads as u64);
        // The wire path also records rate-limiter stalls.
        let wire =
            scan_wire_with(&net, Protocol::Icmp, &targets, day, &ScanConfig::default(), Some(&reg));
        let snap = reg.snapshot();
        let wait = snap.histogram("scan.rate.wait_us").unwrap();
        assert_eq!(wait.count, wire.stats.sent);
        assert_eq!(
            snap.counter("scan.icmp.probes_sent"),
            Some(result.stats.sent + wire.stats.sent)
        );
    }

    #[test]
    fn a_fused_job_records_per_protocol_counters_and_one_sample_per_segment() {
        let net = net();
        let day = Day(100);
        let targets = responsive_targets(&net, day, Protocol::Icmp, 30);
        let reg = sixdust_telemetry::Registry::new();
        let journal = sixdust_telemetry::TraceJournal::new();
        reg.install_tracer(&journal);
        let config = ScanConfig::default().with_attempts(2);
        let job = ScanJob {
            net: &net,
            protocols: &Protocol::ALL,
            targets: &targets,
            day,
            config: &config,
            telemetry: Some(&reg),
        };
        let (results, stats) = scan_jobs(2, &[job]);
        let snap = reg.snapshot();
        for r in &results {
            let key = proto_metric_key(r.protocol);
            let counter = |measure: &str| snap.counter(&format!("scan.{key}.{measure}"));
            assert_eq!(counter("probes_sent"), Some(r.stats.sent), "{key}");
            assert_eq!(counter("responses"), Some(r.stats.received), "{key}");
            assert_eq!(counter("hits"), Some(r.stats.hits), "{key}");
            assert_eq!(counter("retries"), Some(r.stats.retries), "{key}");
        }
        // A segment walks all five protocols: two segments, two samples,
        // two worker spans, under one span named for what the job walks.
        assert_eq!(stats.executed, 2);
        assert_eq!(snap.histogram("scan.worker.chunk_ms").unwrap().count, 2);
        let spans = |name: &str| journal.events().iter().filter(|e| e.name == name).count();
        assert_eq!(spans("scan.worker"), 2);
        assert_eq!(spans("scan.icmp+tcp443+tcp80+udp443+udp53"), 1);
        // The simulator's own count arrives once per segment and is exact
        // once the scan has returned.
        let sent: u64 = results.iter().map(|r| r.stats.sent).sum();
        assert_eq!(net.counters().probes.get(), sent);
    }

    #[test]
    fn scan_outcomes_identical_across_thread_counts() {
        // The permutation is walked as lazily-segmented cycle ranges whose
        // concatenation is the materialized order — so the worker count
        // must never show up in the results.
        let net = net();
        let day = Day(100);
        let targets = responsive_targets(&net, day, Protocol::Icmp, 40);
        let base =
            scan(&net, Protocol::Icmp, &targets, day, &ScanConfig::default().with_threads(1));
        for threads in [2usize, 4, 8, 32] {
            let cfg = ScanConfig::default().with_threads(threads);
            let result = scan(&net, Protocol::Icmp, &targets, day, &cfg);
            assert_eq!(result.hits, base.hits, "{threads} threads");
            assert_eq!(result.stats.sent, base.stats.sent, "{threads} threads");
            assert_eq!(result.stats.received, base.stats.received, "{threads} threads");
            assert_eq!(result.stats.hits, base.stats.hits, "{threads} threads");
        }
    }

    #[test]
    fn one_fused_job_equals_five_single_protocol_scans() {
        use sixdust_net::{GilbertElliott, Outage};
        // A plan that takes every per-protocol branch of the probe: base
        // loss under a UDP/53 override, a burst channel, duplicates, a
        // TCP/443 blackout and an AS outage, with retries and backoff.
        let plain = net();
        let era_day = events::GFW_ERA3.0.plus(5);
        let config = ScanConfig::default().with_attempts(3).with_retry_backoff_ms(10).with_seed(77);
        let dtag = 3320;
        assert!(plain.registry().by_asn(dtag).is_some());
        let faults = |day: Day| {
            FaultConfig::lossless()
                .with_seed(5)
                .with_drop_permille(150)
                .with_proto_drop(Protocol::Udp53, 400)
                .with_duplicate_permille(200)
                .with_burst(GilbertElliott {
                    mean_good_days: 3,
                    mean_bad_days: 3,
                    good_drop_permille: 40,
                    bad_drop_permille: 700,
                })
                .with_outage(Outage::protocol(Protocol::Tcp443, day, day.plus(1)))
                .with_outage(Outage::asn(dtag, day, day.plus(1)))
        };
        // An ordinary day; an era day from the default vantage (the
        // firewall injects) and from a vantage behind it (egress filter).
        for (day, behind_firewall) in [(Day(100), false), (era_day, false), (era_day, true)] {
            let world = || {
                let mut net = Internet::build(Scale::tiny());
                let cn = net.register_vantage(64_498, "cn vantage", "CN");
                let net = net.with_faults(faults(day));
                if behind_firewall {
                    net.with_source_vantage(cn)
                } else {
                    net
                }
            };
            // Hosts of every protocol mix, dark space, and dark space
            // behind the firewall.
            let ct = plain.registry().get(plain.registry().by_asn(4134).unwrap());
            let mut targets: Vec<Addr> = plain
                .population()
                .enumerate_responsive(day)
                .into_iter()
                .map(|(a, ..)| a)
                .step_by(5)
                .take(600)
                .collect();
            targets.extend((0..60u128).map(|i| Addr((0x3fff_u128 << 112) | i)));
            targets
                .extend((0..60u128).map(|i| Addr(ct.prefixes[0].network().0 | (0xdead_0000 + i))));

            let one_by_one = world();
            let single = config.clone().with_threads(1);
            let reference: Vec<ScanResult> = Protocol::ALL
                .iter()
                .map(|p| scan_with(&one_by_one, *p, &targets, day, &single, None))
                .collect();
            let counted = |net: &Internet| {
                let c = net.counters();
                [&c.probes, &c.faults_dropped, &c.faults_duplicated, &c.gfw_egress_filtered]
                    .map(|counter| counter.get())
            };
            let sent: u64 = reference.iter().map(|r| r.stats.sent).sum();
            assert_eq!(counted(&one_by_one)[0], sent, "net.probes is the probes the scans sent");

            for budget in [1usize, 2, 4, 8] {
                let fused_net = world();
                let job = ScanJob {
                    net: &fused_net,
                    protocols: &Protocol::ALL,
                    targets: &targets,
                    day,
                    config: &config,
                    telemetry: None,
                };
                let (fused, _) = scan_jobs(budget, &[job]);
                assert_eq!(fused.len(), reference.len());
                for (f, r) in fused.iter().zip(&reference) {
                    let at = format!("{} on day {} at budget {budget}", r.protocol, day.0);
                    assert_eq!((f.protocol, f.day), (r.protocol, r.day), "{at}");
                    assert_eq!(f.hits, r.hits, "{at}");
                    assert_eq!(f.stats, r.stats, "{at}");
                }
                assert_eq!(counted(&fused_net), counted(&one_by_one), "budget {budget}");
            }

            // The plan bit where it was meant to.
            let of = |p: Protocol| reference.iter().find(|r| r.protocol == p).unwrap();
            assert_eq!(of(Protocol::Tcp443).stats.received, 0, "TCP/443 is blacked out");
            assert!(of(Protocol::Icmp).stats.hits > 0);
            assert!(reference.iter().all(|r| r.stats.retries > 0 && r.stats.backoff_secs > 0.0));
            let [_, dropped, duplicated, egress_filtered] = counted(&one_by_one);
            assert!(dropped > 0 && duplicated > 0, "{dropped} dropped, {duplicated} duplicated");
            let injected = of(Protocol::Udp53)
                .hits
                .iter()
                .filter(|o| matches!(o.detail, Detail::Dns { injected: true, .. }))
                .count();
            assert_eq!(injected > 0, day == era_day && !behind_firewall, "{injected} injected");
            assert_eq!(egress_filtered > 0, behind_firewall, "{egress_filtered} egress-filtered");
        }
    }

    #[test]
    fn an_empty_target_list_still_yields_a_result_per_protocol() {
        let net = net();
        let job = ScanJob {
            net: &net,
            protocols: &Protocol::ALL,
            targets: &[],
            day: Day(100),
            config: &ScanConfig::default(),
            telemetry: None,
        };
        let (results, stats) = scan_jobs(4, &[job]);
        assert_eq!(stats.executed, 0, "an empty cycle is cut into no segment");
        assert_eq!(results.iter().map(|r| r.protocol).collect::<Vec<_>>(), Protocol::ALL);
        assert!(results.iter().all(|r| r.hits.is_empty() && r.stats == ScanStats::default()));
    }

    #[test]
    fn several_jobs_on_one_budget_equal_each_job_alone() {
        use sixdust_net::Protocol::{Icmp, Tcp443, Tcp80, Udp443, Udp53};
        let day = Day(100);
        let lossy = || {
            Internet::build(Scale::tiny()).with_faults(
                FaultConfig::lossless().with_seed(9).with_drop_permille(300).with_burst(
                    sixdust_net::GilbertElliott {
                        mean_good_days: 2,
                        mean_bad_days: 2,
                        good_drop_permille: 50,
                        bad_drop_permille: 600,
                    },
                ),
            )
        };
        let plain = lossy();
        let mut many: Vec<Addr> = plain
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .map(|(a, ..)| a)
            .step_by(3)
            .take(300)
            .collect();
        many.extend((0..40u128).map(|i| Addr((0x3fff_u128 << 112) | i)));
        let config = ScanConfig::default().with_attempts(3).with_retry_backoff_ms(5);
        let other_seed = config.clone().with_seed(0xFEED);
        let all = Protocol::ALL;
        // Empty, one target, fewer targets than most budgets, a few
        // hundred; each on its own protocol list.
        let jobs: [(&[Addr], &[Protocol], &ScanConfig); 5] = [
            (&[], &[Icmp, Udp53], &config),
            (&many[..1], &[Tcp80], &config),
            (&many[1..4], &[Udp53, Icmp, Tcp443], &other_seed),
            (&many, &all, &config),
            (&many[100..], &[Udp443, Tcp80], &other_seed),
        ];
        let counted = |net: &Internet| {
            let c = net.counters();
            [
                &c.probes,
                &c.ttl_probes,
                &c.wire_packets,
                &c.faults_dropped,
                &c.faults_duplicated,
                &c.faults_corrupted,
                &c.faults_rate_limited,
                &c.hops_vantage_fallback,
                &c.gfw_egress_filtered,
            ]
            .map(|counter| counter.get())
        };
        // Each job alone at budget 1 on a fresh world: its results and
        // what its world counted.
        let alone: Vec<(Vec<ScanResult>, _)> = jobs
            .iter()
            .map(|&(targets, protocols, config)| {
                let net = lossy();
                let job = ScanJob { net: &net, protocols, targets, day, config, telemetry: None };
                let (results, _) = scan_jobs(1, &[job]);
                (results, counted(&net))
            })
            .collect();
        for budget in [1usize, 2, 3, 4, 5, 40] {
            let nets: Vec<Internet> = jobs.iter().map(|_| lossy()).collect();
            let batch: Vec<ScanJob<'_>> = jobs
                .iter()
                .zip(&nets)
                .map(|(&(targets, protocols, config), net)| ScanJob {
                    net,
                    protocols,
                    targets,
                    day,
                    config,
                    telemetry: None,
                })
                .collect();
            let (results, stats) = scan_jobs(budget, &batch);
            let mut results = results.into_iter();
            let mut ranges = 0u64;
            for (j, ((&(targets, protocols, config), net), (reference, net_counts))) in
                jobs.iter().zip(&nets).zip(&alone).enumerate()
            {
                let at = format!("job {j} at budget {budget}");
                let mine: Vec<ScanResult> = results.by_ref().take(protocols.len()).collect();
                assert_eq!(mine.len(), reference.len(), "{at}");
                for (m, r) in mine.iter().zip(reference) {
                    assert_eq!((m.protocol, m.day), (r.protocol, r.day), "{at}");
                    assert_eq!(m.hits, r.hits, "{at}, {}", r.protocol);
                    assert_eq!(m.stats, r.stats, "{at}, {}", r.protocol);
                }
                assert_eq!(&counted(net), net_counts, "{at}");
                let cycle =
                    CyclicPermutation::new(targets.len() as u64, config.seed ^ 100).cycle_len();
                ranges += cycle.div_ceil(cycle.div_ceil(budget.min(32) as u64).max(1));
            }
            assert!(results.next().is_none(), "budget {budget}");
            assert_eq!(stats, ExecutorStats { executed: ranges, stolen: 0 }, "budget {budget}");
        }
        // The plan bit: retries happened and the big job had hits.
        let big = &alone[3].0;
        assert!(big.iter().all(|r| r.stats.retries > 0), "loss forces retries");
        assert!(big.iter().any(|r| !r.hits.is_empty()));
    }

    /// The scan walk written plainly and reduced after the fact: every
    /// target's outcome is kept, in permutation order, and the hits and
    /// the stats are taken from that full list.
    fn reference_scan(
        net: &Internet,
        protocol: Protocol,
        targets: &[Addr],
        day: Day,
        config: &ScanConfig,
    ) -> (Vec<Hit>, ScanStats) {
        let probe = engine::probe_for(protocol, &config.dns_qname);
        let mut net_tally = sixdust_net::ProbeTally::default();
        let mut outcomes: Vec<(Addr, bool, Detail)> = Vec::new();
        let (mut sent, mut retries, mut backoff_ms) = (0u64, 0u64, 0u64);
        let (mut responders, mut failed_of_responders) = (0u64, 0u64);
        for i in CyclicPermutation::new(targets.len() as u64, config.seed ^ u64::from(day.0)) {
            let target = targets[i as usize];
            let resolved = net.resolve(target, day);
            let (mut responses, mut failed) = (Vec::new(), 0u64);
            for attempt in 0..config.attempts {
                if attempt > 0 {
                    retries += 1;
                    backoff_ms += config.retry_backoff_ms << (attempt - 1);
                }
                sent += 1;
                responses = net.probe_resolved(&resolved, &probe, attempt, &mut net_tally);
                if !responses.is_empty() {
                    break;
                }
                failed += 1;
            }
            if !responses.is_empty() {
                responders += 1;
                failed_of_responders += failed;
            }
            let (success, detail) = engine::classify(protocol, &responses);
            outcomes.push((target, success, detail));
        }
        net.counters().add(&net_tally);
        let received = outcomes.iter().filter(|(.., detail)| *detail != Detail::Silent).count();
        let hits: Vec<Hit> = outcomes
            .into_iter()
            .filter(|(_, success, _)| *success)
            .map(|(target, _, detail)| Hit { target, detail })
            .collect();
        let backoff_secs = backoff_ms as f64 / 1e3;
        let stats = ScanStats {
            sent,
            received: received as u64,
            hits: hits.len() as u64,
            duration_secs: sent as f64 / config.rate_pps as f64 + backoff_secs,
            retries,
            loss_estimate_permille: (failed_of_responders * 1000)
                .checked_div(failed_of_responders + responders)
                .unwrap_or(0) as u32,
            backoff_secs,
        };
        (hits, stats)
    }

    #[test]
    fn a_scan_keeps_every_hit_in_probe_order_and_nothing_else() {
        let plain = net();
        let ct = plain.registry().get(plain.registry().by_asn(4134).unwrap());
        let counted = |net: &Internet| {
            let c = net.counters();
            [
                &c.probes,
                &c.ttl_probes,
                &c.wire_packets,
                &c.faults_dropped,
                &c.faults_duplicated,
                &c.faults_corrupted,
                &c.faults_rate_limited,
                &c.hops_vantage_fallback,
                &c.gfw_egress_filtered,
            ]
            .map(|counter| counter.get())
        };
        let (mut rst, mut injected, mut dropped, mut duplicated) = (0, 0, 0, 0);
        for case in 0..16u64 {
            let rng = &mut sixdust_addr::prf::PrfStream::new(0x5CA7, u128::from(case), 40);
            let day = events::GFW_ERA3.0.plus(rng.next_bounded(300) as u32);
            let faults = FaultConfig::lossless()
                .with_seed(rng.next_u64())
                .with_drop_permille(100 + rng.next_bounded(300) as u32)
                .with_duplicate_permille(50 + rng.next_bounded(200) as u32);
            let config = ScanConfig::default()
                .with_attempts(3)
                .with_retry_backoff_ms(10)
                .with_seed(rng.next_u64());
            // Live hosts of every protocol mix (a host with one TCP port
            // open answers the other with RST), dark space, and dark
            // space behind the firewall.
            let mut targets: Vec<Addr> = plain
                .population()
                .enumerate_responsive(day)
                .into_iter()
                .map(|(a, ..)| a)
                .skip(case as usize)
                .step_by(7)
                .take(150)
                .collect();
            targets.extend(
                (0..20u128).map(|i| Addr((0x3fff_u128 << 112) | (u128::from(case) << 8) | i)),
            );
            targets
                .extend((0..20u128).map(|i| Addr(ct.prefixes[0].network().0 | (0xdead_0000 + i))));
            for protocol in Protocol::ALL {
                let reference_net = Internet::build(Scale::tiny()).with_faults(faults.clone());
                let (hits, stats) =
                    reference_scan(&reference_net, protocol, &targets, day, &config);
                rst += stats.received - stats.hits;
                injected += hits
                    .iter()
                    .filter(|h| matches!(h.detail, Detail::Dns { injected: true, .. }))
                    .count();
                let [.., drops, dups, _, _, _, _] = counted(&reference_net);
                dropped += drops;
                duplicated += dups;
                for budget in [1usize, 2, 4] {
                    let at = format!("case {case}, {protocol} at budget {budget}");
                    let scan_net = Internet::build(Scale::tiny()).with_faults(faults.clone());
                    let cfg = config.clone().with_threads(budget);
                    let result = scan(&scan_net, protocol, &targets, day, &cfg);
                    assert_eq!(result.hits, hits, "{at}");
                    assert_eq!(result.stats, stats, "{at}");
                    assert_eq!(counted(&scan_net), counted(&reference_net), "{at}");
                }
            }
        }
        // Every kind of outcome the reduction drops or keeps was there.
        assert!(rst > 0 && injected > 0, "{rst} RST-only targets, {injected} injected hits");
        assert!(dropped > 0 && duplicated > 0, "{dropped} dropped, {duplicated} duplicated");
    }

    #[test]
    fn a_huge_retry_backoff_saturates_instead_of_overflowing() {
        let net = net();
        let day = Day(100);
        let dark: Vec<Addr> = (0..4u128).map(|i| Addr((0x3fff_u128 << 112) | i)).collect();
        let config = ScanConfig::default().with_attempts(3).with_retry_backoff_ms(u64::MAX / 2);
        // Each half of the cycle saturates on its own, so at budget 2 the
        // merge adds two saturated tallies.
        let perm = CyclicPermutation::new(4, config.seed ^ u64::from(day.0));
        let half = perm.cycle_len().div_ceil(2);
        for start in [0, half] {
            let len = half.min(perm.cycle_len() - start);
            let (_, tally) =
                scan_segment(&net, Protocol::Icmp, &dark, day, &config, &perm, start, len);
            assert_eq!(tally.backoff_ms, u64::MAX, "segment at {start}");
        }
        for budget in [1usize, 2] {
            let result =
                scan(&net, Protocol::Icmp, &dark, day, &config.clone().with_threads(budget));
            assert_eq!(result.stats.retries, 8, "budget {budget}");
            assert_eq!(result.stats.backoff_secs, u64::MAX as f64 / 1e3, "budget {budget}");
        }
    }

    #[test]
    fn attempts_zero_clamps_to_one() {
        // The setter clamps the invalid 0.
        assert_eq!(ScanConfig::default().with_attempts(0).attempts, 1);
        // Even a hand-rolled struct literal smuggling attempts = 0
        // through direct field access still probes every target once.
        let cfg = ScanConfig { attempts: 0, ..ScanConfig::default() };
        let net = net();
        let day = Day(100);
        let targets = responsive_targets(&net, day, Protocol::Icmp, 5);
        let result = scan(&net, Protocol::Icmp, &targets, day, &cfg);
        assert_eq!(result.stats.sent, targets.len() as u64);
        assert!(result.stats.hits > 0);
    }

    #[test]
    fn retries_mask_loss_and_estimate_it() {
        let lossy = Internet::build(Scale::tiny())
            .with_faults(FaultConfig::lossless().with_drop_permille(300));
        let day = Day(100);
        let targets: Vec<Addr> = lossy
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .filter(|(_, p, _)| p.contains(Protocol::Icmp))
            .map(|(a, ..)| a)
            .take(200)
            .collect();
        let single =
            scan(&lossy, Protocol::Icmp, &targets, day, &ScanConfig::default().with_attempts(1));
        assert_eq!(single.stats.retries, 0);
        assert_eq!(single.stats.loss_estimate_permille, 0, "one attempt cannot observe loss");
        let retried =
            scan(&lossy, Protocol::Icmp, &targets, day, &ScanConfig::default().with_attempts(4));
        assert!(
            retried.stats.hits > single.stats.hits,
            "independent retry coins recover dropped targets: {} vs {}",
            retried.stats.hits,
            single.stats.hits
        );
        assert!(
            retried.stats.hits as f64 >= targets.len() as f64 * 0.95,
            "four attempts at 30% loss recover nearly everyone: {}",
            retried.stats.hits
        );
        assert!(retried.stats.retries > 0);
        // The estimator should land in the neighbourhood of the true 300‰.
        assert!(
            (150..=450).contains(&retried.stats.loss_estimate_permille),
            "loss estimate {}‰ near configured 300‰",
            retried.stats.loss_estimate_permille
        );
    }

    #[test]
    fn retry_backoff_extends_virtual_duration_only() {
        let lossy = Internet::build(Scale::tiny())
            .with_faults(FaultConfig::lossless().with_drop_permille(400));
        let day = Day(100);
        let targets: Vec<Addr> = lossy
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .filter(|(_, p, _)| p.contains(Protocol::Icmp))
            .map(|(a, ..)| a)
            .take(100)
            .collect();
        let flat = ScanConfig::default().with_attempts(3);
        let backoff = ScanConfig::default().with_attempts(3).with_retry_backoff_ms(10);
        let a = scan(&lossy, Protocol::Icmp, &targets, day, &flat);
        let b = scan(&lossy, Protocol::Icmp, &targets, day, &backoff);
        // Same seed, same coins: identical outcomes and retry counts.
        assert_eq!(a.stats.hits, b.stats.hits);
        assert_eq!(a.stats.retries, b.stats.retries);
        assert_eq!(a.stats.backoff_secs, 0.0);
        assert!(b.stats.retries > 0);
        assert!(b.stats.backoff_secs > 0.0, "backoff accrues virtual time");
        assert!(b.stats.duration_secs > a.stats.duration_secs);
    }

    #[test]
    fn lossy_scan_records_retry_telemetry() {
        let lossy = Internet::build(Scale::tiny())
            .with_faults(FaultConfig::lossless().with_drop_permille(300));
        let day = Day(100);
        let targets: Vec<Addr> = lossy
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .filter(|(_, p, _)| p.contains(Protocol::Icmp))
            .map(|(a, ..)| a)
            .take(150)
            .collect();
        let reg = sixdust_telemetry::Registry::new();
        let cfg = ScanConfig::default().with_attempts(3);
        let result = scan_with(&lossy, Protocol::Icmp, &targets, day, &cfg, Some(&reg));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("scan.icmp.retries"), Some(result.stats.retries));
        assert!(result.stats.retries > 0);
        assert_eq!(
            snap.gauge("scan.icmp.loss_estimate_permille"),
            Some(i64::from(result.stats.loss_estimate_permille))
        );
    }

    #[test]
    fn thread_clamp_is_counted_not_silent() {
        let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
        let day = Day(100);
        let targets: Vec<Addr> = net
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .map(|(a, ..)| a)
            .take(50)
            .collect();
        let reg = sixdust_telemetry::Registry::new();
        // Out-of-range settings clamp (0 -> 1, 200 -> 32) and count.
        for threads in [0usize, 200] {
            let cfg = ScanConfig::default().with_threads(threads);
            scan_with(&net, Protocol::Icmp, &targets, day, &cfg, Some(&reg));
        }
        assert_eq!(reg.snapshot().counter("scan.config.threads_clamped"), Some(2));
        // An in-range setting does not.
        let cfg = ScanConfig::default().with_threads(4);
        scan_with(&net, Protocol::Icmp, &targets, day, &cfg, Some(&reg));
        assert_eq!(reg.snapshot().counter("scan.config.threads_clamped"), Some(2));
    }

    #[test]
    fn chinese_last_hops_rotate_over_time() {
        let net = net();
        let ct = net.registry().by_asn(4134).unwrap();
        let block = net.registry().get(ct).prefixes[0].network();
        let dark = vec![Addr(block.0 | 0xabcd)];
        let cfg = YarrpConfig::default();
        let h1 = yarrp(&net, &dark, Day(100), &cfg).traces[0].last_responsive_hop().unwrap();
        let h2 = yarrp(&net, &dark, Day(130), &cfg).traces[0].last_responsive_hop().unwrap();
        assert_ne!(h1, h2, "rotating Chinese router interfaces accumulate");
        assert_eq!(net.registry().origin(h1), Some(ct));
    }
}
