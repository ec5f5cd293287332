//! The scan kernel probes a segment's targets in index order and reports
//! them in cycle order. Held here to the plainest scan there is: walk the
//! permutation cycle, send each target every protocol's probe through
//! `Internet::probe_attempt` until one is answered, classify, keep the
//! hits. `scan_jobs` at every budget and concatenated `scan_segment`
//! ranges must return what that walk returns, field for field, and leave
//! the simulator's counters where it left them.

use sixdust_addr::prf::PrfStream;
use sixdust_addr::Addr;
use sixdust_net::{events, Day, FaultConfig, Internet, Protocol, Scale};
use sixdust_scan::engine::{classify, probe_for};
use sixdust_scan::{
    assemble_scan, scan_jobs, scan_segment, CyclicPermutation, Detail, Hit, ScanConfig, ScanJob,
    ScanResult, ScanStats, SegmentTally,
};

/// The reference: one protocol's scan as a cycle-order walk.
fn cycle_order_scan(
    net: &Internet,
    protocol: Protocol,
    targets: &[Addr],
    day: Day,
    config: &ScanConfig,
) -> (Vec<Hit>, ScanStats) {
    let probe = probe_for(protocol, &config.dns_qname);
    let mut hits = Vec::new();
    let (mut sent, mut received, mut retries, mut backoff_ms) = (0u64, 0u64, 0u64, 0u64);
    let (mut responders, mut failed_of_responders) = (0u64, 0u64);
    for i in CyclicPermutation::new(targets.len() as u64, config.seed ^ u64::from(day.0)) {
        let target = targets[i as usize];
        let mut responses = Vec::new();
        let mut failed = 0;
        for attempt in 0..config.attempts {
            if attempt > 0 {
                retries += 1;
                backoff_ms += config.retry_backoff_ms << (attempt - 1);
            }
            sent += 1;
            responses = net.probe_attempt(target, &probe, day, attempt);
            if !responses.is_empty() {
                break;
            }
            failed += 1;
        }
        if !responses.is_empty() {
            responders += 1;
            failed_of_responders += failed;
        }
        let (success, detail) = classify(protocol, &responses);
        received += u64::from(detail != Detail::Silent);
        if success {
            hits.push(Hit { target, detail });
        }
    }
    let backoff_secs = backoff_ms as f64 / 1e3;
    let stats = ScanStats {
        sent,
        received,
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

/// The simulator's counts of what it was sent.
fn counted(net: &Internet) -> [u64; 4] {
    let c = net.counters();
    [&c.probes, &c.faults_dropped, &c.faults_duplicated, &c.gfw_egress_filtered]
        .map(|counter| counter.get())
}

/// Checks one result against the reference's hits and stats.
fn assert_same(got: &ScanResult, (hits, stats): &(Vec<Hit>, ScanStats), at: &str) {
    assert_eq!(got.hits, *hits, "{at}: hits");
    assert_eq!(got.stats, *stats, "{at}: stats");
}

#[test]
fn the_kernel_reports_what_a_cycle_order_walk_reports() {
    let plain = Internet::build(Scale::tiny());
    let ct = plain.registry().get(plain.registry().by_asn(4134).expect("China Telecom"));
    let (mut injected, mut dropped, mut duplicated, mut reordered) = (0, 0, 0, 0);
    for case in 0..6u64 {
        let rng = &mut PrfStream::new(0xC7C1E, u128::from(case), 0);
        // Half the cases on a firewall era day, half on an ordinary one.
        let day = if case % 2 == 0 {
            events::GFW_ERA3.0.plus(rng.next_bounded(200) as u32)
        } else {
            Day(100 + rng.next_bounded(400) as u32)
        };
        let faults = FaultConfig::lossless()
            .with_seed(rng.next_u64())
            .with_drop_permille(100 + rng.next_bounded(250) as u32)
            .with_duplicate_permille(50 + rng.next_bounded(200) as u32);
        let config = ScanConfig::default()
            .with_attempts(3)
            .with_retry_backoff_ms(rng.next_bounded(20))
            .with_seed(rng.next_u64());
        // Live hosts of every protocol mix, dark space, and dark space
        // behind the firewall.
        let mut targets: Vec<Addr> = (plain.population().enumerate_responsive(day).into_iter())
            .map(|(a, ..)| a)
            .skip(case as usize)
            .step_by(5)
            .take(300)
            .collect();
        targets
            .extend((0..30u128).map(|i| Addr((0x3fff_u128 << 112) | (u128::from(case) << 8) | i)));
        targets.extend((0..30u128).map(|i| Addr(ct.prefixes[0].network().0 | (0xdead_0000 + i))));
        // Ascending, as the service hands its targets over, and shuffled.
        let mut shuffled = targets.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.next_bounded(i as u64 + 1) as usize);
        }
        targets.sort_unstable();
        for (order, targets) in [("ascending", &targets), ("shuffled", &shuffled)] {
            let world = || Internet::build(Scale::tiny()).with_faults(faults.clone());
            let reference_net = world();
            let reference: Vec<(Vec<Hit>, ScanStats)> = (Protocol::ALL.iter())
                .map(|&p| cycle_order_scan(&reference_net, p, targets, day, &config))
                .collect();
            let [_, drops, dups, _] = counted(&reference_net);
            dropped += drops;
            duplicated += dups;
            injected += (reference.iter().flat_map(|(hits, _)| hits))
                .filter(|h| matches!(h.detail, Detail::Dns { injected: true, .. }))
                .count();
            // The plan bit: hits in cycle order are not in index order.
            let icmp_hits = &reference[0].0;
            let index_of = |a: Addr| targets.iter().position(|&t| t == a);
            reordered += usize::from(!icmp_hits.is_sorted_by_key(|h| index_of(h.target)));

            for budget in 1..=3usize {
                let at = format!("case {case}, {order} targets, budget {budget}");
                let net = world();
                let job = ScanJob {
                    net: &net,
                    protocols: &Protocol::ALL,
                    targets,
                    day,
                    config: &config,
                    telemetry: None,
                };
                let (results, _) = scan_jobs(budget, &[job]);
                assert_eq!(results.len(), Protocol::ALL.len(), "{at}");
                for ((result, expected), protocol) in
                    results.iter().zip(&reference).zip(Protocol::ALL)
                {
                    assert_eq!((result.protocol, result.day), (protocol, day), "{at}");
                    assert_same(result, expected, &format!("{at}, {protocol} of a fused job"));
                }
                assert_eq!(counted(&net), counted(&reference_net), "{at}: counters");
            }

            // One protocol at a time, its cycle cut into 1 to 3 ranges
            // whose segments are concatenated in cycle order.
            let perm = CyclicPermutation::new(targets.len() as u64, config.seed ^ u64::from(day.0));
            let cycle = perm.cycle_len();
            for pieces in 1..=3u64 {
                let net = world();
                for (&protocol, expected) in Protocol::ALL.iter().zip(&reference) {
                    let at =
                        format!("case {case}, {order} targets, {protocol} in {pieces} segments");
                    let per = cycle.div_ceil(pieces);
                    let (mut hits, mut tally) = (Vec::new(), SegmentTally::default());
                    for start in (0..cycle).step_by(per as usize) {
                        let (more, more_tally) =
                            scan_segment(&net, protocol, targets, day, &config, &perm, start, per);
                        hits.extend(more);
                        tally.merge(more_tally);
                    }
                    assert_same(
                        &assemble_scan(protocol, day, &config, hits, tally, None),
                        expected,
                        &at,
                    );
                }
                assert_eq!(counted(&net), counted(&reference_net), "{pieces} segments: counters");
            }
        }
    }
    // Every kind of outcome was there to be reordered.
    assert!(injected > 0, "no injected answer");
    assert!(dropped > 0 && duplicated > 0, "{dropped} dropped, {duplicated} duplicated");
    assert!(reordered >= 10, "{reordered} walks whose hits cycle order moved");
}
