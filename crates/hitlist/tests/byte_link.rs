//! The service's rounds scanned on bytes. One faulty run goes round by
//! round through `run_round`; a second one prepares the same rounds, scans
//! them with `scan_jobs_wire` (every probe a real packet, every reply
//! reassembled and parsed) and completes them. Each round's scan results,
//! hit details and counts included, and each round's record must be
//! equal, and so must the two services' checkpoints and the simulators'
//! counters at the end.

use std::collections::BTreeSet;

use sixdust_hitlist::{HitlistService, ServiceConfig, ServiceState};
use sixdust_net::{events, Day, FaultConfig, GilbertElliott, Internet, Outage, Scale};
use sixdust_scan::{scan_jobs, scan_jobs_wire, Detail, ScanConfig};

/// Loss in bursts, duplicated answers and a three-day vantage blackout
/// just before GFW era 1 starts injecting. No corruption: it exists only
/// on the wire, so the structured run could not follow it.
fn world() -> Internet {
    Internet::build(Scale::tiny()).with_faults(
        FaultConfig::lossless()
            .with_seed(0xB17E)
            .with_burst(GilbertElliott {
                mean_good_days: 6,
                mean_bad_days: 3,
                good_drop_permille: 30,
                bad_drop_permille: 400,
            })
            .with_duplicate_permille(50)
            .with_outage(Outage::vantage(Day(322), Day(325))),
    )
}

/// Retries with backoff, and a budget of two threads: results do not
/// depend on it, and a probe costs the byte link an order of magnitude
/// more than the structured one.
fn service() -> HitlistService {
    let scan = ScanConfig::default().with_threads(2).with_attempts(2).with_retry_backoff_ms(10);
    HitlistService::new(
        ServiceConfig::default()
            .with_scan(scan)
            .with_alias_every_days(14)
            .with_traceroute_cap(300)
            .with_gfw_filter_from(Some(Day(338)))
            .with_snapshot_days(vec![Day(335)]),
    )
}

/// Every counter of a simulator but `net.wire_packets`, which only the
/// byte link moves.
fn counted(net: &Internet) -> [u64; 8] {
    let c = net.counters();
    [
        &c.probes,
        &c.ttl_probes,
        &c.faults_dropped,
        &c.faults_duplicated,
        &c.faults_corrupted,
        &c.faults_rate_limited,
        &c.hops_vantage_fallback,
        &c.gfw_egress_filtered,
    ]
    .map(|c| c.get())
}

#[test]
fn a_faulty_service_run_scanned_on_bytes_is_the_structured_run() {
    let (structured_net, wire_net) = (world(), world());
    // The structured scans each byte-link round is compared with run here,
    // so that neither run's simulator counts a probe twice.
    let reference_net = world();
    let (mut structured, mut wire) = (service(), service());
    let threads = structured.config().scan.threads;
    let days = events::cadence(Day(320), Day(350));
    let (mut ittls, mut injected, mut retries) = (BTreeSet::new(), 0, 0);
    for &day in &days {
        let record = structured.run_round(&structured_net, day).clone();
        let prepared = wire.prepare_round(&wire_net, day);
        let (on_wire, _) = scan_jobs_wire(threads, &[wire.round_job(&wire_net, &prepared)]);
        let (reference, _) = scan_jobs(threads, &[wire.round_job(&reference_net, &prepared)]);
        assert_eq!(on_wire, reference, "the scans of {day:?}");
        for hit in on_wire.iter().flat_map(|r| &r.hits) {
            match hit.detail {
                Detail::SynAck { ittl, .. } => {
                    ittls.insert(ittl);
                }
                Detail::Dns { injected: true, .. } => injected += 1,
                _ => {}
            }
        }
        retries += on_wire.iter().map(|r| r.stats.retries).sum::<u64>();
        assert_eq!(wire.complete_round(&wire_net, prepared, on_wire), &record, "{day:?}");
    }
    assert!(days.len() >= 30, "{} rounds", days.len());
    // What the run has to cross for the comparison to mean anything.
    assert_eq!(ittls, [64, 128, 255].into(), "every fingerprint profile's initial TTL");
    assert!(injected > 0, "GFW-injected answers parsed off the wire");
    assert!(retries > 0, "retries under loss");
    assert!(structured.degraded_rounds() > 0, "the blackout degrades rounds");
    assert!(structured_net.counters().faults_duplicated.get() > 0, "duplicated answers");
    assert_eq!(
        ServiceState::capture(&wire).to_json(),
        ServiceState::capture(&structured).to_json()
    );
    assert_eq!(counted(&wire_net), counted(&structured_net));
    assert!(wire_net.counters().wire_packets.get() > 0);
}
