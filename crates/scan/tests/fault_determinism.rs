//! Property tests for the chaos contract of the scan engine: fault
//! injection is *seeded*, so the same `FaultConfig` must yield
//! byte-identical scan results no matter how the work is sharded across
//! worker threads, and re-running the same scan must replay it exactly.
//! Seeded loops, 16 cases each.

use sixdust_addr::prf::PrfStream;
use sixdust_addr::Addr;
use sixdust_net::{Day, FaultConfig, GilbertElliott, Internet, Protocol, Scale};
use sixdust_scan::{scan, Hit, ScanConfig, ScanResult, ScanStats};

const CASES: u64 = 16;

fn stream(property: u64, case: u64) -> PrfStream {
    PrfStream::new(0x5CA7, u128::from(case), property)
}

/// Builds a faulty world from the generated knobs. Every fault class the
/// config supports is exercised across the case space.
fn faulty_net(
    fault_seed: u64,
    drop_permille: u32,
    duplicate_permille: u32,
    bursty: bool,
) -> Internet {
    let mut faults = FaultConfig::lossless()
        .with_seed(fault_seed)
        .with_drop_permille(drop_permille)
        .with_duplicate_permille(duplicate_permille);
    if bursty {
        faults = faults.with_burst(GilbertElliott {
            mean_good_days: 6,
            mean_bad_days: 3,
            good_drop_permille: drop_permille,
            bad_drop_permille: 500,
        });
    }
    Internet::build(Scale::tiny()).with_faults(faults)
}

/// The comparable projection of a scan: its hits in probe order plus
/// every deterministic stats field. (`ScanResult` itself does
/// not implement `Eq` because `duration_secs` is an `f64`.)
fn fingerprint(r: &ScanResult) -> (Vec<Hit>, u64, u64, u64, u64, u32) {
    let ScanStats { sent, received, hits, retries, loss_estimate_permille, .. } = r.stats;
    (r.hits.clone(), sent, received, hits, retries, loss_estimate_permille)
}

/// Same seed + same `FaultConfig` ⇒ identical results for 1, 2 and 8
/// workers. The permutation, the loss coins and the retry loop must all
/// key off (target, day, attempt), never off scheduling.
#[test]
fn results_identical_across_worker_counts() {
    for case in 0..CASES {
        let rng = &mut stream(1, case);
        let (fault_seed, scan_seed) = (rng.next_u64(), rng.next_u64());
        let drop_permille = rng.next_bounded(400) as u32;
        let duplicate_permille = rng.next_bounded(200) as u32;
        let bursty = case % 2 == 0;
        let attempts = 1 + rng.next_bounded(3) as u8;
        let protocol = Protocol::ALL[case as usize % 5];
        let day = Day(rng.next_bounded(1376) as u32);
        let net = faulty_net(fault_seed, drop_permille, duplicate_permille, bursty);
        let targets: Vec<Addr> = net
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .map(|(a, ..)| a)
            .take(300)
            .collect();
        assert!(!targets.is_empty(), "no responsive host on {day:?}");
        let config = |threads: usize| {
            ScanConfig::default().with_threads(threads).with_attempts(attempts).with_seed(scan_seed)
        };
        let single = scan(&net, protocol, &targets, day, &config(1));
        let double = scan(&net, protocol, &targets, day, &config(2));
        let wide = scan(&net, protocol, &targets, day, &config(8));
        assert_eq!(fingerprint(&single), fingerprint(&double), "case {case}");
        assert_eq!(fingerprint(&single), fingerprint(&wide), "case {case}");
        // And the same scan replayed against the same world is a replay,
        // not a re-roll.
        let again = scan(&net, protocol, &targets, day, &config(1));
        assert_eq!(fingerprint(&single), fingerprint(&again), "case {case}");
    }
}

/// Loss can only lose: under pure drop faults every hit is a hit the
/// lossless run also sees, and retries only narrow the gap.
#[test]
fn faulty_hits_are_a_subset_of_lossless_hits() {
    let clean = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
    for case in 0..CASES {
        let rng = &mut stream(2, case);
        let lossy = faulty_net(rng.next_u64(), rng.next_bounded(500) as u32, 0, false);
        let attempts = 1 + rng.next_bounded(3) as u8;
        let day = Day(rng.next_bounded(1376) as u32);
        let targets: Vec<Addr> = clean
            .population()
            .enumerate_responsive(day)
            .into_iter()
            .map(|(a, ..)| a)
            .take(300)
            .collect();
        assert!(!targets.is_empty(), "no responsive host on {day:?}");
        let config = ScanConfig::default().with_attempts(attempts);
        let faulty = scan(&lossy, Protocol::Icmp, &targets, day, &config);
        let baseline = scan(&clean, Protocol::Icmp, &targets, day, &config);
        let baseline_hits: std::collections::HashSet<Addr> = baseline.hit_addrs().collect();
        for hit in faulty.hit_addrs() {
            assert!(baseline_hits.contains(&hit), "{hit} answered only under loss");
        }
        assert!(faulty.stats.hits <= baseline.stats.hits);
    }
}
