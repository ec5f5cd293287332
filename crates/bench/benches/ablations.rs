//! Ablation benchmarks for the design choices DESIGN.md §7 calls out.
//! Runtime costs are measured here; the *quality* side of each ablation
//! (misclassification rates, spike magnitudes) is reported by
//! `sixdust-exp ablations`-style assertions in the test suite.

use std::sync::OnceLock;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sixdust_addr::Addr;
use sixdust_alias::{AliasDetector, DetectorConfig};
use sixdust_net::{Day, FaultConfig, Internet, Protocol, Scale};
use sixdust_scan::{scan, CyclicPermutation, ScanConfig};
use sixdust_tga::{DistanceClustering, TargetGenerator};

fn net() -> &'static Internet {
    static NET: OnceLock<Internet> = OnceLock::new();
    NET.get_or_init(|| Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless()))
}

fn targets() -> Vec<Addr> {
    net()
        .population()
        .enumerate_responsive(Day(300))
        .into_iter()
        .map(|(a, ..)| a)
        .take(3000)
        .collect()
}

/// Permutation scanning vs naive sequential order.
fn ablation_permutation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_scan_order");
    let t = targets();
    g.bench_function("permuted", |b| {
        b.iter(|| scan(net(), Protocol::Icmp, &t, Day(300), &ScanConfig::default()).stats.hits)
    });
    g.bench_function("permutation_overhead_only", |b| {
        b.iter(|| CyclicPermutation::new(black_box(t.len() as u64), 7).sum::<u64>())
    });
    g.finish();
}

/// Alias-detection merge window width (the paper merges 3 prior rounds).
fn ablation_merge_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_alias_merge");
    g.sample_size(10);
    let day = Day(400);
    let prefixes: Vec<_> =
        net().population().aliased_groups(day).map(|g| g.prefix).take(150).collect();
    for merge_rounds in [0usize, 3] {
        g.bench_function(format!("merge_{merge_rounds}_rounds"), |b| {
            b.iter(|| {
                let mut det = AliasDetector::new(
                    DetectorConfig::builder().merge_rounds(merge_rounds).build(),
                );
                for gap in 0..=merge_rounds as u32 {
                    det.run_round(net(), &prefixes, day.plus(gap));
                }
                det.aliased().len()
            })
        });
    }
    g.finish();
}

/// Scan worker threads (the executor fan-out).
fn ablation_threads(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_scan_threads");
    let t = targets();
    for threads in [1usize, 4, 8] {
        g.bench_function(format!("threads_{threads}"), |b| {
            let cfg = ScanConfig::builder().threads(threads).build();
            b.iter(|| scan(net(), Protocol::Icmp, &t, Day(300), &cfg).stats.hits)
        });
    }
    g.finish();
}

/// Distance clustering parameters (min cluster size / max gap).
fn ablation_dc_params(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_dc_params");
    let day = Day(1200);
    let mut seeds: Vec<Addr> = net().population().dense_visible(day).into_iter().collect();
    seeds.sort_unstable();
    for (min_cluster, max_gap) in [(10usize, 64u128), (4, 64), (10, 256)] {
        g.bench_function(format!("min{min_cluster}_gap{max_gap}"), |b| {
            let dc = DistanceClustering { min_cluster, max_gap };
            b.iter(|| dc.generate(black_box(&seeds), 20_000).len())
        });
    }
    g.finish();
}

/// The candidate-construction pass of the alias detection (sorted walk).
fn ablation_candidates(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_candidates");
    g.sample_size(10);
    let input: Vec<Addr> =
        net().population().enumerate_responsive(Day(300)).into_iter().map(|(a, ..)| a).collect();
    for threshold in [100usize, 10] {
        g.bench_function(format!("long_prefix_threshold_{threshold}"), |b| {
            b.iter(|| sixdust_alias::candidates(net(), black_box(&input), threshold).len())
        });
    }
    g.finish();
}

criterion_group!(
    name = ablations;
    config = Criterion::default().sample_size(20);
    targets = ablation_permutation, ablation_merge_window, ablation_threads, ablation_dc_params, ablation_candidates
);
criterion_main!(ablations);
