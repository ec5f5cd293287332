//! Round hot-path throughput: full `HitlistService` rounds per second at
//! several thread budgets, plus the one-thread baseline the threaded path
//! must stay byte-identical with. `scripts/bench_round.sh` distils the
//! estimates into `BENCH_round.json` so future PRs have a trajectory to
//! compare against.

use std::sync::OnceLock;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sixdust_hitlist::{HitlistService, ServiceConfig};
use sixdust_net::{Day, FaultConfig, Internet, Scale};
use sixdust_scan::ScanConfig;

/// Days per iteration: long enough that round bookkeeping (churn, cumulative
/// table, snapshots) is exercised, short enough for benchmark territory.
const WINDOW_DAYS: u32 = 10;

fn net() -> &'static Internet {
    static NET: OnceLock<Internet> = OnceLock::new();
    NET.get_or_init(|| {
        Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless().with_drop_permille(2))
    })
}

fn run_window(config: ServiceConfig) -> usize {
    let mut svc = HitlistService::new(config);
    svc.run(net(), Day(0), Day(WINDOW_DAYS));
    svc.rounds().len()
}

/// Rounds/sec of the scan + merge hot path. `round_seq` is a round-level
/// budget of one thread: every scan and alias round runs inline on the
/// calling thread. `round_par_N` hands the same rounds' segments to the
/// executor on N threads. The merge stays sequential in all variants, so
/// throughput is the only thing that may differ — outputs are pinned
/// byte-identical by
/// `parallel_rounds_identical_to_sequential_at_any_thread_budget`.
fn bench_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("round");
    g.sample_size(10);
    let window = |threads: usize| {
        run_window(ServiceConfig::default().with_scan(ScanConfig::default().with_threads(threads)))
    };
    g.bench_function("round_seq", |b| b.iter(|| black_box(window(1))));
    for budget in [2usize, 4, 8] {
        g.bench_function(format!("round_par_{budget}"), |b| b.iter(|| black_box(window(budget))));
    }
    g.finish();
}

criterion_group!(
    name = round;
    config = Criterion::default().sample_size(10);
    targets = bench_round
);
criterion_main!(round);
