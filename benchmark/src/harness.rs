//! The run protocol shared by every workload: a fixed number of passes
//! with a fresh set-up each, the fastest and the median pass, output
//! checks, and the sampling helper the kernel replays use.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::spec::{self, Sizes};
use crate::stats;
use crate::trace::{self, Tracer};

/// One invocation: `--workload W --seed S --seconds T --trace 0|1`.
pub struct Opts {
    pub workload: &'static str,
    pub seed: u64,
    /// Passes an untraced run makes: `WorkloadSpec::passes_in` of `T`.
    pub passes: usize,
    pub trace: bool,
    pub sizes: &'static Sizes,
}

impl Opts {
    pub fn kernel_budget(&self) -> Duration {
        Duration::from_millis(self.sizes.kernel_budget_ms)
    }
}

/// What one pass over a workload did.
pub struct Pass {
    /// Host seconds of each step (a round, a batch day, a serve day).
    pub steps: Vec<f64>,
    /// Rounds or logical requests.
    pub ops: u64,
    /// Operations that did not complete or were refused.
    pub failed: u64,
    /// Digest of the simulated statistics.
    pub ledger: u64,
    /// Bytes held by the workload's address sets, and the addresses the
    /// workload holds them for.
    pub set_bytes: u64,
    pub set_addrs: u64,
    /// Broken invariants, in words.
    pub violations: Vec<String>,
}

impl Pass {
    pub fn seconds(&self) -> f64 {
        self.steps.iter().sum()
    }
}

/// The result of one invocation.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// The line the driver reads.
    pub fn to_json(&self) -> Json {
        let unit = |name: &str| {
            spec::end_to_end(name)
                .map(|m| m.unit)
                .or_else(|| spec::per_layer(name).map(|m| m.unit))
                .expect("reported metric is declared")
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit(name)))]),
                    )
                })),
            ),
        ])
    }
}

/// Untraced protocol: set up and pass, `opts.passes` times. Two
/// throughputs come out of it. `ops_per_s` is that of the fastest pass,
/// assembled step by step (see [`stats::fastest_pass_seconds`]): what the
/// program itself takes once the host's disturbance is taken away, and
/// the one that resolves a change. `ops_per_s_median` is that of the
/// median whole pass: what was typically observed, the host's
/// disturbance included, and the one that shows a slowdown the fastest
/// pass hides. `setup_s` is the median set-up. No pass is discarded as a
/// warm-up; a cold first pass is one sample in about twenty or more.
pub fn measure<S>(
    opts: &Opts,
    mut setup: impl FnMut() -> S,
    mut pass: impl FnMut(S) -> Pass,
) -> Report {
    let mut setups = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    // What one set-up and one pass need. Later passes add only what the
    // allocator keeps of earlier ones, which differs from run to run.
    let mut peak_rss = 0.0;
    for _ in 0..opts.passes {
        let started = Instant::now();
        let state = setup();
        setups.push(started.elapsed().as_secs_f64());
        passes.push(pass(state));
        if passes.len() == 1 {
            peak_rss = peak_rss_mib();
        }
    }

    let first = &passes[0];
    let mut violations: Vec<String> = passes.iter().flat_map(|p| p.violations.clone()).collect();
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.ledger != first.ledger {
            violations.push(format!(
                "pass {i} ledger {:#018x} differs from pass 0 ledger {:#018x}",
                p.ledger, first.ledger
            ));
        }
        if p.steps.len() != first.steps.len() || p.ops != first.ops {
            violations.push(format!("pass {i} did different work from pass 0"));
        }
    }
    for v in &violations {
        println!("violation {}: {v}", opts.workload);
    }

    // Passes that did different work have no step in common to compare.
    let fastest = if violations.is_empty() {
        stats::fastest_pass_seconds(&passes.iter().map(|p| p.steps.as_slice()).collect::<Vec<_>>())
    } else {
        first.seconds()
    };
    let walls: Vec<f64> = passes.iter().map(Pass::seconds).collect();
    println!(
        "passes {}: n {} steps {} ops {} fastest {:.4} s step by step; whole passes min {:.4} s \
         median {:.4} s max {:.4} s",
        opts.workload,
        passes.len(),
        first.steps.len(),
        first.ops,
        fastest,
        stats::min(&walls),
        stats::median(&walls),
        stats::max(&walls),
    );
    println!("ledger {} {:#018x}", opts.workload, first.ledger);

    Report {
        correct: violations.is_empty(),
        attempted: passes.iter().map(|p| p.ops).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics: vec![
            ("ops_per_s", first.ops as f64 / fastest),
            ("ops_per_s_median", first.ops as f64 / stats::median(&walls)),
            ("peak_rss_mib", peak_rss),
            ("set_bytes_per_addr", first.set_bytes as f64 / first.set_addrs.max(1) as f64),
            ("setup_s", stats::median(&setups)),
        ],
    }
}

/// The process's peak resident set, from `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median host seconds of one call of `work` on a fresh `make()` input.
/// Samples until `budget` has been spent inside `work`, five times at
/// least. Only `work` is timed.
pub fn time_call<I, O>(
    budget: Duration,
    mut make: impl FnMut() -> I,
    mut work: impl FnMut(I) -> O,
) -> f64 {
    let mut samples = Vec::new();
    let mut spent = Duration::ZERO;
    while samples.len() < 5 || spent < budget {
        let input = make();
        let started = Instant::now();
        let out = work(black_box(input));
        let took = started.elapsed();
        black_box(out);
        spent += took;
        samples.push(took.as_secs_f64());
    }
    stats::median(&samples)
}

/// [`time_call`] for work that borrows its input, in nanoseconds per
/// element of a batch of `elems`.
pub fn ns_per_elem<O>(budget: Duration, elems: usize, mut work: impl FnMut() -> O) -> f64 {
    time_call(budget, || (), |()| work()) * 1e9 / elems.max(1) as f64
}

/// The per-layer numbers of one traced run. Every declared metric is
/// present; one nobody set reads 0.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(spec::per_layer(name).is_some(), "undeclared per-layer metric {name}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// In declaration order.
    pub fn into_metrics(self) -> Vec<(&'static str, f64)> {
        spec::PER_LAYER.iter().map(|m| (m.name, self.get(m.name))).collect()
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Where the benchmark writes: `benchmark/out/` of the checkout it is run
/// from, or else of the checkout it was built in.
pub fn out_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Ends a traced run: the closure and overhead rows, the `unattributed`
/// row, and the trace file. `traced_wall` is the host time the spans
/// should account for; `overhead_ratio` is the traced stages' time over
/// the same stages' time in an untraced pass.
pub fn finish_trace(
    opts: &Opts,
    tracer: &Tracer,
    layers: &mut Layers,
    traced_wall: f64,
    overhead_ratio: f64,
) {
    let top = tracer.top_level_seconds();
    layers.set("bench.closure_ratio", top / traced_wall);
    layers.set("bench.trace_overhead_ratio", overhead_ratio);

    let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (i, span) in tracer.spans().iter().enumerate() {
        let row = by_name.entry(span.name).or_default();
        row.0 += 1;
        row.1 += span.seconds();
        row.2 += trace::self_seconds(tracer.spans(), i);
    }
    println!("trace {}: wall {traced_wall:.4} s, {overhead_ratio:.4} of untraced", opts.workload);
    for (name, (n, total, own)) in &by_name {
        println!("  span {name:<24} n {n:>6} total {total:>9.4} s self {own:>9.4} s");
    }
    println!("  span {:<24} n {:>6} total {:>9.4} s", "unattributed", 1, traced_wall - top);

    let spans = Json::Arr(
        tracer
            .spans()
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start", Json::Num(s.start)),
                    ("end", Json::Num(s.end)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ])
            })
            .collect(),
    );
    let file = Json::obj([
        ("workload", Json::str(opts.workload)),
        ("seed", Json::Num(opts.seed as f64)),
        ("wall_s", Json::Num(traced_wall)),
        ("unattributed_s", Json::Num(traced_wall - top)),
        ("spans", spans),
    ]);
    let path = out_dir().join(format!("trace-{}.json", opts.workload));
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, file.compact()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Collects the broken invariants of a traced run into its report.
pub fn traced_report(
    opts: &Opts,
    layers: Layers,
    ops: u64,
    failed: u64,
    ledger: u64,
    violations: &[String],
) -> Report {
    for v in violations {
        println!("violation {}: {v}", opts.workload);
    }
    println!("ledger {} {ledger:#018x}", opts.workload);
    Report {
        correct: violations.is_empty(),
        attempted: ops,
        failed,
        metrics: layers.into_metrics(),
    }
}
