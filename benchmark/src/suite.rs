//! `all`: every workload, each run a process of its own, aggregated into
//! one table and one result file. `compare`: two result files, metric by
//! metric.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::harness::out_dir;
use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::Summary;

pub struct AllOpts {
    pub seed: u64,
    pub quick: bool,
    pub out: Option<PathBuf>,
}

impl AllOpts {
    /// Untraced runs per workload; one traced run follows them.
    fn runs(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// The length every run is sized for. A quick run makes one pass.
    fn seconds(&self) -> f64 {
        if self.quick {
            0.0
        } else {
            spec::RUN_SECONDS
        }
    }
}

/// What one child process reported.
struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    ledger: String,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload once in a process of its own, so that its peak
/// resident set is its own, and echoes what it printed.
fn child(workload: &str, opts: &AllOpts, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or_else(|| {
        format!("{workload} printed nothing: {}", String::from_utf8_lossy(&output.stderr).trim())
    })?;
    for line in &lines {
        println!("  | {line}");
    }
    let result =
        Json::parse(last).map_err(|e| format!("{workload}: unreadable result line: {e}"))?;
    let field =
        |key: &str| result.get(key).ok_or_else(|| format!("{workload}: result has no {key}"));
    let ledger = lines
        .iter()
        .find_map(|line| line.strip_prefix("ledger ").and_then(|rest| rest.split(' ').nth(1)))
        .ok_or_else(|| format!("{workload} printed no ledger"))?;
    Ok(Run {
        correct: field("correct")? == &Json::Bool(true) && output.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        ledger: ledger.to_string(),
        metrics: field("metrics")?
            .members()
            .iter()
            .map(|(name, m)| (name.clone(), m.get("value").and_then(Json::as_f64).unwrap_or(0.0)))
            .collect(),
    })
}

/// Five significant digits, without an exponent; whole numbers whole.
fn sig(v: f64) -> String {
    if v.fract() == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (4 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn all(opts: &AllOpts) -> Result<ExitCode, String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = rustc_version();
    println!(
        "sixdust-benchmark all: seed {} runs {} seconds {} quick {} nproc {nproc} {rustc}",
        opts.seed,
        opts.runs(),
        opts.seconds(),
        opts.quick
    );
    let mut failures: Vec<String> = Vec::new();
    let mut workloads: Vec<(String, Json)> = Vec::new();

    for workload in &spec::WORKLOADS {
        let name = workload.name;
        println!("\n== {name}: {}", workload.why);
        let mut runs: Vec<Run> = Vec::new();
        for i in 0..opts.runs() {
            println!("  run {} of {} (trace off)", i + 1, opts.runs());
            runs.push(child(name, opts, false)?);
        }
        println!("  traced run");
        let traced = child(name, opts, true)?;

        if runs.iter().chain([&traced]).any(|r| !r.correct) {
            failures.push(format!("{name}: an output check failed"));
        }
        if runs.iter().chain([&traced]).any(|r| r.ledger != runs[0].ledger) {
            failures.push(format!("{name}: ledger differs across the runs of one seed"));
        }

        let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
        let failed: f64 = runs.iter().map(|r| r.failed).sum();
        println!("  ledger {} attempted {attempted} failed {failed}", runs[0].ledger);
        println!(
            "  {:<38} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>3} {:>7} {:>6}",
            "end-to-end", "unit", "median", "q1", "q3", "min", "max", "n", "spread", "bound"
        );
        let mut end_to_end: Vec<(String, Json)> = Vec::new();
        for metric in &spec::END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric.name).map(|(_, v)| *v))
                .collect();
            if values.len() != runs.len() {
                failures.push(format!("{name}: a run did not report {}", metric.name));
            }
            let s = Summary::of(&values);
            println!(
                "  {:<38} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>3} {:>6.2}% {:>5.0}%",
                metric.name,
                metric.unit,
                sig(s.median),
                sig(s.q1),
                sig(s.q3),
                sig(s.min),
                sig(s.max),
                s.n,
                s.spread() * 100.0,
                metric.bound * 100.0
            );
            end_to_end.push((
                metric.name.to_string(),
                Json::obj([
                    ("unit", Json::str(metric.unit)),
                    ("better", Json::str(metric.better.as_str())),
                    ("bound", Json::Num(metric.bound)),
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("min", Json::Num(s.min)),
                    ("max", Json::Num(s.max)),
                    ("n", Json::Num(s.n as f64)),
                    ("values", Json::nums(&values)),
                ]),
            ));
        }
        println!("  {:<38} {:>7} {:>12}   (traced run, n 1)", "per-layer", "unit", "value");
        let mut per_layer: Vec<(String, Json)> = Vec::new();
        for metric in &spec::PER_LAYER {
            let Some((_, value)) = traced.metrics.iter().find(|(n, _)| n == metric.name) else {
                failures.push(format!("{name}: the traced run did not report {}", metric.name));
                continue;
            };
            println!("  {:<38} {:>7} {:>12}", metric.name, metric.unit, sig(*value));
            per_layer.push((
                metric.name.to_string(),
                Json::obj([
                    ("unit", Json::str(metric.unit)),
                    ("better", Json::str(metric.better.as_str())),
                    ("exact", Json::Bool(metric.exact)),
                    ("value", Json::Num(*value)),
                ]),
            ));
        }
        workloads.push((
            name.to_string(),
            Json::obj([
                ("ledger", Json::str(runs[0].ledger.clone())),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
            ]),
        ));
    }

    let results = Json::obj([
        ("seed", Json::Num(opts.seed as f64)),
        ("runs", Json::Num(opts.runs() as f64)),
        ("seconds", Json::Num(opts.seconds())),
        ("quick", Json::Bool(opts.quick)),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(rustc)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = opts.out.clone().unwrap_or_else(|| out_dir().join("results.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, results.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());

    for failure in &failures {
        println!("FAILED {failure}");
    }
    Ok(if failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread between one side's own runs is wider than the bound.
    Unresolved,
}

/// Judges side B of one metric against side A. A metric is worse when
/// B's median is worse than A's by more than `bound` of A's median. When
/// either side's quartiles lie further apart than the bound, the runs
/// cannot resolve a change of that size: the metric is unresolved, unless
/// every run of B reads better than every run of A.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let all_better = match better {
        Better::Higher => sb.min > sa.max,
        Better::Lower => sb.max < sa.min,
    };
    if all_better {
        return Verdict::Ok;
    }
    if sa.spread() > bound || sb.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Higher => sa.median - sb.median,
        Better::Lower => sb.median - sa.median,
    };
    if worse_by > bound * sa.median.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn read_results(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values_of(metric: &Json) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// Sets of another size, run count or run length are not two samples of
/// one quantity: the fastest of more passes is faster.
fn comparable(a: &Json, b: &Json) -> Result<(), String> {
    for key in ["quick", "runs", "seconds"] {
        if a.get(key).is_none() || a.get(key) != b.get(key) {
            return Err(format!("the two sets differ in `{key}`: they cannot be compared"));
        }
    }
    Ok(())
}

pub fn compare(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (read_results(a_path)?, read_results(b_path)?);
    println!("A = {}\nB = {}", a_path.display(), b_path.display());
    comparable(&a, &b)?;
    if a.get("seed") != b.get("seed") {
        println!("the two sets ran different seeds: ledgers and counts will differ");
    }
    let (mut worse, mut unresolved, mut changed) = (0, 0, 0);
    let empty = Json::Obj(Vec::new());
    let a_workloads = a.get("workloads").unwrap_or(&empty);
    let b_workloads = b.get("workloads").unwrap_or(&empty);
    for (name, wa) in a_workloads.members() {
        let Some(wb) = b_workloads.get(name) else {
            println!("{name}: missing from B");
            worse += 1;
            continue;
        };
        let ledgers_agree = wa.get("ledger") == wb.get("ledger");
        println!("{name}: ledger {}", if ledgers_agree { "identical" } else { "CHANGED" });
        changed += usize::from(!ledgers_agree);
        for (metric, ma) in wa.get("end_to_end").unwrap_or(&empty).members() {
            let Some(mb) = wb.get("end_to_end").and_then(|e| e.get(metric)) else {
                println!("  {metric}: missing from B");
                worse += 1;
                continue;
            };
            let better = match ma.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let bound = ma.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = ma.get("unit").and_then(Json::as_str).unwrap_or("");
            let (va, vb) = (values_of(ma), values_of(mb));
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let verdict = judge(&va, &vb, better, bound);
            match verdict {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "  {metric:<20} A {:>12} {unit:<6} B {:>12} {unit:<6} B/A {:.4} of {} ({} is better) \
                 bound {:.0}% spread A {:.2}% B {:.2}% n {}/{}: {}",
                sig(sa.median),
                sig(sb.median),
                if sa.median == 0.0 { 0.0 } else { sb.median / sa.median },
                sig(sa.median),
                better.as_str(),
                bound * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                sa.n,
                sb.n,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for (metric, ma) in wa.get("per_layer").unwrap_or(&empty).members() {
            if ma.get("exact") != Some(&Json::Bool(true)) {
                continue;
            }
            let value = |m: &Json| m.get("value").and_then(Json::as_f64);
            let vb = wb.get("per_layer").and_then(|p| p.get(metric)).and_then(value);
            if value(ma) != vb {
                println!("  {metric}: count CHANGED, A {:?} B {:?}", value(ma), vb);
                changed += 1;
            }
        }
    }
    println!("{worse} worse, {unresolved} unresolved, {changed} ledgers or counts changed");
    Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_median_beyond_the_bound_is_worse_in_the_metric_s_own_direction() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.0];
        let slower = [88.0, 89.0, 88.5, 88.0, 89.0];
        assert_eq!(judge(&a, &slower, Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &slower, Better::Lower, 0.10), Verdict::Ok);
        let within = [93.0, 94.0, 93.5, 93.0, 94.0];
        assert_eq!(judge(&a, &within, Better::Higher, 0.10), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let a = [100.0, 120.0, 80.0, 110.0, 90.0];
        let b = [95.0, 125.0, 85.0, 100.0, 90.0];
        assert_eq!(judge(&a, &b, Better::Higher, 0.05), Verdict::Unresolved);
        let all_better = [130.0, 150.0, 125.0, 140.0, 135.0];
        assert_eq!(judge(&a, &all_better, Better::Higher, 0.05), Verdict::Ok);
        assert_eq!(judge(&a, &all_better, Better::Lower, 0.05), Verdict::Unresolved);
    }

    #[test]
    fn a_count_with_bound_zero_must_not_get_worse_at_all() {
        assert_eq!(judge(&[7.5, 7.5], &[7.5, 7.5], Better::Lower, 0.0), Verdict::Ok);
        assert_eq!(judge(&[7.5, 7.5], &[7.6, 7.6], Better::Lower, 0.0), Verdict::Worse);
        assert_eq!(judge(&[7.5, 7.5], &[7.4, 7.4], Better::Lower, 0.0), Verdict::Ok);
    }

    #[test]
    fn sets_of_another_size_or_run_length_are_not_compared() {
        let set = |quick: bool, runs: f64, seconds: f64| {
            Json::obj([
                ("quick", Json::Bool(quick)),
                ("runs", Json::Num(runs)),
                ("seconds", Json::Num(seconds)),
            ])
        };
        assert!(comparable(&set(false, 5.0, 18.0), &set(false, 5.0, 18.0)).is_ok());
        assert!(comparable(&set(false, 5.0, 18.0), &set(true, 1.0, 0.0)).is_err());
        assert!(comparable(&set(false, 5.0, 18.0), &set(false, 3.0, 18.0)).is_err());
        assert!(comparable(&set(false, 5.0, 18.0), &set(false, 5.0, 10.0)).is_err());
        assert!(comparable(&Json::Obj(Vec::new()), &Json::Obj(Vec::new())).is_err());
    }

    #[test]
    fn sig_keeps_five_significant_digits() {
        assert_eq!(sig(123456.7), "123457");
        assert_eq!(sig(12.34567), "12.346");
        assert_eq!(sig(0.001234567), "0.0012346");
        assert_eq!(sig(0.0), "0");
        assert_eq!(sig(643.0), "643");
    }
}
