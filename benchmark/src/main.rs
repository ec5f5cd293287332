//! `sixdust-benchmark`: one offline command that measures sixdust end to
//! end and layer by layer. See `benchmark/README.md`.
//!
//! ```text
//! sixdust-benchmark --workload W --seed S --seconds T --trace 0|1 [--quick]
//! sixdust-benchmark all [--seed S] [--quick] [--out FILE]
//! sixdust-benchmark compare A.json B.json
//! ```

mod digest;
mod harness;
mod json;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::Opts;

const USAGE: &str = "usage:
  sixdust-benchmark --workload W --seed S --seconds T --trace 0|1 [--quick]
      one run of one workload, of as many passes as a run of T seconds is sized for;
      the last line of standard output is the result
  sixdust-benchmark all [--seed S] [--quick] [--out FILE]
      every workload, each run a process of its own; writes benchmark/out/results.json
  sixdust-benchmark compare A.json B.json
      two result files metric by metric; exits 1 if any metric is worse
workloads: service_4y service_dense vantage_fleet serve_uniform_day serve_flash_day serve_chaos_day";

/// `--flag value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args { flags: Vec::new(), words: Vec::new() };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some("quick") => args.flags.push(("quick".to_string(), "1".to_string())),
                Some(flag) => {
                    let value = raw.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                    args.flags.push((flag.to_string(), value));
                }
                None => args.words.push(arg),
            }
        }
        Ok(args)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| v.parse::<T>().map_err(|_| format!("--{flag} {v}: not a number")))
            .transpose()
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(f, _)| !known.contains(&f.as_str())) {
            Some((f, _)) => Err(format!("unknown flag --{f}")),
            None => Ok(()),
        }
    }
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    args.only(&["workload", "seed", "seconds", "trace", "quick"])?;
    let name = args.get("workload").expect("dispatched on --workload");
    let workload = spec::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds = args.number::<f64>("seconds")?.unwrap_or(spec::RUN_SECONDS);
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds}: out of range"));
    }
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let opts = Opts {
        workload: workload.name,
        seed: args.number("seed")?.unwrap_or(11),
        passes: workload.passes_in(seconds),
        trace,
        sizes: if args.get("quick").is_some() { &spec::QUICK } else { &spec::FULL },
    };
    let report = workloads::run(&opts);
    println!("{}", report.to_json().compact());
    Ok(if report.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn dispatch() -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    match args.words.first().map(String::as_str) {
        None if args.get("workload").is_some() => run_one(&args),
        Some("all") if args.words.len() == 1 => {
            args.only(&["seed", "quick", "out"])?;
            suite::all(&suite::AllOpts {
                seed: args.number("seed")?.unwrap_or(11),
                quick: args.get("quick").is_some(),
                out: args.get("out").map(Into::into),
            })
        }
        Some("compare") if args.words.len() == 3 && args.flags.is_empty() => {
            suite::compare(args.words[1].as_ref(), args.words[2].as_ref())
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    dispatch().unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
