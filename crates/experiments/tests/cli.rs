//! `sixdust-exp` end to end, as cargo built it: one tiny-scale `pipeline`
//! run with every machine-readable output switched on, each file then read
//! back through the same JSON layer that wrote it.

use std::path::Path;
use std::process::Command;

use sixdust_hitlist::{HitlistService, ServiceConfig, ServiceState};
use sixdust_net::{Day, FaultConfig, Internet, Scale};
use sixdust_serve::DayReport;
use sixdust_telemetry::{is_deterministic_metric, Snapshot};

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn tiny_pipeline_writes_json_that_reads_back() {
    let out = std::env::temp_dir().join(format!("sixdust_exp_cli_{}", std::process::id()));
    std::fs::remove_dir_all(&out).ok();
    let run = Command::new(env!("CARGO_BIN_EXE_sixdust-exp"))
        .args(["--scale", "tiny", "--seed", "11", "--out"])
        .arg(&out)
        .arg("--telemetry")
        .arg(out.join("telemetry.json"))
        .arg("--checkpoint")
        .arg(out.join("service.ckpt"))
        .arg("--serve-report")
        .arg(out.join("serve.json"))
        .arg("--trace")
        .arg(out.join("trace.json"))
        .args(["pipeline", "table1", "table3"])
        .output()
        .expect("sixdust-exp runs");
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));

    // Every .json in the output directory is one well-formed document.
    let mut parsed = Vec::new();
    for entry in std::fs::read_dir(&out).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "json") {
            let doc = sixdust_json::parse(&read(&path))
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            parsed.push((path.file_name().unwrap().to_string_lossy().into_owned(), doc));
        }
    }
    parsed.sort_by(|a, b| a.0.cmp(&b.0));
    let names: Vec<&str> = parsed.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "pipeline.json",
            "serve.json",
            "table1.json",
            "table3.json",
            "telemetry.json",
            "trace.json"
        ]
    );

    // The experiment envelope: id, the scale it ran at, the result rows.
    let table1 = &parsed[2].1;
    assert_eq!(table1.get("experiment"), Some(&sixdust_json::json!("table1")));
    assert_eq!(
        table1.get("scale"),
        Some(&sixdust_json::json!({ "addr_div": 20_000u64, "entity_div": 50u64, "seed": 11u64 }))
    );
    let rows = table1.get("result").and_then(|r| r.get("rows")).expect("rows").as_array().unwrap();
    assert_eq!(rows.len(), 6, "five snapshot rows and the cumulative one");

    // The typed readers accept what the typed writers wrote, and the
    // ledgers inside reconcile.
    let report: DayReport = sixdust_json::from_str(&read(&out.join("serve.json"))).expect("report");
    assert_eq!(report.seed, 11);
    assert!(report.totals.requests > 0 && report.totals.bodies > 0);
    let state = ServiceState::load(&out.join("service.ckpt")).expect("checkpoint loads");
    assert!(!out.join("service.ckpt.tmp").exists(), "temp renamed away");
    let telemetry = Snapshot::from_json(&read(&out.join("telemetry.json"))).expect("telemetry");
    assert_eq!(telemetry.counter("service.rounds"), Some(state.rounds.len() as u64));
    assert_eq!(
        telemetry.counter("scan.icmp.hits"),
        telemetry.counter("service.hits.cleaned.icmp"),
        "scanner and service count the same ICMP hits"
    );

    // Every generator of the new-source evaluation reports through its
    // `tga.<source>.*` family exactly what its table3 row shows.
    let rows = parsed[3].1.get("result").and_then(|r| r.get("rows")).expect("rows");
    let mut generators = 0;
    for row in rows.as_array().unwrap() {
        let row = row.fields("table3 row").unwrap();
        let source: String = row.get("source").unwrap();
        if source == "passive" || source == "unresponsive" {
            continue;
        }
        generators += 1;
        let candidates: u64 = row.get("candidates").unwrap();
        let counter = telemetry.counter(&format!("tga.{source}.candidates"));
        assert_eq!(counter, Some(candidates), "{source}");
        let gen_ms = telemetry.histogram(&format!("tga.{source}.gen_ms")).map(|h| h.count);
        assert_eq!(gen_ms, Some(1), "{source} generated once");
    }
    assert_eq!(generators, 5, "the paper's five generators");

    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn the_dashboard_and_its_series_replay_byte_identically() {
    // The service's rounds plus the flat serve day, folded in as one more
    // round: the observer judges both, the flight recorder in the shared
    // registry hears both.
    let run = |name: &str| {
        let out = std::env::temp_dir().join(format!("sixdust_exp_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&out).ok();
        let run = Command::new(env!("CARGO_BIN_EXE_sixdust-exp"))
            .args(["--scale", "tiny", "--seed", "11", "--out"])
            .arg(&out)
            .arg("--series")
            .arg(out.join("series.jsonl"))
            .arg("--dashboard")
            .arg(out.join("dash.html"))
            .arg("pipeline")
            .output()
            .expect("sixdust-exp runs");
        assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
        let files = (read(&out.join("dash.html")), read(&out.join("series.jsonl")));
        std::fs::remove_dir_all(&out).ok();
        files
    };
    let (page, series) = run("dash_a");
    let (again, series_again) = run("dash_b");
    assert!(page == again, "same seed, same page");
    // The series also carries wall-clock timings; every other column
    // replays exactly.
    let deterministic = |series: &str| -> Vec<Vec<(String, sixdust_json::Value)>> {
        let round = |line| sixdust_json::parse(line).expect("one JSON object a line");
        (series.lines().map(round))
            .map(|round| {
                let columns = round.as_object().expect("an object").iter();
                columns.filter(|(name, _)| is_deterministic_metric(name)).cloned().collect()
            })
            .collect()
    };
    assert!(deterministic(&series) == deterministic(&series_again), "same seed, same series");
    assert!(page.contains("<h2>Flight-recorder captures</h2>"), "the page shows a capture");
    assert!(page.contains(">serve.requests<"), "the serve day is a round of the page");
}

#[test]
fn a_checkpoint_it_cannot_use_is_moved_aside_not_overwritten() {
    // What a newer binary leaves behind, and what one two versions older
    // did: a real checkpoint under a version this one does not read. A
    // file already set aside keeps its name.
    let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
    let mut svc = HitlistService::new(ServiceConfig::default());
    svc.run(&net, Day(0), Day(3));
    let json = ServiceState::capture(&svc).to_json();
    let current = json.lines().nth(1).expect("the version line");
    assert!(current.starts_with("  \"version\": "), "{current}");
    for version in [99, 6] {
        let out = std::env::temp_dir().join(format!("sixdust_exp_aside_{}", std::process::id()));
        std::fs::remove_dir_all(&out).ok();
        std::fs::create_dir_all(&out).unwrap();
        let unusable = json.replacen(current, &format!("  \"version\": {version},"), 1);
        let checkpoint = out.join("service.ckpt");
        std::fs::write(&checkpoint, &unusable).unwrap();
        std::fs::write(out.join("service.ckpt.unusable.1"), "an earlier one").unwrap();
        let run = Command::new(env!("CARGO_BIN_EXE_sixdust-exp"))
            .args(["--scale", "tiny", "--seed", "11", "--out"])
            .arg(out.join("out"))
            .arg("--checkpoint")
            .arg(&checkpoint)
            .arg("pipeline")
            .output()
            .expect("sixdust-exp runs");
        let log = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{log}");
        let refused = format!("version {version} unsupported");
        assert!(log.contains(&refused) && log.contains("service.ckpt.unusable.2"), "{log}");
        assert_eq!(read(&out.join("service.ckpt.unusable.2")), unusable, "its bytes survive");
        assert_eq!(read(&out.join("service.ckpt.unusable.1")), "an earlier one");
        ServiceState::load(&checkpoint).expect("a fresh, valid checkpoint beside them");
        assert_eq!(read(&checkpoint).lines().nth(1), Some(current), "at the current version");
        std::fs::remove_dir_all(&out).ok();
    }
}

#[test]
fn a_client_count_past_u32_is_refused_at_the_flag() {
    // A session day links its clients by `u32` index: the flag is refused
    // before any work starts, with the usage text.
    let run = Command::new(env!("CARGO_BIN_EXE_sixdust-exp"))
        .args(["--clients", "4294967296", "--flash-crowd", "publish"])
        .output()
        .expect("sixdust-exp runs");
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).contains("N < 2^32"));
}
