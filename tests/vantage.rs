//! End-to-end multi-vantage scanning: the `sixdust-vantage` fleet
//! scheduler against the plain single-vantage pipeline.
//!
//! The hard invariant pinned here is the fleet's reason to be trusted:
//! an `N = 1` fleet is *byte-identical* to today's `HitlistService`
//! rounds at any executor thread budget — same rounds, same snapshots,
//! same checkpoints. On top of that: an `N = 3` fleet (EU / US /
//! behind-GFW CN) is deterministic across repeated runs, its
//! disagreement artifact pins the GFW visibility split (an address the
//! pipeline cleans today is responsive from Europe, silent from China),
//! and a fleet checkpoint saved mid-run resumes to the exact state of
//! an uninterrupted run.

use sixdust::hitlist::state::STATE_VERSION;
use sixdust::hitlist::HitlistService;
use sixdust::hitlist::{ServiceConfig, ServiceState};
use sixdust::net::{events, Day, FaultConfig, Internet, Scale};
use sixdust::vantage::{DisagreementClass, FleetConfig, FleetState, VantageFleet};

const DROP_PERMILLE: u32 = 2;

fn faults() -> FaultConfig {
    FaultConfig::lossless().with_drop_permille(DROP_PERMILLE)
}

fn fleet_config(n: usize, threads: usize) -> FleetConfig {
    FleetConfig::new(Scale::tiny(), n)
        .with_faults(faults())
        .with_service(ServiceConfig::default())
        .with_threads(threads)
}

/// `--vantages 1` is today's pipeline, bit for bit, at any thread
/// budget: rounds, snapshots, responsive sets and the captured
/// checkpoint all compare equal against a plain service run.
#[test]
fn one_vantage_fleet_is_byte_identical_to_the_service() {
    let until = Day(14);
    let net = Internet::build(Scale::tiny()).with_faults(faults());
    let mut svc = HitlistService::new(ServiceConfig::default());
    svc.run(&net, Day(0), until);
    let baseline = ServiceState::capture(&svc);

    for threads in [1, 4, 8] {
        let mut fleet = VantageFleet::build(fleet_config(1, threads));
        fleet.run(Day(0), until);
        let state = ServiceState::capture(fleet.service(0));
        assert_eq!(
            fleet.service(0).rounds(),
            svc.rounds(),
            "rounds diverged at thread budget {threads}"
        );
        assert_eq!(fleet.service(0).snapshots(), svc.snapshots());
        assert_eq!(fleet.service(0).current_responsive(), svc.current_responsive());
        assert_eq!(state, baseline, "checkpoint diverged at thread budget {threads}");
        assert_eq!(
            state.to_json(),
            baseline.to_json(),
            "checkpoint bytes diverged at thread budget {threads}"
        );
        // And inside the fleet's own checkpoint file the service payload
        // is the service's checkpoint, byte for byte (compact form: the
        // pretty one sits two levels deeper there).
        let fleet_doc = sixdust::json::parse(&FleetState::capture(&fleet).to_json()).unwrap();
        let services = fleet_doc.get("services").expect("services key").as_array().unwrap();
        assert_eq!(services.len(), 1);
        assert_eq!(services[0].compact(), sixdust::json::to_string(&baseline));
        // A single vantage never disagrees with itself.
        for report in fleet.reports() {
            assert_eq!(report.disagreements, 0);
        }
    }
}

/// An `N = 3` fleet is a pure function of the seed: repeated runs (at
/// different thread budgets, even) produce identical rounds for every
/// vantage and identical disagreement reports.
#[test]
fn three_vantage_fleet_is_deterministic_across_repeats() {
    let until = Day(10);
    let mut first = VantageFleet::build(fleet_config(3, 2));
    first.run(Day(0), until);
    let mut second = VantageFleet::build(fleet_config(3, 8));
    second.run(Day(0), until);

    assert_eq!(first.reports(), second.reports());
    for v in 0..3 {
        assert_eq!(
            first.service(v).rounds(),
            second.service(v).rounds(),
            "vantage {v} rounds diverged across repeats"
        );
        assert_eq!(
            ServiceState::capture(first.service(v)),
            ServiceState::capture(second.service(v))
        );
    }
    assert_eq!(first.reports().len(), 11, "daily cadence: days 0..=10");
}

/// The GFW visibility split, pinned end to end: during the filtering
/// era with the cleaning filter deployed, an address the primary
/// pipeline cleans as GFW-impacted shows up in the disagreement
/// artifact as responsive from the European and US vantages but silent
/// from the Chinese one — and the artifact classifies its origin AS as
/// a GFW disagreement.
#[test]
fn gfw_region_disagreement_is_pinned() {
    // GFW era 3 with the cleaning filter live (deployed day 1310).
    // Lossless faults, so the firewall is the *only* cross-vantage
    // asymmetry: every GFW-class sample must show the exact
    // responsive-from-abroad / silent-at-home split.
    let from = events::GFW_FILTER_DEPLOYED;
    let until = from.plus(10);
    let config = fleet_config(3, 4).with_faults(FaultConfig::lossless());
    let mut fleet = VantageFleet::build(config);
    fleet.run(from, until);

    assert!(!fleet.reports().is_empty());
    let impacted = fleet.service(0).gfw_impacted();
    assert!(!impacted.is_empty(), "the primary pipeline cleaned something");
    let total_gfw: u64 = fleet.reports().iter().map(|r| r.gfw_disagreements).sum();
    assert!(total_gfw > 0, "the CN split is visible in the artifact");
    let mut pinned = false;
    for report in fleet.reports() {
        for entry in report.by_as.iter().filter(|e| e.class == DisagreementClass::Gfw) {
            assert_eq!(entry.country, "CN");
            for sample in &entry.samples {
                assert!(
                    sample.responsive_from.contains(&64496),
                    "injection makes the address visible from Europe"
                );
                assert!(
                    sample.silent_from.contains(&64498),
                    "egress filtering hides it from the Chinese vantage"
                );
                if impacted.contains_addr(sample.addr) {
                    pinned = true;
                }
            }
        }
    }
    assert!(
        pinned,
        "at least one address the pipeline cleans appears as \
         CN-filtered / EU-responsive in the disagreement artifact"
    );
}

/// A fleet checkpoint captured mid-run restores into a fleet that
/// finishes the window in the exact state of an uninterrupted run:
/// every vantage's rounds and the full report history compare equal.
#[test]
fn fleet_checkpoint_resumes_mid_run() {
    let split = Day(6);
    let until = Day(12);

    let mut uninterrupted = VantageFleet::build(fleet_config(3, 4));
    uninterrupted.run(Day(0), until);

    let mut first_leg = VantageFleet::build(fleet_config(3, 4));
    first_leg.run(Day(0), split);
    let state = FleetState::capture(&first_leg);
    state.validate().expect("mid-run fleet checkpoint is valid");

    let mut resumed = VantageFleet::restore(fleet_config(3, 4), &state);
    resumed.run(Day(0), until);

    assert_eq!(resumed.reports(), uninterrupted.reports());
    for v in 0..3 {
        assert_eq!(
            resumed.service(v).rounds(),
            uninterrupted.service(v).rounds(),
            "vantage {v} diverged after resume"
        );
        assert_eq!(
            ServiceState::capture(resumed.service(v)),
            ServiceState::capture(uninterrupted.service(v))
        );
    }
}

/// The fleet checkpoint file format round-trips: JSON parse, version
/// gate, and the crash-safe writer and reader it shares with the
/// single-vantage service.
#[test]
fn fleet_checkpoint_round_trips_through_disk() {
    let mut fleet = VantageFleet::build(fleet_config(2, 2));
    fleet.run(Day(0), Day(4));
    let state = FleetState::capture(&fleet);
    let json = state.to_json();
    assert_eq!(FleetState::from_json(&json).as_ref(), Ok(&state));
    let next_version = json.replacen("\"version\": 1", "\"version\": 2", 1);
    assert!(FleetState::from_json(&next_version).unwrap_err().contains("version 2"));

    let dir = std::env::temp_dir().join("sixdust_vantage_itest");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.json");
    state.save_atomic(&path).expect("atomic save");
    assert!(!dir.join("fleet.json.tmp").exists(), "temp renamed away");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), json, "the file holds the pretty form");
    assert_eq!(FleetState::load(&path).as_ref(), Ok(&state), "load validates");
    // A checkpoint cut short by anything but this writer is refused.
    std::fs::write(&path, &json[..json.len() / 2]).unwrap();
    assert!(FleetState::load(&path).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// A fleet checkpoint's services are read by `ServiceState`'s own
/// reader, so none of them passes without the version gate.
#[test]
fn a_fleet_checkpoint_holds_each_service_to_the_version_gate() {
    let mut fleet = VantageFleet::build(fleet_config(2, 2));
    fleet.run(Day(0), Day(4));
    let json = FleetState::capture(&fleet).to_json();
    let service_version = format!("\"version\": {STATE_VERSION}");
    assert!(json.contains(&service_version));
    for version in [99, 0] {
        let renumbered = json.replacen(&service_version, &format!("\"version\": {version}"), 1);
        let err = FleetState::from_json(&renumbered).unwrap_err();
        assert!(err.contains(&format!("checkpoint version {version} unsupported")), "{err}");
    }
}
