//! Service-state checkpoints.
//!
//! A long-running measurement service must survive restarts without losing
//! four years of accumulated state (the real hitlist's input list *is* its
//! history). [`ServiceState`] is a serializable snapshot of everything a
//! [`HitlistService`] has learned; it round-trips
//! through JSON so checkpoints are diffable and versionable, writes to
//! disk crash-safely ([`ServiceState::save_atomic`]), and restores into a
//! running service ([`ServiceState::restore`]).

use std::path::Path;

use sixdust_addr::{Addr, AddrSet, Prefix};
use sixdust_alias::DetectedPrefix;
use sixdust_json::json_struct;
use sixdust_net::{Day, ProtoSet};

use crate::service::{HitlistService, RoundRecord, ServiceConfig, Snapshot};

/// A serializable checkpoint of the service's accumulated knowledge.
///
/// Version 2 added the resume-critical fields (`active` clocks, quarantine
/// windows, `current_responsive`, `next_alias_day`); their keys are
/// optional so version-1 checkpoints still parse, restoring with a
/// documented, slightly lenient fallback (see
/// [`HitlistService::from_state`]).
///
/// Version 3 moved the address-set fields (`input`, `gfw_impacted`,
/// `unresponsive_pool`, `current_responsive` and the per-protocol sets
/// inside snapshots) onto [`AddrSet`]. The JSON shape is unchanged —
/// `AddrSet` serializes as the same sorted address sequence the old
/// `Vec<Addr>` fields wrote, and parses legacy (even unsorted) payloads
/// by normalizing — so v2 checkpoints load without a migration step and
/// a v3 checkpoint differs from its v2 twin only in the `version` field.
///
/// Version 4 added the alias detector's merge window and the detection
/// detail of its labels (`alias_window`, `alias_detail`), without which
/// the alias rounds after a resume merged into an empty window. Their
/// keys are optional: a v1–v3 checkpoint restores the labels alone and
/// the detector starts cold, as it did.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceState {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Accumulated input addresses.
    pub input: AddrSet,
    /// Current aliased prefix labels.
    pub aliased: Vec<Prefix>,
    /// GFW-impacted addresses recorded so far.
    pub gfw_impacted: AddrSet,
    /// The 30-day-filtered pool.
    pub unresponsive_pool: AddrSet,
    /// Cumulative responsive addresses with their protocol sets.
    pub cumulative: Vec<(Addr, ProtoSet)>,
    /// Longitudinal round records.
    pub rounds: Vec<RoundRecord>,
    /// Retained full snapshots.
    pub snapshots: Vec<Snapshot>,
    /// Active scan targets with the day each last answered (v2).
    pub active: Vec<(Addr, Day)>,
    /// Quarantined `[from, until)` day windows of degraded rounds (v2).
    pub quarantined: Vec<(Day, Day)>,
    /// The most recent cleaned responsive set (v2; churn baseline).
    pub current_responsive: AddrSet,
    /// The day the next periodic alias detection is due (v2).
    pub next_alias_day: Day,
    /// The 30-day filter's window override, in days (v2).
    pub unresponsive_window: u32,
    /// The alias detector's merge window, oldest round first: the
    /// prefixes each detection round labelled, ascending (v4).
    pub alias_window: Vec<Vec<Prefix>>,
    /// Per-protocol detection detail of the labels in the window,
    /// ascending by prefix (v4).
    pub alias_detail: Vec<DetectedPrefix>,
}
json_struct!(ServiceState {
    version,
    input,
    aliased,
    gfw_impacted,
    unresponsive_pool,
    cumulative,
    rounds,
    snapshots,
    active = Vec::new(),
    quarantined = Vec::new(),
    current_responsive = AddrSet::new(),
    next_alias_day = Day::default(),
    unresponsive_window = 30,
    alias_window = Vec::new(),
    alias_detail = Vec::new(),
});

/// Current checkpoint format version.
pub const STATE_VERSION: u32 = 4;

/// Oldest checkpoint version [`ServiceState::from_json`] still accepts.
pub const OLDEST_SUPPORTED_STATE_VERSION: u32 = 1;

impl ServiceState {
    /// Captures a checkpoint from a running service.
    pub fn capture(svc: &HitlistService) -> ServiceState {
        ServiceState {
            version: STATE_VERSION,
            input: AddrSet::from_sorted_addrs(svc.input()),
            aliased: svc.aliased().iter().collect(),
            gfw_impacted: svc.gfw_impacted().clone(),
            unresponsive_pool: svc.unresponsive_pool(),
            cumulative: svc.cumulative().collect(),
            rounds: svc.rounds().to_vec(),
            snapshots: svc.snapshots().to_vec(),
            active: svc.unresponsive().active_entries().collect(),
            quarantined: svc.unresponsive().quarantined().to_vec(),
            current_responsive: svc.current_responsive().clone(),
            next_alias_day: svc.next_alias_day(),
            unresponsive_window: svc.unresponsive().window,
            alias_window: svc.detector().window(),
            alias_detail: svc.detector().detected_details(),
        }
    }

    /// Rebuilds a running service from this checkpoint; see
    /// [`HitlistService::from_state`] for the fidelity guarantees.
    pub fn restore(&self, config: ServiceConfig) -> HitlistService {
        HitlistService::from_state(config, self)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        sixdust_json::to_string_pretty(self)
    }

    /// Parses a checkpoint, rejecting unknown versions.
    pub fn from_json(json: &str) -> Result<ServiceState, String> {
        let state: ServiceState =
            sixdust_json::from_str(json).map_err(|e| format!("checkpoint parse: {e}"))?;
        if !(OLDEST_SUPPORTED_STATE_VERSION..=STATE_VERSION).contains(&state.version) {
            return Err(format!(
                "checkpoint version {} unsupported (expected \
                 {OLDEST_SUPPORTED_STATE_VERSION}..={STATE_VERSION})",
                state.version
            ));
        }
        Ok(state)
    }

    /// Writes the checkpoint crash-safely; see
    /// [`checkpoint::save_atomic`](crate::checkpoint::save_atomic).
    pub fn save_atomic(&self, path: &Path) -> std::io::Result<()> {
        crate::checkpoint::save_atomic(path, &self.to_json())
    }

    /// Loads, parses and validates a checkpoint written by
    /// [`ServiceState::save_atomic`].
    pub fn load(path: &Path) -> Result<ServiceState, String> {
        let state = ServiceState::from_json(&crate::checkpoint::load(path)?)?;
        state.validate()?;
        Ok(state)
    }

    /// Consistency checks a downstream consumer (or a restarted service)
    /// should run before trusting a checkpoint.
    pub fn validate(&self) -> Result<(), String> {
        // `input` is an `AddrSet`, deduplicated by construction — the v2
        // duplicate-input check is structurally impossible to fail now.
        for (a, p) in &self.cumulative {
            if p.is_empty() {
                return Err(format!("{a} in cumulative without protocols"));
            }
        }
        let cumulative: AddrSet = self.cumulative.iter().map(|(a, _)| *a).collect();
        if cumulative.len() != self.cumulative.len() {
            return Err("duplicate cumulative addresses".into());
        }
        for w in self.rounds.windows(2) {
            if w[1].day <= w[0].day {
                return Err("round records out of order".into());
            }
        }
        for s in &self.snapshots {
            if s.cleaned.len() != 5 {
                return Err("snapshot missing protocols".into());
            }
        }
        for w in self.snapshots.windows(2) {
            if w[1].day <= w[0].day {
                return Err("snapshots out of day order".into());
            }
        }
        for (from, until) in &self.quarantined {
            if from >= until {
                return Err(format!("empty or inverted quarantine window {from:?}..{until:?}"));
            }
        }
        let active: AddrSet = self.active.iter().map(|(a, _)| *a).collect();
        if active.len() != self.active.len() {
            return Err("duplicate active addresses".into());
        }
        if let Some((a, _)) =
            self.active.iter().find(|(a, _)| self.unresponsive_pool.contains_addr(*a))
        {
            return Err(format!("{a} both active and permanently dropped"));
        }
        // A restored filter's input is the active addresses and the pool:
        // exactly the input, or with no clocks (v1) the pool inside it.
        let mut split = active;
        split.union_in_place(&self.unresponsive_pool);
        let covers_input = self.active.is_empty() || split.len() == self.input.len();
        if split.diff_count(&self.input) > 0 || !covers_input {
            return Err("the input is not the active addresses and the dropped pool".into());
        }
        // A cold window (v1–v3, or no detection yet) says nothing; a
        // warm one is what the labels were merged from.
        if !self.alias_window.is_empty() {
            let mut merged: Vec<Prefix> = self.alias_window.concat();
            merged.sort_unstable();
            merged.dedup();
            let mut labels = self.aliased.clone();
            labels.sort_unstable();
            if merged != labels {
                return Err("alias window does not merge to the aliased labels".into());
            }
            let detailed: Vec<Prefix> = self.alias_detail.iter().map(|d| d.prefix).collect();
            if detailed != labels {
                return Err("alias detail does not cover the aliased labels".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use sixdust_net::{Day, FaultConfig, Internet, Protocol, Scale};

    fn test_net() -> Internet {
        Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless())
    }

    fn test_config() -> ServiceConfig {
        ServiceConfig::default().with_snapshot_days(vec![Day(5)])
    }

    fn run_service(days: u32) -> HitlistService {
        let net = test_net();
        let mut svc = HitlistService::new(test_config());
        svc.run(&net, Day(0), Day(days));
        svc
    }

    #[test]
    fn capture_roundtrips_through_json() {
        let svc = run_service(8);
        let state = ServiceState::capture(&svc);
        state.validate().expect("fresh state is valid");
        let json = state.to_json();
        let back = ServiceState::from_json(&json).expect("parses");
        assert_eq!(back, state);
    }

    #[test]
    fn checkpoint_bytes_are_pinned() {
        // The pretty bytes of a tiny-scale checkpoint, by length and
        // content digest: a writer that drifts (spacing, key order, number
        // form) fails here instead of silently forking the on-disk format.
        let json = ServiceState::capture(&run_service(8)).to_json();
        assert!(json.starts_with("{\n  \"version\": 4,\n  \"input\": [\n    "), "{:.60}", json);
        assert!(json.contains("\n  \"unresponsive_window\": 30,\n  \"alias_window\": [\n    [\n"));
        assert!(json.ends_with("\n      \"tcp80\": true\n    }\n  ]\n}"), "no trailing newline");
        let digest = sixdust_addr::digest::content_digest(json.bytes().map(u128::from));
        assert_eq!((json.len(), digest), (652_091, 17_253_704_505_380_632_577));
    }

    #[test]
    fn capture_matches_service() {
        let svc = run_service(8);
        let state = ServiceState::capture(&svc);
        assert_eq!(state.input.len(), svc.input().len());
        assert_eq!(state.rounds.len(), svc.rounds().len());
        assert_eq!(state.aliased.len(), svc.aliased().len());
        assert_eq!(state.cumulative.len(), svc.cumulative().len());
        assert_eq!(state.snapshots.len(), 1);
    }

    #[test]
    fn v2_checkpoint_loads_into_v3_state() {
        let svc = run_service(8);
        let state = ServiceState::capture(&svc);
        // A v2 checkpoint is today's output without the v4 keys and with
        // another version field: the address-set fields serialized as
        // sorted address sequences then, and `AddrSet` writes the same
        // sequence now. Cutting the tail and rewriting the version
        // therefore reconstructs a faithful v2 payload (and a v3 one).
        let json = state.to_json();
        let v4_keys = json.find(",\n  \"alias_window\": [").expect("the v4 keys come last");
        let v2_json =
            format!("{}\n}}", &json[..v4_keys]).replacen("\"version\": 4", "\"version\": 2", 1);
        let upgraded = ServiceState::from_json(&v2_json).expect("v2 checkpoint parses");
        upgraded.validate().expect("v2 checkpoint validates");
        assert_eq!(upgraded.version, 2);
        assert!(upgraded.alias_window.is_empty() && upgraded.alias_detail.is_empty());
        let mut as_current = upgraded.clone();
        as_current.version = STATE_VERSION;
        as_current.alias_window = state.alias_window.clone();
        as_current.alias_detail = state.alias_detail.clone();
        assert_eq!(as_current, state, "v2 payload loads into the identical state otherwise");
        // Restoring from the v2 state drives the same service forward.
        let resumed = upgraded.restore(test_config());
        assert_eq!(resumed.rounds(), svc.rounds());
        assert_eq!(resumed.current_responsive(), svc.current_responsive());
    }

    #[test]
    fn version_gate() {
        let svc = run_service(3);
        let mut state = ServiceState::capture(&svc);
        state.version = 99;
        let err = ServiceState::from_json(&state.to_json()).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        // The previous format version is still accepted.
        state.version = 1;
        assert!(ServiceState::from_json(&state.to_json()).is_ok());
        state.version = 0;
        assert!(ServiceState::from_json(&state.to_json()).is_err());
    }

    #[test]
    fn restore_resumes_the_original_timeline() {
        let net = test_net();
        // Original service runs straight through.
        let mut original = HitlistService::new(test_config());
        original.run(&net, Day(0), Day(16));
        // A second service is checkpointed mid-run and restored.
        let mut first_leg = HitlistService::new(test_config());
        first_leg.run(&net, Day(0), Day(8));
        let state = ServiceState::capture(&first_leg);
        state.validate().expect("mid-run checkpoint is valid");
        let mut resumed = state.restore(test_config());
        // Continue from the day after the checkpointed round.
        for day in sixdust_net::events::cadence(Day(9), Day(16)) {
            resumed.run_round(&net, day);
        }
        // The resumed service reproduces the uninterrupted timeline.
        assert_eq!(resumed.rounds().len(), original.rounds().len());
        for (r, o) in resumed.rounds().iter().zip(original.rounds()) {
            assert_eq!(r, o, "round {:?} diverged after resume", o.day);
        }
        assert_eq!(resumed.input().len(), original.input().len());
        assert_eq!(resumed.cumulative().len(), original.cumulative().len());
        assert_eq!(resumed.snapshots().len(), original.snapshots().len());
        assert_eq!(resumed.current_responsive().len(), original.current_responsive().len());
    }

    #[test]
    fn a_resume_between_two_alias_rounds_keeps_the_merge_window() {
        let net = test_net();
        // Detection every third day: the checkpoint after day 8 falls
        // between the rounds of days 6 and 9, and by day 24 six more have
        // run, past the `merge_rounds + 1` the window holds.
        let config = || test_config().with_alias_every_days(3);
        let mut original = HitlistService::new(config());
        original.run(&net, Day(0), Day(24));
        let mut first_leg = HitlistService::new(config());
        first_leg.run(&net, Day(0), Day(8));
        let checkpoint = ServiceState::capture(&first_leg).to_json();
        let state = ServiceState::from_json(&checkpoint).expect("parses");
        state.validate().expect("mid-run checkpoint is valid");
        assert_eq!(state.alias_window.len(), 3, "days 0, 3 and 6");
        let mut resumed = state.restore(config());
        resumed.run(&net, Day(9), Day(24));
        assert!(resumed.detector().window().len() > config().detector.merge_rounds);
        assert_eq!(
            ServiceState::capture(&resumed).to_json(),
            ServiceState::capture(&original).to_json(),
            "the resumed service is the uninterrupted one, to the byte"
        );
    }

    #[test]
    fn validation_catches_v2_inconsistencies() {
        let svc = run_service(5);
        let base = ServiceState::capture(&svc);
        let mut bad = base.clone();
        bad.quarantined.push((Day(9), Day(9)));
        assert!(bad.validate().is_err(), "empty quarantine window");
        let mut bad = base.clone();
        if let Some((a, _)) = bad.active.first().copied() {
            bad.unresponsive_pool.insert(a.0);
            assert!(bad.validate().is_err(), "active address in dropped pool");
        }
        let mut bad = base.clone();
        bad.alias_window[0].pop().expect("the first round labelled something");
        assert!(bad.validate().is_err(), "a label no round of the window detected");
        let mut bad = base;
        if bad.snapshots.is_empty() {
            return;
        }
        let dup = bad.snapshots[0].clone();
        bad.snapshots.push(dup);
        assert!(bad.validate().is_err(), "snapshot days must increase");
    }

    #[test]
    fn a_checkpoint_whose_input_and_filter_disagree_is_rejected() {
        let net = test_net();
        let mut svc = HitlistService::new(test_config());
        svc.set_unresponsive_window(3);
        svc.run(&net, Day(0), Day(12));
        let base = ServiceState::capture(&svc);
        base.validate().expect("a captured state is valid");
        assert!(!base.active.is_empty() && !base.unresponsive_pool.is_empty());
        let stranger = (1u128..).find(|v| !base.input.contains(*v)).unwrap();

        let mut bad = base.clone();
        bad.input.insert(stranger);
        assert!(bad.validate().is_err(), "an input address neither active nor dropped");
        let mut bad = base.clone();
        bad.unresponsive_pool.insert(stranger);
        assert!(bad.validate().is_err(), "a dropped address that is not input");
        let mut bad = base.clone();
        bad.input.remove(bad.active[0].0 .0);
        assert!(bad.validate().is_err(), "an active address that is not input");

        // Without clocks (a v1 checkpoint) the active addresses are the
        // input outside the pool, so only the pool is held to the input.
        let mut v1 = base.clone();
        v1.active.clear();
        v1.input.insert(stranger);
        v1.validate().expect("a v1 checkpoint may hold input the pool does not");
        v1.unresponsive_pool.insert(stranger + 1);
        assert!(v1.validate().is_err(), "a v1 dropped address that is not input");
    }

    #[test]
    fn a_checkpoint_that_repeats_a_cumulative_address_is_rejected() {
        let base = ServiceState::capture(&run_service(5));
        base.validate().expect("a captured state is valid");
        // The address again, under protocols it was not captured with.
        let (a, protos) = base.cumulative[0];
        let other = if protos == ProtoSet::all() {
            ProtoSet::of(&[Protocol::Icmp])
        } else {
            ProtoSet::all()
        };
        let mut bad = base;
        bad.cumulative.insert(1, (a, other));
        let err = bad.validate().unwrap_err();
        assert!(err.contains("duplicate cumulative"), "{err}");
    }

    #[test]
    fn validation_catches_corruption() {
        let svc = run_service(5);
        let mut state = ServiceState::capture(&svc);
        if state.rounds.len() >= 2 {
            state.rounds.swap(0, 1);
            assert!(state.validate().is_err());
        }
    }
}
