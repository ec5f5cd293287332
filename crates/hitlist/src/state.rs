//! Service-state checkpoints.
//!
//! A long-running measurement service must survive restarts without losing
//! four years of accumulated state (the real hitlist's input list *is* its
//! history). [`ServiceState`] is a serializable snapshot of everything a
//! [`HitlistService`] has learned. It is one pretty JSON document whose
//! sets are each one string, the base64 of a full-codec body
//! ([`sixdust_addr::codec`]): an address set's members, or a prefix set's
//! packed items. A value kept per member of a set is a column beside it:
//! one base64 string of one byte a member, framed by a magic and the
//! codec's checksum. So the input costs about 13 bytes an address where
//! a decimal array cost 44, and what the service learned of each input
//! address one byte more. It writes to disk
//! crash-safely ([`ServiceState::save_atomic`]), is parsed and checked
//! whole before anything in it is used, and restores into a running
//! service ([`ServiceState::restore`]). The version before the current
//! one is read in one place, beside the version gate: its `FromJson`.

use std::path::Path;

use sixdust_addr::codec::{self, CodecError};
use sixdust_addr::{base64, Addr, AddrSet, PrefixSet};
use sixdust_json::{Error, Fields, FromJson, ToJson, Value};
use sixdust_net::{Day, ProtoSet, Protocol};

use crate::filters::{Seen, DROPPED};
use crate::service::{HitlistService, Responders, RoundRecord, ServiceConfig, Snapshot};

/// A serializable checkpoint of the service's accumulated knowledge.
///
/// It is written at [`STATE_VERSION`] and read at that version and the
/// one before ([`OLDEST_SUPPORTED_STATE_VERSION`]); an older document is
/// refused by the version gate. Each version bump deletes the reader of
/// the version two back.
///
/// Version 8 writes what the service learned of each input address as one
/// column beside `input`, `input_seen`: the protocols it has answered in
/// the cleaned view and whether the GFW filter cleaned an injected answer
/// from it ([`Seen`]). Version 7 wrote those as three keys of their own,
/// `ever`, `ever_protos` and `gfw_impacted`, which its reader folds into
/// the column.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceState {
    /// Accumulated input addresses, active and dropped.
    pub input: AddrSet,
    /// Beside each input address, in its order: what the service has
    /// learned of it (`input_seen`).
    pub seen: Vec<Seen>,
    /// Current aliased prefix labels.
    pub aliased: PrefixSet,
    /// Longitudinal round records.
    pub rounds: Vec<RoundRecord>,
    /// Retained full snapshots.
    pub snapshots: Vec<Snapshot>,
    /// Active scan targets with the day each last answered; the input
    /// outside them is the 30-day filter's dropped pool.
    pub active: Vec<(Addr, Day)>,
    /// Quarantined `[from, until)` day windows of degraded rounds.
    pub quarantined: Vec<(Day, Day)>,
    /// The last round's cleaned responsive set (`current_responsive`; the
    /// churn baseline) and the protocols each member answered
    /// (`current_protos`; empty in a v7 document re-saved from a v6 one
    /// before its next round).
    pub current: Responders,
    /// The day the next periodic alias detection is due.
    pub next_alias_day: Day,
    /// The 30-day filter's window override, in days.
    pub unresponsive_window: u32,
    /// The alias detector's merge window, oldest round first: the
    /// prefixes each detection round labelled.
    pub alias_window: Vec<PrefixSet>,
    /// Beside each label of `aliased`, in its order: the protocols its
    /// latest detection found answering on all 16 probes, ICMP as bit 0
    /// and TCP/80 as bit 1. Empty while the window is cold.
    pub alias_detail: Vec<ProtoSet>,
}

impl ToJson for ServiceState {
    /// The document at [`STATE_VERSION`], the only version written.
    fn to_value(&self) -> Value {
        let member = |key: &str, value: &dyn ToJson| (key.to_string(), value.to_value());
        Value::Object(vec![
            member("version", &STATE_VERSION),
            member("input", &self.input),
            member("input_seen", &column(&self.seen, |s| s.0)),
            member("aliased", &self.aliased),
            member("rounds", &self.rounds),
            member("snapshots", &self.snapshots),
            member("active", &self.active),
            member("quarantined", &self.quarantined),
            member("current_responsive", &self.current.members),
            member("current_protos", &column(&self.current.protos, |p| p.0)),
            member("next_alias_day", &self.next_alias_day),
            member("unresponsive_window", &self.unresponsive_window),
            member("alias_window", &self.alias_window),
            member("alias_detail", &column(&self.alias_detail, |p| p.0)),
        ])
    }
}

impl FromJson for ServiceState {
    /// Reads a v8 or a v7 document, and only those: the version gate
    /// comes first, then the fields (every key its version writes is
    /// required), then for a v7 document the column step
    /// (`seen_of_v7`), then the columns are held to their sets. A
    /// service state read from any document — a fleet checkpoint's
    /// included — has passed all four.
    fn from_value(v: &Value) -> Result<ServiceState, Error> {
        let fields = v.fields("ServiceState")?;
        let version: u32 = fields.get("version")?;
        if !(OLDEST_SUPPORTED_STATE_VERSION..=STATE_VERSION).contains(&version) {
            return Err(Error::new(format!(
                "checkpoint version {version} unsupported (expected \
                 {OLDEST_SUPPORTED_STATE_VERSION}..={STATE_VERSION})"
            )));
        }
        let input: AddrSet = fields.get("input")?;
        let seen = if version < 8 {
            seen_of_v7(&fields, &input)?
        } else {
            read_column(&fields, "input_seen", Seen)?
        };
        let state = ServiceState {
            input,
            seen,
            aliased: fields.get("aliased")?,
            rounds: fields.get("rounds")?,
            snapshots: fields.get("snapshots")?,
            active: fields.get("active")?,
            quarantined: fields.get("quarantined")?,
            current: Responders {
                members: fields.get("current_responsive")?,
                protos: read_column(&fields, "current_protos", ProtoSet)?,
            },
            next_alias_day: fields.get("next_alias_day")?,
            unresponsive_window: fields.get("unresponsive_window")?,
            alias_window: fields.get("alias_window")?,
            alias_detail: read_column(&fields, "alias_detail", ProtoSet)?,
        };
        state.check_columns().map_err(Error::new)?;
        Ok(state)
    }
}

/// Magic prefix of a column body (`SDC1`).
const COLUMN_MAGIC: [u8; 4] = *b"SDC1";

/// A column as a checkpoint writes it: one base64 string of the magic,
/// one byte a member and the codec's checksum, so a changed byte fails
/// to load as it does in a set's body.
fn column<T: Copy>(values: &[T], byte: fn(T) -> u8) -> Value {
    let mut body = COLUMN_MAGIC.to_vec();
    body.extend(values.iter().map(|&v| byte(v)));
    codec::push_checksum(&mut body);
    Value::String(base64::encode(&body))
}

/// The column `key`, each byte read as `of` it.
fn read_column<T>(fields: &Fields<'_>, key: &str, of: fn(u8) -> T) -> Result<Vec<T>, Error> {
    let text: String = fields.get(key)?;
    let bad = |why: &dyn std::fmt::Display| Error::new(format!("ServiceState.{key}: {why}"));
    let body = base64::decode(&text).ok_or_else(|| bad(&"not canonical base64"))?;
    let payload = codec::checked_payload(&body).map_err(|e| bad(&e))?;
    if payload[..4] != COLUMN_MAGIC {
        return Err(bad(&CodecError::BadMagic));
    }
    Ok(payload[4..].iter().map(|&b| of(b)).collect())
}

/// The column step: a v7 document's `ever`, with its protocol column
/// `ever_protos`, and its `gfw_impacted` set, folded into one byte beside
/// each input address. Either set holding an address outside the input
/// refuses the document.
fn seen_of_v7(fields: &Fields<'_>, input: &AddrSet) -> Result<Vec<Seen>, Error> {
    let ever: AddrSet = fields.get("ever")?;
    let protos = read_column(fields, "ever_protos", ProtoSet)?;
    let impacted: AddrSet = fields.get("gfw_impacted")?;
    protos_fit("ever_protos", &protos, ever.len(), ProtoSet::all()).map_err(Error::new)?;
    let input = input.to_addr_vec();
    let mut seen = vec![Seen::default(); input.len()];
    let answered = ever.addrs().zip(protos).map(|(a, p)| ("ever", a, Seen(p.0)));
    let cleaned = impacted.addrs().map(|a| ("gfw_impacted", a, Seen::GFW_CLEANED));
    for (key, a, bits) in answered.chain(cleaned) {
        let not_input = |_| Error::new(format!("{key} holds {a}, which is not input"));
        seen[input.binary_search(&a).map_err(not_input)?].0 |= bits.0;
    }
    Ok(seen)
}

/// Holds a protocol column to the set it stands beside: one entry a
/// member, each a non-empty set of `of`.
fn protos_fit(key: &str, values: &[ProtoSet], members: usize, of: ProtoSet) -> Result<(), String> {
    if values.len() != members {
        return Err(format!("{key} holds {} entries for {members} members", values.len()));
    }
    if let Some(bad) = values.iter().find(|p| p.is_empty() || p.union(of) != of) {
        return Err(format!("{key} holds the protocol set {:#04x}", bad.0));
    }
    Ok(())
}

/// A snapshot as v7 and v8 write it: its day, its cleaned responsive set, the
/// column of their protocols and its labels.
impl ToJson for Snapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("day".to_string(), self.day.to_value()),
            ("responsive".to_string(), self.responsive.members.to_value()),
            ("protos".to_string(), column(&self.responsive.protos, |p| p.0)),
            ("aliased".to_string(), self.aliased.to_value()),
        ])
    }
}

impl FromJson for Snapshot {
    fn from_value(v: &Value) -> Result<Snapshot, Error> {
        let fields = v.fields("Snapshot")?;
        let members = fields.get("responsive")?;
        let responsive = Responders { members, protos: read_column(&fields, "protos", ProtoSet)? };
        Ok(Snapshot { day: fields.get("day")?, responsive, aliased: fields.get("aliased")? })
    }
}

/// Current checkpoint format version.
pub const STATE_VERSION: u32 = 8;

/// Oldest checkpoint version [`ServiceState::from_json`] still accepts:
/// the one before [`STATE_VERSION`].
pub const OLDEST_SUPPORTED_STATE_VERSION: u32 = STATE_VERSION - 1;

impl ServiceState {
    /// Captures a checkpoint from a running service.
    pub fn capture(svc: &HitlistService) -> ServiceState {
        ServiceState {
            input: AddrSet::from_sorted_addrs(svc.input()),
            seen: svc.unresponsive().rows().map(|(.., seen)| seen).collect(),
            aliased: svc.aliased().clone(),
            rounds: svc.rounds().to_vec(),
            snapshots: svc.snapshots().to_vec(),
            active: svc.unresponsive().active_entries().collect(),
            quarantined: svc.unresponsive().quarantined().to_vec(),
            current: svc.current().clone(),
            next_alias_day: svc.next_alias_day(),
            unresponsive_window: svc.unresponsive().window,
            alias_window: svc.detector().window().to_vec(),
            alias_detail: svc.detector().detected_details().iter().map(|d| d.protos()).collect(),
        }
    }

    /// Holds each column to the set it stands beside: one entry a member,
    /// and only the bits it can hold. `input_seen` holds any byte without
    /// bits 6 and 7; a protocol column any non-empty set of the five
    /// (the current one may be empty: see `current`); `alias_detail`,
    /// empty while the window is cold, a non-empty set of ICMP and TCP/80.
    fn check_columns(&self) -> Result<(), String> {
        let (entries, members) = (self.seen.len(), self.input.len());
        if entries != members {
            return Err(format!("input_seen holds {entries} entries for {members} members"));
        }
        if let Some(bad) = self.seen.iter().find(|s| s.0 >> 6 != 0) {
            return Err(format!("input_seen holds the byte {:#04x}", bad.0));
        }
        let tested = ProtoSet::of(&[Protocol::Icmp, Protocol::Tcp80]);
        let beside_labels = if self.alias_window.is_empty() { 0 } else { self.aliased.len() };
        let current = if self.current.protos.is_empty() { 0 } else { self.current.members.len() };
        let snapshots = self.snapshots.iter().map(|s| {
            let view = &s.responsive;
            ("a snapshot's protos", &view.protos, view.members.len(), ProtoSet::all())
        });
        for (key, values, members, allowed) in [
            ("current_protos", &self.current.protos, current, ProtoSet::all()),
            ("alias_detail", &self.alias_detail, beside_labels, tested),
        ]
        .into_iter()
        .chain(snapshots)
        {
            protos_fit(key, values, members, allowed)?;
        }
        Ok(())
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

    /// Parses a checkpoint of any supported version; see `FromJson`.
    pub fn from_json(json: &str) -> Result<ServiceState, String> {
        sixdust_json::from_str(json).map_err(|e| format!("checkpoint parse: {e}"))
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
        // `input` is a set, deduplicated by construction, and the columns
        // are checked where a document is read and here.
        self.check_columns()?;
        for w in self.rounds.windows(2) {
            if w[1].day <= w[0].day {
                return Err("round records out of order".into());
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
        // A restored filter's input is this one: the active addresses lie
        // in it, and the rest of it is the dropped pool.
        let active: AddrSet = self.active.iter().map(|(a, _)| *a).collect();
        if active.len() != self.active.len() {
            return Err("duplicate active addresses".into());
        }
        if active.diff_count(&self.input) > 0 {
            return Err("an active address is not input".into());
        }
        // An active clock at the dropped sentinel would restore as dropped.
        if let Some((a, _)) = self.active.iter().find(|(_, day)| *day == DROPPED) {
            return Err(format!("active {a} holds the dropped clock {}", DROPPED.0));
        }
        // A cold window (no detection yet) says nothing; a warm one is
        // what the labels were merged from.
        if !self.alias_window.is_empty() {
            let merged: PrefixSet = self.alias_window.iter().flat_map(PrefixSet::iter).collect();
            if merged != self.aliased {
                return Err("alias window does not merge to the aliased labels".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod legacy;

#[cfg(test)]
mod tests {
    use super::legacy::{v7_document, v7_json};
    use super::*;
    use crate::service::ServiceConfig;
    use sixdust_alias::DetectorConfig;
    use sixdust_net::{Day, FaultConfig, Internet, Scale};

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
        // v7: every set and prefix list one codec body, a snapshot one set
        // and a column, and the current round's protocols a column beside
        // its set. From the reference writer, and the pin the v7 writer
        // had.
        let state = ServiceState::capture(&run_service(8));
        let json = v7_json(&state);
        assert!(json.starts_with("{\n  \"version\": 7,\n  \"input\": \"U0RGM"), "{:.60}", json);
        assert!(json.contains("\n      \"responsive\": \"U0RGM"));
        assert!(json.contains("\n  \"current_protos\": \"U0RDM"));
        assert!(json.contains("\n  \"ever_protos\": \"U0RDM"));
        assert!(json.ends_with("\"\n}"), "no trailing newline");
        let digest = sixdust_addr::digest::fnv_items(json.bytes().map(u128::from));
        assert_eq!((json.len(), digest), (259_577, 10_851_572_715_604_131_735));
        // v8: what the service learned of each input address is one
        // column beside the input.
        let json = state.to_json();
        assert!(json.starts_with("{\n  \"version\": 8,\n  \"input\": \"U0RGM"), "{:.60}", json);
        assert!(json.contains("\",\n  \"input_seen\": \"U0RDM"));
        assert!(!json.contains("\"ever") && !json.contains("\"gfw_impacted"));
        let digest = sixdust_addr::digest::fnv_items(json.bytes().map(u128::from));
        assert_eq!((json.len(), digest), (257_484, 12_345_333_448_284_194_892));
    }

    #[test]
    fn capture_matches_service() {
        let svc = run_service(8);
        let state = ServiceState::capture(&svc);
        assert_eq!(state.input.len(), svc.input().len());
        assert_eq!(state.rounds.len(), svc.rounds().len());
        assert_eq!(state.aliased.len(), svc.aliased().len());
        assert!(svc.unresponsive().rows().map(|(.., seen)| seen).eq(state.seen.iter().copied()));
        let ever =
            state.input.addrs().zip(&state.seen).filter(|(_, seen)| !seen.protos().is_empty());
        assert!(ever.map(|(a, seen)| (a, seen.protos())).eq(svc.cumulative().iter()));
        assert_eq!(state.current.protos.len(), svc.current_responsive().len());
        assert_eq!(state.alias_detail.len(), state.aliased.len());
        assert_eq!(state.snapshots.len(), 1);
    }

    #[test]
    fn version_gate() {
        let state = ServiceState::capture(&run_service(3));
        let (json, v7) = (state.to_json(), v7_json(&state));
        // The current version and the one before read, each in the shape
        // its writer gave it.
        assert!(ServiceState::from_json(&json).is_ok());
        assert!(ServiceState::from_json(&v7).is_ok());
        // Any other number is refused, whatever the shape: a v7 document
        // renumbered 6 would otherwise read.
        for version in [6, 99, 0] {
            let to = format!("\"version\": {version}");
            let renumbered = v7.replacen("\"version\": 7", &to, 1);
            let err = ServiceState::from_json(&renumbered).unwrap_err();
            assert!(
                err.contains(&format!("version {version} unsupported (expected 7..=8)")),
                "{err}"
            );
        }
    }

    #[test]
    fn a_re_saved_checkpoint_loads_as_the_state_it_was_read_into() {
        // A state read from a v7 document is saved at v8, the only
        // version written, and loads back unchanged.
        let read = ServiceState::from_json(&v7_json(&ServiceState::capture(&run_service(8))))
            .expect("a v7 document reads");
        let dir = std::env::temp_dir().join(format!("sixdust_resave_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("service.ckpt");
        read.save_atomic(&path).expect("saves");
        let loaded = ServiceState::load(&path);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded, Ok(read));
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
        assert_eq!(resumed.cumulative(), original.cumulative());
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
        let first = bad.alias_window[0].iter().next().expect("the first round labelled something");
        bad.alias_window[0] = bad.alias_window[0].iter().filter(|&p| p != first).collect();
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
    fn a_resume_with_a_shorter_merge_window_captures_a_valid_checkpoint() {
        // A lossy service with an alias round every third day, run with a
        // window of 3 merged rounds and resumed after day 12 with none:
        // the restored detector keeps its last round, and the labels are
        // what that round detected.
        let net = Internet::build(Scale::tiny())
            .with_faults(FaultConfig::lossless().with_drop_permille(2));
        let config = |merge_rounds| {
            let detector = DetectorConfig::default().with_merge_rounds(merge_rounds);
            test_config().with_alias_every_days(3).with_detector(detector)
        };
        let mut svc = HitlistService::new(config(3));
        svc.run(&net, Day(0), Day(12));
        let state = ServiceState::capture(&svc);
        let mut restored = state.restore(config(0));
        assert!(restored.aliased().len() < state.aliased.len(), "one round labels fewer");
        let recaptured = ServiceState::capture(&restored);
        recaptured.validate().expect("the restored service's checkpoint is valid");
        let read = ServiceState::from_json(&recaptured.to_json()).expect("and loads");
        let mut resumed = read.restore(config(0));
        restored.run(&net, Day(13), Day(18));
        resumed.run(&net, Day(13), Day(18));
        assert_eq!(
            ServiceState::capture(&resumed).to_json(),
            ServiceState::capture(&restored).to_json(),
            "a resume from it continues the restored service"
        );
    }

    /// A tiny service with a 3-day window, twelve days in: some of its
    /// input is active and some dropped.
    fn service_with_a_pool(config: ServiceConfig) -> HitlistService {
        let net = test_net();
        let mut svc = HitlistService::new(config);
        svc.set_unresponsive_window(3);
        svc.run(&net, Day(0), Day(12));
        svc
    }

    #[test]
    fn a_checkpoint_whose_input_and_filter_disagree_is_rejected() {
        let mut bad = ServiceState::capture(&service_with_a_pool(test_config()));
        bad.validate().expect("a captured state is valid");
        assert!(!bad.active.is_empty() && bad.active.len() < bad.input.len());
        bad.input.remove(bad.active[0].0 .0);
        assert!(bad.validate().is_err(), "an active address that is not input");
    }

    #[test]
    fn a_checkpoint_whose_clocks_were_emptied_or_removed_is_rejected() {
        // Every key a supported version writes is required: a document
        // without its clocks would otherwise read as one whose every
        // address was dropped.
        let base = ServiceState::capture(&service_with_a_pool(test_config()));
        for doc in [base.to_value(), v7_document(&base)] {
            let Value::Object(members) = &doc else { unreachable!() };
            let version = doc.get("version").cloned();
            for (key, _) in members {
                let Value::Object(mut without) = doc.clone() else { unreachable!() };
                without.retain(|(k, _)| k != key);
                let text = Value::Object(without).pretty();
                let err = ServiceState::from_json(&text).err().unwrap_or_default();
                assert!(err.contains(&format!("missing field `{key}`")), "{version:?}: {err}");
            }
        }
    }

    #[test]
    fn legacy_documents_restore_the_service_they_were_written_from() {
        // A v7 document's `ever`, `ever_protos` and `gfw_impacted` fold
        // into the one column: it reads as the state it was written from,
        // and restores the service that state restores.
        let original = ServiceState::capture(&service_with_a_pool(test_config()));
        assert!(original.seen.iter().any(|seen| !seen.protos().is_empty()));
        let read = ServiceState::from_json(&v7_json(&original)).expect("reads");
        read.validate().expect("valid");
        assert_eq!(read, original);
        assert_eq!(ServiceState::capture(&read.restore(test_config())), original);
        // No GFW era reached: mark two input addresses impacted, one of
        // them answered, and they read with the bit and their protocols.
        let mut marked = original.clone();
        let answered = marked.seen.iter().position(|seen| !seen.protos().is_empty()).unwrap();
        let silent = marked.seen.iter().position(|seen| seen.protos().is_empty()).unwrap();
        for at in [answered, silent] {
            marked.seen[at].0 |= Seen::GFW_CLEANED.0;
        }
        let read = ServiceState::from_json(&v7_json(&marked)).expect("reads");
        assert_eq!(read, marked);
        let svc = read.restore(test_config());
        let impacted: Vec<Addr> = svc.gfw_impacted().addrs().collect();
        let input = original.input.to_addr_vec();
        let mut expected = vec![input[answered], input[silent]];
        expected.sort_unstable();
        assert_eq!(impacted, expected);
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
