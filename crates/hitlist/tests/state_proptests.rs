//! Property tests for checkpoint robustness: a restarting service parses
//! whatever it finds on disk — a checkpoint from an unsupported version, a
//! file truncated by a crash, or plain garbage — and must reject bad input with
//! an error, never a panic, and never accept an inconsistent timeline.
//! Seeded loops, at least 64 cases each.

mod common;

use std::sync::OnceLock;

use sixdust_addr::codec::{encode_full, push_checksum, FULL_MAGIC};
use sixdust_addr::prf::PrfStream;
use sixdust_addr::{base64, AddrSet};
use sixdust_hitlist::{HitlistService, Seen, ServiceConfig, ServiceState};
use sixdust_json::{ToJson, Value};
use sixdust_net::{Day, FaultConfig, Internet, ProtoSet, Protocol, Scale};

const CASES: u64 = 64;

fn stream(property: u64, case: u64) -> PrfStream {
    PrfStream::new(0xC4EC, u128::from(case), property)
}

/// One small service run, captured once: the donor checkpoint every
/// mutation case starts from.
fn donor() -> &'static ServiceState {
    static STATE: OnceLock<ServiceState> = OnceLock::new();
    STATE.get_or_init(|| {
        let net = Internet::build(Scale::tiny()).with_faults(FaultConfig::lossless());
        let mut svc =
            HitlistService::new(ServiceConfig::default().with_snapshot_days(vec![Day(3), Day(6)]));
        svc.run(&net, Day(0), Day(8));
        let state = ServiceState::capture(&svc);
        state.validate().expect("fresh capture is valid");
        state
    })
}

/// Arbitrary text is not a checkpoint: parsing must return `Err`, never
/// panic — and on the off chance something parses, validation must not
/// panic either.
#[test]
fn garbage_never_panics() {
    const SHAPED: &[u8] = b"{}[]\",:-0123456789.eE\\u";
    for case in 0..4 * CASES {
        let rng = &mut stream(1, case);
        let text: String = (0..rng.next_bounded(200))
            .filter_map(|_| match rng.next_bounded(3) {
                0 => char::from_u32(rng.next_bounded(0x80) as u32),
                1 => Some(SHAPED[rng.next_bounded(SHAPED.len() as u64) as usize] as char),
                _ => char::from_u32(rng.next_bounded(0x11_0000) as u32),
            })
            .collect();
        if let Ok(state) = ServiceState::from_json(&text) {
            let _ = state.validate();
        }
    }
}

/// JSON-shaped garbage (braces, quotes, numbers in plausible places) is
/// still rejected gracefully.
#[test]
fn json_shaped_garbage_never_panics() {
    for case in 0..CASES {
        let rng = &mut stream(2, case);
        let version = rng.next_u64() as u32;
        let filler: String = (0..1 + rng.next_bounded(12))
            .map(|_| b"abcdefghijklmnopqrstuvwxyz_"[rng.next_bounded(27) as usize] as char)
            .collect();
        let n = rng.next_u64() as i64;
        let json = format!("{{\"version\": {version}, \"{filler}\": {n}}}");
        assert!(ServiceState::from_json(&json).is_err(), "{json}");
    }
    // Right keys, wrong or hostile values.
    let state = donor();
    let json = state.to_json();
    for (from, to) in [
        ("\"version\": 8", "\"version\": -8"),
        ("\"version\": 8", "\"version\": 8.0"),
        ("\"version\": 8", "\"version\": 4294967296"),
        ("\"version\": 8", "\"version\": \"8\""),
        ("\"rounds\": [", "\"rounds\": [{}, "),
        ("\"unresponsive_window\": 30", "\"unresponsive_window\": 30, \"version\": 8"),
        ("\"alias_window\": [", "\"alias_window\": [{}, "),
    ] {
        assert!(json.contains(from), "{from}");
        assert!(ServiceState::from_json(&json.replacen(from, to, 1)).is_err(), "{from} -> {to}");
    }
    // Sets are base64 codec bodies: an empty string, a character outside
    // the alphabet, and well-formed, checksummed bodies that break the
    // codec's other rules. The document's input is two addresses, one
    // byte each, so a well-formed body of two others reads.
    let two = ServiceState {
        input: AddrSet::from_sorted(vec![5, 7]),
        seen: vec![Seen(0); 2],
        ..state.clone()
    };
    let two_json = two.to_json();
    let input = format!("\"input\": \"{}\"", base64::encode(&encode_full(&two.input)));
    let body = |payload: &[u8]| {
        let mut body = payload.to_vec();
        push_checksum(&mut body);
        format!("\"input\": \"{}\"", base64::encode(&body))
    };
    let good = encode_full(&AddrSet::from_sorted(vec![5, 9]));
    let payload = &good[..good.len() - 8];
    let mut bad_magic = payload.to_vec();
    bad_magic[..4].copy_from_slice(b"SDF2");
    let unsorted = [&FULL_MAGIC[..], &[2, 9, 0]].concat();
    let trailing = [payload, &[0]].concat();
    for to in [
        "\"input\": \"\"".to_string(),
        input.replacen("U0RG", "U0R-", 1),
        input.replacen("U0RG", "U0R G", 1),
        body(&bad_magic),
        body(&unsorted),
        body(&trailing),
    ] {
        assert!(two_json.contains(&input));
        let err = ServiceState::from_json(&two_json.replacen(&input, &to, 1)).unwrap_err();
        assert!(err.contains("input"), "{to:.60}: {err}");
    }
    assert!(ServiceState::from_json(&two_json.replacen(&input, &body(payload), 1)).is_ok());
    // Prefix sets are codec bodies of packed items and per-member values
    // are columns: an item no prefix packs to, a column one entry short
    // of its set or one past it, a member that answered no protocol, a
    // bit outside `Seen` or `ProtoSet` and, in the alias detail, a
    // protocol the detector does not probe.
    let packed = state.aliased.packed();
    let aliased = format!("\"aliased\": \"{}\"", base64::encode(&encode_full(&packed)));
    for item in [0x100 | 32, 151, u128::MAX] {
        let body = base64::encode(&encode_full(&AddrSet::from_sorted(vec![item])));
        let to = format!("\"aliased\": \"{body}\"");
        assert!(json.contains(&aliased));
        let err = ServiceState::from_json(&json.replacen(&aliased, &to, 1)).unwrap_err();
        assert!(err.contains("not a packed prefix"), "{item:#x}: {err}");
    }
    assert!(state.seen.iter().any(|s| s.0 != 0) && !state.alias_detail.is_empty());
    assert!(!state.current.members.is_empty());
    type Edit = fn(&mut ServiceState);
    let hostile: [(&str, Edit); 12] = [
        ("input_seen one short", |s| {
            s.seen.pop();
        }),
        ("input_seen one past", |s| s.seen.push(Seen(1))),
        ("input_seen bit 6", |s| s.seen[0].0 |= 0x40),
        ("input_seen bit 7", |s| s.seen[0].0 |= 0x80),
        ("current_protos one short", |s| {
            s.current.protos.pop();
        }),
        ("current_protos zero", |s| s.current.protos[0] = ProtoSet::EMPTY),
        ("a snapshot's protos one past", |s| s.snapshots[1].responsive.protos.push(ProtoSet(1))),
        ("a snapshot's protos bit 6", |s| s.snapshots[0].responsive.protos[0].0 |= 0x40),
        ("alias_detail one short", |s| {
            s.alias_detail.pop();
        }),
        ("alias_detail one past", |s| s.alias_detail.push(ProtoSet(1))),
        ("alias_detail zero", |s| s.alias_detail[0] = ProtoSet::EMPTY),
        ("alias_detail TCP/443", |s| s.alias_detail[0].insert(Protocol::Tcp443)),
    ];
    for (case, make) in hostile {
        let mut bad = state.clone();
        make(&mut bad);
        assert!(ServiceState::from_json(&bad.to_json()).is_err(), "{case}");
        assert!(bad.validate().is_err(), "{case}");
    }
    // A current column is one entry a member, or none: a v6 document
    // whose last round was no snapshot day did not record it, nor does a
    // v7 document re-saved from one before its next round.
    let mut unrecorded = state.clone();
    unrecorded.current.protos.clear();
    assert!(ServiceState::from_json(&unrecorded.to_json()).is_ok(), "no current column");
    // A cold window has no detail: a column there is one past its labels.
    let mut cold = state.clone();
    cold.alias_window.clear();
    assert!(ServiceState::from_json(&cold.to_json()).is_err(), "detail beside a cold window");
    cold.alias_detail.clear();
    assert!(ServiceState::from_json(&cold.to_json()).is_ok(), "a cold window, no detail");
}

/// A v7 document kept `ever` and `gfw_impacted` beside the input; an
/// address of either outside the input has no row to fold into, and the
/// document is refused with an error.
#[test]
fn a_v7_set_outside_the_input_is_refused() {
    let state = donor();
    let Value::Object(v7) = common::v7_document(state) else { unreachable!() };
    let ever = state.input.addrs().zip(&state.seen).find(|(_, s)| !s.protos().is_empty());
    let (answered, _) = ever.expect("an address that answered");
    let mut without = state.input.clone();
    without.remove(answered.0);
    let stranger = AddrSet::from_sorted(vec![1]);
    assert!(!state.input.contains(1));
    for (key, value, why) in [
        ("input", without.to_value(), format!("ever holds {answered}, which is not input")),
        ("gfw_impacted", stranger.to_value(), "gfw_impacted holds ::1, which is not input".into()),
    ] {
        let mut doc = v7.clone();
        doc.iter_mut().find(|(k, _)| k == key).expect(key).1 = value;
        let err = ServiceState::from_json(&Value::Object(doc).pretty()).unwrap_err();
        assert!(err.contains(&why), "{key}: {err}");
    }
    assert_eq!(ServiceState::from_json(&common::v7_json(state)).as_ref(), Ok(state));
}

/// A v7 document's `ever_protos` column stands beside `ever`, one
/// non-empty set of the five protocols a member: a column one entry short
/// or one past, a member that answered nothing, or bit 5 (which the
/// column step would fold in as a GFW mark) is refused with an error.
#[test]
fn a_v7_protocol_column_off_its_set_is_refused() {
    let state = donor();
    let Value::Object(v7) = common::v7_document(state) else { unreachable!() };
    let protos = |doc: &[(String, Value)]| {
        common::column_of(&doc.iter().find(|(k, _)| k == "ever_protos").expect("ever_protos").1)
    };
    assert!(!protos(&v7).is_empty());
    type Edit = fn(&mut Vec<u8>);
    let hostile: [(&str, Edit); 4] = [
        ("one short", |c| {
            c.pop();
        }),
        ("one past", |c| c.push(1)),
        ("zero", |c| c[0] = 0),
        ("bit 5", |c| c[0] |= 0x20),
    ];
    for (case, make) in hostile {
        let mut column = protos(&v7);
        make(&mut column);
        let mut doc = v7.clone();
        doc.iter_mut().find(|(k, _)| k == "ever_protos").expect("ever_protos").1 =
            common::column(column);
        let err = ServiceState::from_json(&Value::Object(doc).pretty()).unwrap_err();
        assert!(err.contains("ever_protos holds"), "{case}: {err}");
    }
}

/// An active clock at the filter's dropped sentinel would restore as a
/// dropped address; the checkpoint is refused.
#[test]
fn an_active_clock_at_the_dropped_sentinel_is_refused() {
    let mut state = donor().clone();
    state.active[0].1 = Day(u32::MAX);
    let err = state.validate().unwrap_err();
    assert!(err.contains("holds the dropped clock"), "{err}");
}

/// The base64 alphabet, and the padding character.
const BASE64: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=";

/// Where each body's string lies in a v8 document: every set body starts
/// with the codec's magic, `SDF1`, which base64 writes as `U0RGM`, and
/// every column body with `SDC1`, `U0RDM`.
fn body_strings(json: &str) -> Vec<std::ops::Range<usize>> {
    let starts = json.match_indices("\"U0RGM").chain(json.match_indices("\"U0RDM"));
    starts
        .map(|(at, _)| {
            let start = at + 1;
            start..start + json[start..].find('"').expect("a closed string")
        })
        .collect()
}

/// One changed character inside a set's or a column's string — a flipped
/// bit of the body, a non-canonical padding, a character out of place —
/// never loads: base64 decoding is strict, and a body that decodes to
/// other bytes fails the codec's checksum.
#[test]
fn a_changed_byte_in_a_set_body_never_loads() {
    let json = donor().to_json();
    let sets = body_strings(&json);
    assert_eq!(
        sets.len(),
        2 + 2 * 3 + 1 + 1 + 3,
        "input, current, two snapshots' set, column and labels each, aliased, one round of \
         the alias window, the three other columns"
    );
    let changed = |at: usize, to: u8| {
        let mut bytes = json.clone().into_bytes();
        assert_ne!(bytes[at], to);
        bytes[at] = to;
        String::from_utf8(bytes).expect("ASCII for ASCII")
    };
    for case in 0..CASES {
        let rng = &mut stream(6, case);
        let set = &sets[rng.next_bounded(sets.len() as u64) as usize];
        let at = set.start + rng.next_bounded(set.len() as u64) as usize;
        let others: Vec<u8> =
            BASE64.iter().copied().filter(|&c| c != json.as_bytes()[at]).collect();
        let to = others[rng.next_bounded(others.len() as u64) as usize];
        assert!(ServiceState::from_json(&changed(at, to)).is_err(), "{at}: {}", to as char);
    }
    // One changed character in the middle of every body, so that each
    // prefix set and each column is hit too.
    for body in &sets {
        let at = body.start + body.len() / 2;
        let to = if json.as_bytes()[at] == b'A' { b'B' } else { b'A' };
        assert!(ServiceState::from_json(&changed(at, to)).is_err(), "{at}: {}", to as char);
    }
    // Every other character in the last data place of a padded body:
    // most leave a padding bit set, the rest change the checksum's last
    // byte.
    let padded = sets.iter().find(|s| json[s.start..s.end].ends_with('=')).expect("a padded body");
    let last = padded.start + json[padded.start..padded.end].trim_end_matches('=').len() - 1;
    for &to in BASE64.iter().filter(|&&c| c != json.as_bytes()[last]) {
        assert!(ServiceState::from_json(&changed(last, to)).is_err(), "{}", to as char);
    }
}

/// A checkpoint cut off mid-write (any strict prefix of a real one)
/// parses to an error, never a panic and never a silently shorter
/// history — exactly the crash `save_atomic` defends against.
#[test]
fn truncated_checkpoints_are_rejected() {
    let json = donor().to_json();
    // Parsing every prefix of half a megabyte is quadratic: the last 64
    // bytes (where a document is nearly whole) one by one, then seeded
    // cuts over the rest.
    let tail = (json.len() - 64..json.len()).collect::<Vec<_>>();
    let seeded =
        (0..4 * CASES).map(|case| stream(3, case).next_bounded(json.len() as u64) as usize);
    for cut in tail.into_iter().chain(seeded).filter(|&cut| json.is_char_boundary(cut)) {
        assert!(ServiceState::from_json(&json[..cut]).is_err(), "prefix of {cut} bytes parsed");
    }
}

/// One flipped byte can shift a brace or a digit; whatever it does, the
/// parser must not panic, and a still-parseable checkpoint must survive
/// validation without panicking.
#[test]
fn corrupted_checkpoints_never_panic() {
    let json = donor().to_json();
    for case in 0..CASES {
        let rng = &mut stream(4, case);
        let mut bytes = json.clone().into_bytes();
        let pos = rng.next_bounded(bytes.len() as u64) as usize;
        bytes[pos] ^= 1 + rng.next_bounded(255) as u8;
        if let Ok(json) = String::from_utf8(bytes) {
            if let Ok(state) = ServiceState::from_json(&json) {
                let _ = state.validate();
            }
        }
    }
}

/// Day monotonicity: round records and snapshots must be strictly
/// increasing in day. Reordering any two rounds, or duplicating any
/// snapshot, must fail validation.
#[test]
fn shuffled_timelines_fail_validation() {
    let rounds = donor().rounds.len();
    assert!(rounds >= 8);
    for (i, j) in (0..rounds).flat_map(|i| (0..rounds).map(move |j| (i, j))).filter(|(i, j)| i != j)
    {
        let mut state = donor().clone();
        state.rounds.swap(i, j);
        assert!(state.validate().is_err(), "swapped rounds {i} and {j} accepted");
    }
}

#[test]
fn duplicated_snapshots_fail_validation() {
    assert_eq!(donor().snapshots.len(), 2);
    for idx in 0..2 {
        let mut state = donor().clone();
        let dup = state.snapshots[idx].clone();
        state.snapshots.insert(idx, dup);
        assert!(state.validate().is_err());
    }
}

/// Quarantine windows are half-open `[from, until)`: empty or inverted
/// windows must be rejected.
#[test]
fn inverted_quarantine_windows_fail_validation() {
    for case in 0..CASES {
        let rng = &mut stream(5, case);
        let (from, len) = (rng.next_bounded(2000) as u32, rng.next_bounded(100) as u32);
        let mut state = donor().clone();
        // len == 0 is the degenerate from == until empty window; larger
        // len inverts the bounds. Both must be rejected.
        state.quarantined.push((Day(from + len), Day(from)));
        assert!(state.validate().is_err());
    }
}
