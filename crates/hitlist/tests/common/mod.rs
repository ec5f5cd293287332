//! The checkpoint writer of versions 1–4, kept as a test reference.
//!
//! Before v5 a checkpoint wrote every set as an ascending array of
//! decimal integers and stored the 30-day filter's dropped pool
//! (`unresponsive_pool`, the input without the active addresses) after
//! `gfw_impacted`. [`legacy_document`] rebuilds that document from a v5
//! `ServiceState`: `checkpoint_bytes_are_pinned` holds its v4 bytes to
//! the pin the v4 writer had, and the legacy tests feed its v1, v2 and v4
//! documents to today's reader.
//!
//! Shared by the unit tests of `state.rs` and the integration tests, so
//! it names no type of the crate: a state comes in through `ToJson`.
#![allow(dead_code)]

use sixdust_addr::AddrSet;
use sixdust_json::{FromJson, ToJson, Value};

/// A set as the v1–v4 writer wrote it: its members, ascending.
pub fn array(set: &AddrSet) -> Value {
    Value::Array(set.iter().map(Value::UInt).collect())
}

/// The set a member holds, in either form.
fn set_of(value: &Value) -> AddrSet {
    AddrSet::from_value(value).expect("a set")
}

/// Whether a version-`version` document has the key `key`: v2 added the
/// clocks and the filter's other parts, v4 the alias detector's window.
fn written_by(key: &str, version: u32) -> bool {
    match key {
        "active"
        | "quarantined"
        | "current_responsive"
        | "next_alias_day"
        | "unresponsive_window" => version >= 2,
        "alias_window" | "alias_detail" => version >= 4,
        _ => true,
    }
}

/// The `[protocol, set]` pairs of a snapshot with each set as an array.
fn legacy_pairs(pairs: &Value) -> Value {
    let pairs = pairs.as_array().expect("per-protocol pairs");
    Value::Array(
        pairs
            .iter()
            .map(|pair| match pair.as_array().expect("a pair") {
                [proto, set] => Value::Array(vec![proto.clone(), array(&set_of(set))]),
                other => panic!("a pair of two, found {}", other.len()),
            })
            .collect(),
    )
}

/// A snapshot with its per-protocol sets as arrays.
fn legacy_snapshot(snapshot: &Value) -> Value {
    let Value::Object(fields) = snapshot else { panic!("a snapshot is an object") };
    let legacy = |(key, value): &(String, Value)| match key.as_str() {
        "cleaned" | "published" => (key.clone(), legacy_pairs(value)),
        _ => (key.clone(), value.clone()),
    };
    Value::Object(fields.iter().map(legacy).collect())
}

/// The version-`version` (1–4) document of `state`, a v5
/// `ServiceState`, as the v4 writer wrote it.
pub fn legacy_document(state: &impl ToJson, version: u32) -> Value {
    let Value::Object(members) = state.to_value() else { panic!("a state is an object") };
    let member = |key: &str| &members.iter().find(|(k, _)| k == key).expect(key).1;
    let input = set_of(member("input"));
    let clocks = Vec::<(u128, u32)>::from_value(member("active")).expect("the clocks");
    let pool = input.diff(&clocks.iter().map(|&(a, _)| a).collect());
    let mut out = Vec::new();
    for (key, value) in members.iter().filter(|(key, _)| written_by(key, version)) {
        let value = match key.as_str() {
            "version" => Value::UInt(version.into()),
            "input" | "gfw_impacted" | "current_responsive" => array(&set_of(value)),
            "snapshots" => Value::Array(
                value.as_array().expect("snapshots").iter().map(legacy_snapshot).collect(),
            ),
            _ => value.clone(),
        };
        out.push((key.clone(), value));
        if key == "gfw_impacted" {
            out.push(("unresponsive_pool".to_string(), array(&pool)));
        }
    }
    Value::Object(out)
}

/// [`legacy_document`] as the pretty text the v4 writer wrote.
pub fn legacy_json(state: &impl ToJson, version: u32) -> String {
    legacy_document(state, version).pretty()
}

/// Replaces the value of the member `key` of the document `doc`.
pub fn set_member(doc: &mut Value, key: &str, value: Value) {
    let Value::Object(members) = doc else { panic!("a document is an object") };
    members.iter_mut().find(|(k, _)| k == key).expect(key).1 = value;
}

/// The set the member `key` of a legacy document holds.
pub fn legacy_set(doc: &Value, key: &str) -> AddrSet {
    set_of(doc.get(key).expect(key))
}
