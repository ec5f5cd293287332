//! The checkpoint writer of versions 1–6, kept as a test reference.
//!
//! Before v7 a checkpoint wrote each snapshot's cleaned and published
//! set of each protocol as `[protocol, set]` pairs and no column beside
//! `current_responsive`; this writer writes the published sets as the
//! cleaned ones, which they were before the GFW eras and which no reader
//! reads. Before v6 it wrote every prefix as a `{"network", "len"}`
//! object, the cumulative protocols as `[address, protocols]` pairs and
//! the detail of the alias labels as `{"prefix", "icmp", "tcp80"}`
//! objects. Before v5 it also wrote every address set as an ascending
//! array of decimal integers and stored the 30-day filter's dropped pool
//! (`unresponsive_pool`, the input without the active addresses) after
//! `gfw_impacted`. [`legacy_document`] rebuilds such a document from a v7
//! `ServiceState`: `checkpoint_bytes_are_pinned` holds its v4, v5 and v6
//! bytes to the pins the v4, v5 and v6 writers had, and the legacy tests
//! feed its v1, v2, v4, v5 and v6 documents to today's reader.
//!
//! Shared by the unit tests of `state.rs` and the integration tests, so
//! it names no type of the crate: a state comes in through `ToJson`.
#![allow(dead_code)]

use sixdust_addr::{base64, AddrSet, Prefix, PrefixSet};
use sixdust_json::{FromJson, ToJson, Value};
use sixdust_net::Protocol;

/// A set as the v1–v4 writer wrote it: its members, ascending.
pub fn array(set: &AddrSet) -> Value {
    Value::Array(set.iter().map(Value::UInt).collect())
}

/// The set a member holds, in either form.
fn set_of(value: &Value) -> AddrSet {
    AddrSet::from_value(value).expect("a set")
}

/// A prefix as the v1–v5 writer wrote it.
fn prefix_object(prefix: Prefix) -> Value {
    Value::Object(vec![
        ("network".to_string(), Value::UInt(prefix.network().0)),
        ("len".to_string(), Value::UInt(prefix.len().into())),
    ])
}

/// The prefixes of a prefix set's body.
fn prefixes_of(value: &Value) -> Vec<Prefix> {
    PrefixSet::from_value(value).expect("a prefix set").iter().collect()
}

/// A prefix set as the v1–v5 writer wrote it: one object a prefix.
fn prefix_objects(value: &Value) -> Value {
    Value::Array(prefixes_of(value).into_iter().map(prefix_object).collect())
}

/// The bytes of a column: its body without the 4-byte magic and the
/// 8-byte checksum.
fn column_of(value: &Value) -> Vec<u8> {
    let body = base64::decode(value.as_str().expect("a column")).expect("canonical base64");
    body[4..body.len() - 8].to_vec()
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
        "current_protos" => version >= 7,
        _ => true,
    }
}

/// A snapshot as the v6 writer wrote it: the `[protocol, set]` pairs of
/// its cleaned and its published sets, and, before v6, its labels as
/// objects and, before v5, its sets as arrays.
fn legacy_snapshot(snapshot: &Value, version: u32) -> Value {
    let field = |key: &str| snapshot.get(key).expect(key);
    let members = set_of(field("responsive"));
    let protos = column_of(field("protos"));
    let pairs: Vec<Value> = Protocol::ALL
        .iter()
        .map(|p| {
            let bit = 1 << p.bit();
            let slice = members.iter().zip(&protos).filter(|(_, &b)| b & bit != 0).map(|(a, _)| a);
            let set = AddrSet::from_sorted(slice.collect());
            let set = if version < 5 { array(&set) } else { set.to_value() };
            Value::Array(vec![p.to_value(), set])
        })
        .collect();
    let aliased =
        if version < 6 { prefix_objects(field("aliased")) } else { field("aliased").clone() };
    Value::Object(vec![
        ("day".to_string(), field("day").clone()),
        ("cleaned".to_string(), Value::Array(pairs.clone())),
        ("published".to_string(), Value::Array(pairs)),
        ("aliased".to_string(), aliased),
    ])
}

/// The version-`version` (1–6) document of `state`, a v7
/// `ServiceState`, as the v6 writer (or, before v6, the v5 writer, or,
/// before v5, the v4 writer) wrote it.
pub fn legacy_document(state: &impl ToJson, version: u32) -> Value {
    let Value::Object(members) = state.to_value() else { panic!("a state is an object") };
    let member = |key: &str| &members.iter().find(|(k, _)| k == key).expect(key).1;
    let input = set_of(member("input"));
    let clocks = Vec::<(u128, u32)>::from_value(member("active")).expect("the clocks");
    let pool = input.diff(&clocks.iter().map(|&(a, _)| a).collect());
    // The pairs of address and protocols, and the detail objects of the
    // labels, from the columns beside `ever` and `aliased`.
    let ever = set_of(member("ever"));
    let cumulative: Vec<Value> = ever
        .iter()
        .zip(column_of(member("ever_protos")))
        .map(|(a, protos)| Value::Array(vec![Value::UInt(a), Value::UInt(protos.into())]))
        .collect();
    let detail: Vec<Value> = prefixes_of(member("aliased"))
        .into_iter()
        .zip(column_of(member("alias_detail")))
        .map(|(prefix, protos)| {
            Value::Object(vec![
                ("prefix".to_string(), prefix_object(prefix)),
                ("icmp".to_string(), Value::Bool(protos & 1 != 0)),
                ("tcp80".to_string(), Value::Bool(protos & 2 != 0)),
            ])
        })
        .collect();
    let mut out = Vec::new();
    for (key, value) in members.iter().filter(|(key, _)| written_by(key, version)) {
        let value = match key.as_str() {
            "version" => Value::UInt(version.into()),
            "input" | "gfw_impacted" | "current_responsive" if version < 5 => array(&set_of(value)),
            "snapshots" => Value::Array(
                value
                    .as_array()
                    .expect("snapshots")
                    .iter()
                    .map(|snapshot| legacy_snapshot(snapshot, version))
                    .collect(),
            ),
            _ if version == 6 => value.clone(),
            "aliased" => prefix_objects(value),
            "ever" => Value::Array(cumulative.clone()),
            "ever_protos" => continue,
            "alias_window" => {
                Value::Array(value.as_array().expect("rounds").iter().map(prefix_objects).collect())
            }
            "alias_detail" => Value::Array(detail.clone()),
            _ => value.clone(),
        };
        let key = if key == "ever" && version < 6 { "cumulative" } else { key };
        out.push((key.to_string(), value));
        if key == "gfw_impacted" && version < 5 {
            out.push(("unresponsive_pool".to_string(), array(&pool)));
        }
    }
    Value::Object(out)
}

/// [`legacy_document`] as the pretty text its writer wrote.
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
