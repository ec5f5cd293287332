//! The checkpoint writer of version 6, kept as a test reference.
//!
//! v6 wrote each snapshot's cleaned and published set of each protocol
//! as `[protocol, set]` pairs and no column beside `current_responsive`;
//! this writer writes the published sets as the cleaned ones, which they
//! were before the GFW eras and which no reader reads.
//! [`legacy_document`] rebuilds such a document from a v7
//! `ServiceState`: `checkpoint_bytes_are_pinned` holds its bytes to the
//! pin the v6 writer had, and the legacy tests feed it to today's reader.
//!
//! The unit tests of `state.rs` include it by `#[path]`. It names no type
//! of the crate: a state comes in through `ToJson`.

use sixdust_addr::{base64, AddrSet};
use sixdust_json::{FromJson, ToJson, Value};
use sixdust_net::Protocol;

/// The bytes of a column: its body without the 4-byte magic and the
/// 8-byte checksum.
fn column_of(value: &Value) -> Vec<u8> {
    let body = base64::decode(value.as_str().expect("a column")).expect("canonical base64");
    body[4..body.len() - 8].to_vec()
}

/// A snapshot as the v6 writer wrote it: the `[protocol, set]` pairs of
/// its cleaned and its published sets.
fn legacy_snapshot(snapshot: &Value) -> Value {
    let field = |key: &str| snapshot.get(key).expect(key);
    let members = AddrSet::from_value(field("responsive")).expect("a set");
    let protos = column_of(field("protos"));
    let pairs: Vec<Value> = Protocol::ALL
        .iter()
        .map(|p| {
            let bit = 1 << p.bit();
            let slice = members.iter().zip(&protos).filter(|(_, &b)| b & bit != 0).map(|(a, _)| a);
            Value::Array(vec![p.to_value(), AddrSet::from_sorted(slice.collect()).to_value()])
        })
        .collect();
    Value::Object(vec![
        ("day".to_string(), field("day").clone()),
        ("cleaned".to_string(), Value::Array(pairs.clone())),
        ("published".to_string(), Value::Array(pairs)),
        ("aliased".to_string(), field("aliased").clone()),
    ])
}

/// The v6 document of `state`, a v7 `ServiceState`, as the v6 writer
/// wrote it.
pub fn legacy_document(state: &impl ToJson) -> Value {
    let Value::Object(members) = state.to_value() else { panic!("a state is an object") };
    let v6 = members.into_iter().filter(|(key, _)| key != "current_protos").map(|(key, value)| {
        let value = match key.as_str() {
            "version" => Value::UInt(6),
            "snapshots" => Value::Array(
                value.as_array().expect("snapshots").iter().map(legacy_snapshot).collect(),
            ),
            _ => value,
        };
        (key, value)
    });
    Value::Object(v6.collect())
}

/// [`legacy_document`] as the pretty text its writer wrote.
pub fn legacy_json(state: &impl ToJson) -> String {
    legacy_document(state).pretty()
}
