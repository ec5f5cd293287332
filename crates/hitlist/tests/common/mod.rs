//! The checkpoint writer of version 7, kept as a test reference.
//!
//! v7 wrote what the service had learned of its input as three keys of
//! their own beside `aliased`: `gfw_impacted`, `ever` and `ever_protos`,
//! the protocol column beside `ever`. [`v7_document`] rebuilds such a
//! document from a v8 `ServiceState`, whose `input_seen` column holds the
//! same facts: `checkpoint_bytes_are_pinned` holds its bytes to the pin
//! the v7 writer had, and the tests feed it to today's reader.
//!
//! The unit tests of `state.rs` include it by `#[path]`, and
//! `state_proptests` as a module. It names no type of the crate: a state
//! comes in through `ToJson`.

use sixdust_addr::codec::push_checksum;
use sixdust_addr::{base64, AddrSet};
use sixdust_json::{FromJson, ToJson, Value};

/// The bytes of a column: its body without the 4-byte magic and the
/// 8-byte checksum.
pub fn column_of(value: &Value) -> Vec<u8> {
    let body = base64::decode(value.as_str().expect("a column")).expect("canonical base64");
    body[4..body.len() - 8].to_vec()
}

/// A column of `bytes` as a checkpoint writes it.
pub fn column(bytes: Vec<u8>) -> Value {
    let mut body = b"SDC1".to_vec();
    body.extend(bytes);
    push_checksum(&mut body);
    Value::String(base64::encode(&body))
}

/// The v7 document of `state`, a v8 `ServiceState`, as the v7 writer
/// wrote it.
pub fn v7_document(state: &impl ToJson) -> Value {
    let Value::Object(members) = state.to_value() else { panic!("a state is an object") };
    let field = |key: &str| &members.iter().find(|(k, _)| k == key).expect(key).1;
    let input = AddrSet::from_value(field("input")).expect("a set");
    let seen = column_of(field("input_seen"));
    let rows = || input.iter().zip(seen.iter().copied());
    let ever: Vec<(u128, u8)> = rows().filter(|(_, byte)| byte & 0x1f != 0).collect();
    let impacted = rows().filter(|(_, byte)| byte & 0x20 != 0).map(|(a, _)| a);
    let v7_keys = [
        ("gfw_impacted", AddrSet::from_sorted(impacted.collect()).to_value()),
        ("ever", AddrSet::from_sorted(ever.iter().map(|(a, _)| *a).collect()).to_value()),
        ("ever_protos", column(ever.iter().map(|(_, byte)| byte & 0x1f).collect())),
    ];
    let mut v7 = Vec::new();
    for (key, value) in members.iter().filter(|(key, _)| key != "input_seen") {
        let value = if key == "version" { Value::UInt(7) } else { value.clone() };
        v7.push((key.clone(), value));
        if key == "aliased" {
            v7.extend(v7_keys.iter().map(|(key, value)| (key.to_string(), value.clone())));
        }
    }
    Value::Object(v7)
}

/// [`v7_document`] as the pretty text its writer wrote.
pub fn v7_json(state: &impl ToJson) -> String {
    v7_document(state).pretty()
}
