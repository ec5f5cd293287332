//! The one JSON layer of sixdust.
//!
//! What the service keeps and publishes — checkpoints, manifests, day
//! reports, result tables — is JSON, and this crate is the only code in
//! the workspace that reads or writes it:
//!
//! * [`Value`]: a document with exact 128-bit integers and ordered objects;
//! * [`parse`]: a strict parser that returns `Err`, never panics, on
//!   whatever a crashed or hostile writer left on disk;
//! * [`Value::compact`] and [`Value::pretty`]: the two forms
//!   `serde_json` wrote, byte for byte, so files written before this
//!   crate existed still compare equal;
//! * [`ToJson`] / [`FromJson`]: explicit conversions, implemented by hand
//!   (or through [`json_struct!`] / [`json_enum!`]) only for the types
//!   that are persisted or published.
//!
//! ```
//! use sixdust_json::{from_str, json, to_string};
//! let row = json!({ "day": 7u32, "addrs": [u128::MAX, 1], "scale": { "div": 10u64 } });
//! assert_eq!(row.compact(), r#"{"addrs":[340282366920938463463374607431768211455,1],"day":7,"scale":{"div":10}}"#);
//! let back: Vec<(String, u64)> = from_str(r#"[["a", 1], ["b", 2]]"#).unwrap();
//! assert_eq!(to_string(&back), r#"[["a",1],["b",2]]"#);
//! ```

mod convert;
mod parse;
mod value;
mod write;

pub use convert::{from_str, to_string, to_string_pretty, FromJson, ToJson};
pub use parse::{parse, MAX_DEPTH};
pub use value::{Error, Fields, Value};

/// Builds a [`Value`] from an object literal whose values are nested
/// object literals or expressions implementing [`ToJson`], or from one
/// such expression. As with `serde_json::json!`, an object literal's
/// members come out sorted by key.
#[macro_export]
macro_rules! json {
    ({ $($members:tt)* }) => {{
        #[allow(unused_mut)]
        let mut members: Vec<(String, $crate::Value)> = Vec::new();
        $crate::json_members!(members $($members)*);
        $crate::Value::sorted_object(members)
    }};
    ($value:expr) => {
        $crate::ToJson::to_value(&$value)
    };
}

/// The members of a [`json!`] object literal, one `"key": value` at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! json_members {
    ($out:ident) => {};
    ($out:ident $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $out.push(($key.to_string(), $crate::json!({ $($inner)* })));
        $crate::json_members!($out $($($rest)*)?);
    };
    ($out:ident $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $out.push(($key.to_string(), $crate::json!($value)));
        $crate::json_members!($out $($($rest)*)?);
    };
}

/// Implements [`ToJson`] and [`FromJson`] for a struct with named
/// fields: an object keyed by field name, in the order listed (list them
/// in declaration order to keep the shape `serde` derived). Unknown keys
/// are ignored on reading. `field = default` makes a key optional: absent,
/// the field takes `default`.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Window { days: u32, step: u32 }
/// sixdust_json::json_struct!(Window { days, step = 1 });
/// let old: Window = sixdust_json::from_str(r#"{"days": 30, "retired": true}"#).unwrap();
/// assert_eq!(old, Window { days: 30, step: 1 });
/// assert_eq!(sixdust_json::to_string(&old), r#"{"days":30,"step":1}"#);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident $(= $default:expr)?),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_value(&self) -> $crate::Value {
                $crate::Value::Object(vec![
                    $((stringify!($field).to_string(), $crate::ToJson::to_value(&self.$field))),+
                ])
            }
        }

        impl $crate::FromJson for $ty {
            fn from_value(v: &$crate::Value) -> Result<$ty, $crate::Error> {
                let fields = v.fields(stringify!($ty))?;
                Ok($ty { $($field: $crate::json_struct!(@read fields $field $($default)?)),+ })
            }
        }
    };
    (@read $fields:ident $field:ident) => {
        $fields.get(stringify!($field))?
    };
    (@read $fields:ident $field:ident $default:expr) => {
        $fields.get_or(stringify!($field), $default)?
    };
}

/// Implements [`ToJson`] and [`FromJson`] for an enum of unit variants:
/// each is its name as a string.
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_value(&self) -> $crate::Value {
                let name = match self {
                    $($ty::$variant => stringify!($variant)),+
                };
                $crate::Value::String(name.to_string())
            }
        }

        impl $crate::FromJson for $ty {
            fn from_value(v: &$crate::Value) -> Result<$ty, $crate::Error> {
                match v.as_str()? {
                    $(stringify!($variant) => Ok($ty::$variant),)+
                    other => Err($crate::Error::new(format!(
                        "unknown {} variant {other:?}",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}
