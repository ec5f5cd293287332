//! The JSON value, its error type and keyed access to objects.

use std::fmt;

use crate::FromJson;

/// What went wrong while parsing text or converting a [`Value`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error carrying `msg`.
    pub fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }

    /// "expected `what`, found <the kind of `found`>".
    pub fn expected(what: &str, found: &Value) -> Error {
        Error(format!("expected {what}, found {}", found.kind()))
    }

    /// The same error, prefixed with where it happened.
    fn within(self, place: impl fmt::Display) -> Error {
        Error(format!("{place}: {}", self.0))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A JSON document.
///
/// Integers are exact over the whole `u128` and `i128` ranges (an
/// address is a bare 128-bit number on the wire), and objects keep the
/// order their members were written in.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u128),
    /// A negative integer. Everything this crate builds keeps
    /// non-negative integers in [`Value::UInt`], so equal numbers compare
    /// equal.
    Int(i128),
    /// A number written with a fraction or an exponent, and `-0`.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order, keys unique.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object whose members are sorted by key — the shape
    /// `serde_json::json!` gave every object literal, which the result
    /// tables under `results/` were written in.
    pub fn sorted_object(mut members: Vec<(String, Value)>) -> Value {
        members.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(members)
    }

    /// The name of this value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::UInt(_) | Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    /// The member `key` of an object; `None` for a missing key and for
    /// anything that is not an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => find(members, key),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(Error::expected("an array", other)),
        }
    }

    /// The members of an object, in document order.
    pub fn as_object(&self) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Object(members) => Ok(members),
            other => Err(Error::expected("an object", other)),
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(Error::expected("a string", other)),
        }
    }

    /// Keyed access to an object's members on behalf of the type `what`
    /// (named in every error).
    pub fn fields(&self, what: &'static str) -> Result<Fields<'_>, Error> {
        match self {
            Value::Object(members) => Ok(Fields { what, members }),
            other => Err(Error::expected("an object", other).within(what)),
        }
    }
}

fn find<'a>(members: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// An object being read into a struct: members are looked up by key,
/// unknown keys are ignored.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a> {
    what: &'static str,
    members: &'a [(String, Value)],
}

impl Fields<'_> {
    fn read<T: FromJson>(&self, key: &str, v: &Value) -> Result<T, Error> {
        T::from_value(v).map_err(|e| e.within(format_args!("{}.{key}", self.what)))
    }

    /// The member `key`. A missing member is an error unless `T` reads
    /// absence as a value, as `Option` does.
    pub fn get<T: FromJson>(&self, key: &str) -> Result<T, Error> {
        match find(self.members, key) {
            Some(v) => self.read(key, v),
            None => T::absent()
                .ok_or_else(|| Error::new(format!("{}: missing field `{key}`", self.what))),
        }
    }

    /// The member `key`, or `default` when it is absent — how a field
    /// added after the first files were written stays readable.
    pub fn get_or<T: FromJson>(&self, key: &str, default: T) -> Result<T, Error> {
        match find(self.members, key) {
            Some(v) => self.read(key, v),
            None => Ok(default),
        }
    }
}
