//! [`ToJson`] and [`FromJson`] and their implementations for the
//! standard types, in the shapes `serde` gave them: sequences, fixed
//! arrays and pairs as arrays, `None` as `null`.

use crate::value::{Error, Value};

/// A type with a JSON form.
pub trait ToJson {
    /// This value as a JSON document.
    fn to_value(&self) -> Value;
}

/// A type that can be read back from its JSON form.
pub trait FromJson: Sized {
    /// Reads a value, rejecting a document of the wrong shape or out of
    /// the type's range.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// What a struct field of this type holds when its key is absent:
    /// nothing for most types, which makes the key required.
    fn absent() -> Option<Self> {
        None
    }
}

impl ToJson for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl ToJson for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_value(v: &Value) -> Result<bool, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("a boolean", other)),
        }
    }
}

macro_rules! unsigned {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_value(&self) -> Value {
                // usize is at most 64 bits on every supported target.
                Value::UInt(*self as u128)
            }
        }

        impl FromJson for $ty {
            fn from_value(v: &Value) -> Result<$ty, Error> {
                match v {
                    Value::UInt(n) => <$ty>::try_from(*n).map_err(|_| {
                        Error::new(format!("{n} out of range for {}", stringify!($ty)))
                    }),
                    other => Err(Error::expected("a non-negative integer", other)),
                }
            }
        }
    )+};
}
unsigned!(u8, u16, u32, u64, u128, usize);

macro_rules! signed {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_value(&self) -> Value {
                match u128::try_from(*self) {
                    Ok(n) => Value::UInt(n),
                    Err(_) => Value::Int(i128::from(*self)),
                }
            }
        }

        impl FromJson for $ty {
            fn from_value(v: &Value) -> Result<$ty, Error> {
                let out_of_range =
                    |n: &dyn std::fmt::Display| Error::new(format!("{n} out of range for {}", stringify!($ty)));
                match v {
                    Value::UInt(n) => <$ty>::try_from(*n).map_err(|_| out_of_range(n)),
                    Value::Int(n) => <$ty>::try_from(*n).map_err(|_| out_of_range(n)),
                    other => Err(Error::expected("an integer", other)),
                }
            }
        }
    )+};
}
signed!(i64, i128);

impl ToJson for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl ToJson for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl FromJson for String {
    fn from_value(v: &Value) -> Result<String, Error> {
        v.as_str().map(str::to_string)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_value)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_value(v: &Value) -> Result<Option<T>, Error> {
        match v {
            Value::Null => Ok(None),
            some => T::from_value(some).map(Some),
        }
    }

    fn absent() -> Option<Option<T>> {
        Some(None)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(T::to_value).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, Error> {
        v.as_array()?.iter().map(T::from_value).collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_value(v: &Value) -> Result<[T; N], Error> {
        let items = Vec::<T>::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::new(format!("expected an array of {N} elements, found {len}")))
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_value(v: &Value) -> Result<(A, B), Error> {
        match v.as_array()? {
            [a, b] => Ok((A::from_value(a)?, B::from_value(b)?)),
            other => {
                Err(Error::new(format!("expected an array of 2 elements, found {}", other.len())))
            }
        }
    }
}

/// `value`'s compact form.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_value().compact()
}

/// `value`'s pretty form.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_value().pretty()
}

/// Parses `text` and reads a `T` from the document.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_value(&crate::parse(text)?)
}
