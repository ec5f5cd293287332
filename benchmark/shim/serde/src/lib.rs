//! Offline stand-in for `serde`: only the trait shapes that sixdust's one
//! manual implementation (`AddrSet`) is written against, plus the no-op
//! derives. Nothing here serializes anything; the `serde_json` stand-in
//! panics if a measured path ever asks it to.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

pub mod ser {
    pub trait Serialize {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
    }

    pub trait Serializer: Sized {
        type Ok;
        type Error;
        type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
        fn serialize_u128(self, v: u128) -> Result<Self::Ok, Self::Error>;
        fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    }

    pub trait SerializeSeq {
        type Ok;
        type Error;
        fn serialize_element<T: ?Sized + Serialize>(
            &mut self,
            value: &T,
        ) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    impl Serialize for u128 {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            serializer.serialize_u128(*self)
        }
    }
}

pub mod de {
    pub trait Deserialize<'de>: Sized {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
    }

    pub trait Deserializer<'de>: Sized {
        type Error;
        fn deserialize_u128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
        fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    }

    pub trait Visitor<'de>: Sized {
        type Value;
        fn expecting(&self, formatter: &mut std::fmt::Formatter<'_>) -> std::fmt::Result;
        fn visit_u128<E>(self, _v: u128) -> Result<Self::Value, E> {
            unreachable!("serde stand-in: no deserializer exists to drive a visitor")
        }
        fn visit_seq<A: SeqAccess<'de>>(self, _seq: A) -> Result<Self::Value, A::Error> {
            unreachable!("serde stand-in: no deserializer exists to drive a visitor")
        }
    }

    pub trait SeqAccess<'de> {
        type Error;
        fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error>;
        fn size_hint(&self) -> Option<usize> {
            None
        }
    }

    impl<'de> Deserialize<'de> for u128 {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<u128, D::Error> {
            struct U128;
            impl<'de> Visitor<'de> for U128 {
                type Value = u128;
                fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.write_str("a 128-bit integer")
                }
                fn visit_u128<E>(self, v: u128) -> Result<u128, E> {
                    Ok(v)
                }
            }
            deserializer.deserialize_u128(U128)
        }
    }
}

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
