//! Offline stand-in for `serde_json`. The benchmark measures no path that
//! reads or writes JSON through serde. Every entry point panics, so that a
//! path that does reach one fails loudly and is not timed as if it had
//! done the work.

use std::fmt;

const WHY: &str = "serde_json stand-in reached: the offline benchmark build has no JSON layer, \
                   and a measured path must not depend on one";

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(WHY)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized>(_value: &T) -> Result<String> {
    panic!("{WHY} (to_string)")
}

pub fn to_string_pretty<T: ?Sized>(_value: &T) -> Result<String> {
    panic!("{WHY} (to_string_pretty)")
}

pub fn from_str<T>(_s: &str) -> Result<T> {
    panic!("{WHY} (from_str)")
}
