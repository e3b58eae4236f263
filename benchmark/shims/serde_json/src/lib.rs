//! Stand-in for the `serde_json` entry points the crates under `crates/`
//! call. None of them can work without a real `serde`, so each returns
//! [`Error`]; the benchmark never calls checkpoint or registry code.

use serde::de::DeserializeOwned;
use serde::Serialize;

/// "JSON is unavailable in the offline benchmark build."
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("serde_json stand-in: JSON is unavailable in the offline benchmark build")
    }
}

impl std::error::Error for Error {}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Always `Err`.
pub fn to_string<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    Err(Error)
}

/// Always `Err`.
pub fn to_vec<T: ?Sized + Serialize>(_value: &T) -> Result<Vec<u8>> {
    Err(Error)
}

/// Always `Err`.
pub fn from_str<T: DeserializeOwned>(_s: &str) -> Result<T> {
    Err(Error)
}

/// Always `Err`.
pub fn from_slice<T: DeserializeOwned>(_bytes: &[u8]) -> Result<T> {
    Err(Error)
}
