//! Marker stand-ins for `serde::{Serialize, Deserialize}`. Every type
//! implements them, so `#[derive(Serialize, Deserialize)]` (a no-op here) and
//! every `T: Serialize` bound compile; nothing can actually be serialised —
//! the stand-in `serde_json` returns `Err` from every call.

pub use serde_derive::{Deserialize, Serialize};

/// Marker: implemented for every type.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker: implemented for every type.
pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

/// Deserialisation helper traits.
pub mod de {
    /// Marker: implemented for every type.
    pub trait DeserializeOwned: Sized {}
    impl<T> DeserializeOwned for T {}
}
