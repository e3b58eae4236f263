//! No-op `Serialize`/`Deserialize` derives. The stand-in `serde` implements
//! its marker traits for every type, so the derives only have to exist and
//! to accept `#[serde(..)]` helper attributes.

use proc_macro::TokenStream;

/// Accepts the item and emits nothing.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts the item and emits nothing.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
