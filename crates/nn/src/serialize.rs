//! JSON checkpointing of parameter sets.
//!
//! The two DOT stages are trained separately (paper §5: stage 1's parameters
//! are frozen before stage 2 trains), so being able to snapshot and restore a
//! parameter set is part of the pipeline, not just a convenience.
//!
//! This file is the one place that knows how a parameter set is spelled:
//! `{"entries":{"<name>":{"shape":[…],"data":[…]},…}}`, names in order, through
//! [`odt_obs::json`]. Every finite `f32` reads back bit for bit.

use odt_obs::json::{self, JsonValue, ToJson};
use odt_tensor::{Param, Tensor};
use std::collections::BTreeMap;

/// Why a [`StateDict`] could not be restored into a parameter set.
///
/// Checkpoint loading distinguishes these so callers can tell a corrupted
/// file from an architecture mismatch from numerically-poisoned parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum StateDictError {
    /// A parameter the model expects is absent from the dict.
    MissingParam {
        /// The expected parameter name.
        name: String,
    },
    /// A stored tensor's shape disagrees with the model parameter's.
    ShapeMismatch {
        /// The parameter name.
        name: String,
        /// Shape the model expects.
        expected: Vec<usize>,
        /// Shape found in the dict.
        found: Vec<usize>,
    },
    /// A stored tensor contains NaN or infinite values.
    NonFinite {
        /// The parameter name.
        name: String,
        /// How many elements are non-finite.
        count: usize,
    },
}

impl std::fmt::Display for StateDictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateDictError::MissingParam { name } => {
                write!(f, "state dict missing parameter '{name}'")
            }
            StateDictError::ShapeMismatch { name, expected, found } => write!(
                f,
                "parameter '{name}' shape mismatch: model expects {expected:?}, dict holds {found:?}"
            ),
            StateDictError::NonFinite { name, count } => {
                write!(f, "parameter '{name}' holds {count} non-finite value(s)")
            }
        }
    }
}

impl std::error::Error for StateDictError {}

/// A serializable snapshot of named parameter values.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDict {
    entries: BTreeMap<String, Tensor>,
}

impl StateDict {
    /// Number of parameters captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(name, tensor)` entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The stored tensor for a parameter name, if present.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.get(name)
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = self.write_json(&mut out); // a `String` sink cannot fail
        out
    }

    /// Deserialize from JSON; the error is [`StateDict::from_value`]'s, or
    /// the parser's.
    pub fn from_json(s: &str) -> Result<Self, String> {
        Self::from_value(&JsonValue::parse(s).map_err(|e| e.to_string())?)
    }

    /// Read a parsed document back. Members other than `entries`, `shape`
    /// and `data` are ignored; the error is the dotted path of the member
    /// that is missing or malformed, a `data` that does not fill its
    /// `shape` included.
    pub fn from_value(doc: &JsonValue) -> Result<Self, String> {
        let Some(JsonValue::Obj(members)) = doc.get("entries") else {
            return Err("entries".into());
        };
        let mut entries = BTreeMap::new();
        for (name, tensor) in members {
            let at = |member: &str| format!("entries.{name}.{member}");
            let dims = tensor.get("shape").and_then(JsonValue::as_arr);
            let dim = |d: &JsonValue| usize::try_from(d.as_u64()?).ok();
            let shape: Option<Vec<usize>> = dims.and_then(|dims| dims.iter().map(dim).collect());
            let shape = shape.ok_or_else(|| at("shape"))?;
            let data = tensor.get("data").and_then(f32s_from_json);
            let data = data.ok_or_else(|| at("data"))?;
            if shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d)) != Some(data.len()) {
                let n = data.len();
                return Err(format!("{} ({n} values for shape {shape:?})", at("data")));
            }
            entries.insert(name.clone(), Tensor::from_vec(data, shape));
        }
        Ok(StateDict { entries })
    }
}

impl ToJson for StateDict {
    fn write_json<W: std::fmt::Write>(&self, out: &mut W) -> std::fmt::Result {
        json::object(out, |o| {
            o.object("entries", |o| {
                for (name, tensor) in &self.entries {
                    o.object(name, |o| {
                        o.field("shape", tensor.shape())
                            .field("data", tensor.data());
                    });
                }
            });
        })
    }
}

/// Read back an `f32` array that [`ToJson`] wrote from a `[f32]`, bit for
/// bit. A non-finite value was written as `null`, which is not a number:
/// the array is refused (`None`).
pub fn f32s_from_json(v: &JsonValue) -> Option<Vec<f32>> {
    v.as_arr()?.iter().map(JsonValue::as_f32).collect()
}

/// Capture the current values of `params` keyed by parameter name.
///
/// Panics if two parameters share a name — state dicts require unique names.
pub fn state_dict(params: &[Param]) -> StateDict {
    let mut entries = BTreeMap::new();
    for p in params {
        let prev = entries.insert(p.name(), p.value());
        assert!(prev.is_none(), "duplicate parameter name '{}'", p.name());
    }
    StateDict { entries }
}

/// Restore values into `params` from a snapshot. Every parameter must be
/// present in the dict with a matching shape.
pub fn load_state_dict(params: &[Param], dict: &StateDict) {
    for p in params {
        let value = dict
            .entries
            .get(&p.name())
            .unwrap_or_else(|| panic!("state dict missing parameter '{}'", p.name()));
        p.set_value(value.clone());
    }
}

/// What [`try_load_state_dict`] checks: every parameter is present in the
/// dict with its shape and holds only finite values. Mutates nothing.
pub fn check_state_dict(params: &[Param], dict: &StateDict) -> Result<(), StateDictError> {
    for p in params {
        let name = p.name();
        let value = dict
            .entries
            .get(&name)
            .ok_or_else(|| StateDictError::MissingParam { name: name.clone() })?;
        let expected = p.value().shape().to_vec();
        if value.shape() != &expected[..] {
            return Err(StateDictError::ShapeMismatch {
                name,
                expected,
                found: value.shape().to_vec(),
            });
        }
        let count = value.count_non_finite();
        if count > 0 {
            return Err(StateDictError::NonFinite { name, count });
        }
    }
    Ok(())
}

/// Fallible [`load_state_dict`]: [`check_state_dict`] *before* mutating any
/// parameter, so a failed load leaves the model untouched. This is what
/// checkpoint loading uses to turn file corruption into a typed error
/// instead of a panic or a poisoned model.
pub fn try_load_state_dict(params: &[Param], dict: &StateDict) -> Result<(), StateDictError> {
    check_state_dict(params, dict)?;
    load_state_dict(params, dict);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let a = Param::new(Tensor::from_vec(vec![1.0, 2.0], vec![2]), "a");
        let b = Param::new(Tensor::scalar(5.0), "b");
        let dict = state_dict(&[a.clone(), b.clone()]);
        let json = dict.to_json();
        let restored = StateDict::from_json(&json).unwrap();
        a.set_value(Tensor::zeros(vec![2]));
        b.set_value(Tensor::scalar(0.0));
        load_state_dict(&[a.clone(), b.clone()], &restored);
        assert_eq!(a.value().data(), &[1.0, 2.0]);
        assert_eq!(b.value().data()[0], 5.0);
    }

    /// The checkpoint format: a tensor is its shape and a flat data array,
    /// whatever holds the elements in memory.
    #[test]
    fn json_format_is_pinned() {
        let a = Param::new(Tensor::from_vec(vec![1.0, -2.5], vec![2]), "a");
        let b = Param::new(Tensor::from_vec(vec![0.5; 2], vec![1, 2]), "b");
        let dict = state_dict(&[a, b]);
        assert_eq!(
            dict.to_json(),
            r#"{"entries":{"a":{"shape":[2],"data":[1,-2.5]},"b":{"shape":[1,2],"data":[0.5,0.5]}}}"#
        );
        // What `serde_json` wrote for the same dict (`1.0`, not `1`).
        let serde_era = r#"{"entries":{"a":{"shape":[2],"data":[1.0,-2.5]},"b":{"shape":[1,2],"data":[0.5,0.5]}}}"#;
        assert_eq!(StateDict::from_json(serde_era).unwrap(), dict);
    }

    /// A hand-typed document in `serde_json`'s spelling: shortest `f32`
    /// digits, exponents, a member this reader does not know.
    #[test]
    fn serde_era_document_still_loads() {
        let doc = r#"{"entries":{"w":{"shape":[2,2],"data":[0.1,-1e-5,3.4028235e38,0.0],"dtype":"f32"}},"note":1}"#;
        let w = Tensor::from_vec(vec![0.1, -1e-5, f32::MAX, 0.0], vec![2, 2]);
        assert_eq!(
            StateDict::from_json(doc).unwrap(),
            state_dict(&[Param::new(w, "w")])
        );
    }

    #[test]
    fn every_finite_f32_round_trips_bit_for_bit() {
        let mut values = vec![
            0.0,
            -0.0,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::EPSILON,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            0.1,
            16_777_217.0,
        ];
        let mut rng = odt_obs::SplitMix64::new(24);
        while values.len() < 10_010 {
            let v = f32::from_bits(rng.next_u64() as u32);
            if v.is_finite() {
                values.push(v);
            }
        }
        let n = values.len();
        let dict = state_dict(&[Param::new(Tensor::from_vec(values, vec![n]), "sweep")]);
        let back = StateDict::from_json(&dict.to_json()).unwrap();
        let bits = |d: &StateDict| -> Vec<u32> {
            let t = d.get("sweep").unwrap();
            t.data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&back), bits(&dict));
    }

    #[test]
    fn malformed_tensors_are_refused_and_named() {
        // A non-finite value has no JSON number: it is written `null`, and
        // `null` is not read back as one.
        let nan = Param::new(Tensor::from_vec(vec![1.0, f32::NAN], vec![2]), "p");
        let json = state_dict(&[nan]).to_json();
        assert_eq!(json, r#"{"entries":{"p":{"shape":[2],"data":[1,null]}}}"#);
        assert_eq!(StateDict::from_json(&json).unwrap_err(), "entries.p.data");

        // Data that does not fill the shape, in either direction.
        for data in ["[1,2,3,4,5]", "[1,2,3,4,5,6,7]"] {
            let doc = format!(r#"{{"entries":{{"p":{{"shape":[2,3],"data":{data}}}}}}}"#);
            let err = StateDict::from_json(&doc).unwrap_err();
            assert!(err.starts_with("entries.p.data ("), "{err}");
            assert!(err.contains("shape [2, 3]"), "{err}");
        }
        let huge = r#"{"entries":{"p":{"shape":[9223372036854775808,2],"data":[]}}}"#;
        assert!(StateDict::from_json(huge).is_err());

        for (doc, path) in [
            (
                r#"{"entries":{"p":{"shape":[1.5],"data":[1]}}}"#,
                "entries.p.shape",
            ),
            (r#"{"entries":{"p":{"data":[1]}}}"#, "entries.p.shape"),
            (
                r#"{"entries":{"p":{"shape":[1],"data":"x"}}}"#,
                "entries.p.data",
            ),
            (r#"{"entries":[]}"#, "entries"),
            (r#"{}"#, "entries"),
        ] {
            assert_eq!(StateDict::from_json(doc).unwrap_err(), path, "{doc}");
        }
        assert!(StateDict::from_json("{").unwrap_err().contains("byte"));
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        let a = Param::new(Tensor::scalar(1.0), "x");
        let b = Param::new(Tensor::scalar(2.0), "x");
        let _ = state_dict(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "missing parameter")]
    fn missing_entry_rejected() {
        let a = Param::new(Tensor::scalar(1.0), "a");
        let dict = state_dict(&[a]);
        let c = Param::new(Tensor::scalar(1.0), "c");
        load_state_dict(&[c], &dict);
    }

    #[test]
    fn try_load_reports_missing_shape_and_nonfinite() {
        let a = Param::new(Tensor::from_vec(vec![1.0, 2.0], vec![2]), "a");
        let dict = state_dict(std::slice::from_ref(&a));

        // Missing parameter.
        let c = Param::new(Tensor::scalar(1.0), "c");
        assert!(matches!(
            try_load_state_dict(&[c], &dict),
            Err(StateDictError::MissingParam { name }) if name == "c"
        ));

        // Shape mismatch; the target parameter must stay untouched.
        let wide = Param::new(Tensor::zeros(vec![3]), "a");
        assert!(matches!(
            try_load_state_dict(std::slice::from_ref(&wide), &dict),
            Err(StateDictError::ShapeMismatch { ref name, .. }) if name == "a"
        ));
        assert_eq!(wide.value().data(), &[0.0, 0.0, 0.0]);

        // Non-finite payload.
        let nan = Param::new(Tensor::from_vec(vec![f32::NAN, 1.0], vec![2]), "a");
        let bad = state_dict(&[nan]);
        let tgt = Param::new(Tensor::zeros(vec![2]), "a");
        assert!(matches!(
            try_load_state_dict(std::slice::from_ref(&tgt), &bad),
            Err(StateDictError::NonFinite { count: 1, .. })
        ));
        assert_eq!(tgt.value().data(), &[0.0, 0.0]);

        // Happy path still loads.
        let tgt2 = Param::new(Tensor::zeros(vec![2]), "a");
        try_load_state_dict(std::slice::from_ref(&tgt2), &dict).unwrap();
        assert_eq!(tgt2.value().data(), &[1.0, 2.0]);
    }
}
