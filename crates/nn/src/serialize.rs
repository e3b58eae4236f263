//! JSON checkpointing of parameter sets.
//!
//! The two DOT stages are trained separately (paper §5: stage 1's parameters
//! are frozen before stage 2 trains), so being able to snapshot and restore a
//! parameter set is part of the pipeline, not just a convenience.

use odt_tensor::{Param, Tensor};
use serde::{Deserialize, Serialize};
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
#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
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

    /// Verify every stored tensor is finite; the error names the first
    /// offending parameter.
    pub fn validate_finite(&self) -> Result<(), StateDictError> {
        for (name, t) in &self.entries {
            let count = t.count_non_finite();
            if count > 0 {
                return Err(StateDictError::NonFinite {
                    name: name.clone(),
                    count,
                });
            }
        }
        Ok(())
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("state dict serialization cannot fail")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
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

/// Fallible [`load_state_dict`]: validates presence, shape and finiteness of
/// every entry *before* mutating any parameter, so a failed load leaves the
/// model untouched. This is what checkpoint loading uses to turn file
/// corruption into a typed error instead of a panic or a poisoned model.
pub fn try_load_state_dict(params: &[Param], dict: &StateDict) -> Result<(), StateDictError> {
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
    for p in params {
        let value = dict.entries.get(&p.name()).expect("validated above");
        p.set_value(value.clone());
    }
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
        assert_eq!(
            state_dict(&[a, b]).to_json(),
            r#"{"entries":{"a":{"shape":[2],"data":[1.0,-2.5]},"b":{"shape":[1,2],"data":[0.5,0.5]}}}"#
        );
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
        assert!(bad.validate_finite().is_err());
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
