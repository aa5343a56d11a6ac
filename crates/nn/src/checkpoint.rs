//! Parameter checkpointing: save/load a network's named parameters as JSON.
//!
//! Models are rebuilt from their configs (all configs are `serde`-able);
//! the checkpoint stores only `name → tensor` pairs. Loading matches by
//! name and validates shapes, so a checkpoint survives refactors that do
//! not rename or reshape parameters. JSON is chosen over a binary format
//! deliberately: checkpoints here are small (experiment scale) and
//! human-inspectable dumps have repeatedly paid for themselves during
//! debugging.
//!
//! A checkpoint holds each tensor by `Arc`, the storage a [`Param`] shares:
//! [`Checkpoint::capture`] and [`Checkpoint::apply`] move refcounts, not
//! weights, and the checkpoint and every net it was captured from or applied
//! to read one buffer until one of them writes it (copy-on-write).
//!
//! [`Param`]: crate::layer::Param

use crate::layer::Layer;
use ms_tensor::Tensor;
use serde::{Deserialize, Serialize, Value};
use std::path::Path;
use std::sync::Arc;

/// A serialisable snapshot of every trainable parameter.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// `(name, tensor)` in visit order, shared with the nets that hold them.
    pub params: Vec<(String, Arc<Tensor>)>,
}

/// The file format: a derive over plain `(String, Tensor)` pairs fixes the
/// JSON layout, which [`Checkpoint`]'s `Serialize` writes from borrows.
#[derive(Serialize, Deserialize)]
struct CheckpointFile {
    version: u32,
    params: Vec<(String, Tensor)>,
}

impl Serialize for Checkpoint {
    fn to_value(&self) -> Value {
        let params: Vec<(&str, &Tensor)> = self
            .params
            .iter()
            .map(|(n, t)| (n.as_str(), &**t))
            .collect();
        Value::Map(vec![
            ("version".to_string(), self.version.to_value()),
            ("params".to_string(), params.to_value()),
        ])
    }
}

impl Deserialize for Checkpoint {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let file = CheckpointFile::from_value(v)?;
        Ok(Checkpoint {
            version: file.version,
            params: file
                .params
                .into_iter()
                .map(|(n, t)| (n, Arc::new(t)))
                .collect(),
        })
    }
}

/// Errors from checkpoint I/O and application.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// JSON (de)serialisation failure.
    Format(serde_json::Error),
    /// The checkpoint does not match the model.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
            CheckpointError::Format(e) => write!(f, "checkpoint format: {e}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Format(e)
    }
}

impl Checkpoint {
    /// Captures the current parameters of `net` (refcount bumps: the
    /// checkpoint shares each tensor with `net` until either side writes).
    pub fn capture(net: &mut dyn Layer) -> Self {
        let mut params = Vec::new();
        net.visit_params(&mut |p| params.push((p.name.clone(), Arc::clone(&p.value))));
        Checkpoint { version: 1, params }
    }

    /// Applies the checkpoint to `net`, matching parameters by name; each
    /// parameter then shares the checkpoint's tensor.
    ///
    /// Fails if any model parameter is missing from the checkpoint or has a
    /// different shape, and then leaves `net` as it was: every name and
    /// shape is checked before the first parameter is assigned. Checkpoint
    /// entries the model does not have are ignored (they may belong to
    /// frozen heads etc.).
    pub fn apply(&self, net: &mut dyn Layer) -> Result<(), CheckpointError> {
        let mut matched: Vec<&Arc<Tensor>> = Vec::new();
        let mut error: Option<String> = None;
        net.visit_params(&mut |p| {
            if error.is_some() {
                return;
            }
            match self.params.iter().find(|(n, _)| *n == p.name) {
                None => error = Some(format!("missing parameter '{}'", p.name)),
                Some((_, value)) if value.shape() != p.value.shape() => {
                    error = Some(format!(
                        "parameter '{}': checkpoint shape {} vs model {}",
                        p.name,
                        value.shape(),
                        p.value.shape()
                    ))
                }
                Some((_, value)) => matched.push(value),
            }
        });
        if let Some(e) = error {
            return Err(CheckpointError::Mismatch(e));
        }
        let mut matched = matched.into_iter();
        net.visit_params(&mut |p| p.value = Arc::clone(matched.next().expect("same walk")));
        Ok(())
    }

    /// Saves to a JSON file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let json = serde_json::to_string(self)?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Loads from a JSON file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let json = std::fs::read_to_string(path)?;
        Ok(serde_json::from_str(&json)?)
    }

    /// Total scalars stored.
    pub fn scalar_count(&self) -> usize {
        self.params.iter().map(|(_, t)| t.numel()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use crate::linear::{Linear, LinearConfig};
    use crate::sequential::Sequential;
    use ms_tensor::SeededRng;

    fn net(seed: u64) -> Sequential {
        let mut rng = SeededRng::new(seed);
        Sequential::new("net")
            .push(Linear::new("fc1", LinearConfig::dense(4, 8), &mut rng))
            .push(Linear::new("fc2", LinearConfig::dense(8, 2), &mut rng))
    }

    #[test]
    fn capture_apply_roundtrip_transfers_weights() {
        let mut a = net(1);
        let mut b = net(2);
        let x = Tensor::full([1, 4], 0.5);
        let ya = a.forward(&x, Mode::Infer);
        let yb = b.forward(&x, Mode::Infer);
        assert_ne!(ya, yb);
        let ckpt = Checkpoint::capture(&mut a);
        ckpt.apply(&mut b).unwrap();
        let yb2 = b.forward(&x, Mode::Infer);
        assert_eq!(ya, yb2);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ms-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.json");
        let mut a = net(3);
        let ckpt = Checkpoint::capture(&mut a);
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.version, 1);
        assert_eq!(loaded.scalar_count(), ckpt.scalar_count());
        let mut b = net(4);
        loaded.apply(&mut b).unwrap();
        let x = Tensor::full([1, 4], -0.25);
        assert_eq!(a.forward(&x, Mode::Infer), b.forward(&x, Mode::Infer));
        let _ = std::fs::remove_file(&path);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn json_is_the_plain_name_tensor_layout() {
        let mut a = net(9);
        let ckpt = Checkpoint::capture(&mut a);
        let plain = CheckpointFile {
            version: ckpt.version,
            params: ckpt
                .params
                .iter()
                .map(|(n, t)| (n.clone(), (**t).clone()))
                .collect(),
        };
        let json = serde_json::to_string(&ckpt).unwrap();
        assert_eq!(json, serde_json::to_string(&plain).unwrap());
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.params, ckpt.params);
    }

    #[test]
    fn apply_rejects_shape_mismatch() {
        let mut a = net(5);
        let ckpt = Checkpoint::capture(&mut a);
        let mut rng = SeededRng::new(6);
        // fc1 fits; fc2 has a different width.
        let mut wrong = Sequential::new("net")
            .push(Linear::new("fc1", LinearConfig::dense(4, 8), &mut rng))
            .push(Linear::new("fc2", LinearConfig::dense(8, 3), &mut rng));
        let x = Tensor::full([2, 4], 0.5);
        let before = bits(&wrong.forward(&x, Mode::Infer));
        let err = ckpt.apply(&mut wrong).unwrap_err();
        assert!(err.to_string().contains("fc2"), "{err}");
        assert_eq!(bits(&wrong.forward(&x, Mode::Infer)), before, "half-loaded");
    }

    #[test]
    fn apply_rejects_missing_parameter() {
        let mut a = net(7);
        let mut ckpt = Checkpoint::capture(&mut a);
        ckpt.params.retain(|(n, _)| n != "fc2.bias");
        let mut b = net(8);
        let x = Tensor::full([2, 4], 0.5);
        let before = bits(&b.forward(&x, Mode::Infer));
        let err = ckpt.apply(&mut b).unwrap_err();
        assert!(err.to_string().contains("fc2.bias"), "{err}");
        assert_eq!(bits(&b.forward(&x, Mode::Infer)), before, "half-loaded");
    }
}
