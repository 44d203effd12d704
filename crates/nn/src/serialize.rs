//! Model snapshots.
//!
//! A [`Checkpoint`] is the in-memory snapshot of a trained model: its
//! parameters plus the architecture metadata needed to rebuild it.
//! Publishing a DP-trained model is safe post-processing: the privacy
//! guarantee covers the parameters themselves.
//!
//! This module holds no file format. On disk a model always travels
//! inside a CRC-checked `privim_core::checkpoint::TrainCheckpoint` (a
//! PVCK file), next to the privacy ledger that accounts for it; the
//! decoder there calls [`Checkpoint::validate`] before anything is
//! rebuilt.

use crate::matrix::Matrix;
use crate::models::{build_model, min_weights, GnnModel, ModelKind};
use crate::params::ParamSet;

/// A snapshot of a trained model.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Architecture.
    pub kind: ModelKind,
    /// Input feature dimensionality.
    pub in_dim: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Number of message-passing layers.
    pub layers: usize,
    /// Parameter names and values, in registration order.
    pub params: Vec<(String, Matrix)>,
}

/// Errors from validating or restoring a snapshot.
#[derive(Debug)]
pub enum CheckpointError {
    /// The stored parameters do not fit the declared architecture.
    Shape(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Shape(msg) => write!(f, "shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Captures a model's current parameters.
    pub fn capture(model: &dyn GnnModel, in_dim: usize, hidden: usize, layers: usize) -> Self {
        Checkpoint {
            kind: model.kind(),
            in_dim,
            hidden,
            layers,
            params: model
                .params()
                .iter()
                .map(|p| (p.name.clone(), p.value.clone()))
                .collect(),
        }
    }

    /// Rebuilds the model and restores the captured parameters.
    pub fn restore(&self) -> Result<Box<dyn GnnModel>, CheckpointError> {
        self.validate()?;
        // Architecture construction needs an RNG for the initial weights we
        // are about to overwrite; any fixed seed works.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
        let mut model = build_model(self.kind, self.in_dim, self.hidden, self.layers, &mut rng);
        restore_params(model.params_mut(), &self.params)?;
        Ok(model)
    }

    /// Structural validation of untrusted checkpoint contents: the
    /// declared architecture must be buildable (`layers ≥ 1`, nonzero
    /// dims), must not need more weights than the snapshot stores, and
    /// every weight must be finite. The size bound caps what
    /// [`Checkpoint::restore`] allocates by the size of the input, so a
    /// small file cannot declare a huge model.
    pub fn validate(&self) -> Result<(), CheckpointError> {
        if self.layers == 0 || self.in_dim == 0 || self.hidden == 0 {
            return Err(CheckpointError::Shape(format!(
                "unbuildable architecture: in_dim {}, hidden {}, layers {}",
                self.in_dim, self.hidden, self.layers
            )));
        }
        let stored: usize = self.params.iter().map(|(_, v)| v.data().len()).sum();
        let needed = min_weights(self.kind, self.in_dim, self.hidden, self.layers);
        if needed.is_none_or(|needed| needed > stored) {
            return Err(CheckpointError::Shape(format!(
                "{} with in_dim {}, hidden {}, layers {} needs more weights than the {stored} stored",
                self.kind, self.in_dim, self.hidden, self.layers
            )));
        }
        for (name, value) in &self.params {
            if !value.data().iter().all(|v| v.is_finite()) {
                return Err(CheckpointError::Shape(format!(
                    "{name}: payload contains non-finite values"
                )));
            }
        }
        Ok(())
    }

    /// A stable 64-bit FNV-1a digest over the checkpoint's semantic
    /// content: architecture metadata, parameter names, and the exact
    /// bit patterns of every weight. Independent of any file encoding, so
    /// the same trained model always digests identically no matter how
    /// it was persisted. Audit artifacts key on it, and it is the checkpoint half of the
    /// serve tier's (checkpoint digest, graph digest, k) cache key.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.kind.name().as_bytes());
        eat(&(self.in_dim as u64).to_le_bytes());
        eat(&(self.hidden as u64).to_le_bytes());
        eat(&(self.layers as u64).to_le_bytes());
        eat(&(self.params.len() as u64).to_le_bytes());
        for (name, value) in &self.params {
            eat(name.as_bytes());
            let (rows, cols) = value.shape();
            eat(&(rows as u64).to_le_bytes());
            eat(&(cols as u64).to_le_bytes());
            for &v in value.data() {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// [`Checkpoint::digest`] rendered as the fixed-width hex string
    /// used in `/version` bodies and audit rows.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }
}

fn restore_params(
    params: &mut ParamSet,
    stored: &[(String, Matrix)],
) -> Result<(), CheckpointError> {
    if params.len() != stored.len() {
        return Err(CheckpointError::Shape(format!(
            "model has {} parameters, checkpoint has {}",
            params.len(),
            stored.len()
        )));
    }
    for (param, (name, value)) in params.iter_mut().zip(stored) {
        if &param.name != name {
            return Err(CheckpointError::Shape(format!(
                "parameter order mismatch: expected {}, found {name}",
                param.name
            )));
        }
        if param.value.shape() != value.shape() {
            return Err(CheckpointError::Shape(format!(
                "{name}: expected {:?}, found {:?}",
                param.value.shape(),
                value.shape()
            )));
        }
        param.value = value.clone();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_tensors::GraphTensors;
    use privim_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph_tensors() -> GraphTensors {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1, 1.0);
        }
        GraphTensors::with_structural_features(&b.build(), 4)
    }

    #[test]
    fn capture_restore_round_trip_preserves_outputs() {
        let gt = graph_tensors();
        let mut rng = StdRng::seed_from_u64(9);
        for kind in ModelKind::ALL {
            let model = build_model(kind, 4, 8, 2, &mut rng);
            let snapshot = Checkpoint::capture(model.as_ref(), 4, 8, 2);
            let restored = snapshot.restore().unwrap();
            assert_eq!(
                model.seed_probabilities(&gt),
                restored.seed_probabilities(&gt),
                "{kind}"
            );
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut rng = StdRng::seed_from_u64(21);
        let model = build_model(ModelKind::Gcn, 4, 8, 2, &mut rng);
        let snapshot = Checkpoint::capture(model.as_ref(), 4, 8, 2);
        // Deterministic: the same snapshot digests identically, and the
        // hex form is the fixed-width rendering of the same value.
        assert_eq!(snapshot.digest(), snapshot.digest());
        assert_eq!(snapshot.digest_hex(), format!("{:016x}", snapshot.digest()));
        assert_eq!(snapshot.digest_hex().len(), 16);
        // A clone digests the same; any semantic change does not.
        let clone = snapshot.clone();
        assert_eq!(clone.digest(), snapshot.digest());
        let mut flipped = snapshot.clone();
        let w = flipped.params[0].1.data_mut()[0];
        flipped.params[0].1.data_mut()[0] = w + 1.0;
        assert_ne!(flipped.digest(), snapshot.digest());
        let mut renamed = snapshot.clone();
        renamed.params[0].0.push('x');
        assert_ne!(renamed.digest(), snapshot.digest());
        let mut resized = snapshot.clone();
        resized.hidden += 1;
        assert_ne!(resized.digest(), snapshot.digest());
        // Sign-of-zero is a distinct bit pattern and must be visible.
        let mut zeroed = snapshot.clone();
        zeroed.params[0].1.data_mut()[0] = 0.0;
        let mut neg_zeroed = snapshot.clone();
        neg_zeroed.params[0].1.data_mut()[0] = -0.0;
        assert_ne!(zeroed.digest(), neg_zeroed.digest());
    }

    #[test]
    fn restore_rejects_mismatched_architecture() {
        let mut rng = StdRng::seed_from_u64(11);
        let model = build_model(ModelKind::Gcn, 4, 8, 2, &mut rng);
        let mut snapshot = Checkpoint::capture(model.as_ref(), 4, 8, 2);
        snapshot.hidden = 16; // wrong width
        assert!(matches!(snapshot.restore(), Err(CheckpointError::Shape(_))));
        let mut snapshot = Checkpoint::capture(model.as_ref(), 4, 8, 2);
        snapshot.params.pop();
        assert!(matches!(snapshot.restore(), Err(CheckpointError::Shape(_))));
    }

    #[test]
    fn validate_rejects_inconsistent_payload() {
        let mut rng = StdRng::seed_from_u64(13);
        let model = build_model(ModelKind::Gcn, 4, 8, 2, &mut rng);
        let mut snapshot = Checkpoint::capture(model.as_ref(), 4, 8, 2);
        snapshot.layers = 0;
        assert!(matches!(
            snapshot.validate(),
            Err(CheckpointError::Shape(_))
        ));
        let mut snapshot = Checkpoint::capture(model.as_ref(), 4, 8, 2);
        snapshot.params[0].1.data_mut()[0] = f64::NAN;
        assert!(matches!(
            snapshot.validate(),
            Err(CheckpointError::Shape(_))
        ));
    }

    #[test]
    fn validate_bounds_declared_dims_by_stored_weights() {
        // A snapshot may not declare a model bigger than the weights it
        // stores: `restore` would otherwise allocate O(layers·hidden²)
        // for a few bytes of input.
        let mut rng = StdRng::seed_from_u64(14);
        let model = build_model(ModelKind::Gcn, 4, 8, 2, &mut rng);
        let mut snapshot = Checkpoint::capture(model.as_ref(), 4, 8, 2);
        snapshot.hidden = 1 << 40;
        assert!(matches!(
            snapshot.validate(),
            Err(CheckpointError::Shape(_))
        ));
        // The bound is a lower bound for every kind: real snapshots of
        // any shape pass, one layer more or a dim so large that the
        // count overflows does not.
        for kind in ModelKind::ALL {
            for (in_dim, hidden, layers) in [(4, 8, 1), (4, 8, 2), (3, 5, 4), (9, 2, 3)] {
                let model = build_model(kind, in_dim, hidden, layers, &mut rng);
                let snapshot = Checkpoint::capture(model.as_ref(), in_dim, hidden, layers);
                snapshot.validate().unwrap();
                let mut deeper = snapshot.clone();
                deeper.layers = 1 << 40;
                assert!(
                    deeper.validate().is_err(),
                    "{kind} {in_dim}/{hidden}/{layers}"
                );
                let mut wider = snapshot.clone();
                wider.in_dim = usize::MAX;
                assert!(
                    wider.validate().is_err(),
                    "{kind} {in_dim}/{hidden}/{layers}"
                );
            }
        }
    }
}
