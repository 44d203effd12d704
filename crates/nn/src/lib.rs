//! Neural-network substrate for the PrivIM reproduction.
//!
//! A compact, dependency-free deep-learning stack sized for PrivIM's
//! workload (per-subgraph training with per-sample gradients):
//!
//! - [`matrix::Matrix`] — dense row-major `f64` matrices.
//! - [`tape::Tape`] — reverse-mode autograd over matrices.
//! - [`graph_ops`] — sparse message-passing ops (SpMM, gather/scatter,
//!   segment softmax) recorded on the same tape.
//! - [`models`] — GCN, GraphSAGE, GAT, GRAT, GIN and an MLP baseline.
//! - [`params`] / [`optim`] — parameter sets, per-sample gradient vectors
//!   with l2 clipping, SGD and Adam.
//! - [`par`] — the worker count and fan-out shared by the parallel
//!   DP-SGD step and the graph-scale kernels.
//!
//! # Example: gradient of a tiny GNN loss
//!
//! ```
//! use privim_nn::prelude::*;
//! use privim_graph::GraphBuilder;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1, 1.0);
//! b.add_edge(1, 2, 1.0);
//! let g = b.build();
//! let gt = GraphTensors::with_structural_features(&g, 4);
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let model = build_model(ModelKind::Grat, 4, 8, 2, &mut rng);
//!
//! let mut tape = Tape::new();
//! let pv = model.params().bind(&mut tape);
//! let out = model.forward(&mut tape, &gt, &pv);
//! let loss = tape.sum(out);
//! let grads = tape.backward(loss);
//! let mut gv = model.params().grads(&pv, grads);
//! gv.clip(1.0);
//! assert!(gv.l2_norm() <= 1.0 + 1e-9);
//! ```

pub mod graph_ops;
pub mod graph_tensors;
pub mod matrix;
pub mod models;
pub mod optim;
pub mod par;
pub mod params;
pub mod serialize;
pub mod tape;
pub mod testutil;

/// Convenient glob import of the crate's main types.
pub mod prelude {
    pub use crate::graph_tensors::{structural_features, GraphTensors};
    pub use crate::matrix::Matrix;
    pub use crate::models::{build_model, GnnModel, ModelKind};
    pub use crate::optim::{Adam, Optimizer, Sgd};
    pub use crate::params::{GradVec, ParamSet};
    pub use crate::serialize::Checkpoint;
    pub use crate::tape::{Gradients, Tape, Var};
}
