//! The five GNN architectures evaluated in the paper (Appendix G) plus an
//! MLP baseline.
//!
//! All models share the same contract: `forward` consumes a
//! [`GraphTensors`] bundle and returns an `N × 1` vector of per-node seed
//! probabilities in `(0, 1)` (sigmoid output of the last layer). Hidden
//! layers use ReLU. Each model is built as `in_dim → hidden × (layers − 1)
//! → 1`, matching the paper's three-layer, 32-hidden-unit configuration.
//!
//! - **GCN** — symmetric-normalized sum aggregation with self loops.
//! - **GraphSAGE** — mean aggregation concatenated with the node's own
//!   embedding.
//! - **GAT** — attention over in-edges, softmax-normalized per
//!   *destination* node.
//! - **GRAT** — the FastCover variant the paper defaults to: identical to
//!   GAT except the softmax is normalized per *source* node, so a node
//!   whose coverage overlaps others receives a reduced reward.
//! - **GIN** — sum aggregation with a learnable self-weight `(1 + ω)`
//!   followed by a two-layer MLP.
//! - **MLP** — ignores edges entirely (sanity baseline).

use std::sync::Arc;

use crate::graph_tensors::GraphTensors;
use crate::params::ParamSet;
use crate::tape::{Tape, Var};
use rand::Rng;

/// Negative slope for attention LeakyReLU (the GAT paper's 0.2).
const ATTENTION_SLOPE: f64 = 0.2;

/// Identifies one of the supported architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Graph Convolutional Network (Kipf & Welling).
    Gcn,
    /// GraphSAGE with mean aggregation (Hamilton et al.).
    GraphSage,
    /// Graph Attention Network (Veličković et al.).
    Gat,
    /// GRAT: GAT with source-normalized attention (Ni et al., FastCover).
    Grat,
    /// Graph Isomorphism Network (Xu et al.).
    Gin,
    /// Edge-blind multi-layer perceptron.
    Mlp,
}

impl ModelKind {
    /// All kinds, in the order Figure 9 of the paper reports them.
    pub const ALL: [ModelKind; 6] = [
        ModelKind::GraphSage,
        ModelKind::Gcn,
        ModelKind::Gat,
        ModelKind::Gin,
        ModelKind::Grat,
        ModelKind::Mlp,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::GraphSage => "GraphSAGE",
            ModelKind::Gat => "GAT",
            ModelKind::Grat => "GRAT",
            ModelKind::Gin => "GIN",
            ModelKind::Mlp => "MLP",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A trainable GNN producing per-node seed probabilities.
///
/// `Sync`, so one model can be shared by the threads of a parallel
/// DP-SGD step: `forward` only reads the parameters.
pub trait GnnModel: Sync {
    /// Architecture name for logs and result tables.
    fn kind(&self) -> ModelKind;

    /// The model's parameters.
    fn params(&self) -> &ParamSet;

    /// Mutable access for optimizers.
    fn params_mut(&mut self) -> &mut ParamSet;

    /// Records the forward pass on `tape` using the bound parameter vars
    /// `pv` (from [`ParamSet::bind`]); returns the `N × 1` probability
    /// vector variable.
    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, pv: &[Var]) -> Var;

    /// Convenience inference: runs `forward` on a throwaway
    /// [`Tape::no_grad`] tape, which keeps no backward state, and
    /// extracts the probabilities.
    fn seed_probabilities(&self, gt: &GraphTensors) -> Vec<f64> {
        let mut tape = Tape::no_grad();
        let pv = self.params().bind(&mut tape);
        let out = self.forward(&mut tape, gt, &pv);
        tape.value(out).data().to_vec()
    }
}

/// Constructs a model of the given kind.
///
/// `layers` counts message-passing layers (≥ 1); `hidden` is the width of
/// the intermediate layers. The paper uses `layers = 3`, `hidden = 32`.
pub fn build_model<R: Rng + ?Sized>(
    kind: ModelKind,
    in_dim: usize,
    hidden: usize,
    layers: usize,
    rng: &mut R,
) -> Box<dyn GnnModel> {
    assert!(layers >= 1, "need at least one layer");
    assert!(in_dim >= 1 && hidden >= 1, "dims must be positive");
    let dims = layer_dims(in_dim, hidden, layers);
    match kind {
        ModelKind::Gcn => Box::new(Gcn::new(&dims, rng)),
        ModelKind::GraphSage => Box::new(GraphSage::new(&dims, rng)),
        ModelKind::Gat => Box::new(Attention::new(&dims, rng, false)),
        ModelKind::Grat => Box::new(Attention::new(&dims, rng, true)),
        ModelKind::Gin => Box::new(Gin::new(&dims, rng)),
        ModelKind::Mlp => Box::new(Mlp::new(&dims, rng)),
    }
}

fn layer_dims(in_dim: usize, hidden: usize, layers: usize) -> Vec<usize> {
    let mut dims = Vec::with_capacity(layers + 1);
    dims.push(in_dim);
    for _ in 0..layers - 1 {
        dims.push(hidden);
    }
    dims.push(1);
    dims
}

/// A lower bound on the number of weights `build_model(kind, in_dim,
/// hidden, layers ≥ 1)` allocates: every layer of the [`layer_dims`]
/// chain holds at least its weight matrix (GraphSAGE's input is doubled,
/// GIN's inner MLP is `d_in → max(d_in, d_out) → d_out`). Closed form,
/// so absurd declared dims cost nothing to check; `None` on overflow.
pub(crate) fn min_weights(
    kind: ModelKind,
    in_dim: usize,
    hidden: usize,
    layers: usize,
) -> Option<usize> {
    let layer = |d_in: usize, d_out: usize| match kind {
        ModelKind::GraphSage => d_in.checked_mul(d_out)?.checked_mul(2),
        ModelKind::Gin => (d_in.checked_add(d_out)?).checked_mul(d_in.max(d_out)),
        _ => d_in.checked_mul(d_out),
    };
    if layers == 1 {
        return layer(in_dim, 1);
    }
    layer(hidden, hidden)?
        .checked_mul(layers - 2)?
        .checked_add(layer(in_dim, hidden)?)?
        .checked_add(layer(hidden, 1)?)
}

/// Indices of one linear layer's weight and bias in a [`ParamSet`].
#[derive(Debug, Clone, Copy)]
struct Linear {
    w: usize,
    b: usize,
}

impl Linear {
    fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        prefix: &str,
        d_in: usize,
        d_out: usize,
        rng: &mut R,
    ) -> Self {
        Self::with_bias(params, prefix, d_in, d_out, 0.0, rng)
    }

    fn with_bias<R: Rng + ?Sized>(
        params: &mut ParamSet,
        prefix: &str,
        d_in: usize,
        d_out: usize,
        bias_init: f64,
        rng: &mut R,
    ) -> Self {
        let w = params.add_xavier(format!("{prefix}.weight"), d_in, d_out, rng);
        let b = params.add(
            format!("{prefix}.bias"),
            crate::matrix::Matrix::filled(1, d_out, bias_init),
        );
        Linear { w, b }
    }

    fn apply(&self, tape: &mut Tape, pv: &[Var], x: Var) -> Var {
        let z = tape.matmul(x, pv[self.w]);
        tape.add_row_broadcast(z, pv[self.b])
    }
}

/// Negative slope for hidden activations. A plain ReLU can die wholesale on
/// vertex-transitive subgraphs (every node carries identical structural
/// features, so one unlucky sign pattern silences the entire layer); the
/// leaky variant keeps gradients flowing.
const HIDDEN_SLOPE: f64 = 0.01;

/// Initial bias of the output layer. A negative value starts seed
/// probabilities around σ(−3) ≈ 0.05 instead of 0.5: on dense graphs even
/// moderate initial probabilities make every node's survival product
/// vanish (everything is "already covered"), which erases the ranking
/// gradient and lets training settle on arbitrary — sometimes inverted —
/// scores. Starting near zero keeps the coverage term informative from the
/// first step.
const OUTPUT_BIAS_INIT: f64 = -3.0;

fn is_last(l: usize, n_layers: usize) -> f64 {
    if l + 1 == n_layers {
        OUTPUT_BIAS_INIT
    } else {
        0.0
    }
}

/// Output logits are softly bounded to ±`LOGIT_BOUND` via
/// `z ← B·tanh(z/B)` before the sigmoid. DP-SGD noise can otherwise kick
/// the output layer into deep sigmoid saturation where gradients vanish
/// and the model never recovers (a stuck run scores near-random seeds);
/// the tanh squash keeps a recovery gradient at any logit magnitude while
/// leaving the usable probability range (σ(±6) ≈ 0.25%–99.75%) intact.
const LOGIT_BOUND: f64 = 6.0;

fn activate(tape: &mut Tape, z: Var, last: bool) -> Var {
    if last {
        let scaled = tape.scale(z, 1.0 / LOGIT_BOUND);
        let squashed = tape.tanh(scaled);
        let bounded = tape.scale(squashed, LOGIT_BOUND);
        tape.sigmoid(bounded)
    } else {
        tape.leaky_relu(z, HIDDEN_SLOPE)
    }
}

// ---------------------------------------------------------------------
// GCN
// ---------------------------------------------------------------------

/// Graph Convolutional Network (Eqs. 31–32 of the paper's appendix).
pub struct Gcn {
    params: ParamSet,
    linears: Vec<Linear>,
}

impl Gcn {
    /// Builds a GCN with the given `dims` chain (input → … → 1).
    pub fn new<R: Rng + ?Sized>(dims: &[usize], rng: &mut R) -> Self {
        let mut params = ParamSet::new();
        let n_layers = dims.len() - 1;
        let linears = (0..n_layers)
            .map(|l| {
                Linear::with_bias(
                    &mut params,
                    &format!("gcn{l}"),
                    dims[l],
                    dims[l + 1],
                    is_last(l, n_layers),
                    rng,
                )
            })
            .collect();
        Gcn { params, linears }
    }
}

impl GnnModel for Gcn {
    fn kind(&self) -> ModelKind {
        ModelKind::Gcn
    }

    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, pv: &[Var]) -> Var {
        let mut h = tape.leaf(gt.features.clone());
        let n_layers = self.linears.len();
        for (l, lin) in self.linears.iter().enumerate() {
            let agg = tape.spmm_fixed(
                h,
                Arc::clone(&gt.src),
                Arc::clone(&gt.dst),
                Arc::clone(&gt.gcn_coeff),
                gt.num_nodes,
            );
            let self_term = tape.row_scale_fixed(h, Arc::clone(&gt.gcn_self));
            let combined = tape.add(agg, self_term);
            let z = lin.apply(tape, pv, combined);
            h = activate(tape, z, l + 1 == n_layers);
        }
        h
    }
}

// ---------------------------------------------------------------------
// GraphSAGE
// ---------------------------------------------------------------------

/// GraphSAGE with mean aggregation (Eqs. 29–30).
pub struct GraphSage {
    params: ParamSet,
    linears: Vec<Linear>,
}

impl GraphSage {
    /// Builds a GraphSAGE model with the given `dims` chain.
    pub fn new<R: Rng + ?Sized>(dims: &[usize], rng: &mut R) -> Self {
        let mut params = ParamSet::new();
        let n_layers = dims.len() - 1;
        let linears = (0..n_layers)
            .map(|l| {
                // The layer consumes [h ‖ mean(h_neighbors)], doubling d_in.
                Linear::with_bias(
                    &mut params,
                    &format!("sage{l}"),
                    2 * dims[l],
                    dims[l + 1],
                    is_last(l, n_layers),
                    rng,
                )
            })
            .collect();
        GraphSage { params, linears }
    }
}

impl GnnModel for GraphSage {
    fn kind(&self) -> ModelKind {
        ModelKind::GraphSage
    }

    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, pv: &[Var]) -> Var {
        let mut h = tape.leaf(gt.features.clone());
        let n_layers = self.linears.len();
        for (l, lin) in self.linears.iter().enumerate() {
            let mean = tape.spmm_fixed(
                h,
                Arc::clone(&gt.src),
                Arc::clone(&gt.dst),
                Arc::clone(&gt.mean_coeff),
                gt.num_nodes,
            );
            let cat = tape.concat_cols(h, mean);
            let z = lin.apply(tape, pv, cat);
            h = activate(tape, z, l + 1 == n_layers);
        }
        h
    }
}

// ---------------------------------------------------------------------
// GAT / GRAT
// ---------------------------------------------------------------------

/// Single-head graph attention; `source_normalized` selects GRAT.
///
/// GAT normalizes attention per destination over its in-edges (Eq. 35);
/// GRAT normalizes per source over its out-edges (Eq. 39), which penalizes
/// a source whose coverage overlaps others — the property the paper credits
/// for GRAT's edge in IM tasks.
pub struct Attention {
    params: ParamSet,
    /// `heads[l][h]` — one transform per layer per head.
    linears: Vec<Vec<Linear>>,
    /// `att[l][h]` — attention vector parameter per layer per head.
    att: Vec<Vec<usize>>,
    source_normalized: bool,
}

impl Attention {
    /// Builds a single-head GAT (`source_normalized = false`) or GRAT
    /// (`true`).
    pub fn new<R: Rng + ?Sized>(dims: &[usize], rng: &mut R, source_normalized: bool) -> Self {
        Self::with_heads(dims, rng, source_normalized, 1)
    }

    /// Multi-head variant: each layer runs `heads` independent attention
    /// heads over the same `d_out` width and *averages* them (the original
    /// GAT averages on the output layer; averaging everywhere keeps layer
    /// widths independent of the head count).
    pub fn with_heads<R: Rng + ?Sized>(
        dims: &[usize],
        rng: &mut R,
        source_normalized: bool,
        heads: usize,
    ) -> Self {
        assert!(heads >= 1, "need at least one attention head");
        let mut params = ParamSet::new();
        let mut linears = Vec::new();
        let mut att = Vec::new();
        let prefix = if source_normalized { "grat" } else { "gat" };
        let n_layers = dims.len() - 1;
        for l in 0..n_layers {
            let mut layer_linears = Vec::with_capacity(heads);
            let mut layer_att = Vec::with_capacity(heads);
            for h in 0..heads {
                layer_linears.push(Linear::with_bias(
                    &mut params,
                    &format!("{prefix}{l}.h{h}"),
                    dims[l],
                    dims[l + 1],
                    is_last(l, n_layers),
                    rng,
                ));
                layer_att.push(params.add_xavier(
                    format!("{prefix}{l}.h{h}.att"),
                    2 * dims[l + 1],
                    1,
                    rng,
                ));
            }
            linears.push(layer_linears);
            att.push(layer_att);
        }
        Attention {
            params,
            linears,
            att,
            source_normalized,
        }
    }

    /// One attention head's aggregation for the current layer.
    fn head_forward(
        &self,
        tape: &mut Tape,
        gt: &GraphTensors,
        pv: &[Var],
        h: Var,
        lin: &Linear,
        att_param: usize,
    ) -> Var {
        let wh = {
            let z = tape.matmul(h, pv[lin.w]);
            tape.add_row_broadcast(z, pv[lin.b])
        };
        // The residual self connection (`agg + wh`) keeps isolated nodes
        // informative and plays the role of GAT's customary self-loop.
        if gt.num_edges() > 0 {
            let group = if self.source_normalized {
                &gt.src
            } else {
                &gt.dst
            };
            tape.attention_aggregate(
                wh,
                pv[att_param],
                Arc::clone(&gt.src),
                Arc::clone(&gt.dst),
                Arc::clone(group),
                gt.num_nodes,
                ATTENTION_SLOPE,
            )
        } else {
            let agg = tape.scale(wh, 0.0);
            tape.add(agg, wh)
        }
    }
}

impl GnnModel for Attention {
    fn kind(&self) -> ModelKind {
        if self.source_normalized {
            ModelKind::Grat
        } else {
            ModelKind::Gat
        }
    }

    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, pv: &[Var]) -> Var {
        let mut h = tape.leaf(gt.features.clone());
        let n_layers = self.linears.len();
        for l in 0..n_layers {
            let head_outputs: Vec<Var> = self.linears[l]
                .iter()
                .zip(&self.att[l])
                .map(|(lin, &att)| self.head_forward(tape, gt, pv, h, lin, att))
                .collect();
            let mut z = head_outputs[0];
            for &extra in &head_outputs[1..] {
                z = tape.add(z, extra);
            }
            if head_outputs.len() > 1 {
                z = tape.scale(z, 1.0 / head_outputs.len() as f64);
            }
            h = activate(tape, z, l + 1 == n_layers);
        }
        h
    }
}

// ---------------------------------------------------------------------
// GIN
// ---------------------------------------------------------------------

/// Graph Isomorphism Network (Eqs. 41–42): sum aggregation plus a
/// learnable `(1 + ω)` self weight, combined through a two-layer MLP.
pub struct Gin {
    params: ParamSet,
    mlp1: Vec<Linear>,
    mlp2: Vec<Linear>,
    omega: Vec<usize>,
}

impl Gin {
    /// Builds a GIN with the given `dims` chain.
    pub fn new<R: Rng + ?Sized>(dims: &[usize], rng: &mut R) -> Self {
        let mut params = ParamSet::new();
        let mut mlp1 = Vec::new();
        let mut mlp2 = Vec::new();
        let mut omega = Vec::new();
        let n_layers = dims.len() - 1;
        for l in 0..n_layers {
            let mid = dims[l].max(dims[l + 1]);
            mlp1.push(Linear::new(
                &mut params,
                &format!("gin{l}.mlp1"),
                dims[l],
                mid,
                rng,
            ));
            mlp2.push(Linear::with_bias(
                &mut params,
                &format!("gin{l}.mlp2"),
                mid,
                dims[l + 1],
                is_last(l, n_layers),
                rng,
            ));
            omega.push(params.add(format!("gin{l}.omega"), crate::matrix::Matrix::scalar(0.0)));
        }
        Gin {
            params,
            mlp1,
            mlp2,
            omega,
        }
    }
}

impl GnnModel for Gin {
    fn kind(&self) -> ModelKind {
        ModelKind::Gin
    }

    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, pv: &[Var]) -> Var {
        let mut h = tape.leaf(gt.features.clone());
        let n_layers = self.mlp1.len();
        for l in 0..n_layers {
            let agg = tape.spmm_fixed(
                h,
                Arc::clone(&gt.src),
                Arc::clone(&gt.dst),
                Arc::clone(&gt.ones_coeff),
                gt.num_nodes,
            );
            let one_plus = tape.add_scalar(pv[self.omega[l]], 1.0);
            let self_term = tape.scale_by_var(h, one_plus);
            let s = tape.add(agg, self_term);
            let z1 = self.mlp1[l].apply(tape, pv, s);
            let z1 = tape.leaky_relu(z1, HIDDEN_SLOPE);
            let z2 = self.mlp2[l].apply(tape, pv, z1);
            h = activate(tape, z2, l + 1 == n_layers);
        }
        h
    }
}

// ---------------------------------------------------------------------
// MLP
// ---------------------------------------------------------------------

/// Edge-blind per-node MLP; lower-bound baseline showing how much of the
/// signal comes from structure.
pub struct Mlp {
    params: ParamSet,
    linears: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given `dims` chain.
    pub fn new<R: Rng + ?Sized>(dims: &[usize], rng: &mut R) -> Self {
        let mut params = ParamSet::new();
        let n_layers = dims.len() - 1;
        let linears = (0..n_layers)
            .map(|l| {
                Linear::with_bias(
                    &mut params,
                    &format!("mlp{l}"),
                    dims[l],
                    dims[l + 1],
                    is_last(l, n_layers),
                    rng,
                )
            })
            .collect();
        Mlp { params, linears }
    }
}

impl GnnModel for Mlp {
    fn kind(&self) -> ModelKind {
        ModelKind::Mlp
    }

    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    fn forward(&self, tape: &mut Tape, gt: &GraphTensors, pv: &[Var]) -> Var {
        let mut h = tape.leaf(gt.features.clone());
        let n_layers = self.linears.len();
        for (l, lin) in self.linears.iter().enumerate() {
            let z = lin.apply(tape, pv, h);
            h = activate(tape, z, l + 1 == n_layers);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize) -> privim_graph::Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i as u32, ((i + 1) % n) as u32, 1.0);
        }
        b.build()
    }

    fn check_model(kind: ModelKind) {
        let g = ring(6);
        let gt = GraphTensors::with_structural_features(&g, 4);
        let mut rng = StdRng::seed_from_u64(11);
        let model = build_model(kind, 4, 8, 3, &mut rng);
        assert_eq!(model.kind(), kind);

        let probs = model.seed_probabilities(&gt);
        assert_eq!(probs.len(), 6);
        assert!(
            probs.iter().all(|&p| (0.0..=1.0).contains(&p)),
            "{kind}: probs out of range"
        );

        // Gradients must flow into every weight parameter for a generic loss.
        let mut tape = Tape::new();
        let pv = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &gt, &pv);
        let loss = tape.sum(out);
        let grads = tape.backward(loss);
        let gv = model.params().grads(&pv, grads);
        assert!(gv.is_finite());
        let n_weight_grads = gv
            .blocks()
            .iter()
            .zip(model.params().iter())
            .filter(|(b, p)| p.name.contains("weight") && b.frobenius_norm() > 0.0)
            .count();
        assert!(n_weight_grads > 0, "{kind}: no weight gradient flowed");
    }

    #[test]
    fn all_models_forward_and_backward() {
        for kind in ModelKind::ALL {
            check_model(kind);
        }
    }

    #[test]
    fn no_grad_inference_is_bit_equal_to_a_recording_tape() {
        // A random graph with mixed in- and out-degrees, so every
        // aggregation (GCN, mean, sum, both attention normalizations)
        // has uneven rows.
        let mut rng = StdRng::seed_from_u64(23);
        let mut b = GraphBuilder::new(12);
        for v in 0..12u32 {
            for u in 0..12u32 {
                if v != u && rng.gen_range(0.0..1.0) < 0.3 {
                    b.add_edge(v, u, rng.gen_range(0.05..1.0));
                }
            }
        }
        let gt = GraphTensors::with_structural_features(&b.build(), 4);
        for kind in ModelKind::ALL {
            let model = build_model(kind, 4, 8, 3, &mut rng);
            let mut tape = Tape::new();
            let pv = model.params().bind(&mut tape);
            let out = model.forward(&mut tape, &gt, &pv);
            let recorded: Vec<u64> = tape.value(out).data().iter().map(|p| p.to_bits()).collect();
            let inferred: Vec<u64> = model
                .seed_probabilities(&gt)
                .iter()
                .map(|p| p.to_bits())
                .collect();
            assert_eq!(inferred, recorded, "{kind}");
        }
    }

    #[test]
    fn graph_scale_inference_is_bit_identical_at_any_thread_count() {
        // Big enough that the hidden layers' matmuls, aggregations and
        // attention heads cross the work floor; the 8-wide input layer's
        // aggregations stay under it.
        let mut rng = StdRng::seed_from_u64(31);
        let n = 600;
        let mut b = GraphBuilder::new(n);
        for _ in 0..8 * n {
            let (v, u) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if v != u {
                b.add_edge(v, u, rng.gen_range(0.05..1.0));
            }
        }
        let gt = GraphTensors::with_structural_features(&b.build(), 8);
        assert!(gt.num_edges() * 32 >= crate::par::WORK_FLOOR);
        assert!(gt.num_edges() * 8 < crate::par::WORK_FLOOR);
        for kind in ModelKind::ALL {
            let model = build_model(kind, 8, 32, 3, &mut rng);
            let bits = |threads| {
                crate::par::with_threads(threads, || model.seed_probabilities(&gt))
                    .iter()
                    .map(|p| p.to_bits())
                    .collect::<Vec<u64>>()
            };
            let serial = bits(1);
            for threads in [2, 3] {
                assert_eq!(bits(threads), serial, "{kind} at {threads} threads");
            }
            let mut tape = Tape::new();
            let pv = model.params().bind(&mut tape);
            let out = model.forward(&mut tape, &gt, &pv);
            let recorded: Vec<u64> = tape.value(out).data().iter().map(|p| p.to_bits()).collect();
            assert_eq!(recorded, serial, "{kind} on a recording tape");
        }
    }

    #[test]
    fn models_handle_edgeless_graphs() {
        let g = privim_graph::Graph::empty(5);
        let gt = GraphTensors::with_structural_features(&g, 4);
        let mut rng = StdRng::seed_from_u64(5);
        for kind in ModelKind::ALL {
            let model = build_model(kind, 4, 8, 2, &mut rng);
            let probs = model.seed_probabilities(&gt);
            assert_eq!(probs.len(), 5, "{kind}");
            assert!(probs.iter().all(|p| p.is_finite()), "{kind}");
        }
    }

    #[test]
    fn grat_differs_from_gat_on_asymmetric_graph() {
        // A graph where out-degrees differ strongly so source vs destination
        // normalization produces different attention.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(0, 3, 1.0);
        b.add_edge(1, 3, 1.0);
        let g = b.build();
        let gt = GraphTensors::with_structural_features(&g, 4);
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let gat = build_model(ModelKind::Gat, 4, 8, 2, &mut rng1);
        let grat = build_model(ModelKind::Grat, 4, 8, 2, &mut rng2);
        // Same init (same seed, same shapes), different normalization.
        let pa = gat.seed_probabilities(&gt);
        let pg = grat.seed_probabilities(&gt);
        assert_ne!(pa, pg);
    }

    #[test]
    fn single_layer_models_output_directly() {
        let g = ring(4);
        let gt = GraphTensors::with_structural_features(&g, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let model = build_model(ModelKind::Gcn, 4, 8, 1, &mut rng);
        let probs = model.seed_probabilities(&gt);
        assert_eq!(probs.len(), 4);
    }

    #[test]
    fn model_kind_names_and_display() {
        assert_eq!(ModelKind::Grat.to_string(), "GRAT");
        assert_eq!(ModelKind::ALL.len(), 6);
        let unique: std::collections::HashSet<_> =
            ModelKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(unique.len(), 6);
    }

    #[test]
    fn multi_head_attention_works_and_differs_from_single() {
        let g = ring(6);
        let gt = GraphTensors::with_structural_features(&g, 4);
        let mut r1 = StdRng::seed_from_u64(31);
        let mut r2 = StdRng::seed_from_u64(31);
        let single = Attention::with_heads(&[4, 8, 1], &mut r1, true, 1);
        let multi = Attention::with_heads(&[4, 8, 1], &mut r2, true, 4);
        assert_eq!(multi.params().len(), 4 * single.params().len());
        let ps = single.seed_probabilities(&gt);
        let pm = multi.seed_probabilities(&gt);
        assert_eq!(pm.len(), 6);
        assert!(pm.iter().all(|p| (0.0..=1.0).contains(p)));
        assert_ne!(ps, pm);
        // Gradients flow into every head.
        let mut tape = Tape::new();
        let pv = multi.params().bind(&mut tape);
        let out = multi.forward(&mut tape, &gt, &pv);
        let loss = tape.sum(out);
        let grads = tape.backward(loss);
        let gv = multi.params().grads(&pv, grads);
        let live_heads = gv
            .blocks()
            .iter()
            .zip(multi.params().iter())
            .filter(|(b, p)| p.name.contains("weight") && b.frobenius_norm() > 0.0)
            .count();
        assert!(
            live_heads >= 4,
            "only {live_heads} head weights received gradient"
        );
    }

    #[test]
    fn deterministic_construction_given_seed() {
        let g = ring(5);
        let gt = GraphTensors::with_structural_features(&g, 4);
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        let m1 = build_model(ModelKind::Gin, 4, 8, 3, &mut r1);
        let m2 = build_model(ModelKind::Gin, 4, 8, 3, &mut r2);
        assert_eq!(m1.seed_probabilities(&gt), m2.seed_probabilities(&gt));
    }
}
