//! The probabilistic penalty loss for IM (Eq. 5).
//!
//! The GNN emits a per-node seed probability `x_u = φ(h_u)`. Theorem 2
//! defines the true one-step influence probability
//! `p_i(u) = 1 − Π_{v ∈ N_in(u)} (1 − w_vu · a_{i-1}(v))` with `a_0 = x`,
//! and upper-bounds it by the truncated message-passing sum for the noise
//! analysis. The implementation trains on the *exact* product form: the
//! truncated sum saturates at 1 on dense neighborhoods, where its gradient
//! vanishes and the loss stops ranking nodes; the product form's gradient
//! degrades smoothly instead (see `neighbor_survival` in `privim-nn`).
//! The loss minimizes the total probability of remaining uninfluenced after
//! `j` steps plus a λ-weighted seed-budget penalty:
//!
//! ```text
//! L(G; W) = Σ_u Π_{i=0}^{j} (1 − a_i(u))  +  λ Σ_u x_u
//! ```

use std::sync::Arc;

use privim_nn::graph_tensors::GraphTensors;
use privim_nn::tape::{Tape, Var};

/// Records the Eq. 5 loss for seed probabilities `x` (an `N × 1` variable
/// already on `tape`); returns the scalar loss variable.
pub fn im_loss(tape: &mut Tape, gt: &GraphTensors, x: Var, steps: usize, lambda: f64) -> Var {
    assert!(steps >= 1, "need at least one diffusion step");
    assert!(lambda >= 0.0, "lambda must be non-negative");
    // Π_{i=0..j} (1 − a_i), built incrementally. a_0 = x.
    let mut not_influenced = tape.one_minus(x);
    let mut activation = x;
    for _ in 0..steps {
        let survive = tape.neighbor_survival(
            activation,
            Arc::clone(&gt.src),
            Arc::clone(&gt.dst),
            Arc::clone(&gt.edge_weight),
            gt.num_nodes,
        );
        not_influenced = tape.mul(not_influenced, survive);
        activation = tape.one_minus(survive);
    }
    let uninfluenced_total = tape.sum(not_influenced);
    let seed_budget = tape.sum(x);
    let penalty = tape.scale(seed_budget, lambda);
    tape.add(uninfluenced_total, penalty)
}

/// Evaluates the loss value for fixed probabilities without building
/// gradients — used by tests and by training-progress reporting.
pub fn im_loss_value(gt: &GraphTensors, probs: &[f64], steps: usize, lambda: f64) -> f64 {
    let mut tape = Tape::no_grad();
    let x = tape.leaf(privim_nn::matrix::Matrix::from_vec(
        probs.len(),
        1,
        probs.to_vec(),
    ));
    let loss = im_loss(&mut tape, gt, x, steps, lambda);
    tape.value(loss).as_scalar()
}

/// Linear Threshold surrogate loss (the paper's Section VII extension).
///
/// Under the LT model with uniform random thresholds, a node with
/// activation mass `Σ w_vu · a_v ≤ 1` from its in-neighbors activates with
/// probability exactly `min(1, Σ w_vu · a_v)` — the truncated-sum form
/// that is only an *upper bound* under IC (Theorem 2) is the *exact*
/// one-step activation probability under LT. The same Eq. 5 penalty
/// structure therefore trains an LT influence maximizer.
pub fn lt_loss(tape: &mut Tape, gt: &GraphTensors, x: Var, steps: usize, lambda: f64) -> Var {
    assert!(steps >= 1, "need at least one diffusion step");
    assert!(lambda >= 0.0, "lambda must be non-negative");
    let mut not_influenced = tape.one_minus(x);
    let mut activation = x;
    for _ in 0..steps {
        let flow = tape.spmm_fixed(
            activation,
            Arc::clone(&gt.src),
            Arc::clone(&gt.dst),
            Arc::clone(&gt.edge_weight),
            gt.num_nodes,
        );
        let p = tape.clamp(flow, 0.0, 1.0);
        let survive = tape.one_minus(p);
        not_influenced = tape.mul(not_influenced, survive);
        activation = p;
    }
    let uninfluenced_total = tape.sum(not_influenced);
    let seed_budget = tape.sum(x);
    let penalty = tape.scale(seed_budget, lambda);
    tape.add(uninfluenced_total, penalty)
}

/// [`lt_loss`] evaluated at fixed probabilities.
pub fn lt_loss_value(gt: &GraphTensors, probs: &[f64], steps: usize, lambda: f64) -> f64 {
    let mut tape = Tape::no_grad();
    let x = tape.leaf(privim_nn::matrix::Matrix::from_vec(
        probs.len(),
        1,
        probs.to_vec(),
    ));
    let loss = lt_loss(&mut tape, gt, x, steps, lambda);
    tape.value(loss).as_scalar()
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_graph::{Graph, GraphBuilder};
    use privim_nn::matrix::Matrix;
    use privim_nn::testutil::check_gradients_at;

    fn star() -> Graph {
        // Hub 0 with out-edges to 1..=3, weight 1.
        let mut b = GraphBuilder::new(4);
        for i in 1..4 {
            b.add_edge(0, i, 1.0);
        }
        b.build()
    }

    #[test]
    fn hub_seed_minimizes_uninfluenced_term() {
        let g = star();
        let gt = GraphTensors::with_structural_features(&g, 2);
        // Seeding the hub covers everyone in one step.
        let hub = im_loss_value(&gt, &[1.0, 0.0, 0.0, 0.0], 1, 0.0);
        // Π over hub: (1-1)=0; spokes: (1-0)(1-1)=0 → total 0.
        assert!(hub.abs() < 1e-12, "hub loss {hub}");
        // Seeding one spoke leaves hub and two spokes uninfluenced.
        let spoke = im_loss_value(&gt, &[0.0, 1.0, 0.0, 0.0], 1, 0.0);
        assert!((spoke - 3.0).abs() < 1e-12, "spoke loss {spoke}");
        assert!(hub < spoke);
    }

    #[test]
    fn lambda_penalizes_large_seed_sets() {
        let g = star();
        let gt = GraphTensors::with_structural_features(&g, 2);
        let all = [1.0, 1.0, 1.0, 1.0];
        let one = [1.0, 0.0, 0.0, 0.0];
        let l_all = im_loss_value(&gt, &all, 1, 0.5);
        let l_one = im_loss_value(&gt, &one, 1, 0.5);
        assert!((l_all - 2.0).abs() < 1e-12); // 0 uninfluenced + 0.5·4
        assert!((l_one - 0.5).abs() < 1e-12); // 0 uninfluenced + 0.5·1
        assert!(l_one < l_all);
    }

    #[test]
    fn multi_step_diffusion_reaches_farther() {
        // Path 0 -> 1 -> 2; seed at 0 covers node 2 only with j = 2.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        let gt = GraphTensors::with_structural_features(&g, 2);
        let x = [1.0, 0.0, 0.0];
        let one_step = im_loss_value(&gt, &x, 1, 0.0);
        let two_step = im_loss_value(&gt, &x, 2, 0.0);
        assert!((one_step - 1.0).abs() < 1e-12, "{one_step}");
        assert!(two_step.abs() < 1e-12, "{two_step}");
    }

    #[test]
    fn loss_gradient_matches_finite_differences() {
        let g = star();
        let gt = GraphTensors::with_structural_features(&g, 2);
        // Probabilities strictly inside (0, 1) so clamp is differentiable.
        let x0 = Matrix::from_vec(4, 1, vec![0.3, 0.2, 0.1, 0.25]);
        check_gradients_at(
            &[x0],
            |tape, vars| im_loss(tape, &gt, vars[0], 2, 0.7),
            1e-6,
        );
    }

    #[test]
    fn loss_is_bounded_below_by_penalty_only() {
        let g = star();
        let gt = GraphTensors::with_structural_features(&g, 2);
        for probs in [[0.5; 4], [0.9, 0.1, 0.3, 0.7]] {
            let l = im_loss_value(&gt, &probs, 1, 0.2);
            let penalty: f64 = 0.2 * probs.iter().sum::<f64>();
            assert!(l >= penalty - 1e-12);
            assert!(l <= 4.0 + penalty + 1e-12);
        }
    }

    #[test]
    fn lt_loss_matches_lt_simulation_for_binary_seeds() {
        // Single in-edge of weight 0.3: under LT with uniform thresholds,
        // P(activate) = 0.3 exactly; expected uninfluenced mass = 0.7.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.3);
        let g = b.build();
        let gt = GraphTensors::with_structural_features(&g, 2);
        let l = super::lt_loss_value(&gt, &[1.0, 0.0], 1, 0.0);
        assert!((l - 0.7).abs() < 1e-12, "{l}");
    }

    #[test]
    fn lt_loss_saturates_at_full_activation() {
        // Two in-edges of weight 0.8 each: mass 1.6 clamps to 1 (uniform
        // threshold is always exceeded) — node 2 activates surely.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 0.8);
        b.add_edge(1, 2, 0.8);
        let g = b.build();
        let gt = GraphTensors::with_structural_features(&g, 2);
        let l = super::lt_loss_value(&gt, &[1.0, 1.0, 0.0], 1, 0.0);
        assert!(l.abs() < 1e-12, "{l}");
        // Under the IC product loss the same input leaves survival
        // (1-0.8)² = 0.04 — the two models genuinely differ here.
        let ic = im_loss_value(&gt, &[1.0, 1.0, 0.0], 1, 0.0);
        assert!((ic - 0.04).abs() < 1e-12, "{ic}");
    }

    #[test]
    fn lt_loss_gradient_matches_finite_differences() {
        let g = star();
        let gt = GraphTensors::with_structural_features(&g, 2);
        // Keep Σwx strictly inside (0, 1) so the clamp is differentiable.
        let x0 = Matrix::from_vec(4, 1, vec![0.3, 0.2, 0.1, 0.25]);
        check_gradients_at(
            &[x0],
            |tape, vars| super::lt_loss(tape, &gt, vars[0], 2, 0.4),
            1e-6,
        );
    }

    #[test]
    fn weighted_edges_scale_influence() {
        // Edge weight 0.5: spoke is influenced with probability ≤ 0.5·x.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5);
        let g = b.build();
        let gt = GraphTensors::with_structural_features(&g, 2);
        let l = im_loss_value(&gt, &[1.0, 0.0], 1, 0.0);
        // Node 0 seed: contributes 0. Node 1: (1-0)·(1-0.5) = 0.5.
        assert!((l - 0.5).abs() < 1e-12, "{l}");
    }
}
