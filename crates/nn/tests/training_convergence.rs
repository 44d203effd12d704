//! Convergence tests: every architecture must be able to fit a simple,
//! well-posed objective. These catch broken gradients or dead
//! parameterizations that forward/backward shape tests cannot.

use std::sync::Arc;

use privim_graph::GraphBuilder;
use privim_nn::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two out-stars: hubs 0 and 7 with five / four spokes. The target
/// function is "score the hubs high, spokes low".
fn two_hubs() -> (privim_graph::Graph, Vec<f64>) {
    let mut b = GraphBuilder::new(12);
    for i in 1..=5 {
        b.add_edge(0, i, 1.0);
    }
    for i in 8..=11 {
        b.add_edge(7, i, 1.0);
    }
    b.add_edge(6, 0, 1.0); // some in-edges so degrees differ
    let g = b.build();
    let mut target = vec![0.05f64; 12];
    target[0] = 0.95;
    target[7] = 0.95;
    (g, target)
}

/// Squared-error loss between model output and the target vector.
fn mse_loss(tape: &mut Tape, out: Var, target: &[f64]) -> Var {
    let t = tape.leaf(Matrix::from_vec(target.len(), 1, target.to_vec()));
    let diff = tape.sub(out, t);
    let sq = tape.mul(diff, diff);
    tape.sum(sq)
}

fn train_to_target(kind: ModelKind, seed: u64) -> (f64, f64) {
    let (g, target) = two_hubs();
    let gt = GraphTensors::with_structural_features(&g, 4);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = build_model(kind, 4, 8, 2, &mut rng);
    let mut opt = Adam::new(0.05);
    let mut first = None;
    let mut last = 0.0;
    for _ in 0..300 {
        let mut tape = Tape::new();
        let pv = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &gt, &pv);
        let loss = mse_loss(&mut tape, out, &target);
        last = tape.value(loss).as_scalar();
        first.get_or_insert(last);
        let grads = tape.backward(loss);
        let gv = model.params().grads(&pv, grads);
        opt.step(model.params_mut(), &gv);
    }
    (first.unwrap(), last)
}

#[test]
fn every_architecture_fits_the_hub_target() {
    for kind in [
        ModelKind::Gcn,
        ModelKind::GraphSage,
        ModelKind::Gat,
        ModelKind::Grat,
        ModelKind::Gin,
        ModelKind::Mlp,
    ] {
        let (first, last) = train_to_target(kind, 3);
        assert!(
            last < first * 0.5,
            "{kind}: loss barely moved ({first:.4} -> {last:.4})"
        );
        // GAT/GraphSAGE mean-style aggregation struggles to express the
        // degree signal this target encodes (the same limitation Figure 9
        // measures); they must still fit most of it.
        let bound = match kind {
            ModelKind::Gat | ModelKind::GraphSage => 1.2,
            _ => 0.6,
        };
        assert!(
            last < bound,
            "{kind}: did not fit the target (final loss {last:.4})"
        );
    }
}

#[test]
fn trained_model_ranks_hubs_first() {
    let (g, target) = two_hubs();
    let gt = GraphTensors::with_structural_features(&g, 4);
    let mut rng = StdRng::seed_from_u64(5);
    let mut model = build_model(ModelKind::Grat, 4, 8, 2, &mut rng);
    let mut opt = Adam::new(0.05);
    for _ in 0..300 {
        let mut tape = Tape::new();
        let pv = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &gt, &pv);
        let loss = mse_loss(&mut tape, out, &target);
        let grads = tape.backward(loss);
        let gv = model.params().grads(&pv, grads);
        opt.step(model.params_mut(), &gv);
    }
    let scores = model.seed_probabilities(&gt);
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let top2: Vec<usize> = order[..2].to_vec();
    assert!(
        top2.contains(&0) && top2.contains(&7),
        "top-2 {top2:?} should be the hubs"
    );
}

#[test]
fn sgd_also_converges_slower_but_surely() {
    let (g, target) = two_hubs();
    let gt = GraphTensors::with_structural_features(&g, 4);
    let mut rng = StdRng::seed_from_u64(9);
    let mut model = build_model(ModelKind::Gcn, 4, 8, 2, &mut rng);
    let mut opt = Sgd::new(0.1);
    let mut losses = Vec::new();
    for _ in 0..400 {
        let mut tape = Tape::new();
        let pv = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &gt, &pv);
        let loss = mse_loss(&mut tape, out, &target);
        losses.push(tape.value(loss).as_scalar());
        let grads = tape.backward(loss);
        let gv = model.params().grads(&pv, grads);
        opt.step(model.params_mut(), &gv);
    }
    assert!(
        losses.last().unwrap() < &(losses[0] * 0.6),
        "{:?}",
        (losses[0], losses.last())
    );
}

#[test]
fn gradient_descent_on_neighbor_survival_selects_hub() {
    // Directly optimize the Eq. 5-style objective over raw probabilities
    // (no network): gradient descent should allocate seed mass to the hub.
    let (g, _) = two_hubs();
    let gt = GraphTensors::with_structural_features(&g, 4);
    let mut x = Matrix::filled(12, 1, 0.1);
    for _ in 0..400 {
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let survive = tape.neighbor_survival(
            xv,
            Arc::clone(&gt.src),
            Arc::clone(&gt.dst),
            Arc::clone(&gt.edge_weight),
            gt.num_nodes,
        );
        let not_seed = tape.one_minus(xv);
        let uninfluenced = tape.mul(not_seed, survive);
        let total = tape.sum(uninfluenced);
        let mass = tape.sum(xv);
        let penalty = tape.scale(mass, 0.4);
        let loss = tape.add(total, penalty);
        let grads = tape.backward(loss);
        let gx = grads.get(xv).unwrap();
        for (xi, gi) in x.data_mut().iter_mut().zip(gx.data()) {
            *xi = (*xi - 0.05 * gi).clamp(0.0, 1.0);
        }
    }
    // The hubs must carry (near-)full seed mass; spokes must not. Node 6
    // (which nothing covers) legitimately also keeps mass — covering
    // itself is its only option — so assert values, not a strict top-2.
    let xs = x.data();
    assert!(xs[0] > 0.9 && xs[7] > 0.9, "hub mass too low: {xs:?}");
    for spoke in [1usize, 2, 3, 4, 5, 8, 9, 10, 11] {
        assert!(xs[spoke] < 0.5, "spoke {spoke} kept mass: {xs:?}");
    }
}
