//! Integration tests of individual crate seams: graph ↔ nn tensors,
//! dp accounting ↔ training, loss ↔ diffusion simulation.

use std::sync::Arc;

use privim::core::config::PrivImConfig;
use privim::core::loss::im_loss_value;
use privim::core::sampling::{extract_dual_stage, extract_naive};
use privim::datasets::generators::holme_kim;
use privim::datasets::paper::Dataset;
use privim::dp::rdp::{naive_occurrence_bound, RdpAccountant, SubsampledConfig};
use privim::graph::{GraphBuilder, NodeId};
use privim::im::models::{DiffusionConfig, DiffusionModel};
use privim::im::spread::influence_spread;
use privim::nn::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn loss_agrees_with_monte_carlo_diffusion() {
    // For binary x (actual seed sets), Eq. 5's coverage term equals
    // |V| − E[spread] under one-step IC exactly (the product form is the
    // true probability, not just a bound).
    let mut rng = StdRng::seed_from_u64(1);
    let g = holme_kim(60, 3, 0.3, 1.0, &mut rng).with_uniform_weight(0.4);
    let gt = GraphTensors::with_structural_features(&g, 4);

    let seeds: Vec<NodeId> = vec![3, 17, 42];
    let mut x = vec![0.0; g.num_nodes()];
    for &s in &seeds {
        x[s as usize] = 1.0;
    }
    let uninfluenced = im_loss_value(&gt, &x, 1, 0.0);

    let cfg = DiffusionConfig::ic_with_steps(1);
    let mc = influence_spread(&g, &seeds, &cfg, 200_000, &mut rng);
    let expected_spread = g.num_nodes() as f64 - uninfluenced;
    assert!(
        (mc - expected_spread).abs() < 0.25,
        "loss-implied spread {expected_spread:.2} vs Monte Carlo {mc:.2}"
    );
}

#[test]
fn sampling_containers_feed_models_of_every_kind() {
    let g = Dataset::Facebook.generate(0.015, 2);
    let cfg = PrivImConfig {
        subgraph_size: 12,
        hops: 2,
        feature_dim: 6,
        sampling_rate: Some(0.5),
        ..PrivImConfig::default()
    };
    let candidates: Vec<NodeId> = g.nodes().collect();
    let mut rng = StdRng::seed_from_u64(3);
    let out = extract_dual_stage(&g, &cfg, &candidates, &mut rng);
    assert!(!out.container.is_empty());
    for kind in ModelKind::ALL {
        let model = build_model(kind, 6, 8, 2, &mut rng);
        for sample in out.container.samples().iter().take(3) {
            let probs = model.seed_probabilities(&sample.tensors);
            assert_eq!(probs.len(), sample.len(), "{kind}");
            assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)), "{kind}");
        }
    }
}

#[test]
fn naive_container_occurrences_respect_lemma1() {
    let g = Dataset::Bitcoin.generate(0.06, 4);
    let cfg = PrivImConfig {
        subgraph_size: 10,
        hops: 2,
        theta: 4,
        sampling_rate: Some(1.0),
        feature_dim: 4,
        ..PrivImConfig::default()
    };
    let candidates: Vec<NodeId> = g.nodes().collect();
    let mut rng = StdRng::seed_from_u64(5);
    let (container, _) = extract_naive(&g, &cfg, &candidates, &mut rng);
    let bound = naive_occurrence_bound(cfg.theta, cfg.hops);
    let observed = container.observed_max_occurrence(g.num_nodes());
    assert!(
        observed <= bound,
        "Lemma 1 violated: observed {observed} > N_g = {bound}"
    );
}

#[test]
fn accountant_matches_training_noise_interface() {
    // The ε reported by the accountant must be monotone in T and σ across
    // the exact configs the trainer produces.
    let sub = SubsampledConfig {
        max_occurrences: 4,
        batch_size: 16,
        container_size: 120,
    };
    let eps_at = |sigma: f64, steps: usize| {
        let mut acct = RdpAccountant::default();
        acct.compose_subsampled_gaussian(sigma, &sub, steps);
        acct.epsilon(1e-4).0
    };
    assert!(eps_at(1.0, 10) < eps_at(1.0, 100));
    assert!(eps_at(2.0, 50) < eps_at(1.0, 50));
    assert!(eps_at(0.5, 1) > 0.0);
}

#[test]
fn gnn_training_gradient_matches_finite_difference_through_full_stack() {
    // One GCN parameter entry, perturbed: the full pipeline loss (model
    // forward + Eq. 5) must match its autograd gradient.
    let mut rng = StdRng::seed_from_u64(6);
    let g = holme_kim(30, 3, 0.3, 1.0, &mut rng);
    let gt = GraphTensors::with_structural_features(&g, 4);
    let mut model = build_model(ModelKind::Gcn, 4, 6, 2, &mut rng);

    let loss_of = |model: &dyn GnnModel| -> f64 {
        let mut tape = Tape::new();
        let pv = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &gt, &pv);
        let loss = privim::core::loss::im_loss(&mut tape, &gt, out, 1, 0.5);
        tape.value(loss).as_scalar()
    };

    // Analytic gradient of parameter 0, entry 0.
    let analytic = {
        let mut tape = Tape::new();
        let pv = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &gt, &pv);
        let loss = privim::core::loss::im_loss(&mut tape, &gt, out, 1, 0.5);
        let grads = tape.backward(loss);
        grads.get(pv[0]).unwrap().data()[0]
    };

    let h = 1e-6;
    let base = model.params().get(0).value.data()[0];
    model
        .params_mut()
        .iter_mut()
        .next()
        .unwrap()
        .value
        .data_mut()[0] = base + h;
    let plus = loss_of(model.as_ref());
    model
        .params_mut()
        .iter_mut()
        .next()
        .unwrap()
        .value
        .data_mut()[0] = base - h;
    let minus = loss_of(model.as_ref());
    let numeric = (plus - minus) / (2.0 * h);
    assert!(
        (analytic - numeric).abs() < 1e-5 * (1.0 + numeric.abs()),
        "full-stack gradient mismatch: analytic {analytic}, numeric {numeric}"
    );
}

#[test]
fn graph_io_round_trips_generated_datasets() {
    let g = Dataset::LastFm.generate(0.03, 7);
    let bytes = privim::graph::io::encode_binary(&g);
    let back = privim::graph::io::decode_binary(&bytes).unwrap();
    assert_eq!(g, back);
}

#[test]
fn lt_and_sis_extensions_run_on_paper_datasets() {
    let g = Dataset::Email.generate(0.2, 8).with_uniform_weight(0.3);
    let mut rng = StdRng::seed_from_u64(9);
    let seeds: Vec<NodeId> = vec![0, 1, 2];
    for model in [
        DiffusionModel::LinearThreshold,
        DiffusionModel::Sis { recovery: 0.5 },
    ] {
        let cfg = DiffusionConfig {
            model,
            max_steps: Some(5),
        };
        let spread = influence_spread(&g, &seeds, &cfg, 500, &mut rng);
        assert!(
            spread >= 3.0 && spread <= g.num_nodes() as f64,
            "{model:?}: {spread}"
        );
    }
}

#[test]
fn spmm_matches_dense_adjacency_multiply() {
    // Cross-check the sparse kernel against an explicit dense A·X.
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 0.5);
    b.add_edge(2, 1, 0.25);
    b.add_edge(1, 3, 1.0);
    let g = b.build();
    let x = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64);
    let gt = GraphTensors::new(&g, x.clone());

    let mut tape = Tape::new();
    let xv = tape.leaf(x.clone());
    let out = tape.spmm_fixed(
        xv,
        Arc::clone(&gt.src),
        Arc::clone(&gt.dst),
        Arc::clone(&gt.edge_weight),
        4,
    );

    // Dense A (A[u][v] = w_vu) times X.
    let mut a = Matrix::zeros(4, 4);
    for (v, u, w) in g.edges() {
        a[(u as usize, v as usize)] = w;
    }
    let dense = a.matmul(&x);
    assert_eq!(tape.value(out).data(), dense.data());
}
