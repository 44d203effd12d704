//! End-to-end PrivIM pipelines and the paper's baselines.
//!
//! [`run_method`] executes: subgraph extraction → privacy calibration →
//! DP-SGD training → full-graph inference → top-k seed selection →
//! influence-spread evaluation, returning per-phase timings (Table III)
//! alongside the quality metrics.
//!
//! Methods (Section V-A "Competitors"):
//!
//! - **PrivIM** — the naive Section III implementation (Algorithm 1 on a
//!   θ-bounded graph, `N_g = Σ θⁱ`).
//! - **PrivIM+SCS** — stage 1 of the dual-stage scheme only.
//! - **PrivIM\*** — the full dual-stage scheme (SCS + BES, `N_g* = M`).
//! - **EGN** — Erdős-goes-neural with unconstrained subgraph sampling and
//!   DP-SGD; its occurrence bound must be taken from the observed
//!   container (there is no structural bound), which is what makes its
//!   noise excessive.
//! - **HP / HP-GRAT** — HeterPoisson-style ego-subgraphs with Symmetric
//!   Multivariate Laplace noise; HP uses GCN, HP-GRAT uses GRAT.
//! - **NonPrivate** — PrivIM* with `ε = ∞` (no clipping, no noise).

use privim_graph::{Graph, NodeId};
use privim_im::metrics::top_k_seeds;
use privim_im::models::DiffusionConfig;
use privim_im::spread::influence_spread;
use privim_nn::graph_tensors::GraphTensors;
use privim_nn::models::{build_model, ModelKind};
use privim_nn::serialize::Checkpoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::TrainCheckpoint;
use crate::config::PrivImConfig;
use crate::container::{SubgraphContainer, SubgraphSample};
use crate::resume::config_digest;
use crate::sampling::{extract_dual_stage, extract_naive, extract_unconstrained, freq_sampling};
use crate::train::{train, EpochState, NoiseKind, PrivacySetup};

/// One of the evaluated methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Naive PrivIM (Section III).
    PrivIm,
    /// PrivIM with Sensitivity-Constrained Sampling only.
    PrivImScs,
    /// PrivIM* — SCS + Boundary-Enhanced Sampling (Section IV).
    PrivImStar,
    /// Erdős-goes-neural baseline with DP-SGD.
    Egn,
    /// HeterPoisson baseline with SML noise and GCN.
    Hp,
    /// HP trained with GRAT instead of GCN.
    HpGrat,
    /// Non-private PrivIM* (ε = ∞).
    NonPrivate,
}

impl Method {
    /// All methods in the order Figure 5 plots them.
    pub const ALL: [Method; 7] = [
        Method::NonPrivate,
        Method::PrivImStar,
        Method::PrivImScs,
        Method::PrivIm,
        Method::HpGrat,
        Method::Hp,
        Method::Egn,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Method::PrivIm => "PrivIM",
            Method::PrivImScs => "PrivIM+SCS",
            Method::PrivImStar => "PrivIM*",
            Method::Egn => "EGN",
            Method::Hp => "HP",
            Method::HpGrat => "HP-GRAT",
            Method::NonPrivate => "Non-Private",
        }
    }

    /// The GNN architecture the paper assigns to this method.
    pub fn model_kind(self, configured: ModelKind) -> ModelKind {
        match self {
            Method::Egn | Method::Hp => ModelKind::Gcn,
            Method::HpGrat => ModelKind::Grat,
            _ => configured,
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Method that produced this result.
    pub method: Method,
    /// Selected seed set (top-k by model score).
    pub seeds: Vec<NodeId>,
    /// Influence spread of the seeds under the configured diffusion.
    pub spread: f64,
    /// Preprocessing wall-clock seconds (projection + extraction).
    pub preprocessing_secs: f64,
    /// Total training wall-clock seconds.
    pub training_secs: f64,
    /// Training seconds per iteration ("per-epoch" in Table III).
    pub per_epoch_secs: f64,
    /// Extracted container size `m`.
    pub container_size: usize,
    /// The occurrence bound `N_g` used for accounting.
    pub occurrence_bound: usize,
    /// Calibrated σ (None for the non-private run).
    pub sigma: Option<f64>,
    /// Final training loss.
    pub final_loss: f64,
    /// The trained model the seeds were selected with, with its exact
    /// ledger and optimizer state: the one model this run releases.
    /// `master_seed` is the run seed, `config_crc` the
    /// [`config_digest`], and `trace_id` and `split` are unset.
    pub model: TrainCheckpoint,
}

/// Runs `method` on `g` with `config`, deterministically from `seed`.
///
/// Training candidates default to all nodes; pass a split's train set via
/// [`run_method_with_candidates`] for the paper's 50/50 protocol.
pub fn run_method(g: &Graph, method: Method, config: &PrivImConfig, seed: u64) -> PipelineResult {
    let candidates: Vec<NodeId> = g.nodes().collect();
    run_method_with_candidates(g, method, config, &candidates, seed)
}

/// [`run_method`] with an explicit training-candidate node set.
pub fn run_method_with_candidates(
    g: &Graph,
    method: Method,
    config: &PrivImConfig,
    candidates: &[NodeId],
    seed: u64,
) -> PipelineResult {
    config.validate().expect("invalid configuration");
    let _span = privim_obs::Scope::span("pipeline");
    privim_obs::info!(
        "pipeline",
        "start",
        method = method.name(),
        seed = seed,
        nodes = g.num_nodes(),
        candidates = candidates.len(),
    );
    let mut rng = StdRng::seed_from_u64(seed);

    // --- Phase 1: subgraph extraction ------------------------------------
    let extraction_span = privim_obs::Scope::span("extraction");
    let (container, occurrence_bound) = extract_for(method, g, config, candidates, &mut rng);
    let preprocessing_secs = extraction_span.finish();
    privim_obs::gauge("pipeline.container_size").set(container.len() as f64);

    // --- Phase 2: privacy calibration ------------------------------------
    let delta = config.effective_delta(candidates.len());
    let calibration_span = privim_obs::Scope::span("calibration");
    let privacy = calibrate_for(method, config, &container, occurrence_bound, delta);
    calibration_span.finish();

    // --- Phase 3: DP-GNN training -----------------------------------------
    // An empty container means the requested (n, hops) combination is
    // infeasible on this graph: the model stays at initialization, which is
    // the honest degenerate outcome for a parameter sweep (utility
    // collapses instead of the run aborting).
    let kind = method.model_kind(config.model);
    let mut model = build_model(
        kind,
        config.feature_dim,
        config.hidden,
        config.hops,
        &mut rng,
    );
    let report = if container.is_empty() {
        EpochState::fresh(config, None).report(0.0, None)
    } else {
        train(
            model.as_mut(),
            &container,
            config,
            privacy.as_ref(),
            &mut rng,
        )
        .unwrap_or_else(|e| panic!("{method} training aborted: {e}"))
    };

    // --- Phase 4: inference + seed selection + evaluation -----------------
    let inference_span = privim_obs::Scope::span("inference");
    let gt = GraphTensors::with_structural_features(g, config.feature_dim);
    let scores = model.seed_probabilities(&gt);
    let seeds = top_k_seeds(&scores, config.seed_size);
    inference_span.finish();
    let evaluation_span = privim_obs::Scope::span("evaluation");
    let diffusion = DiffusionConfig::ic_with_steps(config.diffusion_steps);
    let spread = influence_spread(g, &seeds, &diffusion, 200, &mut rng);
    evaluation_span.finish();
    privim_obs::info!(
        "pipeline",
        "done",
        method = method.name(),
        spread = spread,
        container_size = container.len(),
        sigma = report.sigma,
        final_loss = report.losses.last().copied(),
    );

    PipelineResult {
        method,
        seeds,
        spread,
        preprocessing_secs,
        training_secs: report.training_secs,
        per_epoch_secs: report.training_secs / config.iterations.max(1) as f64,
        container_size: container.len(),
        occurrence_bound,
        sigma: report.sigma,
        final_loss: *report.losses.last().unwrap_or(&f64::NAN),
        model: TrainCheckpoint {
            epoch: report.losses.len() as u64,
            master_seed: seed,
            config_crc: config_digest(config),
            trace_id: 0,
            model: Checkpoint::capture(
                model.as_ref(),
                config.feature_dim,
                config.hidden,
                config.hops,
            ),
            optimizer: report.optimizer,
            ledger: report.ledger,
            losses: report.losses,
            clip_fractions: report.clip_fractions,
            split: None,
        },
    }
}

/// Extraction dispatch: returns the container and the occurrence bound
/// `N_g` the accountant must use.
pub fn extract_for(
    method: Method,
    g: &Graph,
    config: &PrivImConfig,
    candidates: &[NodeId],
    rng: &mut StdRng,
) -> (SubgraphContainer, usize) {
    match method {
        Method::PrivIm => {
            let (container, _projected) = extract_naive(g, config, candidates, rng);
            let n_g = privim_dp::rdp::naive_occurrence_bound(config.theta, config.hops);
            (container, n_g)
        }
        Method::PrivImScs => {
            let mut frequency = vec![0u32; g.num_nodes()];
            let container = freq_sampling(
                g,
                config,
                candidates,
                config.subgraph_size,
                &mut frequency,
                rng,
            );
            (container, config.freq_threshold)
        }
        Method::PrivImStar | Method::NonPrivate => {
            let out = extract_dual_stage(g, config, candidates, rng);
            (out.container, config.freq_threshold)
        }
        Method::Egn => {
            // Unconstrained sampling: no structural occurrence bound
            // exists, so node-level accounting must assume the worst case —
            // a node may appear in every extracted subgraph (N_g = m).
            // This is the root cause of EGN's excessive noise; a
            // data-dependent "observed maximum" would itself leak.
            let container = extract_unconstrained(g, config, candidates, rng);
            let worst_case = container.len().max(1);
            (container, worst_case)
        }
        Method::Hp | Method::HpGrat => extract_heter_poisson(g, config, candidates, rng),
    }
}

/// Calibration dispatch: the method's noise family at `delta`, or `None`
/// for a non-private method, a config without ε, or an empty container.
pub fn calibrate_for(
    method: Method,
    config: &PrivImConfig,
    container: &SubgraphContainer,
    occurrence_bound: usize,
    delta: f64,
) -> Option<PrivacySetup> {
    let eps = config.epsilon.filter(|_| method != Method::NonPrivate)?;
    if container.is_empty() {
        return None;
    }
    let noise = match method {
        Method::Hp | Method::HpGrat => NoiseKind::SymmetricLaplace,
        _ => NoiseKind::Gaussian,
    };
    Some(PrivacySetup::calibrate(
        eps,
        delta,
        config,
        container.len(),
        occurrence_bound,
        noise,
    ))
}

/// HeterPoisson-style extraction for the HP baselines: each selected node
/// contributes its 1-hop ego network (itself + up to θ in-neighbors), the
/// node-level-task subgraph shape HP was designed for. Each node may join
/// at most θ foreign ego-nets, bounding occurrences by `θ + 1`.
fn extract_heter_poisson<R: Rng + ?Sized>(
    g: &Graph,
    config: &PrivImConfig,
    candidates: &[NodeId],
    rng: &mut R,
) -> (SubgraphContainer, usize) {
    let q = config.effective_sampling_rate(candidates.len());
    let mut memberships = vec![0usize; g.num_nodes()];
    let mut container = SubgraphContainer::new();
    for &v in candidates {
        if rng.gen::<f64>() >= q {
            continue;
        }
        let mut nodes = vec![v];
        for &u in g.in_neighbors(v) {
            if nodes.len() > config.theta {
                break;
            }
            if u != v && memberships[u as usize] < config.theta && !nodes.contains(&u) {
                nodes.push(u);
                memberships[u as usize] += 1;
            }
        }
        if nodes.len() >= 2 {
            container.push(SubgraphSample::extract(g, nodes, config.feature_dim));
        }
    }
    (container, config.theta + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_datasets::generators::holme_kim;

    fn graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        holme_kim(250, 4, 0.4, 1.0, &mut rng)
    }

    fn fast_config() -> PrivImConfig {
        PrivImConfig {
            subgraph_size: 10,
            walk_length: 100,
            hops: 2,
            sampling_rate: Some(0.5),
            freq_threshold: 4,
            feature_dim: 4,
            hidden: 8,
            batch_size: 6,
            iterations: 6,
            seed_size: 10,
            epsilon: Some(4.0),
            ..PrivImConfig::default()
        }
    }

    #[test]
    fn every_method_runs_end_to_end() {
        let g = graph(1);
        let cfg = fast_config();
        for method in Method::ALL {
            let r = run_method(&g, method, &cfg, 7);
            assert_eq!(r.method, method);
            assert_eq!(r.seeds.len(), cfg.seed_size, "{method}");
            assert!(
                r.spread >= cfg.seed_size as f64,
                "{method}: spread {}",
                r.spread
            );
            assert!(r.spread <= g.num_nodes() as f64, "{method}");
            assert!(r.container_size > 0, "{method}");
            assert!(
                r.preprocessing_secs >= 0.0 && r.per_epoch_secs > 0.0,
                "{method}"
            );
            if method == Method::NonPrivate {
                assert!(r.sigma.is_none());
            } else {
                assert!(r.sigma.is_some(), "{method} should be private");
            }
            assert!(r.final_loss.is_finite(), "{method}");
        }
    }

    #[test]
    fn occurrence_bounds_follow_the_analysis() {
        let g = graph(2);
        let cfg = fast_config();
        let naive = run_method(&g, Method::PrivIm, &cfg, 3);
        assert_eq!(
            naive.occurrence_bound,
            privim_dp::rdp::naive_occurrence_bound(cfg.theta, cfg.hops)
        );
        let star = run_method(&g, Method::PrivImStar, &cfg, 3);
        assert_eq!(star.occurrence_bound, cfg.freq_threshold);
        assert!(
            star.occurrence_bound < naive.occurrence_bound,
            "the dual-stage bound must beat Lemma 1's"
        );
    }

    #[test]
    fn baseline_models_are_fixed_by_the_paper() {
        assert_eq!(Method::Egn.model_kind(ModelKind::Grat), ModelKind::Gcn);
        assert_eq!(Method::Hp.model_kind(ModelKind::Grat), ModelKind::Gcn);
        assert_eq!(Method::HpGrat.model_kind(ModelKind::Gcn), ModelKind::Grat);
        assert_eq!(
            Method::PrivImStar.model_kind(ModelKind::Gin),
            ModelKind::Gin
        );
    }

    #[test]
    fn seeds_are_valid_and_distinct() {
        let g = graph(4);
        let cfg = fast_config();
        let r = run_method(&g, Method::PrivImStar, &cfg, 5);
        let set: std::collections::HashSet<_> = r.seeds.iter().collect();
        assert_eq!(set.len(), r.seeds.len());
        assert!(r.seeds.iter().all(|&s| (s as usize) < g.num_nodes()));
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let g = graph(6);
        let cfg = fast_config();
        let a = run_method(&g, Method::PrivImStar, &cfg, 11);
        let b = run_method(&g, Method::PrivImStar, &cfg, 11);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.spread, b.spread);
        let c = run_method(&g, Method::PrivImStar, &cfg, 12);
        // Different randomness almost surely changes something.
        assert!(a.seeds != c.seeds || a.sigma != c.sigma || a.container_size != c.container_size);
    }

    /// Golden values: a PrivIM* run's seeds and spread are pinned bit for
    /// bit.
    #[test]
    fn golden_privim_star_run_is_pinned() {
        let r = run_method(&graph(1), Method::PrivImStar, &fast_config(), 7);
        assert_eq!(r.seeds, [43, 138, 247, 57, 186, 207, 64, 180, 205, 217]);
        assert_eq!(r.spread.to_bits(), 4630685579355357184);
    }

    #[test]
    fn released_model_carries_its_exact_ledger() {
        let g = graph(1);
        let cfg = fast_config();
        for method in [Method::PrivImStar, Method::Hp, Method::NonPrivate] {
            let r = run_method(&g, method, &cfg, 7);
            let released = &r.model;
            assert_eq!(released.epoch, cfg.iterations as u64, "{method}");
            assert_eq!(released.master_seed, 7);
            assert_eq!(released.config_crc, config_digest(&cfg));
            assert_eq!((released.trace_id, released.split), (0, None));
            assert_eq!(released.model.kind, method.model_kind(cfg.model));
            match (&released.ledger, r.sigma) {
                (Some(ledger), Some(sigma)) => {
                    assert_eq!(ledger.entries().len(), cfg.iterations, "{method}");
                    assert!(ledger.entries().iter().all(|e| e.sigma == sigma));
                    ledger.verify_replay(1e-9).unwrap();
                }
                (None, None) => {}
                other => panic!("{method}: ledger and σ disagree: {other:?}"),
            }
            // The released file decodes to the same model and ledger.
            let back = TrainCheckpoint::from_bytes(&released.to_bytes()).unwrap();
            assert_eq!(back.model.digest(), released.model.digest());
            assert_eq!(
                back.ledger.map(|l| l.entries().to_vec()),
                released.ledger.as_ref().map(|l| l.entries().to_vec())
            );
        }
    }

    #[test]
    fn hp_extraction_respects_membership_caps() {
        let g = graph(7);
        let cfg = fast_config();
        let mut rng = StdRng::seed_from_u64(8);
        let candidates: Vec<NodeId> = g.nodes().collect();
        let (container, bound) = extract_heter_poisson(&g, &cfg, &candidates, &mut rng);
        assert_eq!(bound, cfg.theta + 1);
        assert!(!container.is_empty());
        let observed = container.observed_max_occurrence(g.num_nodes());
        assert!(observed <= bound, "observed {observed} > bound {bound}");
        for s in container.samples() {
            assert!(s.len() <= cfg.theta + 1);
        }
    }

    #[test]
    fn method_names_match_paper() {
        let names: Vec<_> = Method::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            [
                "Non-Private",
                "PrivIM*",
                "PrivIM+SCS",
                "PrivIM",
                "HP-GRAT",
                "HP",
                "EGN"
            ]
        );
    }
}
