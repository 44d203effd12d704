//! Integration test: a trained DP model survives checkpointing and keeps
//! producing the same seed set — the deployment path (train privately once,
//! publish the checkpoint, serve seed selection from it).

use privim::core::checkpoint::{CheckpointStore, TrainCheckpoint};
use privim::core::config::PrivImConfig;
use privim::core::sampling::extract_dual_stage;
use privim::core::train::train;
use privim::datasets::paper::Dataset;
use privim::graph::NodeId;
use privim::im::metrics::top_k_seeds;
use privim::nn::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn trained_model_round_trips_through_checkpoint() {
    let g = Dataset::LastFm.generate(0.05, 21);
    let cfg = PrivImConfig {
        subgraph_size: 16,
        hops: 2,
        hidden: 12,
        feature_dim: 8,
        batch_size: 16,
        iterations: 20,
        sampling_rate: Some(0.8),
        ..PrivImConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let candidates: Vec<NodeId> = g.nodes().collect();
    let out = extract_dual_stage(&g, &cfg, &candidates, &mut rng);
    let mut model = build_model(cfg.model, cfg.feature_dim, cfg.hidden, cfg.hops, &mut rng);
    let report =
        train(model.as_mut(), &out.container, &cfg, None, &mut rng).expect("training succeeds");

    let gt = GraphTensors::with_structural_features(&g, cfg.feature_dim);
    let scores = model.seed_probabilities(&gt);
    let seeds = top_k_seeds(&scores, 15);

    // Save → load → identical behavior.
    let snapshot = TrainCheckpoint {
        epoch: report.losses.len() as u64,
        master_seed: 5,
        config_crc: privim::core::resume::config_digest(&cfg),
        trace_id: 0,
        model: Checkpoint::capture(model.as_ref(), cfg.feature_dim, cfg.hidden, cfg.hops),
        optimizer: report.optimizer,
        ledger: report.ledger,
        losses: report.losses,
        clip_fractions: report.clip_fractions,
        split: None,
    };
    let path = std::env::temp_dir().join("privim-pipeline-checkpoint.ckpt");
    CheckpointStore::write(&path, &snapshot).unwrap();
    let restored = CheckpointStore::load(&path)
        .unwrap()
        .model
        .restore()
        .unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(restored.kind(), model.kind());
    let restored_scores = restored.seed_probabilities(&gt);
    assert_eq!(scores, restored_scores);
    assert_eq!(top_k_seeds(&restored_scores, 15), seeds);
}
