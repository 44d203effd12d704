//! # PrivIM — differentially private GNNs for influence maximization
//!
//! The paper's core contribution, built on the workspace substrates:
//!
//! - [`config`] — hyperparameters with the paper's defaults.
//! - [`container`] — the subgraph pool `G_sub` Algorithm 2 batches from.
//! - [`sampling`] — Algorithm 1 (naive θ-bounded RWR) and Algorithm 3
//!   (dual-stage adaptive frequency sampling: SCS + BES).
//! - [`loss`] — the Eq. 5 probabilistic penalty loss.
//! - [`train`] — Algorithm 2 DP-SGD with per-subgraph clipping, Gaussian or
//!   SML noise, and σ calibration via the Theorem 3 accountant; its one
//!   epoch loop serves both training entry points.
//! - [`indicator`] — the Gamma-pdf parameter-selection indicator
//!   (Eqs. 10–12, Appendix H fitting).
//! - [`pipeline`] — end-to-end runs of PrivIM, PrivIM+SCS, PrivIM*, EGN,
//!   HP, HP-GRAT and the non-private reference.
//! - [`checkpoint`] — atomic, CRC-verified training checkpoints with
//!   generation retention.
//! - [`resume`] — crash-safe training: kill it anywhere, resume
//!   from the last durable generation, and get bit-identical final
//!   weights and an exactly re-verified ε schedule.
//!
//! # Quickstart
//!
//! ```
//! use privim_core::config::PrivImConfig;
//! use privim_core::pipeline::{run_method, Method};
//! use privim_datasets::paper::Dataset;
//!
//! let graph = Dataset::Email.generate(0.25, 42); // 250-node Email replica
//! let config = PrivImConfig {
//!     epsilon: Some(4.0),
//!     ..PrivImConfig::small()
//! };
//! let result = run_method(&graph, Method::PrivImStar, &config, 7);
//! assert_eq!(result.seeds.len(), config.seed_size);
//! assert!(result.sigma.is_some()); // noise was calibrated and injected
//! ```

pub mod checkpoint;
pub mod config;
pub mod container;
pub mod evaluate;
pub mod indicator;
pub mod loss;
pub mod pipeline;
pub mod resume;
pub mod sampling;
pub mod train;

pub use checkpoint::{crc32, CheckpointError, CheckpointStore, TrainCheckpoint};
pub use config::PrivImConfig;
pub use container::{SubgraphContainer, SubgraphSample};
pub use evaluate::{scorecard, seed_jaccard, Scorecard};
pub use indicator::Indicator;
pub use pipeline::{run_method, run_method_with_candidates, Method, PipelineResult};
pub use resume::{train_resumable, BudgetHalt, ResumableOutcome, ResumeError, ResumeOptions};
pub use train::{train, NoiseKind, PrivacySetup, TrainError, TrainReport};
