//! Influence-maximization substrate: diffusion simulation, seed selection
//! and evaluation metrics.
//!
//! - [`models`] — Independent Cascade (Definition 6), Linear Threshold and
//!   SIS diffusion, plus the exact one-step coverage objective the paper
//!   evaluates (`w = 1`, `j = 1`).
//! - [`spread`] — Monte Carlo / exact spread estimation, optionally
//!   multi-threaded.
//! - [`greedy`] — CELF lazy greedy (the paper's ground truth with its
//!   `(1 − 1/e)` guarantee), degree and random heuristics.
//! - [`ris`] — Reverse Influence Sampling (TIM/IMM family), the
//!   sampling-based traditional approach from the paper's related work.
//! - [`metrics`] — top-k seed extraction, coverage ratio, mean ± std.
//!
//! # Example
//!
//! ```
//! use privim_graph::GraphBuilder;
//! use privim_im::greedy::celf_coverage;
//! use privim_im::metrics::coverage_ratio;
//!
//! let mut b = GraphBuilder::new(5);
//! for i in 1..5 {
//!     b.add_edge(0, i, 1.0);
//! }
//! let g = b.build();
//! let (seeds, spread) = celf_coverage(&g, 1);
//! assert_eq!(seeds, vec![0]);
//! assert_eq!(spread, 5.0);
//! assert_eq!(coverage_ratio(4.0, spread), 80.0);
//! ```

pub mod greedy;
pub mod metrics;
pub mod models;
pub mod monitoring;
pub mod ris;
pub mod spread;

pub use greedy::{
    celf_coverage, celf_monte_carlo, celf_monte_carlo_threaded, degree_heuristic, random_seeds,
};
pub use metrics::{coverage_ratio, mean_std, top_k_seeds};
pub use models::{CascadeScratch, DiffusionConfig, DiffusionModel};
pub use monitoring::detection_rate;
pub use ris::{ris_seed_selection, RrCollection};
pub use spread::{influence_spread, influence_spread_parallel, SpreadError};
