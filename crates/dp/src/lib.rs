//! Differential-privacy substrate for the PrivIM reproduction.
//!
//! - [`math`] — log-Gamma, log-binomial, log-sum-exp, Gamma pdf.
//! - [`mechanisms`] — the Gaussian noise sampler training draws from, and
//!   the Laplace sampler and mechanism of Example 2.
//! - [`rdp`] — the paper's Theorem 3 Rényi-DP accountant for the
//!   subgraph-sampled Gaussian mechanism, Theorem 1 conversion to
//!   `(ε, δ)`-DP, and noise-multiplier calibration.
//! - [`ledger`] — the append-only privacy-budget ledger: one entry per
//!   mechanism invocation (σ, Δ_g, sampling structure, cumulative ε),
//!   composed through an [`RdpAccountant`], exported as `dp`/`mechanism`
//!   telemetry events and replayable offline to re-derive the
//!   accountant's ε.
//! - [`budget`] — the live [`BudgetGuard`] over the ledger: projects the
//!   accountant-exact ε of the *next* step and hard-halts a run before
//!   it can overspend a `--epsilon-budget`.
//!
//! # Example: calibrate noise for a PrivIM* run
//!
//! ```
//! use privim_dp::rdp::{calibrate_sigma, SubsampledConfig, RdpAccountant};
//!
//! // Dual-stage sampling with frequency threshold M = 4 (N_g* = 4),
//! // a container of 500 subgraphs, batches of 32, 100 iterations.
//! let config = SubsampledConfig {
//!     max_occurrences: 4,
//!     batch_size: 32,
//!     container_size: 500,
//! };
//! let sigma = calibrate_sigma(3.0, 1e-5, &config, 100);
//!
//! let mut acct = RdpAccountant::default();
//! acct.compose_subsampled_gaussian(sigma, &config, 100);
//! let (eps, _alpha) = acct.epsilon(1e-5);
//! assert!(eps <= 3.0);
//! ```

pub mod budget;
pub mod ledger;
pub mod math;
pub mod mechanisms;
pub mod rdp;

pub use budget::{BudgetDecision, BudgetGuard};
pub use ledger::{replay_records, LedgerEntry, PrivacyLedger};
pub use mechanisms::{gaussian, laplace};
pub use rdp::{
    calibrate_sigma, naive_occurrence_bound, rdp_to_epsilon, subsampled_gaussian_rdp,
    RdpAccountant, SubsampledConfig,
};
