//! Rényi-DP accounting for PrivIM's subgraph-sampled Gaussian mechanism.
//!
//! Implements Theorem 3 of the paper: one DP-SGD iteration over a batch of
//! `B` subgraphs drawn from a container of `m`, where any individual node
//! appears in at most `N_g` subgraphs, satisfies `(α, γ)`-RDP with
//!
//! ```text
//! γ(α) = 1/(α−1) · ln Σ_{i=0}^{N_g} Binom(B, N_g/m; i) · exp(α(α−1) i² / (2 N_g² σ²))
//! ```
//!
//! composed linearly over `T` iterations (Definition 5) and converted to
//! `(ε, δ)`-DP via Theorem 1. `N_g` is `Σ_{i=0}^{r} θ^i` for the naive
//! pipeline (Lemma 1) and the frequency threshold `M` for the dual-stage
//! pipeline (`N_g* = M`).

use crate::math::{ln_binomial, log_sum_exp};

/// Default α grid; spans the orders at which DP-SGD-style mechanisms are
/// typically tightest.
pub const DEFAULT_ORDERS: [f64; 20] = [
    1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 32.0, 64.0,
    128.0, 256.0, 512.0,
];

/// Sampling configuration of one Algorithm 2 run, from the accountant's
/// point of view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubsampledConfig {
    /// Maximum occurrences of any node across the subgraph container
    /// (`N_g` from Lemma 1, or `N_g* = M` for the dual-stage scheme).
    pub max_occurrences: usize,
    /// Batch size `B`.
    pub batch_size: usize,
    /// Container size `m = |G_sub|`.
    pub container_size: usize,
}

impl SubsampledConfig {
    /// Effective subgraph sampling ratio `q = N_g / m`, clamped to `[0, 1]`.
    pub fn affected_fraction(&self) -> f64 {
        if self.container_size == 0 {
            return 1.0;
        }
        (self.max_occurrences as f64 / self.container_size as f64).min(1.0)
    }
}

/// Which adjacency notion the DP guarantee is stated against
/// (Definition 2). Node-level adjacency (graphs differing by one node and
/// all its edges) strictly implies edge-level adjacency (differing by one
/// edge), so any node-level bound is also a valid edge-level bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjacencyLevel {
    /// Adjacent graphs differ by one node and every edge touching it (the
    /// paper's primary setting; the stronger guarantee).
    Node,
    /// Adjacent graphs differ by a single edge.
    Edge,
}

impl AdjacencyLevel {
    /// The occurrence bound to feed the accountant, given the node-level
    /// bound `node_bound` and (for edge-level) an optional tighter
    /// *pair co-occurrence* bound measured or derived for the sampler:
    /// an edge only affects subgraphs containing both of its endpoints, so
    /// its occurrence count is at most `node_bound` and often far smaller.
    pub fn occurrence_bound(self, node_bound: usize, pair_bound: Option<usize>) -> usize {
        match self {
            AdjacencyLevel::Node => node_bound,
            AdjacencyLevel::Edge => pair_bound.map_or(node_bound, |p| p.min(node_bound)),
        }
    }
}

/// Lemma 1: the naive pipeline's occurrence bound
/// `N_g = Σ_{i=0}^{r} θⁱ = (θ^{r+1} − 1) / (θ − 1)`.
pub fn naive_occurrence_bound(theta: usize, layers: usize) -> usize {
    if theta == 1 {
        return layers + 1;
    }
    let mut total = 0usize;
    let mut power = 1usize;
    for _ in 0..=layers {
        total = total.saturating_add(power);
        power = power.saturating_mul(theta);
    }
    total
}

/// One-iteration RDP of the subgraph-sampled Gaussian mechanism at order
/// `alpha` (Eq. 23). `sigma` is the noise multiplier (the noise std is
/// `σ · Δ_g` with `Δ_g = C · N_g`, Lemma 2).
pub fn subsampled_gaussian_rdp(alpha: f64, sigma: f64, config: &SubsampledConfig) -> f64 {
    assert!(alpha > 1.0, "RDP order must exceed 1");
    assert!(sigma > 0.0, "noise multiplier must be positive");
    let n_g = config.max_occurrences as f64;
    assert!(n_g >= 1.0, "max_occurrences must be at least 1");
    let b = config.batch_size as u64;
    let q = config.affected_fraction();
    // i counts how many of the batch's B draws hit an affected subgraph.
    // The container holds only N_g affected subgraphs and batches are
    // sampled without replacement, so i ≤ min(N_g, B); Eq. 23 therefore
    // truncates the binomial at N_g (the per-subgraph shift is ≤ C, so i
    // affected subgraphs shift the clipped sum by ≤ i·C ≤ N_g·C = Δ_g).
    let i_max = (config.max_occurrences as u64).min(b);
    let mut terms = Vec::with_capacity(i_max as usize + 2);
    let mut mass = 0.0f64;
    for i in 0..=i_max {
        let ln_rho = if q >= 1.0 {
            // Degenerate sampling: every draw is affected.
            if i == b {
                0.0
            } else {
                f64::NEG_INFINITY
            }
        } else {
            ln_binomial(b, i) + i as f64 * q.ln() + (b - i) as f64 * (1.0 - q).ln()
        };
        mass += ln_rho.exp();
        let exponent =
            alpha * (alpha - 1.0) * (i as f64) * (i as f64) / (2.0 * n_g * n_g * sigma * sigma);
        terms.push(ln_rho + exponent);
    }
    // Eq. 23 truncates the binomial at N_g because sampling without
    // replacement cannot pick more than the N_g affected subgraphs. The
    // with-replacement binomial model may still carry mass beyond the
    // truncation point (only in degenerate regimes like B approaching m);
    // assign that residual its worst-case shift (i = N_g, exponent
    // α(α−1)/(2σ²)) so the mixture stays a probability distribution and
    // the bound stays conservative.
    let residual = (1.0 - mass).max(0.0);
    if residual > 0.0 {
        let worst = alpha * (alpha - 1.0) / (2.0 * sigma * sigma);
        terms.push(residual.ln() + worst);
    }
    log_sum_exp(&terms) / (alpha - 1.0)
}

/// Theorem 1: converts `(α, γ)`-RDP to `(ε, δ)`-DP:
/// `ε = γ + ln((α−1)/α) − (ln δ + ln α)/(α−1)`.
pub fn rdp_to_epsilon(gamma: f64, alpha: f64, delta: f64) -> f64 {
    assert!(
        alpha > 1.0 && delta > 0.0 && delta < 1.0,
        "invalid (alpha, delta)"
    );
    gamma + ((alpha - 1.0) / alpha).ln() - (delta.ln() + alpha.ln()) / (alpha - 1.0)
}

/// Accumulates RDP over the α grid and converts to `(ε, δ)` on demand.
#[derive(Debug, Clone)]
pub struct RdpAccountant {
    orders: Vec<f64>,
    gammas: Vec<f64>,
}

impl Default for RdpAccountant {
    fn default() -> Self {
        Self::new(&DEFAULT_ORDERS)
    }
}

impl RdpAccountant {
    /// An accountant over the given α grid.
    pub fn new(orders: &[f64]) -> Self {
        assert!(
            !orders.is_empty() && orders.iter().all(|&a| a > 1.0),
            "orders must be > 1"
        );
        RdpAccountant {
            orders: orders.to_vec(),
            gammas: vec![0.0; orders.len()],
        }
    }

    /// Rebuilds an accountant from persisted state (the exact `(α, γ)`
    /// pairs a checkpoint captured). Crash-safe resume depends on this
    /// being lossless: the γ values are restored bit-for-bit, so the
    /// resumed accountant reports the same ε the original would have.
    pub fn with_state(orders: Vec<f64>, gammas: Vec<f64>) -> Self {
        assert!(
            !orders.is_empty() && orders.iter().all(|&a| a > 1.0),
            "orders must be > 1"
        );
        assert_eq!(
            orders.len(),
            gammas.len(),
            "orders and gammas must be parallel"
        );
        assert!(
            gammas.iter().all(|&g| g >= 0.0 && g.is_finite()),
            "gammas must be finite and non-negative"
        );
        RdpAccountant { orders, gammas }
    }

    /// The α grid.
    pub fn orders(&self) -> &[f64] {
        &self.orders
    }

    /// The accumulated γ(α) values, parallel to [`RdpAccountant::orders`].
    pub fn gammas(&self) -> &[f64] {
        &self.gammas
    }

    /// Sequential composition (Definition 5): adds `steps` iterations of
    /// the subgraph-sampled Gaussian mechanism.
    pub fn compose_subsampled_gaussian(
        &mut self,
        sigma: f64,
        config: &SubsampledConfig,
        steps: usize,
    ) {
        for (gamma, &alpha) in self.gammas.iter_mut().zip(&self.orders) {
            *gamma += steps as f64 * subsampled_gaussian_rdp(alpha, sigma, config);
        }
    }

    /// Best `ε` at the given `δ`, minimizing Theorem 1 over the α grid.
    /// Returns `(epsilon, best_alpha)`.
    pub fn epsilon(&self, delta: f64) -> (f64, f64) {
        self.orders
            .iter()
            .zip(&self.gammas)
            .map(|(&alpha, &gamma)| (rdp_to_epsilon(gamma, alpha, delta), alpha))
            .filter(|(eps, _)| eps.is_finite())
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("at least one order yields finite epsilon")
    }

    /// The cumulative `(ε, best α)` after each of `steps` iterations of
    /// the subsampled Gaussian mechanism at noise multiplier `sigma`,
    /// starting from this accountant's current state (which is not
    /// modified). One γ evaluation per order, `O(steps × orders)` total —
    /// cheap enough to drive per-step telemetry.
    pub fn epsilon_schedule(
        &self,
        sigma: f64,
        config: &SubsampledConfig,
        steps: usize,
        delta: f64,
    ) -> Vec<(f64, f64)> {
        let per_step: Vec<f64> = self
            .orders
            .iter()
            .map(|&alpha| subsampled_gaussian_rdp(alpha, sigma, config))
            .collect();
        let mut gammas = self.gammas.clone();
        let mut schedule = Vec::with_capacity(steps);
        for _ in 0..steps {
            for (gamma, inc) in gammas.iter_mut().zip(&per_step) {
                *gamma += inc;
            }
            let best = self
                .orders
                .iter()
                .zip(&gammas)
                .map(|(&alpha, &gamma)| (rdp_to_epsilon(gamma, alpha, delta), alpha))
                .filter(|(eps, _)| eps.is_finite())
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("at least one order yields finite epsilon");
            schedule.push(best);
        }
        schedule
    }
}

/// Calibrates the smallest noise multiplier σ such that `steps` iterations
/// stay within `(target_epsilon, delta)`-DP, by bisection.
///
/// Returns σ; panics if the target is unattainable within the search
/// bracket (σ up to 1e6).
pub fn calibrate_sigma(
    target_epsilon: f64,
    delta: f64,
    config: &SubsampledConfig,
    steps: usize,
) -> f64 {
    assert!(target_epsilon > 0.0, "epsilon must be positive");
    let eps_at = |sigma: f64| {
        let mut acct = RdpAccountant::default();
        acct.compose_subsampled_gaussian(sigma, config, steps);
        acct.epsilon(delta).0
    };
    let (mut lo, mut hi) = (1e-3, 1.0);
    while eps_at(hi) > target_epsilon {
        lo = hi;
        hi *= 2.0;
        assert!(
            hi <= 1e6,
            "cannot reach epsilon {target_epsilon} with sigma <= 1e6"
        );
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if eps_at(mid) > target_epsilon {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    privim_obs::debug!(
        "dp",
        "calibrated",
        sigma = hi,
        target_epsilon = target_epsilon,
        delta = delta,
        steps = steps,
        max_occurrences = config.max_occurrences,
        achieved_epsilon = eps_at(hi),
    );
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SubsampledConfig {
        SubsampledConfig {
            max_occurrences: 4,
            batch_size: 16,
            container_size: 256,
        }
    }

    #[test]
    fn lemma1_bound_matches_geometric_series() {
        assert_eq!(naive_occurrence_bound(10, 3), 1111);
        assert_eq!(naive_occurrence_bound(2, 2), 7);
        assert_eq!(naive_occurrence_bound(1, 3), 4);
        assert_eq!(naive_occurrence_bound(5, 0), 1);
    }

    #[test]
    fn rdp_decreases_with_sigma() {
        let c = config();
        let lo = subsampled_gaussian_rdp(4.0, 0.5, &c);
        let mid = subsampled_gaussian_rdp(4.0, 1.0, &c);
        let hi = subsampled_gaussian_rdp(4.0, 4.0, &c);
        assert!(lo > mid && mid > hi, "{lo} {mid} {hi}");
        assert!(hi > 0.0);
    }

    #[test]
    fn rdp_decreases_with_occurrences_at_fixed_multiplier() {
        // The noise *multiplier* σ scales the sensitivity Δ_g = C·N_g, so
        // at fixed σ a larger N_g injects more absolute noise and the RDP
        // cost per iteration drops. The price of a large N_g is paid in
        // utility (absolute noise at equal ε), covered by
        // `calibrated_sigma_grows_with_occurrence_bound`.
        let small = SubsampledConfig {
            max_occurrences: 2,
            ..config()
        };
        let large = SubsampledConfig {
            max_occurrences: 32,
            ..config()
        };
        let g_small = subsampled_gaussian_rdp(8.0, 1.0, &small);
        let g_large = subsampled_gaussian_rdp(8.0, 1.0, &large);
        assert!(g_large < g_small, "{g_large} >= {g_small}");
    }

    #[test]
    fn rdp_increases_with_batch_size() {
        let small = SubsampledConfig {
            batch_size: 4,
            ..config()
        };
        let large = SubsampledConfig {
            batch_size: 128,
            ..config()
        };
        assert!(
            subsampled_gaussian_rdp(4.0, 1.0, &large) > subsampled_gaussian_rdp(4.0, 1.0, &small)
        );
    }

    #[test]
    fn degenerate_full_sampling_matches_gaussian_rdp() {
        // q = 1, B draws all affected: shift ≤ N_g·C, so γ ≤ α·B²/(2N_g²σ²)
        // with B = N_g reduces to the plain Gaussian α/(2σ²).
        let c = SubsampledConfig {
            max_occurrences: 8,
            batch_size: 8,
            container_size: 8,
        };
        let alpha = 6.0;
        let sigma = 2.0;
        let got = subsampled_gaussian_rdp(alpha, sigma, &c);
        let want = alpha / (2.0 * sigma * sigma);
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn epsilon_composes_linearly_in_gamma() {
        let c = config();
        let mut one = RdpAccountant::default();
        one.compose_subsampled_gaussian(1.0, &c, 1);
        let mut ten = RdpAccountant::default();
        ten.compose_subsampled_gaussian(1.0, &c, 10);
        let (e1, _) = one.epsilon(1e-5);
        let (e10, _) = ten.epsilon(1e-5);
        assert!(e10 > e1);
        // Strong composition: ε grows sublinearly with T at fixed δ.
        assert!(e10 < 10.0 * e1);
    }

    #[test]
    fn theorem1_conversion_formula() {
        // Hand-check: γ=1, α=2, δ=1e-5.
        let eps = rdp_to_epsilon(1.0, 2.0, 1e-5);
        let want = 1.0 + (0.5f64).ln() - ((1e-5f64).ln() + (2f64).ln()) / 1.0;
        assert!((eps - want).abs() < 1e-12);
    }

    #[test]
    fn calibration_hits_target() {
        let c = config();
        for &target in &[1.0, 3.0, 6.0] {
            let sigma = calibrate_sigma(target, 1e-5, &c, 50);
            let mut acct = RdpAccountant::default();
            acct.compose_subsampled_gaussian(sigma, &c, 50);
            let (eps, _) = acct.epsilon(1e-5);
            assert!(
                eps <= target * 1.0001,
                "target {target}: got {eps} with sigma {sigma}"
            );
            // And σ is not wastefully large: slightly smaller σ must violate.
            let mut acct2 = RdpAccountant::default();
            acct2.compose_subsampled_gaussian(sigma * 0.98, &c, 50);
            assert!(acct2.epsilon(1e-5).0 > target * 0.999);
        }
    }

    #[test]
    fn calibrated_sigma_decreases_with_epsilon() {
        let c = config();
        let s1 = calibrate_sigma(1.0, 1e-5, &c, 100);
        let s6 = calibrate_sigma(6.0, 1e-5, &c, 100);
        assert!(s1 > s6, "sigma(eps=1)={s1} should exceed sigma(eps=6)={s6}");
    }

    #[test]
    fn calibrated_sigma_grows_with_occurrence_bound() {
        // The dual-stage scheme's whole point: smaller N_g* = M ⇒ less noise.
        let naive = SubsampledConfig {
            max_occurrences: 100,
            batch_size: 16,
            container_size: 256,
        };
        let freq = SubsampledConfig {
            max_occurrences: 4,
            batch_size: 16,
            container_size: 256,
        };
        let s_naive = calibrate_sigma(3.0, 1e-5, &naive, 100);
        let s_freq = calibrate_sigma(3.0, 1e-5, &freq, 100);
        // Noise std is σ·C·N_g, so compare absolute noise.
        assert!(
            s_naive * 100.0 > s_freq * 4.0,
            "absolute noise should shrink with the frequency bound"
        );
    }

    #[test]
    fn epsilon_schedule_matches_step_by_step_composition() {
        let c = config();
        let schedule = RdpAccountant::default().epsilon_schedule(1.2, &c, 5, 1e-5);
        assert_eq!(schedule.len(), 5);
        let mut acct = RdpAccountant::default();
        for (step, &(eps, alpha)) in schedule.iter().enumerate() {
            acct.compose_subsampled_gaussian(1.2, &c, 1);
            let (want_eps, want_alpha) = acct.epsilon(1e-5);
            assert!(
                (eps - want_eps).abs() < 1e-9,
                "step {step}: {eps} vs {want_eps}"
            );
            assert_eq!(alpha, want_alpha, "step {step}");
        }
        // Cumulative spend is monotone.
        for w in schedule.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn adjacency_levels_pick_correct_bounds() {
        assert_eq!(AdjacencyLevel::Node.occurrence_bound(10, Some(3)), 10);
        assert_eq!(AdjacencyLevel::Edge.occurrence_bound(10, Some(3)), 3);
        assert_eq!(AdjacencyLevel::Edge.occurrence_bound(10, None), 10);
        assert_eq!(AdjacencyLevel::Edge.occurrence_bound(2, Some(5)), 2);
    }

    #[test]
    fn edge_level_never_needs_more_noise_than_node_level() {
        // Same ε target, tighter occurrence bound → no more absolute noise.
        let node = SubsampledConfig {
            max_occurrences: 12,
            batch_size: 16,
            container_size: 256,
        };
        let edge = SubsampledConfig {
            max_occurrences: 3,
            batch_size: 16,
            container_size: 256,
        };
        let s_node = calibrate_sigma(3.0, 1e-5, &node, 80);
        let s_edge = calibrate_sigma(3.0, 1e-5, &edge, 80);
        assert!(
            s_edge * 3.0 <= s_node * 12.0,
            "edge-level absolute noise must not exceed node-level"
        );
    }

    #[test]
    #[should_panic(expected = "order must exceed 1")]
    fn rejects_alpha_at_most_one() {
        subsampled_gaussian_rdp(1.0, 1.0, &config());
    }
}
