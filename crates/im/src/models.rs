//! Influence diffusion models.
//!
//! The paper's experiments use the Independent Cascade (IC) model
//! (Definition 6) with uniform influence probability `w = 1` and a one-step
//! horizon; [`DiffusionModel`] also provides the Linear Threshold (LT) and
//! SIS models named as future work in Section VII.

use privim_graph::{Graph, NodeId};
use rand::Rng;

/// Which diffusion process to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiffusionModel {
    /// Independent Cascade: each newly activated `u` gets one chance to
    /// activate each inactive out-neighbor `v` with probability `w_uv`.
    IndependentCascade,
    /// Linear Threshold: node `v` activates once the total weight of its
    /// active in-neighbors reaches a uniform random threshold `θ_v`.
    LinearThreshold,
    /// SIS epidemic: infected nodes infect out-neighbors with probability
    /// `w_uv` each step and recover (back to susceptible) with probability
    /// `recovery`. Spread counts nodes *ever* infected.
    Sis {
        /// Per-step recovery probability.
        recovery: f64,
    },
}

/// Diffusion run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffusionConfig {
    /// The model to run.
    pub model: DiffusionModel,
    /// Maximum number of diffusion steps (`None` = until quiescence). The
    /// paper's evaluation uses `Some(1)`.
    pub max_steps: Option<usize>,
}

impl DiffusionConfig {
    /// The paper's evaluation setting: IC with a `j`-step horizon.
    pub fn ic_with_steps(steps: usize) -> Self {
        DiffusionConfig {
            model: DiffusionModel::IndependentCascade,
            max_steps: Some(steps),
        }
    }

    /// IC run to quiescence.
    pub fn ic_unbounded() -> Self {
        DiffusionConfig {
            model: DiffusionModel::IndependentCascade,
            max_steps: None,
        }
    }
}

/// Runs a single stochastic cascade from `seeds`; returns the number of
/// activated nodes (including the seeds). Loops over many cascades keep
/// one [`CascadeScratch`] instead.
pub fn simulate_cascade<R: Rng + ?Sized>(
    g: &Graph,
    seeds: &[NodeId],
    config: &DiffusionConfig,
    rng: &mut R,
) -> usize {
    CascadeScratch::default().simulate(g, seeds, config, rng)
}

/// The state one cascade leaves behind for the next: epoch-stamped visit
/// marks, so a trial starts without clearing a node array, and the
/// frontier buffers. After the first trial on a graph, IC and LT trials
/// allocate nothing. Draws from the RNG exactly as fresh state would.
#[derive(Debug, Default)]
pub struct CascadeScratch {
    /// Stamp of the current trial; never 0 during one.
    epoch: u32,
    /// `mark[v] == epoch` ⇔ `v` is active in the current trial.
    mark: Vec<u32>,
    /// LT: `weight_in[v]` holds this trial's incoming active weight
    /// while `seen[v] == epoch`, and counts as 0 otherwise.
    seen: Vec<u32>,
    weight_in: Vec<f64>,
    /// LT: this trial's thresholds.
    thresholds: Vec<f64>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl CascadeScratch {
    /// Runs one cascade from `seeds`; returns the number of activated
    /// nodes (including the seeds).
    pub fn simulate<R: Rng + ?Sized>(
        &mut self,
        g: &Graph,
        seeds: &[NodeId],
        config: &DiffusionConfig,
        rng: &mut R,
    ) -> usize {
        match config.model {
            DiffusionModel::IndependentCascade => self.ic(g, seeds, config.max_steps, rng),
            DiffusionModel::LinearThreshold => self.lt(g, seeds, config.max_steps, rng),
            DiffusionModel::Sis { recovery } => {
                let steps = config.max_steps.unwrap_or(10);
                let ever = simulate_sis(g, seeds, steps, recovery, rng);
                ever.iter().filter(|&&e| e).count()
            }
        }
    }

    /// Starts a trial on `n` nodes with the seeds active and on the
    /// frontier; returns how many distinct seeds there are.
    fn begin(&mut self, n: usize, seeds: &[NodeId]) -> usize {
        if self.mark.len() != n {
            // A node joins a frontier at most once per trial.
            self.mark = vec![0; n];
            self.frontier = Vec::with_capacity(n);
            self.next = Vec::with_capacity(n);
            self.seen.clear();
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.frontier.clear();
        let mut count = 0;
        for &s in seeds {
            if self.mark[s as usize] != self.epoch {
                self.mark[s as usize] = self.epoch;
                self.frontier.push(s);
                count += 1;
            }
        }
        count
    }

    fn ic<R: Rng + ?Sized>(
        &mut self,
        g: &Graph,
        seeds: &[NodeId],
        max_steps: Option<usize>,
        rng: &mut R,
    ) -> usize {
        let mut count = self.begin(g.num_nodes(), seeds);
        let Self {
            epoch,
            mark,
            frontier,
            next,
            ..
        } = self;
        let mut step = 0usize;
        while !frontier.is_empty() && max_steps.is_none_or(|m| step < m) {
            next.clear();
            for &u in frontier.iter() {
                for (&v, &w) in g.out_neighbors(u).iter().zip(g.out_weights(u)) {
                    let v_mark = &mut mark[v as usize];
                    if *v_mark != *epoch && (w >= 1.0 || rng.gen::<f64>() < w) {
                        *v_mark = *epoch;
                        next.push(v);
                        count += 1;
                    }
                }
            }
            std::mem::swap(frontier, next);
            step += 1;
        }
        count
    }

    fn lt<R: Rng + ?Sized>(
        &mut self,
        g: &Graph,
        seeds: &[NodeId],
        max_steps: Option<usize>,
        rng: &mut R,
    ) -> usize {
        let n = g.num_nodes();
        self.thresholds.clear();
        self.thresholds.extend((0..n).map(|_| rng.gen::<f64>()));
        let mut count = self.begin(n, seeds);
        if self.seen.len() != n {
            self.seen = vec![0; n];
            self.weight_in = vec![0.0; n];
        }
        let Self {
            epoch,
            mark,
            seen,
            weight_in,
            thresholds,
            frontier,
            next,
        } = self;
        let mut step = 0usize;
        while !frontier.is_empty() && max_steps.is_none_or(|m| step < m) {
            next.clear();
            for &u in frontier.iter() {
                for (&v, &w) in g.out_neighbors(u).iter().zip(g.out_weights(u)) {
                    let v = v as usize;
                    if mark[v] == *epoch {
                        continue;
                    }
                    if seen[v] != *epoch {
                        seen[v] = *epoch;
                        weight_in[v] = 0.0;
                    }
                    weight_in[v] += w;
                    if weight_in[v] >= thresholds[v] {
                        mark[v] = *epoch;
                        next.push(v as NodeId);
                        count += 1;
                    }
                }
            }
            std::mem::swap(frontier, next);
            step += 1;
        }
        count
    }

    /// The current trial's activation mask.
    fn active(&self) -> Vec<bool> {
        self.mark.iter().map(|&m| m == self.epoch).collect()
    }
}

/// SIS from `seeds` for `steps` steps; returns the mask of nodes ever
/// infected.
fn simulate_sis<R: Rng + ?Sized>(
    g: &Graph,
    seeds: &[NodeId],
    steps: usize,
    recovery: f64,
    rng: &mut R,
) -> Vec<bool> {
    let n = g.num_nodes();
    let mut infected = vec![false; n];
    let mut ever = vec![false; n];
    for &s in seeds {
        infected[s as usize] = true;
        ever[s as usize] = true;
    }
    for _ in 0..steps {
        let snapshot = infected.clone();
        for u in 0..n as NodeId {
            if !snapshot[u as usize] {
                continue;
            }
            for (&v, &w) in g.out_neighbors(u).iter().zip(g.out_weights(u)) {
                if !snapshot[v as usize] && (w >= 1.0 || rng.gen::<f64>() < w) {
                    infected[v as usize] = true;
                    ever[v as usize] = true;
                }
            }
            if rng.gen::<f64>() < recovery {
                infected[u as usize] = false;
            }
        }
    }
    ever
}

/// Like [`simulate_cascade`] but returns the activation mask (`true` for
/// every node that was activated at any point) instead of only the count.
/// Needed by monitor-placement and blocking applications that ask *which*
/// nodes a cascade reached.
pub fn simulate_cascade_mask<R: Rng + ?Sized>(
    g: &Graph,
    seeds: &[NodeId],
    config: &DiffusionConfig,
    rng: &mut R,
) -> Vec<bool> {
    match config.model {
        DiffusionModel::Sis { recovery } => {
            simulate_sis(g, seeds, config.max_steps.unwrap_or(10), recovery, rng)
        }
        _ => {
            let mut scratch = CascadeScratch::default();
            scratch.simulate(g, seeds, config, rng);
            scratch.active()
        }
    }
}

/// Exact 1-step IC spread under deterministic weights (`w = 1`):
/// `|S ∪ N_out(S)|`. This is the paper's evaluation objective, which makes
/// the spread an exact coverage function (and CELF exact lazy greedy).
pub fn deterministic_one_step_coverage(g: &Graph, seeds: &[NodeId]) -> usize {
    let mut covered = vec![false; g.num_nodes()];
    let mut count = 0usize;
    for &s in seeds {
        if !covered[s as usize] {
            covered[s as usize] = true;
            count += 1;
        }
        for &v in g.out_neighbors(s) {
            if !covered[v as usize] {
                covered[v as usize] = true;
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn star_out(spokes: usize) -> Graph {
        let mut b = GraphBuilder::new(spokes + 1);
        for i in 1..=spokes {
            b.add_edge(0, i as NodeId, 1.0);
        }
        b.build()
    }

    fn path(n: usize, w: f64) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, (i + 1) as NodeId, w);
        }
        b.build()
    }

    #[test]
    fn ic_with_unit_weights_is_deterministic() {
        let g = star_out(5);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = DiffusionConfig::ic_with_steps(1);
        assert_eq!(simulate_cascade(&g, &[0], &cfg, &mut rng), 6);
        // From a spoke, nothing spreads.
        assert_eq!(simulate_cascade(&g, &[3], &cfg, &mut rng), 1);
    }

    #[test]
    fn ic_step_cap_limits_reach() {
        let g = path(10, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        for steps in 0..5 {
            let cfg = DiffusionConfig::ic_with_steps(steps);
            assert_eq!(simulate_cascade(&g, &[0], &cfg, &mut rng), steps + 1);
        }
        let unbounded = DiffusionConfig::ic_unbounded();
        assert_eq!(simulate_cascade(&g, &[0], &unbounded, &mut rng), 10);
    }

    #[test]
    fn ic_zero_weight_never_spreads() {
        let g = path(5, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = DiffusionConfig::ic_unbounded();
        assert_eq!(simulate_cascade(&g, &[0], &cfg, &mut rng), 1);
    }

    #[test]
    fn ic_probability_half_matches_expectation_on_single_edge() {
        let g = path(2, 0.5);
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = DiffusionConfig::ic_with_steps(1);
        let trials = 40_000;
        let total: usize = (0..trials)
            .map(|_| simulate_cascade(&g, &[0], &cfg, &mut rng))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 1.5).abs() < 0.02, "mean spread {mean}");
    }

    #[test]
    fn duplicate_seeds_count_once() {
        let g = star_out(3);
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = DiffusionConfig::ic_with_steps(1);
        assert_eq!(simulate_cascade(&g, &[0, 0, 0], &cfg, &mut rng), 4);
    }

    #[test]
    fn lt_full_weight_acts_like_bfs() {
        // With w = 1, every threshold θ ∈ (0,1] is met by a single active
        // in-neighbor, so LT spreads like deterministic BFS.
        let g = path(6, 1.0);
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = DiffusionConfig {
            model: DiffusionModel::LinearThreshold,
            max_steps: None,
        };
        assert_eq!(simulate_cascade(&g, &[0], &cfg, &mut rng), 6);
    }

    #[test]
    fn lt_sub_threshold_weights_stall() {
        // One in-edge of weight 0.3 activates v only if θ_v ≤ 0.3.
        let g = path(2, 0.3);
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = DiffusionConfig {
            model: DiffusionModel::LinearThreshold,
            max_steps: None,
        };
        let trials = 40_000;
        let total: usize = (0..trials)
            .map(|_| simulate_cascade(&g, &[0], &cfg, &mut rng))
            .sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 1.3).abs() < 0.02, "mean spread {mean}");
    }

    #[test]
    fn sis_counts_ever_infected() {
        let g = star_out(4);
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = DiffusionConfig {
            model: DiffusionModel::Sis { recovery: 1.0 },
            max_steps: Some(3),
        };
        // Recovery of 1 means the hub recovers immediately after step 1,
        // but all spokes were infected in step 1.
        assert_eq!(simulate_cascade(&g, &[0], &cfg, &mut rng), 5);
    }

    #[test]
    fn coverage_matches_ic_one_step_with_unit_weights() {
        let g = star_out(7);
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = DiffusionConfig::ic_with_steps(1);
        for seeds in [vec![0], vec![1, 2], vec![0, 5]] {
            assert_eq!(
                deterministic_one_step_coverage(&g, &seeds),
                simulate_cascade(&g, &seeds, &cfg, &mut rng),
                "seeds {seeds:?}"
            );
        }
    }

    #[test]
    fn coverage_is_monotone_and_bounded() {
        let g = path(8, 1.0);
        let mut seeds = Vec::new();
        let mut prev = 0;
        for s in [0u32, 3, 6, 7] {
            seeds.push(s);
            let c = deterministic_one_step_coverage(&g, &seeds);
            assert!(c >= prev);
            assert!(c <= 8);
            prev = c;
        }
    }

    #[test]
    fn a_reused_scratch_matches_fresh_state_across_graphs_and_models() {
        let lt = DiffusionConfig {
            model: DiffusionModel::LinearThreshold,
            max_steps: None,
        };
        let runs = [
            (path(12, 0.6), DiffusionConfig::ic_unbounded()),
            (star_out(5), lt),
            (path(12, 0.6), lt),
            (star_out(5), DiffusionConfig::ic_with_steps(1)),
        ];
        let mut scratch = CascadeScratch::default();
        let (mut reused, mut fresh) = (StdRng::seed_from_u64(4), StdRng::seed_from_u64(4));
        for (g, cfg) in runs.iter().cycle().take(40) {
            let a = scratch.simulate(g, &[0, 2], cfg, &mut reused);
            assert_eq!(a, simulate_cascade(g, &[0, 2], cfg, &mut fresh));
            let mask = scratch.active();
            assert_eq!(mask.iter().filter(|&&m| m).count(), a);
        }
    }
}
