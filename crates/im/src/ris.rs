//! Reverse Influence Sampling (RIS / TIM / IMM family).
//!
//! The paper's related work singles out sampling-based IM methods \[28\] as
//! the traditional approach balancing effectiveness and efficiency; this
//! module implements that family as an additional non-private baseline and
//! as an independent estimator of influence spread.
//!
//! A *reverse-reachable (RR) set* is built by picking a uniform node `v`
//! and sampling the set of nodes that could have influenced `v` under a
//! random realization of the IC model (follow in-edges, keeping each with
//! its influence probability). The classic identity
//! `E[spread(S)] = n · Pr[S hits a random RR set]` turns influence
//! maximization into maximum coverage over RR sets, solved greedily with
//! the `(1 − 1/e − ε)` guarantee.

use rand::Rng;

use privim_graph::{Graph, NodeId};

/// One reverse-reachable set.
pub type RrSet = Vec<NodeId>;

/// Samples one RR set for target `v` under the IC model, optionally
/// bounded to `max_steps` reverse hops (matching the paper's `j`-step
/// evaluation horizon).
pub fn sample_rr_set<R: Rng + ?Sized>(
    g: &Graph,
    v: NodeId,
    max_steps: Option<usize>,
    rng: &mut R,
) -> RrSet {
    let mut visited = vec![false; g.num_nodes()];
    visited[v as usize] = true;
    let mut set = vec![v];
    let mut frontier = vec![v];
    let mut next = Vec::new();
    let mut step = 0usize;
    while !frontier.is_empty() && max_steps.is_none_or(|m| step < m) {
        next.clear();
        for &u in &frontier {
            for (&s, &w) in g.in_neighbors(u).iter().zip(g.in_weights(u)) {
                if !visited[s as usize] && (w >= 1.0 || rng.gen::<f64>() < w) {
                    visited[s as usize] = true;
                    set.push(s);
                    next.push(s);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        step += 1;
    }
    set
}

/// A collection of RR sets with the inverted index needed for greedy
/// maximum coverage.
pub struct RrCollection {
    num_nodes: usize,
    sets: Vec<RrSet>,
    /// For each node, the indices of RR sets containing it.
    membership: Vec<Vec<u32>>,
}

impl RrCollection {
    /// Samples `count` RR sets with uniformly random targets.
    pub fn sample<R: Rng + ?Sized>(
        g: &Graph,
        count: usize,
        max_steps: Option<usize>,
        rng: &mut R,
    ) -> Self {
        assert!(g.num_nodes() > 0, "graph must be non-empty");
        let mut sets = Vec::with_capacity(count);
        let mut membership = vec![Vec::new(); g.num_nodes()];
        for i in 0..count {
            let target = rng.gen_range(0..g.num_nodes() as NodeId);
            let set = sample_rr_set(g, target, max_steps, rng);
            for &node in &set {
                membership[node as usize].push(i as u32);
            }
            sets.push(set);
        }
        RrCollection {
            num_nodes: g.num_nodes(),
            sets,
            membership,
        }
    }

    /// Number of RR sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// True if no RR sets were sampled.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Estimated spread of `seeds`: `n · (covered sets / total sets)`.
    pub fn estimate_spread(&self, seeds: &[NodeId]) -> f64 {
        if self.sets.is_empty() {
            return 0.0;
        }
        let mut covered = vec![false; self.sets.len()];
        let mut count = 0usize;
        for &s in seeds {
            for &idx in &self.membership[s as usize] {
                if !covered[idx as usize] {
                    covered[idx as usize] = true;
                    count += 1;
                }
            }
        }
        self.num_nodes as f64 * count as f64 / self.sets.len() as f64
    }

    /// Greedy maximum coverage over the RR sets: returns `(seeds,
    /// estimated_spread)` with the standard `(1 − 1/e)` guarantee relative
    /// to the sampled coverage objective.
    pub fn select_seeds(&self, k: usize) -> (Vec<NodeId>, f64) {
        let k = k.min(self.num_nodes);
        let mut gain: Vec<i64> = self.membership.iter().map(|m| m.len() as i64).collect();
        let mut covered = vec![false; self.sets.len()];
        let mut chosen = vec![false; self.num_nodes];
        let mut seeds = Vec::with_capacity(k);
        let mut covered_count = 0usize;
        for _ in 0..k {
            // Lazy-free exact greedy: recompute argmax each round (gain
            // updates below keep this O(k · n + total set size)).
            let best = (0..self.num_nodes)
                .filter(|&v| !chosen[v])
                .max_by_key(|&v| (gain[v], std::cmp::Reverse(v)))
                .expect("k <= num_nodes");
            chosen[best] = true;
            seeds.push(best as NodeId);
            for &idx in &self.membership[best] {
                if !covered[idx as usize] {
                    covered[idx as usize] = true;
                    covered_count += 1;
                    // Every other member of this set loses one unit of gain.
                    for &member in &self.sets[idx as usize] {
                        gain[member as usize] -= 1;
                    }
                }
            }
        }
        let spread = self.num_nodes as f64 * covered_count as f64 / self.sets.len().max(1) as f64;
        (seeds, spread)
    }
}

/// The number of RR sets for an `(ε, ℓ)`-style guarantee, following the
/// simplified TIM bound `R = (8 + 2ε) n (ln n + ln 2) / (OPT_lb ε²)` with
/// the trivial lower bound `OPT_lb = k`. Conservatively capped so harness
/// runs stay bounded.
pub fn recommended_rr_count(num_nodes: usize, k: usize, epsilon: f64) -> usize {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let n = num_nodes as f64;
    let raw = (8.0 + 2.0 * epsilon) * n * (n.ln() + std::f64::consts::LN_2)
        / (k.max(1) as f64 * epsilon * epsilon);
    (raw.ceil() as usize).clamp(100, 2_000_000)
}

/// End-to-end RIS seed selection: samples [`recommended_rr_count`] RR sets
/// and runs greedy coverage. Returns `(seeds, estimated_spread)`.
pub fn ris_seed_selection<R: Rng + ?Sized>(
    g: &Graph,
    k: usize,
    epsilon: f64,
    max_steps: Option<usize>,
    rng: &mut R,
) -> (Vec<NodeId>, f64) {
    let count = recommended_rr_count(g.num_nodes(), k, epsilon);
    let collection = RrCollection::sample(g, count, max_steps, rng);
    collection.select_seeds(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::greedy::celf_coverage;
    use crate::models::deterministic_one_step_coverage;

    fn two_stars() -> Graph {
        let mut b = GraphBuilder::new(11);
        for i in 1..=5 {
            b.add_edge(0, i, 1.0);
        }
        for i in 7..=9 {
            b.add_edge(6, i, 1.0);
        }
        b.build()
    }

    #[test]
    fn rr_sets_contain_their_target() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(1);
        for v in g.nodes() {
            let set = sample_rr_set(&g, v, None, &mut rng);
            assert!(set.contains(&v));
        }
    }

    #[test]
    fn rr_set_of_spoke_contains_hub_at_unit_weights() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(2);
        let set = sample_rr_set(&g, 3, None, &mut rng);
        assert!(
            set.contains(&0),
            "w = 1 makes reverse reachability deterministic"
        );
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn step_bound_limits_reverse_depth() {
        // Chain 0 -> 1 -> 2 -> 3.
        let mut b = GraphBuilder::new(4);
        for i in 0..3 {
            b.add_edge(i, i + 1, 1.0);
        }
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(3);
        let bounded = sample_rr_set(&g, 3, Some(1), &mut rng);
        assert_eq!(bounded.len(), 2); // {3, 2}
        let full = sample_rr_set(&g, 3, None, &mut rng);
        assert_eq!(full.len(), 4);
    }

    #[test]
    fn ris_matches_celf_on_deterministic_coverage() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(4);
        let (seeds, _) = ris_seed_selection(&g, 2, 0.3, Some(1), &mut rng);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 6], "RIS must find both hubs");
        let (celf_seeds, celf_spread) = celf_coverage(&g, 2);
        assert_eq!(
            deterministic_one_step_coverage(&g, &seeds) as f64,
            celf_spread,
            "coverage parity with CELF; CELF seeds {celf_seeds:?}"
        );
    }

    #[test]
    fn spread_estimate_converges() {
        // Probabilistic graph: hub 0 reaches 4 spokes with p = 0.5; true
        // 1-step spread of {0} is 1 + 4·0.5 = 3.
        let mut b = GraphBuilder::new(5);
        for i in 1..5 {
            b.add_edge(0, i, 0.5);
        }
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(5);
        let collection = RrCollection::sample(&g, 60_000, Some(1), &mut rng);
        let estimate = collection.estimate_spread(&[0]);
        assert!((estimate - 3.0).abs() < 0.1, "estimate {estimate}");
    }

    #[test]
    fn estimate_is_monotone_in_seed_set() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(6);
        let c = RrCollection::sample(&g, 5_000, None, &mut rng);
        let single = c.estimate_spread(&[0]);
        let both = c.estimate_spread(&[0, 6]);
        assert!(both >= single);
        assert!(c.estimate_spread(&[]) == 0.0);
    }

    #[test]
    fn recommended_count_scales_sensibly() {
        let base = recommended_rr_count(1_000, 10, 0.5);
        assert!(
            recommended_rr_count(10_000, 10, 0.5) > base,
            "more nodes need more sets"
        );
        assert!(
            recommended_rr_count(1_000, 50, 0.5) < base,
            "larger k needs fewer"
        );
        assert!(
            recommended_rr_count(1_000, 10, 0.1) > base,
            "tighter eps needs more"
        );
        assert!(recommended_rr_count(10, 1, 10.0) >= 100, "floor applies");
    }

    #[test]
    fn select_seeds_handles_k_geq_n() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(7);
        let c = RrCollection::sample(&g, 500, None, &mut rng);
        let (seeds, spread) = c.select_seeds(100);
        assert_eq!(seeds.len(), g.num_nodes());
        assert!((spread - g.num_nodes() as f64).abs() < 1e-9);
    }
}
