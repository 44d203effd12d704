//! Seed-selection algorithms: CELF lazy greedy (the paper's ground truth),
//! plus degree and random heuristics used as sanity baselines.
//!
//! Under the paper's evaluation setting (IC, `w = 1`, one step) the spread
//! is an exact monotone submodular coverage function, so CELF returns the
//! classic greedy solution with its `(1 − 1/e)` guarantee — exactly the
//! "ground truth" the paper compares against.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::seq::SliceRandom;
use rand::Rng;

use privim_graph::{Graph, NodeId};

use crate::models::{CascadeScratch, DiffusionConfig};
use crate::spread::{influence_spread_parallel, is_deterministic_one_step, mix_seed, SpreadError};

/// Max-heap entry for CELF's lazy evaluation.
#[derive(Debug, PartialEq)]
struct Candidate {
    gain: f64,
    node: NodeId,
    round: usize,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// CELF lazy greedy for the deterministic one-step coverage objective
/// (`w = 1`, `j = 1`). Exact marginal gains, no simulation needed.
///
/// Returns `(seeds, spread)` where `spread = |S ∪ N_out(S)|`.
pub fn celf_coverage(g: &Graph, k: usize) -> (Vec<NodeId>, f64) {
    let n = g.num_nodes();
    let k = k.min(n);
    let mut covered = vec![false; n];
    let marginal = |v: NodeId, covered: &[bool]| -> f64 {
        let mut gain = usize::from(!covered[v as usize]);
        for &u in g.out_neighbors(v) {
            if !covered[u as usize] && u != v {
                gain += 1;
            }
        }
        gain as f64
    };

    let mut heap: BinaryHeap<Candidate> = g
        .nodes()
        .map(|v| Candidate {
            gain: marginal(v, &covered),
            node: v,
            round: 0,
        })
        .collect();

    let mut seeds = Vec::with_capacity(k);
    let mut spread = 0.0;
    while seeds.len() < k {
        let Some(top) = heap.pop() else { break };
        if top.round == seeds.len() {
            // Gain is current: accept.
            spread += top.gain;
            let v = top.node;
            covered[v as usize] = true;
            for &u in g.out_neighbors(v) {
                covered[u as usize] = true;
            }
            seeds.push(v);
        } else {
            // Stale: re-evaluate lazily (submodularity ⇒ gain only drops).
            let gain = marginal(top.node, &covered);
            heap.push(Candidate {
                gain,
                node: top.node,
                round: seeds.len(),
            });
        }
    }
    (seeds, spread)
}

/// The CELF lazy-greedy skeleton, parameterized over the spread
/// estimator: `estimate(seeds, v)` returns the (estimated) spread of
/// `seeds ∪ {v}`. Both the serial and the multi-threaded Monte-Carlo
/// variants run this exact control flow, so for estimators that agree
/// evaluation-by-evaluation the picked seed sets agree too.
///
/// The stochastic objective is only approximately submodular in its
/// estimates, so lazy evaluations cap at two refreshes per round to bound
/// cost; this matches common CELF practice.
fn celf_lazy<E>(g: &Graph, k: usize, mut estimate: E) -> (Vec<NodeId>, f64)
where
    E: FnMut(&[NodeId], NodeId) -> f64,
{
    let n = g.num_nodes();
    let k = k.min(n);
    let mut seeds: Vec<NodeId> = Vec::with_capacity(k);
    let mut base = 0.0f64;
    let mut heap: BinaryHeap<Candidate> = g
        .nodes()
        .map(|v| Candidate {
            gain: estimate(&seeds, v),
            node: v,
            round: 0,
        })
        .collect();
    while seeds.len() < k {
        let mut refreshes = 0;
        loop {
            let Some(top) = heap.pop() else {
                return (seeds, base);
            };
            if top.round == seeds.len() || refreshes >= 2 {
                base = estimate(&seeds, top.node).max(base);
                seeds.push(top.node);
                break;
            }
            let gain = (estimate(&seeds, top.node) - base).max(0.0);
            heap.push(Candidate {
                gain,
                node: top.node,
                round: seeds.len(),
            });
            refreshes += 1;
        }
    }
    (seeds, base)
}

/// CELF lazy greedy under an arbitrary diffusion config, with serial
/// Monte Carlo marginal gains (`trials` cascades per evaluation) drawn
/// from the caller's RNG.
pub fn celf_monte_carlo<R: Rng + ?Sized>(
    g: &Graph,
    k: usize,
    config: &DiffusionConfig,
    trials: usize,
    rng: &mut R,
) -> (Vec<NodeId>, f64) {
    if is_deterministic_one_step(g, config) {
        return celf_coverage(g, k);
    }
    let mut scratch: Vec<NodeId> = Vec::with_capacity(k.min(g.num_nodes()) + 1);
    let mut cascades = CascadeScratch::default();
    celf_lazy(g, k, |seeds, v| {
        scratch.clear();
        scratch.extend_from_slice(seeds);
        scratch.push(v);
        let total: usize = (0..trials)
            .map(|_| cascades.simulate(g, &scratch, config, rng))
            .sum();
        total as f64 / trials as f64
    })
}

/// [`celf_monte_carlo`] with multi-threaded marginal-gain evaluations:
/// each candidate evaluation runs `trials` cascades through
/// [`influence_spread_parallel`] on `n_threads` threads.
///
/// Evaluation `i` uses the RNG stream derived from `(seed, i)`, and the
/// parallel estimator is invariant to its thread count, so the picked
/// seed set and spread depend only on `(g, k, config, trials, seed)` —
/// `celf_monte_carlo_threaded(.., 1, seed)` and
/// `celf_monte_carlo_threaded(.., 8, seed)` return identical results.
pub fn celf_monte_carlo_threaded(
    g: &Graph,
    k: usize,
    config: &DiffusionConfig,
    trials: usize,
    n_threads: usize,
    seed: u64,
) -> Result<(Vec<NodeId>, f64), SpreadError> {
    if is_deterministic_one_step(g, config) {
        return Ok(celf_coverage(g, k));
    }
    if trials == 0 {
        return Err(SpreadError::ZeroTrials);
    }
    if n_threads == 0 {
        return Err(SpreadError::ZeroThreads);
    }
    let mut scratch: Vec<NodeId> = Vec::with_capacity(k.min(g.num_nodes()) + 1);
    let mut evals: u64 = 0;
    Ok(celf_lazy(g, k, |seeds, v| {
        scratch.clear();
        scratch.extend_from_slice(seeds);
        scratch.push(v);
        evals += 1;
        influence_spread_parallel(
            g,
            &scratch,
            config,
            trials,
            n_threads,
            mix_seed(seed, evals),
        )
        .expect("preconditions validated above; candidate nodes come from the graph")
    }))
}

/// Highest out-degree heuristic.
pub fn degree_heuristic(g: &Graph, k: usize) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = g.nodes().collect();
    nodes.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
    nodes.truncate(k.min(g.num_nodes()));
    nodes
}

/// Uniform random seed set.
pub fn random_seeds<R: Rng + ?Sized>(g: &Graph, k: usize, rng: &mut R) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = g.nodes().collect();
    nodes.shuffle(rng);
    nodes.truncate(k.min(g.num_nodes()));
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::models::deterministic_one_step_coverage;

    /// Two disjoint out-stars with hubs 0 (5 spokes) and 6 (3 spokes),
    /// plus isolated node 10.
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
    fn celf_picks_hubs_first() {
        let g = two_stars();
        let (seeds, spread) = celf_coverage(&g, 2);
        assert_eq!(seeds, vec![0, 6]);
        assert_eq!(spread, 10.0);
    }

    #[test]
    fn celf_spread_matches_objective() {
        let g = two_stars();
        for k in 1..=4 {
            let (seeds, spread) = celf_coverage(&g, k);
            assert_eq!(
                spread,
                deterministic_one_step_coverage(&g, &seeds) as f64,
                "k={k}"
            );
        }
    }

    #[test]
    fn celf_is_optimal_on_coverage_toy() {
        // Greedy = optimal here: spread(k=2) must be 10.
        let g = two_stars();
        let (_, spread) = celf_coverage(&g, 2);
        assert_eq!(spread, 10.0);
    }

    #[test]
    fn celf_handles_k_geq_n() {
        let g = two_stars();
        let (seeds, spread) = celf_coverage(&g, 100);
        assert_eq!(seeds.len(), 11);
        assert_eq!(spread, 11.0);
    }

    #[test]
    fn celf_gains_are_monotone_decreasing() {
        let g = two_stars();
        // Spread increments: hub0 (+6), hub6 (+4), then +1 each.
        let (seeds, _) = celf_coverage(&g, 5);
        let mut prev_gain = f64::INFINITY;
        let mut covered_spread = 0.0;
        for i in 0..seeds.len() {
            let s = deterministic_one_step_coverage(&g, &seeds[..=i]) as f64;
            let gain = s - covered_spread;
            assert!(gain <= prev_gain + 1e-9, "gain sequence not decreasing");
            prev_gain = gain;
            covered_spread = s;
        }
    }

    #[test]
    fn monte_carlo_celf_reduces_to_exact_for_unit_weights() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = DiffusionConfig::ic_with_steps(1);
        let (seeds, spread) = celf_monte_carlo(&g, 2, &cfg, 10, &mut rng);
        assert_eq!(seeds, vec![0, 6]);
        assert_eq!(spread, 10.0);
    }

    #[test]
    fn monte_carlo_celf_prefers_strong_hub() {
        // Probabilistic graph: node 0 reaches 4 nodes with p=0.9; node 5
        // reaches 1 node with p=0.1. CELF(k=1) should pick 0.
        let mut b = GraphBuilder::new(7);
        for i in 1..=4 {
            b.add_edge(0, i, 0.9);
        }
        b.add_edge(5, 6, 0.1);
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = DiffusionConfig::ic_unbounded();
        let (seeds, _) = celf_monte_carlo(&g, 1, &cfg, 300, &mut rng);
        assert_eq!(seeds, vec![0]);
    }

    #[test]
    fn threaded_celf_matches_single_threaded_path() {
        // Same (g, k, config, trials, seed): every thread count must pick
        // the identical seed set with the identical spread estimate.
        let mut b = GraphBuilder::new(8);
        for i in 1..=4 {
            b.add_edge(0, i, 0.7);
        }
        b.add_edge(5, 6, 0.4);
        b.add_edge(6, 7, 0.4);
        let g = b.build();
        let cfg = DiffusionConfig::ic_unbounded();
        let (seeds_1, spread_1) = celf_monte_carlo_threaded(&g, 3, &cfg, 600, 1, 17).unwrap();
        for n_threads in [2, 4] {
            let (seeds_n, spread_n) =
                celf_monte_carlo_threaded(&g, 3, &cfg, 600, n_threads, 17).unwrap();
            assert_eq!(seeds_n, seeds_1, "n_threads = {n_threads}");
            assert_eq!(spread_n, spread_1, "n_threads = {n_threads}");
        }
        assert_eq!(seeds_1[0], 0, "the strong hub must come first");
    }

    #[test]
    fn threaded_celf_reduces_to_exact_for_unit_weights() {
        let g = two_stars();
        let cfg = DiffusionConfig::ic_with_steps(1);
        let (seeds, spread) = celf_monte_carlo_threaded(&g, 2, &cfg, 10, 4, 0).unwrap();
        assert_eq!(seeds, vec![0, 6]);
        assert_eq!(spread, 10.0);
    }

    #[test]
    fn threaded_celf_rejects_bad_input() {
        use crate::spread::SpreadError;
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5);
        let g = b.build();
        let cfg = DiffusionConfig::ic_unbounded();
        assert_eq!(
            celf_monte_carlo_threaded(&g, 2, &cfg, 0, 4, 0).unwrap_err(),
            SpreadError::ZeroTrials
        );
        assert_eq!(
            celf_monte_carlo_threaded(&g, 2, &cfg, 10, 0, 0).unwrap_err(),
            SpreadError::ZeroThreads
        );
    }

    #[test]
    fn degree_heuristic_orders_by_out_degree() {
        let g = two_stars();
        assert_eq!(degree_heuristic(&g, 2), vec![0, 6]);
        // Deterministic tiebreak by id among degree-0 nodes.
        let rest = degree_heuristic(&g, 4);
        assert_eq!(&rest[..2], &[0, 6]);
        assert!(rest[2] < rest[3]);
    }

    #[test]
    fn random_seeds_are_distinct_and_in_range() {
        let g = two_stars();
        let mut rng = StdRng::seed_from_u64(2);
        let seeds = random_seeds(&g, 5, &mut rng);
        assert_eq!(seeds.len(), 5);
        let set: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(set.len(), 5);
        assert!(seeds.iter().all(|&s| (s as usize) < g.num_nodes()));
    }
}
