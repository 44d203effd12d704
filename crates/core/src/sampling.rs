//! Subgraph extraction schemes.
//!
//! Two implementations of the paper's Subgraph Extraction Module:
//!
//! - [`extract_naive`] — Algorithm 1: project the graph to a θ-bounded
//!   `G^θ`, then run Random Walk with Restart (RWR) from each sampled
//!   start node, constrained to the start's r-hop neighborhood, until `n`
//!   unique nodes are collected. Occurrences per node are bounded by
//!   `N_g = Σ_{i=0}^{r} θⁱ` (Lemma 1).
//! - [`extract_dual_stage`] — Algorithm 3: the dual-stage adaptive
//!   frequency sampling scheme. Stage 1 (Sensitivity-Constrained Sampling)
//!   walks the *unprojected* graph, down-weighting nodes by their sampling
//!   frequency (Eq. 9) and hard-capping occurrences at the threshold `M`.
//!   Stage 2 (Boundary-Enhanced Sampling) removes saturated nodes and
//!   re-samples the remaining boundary regions with subgraph size `n/s`,
//!   enriching structure without increasing `N_g* = M`.
//!
//! Every scheme runs its walks through one [`Walker`] per extraction call.

use rand::Rng;

use privim_graph::collections::NodeMarks;
use privim_graph::ops::{theta_projection, KhopBall};
use privim_graph::{Graph, NodeId};

use crate::config::PrivImConfig;
use crate::container::{SubgraphContainer, SubgraphSample};

/// Output of [`extract_dual_stage`].
#[derive(Debug, Clone)]
pub struct DualStageOutput {
    /// The combined container `G_sub,stage1 + G_sub,stage2`.
    pub container: SubgraphContainer,
    /// Final frequency vector `f` (occurrences per original node).
    pub frequency: Vec<u32>,
    /// Subgraphs contributed by stage 1 (prefix of the container).
    pub stage1_count: usize,
}

/// Algorithm 1. Returns the container and the θ-bounded graph it sampled
/// from (callers reuse `G^θ` for timing studies).
pub fn extract_naive<R: Rng + ?Sized>(
    g: &Graph,
    config: &PrivImConfig,
    candidates: &[NodeId],
    rng: &mut R,
) -> (SubgraphContainer, Graph) {
    let projection_span = privim_obs::Scope::span("projection");
    let projected = theta_projection(g, config.theta, rng);
    projection_span.finish();
    let _span = privim_obs::Scope::span("subgraph_sampling");
    let container = Walker::new(&projected, config, config.hops).sample(
        candidates,
        config.subgraph_size,
        None,
        None,
        rng,
    );
    privim_obs::counter("sampling.subgraphs_extracted").add(container.len() as u64);
    (container, projected)
}

/// Algorithm 3: Sensitivity-Constrained Sampling followed by
/// Boundary-Enhanced Sampling.
pub fn extract_dual_stage<R: Rng + ?Sized>(
    g: &Graph,
    config: &PrivImConfig,
    candidates: &[NodeId],
    rng: &mut R,
) -> DualStageOutput {
    let _span = privim_obs::Scope::span("subgraph_sampling");
    let mut walker = Walker::new(g, config, config.hops);
    let mut frequency = vec![0u32; g.num_nodes()];
    // Stage 1: SCS on the original (unprojected) graph.
    let scs_span = privim_obs::Scope::span("scs_stage");
    let mut container = walker.sample(
        candidates,
        config.subgraph_size,
        Some(&mut frequency),
        None,
        rng,
    );
    let stage1_count = container.len();
    scs_span.finish();

    // Stage 2: BES on the boundary graph of unsaturated nodes, read as the
    // original graph with every r-hop ball confined to `kept` nodes.
    let bes_span = privim_obs::Scope::span("bes_stage");
    let m = config.freq_threshold as u32;
    let kept: Vec<bool> = frequency.iter().map(|&f| f < m).collect();
    let boundary_candidates: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&v| kept[v as usize])
        .collect();
    let bes_size = (config.subgraph_size / config.bes_divisor).max(2);
    let stage2 = walker.sample(
        &boundary_candidates,
        bes_size,
        Some(&mut frequency),
        Some(&kept),
        rng,
    );
    container.extend(stage2);
    bes_span.finish();
    privim_obs::counter("sampling.subgraphs_extracted").add(container.len() as u64);
    privim_obs::debug!(
        "sampling",
        "dual_stage",
        stage1 = stage1_count,
        stage2 = container.len() - stage1_count,
        boundary_candidates = boundary_candidates.len(),
        bes_size = bes_size,
    );

    DualStageOutput {
        container,
        frequency,
        stage1_count,
    }
}

/// The `FreqSampling` function of Algorithm 3 (lines 9–28): RWR with
/// frequency-adaptive neighbor weights, collecting subgraphs of `size`
/// nodes and updating `frequency` after each successful extraction.
pub fn freq_sampling<R: Rng + ?Sized>(
    g: &Graph,
    config: &PrivImConfig,
    candidates: &[NodeId],
    size: usize,
    frequency: &mut [u32],
    rng: &mut R,
) -> SubgraphContainer {
    Walker::new(g, config, config.hops).sample(candidates, size, Some(frequency), None, rng)
}

/// Unconstrained RWR extraction for the EGN baseline: no θ-projection, no
/// r-hop restriction, no frequency weighting. The resulting container has
/// no structural occurrence bound — the accountant must fall back to the
/// observed maximum, which is what blows up EGN's noise.
pub fn extract_unconstrained<R: Rng + ?Sized>(
    g: &Graph,
    config: &PrivImConfig,
    candidates: &[NodeId],
    rng: &mut R,
) -> SubgraphContainer {
    Walker::new(g, config, usize::MAX).sample(candidates, config.subgraph_size, None, None, rng)
}

/// The RWR engine of every scheme (Algorithm 1 lines 4–17, Algorithm 3
/// lines 13–27). One walker serves a whole extraction call: the r-hop
/// ball, the subgraph's node set and the candidate buffers are reused
/// from walk to walk.
struct Walker<'g> {
    g: &'g Graph,
    config: &'g PrivImConfig,
    hops: usize,
    /// `N_r(v0)` of the current walk; absent when `hops == usize::MAX`,
    /// which lifts the r-hop restriction (EGN baseline).
    ball: Option<KhopBall>,
    in_sub: NodeMarks,
    /// Eq. 9 weights `e_v = 1/(f_v + 1)^μ`, indexed by `f_v < M`; a node
    /// with `f_v ≥ M` weighs 0.
    decay: Vec<f64>,
    candidates: Vec<NodeId>,
    cum: Vec<f64>,
}

impl<'g> Walker<'g> {
    fn new(g: &'g Graph, config: &'g PrivImConfig, hops: usize) -> Self {
        Walker {
            g,
            config,
            hops,
            ball: (hops != usize::MAX).then(|| KhopBall::new(g.num_nodes())),
            in_sub: NodeMarks::new(g.num_nodes()),
            decay: (1..=config.freq_threshold as u32)
                .map(|f| (f as f64).powf(-config.decay))
                .collect(),
            candidates: Vec::new(),
            cum: Vec::new(),
        }
    }

    /// Walks from each candidate that survives the sampling-rate draw and
    /// extracts the induced subgraph of every walk that collects `size`
    /// nodes. With `frequency`, neighbors carry Eq. 9 weights, saturated
    /// starts are skipped and extracted nodes are counted (Algorithm 3);
    /// without it, neighbors are uniform (Algorithm 1). With `kept`, the
    /// r-hop ball grows through kept nodes only. The walk needs no filter
    /// of its own: a node outside `kept` has `f ≥ M`, so its Eq. 9 weight
    /// is 0 and it is never a candidate.
    fn sample<R: Rng + ?Sized>(
        &mut self,
        candidates: &[NodeId],
        size: usize,
        mut frequency: Option<&mut [u32]>,
        kept: Option<&[bool]>,
        rng: &mut R,
    ) -> SubgraphContainer {
        let q = self.config.effective_sampling_rate(candidates.len());
        let m = self.config.freq_threshold as u32;
        let mut container = SubgraphContainer::new();
        for &v0 in candidates {
            if rng.gen::<f64>() >= q || frequency.as_ref().is_some_and(|f| f[v0 as usize] >= m) {
                continue;
            }
            let Some(nodes) = self.walk(v0, size, frequency.as_deref(), kept, rng) else {
                privim_obs::counter("sampling.walks_discarded").add(1);
                continue;
            };
            if let Some(f) = frequency.as_deref_mut() {
                for &v in &nodes {
                    f[v as usize] += 1;
                }
            }
            container.push(SubgraphSample::extract(
                self.g,
                nodes,
                self.config.feature_dim,
            ));
        }
        container
    }

    /// One walk from `v0`, restarting with probability τ, until `n` unique
    /// nodes are collected or the step budget `L` runs out. Returns `None`
    /// if the walk could not collect `n` nodes (the algorithms discard
    /// such walks).
    fn walk<R: Rng + ?Sized>(
        &mut self,
        v0: NodeId,
        n: usize,
        frequency: Option<&[u32]>,
        kept: Option<&[bool]>,
        rng: &mut R,
    ) -> Option<Vec<NodeId>> {
        let g = self.g;
        if let Some(ball) = &mut self.ball {
            if ball.fill(g, v0, self.hops, kept) < n {
                // The r-hop ball cannot possibly yield n unique nodes.
                return None;
            }
        }
        self.in_sub.clear();
        self.in_sub.insert(v0);
        let mut nodes = Vec::with_capacity(n);
        nodes.push(v0);

        let mut v_cur = v0;
        for _ in 0..self.config.walk_length {
            if rng.gen::<f64>() < self.config.restart_prob {
                v_cur = v0;
            }
            // Eligible next hops: neighbors of v_cur (either direction, so
            // the walk can traverse undirected structure) within N_r(v0).
            self.candidates.clear();
            self.cum.clear();
            let mut total = 0.0;
            for &u in g.out_neighbors(v_cur).iter().chain(g.in_neighbors(v_cur)) {
                if u == v_cur || self.ball.as_ref().is_some_and(|b| !b.contains(u)) {
                    continue;
                }
                let w = frequency.map_or(1.0, |f| {
                    self.decay
                        .get(f[u as usize] as usize)
                        .copied()
                        .unwrap_or(0.0)
                });
                if w > 0.0 {
                    self.candidates.push(u);
                    total += w;
                    self.cum.push(total);
                }
            }
            if self.candidates.is_empty() {
                // Stuck: force a restart on the next step.
                v_cur = v0;
                continue;
            }
            let t = rng.gen::<f64>() * total;
            let idx = self
                .cum
                .partition_point(|&c| c <= t)
                .min(self.candidates.len() - 1);
            v_cur = self.candidates[idx];
            if self.in_sub.insert(v_cur) {
                nodes.push(v_cur);
                if nodes.len() == n {
                    return Some(nodes);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_datasets::generators::holme_kim;
    use privim_graph::algorithms::weighted_cascade;
    use privim_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        holme_kim(400, 4, 0.4, 1.0, &mut rng)
    }

    fn test_config() -> PrivImConfig {
        PrivImConfig {
            subgraph_size: 12,
            walk_length: 150,
            hops: 2,
            sampling_rate: Some(0.5),
            freq_threshold: 3,
            feature_dim: 4,
            ..PrivImConfig::default()
        }
    }

    #[test]
    fn naive_extraction_produces_full_size_subgraphs() {
        let g = test_graph(1);
        let cfg = test_config();
        let mut rng = StdRng::seed_from_u64(2);
        let candidates: Vec<NodeId> = g.nodes().collect();
        let (container, projected) = extract_naive(&g, &cfg, &candidates, &mut rng);
        assert!(!container.is_empty(), "no subgraphs extracted");
        for s in container.samples() {
            assert_eq!(s.len(), cfg.subgraph_size);
            // Unique original nodes.
            let mut unique = s.original.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), s.len());
        }
        // Projection respected θ.
        for u in projected.nodes() {
            assert!(projected.in_degree(u) <= cfg.theta);
        }
    }

    #[test]
    fn naive_subgraph_nodes_lie_within_r_hops_of_start() {
        let g = test_graph(3);
        let cfg = test_config();
        let mut rng = StdRng::seed_from_u64(4);
        let candidates: Vec<NodeId> = g.nodes().collect();
        let (container, projected) = extract_naive(&g, &cfg, &candidates, &mut rng);
        let mut ball = KhopBall::new(projected.num_nodes());
        for s in container.samples() {
            let v0 = s.original[0];
            ball.fill(&projected, v0, cfg.hops, None);
            for &v in &s.original {
                assert!(
                    ball.contains(v),
                    "node {v} outside {}-hop ball of {v0}",
                    cfg.hops
                );
            }
        }
    }

    #[test]
    fn dual_stage_respects_frequency_threshold() {
        let g = test_graph(5);
        let cfg = test_config();
        let mut rng = StdRng::seed_from_u64(6);
        let candidates: Vec<NodeId> = g.nodes().collect();
        let out = extract_dual_stage(&g, &cfg, &candidates, &mut rng);
        assert!(!out.container.is_empty());
        // Invariant: no node appears more than M times.
        let m = cfg.freq_threshold;
        let observed = out.container.observed_max_occurrence(g.num_nodes());
        assert!(observed <= m, "observed {observed} > M {m}");
        // The frequency vector matches actual counts.
        let mut counts = vec![0u32; g.num_nodes()];
        for s in out.container.samples() {
            for &v in &s.original {
                counts[v as usize] += 1;
            }
        }
        assert_eq!(counts, out.frequency);
    }

    #[test]
    fn dual_stage_stage2_uses_smaller_subgraphs() {
        let g = test_graph(7);
        let cfg = PrivImConfig {
            bes_divisor: 3,
            ..test_config()
        };
        let mut rng = StdRng::seed_from_u64(8);
        let candidates: Vec<NodeId> = g.nodes().collect();
        let out = extract_dual_stage(&g, &cfg, &candidates, &mut rng);
        let bes_size = (cfg.subgraph_size / 3).max(2);
        for (i, s) in out.container.samples().iter().enumerate() {
            if i < out.stage1_count {
                assert_eq!(s.len(), cfg.subgraph_size);
            } else {
                assert_eq!(s.len(), bes_size);
            }
        }
    }

    #[test]
    fn dual_stage_usually_collects_more_than_stage1_alone() {
        // BES's purpose: extra subgraphs from boundary regions.
        let g = test_graph(9);
        let cfg = PrivImConfig {
            sampling_rate: Some(1.0),
            ..test_config()
        };
        let mut rng = StdRng::seed_from_u64(10);
        let candidates: Vec<NodeId> = g.nodes().collect();
        let out = extract_dual_stage(&g, &cfg, &candidates, &mut rng);
        assert!(
            out.container.len() > out.stage1_count,
            "BES contributed nothing ({} total, {} stage1)",
            out.container.len(),
            out.stage1_count
        );
    }

    #[test]
    fn higher_decay_spreads_sampling_wider() {
        // With strong decay, frequently sampled nodes are avoided, so the
        // number of distinct sampled nodes should not decrease.
        let g = test_graph(11);
        let candidates: Vec<NodeId> = g.nodes().collect();
        let distinct = |decay: f64| {
            let cfg = PrivImConfig {
                decay,
                sampling_rate: Some(1.0),
                freq_threshold: 10,
                ..test_config()
            };
            let mut rng = StdRng::seed_from_u64(12);
            let out = extract_dual_stage(&g, &cfg, &candidates, &mut rng);
            out.frequency.iter().filter(|&&f| f > 0).count()
        };
        let spread_low = distinct(0.0);
        let spread_high = distinct(3.0);
        assert!(
            spread_high as f64 >= spread_low as f64 * 0.95,
            "strong decay reduced coverage: {spread_high} vs {spread_low}"
        );
    }

    #[test]
    fn sampling_rate_zero_yields_empty_container() {
        let g = test_graph(13);
        let cfg = PrivImConfig {
            sampling_rate: Some(0.0),
            ..test_config()
        };
        let mut rng = StdRng::seed_from_u64(14);
        let candidates: Vec<NodeId> = g.nodes().collect();
        let (container, _) = extract_naive(&g, &cfg, &candidates, &mut rng);
        assert!(container.is_empty());
        let out = extract_dual_stage(&g, &cfg, &candidates, &mut rng);
        assert!(out.container.is_empty());
    }

    #[test]
    fn oversized_subgraph_requests_are_discarded() {
        // n larger than any r-hop ball: nothing can be extracted.
        let g = test_graph(15);
        let cfg = PrivImConfig {
            subgraph_size: 500,
            sampling_rate: Some(1.0),
            ..test_config()
        };
        let mut rng = StdRng::seed_from_u64(16);
        let candidates: Vec<NodeId> = g.nodes().collect();
        let (container, _) = extract_naive(&g, &cfg, &candidates, &mut rng);
        assert!(container.is_empty());
    }

    /// A directed, weighted, hub-heavy multigraph: Holme–Kim with
    /// weighted-cascade weights, a seventh of the edges dropped (so in- and
    /// out-rows differ) and a seventh doubled with a lighter parallel edge.
    fn golden_graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = weighted_cascade(&holme_kim(300, 3, 0.5, 1.0, &mut rng));
        let mut b = GraphBuilder::new(base.num_nodes());
        for (v, u, w) in base.edges() {
            match (v as u64 * 31 + u as u64 * 17 + seed) % 7 {
                0 => {}
                1 => {
                    b.add_edge(v, u, w);
                    b.add_edge(v, u, w * 0.5);
                }
                _ => b.add_edge(v, u, w),
            }
        }
        b.build()
    }

    fn golden_config() -> PrivImConfig {
        PrivImConfig {
            sampling_rate: Some(0.6),
            decay: 0.7,
            ..test_config()
        }
    }

    /// FNV-1a over each sample's original ids and induced edges (weight
    /// bits included), then the frequency vector and the stage-1 count.
    fn golden_hash(container: &SubgraphContainer, frequency: &[u32], stage1: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(container.len() as u64);
        for s in container.samples() {
            eat(s.len() as u64);
            s.original.iter().for_each(|&v| eat(v as u64));
            eat(s.graph.num_edges() as u64);
            for (v, u, w) in s.graph.edges() {
                eat(v as u64);
                eat(u as u64);
                eat(w.to_bits());
            }
        }
        eat(frequency.len() as u64);
        frequency.iter().for_each(|&f| eat(f as u64));
        eat(stage1 as u64);
        h
    }

    /// Hashes of one scheme's output on three graphs × two walk seeds,
    /// pinned so that a rewrite of the walker must reproduce the
    /// containers bit for bit.
    fn golden_hashes(run: impl Fn(&Graph, &[NodeId], &mut StdRng) -> u64) -> Vec<u64> {
        let mut hashes = Vec::new();
        for graph_seed in [21, 22, 23] {
            let g = golden_graph(graph_seed);
            let candidates: Vec<NodeId> = g.nodes().collect();
            for walk_seed in [1, 2] {
                hashes.push(run(&g, &candidates, &mut StdRng::seed_from_u64(walk_seed)));
            }
        }
        hashes
    }

    fn dual_stage_hash(
        cfg: &PrivImConfig,
        g: &Graph,
        candidates: &[NodeId],
        rng: &mut StdRng,
    ) -> u64 {
        let out = extract_dual_stage(g, cfg, candidates, rng);
        assert!(out.stage1_count > 0);
        assert!(out.container.len() > out.stage1_count, "stage 2 empty");
        golden_hash(&out.container, &out.frequency, out.stage1_count)
    }

    #[test]
    fn golden_dual_stage() {
        let cfg = golden_config();
        assert_eq!(
            golden_hashes(|g, c, rng| dual_stage_hash(&cfg, g, c, rng)),
            [
                0x11770dd02501f637,
                0xb54f6d2fcb0e09d1,
                0xa15861b2d387bd6a,
                0x126d6547763f5bae,
                0x6ef54448ec91f859,
                0x5b7ec24b38527ad5,
            ]
        );
    }

    #[test]
    fn golden_dual_stage_unbounded() {
        // No r-hop ball: only Eq. 9's zero weights keep stage 2 off
        // saturated nodes.
        let cfg = PrivImConfig {
            hops: usize::MAX,
            ..golden_config()
        };
        assert_eq!(
            golden_hashes(|g, c, rng| dual_stage_hash(&cfg, g, c, rng)),
            [
                0xa4d345dbc6680db5,
                0x2b33af3f4bde70b4,
                0x3f198b1aeffc69b5,
                0x242cd4b0c9fa2a44,
                0xf55172b3233de237,
                0x8b03e42fef3a00f4,
            ]
        );
    }

    #[test]
    fn golden_naive() {
        assert_eq!(
            golden_hashes(|g, c, rng| {
                let (container, _) = extract_naive(g, &golden_config(), c, rng);
                assert!(!container.is_empty());
                golden_hash(&container, &[], 0)
            }),
            [
                0x966afbb8ea041e2d,
                0xbdb2336a2f5074c3,
                0x83751c2f4f4c2c7d,
                0x2b24cd32a5e6e26a,
                0xa0547c6dc7736be5,
                0xbd22f77a9fce4286,
            ]
        );
    }

    #[test]
    fn golden_unconstrained() {
        assert_eq!(
            golden_hashes(|g, c, rng| {
                let container = extract_unconstrained(g, &golden_config(), c, rng);
                assert!(!container.is_empty());
                golden_hash(&container, &[], 0)
            }),
            [
                0x4f205d1e9be0426b,
                0x23b9299afec4a5e5,
                0x4fa0b54df46ed1c9,
                0xb04b60cd18119310,
                0xb6d8acb13e23bc2a,
                0xc76280ecc891465e,
            ]
        );
    }

    #[test]
    fn golden_freq_sampling() {
        assert_eq!(
            golden_hashes(|g, c, rng| {
                let mut frequency = vec![0u32; g.num_nodes()];
                let container = freq_sampling(g, &golden_config(), c, 9, &mut frequency, rng);
                assert!(!container.is_empty());
                golden_hash(&container, &frequency, 0)
            }),
            [
                0xfbce2037ae83ae18,
                0x095ccca3009aa50b,
                0xf7c0439ba808104c,
                0x693878fefb63e0dd,
                0x64a9d82b6b62412e,
                0x073b651a7e0eac2e,
            ]
        );
    }

    #[test]
    fn failed_walks_are_counted_by_every_scheme() {
        // On an edgeless graph every walk fails: the r-hop ball is the
        // start alone, and an unconstrained walk never leaves it. The
        // counter is process-wide, so concurrent tests can only add to it.
        let g = Graph::empty(3000);
        let cfg = PrivImConfig {
            sampling_rate: Some(1.0),
            ..test_config()
        };
        let candidates: Vec<NodeId> = g.nodes().collect();
        let walks = candidates.len() as u64;
        let discarded = privim_obs::counter("sampling.walks_discarded");
        let mut rng = StdRng::seed_from_u64(19);
        let mut check = |scheme: &str, expected: u64, run: &mut dyn FnMut(&mut StdRng)| {
            let before = discarded.get();
            run(&mut rng);
            let counted = discarded.get() - before;
            assert!(counted >= expected, "{scheme}: {counted} < {expected}");
        };
        check("naive", walks, &mut |rng| {
            extract_naive(&g, &cfg, &candidates, rng);
        });
        check("unconstrained", walks, &mut |rng| {
            extract_unconstrained(&g, &cfg, &candidates, rng);
        });
        check("freq_sampling", walks, &mut |rng| {
            let mut frequency = vec![0; g.num_nodes()];
            freq_sampling(&g, &cfg, &candidates, 12, &mut frequency, rng);
        });
        check("dual_stage", 2 * walks, &mut |rng| {
            extract_dual_stage(&g, &cfg, &candidates, rng);
        });
    }

    #[test]
    fn extraction_is_deterministic_per_seed() {
        let g = test_graph(17);
        let cfg = test_config();
        let candidates: Vec<NodeId> = g.nodes().collect();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = extract_dual_stage(&g, &cfg, &candidates, &mut rng);
            out.container
                .samples()
                .iter()
                .map(|s| s.original.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
