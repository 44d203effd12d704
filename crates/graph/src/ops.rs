//! Structural graph operations used by the PrivIM sampling schemes.
//!
//! This module implements the three operations Section III-B of the paper
//! relies on — θ-bounded projection, r-hop neighborhoods and induced
//! subgraphs — plus BFS and weakly connected components used for dataset
//! validation.

use privim_obs::Scope;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;

use crate::collections::{fast_map_with_capacity, NodeMarks};
use crate::csr::{Graph, GraphBuilder, NodeId};

/// Projects `g` into a θ-bounded graph `G^θ` by randomly removing in-edges
/// of nodes whose in-degree exceeds `theta` (Section III-B).
///
/// Each over-degree node keeps a uniformly random subset of exactly `theta`
/// of its in-edges; all other edges are preserved. The node set is
/// unchanged.
pub fn theta_projection<R: Rng + ?Sized>(g: &Graph, theta: usize, rng: &mut R) -> Graph {
    let _prof = Scope::kernel("graph.theta_projection");
    let mut b = GraphBuilder::with_capacity(g.num_nodes(), g.num_edges());
    let mut keep: Vec<usize> = Vec::new();
    for u in g.nodes() {
        let srcs = g.in_neighbors(u);
        let ws = g.in_weights(u);
        if srcs.len() <= theta {
            for (&v, &w) in srcs.iter().zip(ws) {
                b.add_edge(v, u, w);
            }
        } else {
            keep.clear();
            keep.extend(0..srcs.len());
            keep.shuffle(rng);
            keep.truncate(theta);
            for &i in &keep {
                b.add_edge(srcs[i], u, ws[i]);
            }
        }
    }
    let out = b.build();
    privim_obs::counter("graph.projection.calls").add(1);
    privim_obs::counter("graph.projection.edges_kept").add(out.num_edges() as u64);
    privim_obs::counter("graph.projection.edges_dropped")
        .add((g.num_edges() - out.num_edges()) as u64);
    out
}

/// The r-hop out-neighborhood `N_r(v0)` the random walk in Algorithms 1
/// and 3 is constrained to, reusable across start nodes.
///
/// Membership is a [`NodeMarks`] and the BFS frontiers are consecutive
/// ranges of the visit-order buffer, so refilling the ball allocates
/// nothing once its buffers have grown.
#[derive(Debug, Clone)]
pub struct KhopBall {
    seen: NodeMarks,
    order: Vec<NodeId>,
}

impl KhopBall {
    /// An empty ball over a graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        KhopBall {
            seen: NodeMarks::new(num_nodes),
            order: Vec::new(),
        }
    }

    /// Refills the ball with every node within `r` out-edge hops of `v0`
    /// (`v0` itself is hop 0) and returns its size. With `kept`, the BFS
    /// enters only nodes whose mask entry is true: for a kept `v0` that is
    /// the ball of the graph holding just the edges between kept nodes.
    pub fn fill(&mut self, g: &Graph, v0: NodeId, r: usize, kept: Option<&[bool]>) -> usize {
        let _prof = Scope::kernel("graph.khop");
        self.seen.clear();
        self.order.clear();
        self.seen.insert(v0);
        self.order.push(v0);
        let mut start = 0;
        for _ in 0..r {
            let end = self.order.len();
            if start == end {
                break;
            }
            for i in start..end {
                for &u in g.out_neighbors(self.order[i]) {
                    if kept.is_none_or(|k| k[u as usize]) && self.seen.insert(u) {
                        self.order.push(u);
                    }
                }
            }
            start = end;
        }
        privim_obs::counter("graph.khop.calls").add(1);
        privim_obs::counter("graph.khop.nodes_visited").add(self.order.len() as u64);
        self.order.len()
    }

    /// True if `v` lies in the ball.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.seen.contains(v)
    }
}

/// Extracts the subgraph of `g` induced by `nodes`, relabeling nodes to
/// `0..nodes.len()` in the given order.
///
/// Returns the subgraph; position `i` of `nodes` is the original id of
/// subgraph node `i`. Edges with both endpoints in `nodes` are kept with
/// their weights. Duplicate entries in `nodes` are a programmer error and
/// panic in debug builds.
pub fn induced_subgraph(g: &Graph, nodes: &[NodeId]) -> Graph {
    let _prof = Scope::kernel("graph.induced_subgraph");
    let mut index = fast_map_with_capacity(nodes.len());
    for (i, &v) in nodes.iter().enumerate() {
        let prev = index.insert(v, i as NodeId);
        debug_assert!(prev.is_none(), "duplicate node {v} in induced_subgraph");
    }
    let mut b = GraphBuilder::new(nodes.len());
    for (i, &v) in nodes.iter().enumerate() {
        for (&u, &w) in g.out_neighbors(v).iter().zip(g.out_weights(v)) {
            if let Some(&j) = index.get(&u) {
                b.add_edge(i as NodeId, j, w);
            }
        }
    }
    let out = b.build();
    privim_obs::counter("graph.induced.calls").add(1);
    privim_obs::counter("graph.induced.edges").add(out.num_edges() as u64);
    out
}

/// Breadth-first search from `src` following out-edges; returns hop
/// distances (`usize::MAX` for unreachable nodes).
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    dist[src as usize] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        for &u in g.out_neighbors(v) {
            if dist[u as usize] == usize::MAX {
                dist[u as usize] = d + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Labels weakly connected components (edge direction ignored).
///
/// Returns `(labels, component_count)`; labels are dense in
/// `0..component_count`.
pub fn weakly_connected_components(g: &Graph) -> (Vec<u32>, usize) {
    const UNVISITED: u32 = u32::MAX;
    let mut label = vec![UNVISITED; g.num_nodes()];
    let mut next_label = 0u32;
    let mut queue = VecDeque::new();
    for s in g.nodes() {
        if label[s as usize] != UNVISITED {
            continue;
        }
        label[s as usize] = next_label;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &u in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
                if label[u as usize] == UNVISITED {
                    label[u as usize] = next_label;
                    queue.push_back(u);
                }
            }
        }
        next_label += 1;
    }
    (label, next_label as usize)
}

/// Relabels nodes by a permutation: node `v` becomes `perm[v]`.
///
/// Dataset generators use this to destroy any correlation between node id
/// and construction order (preferential-attachment graphs otherwise give
/// low ids to their oldest, highest-degree nodes, which would let id-based
/// tie-breaking accidentally pick hubs).
pub fn relabel(g: &Graph, perm: &[NodeId]) -> Graph {
    assert_eq!(
        perm.len(),
        g.num_nodes(),
        "permutation length must equal node count"
    );
    debug_assert!(
        {
            let mut seen = vec![false; perm.len()];
            perm.iter().all(|&p| {
                let fresh = !seen[p as usize];
                seen[p as usize] = true;
                fresh
            })
        },
        "perm must be a permutation"
    );
    let mut b = GraphBuilder::with_capacity(g.num_nodes(), g.num_edges());
    for (u, v, w) in g.edges() {
        b.add_edge(perm[u as usize], perm[v as usize], w);
    }
    b.build()
}

/// Relabels nodes by a uniformly random permutation.
pub fn shuffle_labels<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Graph {
    let mut perm: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    perm.shuffle(rng);
    relabel(g, &perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, (i + 1) as NodeId, 1.0);
        }
        b.build()
    }

    fn star_into(hub: NodeId, spokes: usize) -> Graph {
        // spokes nodes all pointing into `hub`
        let mut b = GraphBuilder::new(spokes + 1);
        for i in 0..spokes {
            let v = if (i as NodeId) < hub {
                i as NodeId
            } else {
                i as NodeId + 1
            };
            b.add_edge(v, hub, 0.7);
        }
        b.build()
    }

    #[test]
    fn theta_projection_bounds_in_degree() {
        let g = star_into(0, 20);
        let mut rng = StdRng::seed_from_u64(7);
        let p = theta_projection(&g, 5, &mut rng);
        assert_eq!(p.num_nodes(), g.num_nodes());
        assert_eq!(p.in_degree(0), 5);
        assert_eq!(p.num_edges(), 5);
        // Kept edges retain their weights.
        for &w in p.in_weights(0) {
            assert_eq!(w, 0.7);
        }
    }

    #[test]
    fn theta_projection_is_identity_when_under_bound() {
        let g = path(5);
        let mut rng = StdRng::seed_from_u64(1);
        let p = theta_projection(&g, 3, &mut rng);
        assert_eq!(p.num_edges(), g.num_edges());
        let a: Vec<_> = g.edges().collect();
        let b: Vec<_> = p.edges().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn theta_projection_keeps_random_subset() {
        // Statistically, different seeds should keep different subsets.
        let g = star_into(0, 30);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let p1 = theta_projection(&g, 3, &mut r1);
        let p2 = theta_projection(&g, 3, &mut r2);
        let e1: Vec<_> = p1.edges().collect();
        let e2: Vec<_> = p2.edges().collect();
        assert_ne!(
            e1, e2,
            "two seeds picked identical subsets (astronomically unlikely)"
        );
    }

    #[test]
    fn khop_respects_radius() {
        let g = path(10);
        let mut ball = KhopBall::new(g.num_nodes());
        assert_eq!(ball.fill(&g, 0, 2, None), 3);
        assert!((0..3).all(|v| ball.contains(v)));
        assert_eq!(ball.fill(&g, 3, 0, None), 1);
        assert!(ball.contains(3));
        assert!(!ball.contains(0), "refill must forget the previous ball");
    }

    #[test]
    fn khop_follows_out_edges_only() {
        let g = path(4); // 0->1->2->3
        let mut ball = KhopBall::new(g.num_nodes());
        assert_eq!(ball.fill(&g, 3, 3, None), 1, "tail node has no out-edges");
    }

    #[test]
    fn khop_with_mask_equals_ball_of_kept_edges() {
        // 0->1->2->3 plus the shortcut 0->3; dropping node 1 cuts the path.
        let mut b = GraphBuilder::new(4);
        for (v, u) in [(0, 1), (1, 2), (2, 3), (0, 3)] {
            b.add_edge(v, u, 1.0);
        }
        let g = b.build();
        let kept = [true, false, true, true];
        let mut ball = KhopBall::new(g.num_nodes());
        assert_eq!(ball.fill(&g, 0, 3, Some(&kept)), 2);
        assert!(ball.contains(0) && ball.contains(3));
        assert_eq!(ball.fill(&g, 2, 3, Some(&kept)), 2);
        assert!(ball.contains(2) && ball.contains(3));
    }

    #[test]
    fn induced_subgraph_relabels_and_filters() {
        let g = path(5); // 0->1->2->3->4
        let sub = induced_subgraph(&g, &[1, 2, 4]);
        assert_eq!(sub.num_nodes(), 3);
        // Only 1->2 survives (2->3 and 3->4 cross the cut).
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(sub.out_neighbors(0), &[1]);
        assert_eq!(sub.out_weights(0), &[1.0]);
    }

    #[test]
    fn induced_subgraph_order_defines_ids() {
        let g = path(3);
        let sub = induced_subgraph(&g, &[2, 1, 0]);
        // Original 0->1 becomes 2->1; original 1->2 becomes 1->0.
        assert_eq!(sub.out_neighbors(2), &[1]);
        assert_eq!(sub.out_neighbors(1), &[0]);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(4);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_distances(&g, 2), vec![usize::MAX, usize::MAX, 0, 1]);
    }

    #[test]
    fn wcc_counts_components() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 1, 1.0); // {0,1,2} weakly connected
        b.add_edge(3, 4, 1.0); // {3,4}
        let g = b.build(); // node 5 isolated
        let (labels, count) = weakly_connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[3], labels[5]);
    }

    #[test]
    fn relabel_permutes_consistently() {
        let g = path(3); // 0->1->2
        let r = relabel(&g, &[2, 0, 1]);
        // Edge 0->1 becomes 2->0; edge 1->2 becomes 0->1.
        assert_eq!(r.out_neighbors(2), &[0]);
        assert_eq!(r.out_neighbors(0), &[1]);
        assert_eq!(r.num_edges(), g.num_edges());
    }

    #[test]
    fn shuffle_labels_preserves_degree_multiset() {
        let g = star_into(0, 10);
        let mut rng = StdRng::seed_from_u64(3);
        let s = shuffle_labels(&g, &mut rng);
        let mut a: Vec<usize> = g.nodes().map(|v| g.in_degree(v)).collect();
        let mut b: Vec<usize> = s.nodes().map(|v| s.in_degree(v)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(s.num_edges(), g.num_edges());
    }
}
