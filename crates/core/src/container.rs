//! The subgraph container `G_sub` — the pool Algorithm 2 mini-batches from.

use privim_graph::ops::induced_subgraph;
use privim_graph::{Graph, NodeId};
use privim_nn::graph_tensors::GraphTensors;

/// One extracted training subgraph: the induced graph, its original node
/// ids, and the precomputed tensors for GNN forward passes.
#[derive(Debug, Clone)]
pub struct SubgraphSample {
    /// Induced subgraph with nodes relabeled to `0..n`.
    pub graph: Graph,
    /// Original node ids; `original[i]` is subgraph node `i`.
    pub original: Vec<NodeId>,
    /// Precomputed tensors (features + message-passing indices).
    pub tensors: GraphTensors,
}

impl SubgraphSample {
    /// Extracts the subgraph of `parent` induced by `nodes` and prepares
    /// its tensors with `feature_dim`-dimensional structural features.
    pub fn extract(parent: &Graph, nodes: Vec<NodeId>, feature_dim: usize) -> Self {
        let graph = induced_subgraph(parent, &nodes);
        let tensors =
            GraphTensors::with_structural_features_for_subgraph(&graph, feature_dim, &nodes);
        SubgraphSample {
            graph,
            original: nodes,
            tensors,
        }
    }

    /// Number of nodes in the sample.
    pub fn len(&self) -> usize {
        self.original.len()
    }

    /// True if the sample is empty (never produced by the samplers).
    pub fn is_empty(&self) -> bool {
        self.original.is_empty()
    }
}

/// The pool of training subgraphs plus bookkeeping for privacy accounting.
#[derive(Debug, Clone, Default)]
pub struct SubgraphContainer {
    samples: Vec<SubgraphSample>,
}

impl SubgraphContainer {
    /// An empty container.
    pub fn new() -> Self {
        SubgraphContainer::default()
    }

    /// Adds one extracted subgraph.
    pub fn push(&mut self, sample: SubgraphSample) {
        self.samples.push(sample);
    }

    /// Merges another container into this one (Algorithm 3, line 7).
    pub fn extend(&mut self, other: SubgraphContainer) {
        self.samples.extend(other.samples);
    }

    /// Number of subgraphs `m = |G_sub|`.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no subgraphs were extracted.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples.
    pub fn samples(&self) -> &[SubgraphSample] {
        &self.samples
    }

    /// Sample at `index`.
    pub fn get(&self, index: usize) -> &SubgraphSample {
        &self.samples[index]
    }

    /// The empirically observed maximum number of subgraphs any single
    /// original node appears in. For the dual-stage scheme this is `≤ M`
    /// by construction; for the naive scheme it is `≤ N_g` (Lemma 1). The
    /// accountant uses the *analytical* bounds, never this observation —
    /// this method exists for tests and for the EGN baseline, which has no
    /// analytical bound.
    pub fn observed_max_occurrence(&self, num_nodes: usize) -> usize {
        let mut counts = vec![0usize; num_nodes];
        for s in &self.samples {
            for &v in &s.original {
                counts[v as usize] += 1;
            }
        }
        counts.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_graph::GraphBuilder;

    fn parent() -> Graph {
        let mut b = GraphBuilder::new(6);
        for i in 0..5 {
            b.add_edge(i, i + 1, 1.0);
        }
        b.build()
    }

    #[test]
    fn extract_builds_tensors_and_mapping() {
        let g = parent();
        let s = SubgraphSample::extract(&g, vec![1, 2, 3], 4);
        assert_eq!(s.len(), 3);
        assert_eq!(s.graph.num_nodes(), 3);
        assert_eq!(s.graph.num_edges(), 2); // 1->2, 2->3 survive
        assert_eq!(s.tensors.num_nodes, 3);
        assert_eq!(s.tensors.feature_dim(), 4);
        assert_eq!(s.original, vec![1, 2, 3]);
    }

    #[test]
    fn occurrence_counting() {
        let g = parent();
        let mut c = SubgraphContainer::new();
        c.push(SubgraphSample::extract(&g, vec![0, 1], 2));
        c.push(SubgraphSample::extract(&g, vec![1, 2], 2));
        c.push(SubgraphSample::extract(&g, vec![1, 5], 2));
        assert_eq!(c.len(), 3);
        assert_eq!(c.observed_max_occurrence(6), 3); // node 1 in all three
    }

    #[test]
    fn extend_merges_pools() {
        let g = parent();
        let mut a = SubgraphContainer::new();
        a.push(SubgraphSample::extract(&g, vec![0, 1], 2));
        let mut b = SubgraphContainer::new();
        b.push(SubgraphSample::extract(&g, vec![2, 3], 2));
        b.push(SubgraphSample::extract(&g, vec![4, 5], 2));
        a.extend(b);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn empty_container_reports_zero() {
        let c = SubgraphContainer::new();
        assert!(c.is_empty());
        assert_eq!(c.observed_max_occurrence(10), 0);
    }

    #[test]
    fn observed_occurrence_counts_the_busiest_node() {
        let g = parent();
        let mut c = SubgraphContainer::new();
        c.push(SubgraphSample::extract(&g, vec![0, 1, 2], 2));
        c.push(SubgraphSample::extract(&g, vec![1, 2, 3], 2));
        c.push(SubgraphSample::extract(&g, vec![2, 4], 2));
        assert_eq!(c.observed_max_occurrence(6), 3); // node 2 in all three
    }
}
