//! Per-subgraph tensor bundle consumed by the GNN models.
//!
//! [`GraphTensors`] precomputes, once per subgraph, everything the forward
//! passes need: edge index arrays, GCN normalization coefficients, mean
//! aggregation coefficients, and node features. Arrays are `Arc`-shared so
//! autograd backward closures can reference them without copies.
//! [`InEdges`] is the dst-major view of an edge list that the graph-scale
//! kernels split across threads.

use std::ops::Range;
use std::sync::Arc;

use privim_graph::Graph;

use crate::matrix::Matrix;

/// Immutable tensor view of one (sub)graph.
#[derive(Debug, Clone)]
pub struct GraphTensors {
    /// Number of nodes `N`.
    pub num_nodes: usize,
    /// Node feature matrix `N × d`.
    pub features: Matrix,
    /// Edge sources (influencers), length `E`.
    pub src: Arc<Vec<u32>>,
    /// Edge destinations (influencees), length `E`.
    pub dst: Arc<Vec<u32>>,
    /// IC influence probability `w_vu` per edge.
    pub edge_weight: Arc<Vec<f64>>,
    /// GCN symmetric normalization `1 / sqrt((din(dst)+1)(dout(src)+1))`.
    pub gcn_coeff: Arc<Vec<f64>>,
    /// GCN self-loop coefficient `1 / (din(u)+1)` per node.
    pub gcn_self: Arc<Vec<f64>>,
    /// Mean-aggregator coefficient `1 / din(dst)` per edge.
    pub mean_coeff: Arc<Vec<f64>>,
    /// All-ones coefficient per edge (sum aggregation, GIN).
    pub ones_coeff: Arc<Vec<f64>>,
}

impl GraphTensors {
    /// Builds the tensor bundle for `g` with explicit `features`
    /// (`g.num_nodes() × d`).
    pub fn new(g: &Graph, features: Matrix) -> Self {
        assert_eq!(
            features.rows(),
            g.num_nodes(),
            "feature rows must equal node count"
        );
        let m = g.num_edges();
        let mut src = Vec::with_capacity(m);
        let mut dst = Vec::with_capacity(m);
        let mut edge_weight = Vec::with_capacity(m);
        let mut gcn_coeff = Vec::with_capacity(m);
        let mut mean_coeff = Vec::with_capacity(m);
        for (v, u, w) in g.edges() {
            src.push(v);
            dst.push(u);
            edge_weight.push(w);
            let norm = (((g.in_degree(u) + 1) * (g.out_degree(v) + 1)) as f64)
                .sqrt()
                .recip();
            gcn_coeff.push(norm);
            mean_coeff.push((g.in_degree(u) as f64).recip());
        }
        let gcn_self: Vec<f64> = g
            .nodes()
            .map(|u| ((g.in_degree(u) + 1) as f64).recip())
            .collect();
        GraphTensors {
            num_nodes: g.num_nodes(),
            features,
            src: Arc::new(src),
            dst: Arc::new(dst),
            edge_weight: Arc::new(edge_weight),
            gcn_coeff: Arc::new(gcn_coeff),
            gcn_self: Arc::new(gcn_self),
            mean_coeff: Arc::new(mean_coeff),
            ones_coeff: Arc::new(vec![1.0; m]),
        }
    }

    /// Builds the bundle with the default structural features
    /// ([`structural_features`]).
    pub fn with_structural_features(g: &Graph, dim: usize) -> Self {
        Self::new(g, structural_features(g, dim))
    }

    /// Builds the bundle for a subgraph whose nodes carry `original_ids`
    /// in the parent graph ([`structural_features_with_ids`]).
    pub fn with_structural_features_for_subgraph(
        g: &Graph,
        dim: usize,
        original_ids: &[u32],
    ) -> Self {
        Self::new(g, structural_features_with_ids(g, dim, original_ids))
    }

    /// Number of edges `E`.
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// Feature dimensionality `d`.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }
}

/// The dst-major view of an edge list `(src[e], dst[e])`: every node's
/// in-edges, contiguous, in their edge-list order (a stable counting sort
/// by destination). A kernel that walks a node's in-edges here adds them
/// to its output row in the order an edge-order loop would, so each row
/// can have its own writer and the sums keep their bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InEdges {
    /// Node `u`'s in-edges are positions `offsets[u]..offsets[u + 1]`.
    pub offsets: Vec<u32>,
    /// Source of the in-edge at each position.
    pub src: Vec<u32>,
    /// Edge-list index of the in-edge at each position.
    pub edge: Vec<u32>,
}

impl InEdges {
    /// The view of `(src, dst)` over `n` nodes.
    ///
    /// # Panics
    /// If the lengths differ, a destination is not below `n`, or the
    /// edge count does not fit a `u32`.
    pub fn new(src: &[u32], dst: &[u32], n: usize) -> InEdges {
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        assert!(
            u32::try_from(src.len()).is_ok(),
            "too many edges for u32 ids"
        );
        let mut offsets = vec![0u32; n + 1];
        for &t in dst {
            offsets[t as usize + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut cursor = offsets[..n].to_vec();
        let (mut in_src, mut edge) = (vec![0; src.len()], vec![0; src.len()]);
        for (e, (&s, &t)) in src.iter().zip(dst).enumerate() {
            let at = cursor[t as usize] as usize;
            in_src[at] = s;
            edge[at] = e as u32;
            cursor[t as usize] += 1;
        }
        InEdges {
            offsets,
            src: in_src,
            edge,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Positions of node `u`'s in-edges.
    pub fn range(&self, u: usize) -> Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }

    /// Row bounds splitting the nodes into at most `parts` ranges of
    /// about equal work, a node costing one plus its in-degree.
    pub(crate) fn bounds(&self, parts: usize) -> Vec<usize> {
        crate::par::row_bounds(self.num_nodes(), parts, |u| self.offsets[u] as usize + u)
    }
}

/// Saturation constant for the degree features: `d / (d + C)`.
const DEGREE_SATURATION: f64 = 10.0;

/// Deterministic per-node pseudo-attribute in `[0, 1)` (splitmix64 of the
/// node's *original* id). Stands in for the node attributes real datasets
/// carry: informative-looking channels the model must learn to discount in
/// favor of structure. They also make model destruction measurable — a
/// noise-wrecked model that weights these channels ranks nodes near
/// randomly instead of accidentally ranking by degree.
pub fn attribute_channel(original_id: u32, channel: u32) -> f64 {
    let mut z = (original_id as u64)
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(channel as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic structural node features.
///
/// The paper trains on subgraphs without attribute features; following the
/// common practice for IM GNNs (Erdős-goes-neural, FastCover), we feed
/// degree-derived structural features. Crucially, every channel uses an
/// *absolute* saturating transform (`d / (d + C)`, `ln(1+d)` squashed the
/// same way) rather than per-graph max normalization: the model trains on
/// small subgraphs and infers on the full graph, and per-graph
/// normalization would shift the feature distribution between the two,
/// forcing the net to extrapolate outside its training range.
pub fn structural_features(g: &Graph, dim: usize) -> Matrix {
    let ids: Vec<u32> = (0..g.num_nodes() as u32).collect();
    structural_features_with_ids(g, dim, &ids)
}

/// [`structural_features`] for a subgraph whose nodes carry `original_ids`
/// from the parent graph: the first four channels are structural (computed
/// on the subgraph), the rest are the nodes' persistent pseudo-attributes
/// ([`attribute_channel`]), which must match between training subgraphs
/// and full-graph inference.
pub fn structural_features_with_ids(g: &Graph, dim: usize, original_ids: &[u32]) -> Matrix {
    assert!(dim >= 1, "feature dim must be at least 1");
    assert_eq!(
        original_ids.len(),
        g.num_nodes(),
        "one original id per node"
    );
    let sat = |d: f64| d / (d + DEGREE_SATURATION);
    Matrix::from_fn(g.num_nodes(), dim, |v, k| {
        let d_in = g.in_degree(v as u32) as f64;
        let d_out = g.out_degree(v as u32) as f64;
        match k {
            0 => sat(d_in),
            1 => sat(d_out),
            2 => 1.0,
            3 => sat((d_in + d_out).ln_1p()),
            _ => attribute_channel(original_ids[v], k as u32 - 4),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privim_graph::GraphBuilder;

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5);
        b.add_edge(0, 2, 1.0);
        b.add_edge(1, 2, 0.25);
        b.build()
    }

    #[test]
    fn tensor_arrays_line_up() {
        let g = tiny();
        let gt = GraphTensors::with_structural_features(&g, 4);
        assert_eq!(gt.num_nodes, 3);
        assert_eq!(gt.num_edges(), 3);
        assert_eq!(gt.src.as_ref(), &vec![0, 0, 1]);
        assert_eq!(gt.dst.as_ref(), &vec![1, 2, 2]);
        assert_eq!(gt.edge_weight.as_ref(), &vec![0.5, 1.0, 0.25]);
        assert_eq!(gt.feature_dim(), 4);
    }

    #[test]
    fn gcn_coeffs_match_formula() {
        let g = tiny();
        let gt = GraphTensors::with_structural_features(&g, 2);
        // Edge 0->1: din(1)=1, dout(0)=2 => 1/sqrt(2*3)
        assert!((gt.gcn_coeff[0] - 1.0 / (6.0f64).sqrt()).abs() < 1e-12);
        // Edge 1->2: din(2)=2, dout(1)=1 => 1/sqrt(3*2)
        assert!((gt.gcn_coeff[2] - 1.0 / (6.0f64).sqrt()).abs() < 1e-12);
        // Self coefficients.
        assert!((gt.gcn_self[0] - 1.0).abs() < 1e-12);
        assert!((gt.gcn_self[2] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_coeffs_are_inverse_in_degree() {
        let g = tiny();
        let gt = GraphTensors::with_structural_features(&g, 2);
        assert_eq!(gt.mean_coeff[0], 1.0); // din(1) = 1
        assert_eq!(gt.mean_coeff[1], 0.5); // din(2) = 2
        assert_eq!(gt.mean_coeff[2], 0.5);
    }

    #[test]
    fn structural_features_are_bounded_and_deterministic() {
        let g = tiny();
        let f1 = structural_features(&g, 8);
        let f2 = structural_features(&g, 8);
        assert_eq!(f1, f2);
        assert!(f1.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
        // Constant channel.
        for v in 0..3 {
            assert_eq!(f1[(v, 2)], 1.0);
        }
    }

    #[test]
    fn in_edges_group_by_destination_in_edge_order() {
        // Edge 2 and edge 0 both enter node 1; edge 0 comes first.
        let v = InEdges::new(&[0, 2, 2, 1], &[1, 0, 1, 2], 3);
        assert_eq!(v.offsets, vec![0, 1, 3, 4]);
        assert_eq!(v.edge, vec![1, 0, 2, 3]);
        assert_eq!(v.src, vec![2, 0, 2, 1]);
        assert_eq!(v.range(1), 1..3);
        assert_eq!(v.num_nodes(), 3);
    }

    #[test]
    fn isolated_node_graph_works() {
        let g = Graph::empty(4);
        let gt = GraphTensors::with_structural_features(&g, 3);
        assert_eq!(gt.num_edges(), 0);
        assert!(gt.features.is_finite());
    }
}
