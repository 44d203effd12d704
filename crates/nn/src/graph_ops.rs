//! Sparse message-passing ops for GNNs.
//!
//! All ops operate on an edge list `(src[e], dst[e])` shared via `Arc` so the
//! backward closures can replay the sparsity pattern without copying it.
//! Aggregation follows the paper's convention (Eq. 2): node `u` aggregates
//! over its *in*-neighbors, i.e. over edges whose `dst` is `u`.
//!
//! From [`par::WORK_FLOOR`] on, `spmm_fixed` and `attention_aggregate`
//! walk each node's in-edges through the tape's [`InEdges`] view: every
//! output row has one writer and sums in edge order, and the rows split
//! across [`par::threads`] workers with the same bits at any count.

use std::sync::Arc;

use privim_obs::Scope;

use crate::graph_tensors::InEdges;
use crate::matrix::Matrix;
use crate::par;
use crate::tape::{Tape, Var};

impl Tape {
    /// Sparse matrix product with fixed per-edge coefficients:
    /// `out[dst[e]] += coeff[e] * h[src[e]]` for every edge `e`.
    ///
    /// Gradient flows into `h` only (`coeff` is data, not a parameter):
    /// `dh[src[e]] += coeff[e] * dout[dst[e]]`.
    pub fn spmm_fixed(
        &mut self,
        h: Var,
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
        coeff: Arc<Vec<f64>>,
        n_out: usize,
    ) -> Var {
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        assert_eq!(src.len(), coeff.len(), "coeff length mismatch");
        let prof = Scope::kernel("nn.spmm");
        let d = self.value(h).cols();
        let rows = (src.len() * d >= par::WORK_FLOOR).then(|| self.in_edges(&src, &dst, n_out));
        let hv = self.value(h);
        // Per edge: mul+add over d lanes; touch (src,dst) ids + coeff,
        // read the source row, read+write the destination row.
        let (e64, d64) = (src.len() as u64, d as u64);
        prof.add_work(2 * e64 * d64, e64 * (16 + 24 * d64), e64);
        let mut out = Matrix::zeros(n_out, d);
        match rows {
            Some(rows) => for_each_in_row(
                &rows,
                out.data_mut(),
                |u| u * d,
                |t, out_t| {
                    add_in_rows(out_t, hv, &rows, t, |k| coeff[rows.edge[k] as usize]);
                },
            ),
            None => {
                for e in 0..src.len() {
                    let (s, t, c) = (src[e] as usize, dst[e] as usize, coeff[e]);
                    for (o, &x) in out.row_mut(t).iter_mut().zip(hv.row(s)) {
                        *o += c * x;
                    }
                }
            }
        }
        let (bs, bd, bc) = (Arc::clone(&src), Arc::clone(&dst), Arc::clone(&coeff));
        self.push(
            out,
            vec![h.0],
            Some(Box::new(move |ctx| {
                let prof = Scope::kernel("nn.spmm.bwd");
                let (n, d) = ctx.parents[0].shape();
                let (e64, d64) = (bs.len() as u64, d as u64);
                prof.add_work(2 * e64 * d64, e64 * (16 + 24 * d64), e64);
                let mut dh = Matrix::zeros(n, d);
                for e in 0..bs.len() {
                    let (s, t, c) = (bs[e] as usize, bd[e] as usize, bc[e]);
                    for (o, &g) in dh.row_mut(s).iter_mut().zip(ctx.grad.row(t)) {
                        *o += c * g;
                    }
                }
                vec![dh]
            })),
        )
    }

    /// Scales row `i` of `h` by the fixed coefficient `scale[i]`.
    pub fn row_scale_fixed(&mut self, h: Var, scale: Arc<Vec<f64>>) -> Var {
        let hv = self.value(h);
        assert_eq!(hv.rows(), scale.len(), "scale length must equal rows");
        let mut out = hv.clone();
        for r in 0..out.rows() {
            let c = scale[r];
            for x in out.row_mut(r) {
                *x *= c;
            }
        }
        let bscale = Arc::clone(&scale);
        self.push(
            out,
            vec![h.0],
            Some(Box::new(move |ctx| {
                let mut dh = ctx.grad.clone();
                for r in 0..dh.rows() {
                    let c = bscale[r];
                    for x in dh.row_mut(r) {
                        *x *= c;
                    }
                }
                vec![dh]
            })),
        )
    }

    /// Gathers rows: `out[e] = h[idx[e]]`.
    pub fn gather_rows(&mut self, h: Var, idx: Arc<Vec<u32>>) -> Var {
        let prof = Scope::kernel("nn.gather");
        let hv = self.value(h);
        let d = hv.cols();
        // Pure data movement: per edge an index plus a row copy in+out.
        let (e64, d64) = (idx.len() as u64, d as u64);
        prof.add_work(0, e64 * (4 + 16 * d64), e64);
        let mut out = Matrix::zeros(idx.len(), d);
        for (e, &i) in idx.iter().enumerate() {
            out.row_mut(e).copy_from_slice(hv.row(i as usize));
        }
        let bidx = Arc::clone(&idx);
        self.push(
            out,
            vec![h.0],
            Some(Box::new(move |ctx| {
                let prof = Scope::kernel("nn.gather.bwd");
                let (n, d) = ctx.parents[0].shape();
                let (e64, d64) = (bidx.len() as u64, d as u64);
                prof.add_work(e64 * d64, e64 * (4 + 24 * d64), e64);
                let mut dh = Matrix::zeros(n, d);
                for (e, &i) in bidx.iter().enumerate() {
                    for (o, &g) in dh.row_mut(i as usize).iter_mut().zip(ctx.grad.row(e)) {
                        *o += g;
                    }
                }
                vec![dh]
            })),
        )
    }

    /// Scatter-add: `out[idx[e]] += v[e]`, producing `n_out` rows.
    pub fn scatter_add_rows(&mut self, v: Var, idx: Arc<Vec<u32>>, n_out: usize) -> Var {
        let prof = Scope::kernel("nn.scatter_add");
        let vv = self.value(v);
        assert_eq!(vv.rows(), idx.len(), "scatter index length mismatch");
        let d = vv.cols();
        // Per edge: d adds; index + source row read + dest row read/write.
        let (e64, d64) = (idx.len() as u64, d as u64);
        prof.add_work(e64 * d64, e64 * (4 + 24 * d64), e64);
        let mut out = Matrix::zeros(n_out, d);
        for (e, &i) in idx.iter().enumerate() {
            for (o, &x) in out.row_mut(i as usize).iter_mut().zip(vv.row(e)) {
                *o += x;
            }
        }
        let bidx = Arc::clone(&idx);
        self.push(
            out,
            vec![v.0],
            Some(Box::new(move |ctx| {
                let prof = Scope::kernel("nn.scatter_add.bwd");
                let (e_rows, d) = ctx.parents[0].shape();
                let (e64, d64) = (e_rows as u64, d as u64);
                prof.add_work(0, e64 * (4 + 16 * d64), e64);
                let mut dv = Matrix::zeros(e_rows, d);
                for (e, &i) in bidx.iter().enumerate() {
                    dv.row_mut(e).copy_from_slice(ctx.grad.row(i as usize));
                }
                vec![dv]
            })),
        )
    }

    /// Multiplies row `e` of `v` (E×d) by the scalar `s[e]` (E×1), with
    /// gradients to both operands — the differentiable attention-weighted
    /// aggregation step of GAT/GRAT.
    pub fn row_mul(&mut self, v: Var, s: Var) -> Var {
        let _prof = Scope::kernel("nn.row_mul");
        let (e_rows, d) = self.value(v).shape();
        assert_eq!(self.value(s).shape(), (e_rows, 1), "s must be E x 1");
        let sv = self.value(s).data().to_vec();
        let mut out = self.value(v).clone();
        for (r, &c) in sv.iter().enumerate().take(e_rows) {
            for x in out.row_mut(r) {
                *x *= c;
            }
        }
        self.push(
            out,
            vec![v.0, s.0],
            Some(Box::new(move |ctx| {
                let _prof = Scope::kernel("nn.row_mul.bwd");
                let (e_rows, d) = (ctx.parents[0].rows(), d);
                let mut dv = ctx.grad.clone();
                let mut ds = Matrix::zeros(e_rows, 1);
                for r in 0..e_rows {
                    let c = ctx.parents[1][(r, 0)];
                    let mut acc = 0.0;
                    for k in 0..d {
                        acc += ctx.grad[(r, k)] * ctx.parents[0][(r, k)];
                        dv[(r, k)] *= c;
                    }
                    ds[(r, 0)] = acc;
                }
                vec![dv, ds]
            })),
        )
    }

    /// Per-node survival product for the IC diffusion loss:
    /// `out[u] = Π_{e : dst[e] = u} (1 − w[e] · a[src[e]])`, with `a` an
    /// `N × 1` activation-probability vector. Nodes without in-edges
    /// survive with probability 1.
    ///
    /// This is the exact complement of Theorem 2's influence probability
    /// `p(u|S) = 1 − Π (1 − w_vu · a_v)`. Unlike the truncated-sum upper
    /// bound, its gradient never saturates on dense neighborhoods, which
    /// is what makes the Eq. 5 loss discriminative there.
    ///
    /// Gradient: `∂out[u]/∂a[src[e]] = −w[e] · Π_{e' ≠ e} (1 − w·a)`,
    /// computed stably even when individual factors are exactly zero.
    pub fn neighbor_survival(
        &mut self,
        a: Var,
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
        weight: Arc<Vec<f64>>,
        n_out: usize,
    ) -> Var {
        let _prof = Scope::kernel("nn.neighbor_survival");
        let av = self.value(a);
        assert_eq!(av.cols(), 1, "activation must be N x 1");
        let mut out = Matrix::filled(n_out, 1, 1.0);
        for e in 0..src.len() {
            let factor = 1.0 - weight[e] * av[(src[e] as usize, 0)];
            out[(dst[e] as usize, 0)] *= factor;
        }
        let (bs, bd, bw) = (Arc::clone(&src), Arc::clone(&dst), Arc::clone(&weight));
        self.push(
            out,
            vec![a.0],
            Some(Box::new(move |ctx| {
                let _prof = Scope::kernel("nn.neighbor_survival.bwd");
                let a_val = ctx.parents[0];
                let n_out = ctx.grad.rows();
                // Zero-count bookkeeping: with z zero factors at node u,
                // Π_{e'≠e} is zero unless e is the unique zero factor.
                let mut zero_count = vec![0u32; n_out];
                let mut prod_nonzero = vec![1.0f64; n_out];
                let mut factors = vec![0.0f64; bs.len()];
                for e in 0..bs.len() {
                    let f = 1.0 - bw[e] * a_val[(bs[e] as usize, 0)];
                    factors[e] = f;
                    let u = bd[e] as usize;
                    if f == 0.0 {
                        zero_count[u] += 1;
                    } else {
                        prod_nonzero[u] *= f;
                    }
                }
                let mut da = Matrix::zeros(a_val.rows(), 1);
                for e in 0..bs.len() {
                    let u = bd[e] as usize;
                    let others = match (zero_count[u], factors[e] == 0.0) {
                        (0, _) => prod_nonzero[u] / factors[e],
                        (1, true) => prod_nonzero[u],
                        _ => 0.0,
                    };
                    da[(bs[e] as usize, 0)] += ctx.grad[(u, 0)] * (-bw[e]) * others;
                }
                vec![da]
            })),
        )
    }

    /// Softmax of `scores` (E×1) within segments: entries sharing
    /// `segment[e]` are normalized together. GAT groups edges by
    /// destination; GRAT groups by source (its defining difference).
    ///
    /// Numerically stabilized by subtracting the per-segment maximum.
    pub fn segment_softmax(
        &mut self,
        scores: Var,
        segment: Arc<Vec<u32>>,
        n_segments: usize,
    ) -> Var {
        let prof = Scope::kernel("nn.segment_softmax");
        // Three passes over E edges: max, exp-and-sum (sub, exp, add),
        // normalize (div) — 5 flops/edge counting exp as one.
        let e64 = segment.len() as u64;
        prof.add_work(5 * e64, 52 * e64, e64);
        let sv = self.value(scores);
        assert_eq!(sv.shape(), (segment.len(), 1), "scores must be E x 1");
        let mut out = sv.clone();
        softmax_segments(out.data_mut(), &segment, n_segments, 1);
        let bseg = Arc::clone(&segment);
        self.push(
            out,
            vec![scores.0],
            Some(Box::new(move |ctx| {
                let prof = Scope::kernel("nn.segment_softmax.bwd");
                // Two passes: dot accumulate (mul+add), then sub+mul.
                let e_rows = bseg.len();
                prof.add_work(4 * e_rows as u64, 48 * e_rows as u64, e_rows as u64);
                let mut ds = Matrix::zeros(e_rows, 1);
                softmax_segments_backward(
                    ctx.output.data(),
                    ctx.grad.data(),
                    &bseg,
                    n_segments,
                    ds.data_mut(),
                );
                vec![ds]
            })),
        )
    }

    /// One GAT/GRAT attention head as a single tape op:
    /// `out = agg + wh` with `agg[dst[e]] += α[e] · wh[src[e]]` and
    /// `α = segment_softmax(LeakyReLU([wh[src] ‖ wh[dst]] · att))`, the
    /// softmax grouped by `segment` (`dst` for GAT, `src` for GRAT).
    ///
    /// `wh` is `n_out × d` and `att` is `2d × 1`; `n_out` also counts the
    /// segments. Only the pre-activation scores and `α` (E scalars each)
    /// stay alive for the backward pass, never an E×d matrix.
    ///
    /// Values and gradients are bit-identical to the op chain
    /// `gather_rows` (src, dst) → `concat_cols` → `matmul` → `leaky_relu`
    /// → `segment_softmax` → `row_mul` → `scatter_add_rows` → `add`:
    /// every sum runs in the same order with the same zero skips, and the
    /// gradient of `wh` is assembled as the tape would assemble it.
    ///
    /// From the work floor on, and when every segment's edges keep their
    /// edge order in the [`InEdges`] view (true for edge lists sorted by
    /// `(src, dst)`), the whole forward runs per destination row. Only a
    /// recording tape gets the pre-activation scores and α back in edge
    /// order, for the backward pass.
    #[allow(clippy::too_many_arguments)]
    pub fn attention_aggregate(
        &mut self,
        wh: Var,
        att: Var,
        src: Arc<Vec<u32>>,
        dst: Arc<Vec<u32>>,
        segment: Arc<Vec<u32>>,
        n_out: usize,
        slope: f64,
    ) -> Var {
        let prof = Scope::kernel("nn.attention");
        let n_edges = src.len();
        assert_eq!(n_edges, dst.len(), "src/dst length mismatch");
        assert_eq!(n_edges, segment.len(), "segment length mismatch");
        let d = self.value(wh).cols();
        let rows = (n_edges * d >= par::WORK_FLOOR).then(|| self.in_edges(&src, &dst, n_out));
        let recording = self.recording();
        let whv = self.value(wh);
        assert_eq!(whv.rows(), n_out, "wh must have n_out rows");
        let attv = self.value(att);
        assert_eq!(attv.shape(), (2 * d, 1), "att must be 2d x 1");
        // Per node: the source half of the score (2d) and the residual
        // (d). Per edge: the destination half (2d), LeakyReLU 1, softmax
        // 5, weighted aggregation 2d. Traffic per node: its row and its
        // score half, then the residual's two reads and one write per
        // lane; per edge: 3 ids, the destination row and source half,
        // pre-activation and score writes, the softmax's 52 bytes, then α,
        // the source row and the destination row read/write; `att` once.
        let (e64, d64, n64) = (n_edges as u64, d as u64, n_out as u64);
        prof.add_work(
            e64 * (4 * d64 + 6) + 3 * n64 * d64,
            e64 * (96 + 32 * d64) + n64 * (8 + 32 * d64) + 16 * d64,
            e64,
        );
        let rows = rows.and_then(|rows| Some((segments_by_row(&rows, &segment, n_out)?, rows)));
        let (pre, alpha, out) = match rows {
            Some((seg, rows)) => attention_rows(&rows, &seg, whv, attv.data(), slope, recording),
            None => attention_edges(&src, &dst, whv, attv.data(), &segment, slope),
        };
        self.push(
            out,
            vec![wh.0, att.0],
            Some(Box::new(move |ctx| {
                let prof = Scope::kernel("nn.attention.bwd");
                let (g, whv) = (ctx.grad, ctx.parents[0]);
                let (n, d) = whv.shape();
                // Per edge: dα 2d, softmax 4, LeakyReLU 1, d(att) 4d, the
                // two row gradients 2d + 4d; N·d lanes combine with 2 adds.
                // Traffic per edge: 3 ids, G and wh rows for dα, the
                // softmax's 48 bytes, LeakyReLU's 24, both wh rows plus
                // d(att) read/write, `att` twice, G again, α and both
                // gradient rows read/write; 3 reads and a write per lane.
                let (e64, d64, n64) = (src.len() as u64, d as u64, n as u64);
                prof.add_work(
                    e64 * (12 * d64 + 5) + 2 * n64 * d64,
                    e64 * (100 + 120 * d64) + 32 * n64 * d64,
                    e64,
                );
                let (att_src, att_dst) = ctx.parents[1].data().split_at(d);
                // Into α through the weighted rows: Σ_k G[dst,k] · wh[src,k].
                let dalpha: Vec<f64> = src
                    .iter()
                    .zip(dst.iter())
                    .map(|(&s, &t)| {
                        let mut acc = 0.0;
                        for (&gk, &x) in g.row(t as usize).iter().zip(whv.row(s as usize)) {
                            acc += gk * x;
                        }
                        acc
                    })
                    .collect();
                let mut dscore = vec![0.0; src.len()];
                softmax_segments_backward(&alpha, &dalpha, &segment, n, &mut dscore);
                for (ds, &x) in dscore.iter_mut().zip(&pre) {
                    *ds = if x > 0.0 { *ds } else { slope * *ds };
                }
                let mut datt = Matrix::zeros(2 * d, 1);
                let mut dh_dst = Matrix::zeros(n, d);
                let mut dh_src = Matrix::zeros(n, d);
                for e in 0..src.len() {
                    let (s, t) = (src[e] as usize, dst[e] as usize);
                    let (a, c) = (alpha[e], dscore[e]);
                    // d(att) in edge order with `Matrix::matmul_tn`'s zero skip.
                    let (datt_src, datt_dst) = datt.data_mut().split_at_mut(d);
                    for (acc, &x) in datt_src.iter_mut().zip(whv.row(s)) {
                        if x != 0.0 {
                            *acc += x * c;
                        }
                    }
                    for (acc, &x) in datt_dst.iter_mut().zip(whv.row(t)) {
                        if x != 0.0 {
                            *acc += x * c;
                        }
                    }
                    for (acc, &w) in dh_dst.row_mut(t).iter_mut().zip(att_dst) {
                        *acc += c * w;
                    }
                    let lanes = dh_src.row_mut(s).iter_mut().zip(g.row(t));
                    for ((acc, &gk), &w) in lanes.zip(att_src) {
                        *acc += gk * a + c * w;
                    }
                }
                // The residual's gradient first, then the destination
                // rows', then the source rows', as the tape sums them.
                let lanes = dh_dst.data_mut().iter_mut().zip(g.data());
                for ((acc, &gk), &hs) in lanes.zip(dh_src.data()) {
                    *acc = (gk + *acc) + hs;
                }
                vec![dh_dst, datt]
            })),
        )
    }
}

/// [`Tape::attention_aggregate`]'s forward in edge order: the
/// pre-activation scores, α and the output.
fn attention_edges(
    src: &[u32],
    dst: &[u32],
    wh: &Matrix,
    att: &[f64],
    segment: &[u32],
    slope: f64,
) -> (Vec<f64>, Vec<f64>, Matrix) {
    let (n, d) = wh.shape();
    let (att_src, att_dst) = att.split_at(d);
    // Scores in `Matrix::matmul`'s order over `[wh[src] ‖ wh[dst]]`.
    // The source half of the sum depends on the source node only, so
    // it is taken once per node and each edge continues from it.
    let src_half: Vec<f64> = (0..n).map(|v| dot_from(0.0, wh.row(v), att_src)).collect();
    let mut pre = Vec::with_capacity(src.len());
    let mut alpha = Vec::with_capacity(src.len());
    for (&s, &t) in src.iter().zip(dst) {
        let acc = dot_from(src_half[s as usize], wh.row(t as usize), att_dst);
        pre.push(acc);
        alpha.push(if acc > 0.0 { acc } else { slope * acc });
    }
    softmax_segments(&mut alpha, segment, n, 1);
    let mut out = Matrix::zeros(n, d);
    for ((&s, &t), &a) in src.iter().zip(dst).zip(&alpha) {
        for (o, &x) in out.row_mut(t as usize).iter_mut().zip(wh.row(s as usize)) {
            *o += x * a;
        }
    }
    // Residual self connection.
    for (o, &x) in out.data_mut().iter_mut().zip(wh.data()) {
        *o += x;
    }
    (pre, alpha, out)
}

/// Lanes of `wh[t] · att_dst` taken at once for all of `t`'s in-edges.
const LANE_BLOCK: usize = 32;

/// Each in-edge's segment, in `rows` order, when every segment meets its
/// edges there in edge order, so that sums over a segment keep their
/// bits; `None` otherwise. Edge lists sorted by `(src, dst)`, as
/// [`crate::graph_tensors::GraphTensors`] builds them, qualify for
/// segments by source and by destination alike.
fn segments_by_row(rows: &InEdges, segment: &[u32], n_segments: usize) -> Option<Vec<u32>> {
    // The smallest edge id each segment may meet next.
    let mut next = vec![0u32; n_segments];
    rows.edge
        .iter()
        .map(|&e| {
            let g = segment[e as usize];
            (e >= next[g as usize]).then(|| {
                next[g as usize] = e + 1;
                g
            })
        })
        .collect()
}

/// [`attention_edges`] per destination row over `rows`, with the same
/// bits, for segments [`segments_by_row`] orders as `seg`. The scores,
/// the softmax and α run in `rows` order; only when `recording` do the
/// pre-activation scores and α go back to edge order (else both empty).
fn attention_rows(
    rows: &InEdges,
    seg: &[u32],
    wh: &Matrix,
    att: &[f64],
    slope: f64,
    recording: bool,
) -> (Vec<f64>, Vec<f64>, Matrix) {
    let (n, d) = wh.shape();
    let n_edges = rows.edge.len();
    let (att_src, att_dst) = att.split_at(d);
    let mut src_half = vec![0.0; n];
    for_each_in_row(
        rows,
        &mut src_half,
        |v| v,
        |v, h| {
            h[0] = dot_from(0.0, wh.row(v), att_src);
        },
    );
    // Every in-edge of `t` continues its source half with the same
    // products `wh[t, k] · att_dst[k]`, so they are taken once per block
    // of lanes. An exact zero lane adds −0.0, which leaves any sum as
    // it is, just as `dot_from`'s skip does.
    let mut alpha = vec![0.0; n_edges];
    let at = |t: usize| rows.offsets[t] as usize;
    for_each_in_row(rows, &mut alpha, at, |t, pre_t| {
        for (p, k) in pre_t.iter_mut().zip(rows.range(t)) {
            *p = src_half[rows.src[k] as usize];
        }
        let blocks = wh.row(t).chunks(LANE_BLOCK).zip(att_dst.chunks(LANE_BLOCK));
        for (x, w) in blocks {
            let mut lanes = [0.0; LANE_BLOCK];
            for (l, (&x, &w)) in lanes.iter_mut().zip(x.iter().zip(w)) {
                *l = if x != 0.0 { x * w } else { -0.0 };
            }
            let lanes = &lanes[..x.len()];
            for p in pre_t.iter_mut() {
                *p = lanes.iter().fold(*p, |acc, &l| acc + l);
            }
        }
    });
    let to_edge_order = |by_row: &[f64]| {
        let mut by_edge = vec![0.0; n_edges];
        for (&e, &x) in rows.edge.iter().zip(by_row) {
            by_edge[e as usize] = x;
        }
        by_edge
    };
    // `alpha` holds the pre-activation scores; α replaces them in place.
    let pre = if recording {
        to_edge_order(&alpha)
    } else {
        Vec::new()
    };
    for x in alpha.iter_mut() {
        *x = if *x > 0.0 { *x } else { slope * *x };
    }
    softmax_segments(&mut alpha, seg, n, par::threads());
    let mut out = Matrix::zeros(n, d);
    for_each_in_row(
        rows,
        out.data_mut(),
        |u| u * d,
        |t, out_t| {
            add_in_rows(out_t, wh, rows, t, |k| alpha[k]);
            // Residual self connection.
            for (o, &x) in out_t.iter_mut().zip(wh.row(t)) {
                *o += x;
            }
        },
    );
    let alpha = if recording {
        to_edge_order(&alpha)
    } else {
        Vec::new()
    };
    (pre, alpha, out)
}

/// `out_t += Σ_k w(k) · h[src_k]` over `t`'s in-edges `k` in `rows`, one
/// in-edge after the other as an edge-order loop adds them, two per pass
/// over the lanes: `(o + p) + q` rounds as two passes do.
fn add_in_rows(out_t: &mut [f64], h: &Matrix, rows: &InEdges, t: usize, w: impl Fn(usize) -> f64) {
    let term = |k: usize| (w(k), h.row(rows.src[k] as usize));
    let mut ks = rows.range(t);
    while ks.len() >= 2 {
        let ((a, x), (b, y)) = (term(ks.start), term(ks.start + 1));
        for ((o, &x), &y) in out_t.iter_mut().zip(x).zip(y) {
            *o = (*o + a * x) + b * y;
        }
        ks.start += 2;
    }
    if let Some(k) = ks.next() {
        let (a, x) = term(k);
        for (o, &x) in out_t.iter_mut().zip(x) {
            *o += a * x;
        }
    }
}

/// Runs `row(u, out_u)` for every node `u` of `rows`, where `out_u` is
/// `out[at(u)..at(u + 1)]` (`at` increasing, `at(0) = 0`), with the nodes
/// split across [`par::threads`] workers by work.
fn for_each_in_row(
    rows: &InEdges,
    out: &mut [f64],
    at: impl Fn(usize) -> usize + Sync,
    row: impl Fn(usize, &mut [f64]) + Sync,
) {
    let bounds = rows.bounds(par::threads());
    let cuts: Vec<usize> = bounds.iter().map(|&u| at(u)).collect();
    let ranges = bounds.windows(2).map(|w| w[0]..w[1]);
    par::fan_out(
        ranges.zip(par::split_at_bounds(out, &cuts)).collect(),
        |(nodes, mut rest)| {
            for u in nodes {
                let (out_u, tail) = std::mem::take(&mut rest).split_at_mut(at(u + 1) - at(u));
                row(u, out_u);
                rest = tail;
            }
        },
    );
}

/// `acc + Σ_k x[k] · w[k]`, accumulated in lane order and skipping exact
/// zeros in `x` as `Matrix::matmul` does.
fn dot_from(mut acc: f64, x: &[f64], w: &[f64]) -> f64 {
    for (&x, &w) in x.iter().zip(w) {
        if x != 0.0 {
            acc += x * w;
        }
    }
    acc
}

/// Softmax of `scores` within segments, in place: entries sharing
/// `segment[e]` are normalized together, after subtracting the segment's
/// maximum so large scores cannot overflow. The exponentials split across
/// `parts` workers; the segment sums run in slice order.
fn softmax_segments(scores: &mut [f64], segment: &[u32], n_segments: usize, parts: usize) {
    let mut seg_max = vec![f64::NEG_INFINITY; n_segments];
    for (&x, &g) in scores.iter().zip(segment) {
        seg_max[g as usize] = seg_max[g as usize].max(x);
    }
    let exp_from = |lo: usize, chunk: &mut [f64]| {
        for (x, &g) in chunk.iter_mut().zip(&segment[lo..]) {
            *x = (*x - seg_max[g as usize]).exp();
        }
    };
    if parts > 1 {
        let cuts = par::row_bounds(scores.len(), parts, |e| e);
        let chunks = cuts
            .iter()
            .copied()
            .zip(par::split_at_bounds(scores, &cuts));
        par::fan_out(chunks.collect(), |(lo, chunk)| exp_from(lo, chunk));
    } else {
        exp_from(0, scores);
    }
    let mut seg_sum = vec![0.0f64; n_segments];
    for (&y, &g) in scores.iter().zip(segment) {
        seg_sum[g as usize] += y;
    }
    for (y, &g) in scores.iter_mut().zip(segment) {
        *y /= seg_sum[g as usize];
    }
}

/// Backward of [`softmax_segments`] given its output `alpha` and the
/// upstream `grad`: `ds[e] = α[e] · (grad[e] − Σ_{e' in segment} α[e'] · grad[e'])`.
fn softmax_segments_backward(
    alpha: &[f64],
    grad: &[f64],
    segment: &[u32],
    n_segments: usize,
    ds: &mut [f64],
) {
    let mut seg_dot = vec![0.0f64; n_segments];
    for ((&a, &g), &s) in alpha.iter().zip(grad).zip(segment) {
        seg_dot[s as usize] += a * g;
    }
    for (((out, &a), &g), &s) in ds.iter_mut().zip(alpha).zip(grad).zip(segment) {
        *out = a * (g - seg_dot[s as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_gradients;

    fn rc(v: Vec<u32>) -> Arc<Vec<u32>> {
        Arc::new(v)
    }

    #[test]
    fn spmm_fixed_forward_matches_dense() {
        // Graph: 0->1 (w 2.0), 0->2 (w 3.0), 1->2 (w 0.5)
        let mut t = Tape::new();
        let h = t.leaf(Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let out = t.spmm_fixed(
            h,
            rc(vec![0, 0, 1]),
            rc(vec![1, 2, 2]),
            Arc::new(vec![2.0, 3.0, 0.5]),
            3,
        );
        let v = t.value(out);
        assert_eq!(v.row(0), &[0., 0.]);
        assert_eq!(v.row(1), &[2., 4.]);
        assert_eq!(v.row(2), &[3. + 1.5, 6. + 2.]);
    }

    #[test]
    fn spmm_fixed_gradcheck() {
        let src = rc(vec![0, 0, 1, 2, 3]);
        let dst = rc(vec![1, 2, 2, 3, 0]);
        let coeff = Arc::new(vec![0.5, -1.0, 2.0, 0.3, 1.1]);
        check_gradients(
            &[(4, 3)],
            move |t, vars| {
                let y = t.spmm_fixed(
                    vars[0],
                    Arc::clone(&src),
                    Arc::clone(&dst),
                    Arc::clone(&coeff),
                    4,
                );
                let y = t.tanh(y);
                t.sum(y)
            },
            1e-6,
        );
    }

    #[test]
    fn row_scale_fixed_gradcheck() {
        let scale = Arc::new(vec![0.5, 2.0, -1.0]);
        check_gradients(
            &[(3, 2)],
            move |t, vars| {
                let y = t.row_scale_fixed(vars[0], Arc::clone(&scale));
                let y = t.sigmoid(y);
                t.sum(y)
            },
            1e-6,
        );
    }

    #[test]
    fn gather_scatter_round_trip_values() {
        let mut t = Tape::new();
        let h = t.leaf(Matrix::from_vec(2, 1, vec![10.0, 20.0]));
        let g = t.gather_rows(h, rc(vec![1, 0, 1]));
        assert_eq!(t.value(g).data(), &[20.0, 10.0, 20.0]);
        let s = t.scatter_add_rows(g, rc(vec![0, 0, 1]), 2);
        assert_eq!(t.value(s).data(), &[30.0, 20.0]);
    }

    #[test]
    fn gather_rows_gradcheck() {
        let idx = rc(vec![2, 0, 1, 2, 2]);
        check_gradients(
            &[(3, 2)],
            move |t, vars| {
                let y = t.gather_rows(vars[0], Arc::clone(&idx));
                let y = t.tanh(y);
                t.sum(y)
            },
            1e-6,
        );
    }

    #[test]
    fn scatter_add_gradcheck() {
        let idx = rc(vec![1, 1, 0, 2]);
        check_gradients(
            &[(4, 2)],
            move |t, vars| {
                let y = t.scatter_add_rows(vars[0], Arc::clone(&idx), 3);
                let y = t.sigmoid(y);
                t.sum(y)
            },
            1e-6,
        );
    }

    #[test]
    fn row_mul_gradcheck() {
        check_gradients(
            &[(4, 3), (4, 1)],
            |t, vars| {
                let y = t.row_mul(vars[0], vars[1]);
                let y = t.tanh(y);
                t.sum(y)
            },
            1e-6,
        );
    }

    #[test]
    fn segment_softmax_normalizes_per_segment() {
        let mut t = Tape::new();
        let s = t.leaf(Matrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 100.0]));
        let seg = rc(vec![0, 0, 1, 1]);
        let y = t.segment_softmax(s, seg, 2);
        let v = t.value(y);
        assert!((v[(0, 0)] + v[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((v[(2, 0)] + v[(3, 0)] - 1.0).abs() < 1e-12);
        assert!(v[(1, 0)] > v[(0, 0)]);
        // Large score must not overflow thanks to max subtraction.
        assert!(v[(3, 0)] > 0.999);
    }

    #[test]
    fn segment_softmax_gradcheck() {
        let seg = rc(vec![0, 0, 0, 1, 1]);
        check_gradients(
            &[(5, 1), (5, 1)],
            move |t, vars| {
                let a = t.segment_softmax(vars[0], Arc::clone(&seg), 2);
                let w = t.mul(a, vars[1]); // weight by arbitrary values
                t.sum(w)
            },
            1e-6,
        );
    }

    #[test]
    fn neighbor_survival_values() {
        // Node 2 has in-edges from 0 (w=1) and 1 (w=0.5).
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(3, 1, vec![0.4, 0.8, 0.0]));
        let y = t.neighbor_survival(
            a,
            rc(vec![0, 1]),
            rc(vec![2, 2]),
            Arc::new(vec![1.0, 0.5]),
            3,
        );
        let v = t.value(y);
        assert_eq!(v[(0, 0)], 1.0, "no in-edges survive with probability 1");
        assert_eq!(v[(1, 0)], 1.0);
        let want = (1.0 - 0.4) * (1.0 - 0.5 * 0.8);
        assert!((v[(2, 0)] - want).abs() < 1e-12);
    }

    #[test]
    fn neighbor_survival_gradcheck() {
        let src = rc(vec![0, 1, 2, 0, 3]);
        let dst = rc(vec![2, 2, 3, 3, 0]);
        let w = Arc::new(vec![0.9, 0.5, 0.7, 0.3, 0.8]);
        // Keep activations strictly inside (0, 1) so no factor is zero.
        let a0 = Matrix::from_vec(4, 1, vec![0.2, 0.6, 0.35, 0.75]);
        crate::testutil::check_gradients_at(
            &[a0],
            move |t, vars| {
                let y = t.neighbor_survival(
                    vars[0],
                    Arc::clone(&src),
                    Arc::clone(&dst),
                    Arc::clone(&w),
                    4,
                );
                t.sum(y)
            },
            1e-6,
        );
    }

    #[test]
    fn neighbor_survival_handles_exact_zero_factors() {
        // a[0] = 1 with w = 1 gives factor exactly 0 at node 1.
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(3, 1, vec![1.0, 0.5, 0.0]));
        let y = t.neighbor_survival(
            a,
            rc(vec![0, 2]),
            rc(vec![1, 1]),
            Arc::new(vec![1.0, 1.0]),
            3,
        );
        assert_eq!(t.value(y)[(1, 0)], 0.0);
        let loss = t.sum(y);
        let g = t.backward(loss);
        let da = g.get(a).unwrap();
        // d survive(1)/d a0 = -1 · (1 - a2) = -1; d/d a2 = -1 · 0 = 0.
        assert!((da[(0, 0)] + 1.0).abs() < 1e-12, "{da:?}");
        assert_eq!(da[(2, 0)], 0.0);
        assert!(da.is_finite());
    }

    const SLOPE: f64 = 0.2;

    /// The op chain `attention_aggregate` fuses, kept as its reference.
    fn attention_chain(
        t: &mut Tape,
        wh: Var,
        att: Var,
        src: &Arc<Vec<u32>>,
        dst: &Arc<Vec<u32>>,
        segment: &Arc<Vec<u32>>,
        n: usize,
    ) -> Var {
        let hs = t.gather_rows(wh, Arc::clone(src));
        let hd = t.gather_rows(wh, Arc::clone(dst));
        let cat = t.concat_cols(hs, hd);
        let scores = t.matmul(cat, att);
        let scores = t.leaky_relu(scores, SLOPE);
        let alpha = t.segment_softmax(scores, Arc::clone(segment), n);
        let msg = t.row_mul(hs, alpha);
        let agg = t.scatter_add_rows(msg, Arc::clone(dst), n);
        t.add(agg, wh)
    }

    /// Output, d(wh) and d(att) under a loss with uneven per-entry weights.
    fn attention_run(
        fused: bool,
        wh0: &Matrix,
        att0: &Matrix,
        src: &Arc<Vec<u32>>,
        dst: &Arc<Vec<u32>>,
        segment: &Arc<Vec<u32>>,
    ) -> [Matrix; 3] {
        let (n, d) = wh0.shape();
        let mut t = Tape::new();
        let wh = t.leaf(wh0.clone());
        let att = t.leaf(att0.clone());
        let out = if fused {
            let seg = Arc::clone(segment);
            t.attention_aggregate(wh, att, Arc::clone(src), Arc::clone(dst), seg, n, SLOPE)
        } else {
            attention_chain(&mut t, wh, att, src, dst, segment, n)
        };
        let y = t.tanh(out);
        let w = t.leaf(Matrix::from_fn(n, d, |r, c| {
            ((3 * r + c) as f64 * 0.37).sin()
        }));
        let y = t.mul(y, w);
        let loss = t.sum(y);
        let g = t.backward(loss);
        [
            t.value(out).clone(),
            g.get(wh).unwrap().clone(),
            g.get(att).unwrap().clone(),
        ]
    }

    fn assert_fused_matches_chain(wh: &Matrix, att: &Matrix, src: Vec<u32>, dst: Vec<u32>) {
        let (src, dst) = (rc(src), rc(dst));
        for (name, segment) in [("GAT", &dst), ("GRAT", &src)] {
            let fused = attention_run(true, wh, att, &src, &dst, segment);
            let chain = attention_run(false, wh, att, &src, &dst, segment);
            for (what, f, c) in [
                ("output", &fused[0], &chain[0]),
                ("d(wh)", &fused[1], &chain[1]),
                ("d(att)", &fused[2], &chain[2]),
            ] {
                assert_eq!(f.shape(), c.shape(), "{name} {what}");
                for (i, (x, y)) in f.data().iter().zip(c.data()).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{name} {what}[{i}]: {x} vs {y}");
                }
            }
        }
    }

    /// Six nodes: a duplicated edge 0→1, a self-loop at 2, node 4 with
    /// in-edges only, node 5 isolated; node 3's row and other entries
    /// of `wh` are exact zeros.
    fn attention_fixture() -> (Matrix, Matrix, Vec<u32>, Vec<u32>) {
        #[rustfmt::skip]
        let wh = Matrix::from_vec(6, 3, vec![
            0.8, -0.3, 0.0,
            -1.2, 0.5, 0.7,
            0.0, 0.9, -0.4,
            0.0, 0.0, 0.0,
            0.6, 0.0, -0.9,
            1.1, -0.7, 0.2,
        ]);
        let att = Matrix::from_vec(6, 1, vec![0.9, -0.6, 0.4, -0.8, 0.3, 1.3]);
        let src = vec![0, 0, 1, 2, 3, 1, 0, 3, 2];
        let dst = vec![1, 1, 2, 2, 4, 4, 3, 0, 4];
        (wh, att, src, dst)
    }

    #[test]
    fn attention_aggregate_is_bit_identical_to_the_op_chain() {
        let (wh, att, src, dst) = attention_fixture();
        assert_fused_matches_chain(&wh, &att, src, dst);
    }

    #[test]
    fn attention_aggregate_is_bit_identical_on_a_random_multigraph() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let (n, d, e) = (30, 8, 200);
        let wh = Matrix::from_fn(n, d, |_, _| {
            if rng.gen_range(0..5u32) == 0 {
                0.0
            } else {
                rng.gen_range(-2.0..2.0)
            }
        });
        let att = Matrix::from_fn(2 * d, 1, |_, _| rng.gen_range(-1.0..1.0));
        // Nodes 0..4 send nothing, so they sit in no GRAT segment.
        let src = (0..e).map(|_| rng.gen_range(4..n as u32)).collect();
        let dst = (0..e).map(|_| rng.gen_range(0..n as u32)).collect();
        assert_fused_matches_chain(&wh, &att, src, dst);
    }

    /// A seeded multigraph of `e` edges on `n` nodes, with parallel edges
    /// and self-loops; node 0 sends nothing. Sorted by `(src, dst)` as
    /// `GraphTensors` builds edge lists, when `sorted`.
    fn random_multigraph(seed: u64, n: u32, e: usize, sorted: bool) -> (Vec<u32>, Vec<u32>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(u32, u32)> = (0..e)
            .map(|_| (rng.gen_range(1..n), rng.gen_range(0..n / 2)))
            .collect();
        if sorted {
            edges.sort_unstable();
        }
        edges.into_iter().unzip()
    }

    #[test]
    fn attention_aggregate_above_the_work_floor_is_bit_identical_to_the_op_chain() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let (n, d, e) = (300, 16, 6_000);
        assert!(e * d >= par::WORK_FLOOR);
        let wh = Matrix::from_fn(n, d, |_, _| {
            if rng.gen_range(0..5u32) == 0 {
                0.0
            } else {
                rng.gen_range(-2.0..2.0)
            }
        });
        let att = Matrix::from_fn(2 * d, 1, |_, _| rng.gen_range(-1.0..1.0));
        // Sorted, both segmentations run per destination row; unsorted,
        // GRAT's falls back to edge order.
        for sorted in [true, false] {
            let (src, dst) = random_multigraph(5, n as u32, e, sorted);
            let rows = InEdges::new(&src, &dst, n);
            let by_src = segments_by_row(&rows, &src, n);
            assert_eq!(by_src.is_some(), sorted);
            assert!(segments_by_row(&rows, &dst, n).is_some());
            for threads in 1..=3 {
                par::with_threads(threads, || {
                    assert_fused_matches_chain(&wh, &att, src.clone(), dst.clone())
                });
            }
        }
    }

    #[test]
    fn spmm_fixed_above_the_work_floor_matches_the_edge_loop() {
        let (n, d, e) = (200, 8, 9_000);
        assert!(e * d >= par::WORK_FLOOR);
        let (src, dst) = random_multigraph(11, n as u32, e, false);
        let h = Matrix::from_fn(n, d, |r, c| ((7 * r + 3 * c) as f64 * 0.61).sin());
        let coeff: Vec<f64> = (0..e).map(|i| (i as f64 * 0.37).cos()).collect();
        let mut expected = Matrix::zeros(n, d);
        for i in 0..e {
            let (s, t) = (src[i] as usize, dst[i] as usize);
            for (o, &x) in expected.row_mut(t).iter_mut().zip(h.row(s)) {
                *o += coeff[i] * x;
            }
        }
        let (src, dst, coeff) = (rc(src), rc(dst), Arc::new(coeff));
        for threads in 1..=3 {
            let mut t = Tape::no_grad();
            let vh = t.leaf(h.clone());
            let out = par::with_threads(threads, || {
                t.spmm_fixed(
                    vh,
                    Arc::clone(&src),
                    Arc::clone(&dst),
                    Arc::clone(&coeff),
                    n,
                )
            });
            let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(t.value(out)), bits(&expected), "{threads} threads");
        }
    }

    #[test]
    fn attention_aggregate_gradcheck() {
        let (_, _, src, dst) = attention_fixture();
        let (src, dst) = (rc(src), rc(dst));
        check_gradients(
            &[(6, 3), (6, 1)],
            move |t, vars| {
                let y = t.attention_aggregate(
                    vars[0],
                    vars[1],
                    Arc::clone(&src),
                    Arc::clone(&dst),
                    Arc::clone(&src),
                    6,
                    SLOPE,
                );
                let y = t.tanh(y);
                t.sum(y)
            },
            1e-6,
        );
    }

    #[test]
    fn singleton_segments_softmax_to_one() {
        let mut t = Tape::new();
        let s = t.leaf(Matrix::from_vec(3, 1, vec![-5.0, 0.0, 7.0]));
        let y = t.segment_softmax(s, rc(vec![0, 1, 2]), 3);
        for e in 0..3 {
            assert!((t.value(y)[(e, 0)] - 1.0).abs() < 1e-12);
        }
    }
}
