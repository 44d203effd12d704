//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] records a DAG of operations; [`Tape::backward`] replays it in
//! reverse, producing gradients for every recorded variable. Tapes are
//! cheap, single-use objects: PrivIM's DP-SGD needs *per-subgraph* gradients
//! (Algorithm 2 clips each subgraph's gradient individually), so the
//! training loop builds one fresh tape per subgraph per iteration.
//!
//! Dense ops live here; sparse message-passing ops live in
//! [`crate::graph_ops`].
//!
//! A [`Tape::no_grad`] tape frees what a forward pass no longer needs:
//! [`Tape::release`] names a value's last reader, which writes an
//! elementwise result into the value's buffer or drops it once read, so
//! a graph-scale forward keeps a layer's inputs and outputs live, not
//! every value it ever made.

use std::sync::Arc;

use privim_obs::Scope;

use crate::graph_tensors::InEdges;
use crate::matrix::Matrix;

/// Handle to a value recorded on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Context handed to an op's backward function.
pub struct BackwardCtx<'a> {
    /// Upstream gradient (same shape as the op's output).
    pub grad: &'a Matrix,
    /// Values of the op's parents, in registration order.
    pub parents: Vec<&'a Matrix>,
    /// The op's own output value.
    pub output: &'a Matrix,
}

type BackwardFn = Box<dyn Fn(&BackwardCtx<'_>) -> Vec<Matrix>>;

struct Node {
    value: Matrix,
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
    life: Life,
}

/// Where a value stands under [`Tape::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Life {
    /// Readable by any number of ops.
    Live,
    /// Released: the next op that reads it is its last reader.
    LastRead,
    /// Its last reader ran and took or dropped its buffer.
    Freed,
}

/// Records a computation DAG for reverse-mode differentiation.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Set by [`Tape::no_grad`]: ops keep only their values.
    no_grad: bool,
    /// Dst-major views built by graph-scale ops, with the `(src, dst)`
    /// arrays each was built from: the layers of one forward share one.
    in_edges: Vec<(EdgeArrays, Arc<InEdges>)>,
}

/// An edge list's `(src, dst)` arrays.
type EdgeArrays = (Arc<Vec<u32>>, Arc<Vec<u32>>);

/// Gradients computed by [`Tape::backward`], indexed by [`Var`].
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the loss with respect to `v`, if `v` influenced the loss.
    pub fn get(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Takes ownership of the gradient for `v` (zero matrix if absent).
    pub fn take(&mut self, v: Var, shape: (usize, usize)) -> Matrix {
        self.grads
            .get_mut(v.0)
            .and_then(Option::take)
            .unwrap_or_else(|| Matrix::zeros(shape.0, shape.1))
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// An empty inference-only tape. Each op records its value and drops
    /// its parents and backward function at once, with the edge-length
    /// buffers those capture, so a forward pass holds only its values.
    /// Values are bit-equal to a recording tape's; [`Tape::backward`]
    /// panics.
    pub fn no_grad() -> Self {
        Tape {
            no_grad: true,
            ..Tape::default()
        }
    }

    /// True unless this is a [`Tape::no_grad`] tape.
    pub(crate) fn recording(&self) -> bool {
        !self.no_grad
    }

    /// The dst-major view of `(src, dst)` over `n_out` nodes, built on
    /// first use and kept for the tape's life. The tape holds the arrays
    /// too, so pointer equality identifies them.
    pub(crate) fn in_edges(
        &mut self,
        src: &Arc<Vec<u32>>,
        dst: &Arc<Vec<u32>>,
        n_out: usize,
    ) -> Arc<InEdges> {
        let cached = self.in_edges.iter().find(|((s, d), v)| {
            Arc::ptr_eq(s, src) && Arc::ptr_eq(d, dst) && v.num_nodes() == n_out
        });
        if let Some((_, view)) = cached {
            return Arc::clone(view);
        }
        let view = Arc::new(InEdges::new(src, dst, n_out));
        let arrays = (Arc::clone(src), Arc::clone(dst));
        self.in_edges.push((arrays, Arc::clone(&view)));
        view
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The current value of `v`.
    ///
    /// # Panics
    /// If `v` was released on a [`Tape::no_grad`] tape and its last
    /// reader has run: its buffer is gone.
    pub fn value(&self, v: Var) -> &Matrix {
        let node = &self.nodes[v.0];
        assert!(
            node.life != Life::Freed,
            "Var({}) read after its last reader on a no_grad tape (see Tape::release)",
            v.0
        );
        &node.value
    }

    /// Marks the next op that reads `v` as its last reader. On a
    /// [`Tape::no_grad`] tape that op takes `v`'s buffer: an elementwise
    /// op writes its result into it, any other op drops it once read,
    /// and any later read of `v` panics. Release a value read by several
    /// ops only before the last of them. A recording tape keeps every
    /// value for [`Tape::backward`], so there it does nothing.
    pub fn release(&mut self, v: Var) {
        if self.no_grad {
            // Releasing a freed value reads it after its last reader.
            self.value(v);
            self.nodes[v.0].life = Life::LastRead;
        }
    }

    /// `a`'s buffer, when `a` is released and the calling op, its last
    /// reader, may write into it.
    fn take_released(&mut self, a: Var) -> Option<Matrix> {
        let node = &mut self.nodes[a.0];
        (node.life == Life::LastRead).then(|| {
            node.life = Life::Freed;
            std::mem::take(&mut node.value)
        })
    }

    /// `a`'s value, for an op that changes it in place: its own buffer
    /// when released, else a copy.
    pub(crate) fn value_to_overwrite(&mut self, a: Var) -> Matrix {
        match self.take_released(a) {
            Some(m) => m,
            None => self.value(a).clone(),
        }
    }

    /// `f` of every entry of `a`, in `a`'s buffer when it is released.
    fn map_value(&mut self, a: Var, f: impl Fn(f64) -> f64) -> Matrix {
        match self.take_released(a) {
            Some(mut m) => {
                m.data_mut().iter_mut().for_each(|x| *x = f(*x));
                m
            }
            None => self.value(a).map(f),
        }
    }

    /// `f` of `a` and `b` entry by entry, in `a`'s buffer when `a` is
    /// released and is not also `b`.
    fn zip_value(&mut self, a: Var, b: Var, f: impl Fn(f64, f64) -> f64) -> Matrix {
        let shape = self.value(b).shape();
        assert_eq!(self.value(a).shape(), shape, "zip_map shape mismatch");
        let taken = if a != b { self.take_released(a) } else { None };
        match taken {
            Some(mut m) => {
                let lanes = m.data_mut().iter_mut().zip(self.value(b).data());
                lanes.for_each(|(x, &y)| *x = f(*x, y));
                m
            }
            None => self.value(a).zip_map(self.value(b), f),
        }
    }

    /// Records a leaf (input or parameter). Gradients flow into leaves.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Vec::new(), None)
    }

    pub(crate) fn push(
        &mut self,
        value: Matrix,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
    ) -> Var {
        // Non-finite values are recorded as they are, in every build
        // profile: the training loop's non-finite guard owns that
        // condition (it skips the step and aborts a divergent streak).
        let (parents, backward) = if self.no_grad {
            // This op was the last reader of its released parents.
            for &p in &parents {
                drop(self.take_released(Var(p)));
            }
            (Vec::new(), None)
        } else {
            (parents, backward)
        };
        self.nodes.push(Node {
            value,
            parents,
            backward,
            life: Life::Live,
        });
        Var(self.nodes.len() - 1)
    }

    /// Runs the backward pass from scalar `loss` (must be 1×1).
    ///
    /// # Panics
    /// If `loss` is not a 1×1 variable on this tape, or the tape is a
    /// [`Tape::no_grad`] one.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert!(
            !self.no_grad,
            "Tape::backward on a no_grad tape: it recorded no backward functions"
        );
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "loss must be scalar"
        );
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Matrix::scalar(1.0));
        for i in (0..=loss.0).rev() {
            let Some(grad) = grads[i].take() else {
                continue;
            };
            let node = &self.nodes[i];
            if let Some(backward) = &node.backward {
                let ctx = BackwardCtx {
                    grad: &grad,
                    parents: node.parents.iter().map(|&p| &self.nodes[p].value).collect(),
                    output: &node.value,
                };
                let parent_grads = backward(&ctx);
                debug_assert_eq!(parent_grads.len(), node.parents.len());
                for (&p, pg) in node.parents.iter().zip(parent_grads) {
                    debug_assert_eq!(pg.shape(), self.nodes[p].value.shape());
                    match &mut grads[p] {
                        Some(acc) => acc.add_assign(&pg),
                        slot @ None => *slot = Some(pg),
                    }
                }
            }
            grads[i] = Some(grad);
        }
        Gradients { grads }
    }

    // ------------------------------------------------------------------
    // Elementwise / dense ops
    // ------------------------------------------------------------------

    /// `a + b` (identical shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.zip_value(a, b, |x, y| x + y);
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|ctx| vec![ctx.grad.clone(), ctx.grad.clone()])),
        )
    }

    /// `a - b` (identical shapes).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.zip_value(a, b, |x, y| x - y);
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|ctx| vec![ctx.grad.clone(), ctx.grad.map(|g| -g)])),
        )
    }

    /// Elementwise `a ⊙ b` (identical shapes).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.zip_value(a, b, |x, y| x * y);
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(|ctx| {
                vec![
                    ctx.grad.zip_map(ctx.parents[1], |g, y| g * y),
                    ctx.grad.zip_map(ctx.parents[0], |g, x| g * x),
                ]
            })),
        )
    }

    /// `c * a` for a constant `c`.
    pub fn scale(&mut self, a: Var, c: f64) -> Var {
        let value = self.map_value(a, |x| c * x);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |ctx| vec![ctx.grad.map(|g| c * g)])),
        )
    }

    /// `a + c` for a constant `c` (elementwise).
    pub fn add_scalar(&mut self, a: Var, c: f64) -> Var {
        let value = self.map_value(a, |x| x + c);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|ctx| vec![ctx.grad.clone()])),
        )
    }

    /// `1 - a` (elementwise); common in the diffusion loss.
    pub fn one_minus(&mut self, a: Var) -> Var {
        let value = self.map_value(a, |x| 1.0 - x);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|ctx| vec![ctx.grad.map(|g| -g)])),
        )
    }

    /// Matrix product `a × b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let prof = Scope::kernel("nn.matmul");
        let (m, k) = self.value(a).shape();
        let n = self.value(b).cols();
        let flops = (2 * m * k * n) as u64;
        // Traffic model: read A (m×k) and B (k×n) once, write C (m×n).
        let bytes = (8 * (m * k + k * n + m * n)) as u64;
        prof.add_work(flops, bytes, 1);
        let value = self.value(a).matmul(self.value(b));
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(move |ctx| {
                let prof = Scope::kernel("nn.matmul.bwd");
                // Two products (dC·Bᵀ and Aᵀ·dC): 2× the forward flops;
                // reads dC, A, B and writes dA, dB.
                prof.add_work(2 * flops, (8 * (2 * (m * k + k * n) + m * n)) as u64, 1);
                // dA = dC·Bᵀ ; dB = Aᵀ·dC
                vec![
                    ctx.grad.matmul_nt(ctx.parents[1]),
                    ctx.parents[0].matmul_tn(ctx.grad),
                ]
            })),
        )
    }

    /// Adds a `1 × d` bias row to every row of an `n × d` matrix.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let (n, d) = self.value(a).shape();
        assert_eq!(self.value(bias).shape(), (1, d), "bias must be 1 x cols(a)");
        let bias_row = self.value(bias).row(0).to_vec();
        let mut value = self.value_to_overwrite(a);
        for r in 0..n {
            for (v, &b) in value.row_mut(r).iter_mut().zip(&bias_row) {
                *v += b;
            }
        }
        self.push(
            value,
            vec![a.0, bias.0],
            Some(Box::new(move |ctx| {
                let (n, d) = ctx.grad.shape();
                let mut db = Matrix::zeros(1, d);
                for r in 0..n {
                    for (acc, &g) in db.row_mut(0).iter_mut().zip(ctx.grad.row(r)) {
                        *acc += g;
                    }
                }
                vec![ctx.grad.clone(), db]
            })),
        )
    }

    /// Broadcast-multiplies `a` by a 1×1 variable `s` (e.g. GIN's `1 + ω`).
    pub fn scale_by_var(&mut self, a: Var, s: Var) -> Var {
        assert_eq!(
            self.value(s).shape(),
            (1, 1),
            "scale_by_var needs 1x1 scalar"
        );
        let c = self.value(s).as_scalar();
        let value = self.map_value(a, |x| c * x);
        self.push(
            value,
            vec![a.0, s.0],
            Some(Box::new(|ctx| {
                let c = ctx.parents[1].as_scalar();
                let da = ctx.grad.map(|g| c * g);
                let ds = Matrix::scalar(ctx.grad.dot(ctx.parents[0]));
                vec![da, ds]
            })),
        )
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.map_value(a, |x| x.max(0.0));
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|ctx| {
                vec![ctx
                    .grad
                    .zip_map(ctx.parents[0], |g, x| if x > 0.0 { g } else { 0.0 })]
            })),
        )
    }

    /// LeakyReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: Var, alpha: f64) -> Var {
        let value = self.map_value(a, |x| if x > 0.0 { x } else { alpha * x });
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |ctx| {
                vec![ctx
                    .grad
                    .zip_map(ctx.parents[0], |g, x| if x > 0.0 { g } else { alpha * g })]
            })),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.map_value(a, |x| 1.0 / (1.0 + (-x).exp()));
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|ctx| {
                vec![ctx.grad.zip_map(ctx.output, |g, y| g * y * (1.0 - y))]
            })),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.map_value(a, f64::tanh);
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|ctx| {
                vec![ctx.grad.zip_map(ctx.output, |g, y| g * (1.0 - y * y))]
            })),
        )
    }

    /// Clamps into `[lo, hi]` with pass-through gradient strictly inside the
    /// interval (subgradient 0 at and beyond the bounds).
    ///
    /// Used as the paper's φ that maps the truncated-sum diffusion
    /// probability `min(1, Σ w·x)` into `[0, 1]` (Theorem 2).
    pub fn clamp(&mut self, a: Var, lo: f64, hi: f64) -> Var {
        let value = self.map_value(a, |x| x.clamp(lo, hi));
        self.push(
            value,
            vec![a.0],
            Some(Box::new(move |ctx| {
                vec![ctx.grad.zip_map(
                    ctx.parents[0],
                    |g, x| {
                        if x > lo && x < hi {
                            g
                        } else {
                            0.0
                        }
                    },
                )]
            })),
        )
    }

    /// Column-wise concatenation `[a ‖ b]` (same row count).
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (n, da) = self.value(a).shape();
        let (nb, db) = self.value(b).shape();
        assert_eq!(n, nb, "concat_cols row mismatch");
        let mut value = Matrix::zeros(n, da + db);
        for r in 0..n {
            value.row_mut(r)[..da].copy_from_slice(self.value(a).row(r));
            value.row_mut(r)[da..].copy_from_slice(self.value(b).row(r));
        }
        self.push(
            value,
            vec![a.0, b.0],
            Some(Box::new(move |ctx| {
                let n = ctx.grad.rows();
                let mut ga = Matrix::zeros(n, da);
                let mut gb = Matrix::zeros(n, db);
                for r in 0..n {
                    ga.row_mut(r).copy_from_slice(&ctx.grad.row(r)[..da]);
                    gb.row_mut(r).copy_from_slice(&ctx.grad.row(r)[da..]);
                }
                vec![ga, gb]
            })),
        )
    }

    /// Sum of all entries, as a 1×1 variable.
    pub fn sum(&mut self, a: Var) -> Var {
        let value = Matrix::scalar(self.value(a).sum());
        self.push(
            value,
            vec![a.0],
            Some(Box::new(|ctx| {
                let g = ctx.grad.as_scalar();
                let (r, c) = ctx.parents[0].shape();
                vec![Matrix::filled(r, c, g)]
            })),
        )
    }

    /// Mean of all entries, as a 1×1 variable.
    pub fn mean(&mut self, a: Var) -> Var {
        let count = (self.value(a).rows() * self.value(a).cols()) as f64;
        let s = self.sum(a);
        self.scale(s, 1.0 / count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_gradients;

    #[test]
    fn backward_through_linear_chain() {
        // loss = sum(3 * (a + b))
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = t.leaf(Matrix::filled(2, 2, 10.0));
        let s = t.add(a, b);
        let s3 = t.scale(s, 3.0);
        let loss = t.sum(s3);
        assert_eq!(t.value(loss).as_scalar(), 3.0 * (1. + 2. + 3. + 4. + 40.));
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[3.0; 4]);
        assert_eq!(g.get(b).unwrap().data(), &[3.0; 4]);
    }

    #[test]
    fn gradient_accumulates_over_fanout() {
        // loss = sum(a + a) => da = 2
        let mut t = Tape::new();
        let a = t.leaf(Matrix::filled(1, 3, 5.0));
        let s = t.add(a, a);
        let loss = t.sum(s);
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[2.0; 3]);
    }

    #[test]
    fn unreached_vars_have_no_gradient() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::scalar(1.0));
        let b = t.leaf(Matrix::scalar(2.0));
        let loss = t.scale(a, 2.0);
        let g = t.backward(loss);
        assert!(g.get(b).is_none());
        assert!(g.get(a).is_some());
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_nonscalar_loss() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(2, 2));
        t.backward(a);
    }

    #[test]
    fn no_grad_tape_records_values_only() {
        let build = |t: &mut Tape| {
            let a = t.leaf(Matrix::from_vec(2, 2, vec![1., -2., 3., 4.]));
            let b = t.leaf(Matrix::from_vec(2, 2, vec![0.5, 1., -1., 2.]));
            let c = t.matmul(a, b);
            let s = t.sigmoid(c);
            t.sum(s)
        };
        let (mut grad, mut infer) = (Tape::new(), Tape::no_grad());
        let (lg, li) = (build(&mut grad), build(&mut infer));
        assert_eq!(
            grad.value(lg).as_scalar().to_bits(),
            infer.value(li).as_scalar().to_bits()
        );
        assert!(infer
            .nodes
            .iter()
            .all(|n| n.parents.is_empty() && n.backward.is_none()));
    }

    #[test]
    #[should_panic(expected = "no_grad tape")]
    fn backward_on_no_grad_tape_panics() {
        let mut t = Tape::no_grad();
        let a = t.leaf(Matrix::scalar(1.0));
        let loss = t.scale(a, 2.0);
        t.backward(loss);
    }

    #[test]
    fn a_released_value_is_overwritten_by_its_elementwise_last_reader() {
        let mut t = Tape::no_grad();
        let a = t.leaf(Matrix::from_vec(1, 3, vec![-1.0, 0.5, 2.0]));
        let b = t.leaf(Matrix::filled(1, 3, 1.0));
        let buf = t.value(a).data().as_ptr();
        t.release(a);
        let s = t.leaky_relu(a, 0.5);
        assert_eq!(t.value(s).data(), &[-0.5, 0.5, 2.0]);
        assert_eq!(t.value(s).data().as_ptr(), buf, "map wrote a fresh buffer");
        // A zip op writes into its released first operand and frees a
        // released second one.
        t.release(s);
        t.release(b);
        let d = t.sub(s, b);
        assert_eq!(t.value(d).data(), &[-1.5, -0.5, 1.0]);
        assert_eq!(t.value(d).data().as_ptr(), buf, "zip wrote a fresh buffer");
        assert_eq!(t.nodes[b.0].life, Life::Freed);
    }

    #[test]
    #[should_panic(expected = "after its last reader")]
    fn reading_a_released_value_after_its_last_reader_panics() {
        let mut t = Tape::no_grad();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let w = t.leaf(Matrix::filled(2, 2, 0.5));
        t.release(a);
        let _ = t.matmul(a, w);
        let _ = t.value(a);
    }

    #[test]
    #[should_panic(expected = "after its last reader")]
    fn an_op_reading_a_freed_value_panics() {
        let mut t = Tape::no_grad();
        let a = t.leaf(Matrix::filled(2, 2, 1.0));
        t.release(a);
        let _ = t.tanh(a);
        let _ = t.add(a, a);
    }

    #[test]
    fn release_on_a_recording_tape_leaves_backward_unchanged() {
        let run = |release: bool| {
            let mut t = Tape::new();
            let x = t.leaf(Matrix::from_vec(2, 3, vec![0.3, -1.2, 0.8, 2.0, -0.1, 0.0]));
            let w = t.leaf(Matrix::from_vec(3, 2, vec![0.5, -0.7, 1.1, 0.2, -0.4, 0.9]));
            let b = t.leaf(Matrix::from_vec(1, 2, vec![0.1, -0.2]));
            let z = t.matmul(x, w);
            if release {
                t.release(x);
                t.release(z);
            }
            let z = t.add_row_broadcast(z, b);
            if release {
                t.release(z);
            }
            let y = t.leaky_relu(z, 0.01);
            let s = t.sigmoid(y);
            if release {
                t.release(y);
                t.release(s);
            }
            let m = t.mul(y, s);
            let loss = t.sum(m);
            let g = t.backward(loss);
            let bits = |v: Var| -> Vec<u64> {
                let data = g.get(v).unwrap().data();
                data.iter().map(|x| x.to_bits()).collect()
            };
            (
                t.value(loss).as_scalar().to_bits(),
                bits(x),
                bits(w),
                bits(b),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn matmul_gradcheck() {
        check_gradients(
            &[(2, 3), (3, 4)],
            |t, vars| {
                let c = t.matmul(vars[0], vars[1]);
                t.sum(c)
            },
            1e-6,
        );
    }

    #[test]
    fn mul_sub_gradcheck() {
        check_gradients(
            &[(2, 2), (2, 2)],
            |t, vars| {
                let d = t.sub(vars[0], vars[1]);
                let m = t.mul(d, vars[0]);
                t.sum(m)
            },
            1e-6,
        );
    }

    #[test]
    fn activations_gradcheck() {
        for act in 0..4 {
            check_gradients(
                &[(3, 3)],
                move |t, vars| {
                    let y = match act {
                        0 => t.sigmoid(vars[0]),
                        1 => t.tanh(vars[0]),
                        2 => t.leaky_relu(vars[0], 0.2),
                        _ => {
                            let s = t.sigmoid(vars[0]); // keep strictly inside (0,1)
                            t.clamp(s, 0.0, 1.0)
                        }
                    };
                    t.sum(y)
                },
                1e-5,
            );
        }
    }

    #[test]
    fn bias_broadcast_gradcheck() {
        check_gradients(
            &[(4, 3), (1, 3)],
            |t, vars| {
                let y = t.add_row_broadcast(vars[0], vars[1]);
                let y = t.tanh(y);
                t.sum(y)
            },
            1e-6,
        );
    }

    #[test]
    fn concat_and_scalar_ops_gradcheck() {
        check_gradients(
            &[(3, 2), (3, 2), (1, 1)],
            |t, vars| {
                let c = t.concat_cols(vars[0], vars[1]);
                let s = t.scale_by_var(c, vars[2]);
                let s = t.add_scalar(s, 0.5);
                let om = t.one_minus(s);
                t.mean(om)
            },
            1e-6,
        );
    }

    #[test]
    fn relu_values() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]));
        let y = t.relu(a);
        assert_eq!(t.value(y).data(), &[0.0, 0.0, 2.0]);
        let loss = t.sum(y);
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn clamp_saturates_gradient() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 3, vec![-0.5, 0.5, 1.5]));
        let y = t.clamp(a, 0.0, 1.0);
        assert_eq!(t.value(y).data(), &[0.0, 0.5, 1.0]);
        let loss = t.sum(y);
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn gradients_take_returns_zero_for_missing() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::scalar(1.0));
        let b = t.leaf(Matrix::zeros(2, 3));
        let loss = t.scale(a, 1.0);
        let mut g = t.backward(loss);
        let gb = g.take(b, (2, 3));
        assert_eq!(gb, Matrix::zeros(2, 3));
    }
}
