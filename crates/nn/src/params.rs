//! Model parameters and per-sample gradient vectors.
//!
//! DP-SGD (Algorithm 2) treats one subgraph as one sample: it needs each
//! sample's full gradient as a single flat vector to clip its global l2
//! norm. [`GradVec`] is that vector, kept in per-parameter blocks aligned
//! with a [`ParamSet`].

use rand::Rng;

use crate::matrix::{xavier_uniform, Matrix};
use crate::tape::{Gradients, Tape, Var};

/// A named model parameter.
#[derive(Debug, Clone)]
pub struct Param {
    /// Human-readable name (e.g. `"layer0.weight"`).
    pub name: String,
    /// Current value.
    pub value: Matrix,
}

/// An ordered collection of model parameters.
#[derive(Debug, Clone, Default)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    /// An empty parameter set.
    pub fn new() -> Self {
        ParamSet::default()
    }

    /// Registers a parameter and returns its index.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> usize {
        self.params.push(Param {
            name: name.into(),
            value,
        });
        self.params.len() - 1
    }

    /// Registers a Xavier-initialized `rows × cols` parameter.
    pub fn add_xavier<R: Rng + ?Sized>(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        rng: &mut R,
    ) -> usize {
        self.add(name, xavier_uniform(rows, cols, rng))
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Parameter at `index`.
    pub fn get(&self, index: usize) -> &Param {
        &self.params[index]
    }

    /// Iterates parameters in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Param> {
        self.params.iter()
    }

    /// Mutable iteration (used by optimizers).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        self.params.iter_mut()
    }

    /// Total number of scalar entries across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.data().len()).sum()
    }

    /// Records every parameter as a leaf on `tape`; returns the vars in
    /// registration order.
    pub fn bind(&self, tape: &mut Tape) -> Vec<Var> {
        self.params
            .iter()
            .map(|p| tape.leaf(p.value.clone()))
            .collect()
    }

    /// Extracts this set's gradients from a backward pass.
    pub fn grads(&self, vars: &[Var], mut gradients: Gradients) -> GradVec {
        assert_eq!(vars.len(), self.params.len(), "var/param count mismatch");
        let blocks = vars
            .iter()
            .zip(&self.params)
            .map(|(&v, p)| gradients.take(v, p.value.shape()))
            .collect();
        GradVec { blocks }
    }
}

/// A flat gradient (or noise) vector in per-parameter blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct GradVec {
    blocks: Vec<Matrix>,
}

impl GradVec {
    /// A zero gradient shaped like `params`.
    pub fn zeros_like(params: &ParamSet) -> Self {
        GradVec {
            blocks: params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect(),
        }
    }

    /// Builds from raw blocks (must match the parameter shapes).
    pub fn from_blocks(blocks: Vec<Matrix>) -> Self {
        GradVec { blocks }
    }

    /// Per-parameter blocks.
    pub fn blocks(&self) -> &[Matrix] {
        &self.blocks
    }

    /// Total number of scalar entries across all blocks.
    pub fn num_entries(&self) -> usize {
        self.blocks.iter().map(|b| b.data().len()).sum()
    }

    /// Global l2 norm over all entries of all blocks.
    pub fn l2_norm(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| b.data().iter().map(|&x| x * x).sum::<f64>())
            .sum::<f64>()
            .sqrt()
    }

    /// Clips the global l2 norm to at most `c` (Algorithm 2, line 6):
    /// `g ← g / max(1, ‖g‖₂ / C)`. Returns the pre-clip norm.
    pub fn clip(&mut self, c: f64) -> f64 {
        assert!(c > 0.0, "clip bound must be positive");
        let norm = self.l2_norm();
        let divisor = (norm / c).max(1.0);
        if divisor > 1.0 {
            let s = 1.0 / divisor;
            for b in &mut self.blocks {
                b.scale_assign(s);
            }
        }
        norm
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &GradVec) {
        assert_eq!(
            self.blocks.len(),
            other.blocks.len(),
            "block count mismatch"
        );
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            a.add_assign(b);
        }
    }

    /// `self *= c`.
    pub fn scale_assign(&mut self, c: f64) {
        for b in &mut self.blocks {
            b.scale_assign(c);
        }
    }

    /// Applies `f` to every scalar entry (e.g. adding DP noise).
    pub fn map_entries_mut(&mut self, mut f: impl FnMut(&mut f64)) {
        for b in &mut self.blocks {
            for x in b.data_mut() {
                f(x);
            }
        }
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.blocks.iter().all(Matrix::is_finite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_params() -> ParamSet {
        let mut p = ParamSet::new();
        p.add("a", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        p.add("b", Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        p
    }

    #[test]
    fn bind_and_grads_round_trip() {
        let p = small_params();
        let mut t = Tape::new();
        let vars = p.bind(&mut t);
        assert_eq!(vars.len(), 2);
        // loss = sum(a) + 2*sum(b)
        let sa = t.sum(vars[0]);
        let sb = t.sum(vars[1]);
        let sb2 = t.scale(sb, 2.0);
        let loss = t.add(sa, sb2);
        let g = t.backward(loss);
        let gv = p.grads(&vars, g);
        assert_eq!(gv.blocks()[0].data(), &[1.0, 1.0]);
        assert_eq!(gv.blocks()[1].data(), &[2.0, 2.0]);
    }

    #[test]
    fn grads_missing_are_zero() {
        let p = small_params();
        let mut t = Tape::new();
        let vars = p.bind(&mut t);
        let loss = t.sum(vars[0]); // b unused
        let g = t.backward(loss);
        let gv = p.grads(&vars, g);
        assert_eq!(gv.blocks()[1], Matrix::zeros(2, 1));
    }

    #[test]
    fn clip_reduces_long_vectors_only() {
        let mut g = GradVec::from_blocks(vec![
            Matrix::from_vec(1, 2, vec![3.0, 4.0]), // norm 5
            Matrix::zeros(2, 1),
        ]);
        let pre = g.clip(10.0);
        assert_eq!(pre, 5.0);
        assert_eq!(g.blocks()[0].data(), &[3.0, 4.0]); // untouched
        let pre = g.clip(1.0);
        assert_eq!(pre, 5.0);
        assert!((g.l2_norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_norm_never_exceeds_bound() {
        let p = small_params();
        for scale in [0.1, 1.0, 7.3, 1000.0] {
            let mut g = GradVec::zeros_like(&p);
            g.map_entries_mut(|x| *x = scale);
            g.clip(2.5);
            assert!(g.l2_norm() <= 2.5 + 1e-12);
        }
    }

    #[test]
    fn accumulate_and_scale() {
        let p = small_params();
        let mut acc = GradVec::zeros_like(&p);
        let mut one = GradVec::zeros_like(&p);
        one.map_entries_mut(|x| *x = 1.0);
        acc.add_assign(&one);
        acc.add_assign(&one);
        acc.scale_assign(0.5);
        acc.blocks()
            .iter()
            .for_each(|b| b.data().iter().for_each(|&x| assert_eq!(x, 1.0)));
    }

    #[test]
    fn xavier_params_have_expected_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = ParamSet::new();
        p.add_xavier("w", 8, 4, &mut rng);
        assert_eq!(p.get(0).value.shape(), (8, 4));
        assert_eq!(p.num_scalars(), 32);
        assert_eq!(p.get(0).name, "w");
    }
}
