//! Dense row-major `f64` matrices.
//!
//! PrivIM subgraphs are small (n ≤ ~100 nodes, hidden size 32), so a simple
//! cache-friendly dense kernel is both sufficient and fast; the sparse
//! message-passing structure is handled by the dedicated graph ops in
//! [`crate::graph_ops`], not by dense adjacency matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::par;

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// A 1×1 matrix holding `value`.
    pub fn scalar(value: f64) -> Self {
        Matrix::from_vec(1, 1, vec![value])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major data slice.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single element of a 1×1 matrix.
    ///
    /// # Panics
    /// If the matrix is not 1×1.
    pub fn as_scalar(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "as_scalar on non-1x1 matrix");
        self.data[0]
    }

    /// Matrix product `self × rhs`. From [`par::WORK_FLOOR`] on, the
    /// output rows split across [`par::threads`] workers; each row is
    /// computed as the serial loop computes it.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dims {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let n = rhs.cols;
        let mut out = Matrix::zeros(self.rows, n);
        // Rows `first..` of the product into `out`, in i-k-j loop order:
        // the inner loop streams rows of `rhs` and `out`.
        let rows_from = |first: usize, out: &mut [f64]| {
            for (i, out_row) in (first..).zip(out.chunks_exact_mut(n)) {
                for (k, &a) in self.row(i).iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let b_row = &rhs.data[k * n..(k + 1) * n];
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
        };
        let above_floor = self.rows * self.cols * n >= par::WORK_FLOOR;
        let parts = if above_floor { par::threads() } else { 1 };
        if parts > 1 {
            let bounds = par::row_bounds(self.rows, parts, |r| r);
            let cuts: Vec<usize> = bounds.iter().map(|&r| r * n).collect();
            let chunks = bounds
                .iter()
                .copied()
                .zip(par::split_at_bounds(&mut out.data, &cuts));
            par::fan_out(chunks.collect(), |(first, chunk)| rows_from(first, chunk));
        } else if n > 0 {
            rows_from(0, &mut out.data);
        }
        out
    }

    /// `self × rhsᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_nt dims");
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..rhs.rows {
                let b_row = rhs.row(j);
                out[(i, j)] = a_row.iter().zip(b_row).map(|(&a, &b)| a * b).sum();
            }
        }
        out
    }

    /// `selfᵀ × rhs` without materializing the transpose.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "matmul_tn dims");
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = rhs.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combination with another matrix of identical shape.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += c * other` (AXPY).
    pub fn add_scaled_assign(&mut self, c: f64, other: &Matrix) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_scaled_assign shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += c * b;
        }
    }

    /// `self *= c` in place.
    pub fn scale_assign(&mut self, c: f64) {
        for a in &mut self.data {
            *a *= c;
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius (flattened l2) norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Flat dot product with a matrix of the same shape.
    pub fn dot(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "dot shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// True if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Xavier/Glorot uniform initialization: entries uniform in `±sqrt(6/(fan_in+fan_out))`.
pub fn xavier_uniform<R: rand::Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Matrix {
    let bound = (6.0 / (rows + cols) as f64).sqrt();
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..=bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_nt_and_tn_match_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., -2., 3., 0.5, 5., -6.]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|i| i as f64 * 0.3 - 1.0).collect());
        assert_eq!(a.matmul_nt(&b).data(), a.matmul(&b.transpose()).data());
        let c = Matrix::from_vec(2, 4, (0..8).map(|i| (i as f64).sin()).collect());
        assert_eq!(a.matmul_tn(&c).data(), a.transpose().matmul(&c).data());
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn scalar_helpers() {
        let s = Matrix::scalar(3.5);
        assert_eq!(s.as_scalar(), 3.5);
        assert_eq!(s.shape(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "non-1x1")]
    fn as_scalar_panics_on_larger() {
        Matrix::zeros(2, 2).as_scalar();
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.add_scaled_assign(0.5, &b);
        assert_eq!(a.data(), &[2.0, 2.0, 2.0, 2.0]);
        a.scale_assign(0.25);
        assert_eq!(a.data(), &[0.5, 0.5, 0.5, 0.5]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[2.5, 2.5, 2.5, 2.5]);
    }

    #[test]
    fn norms_and_sums() {
        let a = Matrix::from_vec(1, 4, vec![3.0, 4.0, 0.0, 0.0]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.dot(&a), 25.0);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let b = a.map(f64::abs);
        assert_eq!(b.data(), &[1.0, 2.0, 3.0]);
        let c = a.zip_map(&b, |x, y| x + y);
        assert_eq!(c.data(), &[2.0, 0.0, 6.0]);
    }

    #[test]
    fn xavier_respects_bound_and_seed() {
        let mut rng = StdRng::seed_from_u64(42);
        let w = xavier_uniform(16, 32, &mut rng);
        let bound = (6.0f64 / 48.0).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() <= bound));
        let mut rng2 = StdRng::seed_from_u64(42);
        assert_eq!(w, xavier_uniform(16, 32, &mut rng2));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = Matrix::zeros(2, 2);
        assert!(a.is_finite());
        a[(1, 1)] = f64::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn row_access() {
        let mut a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        assert_eq!(a.row(1), &[2.0, 3.0]);
        a.row_mut(2)[0] = 9.0;
        assert_eq!(a[(2, 0)], 9.0);
    }
}
