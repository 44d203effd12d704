//! Dense row-major `f64` matrices.
//!
//! The three products (`matmul`, `matmul_nt`, `matmul_tn`) share one
//! register-blocked microkernel: a 4×8 block of accumulators over a
//! packed 8-column panel of B, compiled once portable and once for AVX2.
//! Every output sums its terms in ascending k from the same start value
//! as the plain loops it replaced, so results are bit-identical to them
//! (DESIGN §13). The sparse message-passing structure is handled by the
//! dedicated graph ops in [`crate::graph_ops`], not by dense adjacency
//! matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::par;

/// A dense row-major matrix of `f64`; the default is 0×0.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::filled(rows, cols, 0.0)
    }

    /// A `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        // Written, not allocated zeroed: the kernels add into their
        // output (`o += …`), and a fresh page from the OS that is read
        // before it is written faults twice, once to map the shared zero
        // page and once more to copy it on the write.
        let mut data = Vec::with_capacity(rows * cols);
        data.resize(rows * cols, value);
        Matrix { rows, cols, data }
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
    /// computed as the serial kernel computes it.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.matmul_on(Isa::detect(), rhs)
    }

    fn matmul_on(&self, isa: Isa, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dims {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let gemm = Gemm {
            a: &self.data,
            a_row: self.cols,
            a_k: 1,
            b: &rhs.data,
            b_k: rhs.cols,
            b_col: 1,
            depth: self.cols,
            skip_zero: !rhs.is_finite(),
        };
        gemm.product(isa, self.rows, rhs.cols, 0.0, true)
    }

    /// `self × rhsᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        self.matmul_nt_on(Isa::detect(), rhs)
    }

    fn matmul_nt_on(&self, isa: Isa, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_nt dims");
        let gemm = Gemm {
            a: &self.data,
            a_row: self.cols,
            a_k: 1,
            b: &rhs.data,
            b_k: 1,
            b_col: rhs.cols,
            depth: self.cols,
            skip_zero: false,
        };
        gemm.product(isa, self.rows, rhs.rows, SUM_START, false)
    }

    /// `selfᵀ × rhs` without materializing the transpose.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        self.matmul_tn_on(Isa::detect(), rhs)
    }

    fn matmul_tn_on(&self, isa: Isa, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "matmul_tn dims");
        let gemm = Gemm {
            a: &self.data,
            a_row: 1,
            a_k: self.cols,
            b: &rhs.data,
            b_k: rhs.cols,
            b_col: 1,
            depth: self.rows,
            skip_zero: !rhs.is_finite(),
        };
        gemm.product(isa, self.cols, rhs.cols, 0.0, false)
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

// ---------------------------------------------------------------------------
// The matmul microkernel
// ---------------------------------------------------------------------------

/// Rows of the product one microkernel call holds.
const MR: usize = 4;
/// Columns of the product one microkernel call holds: `MR × NR` = 32
/// accumulators, eight 256-bit registers.
const NR: usize = 8;
/// Depth of one packed panel of B: `KC × NR` values, 4 KiB on the stack.
const KC: usize = 64;
/// Rows of A that share one packed panel of B.
const MC: usize = 64;

/// The start of `Iterator::<f64>::sum`, which `matmul_nt`'s outputs
/// start from (the unit tests pin the two equal by bits).
const SUM_START: f64 = -0.0;

/// The compiled variant of the microkernel a product runs on.
#[derive(Clone, Copy, Debug)]
enum Isa {
    Portable,
    /// Only built after `is_x86_feature_detected!("avx2")` returned true.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The fastest variant this CPU runs. std caches the CPUID probe, so
    /// this is one atomic load per call.
    fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Portable
    }
}

/// One product `Σ_k A(i, k)·B(k, j)`, with A and B read through strides,
/// so one body covers `A·B`, `A·Bᵀ` and `Aᵀ·B` without a transpose copy.
struct Gemm<'a> {
    a: &'a [f64],
    /// `A(i, k) = a[i * a_row + k * a_k]`.
    a_row: usize,
    a_k: usize,
    b: &'a [f64],
    /// `B(k, j) = b[k * b_k + j * b_col]`.
    b_k: usize,
    b_col: usize,
    depth: usize,
    /// Skip the terms whose A factor is `== 0.0`, as the loops of
    /// `matmul` and `matmul_tn` always did. It changes bits only where B
    /// holds an infinity or NaN (`0·∞` is NaN), so only then is it taken.
    skip_zero: bool,
}

impl Gemm<'_> {
    /// The `m × n` product, every output starting from `start`. With
    /// `split`, from [`par::WORK_FLOOR`] on, the output rows split across
    /// [`par::threads`] workers; each row is computed as one worker
    /// computes it.
    fn product(&self, isa: Isa, m: usize, n: usize, start: f64, split: bool) -> Matrix {
        let mut out = Matrix::filled(m, n, start);
        let parts = if split && m * self.depth * n >= par::WORK_FLOOR {
            par::threads()
        } else {
            1
        };
        if parts > 1 {
            let bounds = par::row_bounds(m, parts, |r| r);
            let cuts: Vec<usize> = bounds.iter().map(|&r| r * n).collect();
            let chunks = bounds
                .iter()
                .copied()
                .zip(par::split_at_bounds(&mut out.data, &cuts));
            par::fan_out(chunks.collect(), |(first, chunk)| {
                self.rows(isa, first, chunk, n)
            });
        } else {
            self.rows(isa, 0, &mut out.data, n);
        }
        out
    }

    /// Rows `first..` of the product, each `n` wide, into `out`.
    fn rows(&self, isa: Isa, first: usize, out: &mut [f64], n: usize) {
        match isa {
            Isa::Portable => gemm_portable(self, first, out, n),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Isa::Avx2` exists only once `Isa::detect` (or the
            // tests, the same way) saw `is_x86_feature_detected!("avx2")`
            // return true, so this CPU executes the AVX2 instructions the
            // variant was compiled with.
            Isa::Avx2 => unsafe { gemm_avx2(self, first, out, n) },
        }
    }
}

fn gemm_portable(g: &Gemm, first: usize, out: &mut [f64], n: usize) {
    gemm_body(g, first, out, n)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(g: &Gemm, first: usize, out: &mut [f64], n: usize) {
    gemm_body(g, first, out, n)
}

/// The one kernel body both variants compile.
#[inline(always)]
fn gemm_body(g: &Gemm, first: usize, out: &mut [f64], n: usize) {
    if g.skip_zero {
        gemm_blocks::<true>(g, first, out, n)
    } else {
        gemm_blocks::<false>(g, first, out, n)
    }
}

/// Walks the output in `MC`-row chunks, 8-column panels and `KC`-deep
/// slices of k, in that nesting; each `MR × NR` block loads its partial
/// sums, adds one k slice and stores them back. A stored and reloaded
/// `f64` is exact, so every output still sees its terms once each, in
/// ascending k.
#[inline(always)]
fn gemm_blocks<const SKIP: bool>(g: &Gemm, first: usize, out: &mut [f64], n: usize) {
    if n == 0 {
        return;
    }
    let m = out.len() / n;
    let mut panel = [0.0; KC * NR];
    let mut tile = [0.0; MR * NR];
    for i0 in (0..m).step_by(MC) {
        let i_end = m.min(i0 + MC);
        for j0 in (0..n).step_by(NR) {
            let w = NR.min(n - j0);
            for k0 in (0..g.depth).step_by(KC) {
                let kc = KC.min(g.depth - k0);
                // A full panel of a row-major B is read in place; any other
                // is packed, with lanes past the last column left zero.
                let (b, b_stride) = if g.b_col == 1 && w == NR {
                    (&g.b[k0 * g.b_k + j0..], g.b_k)
                } else {
                    for (k, lanes) in (k0..k0 + kc).zip(panel.chunks_exact_mut(NR)) {
                        let row = &g.b[k * g.b_k + j0 * g.b_col..];
                        for (l, x) in lanes.iter_mut().enumerate() {
                            *x = if l < w { row[l * g.b_col] } else { 0.0 };
                        }
                    }
                    (&panel[..], NR)
                };
                for r0 in (i0..i_end).step_by(MR) {
                    let rows = MR.min(m - r0);
                    // Rows past the end repeat the last row of A.
                    let a_at: [usize; MR] = std::array::from_fn(|r| {
                        (first + (r0 + r).min(m - 1)) * g.a_row + k0 * g.a_k
                    });
                    // A block cut by the edge of the output runs in `tile`;
                    // its lanes and rows past the edge are never stored.
                    let at = r0 * n + j0;
                    let full = rows == MR && w == NR;
                    if !full {
                        for r in 0..rows {
                            tile[r * NR..][..w].copy_from_slice(&out[at + r * n..][..w]);
                        }
                    }
                    let (sums, stride, sums_at) = if full {
                        (&mut *out, n, at)
                    } else {
                        (&mut tile[..], NR, 0)
                    };
                    block::<SKIP>(sums, stride, sums_at, g.a, a_at, g.a_k, b, b_stride, kc);
                    if !full {
                        for r in 0..rows {
                            out[at + r * n..][..w].copy_from_slice(&tile[r * NR..][..w]);
                        }
                    }
                }
            }
        }
    }
}

/// Adds `A(r, k)·B(k, l)` for `k` in `0..kc`, ascending, to the `MR × NR`
/// sums at `sums[at + r * stride + l]`, with `B(k, ·)` the 8 lanes at
/// `b[k * b_stride..]`: a multiply then an add per term, never a fused
/// multiply-add, so each lane rounds exactly as the scalar loop does.
/// The sums move in and out as whole rows, which keeps them in vector
/// registers.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn block<const SKIP: bool>(
    sums: &mut [f64],
    stride: usize,
    at: usize,
    a: &[f64],
    a_at: [usize; MR],
    a_k: usize,
    b: &[f64],
    b_stride: usize,
    kc: usize,
) {
    let mut acc: [[f64; NR]; MR] = std::array::from_fn(|r| {
        sums[at + r * stride..][..NR]
            .try_into()
            .expect("a slice of NR lanes")
    });
    for k in 0..kc {
        let lanes: &[f64; NR] = b[k * b_stride..][..NR]
            .try_into()
            .expect("a slice of NR lanes");
        for (row, &a_row) in acc.iter_mut().zip(&a_at) {
            let x = a[a_row + k * a_k];
            if SKIP && x == 0.0 {
                continue;
            }
            for (o, &y) in row.iter_mut().zip(lanes) {
                *o += x * y;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        sums[at + r * stride..][..NR].copy_from_slice(row);
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
    use rand::{Rng, SeedableRng};

    /// The plain loops the microkernel replaced, kept as its oracle.
    fn oracle_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for (k, &x) in a.row(i).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    fn oracle_nt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.rows);
        for i in 0..a.rows {
            for j in 0..b.rows {
                out[(i, j)] = a.row(i).iter().zip(b.row(j)).map(|(&x, &y)| x * y).sum();
            }
        }
        out
    }

    fn oracle_tn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, b.cols);
        for k in 0..a.rows {
            for (i, &x) in a.row(k).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// Every variant this CPU runs, each called directly.
    fn all_isas() -> Vec<Isa> {
        let mut isas = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            isas.push(Isa::Avx2);
        }
        isas
    }

    /// Bits of every entry; a NaN compares as one canonical NaN, since
    /// Rust leaves the payload of an arithmetic NaN unspecified.
    fn bits(m: &Matrix) -> Vec<u64> {
        let canon = |x: f64| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        };
        m.data().iter().map(|&x| canon(x)).collect()
    }

    /// A zero-heavy matrix with both signed zeros; with `specials`, also
    /// infinities and NaN.
    fn arb(s: &mut StdRng, rows: usize, cols: usize, specials: bool) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| match s.gen_range(0..10u32) {
            0 | 1 => 0.0,
            2 => -0.0,
            3 if specials => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][s.gen_range(0..3usize)],
            _ => s.gen_range(-2.0..2.0),
        })
    }

    #[test]
    fn iterator_sum_starts_at_negative_zero() {
        let start: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(start.to_bits(), SUM_START.to_bits());
    }

    #[test]
    fn microkernel_is_bit_identical_to_the_loops() {
        const DIMS: [usize; 10] = [0, 1, 3, 4, 5, 7, 8, 9, 33, 40];
        let mut s = StdRng::seed_from_u64(7);
        for isa in all_isas() {
            for m in DIMS {
                for k in DIMS {
                    for n in DIMS {
                        for specials in [false, true] {
                            let a = arb(&mut s, m, k, false);
                            let b = arb(&mut s, k, n, specials);
                            let bt = arb(&mut s, n, k, specials);
                            let at = arb(&mut s, k, m, false);
                            let case = format!("{isa:?} m={m} k={k} n={n} specials={specials}");
                            let got = a.matmul_on(isa, &b);
                            assert_eq!(bits(&got), bits(&oracle_matmul(&a, &b)), "matmul {case}");
                            let got = a.matmul_nt_on(isa, &bt);
                            assert_eq!(bits(&got), bits(&oracle_nt(&a, &bt)), "nt {case}");
                            let got = at.matmul_tn_on(isa, &b);
                            assert_eq!(bits(&got), bits(&oracle_tn(&at, &b)), "tn {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn microkernel_is_bit_identical_above_the_floor_at_any_thread_count() {
        let mut s = StdRng::seed_from_u64(8);
        let (m, k, n) = (301, 300, 29);
        assert!(m * k * n >= par::WORK_FLOOR);
        for specials in [false, true] {
            let a = arb(&mut s, m, k, false);
            let b = arb(&mut s, k, n, specials);
            let want = bits(&oracle_matmul(&a, &b));
            for isa in all_isas() {
                for threads in 1..=3 {
                    let got = par::with_threads(threads, || a.matmul_on(isa, &b));
                    assert_eq!(bits(&got), want, "{isa:?} at {threads} threads");
                }
            }
        }
    }

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
