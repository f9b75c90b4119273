//! Row-compressed operators: the workspace's one sparse operator type.
//!
//! Cavity operators (ladder, number and hopping terms, the Lindblad
//! generator) and the superoperators of loss channels are mostly exact
//! zeros. [`RowCompressed`] stores only the nonzero entries of a dense
//! [`CMatrix`], row by row, so a product with it costs `O(nnz)` per output
//! column instead of `O(n)` per output entry. Two consumers share it:
//!
//! * the Lindblad integrator in `cavity-sim`, whose right-hand side is a sum
//!   of sparse × dense matrix products ([`RowCompressed::add_left_product`],
//!   [`RowCompressed::add_right_product`]);
//! * the density compiler, which stores a mostly-zero superoperator of a
//!   constant sweep in this form and runs it through
//!   [`crate::apply::ApplyPlan::apply_compressed`].
//!
//! Compression keeps exactly the entries that compare unequal to zero, in
//! ascending column order within each row, so a product over the stored
//! entries skips only exact zeros.

use crate::complex::Complex64;
use crate::matrix::CMatrix;

/// An operator in row-compressed form: row `i`'s nonzero entries are
/// `entries[row_start[i]..row_start[i + 1]]`, each a `(column, value)` pair
/// in ascending column order.
#[derive(Debug, Clone, PartialEq)]
pub struct RowCompressed {
    row_start: Vec<usize>,
    entries: Vec<(usize, Complex64)>,
    cols: usize,
}

impl RowCompressed {
    /// The nonzero entries of `s · m`.
    pub fn from_dense(m: &CMatrix, s: Complex64) -> Self {
        let mut row_start = Vec::with_capacity(m.rows() + 1);
        let mut entries = Vec::new();
        row_start.push(0);
        for i in 0..m.rows() {
            let row = m.row(i).iter().enumerate();
            entries.extend(row.filter(|(_, v)| **v != Complex64::ZERO).map(|(j, &v)| (j, s * v)));
            row_start.push(entries.len());
        }
        Self { row_start, entries, cols: m.cols() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.row_start.len() - 1
    }

    /// Number of columns of the dense matrix this was compressed from.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The stored `(column, value)` entries of row `i`, in ascending column
    /// order.
    #[inline]
    pub fn row(&self, i: usize) -> &[(usize, Complex64)] {
        &self.entries[self.row_start[i]..self.row_start[i + 1]]
    }

    /// `Σ_c A[i, c] · x[c]` over the stored entries of row `i`, accumulated
    /// in ascending column order.
    #[inline]
    pub(crate) fn row_dot(&self, i: usize, x: &[Complex64]) -> Complex64 {
        self.row(i).iter().fold(Complex64::ZERO, |acc, &(c, a)| a.mul_add(x[c], acc))
    }

    /// `out += A · x` for `A = self`: each output row gathers the rows of
    /// `x` named by the corresponding row of `A`.
    pub fn add_left_product(&self, x: &CMatrix, out: &mut CMatrix) {
        let n = x.cols();
        let xs = x.as_slice();
        for (i, orow) in out.as_mut_slice().chunks_exact_mut(n).enumerate() {
            for &(k, a) in self.row(i) {
                for (o, &b) in orow.iter_mut().zip(&xs[k * n..(k + 1) * n]) {
                    *o = a.mul_add(b, *o);
                }
            }
        }
    }

    /// `out += x · A` for `A = self`: each nonzero `x[i, k]` scatters row `k`
    /// of `A` into output row `i`.
    pub fn add_right_product(&self, x: &CMatrix, out: &mut CMatrix) {
        let n = x.cols();
        let rows = out.as_mut_slice().chunks_exact_mut(n).zip(x.as_slice().chunks_exact(n));
        for (orow, xrow) in rows {
            for (k, &xk) in xrow.iter().enumerate() {
                if xk == Complex64::ZERO {
                    continue;
                }
                for &(j, a) in self.row(k) {
                    orow[j] = xk.mul_add(a, orow[j]);
                }
            }
        }
    }

    /// Adds `delta` to the `index`-th stored entry (row-major order), as a
    /// miscompiled compression would. Mutation tests only.
    ///
    /// # Panics
    /// Panics if `index >= self.nnz()`.
    #[doc(hidden)]
    pub fn perturb_entry(&mut self, index: usize, delta: Complex64) {
        self.entries[index].1 += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn sample() -> CMatrix {
        let mut m = CMatrix::zeros(3, 3);
        m[(0, 2)] = c64(1.5, -0.5);
        m[(1, 0)] = c64(-0.25, 2.0);
        m[(1, 1)] = c64(0.75, 0.0);
        m[(2, 2)] = c64(0.0, 1.0);
        m
    }

    #[test]
    fn compression_keeps_exactly_the_nonzero_entries_in_column_order() {
        let m = sample();
        let rc = RowCompressed::from_dense(&m, c64(2.0, 0.0));
        assert_eq!((rc.rows(), rc.cols(), rc.nnz()), (3, 3, 4));
        assert_eq!(rc.row(0), &[(2, c64(3.0, -1.0))]);
        assert_eq!(rc.row(1), &[(0, c64(-0.5, 4.0)), (1, c64(1.5, 0.0))]);
        assert_eq!(rc.row(2), &[(2, c64(0.0, 2.0))]);
        let x: Vec<Complex64> = (0..3).map(|i| c64(0.3 * i as f64 - 0.1, 0.2)).collect();
        let dense = m.scaled_real(2.0).matvec(&x).unwrap();
        for (i, want) in dense.iter().enumerate() {
            assert!((rc.row_dot(i, &x) - *want).abs() < 1e-15);
        }
    }

    #[test]
    fn products_match_dense_matmul() {
        let m = sample();
        let rc = RowCompressed::from_dense(&m, Complex64::ONE);
        let x = CMatrix::from_fn(3, 3, |i, j| c64(0.1 * (i + 2 * j) as f64 - 0.3, 0.05 * i as f64));
        let mut left = CMatrix::zeros(3, 3);
        rc.add_left_product(&x, &mut left);
        let mut right = CMatrix::zeros(3, 3);
        rc.add_right_product(&x, &mut right);
        assert!((&left - &m.matmul(&x).unwrap()).max_abs() < 1e-15);
        assert!((&right - &x.matmul(&m).unwrap()).max_abs() < 1e-15);
    }
}
