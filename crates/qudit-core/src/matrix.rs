//! Dense, row-major complex matrices.
//!
//! The simulators in this workspace operate on Hilbert spaces of modest
//! dimension (products of qudit dimensions up to a few thousand), where a
//! dense row-major layout with straightforward loops is both simple and fast
//! enough. All hot paths (matrix-vector products, Kronecker products) are
//! written to be allocation-free where possible.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::complex::{c64, Complex64};
use crate::error::{CoreError, Result};

/// A dense, row-major matrix of [`Complex64`] entries.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![Complex64::ZERO; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    /// Returns [`CoreError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(CoreError::ShapeMismatch {
                expected: format!("{} entries for a {}x{} matrix", rows * cols, rows, cols),
                found: format!("{} entries", data.len()),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from nested row slices.
    ///
    /// # Errors
    /// Returns [`CoreError::ShapeMismatch`] if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<Complex64>]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(CoreError::ShapeMismatch {
                    expected: format!("row of length {c}"),
                    found: format!("row of length {}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self { rows: r, cols: c, data })
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[Complex64]) -> Self {
        let n = entries.len();
        let mut m = Self::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Creates a diagonal matrix with real diagonal entries.
    pub fn diag_real(entries: &[f64]) -> Self {
        let diag: Vec<Complex64> = entries.iter().map(|&x| c64(x, 0.0)).collect();
        Self::diag(&diag)
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the underlying row-major data slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Returns the underlying row-major data slice mutably.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major data vector.
    pub fn into_vec(self) -> Vec<Complex64> {
        self.data
    }

    /// Returns the entry at `(row, col)` without bounds checking beyond the slice's.
    #[inline(always)]
    pub fn get(&self, row: usize, col: usize) -> Complex64 {
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    #[inline(always)]
    pub fn set(&mut self, row: usize, col: usize, value: Complex64) {
        self.data[row * self.cols + col] = value;
    }

    /// Returns a row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Complex64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Conjugate transpose (Hermitian adjoint), `A†`.
    pub fn dagger(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self.get(j, i).conj())
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> Self {
        let data = self.data.iter().map(|z| z.conj()).collect();
        Self { rows: self.rows, cols: self.cols, data }
    }

    /// Matrix trace (sum of diagonal entries). Requires a square matrix.
    pub fn trace(&self) -> Complex64 {
        debug_assert!(self.is_square());
        (0..self.rows.min(self.cols)).map(|i| self.get(i, i)).sum()
    }

    /// Frobenius norm `sqrt(sum |a_ij|^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (infinity norm of the vectorised matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Induced 1-norm (maximum absolute column sum).
    pub fn one_norm(&self) -> f64 {
        (0..self.cols)
            .map(|j| (0..self.rows).map(|i| self.get(i, j).abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Scales every entry by a complex factor, in place.
    pub fn scale_inplace(&mut self, s: Complex64) {
        for z in &mut self.data {
            *z *= s;
        }
    }

    /// Returns the matrix scaled by a complex factor.
    pub fn scaled(&self, s: Complex64) -> Self {
        let mut out = self.clone();
        out.scale_inplace(s);
        out
    }

    /// Returns the matrix scaled by a real factor.
    pub fn scaled_real(&self, s: f64) -> Self {
        self.scaled(c64(s, 0.0))
    }

    /// Overwrites `self` with the entries of `other` (shapes must match).
    /// The allocation-free counterpart of `clone` for preallocated
    /// workspaces.
    ///
    /// # Errors
    /// Returns [`CoreError::ShapeMismatch`] if the shapes differ.
    pub fn copy_from(&mut self, other: &CMatrix) -> Result<()> {
        self.check_same_shape(other)?;
        self.data.copy_from_slice(&other.data);
        Ok(())
    }

    /// Adds `s * other` to `self` in place.
    ///
    /// # Errors
    /// Returns [`CoreError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, s: Complex64, other: &CMatrix) -> Result<()> {
        self.check_same_shape(other)?;
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += s * *b;
        }
        Ok(())
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    /// Returns [`CoreError::ShapeMismatch`] if inner dimensions disagree.
    pub fn matmul(&self, other: &CMatrix) -> Result<CMatrix> {
        let mut out = CMatrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self * other` written into a caller-provided output
    /// matrix (overwritten, not accumulated). The allocation-free variant of
    /// [`CMatrix::matmul`] used by per-step integrator loops; the summation
    /// order is identical, so both variants are bitwise equal.
    ///
    /// # Errors
    /// Returns [`CoreError::ShapeMismatch`] if inner dimensions disagree or
    /// `out` has the wrong shape.
    pub fn matmul_into(&self, other: &CMatrix, out: &mut CMatrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(CoreError::ShapeMismatch {
                expected: format!("left.cols == right.rows ({} == {})", self.cols, other.rows),
                found: format!("{}x{} * {}x{}", self.rows, self.cols, other.rows, other.cols),
            });
        }
        if out.rows != self.rows || out.cols != other.cols {
            return Err(CoreError::ShapeMismatch {
                expected: format!("{}x{} output", self.rows, other.cols),
                found: format!("{}x{} output", out.rows, out.cols),
            });
        }
        out.data.fill(Complex64::ZERO);
        // i-k-j loop order keeps the inner accesses contiguous in both
        // `other` and `out`; for larger operands the i/k loops are tiled so a
        // block of `other` rows stays in cache across a block of output rows.
        // Per output element the k-summation order is unchanged, so tiled and
        // untiled products are bitwise identical.
        const TILE: usize = 32;
        if self.rows <= TILE || self.cols <= TILE {
            for i in 0..self.rows {
                self.matmul_row_span(other, out, i, 0, self.cols);
            }
        } else {
            for k0 in (0..self.cols).step_by(TILE) {
                let k1 = (k0 + TILE).min(self.cols);
                for i in 0..self.rows {
                    self.matmul_row_span(other, out, i, k0, k1);
                }
            }
        }
        Ok(())
    }

    /// Accumulates `out[i, :] += Σ_{k in k0..k1} self[i, k] · other[k, :]`.
    #[inline]
    fn matmul_row_span(&self, other: &CMatrix, out: &mut CMatrix, i: usize, k0: usize, k1: usize) {
        let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
        for k in k0..k1 {
            let a = self.data[i * self.cols + k];
            if a == Complex64::ZERO {
                continue;
            }
            let orow = &other.data[k * other.cols..(k + 1) * other.cols];
            for (c, &b) in crow.iter_mut().zip(orow.iter()) {
                *c = a.mul_add(b, *c);
            }
        }
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    /// Returns [`CoreError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[Complex64]) -> Result<Vec<Complex64>> {
        if v.len() != self.cols {
            return Err(CoreError::ShapeMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("vector of length {}", v.len()),
            });
        }
        let mut out = vec![Complex64::ZERO; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = Complex64::ZERO;
            for (a, b) in row.iter().zip(v.iter()) {
                acc += *a * *b;
            }
            *o = acc;
        }
        Ok(out)
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    pub fn kron(&self, other: &CMatrix) -> CMatrix {
        let rows = self.rows * other.rows;
        let cols = self.cols * other.cols;
        let mut out = CMatrix::zeros(rows, cols);
        for i1 in 0..self.rows {
            for j1 in 0..self.cols {
                let a = self.get(i1, j1);
                if a == Complex64::ZERO {
                    continue;
                }
                for i2 in 0..other.rows {
                    let dst_row = i1 * other.rows + i2;
                    for j2 in 0..other.cols {
                        out.data[dst_row * cols + j1 * other.cols + j2] = a * other.get(i2, j2);
                    }
                }
            }
        }
        out
    }

    /// Hermitian part `(A + A†) / 2`.
    pub fn hermitian_part(&self) -> CMatrix {
        let dag = self.dagger();
        CMatrix::from_fn(self.rows, self.cols, |i, j| (self.get(i, j) + dag.get(i, j)).scale(0.5))
    }

    /// Returns `true` if the matrix is Hermitian within tolerance `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in i..self.cols {
                if (self.get(i, j) - self.get(j, i).conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` if the matrix is unitary within tolerance `tol`
    /// (i.e. `A† A` is the identity entry-wise to within `tol`).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = match self.dagger().matmul(self) {
            Ok(p) => p,
            Err(_) => return false,
        };
        let id = CMatrix::identity(self.rows);
        (&prod - &id).max_abs() <= tol
    }

    /// Returns `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }

    fn check_same_shape(&self, other: &CMatrix) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(CoreError::ShapeMismatch {
                expected: format!("{}x{}", self.rows, self.cols),
                found: format!("{}x{}", other.rows, other.cols),
            });
        }
        Ok(())
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{} ", self.get(i, j))?;
            }
            if self.cols > 8 {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: Self) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix addition requires equal shapes"
        );
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| *a + *b).collect();
        CMatrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: Self) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix subtraction requires equal shapes"
        );
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| *a - *b).collect();
        CMatrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Neg for &CMatrix {
    type Output = CMatrix;
    fn neg(self) -> CMatrix {
        self.scaled(c64(-1.0, 0.0))
    }
}

impl AddAssign<&CMatrix> for CMatrix {
    fn add_assign(&mut self, rhs: &CMatrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += *b;
        }
    }
}

impl SubAssign<&CMatrix> for CMatrix {
    fn sub_assign(&mut self, rhs: &CMatrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= *b;
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: Self) -> CMatrix {
        self.matmul(rhs).expect("matrix multiplication shape mismatch")
    }
}

impl Mul<Complex64> for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: Complex64) -> CMatrix {
        self.scaled(rhs)
    }
}

impl Mul<f64> for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: f64) -> CMatrix {
        self.scaled_real(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CMatrix {
        CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.0, 1.0)],
            vec![c64(2.0, -1.0), c64(3.0, 0.5)],
        ])
        .unwrap()
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = sample();
        let id = CMatrix::identity(2);
        assert_eq!(a.matmul(&id).unwrap(), a);
        assert_eq!(id.matmul(&a).unwrap(), a);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(CMatrix::from_vec(2, 2, vec![Complex64::ZERO; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged_rows() {
        let err = CMatrix::from_rows(&[vec![Complex64::ZERO; 2], vec![Complex64::ZERO; 3]]);
        assert!(err.is_err());
    }

    #[test]
    fn dagger_is_involution() {
        let a = sample();
        assert_eq!(a.dagger().dagger(), a);
    }

    #[test]
    fn trace_of_identity() {
        assert!((CMatrix::identity(5).trace() - c64(5.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn matmul_known_product() {
        let a = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(2.0, 0.0)],
            vec![c64(3.0, 0.0), c64(4.0, 0.0)],
        ])
        .unwrap();
        let b = CMatrix::from_rows(&[
            vec![c64(0.0, 0.0), c64(1.0, 0.0)],
            vec![c64(1.0, 0.0), c64(0.0, 0.0)],
        ])
        .unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], c64(2.0, 0.0));
        assert_eq!(c[(0, 1)], c64(1.0, 0.0));
        assert_eq!(c[(1, 0)], c64(4.0, 0.0));
        assert_eq!(c[(1, 1)], c64(3.0, 0.0));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let a = sample();
        let v = vec![c64(1.0, 1.0), c64(-2.0, 0.0)];
        let out = a.matvec(&v).unwrap();
        let col = CMatrix::from_vec(2, 1, v).unwrap();
        let prod = a.matmul(&col).unwrap();
        assert!((out[0] - prod[(0, 0)]).abs() < 1e-12);
        assert!((out[1] - prod[(1, 0)]).abs() < 1e-12);
    }

    #[test]
    fn kron_dimensions_and_entries() {
        let a = CMatrix::diag_real(&[1.0, 2.0]);
        let b = CMatrix::identity(3);
        let k = a.kron(&b);
        assert_eq!(k.rows(), 6);
        assert_eq!(k.cols(), 6);
        assert_eq!(k[(0, 0)], c64(1.0, 0.0));
        assert_eq!(k[(5, 5)], c64(2.0, 0.0));
        assert_eq!(k[(0, 5)], Complex64::ZERO);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD)
        let a = sample();
        let b = CMatrix::diag_real(&[1.0, -1.0]);
        let c = CMatrix::from_rows(&[
            vec![c64(0.0, 1.0), c64(1.0, 0.0)],
            vec![c64(1.0, 0.0), c64(0.0, -1.0)],
        ])
        .unwrap();
        let d = CMatrix::identity(2);
        let lhs = a.kron(&b).matmul(&c.kron(&d)).unwrap();
        let rhs = a.matmul(&c).unwrap().kron(&b.matmul(&d).unwrap());
        assert!((&lhs - &rhs).max_abs() < 1e-12);
    }

    #[test]
    fn hermitian_and_unitary_checks() {
        let h = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(0.0, -1.0)],
            vec![c64(0.0, 1.0), c64(2.0, 0.0)],
        ])
        .unwrap();
        assert!(h.is_hermitian(1e-12));
        assert!(!sample().is_hermitian(1e-12));

        let s = std::f64::consts::FRAC_1_SQRT_2;
        let had =
            CMatrix::from_rows(&[vec![c64(s, 0.0), c64(s, 0.0)], vec![c64(s, 0.0), c64(-s, 0.0)]])
                .unwrap();
        assert!(had.is_unitary(1e-12));
        assert!(!h.is_unitary(1e-9));
    }

    #[test]
    fn norms() {
        let a = CMatrix::diag_real(&[3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((a.max_abs() - 4.0).abs() < 1e-12);
        assert!((a.one_norm() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = CMatrix::identity(2);
        let b = CMatrix::identity(2);
        a.axpy(c64(2.0, 0.0), &b).unwrap();
        assert_eq!(a[(0, 0)], c64(3.0, 0.0));
        assert!(a.axpy(Complex64::ONE, &CMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn operator_overloads() {
        let a = sample();
        let sum = &a + &a;
        assert!((sum[(1, 1)] - c64(6.0, 1.0)).abs() < 1e-12);
        let diff = &sum - &a;
        assert!((&diff - &a).max_abs() < 1e-12);
        let neg = -&a;
        assert!((neg[(0, 0)] + a[(0, 0)]).abs() < 1e-12);
        let twice = &a * 2.0;
        assert!((twice[(1, 0)] - c64(4.0, -2.0)).abs() < 1e-12);
    }
}
