//! Dense complex linear algebra: Hermitian eigendecomposition, matrix
//! exponentials, LU solves and QR orthonormalisation.
//!
//! The routines here favour robustness and simplicity over asymptotic
//! performance; Hilbert-space dimensions in this workspace stay in the
//! hundreds-to-few-thousands range where cubic dense algorithms are fine.

use crate::complex::{c64, Complex64};
use crate::error::{CoreError, Result};
use crate::matrix::CMatrix;

/// Result of a Hermitian eigendecomposition `A = V diag(λ) V†`.
#[derive(Debug, Clone)]
pub struct HermitianEig {
    /// Real eigenvalues, in ascending order.
    pub values: Vec<f64>,
    /// Unitary matrix whose columns are the corresponding eigenvectors.
    pub vectors: CMatrix,
}

/// Diagonalises a Hermitian matrix with the cyclic complex Jacobi method.
///
/// # Errors
/// Returns [`CoreError::NotStructured`] if the matrix is not square or not
/// Hermitian (to `1e-8`), and [`CoreError::NoConvergence`] if the sweep limit
/// is exceeded.
pub fn eigh(a: &CMatrix) -> Result<HermitianEig> {
    if !a.is_square() {
        return Err(CoreError::NotStructured("eigh requires a square matrix".into()));
    }
    if !a.is_hermitian(1e-8) {
        return Err(CoreError::NotStructured("eigh requires a Hermitian matrix".into()));
    }
    let n = a.rows();
    let mut m = a.hermitian_part(); // symmetrise away rounding noise
    let mut v = CMatrix::identity(n);

    let max_sweeps = 100;
    let scale = m.frobenius_norm().max(1.0);
    let tol = 1e-12 * scale;
    // Elements below this threshold are too small to be worth rotating; once
    // nothing exceeds it, the residual off-diagonal norm is below `tol`.
    let skip = tol / (2.0 * n as f64);
    let mut converged = false;
    for _sweep in 0..max_sweeps {
        if off_diagonal_norm(&m) <= tol {
            converged = true;
            break;
        }
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let g = m.get(p, q);
                if g.abs() <= skip {
                    continue;
                }
                let (u00, u01, u10, u11) = jacobi_rotation(m.get(p, p).re, m.get(q, q).re, g);
                apply_rotation(&mut m, p, q, u00, u01, u10, u11);
                rotate_columns(&mut v, p, q, u00, u01, u10, u11);
                rotated = true;
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(CoreError::NoConvergence { routine: "eigh (Jacobi)", iterations: max_sweeps });
    }
    Ok(sort_eig(m, v))
}

fn off_diagonal_norm(m: &CMatrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += m.get(i, j).norm_sqr();
            }
        }
    }
    s.sqrt()
}

/// Computes the 2x2 unitary that diagonalises the Hermitian block
/// `[[a, g], [g*, b]]`, returned as entries `(u00, u01, u10, u11)`.
///
/// Uses the classical small-angle Jacobi parameterisation
/// (`t = sign(τ) / (|τ| + sqrt(1 + τ²))`), which stays numerically stable
/// when the off-diagonal element is much smaller than the diagonal gap.
fn jacobi_rotation(a: f64, b: f64, g: Complex64) -> (Complex64, Complex64, Complex64, Complex64) {
    let abs_g = g.abs();
    debug_assert!(abs_g > 0.0, "caller must skip zero pivots");
    let phase = g / abs_g; // e^{iφ} with g = |g| e^{iφ}
    let tau = (b - a) / (2.0 * abs_g);
    let t = if tau >= 0.0 {
        1.0 / (tau + (1.0 + tau * tau).sqrt())
    } else {
        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;
    // U = diag(1, e^{-iφ}) · [[c, s], [-s, c]] diagonalises the block.
    let u00 = c64(c, 0.0);
    let u01 = c64(s, 0.0);
    let u10 = phase.conj() * (-s);
    let u11 = phase.conj() * c;
    (u00, u01, u10, u11)
}

/// Applies `M <- U† M U` where `U` is identity except for the `(p, q)` block.
fn apply_rotation(
    m: &mut CMatrix,
    p: usize,
    q: usize,
    u00: Complex64,
    u01: Complex64,
    u10: Complex64,
    u11: Complex64,
) {
    let n = m.rows();
    // Column update: M <- M U.
    for k in 0..n {
        let mkp = m.get(k, p);
        let mkq = m.get(k, q);
        m.set(k, p, mkp * u00 + mkq * u10);
        m.set(k, q, mkp * u01 + mkq * u11);
    }
    // Row update: M <- U† M.
    for k in 0..n {
        let mpk = m.get(p, k);
        let mqk = m.get(q, k);
        m.set(p, k, u00.conj() * mpk + u10.conj() * mqk);
        m.set(q, k, u01.conj() * mpk + u11.conj() * mqk);
    }
}

/// Applies `V <- V U` (column rotation only), used to accumulate eigenvectors.
fn rotate_columns(
    v: &mut CMatrix,
    p: usize,
    q: usize,
    u00: Complex64,
    u01: Complex64,
    u10: Complex64,
    u11: Complex64,
) {
    let n = v.rows();
    for k in 0..n {
        let vkp = v.get(k, p);
        let vkq = v.get(k, q);
        v.set(k, p, vkp * u00 + vkq * u10);
        v.set(k, q, vkp * u01 + vkq * u11);
    }
}

fn sort_eig(m: CMatrix, v: CMatrix) -> HermitianEig {
    let n = m.rows();
    let mut idx: Vec<usize> = (0..n).collect();
    let values_raw: Vec<f64> = (0..n).map(|i| m.get(i, i).re).collect();
    idx.sort_by(|&a, &b| values_raw[a].partial_cmp(&values_raw[b]).expect("finite eigenvalues"));
    let values: Vec<f64> = idx.iter().map(|&i| values_raw[i]).collect();
    let vectors = CMatrix::from_fn(n, n, |r, c| v.get(r, idx[c]));
    HermitianEig { values, vectors }
}

impl HermitianEig {
    /// Reconstructs `f(A) = V diag(f(λ)) V†` for an arbitrary complex-valued
    /// function of the eigenvalues.
    pub fn apply_function(&self, f: impl Fn(f64) -> Complex64) -> CMatrix {
        let n = self.values.len();
        let fd: Vec<Complex64> = self.values.iter().map(|&l| f(l)).collect();
        let mut scaled = self.vectors.clone();
        // scaled = V diag(f)
        for col in 0..n {
            for row in 0..n {
                let v = scaled.get(row, col) * fd[col];
                scaled.set(row, col, v);
            }
        }
        scaled.matmul(&self.vectors.dagger()).expect("square matrices")
    }
}

/// Computes `exp(factor * H)` for Hermitian `H` via eigendecomposition.
///
/// This is the workhorse used to build unitaries `exp(-i H t)` from Hermitian
/// generators; the result is exactly unitary (up to eigensolver accuracy)
/// when `factor` is purely imaginary.
///
/// # Errors
/// Propagates eigendecomposition failures.
pub fn expm_hermitian(h: &CMatrix, factor: Complex64) -> Result<CMatrix> {
    let eig = eigh(h)?;
    Ok(eig.apply_function(|l| (factor * l).exp()))
}

/// General matrix exponential by scaling-and-squaring with a Padé(6)
/// approximant. Works for non-Hermitian generators (e.g. effective
/// non-Hermitian Hamiltonians in trajectory simulations).
///
/// # Errors
/// Returns an error if the matrix is not square or an internal solve fails.
pub fn expm(a: &CMatrix) -> Result<CMatrix> {
    if !a.is_square() {
        return Err(CoreError::NotStructured("expm requires a square matrix".into()));
    }
    let norm = a.one_norm();
    // Scale so the norm is below 0.5, apply Padé, then square back.
    let s = if norm > 0.5 { (norm / 0.5).log2().ceil() as u32 } else { 0 };
    let scale = 1.0 / f64::powi(2.0, s as i32);
    let a_scaled = a.scaled_real(scale);

    let mut result = pade6(&a_scaled)?;
    for _ in 0..s {
        result = result.matmul(&result)?;
    }
    Ok(result)
}

/// Padé(6,6) approximant of `exp(A)`, accurate for `‖A‖ ≲ 0.5`.
fn pade6(a: &CMatrix) -> Result<CMatrix> {
    let n = a.rows();
    let id = CMatrix::identity(n);
    let b: [f64; 7] =
        [1.0, 0.5, 3.0 / 26.0, 5.0 / 312.0, 5.0 / 3432.0, 1.0 / 11440.0, 1.0 / 308880.0];

    let a2 = a.matmul(a)?;
    let a4 = a2.matmul(&a2)?;
    let a6 = a4.matmul(&a2)?;

    // U = A (b1 I + b3 A² + b5 A⁴),  V = b0 I + b2 A² + b4 A⁴ + b6 A⁶
    let mut u_inner = id.scaled_real(b[1]);
    u_inner.axpy(c64(b[3], 0.0), &a2)?;
    u_inner.axpy(c64(b[5], 0.0), &a4)?;
    let u = a.matmul(&u_inner)?;

    let mut v = id.scaled_real(b[0]);
    v.axpy(c64(b[2], 0.0), &a2)?;
    v.axpy(c64(b[4], 0.0), &a4)?;
    v.axpy(c64(b[6], 0.0), &a6)?;

    // exp(A) ≈ (V - U)^{-1} (V + U)
    let num = &v + &u;
    let den = &v - &u;
    solve_matrix(&den, &num)
}

/// Solves the linear system `A X = B` for `X` using LU decomposition with
/// partial pivoting.
///
/// # Errors
/// Returns [`CoreError::NotStructured`] for singular or non-square `A`.
pub fn solve_matrix(a: &CMatrix, b: &CMatrix) -> Result<CMatrix> {
    if !a.is_square() {
        return Err(CoreError::NotStructured("solve requires a square matrix".into()));
    }
    if a.rows() != b.rows() {
        return Err(CoreError::ShapeMismatch {
            expected: format!("rhs with {} rows", a.rows()),
            found: format!("rhs with {} rows", b.rows()),
        });
    }
    let n = a.rows();
    let m = b.cols();
    let mut lu = a.clone();
    let mut x = b.clone();
    let mut perm: Vec<usize> = (0..n).collect();

    for col in 0..n {
        // Partial pivot.
        let mut pivot_row = col;
        let mut pivot_val = lu.get(col, col).abs();
        for row in (col + 1)..n {
            let v = lu.get(row, col).abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-300 {
            return Err(CoreError::NotStructured("singular matrix in solve".into()));
        }
        if pivot_row != col {
            swap_rows(&mut lu, col, pivot_row);
            swap_rows(&mut x, col, pivot_row);
            perm.swap(col, pivot_row);
        }
        let pivot = lu.get(col, col);
        for row in (col + 1)..n {
            let factor = lu.get(row, col) / pivot;
            lu.set(row, col, factor);
            for k in (col + 1)..n {
                let v = lu.get(row, k) - factor * lu.get(col, k);
                lu.set(row, k, v);
            }
            for k in 0..m {
                let v = x.get(row, k) - factor * x.get(col, k);
                x.set(row, k, v);
            }
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let pivot = lu.get(col, col);
        for k in 0..m {
            let mut acc = x.get(col, k);
            for j in (col + 1)..n {
                acc -= lu.get(col, j) * x.get(j, k);
            }
            x.set(col, k, acc / pivot);
        }
    }
    Ok(x)
}

/// Matrix inverse via LU solve against the identity.
///
/// # Errors
/// See [`solve_matrix`].
pub fn inverse(a: &CMatrix) -> Result<CMatrix> {
    solve_matrix(a, &CMatrix::identity(a.rows()))
}

fn swap_rows(m: &mut CMatrix, r1: usize, r2: usize) {
    if r1 == r2 {
        return;
    }
    let cols = m.cols();
    for k in 0..cols {
        let a = m.get(r1, k);
        let b = m.get(r2, k);
        m.set(r1, k, b);
        m.set(r2, k, a);
    }
}

/// QR orthonormalisation via modified Gram–Schmidt. Returns `(Q, R)` with
/// `Q` having orthonormal columns and `R` upper triangular, `A = Q R`.
///
/// # Errors
/// Returns [`CoreError::NotStructured`] if a column is (numerically) linearly
/// dependent on its predecessors.
pub fn qr(a: &CMatrix) -> Result<(CMatrix, CMatrix)> {
    let n = a.rows();
    let m = a.cols();
    let mut q = a.clone();
    let mut r = CMatrix::zeros(m, m);
    for j in 0..m {
        // Orthogonalise column j against previous columns.
        for i in 0..j {
            let mut dot = Complex64::ZERO;
            for k in 0..n {
                dot += q.get(k, i).conj() * q.get(k, j);
            }
            r.set(i, j, dot);
            for k in 0..n {
                let v = q.get(k, j) - dot * q.get(k, i);
                q.set(k, j, v);
            }
        }
        let mut norm = 0.0;
        for k in 0..n {
            norm += q.get(k, j).norm_sqr();
        }
        let norm = norm.sqrt();
        if norm < 1e-12 {
            return Err(CoreError::NotStructured(format!(
                "column {j} is linearly dependent; cannot orthonormalise"
            )));
        }
        r.set(j, j, c64(norm, 0.0));
        for k in 0..n {
            let v = q.get(k, j) / norm;
            q.set(k, j, v);
        }
    }
    Ok((q, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use std::f64::consts::PI;

    fn random_hermitian(n: usize, seed: u64) -> CMatrix {
        // Small deterministic pseudo-random Hermitian matrix without pulling rand here.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let raw = CMatrix::from_fn(n, n, |_, _| c64(next(), next()));
        raw.hermitian_part()
    }

    #[test]
    fn eigh_diagonal_matrix() {
        let d = CMatrix::diag_real(&[3.0, -1.0, 2.0]);
        let eig = eigh(&d).unwrap();
        assert!((eig.values[0] + 1.0).abs() < 1e-10);
        assert!((eig.values[1] - 2.0).abs() < 1e-10);
        assert!((eig.values[2] - 3.0).abs() < 1e-10);
        assert!(eig.vectors.is_unitary(1e-10));
    }

    #[test]
    fn eigh_reconstructs_matrix() {
        let h = random_hermitian(6, 42);
        let eig = eigh(&h).unwrap();
        let rebuilt = eig.apply_function(|l| c64(l, 0.0));
        assert!((&rebuilt - &h).max_abs() < 1e-9);
        assert!(eig.vectors.is_unitary(1e-9));
    }

    #[test]
    fn eigh_pauli_x_eigenvalues() {
        let x = CMatrix::from_rows(&[
            vec![c64(0.0, 0.0), c64(1.0, 0.0)],
            vec![c64(1.0, 0.0), c64(0.0, 0.0)],
        ])
        .unwrap();
        let eig = eigh(&x).unwrap();
        assert!((eig.values[0] + 1.0).abs() < 1e-12);
        assert!((eig.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eigh_rejects_non_hermitian() {
        let m = CMatrix::from_rows(&[
            vec![c64(0.0, 0.0), c64(1.0, 0.0)],
            vec![c64(2.0, 0.0), c64(0.0, 0.0)],
        ])
        .unwrap();
        assert!(eigh(&m).is_err());
    }

    #[test]
    fn expm_hermitian_produces_unitary() {
        let h = random_hermitian(5, 7);
        let u = expm_hermitian(&h, c64(0.0, -1.0)).unwrap();
        assert!(u.is_unitary(1e-9));
    }

    #[test]
    fn expm_hermitian_pauli_z_rotation() {
        // exp(-i θ/2 Z) = diag(e^{-iθ/2}, e^{iθ/2})
        let z = CMatrix::diag_real(&[1.0, -1.0]);
        let theta = 0.7;
        let u = expm_hermitian(&z, c64(0.0, -theta / 2.0)).unwrap();
        assert!((u[(0, 0)] - Complex64::cis(-theta / 2.0)).abs() < 1e-10);
        assert!((u[(1, 1)] - Complex64::cis(theta / 2.0)).abs() < 1e-10);
        assert!(u[(0, 1)].abs() < 1e-10);
    }

    #[test]
    fn expm_matches_hermitian_path() {
        let h = random_hermitian(4, 3);
        let a = h.scaled(c64(0.0, -0.37));
        let via_pade = expm(&a).unwrap();
        let via_eig = expm_hermitian(&h, c64(0.0, -0.37)).unwrap();
        assert!((&via_pade - &via_eig).max_abs() < 1e-8);
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let z = CMatrix::zeros(4, 4);
        let e = expm(&z).unwrap();
        assert!((&e - &CMatrix::identity(4)).max_abs() < 1e-12);
    }

    #[test]
    fn expm_nilpotent_matrix() {
        // exp([[0,1],[0,0]]) = [[1,1],[0,1]]
        let mut n = CMatrix::zeros(2, 2);
        n[(0, 1)] = c64(1.0, 0.0);
        let e = expm(&n).unwrap();
        assert!((e[(0, 0)] - c64(1.0, 0.0)).abs() < 1e-12);
        assert!((e[(0, 1)] - c64(1.0, 0.0)).abs() < 1e-12);
        assert!(e[(1, 0)].abs() < 1e-12);
    }

    #[test]
    fn expm_periodicity() {
        // exp(-i 2π n̂) should be the identity for integer spectrum.
        let n_op = CMatrix::diag_real(&[0.0, 1.0, 2.0, 3.0]);
        let u = expm_hermitian(&n_op, c64(0.0, -2.0 * PI)).unwrap();
        assert!((&u - &CMatrix::identity(4)).max_abs() < 1e-9);
    }

    #[test]
    fn solve_recovers_solution() {
        let a = CMatrix::from_rows(&[
            vec![c64(2.0, 0.0), c64(1.0, 1.0)],
            vec![c64(0.0, -1.0), c64(3.0, 0.0)],
        ])
        .unwrap();
        let x_true = vec![c64(1.0, -1.0), c64(0.5, 2.0)];
        let b = CMatrix::from_vec(2, 1, a.matvec(&x_true).unwrap()).unwrap();
        let x = solve_matrix(&a, &b).unwrap().into_vec();
        assert!((x[0] - x_true[0]).abs() < 1e-10);
        assert!((x[1] - x_true[1]).abs() < 1e-10);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = CMatrix::from_rows(&[
            vec![c64(1.0, 0.0), c64(2.0, 0.0)],
            vec![c64(2.0, 0.0), c64(4.0, 0.0)],
        ])
        .unwrap();
        let b = CMatrix::from_vec(2, 1, vec![Complex64::ONE; 2]).unwrap();
        assert!(solve_matrix(&a, &b).is_err());
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let h = random_hermitian(4, 11);
        let a = &h + &CMatrix::identity(4).scaled_real(5.0);
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!((&prod - &CMatrix::identity(4)).max_abs() < 1e-9);
    }

    #[test]
    fn qr_factorisation_properties() {
        let h = random_hermitian(5, 23);
        let (q, r) = qr(&h).unwrap();
        assert!(q.is_unitary(1e-9));
        // R upper triangular.
        for i in 0..5 {
            for j in 0..i {
                assert!(r[(i, j)].abs() < 1e-10);
            }
        }
        let rebuilt = q.matmul(&r).unwrap();
        assert!((&rebuilt - &h).max_abs() < 1e-9);
    }

    #[test]
    fn qr_rejects_rank_deficient() {
        let mut a = CMatrix::zeros(3, 2);
        a[(0, 0)] = c64(1.0, 0.0);
        a[(0, 1)] = c64(2.0, 0.0); // second column parallel to first
        assert!(qr(&a).is_err());
    }
}
