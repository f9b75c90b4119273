//! Exact decomposition of single-mode unitaries into adjacent-level Givens
//! rotations plus a final SNAP (diagonal phase) layer.
//!
//! Any `d × d` unitary can be written as a product of rotations that each act
//! only on two *adjacent* Fock levels `{|n⟩, |n+1⟩}`, followed by per-level
//! phases. Adjacent-level rotations are the natural primitive of cavity
//! control (a displacement–SNAP–displacement sandwich), so this decomposition
//! is the constructive backbone of the compiler: it is exact, deterministic,
//! and its rotation count `d(d−1)/2` gives the primitive-count scaling used
//! in the resource estimates.

use qudit_core::matrix::CMatrix;
use qudit_core::metrics::process_fidelity;

use crate::error::{CompilerError, Result};

/// A rotation acting on the two adjacent levels `(level, level + 1)` of a
/// `d`-level qudit, stored as its full `d × d` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct GivensRotation {
    /// Lower of the two levels the rotation acts on.
    pub level: usize,
    /// The full `d × d` unitary (identity outside the 2×2 block).
    pub matrix: CMatrix,
    /// Rotation angle θ (for cost accounting; `|sin θ|` is the transferred
    /// amplitude).
    pub theta: f64,
}

/// The result of a Givens decomposition: apply `rotations` in order, then the
/// final SNAP phases — i.e. `U = SNAP(phases) · R_N ⋯ R_2 R_1` read
/// right-to-left as matrices, or "rotations first, phases last" as a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct GivensDecomposition {
    /// Qudit dimension.
    pub d: usize,
    /// Rotations in application (circuit) order.
    pub rotations: Vec<GivensRotation>,
    /// Final per-level phases (a SNAP gate).
    pub phases: Vec<f64>,
}

impl GivensDecomposition {
    /// Rebuilds the full unitary from the decomposition.
    pub fn reconstruct(&self) -> CMatrix {
        let mut u = CMatrix::identity(self.d);
        for rot in &self.rotations {
            u = rot.matrix.matmul(&u).expect("square");
        }
        let snap = qudit_circuit::gates::snap(self.d, &self.phases);
        snap.matmul(&u).expect("square")
    }

    /// Number of rotations with a non-negligible angle (|θ| > 1e-9), i.e.
    /// pulses that actually need to be played.
    pub fn nontrivial_rotation_count(&self) -> usize {
        self.rotations.iter().filter(|r| r.theta.abs() > 1e-9).count()
    }

    /// Reconstruction fidelity against a target unitary.
    ///
    /// # Errors
    /// Returns an error on dimension mismatch.
    pub fn fidelity_against(&self, target: &CMatrix) -> Result<f64> {
        process_fidelity(&self.reconstruct(), target).map_err(CompilerError::Core)
    }
}

/// Decomposes a `d × d` unitary into adjacent-level Givens rotations plus a
/// final SNAP layer.
///
/// # Errors
/// Returns an error if the matrix is not square or not unitary to `1e-8`.
pub fn decompose_unitary(u: &CMatrix) -> Result<GivensDecomposition> {
    if !u.is_square() {
        return Err(CompilerError::InvalidTarget("synthesis target must be square".into()));
    }
    if !u.is_unitary(1e-8) {
        return Err(CompilerError::InvalidTarget("synthesis target must be unitary".into()));
    }
    let d = u.rows();
    // Eliminate on V = U†: rotations G_k with G_N ⋯ G_1 V = D imply
    // U = V† = D† · G_N ⋯ G_1, i.e. as a circuit "apply G_1, G_2, …, G_N,
    // then the diagonal phases of D†" — rotations first, SNAP last.
    let mut m = u.dagger();
    let mut rotations: Vec<GivensRotation> = Vec::new();
    for col in 0..d {
        for row in (col + 1..d).rev() {
            let a = m.get(row - 1, col);
            let b = m.get(row, col);
            let r = (a.norm_sqr() + b.norm_sqr()).sqrt();
            if b.abs() < 1e-14 {
                continue;
            }
            // 2x2 block G = (1/r) [[ā, b̄], [−b, a]] zeroes entry (row, col).
            let g00 = a.conj() / r;
            let g01 = b.conj() / r;
            let g10 = -b / r;
            let g11 = a / r;
            let mut g = CMatrix::identity(d);
            g[(row - 1, row - 1)] = g00;
            g[(row - 1, row)] = g01;
            g[(row, row - 1)] = g10;
            g[(row, row)] = g11;
            m = g.matmul(&m).map_err(CompilerError::Core)?;
            let theta = (b.abs() / r).asin();
            rotations.push(GivensRotation { level: row - 1, matrix: g, theta });
        }
    }
    // m now holds the diagonal D; the circuit's final SNAP applies D†.
    let mut phases = Vec::with_capacity(d);
    for k in 0..d {
        phases.push(-m.get(k, k).arg());
    }
    Ok(GivensDecomposition { d, rotations, phases })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::gates;
    use qudit_core::complex::Complex64;
    use qudit_core::random::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn decomposes_haar_random_unitaries_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        for d in [2, 3, 4, 5, 8] {
            let u = haar_unitary(&mut rng, d).unwrap();
            let dec = decompose_unitary(&u).unwrap();
            let f = dec.fidelity_against(&u).unwrap();
            assert!(f > 1.0 - 1e-9, "d = {d}, fidelity {f}");
            assert!(dec.rotations.len() <= d * (d - 1) / 2);
        }
    }

    #[test]
    fn decomposes_fourier_gate() {
        for d in [3, 4, 6] {
            let f_gate = gates::fourier(d);
            let dec = decompose_unitary(&f_gate).unwrap();
            assert!(dec.fidelity_against(&f_gate).unwrap() > 1.0 - 1e-9);
        }
    }

    #[test]
    fn diagonal_unitary_needs_no_rotations() {
        let snap = gates::snap(5, &[0.1, 0.7, -0.3, 2.0, 0.0]);
        let dec = decompose_unitary(&snap).unwrap();
        assert_eq!(dec.nontrivial_rotation_count(), 0);
        assert!(dec.fidelity_against(&snap).unwrap() > 1.0 - 1e-10);
    }

    #[test]
    fn single_subspace_rotation_is_recognised_as_cheap() {
        let d = 6;
        let target = gates::rot_subspace(d, 2, 3, 1.1, 0.4);
        let dec = decompose_unitary(&target).unwrap();
        assert!(dec.fidelity_against(&target).unwrap() > 1.0 - 1e-9);
        // Only rotations touching levels 2-3 should be non-trivial.
        assert!(dec.nontrivial_rotation_count() <= 3);
    }

    #[test]
    fn rejects_non_unitary_targets() {
        let m = CMatrix::zeros(3, 3);
        assert!(decompose_unitary(&m).is_err());
        let rect = CMatrix::zeros(2, 3);
        assert!(decompose_unitary(&rect).is_err());
    }

    #[test]
    fn rotation_matrices_touch_only_adjacent_levels() {
        let mut rng = StdRng::seed_from_u64(3);
        let u = haar_unitary(&mut rng, 4).unwrap();
        let dec = decompose_unitary(&u).unwrap();
        for rot in &dec.rotations {
            let g = &rot.matrix;
            for i in 0..4 {
                for j in 0..4 {
                    let in_block = (i == rot.level || i == rot.level + 1)
                        && (j == rot.level || j == rot.level + 1);
                    if !in_block {
                        let expected = if i == j { Complex64::ONE } else { Complex64::ZERO };
                        assert!((g.get(i, j) - expected).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn primitive_counts_scale_quadratically() {
        let mut rng = StdRng::seed_from_u64(5);
        let u3 = haar_unitary(&mut rng, 3).unwrap();
        let u6 = haar_unitary(&mut rng, 6).unwrap();
        // A generic unitary needs all d(d−1)/2 adjacent-level rotations.
        let n3 = decompose_unitary(&u3).unwrap().nontrivial_rotation_count();
        let n6 = decompose_unitary(&u6).unwrap().nontrivial_rotation_count();
        assert_eq!(n3, 3);
        assert_eq!(n6, 15);
    }
}
