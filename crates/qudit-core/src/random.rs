//! Random quantum objects: Haar-random states and unitaries, random density
//! matrices and Hermitian matrices.
//!
//! All generators take an explicit `Rng`, so every experiment in the
//! workspace can be seeded and reproduced exactly.

use rand::Rng;
use rand_distr::{Distribution, StandardNormal};

use crate::complex::{c64, Complex64};
use crate::error::Result;
use crate::linalg::qr;
use crate::matrix::CMatrix;
use crate::state::QuditState;

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    StandardNormal.sample(rng)
}

/// Samples a matrix with i.i.d. standard complex Gaussian entries.
pub fn ginibre<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> CMatrix {
    CMatrix::from_fn(rows, cols, |_, _| c64(standard_normal(rng), standard_normal(rng)))
}

/// Samples a Haar-random unitary of dimension `n` (QR of a Ginibre matrix
/// with the phase convention fixed by the R diagonal).
///
/// # Errors
/// Propagates QR failures (vanishingly unlikely for random input).
pub fn haar_unitary<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Result<CMatrix> {
    let g = ginibre(rng, n, n);
    let (q, r) = qr(&g)?;
    // Fix phases so the distribution is exactly Haar.
    let mut u = q;
    for j in 0..n {
        let d = r[(j, j)];
        let phase = if d.abs() > 0.0 { d / d.abs() } else { Complex64::ONE };
        for i in 0..n {
            let v = u.get(i, j) * phase.conj();
            u.set(i, j, v);
        }
    }
    Ok(u)
}

/// Samples a Haar-random pure state on the given register.
///
/// # Errors
/// Returns an error for invalid dimensions.
pub fn haar_state<R: Rng + ?Sized>(rng: &mut R, dims: Vec<usize>) -> Result<QuditState> {
    let total: usize = dims.iter().product();
    let amps: Vec<Complex64> =
        (0..total).map(|_| c64(standard_normal(rng), standard_normal(rng))).collect();
    let mut state = QuditState::from_amplitudes(dims, amps)?;
    state.normalize()?;
    Ok(state)
}

/// Samples a random Hermitian matrix with Gaussian entries (GUE up to
/// normalisation).
pub fn random_hermitian<R: Rng + ?Sized>(rng: &mut R, n: usize) -> CMatrix {
    ginibre(rng, n, n).hermitian_part()
}

/// Samples a random density matrix of dimension `n` with the Hilbert–Schmidt
/// measure (normalised `G G†` for Ginibre `G`).
pub fn random_density<R: Rng + ?Sized>(rng: &mut R, n: usize) -> CMatrix {
    let g = ginibre(rng, n, n);
    let mut rho = g.matmul(&g.dagger()).expect("square product");
    let t = rho.trace().re;
    rho.scale_inplace(c64(1.0 / t, 0.0));
    rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn haar_unitary_is_unitary() {
        let mut rng = StdRng::seed_from_u64(0);
        for n in [2, 3, 5] {
            let u = haar_unitary(&mut rng, n).unwrap();
            assert!(u.is_unitary(1e-10), "dimension {n}");
        }
    }

    #[test]
    fn haar_unitary_is_seeded_deterministically() {
        let u1 = haar_unitary(&mut StdRng::seed_from_u64(7), 4).unwrap();
        let u2 = haar_unitary(&mut StdRng::seed_from_u64(7), 4).unwrap();
        assert!((&u1 - &u2).max_abs() < 1e-15);
    }

    #[test]
    fn haar_state_is_normalised() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = haar_state(&mut rng, vec![3, 4]).unwrap();
        assert!((s.norm() - 1.0).abs() < 1e-12);
        assert_eq!(s.dim(), 12);
    }

    #[test]
    fn random_hermitian_is_hermitian() {
        let mut rng = StdRng::seed_from_u64(11);
        let h = random_hermitian(&mut rng, 6);
        assert!(h.is_hermitian(1e-12));
    }

    #[test]
    fn random_density_is_physical() {
        let mut rng = StdRng::seed_from_u64(13);
        let rho = random_density(&mut rng, 5);
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
        assert!(rho.is_hermitian(1e-10));
        let eig = crate::linalg::eigh(&rho).unwrap();
        assert!(eig.values.iter().all(|&l| l > -1e-10));
    }

    #[test]
    fn haar_unitary_first_moment_vanishes() {
        // The average of U over the Haar measure is 0; check the empirical
        // mean of an entry is small.
        let mut rng = StdRng::seed_from_u64(23);
        let mut acc = Complex64::ZERO;
        let n_samples = 200;
        for _ in 0..n_samples {
            let u = haar_unitary(&mut rng, 3).unwrap();
            acc += u[(0, 0)];
        }
        assert!(acc.abs() / n_samples as f64 % 1.0 < 0.2);
    }
}
