//! Matrix builders for the standard qudit gate set.
//!
//! These free functions return plain [`CMatrix`] operators; the [`crate::Gate`]
//! type wraps them with metadata (name, arity, dimensions) for use inside
//! circuits. Conventions:
//!
//! * `d` always denotes the qudit dimension.
//! * Two-qudit operators are indexed with the **control as the most
//!   significant digit** (matching the `targets = [control, target]` order
//!   used when pushing gates onto a circuit).
//! * `ω = exp(2πi/d)` is the primitive `d`-th root of unity.

use std::f64::consts::PI;

use qudit_core::complex::{c64, Complex64};
use qudit_core::linalg::{expm, expm_hermitian};
use qudit_core::matrix::CMatrix;

/// Identity on a `d`-level system.
pub fn identity(d: usize) -> CMatrix {
    CMatrix::identity(d)
}

/// Generalised Pauli-X (cyclic shift): `X|k⟩ = |k+1 mod d⟩`.
pub fn shift_x(d: usize) -> CMatrix {
    let mut m = CMatrix::zeros(d, d);
    for k in 0..d {
        m[((k + 1) % d, k)] = Complex64::ONE;
    }
    m
}

/// Generalised Pauli-Z (clock): `Z|k⟩ = ω^k |k⟩`.
pub fn clock_z(d: usize) -> CMatrix {
    let omega = 2.0 * PI / d as f64;
    CMatrix::diag(&(0..d).map(|k| Complex64::cis(omega * k as f64)).collect::<Vec<_>>())
}

/// Weyl operator `X^a Z^b`.
pub fn weyl(d: usize, a: usize, b: usize) -> CMatrix {
    let omega = 2.0 * PI / d as f64;
    let mut m = CMatrix::zeros(d, d);
    for k in 0..d {
        m[((k + a) % d, k)] = Complex64::cis(omega * (b * k) as f64);
    }
    m
}

/// Discrete Fourier transform (the qudit generalisation of the Hadamard):
/// `F|k⟩ = d^{-1/2} Σ_j ω^{jk} |j⟩`.
pub fn fourier(d: usize) -> CMatrix {
    let omega = 2.0 * PI / d as f64;
    let norm = 1.0 / (d as f64).sqrt();
    CMatrix::from_fn(d, d, |j, k| Complex64::cis(omega * (j * k) as f64).scale(norm))
}

/// Number operator `n̂ = diag(0, 1, ..., d-1)`.
pub fn number_operator(d: usize) -> CMatrix {
    CMatrix::diag_real(&(0..d).map(|k| k as f64).collect::<Vec<_>>())
}

/// Truncated bosonic annihilation operator `a|n⟩ = √n |n-1⟩`.
pub fn annihilation(d: usize) -> CMatrix {
    let mut m = CMatrix::zeros(d, d);
    for n in 1..d {
        m[(n - 1, n)] = c64((n as f64).sqrt(), 0.0);
    }
    m
}

/// Truncated bosonic creation operator `a†`.
pub fn creation(d: usize) -> CMatrix {
    annihilation(d).dagger()
}

/// Projector `|level⟩⟨level|` on a `d`-level system.
pub fn projector(d: usize, level: usize) -> CMatrix {
    let mut m = CMatrix::zeros(d, d);
    m[(level, level)] = Complex64::ONE;
    m
}

/// SNAP gate: selective number-dependent arbitrary phases,
/// `SNAP(θ⃗)|n⟩ = e^{iθ_n}|n⟩`.
///
/// Phases beyond the supplied list default to zero.
pub fn snap(d: usize, phases: &[f64]) -> CMatrix {
    CMatrix::diag(
        &(0..d).map(|n| Complex64::cis(phases.get(n).copied().unwrap_or(0.0))).collect::<Vec<_>>(),
    )
}

/// Truncated displacement operator `D(α) = exp(α a† − α* a)`.
///
/// The generator is truncated to the `d`-level subspace before
/// exponentiation, so the result is exactly unitary on that subspace.
pub fn displacement(d: usize, alpha: Complex64) -> CMatrix {
    let a = annihilation(d);
    let adag = creation(d);
    let mut gen = adag.scaled(alpha);
    gen.axpy(-alpha.conj(), &a).expect("same shape");
    expm(&gen).expect("displacement generator is finite")
}

/// Single-qudit rotation in the two-level subspace `{|j⟩, |k⟩}`:
/// `R_{jk}(θ, φ) = exp(−i θ/2 (cos φ · σx^{jk} + sin φ · σy^{jk}))`.
///
/// This is the native gate for transmon-style qudits where neighbouring (or
/// microwave-addressable) level pairs are driven resonantly.
pub fn rot_subspace(d: usize, j: usize, k: usize, theta: f64, phi: f64) -> CMatrix {
    assert!(j < d && k < d && j != k, "levels must be distinct and < d");
    let mut h = CMatrix::zeros(d, d);
    let coeff = c64(phi.cos(), -phi.sin()); // cosφ - i sinφ multiplies |j⟩⟨k|
    h[(j, k)] = coeff;
    h[(k, j)] = coeff.conj();
    expm_hermitian(&h, c64(0.0, -theta / 2.0)).expect("Hermitian generator")
}

/// Diagonal phase rotation on a single level: `|level⟩ ↦ e^{iθ}|level⟩`.
pub fn phase_on_level(d: usize, level: usize, theta: f64) -> CMatrix {
    let mut phases = vec![0.0; d];
    phases[level] = theta;
    snap(d, &phases)
}

/// The qudit "X mixer" Hamiltonian `Σ_k (|k⟩⟨k+1| + h.c.)` — the generator
/// of [`x_mixer`], exposed for parameterized-gate construction
/// ([`crate::Gate::parameterized`]).
pub fn x_mixer_generator(d: usize) -> CMatrix {
    let mut h = CMatrix::zeros(d, d);
    for k in 0..d - 1 {
        h[(k, k + 1)] = Complex64::ONE;
        h[(k + 1, k)] = Complex64::ONE;
    }
    h
}

/// Qudit "X mixer" generator `Σ_k (|k⟩⟨k+1| + h.c.)` exponentiated:
/// `exp(−i β H_mix)`. Used as the QAOA mixing operator for one-hot qudit
/// encodings.
pub fn x_mixer(d: usize, beta: f64) -> CMatrix {
    expm_hermitian(&x_mixer_generator(d), c64(0.0, -beta)).expect("Hermitian generator")
}

/// The fully-connected mixer Hamiltonian `Σ_{j<k} (|j⟩⟨k| + h.c.)` — the
/// generator of [`full_mixer`], exposed for parameterized-gate construction.
pub fn full_mixer_generator(d: usize) -> CMatrix {
    let mut h = CMatrix::zeros(d, d);
    for j in 0..d {
        for k in (j + 1)..d {
            h[(j, k)] = Complex64::ONE;
            h[(k, j)] = Complex64::ONE;
        }
    }
    h
}

/// Fully-connected qudit mixer `exp(−i β Σ_{j<k} (|j⟩⟨k| + h.c.))`.
pub fn full_mixer(d: usize, beta: f64) -> CMatrix {
    expm_hermitian(&full_mixer_generator(d), c64(0.0, -beta)).expect("Hermitian generator")
}

/// Diagonal qudit phase gate `exp(−i γ diag(w_0, ..., w_{d-1}))`, the phase
/// separator applied per-qudit in QAOA cost layers.
pub fn diagonal_phase(weights: &[f64], gamma: f64) -> CMatrix {
    CMatrix::diag(&weights.iter().map(|&w| Complex64::cis(-gamma * w)).collect::<Vec<_>>())
}

/// CSUM gate on a (control, target) pair of possibly different dimensions:
/// `|a⟩|b⟩ ↦ |a⟩|(b + a) mod d_t⟩`.
///
/// This is the qudit Clifford extension of CNOT highlighted by the paper as
/// the key missing engineering component for nearest-neighbour interactions.
pub fn csum(d_control: usize, d_target: usize) -> CMatrix {
    let dim = d_control * d_target;
    let mut m = CMatrix::zeros(dim, dim);
    for a in 0..d_control {
        for b in 0..d_target {
            let src = a * d_target + b;
            let dst = a * d_target + ((b + a) % d_target);
            m[(dst, src)] = Complex64::ONE;
        }
    }
    m
}

/// Inverse CSUM: `|a⟩|b⟩ ↦ |a⟩|(b − a) mod d_t⟩`.
pub fn csum_inverse(d_control: usize, d_target: usize) -> CMatrix {
    csum(d_control, d_target).dagger()
}

/// Controlled-phase gate `CZ_d |a⟩|b⟩ = ω^{ab} |a⟩|b⟩` with
/// `ω = exp(2πi/d_target)`.
pub fn cphase(d_control: usize, d_target: usize) -> CMatrix {
    let omega = 2.0 * PI / d_target as f64;
    let dim = d_control * d_target;
    CMatrix::diag(
        &(0..dim)
            .map(|idx| {
                let a = idx / d_target;
                let b = idx % d_target;
                Complex64::cis(omega * (a * b) as f64)
            })
            .collect::<Vec<_>>(),
    )
}

/// Weighted controlled-phase `exp(−i γ (a·b))` on a qudit pair — the QAOA
/// phase-separation interaction for graph coloring and lattice-gauge
/// electric-field couplings.
pub fn cphase_weighted(d_control: usize, d_target: usize, gamma: f64) -> CMatrix {
    let dim = d_control * d_target;
    CMatrix::diag(
        &(0..dim)
            .map(|idx| {
                let a = idx / d_target;
                let b = idx % d_target;
                Complex64::cis(-gamma * (a * b) as f64)
            })
            .collect::<Vec<_>>(),
    )
}

/// SWAP between two qudits of equal dimension `d`.
pub fn swap(d: usize) -> CMatrix {
    let dim = d * d;
    let mut m = CMatrix::zeros(dim, dim);
    for a in 0..d {
        for b in 0..d {
            m[(b * d + a, a * d + b)] = Complex64::ONE;
        }
    }
    m
}

/// Beam-splitter interaction between two bosonic modes truncated to `d`
/// levels each: `exp(−iθ (a†b + a b†))` (with an optional phase `φ` on the
/// exchanged excitation).
///
/// At `θ = π/2, φ = 0` this implements (up to local phases) a full SWAP of
/// the two mode states; at `θ = π/4` a 50:50 beam splitter.
pub fn beam_splitter(d: usize, theta: f64, phi: f64) -> CMatrix {
    let a = annihilation(d);
    let b = annihilation(d);
    let a_dag_b = a.dagger().kron(&b);
    let a_b_dag = a.kron(&b.dagger());
    let phase = Complex64::cis(phi);
    let mut h = a_dag_b.scaled(phase);
    h.axpy(phase.conj(), &a_b_dag).expect("same shape");
    expm_hermitian(&h, c64(0.0, -theta)).expect("Hermitian generator")
}

/// Cross-Kerr interaction `exp(−i χ t n̂_1 n̂_2)` between two modes truncated
/// to `d1`, `d2` levels.
pub fn cross_kerr(d1: usize, d2: usize, chi_t: f64) -> CMatrix {
    let dim = d1 * d2;
    CMatrix::diag(
        &(0..dim)
            .map(|idx| {
                let n1 = idx / d2;
                let n2 = idx % d2;
                Complex64::cis(-chi_t * (n1 * n2) as f64)
            })
            .collect::<Vec<_>>(),
    )
}

/// Generic controlled unitary: applies `u` to the target when the control is
/// in level `trigger`, identity otherwise.
pub fn controlled_on_level(d_control: usize, trigger: usize, u: &CMatrix) -> CMatrix {
    let d_t = u.rows();
    let dim = d_control * d_t;
    let mut m = CMatrix::zeros(dim, dim);
    for a in 0..d_control {
        for i in 0..d_t {
            if a == trigger {
                for j in 0..d_t {
                    m[(a * d_t + i, a * d_t + j)] = u.get(i, j);
                }
            } else {
                m[(a * d_t + i, a * d_t + i)] = Complex64::ONE;
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::metrics::process_fidelity;

    const TOL: f64 = 1e-10;

    #[test]
    fn shift_and_clock_satisfy_weyl_commutation() {
        // Z X = ω X Z
        for d in [2, 3, 5] {
            let x = shift_x(d);
            let z = clock_z(d);
            let zx = z.matmul(&x).unwrap();
            let xz = x.matmul(&z).unwrap();
            let omega = Complex64::cis(2.0 * PI / d as f64);
            assert!((&zx - &xz.scaled(omega)).max_abs() < TOL, "d = {d}");
        }
    }

    #[test]
    fn shift_x_has_order_d() {
        for d in [2, 3, 4, 7] {
            let x = shift_x(d);
            let mut acc = CMatrix::identity(d);
            for _ in 0..d {
                acc = acc.matmul(&x).unwrap();
            }
            assert!((&acc - &CMatrix::identity(d)).max_abs() < TOL);
        }
    }

    #[test]
    fn fourier_is_unitary_and_diagonalises_shift() {
        for d in [2, 3, 4, 6] {
            let f = fourier(d);
            assert!(f.is_unitary(TOL));
            // F† X F should be diagonal (equal to Z up to conjugation convention).
            let x = shift_x(d);
            let diag = f.dagger().matmul(&x).unwrap().matmul(&f).unwrap();
            for i in 0..d {
                for j in 0..d {
                    if i != j {
                        assert!(diag[(i, j)].abs() < TOL, "d={d} ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn weyl_operators_are_unitary() {
        let d = 4;
        for a in 0..d {
            for b in 0..d {
                assert!(weyl(d, a, b).is_unitary(TOL));
            }
        }
    }

    #[test]
    fn creation_annihilation_ladder_action() {
        let d = 5;
        let a = annihilation(d);
        let adag = creation(d);
        // a|3> = sqrt(3)|2>
        let mut v = vec![Complex64::ZERO; d];
        v[3] = Complex64::ONE;
        let out = a.matvec(&v).unwrap();
        assert!((out[2] - c64(3.0_f64.sqrt(), 0.0)).abs() < TOL);
        // a†a = n̂ on the truncated space.
        let n = adag.matmul(&a).unwrap();
        assert!((&n - &number_operator(d)).max_abs() < TOL);
    }

    #[test]
    fn snap_applies_selective_phases() {
        let g = snap(4, &[0.0, 0.5, 1.0, -0.25]);
        assert!(g.is_unitary(TOL));
        assert!((g[(1, 1)] - Complex64::cis(0.5)).abs() < TOL);
        assert!((g[(3, 3)] - Complex64::cis(-0.25)).abs() < TOL);
        assert!(g[(0, 1)].abs() < TOL);
    }

    #[test]
    fn displacement_is_unitary_and_displaces_vacuum() {
        let d = 20;
        let alpha = c64(1.2, -0.3);
        let disp = displacement(d, alpha);
        assert!(disp.is_unitary(1e-9));
        // ⟨n⟩ of D(α)|0⟩ ≈ |α|² for a truncation well above |α|².
        let mut vac = vec![Complex64::ZERO; d];
        vac[0] = Complex64::ONE;
        let coherent = disp.matvec(&vac).unwrap();
        let n_avg: f64 = coherent.iter().enumerate().map(|(n, c)| n as f64 * c.norm_sqr()).sum();
        assert!((n_avg - alpha.norm_sqr()).abs() < 1e-3);
    }

    #[test]
    fn displacement_inverse_is_negative_alpha() {
        let d = 12;
        let alpha = c64(0.7, 0.2);
        let dp = displacement(d, alpha);
        let dm = displacement(d, -alpha);
        let prod = dp.matmul(&dm).unwrap();
        assert!(process_fidelity(&prod, &CMatrix::identity(d)).unwrap() > 1.0 - 1e-8);
    }

    #[test]
    fn rot_subspace_acts_only_on_chosen_levels() {
        let d = 5;
        let r = rot_subspace(d, 1, 3, PI, 0.0);
        assert!(r.is_unitary(TOL));
        // A π rotation swaps |1⟩ and |3⟩ (up to phase -i).
        assert!(r[(1, 1)].abs() < TOL);
        assert!((r[(3, 1)].abs() - 1.0).abs() < TOL);
        // Level 0 untouched.
        assert!((r[(0, 0)] - Complex64::ONE).abs() < TOL);
        assert!((r[(2, 2)] - Complex64::ONE).abs() < TOL);
    }

    #[test]
    fn csum_permutation_and_order() {
        let d = 3;
        let g = csum(d, d);
        assert!(g.is_unitary(TOL));
        // |2,2> -> |2,1>
        let src = 2 * d + 2;
        let dst = 2 * d + 1;
        assert!((g[(dst, src)] - Complex64::ONE).abs() < TOL);
        // CSUM^d = identity.
        let mut acc = CMatrix::identity(d * d);
        for _ in 0..d {
            acc = acc.matmul(&g).unwrap();
        }
        assert!((&acc - &CMatrix::identity(d * d)).max_abs() < TOL);
        // Inverse property.
        let inv = csum_inverse(d, d);
        let prod = g.matmul(&inv).unwrap();
        assert!((&prod - &CMatrix::identity(d * d)).max_abs() < TOL);
    }

    #[test]
    fn csum_reduces_to_cnot_for_qubits() {
        let g = csum(2, 2);
        // |10> -> |11>, |11> -> |10>
        assert!((g[(3, 2)] - Complex64::ONE).abs() < TOL);
        assert!((g[(2, 3)] - Complex64::ONE).abs() < TOL);
        assert!((g[(0, 0)] - Complex64::ONE).abs() < TOL);
    }

    #[test]
    fn cphase_is_diagonal_unitary_with_correct_phases() {
        let d = 3;
        let g = cphase(d, d);
        assert!(g.is_unitary(TOL));
        let omega = Complex64::cis(2.0 * PI / 3.0);
        let idx = 2 * d + 2; // a=2, b=2 -> ω^4 = ω
        assert!((g[(idx, idx)] - omega).abs() < TOL);
    }

    #[test]
    fn fourier_conjugates_cphase_to_csum() {
        // CSUM = (I ⊗ F†) CZ (I ⊗ F) for equal dimensions — the standard
        // Clifford relation used by the compiler.
        let d = 4;
        let f = fourier(d);
        let id = CMatrix::identity(d);
        let lhs = id.kron(&f.dagger()).matmul(&cphase(d, d)).unwrap().matmul(&id.kron(&f)).unwrap();
        let fid = process_fidelity(&lhs, &csum(d, d)).unwrap();
        assert!(fid > 1.0 - 1e-9, "fidelity {fid}");
    }

    #[test]
    fn swap_exchanges_states() {
        let d = 3;
        let s = swap(d);
        assert!(s.is_unitary(TOL));
        // |1,2> -> |2,1>
        assert!((s[(2 * d + 1, d + 2)] - Complex64::ONE).abs() < TOL);
        let sq = s.matmul(&s).unwrap();
        assert!((&sq - &CMatrix::identity(d * d)).max_abs() < TOL);
    }

    #[test]
    fn beam_splitter_full_swap_preserves_single_photon_exchange() {
        let d = 4;
        let bs = beam_splitter(d, PI / 2.0, 0.0);
        assert!(bs.is_unitary(1e-9));
        // |1,0> should map to (a state proportional to) |0,1>.
        let mut v = vec![Complex64::ZERO; d * d];
        v[d] = Complex64::ONE; // |1,0⟩ = index 1*d + 0
        let out = bs.matvec(&v).unwrap();
        let p01 = out[1].norm_sqr(); // |0,1⟩ = index 1
        assert!((p01 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beam_splitter_5050_splits_single_photon() {
        let d = 3;
        let bs = beam_splitter(d, PI / 4.0, 0.0);
        let mut v = vec![Complex64::ZERO; d * d];
        v[d] = Complex64::ONE;
        let out = bs.matvec(&v).unwrap();
        assert!((out[d].norm_sqr() - 0.5).abs() < 1e-9);
        assert!((out[1].norm_sqr() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cross_kerr_phases() {
        let g = cross_kerr(3, 3, 0.5);
        assert!(g.is_unitary(TOL));
        let idx = 2 * 3 + 2;
        assert!((g[(idx, idx)] - Complex64::cis(-0.5 * 4.0)).abs() < TOL);
    }

    #[test]
    fn controlled_on_level_triggers_only_on_chosen_level() {
        let u = shift_x(3);
        let g = controlled_on_level(3, 2, &u);
        assert!(g.is_unitary(TOL));
        // control=1: identity on target.
        assert!((g[(3 + 1, 3 + 1)] - Complex64::ONE).abs() < TOL);
        // control=2: shift applied, |2,0> -> |2,1>.
        assert!((g[(2 * 3 + 1, 2 * 3)] - Complex64::ONE).abs() < TOL);
    }

    #[test]
    fn mixers_are_unitary_and_mix_population() {
        let d = 4;
        let m = x_mixer(d, 0.8);
        assert!(m.is_unitary(TOL));
        let fm = full_mixer(d, 0.8);
        assert!(fm.is_unitary(TOL));
        // Starting in |0⟩ some population must leave level 0.
        let mut v = vec![Complex64::ZERO; d];
        v[0] = Complex64::ONE;
        let out = m.matvec(&v).unwrap();
        assert!(out[0].norm_sqr() < 1.0 - 1e-3);
    }

    #[test]
    fn diagonal_phase_matches_weights() {
        let g = diagonal_phase(&[0.0, 1.0, 3.0], 0.4);
        assert!((g[(2, 2)] - Complex64::cis(-1.2)).abs() < TOL);
        assert!(g.is_unitary(TOL));
    }

    #[test]
    fn cphase_weighted_gradient_structure() {
        let g = cphase_weighted(3, 3, 0.7);
        assert!(g.is_unitary(TOL));
        let idx = 3 + 2;
        assert!((g[(idx, idx)] - Complex64::cis(-0.7 * 2.0)).abs() < TOL);
    }
}
