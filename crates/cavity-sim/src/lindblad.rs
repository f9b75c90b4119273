//! Lindblad master-equation integration for open cavity-transmon systems.
//!
//! `dρ/dt = −i[H, ρ] + Σ_k γ_k (L_k ρ L_k† − ½{L_k†L_k, ρ})`
//!
//! The integrator is a fixed-step RK4 on the full density matrix, which is
//! robust and easy to validate; the Hilbert spaces used by the reservoir and
//! primitive-gate error studies (two to four modes at d ≤ 10) stay well
//! within its reach.
//!
//! # Generator form
//!
//! The generator `G_d = −i(H + D) − ½ Σ_k γ_k L_k†L_k` folds the
//! Hamiltonian, a drive `D` and the anticommutator into one operator, so
//! for a Hermitian `ρ` the right-hand side is
//!
//! ```text
//! X = G_d ρ + ½ Σ_k γ_k (L_k ρ) L_k†,    dρ/dt = X + X†
//! ```
//!
//! Only `X` is computed; `X + X†` is formed in place in one pass over the
//! pairs `i ≤ j`, so every slope, and with it `ρ`, stays exactly Hermitian.
//! `H` and `D` enter through their Hermitian parts `½(M + M†)`, which for an
//! exactly Hermitian `M` is `M` bit for bit; a drive outside the 1e-8 check
//! the Hamiltonian also passes is rejected. The drive is constant over one
//! call, so a piecewise-constant drive is one call per piece.
//!
//! # Storage and cost
//!
//! Cavity operators are sparse: ladder, number and hopping terms have `O(N)`
//! nonzeros in an `N × N` space. `G_d`, every `L_k` and every `½γ_k L_k†`
//! (scalars folded in, so no product rescales) are stored as
//! [`RowCompressed`], and every product is sparse × dense, `out += A·ρ` or
//! `out += ρ·A`, costing `O(nnz · N)` instead of `O(N³)`. With `K` collapse
//! operators one evaluation makes `1 + 2K` products, drive or not: `G_d` has
//! a left product and no right one. The loop allocates nothing: `G_d` is
//! row-compressed once per call, and the slopes, the stage point and the
//! `L ρ` scratch are built before the first step.

use qudit_core::complex::{c64, Complex64};
use qudit_core::density::DensityMatrix;
use qudit_core::error::CoreError;
use qudit_core::matrix::CMatrix;
use qudit_core::radix::{embed_operator, Radix};
use qudit_core::sparse::RowCompressed;

use crate::error::{CavityError, Result};

/// A collapse operator `L` and its half-rate-weighted adjoint `½γ L†`, both
/// row-compressed, so its share `½γ (L ρ) L†` of `X` is two unscaled
/// products; the `L†L` half of its dissipator is folded into the generator.
#[derive(Debug, Clone)]
struct CollapseOp {
    l: RowCompressed,
    half_rate_l_dag: RowCompressed,
}

/// An open quantum system: Hamiltonian plus weighted collapse operators on a
/// mixed-radix register of modes.
#[derive(Debug, Clone)]
pub struct LindbladSystem {
    radix: Radix,
    hamiltonian: CMatrix,
    /// `Σ_k γ_k L_k†L_k`, kept dense so the generator can be refolded when
    /// a term is added.
    decay: CMatrix,
    /// `G = −iH − ½ Σ_k γ_k L_k†L_k`, the undriven generator.
    generator: RowCompressed,
    collapse: Vec<CollapseOp>,
}

impl LindbladSystem {
    /// Creates an empty system (zero Hamiltonian, no dissipators) on a
    /// register with the given per-mode truncations.
    ///
    /// # Errors
    /// Returns an error for invalid dimensions.
    pub fn new(dims: Vec<usize>) -> Result<Self> {
        let radix = Radix::new(dims).map_err(CavityError::Core)?;
        let n = radix.total_dim();
        let zero = CMatrix::zeros(n, n);
        Ok(Self {
            radix,
            generator: RowCompressed::from_dense(&zero, Complex64::ONE),
            hamiltonian: zero.clone(),
            decay: zero,
            collapse: Vec::new(),
        })
    }

    /// The register description.
    pub fn radix(&self) -> &Radix {
        &self.radix
    }

    /// The full-space Hamiltonian assembled so far.
    pub fn hamiltonian(&self) -> &CMatrix {
        &self.hamiltonian
    }

    /// Adds `coeff · op` (acting on the listed modes) to the Hamiltonian.
    ///
    /// # Errors
    /// Returns an error if targets or dimensions are invalid or the resulting
    /// term is not Hermitian; the system is left unchanged.
    pub fn add_hamiltonian_term(
        &mut self,
        op: &CMatrix,
        targets: &[usize],
        coeff: f64,
    ) -> Result<&mut Self> {
        let full = embed_operator(&self.radix, op, targets).map_err(CavityError::Core)?;
        self.add_full_hamiltonian(&full, coeff)
    }

    /// Adds a full-space Hamiltonian term `coeff · h` directly.
    ///
    /// # Errors
    /// Returns [`CoreError::ShapeMismatch`] on dimension mismatch and
    /// [`CoreError::NotStructured`] if the accumulated Hamiltonian is not
    /// Hermitian; the system is left unchanged.
    pub fn add_full_hamiltonian(&mut self, h: &CMatrix, coeff: f64) -> Result<&mut Self> {
        let mut sum = self.hamiltonian.clone();
        sum.axpy(c64(coeff, 0.0), h).map_err(CavityError::Core)?;
        check_hermitian(&sum, "accumulated Hamiltonian")?;
        self.hamiltonian = sum;
        self.generator = self.fold_generator(None);
        Ok(self)
    }

    /// Adds a collapse (jump) operator acting on the listed modes with rate
    /// `rate` (the rate multiplies the dissipator, i.e. `γ_k`).
    ///
    /// The operator and targets are validated before the rate, so a
    /// wrong-shape operator is an error even at `rate == 0.0`, which then
    /// adds nothing.
    ///
    /// # Errors
    /// Returns an error if targets or dimensions are invalid, or
    /// [`CavityError::InvalidParameter`] if the rate is negative or not
    /// finite.
    pub fn add_collapse(
        &mut self,
        op: &CMatrix,
        targets: &[usize],
        rate: f64,
    ) -> Result<&mut Self> {
        let full = embed_operator(&self.radix, op, targets).map_err(CavityError::Core)?;
        if !(rate.is_finite() && rate >= 0.0) {
            return Err(CavityError::InvalidParameter(format!(
                "collapse rate must be finite and non-negative, got {rate}"
            )));
        }
        if rate == 0.0 {
            return Ok(self);
        }
        let l_dag = full.dagger();
        let ldag_l = l_dag.matmul(&full).map_err(CavityError::Core)?;
        self.decay.axpy(c64(rate, 0.0), &ldag_l).map_err(CavityError::Core)?;
        self.collapse.push(CollapseOp {
            l: RowCompressed::from_dense(&full, Complex64::ONE),
            half_rate_l_dag: RowCompressed::from_dense(&l_dag, c64(0.5 * rate, 0.0)),
        });
        self.generator = self.fold_generator(None);
        Ok(self)
    }

    /// `G_d = −i(H_h + D_h) − ½ Σ_k γ_k L_k†L_k`, row-compressed, where
    /// `M_h = ½(M + M†)` is the Hermitian part; without a drive this is `G`.
    fn fold_generator(&self, drive: Option<&CMatrix>) -> RowCompressed {
        let n = self.radix.total_dim();
        let hermitian = |m: &CMatrix, i: usize, j: usize| (m[(i, j)] + m[(j, i)].conj()).scale(0.5);
        let g = CMatrix::from_fn(n, n, |i, j| {
            let d = drive.map_or(Complex64::ZERO, |d| hermitian(d, i, j));
            c64(0.0, -1.0) * (hermitian(&self.hamiltonian, i, j) + d)
                - self.decay[(i, j)].scale(0.5)
        });
        RowCompressed::from_dense(&g, Complex64::ONE)
    }

    /// Right-hand side `X + X†` with `X = G_d ρ + ½ Σ_k γ_k (L_k ρ) L_k†`,
    /// evaluated at `rho` and written into `out`; `scratch` holds each
    /// `L_k ρ`. Every product is sparse × dense and nothing is allocated.
    fn rhs_into(
        &self,
        generator: &RowCompressed,
        rho: &CMatrix,
        out: &mut CMatrix,
        scratch: &mut CMatrix,
    ) {
        out.as_mut_slice().fill(Complex64::ZERO);
        generator.add_left_product(rho, out);
        for c in &self.collapse {
            scratch.as_mut_slice().fill(Complex64::ZERO);
            c.l.add_left_product(rho, scratch);
            c.half_rate_l_dag.add_right_product(scratch, out);
        }
        add_adjoint_in_place(out);
    }

    /// Evolves `rho` for total time `t` with RK4 steps of size `dt`.
    ///
    /// # Errors
    /// Returns an error if the register differs or parameters are invalid.
    pub fn evolve(&self, rho: &mut DensityMatrix, t: f64, dt: f64) -> Result<()> {
        self.evolve_with_drive(rho, t, dt, None)
    }

    /// Evolves `rho` for total time `t` with RK4 steps of size `dt` under the
    /// static Hamiltonian plus a constant drive term `drive` (already
    /// embedded in the full space). The drive is folded into the generator
    /// once per call; a piecewise-constant drive is one call per piece.
    ///
    /// # Errors
    /// Returns an error if the register differs, parameters are invalid, the
    /// drive's shape does not match the system dimension, or the drive is
    /// not Hermitian within 1e-8 ([`CoreError::NotStructured`]); each of
    /// these leaves `rho` untouched.
    pub fn evolve_with_drive(
        &self,
        rho: &mut DensityMatrix,
        t: f64,
        dt: f64,
        drive: Option<&CMatrix>,
    ) -> Result<()> {
        if rho.radix() != &self.radix {
            return Err(CavityError::Core(CoreError::ShapeMismatch {
                expected: format!("register {:?}", self.radix.dims()),
                found: format!("register {:?}", rho.radix().dims()),
            }));
        }
        if dt <= 0.0 || t < 0.0 {
            return Err(CavityError::InvalidParameter(format!(
                "evolution requires dt > 0 and t >= 0 (got t = {t}, dt = {dt})"
            )));
        }
        let n = self.radix.total_dim();
        if let Some(m) = drive {
            if m.rows() != n || m.cols() != n {
                return Err(CavityError::Core(CoreError::ShapeMismatch {
                    expected: format!("{n}x{n} drive term"),
                    found: format!("{}x{} drive term", m.rows(), m.cols()),
                }));
            }
            check_hermitian(m, "drive term")?;
        }
        let driven = drive.map(|m| self.fold_generator(Some(m)));
        let g = driven.as_ref().unwrap_or(&self.generator);
        let steps = (t / dt).round().max(1.0) as usize;
        let h = t / steps as f64;
        // The slopes, stage point and scratch serve the whole evolution: the
        // integration loop allocates nothing.
        let zeros = || CMatrix::zeros(n, n);
        let mut k: [CMatrix; 4] = std::array::from_fn(|_| zeros());
        let (mut stage, mut scratch) = (zeros(), zeros());
        for _ in 0..steps {
            self.rhs_into(g, rho.matrix(), &mut k[0], &mut scratch);
            // Stage `s` evaluates at `ρ + c_s h k_{s−1}`, `c = (½, ½, 1)`.
            for (s, c) in [(1, 0.5), (2, 0.5), (3, 1.0)] {
                let (done, next) = k.split_at_mut(s);
                stage.copy_from(rho.matrix()).map_err(CavityError::Core)?;
                stage.axpy(c64(c * h, 0.0), &done[s - 1]).map_err(CavityError::Core)?;
                self.rhs_into(g, &stage, &mut next[0], &mut scratch);
            }
            let m = rho.matrix_mut();
            for (slope, w) in k.iter().zip([6.0, 3.0, 3.0, 6.0]) {
                m.axpy(c64(h / w, 0.0), slope).map_err(CavityError::Core)?;
            }
            // Guard against slow trace drift from the fixed-step integrator.
            rho.normalize().map_err(CavityError::Core)?;
        }
        Ok(())
    }
}

/// [`CoreError::NotStructured`] unless `m` is Hermitian within 1e-8.
fn check_hermitian(m: &CMatrix, what: &str) -> Result<()> {
    if m.is_hermitian(1e-8) {
        Ok(())
    } else {
        Err(CavityError::Core(CoreError::NotStructured(format!("{what} is not Hermitian"))))
    }
}

/// `x ← x + x†` in one pass over the pairs `i ≤ j`: `o_ij = a + conj(b)`
/// and `o_ji = b + conj(a)` for `a = x_ij`, `b = x_ji`, so the result is
/// exactly Hermitian and its diagonal exactly real.
fn add_adjoint_in_place(x: &mut CMatrix) {
    let n = x.rows();
    let s = x.as_mut_slice();
    for i in 0..n {
        s[i * n + i] = c64(2.0 * s[i * n + i].re, 0.0);
        for j in i + 1..n {
            let (a, b) = (s[i * n + j], s[j * n + i]);
            s[i * n + j] = a + b.conj();
            s[j * n + i] = b + a.conj();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::gates;
    use qudit_core::state::QuditState;

    #[test]
    fn free_decay_of_single_mode_matches_exponential() {
        // Single lossy mode starting in |3⟩: ⟨n⟩(t) = 3 e^{-κt}.
        let d = 6;
        let kappa = 0.5;
        let mut sys = LindbladSystem::new(vec![d]).unwrap();
        sys.add_collapse(&gates::annihilation(d), &[0], kappa).unwrap();
        let mut rho = DensityMatrix::from_pure(&QuditState::basis(vec![d], &[3]).unwrap());
        let t = 1.0;
        sys.evolve(&mut rho, t, 0.002).unwrap();
        let n = rho.expectation(&gates::number_operator(d), &[0]).unwrap().re;
        let expected = 3.0 * (-kappa * t).exp();
        assert!((n - expected).abs() < 1e-3, "n = {n}, expected {expected}");
        rho.validate(1e-6).unwrap();
    }

    #[test]
    fn rabi_oscillation_between_two_coupled_modes() {
        // Beam-splitter coupling g(a†b + ab†) swaps a photon with period π/g.
        let d = 3;
        let g = 1.0;
        let mut sys = LindbladSystem::new(vec![d, d]).unwrap();
        let a = gates::annihilation(d);
        let hop = a.dagger().kron(&a);
        let hop_dag = hop.dagger();
        sys.add_hamiltonian_term(&(&hop + &hop_dag), &[0, 1], g).unwrap();
        let mut rho = DensityMatrix::from_pure(&QuditState::basis(vec![d, d], &[1, 0]).unwrap());
        // At t = π/(2g) the photon has fully transferred to mode 1.
        sys.evolve(&mut rho, std::f64::consts::FRAC_PI_2 / g, 0.001).unwrap();
        let n0 = rho.expectation(&gates::number_operator(d), &[0]).unwrap().re;
        let n1 = rho.expectation(&gates::number_operator(d), &[1]).unwrap().re;
        assert!(n0 < 1e-3, "n0 = {n0}");
        assert!((n1 - 1.0).abs() < 1e-3, "n1 = {n1}");
    }

    #[test]
    fn dephasing_collapse_destroys_coherence_at_expected_rate() {
        let d = 2;
        let gamma = 2.0;
        let mut sys = LindbladSystem::new(vec![d]).unwrap();
        // L = n̂ dephasing: coherence ρ01 decays at rate γ/2 · (1-0)² · ... for n̂
        // jump operator the decay rate of ρ01 is γ(n1-n0)²/2 = γ/2.
        sys.add_collapse(&gates::number_operator(d), &[0], gamma).unwrap();
        let plus = QuditState::uniform_superposition(vec![d]).unwrap();
        let mut rho = DensityMatrix::from_pure(&plus);
        let t = 0.7;
        sys.evolve(&mut rho, t, 0.001).unwrap();
        let coh = rho.matrix()[(0, 1)].abs();
        let expected = 0.5 * (-gamma * t / 2.0).exp();
        assert!((coh - expected).abs() < 1e-3, "coh {coh} vs {expected}");
        // Populations untouched.
        assert!((rho.probabilities()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn unitary_evolution_preserves_purity_and_energy() {
        let d = 4;
        let mut sys = LindbladSystem::new(vec![d]).unwrap();
        sys.add_hamiltonian_term(&gates::number_operator(d), &[0], 2.0).unwrap();
        let psi = crate::fock::coherent_state(d, c64(0.6, 0.0)).unwrap();
        let mut rho = DensityMatrix::from_pure(&psi);
        let n_before = rho.expectation(&gates::number_operator(d), &[0]).unwrap().re;
        sys.evolve(&mut rho, 2.0, 0.005).unwrap();
        let n_after = rho.expectation(&gates::number_operator(d), &[0]).unwrap().re;
        assert!((n_before - n_after).abs() < 1e-6);
        assert!((rho.purity() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn observer_callback_sees_monotone_decay() {
        let d = 4;
        let mut sys = LindbladSystem::new(vec![d]).unwrap();
        sys.add_collapse(&gates::annihilation(d), &[0], 1.0).unwrap();
        let mut rho = DensityMatrix::from_pure(&QuditState::basis(vec![d], &[2]).unwrap());
        let number =
            |r: &DensityMatrix| r.expectation(&gates::number_operator(d), &[0]).unwrap().re;
        let mut ns = vec![number(&rho)];
        for _ in 0..50 {
            sys.evolve(&mut rho, 0.01, 0.01).unwrap();
            ns.push(number(&rho));
        }
        for w in ns.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn time_dependent_drive_displaces_cavity() {
        // Resonant drive ε(a + a†) populates the cavity from vacuum.
        let d = 8;
        let sys = LindbladSystem::new(vec![d]).unwrap();
        let a = gates::annihilation(d);
        let drive_op = &a + &a.dagger();
        let eps = 0.4;
        let mut rho = DensityMatrix::zero(vec![d]).unwrap();
        sys.evolve_with_drive(&mut rho, 1.0, 0.002, Some(&drive_op.scaled_real(eps))).unwrap();
        let n = rho.expectation(&gates::number_operator(d), &[0]).unwrap().re;
        // Ideal displacement amplitude α = ε t → ⟨n⟩ = (εt)² = 0.16.
        assert!((n - 0.16).abs() < 0.02, "n = {n}");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let d = 3;
        let mut sys = LindbladSystem::new(vec![d]).unwrap();
        assert!(sys.add_collapse(&gates::annihilation(d), &[0], -1.0).is_err());
        let mut rho = DensityMatrix::zero(vec![d]).unwrap();
        assert!(sys.evolve(&mut rho, 1.0, 0.0).is_err());
        assert!(sys.evolve(&mut rho, -1.0, 0.1).is_err());
        let mut wrong = DensityMatrix::zero(vec![4]).unwrap();
        assert!(sys.evolve(&mut wrong, 1.0, 0.1).is_err());
    }

    #[test]
    fn non_hermitian_hamiltonian_term_rejected() {
        let d = 3;
        let mut sys = LindbladSystem::new(vec![d]).unwrap();
        assert!(sys.add_hamiltonian_term(&gates::annihilation(d), &[0], 1.0).is_err());
    }

    #[test]
    fn non_hermitian_terms_leave_the_system_unchanged() {
        let d = 3;
        let mut sys = LindbladSystem::new(vec![d]).unwrap();
        sys.add_hamiltonian_term(&gates::number_operator(d), &[0], 1.0).unwrap();
        let before = sys.clone();
        assert!(sys.add_hamiltonian_term(&gates::annihilation(d), &[0], 1.0).is_err());
        assert!(sys.add_full_hamiltonian(&gates::annihilation(d), 0.5).is_err());
        assert_eq!(sys.hamiltonian(), before.hamiltonian());
        // The generator was not refolded either: both systems evolve alike.
        let psi = crate::fock::coherent_state(d, c64(0.4, 0.2)).unwrap();
        let (mut a, mut b) = (DensityMatrix::from_pure(&psi), DensityMatrix::from_pure(&psi));
        sys.evolve(&mut a, 0.3, 0.01).unwrap();
        before.evolve(&mut b, 0.3, 0.01).unwrap();
        assert_eq!(a.matrix(), b.matrix());
    }

    #[test]
    fn driven_lossy_evolution_keeps_rho_exactly_hermitian() {
        let d = 4;
        let a = gates::annihilation(d);
        let mut sys = LindbladSystem::new(vec![d, d]).unwrap();
        let hop = a.dagger().kron(&a);
        sys.add_hamiltonian_term(&(&hop + &hop.dagger()), &[0, 1], 0.8).unwrap();
        sys.add_hamiltonian_term(&gates::number_operator(d), &[1], 1.3).unwrap();
        sys.add_collapse(&a, &[0], 0.15).unwrap();
        sys.add_collapse(&gates::number_operator(d), &[1], 0.1).unwrap();
        let drive = embed_operator(sys.radix(), &(&a + &a.dagger()), &[0]).unwrap();
        let c = crate::fock::coherent_state(d, c64(0.5, -0.3)).unwrap();
        let amps = c.amplitudes().iter().flat_map(|&x| c.amplitudes().iter().map(move |&y| x * y));
        let psi = QuditState::from_amplitudes(vec![d, d], amps.collect()).unwrap();
        let mut rho = DensityMatrix::from_pure(&psi);
        assert_eq!(rho.matrix(), &rho.matrix().dagger());
        for segment in 0..6 {
            let eps = 0.9 * (0.7 * segment as f64).sin();
            sys.evolve_with_drive(&mut rho, 0.25, 0.05, Some(&drive.scaled_real(eps))).unwrap();
            assert_eq!(rho.matrix(), &rho.matrix().dagger(), "segment {segment}");
        }
        rho.validate(1e-9).unwrap();
    }

    /// SplitMix64: a self-contained seeded generator for the randomized
    /// oracle, so the test needs no RNG dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
        }

        /// A random `k × k` complex matrix with about a third of its entries
        /// zeroed, so the row-compressed rows have uneven lengths.
        fn matrix(&mut self, k: usize) -> CMatrix {
            CMatrix::from_fn(k, k, |_, _| {
                if self.unit() < 0.33 {
                    Complex64::ZERO
                } else {
                    c64(2.0 * self.unit() - 1.0, 2.0 * self.unit() - 1.0)
                }
            })
        }

        /// One to all of the `modes`, distinct, in random order.
        fn targets(&mut self, modes: usize) -> Vec<usize> {
            let mut pool: Vec<usize> = (0..modes).collect();
            let count = self.range(1, modes.min(2));
            (0..count).map(|_| pool.swap_remove(self.range(0, pool.len() - 1))).collect()
        }
    }

    /// Dense reference right-hand side, written straight from the master
    /// equation: `−i[H, ρ] + Σ γ (L ρ L† − ½{L†L, ρ})`.
    fn dense_rhs(h: &CMatrix, collapse: &[(CMatrix, f64)], rho: &CMatrix) -> CMatrix {
        let comm = &h.matmul(rho).unwrap() - &rho.matmul(h).unwrap();
        let mut out = comm.scaled(c64(0.0, -1.0));
        for (l, rate) in collapse {
            let l_dag = l.dagger();
            let ldag_l = l_dag.matmul(l).unwrap();
            let jump = l.matmul(rho).unwrap().matmul(&l_dag).unwrap();
            let anti = &ldag_l.matmul(rho).unwrap() + &rho.matmul(&ldag_l).unwrap();
            out.axpy(c64(*rate, 0.0), &jump).unwrap();
            out.axpy(c64(-0.5 * rate, 0.0), &anti).unwrap();
        }
        out
    }

    #[test]
    fn sparse_generator_matches_dense_master_equation_on_random_systems() {
        let (segments, steps, dt) = (3, 2, 0.01);
        for seed in 0..24u64 {
            let mut rng = SplitMix(seed);
            let modes = rng.range(1, 3);
            let dims: Vec<usize> = (0..modes).map(|_| rng.range(2, 4)).collect();
            let mut sys = LindbladSystem::new(dims.clone()).unwrap();
            let radix = sys.radix().clone();
            let sub = |targets: &[usize]| targets.iter().map(|&t| dims[t]).product::<usize>();

            for _ in 0..rng.range(1, 3) {
                let targets = rng.targets(modes);
                let a = rng.matrix(sub(&targets));
                let coeff = 2.0 * rng.unit() - 1.0;
                sys.add_hamiltonian_term(&(&a + &a.dagger()), &targets, coeff).unwrap();
            }
            let mut collapse = Vec::new();
            for _ in 0..rng.range(1, 3) {
                let targets = rng.targets(modes);
                let l = rng.matrix(sub(&targets));
                let rate = 0.05 + rng.unit();
                sys.add_collapse(&l, &targets, rate).unwrap();
                collapse.push((embed_operator(&radix, &l, &targets).unwrap(), rate));
            }
            let n = radix.total_dim();
            // Odd seeds are driven by the Hermitian `x + x†`. Seeds ≡ 1 (mod 4)
            // first offer the raw, non-Hermitian `x`, which must be a typed
            // error that leaves ρ untouched. The drive changes between
            // segments and is constant within one.
            let driven = seed % 2 == 1;
            let drive_targets = rng.targets(modes);
            let raw =
                embed_operator(&radix, &rng.matrix(sub(&drive_targets)), &drive_targets).unwrap();
            let x = &raw + &raw.dagger();
            let drive =
                |segment: usize| driven.then(|| x.scaled_real((0.7 * segment as f64).cos()));

            let b = rng.matrix(n);
            let mixed = b.matmul(&b.dagger()).unwrap();
            let rho0 = mixed.scaled_real(1.0 / mixed.trace().re);
            let mut fast = DensityMatrix::from_matrix(dims.clone(), rho0.clone()).unwrap();
            let mut slow = DensityMatrix::from_matrix(dims.clone(), rho0).unwrap();
            if seed % 4 == 1 {
                let err = sys.evolve_with_drive(&mut fast, dt, dt, Some(&raw)).unwrap_err();
                assert!(
                    matches!(err, CavityError::Core(CoreError::NotStructured(_))),
                    "seed {seed}: {err:?}"
                );
                assert_eq!(fast.matrix(), slow.matrix(), "seed {seed}: rejected drive moved ρ");
            }
            for segment in 0..segments {
                let d = drive(segment);
                sys.evolve_with_drive(&mut fast, steps as f64 * dt, dt, d.as_ref()).unwrap();

                let h = match &d {
                    Some(d) => sys.hamiltonian() + d,
                    None => sys.hamiltonian().clone(),
                };
                for _ in 0..steps {
                    let m = slow.matrix().clone();
                    let k1 = dense_rhs(&h, &collapse, &m);
                    let k2 = dense_rhs(&h, &collapse, &(&m + &k1.scaled_real(dt / 2.0)));
                    let k3 = dense_rhs(&h, &collapse, &(&m + &k2.scaled_real(dt / 2.0)));
                    let k4 = dense_rhs(&h, &collapse, &(&m + &k3.scaled_real(dt)));
                    let next = slow.matrix_mut();
                    next.axpy(c64(dt / 6.0, 0.0), &k1).unwrap();
                    next.axpy(c64(dt / 3.0, 0.0), &k2).unwrap();
                    next.axpy(c64(dt / 3.0, 0.0), &k3).unwrap();
                    next.axpy(c64(dt / 6.0, 0.0), &k4).unwrap();
                    slow.normalize().unwrap();
                }
            }
            let diff = (fast.matrix() - slow.matrix()).max_abs();
            assert!(diff < 1e-12, "seed {seed} (dims {dims:?}, driven {driven}): diff {diff:e}");
        }
    }
}
