//! Density matrices (mixed states) of mixed-radix qudit registers.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::apply::{ApplyPlan, OpKind};
use crate::complex::{c64, Complex64};
use crate::error::{CoreError, Result};
use crate::linalg::eigh;
use crate::matrix::CMatrix;
use crate::radix::Radix;
use crate::sampling::Cdf;
use crate::state::QuditState;
use crate::superop::{SandwichPlan, SuperPlan};

/// A density matrix over a mixed-radix qudit register.
///
/// Row/column indices use the same big-endian flat ordering as
/// [`QuditState`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityMatrix {
    radix: Radix,
    matrix: CMatrix,
}

impl DensityMatrix {
    /// Creates the pure state `|0...0⟩⟨0...0|`.
    ///
    /// # Errors
    /// Returns an error for invalid dimensions.
    pub fn zero(dims: Vec<usize>) -> Result<Self> {
        let state = QuditState::zero(dims)?;
        Ok(Self::from_pure(&state))
    }

    /// Creates the density matrix of a pure state.
    pub fn from_pure(state: &QuditState) -> Self {
        Self { radix: state.radix().clone(), matrix: state.to_density_matrix() }
    }

    /// Creates a density matrix from an explicit matrix.
    ///
    /// The matrix is validated for shape only; use [`DensityMatrix::validate`]
    /// for physicality checks.
    ///
    /// # Errors
    /// Returns an error if the matrix dimension does not match the register.
    pub fn from_matrix(dims: Vec<usize>, matrix: CMatrix) -> Result<Self> {
        let radix = Radix::new(dims)?;
        let n = radix.total_dim();
        if matrix.rows() != n || matrix.cols() != n {
            return Err(CoreError::ShapeMismatch {
                expected: format!("{n}x{n} matrix"),
                found: format!("{}x{}", matrix.rows(), matrix.cols()),
            });
        }
        Ok(Self { radix, matrix })
    }

    /// Creates the maximally mixed state `I / D`.
    ///
    /// # Errors
    /// Returns an error for invalid dimensions.
    pub fn maximally_mixed(dims: Vec<usize>) -> Result<Self> {
        let radix = Radix::new(dims)?;
        let n = radix.total_dim();
        let matrix = CMatrix::identity(n).scaled_real(1.0 / n as f64);
        Ok(Self { radix, matrix })
    }

    /// Creates a statistical mixture `Σ_k p_k |ψ_k⟩⟨ψ_k|`.
    ///
    /// # Errors
    /// Returns an error if the lists disagree in length, registers differ, or
    /// probabilities are not a distribution.
    pub fn mixture(states: &[QuditState], probs: &[f64]) -> Result<Self> {
        if states.is_empty() || states.len() != probs.len() {
            return Err(CoreError::InvalidArgument(
                "mixture requires equal, non-empty state and probability lists".into(),
            ));
        }
        let total: f64 = probs.iter().sum();
        if probs.iter().any(|&p| p < -1e-12) || (total - 1.0).abs() > 1e-9 {
            return Err(CoreError::InvalidProbability(format!(
                "mixture probabilities must be non-negative and sum to 1 (sum = {total})"
            )));
        }
        let radix = states[0].radix().clone();
        let n = radix.total_dim();
        let mut matrix = CMatrix::zeros(n, n);
        for (state, &p) in states.iter().zip(probs.iter()) {
            if state.radix() != &radix {
                return Err(CoreError::ShapeMismatch {
                    expected: format!("register {:?}", radix.dims()),
                    found: format!("register {:?}", state.radix().dims()),
                });
            }
            matrix.axpy(c64(p, 0.0), &state.to_density_matrix())?;
        }
        Ok(Self { radix, matrix })
    }

    /// The register description.
    #[inline]
    pub fn radix(&self) -> &Radix {
        &self.radix
    }

    /// Number of qudits.
    #[inline]
    pub fn num_qudits(&self) -> usize {
        self.radix.len()
    }

    /// Hilbert-space dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.matrix.rows()
    }

    /// The underlying matrix.
    #[inline]
    pub fn matrix(&self) -> &CMatrix {
        &self.matrix
    }

    /// Mutable access to the underlying matrix.
    #[inline]
    pub fn matrix_mut(&mut self) -> &mut CMatrix {
        &mut self.matrix
    }

    /// Trace of the density matrix (should be 1 for physical states).
    pub fn trace(&self) -> f64 {
        self.matrix.trace().re
    }

    /// Purity `Tr(ρ²)`; equals 1 for pure states and `1/D` for the maximally
    /// mixed state.
    pub fn purity(&self) -> f64 {
        let sq = self.matrix.matmul(&self.matrix).expect("square");
        sq.trace().re
    }

    /// Checks physicality: Hermitian, unit trace and positive semi-definite
    /// (to within `tol`).
    ///
    /// # Errors
    /// Returns [`CoreError::NotStructured`] describing the first violated
    /// property.
    pub fn validate(&self, tol: f64) -> Result<()> {
        if !self.matrix.is_hermitian(tol) {
            return Err(CoreError::NotStructured("density matrix is not Hermitian".into()));
        }
        if (self.trace() - 1.0).abs() > tol {
            return Err(CoreError::NotStructured(format!(
                "density matrix trace {} deviates from 1",
                self.trace()
            )));
        }
        let eig = eigh(&self.matrix)?;
        if let Some(min) = eig.values.first() {
            if *min < -tol {
                return Err(CoreError::NotStructured(format!(
                    "density matrix has negative eigenvalue {min}"
                )));
            }
        }
        Ok(())
    }

    /// Renormalises the state to unit trace.
    ///
    /// # Errors
    /// Returns an error if the trace is numerically zero.
    pub fn normalize(&mut self) -> Result<()> {
        let t = self.trace();
        if t.abs() < 1e-300 {
            return Err(CoreError::InvalidArgument("cannot normalise zero-trace matrix".into()));
        }
        self.matrix.scale_inplace(c64(1.0 / t, 0.0));
        Ok(())
    }

    /// Applies a unitary acting on the listed target qudits: `ρ → U ρ U†`.
    ///
    /// # Errors
    /// Returns an error for invalid targets or operator dimensions.
    pub fn apply_unitary(&mut self, u: &CMatrix, targets: &[usize]) -> Result<()> {
        let plan = SandwichPlan::new(&self.radix, targets)?;
        let kind = OpKind::classify(u);
        let conj = SandwichPlan::column_factor(u);
        let mut scratch = Vec::new();
        Self::sandwich(&plan, u, &kind, &conj, &mut self.matrix, &mut scratch)
    }

    /// [`DensityMatrix::apply_unitary`] through a precomputed [`SandwichPlan`],
    /// [`OpKind`] and column-side factor `conj` (from
    /// [`SandwichPlan::column_factor`]), the plan-reuse path the circuit
    /// simulators use: `scratch` is caller-owned working memory.
    ///
    /// # Errors
    /// Returns an error if the plan or operator dimensions do not match.
    pub fn apply_unitary_prepared(
        &mut self,
        plan: &SandwichPlan,
        kind: &OpKind,
        u: &CMatrix,
        conj: &(CMatrix, OpKind),
        scratch: &mut Vec<Complex64>,
    ) -> Result<()> {
        Self::sandwich(plan, u, kind, conj, &mut self.matrix, scratch)
    }

    /// Applies a Kraus channel `ρ → Σ_k K_k ρ K_k†` on the listed targets.
    ///
    /// # Errors
    /// Returns an error for invalid targets, operator dimensions or an empty
    /// Kraus list.
    pub fn apply_kraus(&mut self, kraus: &[CMatrix], targets: &[usize]) -> Result<()> {
        let plan = SandwichPlan::new(&self.radix, targets)?;
        let kinds: Vec<OpKind> = kraus.iter().map(OpKind::classify).collect();
        let mut scratch = Vec::new();
        self.apply_kraus_prepared(&plan, kraus, &kinds, &mut scratch)
    }

    /// [`DensityMatrix::apply_kraus`] through a precomputed [`SandwichPlan`]
    /// and per-operator [`OpKind`]s (plan-reuse path for the circuit
    /// simulators). Each term's column factor `conj(K)` is derived per call:
    /// storing it would double the plan memory of a many-term channel (the
    /// 81 operators of two-qutrit depolarising noise), and this per-term path
    /// is the reference rather than the hot path.
    ///
    /// # Errors
    /// Returns an error for invalid dimensions or an empty Kraus list.
    pub fn apply_kraus_prepared(
        &mut self,
        plan: &SandwichPlan,
        kraus: &[CMatrix],
        kinds: &[OpKind],
        scratch: &mut Vec<Complex64>,
    ) -> Result<()> {
        if kraus.is_empty() {
            return Err(CoreError::InvalidArgument("empty Kraus operator list".into()));
        }
        if kinds.len() != kraus.len() {
            return Err(CoreError::InvalidArgument(format!(
                "{} Kraus operators but {} classifications",
                kraus.len(),
                kinds.len()
            )));
        }
        let n = self.dim();
        let mut acc = CMatrix::zeros(n, n);
        let mut term = self.matrix.clone();
        for (i, (k, kind)) in kraus.iter().zip(kinds).enumerate() {
            if i > 0 {
                term.as_mut_slice().copy_from_slice(self.matrix.as_slice());
            }
            let conj = SandwichPlan::column_factor(k);
            Self::sandwich(plan, k, kind, &conj, &mut term, scratch)?;
            acc += &term;
        }
        self.matrix = acc;
        Ok(())
    }

    /// Applies a Kraus channel as a **single superoperator sweep** over the
    /// vectorised density matrix instead of materialising each term (see
    /// [`crate::superop`]): builds `S = Σ_k K_k ⊗ conj(K_k)` and runs it
    /// through the doubled-register stride plan. Equal to
    /// [`DensityMatrix::apply_kraus`] to rounding.
    ///
    /// # Errors
    /// Returns an error for invalid targets, operator dimensions or an empty
    /// Kraus list.
    pub fn apply_channel_superop(&mut self, kraus: &[CMatrix], targets: &[usize]) -> Result<()> {
        let plan = SuperPlan::new(&self.radix, targets)?;
        let sup = SuperPlan::kraus_superop(kraus)?;
        if sup.rows() != plan.sub_dim() * plan.sub_dim() {
            return Err(CoreError::ShapeMismatch {
                expected: format!("{0}x{0} Kraus operators", plan.sub_dim()),
                found: format!("superoperator of dimension {}", sup.rows()),
            });
        }
        let kind = OpKind::classify(&sup);
        let mut scratch = Vec::new();
        self.apply_superop_prepared(&plan, &kind, &sup, 1, &mut scratch)
    }

    /// [`DensityMatrix::apply_channel_superop`] through a precomputed
    /// [`SuperPlan`], superoperator matrix and [`OpKind`] — the plan-reuse
    /// path for the circuit simulators. The sweep runs on up to `threads`
    /// worker threads (see [`SuperPlan::apply`]), bitwise identical for
    /// every thread count; `scratch` is caller-owned working memory.
    ///
    /// # Errors
    /// Returns an error if the plan or superoperator dimensions do not match.
    pub fn apply_superop_prepared(
        &mut self,
        plan: &SuperPlan,
        kind: &OpKind,
        sup: &CMatrix,
        threads: usize,
        scratch: &mut Vec<Complex64>,
    ) -> Result<()> {
        plan.apply(kind, sup, self.matrix.as_mut_slice(), threads, scratch)
    }

    /// `m → K m K†` through a precomputed plan: two sweeps over `vec(m)`,
    /// the state of the doubled register. `K` acts on the row copy of the
    /// targets; the right action by `K†`, `(m K†)[i, j] = Σ_c m[i, c]
    /// conj(K[j, c])`, is `conj(K)` (the precomputed `conj` factor) on the
    /// column copy.
    fn sandwich(
        plan: &SandwichPlan,
        k: &CMatrix,
        kind: &OpKind,
        (conj_k, conj_kind): &(CMatrix, OpKind),
        m: &mut CMatrix,
        scratch: &mut Vec<Complex64>,
    ) -> Result<()> {
        plan.row.apply(kind, k, m.as_mut_slice(), scratch)?;
        plan.col.apply(conj_kind, conj_k, m.as_mut_slice(), scratch)
    }

    /// Diagonal of the density matrix: probabilities of each computational
    /// basis outcome.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim()).map(|i| self.matrix.get(i, i).re.max(0.0)).collect()
    }

    /// Marginal probabilities of measuring the listed targets in the
    /// computational basis.
    ///
    /// # Errors
    /// Returns an error for invalid targets.
    pub fn marginal_probabilities(&self, targets: &[usize]) -> Result<Vec<f64>> {
        let plan = ApplyPlan::new(&self.radix, targets)?;
        // The diagonal of ρ lives at stride n + 1 in the row-major data.
        let diag: Vec<Complex64> =
            self.matrix.as_slice().iter().step_by(self.dim() + 1).copied().collect();
        let mut probs = Vec::new();
        plan.marginal_probabilities_into(&diag, |z| z.re.max(0.0), &mut probs);
        Ok(probs)
    }

    /// Expectation value `Tr(ρ O)` of an operator acting on the listed targets.
    ///
    /// # Errors
    /// Returns an error for invalid targets or operator dimensions.
    pub fn expectation(&self, op: &CMatrix, targets: &[usize]) -> Result<Complex64> {
        self.expectation_prepared(&ApplyPlan::new(&self.radix, targets)?, op)
    }

    /// [`DensityMatrix::expectation`] on a prebuilt plan
    /// (`ApplyPlan::new(rho.radix(), targets)`), so a caller that reads the
    /// same observables many times builds each plan once. Results are
    /// bitwise those of `expectation`.
    ///
    /// # Errors
    /// Returns an error if the plan was built for a register of another
    /// dimension or the operator does not match the plan's subspace.
    pub fn expectation_prepared(&self, plan: &ApplyPlan, op: &CMatrix) -> Result<Complex64> {
        // Tr(ρ O) = Σ_blocks Σ_{i,j} ρ[base+off_i, base+off_j] · op[j, i]:
        // only the block-diagonal entries of ρ contribute, so there is no
        // need to materialise O ρ.
        if plan.total_dim() != self.dim() {
            return Err(CoreError::ShapeMismatch {
                expected: format!("plan over a dimension-{} register", self.dim()),
                found: format!("plan over a dimension-{} register", plan.total_dim()),
            });
        }
        let sub_dim = plan.sub_dim();
        if op.rows() != sub_dim || op.cols() != sub_dim {
            return Err(CoreError::ShapeMismatch {
                expected: format!("{sub_dim}x{sub_dim} operator"),
                found: format!("{}x{}", op.rows(), op.cols()),
            });
        }
        let n = self.dim();
        let data = self.matrix.as_slice();
        let offsets = plan.sub_offsets();
        let mut acc = Complex64::ZERO;
        plan.for_each_block(|base| {
            for (i, &off_i) in offsets.iter().enumerate() {
                let row = (base + off_i) * n + base;
                for (j, &off_j) in offsets.iter().enumerate() {
                    acc += data[row + off_j] * op.get(j, i);
                }
            }
        });
        Ok(acc)
    }

    /// Samples a computational-basis measurement of the full register without
    /// collapsing the state. A zero-trace matrix has no drawable outcome and
    /// samples the all-zeros (ground) digit string by convention (see
    /// [`crate::sampling::Cdf::try_draw`]).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        let chosen = self.cdf().try_draw(rng).unwrap_or(0);
        self.radix.digits_of(chosen).expect("index in range")
    }

    /// Cumulative distribution over computational-basis outcomes (the
    /// diagonal of ρ), for repeated sampling.
    pub fn cdf(&self) -> Cdf {
        Cdf::from_weights(self.probabilities())
    }

    /// Samples `shots` computational-basis measurements, returning counts per
    /// flat basis index (cumulative distribution + binary search per shot).
    /// A zero-trace matrix puts every shot on the ground outcome (the
    /// convention of [`DensityMatrix::sample`]).
    pub fn sample_counts<R: Rng + ?Sized>(&self, rng: &mut R, shots: usize) -> Vec<usize> {
        let cdf = self.cdf();
        let mut counts = vec![0usize; self.dim()];
        for _ in 0..shots {
            counts[cdf.try_draw(rng).unwrap_or(0)] += 1;
        }
        counts
    }

    /// Partial trace keeping only the listed subsystems.
    ///
    /// # Errors
    /// Returns an error for invalid subsystem lists.
    pub fn partial_trace(&self, keep: &[usize]) -> Result<DensityMatrix> {
        let keep_dims: Vec<usize> = {
            self.radix.check_targets(keep)?;
            keep.iter().map(|&t| self.radix.dims()[t]).collect()
        };
        let plan = ApplyPlan::new(&self.radix, keep)?;
        let out = plan.partial_trace(self.matrix.as_slice());
        DensityMatrix::from_matrix(keep_dims, out)
    }

    /// Fidelity with a pure state: `⟨ψ| ρ |ψ⟩`.
    ///
    /// # Errors
    /// Returns an error if the registers differ.
    pub fn fidelity_with_pure(&self, psi: &QuditState) -> Result<f64> {
        if psi.radix() != &self.radix {
            return Err(CoreError::ShapeMismatch {
                expected: format!("register {:?}", self.radix.dims()),
                found: format!("register {:?}", psi.radix().dims()),
            });
        }
        let rho_psi = self.matrix.matvec(psi.amplitudes())?;
        let mut acc = Complex64::ZERO;
        for (a, b) in psi.amplitudes().iter().zip(rho_psi.iter()) {
            acc += a.conj() * *b;
        }
        Ok(acc.re.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn qutrit_x() -> CMatrix {
        let mut x = CMatrix::zeros(3, 3);
        for k in 0..3 {
            x[((k + 1) % 3, k)] = c64(1.0, 0.0);
        }
        x
    }

    fn bell_state() -> QuditState {
        QuditState::from_amplitudes(
            vec![2, 2],
            vec![
                c64(FRAC_1_SQRT_2, 0.0),
                Complex64::ZERO,
                Complex64::ZERO,
                c64(FRAC_1_SQRT_2, 0.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn pure_state_density_matrix_properties() {
        let rho = DensityMatrix::from_pure(&bell_state());
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        rho.validate(1e-9).unwrap();
    }

    #[test]
    fn maximally_mixed_state_properties() {
        let rho = DensityMatrix::maximally_mixed(vec![3, 3]).unwrap();
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0 / 9.0).abs() < 1e-12);
        // Von Neumann entropy -Tr(ρ ln ρ) of the maximally mixed state is ln 9.
        let eig = eigh(&rho.matrix).unwrap();
        let s: f64 = eig.values.iter().filter(|&&l| l > 1e-15).map(|&l| -l * l.ln()).sum();
        assert!((s - (9f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn mixture_of_basis_states() {
        let s0 = QuditState::basis(vec![3], &[0]).unwrap();
        let s1 = QuditState::basis(vec![3], &[1]).unwrap();
        let rho = DensityMatrix::mixture(&[s0, s1], &[0.25, 0.75]).unwrap();
        let p = rho.probabilities();
        assert!((p[0] - 0.25).abs() < 1e-12);
        assert!((p[1] - 0.75).abs() < 1e-12);
        assert!((rho.purity() - (0.25f64.powi(2) + 0.75f64.powi(2))).abs() < 1e-12);
    }

    #[test]
    fn mixture_rejects_bad_probabilities() {
        let s0 = QuditState::basis(vec![2], &[0]).unwrap();
        let s1 = QuditState::basis(vec![2], &[1]).unwrap();
        assert!(DensityMatrix::mixture(&[s0.clone(), s1.clone()], &[0.6, 0.6]).is_err());
        assert!(DensityMatrix::mixture(&[s0], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn unitary_evolution_matches_pure_state_evolution() {
        let mut rho = DensityMatrix::zero(vec![3, 3]).unwrap();
        let mut psi = QuditState::zero(vec![3, 3]).unwrap();
        let x = qutrit_x();
        rho.apply_unitary(&x, &[1]).unwrap();
        psi.apply_operator(&x, &[1]).unwrap();
        let expected = DensityMatrix::from_pure(&psi);
        assert!((&expected.matrix - &rho.matrix).max_abs() < 1e-12);
    }

    #[test]
    fn unitary_preserves_trace_and_purity() {
        let mut rho = DensityMatrix::from_pure(&bell_state());
        let h = CMatrix::from_fn(2, 2, |i, j| c64((i + j) as f64, (i as f64) - (j as f64)))
            .hermitian_part();
        let u = crate::linalg::expm_hermitian(&h, c64(0.0, -0.5)).unwrap();
        rho.apply_unitary(&u, &[0]).unwrap();
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn depolarising_kraus_channel_mixes_state() {
        // Single-qutrit depolarising channel with probability p applied to |0><0|.
        let p: f64 = 0.3;
        let d = 3usize;
        let mut kraus = vec![CMatrix::identity(d).scaled_real((1.0 - p).sqrt())];
        // Weyl operators X^a Z^b for (a,b) != (0,0).
        let omega = 2.0 * std::f64::consts::PI / d as f64;
        for a in 0..d {
            for b in 0..d {
                if a == 0 && b == 0 {
                    continue;
                }
                let mut op = CMatrix::zeros(d, d);
                for k in 0..d {
                    op[((k + a) % d, k)] = Complex64::cis(omega * (b * k) as f64);
                }
                kraus.push(op.scaled_real((p / ((d * d - 1) as f64)).sqrt()));
            }
        }
        let mut rho = DensityMatrix::zero(vec![3]).unwrap();
        rho.apply_kraus(&kraus, &[0]).unwrap();
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!(rho.purity() < 1.0);
        rho.validate(1e-8).unwrap();
    }

    #[test]
    fn kraus_rejects_empty_list() {
        let mut rho = DensityMatrix::zero(vec![2]).unwrap();
        assert!(rho.apply_kraus(&[], &[0]).is_err());
    }

    #[test]
    fn partial_trace_of_bell_state_is_maximally_mixed() {
        let rho = DensityMatrix::from_pure(&bell_state());
        let reduced = rho.partial_trace(&[1]).unwrap();
        assert_eq!(reduced.dim(), 2);
        assert!((reduced.matrix()[(0, 0)].re - 0.5).abs() < 1e-12);
        assert!((reduced.matrix()[(1, 1)].re - 0.5).abs() < 1e-12);
        assert!(reduced.matrix()[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn expectation_and_marginals() {
        let rho = DensityMatrix::from_pure(&QuditState::basis(vec![4, 2], &[2, 1]).unwrap());
        let n_op = CMatrix::diag_real(&[0.0, 1.0, 2.0, 3.0]);
        let e = rho.expectation(&n_op, &[0]).unwrap();
        assert!((e.re - 2.0).abs() < 1e-12);
        let marg = rho.marginal_probabilities(&[1]).unwrap();
        assert!((marg[1] - 1.0).abs() < 1e-12);
        // A plan for a register of another dimension is a typed error.
        let foreign = ApplyPlan::new(&Radix::new(vec![4, 3]).unwrap(), &[0]).unwrap();
        let err = rho.expectation_prepared(&foreign, &n_op).unwrap_err();
        assert!(matches!(err, CoreError::ShapeMismatch { .. }), "got {err:?}");
    }

    #[test]
    fn density_marginals_are_bitwise_identical_to_state_marginals() {
        // The diagonal of |ψ⟩⟨ψ| holds |ψ_i|² exactly, and the gathered
        // diagonal accumulates in the statevector order, also when written
        // into a reused buffer of the wrong length.
        let amps: Vec<Complex64> =
            (0..12).map(|i| c64(0.17 + 0.013 * i as f64, -0.4 + 0.029 * i as f64)).collect();
        let psi = QuditState::from_amplitudes(vec![3, 2, 2], amps).unwrap();
        let rho = DensityMatrix::from_pure(&psi);
        let mut reused = vec![7.0; 11];
        for targets in [vec![0], vec![1, 2], vec![2, 0]] {
            let plan = ApplyPlan::new(psi.radix(), &targets).unwrap();
            let from_state = plan.marginal_probabilities(psi.amplitudes());
            let from_density = rho.marginal_probabilities(&targets).unwrap();
            plan.marginal_probabilities_into(psi.amplitudes(), |z| z.norm_sqr(), &mut reused);
            assert_eq!(from_density.len(), plan.sub_dim());
            assert_eq!(reused.len(), plan.sub_dim());
            for ((s, p), q) in from_state.iter().zip(&from_density).zip(&reused) {
                assert_eq!(s.to_bits(), p.to_bits());
                assert_eq!(s.to_bits(), q.to_bits());
            }
        }
    }

    #[test]
    fn fidelity_with_pure_state() {
        let bell = bell_state();
        let rho = DensityMatrix::from_pure(&bell);
        assert!((rho.fidelity_with_pure(&bell).unwrap() - 1.0).abs() < 1e-12);
        let orth = QuditState::basis(vec![2, 2], &[0, 1]).unwrap();
        assert!(rho.fidelity_with_pure(&orth).unwrap() < 1e-12);
        let mixed = DensityMatrix::maximally_mixed(vec![2, 2]).unwrap();
        assert!((mixed.fidelity_with_pure(&bell).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_diagonal() {
        let s0 = QuditState::basis(vec![2], &[0]).unwrap();
        let s1 = QuditState::basis(vec![2], &[1]).unwrap();
        let rho = DensityMatrix::mixture(&[s0, s1], &[0.9, 0.1]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let counts = rho.sample_counts(&mut rng, 10_000);
        let p0 = counts[0] as f64 / 10_000.0;
        assert!((p0 - 0.9).abs() < 0.02);
    }

    #[test]
    fn from_matrix_rejects_wrong_shape() {
        assert!(DensityMatrix::from_matrix(vec![2], CMatrix::identity(3)).is_err());
    }

    #[test]
    fn sampling_a_zero_trace_matrix_falls_back_to_ground() {
        // Regression: the zero-total CDF used to return the *last* basis
        // index (weight zero); the documented convention is the ground
        // outcome, mirroring `QuditState::sample`.
        let rho = DensityMatrix::from_matrix(vec![2, 2], CMatrix::zeros(4, 4)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(rho.sample(&mut rng), vec![0, 0]);
        let counts = rho.sample_counts(&mut rng, 17);
        assert_eq!(counts[0], 17);
    }
}
