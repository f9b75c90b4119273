//! Superoperator stride plans: whole channels in one sweep over vectorised ρ.
//!
//! Row-major `ρ` is read as the state vector of a *doubled* register
//! (`vec(ρ)[r·N + c] = ρ[r, c]`, i.e. the row digits followed by the column
//! digits), so every density kernel is an ordinary unit-stride
//! [`ApplyPlan`] sweep over `vec(ρ)`. The sandwich `ρ → K ρ K†` on targets
//! `T` is two sweeps through a [`SandwichPlan`]: `K` on the row copy `T`,
//! then `conj(K)` on the column copy `T + n`. The per-term Kraus path
//! ([`crate::density::DensityMatrix::apply_kraus`]) materialises every term
//! `K_m ρ K_m†` as one sandwich plus an accumulation, so an `m`-operator
//! channel costs `2m` sweeps, `m` matrix additions and `m − 1` full-matrix
//! copies. A [`SuperPlan`] also batches the whole channel into **one** sweep:
//! a channel acting on `T` becomes an ordinary operator on the `2k` doubled
//! targets `T ∪ (T + n)`, and the superoperator matrix
//!
//! ```text
//! S = Σ_m  K_m ⊗ conj(K_m)        (k² × k²)
//! ```
//!
//! applies through the standard [`ApplyPlan`] kernels with a single scratch
//! buffer. [`OpKind`] classification of `S` gives the structured fast paths
//! for free: a channel whose Kraus operators are all diagonal (dephasing,
//! non-selective measurement) has a *diagonal* `S` and applies in `O(N²)`
//! multiplies, and permutation-like channels (reset, shift errors) yield a
//! *monomial* `S` with one gather/scatter per entry.
//!
//! Cost model (dense `S`, register dimension `N`, target subspace dimension
//! `k`, `m` Kraus terms): the superoperator sweep is `N²k²` multiply-adds
//! against `≈ 2mkN²` for the per-term path, so batching wins whenever
//! `k < 2m` — always true for depolarising (`m = k²`), photon-loss
//! (`m = d`) and dephasing (`m = d + 1`) channels. Callers with few Kraus
//! terms on a large subspace should keep the per-term path; the circuit
//! layer's density compiler makes that choice per channel.
//!
//! A dense `S` that is still mostly zeros can run row-compressed
//! ([`SuperPlan::apply_compressed`] with a [`RowCompressed`] copy of `S`):
//! the sweep then costs `N²·nnz(S)/k²` multiply-adds, so a photon-loss
//! superoperator (`nnz = Σ_{i,j<d} (min(i, j) + 1)`, 55 of 625 entries at
//! `d = 5`) costs about a tenth of its dense sweep. Compression trades the
//! dense kernel's four-accumulator inner product for a gather through the
//! column index, so it pays only below a nonzero fraction; the density
//! compiler picks it at compile time from that fraction (see
//! `SuperopConfig::COMPRESS_FILL` in `qudit-circuit`).

use crate::apply::{ApplyPlan, OpKind};
use crate::complex::Complex64;
use crate::error::{CoreError, Result};
use crate::matrix::CMatrix;
use crate::radix::Radix;
use crate::sparse::RowCompressed;

/// The doubled register `dims ++ dims` of vectorised ρ and the column-side
/// copy `T + n` of the channel targets `T`.
fn doubled(radix: &Radix, targets: &[usize]) -> Result<(Radix, Vec<usize>)> {
    let n = radix.len();
    let mut doubled_dims = Vec::with_capacity(2 * n);
    doubled_dims.extend_from_slice(radix.dims());
    doubled_dims.extend_from_slice(radix.dims());
    let col_targets = targets.iter().map(|&t| t + n).collect();
    Ok((Radix::new(doubled_dims)?, col_targets))
}

/// The superoperator-sweep stride plan of one target set on vectorised
/// density matrices (see the module docs). The sandwich `ρ → K ρ K†` has its
/// own plan, [`SandwichPlan`], so a compiled step builds only the plan its
/// kind sweeps.
///
/// Like [`ApplyPlan`], a `SuperPlan` is immutable after construction and
/// `Sync`; per-call mutable scratch is passed into [`SuperPlan::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperPlan {
    /// Stride plan over the doubled register `dims ++ dims`, targeting the
    /// row-side and column-side copies of the channel targets.
    plan: ApplyPlan,
    /// Dimension `k` of the channel's target subspace (the superoperator is
    /// `k² × k²`).
    sub_dim: usize,
    /// Register dimension `N` (the plan addresses `N²` entries).
    reg_dim: usize,
}

/// The two halves of the sandwich `ρ → K ρ K†` on one target set `T` of
/// vectorised density matrices: `K` on the row copy `T`, then `conj(K)` on
/// the column copy `T + n` of the doubled register. Immutable and `Sync`,
/// like [`SuperPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SandwichPlan {
    /// Row side of the sandwich: the targets `T` of the doubled register.
    pub(crate) row: ApplyPlan,
    /// Column side of the sandwich: the targets `T + n`.
    pub(crate) col: ApplyPlan,
    /// Dimension `k` of the target subspace (the sandwiched operators are
    /// `k × k`).
    sub_dim: usize,
}

impl SandwichPlan {
    /// Builds the sandwich plan for operators acting on `targets` (in the
    /// given order, first target most significant) of a register described
    /// by `radix`.
    ///
    /// # Errors
    /// Returns an error for out-of-range or duplicate targets.
    pub fn new(radix: &Radix, targets: &[usize]) -> Result<Self> {
        let sub_dim = radix.subspace_dim(targets)?;
        let (doubled, col_targets) = doubled(radix, targets)?;
        let row = ApplyPlan::new(&doubled, targets)?;
        let col = ApplyPlan::new(&doubled, &col_targets)?;
        Ok(Self { row, col, sub_dim })
    }

    /// Dimension `k` of the target subspace; the operators this plan
    /// sandwiches are `k × k`.
    #[inline]
    pub fn sub_dim(&self) -> usize {
        self.sub_dim
    }

    /// The column-side factor of the sandwich `K ρ K†`: `conj(K)` with its
    /// exact [`OpKind`]. Compiled unitary steps store it next to `K`, so a
    /// run neither copies nor classifies the conjugate per call.
    pub fn column_factor(k: &CMatrix) -> (CMatrix, OpKind) {
        let conj = k.conj();
        let kind = OpKind::classify(&conj);
        (conj, kind)
    }
}

impl SuperPlan {
    /// Builds the plan for channels acting on `targets` (in the given order,
    /// first target most significant) of a register described by `radix`.
    ///
    /// # Errors
    /// Returns an error for out-of-range or duplicate targets.
    pub fn new(radix: &Radix, targets: &[usize]) -> Result<Self> {
        let sub_dim = radix.subspace_dim(targets)?;
        let (doubled, col_targets) = doubled(radix, targets)?;
        // Row digits of vec(ρ) are qudits 0..n, column digits are n..2n; the
        // channel touches the same positions in both copies. Keeping the row
        // block first makes the plan's sub-index `i·k + j` match the
        // row-major indexing of `K ⊗ conj(K)`.
        let doubled_targets = [targets, &col_targets].concat();
        let plan = ApplyPlan::new(&doubled, &doubled_targets)?;
        Ok(Self { plan, sub_dim, reg_dim: radix.total_dim() })
    }

    /// Dimension `k` of the channel's target subspace; the superoperator
    /// matrices this plan applies are `k² × k²`.
    #[inline]
    pub fn sub_dim(&self) -> usize {
        self.sub_dim
    }

    /// Register dimension `N`; [`SuperPlan::apply`] addresses `N²` entries.
    #[inline]
    pub fn reg_dim(&self) -> usize {
        self.reg_dim
    }

    /// The underlying stride plan over the doubled register, for callers that
    /// need the raw kernels.
    #[inline]
    pub fn plan(&self) -> &ApplyPlan {
        &self.plan
    }

    /// The superoperator matrix of a Kraus channel, `Σ_m K_m ⊗ conj(K_m)`,
    /// indexed so that row-major `vec(ρ)` sub-indices `i·k + j` correspond to
    /// the (row, column) pair `(i, j)` of the target subspace.
    ///
    /// # Errors
    /// Returns an error for an empty list or inconsistent operator shapes.
    pub fn kraus_superop(kraus: &[CMatrix]) -> Result<CMatrix> {
        let Some(first) = kraus.first() else {
            return Err(CoreError::InvalidArgument("empty Kraus operator list".into()));
        };
        let k = first.rows();
        let mut sup = CMatrix::zeros(k * k, k * k);
        for op in kraus {
            if op.rows() != k || op.cols() != k {
                return Err(CoreError::ShapeMismatch {
                    expected: format!("{k}x{k} Kraus operator"),
                    found: format!("{}x{}", op.rows(), op.cols()),
                });
            }
            sup += &op.kron(&op.conj());
        }
        Ok(sup)
    }

    /// The superoperator of a unitary (or any single-operator) map:
    /// `U ⊗ conj(U)`.
    pub fn unitary_superop(u: &CMatrix) -> CMatrix {
        u.kron(&u.conj())
    }

    /// Trace-preservation defect of a `k² × k²` superoperator in this
    /// module's row-major `vec(ρ)` convention: trace preservation requires
    /// `Σ_i S[i·k+i, j·k+l] = δ_{jl}` for every `(j, l)` (for
    /// `S = Σ_m K_m ⊗ conj(K_m)` the column sum equals `(Σ_m K_m†K_m)[l, j]`,
    /// so this is exactly the Kraus completeness defect). Returns the worst
    /// absolute deviation; `0` for an exactly trace-preserving map.
    ///
    /// A matrix of the wrong shape, or one containing NaN, is maximally
    /// defective: the result is infinite or NaN (both compare `> tol` as
    /// `!(defect <= tol)`), never a false pass.
    ///
    /// Cost is `O(k⁴)` — one visit per superoperator entry — which is cheap
    /// next to the `O(N²k²)` sweep that applies `S`, so runtime guards can
    /// afford it per sweep.
    pub fn trace_defect(sup: &CMatrix, k: usize) -> f64 {
        if sup.rows() != k * k || sup.cols() != k * k {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        for j in 0..k {
            for l in 0..k {
                let mut acc = Complex64::ZERO;
                for i in 0..k {
                    acc += sup[(i * k + i, j * k + l)];
                }
                let target = if j == l { 1.0 } else { 0.0 };
                let defect = (acc - target).abs();
                // `>` is false for NaN; carry NaN explicitly so a poisoned
                // superoperator can never report a finite defect.
                if defect > worst || defect.is_nan() {
                    worst = defect;
                }
            }
        }
        worst
    }

    /// Applies a superoperator (with precomputed [`OpKind`]) to a row-major
    /// density matrix given as its flat `N²` data slice: one sweep, all
    /// Kraus terms at once. The sweep's independent doubled-register blocks
    /// are chunked across up to `threads` [`crate::par`] pool workers (see
    /// [`ApplyPlan::apply_parallel`]); the result is **bitwise identical**
    /// for every thread count, and the serial path works in `scratch`.
    ///
    /// # Errors
    /// Returns an error if `sup` or the slice have the wrong dimension.
    pub fn apply(
        &self,
        kind: &OpKind,
        sup: &CMatrix,
        rho_data: &mut [Complex64],
        threads: usize,
        scratch: &mut Vec<Complex64>,
    ) -> Result<()> {
        self.plan.apply_parallel(kind, sup, rho_data, threads, scratch)
    }

    /// [`SuperPlan::apply`] for a superoperator stored row-compressed (see
    /// [`ApplyPlan::apply_compressed`]); bitwise identical for every thread
    /// count.
    ///
    /// # Errors
    /// Returns an error if `sup` or the slice have the wrong dimension.
    pub fn apply_compressed(
        &self,
        sup: &RowCompressed,
        rho_data: &mut [Complex64],
        threads: usize,
        scratch: &mut Vec<Complex64>,
    ) -> Result<()> {
        self.plan.apply_compressed(sup, rho_data, threads, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::density::DensityMatrix;
    use crate::random::haar_unitary;
    use crate::state::QuditState;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random (trace-non-increasing is fine for the comparison) Kraus list.
    fn random_kraus(rng: &mut StdRng, dim: usize, terms: usize) -> Vec<CMatrix> {
        (0..terms)
            .map(|_| {
                CMatrix::from_fn(dim, dim, |_, _| {
                    c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
                })
                .scaled_real(1.0 / (terms as f64 * dim as f64))
            })
            .collect()
    }

    fn random_density(rng: &mut StdRng, dims: Vec<usize>) -> DensityMatrix {
        let states: Vec<QuditState> =
            (0..3).map(|_| crate::random::haar_state(rng, dims.clone()).unwrap()).collect();
        let raw: Vec<f64> = (0..3).map(|_| rng.gen::<f64>() + 0.1).collect();
        let total: f64 = raw.iter().sum();
        let probs: Vec<f64> = raw.iter().map(|p| p / total).collect();
        DensityMatrix::mixture(&states, &probs).unwrap()
    }

    #[test]
    fn superop_sweep_matches_per_term_kraus_on_random_channels() {
        let mut rng = StdRng::seed_from_u64(42);
        // Mixed-radix registers and single/two-qudit target sets, including
        // unsorted and non-adjacent targets.
        let cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![2, 3], vec![0]),
            (vec![2, 3], vec![1]),
            (vec![3, 2, 2], vec![2, 0]),
            (vec![2, 2, 3], vec![1, 2]),
            (vec![4, 3], vec![0, 1]),
        ];
        for (dims, targets) in cases {
            let radix = Radix::new(dims.clone()).unwrap();
            let k = radix.subspace_dim(&targets).unwrap();
            for terms in [1usize, 2, k + 1] {
                let kraus = random_kraus(&mut rng, k, terms);
                let reference = {
                    let mut rho = random_density(&mut rng, dims.clone());
                    let mut per_term = rho.clone();
                    per_term.apply_kraus(&kraus, &targets).unwrap();
                    rho.apply_channel_superop(&kraus, &targets).unwrap();
                    (per_term, rho)
                };
                let diff = (reference.0.matrix() - reference.1.matrix()).max_abs();
                assert!(
                    diff < 1e-12,
                    "dims {dims:?}, targets {targets:?}, {terms} terms: diff {diff}"
                );
            }
        }
    }

    #[test]
    fn diagonal_channel_superop_classifies_diagonal() {
        // Dephasing-style channel: all Kraus operators diagonal.
        let kraus = vec![
            CMatrix::diag(&[c64(0.8, 0.0), c64(0.8, 0.0), c64(0.8, 0.0)]),
            CMatrix::diag(&[c64(0.6, 0.0), c64(0.0, 0.6), c64(-0.6, 0.0)]),
        ];
        let sup = SuperPlan::kraus_superop(&kraus).unwrap();
        assert!(matches!(OpKind::classify(&sup), OpKind::Diagonal(_)));
    }

    #[test]
    fn monomial_channel_superop_classifies_monomial() {
        // Reset channel K_i = |0><i|: monomial Kraus, monomial superoperator.
        let d = 3;
        let kraus: Vec<CMatrix> = (0..d)
            .map(|i| {
                let mut k = CMatrix::zeros(d, d);
                k[(0, i)] = c64(1.0, 0.0);
                k
            })
            .collect();
        let sup = SuperPlan::kraus_superop(&kraus).unwrap();
        assert!(matches!(OpKind::classify(&sup), OpKind::Monomial { .. }));
    }

    #[test]
    fn unitary_superop_matches_sandwich() {
        let mut rng = StdRng::seed_from_u64(7);
        let radix = Radix::new(vec![2, 3]).unwrap();
        let u = haar_unitary(&mut rng, 3).unwrap();
        let mut rho = random_density(&mut rng, vec![2, 3]);
        let mut sandwiched = rho.clone();
        sandwiched.apply_unitary(&u, &[1]).unwrap();

        let plan = SuperPlan::new(&radix, &[1]).unwrap();
        let sup = SuperPlan::unitary_superop(&u);
        let kind = OpKind::classify(&sup);
        let mut scratch = Vec::new();
        plan.apply(&kind, &sup, rho.matrix_mut().as_mut_slice(), 1, &mut scratch).unwrap();

        assert!((sandwiched.matrix() - rho.matrix()).max_abs() < 1e-12);
    }

    #[test]
    fn parallel_sweep_is_bitwise_identical_to_serial_sweep() {
        let mut rng = StdRng::seed_from_u64(9);
        // Registers large enough for the parallel path to engage; targets
        // cover uniform-stride and scattered doubled layouts.
        let cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![2, 3, 2, 2], vec![1]),
            (vec![2, 3, 2, 2], vec![3]),
            (vec![2, 2, 3, 2], vec![0, 2]),
        ];
        for (dims, targets) in cases {
            let radix = Radix::new(dims.clone()).unwrap();
            let plan = SuperPlan::new(&radix, &targets).unwrap();
            let k = plan.sub_dim();
            for kraus in [
                random_kraus(&mut rng, k, 3),
                vec![CMatrix::diag(
                    &(0..k).map(|i| c64(0.9 - 0.1 * i as f64, 0.1)).collect::<Vec<_>>(),
                )],
            ] {
                let sup = SuperPlan::kraus_superop(&kraus).unwrap();
                let kind = OpKind::classify(&sup);
                let input = random_density(&mut rng, dims.clone());
                let mut reference = input.clone();
                reference.apply_superop_prepared(&plan, &kind, &sup, 1, &mut Vec::new()).unwrap();
                let mut scratch = Vec::new();
                for threads in [1usize, 2, 4] {
                    let mut par_rho = input.clone();
                    par_rho
                        .apply_superop_prepared(&plan, &kind, &sup, threads, &mut scratch)
                        .unwrap();
                    assert_eq!(
                        par_rho.matrix().as_slice(),
                        reference.matrix().as_slice(),
                        "dims {dims:?}, targets {targets:?}, threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn trace_defect_is_zero_for_tp_channels_and_detects_corruption() {
        let mut rng = StdRng::seed_from_u64(11);
        // Trace-preserving superoperators: unitary and photon-loss-style.
        let u = haar_unitary(&mut rng, 3).unwrap();
        let sup = SuperPlan::unitary_superop(&u);
        assert!(SuperPlan::trace_defect(&sup, 3) < 1e-12);

        // A lossy (trace-decreasing) map has a defect equal to its loss.
        let lossy = vec![CMatrix::identity(2).scaled_real(0.5f64.sqrt())];
        let sup = SuperPlan::kraus_superop(&lossy).unwrap();
        assert!((SuperPlan::trace_defect(&sup, 2) - 0.5).abs() < 1e-12);

        // Corrupting a single entry shows up as a defect of the same size.
        let mut sup = SuperPlan::unitary_superop(&u);
        sup[(0, 0)] += c64(0.05, 0.0);
        assert!(SuperPlan::trace_defect(&sup, 3) > 0.04);

        // NaN poisoning and shape mismatches can never report healthy.
        let mut poisoned = SuperPlan::unitary_superop(&u);
        poisoned[(4, 4)] = c64(f64::NAN, 0.0);
        let defect = SuperPlan::trace_defect(&poisoned, 3);
        assert!(defect > 1e-6 || defect.is_nan());
        assert!(SuperPlan::trace_defect(&CMatrix::identity(4), 3).is_infinite());
    }

    #[test]
    fn kraus_superop_rejects_bad_input() {
        assert!(SuperPlan::kraus_superop(&[]).is_err());
        let mismatched = vec![CMatrix::identity(2), CMatrix::identity(3)];
        assert!(SuperPlan::kraus_superop(&mismatched).is_err());
    }

    #[test]
    fn invalid_targets_are_rejected() {
        let radix = Radix::new(vec![2, 3]).unwrap();
        assert!(SuperPlan::new(&radix, &[2]).is_err());
        assert!(SuperPlan::new(&radix, &[0, 0]).is_err());
        assert!(SandwichPlan::new(&radix, &[2]).is_err());
        assert!(SandwichPlan::new(&radix, &[0, 0]).is_err());
    }
}
