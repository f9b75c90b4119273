//! Precomputed stride plans for applying operators to sub-registers.
//!
//! Applying a `k`-qudit operator to an `n`-qudit register touches the state
//! vector in `spectator_count` independent blocks of `sub_dim` strided
//! amplitudes. The seed implementation recomputed the block geometry (target
//! strides, sub-offsets, spectator enumeration) on every call; an
//! [`ApplyPlan`] computes it **once** per `(register, targets)` pair so the
//! circuit simulators can reuse it across instructions, shots and
//! trajectories.
//!
//! Orthogonally, [`OpKind`] classifies an operator matrix by structure:
//!
//! * **Diagonal** — SNAP gates, phase gates, the electric/mass terms of
//!   Trotterised Hamiltonians, dephasing Kraus operators. Application is one
//!   multiply per amplitude, no gather/scatter.
//! * **Monomial** (at most one non-zero per column) — shift `X`, Weyl
//!   operators, CSUM/permutation gates, annihilation-type Kraus operators.
//!   Application is one multiply plus a scatter per amplitude.
//! * **Dense** — everything else; gather/apply/scatter per block.
//!
//! Both classifications use *exact* zero tests, so they can never mistake a
//! dense operator for a structured one; gates constructed by the gate
//! library produce exact zeros in their sparsity patterns.
//!
//! A dense operator that is still mostly zeros (the superoperator of a
//! photon-loss channel) can also run row-compressed
//! ([`ApplyPlan::apply_compressed`]): per block, a gather, one compressed
//! row product per output and a scatter. That is an execution form chosen
//! by the caller, not a fourth [`OpKind`]: which nonzero fraction pays
//! depends on the caller's cost trade-off, whereas the three kinds are exact
//! structural facts of the matrix.
//!
//! The same plan drives measurement-side kernels: marginal probabilities,
//! collapse, expectation values, reduced density matrices and Kraus-branch
//! norms, all without the per-amplitude digit decompositions the seed used.

use crate::complex::Complex64;
use crate::error::{CoreError, Result};
use crate::matrix::CMatrix;
use crate::radix::Radix;
use crate::sparse::RowCompressed;

/// Dot product `Σ_c a[c] · b[c]` with four independent accumulators, so the
/// complex multiply-add latency chain is a quarter as deep as a single
/// running sum. The summation order differs from a naive left fold (it sums
/// four interleaved partial series), which is within the workspace's
/// documented floating-point contract for dense kernels.
#[inline]
fn dot4(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc0 = Complex64::ZERO;
    let mut acc1 = Complex64::ZERO;
    let mut acc2 = Complex64::ZERO;
    let mut acc3 = Complex64::ZERO;
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        acc0 = ca[0].mul_add(cb[0], acc0);
        acc1 = ca[1].mul_add(cb[1], acc1);
        acc2 = ca[2].mul_add(cb[2], acc2);
        acc3 = ca[3].mul_add(cb[3], acc3);
    }
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder().iter()) {
        acc0 = x.mul_add(*y, acc0);
    }
    (acc0 + acc1) + (acc2 + acc3)
}

/// Matrix product `a · b` that exploits exact sparsity structure in either
/// factor: a diagonal left factor scales the rows of `b`, a monomial left
/// factor permutes-and-scales them, and symmetrically for a structured right
/// factor — all in `O(n²)` instead of the `O(n³)` dense product. Dense × dense
/// falls back to [`CMatrix::matmul`].
///
/// The result is **bitwise identical** to the dense product: the inner-loop
/// terms the structured paths skip are exact zeros, whose products and
/// additions leave the accumulator unchanged, and the surviving terms are
/// visited in the same ascending inner-index order the dense kernel uses.
/// Compilers that compose long operator chains (gate fusion, the density
/// superoperator frontier) can therefore call this unconditionally.
///
/// # Errors
/// Returns an error on inner-dimension mismatch.
pub fn matmul_structured(a: &CMatrix, b: &CMatrix) -> Result<CMatrix> {
    if a.cols() != b.rows() {
        return Err(CoreError::ShapeMismatch {
            expected: format!("inner dimension {}", a.cols()),
            found: format!("{} rows", b.rows()),
        });
    }
    // `classify` reports non-square input as Dense, so the structured arms
    // below only ever see square factors.
    match OpKind::classify(a) {
        OpKind::Diagonal(diag) => {
            let mut out = b.clone();
            let cols = out.cols();
            for (r, d) in diag.iter().enumerate() {
                for v in &mut out.as_mut_slice()[r * cols..(r + 1) * cols] {
                    *v *= *d;
                }
            }
            Ok(out)
        }
        OpKind::Monomial { rows, coeffs, .. } => {
            let cols = b.cols();
            let mut out = CMatrix::zeros(a.rows(), cols);
            let data = out.as_mut_slice();
            for (j, (&r, &coeff)) in rows.iter().zip(coeffs.iter()).enumerate() {
                if coeff == Complex64::ZERO {
                    continue;
                }
                let src = &b.as_slice()[j * cols..(j + 1) * cols];
                let dst = &mut data[r * cols..(r + 1) * cols];
                for (o, &x) in dst.iter_mut().zip(src.iter()) {
                    *o += coeff * x;
                }
            }
            Ok(out)
        }
        OpKind::Dense => match OpKind::classify(b) {
            OpKind::Diagonal(diag) => {
                let mut out = a.clone();
                let cols = out.cols();
                let data = out.as_mut_slice();
                for r in 0..a.rows() {
                    for (c, d) in diag.iter().enumerate() {
                        data[r * cols + c] *= *d;
                    }
                }
                Ok(out)
            }
            OpKind::Monomial { rows, coeffs, .. } => {
                let cols = b.cols();
                let mut out = CMatrix::zeros(a.rows(), cols);
                let data = out.as_mut_slice();
                for r in 0..a.rows() {
                    for (c, (&src_row, &coeff)) in rows.iter().zip(coeffs.iter()).enumerate() {
                        if coeff != Complex64::ZERO {
                            data[r * cols + c] = a.get(r, src_row) * coeff;
                        }
                    }
                }
                Ok(out)
            }
            OpKind::Dense => a.matmul(b),
        },
    }
}

/// Structural classification of an operator matrix (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Diagonal operator; holds the diagonal entries.
    Diagonal(Vec<Complex64>),
    /// At most one non-zero per column: column `c` maps to `rows[c]` with
    /// coefficient `coeffs[c]` (possibly zero for a zero column).
    /// `injective` records whether all populated rows are distinct.
    Monomial {
        /// Destination row per column.
        rows: Vec<usize>,
        /// Coefficient per column.
        coeffs: Vec<Complex64>,
        /// True if no two non-zero columns share a destination row.
        injective: bool,
    },
    /// No exploitable structure.
    Dense,
}

impl OpKind {
    /// Classifies a square operator by exact sparsity structure.
    ///
    /// Non-square input is reported as [`OpKind::Dense`]; the apply kernels
    /// reject it by shape before touching any data.
    pub fn classify(op: &CMatrix) -> OpKind {
        let n = op.rows();
        if n != op.cols() {
            return OpKind::Dense;
        }
        let mut diagonal = true;
        let mut rows = vec![0usize; n];
        let mut coeffs = vec![Complex64::ZERO; n];
        for c in 0..n {
            let mut nonzeros = 0usize;
            for r in 0..n {
                let v = op.get(r, c);
                if v != Complex64::ZERO {
                    nonzeros += 1;
                    if nonzeros > 1 {
                        return OpKind::Dense;
                    }
                    rows[c] = r;
                    coeffs[c] = v;
                    if r != c {
                        diagonal = false;
                    }
                }
            }
            if nonzeros == 0 {
                // Zero column: park it on its own diagonal slot.
                rows[c] = c;
            }
        }
        if diagonal {
            return OpKind::Diagonal(coeffs);
        }
        let mut seen = vec![false; n];
        let mut injective = true;
        for c in 0..n {
            if coeffs[c] != Complex64::ZERO {
                if seen[rows[c]] {
                    injective = false;
                    break;
                }
                seen[rows[c]] = true;
            }
        }
        OpKind::Monomial { rows, coeffs, injective }
    }
}

/// The operator one sweep applies: a dense-stored operator with its exact
/// classification, or a row-compressed one. Every kernel arm of
/// [`ApplyPlan`] dispatches on it.
#[derive(Clone, Copy)]
enum Sweep<'a> {
    Classified(&'a OpKind, &'a CMatrix),
    Compressed(&'a RowCompressed),
}

/// A reusable stride plan for one `(register, targets)` pair (see module
/// docs). Plans are immutable after construction and `Sync`, so one plan can
/// serve many threads; per-thread mutable scratch is passed into the kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyPlan {
    total_dim: usize,
    sub_dim: usize,
    /// Flat-index offset of each target-subspace basis state relative to a
    /// spectator base index.
    sub_offsets: Vec<usize>,
    spectator_dims: Vec<usize>,
    spectator_strides: Vec<usize>,
    spectator_count: usize,
    /// `Some(s)` when `sub_offsets[j] == j * s` for every `j` — i.e. the
    /// targets are consecutive register qudits in ascending order, so the
    /// target subspace is laid out at a single constant stride. The dense and
    /// diagonal kernels then index arithmetically instead of through the
    /// offset table, and at `s == 1` (a contiguous register suffix) the dense
    /// kernel degenerates to a tight matrix–panel product on contiguous
    /// memory.
    uniform_stride: Option<usize>,
}

impl ApplyPlan {
    /// Builds the plan for operators acting on `targets` (in the given
    /// order, first target most significant) of a register.
    ///
    /// # Errors
    /// Returns an error for out-of-range or duplicate targets.
    pub fn new(radix: &Radix, targets: &[usize]) -> Result<Self> {
        let sub_dim = radix.subspace_dim(targets)?;
        let dims = radix.dims();
        let target_strides: Vec<usize> =
            targets.iter().map(|&t| radix.stride(t).expect("validated")).collect();
        let target_dims: Vec<usize> = targets.iter().map(|&t| dims[t]).collect();

        // sub_offsets by counting through the target digit string directly.
        let mut sub_offsets = vec![0usize; sub_dim];
        let mut digits = vec![0usize; targets.len()];
        for (sub_idx, offset) in sub_offsets.iter_mut().enumerate() {
            if sub_idx > 0 {
                for k in (0..digits.len()).rev() {
                    digits[k] += 1;
                    if digits[k] < target_dims[k] {
                        break;
                    }
                    digits[k] = 0;
                }
            }
            *offset = digits.iter().zip(target_strides.iter()).map(|(&d, &s)| d * s).sum();
        }

        let spectators: Vec<usize> = (0..radix.len()).filter(|k| !targets.contains(k)).collect();
        let spectator_dims: Vec<usize> = spectators.iter().map(|&k| dims[k]).collect();
        let spectator_strides: Vec<usize> =
            spectators.iter().map(|&k| radix.stride(k).expect("validated")).collect();
        let spectator_count = spectator_dims.iter().product::<usize>().max(1);

        let uniform_stride = if sub_dim >= 2 {
            let s = sub_offsets[1];
            sub_offsets.iter().enumerate().all(|(j, &off)| off == j * s).then_some(s)
        } else {
            Some(1)
        };

        Ok(Self {
            total_dim: radix.total_dim(),
            sub_dim,
            sub_offsets,
            spectator_dims,
            spectator_strides,
            spectator_count,
            uniform_stride,
        })
    }

    /// Dimension of the target subspace.
    #[inline]
    pub fn sub_dim(&self) -> usize {
        self.sub_dim
    }

    /// Number of independent amplitude blocks (spectator configurations).
    #[inline]
    pub fn spectator_count(&self) -> usize {
        self.spectator_count
    }

    /// Total register dimension the plan was built for.
    #[inline]
    pub fn total_dim(&self) -> usize {
        self.total_dim
    }

    /// Offsets of the target-subspace basis states within a block.
    #[inline]
    pub fn sub_offsets(&self) -> &[usize] {
        &self.sub_offsets
    }

    /// `Some(s)` when the target subspace is laid out at constant stride `s`
    /// (`sub_offsets[j] == j * s`); `Some(1)` means the targets form a
    /// contiguous register suffix. See the field docs for how the kernels
    /// exploit this.
    #[inline]
    pub fn uniform_stride(&self) -> Option<usize> {
        self.uniform_stride
    }

    /// Invokes `f(base)` for every spectator configuration, where `base` is
    /// the flat index with all target digits zero.
    #[inline]
    pub fn for_each_block(&self, f: impl FnMut(usize)) {
        self.for_each_block_range(0, self.spectator_count, f);
    }

    /// Invokes `f(base)` for the spectator configurations with flat spectator
    /// indices in `start..end`, in odometer order (the last spectator digit
    /// fastest); [`ApplyPlan::for_each_block`] is this method at `0..count`.
    #[inline]
    pub fn for_each_block_range(&self, start: usize, end: usize, mut f: impl FnMut(usize)) {
        let k = self.spectator_dims.len();
        if k == 0 {
            if start == 0 && end > 0 {
                f(0);
            }
            return;
        }
        // Registers this workspace simulates stay far below 32 qudits, so the
        // odometer runs on a stack buffer instead of a per-call allocation.
        let mut stack = [0usize; 32];
        let mut heap;
        let digits: &mut [usize] = if k <= 32 {
            &mut stack[..k]
        } else {
            heap = vec![0usize; k];
            &mut heap
        };
        // Seed the odometer at spectator index `start` (digit k-1 is the
        // least significant).
        let mut rem = start;
        for pos in (0..k).rev() {
            digits[pos] = rem % self.spectator_dims[pos];
            rem /= self.spectator_dims[pos];
        }
        let mut base: usize =
            digits.iter().zip(self.spectator_strides.iter()).map(|(&d, &s)| d * s).sum();
        for _ in start..end {
            f(base);
            // Odometer increment, updating `base` incrementally.
            let mut pos = k;
            loop {
                if pos == 0 {
                    return;
                }
                pos -= 1;
                digits[pos] += 1;
                base += self.spectator_strides[pos];
                if digits[pos] < self.spectator_dims[pos] {
                    break;
                }
                base -= self.spectator_dims[pos] * self.spectator_strides[pos];
                digits[pos] = 0;
            }
        }
    }

    /// Number of independently-updatable work units the apply kernels
    /// iterate for this sweep: the contiguous panel count for the
    /// uniform-stride dense fast path, the spectator-block count otherwise.
    /// [`ApplyPlan::apply_parallel`] chunks this range.
    fn parallel_units(&self, sweep: Sweep<'_>) -> usize {
        match (sweep, self.uniform_stride) {
            (Sweep::Classified(OpKind::Dense, _), Some(s)) if s > 1 => {
                self.total_dim / (self.sub_dim * s)
            }
            _ => self.spectator_count,
        }
    }

    /// Applies the sweep's operator to the work units in `units` (see
    /// [`ApplyPlan::parallel_units`]) of an amplitude slice: the one apply
    /// kernel body. Each unit's update reads and writes only that unit's
    /// indices, so any partition of the unit range reproduces the serial
    /// result (which runs all units) bitwise.
    fn apply_units(
        &self,
        sweep: Sweep<'_>,
        data: &mut [Complex64],
        units: std::ops::Range<usize>,
        scratch: &mut Vec<Complex64>,
    ) {
        let (kind, op) = match sweep {
            Sweep::Classified(kind, op) => (kind, op),
            Sweep::Compressed(op) => {
                scratch.resize(self.sub_dim, Complex64::ZERO);
                self.for_each_block_range(units.start, units.end, |base| {
                    for (j, slot) in scratch.iter_mut().enumerate() {
                        *slot = data[base + self.sub_offsets[j]];
                    }
                    for (row, &off) in self.sub_offsets.iter().enumerate() {
                        data[base + off] = op.row_dot(row, scratch);
                    }
                });
                return;
            }
        };
        match kind {
            OpKind::Diagonal(diag) => {
                if let Some(s) = self.uniform_stride {
                    self.for_each_block_range(units.start, units.end, |base| {
                        let mut idx = base;
                        for d in diag.iter() {
                            data[idx] *= *d;
                            idx += s;
                        }
                    });
                } else {
                    self.for_each_block_range(units.start, units.end, |base| {
                        for (j, d) in diag.iter().enumerate() {
                            data[base + self.sub_offsets[j]] *= *d;
                        }
                    });
                }
            }
            OpKind::Monomial { rows, coeffs, .. } => {
                scratch.resize(self.sub_dim, Complex64::ZERO);
                self.for_each_block_range(units.start, units.end, |base| {
                    for (j, s) in scratch.iter_mut().enumerate() {
                        let idx = base + self.sub_offsets[j];
                        *s = data[idx];
                        data[idx] = Complex64::ZERO;
                    }
                    for (c, (&r, &coeff)) in rows.iter().zip(coeffs.iter()).enumerate() {
                        if coeff != Complex64::ZERO {
                            data[base + self.sub_offsets[r]] += coeff * scratch[c];
                        }
                    }
                });
            }
            OpKind::Dense => match self.uniform_stride {
                // Consecutive ascending targets: the register reshapes into
                // contiguous `sub_dim × s` panels (`s` = product of the
                // trailing spectator dimensions), and the block application
                // becomes a tight matrix–panel product on sequential memory.
                Some(1) => {
                    scratch.resize(self.sub_dim, Complex64::ZERO);
                    self.for_each_block_range(units.start, units.end, |base| {
                        let block = &mut data[base..base + self.sub_dim];
                        scratch.copy_from_slice(block);
                        for (row, out) in block.iter_mut().enumerate() {
                            *out = dot4(op.row(row), scratch);
                        }
                    });
                }
                Some(s) => {
                    // Panels are walked in column tiles of at most `TILE`,
                    // so the scratch stays `sub_dim × TILE` however wide the
                    // panel (on the density row side `s` spans whole rows).
                    const TILE: usize = 64;
                    let chunk = self.sub_dim * s;
                    for hi in units {
                        let block = &mut data[hi * chunk..(hi + 1) * chunk];
                        for lo in (0..s).step_by(TILE) {
                            let w = TILE.min(s - lo);
                            scratch.resize(self.sub_dim * w, Complex64::ZERO);
                            for (c, tile_row) in scratch.chunks_exact_mut(w).enumerate() {
                                tile_row.copy_from_slice(&block[c * s + lo..c * s + lo + w]);
                            }
                            // block[r·s + lo + l] = Σ_c op[r, c] · tile[c·w + l]:
                            // a `w`-wide contiguous axpy per operator entry.
                            for r in 0..self.sub_dim {
                                let out_row = &mut block[r * s + lo..r * s + lo + w];
                                out_row.fill(Complex64::ZERO);
                                for (in_row, &a) in scratch.chunks_exact(w).zip(op.row(r)) {
                                    if a == Complex64::ZERO {
                                        continue;
                                    }
                                    for (o, &x) in out_row.iter_mut().zip(in_row) {
                                        *o = a.mul_add(x, *o);
                                    }
                                }
                            }
                        }
                    }
                }
                None => {
                    scratch.resize(self.sub_dim, Complex64::ZERO);
                    self.for_each_block_range(units.start, units.end, |base| {
                        for (j, slot) in scratch.iter_mut().enumerate() {
                            *slot = data[base + self.sub_offsets[j]];
                        }
                        for (row, &off) in self.sub_offsets.iter().enumerate() {
                            data[base + off] = dot4(op.row(row), scratch);
                        }
                    });
                }
            },
        }
    }

    /// Parallel variant of [`ApplyPlan::apply`]: the independent work units
    /// (spectator blocks, or contiguous panels on the uniform-stride dense
    /// path) are split into contiguous chunks evaluated on the
    /// [`crate::par`] worker pool. Runs serially in the caller's `scratch`
    /// when `threads <= 1` or the work is too small to amortise dispatch.
    /// Because every unit's update is confined to that unit's indices and
    /// performs the same arithmetic as the serial kernel, the result is
    /// **bitwise identical** for every thread count.
    ///
    /// # Errors
    /// Returns an error if `op` or the slice have the wrong dimension.
    pub fn apply_parallel(
        &self,
        kind: &OpKind,
        op: &CMatrix,
        amps: &mut [Complex64],
        threads: usize,
        scratch: &mut Vec<Complex64>,
    ) -> Result<()> {
        self.sweep(Sweep::Classified(kind, op), amps, threads, scratch)
    }

    /// Applies a row-compressed operator: per block, gather the `sub_dim`
    /// amplitudes, write one compressed row product per output, scatter
    /// back. It costs `nnz` multiply-adds per block against `sub_dim²` for
    /// the dense gather kernel, so it pays for a dense operator that is
    /// still mostly zeros. The blocks are chunked across up to `threads`
    /// pool workers exactly as in [`ApplyPlan::apply_parallel`], so the
    /// result is **bitwise identical** for every thread count.
    ///
    /// # Errors
    /// Returns an error if `op` is not `sub_dim × sub_dim` or the slice does
    /// not hold the register.
    pub fn apply_compressed(
        &self,
        op: &RowCompressed,
        amps: &mut [Complex64],
        threads: usize,
        scratch: &mut Vec<Complex64>,
    ) -> Result<()> {
        self.sweep(Sweep::Compressed(op), amps, threads, scratch)
    }

    /// The chunked dispatch behind [`ApplyPlan::apply_parallel`] and
    /// [`ApplyPlan::apply_compressed`].
    #[allow(unsafe_code)] // disjoint-unit writes through a shared pointer; see SAFETY below
    fn sweep(
        &self,
        sweep: Sweep<'_>,
        amps: &mut [Complex64],
        threads: usize,
        scratch: &mut Vec<Complex64>,
    ) -> Result<()> {
        /// Minimum multiply-adds of total work before chunk dispatch pays.
        const MIN_PARALLEL_WORK: usize = 1 << 14;
        // Validate everything up front so no kernel (nor a pool worker) can
        // index out of bounds or observe a shape mismatch.
        self.check_sweep(sweep, amps.len())?;
        let units = self.parallel_units(sweep);
        let work = match sweep {
            Sweep::Classified(OpKind::Dense, _) => self.total_dim * self.sub_dim,
            Sweep::Classified(..) => self.total_dim,
            Sweep::Compressed(op) => self.spectator_count * op.nnz(),
        };
        if threads <= 1 || units < 2 * threads || work < MIN_PARALLEL_WORK {
            // Serial fallback through the same per-unit kernels the chunked
            // path runs, so thread-count invariance holds by construction.
            self.apply_units(sweep, amps, 0..units, scratch);
            return Ok(());
        }

        /// A shareable raw view of the amplitude slice. Workers write
        /// pairwise-disjoint index sets, so the aliasing is benign.
        struct SyncPtr {
            ptr: *mut Complex64,
            len: usize,
        }
        // SAFETY: the pointer is only dereferenced by pool jobs that all
        // complete before `par_map_threads` returns (its documented
        // contract), i.e. strictly within the lifetime of the `amps` borrow.
        unsafe impl Send for SyncPtr {}
        // SAFETY: shared references only hand out the raw pointer; the jobs
        // that dereference it write pairwise-disjoint index sets (see the
        // dereference site below), so concurrent `&SyncPtr` access is benign.
        unsafe impl Sync for SyncPtr {}

        let shared = SyncPtr { ptr: amps.as_mut_ptr(), len: amps.len() };
        let chunks = threads;
        let per = units / chunks;
        let rem = units % chunks;
        let shared = &shared;
        crate::par::par_map_threads(chunks, threads, move |t| {
            let start = t * per + t.min(rem);
            let end = start + per + usize::from(t < rem);
            // SAFETY: each chunk updates a pairwise-disjoint set of indices:
            // distinct work units address disjoint index sets (distinct
            // spectator blocks, or distinct contiguous panels), and the
            // chunk ranges partition `0..units`. All jobs finish before
            // `par_map_threads` returns, so no access outlives `amps`.
            let data = unsafe { std::slice::from_raw_parts_mut(shared.ptr, shared.len) };
            let mut scratch = Vec::new();
            self.apply_units(sweep, data, start..end, &mut scratch);
        });
        Ok(())
    }

    fn check_op(&self, op_dim: usize) -> Result<()> {
        if op_dim != self.sub_dim {
            return Err(CoreError::ShapeMismatch {
                expected: format!("{0}x{0} operator", self.sub_dim),
                found: format!("{0}x{0}", op_dim),
            });
        }
        Ok(())
    }

    /// Full shape check for dense kernels: both dimensions must match the
    /// target subspace (a non-square operator must never reach the block
    /// loops, where only the row count would otherwise be consulted).
    fn check_op_matrix(&self, op: &CMatrix) -> Result<()> {
        if op.rows() != self.sub_dim || op.cols() != self.sub_dim {
            return Err(CoreError::ShapeMismatch {
                expected: format!("{0}x{0} operator", self.sub_dim),
                found: format!("{}x{}", op.rows(), op.cols()),
            });
        }
        Ok(())
    }

    /// The shape checks of every sweep: the slice must hold the register
    /// and the operator (or its classification) must span the target
    /// subspace, so the per-unit kernels never index out of bounds.
    fn check_sweep(&self, sweep: Sweep<'_>, len: usize) -> Result<()> {
        self.check_span(len)?;
        match sweep {
            Sweep::Classified(OpKind::Diagonal(diag), _) => self.check_op(diag.len()),
            Sweep::Classified(OpKind::Monomial { rows, .. }, _) => self.check_op(rows.len()),
            Sweep::Classified(OpKind::Dense, op) => self.check_op_matrix(op),
            Sweep::Compressed(op) if op.rows() != self.sub_dim || op.cols() != self.sub_dim => {
                Err(CoreError::ShapeMismatch {
                    expected: format!("{0}x{0} operator", self.sub_dim),
                    found: format!("{}x{} row-compressed", op.rows(), op.cols()),
                })
            }
            Sweep::Compressed(_) => Ok(()),
        }
    }

    /// Applies `op` (with precomputed `kind`) to a flat amplitude slice.
    ///
    /// `scratch` is caller-provided working memory, resized as needed; reuse
    /// it across calls to stay allocation-free.
    ///
    /// # Errors
    /// Returns an error if `op` or the slice have the wrong dimension.
    pub fn apply(
        &self,
        kind: &OpKind,
        op: &CMatrix,
        amps: &mut [Complex64],
        scratch: &mut Vec<Complex64>,
    ) -> Result<()> {
        self.sweep(Sweep::Classified(kind, op), amps, 1, scratch)
    }

    /// Computes `‖op · ψ‖²` without materialising `op · ψ`: one sweep per
    /// operator. Trajectory unravelling calls it per Kraus branch only for
    /// channels with a dense or non-injective operator; diagonal and
    /// injective-monomial branch norms all follow from one
    /// [`ApplyPlan::marginal_probabilities_into`] sweep instead.
    ///
    /// # Errors
    /// Returns an error on dimension mismatch.
    pub fn norm_sqr_after(
        &self,
        kind: &OpKind,
        op: &CMatrix,
        amps: &[Complex64],
        scratch: &mut Vec<Complex64>,
    ) -> Result<f64> {
        self.check_span(amps.len())?;
        let mut acc = 0.0f64;
        match kind {
            OpKind::Diagonal(diag) => {
                self.check_op(diag.len())?;
                self.for_each_block(|base| {
                    for (j, d) in diag.iter().enumerate() {
                        acc += d.norm_sqr() * amps[base + self.sub_offsets[j]].norm_sqr();
                    }
                });
            }
            OpKind::Monomial { rows, coeffs, injective } if *injective => {
                let _ = rows;
                self.check_op(coeffs.len())?;
                self.for_each_block(|base| {
                    for (c, coeff) in coeffs.iter().enumerate() {
                        acc += coeff.norm_sqr() * amps[base + self.sub_offsets[c]].norm_sqr();
                    }
                });
            }
            _ => {
                self.check_op_matrix(op)?;
                scratch.resize(self.sub_dim, Complex64::ZERO);
                self.for_each_block(|base| {
                    for (j, s) in scratch.iter_mut().enumerate() {
                        *s = amps[base + self.sub_offsets[j]];
                    }
                    for row in 0..self.sub_dim {
                        acc += dot4(op.row(row), scratch).norm_sqr();
                    }
                });
            }
        }
        Ok(acc)
    }

    /// Expectation value `⟨ψ| op |ψ⟩` on the plan's targets, without cloning
    /// or mutating the state.
    ///
    /// # Errors
    /// Returns an error on dimension mismatch.
    pub fn expectation(
        &self,
        kind: &OpKind,
        op: &CMatrix,
        amps: &[Complex64],
        scratch: &mut Vec<Complex64>,
    ) -> Result<Complex64> {
        self.check_span(amps.len())?;
        let mut acc = Complex64::ZERO;
        match kind {
            OpKind::Diagonal(diag) => {
                self.check_op(diag.len())?;
                self.for_each_block(|base| {
                    for (j, d) in diag.iter().enumerate() {
                        acc += *d * amps[base + self.sub_offsets[j]].norm_sqr();
                    }
                });
            }
            OpKind::Monomial { rows, coeffs, .. } => {
                self.check_op(rows.len())?;
                self.for_each_block(|base| {
                    for (c, (&r, &coeff)) in rows.iter().zip(coeffs.iter()).enumerate() {
                        if coeff != Complex64::ZERO {
                            let bra = amps[base + self.sub_offsets[r]].conj();
                            acc += bra * coeff * amps[base + self.sub_offsets[c]];
                        }
                    }
                });
            }
            OpKind::Dense => {
                self.check_op_matrix(op)?;
                scratch.resize(self.sub_dim, Complex64::ZERO);
                self.for_each_block(|base| {
                    for (j, s) in scratch.iter_mut().enumerate() {
                        *s = amps[base + self.sub_offsets[j]];
                    }
                    for (row, &off) in self.sub_offsets.iter().enumerate() {
                        acc += amps[base + off].conj() * dot4(op.row(row), scratch);
                    }
                });
            }
        }
        Ok(acc)
    }

    /// Marginal probability distribution over the plan's targets.
    pub fn marginal_probabilities(&self, amps: &[Complex64]) -> Vec<f64> {
        let mut probs = Vec::new();
        self.marginal_probabilities_into(amps, |z| z.norm_sqr(), &mut probs);
        probs
    }

    /// Marginal accumulation into a caller-owned buffer (cleared and resized
    /// to `sub_dim`), so per-event callers stay allocation-free. `weight`
    /// maps a stored entry to its probability mass (`|z|²` for amplitudes,
    /// `re` for a gathered density-matrix diagonal). Spectator blocks are
    /// visited in [`ApplyPlan::for_each_block`] order with one running sum
    /// per target basis state, so equal masses give bitwise-equal marginals.
    pub fn marginal_probabilities_into(
        &self,
        data: &[Complex64],
        weight: impl Fn(Complex64) -> f64,
        probs: &mut Vec<f64>,
    ) {
        probs.clear();
        probs.resize(self.sub_dim, 0.0);
        self.for_each_block(|base| {
            for (p, &off) in probs.iter_mut().zip(self.sub_offsets.iter()) {
                *p += weight(data[base + off]);
            }
        });
    }

    /// Zeroes every amplitude whose target digits differ from `outcome`
    /// (projective collapse; renormalisation is the caller's business).
    pub fn collapse(&self, amps: &mut [Complex64], outcome: usize) {
        debug_assert!(outcome < self.sub_dim);
        self.for_each_block(|base| {
            for (j, &off) in self.sub_offsets.iter().enumerate() {
                if j != outcome {
                    amps[base + off] = Complex64::ZERO;
                }
            }
        });
    }

    /// Reduced density matrix over the plan's targets:
    /// `ρ[i, j] = Σ_spectators ψ[(i, s)] ψ*[(j, s)]`.
    pub fn reduced_density(&self, amps: &[Complex64]) -> CMatrix {
        let k = self.sub_dim;
        let mut rho = CMatrix::zeros(k, k);
        self.for_each_block(|base| {
            let data = rho.as_mut_slice();
            for (i, &off_i) in self.sub_offsets.iter().enumerate() {
                let a_i = amps[base + off_i];
                if a_i == Complex64::ZERO {
                    continue;
                }
                for (j, &off_j) in self.sub_offsets.iter().enumerate() {
                    data[i * k + j] += a_i * amps[base + off_j].conj();
                }
            }
        });
        rho
    }

    /// Partial trace of a density matrix stored row-major in `rho_data`
    /// (dimension `total_dim × total_dim`), keeping the plan's targets.
    pub fn partial_trace(&self, rho_data: &[Complex64]) -> CMatrix {
        let k = self.sub_dim;
        let n = self.total_dim;
        debug_assert_eq!(rho_data.len(), n * n);
        let mut out = CMatrix::zeros(k, k);
        self.for_each_block(|base| {
            let data = out.as_mut_slice();
            for (i, &off_i) in self.sub_offsets.iter().enumerate() {
                let row = (base + off_i) * n;
                for (j, &off_j) in self.sub_offsets.iter().enumerate() {
                    data[i * k + j] += rho_data[row + base + off_j];
                }
            }
        });
        out
    }

    fn check_span(&self, len: usize) -> Result<()> {
        if len != self.total_dim {
            return Err(CoreError::ShapeMismatch {
                expected: format!("{} entries", self.total_dim),
                found: format!("{len} entries"),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn shift_x(d: usize) -> CMatrix {
        let mut x = CMatrix::zeros(d, d);
        for k in 0..d {
            x[((k + 1) % d, k)] = c64(1.0, 0.0);
        }
        x
    }

    #[test]
    fn classify_identifies_structure() {
        assert!(matches!(OpKind::classify(&CMatrix::identity(3)), OpKind::Diagonal(_)));
        assert!(matches!(
            OpKind::classify(&CMatrix::diag(&[c64(1.0, 0.0), c64(0.0, 1.0)])),
            OpKind::Diagonal(_)
        ));
        match OpKind::classify(&shift_x(4)) {
            OpKind::Monomial { rows, injective, .. } => {
                assert!(injective);
                assert_eq!(rows, vec![1, 2, 3, 0]);
            }
            other => panic!("expected monomial, got {other:?}"),
        }
        // |0><0| + |0><1| maps two columns onto row 0: monomial, not injective.
        let mut collapse = CMatrix::zeros(2, 2);
        collapse[(0, 0)] = c64(1.0, 0.0);
        collapse[(0, 1)] = c64(1.0, 0.0);
        assert!(matches!(OpKind::classify(&collapse), OpKind::Monomial { injective: false, .. }));
        let dense = CMatrix::from_fn(3, 3, |i, j| c64((i + j + 1) as f64, 0.0));
        assert!(matches!(OpKind::classify(&dense), OpKind::Dense));
    }

    #[test]
    fn block_enumeration_covers_every_spectator_config() {
        let radix = Radix::new(vec![2, 3, 4, 2]).unwrap();
        let plan = ApplyPlan::new(&radix, &[1, 3]).unwrap();
        assert_eq!(plan.sub_dim(), 6);
        assert_eq!(plan.spectator_count(), 8);
        let mut bases = Vec::new();
        plan.for_each_block(|b| bases.push(b));
        assert_eq!(bases.len(), 8);
        // Bases must be the flat indices with digits 1 and 3 zeroed.
        let mut expected = Vec::new();
        for idx in 0..radix.total_dim() {
            let digits = radix.digits_of(idx).unwrap();
            if digits[1] == 0 && digits[3] == 0 {
                expected.push(idx);
            }
        }
        bases.sort_unstable();
        assert_eq!(bases, expected);
    }

    #[test]
    fn norm_after_agrees_with_materialised_application() {
        let radix = Radix::new(vec![3, 2]).unwrap();
        let plan = ApplyPlan::new(&radix, &[0]).unwrap();
        let amps: Vec<Complex64> =
            (0..6).map(|i| c64(0.1 * i as f64 + 0.2, 0.3 - 0.05 * i as f64)).collect();
        let mut scratch = Vec::new();
        for op in [
            shift_x(3),
            CMatrix::diag(&[c64(0.2, 0.0), c64(0.5, 0.5), c64(1.0, -0.3)]),
            CMatrix::from_fn(3, 3, |i, j| c64(0.3 * (i as f64 + 1.0), 0.1 * j as f64)),
        ] {
            let kind = OpKind::classify(&op);
            let lazy = plan.norm_sqr_after(&kind, &op, &amps, &mut scratch).unwrap();
            let mut applied = amps.clone();
            plan.apply(&kind, &op, &mut applied, &mut scratch).unwrap();
            let eager: f64 = applied.iter().map(|z| z.norm_sqr()).sum();
            assert!((lazy - eager).abs() < 1e-12, "{lazy} vs {eager}");
        }
    }

    #[test]
    fn uniform_stride_detection() {
        let radix = Radix::new(vec![2, 3, 4, 2]).unwrap();
        // Contiguous suffix, ascending: unit stride.
        let plan = ApplyPlan::new(&radix, &[2, 3]).unwrap();
        assert_eq!(plan.uniform_stride(), Some(1));
        // Consecutive interior qudits, ascending: constant stride = stride of
        // the last target.
        let plan = ApplyPlan::new(&radix, &[1, 2]).unwrap();
        assert_eq!(plan.uniform_stride(), Some(2));
        // Single target: always constant stride.
        let plan = ApplyPlan::new(&radix, &[1]).unwrap();
        assert_eq!(plan.uniform_stride(), Some(8));
        // Reversed order breaks the layout.
        let plan = ApplyPlan::new(&radix, &[3, 2]).unwrap();
        assert_eq!(plan.uniform_stride(), None);
        // Non-adjacent targets break it too.
        let plan = ApplyPlan::new(&radix, &[0, 2]).unwrap();
        assert_eq!(plan.uniform_stride(), None);
    }

    #[test]
    fn uniform_stride_fast_path_matches_general_kernel() {
        // Same operator applied through a uniform-stride plan and through a
        // permuted-target (general) plan must agree with the embed reference.
        use crate::radix::embed_operator;
        let radix = Radix::new(vec![2, 3, 2, 2]).unwrap();
        let amps: Vec<Complex64> = (0..radix.total_dim())
            .map(|i| c64(0.3 + 0.01 * i as f64, -0.2 + 0.02 * i as f64))
            .collect();
        let mut scratch = Vec::new();
        for targets in [vec![2, 3], vec![1, 2], vec![0], vec![3]] {
            let sub = radix.subspace_dim(&targets).unwrap();
            for op in [
                CMatrix::from_fn(sub, sub, |i, j| {
                    c64(0.1 * (i + 2 * j) as f64 + 0.5, 0.05 * i as f64 - 0.03 * j as f64)
                }),
                CMatrix::diag(
                    &(0..sub).map(|k| c64(0.2 * k as f64 + 0.1, 0.3)).collect::<Vec<_>>(),
                ),
            ] {
                let plan = ApplyPlan::new(&radix, &targets).unwrap();
                assert!(plan.uniform_stride().is_some(), "targets {targets:?}");
                let kind = OpKind::classify(&op);
                let mut fast = amps.clone();
                plan.apply(&kind, &op, &mut fast, &mut scratch).unwrap();
                let full = embed_operator(&radix, &op, &targets).unwrap();
                let reference = full.matvec(&amps).unwrap();
                for (a, b) in fast.iter().zip(reference.iter()) {
                    assert!((*a - *b).abs() < 1e-12, "targets {targets:?}");
                }
            }
        }
    }

    #[test]
    fn matmul_structured_is_bitwise_identical_to_dense_matmul() {
        let n = 6;
        let dense_a = CMatrix::from_fn(n, n, |i, j| {
            c64(0.3 * i as f64 - 0.2 * j as f64 + 0.7, 0.11 * (i * j) as f64 - 0.4)
        });
        let dense_b = CMatrix::from_fn(n, n, |i, j| {
            c64(0.05 * (i + 2 * j) as f64 - 0.6, 0.9 - 0.07 * i as f64)
        });
        let diag =
            CMatrix::diag(&(0..n).map(|k| c64(0.4 * k as f64 - 1.0, 0.3)).collect::<Vec<_>>());
        let mono = {
            let mut m = CMatrix::zeros(n, n);
            for k in 0..n {
                m[((k + 2) % n, k)] = c64(0.5 + 0.1 * k as f64, -0.2);
            }
            m
        };
        // |0><0| + |0><1|: monomial but not injective (two columns collide).
        let collapse = {
            let mut m = CMatrix::zeros(n, n);
            m[(0, 0)] = c64(0.7, 0.1);
            m[(0, 1)] = c64(-0.3, 0.4);
            m
        };
        let factors = [&dense_a, &dense_b, &diag, &mono, &collapse];
        for a in factors {
            for b in factors {
                let fast = matmul_structured(a, b).unwrap();
                let reference = a.matmul(b).unwrap();
                assert_eq!(
                    fast.as_slice(),
                    reference.as_slice(),
                    "structured product must be bitwise identical"
                );
            }
        }
        // Shape mismatch is rejected.
        assert!(matmul_structured(&CMatrix::zeros(2, 3), &CMatrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn block_range_enumeration_matches_full_enumeration() {
        let radix = Radix::new(vec![2, 3, 4, 2]).unwrap();
        for targets in [vec![1, 3], vec![0], vec![2, 3]] {
            let plan = ApplyPlan::new(&radix, &targets).unwrap();
            let mut full = Vec::new();
            plan.for_each_block(|b| full.push(b));
            for split in [0, 1, plan.spectator_count() / 2, plan.spectator_count()] {
                let mut pieces = Vec::new();
                plan.for_each_block_range(0, split, |b| pieces.push(b));
                plan.for_each_block_range(split, plan.spectator_count(), |b| pieces.push(b));
                assert_eq!(pieces, full, "targets {targets:?}, split {split}");
            }
        }
    }

    #[test]
    fn apply_parallel_is_bitwise_identical_to_serial_apply() {
        // Enough spectators that the parallel path actually engages
        // (16 blocks of work above the dispatch threshold).
        let radix = Radix::new(vec![2, 4, 4, 4, 4, 2]).unwrap();
        let amps: Vec<Complex64> = (0..radix.total_dim())
            .map(|i| c64(0.3 + 0.001 * i as f64, -0.2 + 0.002 * i as f64))
            .collect();
        // Cover every kernel arm: dense contiguous suffix (uniform stride 1),
        // dense interior uniform stride, dense scattered, diagonal, monomial.
        for targets in [vec![4, 5], vec![2, 3], vec![0, 3], vec![1]] {
            let plan = ApplyPlan::new(&radix, &targets).unwrap();
            let sub = plan.sub_dim();
            let ops = [
                CMatrix::from_fn(sub, sub, |i, j| {
                    c64(0.2 * (i + 1) as f64 - 0.1 * j as f64, 0.05 * (i * j) as f64)
                }),
                CMatrix::diag(&(0..sub).map(|k| c64(0.1 * k as f64, 0.4)).collect::<Vec<_>>()),
                shift_x(sub),
            ];
            for op in &ops {
                let kind = OpKind::classify(op);
                let mut serial = amps.clone();
                let mut scratch = Vec::new();
                plan.apply(&kind, op, &mut serial, &mut scratch).unwrap();
                for threads in [2usize, 3, 5] {
                    let mut parallel = amps.clone();
                    plan.apply_parallel(&kind, op, &mut parallel, threads, &mut scratch).unwrap();
                    assert_eq!(parallel, serial, "targets {targets:?}, threads {threads}");
                }
            }
        }
    }

    #[test]
    fn wrong_operator_dimension_is_rejected() {
        let radix = Radix::new(vec![2, 3]).unwrap();
        let plan = ApplyPlan::new(&radix, &[0]).unwrap();
        let op = shift_x(3);
        let kind = OpKind::classify(&op);
        let mut amps = vec![Complex64::ZERO; 6];
        let mut scratch = Vec::new();
        assert!(plan.apply(&kind, &op, &mut amps, &mut scratch).is_err());
        // A slice that is not exactly the register is rejected too, so a
        // plan for a smaller register never runs on a prefix.
        let x = shift_x(2);
        let kind = OpKind::classify(&x);
        for len in [5, 7, 12] {
            let mut amps = vec![Complex64::ONE; len];
            assert!(plan.apply(&kind, &x, &mut amps, &mut scratch).is_err(), "len {len}");
        }
        // The compressed kernel checks its operator's shape the same way,
        // non-square included.
        for wrong in [shift_x(3), CMatrix::from_fn(2, 3, |i, j| c64((i + j) as f64, 0.0))] {
            let rc = RowCompressed::from_dense(&wrong, Complex64::ONE);
            let mut amps = vec![Complex64::ONE; 6];
            assert!(plan.apply_compressed(&rc, &mut amps, 1, &mut scratch).is_err());
            assert!(amps.iter().all(|a| *a == Complex64::ONE), "state must be untouched");
        }
    }

    #[test]
    fn non_square_operator_is_rejected_not_truncated() {
        // A 2x3 operator on a qubit target must error, not silently apply
        // its top-left 2x2 block (release builds have no debug_asserts).
        let radix = Radix::new(vec![2, 3]).unwrap();
        let plan = ApplyPlan::new(&radix, &[0]).unwrap();
        let wide = CMatrix::zeros(2, 3);
        let kind = OpKind::classify(&wide);
        assert_eq!(kind, OpKind::Dense, "non-square input must classify as Dense");
        let mut amps = vec![Complex64::ONE; 6];
        let mut scratch = Vec::new();
        assert!(plan.apply(&kind, &wide, &mut amps, &mut scratch).is_err());
        assert!(plan.norm_sqr_after(&kind, &wide, &amps, &mut scratch).is_err());
        assert!(plan.expectation(&kind, &wide, &amps, &mut scratch).is_err());
        assert!(amps.iter().all(|a| *a == Complex64::ONE), "state must be untouched");
        // Tall operators too.
        let tall = CMatrix::zeros(3, 2);
        let kind = OpKind::classify(&tall);
        assert!(plan.apply(&kind, &tall, &mut amps, &mut scratch).is_err());
    }
}
