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
//! The same plan drives measurement-side kernels: marginal probabilities,
//! collapse, expectation values, reduced density matrices and Kraus-branch
//! norms, all without the per-amplitude digit decompositions the seed used.

use crate::complex::Complex64;
use crate::error::{CoreError, Result};
use crate::matrix::CMatrix;
use crate::radix::Radix;

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

/// Wide-panel analogue of [`dot4`] for `width` interleaved columns: computes
/// the dot product of `a` against every column of the row-major panel `xs`
/// (logical entry `j` of column `b` at `xs[j * width + b]`) into `out`.
/// Each column runs the **same accumulator schedule** as [`dot4`] — four
/// interleaved partial series, remainder into the first, final pairwise
/// combine — so every column's result is bitwise identical to a [`dot4`]
/// call on that column alone. `acc` is caller scratch of `4 * width`.
fn dot4_panel(
    a: &[Complex64],
    xs: &[Complex64],
    width: usize,
    acc: &mut [Complex64],
    out: &mut [Complex64],
) {
    debug_assert_eq!(xs.len(), a.len() * width);
    debug_assert_eq!(acc.len(), 4 * width);
    debug_assert_eq!(out.len(), width);
    acc.fill(Complex64::ZERO);
    let (acc0, rest) = acc.split_at_mut(width);
    let (acc1, rest) = rest.split_at_mut(width);
    let (acc2, acc3) = rest.split_at_mut(width);
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_x = xs.chunks_exact(4 * width);
    for (ca, cx) in chunks_a.by_ref().zip(chunks_x.by_ref()) {
        for (o, &x) in acc0.iter_mut().zip(&cx[..width]) {
            *o = ca[0].mul_add(x, *o);
        }
        for (o, &x) in acc1.iter_mut().zip(&cx[width..2 * width]) {
            *o = ca[1].mul_add(x, *o);
        }
        for (o, &x) in acc2.iter_mut().zip(&cx[2 * width..3 * width]) {
            *o = ca[2].mul_add(x, *o);
        }
        for (o, &x) in acc3.iter_mut().zip(&cx[3 * width..]) {
            *o = ca[3].mul_add(x, *o);
        }
    }
    for (y, cx) in chunks_a.remainder().iter().zip(chunks_x.remainder().chunks_exact(width)) {
        for (o, &x) in acc0.iter_mut().zip(cx.iter()) {
            *o = y.mul_add(x, *o);
        }
    }
    for b in 0..width {
        out[b] = (acc0[b] + acc1[b]) + (acc2[b] + acc3[b]);
    }
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
    pub fn for_each_block(&self, mut f: impl FnMut(usize)) {
        let k = self.spectator_dims.len();
        if k == 0 {
            f(0);
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
        let mut base = 0usize;
        loop {
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

    /// Invokes `f(base)` for the spectator configurations with flat spectator
    /// indices in `start..end` (the same enumeration order as
    /// [`ApplyPlan::for_each_block`], which is this method at `0..count`).
    #[inline]
    pub fn for_each_block_range(&self, start: usize, end: usize, mut f: impl FnMut(usize)) {
        let k = self.spectator_dims.len();
        if k == 0 {
            if start == 0 && end > 0 {
                f(0);
            }
            return;
        }
        // Seed the odometer at spectator index `start` (digit k-1 is the
        // least significant, matching `for_each_block`'s increment order).
        let mut digits = vec![0usize; k];
        let mut rem = start;
        for pos in (0..k).rev() {
            digits[pos] = rem % self.spectator_dims[pos];
            rem /= self.spectator_dims[pos];
        }
        let mut base: usize =
            digits.iter().zip(self.spectator_strides.iter()).map(|(&d, &s)| d * s).sum();
        for _ in start..end {
            f(base);
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

    /// Number of independently-updatable work units the unit-stride apply
    /// kernels iterate for this `(plan, kind)` pair: the contiguous panel
    /// count for the uniform-stride dense fast path, the spectator-block
    /// count otherwise. [`ApplyPlan::apply_parallel`] chunks this range.
    fn parallel_units(&self, kind: &OpKind) -> usize {
        match (kind, self.uniform_stride) {
            (OpKind::Dense, Some(s)) if s > 1 => self.total_dim / (self.sub_dim * s),
            _ => self.spectator_count,
        }
    }

    /// Applies `op` to the work units in `units` (see
    /// [`ApplyPlan::parallel_units`]) of a unit-stride amplitude slice. Each
    /// unit's update reads and writes only that unit's indices and performs
    /// exactly the arithmetic the serial kernels in [`ApplyPlan::apply`]
    /// perform, so any partition of the unit range reproduces the serial
    /// result bitwise.
    fn apply_units(
        &self,
        kind: &OpKind,
        op: &CMatrix,
        data: &mut [Complex64],
        units: std::ops::Range<usize>,
        scratch: &mut Vec<Complex64>,
    ) {
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
                    let chunk = self.sub_dim * s;
                    scratch.resize(chunk, Complex64::ZERO);
                    for hi in units {
                        let start = hi * chunk;
                        let block = &mut data[start..start + chunk];
                        scratch.copy_from_slice(block);
                        for (r, out_row) in block.chunks_exact_mut(s).enumerate() {
                            out_row.fill(Complex64::ZERO);
                            for (in_row, &a) in scratch.chunks_exact(s).zip(op.row(r).iter()) {
                                if a == Complex64::ZERO {
                                    continue;
                                }
                                for (o, &x) in out_row.iter_mut().zip(in_row.iter()) {
                                    *o = a.mul_add(x, *o);
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
    /// [`crate::par`] worker pool. Falls back to the serial kernel when
    /// `threads <= 1` or the work is too small to amortise dispatch. Because
    /// every unit's update is confined to that unit's indices and performs
    /// the same arithmetic as the serial kernel, the result is **bitwise
    /// identical** for every thread count.
    ///
    /// # Errors
    /// Returns an error if `op` or the slice have the wrong dimension.
    #[allow(unsafe_code)] // disjoint-unit writes through a shared pointer; see SAFETY below
    pub fn apply_parallel(
        &self,
        kind: &OpKind,
        op: &CMatrix,
        amps: &mut [Complex64],
        threads: usize,
    ) -> Result<()> {
        /// Minimum multiply-adds of total work before chunk dispatch pays.
        const MIN_PARALLEL_WORK: usize = 1 << 14;
        let units = self.parallel_units(kind);
        // Validate everything up front so the per-unit kernels (and the pool
        // workers) cannot index out of bounds or observe a shape mismatch.
        self.check_span(amps.len(), 1, 0)?;
        match kind {
            OpKind::Diagonal(diag) => self.check_op(diag.len())?,
            OpKind::Monomial { rows, .. } => self.check_op(rows.len())?,
            OpKind::Dense => self.check_op_matrix(op)?,
        }
        let work = match kind {
            OpKind::Dense => self.total_dim * self.sub_dim,
            _ => self.total_dim,
        };
        if threads <= 1 || units < 2 * threads || work < MIN_PARALLEL_WORK {
            // Serial fallback through the same per-unit kernels the chunked
            // path runs, so thread-count invariance holds by construction.
            let mut scratch = Vec::new();
            self.apply_units(kind, op, amps, 0..units, &mut scratch);
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
            self.apply_units(kind, op, data, start..end, &mut scratch);
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
        self.apply_strided(kind, op, amps, 1, 0, scratch)
    }

    /// Strided variant of [`ApplyPlan::apply`]: register index `i` lives at
    /// `data[offset + stride * i]`. Used by the density-matrix simulator to
    /// run the same kernels down matrix columns (`stride = n, offset = j`)
    /// and across rows (`stride = 1, offset = i * n`).
    ///
    /// # Errors
    /// Returns an error if `op` or the addressed span have the wrong
    /// dimension.
    pub fn apply_strided(
        &self,
        kind: &OpKind,
        op: &CMatrix,
        data: &mut [Complex64],
        stride: usize,
        offset: usize,
        scratch: &mut Vec<Complex64>,
    ) -> Result<()> {
        self.check_span(data.len(), stride, offset)?;
        match kind {
            OpKind::Diagonal(diag) => {
                self.check_op(diag.len())?;
                if let Some(s) = self.uniform_stride {
                    // Constant-stride layout: pure index arithmetic, no
                    // offset-table lookups.
                    let step = stride * s;
                    self.for_each_block(|base| {
                        let mut idx = offset + stride * base;
                        for d in diag.iter() {
                            data[idx] *= *d;
                            idx += step;
                        }
                    });
                } else {
                    self.for_each_block(|base| {
                        for (j, d) in diag.iter().enumerate() {
                            let idx = offset + stride * (base + self.sub_offsets[j]);
                            data[idx] *= *d;
                        }
                    });
                }
            }
            OpKind::Monomial { rows, coeffs, .. } => {
                self.check_op(rows.len())?;
                scratch.resize(self.sub_dim, Complex64::ZERO);
                self.for_each_block(|base| {
                    for (j, s) in scratch.iter_mut().enumerate() {
                        let idx = offset + stride * (base + self.sub_offsets[j]);
                        *s = data[idx];
                        data[idx] = Complex64::ZERO;
                    }
                    for (c, (&r, &coeff)) in rows.iter().zip(coeffs.iter()).enumerate() {
                        if coeff != Complex64::ZERO {
                            let idx = offset + stride * (base + self.sub_offsets[r]);
                            data[idx] += coeff * scratch[c];
                        }
                    }
                });
            }
            OpKind::Dense => {
                self.check_op_matrix(op)?;
                match (self.uniform_stride, stride) {
                    // Unit-stride caller and consecutive ascending targets:
                    // the register reshapes into contiguous `sub_dim × s`
                    // panels (`s` = product of the trailing spectator
                    // dimensions), and the block application becomes a tight
                    // matrix–panel product on sequential memory — the fast
                    // path fused superblocks are built to hit.
                    (Some(1), 1) => {
                        scratch.resize(self.sub_dim, Complex64::ZERO);
                        self.for_each_block(|base| {
                            let start = offset + base;
                            let block = &mut data[start..start + self.sub_dim];
                            scratch.copy_from_slice(block);
                            for (row, out) in block.iter_mut().enumerate() {
                                *out = dot4(op.row(row), scratch);
                            }
                        });
                    }
                    (Some(s), 1) => {
                        let chunk = self.sub_dim * s;
                        let hi_blocks = self.total_dim / chunk;
                        scratch.resize(chunk, Complex64::ZERO);
                        for hi in 0..hi_blocks {
                            let start = offset + hi * chunk;
                            let block = &mut data[start..start + chunk];
                            scratch.copy_from_slice(block);
                            // block[r·s + lo] = Σ_c op[r, c] · scratch[c·s + lo]:
                            // an `s`-wide contiguous axpy per operator entry.
                            for (r, out_row) in block.chunks_exact_mut(s).enumerate() {
                                out_row.fill(Complex64::ZERO);
                                for (in_row, &a) in scratch.chunks_exact(s).zip(op.row(r).iter()) {
                                    if a == Complex64::ZERO {
                                        continue;
                                    }
                                    for (o, &x) in out_row.iter_mut().zip(in_row.iter()) {
                                        *o = a.mul_add(x, *o);
                                    }
                                }
                            }
                        }
                    }
                    // Constant-stride layout under a strided caller:
                    // arithmetic indexing only.
                    (Some(s), _) => {
                        scratch.resize(self.sub_dim, Complex64::ZERO);
                        let step = s * stride;
                        self.for_each_block(|base| {
                            let start = offset + stride * base;
                            let mut idx = start;
                            for slot in scratch.iter_mut() {
                                *slot = data[idx];
                                idx += step;
                            }
                            let mut idx = start;
                            for row in 0..self.sub_dim {
                                data[idx] = dot4(op.row(row), scratch);
                                idx += step;
                            }
                        });
                    }
                    (None, _) => {
                        scratch.resize(self.sub_dim, Complex64::ZERO);
                        self.for_each_block(|base| {
                            for (j, slot) in scratch.iter_mut().enumerate() {
                                *slot = data[offset + stride * (base + self.sub_offsets[j])];
                            }
                            for (row, &off) in self.sub_offsets.iter().enumerate() {
                                data[offset + stride * (base + off)] = dot4(op.row(row), scratch);
                            }
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Shape check for the interleaved ensemble kernels: `data` must cover a
    /// `total_dim × width` panel and `cols` must lie inside it.
    fn check_panel(&self, len: usize, width: usize, cols: &std::ops::Range<usize>) -> Result<()> {
        if width == 0 || cols.start > cols.end || cols.end > width || len < self.total_dim * width {
            return Err(CoreError::ShapeMismatch {
                expected: format!(
                    "{dim} x {width} ensemble panel covering columns {start}..{end}",
                    dim = self.total_dim,
                    start = cols.start,
                    end = cols.end,
                ),
                found: format!("{len} entries"),
            });
        }
        Ok(())
    }

    /// Applies `op` to columns `cols` of an interleaved ensemble panel:
    /// register index `i` of column `b` lives at `data[i * width + b]`.
    ///
    /// This is the batched analogue of [`ApplyPlan::apply`]: one plan
    /// traversal sweeps all selected columns, so dense blocks become
    /// matrix–panel products and diagonal/monomial steps become row-scaled
    /// broadcasts. Every arm reproduces the *serial unit-stride* kernel's
    /// per-scalar arithmetic order on each column, so the per-column results
    /// are **bitwise identical** to applying [`ApplyPlan::apply`] to that
    /// column's amplitudes alone — the contract the batched trajectory
    /// executor relies on.
    ///
    /// `scratch` is caller working memory, resized as needed.
    ///
    /// # Errors
    /// Returns an error if `op`, the panel span, or the column range have the
    /// wrong dimensions.
    pub fn apply_batched(
        &self,
        kind: &OpKind,
        op: &CMatrix,
        data: &mut [Complex64],
        width: usize,
        cols: std::ops::Range<usize>,
        scratch: &mut Vec<Complex64>,
    ) -> Result<()> {
        self.check_panel(data.len(), width, &cols)?;
        let (lo, cw) = (cols.start, cols.len());
        if cw == 0 {
            return Ok(());
        }
        match kind {
            OpKind::Diagonal(diag) => {
                self.check_op(diag.len())?;
                if let Some(s) = self.uniform_stride {
                    self.for_each_block(|base| {
                        let mut row = base;
                        for d in diag.iter() {
                            let at = row * width + lo;
                            for v in &mut data[at..at + cw] {
                                *v *= *d;
                            }
                            row += s;
                        }
                    });
                } else {
                    self.for_each_block(|base| {
                        for (j, d) in diag.iter().enumerate() {
                            let at = (base + self.sub_offsets[j]) * width + lo;
                            for v in &mut data[at..at + cw] {
                                *v *= *d;
                            }
                        }
                    });
                }
            }
            OpKind::Monomial { rows, coeffs, .. } => {
                self.check_op(rows.len())?;
                scratch.resize(self.sub_dim * cw, Complex64::ZERO);
                self.for_each_block(|base| {
                    for (j, slot) in scratch.chunks_exact_mut(cw).enumerate() {
                        let at = (base + self.sub_offsets[j]) * width + lo;
                        let src = &mut data[at..at + cw];
                        slot.copy_from_slice(src);
                        src.fill(Complex64::ZERO);
                    }
                    for (c, (&r, &coeff)) in rows.iter().zip(coeffs.iter()).enumerate() {
                        if coeff != Complex64::ZERO {
                            let at = (base + self.sub_offsets[r]) * width + lo;
                            let dst = &mut data[at..at + cw];
                            for (o, &x) in dst.iter_mut().zip(&scratch[c * cw..(c + 1) * cw]) {
                                *o += coeff * x;
                            }
                        }
                    }
                });
            }
            OpKind::Dense => {
                self.check_op_matrix(op)?;
                match self.uniform_stride {
                    // Contiguous ascending targets: each register block is
                    // `sub_dim` consecutive rows, so the update is a dense
                    // matrix–panel product via the wide dot4 kernel.
                    Some(1) => {
                        scratch.resize((self.sub_dim + 5) * cw, Complex64::ZERO);
                        let (gather, rest) = scratch.split_at_mut(self.sub_dim * cw);
                        let (acc, out) = rest.split_at_mut(4 * cw);
                        self.for_each_block(|base| {
                            for (j, slot) in gather.chunks_exact_mut(cw).enumerate() {
                                let at = (base + j) * width + lo;
                                slot.copy_from_slice(&data[at..at + cw]);
                            }
                            for row in 0..self.sub_dim {
                                dot4_panel(op.row(row), gather, cw, acc, out);
                                let at = (base + row) * width + lo;
                                data[at..at + cw].copy_from_slice(out);
                            }
                        });
                    }
                    // Interior consecutive targets: mirror the serial
                    // `s`-wide contiguous axpy arm — same ascending-column
                    // mul_add chain per scalar, just `cw` columns at a time.
                    Some(s) => {
                        let chunk = self.sub_dim * s;
                        let hi_blocks = self.total_dim / chunk;
                        scratch.resize(chunk * cw, Complex64::ZERO);
                        for hi in 0..hi_blocks {
                            let start = hi * chunk;
                            for (j, slot) in scratch.chunks_exact_mut(cw).enumerate() {
                                let at = (start + j) * width + lo;
                                slot.copy_from_slice(&data[at..at + cw]);
                            }
                            for r in 0..self.sub_dim {
                                let out_base = start + r * s;
                                for k in 0..s {
                                    let at = (out_base + k) * width + lo;
                                    data[at..at + cw].fill(Complex64::ZERO);
                                }
                                for (c, &a) in op.row(r).iter().enumerate() {
                                    if a == Complex64::ZERO {
                                        continue;
                                    }
                                    for k in 0..s {
                                        let src = &scratch[(c * s + k) * cw..(c * s + k + 1) * cw];
                                        let at = (out_base + k) * width + lo;
                                        for (o, &x) in data[at..at + cw].iter_mut().zip(src) {
                                            *o = a.mul_add(x, *o);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    // Scattered targets: gather through the offset table,
                    // dense wide-dot4 per output row.
                    None => {
                        scratch.resize((self.sub_dim + 5) * cw, Complex64::ZERO);
                        let (gather, rest) = scratch.split_at_mut(self.sub_dim * cw);
                        let (acc, out) = rest.split_at_mut(4 * cw);
                        self.for_each_block(|base| {
                            for (j, slot) in gather.chunks_exact_mut(cw).enumerate() {
                                let at = (base + self.sub_offsets[j]) * width + lo;
                                slot.copy_from_slice(&data[at..at + cw]);
                            }
                            for (row, &off) in self.sub_offsets.iter().enumerate() {
                                dot4_panel(op.row(row), gather, cw, acc, out);
                                let at = (base + off) * width + lo;
                                data[at..at + cw].copy_from_slice(out);
                            }
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Projective collapse of a single ensemble column: zeroes every
    /// amplitude of column `col` whose target digits differ from `outcome`
    /// (renormalisation is the caller's business, as in
    /// [`ApplyPlan::collapse`]).
    pub fn collapse_col(&self, data: &mut [Complex64], width: usize, col: usize, outcome: usize) {
        debug_assert!(outcome < self.sub_dim);
        self.for_each_block(|base| {
            for (j, &off) in self.sub_offsets.iter().enumerate() {
                if j != outcome {
                    data[(base + off) * width + col] = Complex64::ZERO;
                }
            }
        });
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
        self.check_span(amps.len(), 1, 0)?;
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
        self.check_span(amps.len(), 1, 0)?;
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
        self.marginal_probabilities_strided(amps, 1, 0, |z| z.norm_sqr())
    }

    /// Strided marginal accumulation; `weight` maps a stored entry to its
    /// probability mass (`|z|²` for amplitudes, `re` for a density-matrix
    /// diagonal).
    pub fn marginal_probabilities_strided(
        &self,
        data: &[Complex64],
        stride: usize,
        offset: usize,
        weight: impl Fn(Complex64) -> f64,
    ) -> Vec<f64> {
        let mut probs = Vec::new();
        self.marginal_probabilities_into(data, stride, offset, weight, &mut probs);
        probs
    }

    /// [`ApplyPlan::marginal_probabilities_strided`] into a caller-owned
    /// buffer (cleared and resized to `sub_dim`), so per-event callers stay
    /// allocation-free. Same accumulation order: spectator blocks in
    /// [`ApplyPlan::for_each_block`] order, one running sum per target
    /// basis state — so a state at `stride = 1` and the same state as an
    /// ensemble column at `stride = width` give bitwise-equal marginals.
    pub fn marginal_probabilities_into(
        &self,
        data: &[Complex64],
        stride: usize,
        offset: usize,
        weight: impl Fn(Complex64) -> f64,
        probs: &mut Vec<f64>,
    ) {
        probs.clear();
        probs.resize(self.sub_dim, 0.0);
        self.for_each_block(|base| {
            for (p, &off) in probs.iter_mut().zip(self.sub_offsets.iter()) {
                *p += weight(data[offset + stride * (base + off)]);
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

    fn check_span(&self, len: usize, stride: usize, offset: usize) -> Result<()> {
        // Highest address touched: offset + stride * (total_dim - 1).
        let needed = offset + stride.max(1) * (self.total_dim - 1) + 1;
        if len < needed {
            return Err(CoreError::ShapeMismatch {
                expected: format!("at least {needed} entries"),
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
    fn strided_apply_matches_plain_apply() {
        let radix = Radix::new(vec![2, 3]).unwrap();
        let plan = ApplyPlan::new(&radix, &[1]).unwrap();
        let op = shift_x(3);
        let kind = OpKind::classify(&op);
        let mut scratch = Vec::new();

        let amps: Vec<Complex64> = (0..6).map(|i| c64(i as f64, -(i as f64))).collect();
        let mut plain = amps.clone();
        plan.apply(&kind, &op, &mut plain, &mut scratch).unwrap();

        // Embed the same amplitudes at stride 2, offset 1.
        let mut strided = vec![Complex64::ZERO; 13];
        for (i, a) in amps.iter().enumerate() {
            strided[1 + 2 * i] = *a;
        }
        plan.apply_strided(&kind, &op, &mut strided, 2, 1, &mut scratch).unwrap();
        for (i, p) in plain.iter().enumerate() {
            assert_eq!(strided[1 + 2 * i], *p);
        }
    }

    /// Distinct, non-trivial column contents for ensemble kernel tests.
    fn panel_columns(dim: usize, width: usize) -> Vec<Vec<Complex64>> {
        (0..width)
            .map(|b| {
                (0..dim)
                    .map(|i| {
                        c64(
                            0.17 + 0.013 * i as f64 - 0.21 * b as f64,
                            -0.4 + 0.029 * i as f64 + 0.07 * b as f64,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn interleave(cols: &[Vec<Complex64>]) -> Vec<Complex64> {
        let (dim, width) = (cols[0].len(), cols.len());
        let mut data = vec![Complex64::ZERO; dim * width];
        for (b, col) in cols.iter().enumerate() {
            for (i, a) in col.iter().enumerate() {
                data[i * width + b] = *a;
            }
        }
        data
    }

    #[test]
    fn apply_batched_columns_are_bitwise_identical_to_serial_apply() {
        // Cover every kernel arm: dense/diagonal/monomial × contiguous
        // suffix (stride 1), interior uniform stride, single target,
        // scattered (None), on a mixed-radix register.
        let radix = Radix::new(vec![2, 3, 2, 2]).unwrap();
        let width = 3;
        let cols = panel_columns(radix.total_dim(), width);
        let mut scratch = Vec::new();
        let mut batch_scratch = Vec::new();
        for targets in [vec![2, 3], vec![1, 2], vec![1], vec![0, 2], vec![3, 1]] {
            let plan = ApplyPlan::new(&radix, &targets).unwrap();
            let sub = plan.sub_dim();
            let dense = CMatrix::from_fn(sub, sub, |i, j| {
                c64(0.1 * (i + 2 * j) as f64 + 0.5, 0.05 * i as f64 - 0.03 * j as f64)
            });
            let diag = CMatrix::diag(
                &(0..sub).map(|k| c64(0.2 * k as f64 + 0.1, 0.3)).collect::<Vec<_>>(),
            );
            let mono = shift_x(sub);
            for op in [&dense, &diag, &mono] {
                let kind = OpKind::classify(op);
                let mut panel = interleave(&cols);
                plan.apply_batched(&kind, op, &mut panel, width, 0..width, &mut batch_scratch)
                    .unwrap();
                for (b, col) in cols.iter().enumerate() {
                    let mut serial = col.clone();
                    plan.apply(&kind, op, &mut serial, &mut scratch).unwrap();
                    for (i, expect) in serial.iter().enumerate() {
                        assert_eq!(
                            panel[i * width + b],
                            *expect,
                            "targets {targets:?}, kind {kind:?}, col {b}, index {i}"
                        );
                    }
                }
                // A single-column sub-range must leave the others untouched
                // and still match the serial kernel bitwise.
                let mut panel = interleave(&cols);
                plan.apply_batched(&kind, op, &mut panel, width, 1..2, &mut batch_scratch).unwrap();
                let mut serial = cols[1].clone();
                plan.apply(&kind, op, &mut serial, &mut scratch).unwrap();
                for i in 0..radix.total_dim() {
                    assert_eq!(panel[i * width], cols[0][i]);
                    assert_eq!(panel[i * width + 1], serial[i]);
                    assert_eq!(panel[i * width + 2], cols[2][i]);
                }
            }
        }
    }

    #[test]
    fn batched_column_helpers_match_serial_counterparts() {
        let radix = Radix::new(vec![3, 2, 2]).unwrap();
        let width = 4;
        let cols = panel_columns(radix.total_dim(), width);
        let panel = interleave(&cols);
        let mut reused = vec![7.0; 11];
        for targets in [vec![0], vec![1, 2], vec![2, 0]] {
            let plan = ApplyPlan::new(&radix, &targets).unwrap();
            // Marginals down a column reuse the strided accumulator and must
            // agree bitwise with the contiguous path, also when written into
            // a reused buffer of the wrong length.
            for (b, col) in cols.iter().enumerate() {
                let serial = plan.marginal_probabilities(col);
                let batched =
                    plan.marginal_probabilities_strided(&panel, width, b, |z| z.norm_sqr());
                plan.marginal_probabilities_into(&panel, width, b, |z| z.norm_sqr(), &mut reused);
                assert_eq!(batched.len(), plan.sub_dim());
                assert_eq!(reused.len(), plan.sub_dim());
                for ((s, p), q) in serial.iter().zip(batched.iter()).zip(reused.iter()) {
                    assert_eq!(s.to_bits(), p.to_bits());
                    assert_eq!(s.to_bits(), q.to_bits());
                }
            }
            // Collapse of one column leaves batch-mates untouched.
            for outcome in 0..plan.sub_dim() {
                let mut batched = panel.clone();
                plan.collapse_col(&mut batched, width, 2, outcome);
                let mut serial = cols[2].clone();
                plan.collapse(&mut serial, outcome);
                for i in 0..radix.total_dim() {
                    assert_eq!(batched[i * width + 2], serial[i]);
                    assert_eq!(batched[i * width], panel[i * width]);
                    assert_eq!(batched[i * width + 3], panel[i * width + 3]);
                }
            }
        }
    }

    #[test]
    fn apply_batched_rejects_bad_panels() {
        let radix = Radix::new(vec![2, 2]).unwrap();
        let plan = ApplyPlan::new(&radix, &[0]).unwrap();
        let op = shift_x(2);
        let kind = OpKind::classify(&op);
        let mut scratch = Vec::new();
        // Panel too short for the claimed width.
        let mut short = vec![Complex64::ZERO; 7];
        assert!(plan.apply_batched(&kind, &op, &mut short, 2, 0..2, &mut scratch).is_err());
        // Column range out of bounds.
        let mut panel = vec![Complex64::ZERO; 8];
        assert!(plan.apply_batched(&kind, &op, &mut panel, 2, 1..3, &mut scratch).is_err());
        // Zero width is rejected outright.
        assert!(plan.apply_batched(&kind, &op, &mut panel, 0, 0..0, &mut scratch).is_err());
        // An empty (but in-bounds) column range is a no-op.
        plan.apply_batched(&kind, &op, &mut panel, 2, 1..1, &mut scratch).unwrap();
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
                    plan.apply_parallel(&kind, op, &mut parallel, threads).unwrap();
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
