//! Translation validation of compiled execution plans.
//!
//! [`verify_statevector`] and [`verify_density`] statically prove a compiled
//! plan faithful to its source [`Circuit`] **without executing it**. Every
//! re-derivation here goes through an independent code path from the
//! compiler's own: operators are embedded with [`qudit_core::radix::embed_operator`]
//! and composed with dense [`CMatrix::matmul`] (not the fusion pass's
//! structured embed/matmul), superoperators are rebuilt from raw Kronecker
//! products, and the cost/budget rules are restated from their documented
//! invariants rather than replayed through the greedy frontier. A bug shared
//! by compiler and checker would have to be introduced twice.
//!
//! What is proven, per plan:
//!
//! * **Instruction accounting** — every source instruction is realized
//!   exactly once (dropped barriers only when they are provably no-ops).
//! * **Ordering** — any two instructions with overlapping supports execute
//!   in program order; fusion and superoperator folding may only commute
//!   operations across *disjoint* supports.
//! * **Plan consistency** — every [`qudit_core::apply::ApplyPlan`],
//!   [`qudit_core::superop::SandwichPlan`] and
//!   [`qudit_core::superop::SuperPlan`] matches a freshly built plan for its
//!   step's targets, and every structure classification is sound for the
//!   matrix it describes.
//! * **Semantics** — each step's operator equals the product of its source
//!   instructions' operators, re-derived independently; each density sweep's
//!   superoperator equals the product of its constituents' superoperators.
//! * **Fusion budget** — a fused block never costs more than its members
//!   applied separately, and growth respects the configured budget.
//! * **Superoperator cost rule** — a fold's sweep cost never exceeds the sum
//!   of its constituents' standalone costs, within the dimension budget.
//! * **Binding invariance** — rebindable steps re-materialise correctly at
//!   sampled bindings, and `diagonal-at-every-binding` claims hold there.
//! * **Trace preservation** — each sweep's compile-time defect allowance
//!   equals the documented formula and its matrix sits within it.
//! * **Compressed sweeps** — a sweep carries a row-compressed form exactly
//!   when the fill rule selects it, and that form holds the superoperator's
//!   nonzero entries and nothing else.
//! * **Guard accounting** — [`verify_run_health`] checks the checkpoint
//!   count formula against a run's reported health.

use std::fmt;

use qudit_circuit::sim::introspect::{self, ChannelView, DensityRole, DensityStepView, StepView};
use qudit_circuit::sim::{CompiledCircuit, CompiledDensityCircuit, FusionConfig, SuperopConfig};
use qudit_circuit::{Circuit, Instruction, KrausChannel, NoiseModel};
use qudit_core::apply::{ApplyPlan, OpKind};
use qudit_core::complex::{c64, Complex64};
use qudit_core::guard::{GuardConfig, RunHealth};
use qudit_core::matrix::CMatrix;
use qudit_core::radix::{embed_operator, Radix};
use qudit_core::sparse::RowCompressed;
use qudit_core::superop::{SandwichPlan, SuperPlan};

/// The property a failed verification violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Check {
    /// Register dimensions or parameter count disagree.
    Shape,
    /// An instruction is missing, duplicated, or realized by the wrong kind
    /// of step.
    Accounting,
    /// Two operations with overlapping supports were reordered.
    Ordering,
    /// A precomputed stride plan or structure classification does not match
    /// its step.
    PlanConsistency,
    /// A rebindable/diagonal classification claim is wrong.
    Classification,
    /// A step's operator differs from the one its sources define.
    Semantics,
    /// A fused block violates the fusion cost or growth budget.
    FusionBudget,
    /// A superoperator fold violates the cost rule or dimension budget.
    CostRule,
    /// A sweep's trace-preservation allowance or defect is wrong.
    TracePreservation,
    /// A sweep's degradation fallback is inconsistent with its constituents.
    Fallback,
    /// A binding override is missing, stale, or misplaced.
    Binding,
    /// A run's health report disagrees with the checkpoint formula.
    Guard,
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Check::Shape => "shape",
            Check::Accounting => "accounting",
            Check::Ordering => "ordering",
            Check::PlanConsistency => "plan-consistency",
            Check::Classification => "classification",
            Check::Semantics => "semantics",
            Check::FusionBudget => "fusion-budget",
            Check::CostRule => "cost-rule",
            Check::TracePreservation => "trace-preservation",
            Check::Fallback => "fallback",
            Check::Binding => "binding",
            Check::Guard => "guard",
        };
        f.write_str(s)
    }
}

/// A verification failure: the plan is not a faithful translation of its
/// source circuit (or the checker could not establish that it is).
#[derive(Debug, Clone)]
pub struct VerifyError {
    /// The violated property.
    pub check: Check,
    /// The plan step the failure anchors to, when one exists.
    pub step: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.step {
            Some(s) => write!(f, "[{}] step {}: {}", self.check, s, self.message),
            None => write!(f, "[{}] {}", self.check, self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

fn fail<T>(
    check: Check,
    step: impl Into<Option<usize>>,
    message: String,
) -> Result<T, VerifyError> {
    Err(VerifyError { check, step: step.into(), message })
}

/// What a successful verification covered (all counters are lower-bounded
/// by the corpus tests, so a silently-vacuous checker cannot pass them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Steps walked.
    pub steps: usize,
    /// Multi-gate fused blocks proven.
    pub fused_blocks: usize,
    /// Superoperator sweeps proven.
    pub sweeps: usize,
    /// Sweeps whose row-compressed form was checked against their
    /// superoperator.
    pub compressed_sweeps: usize,
    /// Per-term Kraus steps checked.
    pub kraus_steps: usize,
    /// Density constituent items checked.
    pub items: usize,
    /// Operators re-derived and compared entry-wise.
    pub operators_compared: usize,
    /// Random bindings sampled for invariance checks.
    pub bindings_sampled: usize,
}

/// Verifier configuration: the compile-time configuration the plan claims to
/// honour, plus checker tolerances.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// The fusion budget the plan was compiled under.
    pub fusion: FusionConfig,
    /// The superoperator budget the plan was compiled under.
    pub superop: SuperopConfig,
    /// The noise model the plan was compiled under.
    pub noise: NoiseModel,
    /// Entry-wise tolerance for operator comparisons.
    pub tol: f64,
    /// Skip entry-wise operator re-derivation for steps whose subspace
    /// dimension exceeds this (structural checks still run).
    pub max_dense_dim: usize,
    /// Number of deterministic pseudo-random bindings sampled per rebindable
    /// step for the binding-invariance checks.
    pub sample_bindings: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        Self {
            fusion: FusionConfig::default(),
            superop: SuperopConfig::default(),
            noise: NoiseModel::noiseless(),
            tol: 1e-9,
            max_dense_dim: 4096,
            sample_bindings: 2,
        }
    }
}

impl VerifyConfig {
    /// Replaces the assumed noise model.
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Replaces the assumed fusion configuration.
    #[must_use]
    pub fn with_fusion(mut self, fusion: FusionConfig) -> Self {
        self.fusion = fusion;
        self
    }

    /// Replaces the assumed superoperator configuration.
    #[must_use]
    pub fn with_superop(mut self, superop: SuperopConfig) -> Self {
        self.superop = superop;
        self
    }
}

// ---------------------------------------------------------------------------
// Independent structure classification and small matrix helpers.
// ---------------------------------------------------------------------------

/// The checker's own structure lattice (deliberately not reusing the
/// compiler's): diagonal ⊑ monomial ⊑ dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Struct {
    Diagonal,
    Monomial,
    Dense,
}

impl Struct {
    fn of(m: &CMatrix) -> Struct {
        let n = m.rows();
        if n != m.cols() {
            return Struct::Dense;
        }
        let mut diagonal = true;
        for c in 0..n {
            let mut nonzeros = 0usize;
            for r in 0..n {
                if m.get(r, c) != Complex64::ZERO {
                    nonzeros += 1;
                    if r != c {
                        diagonal = false;
                    }
                }
            }
            if nonzeros > 1 {
                return Struct::Dense;
            }
        }
        if diagonal {
            Struct::Diagonal
        } else {
            Struct::Monomial
        }
    }

    /// Cost of one superoperator sweep on a subspace of dimension `k`, in
    /// the compiler's `N²` multiply-add units.
    fn sweep_cost(self, k: usize) -> usize {
        match self {
            Struct::Diagonal => 1,
            Struct::Monomial => 2,
            Struct::Dense => k * k,
        }
    }

    /// Standalone cost of a unitary sandwich of subspace dimension `k`.
    fn sandwich_cost(self, k: usize) -> usize {
        match self {
            Struct::Diagonal => 2,
            Struct::Monomial => 4,
            Struct::Dense => 2 * k,
        }
    }
}

/// Largest entry-wise difference between two matrices (∞ on shape mismatch).
fn max_diff(a: &CMatrix, b: &CMatrix) -> f64 {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return f64::INFINITY;
    }
    let mut acc = 0.0f64;
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            acc = acc.max((a.get(r, c) - b.get(r, c)).abs());
        }
    }
    acc
}

/// Checks that a claimed classification is *sound* for `m`: acting through
/// `kind` must be indistinguishable from acting through the full matrix.
fn kind_is_sound(kind: &OpKind, m: &CMatrix) -> bool {
    let n = m.rows();
    if n != m.cols() {
        return matches!(kind, OpKind::Dense);
    }
    match kind {
        OpKind::Dense => true,
        OpKind::Diagonal(diag) => {
            if diag.len() != n {
                return false;
            }
            for r in 0..n {
                for c in 0..n {
                    let expect = if r == c { diag[r] } else { Complex64::ZERO };
                    if m.get(r, c) != expect {
                        return false;
                    }
                }
            }
            true
        }
        OpKind::Monomial { rows, coeffs, .. } => {
            if rows.len() != n || coeffs.len() != n {
                return false;
            }
            for c in 0..n {
                for r in 0..n {
                    let v = m.get(r, c);
                    let expect = if r == rows[c] { coeffs[c] } else { Complex64::ZERO };
                    if v != expect {
                        return false;
                    }
                }
            }
            true
        }
    }
}

/// Deterministic pseudo-random parameter vector (splitmix64-style), so
/// binding-invariance sampling is reproducible without an RNG dependency.
fn pseudo_params(n: usize, salt: u64) -> Vec<f64> {
    let mut x = salt ^ 0x9E37_79B9_7F4A_7C15;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x1405_7B7E_F767_814F);
            let u = ((x >> 11) as f64) / ((1u64 << 53) as f64);
            (u - 0.5) * std::f64::consts::TAU
        })
        .collect()
}

/// The wires an instruction acts on, for the commutation argument. A kept
/// barrier orders against everything (that is its purpose), so its support
/// is every wire.
fn instr_support(inst: &Instruction, num_wires: usize) -> Vec<usize> {
    match inst {
        Instruction::Unitary { targets, .. }
        | Instruction::Measure { targets }
        | Instruction::Channel { targets, .. } => targets.clone(),
        Instruction::Reset { target } => vec![*target],
        Instruction::Barrier => (0..num_wires).collect(),
    }
}

fn overlaps(a: &[usize], b: &[usize]) -> bool {
    a.iter().any(|x| b.contains(x))
}

/// Re-derives the operator a run of source gates defines on `block_targets`,
/// through the independent embed path: each gate's bound matrix is embedded
/// with [`embed_operator`] over a local radix of the block's dimensions and
/// later gates are left-multiplied (matching operator composition order).
fn block_operator(
    circuit: &Circuit,
    sources: &[usize],
    block_targets: &[usize],
    dims: &[usize],
    params: &[f64],
    step: usize,
) -> Result<CMatrix, VerifyError> {
    let local_dims: Vec<usize> = block_targets.iter().map(|&t| dims[t]).collect();
    let local_radix = Radix::new(local_dims).map_err(|e| VerifyError {
        check: Check::PlanConsistency,
        step: Some(step),
        message: format!("block dimensions are not a valid radix: {e}"),
    })?;
    let mut acc: Option<CMatrix> = None;
    for &src in sources {
        let Instruction::Unitary { gate, targets } = &circuit.instructions()[src] else {
            return fail(
                Check::Accounting,
                step,
                format!("apply step realizes non-unitary instruction {src}"),
            );
        };
        let m = gate.bound_matrix(params).map_err(|e| VerifyError {
            check: Check::Binding,
            step: Some(step),
            message: format!("gate of instruction {src} cannot be realized: {e}"),
        })?;
        let mut positions = Vec::with_capacity(targets.len());
        for t in targets {
            match block_targets.iter().position(|bt| bt == t) {
                Some(p) => positions.push(p),
                None => {
                    return fail(
                        Check::Accounting,
                        step,
                        format!("instruction {src} targets wire {t} outside the step support"),
                    )
                }
            }
        }
        let identity_order = positions.len() == block_targets.len()
            && positions.iter().copied().eq(0..positions.len());
        let embedded = if identity_order {
            m
        } else {
            embed_operator(&local_radix, &m, &positions).map_err(|e| VerifyError {
                check: Check::Semantics,
                step: Some(step),
                message: format!("embedding instruction {src} failed: {e}"),
            })?
        };
        acc = Some(match acc {
            None => embedded,
            Some(prev) => embedded.matmul(&prev).map_err(|e| VerifyError {
                check: Check::Semantics,
                step: Some(step),
                message: format!("composing instruction {src} failed: {e}"),
            })?,
        });
    }
    match acc {
        Some(op) => Ok(op),
        None => fail(Check::Accounting, step, "step realizes no instructions".into()),
    }
}

/// Checks a [`ChannelView`]'s geometry against a freshly built plan and (when
/// `expected` is given) its Kraus operators against the expected channel.
fn check_channel_view(
    cv: &ChannelView<'_>,
    radix: &Radix,
    expected: Option<&KrausChannel>,
    tol: f64,
    step: usize,
) -> Result<(), VerifyError> {
    let rebuilt = ApplyPlan::new(radix, cv.targets).map_err(|e| VerifyError {
        check: Check::PlanConsistency,
        step: Some(step),
        message: format!("channel targets {:?} admit no plan: {e}", cv.targets),
    })?;
    if rebuilt != *cv.plan {
        return fail(
            Check::PlanConsistency,
            step,
            format!("channel stride plan does not match its targets {:?}", cv.targets),
        );
    }
    check_channel(cv.channel, cv.plan.sub_dim(), expected, tol, step)
}

/// Checks a compiled channel's dimension against its plan's subspace and
/// (when `expected` is given) its Kraus operators against the expected
/// channel.
fn check_channel(
    channel: &KrausChannel,
    sub_dim: usize,
    expected: Option<&KrausChannel>,
    tol: f64,
    step: usize,
) -> Result<(), VerifyError> {
    let k: usize = channel.dims().iter().product();
    if k != sub_dim {
        return fail(
            Check::PlanConsistency,
            step,
            format!("channel dimension {k} disagrees with plan subspace {sub_dim}"),
        );
    }
    if let Some(model) = expected {
        if model.operators().len() != channel.operators().len() || model.dims() != channel.dims() {
            return fail(
                Check::Semantics,
                step,
                format!(
                    "channel '{}' shape differs from the expected '{}'",
                    channel.name(),
                    model.name()
                ),
            );
        }
        for (a, b) in channel.operators().iter().zip(model.operators().iter()) {
            if max_diff(a, b) > tol {
                return fail(
                    Check::Semantics,
                    step,
                    format!("channel '{}' Kraus operators differ from the source", channel.name()),
                );
            }
        }
        if (channel.tolerance() - model.tolerance()).abs() > tol {
            return fail(
                Check::TracePreservation,
                step,
                format!("channel '{}' carries a different tolerance", channel.name()),
            );
        }
    }
    Ok(())
}

/// Checks a density step's plan (a [`SandwichPlan`] or a [`SuperPlan`])
/// against `rebuild`, a freshly built plan of the same kind for `targets`;
/// `what` names the step kind in the message.
fn check_density_plan<P: PartialEq>(
    plan: &P,
    rebuild: impl FnOnce() -> qudit_core::Result<P>,
    targets: &[usize],
    what: &str,
    step: usize,
) -> Result<(), VerifyError> {
    let rebuilt = rebuild().map_err(|e| VerifyError {
        check: Check::PlanConsistency,
        step: Some(step),
        message: format!("{what} targets {targets:?} admit no plan: {e}"),
    })?;
    if rebuilt != *plan {
        return fail(
            Check::PlanConsistency,
            step,
            format!("{what} stride plan does not match its targets {targets:?}"),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Statevector plan verification.
// ---------------------------------------------------------------------------

/// Verifies a compiled statevector plan against its source circuit at the
/// compile-time (all-zero) binding.
///
/// Structural checks run on every step; entry-wise operator re-derivation is
/// skipped for steps the handle has rebound (their binding is unknown here —
/// use [`verify_statevector_bound`] to prove a bound handle).
///
/// # Errors
/// Returns the first [`VerifyError`] found; a returned `Ok` report means the
/// plan is a faithful translation.
pub fn verify_statevector(
    circuit: &Circuit,
    compiled: &CompiledCircuit,
    config: &VerifyConfig,
) -> Result<VerifyReport, VerifyError> {
    verify_sv_inner(circuit, compiled, None, config)
}

/// Verifies a compiled statevector plan against its source circuit at the
/// binding `params` the handle was rebound to.
///
/// # Errors
/// Returns the first [`VerifyError`] found, including a stale or missing
/// binding override.
pub fn verify_statevector_bound(
    circuit: &Circuit,
    compiled: &CompiledCircuit,
    params: &[f64],
    config: &VerifyConfig,
) -> Result<VerifyReport, VerifyError> {
    verify_sv_inner(circuit, compiled, Some(params), config)
}

fn verify_sv_inner(
    circuit: &Circuit,
    compiled: &CompiledCircuit,
    params: Option<&[f64]>,
    config: &VerifyConfig,
) -> Result<VerifyReport, VerifyError> {
    let view = introspect::statevector(compiled);
    let dims = circuit.dims();
    let mut report = VerifyReport::default();

    if view.dims() != dims {
        return fail(
            Check::Shape,
            None,
            format!("plan dims {:?} differ from circuit dims {:?}", view.dims(), dims),
        );
    }
    if view.num_params() != circuit.num_params() {
        return fail(
            Check::Shape,
            None,
            format!(
                "plan expects {} parameters, circuit has {}",
                view.num_params(),
                circuit.num_params()
            ),
        );
    }
    if let Some(p) = params {
        if p.len() < circuit.num_params() {
            return fail(
                Check::Binding,
                None,
                format!("binding supplies {} of {} parameters", p.len(), circuit.num_params()),
            );
        }
    }
    let radix = Radix::new(dims.to_vec()).map_err(|e| VerifyError {
        check: Check::Shape,
        step: None,
        message: format!("circuit dims are not a valid radix: {e}"),
    })?;
    let zeros = vec![0.0f64; circuit.num_params()];
    let binding: &[f64] = params.unwrap_or(&zeros);

    // --- Instruction accounting ------------------------------------------
    let n_inst = circuit.len();
    let mut count = vec![0usize; n_inst];
    let mut pos: Vec<Option<(usize, usize)>> = vec![None; n_inst];
    for s in 0..view.num_steps() {
        let sources = view.sources(s);
        if sources.is_empty() {
            return fail(Check::Accounting, s, "step realizes no instructions".into());
        }
        for (k, &src) in sources.iter().enumerate() {
            if src >= n_inst {
                return fail(Check::Accounting, s, format!("source index {src} out of range"));
            }
            if k > 0 && src <= sources[k - 1] {
                return fail(
                    Check::Accounting,
                    s,
                    format!("step sources {sources:?} are not strictly ascending"),
                );
            }
            count[src] += 1;
            pos[src] = Some((s, k));
        }
        if sources.len() > 1 && !matches!(view.step(s), StepView::Apply { .. }) {
            return fail(Check::Accounting, s, "only apply steps may fuse instructions".into());
        }
    }
    for (i, inst) in circuit.instructions().iter().enumerate() {
        match inst {
            Instruction::Barrier => {
                if count[i] == 0 {
                    if !view.barrier_loss().is_empty() {
                        return fail(
                            Check::Accounting,
                            None,
                            format!("lossy barrier {i} was dropped from the plan"),
                        );
                    }
                } else if count[i] != 1 {
                    return fail(
                        Check::Accounting,
                        None,
                        format!("barrier {i} realized {} times", count[i]),
                    );
                }
            }
            _ => {
                if count[i] != 1 {
                    return fail(
                        Check::Accounting,
                        None,
                        format!("instruction {i} realized {} times (expected once)", count[i]),
                    );
                }
            }
        }
    }

    // --- Ordering: overlapping supports must keep program order ----------
    let supports: Vec<Option<Vec<usize>>> = circuit
        .instructions()
        .iter()
        .enumerate()
        .map(|(i, inst)| (count[i] > 0).then(|| instr_support(inst, dims.len())))
        .collect();
    for i in 0..n_inst {
        let Some(si) = &supports[i] else { continue };
        for j in (i + 1)..n_inst {
            let Some(sj) = &supports[j] else { continue };
            if !overlaps(si, sj) {
                continue;
            }
            let (pi, pj) = (pos[i].expect("counted"), pos[j].expect("counted"));
            if pi >= pj {
                return fail(
                    Check::Ordering,
                    pi.0,
                    format!(
                        "instructions {i} and {j} share wires but execute out of program order \
                         (steps {} and {})",
                        pi.0, pj.0
                    ),
                );
            }
        }
    }

    // --- Binding overrides: ascending, one per rebindable step ------------
    let mut overrides: Vec<(usize, &CMatrix, &OpKind)> = Vec::new();
    let mut last_override: Option<usize> = None;
    for (s, op, kind) in view.overrides() {
        if s >= view.num_steps() {
            return fail(Check::Binding, s, "override points past the plan".into());
        }
        if last_override.is_some_and(|p| p >= s) {
            return fail(Check::Binding, s, "overrides are not ascending by step".into());
        }
        last_override = Some(s);
        overrides.push((s, op, kind));
    }

    // --- Per-step checks ---------------------------------------------------
    for s in 0..view.num_steps() {
        let sources = view.sources(s);
        match view.step(s) {
            StepView::Apply {
                targets,
                plan,
                op,
                kind,
                noise,
                rebindable,
                diagonal_for_all_bindings,
            } => {
                // Target/dimension consistency.
                let mut any_free = false;
                let mut member_dims = Vec::with_capacity(sources.len());
                for &src in sources {
                    let Instruction::Unitary { gate, .. } = &circuit.instructions()[src] else {
                        return fail(
                            Check::Accounting,
                            s,
                            format!("apply step realizes non-unitary instruction {src}"),
                        );
                    };
                    any_free |= gate.free_param().is_some();
                    member_dims.push(gate.matrix().rows());
                }
                if sources.len() == 1 {
                    // The fusion pass may canonicalise a lone gate's targets
                    // to ascending order (permuting the operator to match);
                    // the semantic comparison below proves the permutation,
                    // so only the *set* of wires is pinned here.
                    let Instruction::Unitary { targets: it, .. } =
                        &circuit.instructions()[sources[0]]
                    else {
                        unreachable!("checked above");
                    };
                    let mut a: Vec<usize> = targets.to_vec();
                    let mut b = it.clone();
                    a.sort_unstable();
                    b.sort_unstable();
                    if a != b {
                        return fail(
                            Check::Accounting,
                            s,
                            format!("step targets {targets:?} differ from instruction's {it:?}"),
                        );
                    }
                } else {
                    let mut expected: Vec<usize> = sources
                        .iter()
                        .flat_map(|&src| {
                            let Instruction::Unitary { targets: it, .. } =
                                &circuit.instructions()[src]
                            else {
                                unreachable!("checked above");
                            };
                            it.iter().copied()
                        })
                        .collect();
                    expected.sort_unstable();
                    expected.dedup();
                    if targets != expected.as_slice() {
                        return fail(
                            Check::Accounting,
                            s,
                            format!(
                                "fused block targets {targets:?} differ from member union \
                                 {expected:?}"
                            ),
                        );
                    }
                }
                // Plan consistency.
                let rebuilt = ApplyPlan::new(&radix, targets).map_err(|e| VerifyError {
                    check: Check::PlanConsistency,
                    step: Some(s),
                    message: format!("step targets {targets:?} admit no plan: {e}"),
                })?;
                if rebuilt != *plan {
                    return fail(
                        Check::PlanConsistency,
                        s,
                        format!("stride plan does not match targets {targets:?}"),
                    );
                }
                if op.rows() != plan.sub_dim() || op.cols() != plan.sub_dim() {
                    return fail(
                        Check::PlanConsistency,
                        s,
                        format!(
                            "operator is {}×{} on a subspace of dimension {}",
                            op.rows(),
                            op.cols(),
                            plan.sub_dim()
                        ),
                    );
                }
                if !kind_is_sound(kind, op) {
                    return fail(
                        Check::PlanConsistency,
                        s,
                        "structure classification is unsound for the step operator".into(),
                    );
                }
                // Noise attachment must match the model.
                if sources.len() == 1 {
                    let expected_noise =
                        config.noise.channels_after_gate(targets, dims).map_err(|e| {
                            VerifyError {
                                check: Check::Semantics,
                                step: Some(s),
                                message: format!("noise model rejects targets {targets:?}: {e}"),
                            }
                        })?;
                    if noise.len() != expected_noise.len() {
                        return fail(
                            Check::Semantics,
                            s,
                            format!(
                                "step carries {} noise channels, model defines {}",
                                noise.len(),
                                expected_noise.len()
                            ),
                        );
                    }
                    for (cv, (ch, qudit)) in noise.iter().zip(expected_noise.iter()) {
                        if cv.targets != [*qudit] {
                            return fail(
                                Check::Semantics,
                                s,
                                format!(
                                    "noise channel targets {:?}, model says {qudit}",
                                    cv.targets
                                ),
                            );
                        }
                        check_channel_view(cv, &radix, Some(ch), config.tol, s)?;
                    }
                } else {
                    if !noise.is_empty() {
                        return fail(
                            Check::Semantics,
                            s,
                            "fused blocks must not carry noise channels".into(),
                        );
                    }
                    for &src in sources {
                        let Instruction::Unitary { targets: it, .. } = &circuit.instructions()[src]
                        else {
                            unreachable!("checked above");
                        };
                        let ch = config.noise.channels_after_gate(it, dims).map_err(|e| {
                            VerifyError {
                                check: Check::Semantics,
                                step: Some(s),
                                message: format!("noise model rejects targets {it:?}: {e}"),
                            }
                        })?;
                        if !ch.is_empty() {
                            return fail(
                                Check::Semantics,
                                s,
                                format!(
                                    "instruction {src} is noisy under the model but was fused \
                                     (its channels are lost)"
                                ),
                            );
                        }
                    }
                }
                // Fusion budget (the documented merge-rule invariants).
                if sources.len() >= 2 {
                    report.fused_blocks += 1;
                    let sub = plan.sub_dim();
                    let total: usize = member_dims.iter().sum();
                    let largest = member_dims.iter().copied().max().unwrap_or(0);
                    if sub > total {
                        return fail(
                            Check::FusionBudget,
                            s,
                            format!(
                                "fused block of dimension {sub} exceeds its members' summed \
                                 dimensions {total} (fusion would increase cost)"
                            ),
                        );
                    }
                    if sub > largest
                        && (targets.len() > config.fusion.max_qudits || sub > config.fusion.max_dim)
                    {
                        return fail(
                            Check::FusionBudget,
                            s,
                            format!(
                                "grown block spans {} qudits (dim {sub}) beyond the budget \
                                 ({} qudits / dim {})",
                                targets.len(),
                                config.fusion.max_qudits,
                                config.fusion.max_dim
                            ),
                        );
                    }
                }
                // Rebindable classification.
                if rebindable != any_free {
                    return fail(
                        Check::Classification,
                        s,
                        format!(
                            "step rebindable={rebindable} but sources have \
                             free parameters={any_free}"
                        ),
                    );
                }
                // Effective operator under the requested binding.
                let override_op = overrides.iter().find(|(os, _, _)| *os == s);
                if !rebindable && override_op.is_some() {
                    return fail(
                        Check::Binding,
                        s,
                        "override on a binding-independent step".into(),
                    );
                }
                let effective: Option<&CMatrix> = if rebindable {
                    match (params, override_op) {
                        (Some(_), Some((_, m, k))) => {
                            if !kind_is_sound(k, m) {
                                return fail(
                                    Check::Binding,
                                    s,
                                    "override classification is unsound".into(),
                                );
                            }
                            Some(m)
                        }
                        (Some(_), None) => {
                            return fail(
                                Check::Binding,
                                s,
                                "rebindable step carries no override for the requested binding"
                                    .into(),
                            )
                        }
                        // Binding unknown: structure was checked; skip the
                        // entry-wise comparison for this step.
                        (None, Some(_)) => None,
                        (None, None) => Some(op),
                    }
                } else {
                    Some(op)
                };
                if let Some(eff) = effective {
                    if plan.sub_dim() <= config.max_dense_dim {
                        let expected = block_operator(circuit, sources, targets, dims, binding, s)?;
                        if max_diff(&expected, eff) > config.tol {
                            return fail(
                                Check::Semantics,
                                s,
                                format!(
                                    "step operator differs from the sources' product by {:.3e}",
                                    max_diff(&expected, eff)
                                ),
                            );
                        }
                        report.operators_compared += 1;
                    }
                }
                // Binding invariance of the free-part classification.
                if rebindable {
                    for sample in 0..config.sample_bindings {
                        let pv =
                            pseudo_params(circuit.num_params(), (s as u64) << 8 | sample as u64);
                        let realized = view
                            .realize(s, &pv)
                            .expect("rebindable steps have a recipe")
                            .map_err(|e| VerifyError {
                                check: Check::Binding,
                                step: Some(s),
                                message: format!("recipe fails at a sampled binding: {e}"),
                            })?;
                        if diagonal_for_all_bindings == Some(true)
                            && Struct::of(&realized) != Struct::Diagonal
                        {
                            return fail(
                                Check::Classification,
                                s,
                                "diagonal-at-every-binding claim fails at a sampled binding".into(),
                            );
                        }
                        if plan.sub_dim() <= config.max_dense_dim {
                            let expected = block_operator(circuit, sources, targets, dims, &pv, s)?;
                            if max_diff(&expected, &realized) > config.tol {
                                return fail(
                                    Check::Semantics,
                                    s,
                                    "recipe re-materialisation differs from the sources at a \
                                     sampled binding"
                                        .into(),
                                );
                            }
                            report.operators_compared += 1;
                        }
                        report.bindings_sampled += 1;
                    }
                }
            }
            StepView::Channel(cv) => {
                let Instruction::Channel { channel, targets } = &circuit.instructions()[sources[0]]
                else {
                    return fail(
                        Check::Accounting,
                        s,
                        "channel step realizes a non-channel".into(),
                    );
                };
                if cv.targets != targets.as_slice() {
                    return fail(
                        Check::Accounting,
                        s,
                        format!(
                            "channel targets {:?} differ from instruction's {targets:?}",
                            cv.targets
                        ),
                    );
                }
                check_channel_view(&cv, &radix, Some(channel), config.tol, s)?;
            }
            StepView::Measure { targets } => {
                let Instruction::Measure { targets: it } = &circuit.instructions()[sources[0]]
                else {
                    return fail(
                        Check::Accounting,
                        s,
                        "measure step realizes a non-measure".into(),
                    );
                };
                if targets != it.as_slice() {
                    return fail(
                        Check::Accounting,
                        s,
                        format!("measure targets {targets:?} differ from instruction's {it:?}"),
                    );
                }
            }
            StepView::Reset { target } => {
                let Instruction::Reset { target: it } = &circuit.instructions()[sources[0]] else {
                    return fail(Check::Accounting, s, "reset step realizes a non-reset".into());
                };
                if target != *it {
                    return fail(
                        Check::Accounting,
                        s,
                        format!("reset target {target} differs from instruction's {it}"),
                    );
                }
            }
            StepView::Barrier => {
                if !matches!(circuit.instructions()[sources[0]], Instruction::Barrier) {
                    return fail(
                        Check::Accounting,
                        s,
                        "barrier step realizes a non-barrier".into(),
                    );
                }
            }
        }
    }

    // --- Barrier idle-loss channels ---------------------------------------
    let barrier_loss = view.barrier_loss();
    if config.noise.idle_photon_loss > 0.0 && !barrier_loss.is_empty() {
        if barrier_loss.len() != dims.len() {
            return fail(
                Check::Semantics,
                None,
                format!(
                    "{} idle-loss channels for a {}-wire register",
                    barrier_loss.len(),
                    dims.len()
                ),
            );
        }
        for (q, cv) in barrier_loss.iter().enumerate() {
            if cv.targets != [q] {
                return fail(
                    Check::Semantics,
                    None,
                    format!("idle-loss channel {q} targets {:?}", cv.targets),
                );
            }
            let expected = KrausChannel::photon_loss(dims[q], config.noise.idle_photon_loss)
                .map_err(|e| VerifyError {
                    check: Check::Semantics,
                    step: None,
                    message: format!("idle-loss channel cannot be rebuilt: {e}"),
                })?;
            check_channel_view(cv, &radix, Some(&expected), config.tol, 0)?;
        }
    }

    report.steps = view.num_steps();
    Ok(report)
}

// ---------------------------------------------------------------------------
// Density plan verification.
// ---------------------------------------------------------------------------

/// The checker's independent model of one density constituent, rebuilt from
/// the source circuit and the assumed noise model.
enum ItemModel {
    Unitary {
        targets: Vec<usize>,
        /// Operator at the verification binding.
        op: CMatrix,
        parametric: bool,
        /// Trace-preservation allowance the item contributes to a fold.
        tol: f64,
        /// Conservative (binding-independent) structure class.
        cons: Struct,
    },
    Channel {
        channel: KrausChannel,
        targets: Vec<usize>,
        /// The channel's superoperator `Σ K ⊗ conj(K)`.
        sup: CMatrix,
        sup_class: Struct,
        /// Whether the compiler may fold this channel into a sweep.
        sweepable: bool,
    },
}

impl ItemModel {
    fn targets(&self) -> &[usize] {
        match self {
            ItemModel::Unitary { targets, .. } | ItemModel::Channel { targets, .. } => targets,
        }
    }

    fn parametric(&self) -> bool {
        matches!(self, ItemModel::Unitary { parametric: true, .. })
    }

    fn sub_dim(&self, dims: &[usize]) -> usize {
        self.targets().iter().map(|&t| dims[t]).product()
    }

    /// Standalone cost in the compiler's `N²` units (the cost of *not*
    /// folding this item).
    fn standalone_cost(&self, dims: &[usize]) -> usize {
        let k = self.sub_dim(dims);
        match self {
            ItemModel::Unitary { cons, .. } => cons.sandwich_cost(k),
            ItemModel::Channel { sup_class, .. } => sup_class.sweep_cost(k),
        }
    }

    /// The item's superoperator at the verification binding.
    fn superop(&self) -> Result<CMatrix, VerifyError> {
        match self {
            ItemModel::Unitary { op, .. } => Ok(op.kron(&op.conj())),
            ItemModel::Channel { sup, .. } => Ok(sup.clone()),
        }
    }
}

/// Raw superoperator of a Kraus channel: `Σ K ⊗ conj(K)`.
fn kraus_sup(ops: &[CMatrix]) -> CMatrix {
    let k = ops[0].rows();
    let mut acc = CMatrix::zeros(k * k, k * k);
    for op in ops {
        let term = op.kron(&op.conj());
        for r in 0..k * k {
            for c in 0..k * k {
                acc.set(r, c, acc.get(r, c) + term.get(r, c));
            }
        }
    }
    acc
}

/// Embeds a superoperator on `from` into the doubled space of `union`
/// through the independent embed path: ket positions first, bra positions
/// shifted by the union width.
fn embed_super_independent(
    sup: &CMatrix,
    from: &[usize],
    union: &[usize],
    dims: &[usize],
    step: usize,
) -> Result<CMatrix, VerifyError> {
    let n = union.len();
    let mut doubled: Vec<usize> = union.iter().map(|&t| dims[t]).collect();
    doubled.extend(doubled.clone());
    let radix = Radix::new(doubled).map_err(|e| VerifyError {
        check: Check::PlanConsistency,
        step: Some(step),
        message: format!("doubled union dims are not a valid radix: {e}"),
    })?;
    let mut positions = Vec::with_capacity(2 * from.len());
    for t in from {
        match union.iter().position(|u| u == t) {
            Some(p) => positions.push(p),
            None => {
                return fail(
                    Check::Accounting,
                    step,
                    format!("constituent targets wire {t} outside the sweep support"),
                )
            }
        }
    }
    let bra: Vec<usize> = positions.iter().map(|&p| p + n).collect();
    positions.extend(bra);
    if positions.len() == 2 * n && positions.iter().copied().eq(0..2 * n) {
        return Ok(sup.clone());
    }
    embed_operator(&radix, sup, &positions).map_err(|e| VerifyError {
        check: Check::Semantics,
        step: Some(step),
        message: format!("embedding a constituent superoperator failed: {e}"),
    })
}

/// Conservative (binding-independent) structure class of a run of gates:
/// diagonal only when every constituent is diagonal at every binding.
fn conservative_class(
    circuit: &Circuit,
    sources: &[usize],
    parametric: bool,
    op: &CMatrix,
) -> Struct {
    if !parametric {
        return Struct::of(op);
    }
    let all_diagonal = sources.iter().all(|&src| {
        let Instruction::Unitary { gate, .. } = &circuit.instructions()[src] else {
            return false;
        };
        if gate.free_param().is_some() {
            gate.has_diagonal_generator()
        } else {
            matches!(Struct::of(gate.matrix()), Struct::Diagonal)
        }
    });
    if all_diagonal {
        Struct::Diagonal
    } else {
        Struct::Dense
    }
}

/// Verifies a compiled density plan against its source circuit at the
/// compile-time (all-zero) binding. See [`verify_statevector`] for the
/// binding semantics; use [`verify_density_bound`] for a rebound handle.
///
/// # Errors
/// Returns the first [`VerifyError`] found.
pub fn verify_density(
    circuit: &Circuit,
    compiled: &CompiledDensityCircuit,
    config: &VerifyConfig,
) -> Result<VerifyReport, VerifyError> {
    verify_dm_inner(circuit, compiled, None, config)
}

/// Verifies a compiled density plan at the binding `params` the handle was
/// rebound to.
///
/// # Errors
/// Returns the first [`VerifyError`] found.
pub fn verify_density_bound(
    circuit: &Circuit,
    compiled: &CompiledDensityCircuit,
    params: &[f64],
    config: &VerifyConfig,
) -> Result<VerifyReport, VerifyError> {
    verify_dm_inner(circuit, compiled, Some(params), config)
}

#[allow(clippy::too_many_lines)]
fn verify_dm_inner(
    circuit: &Circuit,
    compiled: &CompiledDensityCircuit,
    params: Option<&[f64]>,
    config: &VerifyConfig,
) -> Result<VerifyReport, VerifyError> {
    let view = introspect::density(compiled);
    let dims = circuit.dims();
    let mut report = VerifyReport::default();

    if view.dims() != dims {
        return fail(
            Check::Shape,
            None,
            format!("plan dims {:?} differ from circuit dims {:?}", view.dims(), dims),
        );
    }
    if view.num_params() != circuit.num_params() {
        return fail(
            Check::Shape,
            None,
            format!(
                "plan expects {} parameters, circuit has {}",
                view.num_params(),
                circuit.num_params()
            ),
        );
    }
    if let Some(p) = params {
        if p.len() < circuit.num_params() {
            return fail(
                Check::Binding,
                None,
                format!("binding supplies {} of {} parameters", p.len(), circuit.num_params()),
            );
        }
    }
    let radix = Radix::new(dims.to_vec()).map_err(|e| VerifyError {
        check: Check::Shape,
        step: None,
        message: format!("circuit dims are not a valid radix: {e}"),
    })?;
    let zeros = vec![0.0f64; circuit.num_params()];
    let binding: &[f64] = params.unwrap_or(&zeros);
    let n_inst = circuit.len();

    // --- Rebuild each constituent item from the source circuit -----------
    let mut models: Vec<ItemModel> = Vec::with_capacity(view.num_items());
    // Per-instruction bookkeeping for the accounting pass.
    let mut primary_count = vec![0usize; n_inst];
    let mut dephase_targets: Vec<Vec<usize>> = vec![Vec::new(); n_inst];
    let mut reset_count = vec![0usize; n_inst];
    let sem = |step: Option<usize>, message: String| VerifyError {
        check: Check::Semantics,
        step,
        message,
    };
    for id in 0..view.num_items() {
        let origin = view.item(id);
        if origin.sources.is_empty() {
            return fail(Check::Accounting, None, format!("item {id} has no sources"));
        }
        for &src in &origin.sources {
            if src >= n_inst {
                return fail(Check::Accounting, None, format!("item {id} source out of range"));
            }
        }
        let first = origin.sources[0];
        let model = match origin.role {
            DensityRole::Primary => {
                match &circuit.instructions()[first] {
                    Instruction::Unitary { .. } => {
                        // A (possibly fused) run of gates; re-derive its
                        // operator and check the fusion invariants here,
                        // mirroring the statevector path.
                        let mut expected: Vec<usize> = Vec::new();
                        let mut member_dims = Vec::new();
                        let mut any_free = false;
                        for (k, &src) in origin.sources.iter().enumerate() {
                            if k > 0 && src <= origin.sources[k - 1] {
                                return fail(
                                    Check::Accounting,
                                    None,
                                    format!("item {id} sources are not ascending"),
                                );
                            }
                            let Instruction::Unitary { gate, targets } =
                                &circuit.instructions()[src]
                            else {
                                return fail(
                                    Check::Accounting,
                                    None,
                                    format!("item {id} fuses non-unitary instruction {src}"),
                                );
                            };
                            primary_count[src] += 1;
                            expected.extend(targets.iter().copied());
                            member_dims.push(gate.matrix().rows());
                            any_free |= gate.free_param().is_some();
                        }
                        let targets = if origin.sources.len() == 1 {
                            // Lone gates may be canonicalised to ascending
                            // target order (see the statevector path); pin
                            // the wire *set* and adopt the emitted order so
                            // the semantic check proves the permutation.
                            let mut a = origin.targets.clone();
                            let mut b = expected.clone();
                            a.sort_unstable();
                            b.sort_unstable();
                            if a != b {
                                return fail(
                                    Check::Accounting,
                                    None,
                                    format!(
                                        "item {id} targets {:?} differ from its instruction's \
                                         {expected:?}",
                                        origin.targets
                                    ),
                                );
                            }
                            origin.targets.clone()
                        } else {
                            expected.sort_unstable();
                            expected.dedup();
                            let sub: usize = expected.iter().map(|&t| dims[t]).product();
                            let total: usize = member_dims.iter().sum();
                            let largest = member_dims.iter().copied().max().unwrap_or(0);
                            if sub > total {
                                return fail(
                                    Check::FusionBudget,
                                    None,
                                    format!(
                                        "item {id}: block dim {sub} exceeds member sum {total}"
                                    ),
                                );
                            }
                            if sub > largest
                                && (expected.len() > config.fusion.max_qudits
                                    || sub > config.fusion.max_dim)
                            {
                                return fail(
                                    Check::FusionBudget,
                                    None,
                                    format!("item {id}: grown block exceeds the fusion budget"),
                                );
                            }
                            expected
                        };
                        if origin.targets != targets {
                            return fail(
                                Check::Accounting,
                                None,
                                format!(
                                    "item {id} targets {:?} differ from expected {targets:?}",
                                    origin.targets
                                ),
                            );
                        }
                        let op =
                            block_operator(circuit, &origin.sources, &targets, dims, binding, 0)?;
                        let cons = conservative_class(circuit, &origin.sources, any_free, &op);
                        if origin.parametric != any_free {
                            return fail(
                                Check::Classification,
                                None,
                                format!("item {id}: parametric flag disagrees with its gates"),
                            );
                        }
                        ItemModel::Unitary { targets, op, parametric: any_free, tol: 0.0, cons }
                    }
                    Instruction::Channel { channel, targets } => {
                        if origin.sources.len() != 1 {
                            return fail(
                                Check::Accounting,
                                None,
                                format!("item {id} fuses a channel instruction"),
                            );
                        }
                        primary_count[first] += 1;
                        if origin.targets != *targets {
                            return fail(
                                Check::Accounting,
                                None,
                                format!("item {id} targets differ from the channel instruction"),
                            );
                        }
                        channel_item_model(channel.clone(), targets.clone(), config)
                    }
                    other => {
                        return fail(
                            Check::Accounting,
                            None,
                            format!("item {id}: primary role on {other:?}"),
                        )
                    }
                }
            }
            DensityRole::GateNoise(j) => {
                let Instruction::Unitary { targets, .. } = &circuit.instructions()[first] else {
                    return fail(
                        Check::Accounting,
                        None,
                        format!("item {id}: gate-noise role on a non-unitary"),
                    );
                };
                let channels = config.noise.channels_after_gate(targets, dims).map_err(|e| {
                    sem(None, format!("noise model rejects targets {targets:?}: {e}"))
                })?;
                let Some((ch, qudit)) = channels.get(j) else {
                    return fail(
                        Check::Semantics,
                        None,
                        format!(
                            "item {id}: model defines {} channels, role wants {j}",
                            channels.len()
                        ),
                    );
                };
                if origin.targets != [*qudit] {
                    return fail(
                        Check::Semantics,
                        None,
                        format!("item {id}: noise channel targets {:?}", origin.targets),
                    );
                }
                channel_item_model(ch.clone(), vec![*qudit], config)
            }
            DensityRole::MeasureDephase(t) => {
                let Instruction::Measure { targets } = &circuit.instructions()[first] else {
                    return fail(
                        Check::Accounting,
                        None,
                        format!("item {id}: dephase role on a non-measure"),
                    );
                };
                if !targets.contains(&t) {
                    return fail(
                        Check::Accounting,
                        None,
                        format!("item {id}: dephasing wire {t} is not measured"),
                    );
                }
                if origin.targets != [t] {
                    return fail(
                        Check::Accounting,
                        None,
                        format!("item {id}: dephasing targets {:?}", origin.targets),
                    );
                }
                dephase_targets[first].push(t);
                let ch = KrausChannel::dephasing(dims[t], 1.0)
                    .map_err(|e| sem(None, format!("dephasing channel: {e}")))?;
                channel_item_model(ch, vec![t], config)
            }
            DensityRole::Reset => {
                let Instruction::Reset { target } = &circuit.instructions()[first] else {
                    return fail(
                        Check::Accounting,
                        None,
                        format!("item {id}: reset role on a non-reset"),
                    );
                };
                if origin.targets != [*target] {
                    return fail(
                        Check::Accounting,
                        None,
                        format!("item {id}: reset targets {:?}", origin.targets),
                    );
                }
                reset_count[first] += 1;
                let d = dims[*target];
                let ops: Vec<CMatrix> = (0..d)
                    .map(|i| {
                        let mut k = CMatrix::zeros(d, d);
                        k.set(0, i, c64(1.0, 0.0));
                        k
                    })
                    .collect();
                let ch = KrausChannel::new("reset", vec![d], ops)
                    .map_err(|e| sem(None, format!("reset channel: {e}")))?;
                channel_item_model(ch, vec![*target], config)
            }
            DensityRole::BarrierLoss(q) => {
                if !matches!(circuit.instructions()[first], Instruction::Barrier) {
                    return fail(
                        Check::Accounting,
                        None,
                        format!("item {id}: barrier-loss role on a non-barrier"),
                    );
                }
                if config.noise.idle_photon_loss <= 0.0 {
                    return fail(
                        Check::Accounting,
                        None,
                        format!("item {id}: barrier loss under a model without idle loss"),
                    );
                }
                if origin.targets != [q] {
                    return fail(
                        Check::Accounting,
                        None,
                        format!("item {id}: barrier-loss targets {:?}", origin.targets),
                    );
                }
                let ch = KrausChannel::photon_loss(dims[q], config.noise.idle_photon_loss)
                    .map_err(|e| sem(None, format!("idle-loss channel: {e}")))?;
                channel_item_model(ch, vec![q], config)
            }
        };
        if model.parametric() != origin.parametric {
            return fail(
                Check::Classification,
                None,
                format!("item {id}: parametric flag mismatch"),
            );
        }
        models.push(model);
    }
    report.items = models.len();

    // --- Item-level accounting against the circuit ------------------------
    for (i, inst) in circuit.instructions().iter().enumerate() {
        match inst {
            Instruction::Unitary { .. } | Instruction::Channel { .. } => {
                if primary_count[i] != 1 {
                    return fail(
                        Check::Accounting,
                        None,
                        format!(
                            "instruction {i} realized {} times (expected once)",
                            primary_count[i]
                        ),
                    );
                }
            }
            Instruction::Measure { targets } => {
                let mut seen = dephase_targets[i].clone();
                seen.sort_unstable();
                let mut want = targets.clone();
                want.sort_unstable();
                if seen != want {
                    return fail(
                        Check::Accounting,
                        None,
                        format!("measure {i} dephases wires {seen:?}, expected {want:?}"),
                    );
                }
            }
            Instruction::Reset { .. } => {
                if reset_count[i] != 1 {
                    return fail(
                        Check::Accounting,
                        None,
                        format!("reset {i} realized {} times", reset_count[i]),
                    );
                }
            }
            Instruction::Barrier => {} // zero items when lossless; counted via roles
        }
    }

    // --- Item ordering: overlapping supports keep program order ----------
    // Each item spans an interval of (source position, rank, sub-rank) keys:
    // primaries rank 0, derived channels rank 1. Two wire-sharing items must
    // have disjoint intervals, ordered the same way the plan executes them.
    let key_lo = |id: usize| -> (usize, usize, usize) {
        let o = view.item(id);
        let src = *o.sources.first().expect("non-empty");
        match o.role {
            DensityRole::Primary => (src, 0, 0),
            DensityRole::GateNoise(j) => (src, 1, j),
            DensityRole::MeasureDephase(t) => (src, 1, t),
            DensityRole::Reset => (src, 1, 0),
            DensityRole::BarrierLoss(q) => (src, 1, q),
        }
    };
    let key_hi = |id: usize| -> (usize, usize, usize) {
        let o = view.item(id);
        let src = *o.sources.last().expect("non-empty");
        let lo = key_lo(id);
        (src, lo.1, lo.2)
    };
    // Execution order of each item: (step, position within the sweep).
    let mut item_order: Vec<Option<(usize, usize)>> = vec![None; view.num_items()];
    let mut consumed = vec![0usize; view.num_items()];
    for s in 0..view.num_steps() {
        let ids = view.step_items(s);
        if ids.is_empty() {
            return fail(Check::Accounting, s, "step consumes no items".into());
        }
        for (k, &id) in ids.iter().enumerate() {
            if id >= view.num_items() {
                return fail(Check::Accounting, s, format!("step consumes unknown item {id}"));
            }
            if k > 0 && id <= ids[k - 1] {
                return fail(
                    Check::Ordering,
                    s,
                    "sweep constituents are not in ascending program order".into(),
                );
            }
            consumed[id] += 1;
            item_order[id] = Some((s, k));
        }
    }
    if let Some(id) = consumed.iter().position(|&c| c != 1) {
        return fail(
            Check::Accounting,
            None,
            format!("item {id} consumed {} times (expected once)", consumed[id]),
        );
    }
    for a in 0..view.num_items() {
        for b in (a + 1)..view.num_items() {
            if !overlaps(models[a].targets(), models[b].targets()) {
                continue;
            }
            let (oa, ob) = (item_order[a].expect("consumed"), item_order[b].expect("consumed"));
            let (before, after, ob_first) = if key_hi(a) < key_lo(b) {
                (oa, ob, false)
            } else if key_hi(b) < key_lo(a) {
                (ob, oa, true)
            } else {
                return fail(
                    Check::Ordering,
                    None,
                    format!("items {a} and {b} share wires with interleaved program ranges"),
                );
            };
            if before >= after {
                let (x, y) = if ob_first { (b, a) } else { (a, b) };
                return fail(
                    Check::Ordering,
                    None,
                    format!("items {x} and {y} share wires but execute out of program order"),
                );
            }
        }
    }

    // --- Overrides ---------------------------------------------------------
    let mut overrides: Vec<(usize, &CMatrix, &OpKind)> = Vec::new();
    let mut last_override: Option<usize> = None;
    for (s, op, kind) in view.overrides() {
        if s >= view.num_steps() {
            return fail(Check::Binding, s, "override points past the plan".into());
        }
        if last_override.is_some_and(|p| p >= s) {
            return fail(Check::Binding, s, "overrides are not ascending by step".into());
        }
        last_override = Some(s);
        overrides.push((s, op, kind));
    }

    // --- Per-step checks ---------------------------------------------------
    for s in 0..view.num_steps() {
        let ids = view.step_items(s);
        let parametric = ids.iter().any(|&id| models[id].parametric());
        if view.rebindable(s) != parametric {
            return fail(
                Check::Classification,
                s,
                format!(
                    "step rebindable={} but constituents parametric={parametric}",
                    view.rebindable(s)
                ),
            );
        }
        let override_op = overrides.iter().find(|(os, _, _)| *os == s);
        if !parametric && override_op.is_some() {
            return fail(Check::Binding, s, "override on a binding-independent step".into());
        }
        // Effective-operator selection shared by the sandwich and sweep arms.
        let effective = |base: &'_ CMatrix| -> Result<Option<CMatrix>, VerifyError> {
            if !parametric {
                return Ok(Some(base.clone()));
            }
            match (params, override_op) {
                (Some(_), Some((_, m, k))) => {
                    if !kind_is_sound(k, m) {
                        return fail(
                            Check::Binding,
                            s,
                            "override classification is unsound".into(),
                        );
                    }
                    Ok(Some((*m).clone()))
                }
                (Some(_), None) => fail(
                    Check::Binding,
                    s,
                    "rebindable step carries no override for the requested binding".into(),
                ),
                (None, Some(_)) => Ok(None),
                (None, None) => Ok(Some(base.clone())),
            }
        };
        match view.step(s) {
            DensityStepView::Unitary { plan, op, kind } => {
                if ids.len() != 1 {
                    return fail(Check::Accounting, s, "sandwich step folds several items".into());
                }
                let ItemModel::Unitary { targets, op: expected, .. } = &models[ids[0]] else {
                    return fail(
                        Check::Accounting,
                        s,
                        "sandwich step realizes a multi-operator channel".into(),
                    );
                };
                let rebuild = || SandwichPlan::new(&radix, targets);
                check_density_plan(plan, rebuild, targets, "sandwich", s)?;
                if !kind_is_sound(kind, op) {
                    return fail(
                        Check::PlanConsistency,
                        s,
                        "structure classification is unsound for the step operator".into(),
                    );
                }
                if let Some(eff) = effective(op)? {
                    if plan.sub_dim() <= config.max_dense_dim {
                        if max_diff(expected, &eff) > config.tol {
                            return fail(
                                Check::Semantics,
                                s,
                                format!(
                                    "sandwich operator differs from its source by {:.3e}",
                                    max_diff(expected, &eff)
                                ),
                            );
                        }
                        report.operators_compared += 1;
                    }
                }
            }
            DensityStepView::Kraus(cv) => {
                report.kraus_steps += 1;
                if ids.len() != 1 {
                    return fail(Check::Accounting, s, "Kraus step folds several items".into());
                }
                let ItemModel::Channel { channel, targets, sweepable, .. } = &models[ids[0]] else {
                    return fail(Check::Accounting, s, "Kraus step realizes a unitary item".into());
                };
                if *sweepable {
                    return fail(
                        Check::CostRule,
                        s,
                        "sweepable channel left on the per-term Kraus path".into(),
                    );
                }
                if cv.targets != targets.as_slice() {
                    return fail(
                        Check::Accounting,
                        s,
                        format!("Kraus targets {:?} differ from expected {targets:?}", cv.targets),
                    );
                }
                let rebuild = || SandwichPlan::new(&radix, cv.targets);
                check_density_plan(cv.plan, rebuild, cv.targets, "channel", s)?;
                check_channel(cv.channel, cv.plan.sub_dim(), Some(channel), config.tol, s)?;
            }
            DensityStepView::Super { plan, sup, kind, compressed, fallback_len, defect_tol } => {
                report.sweeps += 1;
                let mut union: Vec<usize> = Vec::new();
                for &id in ids {
                    union.extend(models[id].targets().iter().copied());
                }
                union.sort_unstable();
                union.dedup();
                let rebuild = || SuperPlan::new(&radix, &union);
                check_density_plan(plan, rebuild, &union, "sweep", s)?;
                let k_u = plan.sub_dim();
                if sup.rows() != k_u * k_u || sup.cols() != k_u * k_u {
                    return fail(
                        Check::PlanConsistency,
                        s,
                        format!(
                            "superoperator is {}×{} for subspace {k_u}",
                            sup.rows(),
                            sup.cols()
                        ),
                    );
                }
                if !kind_is_sound(kind, sup) {
                    return fail(
                        Check::PlanConsistency,
                        s,
                        "structure classification is unsound for the sweep".into(),
                    );
                }
                check_compressed(sup, compressed, parametric, s)?;
                report.compressed_sweeps += usize::from(compressed.is_some());
                // Budget and cost rule.
                if k_u > config.superop.max_dim {
                    return fail(
                        Check::CostRule,
                        s,
                        format!(
                            "sweep subspace {k_u} exceeds the superoperator budget {}",
                            config.superop.max_dim
                        ),
                    );
                }
                for &id in ids {
                    if let ItemModel::Channel { sweepable: false, channel, .. } = &models[id] {
                        return fail(
                            Check::CostRule,
                            s,
                            format!("unsweepable channel '{}' folded into a sweep", channel.name()),
                        );
                    }
                }
                if ids.len() == 1 && !matches!(models[ids[0]], ItemModel::Channel { .. }) {
                    return fail(
                        Check::CostRule,
                        s,
                        "single-unitary sweep (a sandwich is always cheaper)".into(),
                    );
                }
                if ids.len() >= 2 {
                    let standalone: usize =
                        ids.iter().map(|&id| models[id].standalone_cost(dims)).sum();
                    let actual = Struct::of(sup).sweep_cost(k_u);
                    if actual > standalone {
                        return fail(
                            Check::CostRule,
                            s,
                            format!(
                                "fold sweep cost {actual} exceeds its constituents' standalone \
                                 cost {standalone}"
                            ),
                        );
                    }
                }
                // Fallback and trace preservation.
                let expected_fallback = if parametric { 0 } else { ids.len() };
                if fallback_len != expected_fallback {
                    return fail(
                        Check::Fallback,
                        s,
                        format!(
                            "fallback holds {fallback_len} entries, expected {expected_fallback}"
                        ),
                    );
                }
                let expected_tol: f64 = GuardConfig::DEFAULT_TOL
                    + ids
                        .iter()
                        .map(|&id| match &models[id] {
                            ItemModel::Unitary { tol, .. } => *tol,
                            ItemModel::Channel { channel, .. } => channel.tolerance(),
                        })
                        .sum::<f64>();
                if (defect_tol - expected_tol).abs() > 1e-12 {
                    return fail(
                        Check::TracePreservation,
                        s,
                        format!("defect allowance {defect_tol:.3e} ≠ expected {expected_tol:.3e}"),
                    );
                }
                // Semantics: rebuild the sweep from its constituents.
                if let Some(eff) = effective(sup)? {
                    let defect = SuperPlan::trace_defect(&eff, k_u);
                    if defect > defect_tol || defect.is_nan() {
                        return fail(
                            Check::TracePreservation,
                            s,
                            format!("sweep trace defect {defect:.3e} exceeds allowance {defect_tol:.3e}"),
                        );
                    }
                    if k_u * k_u <= config.max_dense_dim {
                        let mut acc: Option<CMatrix> = None;
                        for &id in ids {
                            let part = embed_super_independent(
                                &models[id].superop()?,
                                models[id].targets(),
                                &union,
                                dims,
                                s,
                            )?;
                            acc = Some(match acc {
                                None => part,
                                Some(prev) => part.matmul(&prev).map_err(|e| {
                                    sem(Some(s), format!("composing a sweep failed: {e}"))
                                })?,
                            });
                        }
                        let expected = acc.expect("non-empty step");
                        if max_diff(&expected, &eff) > config.tol {
                            return fail(
                                Check::Semantics,
                                s,
                                format!(
                                    "sweep superoperator differs from its constituents' product \
                                     by {:.3e}",
                                    max_diff(&expected, &eff)
                                ),
                            );
                        }
                        report.operators_compared += 1;
                    }
                }
            }
        }
    }

    report.steps = view.num_steps();
    Ok(report)
}

/// Checks a sweep's row-compressed form: it exists exactly when the
/// compiler's fill rule selects it (a binding-independent sweep whose
/// superoperator is dense in the checker's own structure lattice with at
/// most [`SuperopConfig::COMPRESS_FILL`] of its entries nonzero), and its
/// stored entries are the nonzero entries of `sup`, row by row in ascending
/// column order, with equal values.
fn check_compressed(
    sup: &CMatrix,
    compressed: Option<&RowCompressed>,
    parametric: bool,
    s: usize,
) -> Result<(), VerifyError> {
    let nonzeros = sup.as_slice().iter().filter(|v| **v != Complex64::ZERO).count();
    let entries = (sup.rows() * sup.cols()) as f64;
    let expected = !parametric
        && Struct::of(sup) == Struct::Dense
        && nonzeros as f64 <= SuperopConfig::COMPRESS_FILL * entries;
    if compressed.is_some() != expected {
        return fail(
            Check::CostRule,
            s,
            format!(
                "sweep with {nonzeros} of {entries} nonzero entries (parametric={parametric}) \
                 {} a compressed form",
                if expected { "lacks" } else { "carries" }
            ),
        );
    }
    let Some(rc) = compressed else { return Ok(()) };
    if rc.rows() != sup.rows() || rc.cols() != sup.cols() {
        return fail(
            Check::PlanConsistency,
            s,
            format!(
                "compressed sweep is {}×{} for a {}×{} superoperator",
                rc.rows(),
                rc.cols(),
                sup.rows(),
                sup.cols()
            ),
        );
    }
    for r in 0..sup.rows() {
        let dense = sup.row(r).iter().enumerate().filter(|(_, v)| **v != Complex64::ZERO);
        let stored = rc.row(r);
        let matches = dense.clone().count() == stored.len()
            && dense.zip(stored).all(|((c, v), (sc, sv))| c == *sc && v == sv);
        if !matches {
            return fail(
                Check::PlanConsistency,
                s,
                format!("compressed sweep row {r} differs from the superoperator's nonzeros"),
            );
        }
    }
    Ok(())
}

/// Builds the checker's model of a derived channel item: single-operator
/// channels become sandwiches (a one-term Kraus sum *is* a deterministic
/// map); anything else precomputes its superoperator and the eligibility
/// verdict the compiler must agree with.
fn channel_item_model(
    channel: KrausChannel,
    targets: Vec<usize>,
    config: &VerifyConfig,
) -> ItemModel {
    let ops = channel.operators();
    if ops.len() == 1 {
        let op = ops[0].clone();
        let cons = Struct::of(&op);
        return ItemModel::Unitary {
            targets,
            op,
            parametric: false,
            tol: channel.tolerance(),
            cons,
        };
    }
    let k = ops[0].rows();
    let m = ops.len();
    let sup = kraus_sup(ops);
    let sup_class = Struct::of(&sup);
    let eligible = config.superop.enabled && k <= config.superop.max_dim;
    let profitable = sup_class != Struct::Dense || k * k <= 2 * m * k + 2 * m;
    ItemModel::Channel { channel, targets, sup, sup_class, sweepable: eligible && profitable }
}

// ---------------------------------------------------------------------------
// Guard checkpoint accounting.
// ---------------------------------------------------------------------------

/// Number of guard checkpoints a run over `num_steps` plan steps must
/// perform under `guard`: one every `cadence` steps plus the final check,
/// zero when disabled.
#[must_use]
pub fn expected_guard_checks(num_steps: usize, guard: &GuardConfig) -> usize {
    if !guard.enabled {
        return 0;
    }
    num_steps / guard.cadence.max(1) + 1
}

/// Checks a run's reported health against the checkpoint-count formula.
///
/// # Errors
/// Returns a [`Check::Guard`] error when the counts disagree.
pub fn verify_run_health(
    health: &RunHealth,
    num_steps: usize,
    guard: &GuardConfig,
) -> Result<(), VerifyError> {
    let expected = expected_guard_checks(num_steps, guard);
    if health.checks_run != expected {
        return fail(
            Check::Guard,
            None,
            format!(
                "run reports {} guard checks over {num_steps} steps, formula expects {expected}",
                health.checks_run
            ),
        );
    }
    Ok(())
}

/// Checks every column of a batched ensemble pass against the checkpoint
/// formula. The ensemble executor promises per-column `RunHealth` with the
/// same semantics as a serial run — each member is checkpointed at the same
/// cadence and carries its own counters — so each column must satisfy
/// [`verify_run_health`] independently; a violation names the offending
/// column.
///
/// # Errors
/// Returns a [`Check::Guard`] error when any column's counts disagree.
pub fn verify_ensemble_health(
    healths: &[RunHealth],
    num_steps: usize,
    guard: &GuardConfig,
) -> Result<(), VerifyError> {
    for (column, health) in healths.iter().enumerate() {
        verify_run_health(health, num_steps, guard).map_err(|e| VerifyError {
            check: e.check,
            step: e.step,
            message: format!("ensemble column {column}: {}", e.message),
        })?;
    }
    Ok(())
}
