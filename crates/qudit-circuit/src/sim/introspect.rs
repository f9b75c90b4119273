//! Read-only introspection of compiled execution plans.
//!
//! The compiled plan types ([`CompiledCircuit`], [`CompiledDensityCircuit`])
//! deliberately hide their internals: run loops own the only mutation paths
//! and external code cannot desynchronise a cached plan. Translation
//! validation (the `qudit-verify` crate) needs to *walk* those internals —
//! every emitted step, its stride plan, its operator, and the source
//! instructions it realizes — without being able to touch them. This module
//! is that window: borrow-only views over the step list, the per-step
//! source-instruction provenance recorded at compile time, and the density
//! compiler's item-level fold structure.
//!
//! Nothing here is consulted by the simulators themselves; the views exist
//! so an *independent* checker can re-derive the compiler's correctness
//! argument (instruction accounting, disjoint-support commutation, cost
//! rules, binding invariance) against data the compiler actually emitted.
//!
//! The `corrupt_*` helpers at the bottom are the one exception to
//! "read-only": they deliberately miscompile a plan in controlled ways so
//! the verifier's mutation tests can prove it is not vacuous. They are
//! `#[doc(hidden)]` — nothing but verifier self-tests should call them.

use std::sync::Arc;

use qudit_core::apply::{ApplyPlan, OpKind};
use qudit_core::matrix::CMatrix;
use qudit_core::sparse::RowCompressed;
use qudit_core::superop::{SandwichPlan, SuperPlan};

use crate::error::Result;
use crate::noise::KrausChannel;
use crate::sim::fusion::FusionStats;
use crate::sim::kernels::{
    ChannelKernel, CircuitKernels, DensityChannel, DensityKernels, DensityStep, ExecStep,
};
use crate::sim::{CompiledCircuit, CompiledDensityCircuit, SuperopStats};

pub use crate::sim::kernels::{DensityRole, ItemOrigin};

/// A noise channel attached to a plan step, with its application geometry.
#[derive(Debug, Clone, Copy)]
pub struct ChannelView<'a> {
    /// The Kraus channel.
    pub channel: &'a KrausChannel,
    /// The qudits the channel acts on (operator index order).
    pub targets: &'a [usize],
    /// The precomputed stride plan.
    pub plan: &'a ApplyPlan,
}

impl<'a> ChannelView<'a> {
    fn of(kernel: &'a ChannelKernel) -> Self {
        Self { channel: &kernel.channel, targets: &kernel.targets, plan: &kernel.plan }
    }
}

/// One step of a compiled statevector plan, as seen by a verifier.
#[derive(Debug, Clone)]
pub enum StepView<'a> {
    /// A (possibly fused) unitary operator plus its attached noise channels.
    Apply {
        /// The operator's support (operator index order; ascending for fused
        /// blocks).
        targets: &'a [usize],
        /// The precomputed stride plan.
        plan: &'a ApplyPlan,
        /// The compile-time operator (all-zero binding).
        op: &'a CMatrix,
        /// The compile-time structure classification.
        kind: &'a OpKind,
        /// Noise channels the model inserts after the gate.
        noise: Vec<ChannelView<'a>>,
        /// `true` iff the operator depends on a free parameter (the step is
        /// re-materialised on rebind).
        rebindable: bool,
        /// For rebindable steps: `Some(true)` iff the compiler proved the
        /// operator diagonal at **every** binding.
        diagonal_for_all_bindings: Option<bool>,
    },
    /// An explicit channel instruction.
    Channel(ChannelView<'a>),
    /// A computational-basis measurement.
    Measure {
        /// Measured qudits.
        targets: &'a [usize],
    },
    /// Reset of one qudit to `|0⟩`.
    Reset {
        /// The qudit being reset.
        target: usize,
    },
    /// A barrier at which idle-loss channels apply.
    Barrier,
}

/// Borrow-only view over a compiled statevector plan.
#[derive(Debug, Clone, Copy)]
pub struct PlanView<'a> {
    kernels: &'a CircuitKernels,
    compiled: &'a CompiledCircuit,
}

/// Opens the introspection view of a compiled statevector plan.
pub fn statevector(compiled: &CompiledCircuit) -> PlanView<'_> {
    PlanView { kernels: &compiled.topology, compiled }
}

impl<'a> PlanView<'a> {
    /// Per-qudit dimensions the plan was compiled for.
    pub fn dims(&self) -> &'a [usize] {
        &self.kernels.dims
    }

    /// Parameters a binding must supply.
    pub fn num_params(&self) -> usize {
        self.kernels.num_params
    }

    /// Number of steps in the plan.
    pub fn num_steps(&self) -> usize {
        self.kernels.steps.len()
    }

    /// What the fusion pass did.
    pub fn fusion_stats(&self) -> FusionStats {
        self.kernels.stats
    }

    /// The `index`-th step.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn step(&self, index: usize) -> StepView<'a> {
        match &self.kernels.steps[index] {
            ExecStep::Apply { targets, plan, kind, op, noise, recipe } => StepView::Apply {
                targets,
                plan,
                op,
                kind,
                noise: noise.iter().map(ChannelView::of).collect(),
                rebindable: recipe.is_some(),
                diagonal_for_all_bindings: recipe.as_ref().map(|r| r.diagonal_for_all_bindings()),
            },
            ExecStep::Channel(kernel) => StepView::Channel(ChannelView::of(kernel)),
            ExecStep::Measure { targets } => StepView::Measure { targets },
            ExecStep::Reset { target } => StepView::Reset { target: *target },
            ExecStep::Barrier => StepView::Barrier,
        }
    }

    /// Source-instruction indices realized by the `index`-th step: the
    /// absorbed gate indices (program order) for a fused block, a single
    /// index otherwise. Dropped no-op barriers appear in no step.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn sources(&self, index: usize) -> &'a [usize] {
        &self.kernels.origins[index]
    }

    /// The per-qudit idle-loss channels applied at each barrier (empty for a
    /// model without idle loss).
    pub fn barrier_loss(&self) -> Vec<ChannelView<'a>> {
        self.kernels.barrier_loss.iter().map(ChannelView::of).collect()
    }

    /// Re-materialises the operator of a rebindable step at `params` through
    /// the plan's own recipe, or `None` for a binding-independent step.
    ///
    /// # Errors
    /// Returns an error if `params` is too short for the recipe's gates.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn realize(&self, index: usize, params: &[f64]) -> Option<Result<CMatrix>> {
        match &self.kernels.steps[index] {
            ExecStep::Apply { recipe: Some(recipe), .. } => Some(recipe.realize(params)),
            _ => None,
        }
    }

    /// This handle's binding overlay: `(step index, realized operator,
    /// classification)` triples, ascending by step (empty = the compile-time
    /// all-zero binding).
    pub fn overrides(&self) -> impl Iterator<Item = (usize, &'a CMatrix, &'a OpKind)> {
        self.compiled.binds.overrides.iter().map(|o| (o.step, &o.op, &o.kind))
    }
}

/// A channel on the density per-term Kraus path, with the doubled-register
/// plan its sandwiches sweep.
#[derive(Debug, Clone, Copy)]
pub struct DensityChannelView<'a> {
    /// The Kraus channel.
    pub channel: &'a KrausChannel,
    /// The qudits the channel acts on (operator index order).
    pub targets: &'a [usize],
    /// The precomputed sandwich stride plans.
    pub plan: &'a SandwichPlan,
}

impl<'a> DensityChannelView<'a> {
    fn of(ch: &'a DensityChannel) -> Self {
        Self { channel: &ch.channel, targets: &ch.targets, plan: &ch.plan }
    }
}

/// One step of a compiled density plan, as seen by a verifier.
#[derive(Debug, Clone)]
pub enum DensityStepView<'a> {
    /// A standalone deterministic map (two-sided sandwich).
    Unitary {
        /// The precomputed sandwich stride plans.
        plan: &'a SandwichPlan,
        /// The compile-time operator.
        op: &'a CMatrix,
        /// The compile-time classification.
        kind: &'a OpKind,
    },
    /// One superoperator sweep over vectorised ρ.
    Super {
        /// The precomputed doubled-register stride plan.
        plan: &'a SuperPlan,
        /// The composed superoperator matrix (all-zero binding).
        sup: &'a CMatrix,
        /// The compile-time classification.
        kind: &'a OpKind,
        /// `sup` row-compressed, when the compiler chose to run the sweep in
        /// that form (see `SuperopConfig::COMPRESS_FILL`).
        compressed: Option<&'a RowCompressed>,
        /// Number of recorded degradation constituents (zero for
        /// parameter-dependent sweeps).
        fallback_len: usize,
        /// The compile-time trace-preservation allowance.
        defect_tol: f64,
    },
    /// Per-term Kraus execution of one channel.
    Kraus(DensityChannelView<'a>),
}

/// Borrow-only view over a compiled density plan.
#[derive(Debug, Clone, Copy)]
pub struct DensityPlanView<'a> {
    kernels: &'a DensityKernels,
    compiled: &'a CompiledDensityCircuit,
}

/// Opens the introspection view of a compiled density plan.
pub fn density(compiled: &CompiledDensityCircuit) -> DensityPlanView<'_> {
    DensityPlanView { kernels: &compiled.topology, compiled }
}

impl<'a> DensityPlanView<'a> {
    /// Per-qudit dimensions the plan was compiled for.
    pub fn dims(&self) -> &'a [usize] {
        &self.kernels.dims
    }

    /// Parameters a binding must supply.
    pub fn num_params(&self) -> usize {
        self.kernels.num_params
    }

    /// Number of steps in the density plan.
    pub fn num_steps(&self) -> usize {
        self.kernels.steps.len()
    }

    /// What the (shared) fusion pass did.
    pub fn fusion_stats(&self) -> FusionStats {
        self.kernels.fusion_stats
    }

    /// What the superoperator compiler did.
    pub fn superop_stats(&self) -> SuperopStats {
        self.kernels.stats
    }

    /// The `index`-th step.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn step(&self, index: usize) -> DensityStepView<'a> {
        match &self.kernels.steps[index] {
            DensityStep::Unitary { plan, kind, op, .. } => {
                DensityStepView::Unitary { plan, op, kind }
            }
            DensityStep::Super { plan, kind, sup, compressed, fallback, defect_tol } => {
                DensityStepView::Super {
                    plan,
                    sup,
                    kind,
                    compressed: compressed.as_ref(),
                    fallback_len: fallback.len(),
                    defect_tol: *defect_tol,
                }
            }
            DensityStep::Kraus(ch) => DensityStepView::Kraus(DensityChannelView::of(ch)),
        }
    }

    /// Number of constituent items the density compiler folded over.
    pub fn num_items(&self) -> usize {
        self.kernels.item_origins.len()
    }

    /// Provenance of the `id`-th constituent item.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn item(&self, id: usize) -> &'a ItemOrigin {
        &self.kernels.item_origins[id]
    }

    /// Item indices consumed by the `index`-th step (ascending = program
    /// order of the folded constituents).
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn step_items(&self, index: usize) -> &'a [usize] {
        &self.kernels.step_items[index]
    }

    /// `true` iff the `index`-th step is re-materialised on rebind.
    pub fn rebindable(&self, index: usize) -> bool {
        use crate::sim::kernels::DensityRecipe;
        self.kernels.rebind.iter().any(|r| match r {
            DensityRecipe::Sandwich { step, .. } | DensityRecipe::Super { step, .. } => {
                *step == index
            }
        })
    }

    /// This handle's binding overlay (see [`PlanView::overrides`]).
    pub fn overrides(&self) -> impl Iterator<Item = (usize, &'a CMatrix, &'a OpKind)> {
        self.compiled.binds.overrides.iter().map(|o| (o.step, &o.op, &o.kind))
    }
}

// ---------------------------------------------------------------------------
// Deliberate plan corruption, for verifier mutation tests only.
// ---------------------------------------------------------------------------

/// Removes step `index` from a compiled plan, as a buggy compiler that lost
/// an instruction would.
#[doc(hidden)]
pub fn corrupt_drop_step(compiled: &mut CompiledCircuit, index: usize) {
    let kernels = Arc::make_mut(&mut compiled.topology);
    kernels.steps.remove(index);
    kernels.origins.remove(index);
}

/// Swaps steps `a` and `b` of a compiled plan, as a buggy reordering pass
/// that ignores support overlap would.
#[doc(hidden)]
pub fn corrupt_swap_steps(compiled: &mut CompiledCircuit, a: usize, b: usize) {
    let kernels = Arc::make_mut(&mut compiled.topology);
    kernels.steps.swap(a, b);
    kernels.origins.swap(a, b);
}

/// Redirects an apply step onto `new_targets` (rebuilding its stride plan),
/// as a buggy lowering that mixed up wires would. The operator matrix is
/// left untouched.
///
/// # Panics
/// Panics if step `index` is not an apply step or the new plan cannot be
/// built.
#[doc(hidden)]
pub fn corrupt_retarget_step(
    compiled: &mut CompiledCircuit,
    index: usize,
    new_targets: Vec<usize>,
) {
    let kernels = Arc::make_mut(&mut compiled.topology);
    let radix = qudit_core::Radix::new(kernels.dims.clone()).expect("plan dims form a valid radix");
    let ExecStep::Apply { targets, plan, .. } = &mut kernels.steps[index] else {
        panic!("corrupt_retarget_step requires an apply step");
    };
    *plan = ApplyPlan::new(&radix, &new_targets).expect("corrupted targets must be valid");
    *targets = new_targets;
}

/// Scales an apply step's operator by `factor`, as a stale or miscomputed
/// materialisation would.
///
/// # Panics
/// Panics if step `index` is not an apply step.
#[doc(hidden)]
pub fn corrupt_scale_step_op(compiled: &mut CompiledCircuit, index: usize, factor: f64) {
    let kernels = Arc::make_mut(&mut compiled.topology);
    let ExecStep::Apply { op, .. } = &mut kernels.steps[index] else {
        panic!("corrupt_scale_step_op requires an apply step");
    };
    op.scale_inplace(qudit_core::complex::c64(factor, 0.0));
}

/// Drops the binding override of the first rebindable step, leaving that
/// step's operator stale at the previous binding.
///
/// Returns `false` (and changes nothing) when the handle carries no
/// overrides.
#[doc(hidden)]
pub fn corrupt_drop_override(compiled: &mut CompiledCircuit) -> bool {
    if compiled.binds.overrides.is_empty() {
        return false;
    }
    compiled.binds.overrides.remove(0);
    true
}

/// Removes density step `index` (and its item bookkeeping), as a buggy
/// density lowering that lost a constituent would.
#[doc(hidden)]
pub fn corrupt_density_drop_step(compiled: &mut CompiledDensityCircuit, index: usize) {
    let kernels = Arc::make_mut(&mut compiled.topology);
    kernels.steps.remove(index);
    kernels.step_items.remove(index);
}

/// Scales a density sweep's superoperator by `factor`, as a miscomposed
/// fold would.
///
/// # Panics
/// Panics if step `index` is not a superoperator sweep.
#[doc(hidden)]
pub fn corrupt_density_scale_super(
    compiled: &mut CompiledDensityCircuit,
    index: usize,
    factor: f64,
) {
    let kernels = Arc::make_mut(&mut compiled.topology);
    let DensityStep::Super { sup, .. } = &mut kernels.steps[index] else {
        panic!("corrupt_density_scale_super requires a superoperator sweep");
    };
    sup.scale_inplace(qudit_core::complex::c64(factor, 0.0));
}

/// Adds `delta` to the `entry`-th stored entry of a density sweep's
/// row-compressed superoperator, as a compression that drifted from its
/// dense matrix would.
///
/// # Panics
/// Panics if step `index` is not a compressed superoperator sweep or
/// `entry` is out of range.
#[doc(hidden)]
pub fn corrupt_density_compressed_entry(
    compiled: &mut CompiledDensityCircuit,
    index: usize,
    entry: usize,
    delta: f64,
) {
    let kernels = Arc::make_mut(&mut compiled.topology);
    let DensityStep::Super { compressed: Some(rc), .. } = &mut kernels.steps[index] else {
        panic!("corrupt_density_compressed_entry requires a compressed superoperator sweep");
    };
    rc.perturb_entry(entry, qudit_core::complex::c64(delta, 0.0));
}
