//! Precompiled execution plans shared across shots and trajectories.
//!
//! Running a stochastic circuit many times (Monte-Carlo trajectories,
//! per-shot re-runs) repeats the same per-instruction setup work every run:
//! building the stride geometry for each gate's targets, classifying each
//! operator's structure, and constructing the noise model's Kraus channels.
//! [`CircuitKernels`] hoists all of that out of the run loop — and, since
//! PR 2, first runs the [`crate::sim::fusion`] pass so runs of adjacent
//! gates execute as single fused superblocks. A kernel set is built once per
//! `(circuit, noise model, fusion config)` triple and is immutable and
//! `Sync` afterwards, so the parallel trajectory executor shares one
//! instance across worker threads. Mutable per-run scratch lives in the
//! runner.
//!
//! Under the default wire-local flush policy the fused plan is a
//! **re-ordering** of the source circuit: a fused block whose support is
//! disjoint from a measurement/reset/channel can be emitted *after* it (the
//! two commute exactly, see [`crate::sim::fusion`]). Both plan consumers —
//! the shared [`ExecStep`] list the statevector/trajectory runners walk, and
//! the [`DensityKernels`] superoperator frontier — therefore only rely on
//! step order *within* a wire's light-cone, never on global program order.
//! The density frontier applies the same wire-local rule: a per-term
//! `Kraus` fallback or an over-budget sandwich closes only the open
//! superoperator blocks it touches, and idle-loss barrier channels flush
//! (or absorb into) exactly the per-qudit blocks of the wires they decay.

use qudit_core::apply::{matmul_structured, ApplyPlan, OpKind};
use qudit_core::matrix::CMatrix;
use qudit_core::state::QuditState;
use qudit_core::Complex64;

use crate::circuit::{Circuit, Instruction};
use crate::error::{CircuitError, Result};
use crate::gate::Gate;
use crate::noise::{KrausChannel, NoiseModel};
use crate::sim::fusion::{embed_to, fuse, FusedInst, FusionConfig, FusionStats};

/// How to (re-)materialise one apply step's operator under a parameter
/// binding: the constituent gates in program order plus the support the
/// operator is indexed in. The **same** realization path runs at compile
/// time and at `bind` time, so compiling a bound circuit and rebinding a
/// compiled parameterized circuit produce bitwise-identical operators (and
/// therefore bitwise-identical sampling streams).
#[derive(Debug, Clone)]
pub(crate) struct OpRecipe {
    /// Constituents, program order.
    parts: Vec<RecipePart>,
    /// Support the realized operator is indexed in: ascending for fused
    /// blocks, the gate's own target order for verbatim gates.
    pub(crate) targets: Vec<usize>,
    /// Per-target dimensions of `targets`.
    dims: Vec<usize>,
}

/// One constituent of an [`OpRecipe`]. Binding-independent constituents are
/// embedded into the recipe's support once, at compile time; only free
/// constituents are re-realized and re-embedded per binding.
#[derive(Debug, Clone)]
enum RecipePart {
    /// Pre-embedded constant operator.
    Const(CMatrix),
    /// Free-parameter gate, realized per binding.
    Free { gate: Gate, targets: Vec<usize> },
}

impl OpRecipe {
    pub(crate) fn new(
        parts: Vec<(Gate, Vec<usize>)>,
        targets: Vec<usize>,
        dims: &[usize],
    ) -> Result<Self> {
        let target_dims: Vec<usize> = targets.iter().map(|&t| dims[t]).collect();
        let parts = parts
            .into_iter()
            .map(|(gate, gate_targets)| {
                if gate.free_param().is_some() {
                    Ok(RecipePart::Free { gate, targets: gate_targets })
                } else {
                    Ok(RecipePart::Const(embed_to(
                        &targets,
                        &target_dims,
                        &gate_targets,
                        gate.matrix(),
                    )?))
                }
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { parts, targets, dims: target_dims })
    }

    /// `true` if any constituent carries a free parameter (i.e. the operator
    /// must be re-materialised on rebind).
    pub(crate) fn has_free(&self) -> bool {
        self.parts.iter().any(|p| matches!(p, RecipePart::Free { .. }))
    }

    /// The free-parameter indices this recipe reads, ascending and deduped.
    /// [`OpRecipe::realize`] is a pure function of exactly these entries of
    /// the binding, which is what lets a batched bind share one realization
    /// between members that agree on them bitwise.
    pub(crate) fn free_param_indices(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = self
            .parts
            .iter()
            .filter_map(|p| match p {
                RecipePart::Free { gate, .. } => gate.free_param(),
                RecipePart::Const(_) => None,
            })
            .collect();
        idx.sort_unstable();
        idx.dedup();
        idx
    }

    /// `true` if the realized operator is diagonal at **every** binding:
    /// each free constituent has a diagonal generator and each constant
    /// constituent is diagonal.
    pub(crate) fn diagonal_for_all_bindings(&self) -> bool {
        self.parts.iter().all(|p| match p {
            RecipePart::Const(m) => matches!(OpKind::classify(m), OpKind::Diagonal(_)),
            RecipePart::Free { gate, .. } => gate.has_diagonal_generator(),
        })
    }

    /// Materialises the operator at the given binding: each free constituent
    /// is realized ([`Gate::bound_matrix`]) and embedded into the recipe's
    /// support, then all constituents multiply in program order (structured
    /// factors compose without a dense matmul, see [`matmul_structured`]).
    pub(crate) fn realize(&self, params: &[f64]) -> Result<CMatrix> {
        // Constant parts are multiplied by reference — only a recipe whose
        // first part is constant pays one clone (the accumulator seed).
        let mut acc: Option<CMatrix> = None;
        for part in &self.parts {
            acc = Some(match (part, acc) {
                (RecipePart::Const(m), None) => m.clone(),
                (RecipePart::Const(m), Some(prev)) => {
                    matmul_structured(m, &prev).map_err(CircuitError::Core)?
                }
                (RecipePart::Free { gate, targets }, acc) => {
                    let embedded =
                        embed_to(&self.targets, &self.dims, targets, &gate.bound_matrix(params)?)?;
                    match acc {
                        None => embedded,
                        Some(prev) => {
                            matmul_structured(&embedded, &prev).map_err(CircuitError::Core)?
                        }
                    }
                }
            });
        }
        acc.ok_or_else(|| CircuitError::InvalidGate("empty operator recipe".into()))
    }
}

/// A Kraus channel with its application geometry precomputed.
#[derive(Debug, Clone)]
pub(crate) struct ChannelKernel {
    pub channel: KrausChannel,
    pub plan: ApplyPlan,
    /// Structure classification of each Kraus operator.
    pub kinds: Vec<OpKind>,
    /// The qudits the channel acts on (in operator index order).
    pub targets: Vec<usize>,
    /// `true` when every Kraus operator is diagonal or an injective
    /// monomial, so [`ChannelKernel::select_branches`] derives all branch
    /// norms from one marginal sweep (see [`marginal_weights`]).
    one_sweep: bool,
}

/// The per-column weights `coeff_c` of an operator whose branch norm is a
/// weighted marginal, `‖K ψ‖² = Σ_c |coeff_c|² · m_c` with `m` the target
/// marginal of `ψ`. That identity holds exactly when no two columns of `K`
/// land on the same row: diagonal and injective monomial operators. Photon
/// loss, dephasing and Weyl depolarizing — every channel a
/// [`NoiseModel`] inserts — consist of such operators only.
fn marginal_weights(kind: &OpKind) -> Option<&[Complex64]> {
    match kind {
        OpKind::Diagonal(diag) => Some(diag),
        OpKind::Monomial { coeffs, injective: true, .. } => Some(coeffs),
        _ => None,
    }
}

/// The Kraus branch a uniform draw lands on, given the branch probabilities
/// and `r` already scaled by their total: a linear CDF scan matching the
/// `Cdf` contract. Zero-probability branches are never selected, and
/// rounding at the top edge (`r` within one ulp of the total) falls back to
/// the last *positive* branch. A positive total guarantees one exists.
fn select_branch(probs: &[f64], mut r: f64) -> usize {
    let mut selected = 0;
    for (k, &p) in probs.iter().enumerate() {
        if p <= 0.0 {
            continue;
        }
        selected = k;
        if r < p {
            break;
        }
        r -= p;
    }
    selected
}

impl ChannelKernel {
    pub(crate) fn new(
        radix: &qudit_core::Radix,
        channel: KrausChannel,
        targets: Vec<usize>,
    ) -> Result<Self> {
        let plan = ApplyPlan::new(radix, &targets).map_err(CircuitError::Core)?;
        if let Some(op) = channel.operators().first() {
            if op.rows() != plan.sub_dim() {
                return Err(CircuitError::Core(qudit_core::error::CoreError::ShapeMismatch {
                    expected: format!("{0}x{0} Kraus operators", plan.sub_dim()),
                    found: format!("{}x{}", op.rows(), op.cols()),
                }));
            }
        }
        let kinds: Vec<OpKind> = channel.operators().iter().map(OpKind::classify).collect();
        let one_sweep = kinds.iter().all(|k| marginal_weights(k).is_some());
        Ok(Self { channel, plan, kinds, targets, one_sweep })
    }

    /// Branch probabilities and selection for one stochastic event of this
    /// channel on the state stored at `data[offset + stride * i]` — a
    /// `QuditState` at `stride = 1`, an ensemble column at
    /// `(stride, offset) = (width, col)`. Leaves `p_k = ‖K_k ψ‖²` in
    /// `scratch.branch_probs` and, in `scratch.choices`, the branch each
    /// uniform draw of `draws` selects (in draw order). The caller applies
    /// `K_k` and rescales by `1/√p_k` ([`rescale_branch`]).
    ///
    /// All-diagonal/injective-monomial channels take one strided marginal
    /// sweep for every branch; others take one [`ApplyPlan::norm_sqr_after`]
    /// sweep per branch on the contiguous state (gathered first when
    /// strided). Either way the accumulation order does not depend on
    /// `stride`, so a serial state and the same state as an ensemble column
    /// get bitwise-equal probabilities and choices.
    ///
    /// # Errors
    /// A zero-mass (or non-finite) state has no branch to select and returns
    /// `InvalidProbability`; `draws` is then left unconsumed.
    pub(crate) fn select_branches(
        &self,
        data: &[Complex64],
        stride: usize,
        offset: usize,
        draws: impl IntoIterator<Item = f64>,
        scratch: &mut RunScratch,
    ) -> Result<()> {
        let core = CircuitError::Core;
        let probs = &mut scratch.branch_probs;
        probs.clear();
        if self.one_sweep {
            let marginal = &mut scratch.marginal;
            self.plan.marginal_probabilities_into(data, stride, offset, |z| z.norm_sqr(), marginal);
            for weights in self.kinds.iter().filter_map(marginal_weights) {
                probs
                    .push(weights.iter().zip(marginal.iter()).map(|(w, m)| w.norm_sqr() * m).sum());
            }
        } else {
            let amps: &[Complex64] = if stride == 1 {
                &data[offset..]
            } else {
                scratch.col.clear();
                scratch.col.extend(data[offset..].iter().step_by(stride));
                &scratch.col
            };
            for (op, kind) in self.channel.operators().iter().zip(self.kinds.iter()) {
                probs.push(
                    self.plan.norm_sqr_after(kind, op, amps, &mut scratch.block).map_err(core)?,
                );
            }
        }
        let total: f64 = probs.iter().sum();
        if total <= 0.0 || total.is_nan() {
            // All branch norms vanish only for a zero state (Kraus channels
            // are trace-preserving).
            return Err(core(qudit_core::error::CoreError::InvalidProbability(
                "channel branch probabilities carry no mass (zero state)".into(),
            )));
        }
        scratch.choices.clear();
        scratch.choices.extend(draws.into_iter().map(|r| select_branch(probs, r * total)));
        Ok(())
    }
}

/// Renormalises the state at `data[offset + stride * i]` after Kraus branch
/// `K_k` was applied to it, where `p = ‖K_k ψ‖²` is the branch probability
/// [`ChannelKernel::select_branches`] selected it with: the norm is already
/// known, so one scaling sweep by `1/√p` replaces re-summing it. Same
/// reciprocal-then-`scale` arithmetic as `QuditState::normalize`, and the
/// same per-element operation at every stride.
pub(crate) fn rescale_branch(data: &mut [Complex64], stride: usize, offset: usize, p: f64) {
    let inv = 1.0 / p.sqrt();
    for a in data[offset..].iter_mut().step_by(stride) {
        *a = a.scale(inv);
    }
}

/// One step of the compiled execution plan. Unlike the original instruction
/// list, apply steps own their operator matrix: a step may be a fused
/// superblock that exists nowhere in the circuit.
#[derive(Debug, Clone)]
pub(crate) enum ExecStep {
    /// Apply a (possibly fused) unitary operator, then the noise channels the
    /// model inserts after it. `targets` is the operator's support (in
    /// operator index order), kept for the density compiler's superoperator
    /// folding pass. `recipe` is present iff the operator depends on a free
    /// parameter; [`CircuitKernels::bind`] re-materialises exactly those
    /// steps.
    Apply {
        targets: Vec<usize>,
        plan: ApplyPlan,
        kind: OpKind,
        op: CMatrix,
        noise: Vec<ChannelKernel>,
        recipe: Option<OpRecipe>,
    },
    /// An explicit channel instruction.
    Channel(ChannelKernel),
    /// A computational-basis measurement.
    Measure { targets: Vec<usize> },
    /// Reset of one qudit to `|0⟩`.
    Reset { target: usize },
    /// A barrier at which idle-loss channels apply.
    Barrier,
}

/// The compiled execution plan of a circuit under a noise model and fusion
/// configuration, plus the idle-loss channels applied at barriers.
#[derive(Debug, Clone)]
pub(crate) struct CircuitKernels {
    /// Per-qudit dimensions of the register the plan was compiled for.
    pub dims: Vec<usize>,
    pub steps: Vec<ExecStep>,
    /// Source-instruction indices realized by each step, parallel to
    /// `steps`: the absorbed gate indices (program order) for a fused block,
    /// the single instruction index otherwise. Dropped no-op barriers appear
    /// in no entry. Consumed by `sim::introspect` / `qudit-verify` only —
    /// the run loops never read it.
    pub origins: Vec<Vec<usize>>,
    /// One photon-loss channel per qudit, used at each `Barrier` when the
    /// model has idle loss (empty otherwise).
    pub barrier_loss: Vec<ChannelKernel>,
    /// What the fusion pass did.
    pub stats: FusionStats,
    /// Parameters a binding must supply (`Circuit::num_params` of the source
    /// circuit). A plan compiled from a parameterized circuit starts out
    /// bound at all-zero parameters.
    pub num_params: usize,
}

impl CircuitKernels {
    /// Rejects an initial state whose register differs from the plan's.
    pub(crate) fn check_initial(&self, initial: &QuditState) -> Result<()> {
        if initial.radix().dims() != self.dims {
            return Err(CircuitError::InvalidTargets(format!(
                "initial state register {:?} does not match circuit register {:?}",
                initial.radix().dims(),
                self.dims
            )));
        }
        Ok(())
    }

    pub(crate) fn with_config(
        circuit: &Circuit,
        noise: &NoiseModel,
        config: &FusionConfig,
    ) -> Result<Self> {
        let radix = circuit.radix();
        let dims = circuit.dims();

        // Per-gate noise channels; a gate the model decorates is a fusion
        // barrier and executes verbatim.
        let mut gate_noise: Vec<Option<Vec<(KrausChannel, usize)>>> =
            Vec::with_capacity(circuit.len());
        let mut fusable = Vec::with_capacity(circuit.len());
        for inst in circuit.instructions() {
            match inst {
                Instruction::Unitary { targets, .. } => {
                    let channels = noise.channels_after_gate(targets, dims)?;
                    fusable.push(channels.is_empty());
                    gate_noise.push(Some(channels));
                }
                _ => {
                    fusable.push(false);
                    gate_noise.push(None);
                }
            }
        }

        let has_barrier = circuit.instructions().iter().any(|i| matches!(i, Instruction::Barrier));
        let lossy_barriers = noise.idle_photon_loss > 0.0 && has_barrier;
        let mut barrier_loss = Vec::new();
        if lossy_barriers {
            for (q, &d) in dims.iter().enumerate() {
                let loss = KrausChannel::photon_loss(d, noise.idle_photon_loss)?;
                barrier_loss.push(ChannelKernel::new(radix, loss, vec![q])?);
            }
        }

        let (fused, stats) = fuse(circuit, &fusable, !lossy_barriers, config)?;

        // Operators are materialised through the recipe path even at compile
        // time, so a later in-place rebind reproduces them bitwise. A plan
        // compiled from a parameterized circuit starts bound at zeros.
        let num_params = circuit.num_params();
        let zeros = vec![0.0f64; num_params];

        let mut steps = Vec::with_capacity(fused.len());
        let mut origins = Vec::with_capacity(fused.len());
        for item in fused {
            origins.push(match &item {
                FusedInst::Block { gates, .. } => gates.clone(),
                FusedInst::Gate { index } | FusedInst::Passthrough { index } => vec![*index],
            });
            steps.push(match item {
                FusedInst::Block { targets, gates } => {
                    let plan = ApplyPlan::new(radix, &targets).map_err(CircuitError::Core)?;
                    let parts: Vec<(Gate, Vec<usize>)> = gates
                        .iter()
                        .map(|&i| {
                            let Instruction::Unitary { gate, targets } = &circuit.instructions()[i]
                            else {
                                unreachable!("fused blocks only absorb unitaries")
                            };
                            (gate.clone(), targets.clone())
                        })
                        .collect();
                    let recipe = OpRecipe::new(parts, targets.clone(), dims)?;
                    let op = recipe.realize(&zeros)?;
                    let kind = OpKind::classify(&op);
                    let recipe = recipe.has_free().then_some(recipe);
                    ExecStep::Apply { targets, plan, kind, op, noise: Vec::new(), recipe }
                }
                FusedInst::Gate { index } => {
                    let Instruction::Unitary { gate, targets } = &circuit.instructions()[index]
                    else {
                        unreachable!("fusion pass only tags unitaries as gates")
                    };
                    let plan = ApplyPlan::new(radix, targets).map_err(CircuitError::Core)?;
                    let op = gate.bound_matrix(&zeros)?;
                    let kind = OpKind::classify(&op);
                    let noise_channels = gate_noise[index]
                        .take()
                        .expect("unitary instructions carry a channel list")
                        .into_iter()
                        .map(|(channel, qudit)| ChannelKernel::new(radix, channel, vec![qudit]))
                        .collect::<Result<Vec<_>>>()?;
                    let recipe = gate
                        .free_param()
                        .is_some()
                        .then(|| {
                            OpRecipe::new(
                                vec![(gate.clone(), targets.clone())],
                                targets.clone(),
                                dims,
                            )
                        })
                        .transpose()?;
                    ExecStep::Apply {
                        targets: targets.clone(),
                        plan,
                        kind,
                        op,
                        noise: noise_channels,
                        recipe,
                    }
                }
                FusedInst::Passthrough { index } => match &circuit.instructions()[index] {
                    Instruction::Measure { targets } => {
                        ExecStep::Measure { targets: targets.clone() }
                    }
                    Instruction::Reset { target } => ExecStep::Reset { target: *target },
                    Instruction::Channel { channel, targets } => ExecStep::Channel(
                        ChannelKernel::new(radix, channel.clone(), targets.clone())?,
                    ),
                    Instruction::Barrier => ExecStep::Barrier,
                    Instruction::Unitary { .. } => {
                        unreachable!("unitaries never pass through the fusion pass")
                    }
                },
            });
        }
        Ok(Self { dims: dims.to_vec(), steps, origins, barrier_loss, stats, num_params })
    }

    /// Re-materialises the operators (and exact [`OpKind`] classifications)
    /// of every parameter-dependent apply step at the given binding into a
    /// caller-owned [`BindBuffers`] overlay. The plan topology — fusion
    /// decisions, stride plans, step order, noise channels — is
    /// parameter-invariant and never touched, which is what lets many
    /// concurrent requests share one `Arc`'d kernel set while each carries
    /// its own binding.
    ///
    /// The overlay is replaced wholesale on success and left untouched on
    /// error, so a failed rebind never leaves a plan half-bound.
    ///
    /// # Errors
    /// Returns an error if `params` supplies fewer than
    /// [`CircuitKernels::num_params`] values.
    pub(crate) fn bind_into(&self, params: &[f64], binds: &mut BindBuffers) -> Result<()> {
        if params.len() < self.num_params {
            return Err(CircuitError::InvalidGate(format!(
                "binding supplies {} parameters but the plan needs {}",
                params.len(),
                self.num_params
            )));
        }
        let mut overrides = Vec::new();
        for (index, step) in self.steps.iter().enumerate() {
            if let ExecStep::Apply { recipe: Some(recipe), .. } = step {
                let op = recipe.realize(params)?;
                let kind = OpKind::classify(&op);
                overrides.push((index, op, kind));
            }
        }
        binds.overrides = overrides;
        Ok(())
    }

    /// [`CircuitKernels::bind_into`] over a whole population at once, with
    /// the per-step materialisations **memoised**: members whose bindings
    /// agree bitwise on the parameters a recipe actually reads share one
    /// [`OpRecipe::realize`] call (the realized matrix is cloned into each
    /// member's overlay, so [`BindBuffers`] stays unchanged). Structured
    /// populations — a coordinate grid, a line search along one axis — pay
    /// for the distinct values per step, not for the population size.
    ///
    /// Sharing is exact: `realize` is a deterministic pure function of the
    /// parameters [`OpRecipe::free_param_indices`] names, so a memo hit is
    /// bitwise identical to the realization `bind_into` would have produced.
    ///
    /// # Errors
    /// Returns an error if any member supplies fewer than
    /// [`CircuitKernels::num_params`] values.
    pub(crate) fn bind_batch_into(&self, population: &[Vec<f64>]) -> Result<Vec<BindBuffers>> {
        for params in population {
            if params.len() < self.num_params {
                return Err(CircuitError::InvalidGate(format!(
                    "binding supplies {} parameters but the plan needs {}",
                    params.len(),
                    self.num_params
                )));
            }
        }
        let mut cols: Vec<BindBuffers> =
            population.iter().map(|_| BindBuffers::default()).collect();
        let mut memo: Vec<(Vec<u64>, CMatrix, OpKind)> = Vec::new();
        for (index, step) in self.steps.iter().enumerate() {
            let ExecStep::Apply { recipe: Some(recipe), .. } = step else { continue };
            let free = recipe.free_param_indices();
            memo.clear();
            for (b, params) in population.iter().enumerate() {
                let key: Vec<u64> = free.iter().map(|&i| params[i].to_bits()).collect();
                let (op, kind) = match memo.iter().find(|(k, _, _)| *k == key) {
                    Some((_, op, kind)) => (op.clone(), kind.clone()),
                    None => {
                        let op = recipe.realize(params)?;
                        let kind = OpKind::classify(&op);
                        memo.push((key, op.clone(), kind.clone()));
                        (op, kind)
                    }
                };
                cols[b].overrides.push((index, op, kind));
            }
        }
        Ok(cols)
    }
}

/// Per-request parameter-binding overlay over an immutable (`Arc`-shared)
/// plan topology: the realized operator and exact classification of every
/// parameter-dependent step, ascending by step index. Run loops walk the
/// overlay with a monotone cursor ([`BindBuffers::resolve`]), so resolution
/// is O(1) amortised per step. An empty overlay means the compile-time
/// all-zero binding.
///
/// The same type serves both simulators: for statevector plans the matrix is
/// the apply step's operator, for density plans it is the sandwich unitary or
/// the sweep's composed superoperator — the run loop knows which from the
/// step it is resolving.
#[derive(Debug, Clone, Default)]
pub(crate) struct BindBuffers {
    /// `(step index, realized operator, exact classification)`, ascending.
    pub overrides: Vec<(usize, CMatrix, OpKind)>,
}

impl BindBuffers {
    /// Resolves the operator of `step`: the override when the binding
    /// re-materialised this step, the compiled base otherwise. `cursor` must
    /// start at zero and be advanced only by this method, with `step` values
    /// in ascending order (the run-loop access pattern).
    pub fn resolve<'a>(
        &'a self,
        cursor: &mut usize,
        step: usize,
        base_kind: &'a OpKind,
        base_op: &'a CMatrix,
    ) -> (&'a OpKind, &'a CMatrix) {
        while *cursor < self.overrides.len() && self.overrides[*cursor].0 < step {
            *cursor += 1;
        }
        match self.overrides.get(*cursor) {
            Some((s, op, kind)) if *s == step => (kind, op),
            _ => (base_kind, base_op),
        }
    }
}

/// Reusable per-run working memory for the kernel paths.
#[derive(Debug, Default)]
pub(crate) struct RunScratch {
    /// Gather/apply scratch sized to the largest operator block.
    pub block: Vec<Complex64>,
    /// Kraus branch probabilities of the latest channel event.
    pub branch_probs: Vec<f64>,
    /// Target marginal behind one-sweep branch probabilities.
    pub marginal: Vec<f64>,
    /// Selected Kraus branch per draw of the latest channel event.
    pub choices: Vec<usize>,
    /// Contiguous single-column buffer for the trajectory executor's gathered
    /// per-column applies (see `sim::ensemble::apply_col`) and for the
    /// per-branch fallback of [`ChannelKernel::select_branches`].
    pub col: Vec<Complex64>,
}

// --------------------------------------------------------------------------
// Density-side compilation: superoperator batching over vectorised ρ.
// --------------------------------------------------------------------------

use qudit_core::superop::SuperPlan;
use qudit_core::Radix;

/// Configuration of the density-matrix simulator's superoperator batching
/// (see [`crate::sim::DensityMatrixSimulator::with_superop`]).
///
/// With batching enabled (the default), the density compiler turns every
/// channel whose superoperator `Σ K ⊗ conj(K)` is profitable into a **single
/// strided sweep** over the vectorised density matrix, and folds
/// channel-adjacent unitary runs into the same sweep when that never
/// increases apply cost. Disabled, every channel executes on the per-term
/// Kraus path (`2m` sweeps plus `m` accumulations for an `m`-operator
/// channel), which is the reference the property tests compare against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperopConfig {
    /// Master switch; disabled keeps all channels on the per-term path.
    pub enabled: bool,
    /// Maximum target-subspace dimension `k` a superoperator sweep may span
    /// (the superoperator matrix is `k² × k²`; the default of 16 caps it at
    /// `256 × 256` — a two-qudit `d = 4` channel, 1 MiB).
    pub max_dim: usize,
}

impl Default for SuperopConfig {
    fn default() -> Self {
        Self { enabled: true, max_dim: 16 }
    }
}

impl SuperopConfig {
    /// A configuration with batching switched off (per-term execution).
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::default() }
    }
}

/// What the density compiler did to an execution plan; exposed for
/// benchmarks, tests and CI assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperopStats {
    /// Superoperator sweeps in the compiled density plan.
    pub super_steps: usize,
    /// Sweeps that absorbed at least two constituent operations.
    pub multi_op_supers: usize,
    /// Constituent operations (unitaries, channels, measurement dephasing,
    /// resets, idle-loss) absorbed into multi-op sweeps.
    pub ops_folded: usize,
    /// Standalone unitary (two-sided sandwich) steps.
    pub unitary_steps: usize,
    /// Channels kept on the per-term Kraus path.
    pub kraus_steps: usize,
    /// Largest target-subspace dimension among superoperator sweeps.
    pub max_super_dim: usize,
}

/// One step of the compiled **density** execution plan. Measurements, resets
/// and barrier losses from the shared [`ExecStep`] plan are compiled away
/// into their channel forms, so the density run loop is just three arms.
#[derive(Debug, Clone)]
pub(crate) enum DensityStep {
    /// A standalone deterministic map, applied as the two-sided sandwich
    /// `ρ → U ρ U†` (cheaper than its superoperator for `k > 2`).
    Unitary { plan: ApplyPlan, kind: OpKind, op: CMatrix },
    /// One superoperator sweep over vectorised ρ: a whole channel — possibly
    /// with folded adjacent unitaries and further channels — in one pass.
    /// `fallback` records the constituent operations in program order so a
    /// sweep whose matrix fails its runtime trace-preservation check under
    /// [`qudit_core::guard::GuardPolicy::FallBack`] can degrade to the
    /// per-constituent path; it is empty for parameter-dependent sweeps
    /// (their constituents would go stale on rebind, so a defect there fails
    /// hard instead). `defect_tol` is the compile-time trace-preservation
    /// allowance (base tolerance plus the constituents' construction
    /// tolerances, so intentionally lossy channels stay legal).
    Super {
        plan: SuperPlan,
        kind: OpKind,
        sup: CMatrix,
        fallback: Vec<SuperFallback>,
        defect_tol: f64,
    },
    /// Per-term Kraus fallback for channels whose superoperator would be
    /// over budget or cost more than `2m` strided sweeps.
    Kraus(ChannelKernel),
}

/// One constituent of a superoperator sweep's degradation path: the original
/// operation the sweep folded, applied directly when the sweep's matrix
/// fails its runtime health check (see [`DensityStep::Super`]).
#[derive(Debug, Clone)]
pub(crate) enum SuperFallback {
    /// A deterministic map applied as the two-sided sandwich.
    Unitary { plan: ApplyPlan, kind: OpKind, op: CMatrix },
    /// A channel applied on the per-term Kraus path.
    Kraus(ChannelKernel),
}

/// One constituent of a rebindable superoperator sweep: either a constant
/// superoperator (channel, measurement dephasing, reset, idle loss, or a
/// bound unitary's `U ⊗ conj(U)`) or a parameter-dependent unitary whose
/// superoperator is re-derived from its [`OpRecipe`] at every binding.
#[derive(Debug, Clone)]
pub(crate) enum SuperPart {
    /// Binding-independent superoperator, **pre-embedded** into the sweep's
    /// doubled union support at compile time so rebinds never re-embed it.
    Const { sup: CMatrix },
    /// Parameter-dependent unitary; its superoperator is
    /// `U(θ) ⊗ conj(U(θ))` with `U(θ)` realized by the recipe, embedded per
    /// binding.
    Parametric { recipe: OpRecipe },
}

/// Embeds a superoperator over `from` targets into the doubled union support
/// `union ∪ (union + n)` of a register with the given dims.
fn embed_super(sup: &CMatrix, from: &[usize], union: &[usize], dims: &[usize]) -> Result<CMatrix> {
    let n = dims.len();
    let doubled = |ts: &[usize]| -> Vec<usize> {
        let mut d = Vec::with_capacity(2 * ts.len());
        d.extend_from_slice(ts);
        d.extend(ts.iter().map(|&t| t + n));
        d
    };
    let union_doubled_dims: Vec<usize> = {
        let u: Vec<usize> = union.iter().map(|&t| dims[t]).collect();
        u.iter().chain(u.iter()).copied().collect()
    };
    embed_to(&doubled(union), &union_doubled_dims, &doubled(from), sup)
}

/// How to re-materialise one parameter-dependent density step on rebind.
#[derive(Debug, Clone)]
pub(crate) enum DensityRecipe {
    /// A sandwich step: re-realize the unitary.
    Sandwich { step: usize, recipe: OpRecipe },
    /// A superoperator sweep: re-compose the (embedded) part superoperators
    /// over the sweep's ascending union support.
    Super { step: usize, parts: Vec<SuperPart>, targets: Vec<usize> },
}

/// Why a density-compiler constituent item exists: its relation to the
/// source instruction(s) it was lowered from. Consumed by
/// `sim::introspect` / `qudit-verify` only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DensityRole {
    /// The instruction's own map: a (possibly fused) unitary or an explicit
    /// channel.
    Primary,
    /// The `index`-th noise channel the model attaches after a gate.
    GateNoise(usize),
    /// Full dephasing of one measured target (non-selective measurement).
    MeasureDephase(usize),
    /// The reset-to-`|0⟩` channel of a reset instruction.
    Reset,
    /// The idle-loss channel of qudit `usize` at a lossy barrier.
    BarrierLoss(usize),
}

/// Provenance of one density-compiler item: which source instructions it was
/// lowered from, in what role, on which wires. Consumed by
/// `sim::introspect` / `qudit-verify` only — the run loops never read it.
#[derive(Debug, Clone)]
pub struct ItemOrigin {
    /// Source-instruction indices, ascending (= program order for fused
    /// primaries, a single index otherwise).
    pub sources: Vec<usize>,
    /// The item's relation to its source instruction(s).
    pub role: DensityRole,
    /// The wires the item acts on, in the item's operator index order.
    pub targets: Vec<usize>,
    /// `true` iff the item's operator depends on a free parameter.
    pub parametric: bool,
}

/// The compiled density execution plan (see [`DensityStep`]).
#[derive(Debug, Clone)]
pub(crate) struct DensityKernels {
    pub dims: Vec<usize>,
    pub steps: Vec<DensityStep>,
    /// Provenance of every constituent item the compiler folded over,
    /// in item (= linearised program) order.
    pub item_origins: Vec<ItemOrigin>,
    /// Item indices consumed by each emitted step, parallel to `steps`
    /// (ascending within a step = program order of the folded constituents).
    pub step_items: Vec<Vec<usize>>,
    /// What the (shared) fusion pass did.
    pub fusion_stats: FusionStats,
    /// What the superoperator compiler did.
    pub stats: SuperopStats,
    /// Re-materialisation recipes for the parameter-dependent steps.
    pub rebind: Vec<DensityRecipe>,
    /// Parameters a binding must supply.
    pub num_params: usize,
}

/// Composes the superoperator of a sweep from its parts: each part's
/// superoperator is embedded into the doubled union support and multiplied in
/// program order (structured factors short-circuit the dense matmul). Shared
/// verbatim by compile and rebind, so re-binding reproduces the compiled
/// composition bitwise.
fn compose_super_parts(
    parts: &[SuperPart],
    params: &[f64],
    union: &[usize],
    dims: &[usize],
) -> Result<CMatrix> {
    // Constant (pre-embedded) parts multiply by reference; only a sweep whose
    // first part is constant pays one clone (the accumulator seed).
    let mut acc: Option<CMatrix> = None;
    for part in parts {
        acc = Some(match (part, acc) {
            (SuperPart::Const { sup }, None) => sup.clone(),
            (SuperPart::Const { sup }, Some(prev)) => {
                matmul_structured(sup, &prev).map_err(CircuitError::Core)?
            }
            (SuperPart::Parametric { recipe }, acc) => {
                let embedded = embed_super(
                    &SuperPlan::unitary_superop(&recipe.realize(params)?),
                    &recipe.targets,
                    union,
                    dims,
                )?;
                match acc {
                    None => embedded,
                    Some(prev) => {
                        matmul_structured(&embedded, &prev).map_err(CircuitError::Core)?
                    }
                }
            }
        });
    }
    acc.ok_or_else(|| CircuitError::InvalidGate("empty superoperator composition".into()))
}

/// Structure class of an operator or superoperator, used by the density
/// compiler's cost model. The class of a product is predicted conservatively
/// (`diag · diag` stays diagonal, monomial-like products stay monomial,
/// anything else is dense); the emitted sweep is re-classified exactly with
/// [`OpKind::classify`], so the prediction only influences merge decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Structure {
    Diagonal,
    Monomial,
    Dense,
}

impl Structure {
    fn of(kind: &OpKind) -> Self {
        match kind {
            OpKind::Diagonal(_) => Structure::Diagonal,
            OpKind::Monomial { .. } => Structure::Monomial,
            OpKind::Dense => Structure::Dense,
        }
    }

    /// Structure of a product of two operators of these classes.
    fn join(self, other: Structure) -> Structure {
        use Structure::*;
        match (self, other) {
            (Diagonal, Diagonal) => Diagonal,
            (Diagonal | Monomial, Diagonal | Monomial) => Monomial,
            _ => Dense,
        }
    }

    /// Approximate cost of one superoperator sweep on a subspace of
    /// dimension `k`, in units of `N²` multiply-adds.
    fn sweep_cost(self, k: usize) -> usize {
        match self {
            Structure::Diagonal => 1,
            Structure::Monomial => 2,
            Structure::Dense => k * k,
        }
    }
}

/// A constituent operation the density compiler folds over.
enum DensityItem {
    /// A deterministic map (gate, fused block, or single-operator channel).
    /// `recipe` is present iff the operator depends on a free parameter.
    /// `tol` is the trace-preservation allowance the item contributes to a
    /// fold's compile-time validation: `0` for unitaries, the construction
    /// tolerance for single-operator channels (which may be intentionally
    /// lossy).
    Unitary {
        targets: Vec<usize>,
        plan: ApplyPlan,
        kind: OpKind,
        op: CMatrix,
        recipe: Option<OpRecipe>,
        tol: f64,
    },
    /// A multi-operator channel; `sup` is its precomputed superoperator and
    /// classification when the channel is superop-eligible.
    Channel { kernel: ChannelKernel, sup: Option<(CMatrix, OpKind)> },
}

/// An open (still-growing) superoperator block on the density compiler's
/// frontier. Like fusion's open blocks, live blocks have pairwise disjoint
/// supports, so they commute and closing order is irrelevant. Blocks are
/// structural — they record which items they absorbed; the composed
/// superoperator is materialised at close time (and a single-unitary block
/// closes as a plain sandwich, so noiseless circuits never pay the
/// Kronecker).
struct OpenSuper {
    /// Ascending union support.
    targets: Vec<usize>,
    sub_dim: usize,
    /// Absorbed item indices (ascending = program order after sorting).
    items: Vec<usize>,
    class: Structure,
    /// Sum of the constituents' standalone sweep costs (the cost of *not*
    /// folding), used by the merge rule.
    cost: usize,
}

impl DensityKernels {
    /// Compiles the shared execution plan into the density-specific plan:
    /// channels become superoperator sweeps where profitable, and adjacent
    /// operations merge under the cost rule below.
    ///
    /// ## Cost rule
    ///
    /// Each constituent has a standalone cost in units of `N²` multiply-adds:
    /// `2k` for a dense unitary sandwich (2 / 4 for diagonal / monomial) and
    /// `k²` for a dense superoperator sweep (1 / 2 for diagonal / monomial).
    /// A merge into a union of subspace dimension `k_U` is accepted only when
    /// the predicted union sweep cost does not exceed the sum of the
    /// constituents' standalone costs and `k_U` stays within
    /// [`SuperopConfig::max_dim`] — folding therefore **never increases**
    /// apply cost. A dense two-qudit unitary does *not* absorb its per-qudit
    /// noise channels (`k_U² = 256 > 2k + 2k²`), but a single-qudit gate
    /// folds with its channel, runs of same-support channels collapse to one
    /// sweep, and a two-qudit channel absorbs the two-qudit gate it follows.
    ///
    /// ## Parameter dependence
    ///
    /// Items whose operator carries a free parameter are classified
    /// **conservatively** for the cost model — diagonal iff their generators
    /// are diagonal (true at every binding), dense otherwise — so the folding
    /// topology is binding-independent and a compiled plan can be rebound in
    /// place. The emitted sweeps record their constituent parts; `bind`
    /// re-composes exactly those sweeps through the same code path the
    /// compiler used.
    pub(crate) fn compile(kernels: &CircuitKernels, config: &SuperopConfig) -> Result<Self> {
        let radix = Radix::new(kernels.dims.clone()).map_err(CircuitError::Core)?;
        let zeros = vec![0.0f64; kernels.num_params];
        let (items, item_origins) = collect_density_items(kernels, config, &radix)?;
        let mut builder = DensityFrontier {
            radix: &radix,
            dims: &kernels.dims,
            config,
            zeros,
            items: items.into_iter().map(Some).collect(),
            open: Vec::new(),
            wire: vec![None; kernels.dims.len()],
            steps: Vec::new(),
            step_items: Vec::new(),
            rebind: Vec::new(),
            stats: SuperopStats::default(),
        };

        if !config.enabled {
            for id in 0..builder.items.len() {
                builder.emit_verbatim(id)?;
            }
        } else {
            for id in 0..builder.items.len() {
                builder.push_item(id)?;
            }
            for slot in 0..builder.open.len() {
                if builder.open[slot].is_some() {
                    builder.close(slot)?;
                }
            }
        }
        Ok(Self {
            dims: kernels.dims.clone(),
            steps: builder.steps,
            item_origins,
            step_items: builder.step_items,
            fusion_stats: kernels.stats,
            stats: builder.stats,
            rebind: builder.rebind,
            num_params: kernels.num_params,
        })
    }

    /// Re-materialises every parameter-dependent density step at the given
    /// binding into a caller-owned [`BindBuffers`] overlay: sandwich steps
    /// re-realize their unitary, sweeps re-compose their recorded parts. The
    /// folding topology, stride plans and step order are parameter-invariant
    /// and never touched, so an `Arc`-shared density plan serves concurrent
    /// requests that each carry their own binding.
    ///
    /// The overlay is replaced wholesale on success and left untouched on
    /// error.
    ///
    /// # Errors
    /// Returns an error if `params` supplies fewer than `num_params` values.
    pub(crate) fn bind_into(&self, params: &[f64], binds: &mut BindBuffers) -> Result<()> {
        if params.len() < self.num_params {
            return Err(CircuitError::InvalidGate(format!(
                "binding supplies {} parameters but the plan needs {}",
                params.len(),
                self.num_params
            )));
        }
        // `rebind` entries were pushed at `steps.len()` during compilation,
        // so they are already ascending by step index.
        let mut overrides = Vec::with_capacity(self.rebind.len());
        for recipe in &self.rebind {
            match recipe {
                DensityRecipe::Sandwich { step, recipe } => {
                    let op = recipe.realize(params)?;
                    let kind = OpKind::classify(&op);
                    overrides.push((*step, op, kind));
                }
                DensityRecipe::Super { step, parts, targets } => {
                    let sup = compose_super_parts(parts, params, targets, &self.dims)?;
                    let kind = OpKind::classify(&sup);
                    overrides.push((*step, sup, kind));
                }
            }
        }
        binds.overrides = overrides;
        Ok(())
    }
}

/// Working state of the density compiler's superoperator frontier.
struct DensityFrontier<'a> {
    radix: &'a Radix,
    dims: &'a [usize],
    config: &'a SuperopConfig,
    /// The all-zero binding the compiled operators are materialised at.
    zeros: Vec<f64>,
    /// Constituents, consumed (taken) as their blocks close.
    items: Vec<Option<DensityItem>>,
    /// Slot-map of open blocks (freed entries become `None`).
    open: Vec<Option<OpenSuper>>,
    wire: Vec<Option<usize>>,
    steps: Vec<DensityStep>,
    /// Item indices consumed by each emitted step, parallel to `steps`.
    step_items: Vec<Vec<usize>>,
    rebind: Vec<DensityRecipe>,
    stats: SuperopStats,
}

impl DensityFrontier<'_> {
    /// The conservative structure class of an item for the (binding-
    /// independent) cost model.
    fn item_class(item: &DensityItem) -> Structure {
        match item {
            DensityItem::Unitary { kind, recipe, .. } => match recipe {
                Some(r) if r.diagonal_for_all_bindings() => Structure::Diagonal,
                Some(_) => Structure::Dense,
                None => Structure::of(kind),
            },
            DensityItem::Channel { sup, .. } => match sup {
                Some((_, kind)) => Structure::of(kind),
                None => Structure::Dense,
            },
        }
    }

    /// Emits an item verbatim (batching disabled): unitaries as sandwiches,
    /// channels on the per-term Kraus path.
    fn emit_verbatim(&mut self, id: usize) -> Result<()> {
        self.step_items.push(vec![id]);
        match self.items[id].take().expect("items are consumed once") {
            DensityItem::Unitary { plan, kind, op, recipe, .. } => {
                if let Some(recipe) = recipe {
                    self.rebind.push(DensityRecipe::Sandwich { step: self.steps.len(), recipe });
                }
                self.stats.unitary_steps += 1;
                self.steps.push(DensityStep::Unitary { plan, kind, op });
            }
            DensityItem::Channel { kernel, .. } => {
                self.stats.kraus_steps += 1;
                self.steps.push(DensityStep::Kraus(kernel));
            }
        }
        Ok(())
    }

    /// Closes the block in `slot`: a single-unitary block becomes a sandwich
    /// step, anything else one composed superoperator sweep.
    fn close(&mut self, slot: usize) -> Result<()> {
        let block = self.open[slot].take().expect("closing a live block");
        for &t in &block.targets {
            self.wire[t] = None;
        }
        let mut ids = block.items;
        ids.sort_unstable();
        if ids.len() == 1 {
            if let Some(DensityItem::Unitary { .. }) = self.items[ids[0]].as_ref() {
                return self.emit_verbatim(ids[0]);
            }
        }
        let mut parts = Vec::with_capacity(ids.len());
        let mut fallback = Vec::with_capacity(ids.len());
        let mut parametric = false;
        // Base slack for the compose/kron rounding, widened by each
        // constituent's own construction tolerance so intentionally lossy
        // channels (see `KrausChannel::new_with_tolerance`) stay legal.
        let mut defect_tol = qudit_core::guard::GuardConfig::DEFAULT_TOL;
        for id in ids.iter() {
            // Constant parts embed into the union once, here; only the
            // parametric parts re-embed on rebind.
            parts.push(match self.items[*id].take().expect("items are consumed once") {
                DensityItem::Unitary { recipe: Some(recipe), .. } => {
                    parametric = true;
                    SuperPart::Parametric { recipe }
                }
                DensityItem::Unitary { targets, plan, kind, op, recipe: None, tol } => {
                    defect_tol += tol;
                    fallback.push(SuperFallback::Unitary { plan, kind, op: op.clone() });
                    SuperPart::Const {
                        sup: embed_super(
                            &SuperPlan::unitary_superop(&op),
                            &targets,
                            &block.targets,
                            self.dims,
                        )?,
                    }
                }
                DensityItem::Channel { kernel, sup } => {
                    let (sup, _) = sup.expect("merged channels carry their superoperator");
                    defect_tol += kernel.channel.tolerance();
                    let part = SuperPart::Const {
                        sup: embed_super(&sup, &kernel.targets, &block.targets, self.dims)?,
                    };
                    fallback.push(SuperFallback::Kraus(kernel));
                    part
                }
            });
        }
        if parametric {
            // A rebind recomposes the sweep but would leave these payloads
            // stale, so a defect on a parametric sweep fails hard instead.
            fallback.clear();
        }
        let sup = compose_super_parts(&parts, &self.zeros, &block.targets, self.dims)?;
        let defect = SuperPlan::trace_defect(&sup, block.sub_dim);
        if defect > defect_tol || defect.is_nan() {
            return Err(CircuitError::InvalidChannel(format!(
                "folded superoperator on qudits {:?} is not trace preserving \
                 (defect {defect:.3e}, allowed {defect_tol:.3e})",
                block.targets
            )));
        }
        let plan = SuperPlan::new(self.radix, &block.targets).map_err(CircuitError::Core)?;
        let kind = OpKind::classify(&sup);
        self.stats.super_steps += 1;
        self.stats.max_super_dim = self.stats.max_super_dim.max(block.sub_dim);
        if ids.len() >= 2 {
            self.stats.multi_op_supers += 1;
            self.stats.ops_folded += ids.len();
        }
        if parametric {
            self.rebind.push(DensityRecipe::Super {
                step: self.steps.len(),
                parts,
                targets: block.targets,
            });
        }
        self.step_items.push(ids);
        self.steps.push(DensityStep::Super { plan, kind, sup, fallback, defect_tol });
        Ok(())
    }

    /// Closes every open block whose support intersects `targets`; the
    /// remaining blocks commute with the emitted step (disjoint supports).
    /// This is the same wire-local flush rule the fusion pass applies to its
    /// unitary frontier.
    fn flush_touching(&mut self, targets: &[usize]) -> Result<()> {
        let mut slots: Vec<usize> = targets.iter().filter_map(|&t| self.wire[t]).collect();
        slots.sort_unstable();
        slots.dedup();
        for slot in slots {
            self.close(slot)?;
        }
        Ok(())
    }

    /// Feeds one item to the frontier: greedy merge against the touched open
    /// blocks (in creation order) under the cost rule and budget, closing the
    /// blocks that cannot merge.
    fn push_item(&mut self, id: usize) -> Result<()> {
        let item = self.items[id].as_ref().expect("items are pushed once");
        let item_class = Self::item_class(item);
        let (targets, eligible, item_cost) = match item {
            DensityItem::Unitary { targets, plan, .. } => {
                let k = plan.sub_dim();
                let cost = match item_class {
                    Structure::Diagonal => 2,
                    Structure::Monomial => 4,
                    Structure::Dense => 2 * k,
                };
                (targets.clone(), k <= self.config.max_dim, cost)
            }
            DensityItem::Channel { kernel, sup } => {
                let cost = match sup {
                    Some((_, kind)) => Structure::of(kind).sweep_cost(kernel.plan.sub_dim()),
                    None => 0,
                };
                (kernel.targets.clone(), sup.is_some(), cost)
            }
        };
        if !eligible {
            // Too large to ever join a sweep (or an unprofitable/over-budget
            // channel): emit verbatim, flushing overlaps first.
            self.flush_touching(&targets)?;
            return self.emit_verbatim(id);
        }

        let mut slots: Vec<usize> = targets.iter().filter_map(|&t| self.wire[t]).collect();
        slots.sort_unstable();
        slots.dedup();

        let mut union: Vec<usize> = targets.clone();
        union.sort_unstable();
        let mut union_dim = self.radix.subspace_dim(&union).map_err(CircuitError::Core)?;
        let mut parts_cost = item_cost;
        let mut class = item_class;
        let mut accepted = Vec::new();
        for &s in &slots {
            let block = self.open[s].as_ref().expect("live slot");
            let mut tentative = union.clone();
            tentative.extend(block.targets.iter().copied());
            tentative.sort_unstable();
            tentative.dedup();
            let t_dim = self.radix.subspace_dim(&tentative).map_err(CircuitError::Core)?;
            let t_class = class.join(block.class);
            if t_dim <= self.config.max_dim && t_class.sweep_cost(t_dim) <= parts_cost + block.cost
            {
                accepted.push(s);
                union = tentative;
                union_dim = t_dim;
                parts_cost += block.cost;
                class = t_class;
            }
        }
        for &s in &slots {
            if !accepted.contains(&s) {
                self.close(s)?;
            }
        }

        let mut item_ids = vec![id];
        for &s in &accepted {
            let block = self.open[s].take().expect("live slot");
            for &t in &block.targets {
                self.wire[t] = None;
            }
            item_ids.extend(block.items);
        }

        let slot = self.open.len();
        for &t in &union {
            self.wire[t] = Some(slot);
        }
        self.open.push(Some(OpenSuper {
            targets: union,
            sub_dim: union_dim,
            items: item_ids,
            class,
            cost: parts_cost,
        }));
        Ok(())
    }
}

/// Linearises the shared plan into the density compiler's constituent items:
/// gate noise inlined after its gate, measurements as full target dephasing,
/// resets as the `|0⟩⟨i|` channel, barriers as their idle-loss channels.
/// Single-operator channels become unitary items (a one-term Kraus sum *is*
/// a sandwich), and each multi-operator channel precomputes its
/// superoperator when within budget and profitable (dense superoperator
/// sweeps cost `k²`; the per-term path costs `≈ 2mk + 2m`, so a dense
/// superoperator must satisfy `k² ≤ 2mk + 2m`).
fn collect_density_items(
    kernels: &CircuitKernels,
    config: &SuperopConfig,
    radix: &Radix,
) -> Result<(Vec<DensityItem>, Vec<ItemOrigin>)> {
    let mut items = Vec::with_capacity(kernels.steps.len());
    let mut origins: Vec<ItemOrigin> = Vec::with_capacity(kernels.steps.len());
    let push_channel = |items: &mut Vec<DensityItem>, kernel: ChannelKernel| -> Result<()> {
        if kernel.channel.operators().len() == 1 {
            items.push(DensityItem::Unitary {
                targets: kernel.targets.clone(),
                plan: kernel.plan.clone(),
                kind: kernel.kinds[0].clone(),
                op: kernel.channel.operators()[0].clone(),
                recipe: None,
                tol: kernel.channel.tolerance(),
            });
            return Ok(());
        }
        let k = kernel.plan.sub_dim();
        let sup = if config.enabled && k <= config.max_dim {
            let sup =
                SuperPlan::kraus_superop(kernel.channel.operators()).map_err(CircuitError::Core)?;
            // The superoperator's trace defect equals the Kraus completeness
            // defect, so a healthy fold must sit within the channel's own
            // construction tolerance (plus kron rounding slack).
            let defect = SuperPlan::trace_defect(&sup, k);
            let allowed = kernel.channel.tolerance() + 1e-9;
            if defect > allowed || defect.is_nan() {
                return Err(CircuitError::InvalidChannel(format!(
                    "superoperator of channel '{}' is not trace preserving \
                     (defect {defect:.3e}, allowed {allowed:.3e})",
                    kernel.channel.name(),
                )));
            }
            let kind = OpKind::classify(&sup);
            let m = kernel.channel.operators().len();
            let profitable = !matches!(kind, OpKind::Dense) || k * k <= 2 * m * k + 2 * m;
            profitable.then_some((sup, kind))
        } else {
            None
        };
        items.push(DensityItem::Channel { kernel, sup });
        Ok(())
    };

    for (step, sources) in kernels.steps.iter().zip(kernels.origins.iter()) {
        match step {
            ExecStep::Apply { targets, plan, kind, op, noise, recipe } => {
                origins.push(ItemOrigin {
                    sources: sources.clone(),
                    role: DensityRole::Primary,
                    targets: targets.clone(),
                    parametric: recipe.is_some(),
                });
                items.push(DensityItem::Unitary {
                    targets: targets.clone(),
                    plan: plan.clone(),
                    kind: kind.clone(),
                    op: op.clone(),
                    recipe: recipe.clone(),
                    tol: 0.0,
                });
                for (j, ch) in noise.iter().enumerate() {
                    origins.push(ItemOrigin {
                        sources: sources.clone(),
                        role: DensityRole::GateNoise(j),
                        targets: ch.targets.clone(),
                        parametric: false,
                    });
                    push_channel(&mut items, ch.clone())?;
                }
            }
            ExecStep::Channel(ch) => {
                origins.push(ItemOrigin {
                    sources: sources.clone(),
                    role: DensityRole::Primary,
                    targets: ch.targets.clone(),
                    parametric: false,
                });
                push_channel(&mut items, ch.clone())?;
            }
            ExecStep::Measure { targets } => {
                // Non-selective measurement: full dephasing of each target.
                for &t in targets {
                    origins.push(ItemOrigin {
                        sources: sources.clone(),
                        role: DensityRole::MeasureDephase(t),
                        targets: vec![t],
                        parametric: false,
                    });
                    let deph = KrausChannel::dephasing(kernels.dims[t], 1.0)?;
                    push_channel(&mut items, ChannelKernel::new(radix, deph, vec![t])?)?;
                }
            }
            ExecStep::Reset { target } => {
                origins.push(ItemOrigin {
                    sources: sources.clone(),
                    role: DensityRole::Reset,
                    targets: vec![*target],
                    parametric: false,
                });
                let d = kernels.dims[*target];
                let reset = KrausChannel::new("reset", vec![d], reset_channel(d))?;
                push_channel(&mut items, ChannelKernel::new(radix, reset, vec![*target])?)?;
            }
            ExecStep::Barrier => {
                for (q, ch) in kernels.barrier_loss.iter().enumerate() {
                    origins.push(ItemOrigin {
                        sources: sources.clone(),
                        role: DensityRole::BarrierLoss(q),
                        targets: ch.targets.clone(),
                        parametric: false,
                    });
                    push_channel(&mut items, ch.clone())?;
                }
            }
        }
    }
    debug_assert_eq!(items.len(), origins.len());
    Ok((items, origins))
}

/// Kraus operators of the reset-to-`|0⟩` channel: `K_i = |0⟩⟨i|`.
pub(crate) fn reset_channel(d: usize) -> Vec<CMatrix> {
    (0..d)
        .map(|i| {
            let mut k = CMatrix::zeros(d, d);
            k[(0, i)] = qudit_core::complex::c64(1.0, 0.0);
            k
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qudit_core::complex::c64;
    use qudit_core::random::{haar_state, haar_unitary};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random dense CPTP channel on dimension `d` with `m` Kraus operators:
    /// the first `d` columns of a Haar unitary, cut into `m` row blocks.
    pub(crate) fn random_dense_channel(rng: &mut StdRng, d: usize, m: usize) -> KrausChannel {
        let u = haar_unitary(rng, d * m).unwrap();
        let ops = (0..m).map(|k| CMatrix::from_fn(d, d, |i, j| u.get(k * d + i, j))).collect();
        KrausChannel::new("dense", vec![d], ops).unwrap()
    }

    /// A CPTP channel of two *non-injective* monomial operators: levels 0
    /// and 1 both land on `|0⟩` (with opposite relative sign), every other
    /// level keeps its place. The `K_±†K_±` sum to the identity.
    pub(crate) fn merge_channel(d: usize) -> KrausChannel {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let ops = [1.0, -1.0]
            .iter()
            .map(|&sign| {
                CMatrix::from_fn(d, d, |i, j| match (i, j) {
                    (0, 0) => c64(h, 0.0),
                    (0, 1) => c64(sign * h, 0.0),
                    (i, j) if i == j && i >= 2 => c64(h, 0.0),
                    _ => Complex64::ZERO,
                })
            })
            .collect();
        KrausChannel::new("merge", vec![d], ops).unwrap()
    }

    /// The channels trajectory unravelling meets, on single, two-qudit
    /// (adjacent, reversed and non-contiguous) targets of `dims`.
    fn channel_cases(rng: &mut StdRng, dims: &[usize]) -> Vec<(KrausChannel, Vec<usize>, bool)> {
        let n = dims.len();
        let mut cases = Vec::new();
        for q in 0..n {
            let d = dims[q];
            let g = 0.05 + 0.4 * rng.gen::<f64>();
            cases.push((KrausChannel::photon_loss(d, g).unwrap(), vec![q], true));
            cases.push((KrausChannel::dephasing(d, g).unwrap(), vec![q], true));
            cases.push((KrausChannel::depolarizing(d, g).unwrap(), vec![q], true));
            cases.push((KrausChannel::thermal_excitation(d, g).unwrap(), vec![q], true));
            cases.push((merge_channel(d), vec![q], false));
            cases.push((random_dense_channel(rng, d, 3), vec![q], false));
        }
        for (a, b) in [(0, 1), (1, 0), (0, n - 1), (n - 1, 0)] {
            let p = 0.05 + 0.3 * rng.gen::<f64>();
            let ch = KrausChannel::two_qudit_depolarizing(dims[a], dims[b], p).unwrap();
            cases.push((ch, vec![a, b], true));
        }
        cases
    }

    fn random_dims(rng: &mut StdRng) -> Vec<usize> {
        let n = rng.gen_range(3..=4);
        (0..n).map(|_| rng.gen_range(2..=4)).collect()
    }

    #[test]
    fn one_sweep_branch_probabilities_match_per_branch_oracle() {
        let mut rng = StdRng::seed_from_u64(1313);
        let mut scratch = RunScratch::default();
        let mut oracle_scratch = Vec::new();
        for _ in 0..8 {
            let dims = random_dims(&mut rng);
            let radix = Radix::new(dims.clone()).unwrap();
            let state = haar_state(&mut rng, dims.clone()).unwrap();
            for (channel, targets, one_sweep) in channel_cases(&mut rng, &dims) {
                let kernel = ChannelKernel::new(&radix, channel, targets.clone()).unwrap();
                assert_eq!(kernel.one_sweep, one_sweep, "{} on {targets:?}", kernel.channel.name());
                kernel.select_branches(state.amplitudes(), 1, 0, [0.5], &mut scratch).unwrap();
                let ops = kernel.channel.operators();
                assert_eq!(scratch.branch_probs.len(), ops.len());
                for ((op, kind), &p) in ops.iter().zip(&kernel.kinds).zip(&scratch.branch_probs) {
                    let oracle = kernel
                        .plan
                        .norm_sqr_after(kind, op, state.amplitudes(), &mut oracle_scratch)
                        .unwrap();
                    assert!(
                        (p - oracle).abs() < 1e-12,
                        "{} on {dims:?}/{targets:?}: {p} vs oracle {oracle}",
                        kernel.channel.name()
                    );
                }
                let total: f64 = scratch.branch_probs.iter().sum();
                assert!((total - 1.0).abs() < 1e-12, "trace preservation: {total}");
            }
        }
    }

    #[test]
    fn strided_column_selection_is_bitwise_identical_to_unit_stride() {
        let mut rng = StdRng::seed_from_u64(2424);
        let mut serial = RunScratch::default();
        let mut strided = RunScratch::default();
        for _ in 0..6 {
            let dims = random_dims(&mut rng);
            let radix = Radix::new(dims.clone()).unwrap();
            let states: Vec<_> =
                (0..3).map(|_| haar_state(&mut rng, dims.clone()).unwrap()).collect();
            // The interleaved panel layout: register index `i` of column `b`
            // at `panel[i * 3 + b]`.
            let panel: Vec<Complex64> = (0..radix.total_dim())
                .flat_map(|i| states.iter().map(move |s| s.amplitudes()[i]))
                .collect();
            let draws: Vec<f64> = (0..16).map(|_| rng.gen::<f64>()).collect();
            for (channel, targets, _) in channel_cases(&mut rng, &dims) {
                let kernel = ChannelKernel::new(&radix, channel, targets).unwrap();
                for (b, state) in states.iter().enumerate() {
                    let amps = state.amplitudes();
                    kernel.select_branches(amps, 1, 0, draws.clone(), &mut serial).unwrap();
                    kernel.select_branches(&panel, 3, b, draws.clone(), &mut strided).unwrap();
                    let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&serial.branch_probs), bits(&strided.branch_probs));
                    assert_eq!(serial.choices, strided.choices);
                    assert_eq!(serial.choices.len(), draws.len());
                }
            }
        }
    }

    #[test]
    fn selection_skips_zero_branches_and_rejects_zero_mass() {
        // |0⟩ under photon loss: only the no-jump branch carries mass, so no
        // draw — not even one at the top edge — may select a jump branch.
        let radix = Radix::new(vec![3, 2]).unwrap();
        let kernel =
            ChannelKernel::new(&radix, KrausChannel::photon_loss(3, 0.3).unwrap(), vec![0])
                .unwrap();
        let mut amps = vec![Complex64::ZERO; 6];
        amps[1] = Complex64::ONE;
        let mut scratch = RunScratch::default();
        let edge = 1.0 - f64::EPSILON / 2.0;
        kernel.select_branches(&amps, 1, 0, [0.0, 0.5, edge], &mut scratch).unwrap();
        assert_eq!(scratch.choices, vec![0, 0, 0]);
        assert_eq!(select_branch(&[0.25, 0.0, 0.75, 0.0], 1.0), 2);
        let zero = vec![Complex64::ZERO; 6];
        let err = kernel.select_branches(&zero, 1, 0, [0.5], &mut scratch).unwrap_err();
        assert!(
            matches!(err, CircuitError::Core(qudit_core::error::CoreError::InvalidProbability(_))),
            "{err:?}"
        );
    }

    #[test]
    fn mismatched_kraus_dimension_is_rejected_at_build() {
        let radix = Radix::new(vec![4, 4]).unwrap();
        let loss = KrausChannel::photon_loss(3, 0.2).unwrap();
        assert!(ChannelKernel::new(&radix, loss, vec![0]).is_err());
    }
}
