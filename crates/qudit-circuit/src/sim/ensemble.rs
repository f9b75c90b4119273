//! Batched trajectory execution: many stochastic shots of one compiled plan
//! evolved as one lazily splitting panel of
//! [`qudit_core::ensemble::EnsembleState`] columns.
//!
//! [`run_trajectory_chunk`] runs a chunk of trajectories that share one
//! binding, so deterministic steps batch across *all* live trajectories.
//! Shots are grouped by their Kraus-branch prefix: a group holds one panel
//! column plus the member trajectories whose stochastic history is identical
//! so far. At a stochastic event the group draws each member's branch from
//! that member's own RNG (seeded per trajectory index, exactly as a
//! one-state run seeds it), then splits lazily — the parent column is cloned
//! *before* any branch operator touches it. Branch probabilities are computed
//! once per group instead of once per trajectory, and per-member RNG streams
//! keep every member bitwise identical to its own
//! `StatevectorSimulator::run_prepared` run.
//!
//! Parameter populations ([`BatchBindings`]) are not panel-executed: their
//! columns hold distinct states, so `StatevectorSimulator::run_ensemble`
//! runs each column through the serial kernel with its own memoised binding
//! overlay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_core::apply::{ApplyPlan, OpKind};
use qudit_core::cancel::CancelToken;
use qudit_core::ensemble::EnsembleState;
use qudit_core::error::CoreError;
use qudit_core::guard::{GuardConfig, HealthMonitor, RunHealth};
use qudit_core::matrix::CMatrix;
use qudit_core::sampling::Cdf;
use qudit_core::state::QuditState;
use qudit_core::Radix;

use crate::error::{CircuitError, Result};
use crate::sim::apply_readout_flip;
use crate::sim::kernels::{
    rescale_branch, BindBuffers, ChannelKernel, CircuitKernels, ExecStep, RunScratch,
};
use crate::sim::statevector::power_of_shift;

/// A realized population of parameter bindings for one compiled plan: one
/// binding overlay per ensemble column, produced by
/// [`crate::sim::CompiledCircuit::bind_batch`] and consumed by
/// [`crate::sim::StatevectorSimulator::run_ensemble`].
#[derive(Debug, Clone)]
pub struct BatchBindings {
    pub(crate) cols: Vec<BindBuffers>,
}

impl BatchBindings {
    /// Number of bindings (= ensemble columns) in the batch.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` if the batch holds no bindings.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// The simulator settings a trajectory chunk needs, passed explicitly so the
/// executor stays decoupled from the simulator structs.
pub(crate) struct EnsembleConfig<'a> {
    pub guard: GuardConfig,
    pub cancel: Option<&'a CancelToken>,
    pub readout_flip: f64,
}

/// Applies `op` to a single ensemble column through the **serial**
/// unit-stride kernel: the column is gathered into a contiguous buffer,
/// evolved by [`ApplyPlan::apply`] — the exact kernel a one-state run uses —
/// and scattered back. Branch operators touch one column at a time, and at
/// panel stride their flops run several times slower than the serial loop's;
/// gathering keeps them at unit stride and makes the bitwise contract
/// immediate, because the arithmetic *is* the serial kernel's.
fn apply_col(
    plan: &ApplyPlan,
    kind: &OpKind,
    op: &CMatrix,
    ens: &mut EnsembleState,
    col: usize,
    scratch: &mut RunScratch,
) -> std::result::Result<(), CoreError> {
    let width = ens.width();
    if width == 1 {
        // A width-1 panel is already contiguous.
        return plan.apply(kind, op, ens.data_mut(), &mut scratch.block);
    }
    let buf = &mut scratch.col;
    buf.clear();
    buf.extend(ens.data()[col..].iter().step_by(width));
    plan.apply(kind, op, buf, &mut scratch.block)?;
    for (slot, &a) in ens.data_mut()[col..].iter_mut().step_by(width).zip(buf.iter()) {
        *slot = a;
    }
    Ok(())
}

/// One branch-prefix group at the end of a trajectory chunk: the shared
/// final state, the (ascending) trajectory indices that followed this
/// stochastic history, and the group's per-member health report (scale by
/// the member count to aggregate).
pub(crate) struct TrajGroupOutcome {
    pub state: QuditState,
    pub members: Vec<usize>,
    pub health: RunHealth,
}

/// A live branch-prefix group during a chunk run: its panel column, its
/// member positions (indices into the chunk's member list, ascending), and
/// its lineage's health monitor (cloned at splits, so each group carries the
/// checks its members' serial runs would have accumulated).
struct Group {
    col: usize,
    members: Vec<usize>,
    monitor: HealthMonitor,
}

/// Runs `members` (trajectory index, RNG seed) through a compiled plan as a
/// lazily splitting ensemble. Deterministic steps batch across all live
/// columns; stochastic events compute branch probabilities once per *group*,
/// draw each member's branch from its own RNG (streams aligned draw-for-draw
/// with the serial loop), and split the panel at divergence points.
///
/// Any member's failure (guard trip, zero-mass branch) fails the whole
/// chunk: trajectory estimates never fold a partial ensemble.
pub(crate) fn run_trajectory_chunk(
    cfg: &EnsembleConfig<'_>,
    kernels: &CircuitKernels,
    binds: &BindBuffers,
    initial: &QuditState,
    members: &[(usize, u64)],
) -> Result<Vec<TrajGroupOutcome>> {
    let core = CircuitError::Core;
    if members.is_empty() {
        return Ok(Vec::new());
    }
    kernels.check_initial(initial)?;
    if let Some(token) = cfg.cancel {
        token.check(0).map_err(core)?;
    }
    let cadence = cfg.guard.cadence.max(1);
    let mut ens = EnsembleState::from_state(initial, 1).map_err(core)?;
    let mut groups = vec![Group {
        col: 0,
        members: (0..members.len()).collect(),
        monitor: HealthMonitor::new(cfg.guard),
    }];
    let mut rngs: Vec<StdRng> =
        members.iter().map(|&(_, seed)| StdRng::seed_from_u64(seed)).collect();
    let mut cursor = 0usize;
    let mut scratch = RunScratch::default();

    for (step_index, step) in kernels.steps.iter().enumerate() {
        match step {
            ExecStep::Apply { plan, kind, op, noise, .. } => {
                let (kind, op) = binds.resolve(&mut cursor, step_index, kind, op);
                let w = ens.width();
                plan.apply_batched(kind, op, ens.data_mut(), w, 0..w, &mut scratch.block)
                    .map_err(core)?;
                for channel in noise {
                    channel_event(&mut ens, &mut groups, &mut rngs, channel, &mut scratch)?;
                }
            }
            ExecStep::Measure { targets } => {
                trajectory_measure_event(
                    &mut ens,
                    &mut groups,
                    &mut rngs,
                    targets,
                    cfg.readout_flip,
                )?;
            }
            ExecStep::Reset { target } => {
                trajectory_reset_event(&mut ens, &mut groups, &mut rngs, *target, &mut scratch)?;
            }
            ExecStep::Channel(channel) => {
                channel_event(&mut ens, &mut groups, &mut rngs, channel, &mut scratch)?;
            }
            ExecStep::Barrier => {
                for channel in &kernels.barrier_loss {
                    channel_event(&mut ens, &mut groups, &mut rngs, channel, &mut scratch)?;
                }
            }
        }
        #[cfg(feature = "fault-inject")]
        qudit_core::guard::inject::apply_state_faults(step_index, ens.data_mut());
        let w = ens.width();
        for group in groups.iter_mut() {
            if group.monitor.due() {
                group
                    .monitor
                    .check_statevector_col(step_index, ens.data_mut(), w, group.col)
                    .map_err(core)?;
            }
        }
        if let Some(token) = cfg.cancel {
            if (step_index + 1) % cadence == 0 {
                token.check(step_index).map_err(core)?;
            }
        }
    }
    let w = ens.width();
    for group in groups.iter_mut() {
        if group.monitor.is_enabled() {
            group
                .monitor
                .check_statevector_col(kernels.steps.len(), ens.data_mut(), w, group.col)
                .map_err(core)?;
        }
    }
    groups
        .into_iter()
        .map(|g| {
            Ok(TrajGroupOutcome {
                state: ens.column_state(g.col).map_err(core)?,
                members: g.members.iter().map(|&i| members[i].0).collect(),
                health: g.monitor.health(),
            })
        })
        .collect()
}

/// Splits `groups[gi]` by per-member branch `choices` (parallel to its member
/// list). The parent column is cloned for every selected branch beyond the
/// first **before** `apply` touches any copy — the branch-prefix splitting
/// rule that keeps every column's history exactly one serial trajectory's.
/// `apply(ens, column, branch)` then finalises each branch column.
fn split_group(
    ens: &mut EnsembleState,
    groups: &mut Vec<Group>,
    gi: usize,
    choices: &[usize],
    n_branches: usize,
    mut apply: impl FnMut(&mut EnsembleState, usize, usize) -> Result<()>,
) -> Result<()> {
    let col = groups[gi].col;
    let mut by_branch: Vec<Vec<usize>> = vec![Vec::new(); n_branches];
    for (&m, &k) in groups[gi].members.iter().zip(choices) {
        by_branch[k].push(m);
    }
    let selected: Vec<usize> = (0..n_branches).filter(|&k| !by_branch[k].is_empty()).collect();
    let mut branch_cols = vec![col];
    for _ in 1..selected.len() {
        branch_cols.push(ens.push_clone_of(col));
    }
    for (&bc, &k) in branch_cols.iter().zip(selected.iter()) {
        apply(ens, bc, k)?;
    }
    groups[gi].members = std::mem::take(&mut by_branch[selected[0]]);
    let monitor = groups[gi].monitor.clone();
    for (&bc, &k) in branch_cols.iter().zip(selected.iter()).skip(1) {
        groups.push(Group {
            col: bc,
            members: std::mem::take(&mut by_branch[k]),
            monitor: monitor.clone(),
        });
    }
    Ok(())
}

/// A Kraus channel event over every live group: one
/// [`ChannelKernel::select_branches`] call per group (probabilities once,
/// one draw per member, stream-aligned with the serial loop), lazy panel
/// splits at divergence, and each branch column rescaled by its known
/// `1/√p_k` exactly as the serial path rescales.
fn channel_event(
    ens: &mut EnsembleState,
    groups: &mut Vec<Group>,
    rngs: &mut [StdRng],
    kernel: &ChannelKernel,
    scratch: &mut RunScratch,
) -> Result<()> {
    let core = CircuitError::Core;
    let ops = kernel.channel.operators();
    // Unitary channel: deterministic, so it batches across the whole panel —
    // no draws, no renormalisation, no splits (serial fast path likewise).
    if ops.len() == 1 {
        let w = ens.width();
        kernel
            .plan
            .apply_batched(&kernel.kinds[0], &ops[0], ens.data_mut(), w, 0..w, &mut scratch.block)
            .map_err(core)?;
        return Ok(());
    }
    let n_groups = groups.len();
    for gi in 0..n_groups {
        // One `gen::<f64>()` per member, exactly as the serial channel
        // unravelling draws it, mapped to branches against probabilities
        // computed once for the whole group.
        let draws = groups[gi].members.iter().map(|&m| rngs[m].gen::<f64>());
        kernel.select_branches(ens.data(), ens.width(), groups[gi].col, draws, scratch)?;
        let choices = std::mem::take(&mut scratch.choices);
        split_group(ens, groups, gi, &choices, ops.len(), |ens, bc, k| {
            apply_col(&kernel.plan, &kernel.kinds[k], &ops[k], ens, bc, &mut *scratch)
                .map_err(core)?;
            let w = ens.width();
            rescale_branch(ens.data_mut(), w, bc, scratch.branch_probs[k]);
            Ok(())
        })?;
        scratch.choices = choices;
    }
    Ok(())
}

/// A mid-circuit measurement over every live group. Outcome draws and
/// readout-flip draws are consumed per member to keep RNG streams aligned
/// with the serial loop; measurement records themselves are not retained
/// (trajectory consumers fold final states only).
fn trajectory_measure_event(
    ens: &mut EnsembleState,
    groups: &mut Vec<Group>,
    rngs: &mut [StdRng],
    targets: &[usize],
    readout_flip: f64,
) -> Result<()> {
    let core = CircuitError::Core;
    let radix = ens.radix().clone();
    let plan = ApplyPlan::new(&radix, targets).map_err(core)?;
    let target_dims: Vec<usize> = targets.iter().map(|&t| radix.dims()[t]).collect();
    let target_radix = Radix::new(target_dims.clone()).map_err(core)?;
    let n_groups = groups.len();
    for gi in 0..n_groups {
        let col = groups[gi].col;
        let w = ens.width();
        let probs = plan.marginal_probabilities_strided(ens.data(), w, col, |z| z.norm_sqr());
        let cdf = Cdf::from_weights(probs);
        let mut choices = Vec::with_capacity(groups[gi].members.len());
        for &m in &groups[gi].members {
            let outcome = cdf.try_draw(&mut rngs[m]).ok_or_else(|| {
                core(CoreError::InvalidProbability(
                    "measurement targets carry no probability mass (zero state)".into(),
                ))
            })?;
            let mut digits = target_radix.digits_of(outcome).map_err(core)?;
            apply_readout_flip(&mut digits, &target_dims, readout_flip, &mut rngs[m]);
            choices.push(outcome);
        }
        split_group(ens, groups, gi, &choices, plan.sub_dim(), |ens, bc, outcome| {
            let w = ens.width();
            plan.collapse_col(ens.data_mut(), w, bc, outcome);
            ens.normalize_col(bc).map_err(core)
        })?;
    }
    Ok(())
}

/// A reset over every live group: measure the target (one draw per member),
/// split by observed level, rotate each branch column back to `|0⟩`.
fn trajectory_reset_event(
    ens: &mut EnsembleState,
    groups: &mut Vec<Group>,
    rngs: &mut [StdRng],
    target: usize,
    scratch: &mut RunScratch,
) -> Result<()> {
    let core = CircuitError::Core;
    let radix = ens.radix().clone();
    let plan = ApplyPlan::new(&radix, &[target]).map_err(core)?;
    let d = radix.dims()[target];
    let n_groups = groups.len();
    for gi in 0..n_groups {
        let col = groups[gi].col;
        let w = ens.width();
        let probs = plan.marginal_probabilities_strided(ens.data(), w, col, |z| z.norm_sqr());
        let cdf = Cdf::from_weights(probs);
        let mut choices = Vec::with_capacity(groups[gi].members.len());
        for &m in &groups[gi].members {
            let level = cdf.try_draw(&mut rngs[m]).ok_or_else(|| {
                core(CoreError::InvalidProbability(
                    "measurement targets carry no probability mass (zero state)".into(),
                ))
            })?;
            choices.push(level);
        }
        split_group(ens, groups, gi, &choices, d, |ens, bc, level| {
            let w = ens.width();
            plan.collapse_col(ens.data_mut(), w, bc, level);
            ens.normalize_col(bc).map_err(core)?;
            if level != 0 {
                let shift_back = power_of_shift(d, d - level);
                let kind = OpKind::classify(&shift_back);
                apply_col(&plan, &kind, &shift_back, ens, bc, &mut *scratch).map_err(core)?;
            }
            Ok(())
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::KrausChannel;
    use crate::sim::apply_channel_prepared;
    use crate::sim::kernels::tests::{merge_channel, random_dense_channel};
    use qudit_core::random::haar_state;

    #[test]
    fn column_channel_events_are_bitwise_serial_and_stay_normalised() {
        // Repeated events on a panel of single-member groups: each group
        // draws, selects, applies and rescales exactly like the serial path,
        // and the `1/√p_k` rescale leaves unit norm without re-summing it.
        let mut rng = StdRng::seed_from_u64(5151);
        let dims = vec![3, 2, 4];
        let radix = Radix::new(dims.clone()).unwrap();
        let channels = [
            (KrausChannel::photon_loss(3, 0.3).unwrap(), vec![0]),
            (KrausChannel::dephasing(4, 0.2).unwrap(), vec![2]),
            (KrausChannel::depolarizing(2, 0.4).unwrap(), vec![1]),
            (KrausChannel::two_qudit_depolarizing(4, 3, 0.3).unwrap(), vec![2, 0]),
            (KrausChannel::thermal_excitation(4, 0.25).unwrap(), vec![2]),
            (merge_channel(3), vec![0]),
            (random_dense_channel(&mut rng, 4, 3), vec![2]),
        ];
        let kernels: Vec<ChannelKernel> = channels
            .into_iter()
            .map(|(ch, t)| ChannelKernel::new(&radix, ch, t).unwrap())
            .collect();
        let mut states: Vec<QuditState> =
            (0..4).map(|_| haar_state(&mut rng, dims.clone()).unwrap()).collect();
        let width = states.len();
        let mut ens = EnsembleState::from_state(&states[0], width).unwrap();
        for (b, state) in states.iter().enumerate() {
            for (slot, &a) in ens.data_mut()[b..].iter_mut().step_by(width).zip(state.amplitudes())
            {
                *slot = a;
            }
        }
        let monitor = HealthMonitor::new(GuardConfig::disabled());
        let mut groups: Vec<Group> = (0..width)
            .map(|b| Group { col: b, members: vec![b], monitor: monitor.clone() })
            .collect();
        let mut serial_rngs: Vec<StdRng> = (0..4).map(|b| StdRng::seed_from_u64(70 + b)).collect();
        let mut panel_rngs = serial_rngs.clone();
        let (mut s1, mut s2) = (RunScratch::default(), RunScratch::default());
        for round in 0..12 {
            for kernel in &kernels {
                channel_event(&mut ens, &mut groups, &mut panel_rngs, kernel, &mut s2).unwrap();
                assert_eq!(ens.width(), width, "single-member groups never split");
                for (b, state) in states.iter_mut().enumerate() {
                    apply_channel_prepared(state, kernel, &mut serial_rngs[b], &mut s1).unwrap();
                    assert!((state.norm() - 1.0).abs() < 1e-14, "norm {}", state.norm());
                    let col_norm = ens.norm_sqr_col(b).sqrt();
                    assert!((col_norm - 1.0).abs() < 1e-14, "round {round}, column {b}");
                }
            }
        }
        for (b, state) in states.iter().enumerate() {
            let col = ens.column_amplitudes(b);
            for (x, y) in state.amplitudes().iter().zip(&col) {
                assert_eq!((x.re.to_bits(), x.im.to_bits()), (y.re.to_bits(), y.im.to_bits()));
            }
        }
    }
}
