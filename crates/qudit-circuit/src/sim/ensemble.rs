//! Trajectory chunks: many stochastic shots of one compiled plan, evolved as
//! branch-prefix groups that each own one contiguous [`QuditState`].
//!
//! [`run_trajectory_chunk`] runs a chunk of trajectories that share one
//! binding. Shots are grouped by their Kraus-branch prefix: a group holds one
//! state, the member trajectories whose stochastic history is identical so
//! far, and its health monitor. Each group's state is stepped with the calls
//! `StatevectorSimulator::run_prepared` makes on its one state:
//! `apply_prepared` for every deterministic step,
//! [`ChannelKernel::select_branches`] and [`rescale_branch`] for a channel
//! event, marginal probabilities, `collapse` and `normalize` for a
//! measurement or reset, and `check_statevector` at a guard checkpoint. So
//! every group runs the one-state arithmetic by construction.
//!
//! At a stochastic event the group draws each member's branch from that
//! member's own RNG (seeded per trajectory index, exactly as a one-state
//! run seeds it), then splits: the parent state is cloned once for each
//! selected branch after the first, *before* any branch operator runs.
//! Branch probabilities are computed once per group instead of once per
//! trajectory, and per-member RNG streams keep every member bitwise
//! identical to its own `run_prepared` run.
//!
//! The chunk's step loop is the shared step driver (`sim::driver`): it
//! polls the cancel token, fires `fault-inject` state faults on group 0's
//! state, and at every cadence boundary runs one guard checkpoint per group,
//! whose monitor carries the checks its members' one-state runs would have
//! made. Measurement and reset share one collapse event; channels have
//! their own.
//!
//! Parameter populations ([`BatchBindings`]) hold distinct states, so
//! `StatevectorSimulator::run_ensemble_from` runs each column through
//! `run_prepared` with its own memoised binding overlay.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_core::apply::ApplyPlan;
use qudit_core::error::CoreError;
use qudit_core::guard::{HealthMonitor, RunHealth};
use qudit_core::sampling::Cdf;
use qudit_core::state::QuditState;
#[cfg(feature = "fault-inject")]
use qudit_core::Complex64;
use qudit_core::Radix;

use crate::error::{CircuitError, Result};
use crate::sim::apply_readout_flip;
use crate::sim::driver::{check_register, FaultTarget, StepDriver};
use crate::sim::kernels::{
    rescale_branch, BindBuffers, ChannelKernel, CircuitKernels, ExecStep, RunScratch,
};
use crate::sim::statevector::power_of_shift;

/// A realized population of parameter bindings for one compiled plan: one
/// binding overlay per ensemble column, produced by
/// [`crate::sim::CompiledCircuit::bind_batch`] and consumed by
/// [`crate::sim::StatevectorSimulator::run_ensemble_from`].
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

/// One branch-prefix group at the end of a trajectory chunk: the shared
/// final state, the (ascending) trajectory indices that followed this
/// stochastic history, and the group's per-member health report (scale by
/// the member count to aggregate).
pub(crate) struct TrajGroupOutcome {
    pub state: QuditState,
    pub members: Vec<usize>,
    pub health: RunHealth,
}

/// A live branch-prefix group during a chunk run: its own state, its member
/// positions (indices into the chunk's member list, ascending), and its
/// lineage's health monitor (cloned at splits, so each group carries the
/// checks its members' one-state runs would have accumulated).
struct Group {
    state: QuditState,
    members: Vec<usize>,
    monitor: HealthMonitor,
}

/// The live groups of a chunk are the state the step driver walks. Under
/// `fault-inject`, state faults poison group 0's buffer only. Group 0 starts
/// as the whole chunk, so a fault before the first split reaches every
/// member, as it would reach each member's one-state run.
impl FaultTarget for Vec<Group> {
    #[cfg(feature = "fault-inject")]
    fn flat_mut(&mut self) -> &mut [Complex64] {
        self[0].state.amplitudes_mut()
    }
}

/// Runs `members` (trajectory index, RNG seed) through a compiled plan as
/// lazily splitting branch-prefix groups. Deterministic steps run once per
/// group; stochastic events compute branch probabilities once per *group*,
/// draw each member's branch from its own RNG (streams aligned draw-for-draw
/// with the one-state loop), and split groups at divergence points.
///
/// Any member's failure (guard trip, zero-mass branch) fails the whole
/// chunk: trajectory estimates never fold a partial ensemble.
pub(crate) fn run_trajectory_chunk(
    driver: &StepDriver<'_>,
    readout_flip: f64,
    kernels: &CircuitKernels,
    binds: &BindBuffers,
    initial: &QuditState,
    members: &[(usize, u64)],
) -> Result<Vec<TrajGroupOutcome>> {
    let core = CircuitError::Core;
    if members.is_empty() {
        return Ok(Vec::new());
    }
    check_register(initial.radix().dims(), &kernels.dims)?;
    let mut groups = vec![Group {
        state: initial.clone(),
        members: (0..members.len()).collect(),
        monitor: HealthMonitor::new(driver.guard),
    }];
    let mut rngs: Vec<StdRng> =
        members.iter().map(|&(_, seed)| StdRng::seed_from_u64(seed)).collect();
    let mut cursor = 0usize;
    let mut scratch = RunScratch::default();
    let exec_step = |step_index, step: &ExecStep, groups: &mut Vec<Group>, _: &mut ()| {
        match step {
            ExecStep::Apply { plan, kind, op, noise, .. } => {
                let (kind, op) = binds.resolve(&mut cursor, step_index, kind, op);
                for group in groups.iter_mut() {
                    group.state.apply_prepared(plan, kind, op, &mut scratch.block).map_err(core)?;
                }
                for channel in noise {
                    channel_event(groups, &mut rngs, channel, &mut scratch)?;
                }
            }
            ExecStep::Measure { targets } => {
                collapse_event(groups, &mut rngs, targets, Some(readout_flip))?;
            }
            ExecStep::Reset { target } => {
                collapse_event(groups, &mut rngs, &[*target], None)?;
            }
            ExecStep::Channel(channel) => {
                channel_event(groups, &mut rngs, channel, &mut scratch)?;
            }
            ExecStep::Barrier => {
                for channel in &kernels.barrier_loss {
                    channel_event(groups, &mut rngs, channel, &mut scratch)?;
                }
            }
        }
        Ok(())
    };
    driver.run(&kernels.steps, &mut groups, &mut (), exec_step, |at, groups, _| {
        for group in groups.iter_mut() {
            group.monitor.check_statevector(at, group.state.amplitudes_mut())?;
        }
        Ok(())
    })?;
    Ok(groups
        .into_iter()
        .map(|g| TrajGroupOutcome {
            state: g.state,
            members: g.members.iter().map(|&i| members[i].0).collect(),
            health: g.monitor.health(),
        })
        .collect())
}

/// Splits `groups[gi]` by per-member branch `choices` (parallel to its member
/// list). The parent state is cloned for every selected branch beyond the
/// first **before** `apply` touches any copy — the branch-prefix splitting
/// rule that keeps every group's history exactly one serial trajectory's.
/// `apply(state, branch)` then finalises each branch state.
fn split_group(
    groups: &mut Vec<Group>,
    gi: usize,
    choices: &[usize],
    n_branches: usize,
    mut apply: impl FnMut(&mut QuditState, usize) -> Result<()>,
) -> Result<()> {
    let mut by_branch: Vec<Vec<usize>> = vec![Vec::new(); n_branches];
    for (&m, &k) in groups[gi].members.iter().zip(choices) {
        by_branch[k].push(m);
    }
    let selected: Vec<usize> = (0..n_branches).filter(|&k| !by_branch[k].is_empty()).collect();
    let first_new = groups.len();
    for &k in &selected[1..] {
        let parent = &groups[gi];
        let child = Group {
            state: parent.state.clone(),
            members: std::mem::take(&mut by_branch[k]),
            monitor: parent.monitor.clone(),
        };
        groups.push(child);
    }
    groups[gi].members = std::mem::take(&mut by_branch[selected[0]]);
    apply(&mut groups[gi].state, selected[0])?;
    for (group, &k) in groups[first_new..].iter_mut().zip(&selected[1..]) {
        apply(&mut group.state, k)?;
    }
    Ok(())
}

/// A Kraus channel event over every live group: one
/// [`ChannelKernel::select_branches`] call per group (probabilities once,
/// one draw per member, stream-aligned with the serial loop), lazy splits at
/// divergence, and each branch state rescaled by its known `1/√p_k` exactly
/// as the serial path rescales.
fn channel_event(
    groups: &mut Vec<Group>,
    rngs: &mut [StdRng],
    kernel: &ChannelKernel,
    scratch: &mut RunScratch,
) -> Result<()> {
    let core = CircuitError::Core;
    let ops = kernel.channel.operators();
    // Unitary channel: deterministic, so no draws, no renormalisation and
    // no splits (serial fast path likewise).
    if ops.len() == 1 {
        for group in groups.iter_mut() {
            let (plan, kind) = (&kernel.plan, &kernel.kinds[0]);
            group.state.apply_prepared(plan, kind, &ops[0], &mut scratch.block).map_err(core)?;
        }
        return Ok(());
    }
    for gi in 0..groups.len() {
        // One `gen::<f64>()` per member, exactly as the serial channel
        // unravelling draws it, mapped to branches against probabilities
        // computed once for the whole group.
        let group = &groups[gi];
        let draws = group.members.iter().map(|&m| rngs[m].gen::<f64>());
        kernel.select_branches(group.state.amplitudes(), draws, scratch)?;
        let choices = std::mem::take(&mut scratch.choices);
        split_group(groups, gi, &choices, ops.len(), |state, k| {
            state
                .apply_prepared(&kernel.plan, &kernel.kinds[k], &ops[k], &mut scratch.block)
                .map_err(core)?;
            rescale_branch(state.amplitudes_mut(), scratch.branch_probs[k]);
            Ok(())
        })?;
        scratch.choices = choices;
    }
    Ok(())
}

/// A projective collapse of `targets` over every live group, shared by
/// mid-circuit measurement and reset: marginal probabilities once per group,
/// one outcome draw per member from its own RNG (the zero-mass error if the
/// group's state carries no mass), then a lazy split by outcome with each
/// branch state collapsed and renormalised.
///
/// `readout_flip` is `Some(p)` for a measurement: each member's outcome
/// digits then take their readout-flip draws at probability `p`, right after
/// the outcome draw, so RNG streams stay aligned with the serial loop (the
/// records themselves are not kept; trajectory consumers fold final states
/// only). `None` is a reset of the single target: each branch state is
/// rotated back to `|0⟩`.
fn collapse_event(
    groups: &mut Vec<Group>,
    rngs: &mut [StdRng],
    targets: &[usize],
    readout_flip: Option<f64>,
) -> Result<()> {
    let core = CircuitError::Core;
    let radix = groups[0].state.radix().clone();
    let plan = ApplyPlan::new(&radix, targets).map_err(core)?;
    let target_dims: Vec<usize> = targets.iter().map(|&t| radix.dims()[t]).collect();
    let target_radix = Radix::new(target_dims.clone()).map_err(core)?;
    for gi in 0..groups.len() {
        let group = &groups[gi];
        let cdf = Cdf::from_weights(plan.marginal_probabilities(group.state.amplitudes()));
        let mut choices = Vec::with_capacity(group.members.len());
        for &m in &group.members {
            let outcome = cdf.try_draw(&mut rngs[m]).ok_or_else(|| {
                core(CoreError::InvalidProbability(
                    "measurement targets carry no probability mass (zero state)".into(),
                ))
            })?;
            if let Some(p) = readout_flip {
                let mut digits = target_radix.digits_of(outcome).map_err(core)?;
                apply_readout_flip(&mut digits, &target_dims, p, &mut rngs[m]);
            }
            choices.push(outcome);
        }
        split_group(groups, gi, &choices, plan.sub_dim(), |state, outcome| {
            plan.collapse(state.amplitudes_mut(), outcome);
            state.normalize().map_err(core)?;
            if readout_flip.is_none() && outcome != 0 {
                let d = plan.sub_dim();
                state.apply_operator(&power_of_shift(d, d - outcome), targets).map_err(core)?;
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
    use qudit_core::guard::GuardConfig;
    use qudit_core::random::haar_state;

    #[test]
    fn column_channel_events_are_bitwise_serial_and_stay_normalised() {
        // Repeated events on single-member groups: each group draws,
        // selects, applies and rescales exactly like the serial path, and
        // the `1/√p_k` rescale leaves unit norm without re-summing it.
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
        let monitor = HealthMonitor::new(GuardConfig::disabled());
        let mut groups: Vec<Group> = states
            .iter()
            .enumerate()
            .map(|(b, state)| Group {
                state: state.clone(),
                members: vec![b],
                monitor: monitor.clone(),
            })
            .collect();
        let mut serial_rngs: Vec<StdRng> = (0..4).map(|b| StdRng::seed_from_u64(70 + b)).collect();
        let mut group_rngs = serial_rngs.clone();
        let (mut s1, mut s2) = (RunScratch::default(), RunScratch::default());
        for round in 0..12 {
            for kernel in &kernels {
                channel_event(&mut groups, &mut group_rngs, kernel, &mut s2).unwrap();
                assert_eq!(groups.len(), states.len(), "single-member groups never split");
                for (b, state) in states.iter_mut().enumerate() {
                    apply_channel_prepared(state, kernel, &mut serial_rngs[b], &mut s1).unwrap();
                    assert!((state.norm() - 1.0).abs() < 1e-14, "norm {}", state.norm());
                    let group_norm = groups[b].state.norm();
                    assert!((group_norm - 1.0).abs() < 1e-14, "round {round}, group {b}");
                }
            }
        }
        for (state, group) in states.iter().zip(&groups) {
            for (x, y) in state.amplitudes().iter().zip(group.state.amplitudes()) {
                assert_eq!((x.re.to_bits(), x.im.to_bits()), (y.re.to_bits(), y.im.to_bits()));
            }
        }
    }
}
