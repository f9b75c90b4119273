//! Monte-Carlo quantum-trajectory simulation.
//!
//! Each trajectory is one stochastic state-vector run (noise channels are
//! unravelled into random Kraus jumps); observables are averaged over
//! trajectories. Memory cost is that of a state vector, so this back-end
//! reaches register sizes the density-matrix simulator cannot, at the price
//! of statistical error `∝ 1/√N`.
//!
//! Trajectories are independent by construction — trajectory `t` seeds its
//! own RNG from `t` — so they run on [`qudit_core::par`] worker threads and
//! reduce in trajectory order, making every estimate **bitwise identical**
//! to the serial loop regardless of thread count. The per-instruction stride
//! plans, operator classifications and noise channels are precompiled once
//! and shared (read-only) by all trajectories — including the wire-local
//! fused plan, which may re-order disjoint-support blocks past mid-circuit
//! measurements (see [`crate::sim::fusion`]; estimates are unchanged because
//! disjoint operations commute).

use std::collections::HashMap;

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qudit_core::cancel::CancelToken;
use qudit_core::guard::{GuardConfig, RunHealth};
use qudit_core::par;
use qudit_core::state::QuditState;

use crate::circuit::Circuit;
use crate::error::{CircuitError, Result};
use crate::noise::NoiseModel;
use crate::observable::Observable;
use crate::sim::ensemble::{run_trajectory_chunk, EnsembleConfig};
use crate::sim::fusion::FusionConfig;
use crate::sim::kernels::{BindBuffers, CircuitKernels};
use crate::sim::statevector::{CompiledCircuit, StatevectorSimulator};

/// Trajectories per batched-ensemble chunk. Bounds the panel width (memory
/// is `dim × width` amplitudes) while leaving enough members per chunk for
/// branch-prefix grouping to amortise plan traversal and branch-probability
/// work.
const ENSEMBLE_CHUNK: usize = 64;

/// A Monte-Carlo trajectory simulator.
///
/// # Example
///
/// ```
/// use qudit_circuit::noise::NoiseModel;
/// use qudit_circuit::sim::TrajectorySimulator;
/// use qudit_circuit::{Circuit, Gate, Observable};
///
/// let mut c = Circuit::uniform(1, 4);
/// c.push(Gate::shift_x(4), &[0]).unwrap(); // |0⟩ → |1⟩
///
/// let sim = TrajectorySimulator::new(200)
///     .with_seed(3)
///     .with_noise(NoiseModel::cavity(0.2, 0.2, 0.0));
/// let est = sim.expectation(&c, &Observable::number(0, 4)).unwrap();
/// // One photon, 20% loss per gate: ⟨n⟩ ≈ 0.8, within Monte-Carlo error.
/// assert!((est.mean - 0.8).abs() < 5.0 * est.std_error.max(0.02));
/// ```
#[derive(Debug, Clone)]
pub struct TrajectorySimulator {
    n_trajectories: usize,
    seed: u64,
    noise: NoiseModel,
    threads: usize,
    fusion: FusionConfig,
    guard: GuardConfig,
    cancel: Option<CancelToken>,
}

/// Mean and standard error of a trajectory-averaged expectation value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryEstimate {
    /// Sample mean over trajectories.
    pub mean: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Number of trajectories used.
    pub n_trajectories: usize,
}

impl TrajectorySimulator {
    /// Creates a simulator averaging over `n_trajectories` runs.
    pub fn new(n_trajectories: usize) -> Self {
        Self {
            n_trajectories: n_trajectories.max(1),
            seed: 0x7247,
            noise: NoiseModel::noiseless(),
            threads: 0,
            fusion: FusionConfig::default(),
            guard: GuardConfig::disabled(),
            cancel: None,
        }
    }

    /// Sets the base random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a gate-level noise model.
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the worker-thread count for the trajectory loop (`0` =
    /// automatic). Estimates are bitwise independent of this setting.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the gate-fusion configuration used when compiling the circuit
    /// (enabled by default; see [`crate::sim::fusion`]).
    #[must_use]
    pub fn with_fusion(mut self, fusion: FusionConfig) -> Self {
        self.fusion = fusion;
        self
    }

    /// Attaches a runtime health-guard configuration (disabled by default;
    /// see [`qudit_core::guard`]), forwarded to every trajectory's
    /// statevector run. Per-trajectory [`RunHealth`] reports are summed;
    /// retrieve the aggregate with
    /// [`TrajectorySimulator::expectation_detailed`].
    #[must_use]
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// Attaches a cooperative [`CancelToken`], polled between trajectory
    /// batches, between worker-pool chunks inside a batch, and at the guard-
    /// cadence boundaries inside every trajectory's statevector run. A
    /// tripped token surfaces as
    /// [`qudit_core::error::CoreError::Cancelled`]; partial batches are
    /// discarded wholesale, never folded into an estimate.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Number of trajectories.
    pub fn n_trajectories(&self) -> usize {
        self.n_trajectories
    }

    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            par::max_threads()
        } else {
            self.threads
        }
    }

    /// Compiles a circuit against this simulator's noise model and fusion
    /// configuration into the reusable execution plan all trajectories
    /// share. The plan is rebindable ([`CompiledCircuit::bind`]); pair it
    /// with [`TrajectorySimulator::expectation_bound`] for parameter sweeps.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledCircuit> {
        Ok(CompiledCircuit {
            topology: Arc::new(CircuitKernels::with_config(circuit, &self.noise, &self.fusion)?),
            binds: BindBuffers::default(),
            noise: self.noise.clone(),
        })
    }

    fn check_compiled(&self, compiled: &CompiledCircuit) -> Result<()> {
        if compiled.noise != self.noise {
            return Err(CircuitError::Unsupported(
                "compiled circuit was built under a different noise model; recompile with \
                 this simulator's model"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Maps `f` over the final state of every trajectory, in parallel, and
    /// returns the per-trajectory results in trajectory order plus the
    /// summed health report.
    fn map_trajectories<T: Send>(
        &self,
        circuit: &Circuit,
        f: impl Fn(usize, &QuditState) -> Result<T> + Sync,
    ) -> Result<(Vec<T>, RunHealth)> {
        let mut all = Vec::with_capacity(self.n_trajectories);
        let health = self.fold_trajectories(circuit, f, &mut all, |acc, value| acc.push(value))?;
        Ok((all, health))
    }

    /// Runs every trajectory, maps its final state with `f`, and folds the
    /// mapped values into `acc` **in trajectory order**. Trajectories are
    /// evaluated in bounded parallel batches, so peak memory holds one
    /// mapped value per in-flight trajectory (≤ one batch), not one per
    /// trajectory — `outcome_distribution` on a large register folds each
    /// probability vector away as soon as its batch completes.
    fn fold_trajectories<T: Send, A>(
        &self,
        circuit: &Circuit,
        f: impl Fn(usize, &QuditState) -> Result<T> + Sync,
        acc: &mut A,
        fold: impl FnMut(&mut A, T),
    ) -> Result<RunHealth> {
        let kernels = CircuitKernels::with_config(circuit, &self.noise, &self.fusion)?;
        self.fold_trajectories_prepared(&kernels, &BindBuffers::default(), f, acc, fold)
    }

    /// [`TrajectorySimulator::fold_trajectories`] over a precompiled kernel
    /// set and binding overlay, the plan-reuse path behind the `_compiled`
    /// entry points. Returns the health reports of all trajectories summed,
    /// plus any worker-pool chunk retries.
    fn fold_trajectories_prepared<T: Send, A>(
        &self,
        kernels: &CircuitKernels,
        binds: &BindBuffers,
        f: impl Fn(usize, &QuditState) -> Result<T> + Sync,
        acc: &mut A,
        mut fold: impl FnMut(&mut A, T),
    ) -> Result<RunHealth> {
        let initial = QuditState::zero(kernels.dims.clone()).map_err(CircuitError::Core)?;
        let mut sv =
            StatevectorSimulator::new().with_noise(self.noise.clone()).with_guard(self.guard);
        if let Some(token) = &self.cancel {
            sv = sv.with_cancel(token.clone());
        }
        let threads = self.resolved_threads();
        let batch = threads.max(1) * 4;
        let mut health = RunHealth::default();
        let mut start = 0;
        while start < self.n_trajectories {
            // Between-batch cancellation checkpoint: a long ensemble stops
            // within one batch even when individual trajectories are short.
            if let Some(token) = &self.cancel {
                token.check(start).map_err(CircuitError::Core)?;
            }
            let len = batch.min(self.n_trajectories - start);
            let run_batch = |i: usize| {
                let t = start + i;
                let mut rng = StdRng::seed_from_u64(self.traj_seed(t));
                let out = sv.run_prepared(kernels, binds, &initial, &mut rng)?;
                Ok::<_, CircuitError>((f(t, &out.state)?, out.health))
            };
            let (results, retries) = match &self.cancel {
                Some(token) => par::par_map_threads_counted_cancel(len, threads, token, run_batch)
                    .map_err(CircuitError::Core)?,
                None => par::par_map_threads_counted(len, threads, run_batch),
            };
            health.retries += retries;
            for r in results {
                let (value, traj_health) = r?;
                health.merge(&traj_health);
                fold(acc, value);
            }
            start += len;
        }
        Ok(health)
    }

    /// Trajectory-averaged expectation value of an observable on the final
    /// state.
    ///
    /// # Errors
    /// Returns an error for invalid instructions or observable dimensions.
    pub fn expectation(
        &self,
        circuit: &Circuit,
        observable: &Observable,
    ) -> Result<TrajectoryEstimate> {
        Ok(self.expectation_detailed(circuit, observable)?.0)
    }

    /// Like [`TrajectorySimulator::expectation`], but also returns the summed
    /// [`RunHealth`] report of all trajectories (all-zero when the guard is
    /// disabled): total checkpoints run, worst observed drift, repairs, and
    /// worker-pool chunk retries across the whole ensemble.
    ///
    /// # Errors
    /// Returns an error for invalid instructions, observable mismatches, or
    /// [`qudit_core::error::CoreError::NumericalHealth`] when an enabled
    /// guard detects damage it is not allowed to repair.
    pub fn expectation_detailed(
        &self,
        circuit: &Circuit,
        observable: &Observable,
    ) -> Result<(TrajectoryEstimate, RunHealth)> {
        let (values, health) =
            self.map_trajectories(circuit, |_, state| observable.expectation(state))?;
        Ok((estimate(&values), health))
    }

    /// Trajectory-averaged expectation through a precompiled plan (see
    /// [`TrajectorySimulator::compile`]): the fusion pass, stride plans and
    /// noise channels are reused across calls.
    ///
    /// # Errors
    /// Returns an error for an observable/dimension mismatch or a noise model
    /// mismatch.
    pub fn expectation_compiled(
        &self,
        compiled: &CompiledCircuit,
        observable: &Observable,
    ) -> Result<TrajectoryEstimate> {
        self.check_compiled(compiled)?;
        let mut values = Vec::with_capacity(self.n_trajectories);
        self.fold_trajectories_prepared(
            &compiled.topology,
            &compiled.binds,
            |_, state| observable.expectation(state),
            &mut values,
            |acc, v| acc.push(v),
        )?;
        Ok(estimate(&values))
    }

    /// Rebinds a compiled plan to `params` and estimates the observable: the
    /// rebind-per-step entry point for noisy variational sweeps.
    ///
    /// # Errors
    /// Returns an error for a short binding or a noise model mismatch.
    pub fn expectation_bound(
        &self,
        compiled: &mut CompiledCircuit,
        params: &[f64],
        observable: &Observable,
    ) -> Result<TrajectoryEstimate> {
        // Validate before binding so a failed call leaves the plan untouched.
        self.check_compiled(compiled)?;
        compiled.bind(params)?;
        self.expectation_compiled(compiled, observable)
    }

    /// Trajectory-averaged probability of each full-register basis outcome.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn outcome_distribution(&self, circuit: &Circuit) -> Result<Vec<f64>> {
        let kernels = CircuitKernels::with_config(circuit, &self.noise, &self.fusion)?;
        self.outcome_distribution_prepared(&kernels, &BindBuffers::default())
    }

    /// Trajectory-averaged outcome distribution through a precompiled plan.
    ///
    /// # Errors
    /// Returns an error for invalid dimensions or a noise model mismatch.
    pub fn outcome_distribution_compiled(&self, compiled: &CompiledCircuit) -> Result<Vec<f64>> {
        self.check_compiled(compiled)?;
        self.outcome_distribution_prepared(&compiled.topology, &compiled.binds)
    }

    /// Rebinds a compiled plan to `params` and returns the trajectory-
    /// averaged outcome distribution.
    ///
    /// # Errors
    /// Returns an error for a short binding or a noise model mismatch.
    pub fn outcome_distribution_bound(
        &self,
        compiled: &mut CompiledCircuit,
        params: &[f64],
    ) -> Result<Vec<f64>> {
        // Validate before binding so a failed call leaves the plan untouched.
        self.check_compiled(compiled)?;
        compiled.bind(params)?;
        self.outcome_distribution_compiled(compiled)
    }

    fn outcome_distribution_prepared(
        &self,
        kernels: &CircuitKernels,
        binds: &BindBuffers,
    ) -> Result<Vec<f64>> {
        let total_dim: usize = kernels.dims.iter().product();
        let mut acc = vec![0.0; total_dim];
        self.fold_trajectories_prepared(
            kernels,
            binds,
            |_, state| Ok(state.probabilities()),
            &mut acc,
            |acc, probs| {
                for (a, p) in acc.iter_mut().zip(probs.iter()) {
                    *a += p;
                }
            },
        )?;
        for p in &mut acc {
            *p /= self.n_trajectories as f64;
        }
        Ok(acc)
    }

    /// Runs the trajectory ensemble as *batched* chunks (see
    /// [`crate::sim::ensemble`]): each chunk of up to [`ENSEMBLE_CHUNK`]
    /// trajectories evolves as one lazily splitting panel, grouped by
    /// Kraus-branch prefix, and `group_f` maps each final group state once.
    /// `fold(t, value)` is then called per trajectory in ascending order —
    /// the exact fold order of the serial loop — so any consumer that is a
    /// pure function of the per-trajectory final states gets bitwise-
    /// identical results.
    fn fold_trajectory_groups<T>(
        &self,
        kernels: &CircuitKernels,
        binds: &BindBuffers,
        group_f: impl Fn(&QuditState) -> Result<T>,
        mut fold: impl FnMut(usize, &T),
    ) -> Result<RunHealth> {
        let initial = QuditState::zero(kernels.dims.clone()).map_err(CircuitError::Core)?;
        let cfg = EnsembleConfig {
            guard: self.guard,
            cancel: self.cancel.as_ref(),
            readout_flip: self.noise.readout_flip,
            // Chunks already fan out at the chunk level; column spans inside
            // a chunk stay serial.
            threads: 1,
        };
        let mut health = RunHealth::default();
        let mut start = 0;
        while start < self.n_trajectories {
            if let Some(token) = &self.cancel {
                token.check(start).map_err(CircuitError::Core)?;
            }
            let len = ENSEMBLE_CHUNK.min(self.n_trajectories - start);
            let members: Vec<(usize, u64)> =
                (start..start + len).map(|t| (t, self.traj_seed(t))).collect();
            let groups = run_trajectory_chunk(&cfg, kernels, binds, &initial, &members)?;
            // One value per branch-prefix group; trajectories then fold in
            // ascending order through the group they belong to.
            let mut group_of: Vec<usize> = vec![0; len];
            let mut values = Vec::with_capacity(groups.len());
            for (g_idx, group) in groups.iter().enumerate() {
                values.push(group_f(&group.state)?);
                health.merge(&group.health.scaled_by(group.members.len()));
                for &t in &group.members {
                    group_of[t - start] = g_idx;
                }
            }
            for (i, &g_idx) in group_of.iter().enumerate() {
                fold(start + i, &values[g_idx]);
            }
            start += len;
        }
        Ok(health)
    }

    /// [`TrajectorySimulator::expectation`] through the batched-ensemble
    /// executor: trajectories evolve as lazily splitting panels instead of
    /// one state vector at a time, with branch probabilities computed once
    /// per branch-prefix group. The estimate is **bitwise identical** to
    /// [`TrajectorySimulator::expectation`] at any chunk width, because every
    /// panel column replays exactly one serial trajectory's arithmetic and
    /// RNG stream, and values fold in trajectory order.
    ///
    /// # Errors
    /// Returns an error for invalid instructions, observable mismatches, a
    /// guard trip in any trajectory, or cancellation.
    pub fn expectation_batched(
        &self,
        circuit: &Circuit,
        observable: &Observable,
    ) -> Result<TrajectoryEstimate> {
        let kernels = CircuitKernels::with_config(circuit, &self.noise, &self.fusion)?;
        self.expectation_batched_prepared(&kernels, &BindBuffers::default(), observable)
    }

    /// [`TrajectorySimulator::expectation_batched`] through a precompiled
    /// plan.
    ///
    /// # Errors
    /// Returns an error for an observable/dimension mismatch or a noise
    /// model mismatch.
    pub fn expectation_compiled_batched(
        &self,
        compiled: &CompiledCircuit,
        observable: &Observable,
    ) -> Result<TrajectoryEstimate> {
        self.check_compiled(compiled)?;
        self.expectation_batched_prepared(&compiled.topology, &compiled.binds, observable)
    }

    /// Rebinds a compiled plan to `params` and estimates the observable via
    /// the batched-ensemble executor.
    ///
    /// # Errors
    /// Returns an error for a short binding or a noise model mismatch.
    pub fn expectation_bound_batched(
        &self,
        compiled: &mut CompiledCircuit,
        params: &[f64],
        observable: &Observable,
    ) -> Result<TrajectoryEstimate> {
        // Validate before binding so a failed call leaves the plan untouched.
        self.check_compiled(compiled)?;
        compiled.bind(params)?;
        self.expectation_compiled_batched(compiled, observable)
    }

    fn expectation_batched_prepared(
        &self,
        kernels: &CircuitKernels,
        binds: &BindBuffers,
        observable: &Observable,
    ) -> Result<TrajectoryEstimate> {
        let mut values = Vec::with_capacity(self.n_trajectories);
        self.fold_trajectory_groups(
            kernels,
            binds,
            |state| observable.expectation(state),
            |_, &v| values.push(v),
        )?;
        Ok(estimate(&values))
    }

    /// [`TrajectorySimulator::outcome_distribution`] through the batched-
    /// ensemble executor; bitwise identical to the serial path.
    ///
    /// # Errors
    /// Returns an error for invalid instructions, a guard trip, or
    /// cancellation.
    pub fn outcome_distribution_batched(&self, circuit: &Circuit) -> Result<Vec<f64>> {
        let kernels = CircuitKernels::with_config(circuit, &self.noise, &self.fusion)?;
        self.outcome_distribution_batched_prepared(&kernels, &BindBuffers::default())
    }

    /// [`TrajectorySimulator::outcome_distribution_compiled`] through the
    /// batched-ensemble executor.
    ///
    /// # Errors
    /// Returns an error for invalid dimensions or a noise model mismatch.
    pub fn outcome_distribution_compiled_batched(
        &self,
        compiled: &CompiledCircuit,
    ) -> Result<Vec<f64>> {
        self.check_compiled(compiled)?;
        self.outcome_distribution_batched_prepared(&compiled.topology, &compiled.binds)
    }

    /// Rebinds a compiled plan to `params` and returns the trajectory-
    /// averaged outcome distribution via the batched-ensemble executor.
    ///
    /// # Errors
    /// Returns an error for a short binding or a noise model mismatch.
    pub fn outcome_distribution_bound_batched(
        &self,
        compiled: &mut CompiledCircuit,
        params: &[f64],
    ) -> Result<Vec<f64>> {
        // Validate before binding so a failed call leaves the plan untouched.
        self.check_compiled(compiled)?;
        compiled.bind(params)?;
        self.outcome_distribution_compiled_batched(compiled)
    }

    fn outcome_distribution_batched_prepared(
        &self,
        kernels: &CircuitKernels,
        binds: &BindBuffers,
    ) -> Result<Vec<f64>> {
        let total_dim: usize = kernels.dims.iter().product();
        let mut acc = vec![0.0; total_dim];
        self.fold_trajectory_groups(
            kernels,
            binds,
            |state| Ok(state.probabilities()),
            |_, probs| {
                for (a, p) in acc.iter_mut().zip(probs.iter()) {
                    *a += p;
                }
            },
        )?;
        for p in &mut acc {
            *p /= self.n_trajectories as f64;
        }
        Ok(acc)
    }

    /// Samples `shots_per_trajectory` measurements from each trajectory and
    /// aggregates the counts.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn sample_counts(
        &self,
        circuit: &Circuit,
        shots_per_trajectory: usize,
    ) -> Result<HashMap<Vec<usize>, usize>> {
        let (per_traj, _) = self.map_trajectories(circuit, |t, state| {
            let mut rng = StdRng::seed_from_u64(self.traj_seed(t).wrapping_add(0xABCD));
            let cdf = state.cdf();
            let radix = state.radix();
            let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
            for _ in 0..shots_per_trajectory {
                // Trajectory states are normalised; the guarded draw keeps a
                // degenerate (underflowed) distribution on the documented
                // ground-outcome convention instead of a zero-weight draw.
                let chosen = cdf.try_draw(&mut rng).unwrap_or(0);
                let mut digits = radix.digits_of(chosen).expect("index in range");
                crate::sim::apply_readout_flip(
                    &mut digits,
                    circuit.dims(),
                    self.noise.readout_flip,
                    &mut rng,
                );
                *counts.entry(digits).or_insert(0) += 1;
            }
            Ok(counts)
        })?;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for traj_counts in per_traj {
            for (digits, n) in traj_counts {
                *counts.entry(digits).or_insert(0) += n;
            }
        }
        Ok(counts)
    }

    /// Runs a single trajectory with an index-derived seed.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn run_single(&self, circuit: &Circuit, index: usize) -> Result<QuditState> {
        let mut sv = StatevectorSimulator::with_seed(self.traj_seed(index))
            .with_noise(self.noise.clone())
            .with_guard(self.guard);
        if let Some(token) = &self.cancel {
            sv = sv.with_cancel(token.clone());
        }
        let initial = QuditState::zero(circuit.dims().to_vec()).map_err(CircuitError::Core)?;
        let mut rng = StdRng::seed_from_u64(self.traj_seed(index));
        Ok(sv.run_from_with_rng(circuit, &initial, &mut rng)?.state)
    }

    fn traj_seed(&self, index: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((index as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
    }
}

fn estimate(values: &[f64]) -> TrajectoryEstimate {
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)
    } else {
        0.0
    };
    TrajectoryEstimate { mean, std_error: (var / n as f64).sqrt(), n_trajectories: n }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::sim::DensityMatrixSimulator;

    #[test]
    fn noiseless_trajectories_are_deterministic() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        let sim = TrajectorySimulator::new(10);
        let obs = Observable::number(1, 3);
        let est = sim.expectation(&c, &obs).unwrap();
        assert!(est.std_error < 1e-12);
        assert!((est.mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trajectory_average_converges_to_density_matrix_result() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        let noise = NoiseModel::cavity(0.08, 0.15, 0.0);
        let obs = Observable::number(1, 3);

        let exact =
            DensityMatrixSimulator::new().with_noise(noise.clone()).expectation(&c, &obs).unwrap();
        let est = TrajectorySimulator::new(600)
            .with_seed(17)
            .with_noise(noise)
            .expectation(&c, &obs)
            .unwrap();
        assert!(
            (est.mean - exact).abs() < 5.0 * est.std_error.max(0.02),
            "trajectory mean {} vs exact {} (stderr {})",
            est.mean,
            exact,
            est.std_error
        );
    }

    /// Independent-oracle check of channel unravelling: for every
    /// [`crate::noise::NoiseKind`] a gate noise model can attach (plus idle
    /// photon loss at a barrier), and for an explicit thermal-excitation
    /// channel, the trajectory mean must agree with the exact density-matrix
    /// expectation (superoperator sweeps, no unravelling) within `Z_BOUND`
    /// standard errors. For a Gaussian mean at 4.5σ the two-sided
    /// false-positive rate is about 7e-6 per check; seeds are pinned, so the
    /// test is deterministic and a failure means a real bias. Each case also
    /// asserts the noise moved the exact value by more than the bound, so a
    /// channel that silently did nothing could not pass.
    #[test]
    fn trajectory_mean_matches_density_expectation_for_every_channel_kind() {
        use crate::noise::{KrausChannel, NoiseKind};
        const Z_BOUND: f64 = 4.5;
        let dims = vec![3, 2, 4];
        let mut c = Circuit::new(dims.clone());
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::fourier(4), &[2]).unwrap();
        c.push(Gate::csum(3, 4), &[0, 2]).unwrap();
        c.barrier();
        c.push(Gate::shift_x(2), &[1]).unwrap();
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::fourier(4), &[2]).unwrap();
        let mut obs = Observable::number(0, 3);
        obs.add_scaled(&Observable::number(2, 4), 0.5);
        obs.add_scaled(&Observable::number(1, 2), 0.25);

        // Thermal excitation is no gate-model kind: explicit channels on
        // every qudit, then a Fourier so the channel's coherence damage
        // shows in populations too.
        let mut thermal = c.clone();
        let mut thermal_ideal = c.clone();
        for (q, &d) in dims.iter().enumerate() {
            thermal.push_channel(KrausChannel::thermal_excitation(d, 0.3).unwrap(), &[q]).unwrap();
        }
        thermal.push(Gate::fourier(3), &[0]).unwrap();
        thermal_ideal.push(Gate::fourier(3), &[0]).unwrap();

        let kind_model = |kind| NoiseModel {
            single_qudit: Some((kind, 0.12)),
            two_qudit: Some((kind, 0.2)),
            readout_flip: 0.0,
            idle_photon_loss: 0.0,
        };
        // (name, noisy circuit, its noiseless twin, noise model)
        let cases = [
            ("depolarizing", &c, &c, kind_model(NoiseKind::Depolarizing)),
            ("dephasing", &c, &c, kind_model(NoiseKind::Dephasing)),
            ("photon loss", &c, &c, kind_model(NoiseKind::PhotonLoss)),
            ("idle photon loss", &c, &c, NoiseModel::cavity(0.0, 0.0, 0.25)),
            ("thermal excitation", &thermal, &thermal_ideal, NoiseModel::noiseless()),
        ];
        for (i, (name, circuit, ideal_circuit, noise)) in cases.into_iter().enumerate() {
            let exact = DensityMatrixSimulator::new()
                .with_noise(noise.clone())
                .expectation(circuit, &obs)
                .unwrap();
            let est = TrajectorySimulator::new(3000)
                .with_seed(8100 + i as u64)
                .with_noise(noise)
                .expectation_batched(circuit, &obs)
                .unwrap();
            let ideal = DensityMatrixSimulator::new().expectation(ideal_circuit, &obs).unwrap();
            assert!(est.std_error > 0.0, "{name}: noise must make trajectories differ");
            let z = (est.mean - exact) / est.std_error;
            assert!(
                z.abs() < Z_BOUND,
                "{name}: trajectory mean {} vs exact {exact} (stderr {}, z = {z:.2})",
                est.mean,
                est.std_error
            );
            assert!(
                (ideal - exact).abs() > Z_BOUND * est.std_error,
                "{name}: noise shifts the exact value by only {} (stderr {})",
                (ideal - exact).abs(),
                est.std_error
            );
        }
    }

    #[test]
    fn outcome_distribution_is_normalised() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        let sim = TrajectorySimulator::new(50).with_noise(NoiseModel::depolarizing(0.05, 0.1));
        let dist = sim.outcome_distribution(&c).unwrap();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_counts_aggregate_over_trajectories() {
        let mut c = Circuit::uniform(1, 3);
        c.push(Gate::shift_x(3), &[0]).unwrap();
        let sim = TrajectorySimulator::new(4).with_noise(NoiseModel::cavity(0.2, 0.2, 0.0));
        let counts = sim.sample_counts(&c, 100).unwrap();
        let total: usize = counts.values().sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn estimates_are_reproducible() {
        let mut c = Circuit::uniform(1, 4);
        c.push(Gate::fourier(4), &[0]).unwrap();
        let noise = NoiseModel::depolarizing(0.1, 0.1);
        let obs = Observable::number(0, 4);
        let a = TrajectorySimulator::new(30)
            .with_seed(5)
            .with_noise(noise.clone())
            .expectation(&c, &obs)
            .unwrap();
        let b = TrajectorySimulator::new(30)
            .with_seed(5)
            .with_noise(noise)
            .expectation(&c, &obs)
            .unwrap();
        assert_eq!(a.mean, b.mean);
    }
}
