//! Monte-Carlo quantum-trajectory simulation.
//!
//! Each trajectory is one stochastic state-vector run (noise channels are
//! unravelled into random Kraus jumps); observables are averaged over
//! trajectories. Memory cost is that of a state vector per live branch, so
//! this back-end reaches register sizes the density-matrix simulator cannot,
//! at the price of statistical error `∝ 1/√N`.
//!
//! Trajectory `t` seeds its own RNG from `t`, so trajectories are
//! independent by construction. One executor runs them all: chunks of
//! trajectories evolve as lazily splitting branch-prefix panels (see
//! [`crate::sim::ensemble`]), chunks fan out across [`qudit_core::par`]
//! worker threads, and results reduce in trajectory order — so every
//! estimate is **bitwise identical** to folding
//! [`TrajectorySimulator::run_single`] over `0..n`, regardless of thread
//! count. The per-instruction stride plans, operator classifications and
//! noise channels are precompiled once and shared (read-only) by all
//! trajectories — including the wire-local fused plan, which may re-order
//! disjoint-support blocks past mid-circuit measurements (see
//! [`crate::sim::fusion`]; estimates are unchanged because disjoint
//! operations commute).

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

/// Upper bound on trajectories per batched-ensemble chunk. Bounds the panel
/// width (memory is `dim × width` amplitudes) while leaving enough members
/// per chunk for branch-prefix grouping to amortise plan traversal and
/// branch-probability work. Smaller ensembles split into one chunk per
/// worker thread instead.
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

    /// Sets the worker-thread count (`0` = automatic). Trajectory chunks fan
    /// out across this many workers, and the chunk width shrinks to
    /// `⌈n/threads⌉` when that is below the 64-trajectory cap so every
    /// worker gets a chunk. Estimates are bitwise independent of this
    /// setting.
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

    /// Attaches a cooperative [`CancelToken`], polled between waves of
    /// trajectory chunks, between worker-pool chunks inside a wave, and at
    /// every chunk's entry and guard-cadence boundaries. A tripped token
    /// surfaces as [`qudit_core::error::CoreError::Cancelled`]; partial
    /// chunks are discarded wholesale, never folded into an estimate.
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

    /// Runs every trajectory through the batched executor (see
    /// [`crate::sim::ensemble`]) and folds the results **in trajectory
    /// order**, the one trajectory executor behind every estimate.
    ///
    /// Trajectories split into chunks of `min(ENSEMBLE_CHUNK, ⌈n/threads⌉)`;
    /// each chunk evolves as one lazily splitting panel grouped by
    /// Kraus-branch prefix, and `group_f(state, members)` maps each final
    /// group state once, on the worker that ran the chunk. Up to `threads`
    /// chunks at a time fan out across the worker pool, so peak memory holds
    /// one wave of group values, not one value per trajectory. `fold` is
    /// then called once per trajectory, in ascending order, with its group's
    /// value — the fold order of a one-state-at-a-time loop — so consumers
    /// that are pure functions of the per-trajectory final states are
    /// bitwise independent of the chunk width and the thread count.
    ///
    /// Returns the health reports of all trajectories summed, plus any
    /// worker-pool chunk retries.
    fn fold_trajectory_groups<T: Send>(
        &self,
        kernels: &CircuitKernels,
        binds: &BindBuffers,
        group_f: impl Fn(&QuditState, &[usize]) -> Result<T> + Sync,
        mut fold: impl FnMut(&mut T),
    ) -> Result<RunHealth> {
        let n = self.n_trajectories;
        let threads = self.resolved_threads();
        let width = ENSEMBLE_CHUNK.min(n.div_ceil(threads));
        let n_chunks = n.div_ceil(width);
        let initial = QuditState::zero(kernels.dims.clone()).map_err(CircuitError::Core)?;
        let cfg = EnsembleConfig {
            guard: self.guard,
            cancel: self.cancel.as_ref(),
            readout_flip: self.noise.readout_flip,
        };
        let run_chunk = |start: usize| {
            let members: Vec<(usize, u64)> =
                (start..n.min(start + width)).map(|t| (t, self.traj_seed(t))).collect();
            let mut health = RunHealth::default();
            let mut groups = Vec::new();
            for group in run_trajectory_chunk(&cfg, kernels, binds, &initial, &members)? {
                health.merge(&group.health.scaled_by(group.members.len()));
                groups.push((group_f(&group.state, &group.members)?, group.members));
            }
            Ok::<_, CircuitError>((groups, health))
        };
        let mut health = RunHealth::default();
        let mut chunk = 0;
        while chunk < n_chunks {
            let start = chunk * width;
            // Between-wave cancellation checkpoint: a long ensemble stops
            // within one wave even when individual trajectories are short.
            if let Some(token) = &self.cancel {
                token.check(start).map_err(CircuitError::Core)?;
            }
            let len = threads.min(n_chunks - chunk);
            let run_wave = |i: usize| run_chunk(start + i * width);
            let (results, retries) = match &self.cancel {
                Some(token) => par::par_map_threads_counted_cancel(len, threads, token, run_wave)
                    .map_err(CircuitError::Core)?,
                None => par::par_map_threads_counted(len, threads, run_wave),
            };
            health.retries += retries;
            for (i, result) in results.into_iter().enumerate() {
                let (mut groups, chunk_health) = result?;
                health.merge(&chunk_health);
                // Trajectories fold in ascending order through the group
                // they belong to.
                let chunk_start = start + i * width;
                let mut group_of = vec![0; width.min(n - chunk_start)];
                for (g, (_, members)) in groups.iter().enumerate() {
                    for &t in members {
                        group_of[t - chunk_start] = g;
                    }
                }
                for g in group_of {
                    fold(&mut groups[g].0);
                }
            }
            chunk += len;
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
        let kernels = CircuitKernels::with_config(circuit, &self.noise, &self.fusion)?;
        self.expectation_prepared(&kernels, &BindBuffers::default(), observable)
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
        Ok(self.expectation_prepared(&compiled.topology, &compiled.binds, observable)?.0)
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

    fn expectation_prepared(
        &self,
        kernels: &CircuitKernels,
        binds: &BindBuffers,
        observable: &Observable,
    ) -> Result<(TrajectoryEstimate, RunHealth)> {
        let mut values = Vec::with_capacity(self.n_trajectories);
        let health = self.fold_trajectory_groups(
            kernels,
            binds,
            |state, _| observable.expectation(state),
            |&mut v| values.push(v),
        )?;
        Ok((estimate(&values), health))
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
        self.fold_trajectory_groups(
            kernels,
            binds,
            |state, _| Ok(state.probabilities()),
            |probs| {
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
    /// aggregates the counts. Each branch-prefix group builds its outcome CDF
    /// once; every member trajectory then draws from it with its own RNG
    /// stream.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn sample_counts(
        &self,
        circuit: &Circuit,
        shots_per_trajectory: usize,
    ) -> Result<HashMap<Vec<usize>, usize>> {
        let kernels = CircuitKernels::with_config(circuit, &self.noise, &self.fusion)?;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        self.fold_trajectory_groups(
            &kernels,
            &BindBuffers::default(),
            |state, members| {
                let cdf = state.cdf();
                let radix = state.radix();
                let mut group_counts: HashMap<Vec<usize>, usize> = HashMap::new();
                for &t in members {
                    let mut rng = StdRng::seed_from_u64(self.traj_seed(t).wrapping_add(0xABCD));
                    for _ in 0..shots_per_trajectory {
                        // Trajectory states are normalised; the guarded draw
                        // keeps a degenerate (underflowed) distribution on
                        // the documented ground-outcome convention instead
                        // of a zero-weight draw.
                        let chosen = cdf.try_draw(&mut rng).unwrap_or(0);
                        let mut digits = radix.digits_of(chosen).expect("index in range");
                        crate::sim::apply_readout_flip(
                            &mut digits,
                            &kernels.dims,
                            self.noise.readout_flip,
                            &mut rng,
                        );
                        *group_counts.entry(digits).or_insert(0) += 1;
                    }
                }
                Ok(group_counts)
            },
            // Counts are integers, so merging whole groups (the first member
            // drains the map) gives the same totals as any per-trajectory
            // order.
            |group_counts| {
                for (digits, n) in group_counts.drain() {
                    *counts.entry(digits).or_insert(0) += n;
                }
            },
        )?;
        Ok(counts)
    }

    /// Runs a single trajectory with an index-derived seed, one state vector
    /// at a time: the final state is bitwise identical to trajectory `index`
    /// of every ensemble estimate under the same configuration.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn run_single(&self, circuit: &Circuit, index: usize) -> Result<QuditState> {
        let mut sv = StatevectorSimulator::with_seed(self.traj_seed(index))
            .with_noise(self.noise.clone())
            .with_fusion(self.fusion.clone())
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
                .expectation(circuit, &obs)
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
    fn run_single_is_bitwise_one_trajectory_of_the_executor() {
        // With fusion on and off, `run_single(c, t)` must be exactly the
        // final state the executor folds for trajectory `t` (70 trajectories
        // at 3 threads: three uneven chunks).
        let mut c = Circuit::uniform(3, 3);
        for layer in 0..2 {
            for q in 0..3 {
                c.push(Gate::fourier(3), &[q]).unwrap();
            }
            c.push(Gate::csum(3, 3), &[layer, layer + 1]).unwrap();
            c.push(Gate::clock_z(3), &[2]).unwrap();
            c.push(Gate::fourier(3), &[2]).unwrap();
        }
        c.measure(&[1]).unwrap();
        c.push(Gate::fourier(3), &[1]).unwrap();
        for fusion in [FusionConfig::default(), FusionConfig::disabled()] {
            let sim = TrajectorySimulator::new(70)
                .with_seed(12)
                .with_threads(3)
                .with_noise(NoiseModel::cavity(0.1, 0.15, 0.05))
                .with_fusion(fusion.clone());
            let kernels = CircuitKernels::with_config(&c, &sim.noise, &fusion).unwrap();
            let mut states = Vec::new();
            sim.fold_trajectory_groups(
                &kernels,
                &BindBuffers::default(),
                |state, _| Ok(state.clone()),
                |state| states.push(state.clone()),
            )
            .unwrap();
            assert_eq!(states.len(), 70);
            for (t, state) in states.iter().enumerate() {
                let single = sim.run_single(&c, t).unwrap();
                assert_eq!(single.amplitudes(), state.amplitudes(), "{fusion:?}, trajectory {t}");
            }
        }
        // The fusion setting reaches `run_single`: fused and unfused runs of
        // one trajectory differ in rounding.
        let run = |fusion| TrajectorySimulator::new(1).with_fusion(fusion).run_single(&c, 0);
        let (fused, unfused) =
            (run(FusionConfig::default()).unwrap(), run(FusionConfig::disabled()).unwrap());
        let differing = fused.amplitudes().iter().zip(unfused.amplitudes()).filter(|(a, b)| a != b);
        assert!(differing.count() > 0, "fusion setting ignored by run_single");
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
