//! Pure-state (single-trajectory) circuit simulation.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qudit_core::cancel::CancelToken;
use qudit_core::error::CoreError;
use qudit_core::guard::{GuardConfig, HealthMonitor, RunHealth};
use qudit_core::state::QuditState;

use crate::circuit::{Circuit, Instruction};
use crate::error::{CircuitError, Result};
use crate::noise::NoiseModel;
use crate::observable::Observable;
use crate::sim::driver::{check_noise, check_register, StepDriver};
use crate::sim::ensemble::BatchBindings;
use crate::sim::fusion::{FusionConfig, FusionStats};
use crate::sim::kernels::{BindBuffers, CircuitKernels, ExecStep, RunScratch};
use crate::sim::{apply_channel_prepared, apply_readout_flip};

/// Output of a state-vector run: the final state and any recorded
/// measurement outcomes (in program order).
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Final state after all instructions.
    pub state: QuditState,
    /// Recorded measurements, one entry per `Measure` instruction:
    /// `(targets, observed digits)`.
    pub measurements: Vec<(Vec<usize>, Vec<usize>)>,
    /// Numerical-health report for the run. All-zero when the simulator's
    /// [`GuardConfig`] is disabled (the default).
    pub health: RunHealth,
}

/// A circuit compiled against a simulator's noise model and fusion
/// configuration: the reusable execution plan (fused superblocks, stride
/// plans, operator classifications, noise channels) behind every shot and
/// trajectory. Compile once with [`StatevectorSimulator::compile`], then run
/// it any number of times with [`StatevectorSimulator::run_compiled`] to
/// amortise the compilation work across runs.
///
/// Since PR 7 the plan is split into an immutable, `Arc`-shared **topology**
/// (the full kernel set: fused steps, stride plans, noise channels) and a
/// small per-handle **binding overlay** holding only the operators of
/// parameter-dependent steps. [`Clone`] is therefore cheap — it shares the
/// topology and copies the overlay — so a serving layer can cache one
/// compiled plan and hand each request its own independently rebindable
/// handle ([`CompiledCircuit::bind`] never touches the shared topology).
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    /// The immutable, shareable plan topology.
    pub(crate) topology: Arc<CircuitKernels>,
    /// This handle's parameter-binding overlay (empty = the compile-time
    /// all-zero binding).
    pub(crate) binds: BindBuffers,
    /// The noise model the plan was compiled against; runs under a simulator
    /// with a different model are rejected (the plan bakes in gate-level
    /// channels, so executing it under another model would silently mix the
    /// two).
    pub(crate) noise: NoiseModel,
}

impl CompiledCircuit {
    /// What the fusion pass did to the circuit.
    pub fn fusion_stats(&self) -> FusionStats {
        self.topology.stats
    }

    /// Number of steps in the compiled execution plan.
    pub fn num_steps(&self) -> usize {
        self.topology.steps.len()
    }

    /// Per-qudit dimensions of the register the plan was compiled for.
    pub fn dims(&self) -> &[usize] {
        &self.topology.dims
    }

    /// Number of parameters a binding must supply
    /// ([`crate::Circuit::num_params`] of the source circuit). Zero for a
    /// fully bound circuit.
    pub fn num_params(&self) -> usize {
        self.topology.num_params
    }

    /// Number of apply steps whose operator depends on a free parameter —
    /// the steps [`CompiledCircuit::bind`] re-materialises (everything else
    /// is binding-invariant).
    pub fn rebindable_steps(&self) -> usize {
        self.topology
            .steps
            .iter()
            .filter(|s| matches!(s, crate::sim::kernels::ExecStep::Apply { recipe: Some(_), .. }))
            .count()
    }

    /// `true` if `self` and `other` share the same underlying plan topology
    /// (they are clones of one compiled plan). Bindings are per-handle and do
    /// not affect sharing; a plan-cache hit hands out handles for which this
    /// holds.
    pub fn shares_topology_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.topology, &other.topology)
    }

    /// Re-materialises the operators of the parameter-dependent (possibly
    /// fused) apply steps at the given binding into **this handle's** overlay
    /// — without re-running fusion, stride-plan construction, or the plan's
    /// step topology, and without touching any other handle sharing the same
    /// topology. A plan compiled from a parameterized circuit starts out
    /// bound at all-zero parameters.
    ///
    /// Rebinding is exactly equivalent to recompiling the bound circuit:
    /// `compile(c).bind(θ)` and `compile(c.with_bound(θ))` execute
    /// bitwise-identical plans (operators, classifications, and therefore
    /// sampling streams), the former skipping all recompilation work.
    ///
    /// # Example
    ///
    /// ```
    /// use qudit_circuit::gate::Param;
    /// use qudit_circuit::sim::StatevectorSimulator;
    /// use qudit_circuit::{Circuit, Gate};
    /// use qudit_core::matrix::CMatrix;
    ///
    /// let mut c = Circuit::uniform(1, 3);
    /// c.push(Gate::fourier(3), &[0]).unwrap();
    /// let phase = Gate::parameterized(
    ///     "sep",
    ///     vec![3],
    ///     &CMatrix::diag_real(&[0.0, 1.0, 2.0]),
    ///     Param::Free(0),
    /// )
    /// .unwrap();
    /// c.push(phase, &[0]).unwrap();
    ///
    /// let sim = StatevectorSimulator::new();
    /// let mut plan = sim.compile(&c).unwrap();
    /// assert_eq!(plan.num_params(), 1);
    /// for theta in [0.1, 0.7, 1.3] {
    ///     let swept = sim.run_bound(&mut plan, &[theta]).unwrap();
    ///     let rebuilt = sim.run(&c.with_bound(&[theta]).unwrap()).unwrap();
    ///     let overlap = swept.state.inner(&rebuilt).unwrap().abs();
    ///     assert!((overlap - 1.0).abs() < 1e-12);
    /// }
    /// ```
    ///
    /// # Errors
    /// Returns an error if `params` supplies fewer than
    /// [`CompiledCircuit::num_params`] values.
    pub fn bind(&mut self, params: &[f64]) -> Result<()> {
        self.topology.bind_into(params, &mut self.binds)
    }

    /// Realises a whole *population* of bindings against this plan's shared
    /// topology — one overlay per ensemble column — for batched execution via
    /// [`StatevectorSimulator::run_ensemble`]. Each overlay is produced by the
    /// same re-materialisation as [`CompiledCircuit::bind`], so column `b` of
    /// the ensemble runs the bitwise-identical plan `bind(population[b])`
    /// would have produced.
    ///
    /// Materialisations are shared across members that agree (bitwise) on
    /// the parameters a step actually reads, so structured populations — a
    /// coordinate grid, a sweep along one axis — pay for the distinct values
    /// per step rather than the population size. Sharing is exact (the
    /// realization is a pure function of those parameters), so the bitwise
    /// contract with the serial bind loop is unaffected.
    ///
    /// # Errors
    /// Returns an error if any member supplies fewer than
    /// [`CompiledCircuit::num_params`] values.
    pub fn bind_batch(&self, population: &[Vec<f64>]) -> Result<BatchBindings> {
        Ok(BatchBindings { cols: self.topology.bind_batch_into(population)? })
    }
}

/// A state-vector simulator.
///
/// Deterministic circuits evolve exactly; measurements, resets and explicit
/// noise channels are handled stochastically using the simulator's seeded
/// random number generator, making every run reproducible.
///
/// # Example
///
/// ```
/// use qudit_circuit::sim::StatevectorSimulator;
/// use qudit_circuit::{Circuit, Gate};
///
/// // Maximally correlated two-qutrit state: F on qudit 0, then CSUM.
/// let mut c = Circuit::uniform(2, 3);
/// c.push(Gate::fourier(3), &[0]).unwrap();
/// c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
///
/// let sim = StatevectorSimulator::with_seed(7);
/// let state = sim.run(&c).unwrap();
/// assert!((state.probabilities()[0] - 1.0 / 3.0).abs() < 1e-12);
///
/// // Compile once and reuse the fused execution plan across runs.
/// let compiled = sim.compile(&c).unwrap();
/// let again = sim.run_compiled(&compiled).unwrap();
/// assert!((again.state.inner(&state).unwrap().abs() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct StatevectorSimulator {
    seed: u64,
    noise: NoiseModel,
    threads: usize,
    fusion: FusionConfig,
    guard: GuardConfig,
    cancel: Option<CancelToken>,
}

impl Default for StatevectorSimulator {
    fn default() -> Self {
        Self::new()
    }
}

impl StatevectorSimulator {
    /// Creates a simulator with the default seed and no noise model.
    pub fn new() -> Self {
        Self {
            seed: 0xC0FFEE,
            noise: NoiseModel::noiseless(),
            threads: 0,
            fusion: FusionConfig::default(),
            guard: GuardConfig::disabled(),
            cancel: None,
        }
    }

    /// Creates a simulator with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed, ..Self::new() }
    }

    /// Attaches a gate-level noise model; noise channels are inserted
    /// stochastically after each gate (one trajectory).
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the worker-thread count (`0` = automatic) for the parallel shot
    /// loop in [`StatevectorSimulator::sample_counts`] and the column loop of
    /// [`StatevectorSimulator::run_ensemble`]. Results are independent of the
    /// thread count: every shot and every column owns its RNG seed.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the gate-fusion configuration (enabled by default; see
    /// [`crate::sim::fusion`]). Fusion changes results only at the level of
    /// floating-point rounding.
    #[must_use]
    pub fn with_fusion(mut self, fusion: FusionConfig) -> Self {
        self.fusion = fusion;
        self
    }

    /// Sets the runtime health-guard configuration (disabled by default; see
    /// [`qudit_core::guard`]). With guards enabled, every `cadence` execution
    /// steps — and once at the end of the run — the state is scanned for
    /// non-finite amplitudes and norm drift, the configured
    /// [`qudit_core::guard::GuardPolicy`] decides what happens on a failure,
    /// and the run's [`RunOutput::health`] reports what the guards saw.
    /// Checkpoints never mutate a healthy state, so a guarded clean run is
    /// bitwise identical to an unguarded one.
    #[must_use]
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// Attaches a cooperative [`CancelToken`]. The run loop polls it on entry
    /// and at every guard-cadence boundary (every
    /// [`GuardConfig`] `cadence` steps — the cadence applies whether or not
    /// the guard itself is enabled), surfacing a tripped token as
    /// [`qudit_core::error::CoreError::Cancelled`]. Checkpoints never mutate
    /// the state, so a cancelled run is bitwise identical to an uncancelled
    /// one right up to the step at which it stops. Every column of
    /// [`StatevectorSimulator::run_ensemble`] runs this loop, so each column
    /// spends its own check-budget units.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Compiles a circuit into its reusable execution plan (fusion pass,
    /// stride plans, operator classifications, noise channels).
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

    /// Runs a precompiled circuit from `|0...0⟩` with the simulator's seed.
    /// Equivalent to [`StatevectorSimulator::run_detailed`] on the source
    /// circuit, minus the per-run compilation work.
    ///
    /// # Errors
    /// Returns an error for invalid dimensions.
    pub fn run_compiled(&self, compiled: &CompiledCircuit) -> Result<RunOutput> {
        let initial =
            QuditState::zero(compiled.topology.dims.clone()).map_err(CircuitError::Core)?;
        self.run_compiled_from(compiled, &initial)
    }

    /// Runs a precompiled circuit from an arbitrary initial state.
    ///
    /// # Errors
    /// Returns an error if the initial state register differs from the
    /// compiled circuit's, or if this simulator's noise model differs from
    /// the one the plan was compiled against (gate-level channels are baked
    /// into the plan, so a mismatch would silently mix two models).
    pub fn run_compiled_from(
        &self,
        compiled: &CompiledCircuit,
        initial: &QuditState,
    ) -> Result<RunOutput> {
        check_noise(&compiled.noise, &self.noise)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.run_prepared(&compiled.topology, &compiled.binds, initial, &mut rng)
    }

    /// Rebinds a compiled plan to `params` and runs it from `|0...0⟩`: the
    /// rebind-per-step entry point for variational sweeps (see
    /// [`CompiledCircuit::bind`]).
    ///
    /// # Errors
    /// Returns an error for a short binding, a register mismatch, or a noise
    /// model mismatch.
    pub fn run_bound(&self, compiled: &mut CompiledCircuit, params: &[f64]) -> Result<RunOutput> {
        // Validate before binding so a failed call leaves the plan untouched.
        check_noise(&compiled.noise, &self.noise)?;
        compiled.bind(params)?;
        self.run_compiled(compiled)
    }

    /// Rebinds a compiled plan to `params` and runs it from an arbitrary
    /// initial state.
    ///
    /// # Errors
    /// Returns an error for a short binding, a register mismatch, or a noise
    /// model mismatch.
    pub fn run_bound_from(
        &self,
        compiled: &mut CompiledCircuit,
        params: &[f64],
        initial: &QuditState,
    ) -> Result<RunOutput> {
        // Validate before binding so a failed call leaves the plan untouched.
        check_noise(&compiled.noise, &self.noise)?;
        compiled.bind(params)?;
        self.run_compiled_from(compiled, initial)
    }

    /// Runs a population of bindings through one compiled plan from
    /// `|0...0⟩` (see [`CompiledCircuit::bind_batch`]). Each column runs the
    /// plan once with its own memoised binding overlay and the simulator's
    /// seed, and columns fan out across the worker threads set by
    /// [`StatevectorSimulator::with_threads`]. Column `b`'s output is
    /// bitwise identical to `run_bound` on binding `b` — same state, same
    /// measurement records, same health report — at any thread count.
    ///
    /// Returns one `Result<RunOutput>` per column. Column-local failures
    /// (guard trips, zero-mass measurements) fail only their column; a
    /// register mismatch or a cancellation in any column fails the whole
    /// call.
    ///
    /// # Errors
    /// Returns an error for a noise-model mismatch or cancellation.
    pub fn run_ensemble(
        &self,
        compiled: &CompiledCircuit,
        batch: &BatchBindings,
    ) -> Result<Vec<Result<RunOutput>>> {
        let initial =
            QuditState::zero(compiled.topology.dims.clone()).map_err(CircuitError::Core)?;
        self.run_ensemble_from(compiled, batch, &initial)
    }

    /// [`StatevectorSimulator::run_ensemble`] from an arbitrary shared
    /// initial state. Every column starts from `initial` and uses the
    /// simulator's seed, exactly as the serial `run_bound_from` loop would.
    ///
    /// # Errors
    /// Returns an error for a register or noise-model mismatch, or
    /// cancellation.
    pub fn run_ensemble_from(
        &self,
        compiled: &CompiledCircuit,
        batch: &BatchBindings,
        initial: &QuditState,
    ) -> Result<Vec<Result<RunOutput>>> {
        check_noise(&compiled.noise, &self.noise)?;
        let kernels = &compiled.topology;
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        check_register(initial.radix().dims(), &kernels.dims)?;
        let threads = if self.threads == 0 { qudit_core::par::max_threads() } else { self.threads };
        let columns = qudit_core::par::par_map_threads(batch.len(), threads, |b| {
            let mut rng = StdRng::seed_from_u64(self.seed);
            self.run_prepared(kernels, &batch.cols[b], initial, &mut rng)
        });
        // Cancellation is a property of the call, not of one column.
        for column in &columns {
            if let Err(e @ CircuitError::Core(CoreError::Cancelled { .. })) = column {
                return Err(e.clone());
            }
        }
        Ok(columns)
    }

    /// Runs the circuit from `|0...0⟩` and returns the final state
    /// (discarding measurement records).
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn run(&self, circuit: &Circuit) -> Result<QuditState> {
        Ok(self.run_detailed(circuit)?.state)
    }

    /// Runs the circuit from `|0...0⟩` and returns state plus measurement
    /// records.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn run_detailed(&self, circuit: &Circuit) -> Result<RunOutput> {
        let initial = QuditState::zero(circuit.dims().to_vec()).map_err(CircuitError::Core)?;
        self.run_from(circuit, &initial)
    }

    /// Runs the circuit from an arbitrary initial state.
    ///
    /// # Errors
    /// Returns an error if the initial state register differs from the
    /// circuit's or an instruction is invalid.
    pub fn run_from(&self, circuit: &Circuit, initial: &QuditState) -> Result<RunOutput> {
        self.run_from_with_rng(circuit, initial, &mut StdRng::seed_from_u64(self.seed))
    }

    /// Runs the circuit from an arbitrary initial state using a caller-owned
    /// random number generator (used by the trajectory simulator to vary the
    /// seed per trajectory).
    ///
    /// # Errors
    /// Returns an error if the initial state register differs from the
    /// circuit's or an instruction is invalid.
    pub fn run_from_with_rng(
        &self,
        circuit: &Circuit,
        initial: &QuditState,
        rng: &mut StdRng,
    ) -> Result<RunOutput> {
        let kernels = CircuitKernels::with_config(circuit, &self.noise, &self.fusion)?;
        self.run_prepared(&kernels, &BindBuffers::default(), initial, rng)
    }

    /// Runs a compiled execution plan, the shared path behind every shot and
    /// trajectory loop: fused superblocks, stride plans, operator
    /// classifications and noise channels are reused, and one scratch buffer
    /// serves the whole run.
    ///
    /// The plan may be a wire-local re-ordering of the source circuit (a
    /// fused block disjoint from a measurement can execute after it — see
    /// [`crate::sim::fusion`]); steps are simply executed in plan order, and
    /// the disjoint-support commutation argument guarantees identical
    /// measurement distributions and aligned RNG streams.
    ///
    /// Parameter-dependent steps resolve their operator through `binds` (the
    /// per-request overlay); pass an empty overlay for the compile-time
    /// binding.
    pub(crate) fn run_prepared(
        &self,
        kernels: &CircuitKernels,
        binds: &BindBuffers,
        initial: &QuditState,
        rng: &mut StdRng,
    ) -> Result<RunOutput> {
        check_register(initial.radix().dims(), &kernels.dims)?;
        let mut state = initial.clone();
        let mut measurements = Vec::new();
        let mut scratch = RunScratch::default();
        let dims = &kernels.dims;
        let mut monitor = HealthMonitor::new(self.guard);
        let mut bind_cursor = 0usize;
        let driver = StepDriver { guard: self.guard, cancel: self.cancel.as_ref() };
        let exec_step = |step_index, step: &ExecStep, state: &mut QuditState, _: &mut _| {
            match step {
                ExecStep::Apply { plan, kind, op, noise, .. } => {
                    let (kind, op) = binds.resolve(&mut bind_cursor, step_index, kind, op);
                    state
                        .apply_prepared(plan, kind, op, &mut scratch.block)
                        .map_err(CircuitError::Core)?;
                    for channel in noise {
                        apply_channel_prepared(state, channel, rng, &mut scratch)?;
                    }
                }
                ExecStep::Measure { targets } => {
                    let mut outcome = state.measure(targets, rng).map_err(CircuitError::Core)?;
                    let target_dims: Vec<usize> = targets.iter().map(|&t| dims[t]).collect();
                    apply_readout_flip(&mut outcome, &target_dims, self.noise.readout_flip, rng);
                    measurements.push((targets.clone(), outcome));
                }
                ExecStep::Reset { target } => {
                    let outcome = state.measure(&[*target], rng).map_err(CircuitError::Core)?;
                    // Rotate the observed level back to |0⟩ with a shift gate.
                    let level = outcome[0];
                    if level != 0 {
                        let d = dims[*target];
                        let shift_back = power_of_shift(d, d - level);
                        state
                            .apply_operator(&shift_back, &[*target])
                            .map_err(CircuitError::Core)?;
                    }
                }
                ExecStep::Channel(channel) => {
                    apply_channel_prepared(state, channel, rng, &mut scratch)?;
                }
                ExecStep::Barrier => {
                    for channel in &kernels.barrier_loss {
                        apply_channel_prepared(state, channel, rng, &mut scratch)?;
                    }
                }
            }
            Ok(())
        };
        driver.run(&kernels.steps, &mut state, &mut monitor, exec_step, |at, state, monitor| {
            monitor.check_statevector(at, state.amplitudes_mut())
        })?;
        Ok(RunOutput { state, measurements, health: monitor.health() })
    }

    /// Samples `shots` end-of-circuit computational-basis measurements.
    ///
    /// If the circuit is fully deterministic (no measurement, reset or
    /// channel instructions and no noise model), the state is computed once
    /// and sampled `shots` times; otherwise the circuit is re-run per shot.
    ///
    /// Returned keys are digit strings of the full register.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn sample_counts(
        &self,
        circuit: &Circuit,
        shots: usize,
    ) -> Result<HashMap<Vec<usize>, usize>> {
        let stochastic = self.circuit_is_stochastic(circuit);
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        if !stochastic {
            // Deterministic circuit: evolve once, then draw shots from the
            // precomputed cumulative distribution (binary search per shot).
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(1));
            let out = self.run_detailed(circuit)?;
            let cdf = out.state.cdf();
            let radix = out.state.radix();
            for _ in 0..shots {
                // A run output is normalised, so the distribution always has
                // mass; the guarded draw keeps the degenerate case (an
                // underflowed probability vector) on the documented
                // ground-outcome convention instead of a zero-weight draw.
                let chosen = cdf.try_draw(&mut rng).unwrap_or(0);
                let mut digits = radix.digits_of(chosen).expect("index in range");
                apply_readout_flip(&mut digits, circuit.dims(), self.noise.readout_flip, &mut rng);
                *counts.entry(digits).or_insert(0) += 1;
            }
        } else {
            // Stochastic circuit: every shot re-runs the circuit with its own
            // index-derived seed, so the shot loop is embarrassingly parallel
            // and its outcome is independent of the thread count.
            let kernels = CircuitKernels::with_config(circuit, &self.noise, &self.fusion)?;
            let binds = BindBuffers::default();
            let initial = QuditState::zero(circuit.dims().to_vec()).map_err(CircuitError::Core)?;
            let threads =
                if self.threads == 0 { qudit_core::par::max_threads() } else { self.threads };
            let run_shot = |shot: usize| -> Result<Vec<usize>> {
                let mut shot_rng = StdRng::seed_from_u64(
                    self.seed.wrapping_add(0x9E37_79B9).wrapping_mul(shot as u64 + 1),
                );
                let out = self.run_prepared(&kernels, &binds, &initial, &mut shot_rng)?;
                let mut digits = out.state.sample(&mut shot_rng);
                apply_readout_flip(
                    &mut digits,
                    circuit.dims(),
                    self.noise.readout_flip,
                    &mut shot_rng,
                );
                Ok(digits)
            };
            // With a token attached, the shot sweep also polls it between
            // pool chunks, so a long sampling job stops within one chunk.
            let shot_digits = match &self.cancel {
                Some(token) => {
                    qudit_core::par::par_map_threads_counted_cancel(shots, threads, token, run_shot)
                        .map_err(CircuitError::Core)?
                        .0
                }
                None => qudit_core::par::par_map_threads(shots, threads, run_shot),
            };
            for digits in shot_digits {
                *counts.entry(digits?).or_insert(0) += 1;
            }
        }
        Ok(counts)
    }

    /// Expectation value of an observable on the final state of a circuit run
    /// from `|0...0⟩`.
    ///
    /// # Errors
    /// Returns an error for invalid instructions or observable dimensions.
    pub fn expectation(&self, circuit: &Circuit, observable: &Observable) -> Result<f64> {
        let state = self.run(circuit)?;
        observable.expectation(&state)
    }

    fn circuit_is_stochastic(&self, circuit: &Circuit) -> bool {
        !self.noise.is_noiseless()
            || circuit.instructions().iter().any(|i| {
                matches!(
                    i,
                    Instruction::Measure { .. }
                        | Instruction::Reset { .. }
                        | Instruction::Channel { .. }
                )
            })
    }
}

/// `X^k` for the generalised shift, used to un-compute reset outcomes.
/// `X^k` maps `|c⟩ → |c + k mod d⟩`, so it is constructed directly as the
/// index permutation rather than by `k` repeated O(d³) matrix products.
pub(crate) fn power_of_shift(d: usize, k: usize) -> qudit_core::matrix::CMatrix {
    let mut m = qudit_core::matrix::CMatrix::zeros(d, d);
    for c in 0..d {
        m[((c + k) % d, c)] = qudit_core::complex::Complex64::ONE;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::noise::{KrausChannel, NoiseModel};
    use qudit_core::complex::Complex64;

    #[test]
    fn ghz_qutrit_state_probabilities() {
        // F on qudit 0 then CSUM 0->1 gives the maximally correlated state.
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        let state = StatevectorSimulator::new().run(&c).unwrap();
        let p = state.probabilities();
        for (idx, prob) in p.iter().enumerate() {
            let a = idx / 3;
            let b = idx % 3;
            if a == b {
                assert!((prob - 1.0 / 3.0).abs() < 1e-10);
            } else {
                assert!(*prob < 1e-12);
            }
        }
    }

    #[test]
    fn measurement_outcomes_are_recorded_and_collapse() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        c.measure(&[0]).unwrap();
        let out = StatevectorSimulator::with_seed(3).run_detailed(&c).unwrap();
        assert_eq!(out.measurements.len(), 1);
        let observed = out.measurements[0].1[0];
        // After collapse, qudit 1 is perfectly correlated.
        let probs = out.state.marginal_probabilities(&[1]).unwrap();
        assert!((probs[observed] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reset_returns_qudit_to_ground() {
        let mut c = Circuit::uniform(1, 4);
        c.push(Gate::fourier(4), &[0]).unwrap();
        c.reset(0).unwrap();
        let out = StatevectorSimulator::with_seed(11).run_detailed(&c).unwrap();
        assert!((out.state.amplitude(&[0]).unwrap().abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn initial_state_register_mismatch_errors() {
        let c = Circuit::uniform(2, 3);
        let bad = QuditState::zero(vec![3]).unwrap();
        assert!(StatevectorSimulator::new().run_from(&c, &bad).is_err());
    }

    #[test]
    fn sampling_deterministic_circuit_matches_amplitudes() {
        let mut c = Circuit::uniform(1, 4);
        c.push(Gate::fourier(4), &[0]).unwrap();
        let counts = StatevectorSimulator::with_seed(5).sample_counts(&c, 8000).unwrap();
        for level in 0..4usize {
            let n = counts.get(&vec![level]).copied().unwrap_or(0);
            assert!((n as f64 / 8000.0 - 0.25).abs() < 0.03, "level {level}");
        }
    }

    #[test]
    fn noise_model_changes_outcome_distribution() {
        // With full photon loss after every gate the register collapses to |00⟩.
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::shift_x(3), &[0]).unwrap();
        c.push(Gate::shift_x(3), &[1]).unwrap();
        let noisy =
            StatevectorSimulator::with_seed(1).with_noise(NoiseModel::cavity(1.0, 1.0, 0.0));
        let state = noisy.run(&c).unwrap();
        assert!((state.amplitude(&[0, 0]).unwrap().abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn explicit_channel_instruction_is_applied() {
        let mut c = Circuit::uniform(1, 3);
        c.push(Gate::shift_x(3), &[0]).unwrap();
        c.push_channel(KrausChannel::photon_loss(3, 1.0).unwrap(), &[0]).unwrap();
        let state = StatevectorSimulator::new().run(&c).unwrap();
        assert!((state.amplitude(&[0]).unwrap().abs() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn expectation_via_observable() {
        let mut c = Circuit::uniform(1, 4);
        c.push(Gate::shift_x(4), &[0]).unwrap();
        c.push(Gate::shift_x(4), &[0]).unwrap();
        let obs = Observable::number(0, 4);
        let e = StatevectorSimulator::new().expectation(&c, &obs).unwrap();
        assert!((e - 2.0).abs() < 1e-10);
    }

    #[test]
    fn readout_flip_perturbs_counts() {
        let c = Circuit::uniform(1, 2); // state stays |0⟩
        let sim = StatevectorSimulator::with_seed(9)
            .with_noise(NoiseModel::noiseless().with_readout_flip(0.3));
        let counts = sim.sample_counts(&c, 5000).unwrap();
        let ones = counts.get(&vec![1usize]).copied().unwrap_or(0) as f64 / 5000.0;
        assert!((ones - 0.3).abs() < 0.03);
    }

    #[test]
    fn power_of_shift_matches_repeated_multiplication() {
        for d in [2usize, 3, 5] {
            for k in 0..=d + 1 {
                let x = crate::gates::shift_x(d);
                let mut expected = qudit_core::matrix::CMatrix::identity(d);
                for _ in 0..(k % d) {
                    expected = x.matmul(&expected).unwrap();
                }
                let direct = power_of_shift(d, k);
                assert!((&direct - &expected).max_abs() < 1e-15, "d = {d}, k = {k}");
            }
        }
    }

    #[test]
    fn stochastic_sampling_is_thread_count_invariant() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        c.measure(&[0]).unwrap();
        let noise = NoiseModel::cavity(0.1, 0.2, 0.0);
        let serial = StatevectorSimulator::with_seed(21)
            .with_noise(noise.clone())
            .with_threads(1)
            .sample_counts(&c, 300)
            .unwrap();
        let parallel = StatevectorSimulator::with_seed(21)
            .with_noise(noise)
            .with_threads(4)
            .sample_counts(&c, 300)
            .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn runs_are_reproducible_for_fixed_seed() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        c.measure_all();
        let a = StatevectorSimulator::with_seed(77).run_detailed(&c).unwrap();
        let b = StatevectorSimulator::with_seed(77).run_detailed(&c).unwrap();
        assert_eq!(a.measurements, b.measurements);
        let overlap: Complex64 = a.state.inner(&b.state).unwrap();
        assert!((overlap.abs() - 1.0).abs() < 1e-12);
    }
}
