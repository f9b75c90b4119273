//! Exact open-system circuit simulation on density matrices.
//!
//! Since PR 3 the simulator consumes circuits through a **density-compiled**
//! plan: the shared fused [`ExecStep`](crate::sim::fusion) pipeline is
//! re-compiled into [`DensityStep`]s, where every channel whose superoperator
//! `Σ K ⊗ conj(K)` is profitable executes as a *single* unit-stride sweep
//! over vectorised ρ, read as the state of a doubled register (see
//! [`qudit_core::superop`]), and channel-adjacent unitary
//! runs fold into the same sweep under a fusion-style cost rule. Both
//! compilation stages flush **wire-locally**: a plan step may be re-ordered
//! past a disjoint-support measurement or channel (exact, by commutation —
//! see [`crate::sim::fusion`]). Unlike statevector plans, density plans
//! never fuse or fold across a barrier: every barrier closes every open
//! block, so the plan of `C1; barrier; C2` is the plan of `C1; barrier`
//! followed by the plan of `C2`, and running `C2`'s plan from the state
//! `C1; barrier` left is bitwise the same as running the whole. Use
//! [`DensityMatrixSimulator::compile`] to reuse a plan across runs.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use qudit_core::cancel::CancelToken;
use qudit_core::density::DensityMatrix;
use qudit_core::error::CoreError;
use qudit_core::guard::{GuardConfig, GuardPolicy, HealthMetric, HealthMonitor, RunHealth};
use qudit_core::superop::SuperPlan;

use crate::circuit::Circuit;
use crate::error::{CircuitError, Result};
use crate::noise::NoiseModel;
use crate::observable::Observable;
use crate::sim::draw_shot;
use crate::sim::driver::{check_noise, check_register, StepDriver};
use crate::sim::fusion::{FusionConfig, FusionStats};
use crate::sim::kernels::{
    BindBuffers, CircuitKernels, DensityKernels, DensityStep, SuperFallback, SuperopConfig,
    SuperopStats,
};

/// A circuit compiled for density-matrix execution: the fused plan plus the
/// superoperator-batched channel sweeps. Compile once with
/// [`DensityMatrixSimulator::compile`], then run it any number of times with
/// [`DensityMatrixSimulator::run_compiled`].
///
/// Like [`crate::sim::CompiledCircuit`], the plan is split into an
/// immutable, `Arc`-shared topology and a small per-handle binding overlay,
/// so [`Clone`] is cheap and concurrent requests can share one cached plan
/// while rebinding independently.
#[derive(Debug, Clone)]
pub struct CompiledDensityCircuit {
    /// The immutable, shareable density plan topology.
    pub(crate) topology: Arc<DensityKernels>,
    /// This handle's parameter-binding overlay (empty = the compile-time
    /// all-zero binding).
    pub(crate) binds: BindBuffers,
    /// The noise model the plan was compiled against (baked into the steps).
    noise: NoiseModel,
}

impl CompiledDensityCircuit {
    /// What the gate-fusion pass did to the circuit.
    pub fn fusion_stats(&self) -> FusionStats {
        self.topology.fusion_stats
    }

    /// What the superoperator compiler did to the fused plan.
    pub fn superop_stats(&self) -> SuperopStats {
        self.topology.stats
    }

    /// Number of steps in the compiled density plan.
    pub fn num_steps(&self) -> usize {
        self.topology.steps.len()
    }

    /// Per-qudit dimensions of the register the plan was compiled for.
    pub fn dims(&self) -> &[usize] {
        &self.topology.dims
    }

    /// Number of parameters a binding must supply
    /// ([`crate::Circuit::num_params`] of the source circuit).
    pub fn num_params(&self) -> usize {
        self.topology.num_params
    }

    /// Re-materialises the parameter-dependent density steps at the given
    /// binding into **this handle's** overlay: sandwich steps re-realize
    /// their unitary, superoperator sweeps re-compose their recorded
    /// constituents. The folding topology, stride plans and step order are
    /// parameter-invariant and shared untouched, so rebinding skips the whole
    /// density compilation and never perturbs other handles.
    ///
    /// # Example
    ///
    /// ```
    /// use qudit_circuit::gate::Param;
    /// use qudit_circuit::noise::NoiseModel;
    /// use qudit_circuit::sim::DensityMatrixSimulator;
    /// use qudit_circuit::{Circuit, Gate};
    /// use qudit_core::matrix::CMatrix;
    ///
    /// let mut c = Circuit::uniform(1, 3);
    /// let phase = Gate::parameterized(
    ///     "sep",
    ///     vec![3],
    ///     &CMatrix::diag_real(&[0.0, 1.0, 2.0]),
    ///     Param::Free(0),
    /// )
    /// .unwrap();
    /// c.push(Gate::fourier(3), &[0]).unwrap();
    /// c.push(phase, &[0]).unwrap();
    ///
    /// let sim = DensityMatrixSimulator::new().with_noise(NoiseModel::depolarizing(1e-3, 0.0));
    /// let mut plan = sim.compile(&c).unwrap();
    /// for theta in [0.2, 0.9] {
    ///     plan.bind(&[theta]).unwrap();
    ///     let (swept, _) = sim.run_compiled(&plan, None).unwrap();
    ///     let rebuilt = sim.run(&c.with_bound(&[theta]).unwrap()).unwrap();
    ///     assert!((swept.matrix() - rebuilt.matrix()).max_abs() < 1e-12);
    /// }
    /// ```
    ///
    /// # Errors
    /// Returns an error if `params` supplies fewer than
    /// [`CompiledDensityCircuit::num_params`] values.
    pub fn bind(&mut self, params: &[f64]) -> Result<()> {
        self.topology.bind_into(params, &mut self.binds)
    }
}

/// A density-matrix simulator with an attached [`NoiseModel`].
///
/// Every gate is followed by the noise model's per-qudit error channels;
/// measurements are treated non-selectively (the state is dephased in the
/// computational basis of the measured qudits), which is the correct
/// description when outcomes are averaged over.
///
/// # Example
///
/// ```
/// use qudit_circuit::noise::NoiseModel;
/// use qudit_circuit::sim::DensityMatrixSimulator;
/// use qudit_circuit::{Circuit, Gate};
///
/// let mut c = Circuit::uniform(2, 3);
/// c.push(Gate::fourier(3), &[0]).unwrap();
/// c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
///
/// let sim = DensityMatrixSimulator::new().with_noise(NoiseModel::depolarizing(1e-3, 1e-2));
/// let rho = sim.run(&c).unwrap();
/// assert!((rho.trace() - 1.0).abs() < 1e-9);
/// assert!(rho.purity() < 1.0); // noise mixes the state
///
/// // Compile once to amortise plan construction over repeated runs.
/// let compiled = sim.compile(&c).unwrap();
/// assert!(compiled.superop_stats().super_steps > 0);
/// let (again, health) = sim.run_compiled(&compiled, None).unwrap();
/// assert_eq!(health.checks_run, 0); // the guard is off by default
/// assert!((again.purity() - rho.purity()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DensityMatrixSimulator {
    noise: NoiseModel,
    seed: u64,
    fusion: FusionConfig,
    superop: SuperopConfig,
    threads: usize,
    guard: GuardConfig,
    cancel: Option<CancelToken>,
}

impl DensityMatrixSimulator {
    /// Creates a noiseless density-matrix simulator.
    pub fn new() -> Self {
        Self {
            noise: NoiseModel::noiseless(),
            seed: 0xDEC0DE,
            fusion: FusionConfig::default(),
            superop: SuperopConfig::default(),
            threads: 0,
            guard: GuardConfig::disabled(),
            cancel: None,
        }
    }

    /// Attaches a noise model.
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the sampling seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the gate-fusion configuration used when compiling the circuit
    /// (enabled by default; see [`crate::sim::fusion`]).
    #[must_use]
    pub fn with_fusion(mut self, fusion: FusionConfig) -> Self {
        self.fusion = fusion;
        self
    }

    /// Sets the superoperator-batching configuration (enabled by default;
    /// see [`SuperopConfig`]). Disabling it keeps every channel on the
    /// per-term Kraus path, which is the reference the property tests and
    /// benchmarks compare against. Batching changes results only at the
    /// level of floating-point rounding.
    #[must_use]
    pub fn with_superop(mut self, superop: SuperopConfig) -> Self {
        self.superop = superop;
        self
    }

    /// Sets the worker-thread count for superoperator sweeps (`0` =
    /// automatic): each sweep's independent doubled-register blocks are
    /// chunked across [`qudit_core::par`] pool workers. Results are bitwise
    /// identical for every thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a runtime health-guard configuration (disabled by default;
    /// see [`qudit_core::guard`]).
    ///
    /// When enabled, every [`GuardConfig`] cadence the run re-sums the trace
    /// and scans the density matrix for non-finite entries and hermiticity
    /// defects; under [`GuardPolicy::FallBack`] each folded superoperator
    /// sweep is additionally checked for trace preservation before it is
    /// applied and degraded to its per-constituent path on failure. Healthy
    /// runs are bitwise identical with guards on or off.
    #[must_use]
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = guard;
        self
    }

    /// Attaches a cooperative [`CancelToken`]. The run loop polls it on entry
    /// and at every guard-cadence boundary (every [`GuardConfig`] `cadence`
    /// steps, whether or not the guard itself is enabled), surfacing a
    /// tripped token as [`CoreError::Cancelled`]. Checkpoints never mutate ρ,
    /// so a cancelled sweep is bitwise identical to an uncancelled one right
    /// up to the step at which it stops.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            qudit_core::par::max_threads()
        } else {
            self.threads
        }
    }

    /// Compiles a circuit into its reusable density execution plan: the
    /// shared fusion pass, then the superoperator compiler (channel sweeps
    /// plus channel-adjacent unitary folding).
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn compile(&self, circuit: &Circuit) -> Result<CompiledDensityCircuit> {
        let kernels = CircuitKernels::with_config(circuit, &self.noise, &self.fusion, true)?;
        Ok(CompiledDensityCircuit {
            topology: Arc::new(DensityKernels::compile(&kernels, &self.superop)?),
            binds: BindBuffers::default(),
            noise: self.noise.clone(),
        })
    }

    /// Runs a precompiled circuit from `initial` or, with `None`, from
    /// `|0...0⟩⟨0...0|`, and returns ρ with the run's [`RunHealth`] report
    /// (all-zero when the guard is disabled): the one compiled entry point.
    /// Rebind the plan with [`CompiledDensityCircuit::bind`] between runs to
    /// sweep parameters.
    ///
    /// # Errors
    /// Returns an error if the register differs, if this simulator's noise
    /// model differs from the one the plan was compiled against (channels are
    /// baked into the plan, so a mismatch would silently mix two models), or
    /// [`CoreError::NumericalHealth`] when an enabled guard detects damage it
    /// is not allowed to repair.
    pub fn run_compiled(
        &self,
        compiled: &CompiledDensityCircuit,
        initial: Option<&DensityMatrix>,
    ) -> Result<(DensityMatrix, RunHealth)> {
        check_noise(&compiled.noise, &self.noise)?;
        let mut rho = match initial {
            Some(initial) => {
                check_register(initial.radix().dims(), &compiled.topology.dims)?;
                initial.clone()
            }
            None => {
                DensityMatrix::zero(compiled.topology.dims.clone()).map_err(CircuitError::Core)?
            }
        };
        let mut scratch = Vec::new();
        let threads = self.resolved_threads();
        let mut monitor = HealthMonitor::new(self.guard);
        let mut bind_cursor = 0usize;
        let driver = StepDriver { guard: self.guard, cancel: self.cancel.as_ref() };
        let exec_step = |step_index,
                         step: &DensityStep,
                         rho: &mut DensityMatrix,
                         monitor: &mut HealthMonitor| {
            match step {
                DensityStep::Unitary { plan, kind, op, conj } => {
                    let (kind, op, conj) = match compiled.binds.entry(&mut bind_cursor, step_index)
                    {
                        Some(o) => {
                            let conj = o.conj.as_ref().ok_or_else(|| {
                                CircuitError::InvalidGate(format!(
                                    "binding of sandwich step {step_index} lacks its column factor"
                                ))
                            })?;
                            (&o.kind, &o.op, conj)
                        }
                        None => (kind, op, conj),
                    };
                    rho.apply_unitary_prepared(plan, kind, op, conj, &mut scratch)
                        .map_err(CircuitError::Core)?;
                }
                DensityStep::Super { plan, kind, sup, compressed, fallback, defect_tol } => {
                    // Only binding-independent sweeps carry a compressed
                    // form, so an override never meets one.
                    let (kind, sup) =
                        compiled.binds.resolve(&mut bind_cursor, step_index, kind, sup);
                    let compressed = compressed.as_ref();
                    // Fault injection corrupts a *clone* of the sweep, so the
                    // fallback path below reproduces the clean result. A
                    // compressed sweep runs the corrupted clone compressed.
                    #[cfg(feature = "fault-inject")]
                    let corrupted =
                        qudit_core::guard::inject::superop_corruption(step_index).map(|delta| {
                            let mut c = sup.clone();
                            c[(0, 0)] += qudit_core::complex::c64(delta, 0.0);
                            let kind = qudit_core::apply::OpKind::classify(&c);
                            let rc = compressed.map(|_| {
                                qudit_core::sparse::RowCompressed::from_dense(
                                    &c,
                                    qudit_core::complex::Complex64::ONE,
                                )
                            });
                            (c, kind, rc)
                        });
                    #[cfg(feature = "fault-inject")]
                    let (sup, kind, compressed) = match &corrupted {
                        Some((c, k, rc)) => (c, k, rc.as_ref()),
                        None => (sup, kind, compressed),
                    };
                    let mut degraded = false;
                    if monitor.is_enabled()
                        && matches!(monitor.config().policy, GuardPolicy::FallBack)
                    {
                        // Pre-sweep trace-preservation check; NaN defects
                        // count as unhealthy.
                        let defect = SuperPlan::trace_defect(sup, plan.sub_dim());
                        if defect > defect_tol + monitor.config().tol || defect.is_nan() {
                            if fallback.is_empty() {
                                // Parametric sweeps carry no fallback (their
                                // constituents would go stale on rebind).
                                return Err(CircuitError::Core(CoreError::NumericalHealth {
                                    step: step_index,
                                    metric: HealthMetric::Superop,
                                    value: defect,
                                }));
                            }
                            for fb in fallback {
                                match fb {
                                    SuperFallback::Unitary { targets, op } => {
                                        rho.apply_unitary(op, targets)
                                    }
                                    SuperFallback::Kraus { channel, targets } => {
                                        rho.apply_kraus(channel.operators(), targets)
                                    }
                                }
                                .map_err(CircuitError::Core)?;
                            }
                            monitor.record_fallback();
                            degraded = true;
                        }
                    }
                    if !degraded {
                        match compressed {
                            Some(rc) => plan.apply_compressed(
                                rc,
                                rho.matrix_mut().as_mut_slice(),
                                threads,
                                &mut scratch,
                            ),
                            None => {
                                rho.apply_superop_prepared(plan, kind, sup, threads, &mut scratch)
                            }
                        }
                        .map_err(CircuitError::Core)?;
                    }
                }
                DensityStep::Kraus(ch) => {
                    rho.apply_kraus_prepared(
                        &ch.plan,
                        ch.channel.operators(),
                        &ch.kinds,
                        &mut scratch,
                    )
                    .map_err(CircuitError::Core)?;
                }
            }
            Ok(())
        };
        driver.run(
            &compiled.topology.steps,
            &mut rho,
            &mut monitor,
            exec_step,
            |at, rho, monitor| monitor.check_density(at, rho.matrix_mut()),
        )?;
        Ok((rho, monitor.health()))
    }

    /// Runs a precompiled circuit from `initial` and returns ρ alone. Kept
    /// with this exact signature because `appbench` calls it; everything else
    /// calls [`DensityMatrixSimulator::run_compiled`].
    ///
    /// # Errors
    /// As [`DensityMatrixSimulator::run_compiled`].
    pub fn run_compiled_from(
        &self,
        compiled: &CompiledDensityCircuit,
        initial: &DensityMatrix,
    ) -> Result<DensityMatrix> {
        Ok(self.run_compiled(compiled, Some(initial))?.0)
    }

    /// Binds `params`, then runs from `|0...0⟩⟨0...0|` and returns ρ alone.
    /// Kept with this exact signature because `appbench` calls it;
    /// everything else binds with [`CompiledDensityCircuit::bind`] and calls
    /// [`DensityMatrixSimulator::run_compiled`].
    ///
    /// # Errors
    /// Returns an error for a noise model mismatch (checked first, so the
    /// plan keeps its binding), a short binding or invalid dimensions.
    pub fn run_bound(
        &self,
        compiled: &mut CompiledDensityCircuit,
        params: &[f64],
    ) -> Result<DensityMatrix> {
        check_noise(&compiled.noise, &self.noise)?;
        compiled.bind(params)?;
        Ok(self.run_compiled(compiled, None)?.0)
    }

    /// Runs the circuit from `|0...0⟩⟨0...0|`.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn run(&self, circuit: &Circuit) -> Result<DensityMatrix> {
        Ok(self.run_compiled(&self.compile(circuit)?, None)?.0)
    }

    /// Compiles the circuit and runs it from `initial`. Kept with this exact
    /// signature because `appbench` calls it; everything else compiles once
    /// and calls [`DensityMatrixSimulator::run_compiled`].
    ///
    /// # Errors
    /// Returns an error if the register differs or an instruction is invalid.
    pub fn run_from(&self, circuit: &Circuit, initial: &DensityMatrix) -> Result<DensityMatrix> {
        Ok(self.run_compiled(&self.compile(circuit)?, Some(initial))?.0)
    }

    /// Expectation value of an observable after running the circuit.
    ///
    /// # Errors
    /// Returns an error for invalid instructions or observable dimensions.
    pub fn expectation(&self, circuit: &Circuit, observable: &Observable) -> Result<f64> {
        let rho = self.run(circuit)?;
        observable.expectation_density(&rho)
    }

    /// Samples `shots` computational-basis measurements from the final state,
    /// including the noise model's readout error.
    ///
    /// # Errors
    /// Returns an error for invalid instructions.
    pub fn sample_counts(
        &self,
        circuit: &Circuit,
        shots: usize,
    ) -> Result<HashMap<Vec<usize>, usize>> {
        let rho = self.run(circuit)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let cdf = rho.cdf();
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for _ in 0..shots {
            let digits = draw_shot(&cdf, rho.radix(), self.noise.readout_flip, &mut rng);
            *counts.entry(digits).or_insert(0) += 1;
        }
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::noise::KrausChannel;
    use qudit_core::metrics::trace_distance;

    #[test]
    fn noiseless_density_sim_matches_statevector() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        let rho = DensityMatrixSimulator::new().run(&c).unwrap();
        let psi = crate::sim::StatevectorSimulator::new().run(&c).unwrap();
        assert!((rho.fidelity_with_pure(&psi).unwrap() - 1.0).abs() < 1e-9);
        assert!((rho.purity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn depolarising_noise_reduces_fidelity_monotonically() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.push(Gate::csum(3, 3), &[0, 1]).unwrap();
        let ideal = crate::sim::StatevectorSimulator::new().run(&c).unwrap();
        let mut last = 1.0;
        for p in [0.0, 0.01, 0.05, 0.2] {
            let sim = DensityMatrixSimulator::new().with_noise(NoiseModel::depolarizing(p, p));
            let f = sim.run(&c).unwrap().fidelity_with_pure(&ideal).unwrap();
            assert!(f <= last + 1e-9, "fidelity should not increase with noise");
            last = f;
        }
        assert!(last < 0.9);
    }

    #[test]
    fn measurement_dephases_but_preserves_populations() {
        let mut c = Circuit::uniform(1, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        c.measure_all();
        let rho = DensityMatrixSimulator::new().run(&c).unwrap();
        let probs = rho.probabilities();
        for p in probs {
            assert!((p - 1.0 / 3.0).abs() < 1e-9);
        }
        // Coherences destroyed.
        assert!(rho.matrix()[(0, 1)].abs() < 1e-9);
        assert!((rho.purity() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn reset_channel_sends_everything_to_ground() {
        let mut c = Circuit::uniform(1, 4);
        c.push(Gate::fourier(4), &[0]).unwrap();
        c.reset(0).unwrap();
        let rho = DensityMatrixSimulator::new().run(&c).unwrap();
        assert!((rho.probabilities()[0] - 1.0).abs() < 1e-9);
        assert!((rho.purity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn explicit_channel_matches_noise_model_channel() {
        // Pushing the channel explicitly must equal attaching it via the model.
        let mut base = Circuit::uniform(1, 3);
        base.push(Gate::shift_x(3), &[0]).unwrap();

        let mut explicit = base.clone();
        explicit.push_channel(KrausChannel::photon_loss(3, 0.3).unwrap(), &[0]).unwrap();
        let rho_explicit = DensityMatrixSimulator::new().run(&explicit).unwrap();

        let sim = DensityMatrixSimulator::new().with_noise(NoiseModel::cavity(0.3, 0.3, 0.0));
        let rho_model = sim.run(&base).unwrap();

        assert!(trace_distance(&rho_explicit, &rho_model).unwrap() < 1e-9);
    }

    #[test]
    fn sample_counts_sums_to_shots() {
        let mut c = Circuit::uniform(2, 3);
        c.push(Gate::fourier(3), &[0]).unwrap();
        let sim = DensityMatrixSimulator::new().with_noise(NoiseModel::depolarizing(0.05, 0.05));
        let counts = sim.sample_counts(&c, 500).unwrap();
        let total: usize = counts.values().sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn idle_noise_applied_at_barriers() {
        let mut c = Circuit::uniform(1, 3);
        c.push(Gate::shift_x(3), &[0]).unwrap();
        c.barrier();
        let sim = DensityMatrixSimulator::new().with_noise(NoiseModel::cavity(0.0, 0.0, 0.5));
        let rho = sim.run(&c).unwrap();
        // Half of the single excitation decays at the barrier.
        assert!((rho.probabilities()[0] - 0.5).abs() < 1e-9);
        assert!((rho.probabilities()[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn register_mismatch_rejected() {
        let c = Circuit::uniform(2, 3);
        let rho = DensityMatrix::zero(vec![3]).unwrap();
        let sim = DensityMatrixSimulator::new();
        assert!(sim.run_compiled(&sim.compile(&c).unwrap(), Some(&rho)).is_err());
    }
}
