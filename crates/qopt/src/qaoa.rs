//! Qudit one-hot QAOA for graph coloring.
//!
//! Each graph node is one qudit whose dimension equals the number of colours,
//! so the one-hot constraint "exactly one colour per node" is enforced by the
//! hardware itself — the mechanism the paper highlights as the natural
//! advantage of qudit processors for constrained optimisation. The phase
//! separator applies a phase to every monochromatic edge; the mixer is a
//! single-qudit rotation that moves population between colours.

use qudit_circuit::gates;
use qudit_circuit::noise::NoiseModel;
use qudit_circuit::sim::{CompiledCircuit, StatevectorSimulator, TrajectorySimulator};
use qudit_circuit::{Circuit, Gate, Param};
use qudit_core::matrix::CMatrix;
use qudit_core::radix::Radix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::{QoptError, Result};
use crate::graph::ColoringProblem;
use crate::optimizer::{coordinate_ascent, grid_points};

/// Mixer variant for the colour degree of freedom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MixerKind {
    /// Nearest-level hopping `Σ |k⟩⟨k+1| + h.c.` (hardware-cheapest).
    Ring,
    /// All-to-all colour mixing `Σ_{j<k} |j⟩⟨k| + h.c.`.
    Full,
}

/// QAOA hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QaoaConfig {
    /// Number of alternating layers `p`.
    pub layers: usize,
    /// Mixer variant.
    pub mixer: MixerKind,
    /// Trajectories used for noisy expectation estimates.
    pub trajectories: usize,
    /// Classical-optimiser rounds.
    pub optimizer_rounds: usize,
    /// Random seed (sampling and trajectories).
    pub seed: u64,
}

impl Default for QaoaConfig {
    fn default() -> Self {
        Self { layers: 1, mixer: MixerKind::Ring, trajectories: 40, optimizer_rounds: 40, seed: 11 }
    }
}

/// Outcome of a QAOA optimisation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QaoaOutcome {
    /// Optimised phase-separator angles γ (one per layer).
    pub gammas: Vec<f64>,
    /// Optimised mixer angles β (one per layer).
    pub betas: Vec<f64>,
    /// Expected number of properly coloured edges at the optimum.
    pub expected_value: f64,
    /// Best sampled assignment (logical colours per node).
    pub best_assignment: Vec<usize>,
    /// Properly coloured edges of the best sampled assignment.
    pub best_value: usize,
}

/// The simulation back-end of a compiled [`QaoaEvaluator`].
#[derive(Debug, Clone)]
enum QaoaBackend {
    /// Noiseless: exact statevector probabilities.
    Statevector { sim: StatevectorSimulator, plan: CompiledCircuit },
    /// Noisy: trajectory-averaged outcome distribution.
    Trajectory { sim: TrajectorySimulator, plan: CompiledCircuit },
}

/// A compiled, rebindable QAOA evaluator: the parameterized ansatz's fused
/// execution plan plus the simulator it was compiled against. Each
/// [`QuditQaoa::expected_value_bound`] call rebinds the plan in place
/// (`CompiledCircuit::bind`) — no circuit rebuild, no re-fusion, no
/// stride-plan reconstruction per optimizer step.
#[derive(Debug, Clone)]
pub struct QaoaEvaluator {
    layers: usize,
    backend: QaoaBackend,
}

impl QaoaEvaluator {
    /// Number of QAOA layers the underlying ansatz was built with.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Per-qudit dimensions of the compiled ansatz register.
    fn dims(&self) -> &[usize] {
        match &self.backend {
            QaoaBackend::Statevector { plan, .. } | QaoaBackend::Trajectory { plan, .. } => {
                plan.dims()
            }
        }
    }

    /// The outcome distribution at a parameter binding (rebinds in place).
    fn distribution(&mut self, params: &[f64]) -> Result<Vec<f64>> {
        match &mut self.backend {
            QaoaBackend::Statevector { sim, plan } => {
                Ok(sim.run_bound(plan, params).map_err(QoptError::Circuit)?.state.probabilities())
            }
            QaoaBackend::Trajectory { sim, plan } => {
                sim.outcome_distribution_bound(plan, params).map_err(QoptError::Circuit)
            }
        }
    }

    /// Outcome distributions for a whole **population** of parameter bindings.
    ///
    /// Statevector backend: the population is realised with
    /// `CompiledCircuit::bind_batch`, which materialises each distinct
    /// parameter value of a step once however many members share it, and
    /// `run_ensemble` runs the members' columns across the worker threads.
    /// Trajectory backend: each member rebinds the plan and runs its
    /// trajectories through `outcome_distribution_bound`. Both produce
    /// results bitwise identical to calling [`QaoaEvaluator::distribution`]
    /// per member.
    fn distributions(&mut self, population: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        match &mut self.backend {
            QaoaBackend::Statevector { sim, plan } => {
                let batch = plan.bind_batch(population).map_err(QoptError::Circuit)?;
                let outputs = sim.run_ensemble(plan, &batch).map_err(QoptError::Circuit)?;
                outputs
                    .into_iter()
                    .map(|col| Ok(col.map_err(QoptError::Circuit)?.state.probabilities()))
                    .collect()
            }
            QaoaBackend::Trajectory { sim, plan } => population
                .iter()
                .map(|params| {
                    sim.outcome_distribution_bound(plan, params).map_err(QoptError::Circuit)
                })
                .collect(),
        }
    }
}

/// A qudit one-hot QAOA instance, optionally with a per-node colour
/// relabelling ("gauge") used by the NDAR loop.
#[derive(Debug, Clone)]
pub struct QuditQaoa {
    problem: ColoringProblem,
    config: QaoaConfig,
    /// `gauge[v][physical_level] = logical colour`; identity by default.
    gauge: Vec<Vec<usize>>,
}

impl QuditQaoa {
    /// Creates a QAOA instance with the identity gauge.
    pub fn new(problem: ColoringProblem, config: QaoaConfig) -> Self {
        let d = problem.colors;
        let gauge = vec![(0..d).collect::<Vec<usize>>(); problem.graph.num_nodes()];
        Self { problem, config, gauge }
    }

    /// The coloring problem.
    pub fn problem(&self) -> &ColoringProblem {
        &self.problem
    }

    /// Sets the per-node colour relabelling (used by NDAR). `gauge[v][l]` is
    /// the logical colour represented by physical level `l` of node `v`.
    ///
    /// # Errors
    /// Returns an error if any entry is not a permutation of the colours.
    pub fn set_gauge(&mut self, gauge: Vec<Vec<usize>>) -> Result<()> {
        let d = self.problem.colors;
        if gauge.len() != self.problem.graph.num_nodes() {
            return Err(QoptError::InvalidConfig("gauge must cover every node".into()));
        }
        for perm in &gauge {
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            if sorted != (0..d).collect::<Vec<usize>>() {
                return Err(QoptError::InvalidConfig(format!(
                    "gauge entry {perm:?} is not a permutation of 0..{d}"
                )));
            }
        }
        self.gauge = gauge;
        Ok(())
    }

    /// The current gauge.
    pub fn gauge(&self) -> &[Vec<usize>] {
        &self.gauge
    }

    /// Decodes a physical measurement (levels per node) into logical colours
    /// through the gauge.
    pub fn decode(&self, physical: &[usize]) -> Vec<usize> {
        physical.iter().enumerate().map(|(v, &l)| self.gauge[v][l]).collect()
    }

    /// Builds the **parameterized ansatz** once: γ of layer `l` is free
    /// parameter `l`, β of layer `l` is free parameter `layers + l` (the
    /// packing [`QuditQaoa::pack_angles`] produces). The structure — targets,
    /// fusion decisions, stride plans — is angle-independent, so a compiled
    /// plan is rebound per optimizer step instead of rebuilt.
    ///
    /// # Errors
    /// Returns an error if a gate fails to validate.
    pub fn ansatz(&self) -> Result<Circuit> {
        let p = self.config.layers;
        let d = self.problem.colors;
        let n = self.problem.graph.num_nodes();
        let mut circuit = Circuit::uniform(n, d);
        // Uniform superposition over colours on every node.
        for v in 0..n {
            circuit.push(Gate::fourier(d), &[v]).map_err(QoptError::Circuit)?;
        }
        let mixer_h = match self.config.mixer {
            MixerKind::Ring => gates::x_mixer_generator(d),
            MixerKind::Full => gates::full_mixer_generator(d),
        };
        for layer in 0..p {
            // Phase separation: a phase on every monochromatic edge (in the
            // gauge-transformed logical colours).
            for &(a, b) in self.problem.graph.edges() {
                let gate = self.edge_phase_gate(a, b, Param::Free(layer));
                circuit.push(gate, &[a, b]).map_err(QoptError::Circuit)?;
            }
            // Mixing on every node.
            let mixer = Gate::parameterized(
                format!("Mix[{layer}]"),
                vec![d],
                &mixer_h,
                Param::Free(p + layer),
            )
            .map_err(QoptError::Circuit)?;
            for v in 0..n {
                circuit.push(mixer.clone(), &[v]).map_err(QoptError::Circuit)?;
            }
            circuit.barrier();
        }
        Ok(circuit)
    }

    /// Packs per-layer angle schedules into the ansatz's parameter vector.
    ///
    /// # Errors
    /// Returns an error if the angle lists do not match the layer count.
    pub fn pack_angles(&self, gammas: &[f64], betas: &[f64]) -> Result<Vec<f64>> {
        if gammas.len() != self.config.layers || betas.len() != self.config.layers {
            return Err(QoptError::InvalidConfig(format!(
                "expected {} angles per schedule, got {} gammas / {} betas",
                self.config.layers,
                gammas.len(),
                betas.len()
            )));
        }
        Ok(gammas.iter().chain(betas.iter()).copied().collect())
    }

    /// Builds the QAOA circuit for concrete angles: the parameterized ansatz
    /// bound at `(γ, β)`.
    ///
    /// # Errors
    /// Returns an error if the angle lists do not match the layer count.
    pub fn circuit(&self, gammas: &[f64], betas: &[f64]) -> Result<Circuit> {
        let params = self.pack_angles(gammas, betas)?;
        self.ansatz()?.with_bound(&params).map_err(QoptError::Circuit)
    }

    /// The two-qudit phase-separation gate for one edge, `exp(−iγ P)` with
    /// `P` the projector onto pairs of physical levels that decode to the
    /// same logical colour; `γ` may be symbolic.
    fn edge_phase_gate(&self, a: usize, b: usize, gamma: Param) -> Gate {
        let d = self.problem.colors;
        let weights: Vec<f64> = (0..d * d)
            .map(|idx| {
                let la = idx / d;
                let lb = idx % d;
                if self.gauge[a][la] == self.gauge[b][lb] {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        Gate::parameterized(
            format!("CPhase({a},{b})"),
            vec![d, d],
            &CMatrix::diag_real(&weights),
            gamma,
        )
        .expect("diagonal projector generator is Hermitian")
    }

    /// Compiles the parameterized ansatz into a rebindable evaluator for the
    /// given noise model: one fused execution plan, rebound per angle set
    /// (noiseless: statevector; noisy: trajectory averaging). This is the
    /// plan-reuse path [`QuditQaoa::optimize`] drives — circuit construction,
    /// generator eigendecompositions, gate fusion and stride-plan building
    /// all happen exactly once per optimisation run.
    ///
    /// # Errors
    /// Returns an error if compilation fails.
    pub fn evaluator(&self, noise: &NoiseModel) -> Result<QaoaEvaluator> {
        let ansatz = self.ansatz()?;
        let backend = if noise.is_noiseless() {
            let sim = StatevectorSimulator::with_seed(self.config.seed);
            let plan = sim.compile(&ansatz).map_err(QoptError::Circuit)?;
            QaoaBackend::Statevector { sim, plan }
        } else {
            let sim = TrajectorySimulator::new(self.config.trajectories)
                .with_seed(self.config.seed)
                .with_noise(noise.clone());
            let plan = sim.compile(&ansatz).map_err(QoptError::Circuit)?;
            QaoaBackend::Trajectory { sim, plan }
        };
        Ok(QaoaEvaluator { layers: self.config.layers, backend })
    }

    /// Expected number of properly coloured edges at the rebound angles,
    /// through a compiled evaluator (see [`QuditQaoa::evaluator`]).
    ///
    /// # Errors
    /// Returns an error if the angle lists do not match the layer count or
    /// simulation fails.
    pub fn expected_value_bound(
        &self,
        eval: &mut QaoaEvaluator,
        gammas: &[f64],
        betas: &[f64],
    ) -> Result<f64> {
        let params = self.pack_angles(gammas, betas)?;
        let distribution = eval.distribution(&params)?;
        Ok(self.distribution_value(eval.dims(), &distribution))
    }

    /// Expected objective for a whole population of `(γ, β)` schedules in
    /// one batched evaluation (see [`QaoaEvaluator`]'s ensemble path). The
    /// returned values are bitwise identical to calling
    /// [`QuditQaoa::expected_value_bound`] on each schedule in order.
    ///
    /// # Errors
    /// Returns an error if an angle list does not match the layer count or
    /// simulation fails.
    pub fn expected_values_population(
        &self,
        eval: &mut QaoaEvaluator,
        schedules: &[(Vec<f64>, Vec<f64>)],
    ) -> Result<Vec<f64>> {
        let population: Vec<Vec<f64>> =
            schedules.iter().map(|(g, b)| self.pack_angles(g, b)).collect::<Result<_>>()?;
        let distributions = eval.distributions(&population)?;
        Ok(distributions.iter().map(|d| self.distribution_value(eval.dims(), d)).collect())
    }

    /// Expected number of properly coloured edges of the circuit output.
    ///
    /// Noiseless: exact from the state vector. Noisy: averaged over quantum
    /// trajectories. One-shot convenience over [`QuditQaoa::evaluator`] /
    /// [`QuditQaoa::expected_value_bound`].
    ///
    /// # Errors
    /// Returns an error if simulation fails.
    pub fn expected_value(&self, gammas: &[f64], betas: &[f64], noise: &NoiseModel) -> Result<f64> {
        let mut eval = self.evaluator(noise)?;
        self.expected_value_bound(&mut eval, gammas, betas)
    }

    fn distribution_value(&self, dims: &[usize], distribution: &[f64]) -> f64 {
        let radix = Radix::new(dims.to_vec()).expect("valid dims");
        distribution
            .iter()
            .enumerate()
            .map(|(idx, &p)| {
                if p == 0.0 {
                    return 0.0;
                }
                let physical = radix.digits_of(idx).expect("index in range");
                let logical = self.decode(&physical);
                p * self.problem.properly_colored(&logical) as f64
            })
            .sum()
    }

    /// Optimises the angles (grid initialisation for p = 1, coordinate ascent
    /// refinement) and samples candidate solutions at the optimum.
    ///
    /// # Errors
    /// Returns an error if simulation fails.
    pub fn optimize(&self, noise: &NoiseModel) -> Result<QaoaOutcome> {
        let p = self.config.layers;
        // One compiled plan for the whole optimisation: every objective
        // evaluation below rebinds it in place instead of rebuilding and
        // recompiling the circuit.
        let mut eval = self.evaluator(noise)?;
        // Initial angles. For p = 1 the whole 5×5 grid is evaluated as a
        // single population (one ensemble pass on the statevector backend)
        // and the argmax taken in `grid_search`'s exact iteration order, so
        // the chosen point matches the serial grid search bitwise.
        let initial: Vec<f64> = if p == 1 {
            let grid = grid_points(2, 0.1, 1.2, 5);
            let schedules: Vec<(Vec<f64>, Vec<f64>)> =
                grid.iter().map(|x| (vec![x[0]], vec![x[1]])).collect();
            let values = self.expected_values_population(&mut eval, &schedules)?;
            let mut best = grid[0].clone();
            let mut best_val = f64::NEG_INFINITY;
            for (x, &value) in grid.iter().zip(values.iter()) {
                if value > best_val {
                    best_val = value;
                    best = x.clone();
                }
            }
            best
        } else {
            (0..2 * p).map(|i| 0.3 + 0.1 * i as f64).collect()
        };
        let (angles, expected) = coordinate_ascent(
            &initial,
            |x| {
                let (g, b) = x.split_at(p);
                self.expected_value_bound(&mut eval, g, b).unwrap_or(0.0)
            },
            self.config.optimizer_rounds,
            0.25,
        );
        let (gammas, betas) = angles.split_at(p);
        let samples = self.sample_assignments(gammas, betas, noise, 64)?;
        let (best_assignment, best_value) = samples
            .into_iter()
            .max_by_key(|(_, v)| *v)
            .unwrap_or((vec![0; self.problem.graph.num_nodes()], 0));
        Ok(QaoaOutcome {
            gammas: gammas.to_vec(),
            betas: betas.to_vec(),
            expected_value: expected,
            best_assignment,
            best_value,
        })
    }

    /// Samples `shots` assignments (decoded to logical colours) with their
    /// objective values.
    ///
    /// # Errors
    /// Returns an error if simulation fails.
    pub fn sample_assignments(
        &self,
        gammas: &[f64],
        betas: &[f64],
        noise: &NoiseModel,
        shots: usize,
    ) -> Result<Vec<(Vec<usize>, usize)>> {
        let circuit = self.circuit(gammas, betas)?;
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(77));
        let mut out = Vec::with_capacity(shots);
        if noise.is_noiseless() {
            let state = StatevectorSimulator::with_seed(self.config.seed)
                .run(&circuit)
                .map_err(QoptError::Circuit)?;
            for _ in 0..shots {
                let physical = state.sample(&mut rng);
                let logical = self.decode(&physical);
                let value = self.problem.properly_colored(&logical);
                out.push((logical, value));
            }
        } else {
            let sim = TrajectorySimulator::new(shots)
                .with_seed(self.config.seed)
                .with_noise(noise.clone());
            for t in 0..shots {
                let state = sim.run_single(&circuit, t).map_err(QoptError::Circuit)?;
                let physical = state.sample(&mut rng);
                let logical = self.decode(&physical);
                let value = self.problem.properly_colored(&logical);
                out.push((logical, value));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn triangle_problem() -> ColoringProblem {
        ColoringProblem::new(Graph::complete(3).unwrap(), 3).unwrap()
    }

    #[test]
    fn circuit_structure_counts() {
        let qaoa =
            QuditQaoa::new(triangle_problem(), QaoaConfig { layers: 2, ..Default::default() });
        let c = qaoa.circuit(&[0.3, 0.2], &[0.4, 0.1]).unwrap();
        // 3 Fourier + per layer (3 edges + 3 mixers) × 2 layers.
        assert_eq!(c.gate_count(), 3 + 2 * 6);
        assert_eq!(c.multi_qudit_gate_count(), 6);
        assert!(qaoa.circuit(&[0.3], &[0.4, 0.1]).is_err());
    }

    #[test]
    fn uniform_superposition_gives_expected_random_value() {
        // At γ = β = 0 the state is the uniform distribution over colourings;
        // each edge is properly coloured with probability (d-1)/d = 2/3.
        let qaoa = QuditQaoa::new(triangle_problem(), QaoaConfig::default());
        let value = qaoa.expected_value(&[0.0], &[0.0], &NoiseModel::noiseless()).unwrap();
        assert!((value - 3.0 * 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn optimised_qaoa_beats_random_guessing() {
        let qaoa = QuditQaoa::new(
            triangle_problem(),
            QaoaConfig { layers: 1, optimizer_rounds: 25, ..Default::default() },
        );
        let outcome = qaoa.optimize(&NoiseModel::noiseless()).unwrap();
        assert!(outcome.expected_value > 2.0, "expected value {}", outcome.expected_value);
        // The triangle is 3-colorable, so the best sample should colour all 3 edges.
        assert_eq!(outcome.best_value, 3);
        assert!(qaoa.problem().is_proper(&outcome.best_assignment));
    }

    #[test]
    fn gauge_relabelling_preserves_objective_statistics() {
        let problem = triangle_problem();
        let mut qaoa = QuditQaoa::new(problem, QaoaConfig::default());
        let base = qaoa.expected_value(&[0.5], &[0.3], &NoiseModel::noiseless()).unwrap();
        // A global colour relabelling leaves the expected objective unchanged.
        qaoa.set_gauge(vec![vec![1, 2, 0]; 3]).unwrap();
        let relabelled = qaoa.expected_value(&[0.5], &[0.3], &NoiseModel::noiseless()).unwrap();
        assert!((base - relabelled).abs() < 1e-9);
        // Invalid gauges rejected.
        assert!(qaoa.set_gauge(vec![vec![0, 0, 1]; 3]).is_err());
        assert!(qaoa.set_gauge(vec![vec![0, 1, 2]; 2]).is_err());
    }

    #[test]
    fn decode_applies_permutation() {
        let mut qaoa = QuditQaoa::new(triangle_problem(), QaoaConfig::default());
        qaoa.set_gauge(vec![vec![2, 0, 1], vec![0, 1, 2], vec![1, 2, 0]]).unwrap();
        assert_eq!(qaoa.decode(&[0, 1, 2]), vec![2, 1, 0]);
    }

    #[test]
    fn rebound_evaluator_matches_rebuilt_circuits() {
        let qaoa =
            QuditQaoa::new(triangle_problem(), QaoaConfig { layers: 2, ..Default::default() });
        let ansatz = qaoa.ansatz().unwrap();
        assert_eq!(ansatz.num_params(), 4, "2 gammas + 2 betas");
        let mut eval = qaoa.evaluator(&NoiseModel::noiseless()).unwrap();
        for (g, b) in [([0.3, 0.1], [0.5, 0.2]), ([0.9, 0.4], [0.2, 0.7])] {
            let swept = qaoa.expected_value_bound(&mut eval, &g, &b).unwrap();
            // Reference: build + simulate the bound circuit from scratch.
            let circuit = qaoa.circuit(&g, &b).unwrap();
            let probs = StatevectorSimulator::with_seed(qaoa.config.seed)
                .run(&circuit)
                .unwrap()
                .probabilities();
            let rebuilt = qaoa.distribution_value(circuit.dims(), &probs);
            assert!((swept - rebuilt).abs() < 1e-12, "{swept} vs {rebuilt}");
        }
        // The noisy (trajectory) backend rebinds identically too.
        let noise = NoiseModel::depolarizing(0.02, 0.02);
        let mut noisy_eval = qaoa.evaluator(&noise).unwrap();
        let swept = qaoa.expected_value_bound(&mut noisy_eval, &[0.4, 0.2], &[0.3, 0.1]).unwrap();
        let rebuilt = qaoa.expected_value(&[0.4, 0.2], &[0.3, 0.1], &noise).unwrap();
        assert!((swept - rebuilt).abs() < 1e-12, "{swept} vs {rebuilt}");
    }

    #[test]
    fn population_evaluation_is_bitwise_identical_to_serial() {
        let qaoa =
            QuditQaoa::new(triangle_problem(), QaoaConfig { layers: 1, ..Default::default() });
        let schedules: Vec<(Vec<f64>, Vec<f64>)> =
            grid_points(2, 0.1, 1.2, 5).into_iter().map(|x| (vec![x[0]], vec![x[1]])).collect();
        // Noiseless backend: one ensemble pass over the whole grid.
        let mut eval = qaoa.evaluator(&NoiseModel::noiseless()).unwrap();
        let batched = qaoa.expected_values_population(&mut eval, &schedules).unwrap();
        let mut serial_eval = qaoa.evaluator(&NoiseModel::noiseless()).unwrap();
        for ((g, b), &value) in schedules.iter().zip(batched.iter()) {
            let reference = qaoa.expected_value_bound(&mut serial_eval, g, b).unwrap();
            assert_eq!(value.to_bits(), reference.to_bits(), "{value} vs {reference}");
        }
        // The population argmax (in enumeration order) reproduces the serial
        // grid search's chosen point exactly.
        let (serial_best, _) = crate::optimizer::grid_search(2, 0.1, 1.2, 5, |x| {
            qaoa.expected_value_bound(&mut serial_eval, &[x[0]], &[x[1]]).unwrap_or(0.0)
        });
        let best_idx = batched
            .iter()
            .enumerate()
            .fold((0, f64::NEG_INFINITY), |acc, (i, &v)| if v > acc.1 { (i, v) } else { acc })
            .0;
        let (bg, bb) = &schedules[best_idx];
        assert_eq!(serial_best, vec![bg[0], bb[0]]);
        // Noisy (trajectory) backend: each member runs the trajectory
        // executor through `outcome_distribution_bound`, bitwise like the
        // one-member evaluator.
        let noise = NoiseModel::depolarizing(0.03, 0.03);
        let mut noisy_eval = qaoa.evaluator(&noise).unwrap();
        let pair = [schedules[3].clone(), schedules[17].clone()];
        let noisy_batched = qaoa.expected_values_population(&mut noisy_eval, &pair).unwrap();
        let mut noisy_serial = qaoa.evaluator(&noise).unwrap();
        for ((g, b), &value) in pair.iter().zip(noisy_batched.iter()) {
            let reference = qaoa.expected_value_bound(&mut noisy_serial, g, b).unwrap();
            assert_eq!(value.to_bits(), reference.to_bits(), "{value} vs {reference}");
        }
    }

    #[test]
    fn noise_degrades_expected_value() {
        let qaoa = QuditQaoa::new(
            triangle_problem(),
            QaoaConfig { layers: 1, trajectories: 60, ..Default::default() },
        );
        let clean = qaoa.expected_value(&[0.6], &[0.4], &NoiseModel::noiseless()).unwrap();
        let noisy =
            qaoa.expected_value(&[0.6], &[0.4], &NoiseModel::depolarizing(0.05, 0.1)).unwrap();
        // Depolarising noise pushes the distribution towards uniform (value 2.0),
        // so a better-than-random clean value must degrade.
        if clean > 2.1 {
            assert!(noisy < clean + 0.05);
        }
    }

    #[test]
    fn sampling_returns_valid_colorings() {
        let qaoa = QuditQaoa::new(triangle_problem(), QaoaConfig::default());
        let samples =
            qaoa.sample_assignments(&[0.4], &[0.3], &NoiseModel::noiseless(), 20).unwrap();
        assert_eq!(samples.len(), 20);
        for (assignment, value) in samples {
            assert_eq!(assignment.len(), 3);
            assert!(assignment.iter().all(|&c| c < 3));
            assert_eq!(value, qaoa.problem().properly_colored(&assignment));
        }
    }
}
