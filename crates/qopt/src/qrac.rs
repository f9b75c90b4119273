//! Qudit quantum random access codes (QRACs) for large coloring instances.
//!
//! To optimise over more variables than there are cavity modes, several graph
//! nodes are packed into one qudit: node slot `j` of a qudit is read out in
//! the `j`-th mutually unbiased basis (computational basis, Fourier basis,
//! ...). A product state over the qudits is optimised classically against the
//! relaxed objective (the probability that each edge is properly coloured
//! given the per-slot marginals), then rounded to a concrete coloring — the
//! qudit generalisation of the qubit quantum-relaxation pipeline the paper
//! cites, which it notes has not yet been extended to qudits.

use qudit_circuit::gates;
use qudit_core::complex::{c64, Complex64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::{QoptError, Result};
use crate::graph::ColoringProblem;

/// Configuration of the QRAC relaxation solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QracConfig {
    /// Nodes packed per qudit (1 or 2 slots are supported; slot 0 reads the
    /// computational basis, slot 1 the Fourier basis).
    pub nodes_per_qudit: usize,
    /// Coordinate-ascent sweeps over the state parameters.
    pub optimizer_sweeps: usize,
    /// Random restarts for the rounding step.
    pub rounding_samples: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for QracConfig {
    fn default() -> Self {
        Self { nodes_per_qudit: 2, optimizer_sweeps: 30, rounding_samples: 32, seed: 7 }
    }
}

/// Result of the QRAC relaxation-and-rounding pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QracResult {
    /// Rounded coloring.
    pub assignment: Vec<usize>,
    /// Properly coloured edges of the rounded coloring.
    pub value: usize,
    /// Number of qudits used.
    pub qudits_used: usize,
    /// Relaxed objective value reached before rounding.
    pub relaxed_value: f64,
}

/// The QRAC solver.
#[derive(Debug, Clone)]
pub struct QracSolver {
    problem: ColoringProblem,
    config: QracConfig,
    /// `node_slot[v] = (qudit, slot)`.
    node_slot: Vec<(usize, usize)>,
    num_qudits: usize,
}

impl QracSolver {
    /// Creates a solver, packing nodes into qudits in index order.
    ///
    /// # Errors
    /// Returns an error for unsupported packing factors.
    pub fn new(problem: ColoringProblem, config: QracConfig) -> Result<Self> {
        if config.nodes_per_qudit == 0 || config.nodes_per_qudit > 2 {
            return Err(QoptError::InvalidConfig(
                "nodes_per_qudit must be 1 or 2 (computational + Fourier readout)".into(),
            ));
        }
        let n = problem.graph.num_nodes();
        let m = config.nodes_per_qudit;
        let node_slot: Vec<(usize, usize)> = (0..n).map(|v| (v / m, v % m)).collect();
        let num_qudits = n.div_ceil(m);
        Ok(Self { problem, config, node_slot, num_qudits })
    }

    /// Number of qudits the encoding uses.
    pub fn qudits_used(&self) -> usize {
        self.num_qudits
    }

    /// Runs the relaxation and rounding pipeline.
    ///
    /// # Errors
    /// Returns an error if the marginals cannot be computed.
    pub fn solve(&self) -> Result<QracResult> {
        let d = self.problem.colors;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        // State parameters: (re, im) amplitudes per level per qudit.
        let mut params: Vec<Vec<(f64, f64)>> = (0..self.num_qudits)
            .map(|_| (0..d).map(|_| (rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)).collect())
            .collect();

        let mut best_relaxed = self.relaxed_objective(&params)?;
        let step0 = 0.4;
        for sweep in 0..self.config.optimizer_sweeps {
            let step = step0 * (1.0 - sweep as f64 / self.config.optimizer_sweeps as f64) + 0.02;
            for q in 0..self.num_qudits {
                for level in 0..d {
                    for component in 0..2 {
                        for delta in [step, -step] {
                            let mut trial = params.clone();
                            if component == 0 {
                                trial[q][level].0 += delta;
                            } else {
                                trial[q][level].1 += delta;
                            }
                            let value = self.relaxed_objective(&trial)?;
                            if value > best_relaxed {
                                best_relaxed = value;
                                params = trial;
                            }
                        }
                    }
                }
            }
        }

        // Rounding: argmax of each node's marginal, plus sampled roundings.
        let marginals = self.marginals(&params)?;
        let mut best_assignment: Vec<usize> = marginals
            .iter()
            .map(|probs| {
                probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(c, _)| c)
                    .unwrap_or(0)
            })
            .collect();
        let mut best_value = self.problem.properly_colored(&best_assignment);
        for _ in 0..self.config.rounding_samples {
            let candidate: Vec<usize> =
                marginals.iter().map(|probs| sample_from(probs, &mut rng)).collect();
            let value = self.problem.properly_colored(&candidate);
            if value > best_value {
                best_value = value;
                best_assignment = candidate;
            }
        }
        Ok(QracResult {
            assignment: best_assignment,
            value: best_value,
            qudits_used: self.num_qudits,
            relaxed_value: best_relaxed,
        })
    }

    /// Per-node colour marginals induced by the product state.
    fn marginals(&self, params: &[Vec<(f64, f64)>]) -> Result<Vec<Vec<f64>>> {
        let d = self.problem.colors;
        let fourier = gates::fourier(d);
        let states: Vec<Vec<Complex64>> = params.iter().map(|p| normalise(p)).collect();
        let mut out = Vec::with_capacity(self.node_slot.len());
        for &(qudit, slot) in &self.node_slot {
            let state = &states[qudit];
            let probs: Vec<f64> = match slot {
                0 => state.iter().map(|a| a.norm_sqr()).collect(),
                _ => {
                    // Fourier-basis readout: probabilities of F†|ψ⟩.
                    let rotated = fourier.dagger().matvec(state).map_err(QoptError::Core)?;
                    rotated.iter().map(|a| a.norm_sqr()).collect()
                }
            };
            out.push(probs);
        }
        Ok(out)
    }

    /// Relaxed objective: expected number of properly coloured edges under
    /// independent per-node marginals.
    fn relaxed_objective(&self, params: &[Vec<(f64, f64)>]) -> Result<f64> {
        let marginals = self.marginals(params)?;
        let mut total = 0.0;
        for &(a, b) in self.problem.graph.edges() {
            let pa = &marginals[a];
            let pb = &marginals[b];
            let same: f64 = pa.iter().zip(pb.iter()).map(|(x, y)| x * y).sum();
            total += 1.0 - same;
        }
        Ok(total)
    }
}

fn normalise(params: &[(f64, f64)]) -> Vec<Complex64> {
    let raw: Vec<Complex64> = params.iter().map(|&(re, im)| c64(re, im)).collect();
    let norm: f64 = raw.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    if norm < 1e-12 {
        let d = params.len();
        return (0..d).map(|k| if k == 0 { Complex64::ONE } else { Complex64::ZERO }).collect();
    }
    raw.into_iter().map(|z| z / norm).collect()
}

fn sample_from<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    let total: f64 = probs.iter().sum();
    let mut r = rng.gen::<f64>() * total;
    for (i, &p) in probs.iter().enumerate() {
        if r < p {
            return i;
        }
        r -= p;
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::random_assignment;
    use crate::graph::Graph;
    use qudit_core::matrix::CMatrix;

    #[test]
    fn packing_halves_the_qudit_count() {
        let (g, _) = Graph::planted_colorable(10, 3, 0.5, 1).unwrap();
        let problem = ColoringProblem::new(g, 3).unwrap();
        let solver = QracSolver::new(problem.clone(), QracConfig::default()).unwrap();
        assert_eq!(solver.qudits_used(), 5);
        let single =
            QracSolver::new(problem, QracConfig { nodes_per_qudit: 1, ..Default::default() })
                .unwrap();
        assert_eq!(single.qudits_used(), 10);
        assert!(QracSolver::new(
            ColoringProblem::new(Graph::cycle(4).unwrap(), 3).unwrap(),
            QracConfig { nodes_per_qudit: 3, ..Default::default() }
        )
        .is_err());
    }

    #[test]
    fn qrac_beats_random_assignment_on_planted_instances() {
        let (g, _) = Graph::planted_colorable(12, 3, 0.5, 21).unwrap();
        let problem = ColoringProblem::new(g, 3).unwrap();
        let solver = QracSolver::new(
            problem.clone(),
            QracConfig { optimizer_sweeps: 15, ..Default::default() },
        )
        .unwrap();
        let result = solver.solve().unwrap();
        let random_value = problem.properly_colored(&random_assignment(&problem, 3));
        assert!(
            result.value >= random_value,
            "QRAC {} should be at least random {}",
            result.value,
            random_value
        );
        assert_eq!(result.assignment.len(), 12);
        assert!(result.assignment.iter().all(|&c| c < 3));
        assert!(result.relaxed_value <= problem.graph.num_edges() as f64 + 1e-9);
    }

    #[test]
    fn relaxed_objective_is_bounded_by_edge_count() {
        let problem = ColoringProblem::new(Graph::complete(4).unwrap(), 3).unwrap();
        let solver = QracSolver::new(problem.clone(), QracConfig::default()).unwrap();
        let result = solver.solve().unwrap();
        assert!(result.relaxed_value <= problem.graph.num_edges() as f64 + 1e-9);
        assert!(result.relaxed_value >= 0.0);
    }

    #[test]
    fn slot_bases_are_mutually_unbiased() {
        // Slot 0 reads the computational basis, slot 1 the Fourier basis.
        let d = 3;
        let b0 = CMatrix::identity(d);
        let b1 = gates::fourier(d);
        let overlap = b0.dagger().matmul(&b1).unwrap();
        for i in 0..d {
            for j in 0..d {
                assert!((overlap[(i, j)].abs() - 1.0 / (d as f64).sqrt()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (g, _) = Graph::planted_colorable(8, 3, 0.6, 2).unwrap();
        let problem = ColoringProblem::new(g, 3).unwrap();
        let cfg = QracConfig { optimizer_sweeps: 8, ..Default::default() };
        let a = QracSolver::new(problem.clone(), cfg).unwrap().solve().unwrap();
        let b = QracSolver::new(problem, cfg).unwrap().solve().unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.value, b.value);
    }
}
