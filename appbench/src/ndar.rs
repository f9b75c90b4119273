//! `ndar_coloring`: adaptive NDAR-QAOA graph coloring under strong photon
//! loss (`qopt::ndar::run_ndar`).
//!
//! The trajectory executors do nearly all the work: the batched fold runs
//! the 5×5 angle grid, the serial fold runs coordinate ascent, and
//! `sample_assignments` recompiles the bound circuit on every shot.

use qopt::graph::ColoringProblem;
use qopt::ndar::{gauge_for_incumbent, run_ndar, NdarConfig, NdarResult};
use qopt::optimizer::{coordinate_ascent, grid_points};
use qopt::qaoa::{QaoaConfig, QaoaOutcome, QuditQaoa};
use qudit_circuit::noise::NoiseModel;

use crate::harness::SolveWorkload;
use crate::plans::PlanCounts;
use crate::report::Metric;
use crate::trace::Tracer;
use crate::{sub_seed, Res, Scale, WARM_UP_SEED};

/// Shots `QuditQaoa::optimize` samples at its optimum.
const OPTIMIZE_SHOTS: usize = 64;
/// Seed of the coloring instance (a 6-node graph with 9 edges, optimum 9).
/// The instance is fixed and `--seed` draws the solver's randomness, so the
/// seed changes the solver's path but not the problem's size. When seeds
/// 401–410 drew the graph too, solve times ranged from 0.6 to 1.0 of the
/// slowest seed's.
const GRAPH_SEED: u64 = 11;
/// Edges the best colouring may fall short of the brute-force optimum.
/// Seeds 1–40 all reached the optimum at the full size; at the tiny size 14
/// of them fell one edge short. A uniformly random colouring is expected to
/// fall a third of the edges short.
const MAX_SHORTFALL: usize = 1;

/// Generated inputs of one `ndar_coloring` run.
#[derive(Debug, Clone)]
pub struct Ndar {
    problem: ColoringProblem,
    config: NdarConfig,
    noise: NoiseModel,
}

impl Ndar {
    fn build(seed: u64, scale: Scale) -> Self {
        let (nodes, trajectories, optimizer_rounds, rounds, shots) = match scale {
            Scale::Full => (6, 20, 8, 3, 12),
            Scale::Tiny => (6, 4, 1, 1, 4),
        };
        let problem = bench::table1_coloring_problem(nodes, GRAPH_SEED);
        let qaoa = QaoaConfig {
            layers: 1,
            trajectories,
            optimizer_rounds,
            seed: sub_seed(seed, 1),
            ..QaoaConfig::default()
        };
        let config = NdarConfig { rounds, qaoa, shots_per_round: shots };
        Self { problem, config, noise: NoiseModel::cavity(0.15, 0.3, 0.0) }
    }

    /// Brute-force optimum: the most properly coloured edges of any
    /// assignment.
    pub fn optimum(&self) -> usize {
        let n = self.problem.graph.num_nodes();
        let d = self.problem.colors;
        let mut assignment = vec![0usize; n];
        let mut best = 0;
        for code in 0..d.pow(n as u32) {
            let mut c = code;
            for slot in assignment.iter_mut() {
                *slot = c % d;
                c /= d;
            }
            best = best.max(self.problem.properly_colored(&assignment));
        }
        best
    }

    /// `QuditQaoa::optimize` replayed through its public calls.
    fn optimize(&self, qaoa: &QuditQaoa, tr: &Tracer) -> Res<QaoaOutcome> {
        let p = self.config.qaoa.layers;
        let mut eval = tr.span("qopt.evaluator", || qaoa.evaluator(&self.noise))?;
        let initial: Vec<f64> = if p == 1 {
            let grid = grid_points(2, 0.1, 1.2, 5);
            let schedules: Vec<(Vec<f64>, Vec<f64>)> =
                grid.iter().map(|x| (vec![x[0]], vec![x[1]])).collect();
            tr.count("qopt.population.members", schedules.len() as f64);
            let values = tr.span("qopt.population", || {
                qaoa.expected_values_population(&mut eval, &schedules)
            })?;
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
        let (angles, expected_value) = coordinate_ascent(
            &initial,
            |x| {
                let (g, b) = x.split_at(p);
                tr.span("qopt.objective", || qaoa.expected_value_bound(&mut eval, g, b))
                    .unwrap_or(0.0)
            },
            self.config.qaoa.optimizer_rounds,
            0.25,
        );
        let (gammas, betas) = angles.split_at(p);
        tr.count("qopt.sample.shots", OPTIMIZE_SHOTS as f64);
        let samples = tr.span("qopt.sample", || {
            qaoa.sample_assignments(gammas, betas, &self.noise, OPTIMIZE_SHOTS)
        })?;
        let (best_assignment, best_value) = samples
            .into_iter()
            .max_by_key(|(_, v)| *v)
            .unwrap_or((vec![0; self.problem.graph.num_nodes()], 0));
        Ok(QaoaOutcome {
            gammas: gammas.to_vec(),
            betas: betas.to_vec(),
            expected_value,
            best_assignment,
            best_value,
        })
    }
}

impl SolveWorkload for Ndar {
    type Output = NdarResult;

    fn setup(seed: u64, scale: Scale) -> Res<Self> {
        let w = Self::build(seed, scale);
        // Warm the worker pool and the trajectory code paths with a tiny
        // solve, so timed solves start in steady state.
        Self::build(WARM_UP_SEED, Scale::Tiny).solve()?;
        Ok(w)
    }

    fn solve(&mut self) -> Res<NdarResult> {
        Ok(run_ndar(&self.problem, &self.config, &self.noise, true)?)
    }

    fn replay(&mut self, tr: &Tracer) -> Res<NdarResult> {
        let config = &self.config;
        let d = self.problem.colors;
        let mut best_assignment = vec![0usize; self.problem.graph.num_nodes()];
        let mut best_value = self.problem.properly_colored(&best_assignment);
        let mut best_per_round = Vec::with_capacity(config.rounds);
        for round in 0..config.rounds {
            let mut round_config = config.qaoa;
            round_config.seed = config.qaoa.seed.wrapping_add(round as u64 * 0x9E37);
            let mut qaoa = QuditQaoa::new(self.problem.clone(), round_config);
            qaoa.set_gauge(gauge_for_incumbent(&best_assignment, d))?;
            let outcome = self.optimize(&qaoa, tr)?;
            tr.count("qopt.sample.shots", config.shots_per_round as f64);
            let samples = tr.span("qopt.sample", || {
                qaoa.sample_assignments(
                    &outcome.gammas,
                    &outcome.betas,
                    &self.noise,
                    config.shots_per_round,
                )
            })?;
            for (assignment, value) in samples
                .into_iter()
                .chain(std::iter::once((outcome.best_assignment, outcome.best_value)))
            {
                if value > best_value {
                    best_value = value;
                    best_assignment = assignment;
                }
            }
            best_per_round.push(best_value);
        }
        Ok(NdarResult {
            best_assignment,
            best_value,
            best_value_per_round: best_per_round,
            adaptive: true,
        })
    }

    fn check(&self, out: &NdarResult) -> Vec<String> {
        let mut failures = Vec::new();
        let recomputed = self.problem.properly_colored(&out.best_assignment);
        if recomputed != out.best_value {
            failures.push(format!(
                "best_value {} but best_assignment colours {recomputed} edges",
                out.best_value
            ));
        }
        let optimum = self.optimum();
        if out.best_value + MAX_SHORTFALL < optimum {
            failures.push(format!(
                "best_value {} is more than {MAX_SHORTFALL} short of the optimum {optimum}",
                out.best_value
            ));
        }
        if out.best_value_per_round.windows(2).any(|w| w[1] < w[0]) {
            failures.push("best value decreased between rounds".into());
        }
        failures
    }

    fn given_metrics(&self, out: &NdarResult, tr: &Tracer, replays: f64) -> Res<Vec<Metric>> {
        // The evaluator plan runs once per trajectory of every population
        // member and objective call; the sampling plan once per shot.
        let qaoa = QuditQaoa::new(self.problem.clone(), self.config.qaoa);
        let ansatz = qaoa.ansatz()?;
        let traj = qudit_circuit::sim::TrajectorySimulator::new(self.config.qaoa.trajectories)
            .with_noise(self.noise.clone());
        let evaluations = tr.counter("qopt.population.members") + tr.calls("qopt.objective") as f64;
        let runs = evaluations * self.config.qaoa.trajectories as f64 / replays;
        let mut counts = PlanCounts::default();
        counts.add_statevector(&traj.compile(&ansatz)?, runs);
        let sampled = traj.compile(&qaoa.circuit(&[0.4], &[0.3])?)?;
        counts.add_statevector(&sampled, tr.counter("qopt.sample.shots") / replays);
        let mut metrics = counts.metrics();
        metrics.push(Metric::new(
            "approx_ratio",
            out.best_value as f64 / self.optimum().max(1) as f64,
            "ratio",
        ));
        Ok(metrics)
    }
}
