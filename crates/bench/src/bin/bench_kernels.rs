//! Kernel benchmark harness: times every optimized path against its
//! reference method under one protocol, prints a table, writes
//! `target/bench_kernels.json` and exits non-zero if any row's paired median
//! falls below its floor.
//!
//! Protocol ([`paired`]): each row runs its two sides as [`PAIRS`]
//! interleaved same-process A/B pairs, alternating which side goes first.
//! One sample repeats the operation a per-row constant number of times, so
//! it lasts about 5 ms or more. A row reports each side's median per-call
//! time and the median, q1 and q3 of the per-pair `base / opt` ratios.
//!
//! The harness only times. Every result check (fused ≡ unfused, superop ≡
//! per-term, rebind ≡ rebuild, guarded ≡ unguarded, executor ≡ loop, cached ≡
//! compile-per-request) is a tier-1 test on the same workload instances:
//! `bench::rows`, its tests in `tests/rows.rs`, and the baseline tests in
//! `bench::baseline`.
//!
//! Run with `cargo run --release -p bench --bin bench_kernels`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use bench::{baseline, print_table, rows, syndrome_extraction_circuit};
use qudit_circuit::noise::NoiseModel;
use qudit_circuit::sim::{
    DensityMatrixSimulator, FusionConfig, GuardConfig, StatevectorSimulator, SuperopConfig,
    TrajectorySimulator,
};
use qudit_circuit::Observable;
use qudit_serve::{JobOutcome, JobSpec, ServeConfig, ServeEngine};

/// Interleaved A/B pairs per row; odd, so every median is a sample.
const PAIRS: usize = 21;

/// Where the run's record goes, relative to the working directory.
const OUTPUT: &str = "target/bench_kernels.json";

/// One row's timing: per-call medians of both sides and the quartiles of
/// the per-pair `base / opt` ratio.
struct Timing {
    base_s: f64,
    opt_s: f64,
    q1: f64,
    median: f64,
    q3: f64,
}

impl Timing {
    fn new(base: &[f64], opt: &[f64], ratios: &[f64]) -> Self {
        Self {
            base_s: quantile(base, 0.5),
            opt_s: quantile(opt, 0.5),
            q1: quantile(ratios, 0.25),
            median: quantile(ratios, 0.5),
            q3: quantile(ratios, 0.75),
        }
    }
}

struct Row {
    name: String,
    detail: String,
    /// Calls per timed sample.
    reps: usize,
    timing: Timing,
    /// The speed gate: the paired median must not fall below it.
    floor: Option<f64>,
}

impl Row {
    fn passes(&self) -> bool {
        self.floor.is_none_or(|floor| self.timing.median >= floor)
    }
}

/// Nearest-rank quantile of `xs`; NaN when empty.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[((n - 1) as f64 * q).round() as usize],
    }
}

/// Times `base` against `opt` over [`PAIRS`] alternating pairs of
/// `reps`-call samples, after one untimed call of each. Every result goes
/// through `black_box`, so neither side's work can be optimised away.
fn paired<A, B>(reps: usize, mut base: impl FnMut() -> A, mut opt: impl FnMut() -> B) -> Timing {
    fn sample<T>(reps: usize, f: &mut impl FnMut() -> T) -> f64 {
        let start = Instant::now();
        for _ in 0..reps {
            black_box(f());
        }
        start.elapsed().as_secs_f64() / reps as f64
    }
    black_box(base());
    black_box(opt());
    let (mut b, mut o) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            b.push(sample(reps, &mut base));
            o.push(sample(reps, &mut opt));
        } else {
            o.push(sample(reps, &mut opt));
            b.push(sample(reps, &mut base));
        }
    }
    let ratios: Vec<f64> = b.iter().zip(&o).map(|(b, o)| b / o).collect();
    Timing::new(&b, &o, &ratios)
}

fn row(name: &str, detail: String, reps: usize, timing: Timing, floor: Option<f64>) -> Row {
    Row { name: name.into(), detail, reps, timing, floor }
}

fn sqed_detail() -> String {
    let (sites, d, steps) = rows::SQED;
    format!("sQED {sites}x d={d}, {steps} Trotter steps, dim {}", rows::sqed().total_dim())
}

fn trajectory_expectation() -> Row {
    let (circuit, noise) = (rows::sqed(), rows::noise());
    let obs = Observable::number(1, rows::SQED.1);
    let (n, seed) = rows::TRAJECTORIES;
    let sim = TrajectorySimulator::new(n).with_seed(seed).with_noise(noise.clone());
    let timing = paired(
        1,
        || baseline::trajectory_expectation(&circuit, &obs, n, seed, &noise),
        || sim.expectation(&circuit, &obs).unwrap(),
    );
    let detail = format!("{n} trajectories, {}, depolarizing noise", sqed_detail());
    row("trajectory_expectation", detail, 1, timing, Some(2.0))
}

fn sample_counts_deterministic() -> Row {
    let circuit = rows::sqed();
    let shots = 10_000;
    let sim = StatevectorSimulator::with_seed(5);
    let reps = 8;
    let timing = paired(
        reps,
        || {
            // Seed semantics: one run, then a full probability-vector
            // rebuild and O(dim) scan per shot.
            let mut rng = StdRng::seed_from_u64(6);
            let state = baseline::run_statevector(&circuit, &NoiseModel::noiseless(), &mut rng);
            let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
            let mut shot_rng = StdRng::seed_from_u64(6);
            for _ in 0..shots {
                *counts.entry(state.sample(&mut shot_rng)).or_insert(0) += 1;
            }
            counts
        },
        || sim.sample_counts(&circuit, shots).unwrap(),
    );
    let detail = format!("{shots} shots, dim {}", circuit.total_dim());
    row("sample_counts_deterministic", detail, reps, timing, None)
}

fn state_sample_counts() -> Row {
    let shots = 10_000;
    let dims = rows::sqed().dims().to_vec();
    let state = qudit_core::random::haar_state(&mut StdRng::seed_from_u64(2), dims).unwrap();
    let reps = 50;
    let timing = paired(
        reps,
        || baseline::sample_counts(&state, &mut StdRng::seed_from_u64(11), shots),
        || state.sample_counts(&mut StdRng::seed_from_u64(11), shots),
    );
    let detail = format!(
        "{shots} shots, dim {}, Haar-random state, linear scan vs CDF binary search",
        state.dim()
    );
    row("state_sample_counts", detail, reps, timing, None)
}

/// The noiseless statevector rows' shared baseline: BENCH_1's method, a
/// per-call plan rebuild with fusion off, on the current kernels.
fn unfused_percall() -> (StatevectorSimulator, qudit_circuit::Circuit) {
    (StatevectorSimulator::new().with_fusion(FusionConfig::disabled()), rows::sqed())
}

fn statevector_run() -> Row {
    let (percall, circuit) = unfused_percall();
    let sim = StatevectorSimulator::new();
    let plan = sim.compile(&circuit).unwrap();
    let reps = 400;
    let timing =
        paired(reps, || percall.run(&circuit).unwrap(), || sim.run_compiled(&plan, None).unwrap());
    let stats = plan.fusion_stats();
    let detail = format!(
        "{}; fusion ON, precompiled ({} gates -> {} fused steps, {} multi-gate blocks, max block \
         dim {}) vs per-call plan rebuild with fusion off",
        sqed_detail(),
        stats.unitaries_in,
        stats.unitary_steps_out,
        stats.multi_gate_blocks,
        stats.max_block_dim
    );
    row("statevector_run", detail, reps, timing, Some(1.5))
}

fn statevector_run_fusion_off() -> Row {
    let (percall, circuit) = unfused_percall();
    let plan = percall.compile(&circuit).unwrap();
    let reps = 250;
    let timing = paired(
        reps,
        || percall.run(&circuit).unwrap(),
        || percall.run_compiled(&plan, None).unwrap(),
    );
    let detail = format!(
        "same workload; fusion OFF, precompiled ({} unitary steps) vs per-call plan rebuild with \
         fusion off — isolates plan reuse from fusion proper",
        plan.fusion_stats().unitary_steps_out
    );
    row("statevector_run_fusion_off", detail, reps, timing, None)
}

fn syndrome_extraction_wire_local() -> Row {
    // Repeated ancilla measure+reset rounds interleaved with stabilizer-style
    // entangling layers on a mixed-radix register: wire-local flushing keeps
    // the two off-round data pairs fusing straight through each readout.
    let (rounds, seed) = rows::SYNDROME;
    let circuit = syndrome_extraction_circuit(rounds);
    let fused = StatevectorSimulator::with_seed(seed);
    let unfused = StatevectorSimulator::with_seed(seed).with_fusion(FusionConfig::disabled());
    let (fused_plan, unfused_plan) =
        (fused.compile(&circuit).unwrap(), unfused.compile(&circuit).unwrap());
    let reps = 16;
    let timing = paired(
        reps,
        || unfused.run_compiled(&unfused_plan, None).unwrap(),
        || fused.run_compiled(&fused_plan, None).unwrap(),
    );
    let stats = fused_plan.fusion_stats();
    let detail = format!(
        "{rounds} ancilla measure+reset rounds, 3 data pairs, dim {}; wire-local fusion ({} -> {} \
         apply steps, {} multi-gate blocks, {} barrier crossings) vs fusion OFF, both precompiled",
        circuit.total_dim(),
        stats.unitaries_in,
        stats.unitary_steps_out,
        stats.multi_gate_blocks,
        stats.barrier_crossings
    );
    row("syndrome_extraction_wire_local", detail, reps, timing, Some(1.2))
}

fn measure_collapse() -> Row {
    let ghz = rows::ghz();
    let reps = 50;
    let timing = paired(
        reps,
        || {
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..200 {
                black_box(baseline::measure(&mut ghz.clone(), &[1, 2], &mut rng));
            }
        },
        || {
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..200 {
                black_box(ghz.clone().measure(&[1, 2], &mut rng).unwrap());
            }
        },
    );
    let detail = "200 two-qudit measurements on a 4-qutrit GHZ state".to_string();
    row("measure_collapse", detail, reps, timing, None)
}

fn lindblad_evolve() -> Row {
    let (d, t, dt) = rows::LINDBLAD;
    let (h, collapse) = rows::lindblad_operators();
    // System construction stays inside both timed regions, as in BENCH_1.
    let timing = paired(
        2,
        || {
            black_box(rows::lindblad());
            let mut rho = rows::lindblad_initial();
            baseline::lindblad_evolve_cloning(&h, &collapse, &mut rho, t, dt);
            rho
        },
        || {
            let sys = rows::lindblad();
            let mut rho = rows::lindblad_initial();
            sys.evolve(&mut rho, t, dt).unwrap();
            rho
        },
    );
    let detail = format!(
        "two d={d} modes, {} RK4 steps; row-compressed sparse generator vs dense cloning RK4",
        (t / dt).round()
    );
    row("lindblad_evolve", detail, 2, timing, Some(3.0))
}

fn lindblad_driven_reservoir() -> Row {
    let w = rows::driven_reservoir();
    let (t, dt) = w.segment;
    let timing = paired(
        1,
        || {
            let mut rho = w.rho.clone();
            baseline::lindblad_evolve_two_sided(
                w.system.hamiltonian(),
                &w.collapse,
                &w.drives,
                &mut rho,
                t,
                dt,
            );
            rho
        },
        || {
            let mut rho = w.rho.clone();
            for drive in &w.drives {
                w.system.evolve_with_drive(&mut rho, t, dt, Some(drive)).unwrap();
            }
            rho
        },
    );
    let (d, samples) = rows::DRIVEN_RESERVOIR;
    let detail = format!(
        "qrc_forecast reservoir, two d={d} modes, {samples} inputs as {} driven segments of {} RK4 \
         steps; Hermitian right-hand side (one generator-plus-drive product) vs two-sided (four)",
        w.drives.len(),
        (t / dt).round()
    );
    row("lindblad_driven_reservoir", detail, 1, timing, Some(1.2))
}

/// The noisy density rows' simulators: superop batching on, and the
/// per-term Kraus path that is their shared baseline.
fn density_sims() -> (DensityMatrixSimulator, DensityMatrixSimulator) {
    let sim = DensityMatrixSimulator::new().with_noise(rows::noise());
    (sim.clone(), sim.with_superop(SuperopConfig::disabled()))
}

fn density_run_noisy() -> Row {
    let (sim, per_term) = density_sims();
    let circuit = rows::sqed();
    let plan = sim.compile(&circuit).unwrap();
    let timing =
        paired(1, || per_term.run(&circuit).unwrap(), || sim.run_compiled(&plan, None).unwrap());
    let stats = plan.superop_stats();
    let detail = format!(
        "{} (rho {dim}x{dim}), depolarizing noise; superop batching ON, precompiled ({} sweeps, \
         {} multi-op, {} ops folded, {} unitary steps, {} Kraus steps, max k {}) vs per-term \
         Kraus path with per-call compile",
        sqed_detail(),
        stats.super_steps,
        stats.multi_op_supers,
        stats.ops_folded,
        stats.unitary_steps,
        stats.kraus_steps,
        stats.max_super_dim,
        dim = circuit.total_dim()
    );
    row("density_run_noisy", detail, 1, timing, Some(1.5))
}

fn sqed_sampled_dynamics() -> Row {
    let (h, noise) = (rows::sqed_chain(), rows::noise());
    let protocol = lgt::massgap::DynamicsProtocol::default();
    let timing = paired(
        1,
        || baseline::run_dynamics_per_sample(&h, 1, &protocol, &noise),
        || lgt::massgap::run_dynamics(&h, 1, &protocol, &noise).unwrap(),
    );
    let detail = format!(
        "run_dynamics, sQED {} sites d=3, {} samples to t = {}, depolarizing noise: continue \
         from the previous sample with one compiled 2-step block vs a fresh circuit per sample",
        h.num_sites(),
        protocol.num_samples,
        protocol.total_time
    );
    row("sqed_sampled_dynamics", detail, 1, timing, Some(4.0))
}

fn superop_sweep_sparse() -> Row {
    let w = rows::loss_sweep();
    let start = w.rho.matrix().as_slice();
    let (mut dense, mut sparse) = (start.to_vec(), start.to_vec());
    let (mut dense_scratch, mut sparse_scratch) = (Vec::new(), Vec::new());
    // Each call restarts from the same ρ, so repeated loss never drives the
    // entries toward subnormals.
    let timing = paired(
        1000,
        || {
            dense.copy_from_slice(start);
            w.plan.apply(&w.kind, &w.sup, &mut dense, 1, &mut dense_scratch).unwrap();
        },
        || {
            sparse.copy_from_slice(start);
            w.plan.apply_compressed(&w.compressed, &mut sparse, 1, &mut sparse_scratch).unwrap();
        },
    );
    let (d, gamma) = rows::LOSS_SWEEP;
    let detail = format!(
        "photon loss {gamma} on mode 0 of a two-mode d={d} register (rho {n}x{n}), one sweep of \
         its {k2}x{k2} superoperator ({} nonzeros): row-compressed vs dense gather kernel, 1 thread",
        w.compressed.nnz(),
        n = d * d,
        k2 = d * d,
    );
    row("superop_sweep_sparse", detail, 1000, timing, Some(2.5))
}

fn density_run_noisy_percall() -> Row {
    let (sim, per_term) = density_sims();
    let circuit = rows::sqed();
    let timing = paired(1, || per_term.run(&circuit).unwrap(), || sim.run(&circuit).unwrap());
    let detail = "same workload; superop batching ON through plain run() (compile inside the \
                  timed region) vs the per-term Kraus path, isolating plan reuse from the \
                  batched sweeps"
        .to_string();
    row("density_run_noisy_percall", detail, 1, timing, None)
}

/// Guard rows: the same plan unguarded (base) and with invariant checkpoints
/// at the default cadence (opt), so the ratio reads as inverted guard
/// overhead and the 0.95 floor is the ≤ 5% overhead contract.
fn guard_detail(what: &str, checks: usize) -> String {
    format!(
        "{what} checkpoints every {} steps ({checks} checks/run, Fail policy) vs the unguarded \
         run — speedup is inverted guard overhead",
        GuardConfig::DEFAULT_CADENCE
    )
}

fn statevector_run_guarded() -> Row {
    let sim = StatevectorSimulator::new();
    let guarded = sim.clone().with_guard(GuardConfig::enabled());
    let plan = sim.compile(&rows::sqed()).unwrap();
    let reps = 400;
    let timing = paired(
        reps,
        || sim.run_compiled(&plan, None).unwrap(),
        || guarded.run_compiled(&plan, None).unwrap(),
    );
    let checks = guarded.run_compiled(&plan, None).unwrap().health.checks_run;
    let detail = guard_detail("same fused workload; NaN/Inf + norm", checks);
    row("statevector_run_guarded", detail, reps, timing, Some(0.95))
}

fn density_run_noisy_guarded() -> Row {
    // One thread on both sides: the guard scan is serial, and two-thread
    // sweeps on a shared 2-vCPU host read A/A (unguarded vs unguarded)
    // medians of 1.06-1.20, which would swamp a 5% contract.
    let sim = density_sims().0.with_threads(1);
    let guarded = sim.clone().with_guard(GuardConfig::enabled());
    let plan = sim.compile(&rows::sqed()).unwrap();
    let timing = paired(
        1,
        || sim.run_compiled(&plan, None).unwrap(),
        || guarded.run_compiled(&plan, None).unwrap(),
    );
    let checks = guarded.run_compiled(&plan, None).unwrap().1.checks_run;
    let detail =
        guard_detail("same superop-batched workload on 1 thread; trace/hermiticity", checks);
    row("density_run_noisy_guarded", detail, 1, timing, Some(0.95))
}

fn qaoa_rebind_sweep() -> Row {
    // The circuit *structure* is angle-independent, so the rebuild-per-step
    // loop repays the whole compilation pipeline on every evaluation; the
    // rebind path re-materialises only the parameter-dependent blocks.
    let (layers, len, seed) = rows::QAOA;
    let (qaoa, sweep) = (rows::qaoa(), rows::qaoa_sweep());
    let sim = StatevectorSimulator::with_seed(seed);
    let ansatz = qaoa.ansatz().unwrap();
    let mut plan = sim.compile(&ansatz).unwrap();
    let (rebindable, steps) = (plan.rebindable_steps(), plan.fusion_stats().unitary_steps_out);
    let reps = 5;
    let timing = paired(
        reps,
        || {
            for params in &sweep {
                let (g, b) = params.split_at(layers);
                black_box(sim.run(&qaoa.circuit(g, b).unwrap()).unwrap());
            }
        },
        || {
            for params in &sweep {
                plan.bind(params).unwrap();
                black_box(sim.run_compiled(&plan, None).unwrap());
            }
        },
    );
    let detail = format!(
        "{len}-step angle sweep, 5-node 3-coloring QAOA p={layers}, dim {}; compile once + bind \
         per step ({rebindable} of {steps} apply steps rebindable, {} params) vs rebuild + \
         recompile per step",
        ansatz.total_dim(),
        2 * layers
    );
    row("qaoa_rebind_sweep", detail, reps, timing, Some(2.0))
}

fn ensemble_qaoa_population() -> Row {
    // Population columns hold distinct states, so the flops are irreducible
    // and one core's ceiling is parity: the 0.65 floor bounds the ensemble
    // call's overhead over the serial rebind loop.
    let (layers, len, seed) = rows::QAOA;
    let sweep = rows::qaoa_sweep();
    let sim = StatevectorSimulator::with_seed(seed);
    let plan = sim.compile(&rows::qaoa().ansatz().unwrap()).unwrap();
    let mut serial_plan = plan.clone();
    let reps = 4;
    let timing = paired(
        reps,
        || {
            for params in &sweep {
                serial_plan.bind(params).unwrap();
                black_box(sim.run_compiled(&serial_plan, None).unwrap());
            }
        },
        || sim.run_ensemble_from(&plan, &plan.bind_batch(&sweep).unwrap(), None).unwrap(),
    );
    let detail = format!(
        "{len}-member binding population, 5-node 3-coloring QAOA p={layers}; one bind_batch + \
         run_ensemble_from call (one serial-kernel column per member, fanned out across the \
         worker pool) vs the serial rebind loop on 1 thread"
    );
    row("ensemble_qaoa_population", detail, reps, timing, Some(0.65))
}

fn batched_trajectories() -> Row {
    // Branch-prefix groups run each deterministic step and compute branch
    // probabilities once per group instead of once per shot.
    let (circuit, noise) = (rows::sqed(), rows::noise());
    let obs = Observable::number(1, rows::SQED.1);
    let (n, seed) = rows::TRAJECTORIES;
    let sim = TrajectorySimulator::new(n).with_seed(seed).with_noise(noise.clone()).with_threads(1);
    let plan = sim.compile(&circuit).unwrap();
    let reps = 6;
    let timing = paired(
        reps,
        || baseline::trajectory_loop(&plan, &noise, &obs, n, seed),
        || sim.expectation_compiled(&plan, &obs).unwrap(),
    );
    let detail = format!(
        "{n} trajectories, {}, depolarizing noise; branch-prefix group executor vs a \
         one-state-at-a-time run_compiled loop over the same plan, both on 1 thread",
        sqed_detail()
    );
    row("batched_trajectories", detail, reps, timing, Some(2.0))
}

fn ndar_shot_sampling() -> Row {
    // One NDAR round's shots share one compile and run as branch-prefix
    // groups, instead of one compile and one one-state run per shot.
    let (qaoa, noise) = (rows::ndar_qaoa(), rows::ndar_noise());
    let (_, _, seed, round) = rows::NDAR;
    let (gammas, betas) = rows::NDAR_ANGLES;
    let reps = 1;
    let timing = paired(
        reps,
        || {
            round.map(|shots| {
                baseline::ndar_shot_sampling(&qaoa, seed, (&gammas, &betas), &noise, shots)
            })
        },
        || round.map(|shots| qaoa.sample_assignments(&gammas, &betas, &noise, shots).unwrap()),
    );
    let detail = format!(
        "{} + {} shots of one NDAR round, 1-layer coloring QAOA dim {}, cavity photon loss; \
         sample_assignments on the trajectory executor vs compile + one-state run per shot",
        round[0],
        round[1],
        qaoa.ansatz().unwrap().total_dim()
    );
    row("ndar_shot_sampling", detail, reps, timing, Some(1.5))
}

fn par_map_overhead(threads: usize, reps: usize) -> Row {
    // Many small calls with trivial per-item work measure the per-call
    // fork-join cost, which the persistent pool eliminates.
    let (calls, items) = (200, 64);
    let work = |i: usize| black_box((i as u64).wrapping_mul(0x9E37_79B9));
    let timing = paired(
        reps,
        || {
            for _ in 0..calls {
                black_box(baseline::par_map_scoped(items, threads, work));
            }
        },
        || {
            for _ in 0..calls {
                black_box(qudit_core::par::par_map_threads(items, threads, work));
            }
        },
    );
    let detail = format!(
        "{calls} calls x {items} items at {threads} thread(s); persistent pool vs scoped \
         spawn-per-call"
    );
    row(&format!("par_map_overhead_t{threads}"), detail, reps, timing, None)
}

fn serve_mixed_workload() -> Row {
    // Topologically identical requests differ only in bindings, so one
    // compiled plan per backend serves the whole batch; the baseline engine
    // has no plan cache and compiles every request.
    let (workers, pairs, _) = rows::SERVE;
    let reps = 3;
    let timing = paired(reps, || rows::serve_mix(0), || rows::serve_mix(32));
    let stats = rows::serve_mix(32).1;
    let detail = format!(
        "{} mixed jobs ({pairs}-point QAOA sweep dim {} + {pairs} noisy reservoir probes dim \
         {}) on {workers} workers; shared single-flight plan cache of 32 (statevector {} \
         miss/{} hits, density {} miss/{} hits) vs compile-per-request",
        2 * pairs,
        rows::serve_param_circuit(rows::SERVE.2).total_dim(),
        rows::serve_reservoir_circuit(2, 10).total_dim(),
        stats.statevector_cache.misses,
        stats.statevector_cache.hits,
        stats.density_cache.misses,
        stats.density_cache.hits
    );
    row("serve_mixed_workload", detail, reps, timing, Some(2.0))
}

fn serve_cancellation_latency() -> Row {
    // Cancellation is observed at guard-cadence checkpoints, so the budget
    // is relative: two cadence intervals of this workload's own per-step
    // time. The ratio is budget / latency, so the 1.0 floor is the budget.
    let cadence = GuardConfig::DEFAULT_CADENCE;
    let circuit = rows::serve_reservoir_circuit(4, 60);
    let noise = rows::serve_noise();
    let steps = DensityMatrixSimulator::new()
        .with_noise(noise.clone())
        .compile(&circuit)
        .unwrap()
        .num_steps();
    let engine = ServeEngine::start(
        ServeConfig::default()
            .with_workers(1)
            .with_guard(GuardConfig::enabled())
            .with_noise(noise)
            .with_seed(17),
    );
    let submit = || engine.submit(JobSpec::density(circuit.clone())).unwrap();
    let full: Vec<f64> = (0..PAIRS)
        .map(|_| {
            let start = Instant::now();
            match submit().wait() {
                JobOutcome::Completed(_) => start.elapsed().as_secs_f64(),
                other => panic!("uncancelled reference job failed: {other:?}"),
            }
        })
        .collect();
    let full_s = quantile(&full, 0.5);
    let budget_s = 2.0 * cadence as f64 * full_s / steps as f64;
    // A job that completes before `cancel()` lands is retaken, up to 3x the
    // sample count in total; a row short of samples reads NaN and fails.
    let (mut latency, mut retakes) = (Vec::with_capacity(PAIRS), 0);
    while latency.len() < PAIRS && latency.len() + retakes < 3 * PAIRS {
        let handle = submit();
        // Let the single worker get well into the run before cancelling.
        std::thread::sleep(Duration::from_secs_f64(full_s * 0.4));
        let start = Instant::now();
        handle.cancel();
        match handle.wait() {
            JobOutcome::Cancelled(_) => latency.push(start.elapsed().as_secs_f64()),
            JobOutcome::Completed(_) => retakes += 1,
            other => panic!("cancellation sample failed: {other:?}"),
        }
    }
    let ratios: Vec<f64> = if latency.len() == PAIRS {
        latency.iter().map(|l| budget_s / l).collect()
    } else {
        Vec::new()
    };
    let detail = format!(
        "cancel() on an in-flight noisy density job (dim {}, {steps} exec steps, cadence \
         {cadence}); latency vs the full uncancelled run — speedup is budget/latency, budget 2 \
         cadence intervals = {:.3} ms; {} of {PAIRS} samples, {retakes} retaken",
        circuit.total_dim(),
        budget_s * 1e3,
        latency.len()
    );
    row("serve_cancellation_latency", detail, 1, Timing::new(&full, &latency, &ratios), Some(1.0))
}

fn ms(s: f64) -> String {
    format!("{:.3}", s * 1e3)
}

fn or_null(x: Option<f64>) -> String {
    x.map_or("null".into(), |x| format!("{x:.2}"))
}

fn report(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let t = &r.timing;
            vec![
                r.name.clone(),
                r.reps.to_string(),
                ms(t.base_s),
                ms(t.opt_s),
                format!("{:.2}x", t.median),
                format!("{:.2}-{:.2}", t.q1, t.q3),
                r.floor.map_or("-".into(), |f| format!("{f:.2}")),
                if r.passes() { "ok" } else { "FAIL" }.into(),
            ]
        })
        .collect();
    print_table(
        &format!("kernel benchmarks ({PAIRS} interleaved pairs, per-call medians)"),
        &["kernel", "reps", "baseline ms", "optimized ms", "speedup", "q1-q3", "floor", "gate"],
        &table,
    );

    // Hand-rolled JSON: no JSON dependency offline.
    let (sites, d, steps) = rows::SQED;
    let mut json = format!(
        "{{\n  \"protocol\": \"{PAIRS} interleaved base/opt pairs per row, alternating which side \
         runs first; each sample repeats the operation reps times; times are per-call medians, \
         speedup is the median of per-pair base/opt ratios with its q1/q3\",\n  \"workload\": \
         {{\"circuit\": \"small_sqed_circuit\", \"sites\": {sites}, \"link_dim\": {d}, \
         \"trotter_steps\": {steps}, \"dim\": {}}},\n  \"threads\": {},\n  \"pool_workers\": \
         {},\n  \"results\": [\n",
        rows::sqed().total_dim(),
        qudit_core::par::max_threads(),
        qudit_core::par::pool_workers()
    );
    for (i, r) in rows.iter().enumerate() {
        let t = &r.timing;
        let finite = |x: f64| x.is_finite().then_some(x);
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"detail\": \"{}\", \"reps\": {}, \"baseline_ms\": {}, \
             \"optimized_ms\": {}, \"speedup\": {}, \"q1\": {}, \"q3\": {}, \"floor\": {}}}{}\n",
            r.name,
            r.detail,
            r.reps,
            ms(t.base_s),
            finite(t.opt_s).map_or("null".into(), ms),
            or_null(finite(t.median)),
            or_null(finite(t.q1)),
            or_null(finite(t.q3)),
            or_null(r.floor),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    if let Some(dir) = std::path::Path::new(OUTPUT).parent() {
        std::fs::create_dir_all(dir).expect("create the output directory");
    }
    std::fs::write(OUTPUT, json).expect("write the benchmark record");
    println!("\nwrote {OUTPUT}");
}

fn main() {
    let rows = [
        trajectory_expectation(),
        sample_counts_deterministic(),
        state_sample_counts(),
        statevector_run(),
        statevector_run_fusion_off(),
        syndrome_extraction_wire_local(),
        measure_collapse(),
        lindblad_evolve(),
        lindblad_driven_reservoir(),
        density_run_noisy(),
        density_run_noisy_percall(),
        sqed_sampled_dynamics(),
        superop_sweep_sparse(),
        statevector_run_guarded(),
        density_run_noisy_guarded(),
        qaoa_rebind_sweep(),
        ensemble_qaoa_population(),
        batched_trajectories(),
        ndar_shot_sampling(),
        par_map_overhead(1, 500),
        par_map_overhead(2, 1),
        par_map_overhead(4, 1),
        serve_mixed_workload(),
        serve_cancellation_latency(),
    ];
    report(&rows);
    let failed: Vec<String> = rows
        .iter()
        .filter(|r| !r.passes())
        .map(|r| format!("{} ({:.2} < {:.2})", r.name, r.timing.median, r.floor.unwrap_or(0.0)))
        .collect();
    if !failed.is_empty() {
        eprintln!("speed gates failed: {}", failed.join(", "));
        std::process::exit(1);
    }
}
