//! Kernel benchmark harness for PR 9: times batched ensemble execution
//! (binding populations and branch-prefix trajectory groups) on top of
//! the PR-1..7 rows, prints a summary table and writes the numbers to
//! `BENCH_9.json`.
//!
//! The earlier rows (trajectory expectation, deterministic sampling, raw
//! sampler, measure/collapse, statevector fusion, syndrome-extraction flush
//! policies, Lindblad, density superoperator batching, guard overhead, QAOA
//! rebind sweep, `par_map` overhead, serving layer) are re-measured
//! unchanged so regressions against earlier BENCH files are visible;
//! `statevector_run` keeps its anchor to BENCH_1's frozen optimized time.
//! The new rows isolate what PR 9 adds:
//!
//! * `ensemble_qaoa_population` — the PR-5 QAOA angle sweep evaluated as ONE
//!   ensemble call (`bind_batch` + `run_ensemble`, one serial-kernel column
//!   per member) instead of a serial rebind loop; the harness asserts every
//!   ensemble column is bitwise identical to its serial `run_bound` twin
//!   before timing.
//! * `batched_trajectories` — the 64-shot noisy trajectory ensemble evolved
//!   as lazily splitting branch-prefix groups, one state per group
//!   (`expectation_compiled`), vs a
//!   one-state-at-a-time `StatevectorSimulator::run_compiled` loop over the
//!   same plan on one thread; the harness pins every loop state to
//!   `TrajectorySimulator::run_single` bitwise, asserts the estimates agree
//!   bitwise and that the batched executor is ≥ 2x.
//!
//! Run with `cargo run --release -p bench --bin bench_kernels`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use bench::{baseline, print_table, small_sqed_circuit, syndrome_extraction_circuit};
use qudit_circuit::noise::NoiseModel;
use qudit_circuit::sim::{
    DensityMatrixSimulator, FlushPolicy, FusionConfig, GuardConfig, StatevectorSimulator,
    SuperopConfig, TrajectorySimulator,
};
use qudit_circuit::Observable;
use qudit_core::density::DensityMatrix;
use qudit_core::state::QuditState;
use qudit_serve::{JobOutcome, JobSpec, ServeConfig, ServeEngine, ServeStats};

/// Compile-heavy, run-light parameterized circuit for the serving rows: a
/// QAOA-style two-qutrit mixer ladder whose per-layer angles are free
/// parameters, so every request in a sweep shares one structural hash.
fn serve_param_circuit(layers: usize) -> qudit_circuit::Circuit {
    let mut c = qudit_circuit::Circuit::new(vec![3, 3]);
    let mixer = qudit_core::matrix::CMatrix::from_fn(3, 3, |r, s| {
        if r.abs_diff(s) == 1 {
            qudit_core::complex::c64(1.0, 0.0)
        } else {
            qudit_core::complex::c64(0.0, 0.0)
        }
    });
    for layer in 0..layers {
        c.push(qudit_circuit::Gate::fourier(3), &[layer % 2]).unwrap();
        c.push(qudit_circuit::Gate::csum(3, 3), &[0, 1]).unwrap();
        let g = qudit_circuit::Gate::parameterized(
            format!("mix{layer}"),
            vec![3],
            &mixer,
            qudit_circuit::Param::Free(layer),
        )
        .unwrap();
        c.push(g, &[layer % 2]).unwrap();
    }
    c
}

/// Reservoir-style dissipative circuit on `qudits` qutrits: repeated
/// Fourier + CSUM couplings, served through the noisy density backend.
fn serve_reservoir_circuit(qudits: usize, depth: usize) -> qudit_circuit::Circuit {
    let mut c = qudit_circuit::Circuit::new(vec![3; qudits]);
    for i in 0..depth {
        c.push(qudit_circuit::Gate::fourier(3), &[i % qudits]).unwrap();
        c.push(qudit_circuit::Gate::csum(3, 3), &[i % qudits, (i + 1) % qudits]).unwrap();
    }
    c
}

/// Best-of-`reps` wall-clock seconds for one invocation of `f`.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Reads `optimized_ms` for a named result out of a previous BENCH json
/// (hand-rolled: no JSON dependency offline). Returns `None` when the file
/// or entry is missing.
fn previous_optimized_ms(path: &str, name: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let entry = text.lines().find(|l| l.contains(&format!("\"name\": \"{name}\"")))?;
    let field = "\"optimized_ms\": ";
    let start = entry.find(field)? + field.len();
    let rest = &entry[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse::<f64>().ok()
}

struct Entry {
    name: String,
    detail: String,
    baseline_s: Option<f64>,
    optimized_s: f64,
}

impl Entry {
    fn speedup(&self) -> Option<f64> {
        self.baseline_s.map(|b| b / self.optimized_s)
    }
}

fn main() {
    let mut entries = Vec::new();

    // Workload: 4-site truncated sQED chain at link dimension 4,
    // two first-order Trotter steps (dim 4^4 = 256), as in the Table-I
    // scaling family.
    let (sites, d, steps) = (4usize, 4usize, 2usize);
    let circuit = small_sqed_circuit(sites, d, steps);
    let dim: usize = circuit.total_dim();
    let noise = NoiseModel::depolarizing(1e-3, 1e-2);
    let obs = Observable::number(1, d);

    // --- Trajectory-averaged expectation, 64 trajectories, noisy. --------
    let n_traj = 64;
    let base_mean = baseline::trajectory_expectation(&circuit, &obs, n_traj, 7, &noise);
    let opt_sim = TrajectorySimulator::new(n_traj).with_seed(7).with_noise(noise.clone());
    let opt_mean = opt_sim.expectation(&circuit, &obs).unwrap().mean;
    assert!(
        (base_mean - opt_mean).abs() < 0.5,
        "baseline and optimized trajectory means should be statistically compatible \
         ({base_mean} vs {opt_mean})"
    );
    let baseline_s = time_best(3, || {
        std::hint::black_box(baseline::trajectory_expectation(&circuit, &obs, n_traj, 7, &noise));
    });
    let optimized_s = time_best(3, || {
        std::hint::black_box(opt_sim.expectation(&circuit, &obs).unwrap());
    });
    entries.push(Entry {
        name: "trajectory_expectation".into(),
        detail: format!(
            "{n_traj} trajectories, sQED {sites}x d={d}, {steps} Trotter steps, depolarizing noise"
        ),
        baseline_s: Some(baseline_s),
        optimized_s,
    });

    // --- Deterministic sample_counts, 10k shots. -------------------------
    let shots = 10_000;
    let det_sim = StatevectorSimulator::with_seed(5);
    let baseline_s = time_best(3, || {
        // Seed semantics: one run, then a full probability-vector rebuild and
        // O(dim) scan per shot.
        let mut rng = StdRng::seed_from_u64(6);
        let state = baseline::run_statevector(&circuit, &NoiseModel::noiseless(), &mut rng);
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut shot_rng = StdRng::seed_from_u64(5u64.wrapping_add(1));
        for _ in 0..shots {
            let digits = state.sample(&mut shot_rng);
            *counts.entry(digits).or_insert(0) += 1;
        }
        std::hint::black_box(counts);
    });
    let optimized_s = time_best(3, || {
        std::hint::black_box(det_sim.sample_counts(&circuit, shots).unwrap());
    });
    entries.push(Entry {
        name: "sample_counts_deterministic".into(),
        detail: format!("{shots} shots, dim {dim}"),
        baseline_s: Some(baseline_s),
        optimized_s,
    });

    // --- Raw shot sampler on a spread-out state (CDF + binary search). ---
    let spread_state = {
        let mut rng = StdRng::seed_from_u64(2);
        qudit_core::random::haar_state(&mut rng, circuit.dims().to_vec()).unwrap()
    };
    let baseline_s = time_best(5, || {
        let mut rng = StdRng::seed_from_u64(11);
        std::hint::black_box(baseline::sample_counts(&spread_state, &mut rng, shots));
    });
    let optimized_s = time_best(5, || {
        let mut rng = StdRng::seed_from_u64(11);
        std::hint::black_box(spread_state.sample_counts(&mut rng, shots));
    });
    entries.push(Entry {
        name: "state_sample_counts".into(),
        detail: format!(
            "{shots} shots, dim {dim}, Haar-random state, linear scan vs CDF binary search"
        ),
        baseline_s: Some(baseline_s),
        optimized_s,
    });

    // --- Noiseless Trotter evolution: the fused-execution pipeline. ------
    // The reference is BENCH_1's frozen `statevector_run` optimized time
    // (per-call plan rebuild, no fusion, pre-PR-2 kernels); when BENCH_1.json
    // is absent the same method is re-measured on the current tree, which is
    // conservative because the PR-2 kernel improvements speed it up too.
    let sv_pr1 = StatevectorSimulator::new().with_fusion(FusionConfig::disabled());
    let pr1_percall_s = time_best(10, || {
        std::hint::black_box(sv_pr1.run(&circuit).unwrap());
    });
    let bench1_s = previous_optimized_ms("BENCH_1.json", "statevector_run")
        .map(|ms| ms * 1e-3)
        .unwrap_or(pr1_percall_s);
    // PR-2 path: compile once (fusion pass + plans + classifications), then
    // reuse the plan across runs — the dm-simu-rs-style precompiled pattern.
    let sv_fused = StatevectorSimulator::new();
    let compiled_fused = sv_fused.compile(&circuit).unwrap();
    let stats = compiled_fused.fusion_stats();
    assert!(
        stats.multi_gate_blocks > 0 && stats.unitary_steps_out < stats.unitaries_in,
        "fusion must engage on the Table-I sQED workload: {stats:?}"
    );
    let fused_s = time_best(10, || {
        std::hint::black_box(sv_fused.run_compiled(&compiled_fused).unwrap());
    });
    // Cross-check physics: fused and per-call runs agree.
    {
        let a = sv_fused.run_compiled(&compiled_fused).unwrap().state;
        let b = sv_pr1.run(&circuit).unwrap();
        let overlap = a.inner(&b).unwrap().abs();
        assert!((overlap - 1.0).abs() < 1e-9, "fused/unfused overlap {overlap}");
    }
    entries.push(Entry {
        name: "statevector_run".into(),
        detail: format!(
            "sQED {sites}x d={d}, {steps} Trotter steps, dim {dim}; fusion ON, precompiled \
             ({} gates -> {} fused steps, max block dim {}) vs BENCH_1 optimized time",
            stats.unitaries_in, stats.unitary_steps_out, stats.max_block_dim
        ),
        baseline_s: Some(bench1_s),
        optimized_s: fused_s,
    });
    let compiled_unfused = StatevectorSimulator::new()
        .with_fusion(FusionConfig::disabled())
        .compile(&circuit)
        .unwrap();
    let unfused_s = time_best(10, || {
        std::hint::black_box(sv_pr1.run_compiled(&compiled_unfused).unwrap());
    });
    entries.push(Entry {
        name: "statevector_run_fusion_off".into(),
        detail: format!(
            "same workload; fusion OFF, precompiled ({} unitary steps) — isolates plan reuse \
             from fusion proper, vs BENCH_1 optimized time",
            compiled_unfused.fusion_stats().unitary_steps_out
        ),
        baseline_s: Some(bench1_s),
        optimized_s: unfused_s,
    });
    entries.push(Entry {
        name: "statevector_run_percall".into(),
        detail: "same workload; BENCH_1's measurement method (per-call plan rebuild, fusion \
                 off) re-run on the PR-2 kernels, vs BENCH_1 optimized time"
            .into(),
        baseline_s: Some(bench1_s),
        optimized_s: pr1_percall_s,
    });

    // --- Syndrome extraction: wire-local vs full-flush vs unfused. -------
    // Repeated ancilla measure+reset rounds interleaved with stabilizer-style
    // entangling layers on a mixed-radix register (dim 1152). The old global
    // flush rule closes every open fusion block at each of the 9 readouts;
    // the wire-local rule keeps the two off-round data pairs fusing straight
    // through them.
    let syn_rounds = 9;
    let syn_circuit = syndrome_extraction_circuit(syn_rounds);
    let sv_wire_local = StatevectorSimulator::with_seed(23);
    let sv_full_flush = StatevectorSimulator::with_seed(23)
        .with_fusion(FusionConfig { flush: FlushPolicy::Global, ..FusionConfig::default() });
    let sv_syn_unfused = StatevectorSimulator::with_seed(23).with_fusion(FusionConfig::disabled());
    let syn_wl = sv_wire_local.compile(&syn_circuit).unwrap();
    let syn_ff = sv_full_flush.compile(&syn_circuit).unwrap();
    let syn_un = sv_syn_unfused.compile(&syn_circuit).unwrap();
    let syn_wl_stats = syn_wl.fusion_stats();
    let syn_ff_stats = syn_ff.fusion_stats();
    assert!(
        syn_wl_stats.barrier_crossings > 0,
        "blocks must survive mid-circuit readouts under wire-local flushing: {syn_wl_stats:?}"
    );
    assert!(
        syn_wl_stats.unitary_steps_out < syn_ff_stats.unitary_steps_out,
        "wire-local must emit fewer fused apply steps than full flush: \
         {syn_wl_stats:?} vs {syn_ff_stats:?}"
    );
    // RNG-stream alignment cross-check: all three policies observe identical
    // readout records and land on the same state.
    {
        let a = sv_wire_local.run_compiled(&syn_wl).unwrap();
        let b = sv_full_flush.run_compiled(&syn_ff).unwrap();
        let c = sv_syn_unfused.run_compiled(&syn_un).unwrap();
        assert_eq!(a.measurements, b.measurements, "wire-local vs full-flush readouts");
        assert_eq!(a.measurements, c.measurements, "wire-local vs unfused readouts");
        let overlap = a.state.inner(&c.state).unwrap().abs();
        assert!((overlap - 1.0).abs() < 1e-9, "syndrome policy overlap {overlap}");
    }
    let syn_unfused_s = time_best(10, || {
        std::hint::black_box(sv_syn_unfused.run_compiled(&syn_un).unwrap());
    });
    let syn_ff_s = time_best(10, || {
        std::hint::black_box(sv_full_flush.run_compiled(&syn_ff).unwrap());
    });
    let syn_wl_s = time_best(10, || {
        std::hint::black_box(sv_wire_local.run_compiled(&syn_wl).unwrap());
    });
    entries.push(Entry {
        name: "syndrome_extraction_unfused".into(),
        detail: format!(
            "{syn_rounds} ancilla measure+reset rounds, 3 data pairs, dim {}; fusion OFF, \
             precompiled ({} unitary steps)",
            syn_circuit.total_dim(),
            syn_un.fusion_stats().unitary_steps_out
        ),
        baseline_s: None,
        optimized_s: syn_unfused_s,
    });
    entries.push(Entry {
        name: "syndrome_extraction_full_flush".into(),
        detail: format!(
            "same workload; fusion ON with the PR-2 global flush rule ({} -> {} apply steps, \
             0 barrier crossings) vs unfused",
            syn_ff_stats.unitaries_in, syn_ff_stats.unitary_steps_out
        ),
        baseline_s: Some(syn_unfused_s),
        optimized_s: syn_ff_s,
    });
    entries.push(Entry {
        name: "syndrome_extraction_wire_local".into(),
        detail: format!(
            "same workload; wire-local flushing ({} -> {} apply steps, {} barrier crossings) \
             vs the full-flush row — speedup is wire-local over full-flush",
            syn_wl_stats.unitaries_in,
            syn_wl_stats.unitary_steps_out,
            syn_wl_stats.barrier_crossings
        ),
        baseline_s: Some(syn_ff_s),
        optimized_s: syn_wl_s,
    });

    // --- Measurement kernel on an entangled state. -----------------------
    let ghz = {
        let mut c = qudit_circuit::Circuit::uniform(4, 3);
        c.push(qudit_circuit::Gate::fourier(3), &[0]).unwrap();
        for q in 0..3 {
            c.push(qudit_circuit::Gate::csum(3, 3), &[q, q + 1]).unwrap();
        }
        StatevectorSimulator::new().run(&c).unwrap()
    };
    let baseline_s = time_best(5, || {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let mut s = ghz.clone();
            std::hint::black_box(baseline::measure(&mut s, &[1, 2], &mut rng));
        }
    });
    let optimized_s = time_best(5, || {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let mut s = ghz.clone();
            std::hint::black_box(s.measure(&[1, 2], &mut rng).unwrap());
        }
    });
    entries.push(Entry {
        name: "measure_collapse".into(),
        detail: "200 two-qudit measurements on a 4-qutrit GHZ state".into(),
        baseline_s: Some(baseline_s),
        optimized_s,
    });

    // --- Lindblad RK4: in-place workspace vs PR-1 cloning integrator. ----
    let rho_dim = 6;
    let build_system = || {
        let mut sys = cavity_sim::lindblad::LindbladSystem::new(vec![rho_dim, rho_dim]).unwrap();
        let a = qudit_circuit::gates::annihilation(rho_dim);
        let hop = a.dagger().kron(&a);
        let hop_dag = hop.dagger();
        sys.add_hamiltonian_term(&(&hop + &hop_dag), &[0, 1], 1.0).unwrap();
        sys.add_collapse(&a, &[0], 0.2).unwrap();
        sys.add_collapse(&a, &[1], 0.2).unwrap();
        sys
    };
    // Matching full-space operators for the reconstructed cloning RK4.
    let (base_h, base_collapse) = {
        let sys = build_system();
        let radix = sys.radix().clone();
        let a = qudit_circuit::gates::annihilation(rho_dim);
        let l0 = qudit_core::radix::embed_operator(&radix, &a, &[0]).unwrap();
        let l1 = qudit_core::radix::embed_operator(&radix, &a, &[1]).unwrap();
        (sys.hamiltonian().clone(), vec![(l0, 0.2f64), (l1, 0.2f64)])
    };
    // Same measurement shape as BENCH_1 (system construction inside the
    // timed region) so the optimized column stays comparable.
    let baseline_s = time_best(3, || {
        let _sys = build_system();
        let mut rho =
            DensityMatrix::from_pure(&QuditState::basis(vec![rho_dim, rho_dim], &[2, 0]).unwrap());
        baseline::lindblad_evolve_cloning(&base_h, &base_collapse, &mut rho, 0.5, 0.01);
        std::hint::black_box(rho);
    });
    let optimized_s = time_best(3, || {
        let sys = build_system();
        let mut rho =
            DensityMatrix::from_pure(&QuditState::basis(vec![rho_dim, rho_dim], &[2, 0]).unwrap());
        sys.evolve(&mut rho, 0.5, 0.01).unwrap();
        std::hint::black_box(rho);
    });
    // Physics cross-check: both integrators land on the same state.
    {
        let sys = build_system();
        let mut a =
            DensityMatrix::from_pure(&QuditState::basis(vec![rho_dim, rho_dim], &[2, 0]).unwrap());
        sys.evolve(&mut a, 0.5, 0.01).unwrap();
        let mut b =
            DensityMatrix::from_pure(&QuditState::basis(vec![rho_dim, rho_dim], &[2, 0]).unwrap());
        baseline::lindblad_evolve_cloning(&base_h, &base_collapse, &mut b, 0.5, 0.01);
        let diff = (a.matrix() - b.matrix()).max_abs();
        assert!(diff < 1e-10, "integrators diverged by {diff}");
    }
    entries.push(Entry {
        name: "lindblad_evolve".into(),
        detail: format!(
            "two d={rho_dim} modes, 50 RK4 steps; in-place Rk4Workspace vs PR-1 cloning RK4"
        ),
        baseline_s: Some(baseline_s),
        optimized_s,
    });

    // --- Noisy density-matrix channels: superoperator batching. ----------
    // The Table-I workload under gate-level depolarising noise, evolved
    // exactly: every gate is followed by per-target Kraus channels, which the
    // PR-2 path materialises term by term (2m sweeps + m accumulations per
    // m-operator channel) and PR 3 batches into single superoperator sweeps
    // with channel-adjacent unitary folding.
    let dsim = DensityMatrixSimulator::new().with_noise(noise.clone());
    let dsim_per_term = DensityMatrixSimulator::new()
        .with_noise(noise.clone())
        .with_superop(SuperopConfig::disabled());
    let compiled_density = dsim.compile(&circuit).unwrap();
    let sstats = compiled_density.superop_stats();
    assert!(
        sstats.super_steps > 0 && sstats.multi_op_supers > 0,
        "superoperator batching must engage on the noisy Table-I workload: {sstats:?}"
    );
    // Physics cross-check: batched and per-term paths land on the same state.
    {
        let a = dsim.run_compiled(&compiled_density).unwrap();
        let b = dsim_per_term.run(&circuit).unwrap();
        let diff = (a.matrix() - b.matrix()).max_abs();
        assert!(diff < 1e-9, "superop/per-term runs diverged by {diff}");
    }
    let baseline_s = time_best(3, || {
        // PR-2 measurement method: per-call compile, per-term channels.
        std::hint::black_box(dsim_per_term.run(&circuit).unwrap());
    });
    let optimized_s = time_best(3, || {
        std::hint::black_box(dsim.run_compiled(&compiled_density).unwrap());
    });
    entries.push(Entry {
        name: "density_run_noisy".into(),
        detail: format!(
            "sQED {sites}x d={d}, {steps} Trotter steps, dim {dim} (rho {dim}x{dim}), \
             depolarizing noise; superop batching ON, precompiled ({} sweeps, {} multi-op, \
             max k {}) vs per-term Kraus path",
            sstats.super_steps, sstats.multi_op_supers, sstats.max_super_dim
        ),
        baseline_s: Some(baseline_s),
        optimized_s,
    });
    let percall_s = time_best(3, || {
        std::hint::black_box(dsim.run(&circuit).unwrap());
    });
    entries.push(Entry {
        name: "density_run_noisy_percall".into(),
        detail: "same workload; superop batching ON through plain run() (compile inside the \
                 timed region), isolating plan reuse from the batched sweeps"
            .into(),
        baseline_s: Some(baseline_s),
        optimized_s: percall_s,
    });

    // --- Runtime health guards: checkpoint overhead on the hot paths. ----
    // Both guarded rows run the *same* precompiled plan with invariant
    // checkpoints at the default cadence (fused NaN/Inf + norm scan on the
    // statevector; trace + hermiticity scan on vectorised rho). The
    // "baseline" column is the unguarded run re-measured back to back, so
    // the speedup column reads as inverted guard overhead: CI asserts it
    // stays >= 0.95 (guards cost at most ~5%) and that the guard engaged.
    let sv_guarded = StatevectorSimulator::new().with_guard(GuardConfig::enabled());
    let sv_guard_health = {
        let guarded = sv_guarded.run_compiled(&compiled_fused).unwrap();
        let clean = sv_fused.run_compiled(&compiled_fused).unwrap();
        assert!(
            guarded.health.checks_run >= 1,
            "guards must engage on the Table-I workload: {:?}",
            guarded.health
        );
        assert_eq!(
            guarded.state.amplitudes(),
            clean.state.amplitudes(),
            "a clean guarded run must be bitwise identical to the unguarded run"
        );
        guarded.health
    };
    let sv_unguarded_s = time_best(10, || {
        std::hint::black_box(sv_fused.run_compiled(&compiled_fused).unwrap());
    });
    let sv_guarded_s = time_best(10, || {
        std::hint::black_box(sv_guarded.run_compiled(&compiled_fused).unwrap());
    });
    entries.push(Entry {
        name: "statevector_run_guarded".into(),
        detail: format!(
            "same fused workload; invariant checkpoints every {} steps ({} checks/run, \
             Fail policy) vs the unguarded run — speedup is inverted guard overhead",
            GuardConfig::DEFAULT_CADENCE,
            sv_guard_health.checks_run
        ),
        baseline_s: Some(sv_unguarded_s),
        optimized_s: sv_guarded_s,
    });
    let dsim_guarded =
        DensityMatrixSimulator::new().with_noise(noise.clone()).with_guard(GuardConfig::enabled());
    let density_guard_health = {
        let (rho_g, health) = dsim_guarded.run_compiled_detailed(&compiled_density).unwrap();
        let rho_clean = dsim.run_compiled(&compiled_density).unwrap();
        assert!(
            health.checks_run >= 1,
            "guards must engage on the noisy density workload: {health:?}"
        );
        let diff = (rho_g.matrix() - rho_clean.matrix()).max_abs();
        assert!(diff == 0.0, "clean guarded density run drifted from unguarded by {diff}");
        health
    };
    let density_unguarded_s = time_best(3, || {
        std::hint::black_box(dsim.run_compiled(&compiled_density).unwrap());
    });
    let density_guarded_s = time_best(3, || {
        std::hint::black_box(dsim_guarded.run_compiled_detailed(&compiled_density).unwrap());
    });
    entries.push(Entry {
        name: "density_run_noisy_guarded".into(),
        detail: format!(
            "same superop-batched workload; trace/hermiticity checkpoints every {} steps \
             ({} checks/run, Fail policy) vs the unguarded run — speedup is inverted \
             guard overhead",
            GuardConfig::DEFAULT_CADENCE,
            density_guard_health.checks_run
        ),
        baseline_s: Some(density_unguarded_s),
        optimized_s: density_guarded_s,
    });

    // --- QAOA rebind sweep: one compiled plan rebound per angle set. -----
    // The variational-loop shape every parameter sweep in the workspace
    // shares: the circuit *structure* (targets, fusion blocks, stride plans)
    // is angle-independent, so the pre-PR-5 rebuild-per-step loop repaid the
    // whole compilation pipeline — per-gate generator eigendecompositions,
    // gate fusion, ApplyPlan construction, OpKind classification — on every
    // objective evaluation. The rebind path re-materialises only the
    // parameter-dependent (possibly fused) block operators in place.
    let layers = 3usize;
    let qaoa_problem = bench::table1_coloring_problem(5, 3);
    let qaoa = qopt::qaoa::QuditQaoa::new(
        qaoa_problem,
        qopt::qaoa::QaoaConfig { layers, ..Default::default() },
    );
    let ansatz = qaoa.ansatz().unwrap();
    let sweep_len = 24usize;
    let sweep: Vec<Vec<f64>> = (0..sweep_len)
        .map(|k| {
            let x = k as f64 / sweep_len as f64;
            (0..2 * layers).map(|i| 0.15 + 0.05 * i as f64 + 0.6 * x).collect()
        })
        .collect();
    let qaoa_sv = StatevectorSimulator::with_seed(33);
    let mut qaoa_plan = qaoa_sv.compile(&ansatz).unwrap();
    assert_eq!(qaoa_plan.num_params(), 2 * layers, "one gamma + one beta per layer");
    // Physics cross-check: rebind ≡ rebuild at 1e-12 across the sweep.
    for params in &sweep {
        let rebound = qaoa_sv.run_bound(&mut qaoa_plan, params).unwrap().state;
        let (g, b) = params.split_at(layers);
        let rebuilt = qaoa_sv.run(&qaoa.circuit(g, b).unwrap()).unwrap();
        let overlap = rebound.inner(&rebuilt).unwrap().abs();
        assert!((overlap - 1.0).abs() < 1e-12, "rebind/rebuild overlap {overlap}");
    }
    let qaoa_dim = ansatz.total_dim();
    let baseline_s = time_best(3, || {
        for params in &sweep {
            let (g, b) = params.split_at(layers);
            let circuit = qaoa.circuit(g, b).unwrap();
            std::hint::black_box(qaoa_sv.run(&circuit).unwrap());
        }
    });
    let optimized_s = time_best(3, || {
        for params in &sweep {
            std::hint::black_box(qaoa_sv.run_bound(&mut qaoa_plan, params).unwrap());
        }
    });
    // The parameter-dependent apply steps bind() actually re-materialises.
    let qaoa_rebound_steps = qaoa_plan.rebindable_steps();
    assert!(qaoa_rebound_steps >= 1, "the rebind path must engage on the QAOA ansatz");
    entries.push(Entry {
        name: "qaoa_rebind_sweep".into(),
        detail: format!(
            "{sweep_len}-step angle sweep, 5-node 3-coloring QAOA p={layers}, dim {qaoa_dim}; \
             compile once + bind per step ({} of {} apply steps rebindable, {} params) vs \
             rebuild + recompile per step",
            qaoa_rebound_steps,
            qaoa_plan.fusion_stats().unitary_steps_out,
            2 * layers
        ),
        baseline_s: Some(baseline_s),
        optimized_s,
    });

    // --- Batched ensemble execution: binding populations. ----------------
    // The same 24-point sweep evaluated as ONE ensemble call. `bind_batch`
    // realises every member's overlay up front, materialising each distinct
    // per-step parameter value once, then `run_ensemble` runs one column per
    // member through the serial kernel, fanned out across the worker pool.
    // The baseline is the PR-5 rebind loop (the previous row's optimized
    // path), which re-binds the plan handle per member on one thread.
    let qaoa_batch = qaoa_plan.bind_batch(&sweep).unwrap();
    // Bitwise contract cross-check: every ensemble column equals its serial
    // rebind twin exactly — same amplitudes, not just the same physics.
    {
        let columns = qaoa_sv.run_ensemble(&qaoa_plan, &qaoa_batch).unwrap();
        assert_eq!(columns.len(), sweep.len());
        for (params, column) in sweep.iter().zip(columns) {
            let column = column.unwrap();
            let serial = qaoa_sv.run_bound(&mut qaoa_plan, params).unwrap();
            assert_eq!(
                column.state.amplitudes(),
                serial.state.amplitudes(),
                "ensemble column must be bitwise identical to its serial rebind twin"
            );
        }
    }
    let population_serial_s = time_best(3, || {
        for params in &sweep {
            std::hint::black_box(qaoa_sv.run_bound(&mut qaoa_plan, params).unwrap());
        }
    });
    let population_ensemble_s = time_best(3, || {
        let batch = qaoa_plan.bind_batch(&sweep).unwrap();
        std::hint::black_box(qaoa_sv.run_ensemble(&qaoa_plan, &batch).unwrap());
    });
    // Population columns hold *distinct* states, so — unlike trajectories,
    // where one column serves a whole branch-prefix group — the flops are
    // irreducible and the single-thread ceiling is parity. The assert bounds
    // the call's overhead: it would catch a regression to strided
    // per-column kernels (0.5x), while the >=2x acceptance gate rides on the
    // batched_trajectories row below.
    assert!(
        population_serial_s / population_ensemble_s >= 0.65,
        "ensemble population pass must stay near serial parity \
         ({:.3} ms vs {:.3} ms)",
        population_ensemble_s * 1e3,
        population_serial_s * 1e3
    );
    entries.push(Entry {
        name: "ensemble_qaoa_population".into(),
        detail: format!(
            "{sweep_len}-member binding population, 5-node 3-coloring QAOA p={layers}, dim \
             {qaoa_dim}; one bind_batch + run_ensemble call (one serial-kernel column per \
             member over memoised binding overlays, columns fanned out across the worker \
             pool) vs the serial rebind loop on 1 thread (bitwise-identical columns asserted; \
             distinct states make parity the single-thread ceiling)"
        ),
        baseline_s: Some(population_serial_s),
        optimized_s: population_ensemble_s,
    });

    // --- Batched ensemble execution: trajectory shots. -------------------
    // Second consumer: the 64-shot noisy ensemble from the first row evolved
    // as lazily splitting branch-prefix groups. At 1e-3 gate error most
    // shots share one Kraus history for many steps, so one deterministic
    // step per group and per-group branch probabilities amortise almost all
    // the work; per-member RNG streams keep every shot bitwise identical to a
    // one-state run. Baseline is the true serial loop — one state vector at
    // a time on one thread, `StatevectorSimulator::run_compiled` per
    // trajectory seed — through the same precompiled plan.
    let traj_serial =
        TrajectorySimulator::new(n_traj).with_seed(7).with_noise(noise.clone()).with_threads(1);
    let traj_compiled = traj_serial.compile(&circuit).unwrap();
    // The trajectory simulator's per-index seed (see `TrajectorySimulator::
    // run_single`); the cross-check below pins the two together bitwise.
    let traj_seed = |t: usize| {
        7u64.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((t as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
    };
    let serial_loop = || {
        let values: Vec<f64> = (0..n_traj)
            .map(|t| {
                let out = StatevectorSimulator::with_seed(traj_seed(t))
                    .with_noise(noise.clone())
                    .run_compiled(&traj_compiled)
                    .unwrap();
                obs.expectation(&out.state).unwrap()
            })
            .collect();
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, (var / n).sqrt())
    };
    for t in 0..n_traj {
        let looped = StatevectorSimulator::with_seed(traj_seed(t))
            .with_noise(noise.clone())
            .run_compiled(&traj_compiled)
            .unwrap();
        let oracle = traj_serial.run_single(&circuit, t).unwrap();
        assert_eq!(
            looped.state.amplitudes(),
            oracle.amplitudes(),
            "serial-loop trajectory {t} must be bitwise identical to run_single"
        );
    }
    let (serial_mean, serial_std_error) = serial_loop();
    let batched_est = traj_serial.expectation_compiled(&traj_compiled, &obs).unwrap();
    assert_eq!(
        serial_mean.to_bits(),
        batched_est.mean.to_bits(),
        "batched trajectory mean must be bitwise identical to the serial loop \
         ({} vs {})",
        serial_mean,
        batched_est.mean
    );
    assert_eq!(
        serial_std_error.to_bits(),
        batched_est.std_error.to_bits(),
        "batched trajectory std error must be bitwise identical to the serial loop \
         ({} vs {})",
        serial_std_error,
        batched_est.std_error
    );
    let trajectories_serial_s = time_best(3, || {
        std::hint::black_box(serial_loop());
    });
    let trajectories_batched_s = time_best(3, || {
        std::hint::black_box(traj_serial.expectation_compiled(&traj_compiled, &obs).unwrap());
    });
    assert!(
        trajectories_serial_s / trajectories_batched_s >= 2.0,
        "batched trajectories must be >= 2x the serial loop \
         ({:.3} ms vs {:.3} ms)",
        trajectories_batched_s * 1e3,
        trajectories_serial_s * 1e3
    );
    entries.push(Entry {
        name: "batched_trajectories".into(),
        detail: format!(
            "{n_traj} trajectories, sQED {sites}x d={d}, {steps} Trotter steps, depolarizing \
             noise; branch-prefix group executor vs a one-state-at-a-time run_compiled \
             loop over the same plan on 1 thread (bitwise-identical estimate asserted, \
             loop states pinned to run_single)"
        ),
        baseline_s: Some(trajectories_serial_s),
        optimized_s: trajectories_batched_s,
    });

    // --- par_map spawn overhead: persistent pool vs scoped threads. ------
    // Many small calls with trivial per-item work measure the per-call
    // fork-join cost, which is what the pool eliminates.
    let calls = 200;
    let items = 64;
    for threads in [1usize, 2, 4] {
        let work = |i: usize| std::hint::black_box((i as u64).wrapping_mul(0x9E37_79B9));
        // Warm both paths (pool spawn happens once, outside the timing).
        std::hint::black_box(qudit_core::par::par_map_threads(items, threads, work));
        std::hint::black_box(baseline::par_map_scoped(items, threads, work));
        let baseline_s = time_best(5, || {
            for _ in 0..calls {
                std::hint::black_box(baseline::par_map_scoped(items, threads, work));
            }
        });
        let optimized_s = time_best(5, || {
            for _ in 0..calls {
                std::hint::black_box(qudit_core::par::par_map_threads(items, threads, work));
            }
        });
        entries.push(Entry {
            name: format!("par_map_overhead_t{threads}"),
            detail: format!(
                "{calls} calls x {items} items at {threads} thread(s); persistent pool vs \
                 scoped spawn-per-call"
            ),
            baseline_s: Some(baseline_s),
            optimized_s,
        });
    }

    // --- Serving layer: shared plan cache on a mixed workload. -----------
    // The serving-layer shape of the rebind story: topologically identical
    // requests (a QAOA parameter sweep plus noisy reservoir probes) differ
    // only in bindings, so one compiled plan per backend serves the whole
    // batch. The baseline engine runs the same jobs with the plan cache
    // disabled, paying the full compilation pipeline per request.
    let serve_workers = 4usize;
    let serve_pairs = 12usize;
    let serve_layers = 8usize;
    let serve_noise = NoiseModel::depolarizing(0.01, 0.005);
    let serve_sv_circuit = serve_param_circuit(serve_layers);
    let serve_density_circuit = serve_reservoir_circuit(2, 10);
    let serve_thetas =
        |i: usize| -> Vec<f64> { (0..serve_layers).map(|l| 0.1 + 0.15 * (i + l) as f64).collect() };
    let run_mixed = |capacity: usize| -> (Vec<Vec<f64>>, ServeStats) {
        let engine = ServeEngine::start(
            ServeConfig::default()
                .with_workers(serve_workers)
                .with_plan_cache_capacity(capacity)
                .with_noise(serve_noise.clone())
                .with_seed(17),
        );
        let mut handles = Vec::new();
        for i in 0..serve_pairs {
            let spec = JobSpec::statevector(serve_sv_circuit.clone()).with_params(serve_thetas(i));
            handles.push(engine.submit(spec).unwrap());
            handles.push(engine.submit(JobSpec::density(serve_density_circuit.clone())).unwrap());
        }
        let results = handles
            .iter()
            .map(|h| match h.wait() {
                JobOutcome::Completed(values) => values,
                other => panic!("serve job did not complete: {other:?}"),
            })
            .collect();
        (results, engine.stats())
    };
    // Determinism cross-check: cached and compile-per-request engines assign
    // the same per-job seeds, so every outcome must match bitwise; the cached
    // engine must compile exactly once per backend.
    let (cached_results, serve_stats) = run_mixed(32);
    let (percompile_results, percompile_stats) = run_mixed(0);
    assert_eq!(cached_results, percompile_results, "plan cache changed job results");
    assert_eq!(
        (serve_stats.statevector_cache.misses, serve_stats.density_cache.misses),
        (1, 1),
        "the sweep must share one compiled plan per backend: {serve_stats:?}"
    );
    assert_eq!(
        (percompile_stats.statevector_cache.hits, percompile_stats.density_cache.hits),
        (0, 0),
        "a zero-capacity cache must never hit: {percompile_stats:?}"
    );
    // The PR-9 coalescer: queued same-plan statevector jobs must actually
    // merge into ensemble passes (which is also why sv cache *hits* can be
    // zero now — one batched lookup serves the whole group).
    assert!(
        serve_stats.batches >= 1 && serve_stats.batched_jobs > serve_stats.batches,
        "statevector job coalescing must engage on the mixed workload: {serve_stats:?}"
    );
    let serve_cached_s = time_best(3, || {
        std::hint::black_box(run_mixed(32));
    });
    let serve_percompile_s = time_best(3, || {
        std::hint::black_box(run_mixed(0));
    });
    assert!(
        serve_percompile_s / serve_cached_s >= 2.0,
        "cached-plan throughput must be >= 2x compile-per-request \
         ({:.3} ms vs {:.3} ms)",
        serve_cached_s * 1e3,
        serve_percompile_s * 1e3
    );
    entries.push(Entry {
        name: "serve_mixed_workload".into(),
        detail: format!(
            "{} mixed jobs ({serve_pairs}-point QAOA sweep dim {} + {serve_pairs} noisy \
             reservoir probes dim {}) on {serve_workers} workers; shared single-flight plan \
             cache (1 compile per backend) vs compile-per-request",
            2 * serve_pairs,
            serve_sv_circuit.total_dim(),
            serve_density_circuit.total_dim()
        ),
        baseline_s: Some(serve_percompile_s),
        optimized_s: serve_cached_s,
    });

    // --- Serving layer: cancellation latency on an in-flight job. --------
    // Cancellation is observed at guard-cadence checkpoints, so the contract
    // is relative: from `cancel()` to the job resolving `Cancelled` must take
    // at most two cadence intervals of this workload's own per-step time.
    let cancel_cadence = GuardConfig::DEFAULT_CADENCE;
    let cancel_circuit = serve_reservoir_circuit(4, 60);
    let cancel_steps = DensityMatrixSimulator::new()
        .with_noise(serve_noise.clone())
        .compile(&cancel_circuit)
        .unwrap()
        .num_steps();
    let cancel_engine = ServeEngine::start(
        ServeConfig::default()
            .with_workers(1)
            .with_guard(GuardConfig::enabled())
            .with_noise(serve_noise.clone())
            .with_seed(17),
    );
    let cancel_full_s = time_best(3, || {
        let handle = cancel_engine.submit(JobSpec::density(cancel_circuit.clone())).unwrap();
        match handle.wait() {
            JobOutcome::Completed(_) => {}
            other => panic!("uncancelled reference job failed: {other:?}"),
        }
    });
    let cancel_interval_s = cancel_full_s / cancel_steps as f64 * cancel_cadence as f64;
    let cancel_budget_s = 2.0 * cancel_interval_s;
    let mut cancel_latency_s = f64::INFINITY;
    for _ in 0..5 {
        let handle = cancel_engine.submit(JobSpec::density(cancel_circuit.clone())).unwrap();
        // Let the single worker get well into the run before cancelling.
        std::thread::sleep(Duration::from_secs_f64(cancel_full_s * 0.4));
        let start = Instant::now();
        handle.cancel();
        let outcome = handle.wait();
        let latency = start.elapsed().as_secs_f64();
        assert!(
            matches!(outcome, JobOutcome::Cancelled(_)),
            "expected mid-run cancellation, got {outcome:?}"
        );
        cancel_latency_s = cancel_latency_s.min(latency);
    }
    assert!(
        cancel_latency_s <= cancel_budget_s,
        "cancellation latency {:.3} ms exceeds 2 cadence intervals ({:.3} ms; \
         {cancel_steps} steps in {:.3} ms, cadence {cancel_cadence})",
        cancel_latency_s * 1e3,
        cancel_budget_s * 1e3,
        cancel_full_s * 1e3
    );
    entries.push(Entry {
        name: "serve_cancellation_latency".into(),
        detail: format!(
            "cancel() on an in-flight noisy density job (dim {}, {cancel_steps} exec steps, \
             cadence {cancel_cadence}); latency vs the full uncancelled run — budget is \
             2 cadence intervals = {:.3} ms",
            cancel_circuit.total_dim(),
            cancel_budget_s * 1e3
        ),
        baseline_s: Some(cancel_full_s),
        optimized_s: cancel_latency_s,
    });

    // --- Report. ---------------------------------------------------------
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.name.clone(),
                e.baseline_s.map_or("-".into(), |b| format!("{:.3}", b * 1e3)),
                format!("{:.3}", e.optimized_s * 1e3),
                e.speedup().map_or("-".into(), |s| format!("{s:.2}x")),
            ]
        })
        .collect();
    print_table(
        "PR 9 kernel benchmarks (best-of-N wall clock)",
        &["kernel", "baseline ms", "optimized ms", "speedup"],
        &rows,
    );

    // --- BENCH_9.json (hand-rolled: no JSON dependency offline). ---------
    let mut json = String::from("{\n  \"bench\": 9,\n");
    json.push_str(&format!(
        "  \"workload\": {{\"circuit\": \"small_sqed_circuit\", \"sites\": {sites}, \"link_dim\": {d}, \"trotter_steps\": {steps}, \"dim\": {dim}}},\n"
    ));
    json.push_str(&format!(
        "  \"fusion\": {{\"unitaries_in\": {}, \"unitary_steps_out\": {}, \"multi_gate_blocks\": {}, \"max_block_dim\": {}}},\n",
        stats.unitaries_in, stats.unitary_steps_out, stats.multi_gate_blocks, stats.max_block_dim
    ));
    json.push_str(&format!(
        "  \"syndrome_fusion\": {{\"rounds\": {syn_rounds}, \"dim\": {}, \"unitaries_in\": {}, \"wire_local_unitary_steps\": {}, \"full_flush_unitary_steps\": {}, \"unfused_unitary_steps\": {}, \"barrier_crossings\": {}, \"multi_gate_blocks\": {}}},\n",
        syn_circuit.total_dim(),
        syn_wl_stats.unitaries_in,
        syn_wl_stats.unitary_steps_out,
        syn_ff_stats.unitary_steps_out,
        syn_un.fusion_stats().unitary_steps_out,
        syn_wl_stats.barrier_crossings,
        syn_wl_stats.multi_gate_blocks
    ));
    json.push_str(&format!(
        "  \"superop\": {{\"super_steps\": {}, \"multi_op_supers\": {}, \"ops_folded\": {}, \"unitary_steps\": {}, \"kraus_steps\": {}, \"max_super_dim\": {}}},\n",
        sstats.super_steps,
        sstats.multi_op_supers,
        sstats.ops_folded,
        sstats.unitary_steps,
        sstats.kraus_steps,
        sstats.max_super_dim
    ));
    json.push_str(&format!(
        "  \"rebind\": {{\"sweep_len\": {sweep_len}, \"num_params\": {}, \"rebindable_steps\": {}, \"dim\": {qaoa_dim}}},\n",
        qaoa_plan.num_params(),
        qaoa_rebound_steps
    ));
    json.push_str(&format!(
        "  \"guard\": {{\"cadence\": {}, \"tol\": {:e}, \"statevector_checks_run\": {}, \"density_checks_run\": {}, \"renormalizations\": {}, \"fallbacks\": {}}},\n",
        GuardConfig::DEFAULT_CADENCE,
        GuardConfig::DEFAULT_TOL,
        sv_guard_health.checks_run,
        density_guard_health.checks_run,
        sv_guard_health.renormalizations + density_guard_health.renormalizations,
        sv_guard_health.fallbacks + density_guard_health.fallbacks
    ));
    json.push_str(&format!(
        "  \"serve\": {{\"workers\": {serve_workers}, \"jobs\": {}, \"plan_cache_capacity\": 32, \"sv_cache_hits\": {}, \"sv_cache_misses\": {}, \"density_cache_hits\": {}, \"density_cache_misses\": {}, \"batches\": {}, \"batched_jobs\": {}, \"cancel_steps\": {cancel_steps}, \"cancel_cadence\": {cancel_cadence}, \"cancel_budget_ms\": {:.3}}},\n",
        2 * serve_pairs,
        serve_stats.statevector_cache.hits,
        serve_stats.statevector_cache.misses,
        serve_stats.density_cache.hits,
        serve_stats.density_cache.misses,
        serve_stats.batches,
        serve_stats.batched_jobs,
        cancel_budget_s * 1e3
    ));
    json.push_str(&format!(
        "  \"ensemble\": {{\"population\": {sweep_len}, \"trajectories\": {n_traj}, \"chunk\": 64, \"serial_population_ms\": {:.3}, \"ensemble_population_ms\": {:.3}, \"serial_trajectories_ms\": {:.3}, \"batched_trajectories_ms\": {:.3}}},\n",
        population_serial_s * 1e3,
        population_ensemble_s * 1e3,
        trajectories_serial_s * 1e3,
        trajectories_batched_s * 1e3
    ));
    json.push_str(&format!("  \"threads\": {},\n", qudit_core::par::max_threads()));
    json.push_str(&format!("  \"pool_workers\": {},\n", qudit_core::par::pool_workers()));
    json.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"detail\": \"{}\", \"baseline_ms\": {}, \"optimized_ms\": {:.3}, \"speedup\": {}}}{}\n",
            e.name,
            e.detail,
            e.baseline_s.map_or("null".into(), |b| format!("{:.3}", b * 1e3)),
            e.optimized_s * 1e3,
            e.speedup().map_or("null".into(), |s| format!("{s:.2}")),
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_9.json", &json).expect("write BENCH_9.json");
    println!("\nwrote BENCH_9.json");
}
