//! Result checks for the `bench_kernels` rows, on each row's own workload
//! instance (`bench::rows`): the harness only times, so these tests are what
//! guarantees that a row's optimized path computes the same thing as its
//! baseline, and that the optimisation it claims to time engages.

use bench::{baseline, rows, syndrome_extraction_circuit};
use qudit_circuit::sim::{
    DensityMatrixSimulator, FusionConfig, GuardConfig, StatevectorSimulator, SuperopConfig,
};
use qudit_core::{c64, ApplyPlan, CMatrix, Complex64, OpKind, Radix, RowCompressed};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn assert_same_state(a: &qudit_core::QuditState, b: &qudit_core::QuditState, tol: f64) {
    let overlap = a.inner(b).unwrap().abs();
    assert!((overlap - 1.0).abs() < tol, "overlap {overlap}");
}

#[test]
fn fusion_engages_on_the_sqed_workload_and_matches_unfused() {
    // `statevector_run` and `statevector_run_fusion_off`.
    let circuit = rows::sqed();
    let sim = StatevectorSimulator::new();
    let plan = sim.compile(&circuit).unwrap();
    let stats = plan.fusion_stats();
    assert!(stats.multi_gate_blocks > 0, "{stats:?}");
    assert!(stats.unitary_steps_out < stats.unitaries_in, "{stats:?}");
    let unfused = StatevectorSimulator::new().with_fusion(FusionConfig::disabled());
    let fused_state = sim.run_compiled(&plan, None).unwrap().state;
    assert_same_state(&fused_state, &unfused.run(&circuit).unwrap(), 1e-9);
    let unfused_plan = unfused.compile(&circuit).unwrap();
    assert_same_state(
        &fused_state,
        &unfused.run_compiled(&unfused_plan, None).unwrap().state,
        1e-9,
    );
}

#[test]
fn superop_batching_engages_and_matches_the_per_term_path() {
    // `density_run_noisy` and `density_run_noisy_percall`.
    let circuit = rows::sqed();
    let sim = DensityMatrixSimulator::new().with_noise(rows::noise());
    let plan = sim.compile(&circuit).unwrap();
    let stats = plan.superop_stats();
    assert!(stats.super_steps > 0 && stats.multi_op_supers > 0, "{stats:?}");
    let (batched, _) = sim.run_compiled(&plan, None).unwrap();
    let per_term = sim.clone().with_superop(SuperopConfig::disabled()).run(&circuit).unwrap();
    let diff = (batched.matrix() - per_term.matrix()).max_abs();
    assert!(diff < 1e-9, "superop and per-term runs diverged by {diff}");
    let percall = sim.run(&circuit).unwrap();
    assert_eq!(percall.matrix(), batched.matrix());
}

#[test]
fn compressed_loss_sweep_matches_the_dense_sweep() {
    // `superop_sweep_sparse`: the superoperator is dense by class but
    // mostly zeros, and both sides compute the same sweep.
    let w = rows::loss_sweep();
    assert_eq!(w.kind, qudit_core::OpKind::Dense);
    assert_eq!(w.compressed.nnz(), 55, "photon loss at d = 5 has 55 nonzero superop entries");
    let mut dense = w.rho.matrix().as_slice().to_vec();
    w.plan.apply(&w.kind, &w.sup, &mut dense, 1, &mut Vec::new()).unwrap();
    let mut sparse = w.rho.matrix().as_slice().to_vec();
    w.plan.apply_compressed(&w.compressed, &mut sparse, 1, &mut Vec::new()).unwrap();
    let diff = dense.iter().zip(&sparse).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
    assert!(diff < 1e-12, "compressed and dense sweeps differ by {diff}");
    assert!(dense != w.rho.matrix().as_slice(), "the sweep must change the excited state");
}

#[test]
fn wire_local_syndrome_plan_crosses_readouts_and_matches_unfused() {
    // `syndrome_extraction_wire_local`.
    let (rounds, seed) = rows::SYNDROME;
    let circuit = syndrome_extraction_circuit(rounds);
    let fused = StatevectorSimulator::with_seed(seed);
    let unfused = StatevectorSimulator::with_seed(seed).with_fusion(FusionConfig::disabled());
    let (fused_plan, unfused_plan) =
        (fused.compile(&circuit).unwrap(), unfused.compile(&circuit).unwrap());
    let stats = fused_plan.fusion_stats();
    assert!(stats.barrier_crossings > 0, "{stats:?}");
    assert!(stats.unitary_steps_out < unfused_plan.fusion_stats().unitary_steps_out, "{stats:?}");
    let a = fused.run_compiled(&fused_plan, None).unwrap();
    let b = unfused.run_compiled(&unfused_plan, None).unwrap();
    assert_eq!(a.measurements, b.measurements, "readout records must be bitwise identical");
    assert_same_state(&a.state, &b.state, 1e-9);
}

#[test]
fn qaoa_rebind_matches_rebuild_across_the_sweep() {
    // `qaoa_rebind_sweep` and `ensemble_qaoa_population`.
    let (layers, _, seed) = rows::QAOA;
    let qaoa = rows::qaoa();
    let sim = StatevectorSimulator::with_seed(seed);
    let mut plan = sim.compile(&qaoa.ansatz().unwrap()).unwrap();
    assert_eq!(plan.num_params(), 2 * layers, "one gamma and one beta per layer");
    assert!(plan.rebindable_steps() >= 1);
    for params in rows::qaoa_sweep() {
        plan.bind(&params).unwrap();
        let rebound = sim.run_compiled(&plan, None).unwrap().state;
        let (g, b) = params.split_at(layers);
        let rebuilt = sim.run(&qaoa.circuit(g, b).unwrap()).unwrap();
        assert_same_state(&rebound, &rebuilt, 1e-12);
    }
}

#[test]
fn clean_guarded_runs_are_bitwise_identical_on_both_backends() {
    // `statevector_run_guarded` and `density_run_noisy_guarded`.
    let circuit = rows::sqed();
    let sv = StatevectorSimulator::new();
    let plan = sv.compile(&circuit).unwrap();
    let guarded = sv.clone().with_guard(GuardConfig::enabled()).run_compiled(&plan, None).unwrap();
    let clean = sv.run_compiled(&plan, None).unwrap();
    assert!(guarded.health.checks_run >= 1, "{:?}", guarded.health);
    assert_eq!((guarded.health.renormalizations, guarded.health.fallbacks), (0, 0));
    assert_eq!(guarded.state.amplitudes(), clean.state.amplitudes());

    let dm = DensityMatrixSimulator::new().with_noise(rows::noise()).with_threads(1);
    let plan = dm.compile(&circuit).unwrap();
    let (rho, health) =
        dm.clone().with_guard(GuardConfig::enabled()).run_compiled(&plan, None).unwrap();
    assert!(health.checks_run >= 1, "{health:?}");
    assert_eq!((health.renormalizations, health.fallbacks), (0, 0));
    assert_eq!(rho.matrix(), dm.run_compiled(&plan, None).unwrap().0.matrix());
}

#[test]
fn cached_and_compile_per_request_serving_agree_bitwise() {
    // `serve_mixed_workload`: both engines assign the same per-job seeds.
    let (cached, stats) = rows::serve_mix(32);
    let (percompile, percompile_stats) = rows::serve_mix(0);
    assert_eq!(cached, percompile, "the plan cache changed job results");
    let (sv, dm) = (stats.statevector_cache, stats.density_cache);
    assert_eq!((sv.misses, dm.misses), (1, 1), "one compile per back-end: {stats:?}");
    assert!(sv.hits >= 1 && dm.hits >= 1, "every job consults the cache: {stats:?}");
    let (sv, dm) = (percompile_stats.statevector_cache, percompile_stats.density_cache);
    assert_eq!((sv.hits, dm.hits), (0, 0), "a zero-capacity cache never hits");
}

#[test]
fn ndar_shot_sampling_matches_the_per_shot_baseline_bitwise() {
    // `ndar_shot_sampling`: both sides draw the same assignments.
    let (qaoa, noise) = (rows::ndar_qaoa(), rows::ndar_noise());
    let (_, _, seed, round) = rows::NDAR;
    let (gammas, betas) = rows::NDAR_ANGLES;
    for shots in round {
        let fast = qaoa.sample_assignments(&gammas, &betas, &noise, shots).unwrap();
        let slow = baseline::ndar_shot_sampling(&qaoa, seed, (&gammas, &betas), &noise, shots);
        assert_eq!(fast, slow, "{shots} shots");
    }
}

#[test]
fn sampled_dynamics_is_bitwise_the_per_sample_baseline() {
    // `sqed_sampled_dynamics`: the default protocol continues at every
    // sample, and the signal is bitwise the per-sample loop's.
    let (h, noise) = (rows::sqed_chain(), rows::noise());
    let protocol = lgt::massgap::DynamicsProtocol::default();
    let got = lgt::massgap::run_dynamics(&h, 1, &protocol, &noise).unwrap();
    let want = baseline::run_dynamics_per_sample(&h, 1, &protocol, &noise);
    let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.signal), bits(&want));
}

#[test]
fn small_stride_kernel_mix_is_bitwise_the_per_block_baseline() {
    // `small_stride_kernels`: both sides walk the same NDAR kernel mix.
    let mix = rows::kernel_mix();
    let norm = |z: Complex64| z.norm_sqr();
    let (mut got, mut got_marginals, mut scratch) = (mix.amps.clone(), Vec::new(), Vec::new());
    mix.run(
        &mut got,
        &mut got_marginals,
        |plan, kind, op, data| plan.apply(kind, op, data, &mut scratch).unwrap(),
        |plan, data, probs| plan.marginal_probabilities_into(data, norm, probs),
    );
    let (mut want, mut want_marginals, mut scratch) = (mix.amps.clone(), Vec::new(), Vec::new());
    mix.run(
        &mut want,
        &mut want_marginals,
        |plan, kind, op, data| baseline::apply_per_block(plan, kind, op, data, &mut scratch),
        |plan, data, probs| baseline::marginal_per_block(plan, data, norm, probs),
    );
    assert_eq!(bits(&got), bits(&want));
    let to_bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(to_bits(&got_marginals), to_bits(&want_marginals));
    assert_eq!(got_marginals.len(), 6 * 3, "one marginal per wire");
    let kinds: Vec<&OpKind> =
        mix.wires.iter().flat_map(|(_, ops)| ops.iter().map(|op| &op.0)).collect();
    assert!(kinds.contains(&&OpKind::Dense), "the mixer runs the dense arm");
    assert!(kinds.iter().any(|k| matches!(k, OpKind::Monomial { .. })), "jumps are monomial");
    assert!(mix.pairs.iter().all(|p| matches!(p.1, OpKind::Diagonal(_))), "pair phases");
}

/// Bit patterns of a complex slice, so `-0.0` and `0.0` differ.
fn bits(xs: &[Complex64]) -> Vec<(u64, u64)> {
    xs.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

fn entry(rng: &mut StdRng) -> Complex64 {
    c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
}

/// Seeded amplitudes with exact (and negative) zeros mixed in, so a kernel
/// that changed how an output starts its sum would flip a zero's sign.
fn random_amps(rng: &mut StdRng, n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|_| match rng.gen_range(0..8) {
            0 => c64(0.0, -0.0),
            1 => c64(-0.0, 0.0),
            _ => entry(rng),
        })
        .collect()
}

/// The operators of every kernel arm on a `k`-dimensional target subspace:
/// diagonal, injective monomial, non-injective monomial with a zero column,
/// and (for `k` small enough to store densely) a dense operator with some
/// exact zeros.
fn kernel_operators(rng: &mut StdRng, k: usize) -> Vec<CMatrix> {
    let diag: Vec<_> = (0..k).map(|_| entry(rng)).collect();
    let mut ops = vec![CMatrix::diag(&diag)];
    if k >= 2 {
        let mut perm: Vec<usize> = (0..k).collect();
        perm.shuffle(rng);
        let mut mono = CMatrix::zeros(k, k);
        for (c, &r) in perm.iter().enumerate() {
            mono[(r, c)] = entry(rng);
        }
        ops.push(mono);
        // Column 0 stays zero and columns 0 and 1 share row 0.
        let mut collide = CMatrix::zeros(k, k);
        for c in 2..k {
            collide[(rng.gen_range(0..k), c)] = entry(rng);
        }
        collide[(0, 1)] = entry(rng);
        ops.push(collide);
    }
    if k <= 150 {
        ops.push(CMatrix::from_fn(k, k, |_, _| {
            if rng.gen_range(0..5) == 0 {
                Complex64::ZERO
            } else {
                entry(rng)
            }
        }));
    }
    ops
}

/// Target shapes on an `n`-qudit register: every single wire, adjacent
/// ascending and descending pairs, non-adjacent pairs, a two- and
/// three-qudit register suffix, and the whole register.
fn target_shapes(n: usize) -> Vec<Vec<usize>> {
    let mut shapes: Vec<Vec<usize>> = (0..n).map(|w| vec![w]).collect();
    for w in 0..n.saturating_sub(1) {
        shapes.push(vec![w, w + 1]);
        shapes.push(vec![w + 1, w]);
    }
    for w in 0..n.saturating_sub(2) {
        shapes.push(vec![w, w + 2]);
        shapes.push(vec![w + 2, w]);
    }
    for len in [2, 3] {
        if n >= len {
            shapes.push((n - len..n).collect());
        }
    }
    shapes.push((0..n).collect());
    shapes
}

/// Checks every run-form `ApplyPlan` kernel on one plan against its
/// per-block reference in `bench::baseline`, at `threads` pool threads.
fn check_plan_bitwise(rng: &mut StdRng, radix: &Radix, targets: &[usize], threads: usize) {
    let plan = ApplyPlan::new(radix, targets).unwrap();
    let amps = random_amps(rng, radix.total_dim());
    let case = format!("dims {:?}, targets {targets:?}, {threads} thread(s)", radix.dims());
    for op in kernel_operators(rng, plan.sub_dim()) {
        let kind = OpKind::classify(&op);
        let mut want = amps.clone();
        baseline::apply_per_block(&plan, &kind, &op, &mut want, &mut Vec::new());
        let mut got = amps.clone();
        plan.apply_parallel(&kind, &op, &mut got, threads, &mut Vec::new()).unwrap();
        assert_eq!(bits(&got), bits(&want), "{case}, {kind:?}");
        if kind == OpKind::Dense {
            let rc = RowCompressed::from_dense(&op, Complex64::ONE);
            let mut want = amps.clone();
            baseline::apply_compressed_per_block(&plan, &rc, &mut want);
            let mut got = amps.clone();
            plan.apply_compressed(&rc, &mut got, threads, &mut Vec::new()).unwrap();
            assert_eq!(bits(&got), bits(&want), "{case}, compressed");
        }
    }
    let weights: [fn(Complex64) -> f64; 2] = [|z| z.norm_sqr(), |z| z.re];
    for weight in weights {
        let mut got = Vec::new();
        plan.marginal_probabilities_into(&amps, weight, &mut got);
        let mut want = Vec::new();
        baseline::marginal_per_block(&plan, &amps, weight, &mut want);
        let to_bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(to_bits(&got), to_bits(&want), "{case}, marginal");
    }
    for outcome in [0, plan.sub_dim() - 1] {
        let (mut got, mut want) = (amps.clone(), amps.clone());
        plan.collapse(&mut got, outcome);
        baseline::collapse_per_block(&plan, &mut want, outcome);
        assert_eq!(bits(&got), bits(&want), "{case}, collapse to {outcome}");
    }
}

#[test]
fn run_form_kernels_are_bitwise_the_per_block_walk() {
    // Seeded mixed-radix registers, dims 2–5, 1–6 qudits; every target
    // shape and every kernel arm, serial.
    let mut rng = StdRng::seed_from_u64(0x5EED_0A11);
    for n in 1..=6 {
        for _ in 0..2 {
            let dims: Vec<usize> = (0..n).map(|_| rng.gen_range(2..=5)).collect();
            let radix = Radix::new(dims).unwrap();
            for targets in target_shapes(n) {
                check_plan_bitwise(&mut rng, &radix, &targets, 1);
            }
        }
    }
}

#[test]
fn parallel_run_form_kernels_split_mid_run_and_stay_bitwise() {
    // A register large enough that `apply_parallel` dispatches, on targets
    // whose unit split at 2 and 3 threads cuts through spectator runs, so
    // those chunks walk one block at a time.
    let mut rng = StdRng::seed_from_u64(0x0DD_5EED);
    let radix = Radix::new(vec![5, 5, 5, 4, 4, 3, 3]).unwrap();
    for targets in [vec![2], vec![1, 3], vec![3, 2], vec![0, 1], vec![3], vec![5, 6]] {
        let plan = ApplyPlan::new(&radix, &targets).unwrap();
        let last = targets.iter().copied().max().unwrap();
        let run: usize = radix.dims()[last + 1..].iter().product();
        for threads in [2, 3] {
            let per = plan.spectator_count() / threads;
            assert!(
                run == 1 || !per.is_multiple_of(run),
                "targets {targets:?} split on run boundaries"
            );
            check_plan_bitwise(&mut rng, &radix, &targets, threads);
        }
    }
}
