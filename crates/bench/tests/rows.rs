//! Result checks for the `bench_kernels` rows, on each row's own workload
//! instance (`bench::rows`): the harness only times, so these tests are what
//! guarantees that a row's optimized path computes the same thing as its
//! baseline, and that the optimisation it claims to time engages.

use bench::{baseline, rows, syndrome_extraction_circuit};
use qudit_circuit::sim::{
    DensityMatrixSimulator, FusionConfig, GuardConfig, StatevectorSimulator, SuperopConfig,
};

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
