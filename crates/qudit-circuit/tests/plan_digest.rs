//! Pins the compiled plans of a seeded mixed-radix corpus bit for bit.
//!
//! Every statevector and density plan the corpus compiles to is folded into
//! an FNV-1a digest through `sim::introspect`: each step's view (targets,
//! classification, operator bits, compressed form, fallback count, defect
//! allowance, attached channels), its source instructions or folded items,
//! every item's provenance, and both stats structs. The corpus mixes
//! diagonal, monomial and dense gates, free-parameter gates, gate-level
//! noise, explicit channels, measurements, resets and lossy barriers, and is
//! compiled under the default configs, with fusion off, with superoperator
//! batching off, and across the fusion and superoperator budget sweeps of
//! `fusion_props` and `superop_props`.
//!
//! A refactor of the compile passes that claims to keep plans identical
//! must leave every pinned digest unchanged. A digest that moves means some
//! step, member list, operator, compressed form or counter changed; the
//! failure message prints the new table.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qudit_circuit::noise::{KrausChannel, NoiseModel};
use qudit_circuit::sim::introspect::{self, DensityRole, DensityStepView, StepView};
use qudit_circuit::sim::{
    DensityMatrixSimulator, FusionConfig, FusionStats, StatevectorSimulator, SuperopConfig,
    SuperopStats,
};
use qudit_circuit::{Circuit, Gate, Param};
use qudit_core::apply::OpKind;
use qudit_core::matrix::CMatrix;
use qudit_core::random::haar_unitary;
use qudit_core::Complex64;

/// FNV-1a over 64-bit words: stable across Rust releases, unlike
/// `DefaultHasher`.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn c64(&mut self, z: Complex64) {
        self.f64(z.re);
        self.f64(z.im);
    }

    fn list(&mut self, v: &[usize]) {
        self.usize(v.len());
        v.iter().for_each(|&x| self.usize(x));
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        s.bytes().for_each(|b| self.word(u64::from(b)));
    }

    fn matrix(&mut self, m: &CMatrix) {
        self.usize(m.rows());
        self.usize(m.cols());
        m.as_slice().iter().for_each(|&z| self.c64(z));
    }

    fn kind(&mut self, kind: &OpKind) {
        match kind {
            OpKind::Diagonal(diag) => {
                self.word(1);
                self.usize(diag.len());
                diag.iter().for_each(|&z| self.c64(z));
            }
            OpKind::Monomial { rows, coeffs, injective } => {
                self.word(2);
                self.list(rows);
                self.usize(coeffs.len());
                coeffs.iter().for_each(|&z| self.c64(z));
                self.word(u64::from(*injective));
            }
            OpKind::Dense => self.word(3),
        }
    }

    fn channel(&mut self, channel: &KrausChannel, targets: &[usize]) {
        self.str(channel.name());
        self.list(channel.dims());
        self.list(targets);
        self.f64(channel.tolerance());
        self.usize(channel.operators().len());
        channel.operators().iter().for_each(|op| self.matrix(op));
    }

    fn fusion_stats(&mut self, s: FusionStats) {
        for v in [
            s.unitaries_in,
            s.unitary_steps_out,
            s.multi_gate_blocks,
            s.max_block_dim,
            s.barrier_crossings,
        ] {
            self.usize(v);
        }
    }

    fn superop_stats(&mut self, s: SuperopStats) {
        for v in [
            s.super_steps,
            s.multi_op_supers,
            s.ops_folded,
            s.unitary_steps,
            s.kraus_steps,
            s.max_super_dim,
        ] {
            self.usize(v);
        }
    }
}

/// A random constant gate: diagonal, monomial or dense, on one or two qudits
/// with randomly ordered targets.
fn push_const_gate(c: &mut Circuit, dims: &[usize], rng: &mut StdRng) {
    let n = dims.len();
    if rng.gen::<f64>() < 0.4 {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        let d = dims[a] * dims[b];
        let gate = match rng.gen_range(0..3) {
            0 => Gate::csum(dims[a], dims[b]),
            1 => Gate::custom("haar2", vec![dims[a], dims[b]], haar_unitary(rng, d).unwrap())
                .unwrap(),
            _ => {
                let phases: Vec<Complex64> =
                    (0..d).map(|_| Complex64::cis(rng.gen::<f64>() * 6.0)).collect();
                Gate::custom("cdiag", vec![dims[a], dims[b]], CMatrix::diag(&phases)).unwrap()
            }
        };
        c.push(gate, &[a, b]).unwrap();
    } else {
        let q = rng.gen_range(0..n);
        let d = dims[q];
        let gate = match rng.gen_range(0..5) {
            0 => Gate::snap(d, &(0..d).map(|_| rng.gen::<f64>() * 6.0).collect::<Vec<_>>()),
            1 => Gate::clock_z(d),
            2 => Gate::shift_x(d),
            3 => Gate::weyl(d, rng.gen_range(0..d), rng.gen_range(0..d)),
            _ => Gate::fourier(d),
        };
        c.push(gate, &[q]).unwrap();
    }
}

/// A random free-parameter gate: a diagonal phase separator, a dense
/// Hermitian rotation, or a two-qudit diagonal coupler.
fn push_param_gate(c: &mut Circuit, dims: &[usize], idx: usize, rng: &mut StdRng) {
    let n = dims.len();
    let q = rng.gen_range(0..n);
    let d = dims[q];
    match rng.gen_range(0..3) {
        0 => {
            let w: Vec<f64> = (0..d).map(|_| rng.gen::<f64>() - 0.5).collect();
            let g = Gate::parameterized("sep", vec![d], &CMatrix::diag_real(&w), Param::Free(idx));
            c.push(g.unwrap(), &[q]).unwrap();
        }
        1 => {
            let a = CMatrix::from_fn(d, d, |_, _| {
                Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
            });
            let g = Gate::parameterized("mix", vec![d], &a.hermitian_part(), Param::Free(idx));
            c.push(g.unwrap(), &[q]).unwrap();
        }
        _ => {
            let b = (q + 1) % n;
            let dd = d * dims[b];
            let w: Vec<f64> = (0..dd).map(|_| rng.gen::<f64>()).collect();
            let g = Gate::parameterized(
                "zz",
                vec![d, dims[b]],
                &CMatrix::diag_real(&w),
                Param::Free(idx),
            );
            c.push(g.unwrap(), &[q, b]).unwrap();
        }
    }
}

/// A random explicit channel on one qudit, or on a neighbouring pair either
/// a two-qudit depolarizer or a dense two-operator channel (whose dense
/// superoperator costs more than its per-term sweeps, so it stays on the
/// Kraus path).
fn push_channel(c: &mut Circuit, dims: &[usize], rng: &mut StdRng) {
    let n = dims.len();
    let roll: f64 = rng.gen();
    if roll < 0.3 {
        let a = rng.gen_range(0..n - 1);
        let pair = vec![dims[a], dims[a + 1]];
        let ch = if roll < 0.15 {
            KrausChannel::two_qudit_depolarizing(pair[0], pair[1], 0.1).unwrap()
        } else {
            // The first `k` columns of a Haar unitary, cut into two row
            // blocks: a CPTP channel with two dense operators.
            let k = pair[0] * pair[1];
            let u = haar_unitary(rng, 2 * k).unwrap();
            let ops = (0..2).map(|b| CMatrix::from_fn(k, k, |i, j| u.get(b * k + i, j))).collect();
            KrausChannel::new("dense2", pair, ops).unwrap()
        };
        c.push_channel(ch, &[a, a + 1]).unwrap();
        return;
    }
    let q = rng.gen_range(0..n);
    let d = dims[q];
    let ch = match rng.gen_range(0..4) {
        0 => KrausChannel::photon_loss(d, 0.3).unwrap(),
        1 => KrausChannel::dephasing(d, 0.4).unwrap(),
        2 => KrausChannel::depolarizing(d, 0.2).unwrap(),
        _ => KrausChannel::thermal_excitation(d, 0.1).unwrap(),
    };
    c.push_channel(ch, &[q]).unwrap();
}

/// The seeded corpus: mixed-radix registers of total dimension at most 24,
/// each paired with a noiseless, a gate-noise or an idle-loss model (the
/// last turns every barrier into per-qudit loss channels).
fn corpus() -> Vec<(Circuit, NoiseModel)> {
    const REGISTERS: [&[usize]; 8] = [
        &[2, 3],
        &[3, 3],
        &[2, 2, 3],
        &[3, 2, 2],
        &[2, 3, 4],
        &[4, 2],
        &[2, 2, 2, 2],
        &[2, 2, 3, 2],
    ];
    let mut out = Vec::new();
    for trial in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(25_000 + trial);
        let dims = REGISTERS[trial as usize % REGISTERS.len()].to_vec();
        let mut c = Circuit::new(dims.clone());
        // The last trials are gate-only runs (the `fusion_props` budget
        // shape), long enough for blocks to grow past two qudits.
        let gates_only = trial >= 24;
        let len = if gates_only { 20 } else { rng.gen_range(8usize..16) };
        for step in 0..len {
            let roll: f64 = if gates_only { 0.6 * rng.gen::<f64>() } else { rng.gen() };
            if roll < 0.2 {
                push_param_gate(&mut c, &dims, step % 3, &mut rng);
            } else if roll < 0.6 {
                push_const_gate(&mut c, &dims, &mut rng);
            } else if roll < 0.72 {
                push_channel(&mut c, &dims, &mut rng);
            } else if roll < 0.8 {
                c.measure(&[rng.gen_range(0..dims.len())]).unwrap();
            } else if roll < 0.86 {
                c.reset(rng.gen_range(0..dims.len())).unwrap();
            } else {
                c.barrier();
            }
        }
        let noise = match trial % 3 {
            0 => NoiseModel::noiseless(),
            1 => NoiseModel::depolarizing(0.01, 0.03),
            _ => NoiseModel::cavity(0.02, 0.05, 0.1),
        };
        out.push((c, noise));
    }
    out
}

fn statevector_digest(d: &mut Digest, c: &Circuit, noise: &NoiseModel, fusion: &FusionConfig) {
    let compiled = StatevectorSimulator::new()
        .with_noise(noise.clone())
        .with_fusion(fusion.clone())
        .compile(c)
        .unwrap();
    let view = introspect::statevector(&compiled);
    d.list(view.dims());
    d.usize(view.num_params());
    d.fusion_stats(view.fusion_stats());
    d.usize(view.num_steps());
    for i in 0..view.num_steps() {
        d.list(view.sources(i));
        match view.step(i) {
            StepView::Apply {
                targets,
                plan,
                op,
                kind,
                noise,
                rebindable,
                diagonal_for_all_bindings,
            } => {
                d.word(10);
                d.list(targets);
                d.usize(plan.sub_dim());
                d.matrix(op);
                d.kind(kind);
                d.usize(noise.len());
                noise.iter().for_each(|ch| d.channel(ch.channel, ch.targets));
                d.word(u64::from(rebindable));
                d.word(diagonal_for_all_bindings.map_or(2, u64::from));
            }
            StepView::Channel(ch) => {
                d.word(11);
                d.channel(ch.channel, ch.targets);
            }
            StepView::Measure { targets } => {
                d.word(12);
                d.list(targets);
            }
            StepView::Reset { target } => {
                d.word(13);
                d.usize(target);
            }
            StepView::Barrier => d.word(14),
        }
    }
    view.barrier_loss().iter().for_each(|ch| d.channel(ch.channel, ch.targets));
}

fn density_digest(
    d: &mut Digest,
    c: &Circuit,
    noise: &NoiseModel,
    fusion: &FusionConfig,
    superop: &SuperopConfig,
) {
    let compiled = DensityMatrixSimulator::new()
        .with_noise(noise.clone())
        .with_fusion(fusion.clone())
        .with_superop(superop.clone())
        .compile(c)
        .unwrap();
    let view = introspect::density(&compiled);
    d.list(view.dims());
    d.usize(view.num_params());
    d.fusion_stats(view.fusion_stats());
    d.superop_stats(view.superop_stats());
    d.usize(view.num_items());
    for id in 0..view.num_items() {
        let item = view.item(id);
        d.list(&item.sources);
        let (tag, at) = match item.role {
            DensityRole::Primary => (0, 0),
            DensityRole::GateNoise(j) => (1, j),
            DensityRole::MeasureDephase(t) => (2, t),
            DensityRole::Reset => (3, 0),
            DensityRole::BarrierLoss(q) => (4, q),
        };
        d.usize(tag);
        d.usize(at);
        d.list(&item.targets);
        d.word(u64::from(item.parametric));
    }
    d.usize(view.num_steps());
    for i in 0..view.num_steps() {
        d.list(view.step_items(i));
        d.word(u64::from(view.rebindable(i)));
        match view.step(i) {
            DensityStepView::Unitary { plan, op, kind } => {
                d.word(20);
                d.usize(plan.sub_dim());
                d.matrix(op);
                d.kind(kind);
            }
            DensityStepView::Super { plan, sup, kind, compressed, fallback_len, defect_tol } => {
                d.word(21);
                d.usize(plan.sub_dim());
                d.matrix(sup);
                d.kind(kind);
                match compressed {
                    Some(rc) => {
                        d.usize(rc.nnz());
                        for r in 0..rc.rows() {
                            for &(col, z) in rc.row(r) {
                                d.usize(col);
                                d.c64(z);
                            }
                        }
                    }
                    None => d.word(u64::MAX),
                }
                d.usize(fallback_len);
                d.f64(defect_tol);
            }
            DensityStepView::Kraus(ch) => {
                d.word(22);
                d.usize(ch.plan.sub_dim());
                d.channel(ch.channel, ch.targets);
            }
        }
    }
}

/// The fusion budgets `fusion_props` sweeps.
const FUSION_BUDGETS: [(usize, usize); 4] = [(2, 9), (3, 16), (4, 64), (4, 4096)];
/// The superoperator budgets `superop_props` sweeps.
const SUPEROP_BUDGETS: [usize; 5] = [2, 4, 8, 16, 64];

/// One digest per compile configuration, each over the whole corpus.
fn digests() -> Vec<(String, u64)> {
    let corpus = corpus();
    let on = FusionConfig::default();
    let mut configs: Vec<(String, Option<SuperopConfig>, FusionConfig)> = vec![
        ("sv default".into(), None, on.clone()),
        ("sv fusion off".into(), None, FusionConfig::disabled()),
        ("dm default".into(), Some(SuperopConfig::default()), on.clone()),
        ("dm fusion off".into(), Some(SuperopConfig::default()), FusionConfig::disabled()),
        ("dm superop off".into(), Some(SuperopConfig::disabled()), on.clone()),
    ];
    for (max_qudits, max_dim) in FUSION_BUDGETS {
        let fusion = FusionConfig { enabled: true, max_qudits, max_dim };
        configs.push((format!("sv fusion {max_qudits}/{max_dim}"), None, fusion.clone()));
        configs.push((
            format!("dm fusion {max_qudits}/{max_dim}"),
            Some(SuperopConfig::default()),
            fusion,
        ));
    }
    for max_dim in SUPEROP_BUDGETS {
        let superop = SuperopConfig { enabled: true, max_dim };
        configs.push((format!("dm superop {max_dim}"), Some(superop), on.clone()));
    }
    configs
        .into_iter()
        .map(|(label, superop, fusion)| {
            let mut d = Digest::new();
            for (c, noise) in &corpus {
                match &superop {
                    None => statevector_digest(&mut d, c, noise, &fusion),
                    Some(s) => density_digest(&mut d, c, noise, &fusion, s),
                }
            }
            (label, d.0)
        })
        .collect()
}

/// The digests of the plans this corpus compiled to when they were pinned.
/// The `dm *` entries were re-pinned when barriers became full fold
/// boundaries in density plans (fusion and superoperator folding no longer
/// cross any barrier there); the `sv *` entries did not move.
const PINNED: &[(&str, u64)] = &[
    ("sv default", 0x640c9446f0af8ca0),
    ("sv fusion off", 0x960f13c5343826cc),
    ("dm default", 0x46a46ce4477ea520),
    ("dm fusion off", 0x016fb3629d5da6b2),
    ("dm superop off", 0x83f5b922cb7cf68b),
    ("sv fusion 2/9", 0x0087ec200d0f6173),
    ("dm fusion 2/9", 0xcba192e3f764ef88),
    ("sv fusion 3/16", 0x640c9446f0af8ca0),
    ("dm fusion 3/16", 0x46a46ce4477ea520),
    ("sv fusion 4/64", 0x640c9446f0af8ca0),
    ("dm fusion 4/64", 0x46a46ce4477ea520),
    ("sv fusion 4/4096", 0x640c9446f0af8ca0),
    ("dm fusion 4/4096", 0x46a46ce4477ea520),
    ("dm superop 2", 0x6a42408291bc3cba),
    ("dm superop 4", 0x19e0c648b969742b),
    ("dm superop 8", 0x84ea1dc4f50104b2),
    ("dm superop 16", 0x46a46ce4477ea520),
    ("dm superop 64", 0x46a46ce4477ea520),
];

#[test]
fn compiled_plans_match_their_pinned_digests() {
    let got = digests();
    let table: String =
        got.iter().map(|(label, v)| format!("    (\"{label}\", {v:#018x}),\n")).collect();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(l, v)| (l.to_string(), v)).collect();
    assert_eq!(got, pinned, "compiled plans changed; current digests:\n{table}");
}

#[test]
fn corpus_exercises_every_fold_shape() {
    // The digest only pins what the corpus reaches: fused multi-gate blocks,
    // blocks surviving barriers, multi-op sweeps, compressed sweeps,
    // rebindable sweeps, per-term Kraus steps and standalone sandwiches.
    let (mut multi_gate, mut crossings, mut multi_op, mut kraus, mut sandwiches) = (0, 0, 0, 0, 0);
    let (mut compressed, mut rebindable_supers) = (0, 0);
    for (c, noise) in corpus() {
        let compiled = DensityMatrixSimulator::new().with_noise(noise).compile(&c).unwrap();
        let view = introspect::density(&compiled);
        multi_gate += view.fusion_stats().multi_gate_blocks;
        crossings += view.fusion_stats().barrier_crossings;
        let stats = view.superop_stats();
        multi_op += stats.multi_op_supers;
        kraus += stats.kraus_steps;
        sandwiches += stats.unitary_steps;
        for i in 0..view.num_steps() {
            if let DensityStepView::Super { compressed: rc, .. } = view.step(i) {
                compressed += usize::from(rc.is_some());
                rebindable_supers += usize::from(view.rebindable(i));
            }
        }
    }
    for (name, count) in [
        ("multi-gate blocks", multi_gate),
        ("barrier crossings", crossings),
        ("multi-op sweeps", multi_op),
        ("per-term Kraus steps", kraus),
        ("sandwich steps", sandwiches),
        ("compressed sweeps", compressed),
        ("rebindable sweeps", rebindable_supers),
    ] {
        assert!(count > 0, "the corpus reaches no {name}");
    }
}
