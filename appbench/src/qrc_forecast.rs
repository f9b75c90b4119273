//! `qrc_forecast`: NARMA-5 train-and-forecast with the analog (Lindblad RK4)
//! and digital (rebound density circuit) quantum reservoirs.
//!
//! The analog half is the only place `cavity-sim` does the work. The digital
//! half is hundreds of tiny density runs, each after a rebind, so it
//! measures per-call overhead (bind, dispatch, observable) rather than
//! kernel throughput.

use qrc::digital::DigitalReservoir;
use qrc::pipeline::{evaluate_quantum, evaluate_quantum_digital, Evaluation};
use qrc::reservoir::{QuantumReservoir, ReservoirParams};
use qrc::tasks::{narma, nmse, TimeSeriesTask};
use qrc::train::fit_ridge;
use qudit_circuit::noise::KrausChannel;
use qudit_circuit::sim::DensityMatrixSimulator;
use qudit_circuit::{gates, Circuit, Gate, Param};

use crate::harness::SolveWorkload;
use crate::plans::PlanCounts;
use crate::report::Metric;
use crate::trace::Tracer;
use crate::{sub_seed, Res, Scale, WARM_UP_SEED};

/// Training share of the series and ridge strength.
const TRAIN_FRACTION: f64 = 0.7;
const RIDGE: f64 = 1e-4;
/// Largest test NMSE a correct pipeline is accepted with.
const MAX_TEST_NMSE: f64 = 3.0;
/// Samples `qrc::pipeline` excludes from training as washout.
const WASHOUT: usize = 5;

/// Generated inputs of one `qrc_forecast` run.
#[derive(Debug, Clone)]
pub struct QrcForecast {
    params: ReservoirParams,
    task: TimeSeriesTask,
}

impl QrcForecast {
    fn build(seed: u64, scale: Scale) -> Self {
        let (levels, substeps, length) = match scale {
            Scale::Full => (5, 12, 180),
            Scale::Tiny => (5, 12, 20),
        };
        let params = ReservoirParams { levels, substeps, ..ReservoirParams::paper_reference() };
        Self { params, task: narma(5, length, sub_seed(seed, 0)) }
    }

    /// RK4 steps `QuantumReservoir::run` takes for the whole series.
    fn rk4_steps(&self) -> usize {
        let p = &self.params;
        let segment_time = p.step_time / p.virtual_nodes as f64;
        let dt = segment_time / (p.substeps / p.virtual_nodes).max(1) as f64;
        let per_segment = (segment_time / dt).round().max(1.0) as usize;
        self.task.len() * p.virtual_nodes * per_segment
    }

    /// The pipeline's readout: ridge fit on the training part, NMSE on both
    /// parts.
    fn readout(&self, label: String, feature_dim: usize, features: &[Vec<f64>]) -> Res<Evaluation> {
        let task = &self.task;
        let split = ((task.len() as f64) * TRAIN_FRACTION).round() as usize;
        let split = split.clamp(WASHOUT + 2, task.len() - 2);
        let readout = fit_ridge(&features[WASHOUT..split], &task.targets[WASHOUT..split], RIDGE)?;
        let train_pred = readout.predict_batch(&features[WASHOUT..split]);
        let test_pred = readout.predict_batch(&features[split..]);
        Ok(Evaluation {
            reservoir: label,
            task: task.name.clone(),
            feature_dim,
            train_nmse: nmse(&train_pred, &task.targets[WASHOUT..split]),
            test_nmse: nmse(&test_pred, &task.targets[split..]),
        })
    }
}

impl SolveWorkload for QrcForecast {
    type Output = (Evaluation, Evaluation);

    fn setup(seed: u64, scale: Scale) -> Res<Self> {
        let w = Self::build(seed, scale);
        let mut warm = Self::build(WARM_UP_SEED, Scale::Tiny);
        warm.solve()?;
        Ok(w)
    }

    fn solve(&mut self) -> Res<(Evaluation, Evaluation)> {
        let analog = evaluate_quantum(&self.params, &self.task, TRAIN_FRACTION, RIDGE)?;
        let digital = evaluate_quantum_digital(&self.params, &self.task, TRAIN_FRACTION, RIDGE)?;
        Ok((analog, digital))
    }

    fn replay(&mut self, tr: &Tracer) -> Res<(Evaluation, Evaluation)> {
        let p = &self.params;
        let reservoir = QuantumReservoir::new(p.clone())?;
        tr.count("cavity-sim.lindblad.rk4_steps", self.rk4_steps() as f64);
        let features = tr.span("cavity-sim.lindblad", || reservoir.run(&self.task.inputs))?;
        let label = format!("quantum-{}x{}", p.modes, p.levels);
        let analog =
            tr.span("qrc.readout", || self.readout(label, reservoir.feature_dim(), &features))?;

        let mut digital = tr.span("qrc.digital.build", || DigitalReservoir::new(p.clone()))?;
        tr.count("qrc.digital.binds", self.task.len() as f64);
        let features = tr.span("qrc.digital.run", || digital.run(&self.task.inputs))?;
        let label = format!("digital-{}x{}", p.modes, p.levels);
        let digital =
            tr.span("qrc.readout", || self.readout(label, digital.feature_dim(), &features))?;
        Ok((analog, digital))
    }

    fn check(&self, (analog, digital): &(Evaluation, Evaluation)) -> Vec<String> {
        let mut failures = Vec::new();
        let finite = |rows: &[Vec<f64>]| rows.iter().flatten().all(|x| x.is_finite());
        let features = QuantumReservoir::new(self.params.clone())
            .and_then(|r| r.run(&self.task.inputs))
            .map(|f| finite(&f));
        if !matches!(features, Ok(true)) {
            failures.push(format!("analog features not finite: {features:?}"));
        }
        let features = DigitalReservoir::new(self.params.clone())
            .and_then(|mut r| r.run(&self.task.inputs))
            .map(|f| finite(&f));
        if !matches!(features, Ok(true)) {
            failures.push(format!("digital features not finite: {features:?}"));
        }
        // A least-squares readout with a bias must beat the mean predictor on
        // its own training window. The 54-sample test window is too short
        // for a hard bound at 1 (correct runs reach ~2 on some series), so
        // the test bound only catches a broken pipeline.
        for e in [analog, digital] {
            if !(e.train_nmse < 1.0 && e.test_nmse < MAX_TEST_NMSE) {
                failures.push(format!(
                    "{}: NMSE train {} test {}",
                    e.reservoir, e.train_nmse, e.test_nmse
                ));
            }
        }
        failures
    }

    fn given_metrics(
        &self,
        (analog, digital): &(Evaluation, Evaluation),
        _tr: &Tracer,
        _replays: f64,
    ) -> Res<Vec<Metric>> {
        // The digital reservoir's segment plan, bound to a drive angle, runs
        // once per virtual node of every input sample. The reservoir keeps
        // its plan private, so count the same segment compiled here.
        let mut counts = PlanCounts::default();
        let mut plan = DensityMatrixSimulator::new().compile(&reservoir_segment(&self.params)?)?;
        plan.bind(&[0.1])?;
        counts.add_density(&plan, (self.task.len() * self.params.virtual_nodes) as f64);
        let mut metrics = counts.metrics();
        metrics.push(Metric::new("analog_test_nmse", analog.test_nmse, "ratio"));
        metrics.push(Metric::new("digital_test_nmse", digital.test_nmse, "ratio"));
        Ok(metrics)
    }
}

/// The digital reservoir's one-segment circuit (drive kick, free evolution,
/// exchange coupling, photon loss per slice) with the drive angle as free
/// parameter 0, built exactly as `DigitalReservoir::new` builds it.
///
/// # Errors
/// Returns an error for inconsistent parameters.
pub fn reservoir_segment(p: &ReservoirParams) -> Res<Circuit> {
    let d = p.levels;
    let slices = (p.substeps / p.virtual_nodes).max(1);
    let dt = p.step_time / p.virtual_nodes as f64 / slices as f64;
    let a = gates::annihilation(d);
    let n_op = gates::number_operator(d);
    let hop = &a.dagger().kron(&a) + &a.kron(&a.dagger());
    let drive = Gate::parameterized("drive", vec![d], &(&a + &a.dagger()), Param::Free(0))?;
    let rotations = p
        .frequencies
        .iter()
        .enumerate()
        .map(|(i, &omega)| {
            Gate::from_generator(format!("rot{i}"), vec![d], &n_op.scaled_real(omega), dt)
        })
        .collect::<qudit_circuit::Result<Vec<_>>>()?;
    let couple = Gate::from_generator("hop", vec![d, d], &hop.scaled_real(p.coupling), dt)?;
    let loss = KrausChannel::photon_loss(d, 1.0 - (-p.damping * dt).exp())?;
    let mut segment = Circuit::new(vec![d; p.modes]);
    for _ in 0..slices {
        segment.push(drive.clone(), &[0])?;
        for (i, gate) in rotations.iter().enumerate() {
            segment.push(gate.clone(), &[i])?;
        }
        for i in 0..p.modes - 1 {
            segment.push(couple.clone(), &[i, i + 1])?;
        }
        for i in 0..p.modes {
            segment.push_channel(loss.clone(), &[i])?;
        }
    }
    Ok(segment)
}
