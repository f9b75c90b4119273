//! Trotterized time evolution of lattice Hamiltonians as qudit circuits.
//!
//! Two construction paths:
//!
//! * [`trotter_circuit`] — the concrete circuit for one `(time, steps)`
//!   pair, as before.
//! * [`trotter_ansatz`] + [`TrotterSweep`] — a **parameterized** circuit
//!   whose single free parameter is the Trotter step size `dt`
//!   ([`qudit_circuit::Param::Free`]`(0)`). A time sweep at fixed step count
//!   compiles the ansatz once and rebinds `dt = t / steps` per sample, so
//!   per-term generator diagonalisation, gate fusion and stride-plan
//!   construction run once for the whole sweep.

use qudit_circuit::sim::{CompiledCircuit, StatevectorSimulator};
use qudit_circuit::{Circuit, Gate, Param};
use qudit_core::state::QuditState;
use serde::{Deserialize, Serialize};

use crate::error::{LgtError, Result};
use crate::hamiltonian::LatticeHamiltonian;

/// Trotter–Suzuki product-formula order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrotterOrder {
    /// First-order (Lie) splitting.
    First,
    /// Second-order (symmetric Strang) splitting.
    Second,
}

/// Builds the circuit implementing `exp(−i H t)` by `steps` Trotter steps of
/// the requested order. Single-site terms become SNAP-like local gates,
/// two-site ladder couplings become entangling gates generated by the exact
/// local propagator.
///
/// # Errors
/// Returns an error if a term's generator is invalid or `steps == 0`.
pub fn trotter_circuit(
    h: &LatticeHamiltonian,
    time: f64,
    steps: usize,
    order: TrotterOrder,
) -> Result<Circuit> {
    if steps == 0 {
        return Err(LgtError::InvalidModel("Trotterisation needs at least one step".into()));
    }
    trotter_steps(h, time / steps as f64, steps, order)
}

/// `steps` Trotter steps of size `dt`, each closed by a barrier: the body of
/// [`trotter_circuit`], and the continuation block of a sampled evolution
/// (`crate::massgap`), which must match the prefix it extends bitwise.
pub(crate) fn trotter_steps(
    h: &LatticeHamiltonian,
    dt: f64,
    steps: usize,
    order: TrotterOrder,
) -> Result<Circuit> {
    let mut circuit = Circuit::new(h.dims.clone());
    for _ in 0..steps {
        match order {
            TrotterOrder::First => {
                push_terms(&mut circuit, h, dt, false)?;
            }
            TrotterOrder::Second => {
                push_single_site(&mut circuit, h, dt / 2.0)?;
                push_two_site(&mut circuit, h, dt, false)?;
                push_single_site(&mut circuit, h, dt / 2.0)?;
            }
        }
        circuit.barrier();
    }
    Ok(circuit)
}

fn push_terms(circuit: &mut Circuit, h: &LatticeHamiltonian, dt: f64, reverse: bool) -> Result<()> {
    let mut order: Vec<usize> = (0..h.terms.len()).collect();
    if reverse {
        order.reverse();
    }
    for idx in order {
        push_term(circuit, h, idx, dt)?;
    }
    Ok(())
}

fn push_single_site(circuit: &mut Circuit, h: &LatticeHamiltonian, dt: f64) -> Result<()> {
    for idx in 0..h.terms.len() {
        if h.terms[idx].targets.len() == 1 {
            push_term(circuit, h, idx, dt)?;
        }
    }
    Ok(())
}

fn push_two_site(
    circuit: &mut Circuit,
    h: &LatticeHamiltonian,
    dt: f64,
    reverse: bool,
) -> Result<()> {
    let mut order: Vec<usize> =
        (0..h.terms.len()).filter(|&i| h.terms[i].targets.len() >= 2).collect();
    if reverse {
        order.reverse();
    }
    for idx in order {
        push_term(circuit, h, idx, dt)?;
    }
    Ok(())
}

fn push_term(circuit: &mut Circuit, h: &LatticeHamiltonian, idx: usize, dt: f64) -> Result<()> {
    let term = &h.terms[idx];
    let dims: Vec<usize> = term.targets.iter().map(|&t| h.dims[t]).collect();
    let gate =
        Gate::from_generator(format!("e^(-i {} dt)", term.label), dims, &term.op, term.coeff * dt)
            .map_err(LgtError::Circuit)?;
    circuit.push(gate, &term.targets).map_err(LgtError::Circuit)?;
    Ok(())
}

/// Builds the **parameterized** Trotter ansatz: the same gate sequence as
/// [`trotter_circuit`] with `steps` repetitions of the chosen splitting, but
/// every term gate is `exp(-i dt (c·H_term))` with the step size `dt` left
/// symbolic as free parameter 0. Bind with `circuit.with_bound(&[dt])`, or
/// compile once and rebind per time sample (see [`TrotterSweep`]).
///
/// # Errors
/// Returns an error if a term's generator is invalid or `steps == 0`.
pub fn trotter_ansatz(
    h: &LatticeHamiltonian,
    steps: usize,
    order: TrotterOrder,
) -> Result<Circuit> {
    if steps == 0 {
        return Err(LgtError::InvalidModel("Trotterisation needs at least one step".into()));
    }
    // Each (term, scale) gate is built — and its generator diagonalised —
    // once, then cloned into every Trotter step repetition.
    let build = |idx: usize, scale: f64| -> Result<Gate> {
        let term = &h.terms[idx];
        let dims: Vec<usize> = term.targets.iter().map(|&t| h.dims[t]).collect();
        Gate::parameterized(
            format!("e^(-i {} dt)", term.label),
            dims,
            &term.op.scaled_real(term.coeff * scale),
            Param::Free(0),
        )
        .map_err(LgtError::Circuit)
    };
    let scale = match order {
        TrotterOrder::First => 1.0,
        // Second-order Strang splitting halves the single-site terms.
        TrotterOrder::Second => 0.5,
    };
    let single_site: Vec<(usize, Gate)> = (0..h.terms.len())
        .filter(|&i| h.terms[i].targets.len() == 1)
        .map(|i| Ok((i, build(i, scale)?)))
        .collect::<Result<_>>()?;
    let two_site: Vec<(usize, Gate)> = (0..h.terms.len())
        .filter(|&i| h.terms[i].targets.len() >= 2)
        .map(|i| Ok((i, build(i, 1.0)?)))
        .collect::<Result<_>>()?;
    let push_all = |circuit: &mut Circuit, gates: &[(usize, Gate)]| -> Result<()> {
        for (idx, gate) in gates {
            circuit.push(gate.clone(), &h.terms[*idx].targets).map_err(LgtError::Circuit)?;
        }
        Ok(())
    };
    // First order emits every term in program order, as in `trotter_circuit`.
    let mut in_program_order: Vec<(usize, Gate)> =
        single_site.iter().chain(two_site.iter()).cloned().collect();
    in_program_order.sort_by_key(|(idx, _)| *idx);
    let mut circuit = Circuit::new(h.dims.clone());
    for _ in 0..steps {
        match order {
            TrotterOrder::First => push_all(&mut circuit, &in_program_order)?,
            TrotterOrder::Second => {
                push_all(&mut circuit, &single_site)?;
                push_all(&mut circuit, &two_site)?;
                push_all(&mut circuit, &single_site)?;
            }
        }
        circuit.barrier();
    }
    Ok(circuit)
}

/// A compiled Trotter-evolution sweep: the parameterized ansatz's fused
/// execution plan, rebound per requested evolution time. The step count is
/// fixed; `dt = t / steps` varies, which is the natural shape for observable-
/// vs-time scans at constant Trotter depth.
///
/// # Example
///
/// ```
/// use lgt::hamiltonian::{sqed_chain, SqedParams};
/// use lgt::trotter::{trotter_circuit, TrotterOrder, TrotterSweep};
/// use qudit_core::metrics::state_fidelity;
/// use qudit_core::state::QuditState;
///
/// let h = sqed_chain(&SqedParams { sites: 3, link_dim: 3, ..Default::default() }).unwrap();
/// let initial = QuditState::basis(vec![3, 3, 3], &[1, 2, 1]).unwrap();
/// let mut sweep = TrotterSweep::new(&h, 4, TrotterOrder::First).unwrap();
/// for t in [0.2, 0.5, 0.9] {
///     let swept = sweep.state_at(t, &initial).unwrap();
///     // Identical to building and running the concrete circuit at `t`.
///     let circuit = trotter_circuit(&h, t, 4, TrotterOrder::First).unwrap();
///     let sim = qudit_circuit::sim::StatevectorSimulator::new();
///     let rebuilt = sim.run_compiled(&sim.compile(&circuit).unwrap(), Some(&initial)).unwrap();
///     assert!(state_fidelity(&swept, &rebuilt.state).unwrap() > 1.0 - 1e-10);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TrotterSweep {
    sim: StatevectorSimulator,
    plan: CompiledCircuit,
    steps: usize,
}

impl TrotterSweep {
    /// Compiles the `steps`-step ansatz of the given order.
    ///
    /// # Errors
    /// Returns an error if the ansatz cannot be built or compiled.
    pub fn new(h: &LatticeHamiltonian, steps: usize, order: TrotterOrder) -> Result<Self> {
        let ansatz = trotter_ansatz(h, steps, order)?;
        let sim = StatevectorSimulator::new();
        let plan = sim.compile(&ansatz).map_err(LgtError::Circuit)?;
        Ok(Self { sim, plan, steps })
    }

    /// Number of Trotter steps per evolution.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Evolves `initial` to time `t` by rebinding the compiled plan to
    /// `dt = t / steps` and running it — no circuit rebuild, no
    /// recompilation.
    ///
    /// # Errors
    /// Returns an error if the initial state register does not match.
    pub fn state_at(&mut self, t: f64, initial: &QuditState) -> Result<QuditState> {
        self.plan.bind(&[t / self.steps as f64])?;
        Ok(self.sim.run_compiled(&self.plan, Some(initial))?.state)
    }

    /// Evolves `initial` to every time in `times` as **one ensemble call**:
    /// the sweep's bindings `dt = t / steps` are realised together with
    /// `CompiledCircuit::bind_batch`, and `run_ensemble_from` runs one column
    /// per time point across the worker threads, each through the compiled
    /// plan with its own binding overlay. Each returned state is bitwise
    /// identical to the corresponding [`TrotterSweep::state_at`] call.
    ///
    /// # Errors
    /// Returns an error if the initial state register does not match or any
    /// column fails (e.g. a numerical-health guard trips).
    pub fn states_at(&mut self, times: &[f64], initial: &QuditState) -> Result<Vec<QuditState>> {
        let population: Vec<Vec<f64>> =
            times.iter().map(|&t| vec![t / self.steps as f64]).collect();
        let batch = self.plan.bind_batch(&population).map_err(LgtError::Circuit)?;
        self.sim
            .run_ensemble_from(&self.plan, &batch, Some(initial))
            .map_err(LgtError::Circuit)?
            .into_iter()
            .map(|col| Ok(col.map_err(LgtError::Circuit)?.state))
            .collect()
    }
}

/// Exact propagator `exp(−i H t)` of the full lattice Hamiltonian (small
/// systems only), used as the Trotterisation reference.
///
/// # Errors
/// Returns an error if the Hamiltonian cannot be assembled or diagonalised.
pub fn exact_propagator(h: &LatticeHamiltonian, time: f64) -> Result<qudit_core::CMatrix> {
    let full = h.full_matrix()?;
    qudit_core::linalg::expm_hermitian(&full, qudit_core::complex::c64(0.0, -time))
        .map_err(LgtError::Core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::{sqed_chain, SqedParams};
    use qudit_circuit::sim::StatevectorSimulator;
    use qudit_core::metrics::{process_fidelity, state_fidelity};
    use qudit_core::state::QuditState;

    fn small_model() -> LatticeHamiltonian {
        sqed_chain(&SqedParams {
            sites: 3,
            link_dim: 3,
            coupling_g: 1.0,
            hopping: 0.5,
            mass: 0.2,
            periodic: false,
        })
        .unwrap()
    }

    #[test]
    fn trotter_circuit_has_expected_gate_count() {
        let h = small_model();
        let c = trotter_circuit(&h, 1.0, 4, TrotterOrder::First).unwrap();
        // Per step: 3 electric + 3 mass + 2 hopping = 8 gates.
        assert_eq!(c.gate_count(), 4 * 8);
        assert_eq!(c.multi_qudit_gate_count(), 4 * 2);
        let c2 = trotter_circuit(&h, 1.0, 4, TrotterOrder::Second).unwrap();
        assert_eq!(c2.multi_qudit_gate_count(), 4 * 2);
        assert!(c2.gate_count() > c.gate_count());
    }

    #[test]
    fn first_order_converges_to_exact_propagator() {
        let h = small_model();
        let t = 0.8;
        let exact = exact_propagator(&h, t).unwrap();
        let coarse = trotter_circuit(&h, t, 2, TrotterOrder::First).unwrap().unitary().unwrap();
        let fine = trotter_circuit(&h, t, 16, TrotterOrder::First).unwrap().unitary().unwrap();
        let f_coarse = process_fidelity(&exact, &coarse).unwrap();
        let f_fine = process_fidelity(&exact, &fine).unwrap();
        assert!(f_fine > f_coarse);
        assert!(f_fine > 0.999, "fine fidelity {f_fine}");
    }

    #[test]
    fn second_order_beats_first_order_at_equal_steps() {
        let h = small_model();
        let t = 1.2;
        let exact = exact_propagator(&h, t).unwrap();
        let first = trotter_circuit(&h, t, 4, TrotterOrder::First).unwrap().unitary().unwrap();
        let second = trotter_circuit(&h, t, 4, TrotterOrder::Second).unwrap().unitary().unwrap();
        let f1 = process_fidelity(&exact, &first).unwrap();
        let f2 = process_fidelity(&exact, &second).unwrap();
        assert!(f2 > f1, "second order {f2} should beat first order {f1}");
    }

    #[test]
    fn trotter_state_evolution_matches_exact_for_fine_steps() {
        let h = small_model();
        let t = 0.6;
        // Initial state: one unit of flux on the middle site.
        let initial = QuditState::basis(vec![3, 3, 3], &[1, 2, 1]).unwrap();
        let circuit = trotter_circuit(&h, t, 20, TrotterOrder::Second).unwrap();
        let sim = StatevectorSimulator::new();
        let trotter_state = sim.run_compiled(&sim.compile(&circuit).unwrap(), Some(&initial));
        let trotter_state = trotter_state.unwrap().state;
        let mut exact_state = initial.clone();
        exact_state.apply_full_operator(&exact_propagator(&h, t).unwrap()).unwrap();
        let f = state_fidelity(&trotter_state, &exact_state).unwrap();
        assert!(f > 0.999, "fidelity {f}");
    }

    #[test]
    fn zero_steps_rejected() {
        let h = small_model();
        assert!(trotter_circuit(&h, 1.0, 0, TrotterOrder::First).is_err());
        assert!(trotter_ansatz(&h, 0, TrotterOrder::First).is_err());
    }

    #[test]
    fn batched_sweep_is_bitwise_identical_to_serial_sweep() {
        let h = small_model();
        let initial = QuditState::basis(vec![3, 3, 3], &[1, 2, 1]).unwrap();
        let times = [0.1, 0.35, 0.6, 0.85, 1.1, 1.35];
        for order in [TrotterOrder::First, TrotterOrder::Second] {
            let mut sweep = TrotterSweep::new(&h, 4, order).unwrap();
            let batched = sweep.states_at(&times, &initial).unwrap();
            assert_eq!(batched.len(), times.len());
            let mut serial = TrotterSweep::new(&h, 4, order).unwrap();
            for (t, state) in times.iter().zip(batched.iter()) {
                let reference = serial.state_at(*t, &initial).unwrap();
                assert_eq!(state.amplitudes(), reference.amplitudes(), "order {order:?}, t = {t}");
            }
        }
        // Empty sweeps are a no-op; register mismatches are rejected.
        let mut sweep = TrotterSweep::new(&h, 4, TrotterOrder::First).unwrap();
        assert!(sweep.states_at(&[], &initial).unwrap().is_empty());
        let wrong = QuditState::basis(vec![3, 3], &[1, 2]).unwrap();
        assert!(sweep.states_at(&[0.5], &wrong).is_err());
    }

    #[test]
    fn rebound_sweep_matches_per_time_circuits() {
        let h = small_model();
        let initial = QuditState::basis(vec![3, 3, 3], &[1, 2, 1]).unwrap();
        for order in [TrotterOrder::First, TrotterOrder::Second] {
            let steps = 5;
            let ansatz = trotter_ansatz(&h, steps, order).unwrap();
            assert_eq!(ansatz.num_params(), 1, "one free parameter: dt");
            let mut sweep = TrotterSweep::new(&h, steps, order).unwrap();
            for t in [0.15, 0.6, 1.1] {
                let swept = sweep.state_at(t, &initial).unwrap();
                let circuit = trotter_circuit(&h, t, steps, order).unwrap();
                let sim = StatevectorSimulator::new();
                let rebuilt = sim.run_compiled(&sim.compile(&circuit).unwrap(), Some(&initial));
                let rebuilt = rebuilt.unwrap().state;
                let f = state_fidelity(&swept, &rebuilt).unwrap();
                assert!(f > 1.0 - 1e-10, "order {order:?}, t = {t}: fidelity {f}");
            }
        }
    }
}
