//! Shared workload builders for the experiment harness and Criterion
//! benchmarks: the three Table-I application circuits, the
//! syndrome-extraction readout workload, and common reporting helpers.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod rows;

use lgt::hamiltonian::{sqed_chain, SqedParams};
use lgt::trotter::{trotter_circuit, TrotterOrder};
use qopt::graph::{ColoringProblem, Graph};
use qopt::qaoa::{QaoaConfig, QuditQaoa};
use qudit_circuit::{Circuit, Gate};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Table-I sQED workload: a 9×2-site truncated scalar-QED chain (serpentine
/// ordering of the 2D ladder onto a 1D chain) at link truncation `d`,
/// Trotterised for `steps` steps.
///
/// # Panics
/// Panics only on programming errors (the parameters are fixed and valid).
pub fn table1_sqed_circuit(d: usize, steps: usize) -> Circuit {
    let params = SqedParams {
        sites: 18,
        link_dim: d,
        coupling_g: 1.0,
        hopping: 0.5,
        mass: 0.2,
        periodic: false,
    };
    let h = sqed_chain(&params).expect("valid sQED parameters");
    trotter_circuit(&h, 1.0, steps, TrotterOrder::First).expect("valid Trotter parameters")
}

/// A smaller sQED circuit for kernels/benchmarks.
pub fn small_sqed_circuit(sites: usize, d: usize, steps: usize) -> Circuit {
    let params = SqedParams {
        sites,
        link_dim: d,
        coupling_g: 1.0,
        hopping: 0.5,
        mass: 0.2,
        periodic: false,
    };
    let h = sqed_chain(&params).expect("valid sQED parameters");
    trotter_circuit(&h, 1.0, steps, TrotterOrder::First).expect("valid Trotter parameters")
}

/// A syndrome-extraction readout workload on a mixed-radix register: three
/// data pairs (`d = 4, 4, 3, 3, 2, 2`) plus one qubit ancilla, evolved for
/// `rounds` rounds. Each round applies dense Haar-random dynamics inside
/// every data pair (plus single-qudit phase gates), entangles one rotating
/// pair with the ancilla stabilizer-style (CSUMs), then measures and resets
/// the ancilla — the per-wire mid-circuit readout shape of fault-tolerance
/// studies.
///
/// Under global flushing every readout erases all fusion progress; under
/// wire-local flushing the two pairs *not* being read keep their dynamics
/// blocks alive across the measure + reset boundary, so each pair emits one
/// fused block per readout period (three rounds) instead of one per round.
///
/// # Panics
/// Panics only on programming errors (the construction is deterministic).
pub fn syndrome_extraction_circuit(rounds: usize) -> Circuit {
    let dims = vec![4usize, 4, 3, 3, 2, 2, 2];
    let pairs: [(usize, usize); 3] = [(0, 1), (2, 3), (4, 5)];
    let anc = 6;
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut c = Circuit::new(dims.clone());
    for round in 0..rounds {
        // Data dynamics: a dense two-qudit gate inside each pair, framed by
        // single-qudit gates that fuse into the same block.
        for &(a, b) in &pairs {
            c.push(Gate::fourier(dims[a]), &[a]).expect("valid gate");
            let d = dims[a] * dims[b];
            let u = qudit_core::random::haar_unitary(&mut rng, d).expect("valid dimension");
            c.push(Gate::custom("dyn2", vec![dims[a], dims[b]], u).expect("valid gate"), &[a, b])
                .expect("valid gate");
            c.push(Gate::clock_z(dims[b]), &[b]).expect("valid gate");
        }
        // Stabilizer readout of one rotating pair through the ancilla.
        let (a, b) = pairs[round % pairs.len()];
        c.push(Gate::csum(dims[a], dims[anc]), &[a, anc]).expect("valid gate");
        c.push(Gate::csum(dims[b], dims[anc]), &[b, anc]).expect("valid gate");
        c.measure(&[anc]).expect("valid targets");
        c.reset(anc).expect("valid target");
    }
    c
}

/// The Table-I coloring workload: 3-coloring QAOA (one layer) on a random
/// 3-regular graph with `n` nodes.
pub fn table1_coloring_circuit(n: usize, seed: u64) -> Circuit {
    let graph = Graph::random_regular(n, 3, seed).expect("valid graph parameters");
    let problem = ColoringProblem::new(graph, 3).expect("valid coloring problem");
    let qaoa = QuditQaoa::new(problem, QaoaConfig { layers: 1, ..Default::default() });
    qaoa.circuit(&[0.6], &[0.4]).expect("valid QAOA angles")
}

/// The Table-I coloring problem instance itself (for solver-level
/// experiments).
pub fn table1_coloring_problem(n: usize, seed: u64) -> ColoringProblem {
    let graph = Graph::random_regular(n, 3, seed).expect("valid graph parameters");
    ColoringProblem::new(graph, 3).expect("valid coloring problem")
}

/// Prints a Markdown-style table: header row plus data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!("|{}|", header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sqed_circuit_matches_paper_scale() {
        let c = table1_sqed_circuit(4, 1);
        assert_eq!(c.num_qudits(), 18);
        assert!(c.dims().iter().all(|&d| d == 4));
        assert_eq!(c.multi_qudit_gate_count(), 17);
    }

    #[test]
    fn table1_coloring_circuit_has_nine_qutrits() {
        let c = table1_coloring_circuit(9, 3);
        assert_eq!(c.num_qudits(), 9);
        assert!(c.dims().iter().all(|&d| d == 3));
        assert!(c.multi_qudit_gate_count() >= 9);
    }

    #[test]
    fn small_builders_work() {
        let c = small_sqed_circuit(3, 3, 2);
        assert_eq!(c.num_qudits(), 3);
        let p = table1_coloring_problem(6, 1);
        assert_eq!(p.graph.num_nodes(), 6);
    }

    #[test]
    fn syndrome_circuit_has_per_round_readout() {
        let rounds = 6;
        let c = syndrome_extraction_circuit(rounds);
        assert_eq!(c.num_qudits(), 7);
        let measures = c
            .instructions()
            .iter()
            .filter(|i| matches!(i, qudit_circuit::Instruction::Measure { .. }))
            .count();
        assert_eq!(measures, rounds, "one ancilla readout per round");
    }
}
