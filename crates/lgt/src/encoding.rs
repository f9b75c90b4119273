//! Encodings of the truncated gauge field into quantum hardware registers.
//!
//! The paper's reference study compares encoding the `d`-level gauge field
//! *natively* into a qudit against packing it into `⌈log₂ d⌉` qubits. The
//! qubit packing needs more (and larger) entangling operations and exposes
//! unphysical computational states to noise — the mechanism behind the
//! reported 10–100× difference in tolerable gate error.

use qudit_core::complex::Complex64;
use qudit_core::matrix::CMatrix;
use serde::{Deserialize, Serialize};

use crate::error::{LgtError, Result};
use crate::hamiltonian::{HamiltonianTerm, LatticeHamiltonian};

/// How a lattice site's `d`-level gauge field is laid out in hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Encoding {
    /// One `d`-level qudit per site (the cavity-native choice).
    DirectQudit,
    /// `⌈log₂ d⌉` qubits per site, binary-encoded, with unused computational
    /// states idle (and exposed to noise).
    BinaryQubit,
}

impl Encoding {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Encoding::DirectQudit => "qudit",
            Encoding::BinaryQubit => "binary-qubit",
        }
    }
}

/// Number of qubits needed to binary-encode a `d`-level site.
pub fn qubits_for(d: usize) -> usize {
    let mut q = 0;
    let mut cap = 1;
    while cap < d {
        cap *= 2;
        q += 1;
    }
    q.max(1)
}

/// An encoded lattice model: the hardware-level Hamiltonian plus the
/// site-to-carrier layout.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedModel {
    /// The hardware-level Hamiltonian (dims are qudit/qubit dimensions).
    pub hamiltonian: LatticeHamiltonian,
    /// Which encoding produced it.
    pub encoding: Encoding,
    /// For each lattice site, the hardware carrier indices that store it.
    pub site_to_carriers: Vec<Vec<usize>>,
}

impl EncodedModel {
    /// Total number of hardware carriers.
    pub fn num_carriers(&self) -> usize {
        self.hamiltonian.dims.len()
    }

    /// Translates a computational basis state given as per-*site* values into
    /// the per-*carrier* digit string of this encoding.
    ///
    /// # Errors
    /// Returns an error if the value list has the wrong length or a value is
    /// out of range for its site.
    pub fn encode_basis_state(&self, site_values: &[usize]) -> Result<Vec<usize>> {
        if site_values.len() != self.site_to_carriers.len() {
            return Err(LgtError::EncodingFailed(format!(
                "expected {} site values, got {}",
                self.site_to_carriers.len(),
                site_values.len()
            )));
        }
        let mut digits = vec![0usize; self.num_carriers()];
        for (site, (&value, carriers)) in
            site_values.iter().zip(self.site_to_carriers.iter()).enumerate()
        {
            match self.encoding {
                Encoding::DirectQudit => {
                    if value >= self.hamiltonian.dims[carriers[0]] {
                        return Err(LgtError::EncodingFailed(format!(
                            "site {site} value {value} exceeds its dimension"
                        )));
                    }
                    digits[carriers[0]] = value;
                }
                Encoding::BinaryQubit => {
                    let q = carriers.len();
                    if value >= (1usize << q) {
                        return Err(LgtError::EncodingFailed(format!(
                            "site {site} value {value} does not fit in {q} qubits"
                        )));
                    }
                    for (bit_pos, &carrier) in carriers.iter().enumerate() {
                        // First carrier holds the most significant bit.
                        digits[carrier] = (value >> (q - 1 - bit_pos)) & 1;
                    }
                }
            }
        }
        Ok(digits)
    }
}

/// Encodes a lattice Hamiltonian for the chosen hardware layout.
///
/// # Errors
/// Returns an error if a term cannot be represented.
pub fn encode(h: &LatticeHamiltonian, encoding: Encoding) -> Result<EncodedModel> {
    match encoding {
        Encoding::DirectQudit => Ok(EncodedModel {
            hamiltonian: h.clone(),
            encoding,
            site_to_carriers: (0..h.dims.len()).map(|i| vec![i]).collect(),
        }),
        Encoding::BinaryQubit => encode_binary(h),
    }
}

fn encode_binary(h: &LatticeHamiltonian) -> Result<EncodedModel> {
    // Layout: site i occupies qubits [offset_i .. offset_i + q_i).
    let mut site_to_carriers = Vec::with_capacity(h.dims.len());
    let mut offset = 0;
    for &d in &h.dims {
        let q = qubits_for(d);
        site_to_carriers.push((offset..offset + q).collect::<Vec<usize>>());
        offset += q;
    }
    let total_qubits = offset;
    let mut terms = Vec::with_capacity(h.terms.len());
    for term in &h.terms {
        let site_dims: Vec<usize> = term.targets.iter().map(|&t| h.dims[t]).collect();
        let carrier_targets: Vec<usize> =
            term.targets.iter().flat_map(|&t| site_to_carriers[t].iter().copied()).collect();
        let op = embed_in_binary(&term.op, &site_dims)?;
        terms.push(HamiltonianTerm {
            label: term.label.clone(),
            coeff: term.coeff,
            op,
            targets: carrier_targets,
        });
    }
    Ok(EncodedModel {
        hamiltonian: LatticeHamiltonian {
            dims: vec![2; total_qubits],
            terms,
            name: format!("{} [binary-qubit]", h.name),
        },
        encoding: Encoding::BinaryQubit,
        site_to_carriers,
    })
}

/// Embeds an operator acting on sites with dimensions `site_dims` into the
/// binary-encoded qubit space: valid computational states map through the
/// operator, unphysical (padding) states are left untouched (identity).
fn embed_in_binary(op: &CMatrix, site_dims: &[usize]) -> Result<CMatrix> {
    let qudit_dim: usize = site_dims.iter().product();
    if op.rows() != qudit_dim {
        return Err(LgtError::EncodingFailed(format!(
            "operator dimension {} does not match site dims {site_dims:?}",
            op.rows()
        )));
    }
    let qubit_counts: Vec<usize> = site_dims.iter().map(|&d| qubits_for(d)).collect();
    let padded_dims: Vec<usize> = qubit_counts.iter().map(|&q| 1usize << q).collect();
    let padded_total: usize = padded_dims.iter().product();

    // Map a padded index to its qudit index if every site value is physical.
    let to_qudit_index = |mut padded: usize| -> Option<usize> {
        let mut values = vec![0usize; site_dims.len()];
        for i in (0..site_dims.len()).rev() {
            values[i] = padded % padded_dims[i];
            padded /= padded_dims[i];
        }
        let mut idx = 0;
        for (i, &v) in values.iter().enumerate() {
            if v >= site_dims[i] {
                return None;
            }
            idx = idx * site_dims[i] + v;
        }
        Some(idx)
    };

    let mut out = CMatrix::zeros(padded_total, padded_total);
    for row in 0..padded_total {
        match to_qudit_index(row) {
            Some(qrow) => {
                for col in 0..padded_total {
                    if let Some(qcol) = to_qudit_index(col) {
                        let v = op.get(qrow, qcol);
                        if v != Complex64::ZERO {
                            out[(row, col)] = v;
                        }
                    }
                }
            }
            None => {
                // Unphysical state: leave untouched so the embedded
                // propagator acts as identity there.
                out[(row, row)] = Complex64::ONE;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::{sqed_chain, SqedParams};
    use crate::operators;

    #[test]
    fn qubit_counts() {
        assert_eq!(qubits_for(2), 1);
        assert_eq!(qubits_for(3), 2);
        assert_eq!(qubits_for(4), 2);
        assert_eq!(qubits_for(5), 3);
        assert_eq!(qubits_for(8), 3);
    }

    #[test]
    fn direct_encoding_is_identity_transformation() {
        let h = sqed_chain(&SqedParams::default()).unwrap();
        let enc = encode(&h, Encoding::DirectQudit).unwrap();
        assert_eq!(enc.hamiltonian, h);
        assert_eq!(enc.num_carriers(), 4);
    }

    #[test]
    fn binary_encoding_expands_register() {
        let h = sqed_chain(&SqedParams { sites: 3, link_dim: 3, ..Default::default() }).unwrap();
        let enc = encode(&h, Encoding::BinaryQubit).unwrap();
        // 3 sites × 2 qubits each.
        assert_eq!(enc.num_carriers(), 6);
        assert!(enc.hamiltonian.dims.iter().all(|&d| d == 2));
        assert_eq!(enc.site_to_carriers[1], vec![2, 3]);
        // Two-site hopping terms now touch 4 qubits.
        let hop = enc.hamiltonian.terms.iter().find(|t| t.label.starts_with("hopping")).unwrap();
        assert_eq!(hop.targets.len(), 4);
        assert_eq!(hop.op.rows(), 16);
    }

    #[test]
    fn embedded_operator_preserves_physical_matrix_elements() {
        let d = 3;
        let op = operators::lz(d);
        let emb = embed_in_binary(&op, &[d]).unwrap();
        assert_eq!(emb.rows(), 4);
        // Physical entries copied.
        for k in 0..3 {
            assert!((emb[(k, k)].re - operators::flux_value(d, k)).abs() < 1e-12);
        }
        // Unphysical |3⟩ untouched (identity).
        assert!((emb[(3, 3)] - Complex64::ONE).abs() < 1e-12);
        assert!(emb.is_hermitian(1e-12));
    }

    #[test]
    fn embedded_two_site_operator_is_hermitian_and_consistent() {
        let d = 3;
        let op = operators::hopping(d);
        let emb = embed_in_binary(&op, &[d, d]).unwrap();
        assert_eq!(emb.rows(), 16);
        assert!(emb.is_hermitian(1e-12));
        // The (|m=+1, m=0⟩ ↔ |m=0, m=+1⟩) element survives: qudit digits (2,1)↔(1,2)
        // map to padded indices 2*4+1=9 and 1*4+2=6.
        assert!((emb[(6, 9)] - op[(3 + 2, 2 * 3 + 1)]).abs() < 1e-12);
    }

    #[test]
    fn encoded_spectra_agree_on_physical_subspace() {
        // The binary-encoded Hamiltonian has the same spectrum as the qudit
        // one, plus flat (zero-energy contribution) unphysical directions.
        let h = sqed_chain(&SqedParams {
            sites: 2,
            link_dim: 3,
            coupling_g: 1.2,
            hopping: 0.4,
            mass: 0.3,
            periodic: false,
        })
        .unwrap();
        let direct_gap = h.spectrum_gap().unwrap();
        let enc = encode(&h, Encoding::BinaryQubit).unwrap();
        let full = enc.hamiltonian.full_matrix().unwrap();
        let eig = qudit_core::linalg::eigh(&full).unwrap();
        // The ground-state energy of the physical sector must appear in the
        // encoded spectrum.
        assert!(
            eig.values.iter().any(|&e| (e - direct_gap.0).abs() < 1e-8),
            "physical ground energy missing from encoded spectrum"
        );
    }

    #[test]
    fn embedding_rejects_wrong_dimension() {
        let op = operators::lz(3);
        assert!(embed_in_binary(&op, &[4]).is_err());
    }

    #[test]
    fn basis_state_translation_roundtrips() {
        let h = sqed_chain(&SqedParams { sites: 3, link_dim: 3, ..Default::default() }).unwrap();
        let direct = encode(&h, Encoding::DirectQudit).unwrap();
        assert_eq!(direct.encode_basis_state(&[1, 2, 0]).unwrap(), vec![1, 2, 0]);
        let binary = encode(&h, Encoding::BinaryQubit).unwrap();
        // Site values (1, 2, 0) become bit pairs (01, 10, 00).
        assert_eq!(binary.encode_basis_state(&[1, 2, 0]).unwrap(), vec![0, 1, 1, 0, 0, 0]);
        assert!(binary.encode_basis_state(&[4, 0, 0]).is_err());
        assert!(binary.encode_basis_state(&[0, 0]).is_err());
    }
}
