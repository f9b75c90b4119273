//! Mixed-radix index arithmetic for heterogeneous qudit registers.
//!
//! A register of `n` qudits with per-site dimensions `d_0, d_1, ..., d_{n-1}`
//! has a Hilbert space of dimension `prod d_k`. Basis states are labelled by
//! digit strings `(x_0, x_1, ..., x_{n-1})` with `0 <= x_k < d_k`; the flat
//! index follows the **big-endian** convention used throughout the workspace:
//! qudit 0 is the most significant digit,
//! `index = ((x_0 * d_1 + x_1) * d_2 + x_2) * ...`.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::matrix::CMatrix;

/// The dimensions of a mixed-radix qudit register.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Radix {
    dims: Vec<usize>,
}

impl Radix {
    /// Creates a register description from per-qudit dimensions.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidDimension`] if any dimension is below 2.
    pub fn new(dims: Vec<usize>) -> Result<Self> {
        for &d in &dims {
            if d < 2 {
                return Err(CoreError::InvalidDimension(d));
            }
        }
        Ok(Self { dims })
    }

    /// A register of `n` qudits of uniform dimension `d`.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidDimension`] if `d < 2`.
    pub fn uniform(n: usize, d: usize) -> Result<Self> {
        Self::new(vec![d; n])
    }

    /// Number of qudits in the register.
    #[inline]
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// Returns `true` if the register has no qudits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Per-qudit dimensions.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Dimension of qudit `k`.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidSubsystem`] if `k` is out of range.
    pub fn dim(&self, k: usize) -> Result<usize> {
        self.dims
            .get(k)
            .copied()
            .ok_or(CoreError::InvalidSubsystem { index: k, count: self.dims.len() })
    }

    /// Total Hilbert-space dimension `prod d_k`.
    pub fn total_dim(&self) -> usize {
        self.dims.iter().product()
    }

    /// Converts a digit string to a flat basis index.
    ///
    /// # Errors
    /// Returns an error if the digit string has the wrong length or a digit
    /// exceeds its qudit dimension.
    pub fn index_of(&self, digits: &[usize]) -> Result<usize> {
        if digits.len() != self.dims.len() {
            return Err(CoreError::ShapeMismatch {
                expected: format!("{} digits", self.dims.len()),
                found: format!("{} digits", digits.len()),
            });
        }
        let mut idx = 0;
        for (&x, &d) in digits.iter().zip(self.dims.iter()) {
            if x >= d {
                return Err(CoreError::InvalidBasisState { level: x, dim: d });
            }
            idx = idx * d + x;
        }
        Ok(idx)
    }

    /// Converts a flat basis index to its digit string.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidArgument`] if the index exceeds the total
    /// dimension.
    pub fn digits_of(&self, mut index: usize) -> Result<Vec<usize>> {
        if index >= self.total_dim() {
            return Err(CoreError::InvalidArgument(format!(
                "index {index} out of range for total dimension {}",
                self.total_dim()
            )));
        }
        let mut digits = vec![0; self.dims.len()];
        for k in (0..self.dims.len()).rev() {
            digits[k] = index % self.dims[k];
            index /= self.dims[k];
        }
        Ok(digits)
    }

    /// Stride of qudit `k`: how much the flat index changes when digit `k`
    /// increments by one.
    pub fn stride(&self, k: usize) -> Result<usize> {
        self.dim(k)?;
        Ok(self.dims[k + 1..].iter().product())
    }

    /// Validates that the listed subsystem indices are in range and distinct.
    pub fn check_targets(&self, targets: &[usize]) -> Result<()> {
        for (pos, &t) in targets.iter().enumerate() {
            if t >= self.dims.len() {
                return Err(CoreError::InvalidSubsystem { index: t, count: self.dims.len() });
            }
            if targets[..pos].contains(&t) {
                return Err(CoreError::InvalidArgument(format!(
                    "duplicate target qudit index {t}"
                )));
            }
        }
        Ok(())
    }

    /// Product of the dimensions of the listed subsystems.
    pub fn subspace_dim(&self, targets: &[usize]) -> Result<usize> {
        self.check_targets(targets)?;
        Ok(targets.iter().map(|&t| self.dims[t]).product())
    }
}

/// Embeds an operator acting on the subsystems `targets` (in the given order)
/// into the full register Hilbert space, acting as identity elsewhere.
///
/// `op` must be square with dimension equal to the product of the target
/// dimensions; its index ordering must match the order of `targets`
/// (target `0` most significant).
///
/// # Errors
/// Returns an error if targets are invalid or the operator dimension does
/// not match.
pub fn embed_operator(radix: &Radix, op: &CMatrix, targets: &[usize]) -> Result<CMatrix> {
    let sub_dim = radix.subspace_dim(targets)?;
    if op.rows() != sub_dim || op.cols() != sub_dim {
        return Err(CoreError::ShapeMismatch {
            expected: format!("{sub_dim}x{sub_dim} operator for targets {targets:?}"),
            found: format!("{}x{} operator", op.rows(), op.cols()),
        });
    }
    let total = radix.total_dim();
    let mut out = CMatrix::zeros(total, total);
    let target_radix = Radix::new(targets.iter().map(|&t| radix.dims()[t]).collect())?;

    // For every pair of full-space basis states that agree on the spectator
    // qudits, copy the corresponding operator entry.
    for row in 0..total {
        let row_digits = radix.digits_of(row)?;
        let row_sub: Vec<usize> = targets.iter().map(|&t| row_digits[t]).collect();
        let row_sub_idx = target_radix.index_of(&row_sub)?;
        for col_sub_idx in 0..sub_dim {
            let col_sub = target_radix.digits_of(col_sub_idx)?;
            let mut col_digits = row_digits.clone();
            for (pos, &t) in targets.iter().enumerate() {
                col_digits[t] = col_sub[pos];
            }
            let col = radix.index_of(&col_digits)?;
            let v = op.get(row_sub_idx, col_sub_idx);
            if v != crate::complex::Complex64::ZERO {
                out[(row, col)] = v;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn rejects_dimension_below_two() {
        assert!(Radix::new(vec![2, 1, 3]).is_err());
        assert!(Radix::uniform(3, 0).is_err());
    }

    #[test]
    fn uniform_register_total_dim() {
        let r = Radix::uniform(4, 3).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_dim(), 81);
        assert_eq!(r.dims(), &[3, 3, 3, 3]);
    }

    #[test]
    fn index_digit_roundtrip_mixed_radix() {
        let r = Radix::new(vec![2, 3, 4]).unwrap();
        for idx in 0..r.total_dim() {
            let digits = r.digits_of(idx).unwrap();
            assert_eq!(r.index_of(&digits).unwrap(), idx);
        }
    }

    #[test]
    fn big_endian_convention() {
        let r = Radix::new(vec![2, 3]).unwrap();
        // |1,0> should be index 3 (qudit 0 most significant).
        assert_eq!(r.index_of(&[1, 0]).unwrap(), 3);
        assert_eq!(r.index_of(&[0, 2]).unwrap(), 2);
        assert_eq!(r.digits_of(5).unwrap(), vec![1, 2]);
    }

    #[test]
    fn stride_matches_definition() {
        let r = Radix::new(vec![2, 3, 4]).unwrap();
        assert_eq!(r.stride(0).unwrap(), 12);
        assert_eq!(r.stride(1).unwrap(), 4);
        assert_eq!(r.stride(2).unwrap(), 1);
    }

    #[test]
    fn out_of_range_rejections() {
        let r = Radix::new(vec![2, 3]).unwrap();
        assert!(r.index_of(&[2, 0]).is_err());
        assert!(r.index_of(&[0]).is_err());
        assert!(r.digits_of(6).is_err());
        assert!(r.dim(2).is_err());
        assert!(r.check_targets(&[0, 0]).is_err());
        assert!(r.check_targets(&[2]).is_err());
    }

    #[test]
    fn embed_single_qudit_operator() {
        // X_3 (cyclic increment) on qudit 1 of a 2x3 register.
        let r = Radix::new(vec![2, 3]).unwrap();
        let mut x3 = CMatrix::zeros(3, 3);
        for k in 0..3 {
            x3[((k + 1) % 3, k)] = c64(1.0, 0.0);
        }
        let full = embed_operator(&r, &x3, &[1]).unwrap();
        assert_eq!(full.rows(), 6);
        // |0,0> -> |0,1>: entry (index_of([0,1]), index_of([0,0])) == 1.
        assert_eq!(full[(1, 0)], c64(1.0, 0.0));
        // |1,2> -> |1,0>: entry (3, 5) == 1.
        assert_eq!(full[(3, 5)], c64(1.0, 0.0));
        assert!(full.is_unitary(1e-12));
    }

    #[test]
    fn embed_two_qudit_operator_respects_target_order() {
        // CSUM-like permutation on a pair of qutrits embedded in a 3-qutrit register,
        // with reversed target order — check dimensions and unitarity.
        let r = Radix::uniform(3, 3).unwrap();
        let d = 3;
        let mut csum = CMatrix::zeros(d * d, d * d);
        for a in 0..d {
            for b in 0..d {
                let src = a * d + b;
                let dst = a * d + ((a + b) % d);
                csum[(dst, src)] = c64(1.0, 0.0);
            }
        }
        let full = embed_operator(&r, &csum, &[2, 0]).unwrap();
        assert_eq!(full.rows(), 27);
        assert!(full.is_unitary(1e-12));
        // |a=digit2 (control), b=digit0 (target)>: state |b=1, x=0, a=2> maps to |b=(1+2)%3=0, 0, 2>.
        let src = r.index_of(&[1, 0, 2]).unwrap();
        let dst = r.index_of(&[0, 0, 2]).unwrap();
        assert_eq!(full[(dst, src)], c64(1.0, 0.0));
    }

    #[test]
    fn embed_rejects_wrong_operator_size() {
        let r = Radix::uniform(2, 3).unwrap();
        let op = CMatrix::identity(2);
        assert!(embed_operator(&r, &op, &[0]).is_err());
    }

    #[test]
    fn subspace_dim_products() {
        let r = Radix::new(vec![2, 3, 5]).unwrap();
        assert_eq!(r.subspace_dim(&[0, 2]).unwrap(), 10);
        assert_eq!(r.subspace_dim(&[1]).unwrap(), 3);
    }
}
