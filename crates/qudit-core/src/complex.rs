//! Double-precision complex scalar used throughout the workspace.
//!
//! The workspace deliberately avoids pulling a numerics dependency: quantum
//! simulation needs only a small, well-understood surface of complex
//! arithmetic, and owning the type lets the simulators control layout and
//! inlining.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A complex number with `f64` real and imaginary parts.
///
/// The type is `Copy`, `#[repr(C)]` and 16 bytes, so vectors of `Complex64`
/// have the same layout as interleaved `f64` pairs.
#[derive(Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Constructs a complex number from real and imaginary parts.
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = c64(1.0, 0.0);
    /// The imaginary unit `i`.
    pub const I: Complex64 = c64(0.0, 1.0);

    /// Creates a new complex number from real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline(always)]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Returns `exp(i theta)`, a unit-modulus phase factor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self { re: theta.cos(), im: theta.sin() }
    }

    /// Creates a complex number from polar coordinates `r * exp(i theta)`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self { re: r * theta.cos(), im: r * theta.sin() }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }

    /// Squared modulus `|z|^2 = re^2 + im^2`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1 / z`.
    ///
    /// Returns non-finite components when `z == 0`.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self { re: self.re / d, im: -self.im / d }
    }

    /// Complex exponential `exp(z)`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Self { re: r * self.im.cos(), im: r * self.im.sin() }
    }

    /// Principal natural logarithm `ln(z)`.
    #[inline]
    pub fn ln(self) -> Self {
        Self { re: self.abs().ln(), im: self.arg() }
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let theta = self.arg();
        Self::from_polar(r.sqrt(), theta / 2.0)
    }

    /// Raises `z` to a real power using the principal branch.
    #[inline]
    pub fn powf(self, p: f64) -> Self {
        if self == Self::ZERO {
            return if p == 0.0 { Self::ONE } else { Self::ZERO };
        }
        Self::from_polar(self.abs().powf(p), self.arg() * p)
    }

    /// Scales by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Self { re: self.re * s, im: self.im * s }
    }

    /// Fused multiply-add: `self * b + c`.
    #[inline(always)]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        Self {
            re: self.re * b.re - self.im * b.im + c.re,
            im: self.re * b.im + self.im * b.re + c.im,
        }
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

impl From<f64> for Complex64 {
    #[inline(always)]
    fn from(re: f64) -> Self {
        Self { re, im: 0.0 }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Self {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn neg(self) -> Self {
        Self { re: -self.re, im: -self.im }
    }
}

impl Add<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: f64) -> Self {
        Self { re: self.re + rhs, im: self.im }
    }
}

impl Sub<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: f64) -> Self {
        Self { re: self.re - rhs, im: self.im }
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Self {
        Self { re: self.re * rhs, im: self.im * rhs }
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn div(self, rhs: f64) -> Self {
        Self { re: self.re / rhs, im: self.im / rhs }
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64 { re: self * rhs.re, im: self * rhs.im }
    }
}

impl Add<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64 { re: self + rhs.re, im: rhs.im }
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline(always)]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: f64) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const TOL: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let z = c64(1.5, -2.25);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert!((z * z.inv() - Complex64::ONE).abs() < TOL);
        assert_eq!(-(-z), z);
        assert_eq!(z - z, Complex64::ZERO);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((Complex64::I * Complex64::I + Complex64::ONE).abs() < TOL);
    }

    #[test]
    fn conjugation_and_modulus() {
        let z = c64(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < TOL);
        assert!((z.norm_sqr() - 25.0).abs() < TOL);
        assert!(((z * z.conj()).re - 25.0).abs() < TOL);
        assert!((z * z.conj()).im.abs() < TOL);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(2.0, PI / 3.0);
        assert!((z.abs() - 2.0).abs() < TOL);
        assert!((z.arg() - PI / 3.0).abs() < TOL);
    }

    #[test]
    fn euler_identity() {
        let z = Complex64::cis(PI);
        assert!((z + Complex64::ONE).abs() < 1e-12);
    }

    #[test]
    fn exp_ln_roundtrip() {
        let z = c64(0.3, -1.1);
        assert!((z.exp().ln() - z).abs() < 1e-12);
    }

    #[test]
    fn sqrt_squares_back() {
        let z = c64(-2.0, 0.5);
        let s = z.sqrt();
        assert!((s * s - z).abs() < 1e-12);
    }

    #[test]
    fn division_matches_inverse() {
        let a = c64(1.0, 2.0);
        let b = c64(-0.5, 0.25);
        assert!((a / b - a * b.inv()).abs() < 1e-12);
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = c64(1.0, -1.0);
        let b = c64(2.5, 0.5);
        let c = c64(-0.25, 3.0);
        assert!((a.mul_add(b, c) - (a * b + c)).abs() < TOL);
    }

    #[test]
    fn real_scalar_ops() {
        let z = c64(1.0, -2.0);
        assert_eq!(z * 2.0, c64(2.0, -4.0));
        assert_eq!(2.0 * z, c64(2.0, -4.0));
        assert_eq!(z / 2.0, c64(0.5, -1.0));
        assert_eq!(z + 1.0, c64(2.0, -2.0));
    }

    #[test]
    fn sum_iterator() {
        let v = [c64(1.0, 1.0), c64(2.0, -0.5), c64(-3.0, 0.0)];
        let s: Complex64 = v.iter().sum();
        assert!((s - c64(0.0, 0.5)).abs() <= TOL);
    }

    #[test]
    fn powf_matches_repeated_multiplication() {
        let z = c64(0.7, 0.3);
        let z3 = z * z * z;
        assert!((z.powf(3.0) - z3).abs() < 1e-12);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", c64(1.0, -1.0)), "1.000000-1.000000i");
        assert_eq!(format!("{}", c64(0.0, 2.0)), "0.000000+2.000000i");
    }
}
