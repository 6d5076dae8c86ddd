//! A from-scratch double-precision complex number type.
//!
//! The whole workspace standardises on [`Cplx`] instead of pulling in
//! `num-complex`: the sparse-FFT kernels need exactly the operations below
//! and nothing else, and owning the type lets the GPU simulator treat it as
//! a plain 16-byte POD for its memory-transaction model.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// Layout-compatible with a `[f64; 2]` pair (`#[repr(C)]`), which the GPU
/// simulator relies on when it charges 16 bytes per element of memory
/// traffic.
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(C)]
pub struct Cplx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// The additive identity.
pub const ZERO: Cplx = Cplx { re: 0.0, im: 0.0 };
/// The multiplicative identity.
pub const ONE: Cplx = Cplx { re: 1.0, im: 0.0 };
/// The imaginary unit.
pub const I: Cplx = Cplx { re: 0.0, im: 1.0 };

impl Cplx {
    /// Builds a complex number from rectangular coordinates.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Cplx { re, im }
    }

    /// Builds a purely real complex number.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        Cplx { re, im: 0.0 }
    }

    /// Returns `e^{i theta}` — a unit phasor with the given angle in radians.
    #[inline(always)]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Cplx { re: c, im: s }
    }

    /// Builds a complex number from polar coordinates.
    #[inline(always)]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Cplx {
            re: r * c,
            im: r * s,
        }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Cplx {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²` (avoids the square root of [`Cplx::abs`]).
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude (Euclidean norm).
    #[inline(always)]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in radians, in `(-pi, pi]`.
    #[inline(always)]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Cplx {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Divides by a real scalar.
    #[inline(always)]
    pub fn unscale(self, s: f64) -> Self {
        Cplx {
            re: self.re / s,
            im: self.im / s,
        }
    }

    /// Multiplicative inverse `1/self`.
    #[inline(always)]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Cplx {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Fused multiply-add: `self * b + c`, the butterfly workhorse.
    #[inline(always)]
    pub fn mul_add(self, b: Cplx, c: Cplx) -> Self {
        Cplx {
            re: self.re * b.re - self.im * b.im + c.re,
            im: self.re * b.im + self.im * b.re + c.im,
        }
    }

    /// True when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Distance `|self - other|`, handy in accuracy assertions.
    #[inline]
    pub fn dist(self, other: Cplx) -> f64 {
        (self - other).abs()
    }
}

impl fmt::Debug for Cplx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for Cplx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<f64> for Cplx {
    #[inline]
    fn from(re: f64) -> Self {
        Cplx::real(re)
    }
}

impl From<(f64, f64)> for Cplx {
    #[inline]
    fn from((re, im): (f64, f64)) -> Self {
        Cplx::new(re, im)
    }
}

impl Add for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn add(self, o: Cplx) -> Cplx {
        Cplx::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn sub(self, o: Cplx) -> Cplx {
        Cplx::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn mul(self, o: Cplx) -> Cplx {
        Cplx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn div(self, o: Cplx) -> Cplx {
        let d = o.norm_sqr();
        Cplx::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
}

impl Mul<f64> for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn mul(self, s: f64) -> Cplx {
        self.scale(s)
    }
}

impl Div<f64> for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn div(self, s: f64) -> Cplx {
        self.unscale(s)
    }
}

impl Neg for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn neg(self) -> Cplx {
        Cplx::new(-self.re, -self.im)
    }
}

impl AddAssign for Cplx {
    #[inline(always)]
    fn add_assign(&mut self, o: Cplx) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl SubAssign for Cplx {
    #[inline(always)]
    fn sub_assign(&mut self, o: Cplx) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl MulAssign for Cplx {
    #[inline(always)]
    fn mul_assign(&mut self, o: Cplx) {
        *self = *self * o;
    }
}

impl DivAssign for Cplx {
    #[inline(always)]
    fn div_assign(&mut self, o: Cplx) {
        *self = *self / o;
    }
}

impl Sum for Cplx {
    fn sum<I: Iterator<Item = Cplx>>(iter: I) -> Cplx {
        iter.fold(ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Cplx> for Cplx {
    fn sum<I: Iterator<Item = &'a Cplx>>(iter: I) -> Cplx {
        iter.fold(ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn construction_and_accessors() {
        let z = Cplx::new(3.0, -4.0);
        assert_eq!(z.re, 3.0);
        assert_eq!(z.im, -4.0);
        assert_eq!(Cplx::real(2.0), Cplx::new(2.0, 0.0));
        assert_eq!(Cplx::from(2.5), Cplx::new(2.5, 0.0));
        assert_eq!(Cplx::from((1.0, 2.0)), Cplx::new(1.0, 2.0));
    }

    #[test]
    fn arithmetic_identities() {
        let a = Cplx::new(1.5, -2.5);
        let b = Cplx::new(-0.5, 3.0);
        assert_eq!(a + ZERO, a);
        assert_eq!(a * ONE, a);
        assert_eq!(a - a, ZERO);
        assert!(((a * b) / b).dist(a) < EPS);
        assert!((a * a.inv()).dist(ONE) < EPS);
        assert_eq!(-a, ZERO - a);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(I * I, Cplx::real(-1.0));
    }

    #[test]
    fn conjugate_properties() {
        let a = Cplx::new(2.0, 7.0);
        assert_eq!(a.conj().conj(), a);
        assert!((a * a.conj()).dist(Cplx::real(a.norm_sqr())) < EPS);
    }

    #[test]
    fn norms_and_abs() {
        let z = Cplx::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < EPS);
        assert!((z.norm_sqr() - 25.0).abs() < EPS);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Cplx::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!((z.abs() - 2.0).abs() < EPS);
        assert!((z.arg() - std::f64::consts::FRAC_PI_3).abs() < EPS);
    }

    #[test]
    fn cis_is_unit_circle() {
        for k in 0..16 {
            let t = k as f64 * 0.41;
            let z = Cplx::cis(t);
            assert!((z.abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn cis_addition_formula() {
        // e^{ia} * e^{ib} == e^{i(a+b)}
        let (a, b) = (0.7, -1.9);
        assert!((Cplx::cis(a) * Cplx::cis(b)).dist(Cplx::cis(a + b)) < EPS);
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = Cplx::new(1.0, 2.0);
        let b = Cplx::new(3.0, -1.0);
        let c = Cplx::new(-2.0, 0.5);
        assert!((a.mul_add(b, c)).dist(a * b + c) < EPS);
    }

    #[test]
    fn scale_and_unscale() {
        let a = Cplx::new(1.0, -1.0);
        assert_eq!(a.scale(2.0), Cplx::new(2.0, -2.0));
        assert!(a.scale(3.0).unscale(3.0).dist(a) < EPS);
        assert_eq!(a * 2.0, a.scale(2.0));
        assert_eq!(a / 2.0, a.unscale(2.0));
    }

    #[test]
    fn assign_ops() {
        let mut a = Cplx::new(1.0, 1.0);
        a += Cplx::new(1.0, -1.0);
        assert_eq!(a, Cplx::new(2.0, 0.0));
        a -= Cplx::new(1.0, 0.0);
        assert_eq!(a, ONE);
        a *= Cplx::new(0.0, 2.0);
        assert_eq!(a, Cplx::new(0.0, 2.0));
        a /= Cplx::new(0.0, 2.0);
        assert!(a.dist(ONE) < EPS);
    }

    #[test]
    fn sum_over_iterator() {
        let v = vec![Cplx::new(1.0, 2.0); 10];
        let s: Cplx = v.iter().sum();
        assert!(s.dist(Cplx::new(10.0, 20.0)) < EPS);
        let s2: Cplx = v.into_iter().sum();
        assert!(s2.dist(Cplx::new(10.0, 20.0)) < EPS);
    }

    #[test]
    fn nan_and_finite_detection() {
        assert!(Cplx::new(f64::NAN, 0.0).is_nan());
        assert!(Cplx::new(0.0, f64::NAN).is_nan());
        assert!(!ONE.is_nan());
        assert!(ONE.is_finite());
        assert!(!Cplx::new(f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{}", Cplx::new(1.0, 2.0)), "1+2i");
        assert_eq!(format!("{}", Cplx::new(1.0, -2.0)), "1-2i");
    }
}
