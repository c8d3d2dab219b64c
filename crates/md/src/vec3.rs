//! Minimal 3-vector used throughout the MD substrate.
//!
//! Double precision everywhere: the paper makes a point of Merrimac doing
//! full-bandwidth 64-bit arithmetic (versus the Pentium 4's
//! single-precision SSE loops), so the reference engine is f64.

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A 3-component double-precision vector.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// All components set to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Self::new(v, v, v)
    }

    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Unit vector in the same direction. Returns `ZERO` for a zero vector
    /// rather than NaN so force accumulation on coincident dummy particles
    /// stays finite.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n == 0.0 {
            Vec3::ZERO
        } else {
            self / n
        }
    }

    /// Largest absolute component.
    #[inline]
    pub fn max_abs(self) -> f64 {
        self.x.abs().max(self.y.abs()).max(self.z.abs())
    }

    /// True if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl std::iter::Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn basic_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 5.0, 0.5);
        assert_eq!(a + b, Vec3::new(-3.0, 7.0, 3.5));
        assert_eq!(a - b, Vec3::new(5.0, -3.0, 2.5));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert!(close(a.dot(b), 1.0 * -4.0 + 2.0 * 5.0 + 3.0 * 0.5));
    }

    #[test]
    fn indexing_round_trips() {
        let mut v = Vec3::new(7.0, 8.0, 9.0);
        for i in 0..3 {
            v[i] += 1.0;
        }
        assert_eq!(v, Vec3::new(8.0, 9.0, 10.0));
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn normalized_zero_is_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn sum_of_vectors() {
        let vs = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 2.0, 0.0)];
        let s: Vec3 = vs.iter().copied().sum();
        assert_eq!(s, Vec3::new(1.0, 2.0, 0.0));
    }

    fn arb_vec3() -> impl Strategy<Value = Vec3> {
        (-1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in arb_vec3(), b in arb_vec3()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_dot_symmetric(a in arb_vec3(), b in arb_vec3()) {
            prop_assert!(close(a.dot(b), b.dot(a)));
        }

        #[test]
        fn prop_cross_orthogonal(a in arb_vec3(), b in arb_vec3()) {
            let c = a.cross(b);
            // |c . a| is bounded by rounding relative to the magnitudes.
            let scale = (a.norm() * b.norm() * a.norm()).max(1.0);
            prop_assert!(c.dot(a).abs() <= 1e-9 * scale);
            prop_assert!(c.dot(b).abs() <= 1e-9 * scale * (b.norm() / a.norm().max(1e-30)).max(1.0));
        }

        #[test]
        fn prop_norm_triangle_inequality(a in arb_vec3(), b in arb_vec3()) {
            prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
        }

        #[test]
        fn prop_normalized_has_unit_norm(a in arb_vec3()) {
            prop_assume!(a.norm() > 1e-6);
            prop_assert!(close(a.normalized().norm(), 1.0));
        }

        #[test]
        fn prop_scalar_distributes(a in arb_vec3(), b in arb_vec3(), s in -100.0..100.0f64) {
            let lhs = (a + b) * s;
            let rhs = a * s + b * s;
            prop_assert!((lhs - rhs).max_abs() <= 1e-9 * (1.0 + lhs.max_abs()));
        }
    }
}
