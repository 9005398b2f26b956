//! Planar coordinates.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Relative/absolute tolerance used for approximate coordinate comparison.
pub const EPSILON: f64 = 1e-9;

/// A planar coordinate pair.
///
/// Coordinates are interpreted as positions on a plane; the unit is defined
/// by the data set (the synthetic workloads in this repository use
/// kilometres so that the paper's "5 km" style thresholds read naturally).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Coord {
    /// Horizontal component (x / longitude-like axis).
    pub x: f64,
    /// Vertical component (y / latitude-like axis).
    pub y: f64,
}

impl Coord {
    /// Creates a coordinate from its two components.
    pub fn new(x: f64, y: f64) -> Self {
        Coord { x, y }
    }

    /// Returns `true` if both components are finite numbers.
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Euclidean distance to another coordinate.
    pub fn distance(&self, other: &Coord) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// 2D cross product of the vectors `self` and `other` (z component of
    /// the 3D cross product).
    pub fn cross(&self, other: &Coord) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Dot product of the vectors `self` and `other`.
    pub fn dot(&self, other: &Coord) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Approximate equality under [`EPSILON`] (absolute tolerance).
    pub fn approx_eq(&self, other: &Coord) -> bool {
        (self.x - other.x).abs() <= EPSILON && (self.y - other.y).abs() <= EPSILON
    }
}

impl From<(f64, f64)> for Coord {
    fn from((x, y): (f64, f64)) -> Self {
        Coord::new(x, y)
    }
}

impl From<Coord> for (f64, f64) {
    fn from(c: Coord) -> Self {
        (c.x, c.y)
    }
}

impl Add for Coord {
    type Output = Coord;
    fn add(self, rhs: Coord) -> Coord {
        Coord::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Coord {
    type Output = Coord;
    fn sub(self, rhs: Coord) -> Coord {
        Coord::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Coord {
    type Output = Coord;
    fn mul(self, rhs: f64) -> Coord {
        Coord::new(self.x * rhs, self.y * rhs)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Coord::new(0.0, 0.0);
        let b = Coord::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Coord::new(-2.5, 7.0);
        let b = Coord::new(3.25, -1.0);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn cross_and_dot() {
        let a = Coord::new(1.0, 0.0);
        let b = Coord::new(0.0, 1.0);
        assert_eq!(a.cross(&b), 1.0);
        assert_eq!(b.cross(&a), -1.0);
        assert_eq!(a.dot(&b), 0.0);
        assert_eq!(a.dot(&a), 1.0);
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let a = Coord::new(1.0, 2.0);
        let b = Coord::new(1.0 + 1e-12, 2.0 - 1e-12);
        assert!(a.approx_eq(&b));
        let c = Coord::new(1.0 + 1e-3, 2.0);
        assert!(!a.approx_eq(&c));
    }

    #[test]
    fn arithmetic_operators() {
        let a = Coord::new(1.0, 2.0);
        let b = Coord::new(3.0, 5.0);
        assert_eq!(a + b, Coord::new(4.0, 7.0));
        assert_eq!(b - a, Coord::new(2.0, 3.0));
        assert_eq!(a * 2.0, Coord::new(2.0, 4.0));
    }

    #[test]
    fn conversions() {
        let c: Coord = (1.5, -2.5).into();
        assert_eq!(c, Coord::new(1.5, -2.5));
        let t: (f64, f64) = c.into();
        assert_eq!(t, (1.5, -2.5));
    }

    #[test]
    fn display_format() {
        assert_eq!(Coord::new(1.5, 2.0).to_string(), "1.5 2");
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Coord::new(1.0, 2.0).is_finite());
        assert!(!Coord::new(f64::NAN, 2.0).is_finite());
        assert!(!Coord::new(1.0, f64::INFINITY).is_finite());
    }
}
