//! The POINT geometric primitive.

use crate::bbox::BoundingBox;
use crate::coord::Coord;
use std::fmt;

/// A single position on the plane (the paper's `POINT` geometric type).
///
/// Points describe store buildings, airports, customer addresses and the
/// decision maker's location context.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point(pub Coord);

impl Point {
    /// Creates a point from its x and y components.
    pub fn new(x: f64, y: f64) -> Self {
        Point(Coord::new(x, y))
    }

    /// Creates a point from a coordinate.
    pub fn from_coord(c: Coord) -> Self {
        Point(c)
    }

    /// The x component.
    pub fn x(&self) -> f64 {
        self.0.x
    }

    /// The y component.
    pub fn y(&self) -> f64 {
        self.0.y
    }

    /// The underlying coordinate.
    pub fn coord(&self) -> Coord {
        self.0
    }

    /// The (degenerate) bounding box of the point.
    pub fn bbox(&self) -> BoundingBox {
        BoundingBox::from_coord(self.0)
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        self.0.distance(&other.0)
    }
}

impl From<Coord> for Point {
    fn from(c: Coord) -> Self {
        Point(c)
    }
}

impl From<(f64, f64)> for Point {
    fn from(t: (f64, f64)) -> Self {
        Point(t.into())
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "POINT ({} {})", self.x(), self.y())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = Point::new(3.0, -2.0);
        assert_eq!(p.x(), 3.0);
        assert_eq!(p.y(), -2.0);
        assert_eq!(p.coord(), Coord::new(3.0, -2.0));
    }

    #[test]
    fn bbox_is_degenerate() {
        let p = Point::new(1.0, 2.0);
        let b = p.bbox();
        assert_eq!(b.min_x, 1.0);
        assert_eq!(b.max_x, 1.0);
        assert_eq!(b.area(), 0.0);
    }

    #[test]
    fn distance_between_points() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(6.0, 8.0);
        assert_eq!(a.distance(&b), 10.0);
    }

    #[test]
    fn conversions_and_display() {
        let p: Point = (2.0, 4.0).into();
        assert_eq!(p, Point::new(2.0, 4.0));
        assert_eq!(p.to_string(), "POINT (2 4)");
        let q: Point = Coord::new(1.0, 1.0).into();
        assert_eq!(q, Point::new(1.0, 1.0));
    }
}
