//! The LINE geometric primitive (polyline).

use crate::bbox::BoundingBox;
use crate::coord::Coord;
use crate::error::GeometryError;
use std::fmt;

/// A polyline of two or more coordinates (the paper's `LINE` geometric
/// type).
///
/// Line strings describe train lines, highways and other linear geographic
/// layers added by the `AddLayer` personalization action.
#[derive(Debug, Clone, PartialEq)]
pub struct LineString {
    coords: Vec<Coord>,
}

impl LineString {
    /// Creates a line string from at least two finite coordinates.
    pub fn new(coords: Vec<Coord>) -> Result<Self, GeometryError> {
        if coords.len() < 2 {
            return Err(GeometryError::TooFewCoordinates {
                kind: "LineString",
                required: 2,
                actual: coords.len(),
            });
        }
        if let Some(c) = coords.iter().find(|c| !c.is_finite()) {
            return Err(GeometryError::NonFiniteCoordinate { x: c.x, y: c.y });
        }
        Ok(LineString { coords })
    }

    /// Convenience constructor from `(x, y)` tuples.
    pub fn from_tuples(tuples: &[(f64, f64)]) -> Result<Self, GeometryError> {
        LineString::new(tuples.iter().map(|&t| t.into()).collect())
    }

    /// The coordinates making up the line.
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// Number of coordinates (vertices).
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// A line string never has fewer than two coordinates, so it is never
    /// empty; this is provided for API symmetry with collections.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over the consecutive coordinate pairs forming segments.
    pub fn segments(&self) -> impl Iterator<Item = (Coord, Coord)> + '_ {
        self.coords.windows(2).map(|w| (w[0], w[1]))
    }

    /// Total length of the polyline (sum of segment lengths).
    pub fn length(&self) -> f64 {
        self.segments().map(|(a, b)| a.distance(&b)).sum()
    }

    /// The bounding box of the line.
    pub fn bbox(&self) -> BoundingBox {
        // A line string always has at least two coordinates.
        BoundingBox::from_coords(&self.coords).expect("LineString is never empty")
    }

    /// Returns a reversed copy of the line.
    pub fn reversed(&self) -> LineString {
        let mut coords = self.coords.clone();
        coords.reverse();
        LineString { coords }
    }
}

impl fmt::Display for LineString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LINESTRING (")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> LineString {
        LineString::from_tuples(&[(0.0, 0.0), (3.0, 4.0), (3.0, 8.0)]).unwrap()
    }

    #[test]
    fn construction_requires_two_coords() {
        let err = LineString::new(vec![Coord::new(0.0, 0.0)]).unwrap_err();
        assert!(matches!(
            err,
            GeometryError::TooFewCoordinates { actual: 1, .. }
        ));
        assert!(LineString::new(vec![]).is_err());
    }

    #[test]
    fn construction_rejects_non_finite() {
        let err = LineString::from_tuples(&[(0.0, 0.0), (f64::NAN, 1.0)]).unwrap_err();
        assert!(matches!(err, GeometryError::NonFiniteCoordinate { .. }));
    }

    #[test]
    fn length_sums_segments() {
        assert_eq!(line().length(), 9.0);
    }

    #[test]
    fn bbox_covers_all_vertices() {
        let b = line().bbox();
        assert_eq!(b, BoundingBox::new(0.0, 0.0, 3.0, 8.0));
    }

    #[test]
    fn reversed_preserves_length() {
        let l = line();
        let r = l.reversed();
        assert_eq!(l.length(), r.length());
        assert_eq!(r.coords()[0], Coord::new(3.0, 8.0));
    }

    #[test]
    fn display_wkt_like() {
        let l = LineString::from_tuples(&[(0.0, 0.0), (1.0, 2.0)]).unwrap();
        assert_eq!(l.to_string(), "LINESTRING (0 0, 1 2)");
    }
}
