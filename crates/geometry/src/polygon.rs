//! The POLYGON geometric primitive.

use crate::bbox::BoundingBox;
use crate::coord::Coord;
use crate::error::GeometryError;
use std::fmt;

/// A simple polygon with one exterior ring and zero or more interior rings
/// (holes) — the paper's `POLYGON` geometric type.
///
/// Rings are stored closed (first coordinate equals last). Polygons describe
/// administrative areas (cities, states) and other areal layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    exterior: Vec<Coord>,
    interiors: Vec<Vec<Coord>>,
}

/// Validates and normalises a ring: at least 4 coordinates, closed, finite.
fn validate_ring(mut ring: Vec<Coord>) -> Result<Vec<Coord>, GeometryError> {
    if let Some(c) = ring.iter().find(|c| !c.is_finite()) {
        return Err(GeometryError::NonFiniteCoordinate { x: c.x, y: c.y });
    }
    // Auto-close nearly-closed rings of >= 3 distinct coordinates.
    if ring.len() >= 3 {
        let closed = ring
            .first()
            .zip(ring.last())
            .map(|(a, b)| a.approx_eq(b))
            .unwrap_or(false);
        if !closed {
            let first = ring[0];
            ring.push(first);
        }
    }
    if ring.len() < 4 {
        return Err(GeometryError::TooFewCoordinates {
            kind: "Polygon ring",
            required: 4,
            actual: ring.len(),
        });
    }
    Ok(ring)
}

impl Polygon {
    /// Creates a polygon from an exterior ring and optional holes.
    ///
    /// Rings with at least three distinct coordinates are closed
    /// automatically if the last coordinate does not repeat the first.
    pub fn new(exterior: Vec<Coord>, interiors: Vec<Vec<Coord>>) -> Result<Self, GeometryError> {
        let exterior = validate_ring(exterior)?;
        let interiors = interiors
            .into_iter()
            .map(validate_ring)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Polygon {
            exterior,
            interiors,
        })
    }

    /// Convenience constructor for a hole-free polygon from tuples.
    pub fn from_tuples(exterior: &[(f64, f64)]) -> Result<Self, GeometryError> {
        Polygon::new(exterior.iter().map(|&t| t.into()).collect(), Vec::new())
    }

    /// The closed exterior ring.
    pub fn exterior(&self) -> &[Coord] {
        &self.exterior
    }

    /// The closed interior rings (holes).
    pub fn interiors(&self) -> &[Vec<Coord>] {
        &self.interiors
    }

    /// The bounding box of the exterior ring.
    pub fn bbox(&self) -> BoundingBox {
        BoundingBox::from_coords(&self.exterior).expect("exterior ring is never empty")
    }

    /// Signed area of a closed ring (positive when counter-clockwise).
    pub(crate) fn ring_signed_area(ring: &[Coord]) -> f64 {
        let mut sum = 0.0;
        for w in ring.windows(2) {
            sum += w[0].cross(&w[1]);
        }
        sum / 2.0
    }

    /// Unsigned area of the polygon (exterior minus holes).
    pub fn area(&self) -> f64 {
        let ext = Self::ring_signed_area(&self.exterior).abs();
        let holes: f64 = self
            .interiors
            .iter()
            .map(|r| Self::ring_signed_area(r).abs())
            .sum();
        (ext - holes).max(0.0)
    }

    /// Perimeter of the exterior ring.
    pub fn perimeter(&self) -> f64 {
        self.exterior.windows(2).map(|w| w[0].distance(&w[1])).sum()
    }

    /// Centroid of the exterior ring (area-weighted). Falls back to the
    /// vertex average for degenerate (zero-area) polygons.
    pub fn centroid(&self) -> Coord {
        let a = Self::ring_signed_area(&self.exterior);
        if a.abs() < f64::EPSILON {
            let n = (self.exterior.len() - 1) as f64;
            let (sx, sy) = self.exterior[..self.exterior.len() - 1]
                .iter()
                .fold((0.0, 0.0), |(sx, sy), c| (sx + c.x, sy + c.y));
            return Coord::new(sx / n, sy / n);
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        for w in self.exterior.windows(2) {
            let cross = w[0].cross(&w[1]);
            cx += (w[0].x + w[1].x) * cross;
            cy += (w[0].y + w[1].y) * cross;
        }
        Coord::new(cx / (6.0 * a), cy / (6.0 * a))
    }

    /// Tests whether a coordinate lies inside the polygon (holes excluded).
    /// Points exactly on the boundary are considered inside.
    pub fn contains_coord(&self, c: &Coord) -> bool {
        if !ring_contains(&self.exterior, c) {
            return false;
        }
        for hole in &self.interiors {
            if ring_contains_strict(hole, c) {
                return false;
            }
        }
        true
    }

    /// Iterates over the segments of all rings (exterior then holes).
    pub fn all_segments(&self) -> Vec<(Coord, Coord)> {
        let mut segs: Vec<(Coord, Coord)> =
            self.exterior.windows(2).map(|w| (w[0], w[1])).collect();
        for hole in &self.interiors {
            segs.extend(hole.windows(2).map(|w| (w[0], w[1])));
        }
        segs
    }
}

/// Ray-casting point-in-ring test, boundary counts as inside.
pub(crate) fn ring_contains(ring: &[Coord], c: &Coord) -> bool {
    if on_ring_boundary(ring, c) {
        return true;
    }
    ring_contains_strict(ring, c)
}

/// Ray-casting point-in-ring test, boundary excluded.
pub(crate) fn ring_contains_strict(ring: &[Coord], c: &Coord) -> bool {
    let mut inside = false;
    for w in ring.windows(2) {
        let (a, b) = (w[0], w[1]);
        let intersects_ray = (a.y > c.y) != (b.y > c.y);
        if intersects_ray {
            let x_at_y = a.x + (c.y - a.y) / (b.y - a.y) * (b.x - a.x);
            if c.x < x_at_y {
                inside = !inside;
            }
        }
    }
    inside
}

/// Returns `true` if the coordinate lies on any segment of the ring.
pub(crate) fn on_ring_boundary(ring: &[Coord], c: &Coord) -> bool {
    ring.windows(2)
        .any(|w| crate::algorithms::point_on_segment(c, &w[0], &w[1]))
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "POLYGON (")?;
        let write_ring = |f: &mut fmt::Formatter<'_>, ring: &[Coord]| -> fmt::Result {
            write!(f, "(")?;
            for (i, c) in ring.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, ")")
        };
        write_ring(f, &self.exterior)?;
        for hole in &self.interiors {
            write!(f, ", ")?;
            write_ring(f, hole)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::from_tuples(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]).unwrap()
    }

    #[test]
    fn auto_closes_ring() {
        let p = unit_square();
        assert_eq!(p.exterior().len(), 5);
        assert_eq!(p.exterior()[0], p.exterior()[4]);
    }

    #[test]
    fn rejects_too_small_rings() {
        let err = Polygon::from_tuples(&[(0.0, 0.0), (1.0, 0.0)]).unwrap_err();
        assert!(matches!(err, GeometryError::TooFewCoordinates { .. }));
    }

    #[test]
    fn rejects_non_finite() {
        let err =
            Polygon::from_tuples(&[(0.0, 0.0), (1.0, 0.0), (f64::INFINITY, 1.0)]).unwrap_err();
        assert!(matches!(err, GeometryError::NonFiniteCoordinate { .. }));
    }

    #[test]
    fn area_and_perimeter() {
        let p = unit_square();
        assert!((p.area() - 1.0).abs() < 1e-12);
        assert!((p.perimeter() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn area_with_hole() {
        let hole = vec![
            Coord::new(0.25, 0.25),
            Coord::new(0.75, 0.25),
            Coord::new(0.75, 0.75),
            Coord::new(0.25, 0.75),
            Coord::new(0.25, 0.25),
        ];
        let p = Polygon::new(unit_square().exterior().to_vec(), vec![hole]).unwrap();
        assert!((p.area() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_square() {
        let c = unit_square().centroid();
        assert!((c.x - 0.5).abs() < 1e-12);
        assert!((c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn contains_coord_inside_outside_boundary() {
        let p = unit_square();
        assert!(p.contains_coord(&Coord::new(0.5, 0.5)));
        assert!(!p.contains_coord(&Coord::new(1.5, 0.5)));
        assert!(p.contains_coord(&Coord::new(1.0, 0.5))); // boundary
        assert!(p.contains_coord(&Coord::new(0.0, 0.0))); // vertex
    }

    #[test]
    fn contains_respects_holes() {
        let hole = vec![
            Coord::new(0.4, 0.4),
            Coord::new(0.6, 0.4),
            Coord::new(0.6, 0.6),
            Coord::new(0.4, 0.6),
            Coord::new(0.4, 0.4),
        ];
        let p = Polygon::new(unit_square().exterior().to_vec(), vec![hole]).unwrap();
        assert!(!p.contains_coord(&Coord::new(0.5, 0.5)));
        assert!(p.contains_coord(&Coord::new(0.1, 0.1)));
    }

    #[test]
    fn centroid_degenerate_polygon() {
        // All points collinear: area is zero, centroid falls back to mean.
        let p = Polygon::from_tuples(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]).unwrap();
        let c = p.centroid();
        assert!((c.x - 1.0).abs() < 1e-12);
        assert_eq!(c.y, 0.0);
    }

    #[test]
    fn display_wkt_like() {
        let p = Polygon::from_tuples(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]).unwrap();
        assert!(p.to_string().starts_with("POLYGON (("));
    }

    #[test]
    fn all_segments_count() {
        let p = unit_square();
        assert_eq!(p.all_segments().len(), 4);
    }
}
