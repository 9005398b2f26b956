//! Topological predicates.
//!
//! The paper adds five boolean spatial operators to PRML: *Intersect*,
//! *Disjoint*, *Cross*, *Inside* and *Equals*. This module implements them
//! (plus the complementary *Contains* and *Touches* helpers) over every
//! combination of the four geometric types, following OGC Simple Features
//! semantics at the precision of [`crate::coord::EPSILON`].

use crate::algorithms::{point_on_segment, segments_intersect, SegmentIntersection};
use crate::coord::Coord;
use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::polygon::Polygon;

/// `Intersect(a, b)`: the geometries share at least one point.
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    // Cheap bounding-box rejection first. The exact predicates below all
    // tolerate EPSILON, so the fast path must too — otherwise a point a
    // true 1e-12 outside the box is rejected although the exact test would
    // accept it.
    match (a.bbox(), b.bbox()) {
        (Some(ba), Some(bb)) if !ba.buffered(crate::coord::EPSILON).intersects(&bb) => {
            return false
        }
        (None, _) | (_, None) => return false,
        _ => {}
    }
    match (a, b) {
        (Geometry::Collection(c), other) => c.iter().any(|g| intersects(g, other)),
        (other, Geometry::Collection(c)) => c.iter().any(|g| intersects(other, g)),
        (Geometry::Point(p), Geometry::Point(q)) => p.coord().approx_eq(&q.coord()),
        (Geometry::Point(p), Geometry::Line(l)) | (Geometry::Line(l), Geometry::Point(p)) => {
            point_on_line(&p.coord(), l)
        }
        (Geometry::Point(p), Geometry::Polygon(poly))
        | (Geometry::Polygon(poly), Geometry::Point(p)) => poly.contains_coord(&p.coord()),
        (Geometry::Line(a), Geometry::Line(b)) => lines_intersect(a, b),
        (Geometry::Line(l), Geometry::Polygon(p)) | (Geometry::Polygon(p), Geometry::Line(l)) => {
            line_polygon_intersect(l, p)
        }
        (Geometry::Polygon(a), Geometry::Polygon(b)) => polygons_intersect(a, b),
    }
}

/// `Disjoint(a, b)`: the geometries share no point. Defined as the negation
/// of [`intersects`], except that an empty geometry is disjoint from
/// everything.
pub fn disjoint(a: &Geometry, b: &Geometry) -> bool {
    !intersects(a, b)
}

/// `Equals(a, b)`: the geometries describe the same point set.
///
/// Points compare coordinate-wise; lines compare as equal vertex sequences
/// in either direction; polygons compare rings up to rotation and
/// direction; collections compare element-wise in order.
pub fn equals(a: &Geometry, b: &Geometry) -> bool {
    match (a, b) {
        (Geometry::Point(p), Geometry::Point(q)) => p.coord().approx_eq(&q.coord()),
        (Geometry::Line(l1), Geometry::Line(l2)) => {
            coords_equal(l1.coords(), l2.coords())
                || coords_equal(l1.coords(), l2.reversed().coords())
        }
        (Geometry::Polygon(p1), Geometry::Polygon(p2)) => {
            rings_equal(p1.exterior(), p2.exterior())
                && p1.interiors().len() == p2.interiors().len()
                && p1
                    .interiors()
                    .iter()
                    .zip(p2.interiors())
                    .all(|(r1, r2)| rings_equal(r1, r2))
        }
        (Geometry::Collection(c1), Geometry::Collection(c2)) => {
            c1.len() == c2.len() && c1.iter().zip(c2.iter()).all(|(g1, g2)| equals(g1, g2))
        }
        _ => false,
    }
}

/// `Inside(a, b)` (OGC *Within*): every point of `a` lies in `b` and the
/// geometries are not equal-dimensional boundaries only.
pub fn inside(a: &Geometry, b: &Geometry) -> bool {
    match (a, b) {
        (Geometry::Point(p), Geometry::Point(q)) => p.coord().approx_eq(&q.coord()),
        (Geometry::Point(p), Geometry::Line(l)) => point_on_line(&p.coord(), l),
        (Geometry::Point(p), Geometry::Polygon(poly)) => poly.contains_coord(&p.coord()),
        (Geometry::Line(l), Geometry::Polygon(poly)) => {
            l.coords().iter().all(|c| poly.contains_coord(c))
                && !line_crosses_polygon_boundary_outwards(l, poly)
        }
        (Geometry::Line(a), Geometry::Line(b)) => a.coords().iter().all(|c| point_on_line(c, b)),
        (Geometry::Polygon(a), Geometry::Polygon(b)) => {
            a.exterior().iter().all(|c| b.contains_coord(c))
        }
        (Geometry::Collection(c), other) => !c.is_empty() && c.iter().all(|g| inside(g, other)),
        (other, Geometry::Collection(c)) => c.iter().any(|g| inside(other, g)),
        // A polygon (2-D) can never be inside a point or a line.
        (Geometry::Polygon(_), Geometry::Point(_))
        | (Geometry::Polygon(_), Geometry::Line(_))
        | (Geometry::Line(_), Geometry::Point(_)) => false,
    }
}

/// `Contains(a, b)`: the converse of [`inside`].
pub fn contains(a: &Geometry, b: &Geometry) -> bool {
    inside(b, a)
}

/// `Cross(a, b)`: the geometries intersect, and the intersection is of a
/// lower dimension than the maximum of the two inputs and lies partly in
/// the interior of both (e.g. two roads crossing, or a road crossing a city
/// boundary).
pub fn crosses(a: &Geometry, b: &Geometry) -> bool {
    match (a, b) {
        (Geometry::Line(l1), Geometry::Line(l2)) => {
            // Lines cross when they intersect at isolated points that are
            // interior to at least one of them, and neither is inside the
            // other.
            intersects(a, b) && !inside(a, b) && !inside(b, a) && !proper_overlap(l1, l2)
        }
        (Geometry::Line(l), Geometry::Polygon(p)) | (Geometry::Polygon(p), Geometry::Line(l)) => {
            // A line crosses a polygon when it has interior points both
            // inside and outside the polygon.
            let (some_inside, some_outside) = line_interior_exterior(l, p);
            some_inside && some_outside
        }
        (Geometry::Point(_), _) | (_, Geometry::Point(_)) => false,
        (Geometry::Collection(c), other) => c.iter().any(|g| crosses(g, other)),
        (other, Geometry::Collection(c)) => c.iter().any(|g| crosses(other, g)),
        (Geometry::Polygon(_), Geometry::Polygon(_)) => false,
    }
}

/// `Touches(a, b)`: the geometries intersect only at their boundaries.
pub fn touches(a: &Geometry, b: &Geometry) -> bool {
    if !intersects(a, b) {
        return false;
    }
    match (a, b) {
        (Geometry::Point(p), Geometry::Line(l)) | (Geometry::Line(l), Geometry::Point(p)) => {
            let c = p.coord();
            let first = l.coords().first().expect("non-empty line");
            let last = l.coords().last().expect("non-empty line");
            c.approx_eq(first) || c.approx_eq(last)
        }
        (Geometry::Point(p), Geometry::Polygon(poly))
        | (Geometry::Polygon(poly), Geometry::Point(p)) => on_polygon_boundary(poly, &p.coord()),
        (Geometry::Line(l), Geometry::Polygon(p)) | (Geometry::Polygon(p), Geometry::Line(l)) => {
            // Touches: intersects the boundary but has no point strictly inside.
            let strictly_inside = l
                .coords()
                .iter()
                .any(|c| p.contains_coord(c) && !on_polygon_boundary(p, c));
            !strictly_inside
        }
        (Geometry::Polygon(p1), Geometry::Polygon(p2)) => !polygon_interiors_overlap(p1, p2),
        _ => false,
    }
}

// ----- helpers ---------------------------------------------------------

fn coords_equal(a: &[Coord], b: &[Coord]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.approx_eq(y))
}

/// Ring equality up to rotation and direction (rings are stored closed).
fn rings_equal(a: &[Coord], b: &[Coord]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let a_open = &a[..a.len() - 1];
    let b_open = &b[..b.len() - 1];
    let n = a_open.len();
    if n == 0 {
        return true;
    }
    for dir in [1i64, -1] {
        for offset in 0..n {
            let mut all = true;
            for (i, a_c) in a_open.iter().enumerate() {
                let j = ((offset as i64 + dir * i as i64).rem_euclid(n as i64)) as usize;
                if !a_c.approx_eq(&b_open[j]) {
                    all = false;
                    break;
                }
            }
            if all {
                return true;
            }
        }
    }
    false
}

/// Returns `true` if the coordinate lies on any segment of the line.
pub(crate) fn point_on_line(c: &Coord, l: &LineString) -> bool {
    l.segments().any(|(a, b)| point_on_segment(c, &a, &b))
}

fn lines_intersect(a: &LineString, b: &LineString) -> bool {
    for (a1, a2) in a.segments() {
        for (b1, b2) in b.segments() {
            if segments_intersect(&a1, &a2, &b1, &b2) {
                return true;
            }
        }
    }
    false
}

fn line_polygon_intersect(l: &LineString, p: &Polygon) -> bool {
    if l.coords().iter().any(|c| p.contains_coord(c)) {
        return true;
    }
    for (a, b) in l.segments() {
        for (c, d) in p.all_segments() {
            if segments_intersect(&a, &b, &c, &d) {
                return true;
            }
        }
    }
    false
}

fn polygons_intersect(a: &Polygon, b: &Polygon) -> bool {
    if a.exterior().iter().any(|c| b.contains_coord(c))
        || b.exterior().iter().any(|c| a.contains_coord(c))
    {
        return true;
    }
    for (a1, a2) in a.all_segments() {
        for (b1, b2) in b.all_segments() {
            if segments_intersect(&a1, &a2, &b1, &b2) {
                return true;
            }
        }
    }
    false
}

fn on_polygon_boundary(p: &Polygon, c: &Coord) -> bool {
    crate::polygon::on_ring_boundary(p.exterior(), c)
        || p.interiors()
            .iter()
            .any(|r| crate::polygon::on_ring_boundary(r, c))
}

/// Returns `true` if any pair of segments from the two lines overlap
/// collinearly over a non-degenerate length.
fn proper_overlap(a: &LineString, b: &LineString) -> bool {
    for (a1, a2) in a.segments() {
        for (b1, b2) in b.segments() {
            if let SegmentIntersection::Overlap(s, e) =
                crate::algorithms::segment_intersection(&a1, &a2, &b1, &b2)
            {
                if !s.approx_eq(&e) {
                    return true;
                }
            }
        }
    }
    false
}

fn line_crosses_polygon_boundary_outwards(l: &LineString, p: &Polygon) -> bool {
    l.coords().iter().any(|c| !p.contains_coord(c))
}

/// Splits every segment of the line at its crossings with the polygon
/// boundary and classifies the piece midpoints, returning
/// `(has_interior_piece, has_exterior_piece)`.
fn line_interior_exterior(l: &LineString, p: &Polygon) -> (bool, bool) {
    let mut some_inside = false;
    let mut some_outside = false;
    for (a, b) in l.segments() {
        let mut cuts = vec![0.0f64, 1.0];
        for (c, d) in p.all_segments() {
            match crate::algorithms::segment_intersection(&a, &b, &c, &d) {
                SegmentIntersection::Point(x) => {
                    if let Some(t) = segment_param(&a, &b, &x) {
                        cuts.push(t);
                    }
                }
                SegmentIntersection::Overlap(s, e) => {
                    for x in [s, e] {
                        if let Some(t) = segment_param(&a, &b, &x) {
                            cuts.push(t);
                        }
                    }
                }
                SegmentIntersection::None => {}
            }
        }
        cuts.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
        for w in cuts.windows(2) {
            if w[1] - w[0] < 1e-12 {
                continue;
            }
            let mid_t = (w[0] + w[1]) / 2.0;
            let mid = Coord::new(a.x + (b.x - a.x) * mid_t, a.y + (b.y - a.y) * mid_t);
            if on_polygon_boundary(p, &mid) {
                continue;
            }
            if p.contains_coord(&mid) {
                some_inside = true;
            } else {
                some_outside = true;
            }
            if some_inside && some_outside {
                return (true, true);
            }
        }
    }
    (some_inside, some_outside)
}

/// Parametric position of `x` along the segment `a`-`b`, when it lies on it.
fn segment_param(a: &Coord, b: &Coord, x: &Coord) -> Option<f64> {
    let ab = *b - *a;
    let len2 = ab.dot(&ab);
    if len2 <= f64::EPSILON {
        return None;
    }
    let t = (*x - *a).dot(&ab) / len2;
    if (-1e-9..=1.0 + 1e-9).contains(&t) {
        Some(t.clamp(0.0, 1.0))
    } else {
        None
    }
}

/// Returns `true` when the interiors (not just boundaries) of two polygons
/// share points. Checks exterior vertices, edge midpoints and the centre of
/// the bounding-box overlap.
fn polygon_interiors_overlap(p1: &Polygon, p2: &Polygon) -> bool {
    let strict_in =
        |poly: &Polygon, c: &Coord| poly.contains_coord(c) && !on_polygon_boundary(poly, c);
    if p1.exterior().iter().any(|c| strict_in(p2, c))
        || p2.exterior().iter().any(|c| strict_in(p1, c))
    {
        return true;
    }
    let midpoints = |poly: &Polygon| -> Vec<Coord> {
        poly.all_segments()
            .iter()
            .map(|(a, b)| Coord::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0))
            .collect()
    };
    if midpoints(p1).iter().any(|c| strict_in(p2, c))
        || midpoints(p2).iter().any(|c| strict_in(p1, c))
    {
        return true;
    }
    if let Some(overlap) = p1.bbox().intersection(&p2.bbox()) {
        let c = overlap.center();
        if strict_in(p1, &c) && strict_in(p2, &c) {
            return true;
        }
    }
    false
}

/// Evaluates a predicate by name, as referenced from PRML rule text.
///
/// Recognised names (case-insensitive): `Intersect`, `Intersects`,
/// `Disjoint`, `Cross`, `Crosses`, `Inside`, `Within`, `Equals`,
/// `Contains`, `Touches`.
pub fn evaluate_named(name: &str, a: &Geometry, b: &Geometry) -> Option<bool> {
    match name.to_ascii_lowercase().as_str() {
        "intersect" | "intersects" => Some(intersects(a, b)),
        "disjoint" => Some(disjoint(a, b)),
        "cross" | "crosses" => Some(crosses(a, b)),
        "inside" | "within" => Some(inside(a, b)),
        "equals" => Some(equals(a, b)),
        "contains" => Some(contains(a, b)),
        "touches" => Some(touches(a, b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::GeometryCollection;
    use crate::point::Point;

    fn pt(x: f64, y: f64) -> Geometry {
        Point::new(x, y).into()
    }

    fn line(coords: &[(f64, f64)]) -> Geometry {
        LineString::from_tuples(coords).unwrap().into()
    }

    fn poly(coords: &[(f64, f64)]) -> Geometry {
        Polygon::from_tuples(coords).unwrap().into()
    }

    fn unit_square() -> Geometry {
        poly(&[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])
    }

    #[test]
    fn point_point_predicates() {
        assert!(intersects(&pt(1.0, 1.0), &pt(1.0, 1.0)));
        assert!(!intersects(&pt(1.0, 1.0), &pt(1.0, 2.0)));
        assert!(equals(&pt(1.0, 1.0), &pt(1.0, 1.0)));
        assert!(disjoint(&pt(0.0, 0.0), &pt(5.0, 5.0)));
        assert!(inside(&pt(1.0, 1.0), &pt(1.0, 1.0)));
    }

    #[test]
    fn point_line_predicates() {
        let l = line(&[(0.0, 0.0), (10.0, 0.0)]);
        assert!(intersects(&pt(5.0, 0.0), &l));
        assert!(!intersects(&pt(5.0, 1.0), &l));
        assert!(inside(&pt(5.0, 0.0), &l));
        assert!(touches(&pt(0.0, 0.0), &l));
        assert!(!touches(&pt(5.0, 0.0), &l));
    }

    #[test]
    fn point_polygon_predicates() {
        let p = unit_square();
        assert!(intersects(&pt(5.0, 5.0), &p));
        assert!(inside(&pt(5.0, 5.0), &p));
        assert!(!inside(&pt(15.0, 5.0), &p));
        assert!(touches(&pt(0.0, 5.0), &p));
        assert!(contains(&p, &pt(5.0, 5.0)));
    }

    #[test]
    fn line_line_predicates() {
        let a = line(&[(0.0, 0.0), (10.0, 10.0)]);
        let b = line(&[(0.0, 10.0), (10.0, 0.0)]);
        let c = line(&[(20.0, 20.0), (30.0, 30.0)]);
        assert!(intersects(&a, &b));
        assert!(crosses(&a, &b));
        assert!(disjoint(&a, &c));
        assert!(!crosses(&a, &c));
        // A line does not cross itself (it's equal / inside).
        assert!(!crosses(&a, &a));
        assert!(equals(&a, &a));
        // Reversed line is still equal.
        let rev = line(&[(10.0, 10.0), (0.0, 0.0)]);
        assert!(equals(&a, &rev));
    }

    #[test]
    fn collinear_overlapping_lines_do_not_cross() {
        let a = line(&[(0.0, 0.0), (10.0, 0.0)]);
        let b = line(&[(5.0, 0.0), (15.0, 0.0)]);
        assert!(intersects(&a, &b));
        assert!(!crosses(&a, &b));
    }

    #[test]
    fn line_polygon_predicates() {
        let square = unit_square();
        let crossing = line(&[(-5.0, 5.0), (15.0, 5.0)]);
        let inside_line = line(&[(2.0, 2.0), (8.0, 8.0)]);
        let outside_line = line(&[(20.0, 20.0), (30.0, 20.0)]);
        assert!(intersects(&crossing, &square));
        assert!(crosses(&crossing, &square));
        assert!(intersects(&inside_line, &square));
        assert!(inside(&inside_line, &square));
        assert!(!crosses(&inside_line, &square));
        assert!(disjoint(&outside_line, &square));
    }

    #[test]
    fn polygon_polygon_predicates() {
        let a = unit_square();
        let b = poly(&[(5.0, 5.0), (15.0, 5.0), (15.0, 15.0), (5.0, 15.0)]);
        let c = poly(&[(20.0, 20.0), (25.0, 20.0), (25.0, 25.0), (20.0, 25.0)]);
        let inner = poly(&[(2.0, 2.0), (4.0, 2.0), (4.0, 4.0), (2.0, 4.0)]);
        assert!(intersects(&a, &b));
        assert!(disjoint(&a, &c));
        assert!(inside(&inner, &a));
        assert!(contains(&a, &inner));
        assert!(!inside(&a, &inner));
        assert!(equals(&a, &a));
    }

    #[test]
    fn touching_polygons() {
        let a = unit_square();
        let adjacent = poly(&[(10.0, 0.0), (20.0, 0.0), (20.0, 10.0), (10.0, 10.0)]);
        assert!(intersects(&a, &adjacent));
        assert!(touches(&a, &adjacent));
        let overlapping = poly(&[(5.0, 0.0), (20.0, 0.0), (20.0, 10.0), (5.0, 10.0)]);
        assert!(!touches(&a, &overlapping));
    }

    #[test]
    fn polygon_ring_equality_up_to_rotation() {
        let a = poly(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        let rotated = poly(&[(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]);
        let reversed = poly(&[(0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.0, 0.0)]);
        assert!(equals(&a, &rotated));
        assert!(equals(&a, &reversed));
        let other = poly(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]);
        assert!(!equals(&a, &other));
    }

    #[test]
    fn collection_predicates() {
        let c: Geometry = GeometryCollection::new(vec![pt(1.0, 1.0), pt(20.0, 20.0)]).into();
        let square = unit_square();
        assert!(intersects(&c, &square));
        assert!(!inside(&c, &square)); // one member is outside
        let all_in: Geometry = GeometryCollection::new(vec![pt(1.0, 1.0), pt(2.0, 2.0)]).into();
        assert!(inside(&all_in, &square));
        let empty: Geometry = GeometryCollection::empty().into();
        assert!(disjoint(&empty, &square));
        assert!(!inside(&empty, &square));
    }

    #[test]
    fn named_predicate_dispatch() {
        let a = pt(1.0, 1.0);
        let b = pt(1.0, 1.0);
        assert_eq!(evaluate_named("Intersect", &a, &b), Some(true));
        assert_eq!(evaluate_named("DISJOINT", &a, &b), Some(false));
        assert_eq!(evaluate_named("equals", &a, &b), Some(true));
        assert_eq!(evaluate_named("inside", &a, &b), Some(true));
        assert_eq!(evaluate_named("nonsense", &a, &b), None);
    }

    #[test]
    fn points_never_cross() {
        assert!(!crosses(&pt(0.0, 0.0), &pt(0.0, 0.0)));
        assert!(!crosses(&pt(0.0, 0.0), &unit_square()));
    }
}
