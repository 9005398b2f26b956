//! The `Intersection` spatial operator.
//!
//! The paper's third operator class "returns another geometric object
//! depending on the involved elements and the order. For example, if we
//! intersect LINE type with POINT the operator returns a COLLECTION type of
//! sublines. However, if it is POINT intersecting LINE type the operator
//! returns a COLLECTION type of points." This module implements that
//! order-sensitive operator: the *result is framed in terms of the
//! left-hand geometry* (sub-geometries of the first operand that touch the
//! second operand).

use crate::algorithms::{segment_intersection, SegmentIntersection};
use crate::collection::GeometryCollection;
use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::predicates;

/// Computes the order-sensitive intersection of `a` with `b`.
///
/// The result is always a [`GeometryCollection`] (possibly empty), as
/// specified by the paper. Members of the collection are pieces *of `a`*:
///
/// * `POINT ∩ anything` → collection of points (the point, if it lies in `b`);
/// * `LINE ∩ POINT` → collection of sub-lines of `a` containing the point
///   (the segments of `a` that the point lies on);
/// * `LINE ∩ LINE` → collection of intersection points and shared sub-lines;
/// * `LINE ∩ POLYGON` → collection of the sub-lines of `a` inside the polygon;
/// * `POLYGON ∩ x` → collection of the boundary pieces of `a` touching `x`
///   plus, when `x` is areal and overlaps, the clipped overlap polygon
///   approximated by the covered boundary; for the personalization rules in
///   the paper only point/line results are consumed.
/// * Collections distribute member-wise.
pub fn intersection(a: &Geometry, b: &Geometry) -> GeometryCollection {
    match (a, b) {
        (Geometry::Collection(c), other) => c
            .iter()
            .flat_map(|g| intersection(g, other).into_iter())
            .collect(),
        (other, Geometry::Collection(c)) => c
            .iter()
            .flat_map(|g| intersection(other, g).into_iter())
            .collect(),
        (Geometry::Point(p), other) => point_with(p, other),
        (Geometry::Line(l), Geometry::Point(p)) => line_with_point(l, p),
        (Geometry::Line(l1), Geometry::Line(l2)) => line_with_line(l1, l2),
        (Geometry::Line(l), Geometry::Polygon(poly)) => line_with_polygon(l, poly),
        (Geometry::Polygon(poly), other) => polygon_with(poly, other),
    }
}

fn point_with(p: &Point, other: &Geometry) -> GeometryCollection {
    if predicates::intersects(&Geometry::Point(*p), other) {
        GeometryCollection::new(vec![Geometry::Point(*p)])
    } else {
        GeometryCollection::empty()
    }
}

/// `LINE ∩ POINT`: when the point lies on the line, the line is *split at
/// the point* and the resulting sub-lines are returned. This is the reading
/// that makes the paper's Example 5.3 work: splitting the train line at the
/// city (and then at the airport) isolates "the corresponding segment"
/// whose length the rule thresholds.
fn line_with_point(l: &LineString, p: &Point) -> GeometryCollection {
    let c = p.coord();
    // `point_on_line` is `intersects(LINE, POINT)` without the envelope
    // pre-test (which never rejects a point the segment test accepts), so
    // the line is tested in place rather than wrapped in a `Geometry`.
    if !predicates::point_on_line(&c, l) {
        return GeometryCollection::empty();
    }
    let mut before: Vec<crate::coord::Coord> = Vec::new();
    let mut after: Vec<crate::coord::Coord> = Vec::new();
    let mut split_done = false;
    let coords = l.coords();
    for (index, window) in coords.windows(2).enumerate() {
        let (a, b) = (window[0], window[1]);
        if !split_done {
            before.push(a);
            if crate::algorithms::point_on_segment(&c, &a, &b) {
                if !c.approx_eq(&a) {
                    before.push(c);
                }
                split_done = true;
                after.push(c);
                if !c.approx_eq(&b) {
                    after.push(b);
                }
            }
        } else {
            after.push(b);
        }
        // Make sure the final coordinate lands in `before` when the point
        // sits on the very last segment end.
        if !split_done && index == coords.len() - 2 {
            before.push(b);
        }
    }
    let mut out = Vec::new();
    for piece in [before, after] {
        let mut deduped = piece;
        deduped.dedup_by(|a, b| a.approx_eq(b));
        if deduped.len() >= 2 {
            if let Ok(sub) = LineString::new(deduped) {
                out.push(Geometry::Line(sub));
            }
        }
    }
    GeometryCollection::new(out)
}

fn line_with_line(l1: &LineString, l2: &LineString) -> GeometryCollection {
    let mut out: Vec<Geometry> = Vec::new();
    for (a1, a2) in l1.segments() {
        for (b1, b2) in l2.segments() {
            match segment_intersection(&a1, &a2, &b1, &b2) {
                SegmentIntersection::None => {}
                SegmentIntersection::Point(p) => {
                    let g = Geometry::Point(Point::from_coord(p));
                    if !out.iter().any(|existing| predicates::equals(existing, &g)) {
                        out.push(g);
                    }
                }
                SegmentIntersection::Overlap(s, e) => {
                    if let Ok(sub) = LineString::new(vec![s, e]) {
                        let g = Geometry::Line(sub);
                        if !out.iter().any(|existing| predicates::equals(existing, &g)) {
                            out.push(g);
                        }
                    }
                }
            }
        }
    }
    GeometryCollection::new(out)
}

/// Clips a line string against a polygon, returning the sub-lines of the
/// line that lie inside (or on the boundary of) the polygon.
fn line_with_polygon(l: &LineString, poly: &Polygon) -> GeometryCollection {
    let mut pieces: Vec<Geometry> = Vec::new();
    for (a, b) in l.segments() {
        // Collect the parametric cut positions along [a, b].
        let mut cuts = vec![0.0f64, 1.0];
        for (c, d) in poly.all_segments() {
            match segment_intersection(&a, &b, &c, &d) {
                SegmentIntersection::Point(p) => {
                    if let Some(t) = param_on_segment(&a, &b, &p) {
                        cuts.push(t);
                    }
                }
                SegmentIntersection::Overlap(s, e) => {
                    if let Some(t) = param_on_segment(&a, &b, &s) {
                        cuts.push(t);
                    }
                    if let Some(t) = param_on_segment(&a, &b, &e) {
                        cuts.push(t);
                    }
                }
                SegmentIntersection::None => {}
            }
        }
        cuts.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
        cuts.dedup_by(|x, y| (*x - *y).abs() < 1e-12);
        for w in cuts.windows(2) {
            let (t0, t1) = (w[0], w[1]);
            if t1 - t0 < 1e-12 {
                continue;
            }
            let mid_t = (t0 + t1) / 2.0;
            let mid = lerp(&a, &b, mid_t);
            if poly.contains_coord(&mid) {
                let start = lerp(&a, &b, t0);
                let end = lerp(&a, &b, t1);
                if let Ok(sub) = LineString::new(vec![start, end]) {
                    pieces.push(Geometry::Line(sub));
                }
            }
        }
    }
    GeometryCollection::new(merge_adjacent_lines(pieces))
}

fn polygon_with(poly: &Polygon, other: &Geometry) -> GeometryCollection {
    match other {
        Geometry::Point(p) => {
            if poly.contains_coord(&p.coord()) {
                GeometryCollection::new(vec![Geometry::Point(*p)])
            } else {
                GeometryCollection::empty()
            }
        }
        Geometry::Line(l) => line_with_polygon(l, poly),
        Geometry::Polygon(other_poly) => {
            // Approximate: the exterior boundary of `poly` clipped to the
            // other polygon, plus the other way around. Adequate for
            // predicate-style consumption (emptiness / distance checks).
            let boundary = LineString::new(poly.exterior().to_vec())
                .expect("polygon exterior has >= 4 coords");
            let mut pieces: Vec<Geometry> = line_with_polygon(&boundary, other_poly)
                .into_iter()
                .collect();
            let other_boundary = LineString::new(other_poly.exterior().to_vec())
                .expect("polygon exterior has >= 4 coords");
            pieces.extend(line_with_polygon(&other_boundary, poly));
            GeometryCollection::new(pieces)
        }
        Geometry::Collection(c) => c
            .iter()
            .flat_map(|g| polygon_with(poly, g).into_iter())
            .collect(),
    }
}

fn lerp(a: &crate::coord::Coord, b: &crate::coord::Coord, t: f64) -> crate::coord::Coord {
    crate::coord::Coord::new(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
}

fn param_on_segment(
    a: &crate::coord::Coord,
    b: &crate::coord::Coord,
    p: &crate::coord::Coord,
) -> Option<f64> {
    let ab = *b - *a;
    let len2 = ab.dot(&ab);
    if len2 <= f64::EPSILON {
        return None;
    }
    let t = (*p - *a).dot(&ab) / len2;
    if (-1e-9..=1.0 + 1e-9).contains(&t) {
        Some(t.clamp(0.0, 1.0))
    } else {
        None
    }
}

/// Merges consecutive collinear line pieces that share endpoints; keeps the
/// result simple for display and comparison.
fn merge_adjacent_lines(pieces: Vec<Geometry>) -> Vec<Geometry> {
    let mut merged: Vec<Geometry> = Vec::with_capacity(pieces.len());
    for piece in pieces {
        let Some(last) = merged.last() else {
            merged.push(piece);
            continue;
        };
        let joined = match (last.as_line(), piece.as_line()) {
            (Some(a), Some(b)) => {
                let a_end = *a.coords().last().expect("non-empty");
                let b_start = b.coords()[0];
                if a_end.approx_eq(&b_start) {
                    let mut coords = a.coords().to_vec();
                    coords.extend_from_slice(&b.coords()[1..]);
                    LineString::new(coords).ok().map(Geometry::Line)
                } else {
                    None
                }
            }
            _ => None,
        };
        match joined {
            Some(j) => {
                merged.pop();
                merged.push(j);
            }
            None => merged.push(piece),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::GeometricType;

    fn pt(x: f64, y: f64) -> Geometry {
        Point::new(x, y).into()
    }

    fn line(coords: &[(f64, f64)]) -> Geometry {
        LineString::from_tuples(coords).unwrap().into()
    }

    fn square(x0: f64, y0: f64, size: f64) -> Geometry {
        Polygon::from_tuples(&[
            (x0, y0),
            (x0 + size, y0),
            (x0 + size, y0 + size),
            (x0, y0 + size),
        ])
        .unwrap()
        .into()
    }

    #[test]
    fn result_is_always_collection() {
        let r = intersection(&pt(0.0, 0.0), &pt(1.0, 1.0));
        assert!(r.is_empty());
        let g: Geometry = r.into();
        assert_eq!(g.geometric_type(), GeometricType::Collection);
    }

    #[test]
    fn point_intersect_line_returns_points() {
        // Paper: "POINT intersecting LINE type returns a COLLECTION of points".
        let l = line(&[(0.0, 0.0), (10.0, 0.0)]);
        let r = intersection(&pt(5.0, 0.0), &l);
        assert_eq!(r.len(), 1);
        assert_eq!(r.geometries()[0].geometric_type(), GeometricType::Point);
        // Point off the line gives an empty collection.
        assert!(intersection(&pt(5.0, 1.0), &l).is_empty());
    }

    #[test]
    fn line_intersect_point_returns_sublines() {
        // Paper: "if we intersect LINE type with POINT the operator returns
        // a COLLECTION type of sublines".
        let l = line(&[(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)]);
        let r = intersection(&l, &pt(5.0, 0.0));
        assert!(!r.is_empty());
        assert!(r.iter().all(|g| g.geometric_type() == GeometricType::Line));
        // The point lies at the shared vertex of two segments → two sublines.
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn order_sensitivity_matches_paper() {
        let l = line(&[(0.0, 0.0), (10.0, 0.0)]);
        let p = pt(5.0, 0.0);
        let point_first = intersection(&p, &l);
        let line_first = intersection(&l, &p);
        assert_eq!(
            point_first.geometries()[0].geometric_type(),
            GeometricType::Point
        );
        assert_eq!(
            line_first.geometries()[0].geometric_type(),
            GeometricType::Line
        );
    }

    #[test]
    fn crossing_lines_intersect_at_point() {
        let a = line(&[(0.0, 0.0), (10.0, 10.0)]);
        let b = line(&[(0.0, 10.0), (10.0, 0.0)]);
        let r = intersection(&a, &b);
        assert_eq!(r.len(), 1);
        let p = r.geometries()[0].as_point().unwrap();
        assert!((p.x() - 5.0).abs() < 1e-9);
        assert!((p.y() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn collinear_lines_overlap_as_line() {
        let a = line(&[(0.0, 0.0), (10.0, 0.0)]);
        let b = line(&[(4.0, 0.0), (20.0, 0.0)]);
        let r = intersection(&a, &b);
        assert_eq!(r.len(), 1);
        let seg = r.geometries()[0].as_line().unwrap();
        assert!((seg.length() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn line_clipped_by_polygon() {
        let sq = square(0.0, 0.0, 10.0);
        let l = line(&[(-5.0, 5.0), (15.0, 5.0)]);
        let r = intersection(&l, &sq);
        assert_eq!(r.len(), 1);
        let clipped = r.geometries()[0].as_line().unwrap();
        assert!((clipped.length() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn line_outside_polygon_is_empty() {
        let sq = square(0.0, 0.0, 10.0);
        let l = line(&[(20.0, 20.0), (30.0, 20.0)]);
        assert!(intersection(&l, &sq).is_empty());
    }

    #[test]
    fn polygon_with_point() {
        let sq = square(0.0, 0.0, 10.0);
        let r = intersection(&sq, &pt(5.0, 5.0));
        assert_eq!(r.len(), 1);
        assert!(intersection(&sq, &pt(50.0, 5.0)).is_empty());
    }

    #[test]
    fn collections_distribute() {
        let c: Geometry = GeometryCollection::new(vec![pt(5.0, 0.0), pt(50.0, 50.0)]).into();
        let l = line(&[(0.0, 0.0), (10.0, 0.0)]);
        let r = intersection(&c, &l);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn paper_example_53_nested_intersection() {
        // Example 5.3 uses Intersection(Intersection(t, c), a): a train
        // line, a city point and an airport point. With the city and the
        // airport on the train line, the inner intersection yields sublines
        // containing the city; intersecting those with the airport point
        // yields the subline(s) containing the airport, whose length is the
        // "corresponding segment" whose distance the rule thresholds.
        let train = line(&[(0.0, 0.0), (30.0, 0.0), (60.0, 0.0)]);
        let city = pt(30.0, 0.0);
        let airport = pt(60.0, 0.0);
        let inner: Geometry = intersection(&train, &city).into();
        let outer = intersection(&inner, &airport);
        assert!(!outer.is_empty());
        // The surviving subline runs from the city to the airport: 30 km.
        let total_len: f64 = outer
            .iter()
            .filter_map(Geometry::as_line)
            .map(LineString::length)
            .sum();
        assert!((total_len - 30.0).abs() < 1e-9);
    }

    mod point_on_line_is_intersects {
        use crate::coord::{Coord, EPSILON};
        use crate::geometry::Geometry;
        use crate::linestring::LineString;
        use crate::point::Point;
        use crate::predicates::{intersects, point_on_line};
        use proptest::prelude::*;

        /// Where the probe point sits relative to the line: anywhere, near
        /// a vertex, or near a segment's interior — the last two within a
        /// couple of `EPSILON`s, on both sides of the tolerance.
        fn probe(line: &LineString, kind: usize, pick: usize, t: f64, off: (f64, f64)) -> Coord {
            let coords = line.coords();
            let (dx, dy) = (off.0 * EPSILON, off.1 * EPSILON);
            match kind {
                0 => Coord::new(off.0 * 250.0, off.1 * 250.0),
                1 => {
                    let v = coords[pick % coords.len()];
                    Coord::new(v.x + dx, v.y + dy)
                }
                _ => {
                    let i = pick % (coords.len() - 1);
                    let (a, b) = (coords[i], coords[i + 1]);
                    let (ux, uy) = (b.x - a.x, b.y - a.y);
                    let len = (ux * ux + uy * uy).sqrt();
                    // Along the segment at `t`, then `dx` across it.
                    Coord::new(a.x + ux * t - uy / len * dx, a.y + uy * t + ux / len * dx)
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            /// `line_with_point` tests with `point_on_line` alone, so it
            /// must decide exactly what `intersects(LINE, POINT)` decides.
            #[test]
            fn for_random_lines_and_near_points(
                tuples in prop::collection::vec((-500.0f64..500.0, -500.0f64..500.0), 2..10),
                kind in 0usize..3,
                pick in 0usize..64,
                t in 0.0f64..1.0,
                off in (-2.0f64..2.0, -2.0f64..2.0),
            ) {
                let line = LineString::from_tuples(&tuples).unwrap();
                let c = probe(&line, kind, pick, t, off);
                prop_assert_eq!(
                    point_on_line(&c, &line),
                    intersects(&Geometry::Line(line.clone()), &Point::from_coord(c).into())
                );
            }
        }
    }
}
