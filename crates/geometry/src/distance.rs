//! The `Distance` spatial operator.
//!
//! PRML rules such as Example 5.2 of the paper
//! (`Distance(s.geometry, SUS...location.geometry) < 5km`) compare the
//! minimum distance between two geometries with a threshold. This module
//! computes that minimum distance for every combination of geometric types.

use crate::algorithms::segments_intersect;
use crate::coord::Coord;
use crate::geometry::Geometry;
use crate::haversine::haversine_distance;
use crate::linestring::LineString;
use crate::polygon::Polygon;

/// The metric used to interpret coordinates when computing distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceMetric {
    /// Treat coordinates as planar positions; distance is Euclidean in the
    /// same unit as the coordinates (the synthetic workloads use
    /// kilometres).
    #[default]
    Euclidean,
    /// Treat coordinates as (longitude, latitude) degrees; distance is the
    /// great-circle (haversine) distance in kilometres.
    ///
    /// Point-to-point distances are exact. A distance involving a segment
    /// is the haversine distance to the point of the segment nearest in
    /// *planar degrees* (and contact is decided in planar degrees), so it
    /// is an upper bound on the true distance to the segment drawn in
    /// (lon, lat). Along a parallel the planar nearest point is the true
    /// one, so the bound is exact; for the point (20°E, 60°N) and the
    /// segment (0°, 60°N)–(20°E, 80°N) it reads 1 108 km against a true
    /// 942 km, 166 km too far.
    HaversineKm,
}

/// Minimum Euclidean distance between two geometries.
///
/// Returns `f64::INFINITY` when either geometry is an empty collection:
/// an empty geometry is infinitely far from everything, which makes
/// threshold conditions (`Distance(...) < x`) evaluate to `false` as the
/// paper's semantics require.
pub fn euclidean(a: &Geometry, b: &Geometry) -> f64 {
    distance(a, b, DistanceMetric::Euclidean)
}

impl DistanceMetric {
    fn between(self, a: &Coord, b: &Coord) -> f64 {
        match self {
            DistanceMetric::Euclidean => a.distance(b),
            DistanceMetric::HaversineKm => haversine_distance(a, b),
        }
    }
}

/// Minimum distance between two geometries under the given metric.
pub fn distance(a: &Geometry, b: &Geometry, metric: DistanceMetric) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    match (a, b) {
        (Geometry::Collection(c), other) => c
            .iter()
            .map(|g| distance(g, other, metric))
            .fold(f64::INFINITY, f64::min),
        (other, Geometry::Collection(c)) => c
            .iter()
            .map(|g| distance(other, g, metric))
            .fold(f64::INFINITY, f64::min),
        (Geometry::Point(p), Geometry::Point(q)) => metric.between(&p.coord(), &q.coord()),
        (Geometry::Point(p), Geometry::Line(l)) | (Geometry::Line(l), Geometry::Point(p)) => {
            point_line_distance(&p.coord(), l, metric)
        }
        (Geometry::Point(p), Geometry::Polygon(poly))
        | (Geometry::Polygon(poly), Geometry::Point(p)) => {
            point_polygon_distance(&p.coord(), poly, metric)
        }
        (Geometry::Line(l1), Geometry::Line(l2)) => {
            let l2: Vec<_> = l2.segments().collect();
            segments_distance(l1.segments(), &l2, metric)
        }
        (Geometry::Line(l), Geometry::Polygon(p)) | (Geometry::Polygon(p), Geometry::Line(l)) => {
            if l.coords().iter().any(|c| p.contains_coord(c)) {
                return 0.0;
            }
            segments_distance(l.segments(), &p.all_segments(), metric)
        }
        (Geometry::Polygon(p1), Geometry::Polygon(p2)) => {
            if p1.exterior().iter().any(|c| p2.contains_coord(c))
                || p2.exterior().iter().any(|c| p1.contains_coord(c))
            {
                return 0.0;
            }
            segments_distance(p1.all_segments(), &p2.all_segments(), metric)
        }
    }
}

/// Distance from `c` to the point of segment `a`-`b` nearest in the plane.
/// Under [`DistanceMetric::HaversineKm`] that point is found in planar
/// degrees, so the result is an upper bound on the true distance to the
/// segment drawn in (lon, lat).
fn to_segment(c: &Coord, a: &Coord, b: &Coord, metric: DistanceMetric) -> f64 {
    let ab = *b - *a;
    let len2 = ab.dot(&ab);
    if len2 <= f64::EPSILON {
        return metric.between(c, a);
    }
    let t = ((*c - *a).dot(&ab) / len2).clamp(0.0, 1.0);
    metric.between(c, &(*a + ab * t))
}

fn point_line_distance(c: &Coord, l: &LineString, metric: DistanceMetric) -> f64 {
    l.segments()
        .map(|(a, b)| {
            to_segment(c, &a, &b, metric)
                .min(metric.between(c, &a))
                .min(metric.between(c, &b))
        })
        .fold(f64::INFINITY, f64::min)
}

fn point_polygon_distance(c: &Coord, p: &Polygon, metric: DistanceMetric) -> f64 {
    if p.contains_coord(c) {
        return 0.0;
    }
    p.all_segments()
        .iter()
        .map(|(a, b)| to_segment(c, a, b, metric))
        .fold(f64::INFINITY, f64::min)
}

/// Minimum distance between two sets of segments: zero as soon as a pair
/// touches in the plane, otherwise the least distance from an endpoint of
/// one segment of a pair to the nearest point of the other.
fn segments_distance(
    a: impl IntoIterator<Item = (Coord, Coord)>,
    b: &[(Coord, Coord)],
    metric: DistanceMetric,
) -> f64 {
    let mut min = f64::INFINITY;
    for (a1, a2) in a {
        for (b1, b2) in b {
            if segments_intersect(&a1, &a2, b1, b2) {
                return 0.0;
            }
            min = min
                .min(to_segment(&a1, b1, b2, metric))
                .min(to_segment(&a2, b1, b2, metric))
                .min(to_segment(b1, &a1, &a2, metric))
                .min(to_segment(b2, &a1, &a2, metric));
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::GeometryCollection;
    use crate::haversine::haversine_distance;
    use crate::point::Point;

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
    fn point_point_distance() {
        assert_eq!(euclidean(&pt(0.0, 0.0), &pt(3.0, 4.0)), 5.0);
        assert_eq!(euclidean(&pt(1.0, 1.0), &pt(1.0, 1.0)), 0.0);
    }

    #[test]
    fn point_line_distance_perpendicular() {
        let l = line(&[(0.0, 0.0), (10.0, 0.0)]);
        assert_eq!(euclidean(&pt(5.0, 3.0), &l), 3.0);
        assert_eq!(euclidean(&l, &pt(5.0, 3.0)), 3.0);
        assert_eq!(euclidean(&pt(-4.0, 3.0), &l), 5.0);
        assert_eq!(euclidean(&pt(5.0, 0.0), &l), 0.0);
    }

    #[test]
    fn point_polygon_distance_cases() {
        let s = square(0.0, 0.0, 10.0);
        assert_eq!(euclidean(&pt(5.0, 5.0), &s), 0.0); // inside
        assert_eq!(euclidean(&pt(15.0, 5.0), &s), 5.0); // right of box
        assert_eq!(euclidean(&pt(13.0, 14.0), &s), 5.0); // corner distance
    }

    #[test]
    fn line_line_distance_cases() {
        let a = line(&[(0.0, 0.0), (10.0, 0.0)]);
        let b = line(&[(0.0, 4.0), (10.0, 4.0)]);
        let crossing = line(&[(5.0, -5.0), (5.0, 5.0)]);
        assert_eq!(euclidean(&a, &b), 4.0);
        assert_eq!(euclidean(&a, &crossing), 0.0);
    }

    #[test]
    fn line_polygon_and_polygon_polygon() {
        let s = square(0.0, 0.0, 10.0);
        let far_line = line(&[(20.0, 0.0), (20.0, 10.0)]);
        assert_eq!(euclidean(&far_line, &s), 10.0);
        let other = square(14.0, 0.0, 4.0);
        assert_eq!(euclidean(&s, &other), 4.0);
        let overlapping = square(5.0, 5.0, 10.0);
        assert_eq!(euclidean(&s, &overlapping), 0.0);
    }

    #[test]
    fn collection_distance_is_minimum_over_members() {
        let c: Geometry = GeometryCollection::new(vec![pt(100.0, 0.0), pt(3.0, 4.0)]).into();
        assert_eq!(euclidean(&c, &pt(0.0, 0.0)), 5.0);
    }

    #[test]
    fn empty_collection_is_infinitely_far() {
        let empty: Geometry = GeometryCollection::empty().into();
        assert_eq!(euclidean(&empty, &pt(0.0, 0.0)), f64::INFINITY);
        // Thresholds therefore never match, as required for rule semantics.
        assert!(euclidean(&empty, &pt(0.0, 0.0)) >= 5.0);
    }

    #[test]
    fn metric_dispatch() {
        let a = pt(0.0, 0.0);
        let b = pt(3.0, 4.0);
        assert_eq!(distance(&a, &b, DistanceMetric::Euclidean), 5.0);
        // Haversine of small degree offsets is hundreds of km.
        let hav = distance(&a, &b, DistanceMetric::HaversineKm);
        assert!(hav > 400.0 && hav < 700.0);
    }

    #[test]
    fn haversine_line_distance_stays_in_kilometres() {
        // A store ten degrees of latitude off an equatorial line is about
        // 1 112 km away, not ten planar degrees.
        let l = line(&[(0.0, 0.0), (10.0, 0.0)]);
        let store = pt(5.0, 10.0);
        let d = distance(&store, &l, DistanceMetric::HaversineKm);
        assert!((d - 1111.95).abs() < 1.0, "got {d}");
        let parallel = line(&[(0.0, 10.0), (10.0, 10.0)]);
        let d = distance(&parallel, &l, DistanceMetric::HaversineKm);
        assert!((d - 1111.95).abs() < 1.0, "got {d}");
    }

    #[test]
    fn distance_is_symmetric_for_mixed_types() {
        let l = line(&[(0.0, 0.0), (10.0, 0.0)]);
        let s = square(0.0, 5.0, 2.0);
        assert!((euclidean(&l, &s) - euclidean(&s, &l)).abs() < 1e-12);
    }

    /// Least haversine distance from `c` to `n` points spread evenly along
    /// segment `a`-`b` in (lon, lat), and the spacing of those points.
    fn sampled_haversine(c: Coord, a: Coord, b: Coord, n: usize) -> (f64, f64) {
        let at = |i: usize| a + (b - a) * (i as f64 / (n - 1) as f64);
        let min = (0..n)
            .map(|i| haversine_distance(&c, &at(i)))
            .fold(f64::INFINITY, f64::min);
        (min, haversine_distance(&at(0), &at(1)))
    }

    #[test]
    fn haversine_segment_distance_is_an_upper_bound() {
        let cases = [
            // A 20°-long segment along 80°N and a point north of its middle.
            ((0.0, 80.0), (20.0, 80.0), (10.0, 85.0)),
            // A diagonal one, whose planar nearest point is not the nearest.
            ((0.0, 60.0), (20.0, 80.0), (20.0, 60.0)),
        ];
        for (a, b, c) in cases {
            let (a, b, c): (Coord, Coord, Coord) = (a.into(), b.into(), c.into());
            let l = LineString::new(vec![a, b]).unwrap();
            let d = distance(
                &Point::from_coord(c).into(),
                &l.into(),
                DistanceMetric::HaversineKm,
            );
            let (sampled, step) = sampled_haversine(c, a, b, 10_000);
            assert!(d >= sampled - step, "{d} < {sampled} - {step}");
        }
    }
}
