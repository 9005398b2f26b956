//! The `Distance` spatial operator.
//!
//! PRML rules such as Example 5.2 of the paper
//! (`Distance(s.geometry, SUS...location.geometry) < 5km`) compare the
//! minimum distance between two geometries with a threshold. This module
//! computes that minimum distance for every combination of geometric types.

use crate::algorithms::{point_segment_distance, segment_segment_distance};
use crate::coord::Coord;
use crate::geometry::Geometry;
use crate::haversine::haversine_distance;
use crate::linestring::LineString;
use crate::point::Point;
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

/// Minimum distance between two geometries under the given metric.
pub fn distance(a: &Geometry, b: &Geometry, metric: DistanceMetric) -> f64 {
    distance_with(a, b, metric)
}

/// Distance between two points under the given metric.
pub fn point_distance(a: &Point, b: &Point, metric: DistanceMetric) -> f64 {
    match metric {
        DistanceMetric::Euclidean => a.distance(b),
        DistanceMetric::HaversineKm => haversine_distance(&a.coord(), &b.coord()),
    }
}

impl DistanceMetric {
    fn between(self, a: &Coord, b: &Coord) -> f64 {
        match self {
            DistanceMetric::Euclidean => a.distance(b),
            DistanceMetric::HaversineKm => haversine_distance(a, b),
        }
    }
}

fn distance_with(a: &Geometry, b: &Geometry, metric: DistanceMetric) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    match (a, b) {
        (Geometry::Collection(c), other) => c
            .iter()
            .map(|g| distance_with(g, other, metric))
            .fold(f64::INFINITY, f64::min),
        (other, Geometry::Collection(c)) => c
            .iter()
            .map(|g| distance_with(other, g, metric))
            .fold(f64::INFINITY, f64::min),
        (Geometry::Point(p), Geometry::Point(q)) => metric.between(&p.coord(), &q.coord()),
        (Geometry::Point(p), Geometry::Line(l)) | (Geometry::Line(l), Geometry::Point(p)) => {
            point_line_distance(&p.coord(), l, metric)
        }
        (Geometry::Point(p), Geometry::Polygon(poly))
        | (Geometry::Polygon(poly), Geometry::Point(p)) => {
            point_polygon_distance(&p.coord(), poly, metric)
        }
        (Geometry::Line(l1), Geometry::Line(l2)) => line_line_distance(l1, l2, metric),
        (Geometry::Line(l), Geometry::Polygon(p)) | (Geometry::Polygon(p), Geometry::Line(l)) => {
            line_polygon_distance(l, p, metric)
        }
        (Geometry::Polygon(p1), Geometry::Polygon(p2)) => polygon_polygon_distance(p1, p2, metric),
    }
}

fn point_line_distance(c: &Coord, l: &LineString, metric: DistanceMetric) -> f64 {
    // For the Euclidean metric use the exact point-to-segment distance.
    // For other metrics approximate using vertices plus the Euclidean
    // closest point of each segment (adequate at the small spans used by
    // SDW workloads); the planar distance is in other units there.
    l.segments()
        .map(|(a, b)| {
            let closest = closest_point_on_segment(c, &a, &b);
            let approx = metric
                .between(c, &closest)
                .min(metric.between(c, &a))
                .min(metric.between(c, &b));
            match metric {
                DistanceMetric::Euclidean => approx.min(point_segment_distance(c, &a, &b)),
                DistanceMetric::HaversineKm => approx,
            }
        })
        .fold(f64::INFINITY, f64::min)
}

fn closest_point_on_segment(p: &Coord, a: &Coord, b: &Coord) -> Coord {
    let ab = *b - *a;
    let len2 = ab.dot(&ab);
    if len2 <= f64::EPSILON {
        return *a;
    }
    let t = ((*p - *a).dot(&ab) / len2).clamp(0.0, 1.0);
    *a + ab * t
}

fn point_polygon_distance(c: &Coord, p: &Polygon, metric: DistanceMetric) -> f64 {
    if p.contains_coord(c) {
        return 0.0;
    }
    p.all_segments()
        .iter()
        .map(|(a, b)| {
            let closest = closest_point_on_segment(c, a, b);
            metric.between(c, &closest)
        })
        .fold(f64::INFINITY, f64::min)
}

fn line_line_distance(l1: &LineString, l2: &LineString, metric: DistanceMetric) -> f64 {
    let mut min = f64::INFINITY;
    for (a1, a2) in l1.segments() {
        for (b1, b2) in l2.segments() {
            let eucl = segment_segment_distance(&a1, &a2, &b1, &b2);
            if eucl == 0.0 {
                return 0.0;
            }
            // Approximate non-Euclidean metrics via closest endpoints; the
            // planar distance counts for the Euclidean metric only.
            let m = metric
                .between(&a1, &closest_point_on_segment(&a1, &b1, &b2))
                .min(metric.between(&a2, &closest_point_on_segment(&a2, &b1, &b2)))
                .min(metric.between(&b1, &closest_point_on_segment(&b1, &a1, &a2)))
                .min(metric.between(&b2, &closest_point_on_segment(&b2, &a1, &a2)));
            if metric == DistanceMetric::Euclidean {
                min = min.min(m.min(eucl.max(0.0)).max(0.0));
            }
            min = min.min(m);
        }
    }
    min
}

fn line_polygon_distance(l: &LineString, p: &Polygon, metric: DistanceMetric) -> f64 {
    if l.coords().iter().any(|c| p.contains_coord(c)) {
        return 0.0;
    }
    let mut min = f64::INFINITY;
    for (a1, a2) in l.segments() {
        for (b1, b2) in p.all_segments() {
            let eucl = segment_segment_distance(&a1, &a2, &b1, &b2);
            if eucl == 0.0 {
                return 0.0;
            }
            let m = metric
                .between(&a1, &closest_point_on_segment(&a1, &b1, &b2))
                .min(metric.between(&a2, &closest_point_on_segment(&a2, &b1, &b2)))
                .min(metric.between(&b1, &closest_point_on_segment(&b1, &a1, &a2)))
                .min(metric.between(&b2, &closest_point_on_segment(&b2, &a1, &a2)));
            min = min.min(m);
        }
    }
    min
}

fn polygon_polygon_distance(p1: &Polygon, p2: &Polygon, metric: DistanceMetric) -> f64 {
    if p1.exterior().iter().any(|c| p2.contains_coord(c))
        || p2.exterior().iter().any(|c| p1.contains_coord(c))
    {
        return 0.0;
    }
    let mut min = f64::INFINITY;
    for (a1, a2) in p1.all_segments() {
        for (b1, b2) in p2.all_segments() {
            let eucl = segment_segment_distance(&a1, &a2, &b1, &b2);
            if eucl == 0.0 {
                return 0.0;
            }
            let m = metric
                .between(&a1, &closest_point_on_segment(&a1, &b1, &b2))
                .min(metric.between(&a2, &closest_point_on_segment(&a2, &b1, &b2)))
                .min(metric.between(&b1, &closest_point_on_segment(&b1, &a1, &a2)))
                .min(metric.between(&b2, &closest_point_on_segment(&b2, &a1, &a2)));
            min = min.min(m);
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::GeometryCollection;

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
    fn point_distance_helper() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(0.0, 1.0);
        assert_eq!(point_distance(&a, &b, DistanceMetric::Euclidean), 1.0);
        let hav = point_distance(&a, &b, DistanceMetric::HaversineKm);
        assert!((hav - 111.19).abs() < 1.0); // one degree of latitude
    }

    #[test]
    fn distance_is_symmetric_for_mixed_types() {
        let l = line(&[(0.0, 0.0), (10.0, 0.0)]);
        let s = square(0.0, 5.0, 2.0);
        assert!((euclidean(&l, &s) - euclidean(&s, &l)).abs() < 1e-12);
    }
}
