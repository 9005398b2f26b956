//! Property-based tests for the geometry crate's core invariants.

use proptest::prelude::*;
use sdwp_geometry::distance::euclidean;
use sdwp_geometry::{
    measures, predicates, BoundingBox, Coord, Geometry, GeometryCollection, LineString, Point,
    Polygon,
};

fn coord_strategy() -> impl Strategy<Value = Coord> {
    (
        prop::num::f64::NORMAL.prop_map(|x| (x % 1000.0).abs() - 500.0),
        prop::num::f64::NORMAL.prop_map(|y| (y % 1000.0).abs() - 500.0),
    )
        .prop_map(|(x, y)| Coord::new(x, y))
}

fn point_strategy() -> impl Strategy<Value = Point> {
    coord_strategy().prop_map(Point::from_coord)
}

fn line_strategy() -> impl Strategy<Value = LineString> {
    prop::collection::vec(coord_strategy(), 2..12)
        .prop_filter_map("valid linestring", |coords| LineString::new(coords).ok())
}

fn polygon_strategy() -> impl Strategy<Value = Polygon> {
    // Convex polygons generated from a centre, radius and vertex count keep
    // the generator simple while exercising realistic areal shapes.
    (coord_strategy(), 1.0f64..50.0, 3usize..10).prop_map(|(center, radius, n)| {
        let ring: Vec<Coord> = (0..n)
            .map(|i| {
                let angle = i as f64 / n as f64 * std::f64::consts::TAU;
                Coord::new(
                    center.x + radius * angle.cos(),
                    center.y + radius * angle.sin(),
                )
            })
            .collect();
        Polygon::new(ring, Vec::new()).expect("regular polygon is valid")
    })
}

fn geometry_strategy() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        point_strategy().prop_map(Geometry::from),
        line_strategy().prop_map(Geometry::from),
        polygon_strategy().prop_map(Geometry::from),
        prop::collection::vec(point_strategy().prop_map(Geometry::from), 0..4)
            .prop_map(|v| Geometry::from(GeometryCollection::new(v))),
    ]
}

proptest! {
    #[test]
    fn distance_is_symmetric(a in geometry_strategy(), b in geometry_strategy()) {
        let d1 = euclidean(&a, &b);
        let d2 = euclidean(&b, &a);
        if d1.is_finite() && d2.is_finite() {
            prop_assert!((d1 - d2).abs() < 1e-6, "d1={d1} d2={d2}");
        } else {
            prop_assert_eq!(d1.is_finite(), d2.is_finite());
        }
    }

    #[test]
    fn distance_is_non_negative_and_zero_on_self(g in geometry_strategy()) {
        prop_assume!(!g.is_empty());
        let d = euclidean(&g, &g);
        prop_assert!(d >= 0.0);
        prop_assert!(d < 1e-6, "self distance was {d}");
    }

    #[test]
    fn intersecting_geometries_have_zero_distance(a in geometry_strategy(), b in geometry_strategy()) {
        if predicates::intersects(&a, &b) {
            let d = euclidean(&a, &b);
            prop_assert!(d < 1e-6, "intersecting but distance {d}");
        }
    }

    #[test]
    fn disjoint_is_negation_of_intersects(a in geometry_strategy(), b in geometry_strategy()) {
        prop_assert_eq!(predicates::intersects(&a, &b), !predicates::disjoint(&a, &b));
    }

    #[test]
    fn predicate_symmetry(a in geometry_strategy(), b in geometry_strategy()) {
        prop_assert_eq!(predicates::intersects(&a, &b), predicates::intersects(&b, &a));
        prop_assert_eq!(predicates::equals(&a, &b), predicates::equals(&b, &a));
    }

    #[test]
    fn equals_is_reflexive(g in geometry_strategy()) {
        prop_assert!(predicates::equals(&g, &g));
    }

    #[test]
    fn bbox_contains_all_coordinates(g in geometry_strategy()) {
        if let Some(bbox) = g.bbox() {
            for c in measures::coordinates(&g) {
                prop_assert!(bbox.contains_coord(&c));
            }
        } else {
            prop_assert!(g.is_empty());
        }
    }

    #[test]
    fn bbox_disjoint_implies_geometry_disjoint(a in geometry_strategy(), b in geometry_strategy()) {
        if let (Some(ba), Some(bb)) = (a.bbox(), b.bbox()) {
            if !ba.intersects(&bb) {
                prop_assert!(predicates::disjoint(&a, &b));
            }
        }
    }

    #[test]
    fn triangle_inequality_points(a in point_strategy(), b in point_strategy(), c in point_strategy()) {
        let ab = a.distance(&b);
        let bc = b.distance(&c);
        let ac = a.distance(&c);
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn bbox_union_contains_both(a in point_strategy(), b in point_strategy()) {
        let u = a.bbox().union(&b.bbox());
        prop_assert!(u.contains(&a.bbox()));
        prop_assert!(u.contains(&b.bbox()));
    }

    #[test]
    fn polygon_contains_its_centroid_if_convex(p in polygon_strategy()) {
        // The generator produces convex polygons, so the centroid must lie inside.
        let c = p.centroid();
        prop_assert!(p.contains_coord(&c));
    }

    #[test]
    fn intersection_members_touch_both_operands(a in line_strategy(), b in line_strategy()) {
        let result = sdwp_geometry::intersection::intersection(
            &Geometry::from(a.clone()),
            &Geometry::from(b.clone()),
        );
        for piece in result.iter() {
            // Every piece of the intersection must intersect the left operand.
            prop_assert!(predicates::intersects(piece, &Geometry::from(a.clone())));
        }
    }

    #[test]
    fn bbox_distance_lower_bounds_geometry_distance(a in geometry_strategy(), b in geometry_strategy()) {
        if let (Some(ba), Some(bb)) = (a.bbox(), b.bbox()) {
            // Euclidean gap between the boxes, zero when they overlap.
            let gap = |a_min: f64, a_max: f64, b_min: f64, b_max: f64| {
                (b_min - a_max).max(a_min - b_max).max(0.0)
            };
            let dx = gap(ba.min_x, ba.max_x, bb.min_x, bb.max_x);
            let dy = gap(ba.min_y, ba.max_y, bb.min_y, bb.max_y);
            let bbox_d = (dx * dx + dy * dy).sqrt();
            let d = euclidean(&a, &b);
            prop_assert!(bbox_d <= d + 1e-6, "bbox {bbox_d} > geom {d}");
        }
    }

    #[test]
    fn buffered_bbox_still_contains_original(min_x in -100.0f64..100.0, min_y in -100.0f64..100.0,
                                             w in 0.0f64..50.0, h in 0.0f64..50.0, m in 0.0f64..10.0) {
        let b = BoundingBox::new(min_x, min_y, min_x + w, min_y + h);
        prop_assert!(b.buffered(m).contains(&b));
    }
}
