//! Property tests: the level index selects exactly what the linear scan
//! selects, on levels of rectangles and points scattered over a plane
//! that is not a (longitude, latitude) grid.

use proptest::prelude::*;
use sdwp_geometry::distance::DistanceMetric;
use sdwp_geometry::{Geometry, Point, Polygon};
use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};
use sdwp_olap::spatial::{
    build_level_rtree, members_within_distance, members_within_distance_indexed,
};
use sdwp_olap::{CellValue, Cube};

/// An axis-aligned rectangle, or a point where it has no area.
fn rectangle(x: f64, y: f64, w: f64, h: f64) -> Geometry {
    Polygon::from_tuples(&[(x, y), (x + w, y), (x + w, y + h), (x, y + h)])
        .map(Geometry::from)
        .unwrap_or_else(|_| Point::new(x, y).into())
}

fn member_strategy() -> impl Strategy<Value = Geometry> {
    (
        -500.0f64..500.0,
        -500.0f64..500.0,
        0.0f64..20.0,
        0.0f64..20.0,
    )
        .prop_map(|(x, y, w, h)| rectangle(x, y, w, h))
}

/// One `Store` level whose members are `geometries`, in order.
fn level(geometries: &[Geometry]) -> Cube {
    let schema = SchemaBuilder::new("Plane")
        .dimension(
            DimensionBuilder::new("Store")
                .simple_level("Store", "name")
                .build(),
        )
        .fact(
            FactBuilder::new("Sales")
                .measure("UnitSales", AttributeType::Float)
                .dimension("Store")
                .build(),
        )
        .build()
        .unwrap();
    let mut cube = Cube::new(schema);
    for (i, geometry) in geometries.iter().enumerate() {
        cube.add_dimension_member(
            "Store",
            vec![
                ("Store.name", CellValue::from(format!("S{i}"))),
                ("Store.geometry", CellValue::Geometry(geometry.clone())),
            ],
        )
        .unwrap();
    }
    cube
}

/// The scan's and the index's selection around `target`.
fn both_paths(
    cube: &Cube,
    target: &Geometry,
    radius: f64,
    metric: DistanceMetric,
) -> (Vec<usize>, Vec<usize>) {
    let index = build_level_rtree(cube, "Store", "Store").unwrap();
    let scan = members_within_distance(cube, "Store", "Store", target, radius, metric).unwrap();
    let indexed =
        members_within_distance_indexed(cube, "Store", "Store", &index, target, radius, metric)
            .unwrap();
    (scan, indexed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A rectangular query region: every member that touches or nears it.
    #[test]
    fn rtree_bbox_query_matches_linear_scan(
        members in prop::collection::vec(member_strategy(), 0..200),
        qx in -600.0f64..600.0, qy in -600.0f64..600.0,
        qw in 0.0f64..300.0, qh in 0.0f64..300.0,
        radius in 0.0f64..5.0,
    ) {
        let cube = level(&members);
        let query = rectangle(qx, qy, qw, qh);
        for metric in [DistanceMetric::Euclidean, DistanceMetric::HaversineKm] {
            let (scan, indexed) = both_paths(&cube, &query, radius, metric);
            prop_assert_eq!(indexed, scan, "r={} {:?}", radius, metric);
        }
    }

    /// A circle around one point.
    #[test]
    fn within_distance_matches_linear_scan(
        members in prop::collection::vec(member_strategy(), 0..200),
        cx in -600.0f64..600.0, cy in -600.0f64..600.0,
        radius in 0.0f64..200.0,
    ) {
        let cube = level(&members);
        let center: Geometry = Point::new(cx, cy).into();
        for metric in [DistanceMetric::Euclidean, DistanceMetric::HaversineKm] {
            let (scan, indexed) = both_paths(&cube, &center, radius, metric);
            prop_assert_eq!(indexed, scan, "r={} {:?}", radius, metric);
        }
    }
}
