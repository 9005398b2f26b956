//! Spatial selection equivalence: the packed R-tree path,
//! `members_within_distance_indexed`, must select exactly what the scan,
//! `members_within_distance`, selects — for point, line and polygon
//! targets under both metrics, on generated scenarios, on random levels,
//! at high latitude and across the antimeridian.

use proptest::prelude::*;
use sdwp::datagen::{PaperScenario, ScenarioConfig};
use sdwp::geometry::distance::DistanceMetric;
use sdwp::geometry::{Geometry, LineString, Point, Polygon};
use sdwp::model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};
use sdwp::olap::spatial::{
    build_level_rtree, members_within_distance, members_within_distance_indexed,
};
use sdwp::olap::{CellValue, Cube};

fn scenarios() -> Vec<PaperScenario> {
    [7u64, 2024, 4711]
        .into_iter()
        .map(|seed| PaperScenario::generate(ScenarioConfig::tiny().with_seed(seed)))
        .collect()
}

/// Query points exercising the interesting cases: on a store, between
/// stores, at the region edge, far outside.
fn query_points(scenario: &PaperScenario) -> Vec<Point> {
    let first = scenario.retail.stores[0].location;
    let last = scenario.retail.stores[scenario.retail.stores.len() - 1].location;
    vec![
        first,
        Point::new((first.x() + last.x()) / 2.0, (first.y() + last.y()) / 2.0),
        Point::new(0.0, 0.0),
        Point::new(10_000.0, 10_000.0),
    ]
}

/// The scan and the index over one level, asserted equal; returns the
/// selection.
fn both_paths(
    cube: &Cube,
    dimension: &str,
    target: &Geometry,
    radius: f64,
    metric: DistanceMetric,
) -> Vec<usize> {
    let index = build_level_rtree(cube, dimension, dimension).unwrap();
    let scan = members_within_distance(cube, dimension, dimension, target, radius, metric).unwrap();
    let indexed =
        members_within_distance_indexed(cube, dimension, dimension, &index, target, radius, metric)
            .unwrap();
    assert_eq!(indexed, scan, "r={radius}, {metric:?}, target={target:?}");
    scan
}

#[test]
fn indexed_within_distance_equals_linear_scan() {
    for scenario in scenarios() {
        for point in query_points(&scenario) {
            for radius in [0.5, 5.0, 25.0, 500.0] {
                both_paths(
                    &scenario.cube,
                    "Store",
                    &point.into(),
                    radius,
                    DistanceMetric::Euclidean,
                );
            }
        }
    }
}

#[test]
fn indexed_within_distance_equals_linear_scan_haversine() {
    // A dedicated small-coordinate scenario keeps haversine angles sane.
    let scenario = PaperScenario::generate(ScenarioConfig::tiny().with_seed(99));
    let store0 = scenario.retail.stores[0].location;
    let target: Geometry = Point::new(store0.x() / 100.0, store0.y() / 100.0).into();
    for radius_km in [10.0, 150.0, 2_000.0] {
        both_paths(
            &scenario.cube,
            "Store",
            &target,
            radius_km,
            DistanceMetric::HaversineKm,
        );
    }
}

#[test]
fn customer_level_distance_agrees_too() {
    // The Customer dimension exercises a second geometry column layout.
    let scenario = PaperScenario::generate(ScenarioConfig::tiny().with_seed(1));
    let target: Geometry = scenario.retail.stores[0].location.into();
    both_paths(
        &scenario.cube,
        "Customer",
        &target,
        30.0,
        DistanceMetric::Euclidean,
    );
}

/// A line from the first store to the last, and its bounding-box
/// polygon: the members near either lie far from the line's first vertex,
/// which is where a window centred on one coordinate looks.
#[test]
fn line_and_polygon_targets_select_like_the_scan() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny().with_seed(7));
    let first = scenario.retail.stores[0].location;
    let last = scenario.retail.stores[scenario.retail.stores.len() - 1].location;
    let line = LineString::from_tuples(&[(first.x(), first.y()), (last.x(), last.y())]).unwrap();
    let (lo_x, hi_x) = (first.x().min(last.x()), first.x().max(last.x()));
    let (lo_y, hi_y) = (first.y().min(last.y()), first.y().max(last.y()));
    let polygon =
        Polygon::from_tuples(&[(lo_x, lo_y), (hi_x, lo_y), (hi_x, hi_y), (lo_x, hi_y)]).unwrap();
    let (line, polygon): (Geometry, Geometry) = (line.into(), polygon.into());
    let euclidean = DistanceMetric::Euclidean;
    for radius in [0.5, 5.0, 25.0] {
        both_paths(&scenario.cube, "Store", &line, radius, euclidean);
        both_paths(&scenario.cube, "Store", &polygon, radius, euclidean);
    }
    // The two cases a first-vertex window missed, with the selections the
    // scan makes there.
    assert_eq!(
        both_paths(&scenario.cube, "Store", &line, 5.0, euclidean).len(),
        6
    );
    assert_eq!(
        both_paths(&scenario.cube, "Store", &polygon, 0.5, euclidean).len(),
        7
    );
}

/// A `Store` level of point members, in row order.
fn level(points: &[(f64, f64)]) -> Cube {
    let schema = SchemaBuilder::new("Geo")
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
    for (i, &(x, y)) in points.iter().enumerate() {
        cube.add_dimension_member(
            "Store",
            vec![
                ("Store.name", CellValue::from(format!("S{i}"))),
                (
                    "Store.geometry",
                    CellValue::Geometry(Point::new(x, y).into()),
                ),
            ],
        )
        .unwrap();
    }
    cube
}

/// Stores 0..40 every 2° of longitude along 80°N, then store 40 just
/// east of the antimeridian.
fn arctic_level() -> Cube {
    let mut points: Vec<(f64, f64)> = (0..40).map(|k| (2.0 * k as f64, 80.0)).collect();
    points.push((-179.5, 80.0));
    level(&points)
}

#[test]
fn haversine_window_widens_with_latitude() {
    let cube = arctic_level();
    let haversine = DistanceMetric::HaversineKm;
    let user: Geometry = Point::new(0.0, 80.0).into();
    // At 80°N a degree of longitude is ≈ 19.3 km, so 1 000 km reach the
    // store at 52° (row 26, ≈ 971 km) and 500 km the one at 26° (row 13,
    // ≈ 498 km).
    assert_eq!(
        both_paths(&cube, "Store", &user, 1_000.0, haversine),
        (0..=26).collect::<Vec<_>>()
    );
    assert_eq!(
        both_paths(&cube, "Store", &user, 500.0, haversine),
        (0..=13).collect::<Vec<_>>()
    );
    // Line and polygon targets under the haversine metric.
    let line: Geometry = LineString::from_tuples(&[(10.0, 79.0), (30.0, 81.0)])
        .unwrap()
        .into();
    let polygon: Geometry =
        Polygon::from_tuples(&[(10.0, 79.0), (30.0, 79.0), (30.0, 81.0), (10.0, 81.0)])
            .unwrap()
            .into();
    for radius in [50.0, 300.0, 1_500.0, 5_000.0] {
        both_paths(&cube, "Store", &line, radius, haversine);
        both_paths(&cube, "Store", &polygon, radius, haversine);
    }
}

#[test]
fn haversine_window_crosses_the_antimeridian() {
    let cube = arctic_level();
    let user: Geometry = Point::new(179.5, 80.0).into();
    assert_eq!(
        both_paths(&cube, "Store", &user, 100.0, DistanceMetric::HaversineKm),
        vec![40]
    );
    // A longitude written past 180° names the same meridian as its
    // wrapped value, which no window in [-180°, 180°] covers.
    let wrapped = level(&[(190.0, 0.0), (0.0, 0.0)]);
    let user: Geometry = Point::new(-170.0, 0.0).into();
    assert_eq!(
        both_paths(&wrapped, "Store", &user, 10.0, DistanceMetric::HaversineKm),
        vec![0]
    );
}

#[test]
fn haversine_window_keeps_a_member_on_its_rounded_edge() {
    // The member lies one ulp past `lat + ρ°` as computed, yet its
    // haversine distance rounds below the radius.
    let cube = level(&[(0.0, 0.049_622_826_189_679_62)]);
    let user: Geometry = Point::new(0.0, -16.341_753_891_859_895).into();
    assert_eq!(
        both_paths(
            &cube,
            "Store",
            &user,
            1_822.640_449_301_586,
            DistanceMetric::HaversineKm
        ),
        vec![0]
    );
}

#[test]
fn haversine_selects_a_near_antipodal_member() {
    // For this pair rounding pushes the haversine term past 1; unclamped,
    // the distance is NaN and the store unselectable at any radius.
    let cube = level(&[(135.650_314_035_027_58, -64.935_261_711_866_91)]);
    let user: Geometry = Point::new(-44.349_685_968_983_15, 64.935_261_706_194_75).into();
    assert_eq!(
        both_paths(&cube, "Store", &user, 20_100.0, DistanceMetric::HaversineKm),
        vec![0]
    );
}

/// Point, line or polygon targets anywhere on the globe.
fn target_strategy() -> impl Strategy<Value = Geometry> {
    (
        -180.0f64..180.0,
        -89.0f64..89.0,
        -20.0f64..20.0,
        -10.0f64..10.0,
        0usize..3,
    )
        .prop_map(|(x, y, dx, dy, shape)| {
            let (x2, y2) = ((x + dx).clamp(-180.0, 180.0), (y + dy).clamp(-89.0, 89.0));
            match shape {
                0 => Point::new(x, y).into(),
                1 => LineString::from_tuples(&[(x, y), (x2, y2)]).unwrap().into(),
                _ => Polygon::from_tuples(&[(x, y), (x2, y), (x2, y2), (x, y2)])
                    .map(Geometry::from)
                    .unwrap_or_else(|_| Point::new(x, y).into()),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random levels of up to 300 members against random targets, radii
    /// and metrics, spanning trees of one to three node levels.
    #[test]
    fn indexed_selection_equals_the_scan_on_random_levels(
        points in prop::collection::vec((-180.0f64..180.0, -89.0f64..89.0), 0..300),
        target in target_strategy(),
        radius in 0.0f64..3_000.0,
    ) {
        let cube = level(&points);
        let index = build_level_rtree(&cube, "Store", "Store").unwrap();
        for metric in [DistanceMetric::Euclidean, DistanceMetric::HaversineKm] {
            // Euclidean radii in degrees, haversine ones in kilometres.
            let radius = match metric {
                DistanceMetric::Euclidean => radius / 100.0,
                DistanceMetric::HaversineKm => radius,
            };
            let scan =
                members_within_distance(&cube, "Store", "Store", &target, radius, metric).unwrap();
            let indexed = members_within_distance_indexed(
                &cube, "Store", "Store", &index, &target, radius, metric,
            )
            .unwrap();
            prop_assert_eq!(indexed, scan, "r={} {:?}", radius, metric);
        }
    }
}
