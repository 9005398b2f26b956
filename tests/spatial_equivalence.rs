//! Spatial selection equivalence on generated scenarios: the R-tree
//! accelerated `members_within_distance_indexed` must agree with the
//! linear `members_within_distance` scan, and `nearest_members` must
//! agree with brute-force kNN — across seeds, radii, metrics and query
//! points drawn from `datagen` scenarios.

use sdwp::datagen::{PaperScenario, ScenarioConfig};
use sdwp::geometry::distance::{distance, DistanceMetric};
use sdwp::geometry::{Geometry, Point};
use sdwp::olap::spatial::{
    build_level_rtree, level_geometries, members_within_distance, members_within_distance_indexed,
    nearest_members,
};
use sdwp::olap::Cube;

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

#[test]
fn indexed_within_distance_equals_linear_scan() {
    for scenario in scenarios() {
        let cube = &scenario.cube;
        let rtree = build_level_rtree(cube, "Store", "Store").unwrap();
        for point in query_points(&scenario) {
            let target: Geometry = point.into();
            for radius in [0.5, 5.0, 25.0, 500.0] {
                let linear = members_within_distance(
                    cube,
                    "Store",
                    "Store",
                    &target,
                    radius,
                    DistanceMetric::Euclidean,
                )
                .unwrap();
                let via_rtree = members_within_distance_indexed(
                    cube,
                    "Store",
                    "Store",
                    &rtree,
                    &target,
                    radius,
                    DistanceMetric::Euclidean,
                )
                .unwrap();
                assert_eq!(via_rtree, linear, "rtree, r={radius}, p={point:?}");
            }
        }
    }
}

#[test]
fn indexed_within_distance_equals_linear_scan_haversine() {
    // A dedicated small-coordinate scenario keeps haversine angles sane.
    let scenario = PaperScenario::generate(ScenarioConfig::tiny().with_seed(99));
    let cube = &scenario.cube;
    let rtree = build_level_rtree(cube, "Store", "Store").unwrap();
    let store0 = scenario.retail.stores[0].location;
    let target: Geometry = Point::new(store0.x() / 100.0, store0.y() / 100.0).into();
    for radius_km in [10.0, 150.0, 2_000.0] {
        let linear = members_within_distance(
            cube,
            "Store",
            "Store",
            &target,
            radius_km,
            DistanceMetric::HaversineKm,
        )
        .unwrap();
        let indexed = members_within_distance_indexed(
            cube,
            "Store",
            "Store",
            &rtree,
            &target,
            radius_km,
            DistanceMetric::HaversineKm,
        )
        .unwrap();
        assert_eq!(indexed, linear, "rtree, r={radius_km}km");
    }
}

/// Brute-force kNN over the raw geometries, mirroring the contract of
/// `nearest_members` (ascending exact Euclidean distance, ties broken by
/// the stable sort's input order).
fn brute_force_knn(
    cube: &Cube,
    dimension: &str,
    level: &str,
    target: &Point,
    k: usize,
) -> Vec<usize> {
    let target_geom: Geometry = (*target).into();
    let mut rows: Vec<(f64, usize)> = level_geometries(cube, dimension, level)
        .unwrap()
        .into_iter()
        .map(|(row, g)| (distance(&g, &target_geom, DistanceMetric::Euclidean), row))
        .collect();
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    rows.into_iter().take(k).map(|(_, row)| row).collect()
}

#[test]
fn nearest_members_agrees_with_brute_force_knn() {
    for scenario in scenarios() {
        let cube = &scenario.cube;
        for point in query_points(&scenario) {
            for k in [0, 1, 3, 10, 1_000] {
                let fast = nearest_members(cube, "Store", "Store", &point, k).unwrap();
                let brute = brute_force_knn(cube, "Store", "Store", &point, k);
                assert_eq!(fast, brute, "k={k}, p={point:?}");
                assert_eq!(fast.len(), k.min(scenario.retail.stores.len()));
                // The returned rows really are sorted by distance.
                let target: Geometry = point.into();
                let distances: Vec<f64> = fast
                    .iter()
                    .map(|&row| {
                        let geometries = level_geometries(cube, "Store", "Store").unwrap();
                        let g = &geometries.iter().find(|(r, _)| *r == row).unwrap().1;
                        distance(g, &target, DistanceMetric::Euclidean)
                    })
                    .collect();
                for pair in distances.windows(2) {
                    assert!(pair[0] <= pair[1], "distances not ascending: {distances:?}");
                }
            }
        }
    }
}

#[test]
fn customer_level_knn_and_distance_agree_too() {
    // The Customer dimension exercises a second geometry column layout.
    let scenario = PaperScenario::generate(ScenarioConfig::tiny().with_seed(1));
    let cube = &scenario.cube;
    let rtree = build_level_rtree(cube, "Customer", "Customer").unwrap();
    let point = scenario.retail.stores[0].location;
    let target: Geometry = point.into();
    let linear = members_within_distance(
        cube,
        "Customer",
        "Customer",
        &target,
        30.0,
        DistanceMetric::Euclidean,
    )
    .unwrap();
    let indexed = members_within_distance_indexed(
        cube,
        "Customer",
        "Customer",
        &rtree,
        &target,
        30.0,
        DistanceMetric::Euclidean,
    )
    .unwrap();
    assert_eq!(indexed, linear);
    assert_eq!(
        nearest_members(cube, "Customer", "Customer", &point, 5).unwrap(),
        brute_force_knn(cube, "Customer", "Customer", &point, 5)
    );
}
