//! Spatial selection over cube dimensions and layers.
//!
//! These helpers implement the data-access side of the paper's spatial
//! instance rules: "for every store, the distance to the user is
//! calculated; if this value is less than 5 km, the store is selected".
//! They come in two flavours — a plain scan, which is the reference, and
//! an R-tree-accelerated variant the equivalence suites hold to it.

use crate::cube::{geometry_column, Cube};
use crate::error::OlapError;
use crate::filter::SpatialPredicateOp;
use sdwp_geometry::distance::{distance, DistanceMetric};
use sdwp_geometry::{Geometry, Point};
use sdwp_index::{IndexEntry, RTree, SpatialQuery};

/// Reads every non-null geometry of a dimension level, paired with its
/// member row id.
pub fn level_geometries(
    cube: &Cube,
    dimension: &str,
    level: &str,
) -> Result<Vec<(usize, Geometry)>, OlapError> {
    let table = &cube.dimension_table(dimension)?.table;
    let column = table.column(&geometry_column(level))?;
    let mut out = Vec::new();
    for row in 0..table.len() {
        if let Some(g) = column.get_geometry(row) {
            out.push((row, g.clone()));
        }
    }
    Ok(out)
}

/// Reads every geometry of a layer table, paired with its row id.
pub fn layer_geometries(cube: &Cube, layer: &str) -> Result<Vec<(usize, Geometry)>, OlapError> {
    let table = &cube.layer_table(layer)?.table;
    let column = table.column("geometry")?;
    let mut out = Vec::new();
    for row in 0..table.len() {
        if let Some(g) = column.get_geometry(row) {
            out.push((row, g.clone()));
        }
    }
    Ok(out)
}

/// Builds an R-tree over the bounding boxes of a dimension level's
/// geometries; payloads are member row ids.
pub fn build_level_rtree(
    cube: &Cube,
    dimension: &str,
    level: &str,
) -> Result<RTree<usize>, OlapError> {
    let table = &cube.dimension_table(dimension)?.table;
    let column = table.column(&geometry_column(level))?;
    let mut entries = Vec::new();
    for row in 0..table.len() {
        if let Some(bbox) = column.get_geometry(row).and_then(Geometry::bbox) {
            entries.push(IndexEntry::new(bbox, row));
        }
    }
    Ok(RTree::bulk_load(entries))
}

/// Scan variant: member row ids whose geometry lies strictly within
/// `max_distance` of `target`.
pub fn members_within_distance(
    cube: &Cube,
    dimension: &str,
    level: &str,
    target: &Geometry,
    max_distance: f64,
    metric: DistanceMetric,
) -> Result<Vec<usize>, OlapError> {
    let table = &cube.dimension_table(dimension)?.table;
    let column = table.column(&geometry_column(level))?;
    let mut out = Vec::new();
    for row in 0..table.len() {
        if let Some(g) = column.get_geometry(row) {
            if distance(g, target, metric) < max_distance {
                out.push(row);
            }
        }
    }
    Ok(out)
}

/// Index-accelerated variant of [`members_within_distance`]: the index
/// prunes candidates by bounding box, then the exact distance refines.
pub fn members_within_distance_indexed(
    cube: &Cube,
    dimension: &str,
    level: &str,
    index: &dyn SpatialQuery<usize>,
    target: &Geometry,
    max_distance: f64,
    metric: DistanceMetric,
) -> Result<Vec<usize>, OlapError> {
    let table = &cube.dimension_table(dimension)?.table;
    let column = table.column(&geometry_column(level))?;
    let center = target
        .representative_coord()
        .unwrap_or(sdwp_geometry::Coord::new(0.0, 0.0));
    // Geodetic metrics need a wider candidate window than planar ones; use
    // the bounding-box distance only as a pre-filter in planar mode.
    let candidates: Vec<usize> = match metric {
        DistanceMetric::Euclidean => index
            .query_within_distance(&center, max_distance)
            .into_iter()
            .copied()
            .collect(),
        DistanceMetric::HaversineKm => {
            let deg = sdwp_geometry::haversine::km_to_deg_lon(max_distance, center.y)
                .max(sdwp_geometry::haversine::km_to_deg_lat(max_distance));
            index
                .query_within_distance(&center, deg)
                .into_iter()
                .copied()
                .collect()
        }
    };
    let mut out: Vec<usize> = candidates
        .into_iter()
        .filter(|&row| {
            column
                .get_geometry(row)
                .map(|g| distance(g, target, metric) < max_distance)
                .unwrap_or(false)
        })
        .collect();
    out.sort_unstable();
    Ok(out)
}

/// Member row ids whose geometry satisfies `op` against `target`.
pub fn members_matching_predicate(
    cube: &Cube,
    dimension: &str,
    level: &str,
    op: SpatialPredicateOp,
    target: &Geometry,
) -> Result<Vec<usize>, OlapError> {
    let table = &cube.dimension_table(dimension)?.table;
    let column = table.column(&geometry_column(level))?;
    let mut out = Vec::new();
    for row in 0..table.len() {
        if let Some(g) = column.get_geometry(row) {
            if op.eval(g, target) {
                out.push(row);
            }
        }
    }
    Ok(out)
}

/// The k members of a level nearest to a point, by exact geometry distance.
pub fn nearest_members(
    cube: &Cube,
    dimension: &str,
    level: &str,
    target: &Point,
    k: usize,
) -> Result<Vec<usize>, OlapError> {
    let geometries = level_geometries(cube, dimension, level)?;
    let target_geom: Geometry = (*target).into();
    let mut with_d: Vec<(f64, usize)> = geometries
        .into_iter()
        .map(|(row, g)| (distance(&g, &target_geom, DistanceMetric::Euclidean), row))
        .collect();
    with_d.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    Ok(with_d.into_iter().take(k).map(|(_, row)| row).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::CellValue;
    use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};

    fn cube_with_stores(n: usize) -> Cube {
        let schema = SchemaBuilder::new("DW")
            .dimension(
                DimensionBuilder::new("Store")
                    .simple_level("Store", "name")
                    .simple_level("City", "name")
                    .build(),
            )
            .fact(
                FactBuilder::new("Sales")
                    .measure("UnitSales", AttributeType::Float)
                    .dimension("Store")
                    .build(),
            )
            .layer("Airport", sdwp_geometry::GeometricType::Point)
            .build()
            .unwrap();
        let mut cube = Cube::new(schema);
        for i in 0..n {
            cube.add_dimension_member(
                "Store",
                vec![
                    ("Store.name", CellValue::from(format!("S{i}"))),
                    (
                        "Store.geometry",
                        CellValue::Geometry(Point::new(i as f64, 0.0).into()),
                    ),
                ],
            )
            .unwrap();
        }
        cube.add_layer_instance("Airport", "ALC", Point::new(2.0, 2.0).into())
            .unwrap();
        cube
    }

    #[test]
    fn scan_and_indexed_selection_agree() {
        let cube = cube_with_stores(50);
        let user: Geometry = Point::new(10.0, 0.0).into();
        let scan = members_within_distance(
            &cube,
            "Store",
            "Store",
            &user,
            5.0,
            DistanceMetric::Euclidean,
        )
        .unwrap();
        let rtree = build_level_rtree(&cube, "Store", "Store").unwrap();
        let via_rtree = members_within_distance_indexed(
            &cube,
            "Store",
            "Store",
            &rtree,
            &user,
            5.0,
            DistanceMetric::Euclidean,
        )
        .unwrap();
        assert_eq!(scan, via_rtree);
        // Stores 6..14 are strictly within 5 km of x=10.
        assert_eq!(scan, (6..=14).collect::<Vec<_>>());
    }

    #[test]
    fn geometries_accessors() {
        let cube = cube_with_stores(3);
        let level = level_geometries(&cube, "Store", "Store").unwrap();
        assert_eq!(level.len(), 3);
        // The City level has no geometry values loaded.
        assert!(level_geometries(&cube, "Store", "City").unwrap().is_empty());
        let layer = layer_geometries(&cube, "Airport").unwrap();
        assert_eq!(layer.len(), 1);
        assert!(layer_geometries(&cube, "Train").is_err());
    }

    #[test]
    fn predicate_selection() {
        let cube = cube_with_stores(10);
        let region: Geometry = sdwp_geometry::Polygon::from_tuples(&[
            (2.5, -1.0),
            (6.5, -1.0),
            (6.5, 1.0),
            (2.5, 1.0),
        ])
        .unwrap()
        .into();
        let inside = members_matching_predicate(
            &cube,
            "Store",
            "Store",
            SpatialPredicateOp::Inside,
            &region,
        )
        .unwrap();
        assert_eq!(inside, vec![3, 4, 5, 6]);
        let disjoint = members_matching_predicate(
            &cube,
            "Store",
            "Store",
            SpatialPredicateOp::Disjoint,
            &region,
        )
        .unwrap();
        assert_eq!(disjoint.len(), 6);
    }

    #[test]
    fn nearest_members_ordering() {
        let cube = cube_with_stores(10);
        let nearest = nearest_members(&cube, "Store", "Store", &Point::new(7.2, 0.0), 3).unwrap();
        assert_eq!(nearest, vec![7, 8, 6]);
        // k larger than the population returns everything.
        assert_eq!(
            nearest_members(&cube, "Store", "Store", &Point::new(0.0, 0.0), 100)
                .unwrap()
                .len(),
            10
        );
    }

    #[test]
    fn haversine_indexed_selection() {
        let cube = cube_with_stores(20);
        let rtree = build_level_rtree(&cube, "Store", "Store").unwrap();
        let user: Geometry = Point::new(0.0, 0.0).into();
        // 150 km at the equator is roughly 1.35 degrees of longitude: only
        // stores 0 and 1 qualify (stores sit 1 degree apart).
        let rows = members_within_distance_indexed(
            &cube,
            "Store",
            "Store",
            &rtree,
            &user,
            150.0,
            DistanceMetric::HaversineKm,
        )
        .unwrap();
        let scan = members_within_distance(
            &cube,
            "Store",
            "Store",
            &user,
            150.0,
            DistanceMetric::HaversineKm,
        )
        .unwrap();
        assert_eq!(rows, scan);
        assert_eq!(rows, vec![0, 1]);
    }
}
