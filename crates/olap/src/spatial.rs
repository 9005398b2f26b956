//! Spatial selection over a dimension level's geometry column.
//!
//! This is the data-access side of the paper's spatial instance rules:
//! "for every store, the distance to the user is calculated; if this
//! value is less than 5 km, the store is selected". There is one scan,
//! [`members_within_distance`], which is [`Filter::WithinDistance`] run
//! over the dimension table, and one index, [`LevelIndex`], a packed
//! R-tree whose conservative candidate window
//! [`members_within_distance_indexed`] refines with the same exact
//! distance, so the two select the same members.
//!
//! The index serves logins: the compiled PRML rule set plans Example
//! 5.2's loop as a range probe, keeps one [`LevelIndex`] per probe loop
//! for the cube's [`Cube::stamp`], and selects through
//! [`members_within_distance_indexed`], so a 5 km login computes the
//! distance to the few stores in the window instead of to every store.
//! [`indexed_refinements`] counts those distances.

use crate::cube::{geometry_column, Cube};
use crate::error::OlapError;
use crate::filter::Filter;
use sdwp_geometry::distance::{distance, DistanceMetric};
use sdwp_geometry::Geometry;
use std::cell::Cell;

pub use crate::rtree::LevelIndex;

thread_local! {
    static REFINEMENTS: Cell<u64> = const { Cell::new(0) };
}

/// How many exact distances [`members_within_distance_indexed`] has
/// computed on the calling thread so far: one per candidate of the window
/// that has a geometry.
pub fn indexed_refinements() -> u64 {
    REFINEMENTS.with(Cell::get)
}

/// Builds the index over a dimension level's member geometries.
pub fn build_level_rtree(
    cube: &Cube,
    dimension: &str,
    level: &str,
) -> Result<LevelIndex, OlapError> {
    let table = &cube.dimension_table(dimension)?.table;
    let column = table.column(&geometry_column(level))?;
    let members = (0..table.len())
        .filter_map(|row| Some((column.get_geometry(row)?.bbox()?, row)))
        .collect();
    Ok(LevelIndex::bulk_load(members))
}

/// The member ids, ascending, whose geometry lies strictly within
/// `max_distance` of `target`: [`Filter::WithinDistance`] over the
/// dimension table.
pub fn members_within_distance(
    cube: &Cube,
    dimension: &str,
    level: &str,
    target: &Geometry,
    max_distance: f64,
    metric: DistanceMetric,
) -> Result<Vec<usize>, OlapError> {
    let table = &cube.dimension_table(dimension)?.table;
    let column = geometry_column(level);
    // An unknown level is an error even when the level has no members.
    table.column(&column)?;
    Filter::WithinDistance {
        column,
        target: target.clone(),
        max_distance,
        metric,
    }
    .matching_rows(table)
}

/// [`members_within_distance`] through `index`: the members in the
/// candidate window, refined by the exact distance.
pub fn members_within_distance_indexed(
    cube: &Cube,
    dimension: &str,
    level: &str,
    index: &LevelIndex,
    target: &Geometry,
    max_distance: f64,
    metric: DistanceMetric,
) -> Result<Vec<usize>, OlapError> {
    let table = &cube.dimension_table(dimension)?.table;
    let column = table.column(&geometry_column(level))?;
    // A target without coordinates is infinitely far from every member.
    let Some(bbox) = target.bbox() else {
        return Ok(Vec::new());
    };
    let mut out = index.candidates(&index.window(&bbox, max_distance, metric));
    out.retain(|&row| {
        column.get_geometry(row).is_some_and(|g| {
            REFINEMENTS.with(|n| n.set(n.get() + 1));
            distance(g, target, metric) < max_distance
        })
    });
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::CellValue;
    use sdwp_geometry::Point;
    use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};

    fn cube_with_stores(n: usize) -> Cube {
        let schema = SchemaBuilder::new("DW")
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
        let refined = indexed_refinements();
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
        // Stores 6..14 are strictly within 5 km of x=10; the window also
        // offers stores 5 and 15, at exactly 5 km, and the exact distance
        // is computed for those 11 alone.
        assert_eq!(scan, (6..=14).collect::<Vec<_>>());
        assert_eq!(indexed_refinements() - refined, 11);
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

    #[test]
    fn unknown_level_is_an_error_even_without_members() {
        let cube = cube_with_stores(0);
        let user: Geometry = Point::new(0.0, 0.0).into();
        let metric = DistanceMetric::Euclidean;
        assert!(members_within_distance(&cube, "Store", "Ghost", &user, 5.0, metric).is_err());
        assert!(build_level_rtree(&cube, "Store", "Ghost").is_err());
        let index = build_level_rtree(&cube, "Store", "Store").unwrap();
        assert!(members_within_distance_indexed(
            &cube, "Store", "Ghost", &index, &user, 5.0, metric
        )
        .is_err());
        assert_eq!(
            members_within_distance(&cube, "Store", "Store", &user, 5.0, metric).unwrap(),
            Vec::<usize>::new()
        );
    }
}
