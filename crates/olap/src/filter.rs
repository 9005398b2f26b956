//! Boolean and spatial filters over table rows.

use crate::error::OlapError;
use crate::table::Table;
use crate::value::CellValue;
use sdwp_geometry::distance::{distance, DistanceMetric};
use sdwp_geometry::{predicates, Geometry};

/// Comparison operators for attribute filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CompareOp {
    /// Evaluates the operator over an ordering produced by
    /// [`CellValue::compare`].
    pub fn eval(&self, ordering: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CompareOp::Eq => ordering == Equal,
            CompareOp::Ne => ordering != Equal,
            CompareOp::Lt => ordering == Less,
            CompareOp::Le => ordering != Greater,
            CompareOp::Gt => ordering == Greater,
            CompareOp::Ge => ordering != Less,
        }
    }

    /// The operator over [`crate::Column::compare_at`]'s outcome:
    /// incomparable values only satisfy "not equal".
    fn accepts(self, ordering: Option<std::cmp::Ordering>) -> bool {
        match ordering {
            Some(ordering) => self.eval(ordering),
            None => self == CompareOp::Ne,
        }
    }
}

/// The topological predicates usable in spatial filters — the operators the
/// paper adds to PRML (§4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialPredicateOp {
    /// The geometries share at least one point.
    Intersects,
    /// The geometries share no point.
    Disjoint,
    /// The geometries cross.
    Crosses,
    /// The row's geometry lies inside the target.
    Inside,
    /// The geometries are equal.
    Equals,
    /// The row's geometry contains the target.
    Contains,
    /// The geometries touch only at boundaries.
    Touches,
}

impl SpatialPredicateOp {
    /// Evaluates the predicate with the row geometry on the left.
    pub fn eval(&self, row_geometry: &Geometry, target: &Geometry) -> bool {
        match self {
            SpatialPredicateOp::Intersects => predicates::intersects(row_geometry, target),
            SpatialPredicateOp::Disjoint => predicates::disjoint(row_geometry, target),
            SpatialPredicateOp::Crosses => predicates::crosses(row_geometry, target),
            SpatialPredicateOp::Inside => predicates::inside(row_geometry, target),
            SpatialPredicateOp::Equals => predicates::equals(row_geometry, target),
            SpatialPredicateOp::Contains => predicates::contains(row_geometry, target),
            SpatialPredicateOp::Touches => predicates::touches(row_geometry, target),
        }
    }
}

/// A filter over the rows of one table (a dimension table, layer table or
/// fact table).
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Accept every row.
    All,
    /// Reject every row.
    None,
    /// Compare a column value against a constant.
    Attribute {
        /// The column to read.
        column: String,
        /// The comparison operator.
        op: CompareOp,
        /// The constant to compare against.
        value: CellValue,
    },
    /// Keep rows whose geometry lies within `max_distance` of `target`
    /// (the paper's `Distance(a, b) < d` conditions).
    WithinDistance {
        /// The geometry column to read.
        column: String,
        /// The reference geometry (e.g. the user's location).
        target: Geometry,
        /// Maximum distance, in the metric's unit.
        max_distance: f64,
        /// The distance metric.
        metric: DistanceMetric,
    },
    /// Keep rows whose geometry satisfies a topological predicate against a
    /// target geometry.
    Spatial {
        /// The geometry column to read.
        column: String,
        /// The predicate.
        op: SpatialPredicateOp,
        /// The reference geometry.
        target: Geometry,
    },
    /// Keep rows explicitly listed by row id.
    RowIn(Vec<usize>),
    /// Conjunction of filters.
    And(Vec<Filter>),
    /// Disjunction of filters.
    Or(Vec<Filter>),
    /// Negation of a filter.
    Not(Box<Filter>),
}

impl Filter {
    /// Convenience constructor for an equality filter.
    pub fn eq(column: impl Into<String>, value: impl Into<CellValue>) -> Self {
        Filter::Attribute {
            column: column.into(),
            op: CompareOp::Eq,
            value: value.into(),
        }
    }

    /// Convenience constructor for a within-distance filter in Euclidean
    /// (planar) units.
    pub fn within_km(column: impl Into<String>, target: Geometry, max_distance: f64) -> Self {
        Filter::WithinDistance {
            column: column.into(),
            target,
            max_distance,
            metric: DistanceMetric::Euclidean,
        }
    }

    /// Evaluates the filter against one row of a table.
    pub fn matches(&self, table: &Table, row: usize) -> Result<bool, OlapError> {
        match self {
            Filter::All => Ok(true),
            Filter::None => Ok(false),
            Filter::Attribute { column, op, value } => {
                Ok(op.accepts(table.column(column)?.compare_at(row, value)))
            }
            Filter::WithinDistance {
                column,
                target,
                max_distance,
                metric,
            } => Ok(table
                .column(column)?
                .get_geometry(row)
                .is_some_and(|g| distance(g, target, *metric) < *max_distance)),
            Filter::Spatial { column, op, target } => Ok(table
                .column(column)?
                .get_geometry(row)
                .is_some_and(|g| op.eval(g, target))),
            Filter::RowIn(rows) => Ok(rows.contains(&row)),
            Filter::And(filters) => {
                for f in filters {
                    if !f.matches(table, row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Filter::Or(filters) => {
                for f in filters {
                    if f.matches(table, row)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Filter::Not(inner) => Ok(!inner.matches(table, row)?),
        }
    }

    /// Evaluates the filter against every row of a table, returning the
    /// matching row ids. A bare leaf that reads one column — an attribute
    /// comparison (the usual dimension slice), a distance or a
    /// topological test — resolves its column once for the whole walk;
    /// every other shape goes row by row through [`Filter::matches`]
    /// (whose short-circuits decide which columns are ever looked up, so
    /// nothing can be resolved ahead of it without changing its errors).
    /// A leaf resolves only for a non-empty table, because `matches`
    /// looks a column up only for a row.
    pub fn matching_rows(&self, table: &Table) -> Result<Vec<usize>, OlapError> {
        let rows = 0..table.len();
        match self {
            Filter::Attribute { column, op, value } if !table.is_empty() => {
                let column = table.column(column)?;
                Ok(rows
                    .filter(|&row| op.accepts(column.compare_at(row, value)))
                    .collect())
            }
            Filter::WithinDistance {
                column,
                target,
                max_distance,
                metric,
            } if !table.is_empty() => {
                let column = table.column(column)?;
                Ok(rows
                    .filter(|&row| {
                        column
                            .get_geometry(row)
                            .is_some_and(|g| distance(g, target, *metric) < *max_distance)
                    })
                    .collect())
            }
            Filter::Spatial { column, op, target } if !table.is_empty() => {
                let column = table.column(column)?;
                Ok(rows
                    .filter(|&row| column.get_geometry(row).is_some_and(|g| op.eval(g, target)))
                    .collect())
            }
            _ => {
                let mut out = Vec::new();
                for row in rows {
                    if self.matches(table, row)? {
                        out.push(row);
                    }
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnType;
    use sdwp_geometry::Point;

    fn stores() -> Table {
        let mut t = Table::new(
            "Store",
            vec![
                ("Store.name".to_string(), ColumnType::Text),
                ("City.name".to_string(), ColumnType::Text),
                ("size".to_string(), ColumnType::Integer),
                ("Store.geometry".to_string(), ColumnType::Geometry),
            ],
        );
        let rows = [
            ("Downtown", "Alicante", 300, (0.0, 0.0)),
            ("Harbour", "Alicante", 120, (3.0, 4.0)),
            ("Centro", "Madrid", 800, (100.0, 100.0)),
        ];
        for (store, city, size, (x, y)) in rows {
            t.push_row(vec![
                ("Store.name", CellValue::from(store)),
                ("City.name", CellValue::from(city)),
                ("size", CellValue::Integer(size)),
                (
                    "Store.geometry",
                    CellValue::Geometry(Point::new(x, y).into()),
                ),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn attribute_filters() {
        let t = stores();
        let alicante = Filter::eq("City.name", "Alicante");
        assert_eq!(alicante.matching_rows(&t).unwrap(), vec![0, 1]);
        let big = Filter::Attribute {
            column: "size".into(),
            op: CompareOp::Ge,
            value: CellValue::Integer(300),
        };
        assert_eq!(big.matching_rows(&t).unwrap(), vec![0, 2]);
        let not_madrid = Filter::Not(Box::new(Filter::eq("City.name", "Madrid")));
        assert_eq!(not_madrid.matching_rows(&t).unwrap(), vec![0, 1]);
    }

    #[test]
    fn compare_op_semantics() {
        use std::cmp::Ordering::*;
        assert!(CompareOp::Eq.eval(Equal));
        assert!(!CompareOp::Eq.eval(Less));
        assert!(CompareOp::Le.eval(Equal));
        assert!(CompareOp::Le.eval(Less));
        assert!(!CompareOp::Le.eval(Greater));
        assert!(CompareOp::Ne.eval(Greater));
        assert!(CompareOp::Gt.eval(Greater));
        assert!(CompareOp::Ge.eval(Equal));
        assert!(CompareOp::Lt.eval(Less));
    }

    #[test]
    fn incomparable_values_only_satisfy_ne() {
        let t = stores();
        // Comparing a text column to an integer: incomparable.
        let eq = Filter::Attribute {
            column: "City.name".into(),
            op: CompareOp::Eq,
            value: CellValue::Integer(5),
        };
        assert!(eq.matching_rows(&t).unwrap().is_empty());
        let ne = Filter::Attribute {
            column: "City.name".into(),
            op: CompareOp::Ne,
            value: CellValue::Integer(5),
        };
        assert_eq!(ne.matching_rows(&t).unwrap().len(), 3);
    }

    #[test]
    fn within_distance_filter_matches_paper_example_52() {
        let t = stores();
        // "sales made in stores at less than 5 km of his location".
        // The Harbour store sits exactly 5 km away, so the strict `<`
        // threshold of the paper's rule excludes it.
        let user_location: Geometry = Point::new(0.0, 0.0).into();
        let five_km = Filter::within_km("Store.geometry", user_location.clone(), 5.0);
        assert_eq!(five_km.matching_rows(&t).unwrap(), vec![0]);
        // Slightly widening the threshold brings it in.
        let wider = Filter::within_km("Store.geometry", user_location, 5.01);
        assert_eq!(wider.matching_rows(&t).unwrap(), vec![0, 1]);
    }

    #[test]
    fn spatial_predicate_filter() {
        let t = stores();
        let region: Geometry = sdwp_geometry::Polygon::from_tuples(&[
            (-1.0, -1.0),
            (5.0, -1.0),
            (5.0, 5.0),
            (-1.0, 5.0),
        ])
        .unwrap()
        .into();
        let inside = Filter::Spatial {
            column: "Store.geometry".into(),
            op: SpatialPredicateOp::Inside,
            target: region.clone(),
        };
        assert_eq!(inside.matching_rows(&t).unwrap(), vec![0, 1]);
        let disjoint = Filter::Spatial {
            column: "Store.geometry".into(),
            op: SpatialPredicateOp::Disjoint,
            target: region,
        };
        assert_eq!(disjoint.matching_rows(&t).unwrap(), vec![2]);
    }

    #[test]
    fn boolean_combinators() {
        let t = stores();
        let combined = Filter::And(vec![
            Filter::eq("City.name", "Alicante"),
            Filter::Attribute {
                column: "size".into(),
                op: CompareOp::Lt,
                value: CellValue::Integer(200),
            },
        ]);
        assert_eq!(combined.matching_rows(&t).unwrap(), vec![1]);
        let either = Filter::Or(vec![
            Filter::eq("Store.name", "Centro"),
            Filter::eq("Store.name", "Downtown"),
        ]);
        assert_eq!(either.matching_rows(&t).unwrap(), vec![0, 2]);
        assert_eq!(Filter::All.matching_rows(&t).unwrap().len(), 3);
        assert!(Filter::None.matching_rows(&t).unwrap().is_empty());
        assert_eq!(
            Filter::RowIn(vec![2, 5]).matching_rows(&t).unwrap(),
            vec![2]
        );
    }

    #[test]
    fn unknown_column_is_an_error() {
        let t = stores();
        let f = Filter::eq("ghost", "x");
        assert!(f.matching_rows(&t).is_err());
        assert!(f.matches(&t, 0).is_err());
        // A column is only ever looked up for a row: no rows, no error.
        let empty = Table::new("Store", vec![]);
        assert!(f.matching_rows(&empty).unwrap().is_empty());
    }

    /// The column-resolving walk and the per-row reference agree on
    /// every filter shape, errors included, over a populated table, an
    /// empty one and one whose only row has a null geometry.
    #[test]
    fn matching_rows_equals_per_row_matches() {
        let mut null_geometry = Table::new(
            "Store",
            vec![("Store.geometry".to_string(), ColumnType::Geometry)],
        );
        null_geometry.push_row(vec![]).unwrap();
        let tables = [stores(), Table::new("Store", vec![]), null_geometry];
        let region: Geometry =
            sdwp_geometry::Polygon::from_tuples(&[(-1.0, -1.0), (5.0, -1.0), (5.0, 5.0)])
                .unwrap()
                .into();
        let within = |column: &str, metric| Filter::WithinDistance {
            column: column.into(),
            target: Point::new(0.0, 0.0).into(),
            max_distance: 6.0,
            metric,
        };
        let spatial = |column: &str| Filter::Spatial {
            column: column.into(),
            op: SpatialPredicateOp::Intersects,
            target: region.clone(),
        };
        let leaves = [
            Filter::All,
            Filter::None,
            Filter::eq("City.name", "Alicante"),
            Filter::eq("ghost", "x"),
            within("Store.geometry", DistanceMetric::Euclidean),
            within("Store.geometry", DistanceMetric::HaversineKm),
            within("ghost", DistanceMetric::Euclidean),
            spatial("Store.geometry"),
            spatial("ghost"),
            Filter::RowIn(vec![1, 7]),
        ];
        let mut filters = leaves.to_vec();
        for leaf in &leaves {
            filters.push(Filter::Not(Box::new(leaf.clone())));
            filters.push(Filter::And(vec![Filter::None, leaf.clone()]));
            filters.push(Filter::And(vec![leaf.clone(), Filter::All]));
            filters.push(Filter::Or(vec![Filter::All, leaf.clone()]));
            filters.push(Filter::Or(vec![leaf.clone(), Filter::None]));
        }
        for table in &tables {
            for filter in &filters {
                let per_row: Result<Vec<usize>, OlapError> = (0..table.len())
                    .filter_map(|row| match filter.matches(table, row) {
                        Ok(true) => Some(Ok(row)),
                        Ok(false) => None,
                        Err(e) => Some(Err(e)),
                    })
                    .collect();
                assert_eq!(
                    filter.matching_rows(table),
                    per_row,
                    "{filter:?} over {} rows",
                    table.len()
                );
            }
        }
    }

    #[test]
    fn null_geometry_never_matches_spatial_filters() {
        let mut t = Table::new("L", vec![("geometry".to_string(), ColumnType::Geometry)]);
        t.push_row(vec![]).unwrap(); // null geometry
        let f = Filter::within_km("geometry", Point::new(0.0, 0.0).into(), 1000.0);
        assert!(f.matching_rows(&t).unwrap().is_empty());
    }
}
