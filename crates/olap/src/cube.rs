//! The star-schema cube binding instances to an MD/GeoMD schema.

use crate::chunk::DEFAULT_CHUNK_ROWS;
use crate::column::{Column, ColumnType};
use crate::error::OlapError;
use crate::table::{RowRemap, Table};
use crate::value::CellValue;
use sdwp_geometry::{GeometricType, Geometry};
use sdwp_model::{AttributeType, ModelError, Schema};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The instance table of one dimension, at leaf-level grain.
///
/// Every level contributes its attribute columns (named
/// `"<Level>.<attribute>"`) plus a `"<Level>.geometry"` column. Geometry
/// columns exist for every level even when the conceptual schema has not
/// (yet) marked the level spatial: the paper's premise is that warehouses
/// already *contain* spatial data which is "not used to its full
/// potential" until a personalization rule introduces it into the model.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionTable {
    /// The dimension this table instantiates.
    pub dimension: String,
    /// The backing columnar table.
    pub table: Table,
}

/// The instance table of a thematic geographic layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// The layer this table instantiates.
    pub layer: String,
    /// The backing columnar table (columns `name`, `geometry`).
    pub table: Table,
}

/// The instance table of a fact: foreign keys into dimensions plus
/// measures.
#[derive(Debug, Clone, PartialEq)]
pub struct FactTable {
    /// The fact this table instantiates.
    pub fact: String,
    /// The backing columnar table.
    pub table: Table,
    /// The retained stable-row-id remaps of this table's compactions,
    /// oldest first ([`Arc`]-shared across snapshots). `remaps[i]`
    /// publishes the transition from compaction version `remap_base + i`
    /// to `remap_base + i + 1`; row ids captured at version `v` translate
    /// to the current numbering through `remaps[v - remap_base ..]` (see
    /// [`FactTable::translate_rows_from`]). Only id-addressed producers
    /// read the chain: views name dimension members, never fact rows.
    pub remaps: Vec<Arc<RowRemap>>,
    /// Compaction version of the oldest retained remap's *source*
    /// numbering. After each compaction the serving layer trims every
    /// transition below the minimum registered producer floor and below
    /// the previous version, so the chain stays bounded however many
    /// compactions a table goes through; `remap_base` records how many
    /// were dropped.
    pub remap_base: u64,
}

impl FactTable {
    /// The table's compaction version: how many times it has been
    /// compacted (including compactions whose remaps were since trimmed).
    pub fn compaction_version(&self) -> u64 {
        self.remap_base + self.remaps.len() as u64
    }

    /// Translates row ids captured at compaction `version` forward
    /// through every retained remap to the current numbering; ids whose
    /// rows died in an intervening compaction drop out. The shared walk
    /// behind every producer's re-anchor step.
    ///
    /// `None` when the retained chain does not cover `version`: it was
    /// trimmed past it (`version < remap_base`, the producer lagged) or
    /// the table never reached it. Walking a partial chain would return
    /// wrong ids without an error.
    pub fn translate_rows_from(
        &self,
        version: u64,
        rows: impl IntoIterator<Item = usize>,
    ) -> Option<Vec<usize>> {
        let start = usize::try_from(version.checked_sub(self.remap_base)?).ok()?;
        let remaps = self.remaps.get(start..)?;
        Some(
            rows.into_iter()
                .filter_map(|row| {
                    let mut row = Some(row);
                    for remap in remaps {
                        row = row.and_then(|r| remap.new_id(r));
                    }
                    row
                })
                .collect(),
        )
    }
}

/// Observable per-fact storage counters: the operator's
/// compaction-pressure gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct FactTableStats {
    /// The fact's name.
    pub fact: String,
    /// Rows ever appended under the current numbering (live + dead).
    pub total_rows: usize,
    /// Live (non-retracted) rows.
    pub live_rows: usize,
    /// Fraction of rows tombstoned (`0.0` for an empty table).
    pub tombstone_ratio: f64,
    /// How many times the table has been compacted.
    pub compactions: u64,
    /// Remaps still retained on the table's chain (compactions minus the
    /// versions trimmed once nothing live could reference them) — the
    /// gauge that shows the chain staying bounded under steady
    /// compaction.
    pub remap_chain_len: usize,
}

/// Name of the foreign-key column referencing a dimension.
pub fn fk_column(dimension: &str) -> String {
    format!("__fk_{dimension}")
}

/// Name of the instance-table column backing a level attribute.
pub fn attribute_column(level: &str, attribute: &str) -> String {
    format!("{level}.{attribute}")
}

/// Name of the instance-table column backing a level geometry.
pub fn geometry_column(level: &str) -> String {
    format!("{level}.geometry")
}

/// The member id a fact row points to, read through a pre-resolved FK
/// column — the one typed FK read of the executor (view check, dimension
/// filters, group keys). Value-for-value identical to
/// [`Cube::fact_member`] (float round trip, clamping, error wording)
/// without the name lookup or the `CellValue` materialisation.
pub(crate) fn member_at(column: &Column, fact_row: usize) -> Result<usize, OlapError> {
    match column.get_number(fact_row) {
        Some(member) => Ok(member as usize),
        None => Err(OlapError::TypeMismatch {
            expected: "integer foreign key",
            found: column.get(fact_row).type_name().to_string(),
        }),
    }
}

/// A star-schema cube: one dimension table per dimension, one layer table
/// per (materialised) layer and one fact table per fact, all bound to a
/// conceptual [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Cube {
    schema: Schema,
    dimensions: BTreeMap<String, DimensionTable>,
    layers: BTreeMap<String, LayerTable>,
    facts: BTreeMap<String, FactTable>,
    /// Rows per storage chunk of every table this cube creates.
    chunk_rows: usize,
}

fn column_type_of(attr: &AttributeType) -> ColumnType {
    match attr {
        AttributeType::Integer => ColumnType::Integer,
        AttributeType::Float => ColumnType::Float,
        AttributeType::Text => ColumnType::Text,
        AttributeType::Boolean => ColumnType::Boolean,
        AttributeType::Date => ColumnType::Date,
        AttributeType::Geometry(_) => ColumnType::Geometry,
    }
}

impl Cube {
    /// Creates an empty cube for the given conceptual schema.
    pub fn new(schema: Schema) -> Self {
        Cube::with_chunk_rows(schema, DEFAULT_CHUNK_ROWS)
    }

    /// Creates an empty cube whose tables use an explicit storage chunk
    /// size. Small chunks are mainly for tests exercising chunk
    /// boundaries; the default aligns with the executor's morsel size.
    pub fn with_chunk_rows(schema: Schema, chunk_rows: usize) -> Self {
        let chunk_rows = chunk_rows.max(1);
        let mut dimensions = BTreeMap::new();
        for dim in &schema.dimensions {
            let mut columns: Vec<(String, ColumnType)> = Vec::new();
            for level in &dim.levels {
                for attr in &level.attributes {
                    columns.push((
                        attribute_column(&level.name, &attr.name),
                        column_type_of(&attr.data_type),
                    ));
                }
                columns.push((geometry_column(&level.name), ColumnType::Geometry));
            }
            dimensions.insert(
                dim.name.clone(),
                DimensionTable {
                    dimension: dim.name.clone(),
                    table: Table::with_chunk_rows(dim.name.clone(), columns, chunk_rows),
                },
            );
        }

        let mut facts = BTreeMap::new();
        for fact in &schema.facts {
            let mut columns: Vec<(String, ColumnType)> = fact
                .dimensions
                .iter()
                .map(|d| (fk_column(d), ColumnType::Integer))
                .collect();
            for measure in &fact.measures {
                columns.push((measure.name.clone(), column_type_of(&measure.data_type)));
            }
            facts.insert(
                fact.name.clone(),
                FactTable {
                    fact: fact.name.clone(),
                    table: Table::with_chunk_rows(fact.name.clone(), columns, chunk_rows),
                    remaps: Vec::new(),
                    remap_base: 0,
                },
            );
        }

        let layer_names: Vec<String> = schema.layers.iter().map(|l| l.name.clone()).collect();
        let mut cube = Cube {
            schema,
            dimensions,
            layers: BTreeMap::new(),
            facts,
            chunk_rows,
        };
        for layer in &layer_names {
            cube.ensure_layer_table(layer);
        }
        cube
    }

    /// The conceptual schema this cube instantiates.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The paper's `AddLayer` action: registers the layer in the schema
    /// (see [`Schema::add_layer`]) and materialises its instance table in
    /// the same call. With [`Cube::become_spatial`] this is the only way
    /// the schema changes after construction, so every schema element
    /// keeps its table and every measure, foreign key and level attribute
    /// its column — what query resolution relies on.
    pub fn add_layer(&mut self, layer: &str, geometry: GeometricType) -> Result<(), ModelError> {
        self.schema.add_layer(layer, geometry)?;
        self.ensure_layer_table(layer);
        Ok(())
    }

    /// The paper's `BecomeSpatial` action (see [`Schema::become_spatial`]);
    /// every level's geometry column exists since construction.
    pub fn become_spatial(
        &mut self,
        level: &str,
        geometry: GeometricType,
    ) -> Result<(), ModelError> {
        self.schema.become_spatial(level, geometry)
    }

    /// The dimension table for a dimension.
    pub fn dimension_table(&self, dimension: &str) -> Result<&DimensionTable, OlapError> {
        self.dimensions
            .get(dimension)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "dimension",
                name: dimension.to_string(),
            })
    }

    /// The layer table for a layer, when materialised.
    pub fn layer_table(&self, layer: &str) -> Result<&LayerTable, OlapError> {
        self.layers
            .get(layer)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "layer",
                name: layer.to_string(),
            })
    }

    /// The fact table for a fact.
    pub fn fact_table(&self, fact: &str) -> Result<&FactTable, OlapError> {
        self.facts
            .get(fact)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "fact",
                name: fact.to_string(),
            })
    }

    /// Names of the materialised layers.
    pub fn layer_names(&self) -> Vec<&str> {
        self.layers.keys().map(String::as_str).collect()
    }

    /// Creates an (empty) instance table for a layer if it does not exist
    /// yet.
    pub fn ensure_layer_table(&mut self, layer: &str) -> &mut LayerTable {
        let chunk_rows = self.chunk_rows;
        self.layers
            .entry(layer.to_string())
            .or_insert_with(|| LayerTable {
                layer: layer.to_string(),
                table: Table::with_chunk_rows(
                    layer.to_string(),
                    vec![
                        ("name".to_string(), ColumnType::Text),
                        ("geometry".to_string(), ColumnType::Geometry),
                    ],
                    chunk_rows,
                ),
            })
    }

    /// Adds a member to a dimension table. `values` use instance-column
    /// names (`"Store.name"`, `"City.geometry"`, …); missing columns become
    /// null. Returns the member's row id.
    pub fn add_dimension_member(
        &mut self,
        dimension: &str,
        values: Vec<(&str, CellValue)>,
    ) -> Result<usize, OlapError> {
        let table =
            self.dimensions
                .get_mut(dimension)
                .ok_or_else(|| OlapError::UnknownElement {
                    kind: "dimension",
                    name: dimension.to_string(),
                })?;
        table.table.push_row(values)
    }

    /// Adds an instance to a layer table, creating the table if necessary.
    pub fn add_layer_instance(
        &mut self,
        layer: &str,
        name: impl Into<String>,
        geometry: Geometry,
    ) -> Result<usize, OlapError> {
        let table = self.ensure_layer_table(layer);
        table.table.push_row(vec![
            ("name", CellValue::Text(name.into())),
            ("geometry", CellValue::Geometry(geometry)),
        ])
    }

    /// Adds a fact row: foreign keys (dimension name → member row id) plus
    /// measure values. Returns the fact row id.
    pub fn add_fact_row(
        &mut self,
        fact: &str,
        foreign_keys: Vec<(&str, usize)>,
        measures: Vec<(&str, CellValue)>,
    ) -> Result<usize, OlapError> {
        // Validate foreign keys against dimension table sizes first.
        for (dim, member) in &foreign_keys {
            let dim_table = self.dimension_table(dim)?;
            if *member >= dim_table.table.len() {
                return Err(OlapError::RowShape {
                    message: format!(
                        "foreign key {member} out of range for dimension '{dim}' ({} members)",
                        dim_table.table.len()
                    ),
                });
            }
        }
        let table = self
            .facts
            .get_mut(fact)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "fact",
                name: fact.to_string(),
            })?;
        let mut values: Vec<(String, CellValue)> = foreign_keys
            .into_iter()
            .map(|(dim, row)| (fk_column(dim), CellValue::Integer(row as i64)))
            .collect();
        values.extend(measures.into_iter().map(|(name, v)| (name.to_string(), v)));
        let named: Vec<(&str, CellValue)> = values
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        table.table.push_row(named)
    }

    /// Overwrites a measure cell of a live fact row (the ingest path's
    /// upsert, e.g. a price correction). Foreign-key columns are
    /// immutable — re-pointing a fact at another member would silently
    /// change what long-lived personalized views and cached results mean;
    /// retract the row and append a corrected one instead.
    pub fn upsert_fact_cell(
        &mut self,
        fact: &str,
        row: usize,
        column: &str,
        value: CellValue,
    ) -> Result<(), OlapError> {
        if column.starts_with("__fk_") {
            return Err(OlapError::InvalidQuery {
                message: format!(
                    "foreign-key column '{column}' is immutable; retract the row and append a corrected one"
                ),
            });
        }
        let table = self
            .facts
            .get_mut(fact)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "fact",
                name: fact.to_string(),
            })?;
        table.table.set_cell(row, column, value)
    }

    /// Tombstones a fact row (the ingest path's retraction): scans skip it
    /// from now on, its id is never reused and later row ids do not shift.
    /// Idempotent for an already-retracted row.
    pub fn retract_fact_row(&mut self, fact: &str, row: usize) -> Result<(), OlapError> {
        let table = self
            .facts
            .get_mut(fact)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "fact",
                name: fact.to_string(),
            })?;
        table.table.retract_row(row)
    }

    /// Compacts a fact table: rewrites its live rows into fresh, dense
    /// chunks (dropping every tombstone), remaps the stable row ids, and
    /// appends the resulting [`RowRemap`] to the fact's remap chain so
    /// producers holding ids captured before the compaction can translate
    /// them. Returns the remap.
    pub fn compact_fact_table(&mut self, fact: &str) -> Result<Arc<RowRemap>, OlapError> {
        let fact_table = self
            .facts
            .get_mut(fact)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "fact",
                name: fact.to_string(),
            })?;
        let (compacted, remap) = fact_table.table.compact();
        let remap = Arc::new(remap);
        fact_table.table = compacted;
        fact_table.remaps.push(Arc::clone(&remap));
        Ok(remap)
    }

    /// Drops the remaps covering version transitions below `min_version` —
    /// called by the serving layer once no registered producer can still
    /// hold ids captured before that version, so the chain stays bounded
    /// under steady compaction. Returns how many remaps were dropped. Clamped to the retained window; trimming
    /// to the current version drops the whole chain.
    pub fn trim_fact_remaps(&mut self, fact: &str, min_version: u64) -> Result<usize, OlapError> {
        let fact_table = self
            .facts
            .get_mut(fact)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "fact",
                name: fact.to_string(),
            })?;
        let drop = (min_version.saturating_sub(fact_table.remap_base) as usize)
            .min(fact_table.remaps.len());
        if drop > 0 {
            fact_table.remaps.drain(..drop);
            fact_table.remap_base += drop as u64;
        }
        Ok(drop)
    }

    /// Per-fact storage counters (total / live rows, tombstone ratio,
    /// compactions), in fact-name order.
    pub fn fact_table_stats(&self) -> Vec<FactTableStats> {
        self.facts
            .values()
            .map(|f| FactTableStats {
                fact: f.fact.clone(),
                total_rows: f.table.len(),
                live_rows: f.table.live_len(),
                tombstone_ratio: f.table.tombstone_ratio(),
                compactions: f.compaction_version(),
                remap_chain_len: f.remaps.len(),
            })
            .collect()
    }

    /// The dimension-member row id a fact row points to.
    pub fn fact_member(
        &self,
        fact: &str,
        fact_row: usize,
        dimension: &str,
    ) -> Result<usize, OlapError> {
        let table = self.fact_table(fact)?;
        let value = table.table.get(fact_row, &fk_column(dimension))?;
        value
            .as_number()
            .map(|n| n as usize)
            .ok_or_else(|| OlapError::TypeMismatch {
                expected: "integer foreign key",
                found: value.type_name().to_string(),
            })
    }

    /// Swaps this cube's fact tables with `other`'s, leaving schema,
    /// dimension and layer tables of both untouched.
    ///
    /// This exists for the serving engine's write-side coordination: rule
    /// firing only ever mutates schema, layer and dimension state, while
    /// streaming ingestion only ever mutates fact tables — so rolling back
    /// a failed firing is "take the last published schema state, keep the
    /// master's (possibly further-ingested) fact tables". Panics when the
    /// two cubes do not instantiate the same set of facts.
    pub fn swap_fact_tables(&mut self, other: &mut Cube) {
        assert!(
            self.facts.keys().eq(other.facts.keys()),
            "swap_fact_tables requires cubes over the same facts"
        );
        std::mem::swap(&mut self.facts, &mut other.facts);
    }

    /// Total number of fact rows ever appended across all facts (live and
    /// retracted).
    pub fn total_fact_rows(&self) -> usize {
        self.facts.values().map(|f| f.table.len()).sum()
    }

    /// Total number of live (non-retracted) fact rows across all facts.
    pub fn total_live_fact_rows(&self) -> usize {
        self.facts.values().map(|f| f.table.live_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdwp_geometry::{GeometricType, Point};
    use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new("SalesDW")
            .dimension(
                DimensionBuilder::new("Store")
                    .simple_level("Store", "name")
                    .simple_level("City", "name")
                    .build(),
            )
            .dimension(
                DimensionBuilder::new("Time")
                    .level(
                        "Day",
                        vec![sdwp_model::Attribute::descriptor(
                            "date",
                            AttributeType::Date,
                        )],
                    )
                    .build(),
            )
            .fact(
                FactBuilder::new("Sales")
                    .measure("UnitSales", AttributeType::Float)
                    .measure("StoreCost", AttributeType::Float)
                    .dimension("Store")
                    .dimension("Time")
                    .build(),
            )
            .layer("Airport", GeometricType::Point)
            .build()
            .unwrap()
    }

    fn point(x: f64, y: f64) -> CellValue {
        CellValue::Geometry(Point::new(x, y).into())
    }

    #[test]
    fn cube_tables_follow_schema() {
        let cube = Cube::new(schema());
        let store = cube.dimension_table("Store").unwrap();
        assert!(store.table.column_index("Store.name").is_some());
        assert!(store.table.column_index("City.name").is_some());
        assert!(store.table.column_index("Store.geometry").is_some());
        assert!(store.table.column_index("City.geometry").is_some());
        let sales = cube.fact_table("Sales").unwrap();
        assert!(sales.table.column_index("__fk_Store").is_some());
        assert!(sales.table.column_index("__fk_Time").is_some());
        assert!(sales.table.column_index("UnitSales").is_some());
        assert!(cube.layer_table("Airport").is_ok());
        assert!(cube.dimension_table("Customer").is_err());
        assert!(cube.fact_table("Returns").is_err());
        assert!(cube.layer_table("Train").is_err());
    }

    #[test]
    fn load_members_facts_and_layers() {
        let mut cube = Cube::new(schema());
        let s0 = cube
            .add_dimension_member(
                "Store",
                vec![
                    ("Store.name", CellValue::from("Downtown")),
                    ("City.name", CellValue::from("Alicante")),
                    ("Store.geometry", point(1.0, 1.0)),
                ],
            )
            .unwrap();
        let t0 = cube
            .add_dimension_member("Time", vec![("Day.date", CellValue::Date(100))])
            .unwrap();
        let f0 = cube
            .add_fact_row(
                "Sales",
                vec![("Store", s0), ("Time", t0)],
                vec![("UnitSales", CellValue::Float(12.0))],
            )
            .unwrap();
        assert_eq!((s0, t0, f0), (0, 0, 0));
        assert_eq!(cube.total_fact_rows(), 1);
        assert_eq!(cube.fact_member("Sales", 0, "Store").unwrap(), 0);
        let stores = &cube.dimension_table("Store").unwrap().table;
        let geom = stores.get(0, &geometry_column("Store")).unwrap();
        assert!(matches!(geom, CellValue::Geometry(g) if g.as_point().unwrap().x() == 1.0));
        assert_eq!(
            stores.get(0, &geometry_column("City")).unwrap(),
            CellValue::Null
        );
        cube.add_layer_instance("Airport", "ALC", Point::new(5.0, 5.0).into())
            .unwrap();
        assert_eq!(cube.layer_table("Airport").unwrap().table.len(), 1);
    }

    #[test]
    fn upsert_and_retract_fact_rows() {
        let mut cube = Cube::new(schema());
        cube.add_dimension_member("Store", vec![("Store.name", CellValue::from("S0"))])
            .unwrap();
        cube.add_dimension_member("Time", vec![("Day.date", CellValue::Date(0))])
            .unwrap();
        for i in 0..3 {
            cube.add_fact_row(
                "Sales",
                vec![("Store", 0), ("Time", 0)],
                vec![("UnitSales", CellValue::Float(i as f64))],
            )
            .unwrap();
        }
        // Price correction on row 1.
        cube.upsert_fact_cell("Sales", 1, "UnitSales", CellValue::Float(99.0))
            .unwrap();
        assert_eq!(
            cube.fact_table("Sales")
                .unwrap()
                .table
                .get(1, "UnitSales")
                .unwrap(),
            CellValue::Float(99.0)
        );
        // Foreign keys are immutable.
        assert!(cube
            .upsert_fact_cell("Sales", 1, "__fk_Store", CellValue::Integer(0))
            .is_err());
        assert!(cube
            .upsert_fact_cell("Returns", 0, "UnitSales", CellValue::Float(0.0))
            .is_err());
        // Retraction tombstones without shifting ids.
        cube.retract_fact_row("Sales", 0).unwrap();
        assert_eq!(cube.total_fact_rows(), 3);
        assert_eq!(cube.total_live_fact_rows(), 2);
        assert!(cube.retract_fact_row("Returns", 0).is_err());
        assert!(cube
            .upsert_fact_cell("Sales", 0, "UnitSales", CellValue::Float(1.0))
            .is_err());
    }

    #[test]
    fn foreign_keys_are_validated() {
        let mut cube = Cube::new(schema());
        let err = cube
            .add_fact_row("Sales", vec![("Store", 3)], vec![])
            .unwrap_err();
        assert!(matches!(err, OlapError::RowShape { .. }));
        let err2 = cube
            .add_fact_row("Sales", vec![("Ghost", 0)], vec![])
            .unwrap_err();
        assert!(matches!(err2, OlapError::UnknownElement { .. }));
    }

    #[test]
    fn ensure_layer_table_materialises_new_layers() {
        let mut cube = Cube::new(schema());
        assert!(cube.layer_table("Train").is_err());
        cube.ensure_layer_table("Train");
        assert!(cube.layer_table("Train").is_ok());
        assert_eq!(cube.layer_names(), vec!["Airport", "Train"]);
        // Idempotent.
        cube.add_layer_instance("Train", "T1", Point::new(0.0, 0.0).into())
            .unwrap();
        cube.ensure_layer_table("Train");
        assert_eq!(cube.layer_table("Train").unwrap().table.len(), 1);
    }

    /// The invariant query resolution relies on: however the schema was
    /// mutated, every schema element has its table and every measure,
    /// foreign key and level attribute its column.
    #[test]
    fn tables_and_columns_stay_aligned_with_the_schema() {
        let mut cube = Cube::new(schema());
        cube.add_layer("Train", GeometricType::Line).unwrap();
        cube.add_layer("Train", GeometricType::Line).unwrap();
        assert!(cube.add_layer("Train", GeometricType::Point).is_err());
        cube.become_spatial("City", GeometricType::Point).unwrap();
        assert!(cube
            .become_spatial("Warehouse", GeometricType::Point)
            .is_err());
        assert!(cube.schema().layer("Train").is_some());
        for layer in &cube.schema().layers {
            assert!(cube.layer_table(&layer.name).is_ok(), "{}", layer.name);
        }
        for dim in &cube.schema().dimensions {
            let table = &cube.dimension_table(&dim.name).unwrap().table;
            for level in &dim.levels {
                assert!(table.column_index(&geometry_column(&level.name)).is_some());
                for attr in &level.attributes {
                    let column = attribute_column(&level.name, &attr.name);
                    assert!(table.column_index(&column).is_some(), "{column}");
                }
            }
        }
        for fact in &cube.schema().facts {
            let table = &cube.fact_table(&fact.name).unwrap().table;
            for dimension in &fact.dimensions {
                assert!(table.column_index(&fk_column(dimension)).is_some());
            }
            for measure in &fact.measures {
                assert!(table.column_index(&measure.name).is_some());
            }
        }
    }

    #[test]
    fn fact_compaction_remaps_and_reports_stats() {
        let mut cube = Cube::with_chunk_rows(schema(), 2);
        cube.add_dimension_member("Store", vec![("Store.name", CellValue::from("S0"))])
            .unwrap();
        cube.add_dimension_member("Time", vec![("Day.date", CellValue::Date(0))])
            .unwrap();
        for i in 0..6 {
            cube.add_fact_row(
                "Sales",
                vec![("Store", 0), ("Time", 0)],
                vec![("UnitSales", CellValue::Float(i as f64))],
            )
            .unwrap();
        }
        cube.retract_fact_row("Sales", 0).unwrap();
        cube.retract_fact_row("Sales", 2).unwrap();
        let before = cube.fact_table_stats();
        let sales_before = before.iter().find(|s| s.fact == "Sales").unwrap();
        assert_eq!((sales_before.total_rows, sales_before.live_rows), (6, 4));
        assert!(sales_before.tombstone_ratio > 0.3);
        assert_eq!(sales_before.compactions, 0);

        let remap = cube.compact_fact_table("Sales").unwrap();
        assert_eq!(remap.live_len(), 4);
        assert_eq!(remap.new_id(1), Some(0));
        let table = &cube.fact_table("Sales").unwrap().table;
        assert_eq!((table.len(), table.live_len()), (4, 4));
        // Old row 3 (UnitSales = 3.0) is new row 1.
        assert_eq!(table.get(1, "UnitSales").unwrap(), CellValue::Float(3.0));
        assert_eq!(cube.fact_table("Sales").unwrap().compaction_version(), 1);
        let after = cube.fact_table_stats();
        let sales_after = after.iter().find(|s| s.fact == "Sales").unwrap();
        assert_eq!(sales_after.tombstone_ratio, 0.0);
        assert_eq!(sales_after.compactions, 1);
        assert!(cube.compact_fact_table("Returns").is_err());
        // Forward translation through the chain: live old ids 1,3,4,5 map
        // to 0..4; dead ids drop out; the current version is the identity.
        let sales = cube.fact_table("Sales").unwrap();
        assert_eq!(
            sales.translate_rows_from(0, vec![0, 1, 3, 5]),
            Some(vec![0, 1, 3])
        );
        assert_eq!(sales.translate_rows_from(1, vec![0, 3]), Some(vec![0, 3]));
        // A version the table never reached is refused.
        assert_eq!(sales.translate_rows_from(2, vec![0]), None);
    }

    #[test]
    fn remap_chain_trimming_keeps_versions_and_drops_prefixes() {
        let mut cube = Cube::with_chunk_rows(schema(), 2);
        cube.add_dimension_member("Store", vec![("Store.name", CellValue::from("S0"))])
            .unwrap();
        cube.add_dimension_member("Time", vec![("Day.date", CellValue::Date(0))])
            .unwrap();
        for i in 0..8 {
            cube.add_fact_row(
                "Sales",
                vec![("Store", 0), ("Time", 0)],
                vec![("UnitSales", CellValue::Float(i as f64))],
            )
            .unwrap();
        }
        // Two compaction rounds: retract 0,1 → compact; retract (new) 0 →
        // compact again. Versions 0→1→2.
        cube.retract_fact_row("Sales", 0).unwrap();
        cube.retract_fact_row("Sales", 1).unwrap();
        cube.compact_fact_table("Sales").unwrap();
        cube.retract_fact_row("Sales", 0).unwrap();
        cube.compact_fact_table("Sales").unwrap();
        let sales = cube.fact_table("Sales").unwrap();
        assert_eq!(sales.compaction_version(), 2);
        assert_eq!(sales.remaps.len(), 2);
        // Old version-0 row 2 (the first survivor of round one, version-1
        // row 0) died in round two; version-0 row 3 is new row 0.
        assert_eq!(sales.translate_rows_from(0, vec![2, 3]), Some(vec![0]));

        // Trim the first transition: the version stays 2, the chain
        // shrinks, and translation from version 1 still works.
        assert_eq!(cube.trim_fact_remaps("Sales", 1).unwrap(), 1);
        let sales = cube.fact_table("Sales").unwrap();
        assert_eq!(sales.compaction_version(), 2);
        assert_eq!(sales.remap_base, 1);
        assert_eq!(sales.remaps.len(), 1);
        // Old version-1 row 1 (the second survivor of round one) → new 0.
        assert_eq!(sales.translate_rows_from(1, vec![0, 1]), Some(vec![0]));
        // Trimming is idempotent and clamps to the current version.
        assert_eq!(cube.trim_fact_remaps("Sales", 1).unwrap(), 0);
        assert_eq!(cube.trim_fact_remaps("Sales", 99).unwrap(), 1);
        assert_eq!(cube.fact_table("Sales").unwrap().remap_base, 2);
        assert!(cube.fact_table("Sales").unwrap().remaps.is_empty());
        assert!(cube.trim_fact_remaps("Returns", 0).is_err());
        // The stats gauge reports the retained chain, not the version.
        let stats = cube.fact_table_stats();
        let sales_stats = stats.iter().find(|s| s.fact == "Sales").unwrap();
        assert_eq!(sales_stats.compactions, 2);
        assert_eq!(sales_stats.remap_chain_len, 0);
    }

    /// Ids captured below the trimmed base cannot be translated: the
    /// transitions they need are gone, and walking the retained suffix
    /// from the wrong numbering would return other rows' ids.
    #[test]
    fn translating_from_below_the_trimmed_base_is_refused() {
        let mut cube = Cube::with_chunk_rows(schema(), 2);
        cube.add_dimension_member("Store", vec![("Store.name", CellValue::from("S0"))])
            .unwrap();
        cube.add_dimension_member("Time", vec![("Day.date", CellValue::Date(0))])
            .unwrap();
        for i in 0..4 {
            cube.add_fact_row(
                "Sales",
                vec![("Store", 0), ("Time", 0)],
                vec![("UnitSales", CellValue::Float(i as f64))],
            )
            .unwrap();
        }
        // Version 0 → 1 drops row 0 (old 1,2,3 → 0,1,2); version 1 → 2
        // drops nothing. Version-0 row 2 is version-2 row 1.
        cube.retract_fact_row("Sales", 0).unwrap();
        cube.compact_fact_table("Sales").unwrap();
        cube.compact_fact_table("Sales").unwrap();
        let sales = cube.fact_table("Sales").unwrap();
        assert_eq!(sales.translate_rows_from(0, vec![2]), Some(vec![1]));
        cube.trim_fact_remaps("Sales", 1).unwrap();
        let sales = cube.fact_table("Sales").unwrap();
        assert_eq!(sales.translate_rows_from(0, vec![2]), None);
        assert_eq!(sales.translate_rows_from(1, vec![1]), Some(vec![1]));
    }

    /// Per chunk of `column`, whether `snapshot` holds the same allocation.
    fn shared_chunks(column: &Column, snapshot: &Column) -> Vec<bool> {
        fn same<T>(a: &[Arc<T>], b: &[Arc<T>]) -> Vec<bool> {
            assert_eq!(a.len(), b.len());
            a.iter().zip(b).map(|(a, b)| Arc::ptr_eq(a, b)).collect()
        }
        match (column, snapshot) {
            (Column::Integer(a), Column::Integer(b)) | (Column::Date(a), Column::Date(b)) => {
                same(a.chunks(), b.chunks())
            }
            (Column::Float(a), Column::Float(b)) => same(a.chunks(), b.chunks()),
            (Column::Boolean(a), Column::Boolean(b)) => same(a.chunks(), b.chunks()),
            (Column::Text { codes: a, .. }, Column::Text { codes: b, .. }) => {
                same(a.chunks(), b.chunks())
            }
            (Column::Geometry(a), Column::Geometry(b)) => same(a.chunks(), b.chunks()),
            _ => panic!("column changed type"),
        }
    }

    /// A publication is a clone of the write master. After one append and
    /// one upsert, the master still shares every chunk with the published
    /// snapshot except the partial tail chunk the append wrote and chunk 0
    /// of the upserted column. (Text dictionaries are not checked.)
    #[test]
    fn publication_copies_only_the_chunks_a_delta_touched() {
        let mut cube = Cube::with_chunk_rows(schema(), 16);
        let store = vec![("Store.name", CellValue::from("S0"))];
        cube.add_dimension_member("Store", store).unwrap();
        cube.add_dimension_member("Time", vec![("Day.date", CellValue::Date(0))])
            .unwrap();
        let sale = |i: usize| vec![("UnitSales", CellValue::Float(i as f64))];
        let rows = 5 * 16 + 3;
        for i in 0..rows {
            cube.add_fact_row("Sales", vec![("Store", 0), ("Time", 0)], sale(i))
                .unwrap();
        }
        let snapshot = cube.clone();
        cube.add_fact_row("Sales", vec![("Store", 0), ("Time", 0)], sale(0))
            .unwrap();
        cube.upsert_fact_cell("Sales", 0, "StoreCost", CellValue::Float(2.0))
            .unwrap();

        fn table<'a>(cube: &'a Cube, name: &str) -> &'a Table {
            match cube.fact_table(name) {
                Ok(fact) => &fact.table,
                Err(_) => &cube.dimension_table(name).unwrap().table,
            }
        }
        let tail = rows / 16;
        for name in ["Sales", "Store", "Time"] {
            let (master, published) = (table(&cube, name), table(&snapshot, name));
            for (column, _) in master.row(0) {
                let shared = shared_chunks(
                    master.column(&column).unwrap(),
                    published.column(&column).unwrap(),
                );
                for (chunk, shared) in shared.into_iter().enumerate() {
                    let upserted = column == "StoreCost" && chunk == 0;
                    let touched = name == "Sales" && (chunk == tail || upserted);
                    assert_eq!(shared, !touched, "{name}.{column} chunk {chunk}");
                }
            }
        }
    }

    #[test]
    fn column_name_helpers() {
        assert_eq!(fk_column("Store"), "__fk_Store");
        assert_eq!(attribute_column("City", "name"), "City.name");
        assert_eq!(geometry_column("City"), "City.geometry");
    }
}
