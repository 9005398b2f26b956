//! Fact deltas: the unit of streaming change to a cube's fact tables.
//!
//! A [`DeltaBatch`] is the atom of ingestion: either every delta in the
//! batch becomes visible to readers, or none does. Atomicity is enforced
//! in two layers — [`DeltaBatch::validate`] checks the *whole* batch
//! against the cube before [`DeltaBatch::apply`] mutates anything (so a
//! bad delta can never leave the write master half-updated), and the
//! ingest worker only publishes snapshots at batch boundaries (so readers
//! can never observe a torn batch even while the master is mid-apply).

use sdwp_olap::cube::fk_column;
use sdwp_olap::{CellValue, Cube, OlapError};
use std::collections::{BTreeMap, BTreeSet};

/// One change to one fact table.
///
/// Deltas address rows by their stable row id (row ids never shift:
/// retraction tombstones). Foreign keys are immutable — correcting a
/// mis-keyed fact is a [`FactDelta::Retract`] plus a fresh
/// [`FactDelta::Append`].
#[derive(Debug, Clone, PartialEq)]
pub enum FactDelta {
    /// Appends a fact row: foreign keys (dimension name → member row id)
    /// plus measure values.
    Append {
        /// The fact to append to.
        fact: String,
        /// Foreign keys as `(dimension, member row id)` pairs.
        foreign_keys: Vec<(String, usize)>,
        /// Measure values as `(measure column, value)` pairs.
        measures: Vec<(String, CellValue)>,
    },
    /// Overwrites one measure cell of a live fact row (e.g. a price
    /// correction).
    UpsertCell {
        /// The fact to update.
        fact: String,
        /// The fact row id.
        row: usize,
        /// The measure column to overwrite.
        column: String,
        /// The new value.
        value: CellValue,
    },
    /// Tombstones a fact row; its id is never reused.
    Retract {
        /// The fact to retract from.
        fact: String,
        /// The fact row id.
        row: usize,
    },
}

impl FactDelta {
    /// The fact table this delta touches.
    pub fn fact(&self) -> &str {
        match self {
            FactDelta::Append { fact, .. }
            | FactDelta::UpsertCell { fact, .. }
            | FactDelta::Retract { fact, .. } => fact,
        }
    }
}

/// What applying a batch did, aggregated for ingest statistics and for
/// scoping cache invalidation to the facts that actually changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Fact rows appended.
    pub rows_appended: u64,
    /// Measure cells overwritten.
    pub cells_upserted: u64,
    /// Fact rows newly tombstoned (retracting an already-dead row does not
    /// count — it changed nothing).
    pub rows_retracted: u64,
    /// The facts whose tables changed. Empty for an empty (or fully
    /// no-op) batch — the epoch worker then publishes nothing and the
    /// result cache keeps every entry.
    pub changed_facts: BTreeSet<String>,
}

impl BatchOutcome {
    /// Total mutations applied — the epoch policy's row counter.
    pub fn mutations(&self) -> u64 {
        self.rows_appended + self.cells_upserted + self.rows_retracted
    }
}

/// An ordered batch of fact deltas, applied atomically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    /// The deltas, applied in order.
    pub deltas: Vec<FactDelta>,
}

/// Per-fact bookkeeping while validating a batch: deltas later in the
/// batch may address rows appended — or rows retracted — earlier in it.
struct VirtualFact {
    len: usize,
    retracted_in_batch: BTreeSet<usize>,
}

impl DeltaBatch {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// Adds an append delta (builder style).
    pub fn append(
        mut self,
        fact: impl Into<String>,
        foreign_keys: Vec<(impl Into<String>, usize)>,
        measures: Vec<(impl Into<String>, CellValue)>,
    ) -> Self {
        self.deltas.push(FactDelta::Append {
            fact: fact.into(),
            foreign_keys: foreign_keys
                .into_iter()
                .map(|(d, m)| (d.into(), m))
                .collect(),
            measures: measures.into_iter().map(|(c, v)| (c.into(), v)).collect(),
        });
        self
    }

    /// Adds a cell-upsert delta (builder style).
    pub fn upsert_cell(
        mut self,
        fact: impl Into<String>,
        row: usize,
        column: impl Into<String>,
        value: CellValue,
    ) -> Self {
        self.deltas.push(FactDelta::UpsertCell {
            fact: fact.into(),
            row,
            column: column.into(),
            value,
        });
        self
    }

    /// Adds a retraction delta (builder style).
    pub fn retract(mut self, fact: impl Into<String>, row: usize) -> Self {
        self.deltas.push(FactDelta::Retract {
            fact: fact.into(),
            row,
        });
        self
    }

    /// Number of deltas in the batch.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Returns `true` when the batch holds no deltas.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Checks every delta against the cube *without mutating it*: facts,
    /// dimensions and columns must exist, foreign keys and row ids must be
    /// in range, targeted rows must be live, values must match their
    /// column types. Row-id arithmetic accounts for appends and
    /// retractions earlier in the same batch.
    ///
    /// This is what makes [`DeltaBatch::apply`] all-or-nothing: a batch
    /// that validates cannot fail mid-apply, and a batch that does not
    /// validate never touches the cube.
    pub fn validate(&self, cube: &Cube) -> Result<(), OlapError> {
        let mut virtual_facts: BTreeMap<&str, VirtualFact> = BTreeMap::new();
        for delta in &self.deltas {
            let fact_name = delta.fact();
            let table = &cube.fact_table(fact_name)?.table;
            let state = virtual_facts
                .entry(fact_name)
                .or_insert_with(|| VirtualFact {
                    len: table.len(),
                    retracted_in_batch: BTreeSet::new(),
                });
            match delta {
                FactDelta::Append {
                    fact,
                    foreign_keys,
                    measures,
                } => {
                    // Every dimension of the fact must get exactly one
                    // foreign key: a missing one would be stored as a
                    // Null `__fk_` cell, which poisons every later
                    // group-by / view scan over that dimension with a
                    // type error.
                    let fact_def =
                        cube.schema()
                            .fact(fact)
                            .ok_or_else(|| OlapError::UnknownElement {
                                kind: "fact",
                                name: fact.clone(),
                            })?;
                    for dimension in &fact_def.dimensions {
                        match foreign_keys.iter().filter(|(d, _)| d == dimension).count() {
                            1 => {}
                            0 => {
                                return Err(OlapError::RowShape {
                                    message: format!(
                                        "append to fact '{fact}' is missing the foreign key \
                                         for dimension '{dimension}'"
                                    ),
                                })
                            }
                            n => {
                                return Err(OlapError::RowShape {
                                    message: format!(
                                        "append to fact '{fact}' supplies {n} foreign keys \
                                         for dimension '{dimension}'"
                                    ),
                                })
                            }
                        }
                    }
                    for (dimension, member) in foreign_keys {
                        if !fact_def.references_dimension(dimension)
                            || table.column_index(&fk_column(dimension)).is_none()
                        {
                            return Err(OlapError::InvalidQuery {
                                message: format!(
                                    "fact '{fact}' is not analysed by dimension '{dimension}'"
                                ),
                            });
                        }
                        let dim_table = &cube.dimension_table(dimension)?.table;
                        if *member >= dim_table.len() {
                            return Err(OlapError::RowShape {
                                message: format!(
                                    "foreign key {member} out of range for dimension \
                                     '{dimension}' ({} members)",
                                    dim_table.len()
                                ),
                            });
                        }
                    }
                    for (i, (column, value)) in measures.iter().enumerate() {
                        if column.starts_with("__fk_") {
                            return Err(OlapError::InvalidQuery {
                                message: format!(
                                    "foreign-key column '{column}' cannot be set as a measure"
                                ),
                            });
                        }
                        // Ambiguous like a duplicate FK: `push_row` would
                        // silently keep the first value only.
                        if measures[..i].iter().any(|(c, _)| c == column) {
                            return Err(OlapError::RowShape {
                                message: format!(
                                    "append to fact '{fact}' supplies measure column \
                                     '{column}' more than once"
                                ),
                            });
                        }
                        if !table.column(column)?.accepts(value) {
                            return Err(OlapError::TypeMismatch {
                                expected: "a value matching the column type",
                                found: format!("{} for column '{column}'", value.type_name()),
                            });
                        }
                    }
                    state.len += 1;
                }
                FactDelta::UpsertCell {
                    row, column, value, ..
                } => {
                    if column.starts_with("__fk_") {
                        return Err(OlapError::InvalidQuery {
                            message: format!(
                                "foreign-key column '{column}' is immutable; retract the row \
                                 and append a corrected one"
                            ),
                        });
                    }
                    let dead_in_cube = *row < table.len() && !table.is_live(*row);
                    if *row >= state.len || dead_in_cube || state.retracted_in_batch.contains(row) {
                        return Err(OlapError::RowShape {
                            message: format!(
                                "cannot update fact row {row}: out of range or retracted"
                            ),
                        });
                    }
                    if !table.column(column)?.accepts(value) {
                        return Err(OlapError::TypeMismatch {
                            expected: "a value matching the column type",
                            found: format!("{} for column '{column}'", value.type_name()),
                        });
                    }
                }
                FactDelta::Retract { row, .. } => {
                    if *row >= state.len {
                        return Err(OlapError::RowShape {
                            message: format!(
                                "cannot retract fact row {row}: only {} rows exist",
                                state.len
                            ),
                        });
                    }
                    state.retracted_in_batch.insert(*row);
                }
            }
        }
        Ok(())
    }

    /// Applies a *validated* batch to the cube, in order. Panics on a
    /// delta [`DeltaBatch::validate`] would have rejected — callers must
    /// validate first; the ingest worker does.
    pub fn apply(&self, cube: &mut Cube) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        for delta in &self.deltas {
            match delta {
                FactDelta::Append {
                    fact,
                    foreign_keys,
                    measures,
                } => {
                    let fks: Vec<(&str, usize)> =
                        foreign_keys.iter().map(|(d, m)| (d.as_str(), *m)).collect();
                    let ms: Vec<(&str, CellValue)> = measures
                        .iter()
                        .map(|(c, v)| (c.as_str(), v.clone()))
                        .collect();
                    cube.add_fact_row(fact, fks, ms)
                        .expect("validated append applies");
                    outcome.rows_appended += 1;
                    outcome.changed_facts.insert(fact.clone());
                }
                FactDelta::UpsertCell {
                    fact,
                    row,
                    column,
                    value,
                } => {
                    cube.upsert_fact_cell(fact, *row, column, value.clone())
                        .expect("validated upsert applies");
                    outcome.cells_upserted += 1;
                    outcome.changed_facts.insert(fact.clone());
                }
                FactDelta::Retract { fact, row } => {
                    let was_live = cube
                        .fact_table(fact)
                        .expect("validated fact exists")
                        .table
                        .is_live(*row);
                    cube.retract_fact_row(fact, *row)
                        .expect("validated retraction applies");
                    if was_live {
                        outcome.rows_retracted += 1;
                        outcome.changed_facts.insert(fact.clone());
                    }
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};

    fn cube() -> Cube {
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
        for i in 0..2 {
            cube.add_dimension_member(
                "Store",
                vec![("Store.name", CellValue::from(format!("S{i}")))],
            )
            .unwrap();
        }
        cube.add_fact_row(
            "Sales",
            vec![("Store", 0)],
            vec![("UnitSales", CellValue::Float(1.0))],
        )
        .unwrap();
        cube
    }

    #[test]
    fn batch_builder_and_accessors() {
        let batch = DeltaBatch::new()
            .append(
                "Sales",
                vec![("Store", 1usize)],
                vec![("UnitSales", CellValue::Float(2.0))],
            )
            .upsert_cell("Sales", 0, "UnitSales", CellValue::Float(5.0))
            .retract("Sales", 0);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert!(batch.deltas.iter().all(|d| d.fact() == "Sales"));
        assert!(DeltaBatch::new().is_empty());
    }

    #[test]
    fn valid_batch_applies_in_order() {
        let mut c = cube();
        let batch = DeltaBatch::new()
            .upsert_cell("Sales", 0, "UnitSales", CellValue::Float(9.0))
            .append(
                "Sales",
                vec![("Store", 1usize)],
                vec![("UnitSales", CellValue::Float(2.0))],
            )
            // Upsert the row appended earlier in this same batch …
            .upsert_cell("Sales", 1, "UnitSales", CellValue::Float(3.0))
            // … then retract the original row.
            .retract("Sales", 0);
        batch.validate(&c).unwrap();
        let stamp = c.stamp();
        let outcome = batch.apply(&mut c);
        // Fact deltas leave the cube's stamp (its non-fact version) alone.
        assert_eq!(c.stamp(), stamp);
        assert_eq!(
            (
                outcome.rows_appended,
                outcome.cells_upserted,
                outcome.rows_retracted
            ),
            (1, 2, 1)
        );
        assert_eq!(outcome.mutations(), 4);
        assert!(outcome.changed_facts.contains("Sales"));
        let table = &c.fact_table("Sales").unwrap().table;
        assert_eq!((table.len(), table.live_len()), (2, 1));
        assert_eq!(table.get(1, "UnitSales").unwrap(), CellValue::Float(3.0));
    }

    #[test]
    fn invalid_batches_are_rejected_before_any_mutation() {
        let c = cube();
        let bad: [DeltaBatch; 7] = [
            DeltaBatch::new().append(
                "Returns",
                vec![("Store", 0usize)],
                vec![("X", CellValue::Null)],
            ),
            DeltaBatch::new().append(
                "Sales",
                vec![("Store", 9usize)],
                Vec::<(String, CellValue)>::new(),
            ),
            DeltaBatch::new().append(
                "Sales",
                vec![("Ghost", 0usize)],
                Vec::<(String, CellValue)>::new(),
            ),
            DeltaBatch::new().append(
                "Sales",
                vec![("Store", 0usize)],
                vec![("UnitSales", CellValue::from("not a number"))],
            ),
            DeltaBatch::new().upsert_cell("Sales", 7, "UnitSales", CellValue::Float(1.0)),
            DeltaBatch::new().upsert_cell("Sales", 0, "__fk_Store", CellValue::Integer(1)),
            DeltaBatch::new().retract("Sales", 7),
        ];
        for batch in &bad {
            assert!(batch.validate(&c).is_err(), "{batch:?} should not validate");
        }
        // A good delta after a bad one does not save the batch.
        let mixed = DeltaBatch::new().retract("Sales", 7).upsert_cell(
            "Sales",
            0,
            "UnitSales",
            CellValue::Float(2.0),
        );
        assert!(mixed.validate(&c).is_err());
    }

    #[test]
    fn appends_must_cover_every_dimension_exactly_once() {
        let c = cube();
        // Missing FK: would store Null in __fk_Store and poison every
        // later group-by over Store.
        let missing = DeltaBatch::new().append(
            "Sales",
            Vec::<(String, usize)>::new(),
            vec![("UnitSales", CellValue::Float(1.0))],
        );
        assert!(missing.validate(&c).is_err());
        // Duplicate FK for one dimension is ambiguous.
        let duplicate = DeltaBatch::new().append(
            "Sales",
            vec![("Store", 0usize), ("Store", 1usize)],
            vec![("UnitSales", CellValue::Float(1.0))],
        );
        assert!(duplicate.validate(&c).is_err());
        // A duplicate measure column would be silently deduplicated by
        // push_row; reject it as ambiguous too.
        let dup_measure = DeltaBatch::new().append(
            "Sales",
            vec![("Store", 0usize)],
            vec![
                ("UnitSales", CellValue::Float(1.0)),
                ("UnitSales", CellValue::Float(2.0)),
            ],
        );
        assert!(dup_measure.validate(&c).is_err());
        // Complete coverage validates.
        let complete = DeltaBatch::new().append(
            "Sales",
            vec![("Store", 0usize)],
            vec![("UnitSales", CellValue::Float(1.0))],
        );
        complete.validate(&c).unwrap();
    }

    #[test]
    fn batch_internal_row_arithmetic() {
        let c = cube();
        // Upserting a row that only exists after the batch's own append is
        // valid; upserting past it is not.
        let ok = DeltaBatch::new()
            .append(
                "Sales",
                vec![("Store", 0usize)],
                vec![("UnitSales", CellValue::Float(1.0))],
            )
            .upsert_cell("Sales", 1, "UnitSales", CellValue::Float(2.0));
        ok.validate(&c).unwrap();
        let past = DeltaBatch::new().upsert_cell("Sales", 1, "UnitSales", CellValue::Float(2.0));
        assert!(past.validate(&c).is_err());
        // A row retracted earlier in the batch cannot be upserted later.
        let dead = DeltaBatch::new().retract("Sales", 0).upsert_cell(
            "Sales",
            0,
            "UnitSales",
            CellValue::Float(2.0),
        );
        assert!(dead.validate(&c).is_err());
    }

    #[test]
    fn retracting_a_dead_row_is_a_no_op_not_a_change() {
        let mut c = cube();
        c.retract_fact_row("Sales", 0).unwrap();
        let batch = DeltaBatch::new().retract("Sales", 0);
        batch.validate(&c).unwrap();
        let outcome = batch.apply(&mut c);
        assert_eq!(outcome.rows_retracted, 0);
        assert!(outcome.changed_facts.is_empty());
        assert_eq!(outcome.mutations(), 0);
    }
}
