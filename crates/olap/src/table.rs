//! Row-addressable tables built from typed columns.

use crate::chunk::{LivenessMap, DEFAULT_CHUNK_ROWS};
use crate::column::{Column, ColumnType};
use crate::error::OlapError;
use crate::value::CellValue;
use std::ops::Range;

/// The stable-row-id remap published by one compaction of a [`Table`]:
/// live rows keep their relative order, so the new id of an old row is its
/// rank among the surviving ids.
///
/// Remaps compose: a table compacted `n` times has a chain of `n` remaps,
/// and a row id captured at compaction version `v` translates to the
/// current numbering by applying remaps `v..n` in order. Translation only
/// runs forwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowRemap {
    /// The old ids of the surviving rows, ascending; the new id of old row
    /// `live_old_ids[i]` is `i`.
    live_old_ids: Vec<usize>,
}

impl RowRemap {
    /// Wraps the (ascending) old ids of the rows that survived.
    pub fn new(live_old_ids: Vec<usize>) -> Self {
        debug_assert!(live_old_ids.windows(2).all(|w| w[0] < w[1]));
        RowRemap { live_old_ids }
    }

    /// The new id of an old row, or `None` when the row was dead at
    /// compaction time.
    pub fn new_id(&self, old: usize) -> Option<usize> {
        self.live_old_ids.binary_search(&old).ok()
    }

    /// Number of rows that survived the compaction.
    pub fn live_len(&self) -> usize {
        self.live_old_ids.len()
    }
}

/// A named table: an ordered set of typed columns of equal length.
///
/// Dimension tables, layer tables and fact tables are all [`Table`]s; the
/// [`crate::Cube`] adds the star-schema wiring between them.
///
/// Rows are append-only and addressed by their stable row id; a row can be
/// *retracted* (the ingest path's delete), which tombstones the id — scans
/// skip it, the id is never reused, and ids of later rows never shift, so
/// producers addressing rows by id stay valid across ingestion (only a
/// compaction renumbers, publishing a [`RowRemap`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name.
    pub name: String,
    columns: Vec<(String, Column)>,
    rows: usize,
    /// Tombstoned row ids, as a chunked copy-on-write bitmap: cloning the
    /// table (snapshot publication) bumps chunk refcounts instead of
    /// copying the whole set, and a retraction copies one chunk.
    liveness: LivenessMap,
    /// Rows per storage chunk (the copy-on-write granularity).
    chunk_rows: usize,
}

impl Table {
    /// Creates a table from `(column name, type)` pairs with the default
    /// chunk size.
    pub fn new(name: impl Into<String>, columns: Vec<(String, ColumnType)>) -> Self {
        Table::with_chunk_rows(name, columns, DEFAULT_CHUNK_ROWS)
    }

    /// Creates a table with an explicit storage chunk size (rows per
    /// chunk, ≥ 1). Small chunks are mainly for tests that want many
    /// chunk boundaries; the default aligns with the executor's morsel
    /// size.
    pub fn with_chunk_rows(
        name: impl Into<String>,
        columns: Vec<(String, ColumnType)>,
        chunk_rows: usize,
    ) -> Self {
        let chunk_rows = chunk_rows.max(1);
        Table {
            name: name.into(),
            columns: columns
                .into_iter()
                .map(|(n, t)| (n, Column::with_chunk_rows(t, chunk_rows)))
                .collect(),
            rows: 0,
            liveness: LivenessMap::new(chunk_rows),
            chunk_rows,
        }
    }

    /// Rows per storage chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of rows ever appended (live and retracted); row ids range
    /// over `0..len()`.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Returns `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of live (non-retracted) rows.
    pub fn live_len(&self) -> usize {
        self.rows - self.liveness.dead_count()
    }

    /// Returns `true` when `row` exists and has not been retracted.
    pub fn is_live(&self, row: usize) -> bool {
        row < self.rows && !self.liveness.is_dead(row)
    }

    /// Fraction of ever-appended rows that are tombstoned — the
    /// compaction-pressure signal (`0.0` for an empty table).
    pub fn tombstone_ratio(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.liveness.dead_count() as f64 / self.rows as f64
        }
    }

    /// The maximal runs of live rows within a row range (clamped to the
    /// table's length): contiguous id ranges containing no tombstone. The
    /// view's selection (`ResolvedViewCheck::select_visible`) starts from
    /// these runs instead of a per-row liveness check, and compaction
    /// copies them.
    pub fn live_runs(&self, rows: Range<usize>) -> Vec<Range<usize>> {
        let end = rows.end.min(self.rows);
        let start = rows.start.min(end);
        self.liveness.live_runs(start..end)
    }

    /// Rewrites the live rows into fresh, dense chunks, dropping every
    /// tombstone (and, for text columns, re-interning only the strings
    /// live rows still reference). Live rows keep their relative order;
    /// the returned [`RowRemap`] translates old stable row ids to the new
    /// numbering so long-lived selections can follow.
    pub fn compact(&self) -> (Table, RowRemap) {
        let mut fresh = Table {
            name: self.name.clone(),
            columns: self
                .columns
                .iter()
                .map(|(n, c)| {
                    (
                        n.clone(),
                        Column::with_chunk_rows(c.column_type(), self.chunk_rows),
                    )
                })
                .collect(),
            rows: 0,
            liveness: LivenessMap::new(self.chunk_rows),
            chunk_rows: self.chunk_rows,
        };
        let mut live_old_ids = Vec::with_capacity(self.live_len());
        for run in self.live_runs(0..self.rows) {
            for row in run {
                live_old_ids.push(row);
                for (source, target) in self.columns.iter().zip(fresh.columns.iter_mut()) {
                    target
                        .1
                        .push(source.1.get(row))
                        .expect("compaction copies between identical column types");
                }
                fresh.rows += 1;
            }
        }
        (fresh, RowRemap::new(live_old_ids))
    }

    /// Tombstones a row: scans skip it from now on, its id is never
    /// reused. Retracting an already-retracted row is a no-op (`Ok`), so a
    /// replayed delta stays idempotent; an out-of-range row is an error.
    pub fn retract_row(&mut self, row: usize) -> Result<(), OlapError> {
        if row >= self.rows {
            return Err(OlapError::RowShape {
                message: format!(
                    "cannot retract row {row} of table '{}' ({} rows)",
                    self.name, self.rows
                ),
            });
        }
        self.liveness.retract(row);
        Ok(())
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Borrow a column by declaration index (resolved once by the query
    /// planner; panics out of range, like slice indexing).
    pub fn column_at(&self, index: usize) -> &Column {
        &self.columns[index].1
    }

    /// Index of a column by name, or the typed error naming it — what
    /// planners resolve once so scans hold plain indices.
    pub fn index_of(&self, name: &str) -> Result<usize, OlapError> {
        self.column_index(name)
            .ok_or_else(|| OlapError::UnknownColumn {
                table: self.name.clone(),
                column: name.to_string(),
            })
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column, OlapError> {
        self.index_of(name).map(|index| self.column_at(index))
    }

    /// Appends a row given as `(column name, value)` pairs; missing columns
    /// become null.
    pub fn push_row(&mut self, values: Vec<(&str, CellValue)>) -> Result<usize, OlapError> {
        // Validate names *and* types first so a failed push cannot leave
        // ragged columns behind.
        for (name, value) in &values {
            match self.column(name) {
                Err(_) => {
                    return Err(OlapError::UnknownColumn {
                        table: self.name.clone(),
                        column: (*name).to_string(),
                    })
                }
                Ok(column) => {
                    if !column.accepts(value) {
                        return Err(OlapError::TypeMismatch {
                            expected: "a value matching the column type",
                            found: format!("{} for column '{name}'", value.type_name()),
                        });
                    }
                }
            }
        }
        for (col_name, column) in &mut self.columns {
            let value = values
                .iter()
                .find(|(n, _)| n == col_name)
                .map(|(_, v)| v.clone())
                .unwrap_or(CellValue::Null);
            column.push(value)?;
        }
        let row = self.rows;
        self.rows += 1;
        Ok(row)
    }

    /// Overwrites one cell of a live row (the ingest path's cell upsert).
    /// Errors on an unknown column, an out-of-range or retracted row, or a
    /// type-incompatible value — always leaving the table untouched.
    pub fn set_cell(
        &mut self,
        row: usize,
        column: &str,
        value: CellValue,
    ) -> Result<(), OlapError> {
        if !self.is_live(row) {
            return Err(OlapError::RowShape {
                message: format!(
                    "cannot update row {row} of table '{}': {}",
                    self.name,
                    if row < self.rows {
                        "row is retracted"
                    } else {
                        "row out of range"
                    }
                ),
            });
        }
        let name = self.name.clone();
        let col = self
            .columns
            .iter_mut()
            .find(|(n, _)| n == column)
            .map(|(_, c)| c)
            .ok_or_else(|| OlapError::UnknownColumn {
                table: name,
                column: column.to_string(),
            })?;
        col.set(row, value)
    }

    /// Reads a cell by row index and column name.
    pub fn get(&self, row: usize, column: &str) -> Result<CellValue, OlapError> {
        Ok(self.column(column)?.get(row))
    }

    /// Reads an entire row as `(column name, value)` pairs.
    pub fn row(&self, row: usize) -> Vec<(String, CellValue)> {
        self.columns
            .iter()
            .map(|(n, c)| (n.clone(), c.get(row)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_table() -> Table {
        Table::new(
            "Store",
            vec![
                ("Store.name".to_string(), ColumnType::Text),
                ("City.name".to_string(), ColumnType::Text),
                ("size_sqm".to_string(), ColumnType::Integer),
            ],
        )
    }

    #[test]
    fn construction_and_metadata() {
        let t = store_table();
        assert!(t.is_empty());
        assert_eq!(t.column_index("City.name"), Some(1));
        assert_eq!(t.column_index("missing"), None);
        assert!(t.column("missing").is_err());
    }

    #[test]
    fn named_row_insertion_fills_missing_with_null() {
        let mut t = store_table();
        let row = t
            .push_row(vec![
                ("Store.name", CellValue::from("Downtown")),
                ("City.name", CellValue::from("Alicante")),
            ])
            .unwrap();
        assert_eq!(row, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get(0, "Store.name").unwrap(),
            CellValue::Text("Downtown".into())
        );
        assert_eq!(t.get(0, "size_sqm").unwrap(), CellValue::Null);
    }

    #[test]
    fn unknown_column_in_row_is_rejected_without_corruption() {
        let mut t = store_table();
        let err = t
            .push_row(vec![
                ("Store.name", CellValue::from("X")),
                ("ghost", CellValue::Null),
            ])
            .unwrap_err();
        assert!(matches!(err, OlapError::UnknownColumn { .. }));
        assert!(t.is_empty());
        // The failed insert must not have left a partial row behind.
        assert_eq!(t.column("Store.name").unwrap().len(), 0);
    }

    #[test]
    fn type_mismatch_in_row_is_rejected_without_corruption() {
        let mut t = store_table();
        // "size_sqm" is an integer column; a text value must fail the whole
        // row, including the columns that would have accepted theirs.
        let err = t
            .push_row(vec![
                ("Store.name", CellValue::from("X")),
                ("size_sqm", CellValue::from("big")),
            ])
            .unwrap_err();
        assert!(matches!(err, OlapError::TypeMismatch { .. }));
        assert!(t.is_empty());
        assert_eq!(t.column("Store.name").unwrap().len(), 0);
    }

    #[test]
    fn retraction_tombstones_without_shifting_ids() {
        let mut t = store_table();
        for i in 0..3 {
            t.push_row(vec![("Store.name", CellValue::from(format!("S{i}")))])
                .unwrap();
        }
        assert_eq!((t.len(), t.live_len()), (3, 3));
        t.retract_row(1).unwrap();
        assert_eq!((t.len(), t.live_len()), (3, 2));
        assert!(t.is_live(0) && !t.is_live(1) && t.is_live(2));
        assert!(!t.is_live(3));
        // Ids are stable: row 2 still reads its own data.
        assert_eq!(
            t.get(2, "Store.name").unwrap(),
            CellValue::Text("S2".into())
        );
        // Idempotent retraction; out-of-range errors.
        t.retract_row(1).unwrap();
        assert_eq!(t.live_len(), 2);
        assert!(t.retract_row(9).is_err());
        // Appending after a retraction allocates a fresh id.
        let row = t
            .push_row(vec![("Store.name", CellValue::from("S3"))])
            .unwrap();
        assert_eq!(row, 3);
        assert_eq!(t.live_len(), 3);
    }

    #[test]
    fn set_cell_updates_live_rows_only() {
        let mut t = store_table();
        t.push_row(vec![
            ("Store.name", CellValue::from("Downtown")),
            ("size_sqm", CellValue::Integer(100)),
        ])
        .unwrap();
        t.set_cell(0, "size_sqm", CellValue::Integer(250)).unwrap();
        assert_eq!(t.get(0, "size_sqm").unwrap(), CellValue::Integer(250));
        assert!(t.set_cell(0, "ghost", CellValue::Null).is_err());
        assert!(t.set_cell(0, "size_sqm", CellValue::from("x")).is_err());
        assert!(t.set_cell(4, "size_sqm", CellValue::Integer(1)).is_err());
        t.retract_row(0).unwrap();
        assert!(t.set_cell(0, "size_sqm", CellValue::Integer(1)).is_err());
        // The failed updates left the cell as written.
        assert_eq!(t.get(0, "size_sqm").unwrap(), CellValue::Integer(250));
    }

    #[test]
    fn live_runs_and_tombstone_ratio() {
        let mut t = store_table();
        for i in 0..8 {
            t.push_row(vec![("Store.name", CellValue::from(format!("S{i}")))])
                .unwrap();
        }
        assert_eq!(t.tombstone_ratio(), 0.0);
        assert_eq!(t.live_runs(0..8), vec![0..8]);
        t.retract_row(2).unwrap();
        t.retract_row(3).unwrap();
        t.retract_row(6).unwrap();
        assert_eq!(t.tombstone_ratio(), 3.0 / 8.0);
        assert_eq!(t.live_runs(0..8), vec![0..2, 4..6, 7..8]);
        // Clamped and partial ranges.
        assert_eq!(t.live_runs(3..99), vec![4..6, 7..8]);
        assert_eq!(t.live_runs(2..4), Vec::<std::ops::Range<usize>>::new());
        assert_eq!(Table::new("e", vec![]).tombstone_ratio(), 0.0);
    }

    #[test]
    fn compaction_rewrites_live_rows_and_remaps_ids() {
        let mut t = Table::with_chunk_rows(
            "Store",
            vec![
                ("Store.name".to_string(), ColumnType::Text),
                ("size_sqm".to_string(), ColumnType::Integer),
            ],
            2,
        );
        for i in 0..6 {
            t.push_row(vec![
                ("Store.name", CellValue::from(format!("S{i}"))),
                ("size_sqm", CellValue::Integer(i)),
            ])
            .unwrap();
        }
        t.retract_row(0).unwrap();
        t.retract_row(3).unwrap();
        t.retract_row(4).unwrap();
        let (compacted, remap) = t.compact();
        assert_eq!(compacted.len(), 3);
        assert_eq!(compacted.live_len(), 3);
        assert_eq!(compacted.tombstone_ratio(), 0.0);
        assert_eq!(compacted.chunk_rows(), 2);
        // Live rows kept their relative order: old 1, 2, 5 → new 0, 1, 2.
        for (new, old) in [(0usize, 1i64), (1, 2), (2, 5)] {
            assert_eq!(
                compacted.get(new, "Store.name").unwrap(),
                CellValue::Text(format!("S{old}"))
            );
            assert_eq!(
                compacted.get(new, "size_sqm").unwrap(),
                CellValue::Integer(old)
            );
        }
        assert_eq!(remap.live_len(), 3);
        assert_eq!(remap.new_id(1), Some(0));
        assert_eq!(remap.new_id(5), Some(2));
        assert_eq!(remap.new_id(0), None, "dead rows have no new id");
        // The dictionary was rebuilt: only live strings remain interned.
        if let Column::Text { dictionary, .. } = compacted.column("Store.name").unwrap() {
            assert_eq!(dictionary.len(), 3);
        } else {
            panic!("expected text column");
        }
        // The source table is untouched.
        assert_eq!(t.len(), 6);
        assert_eq!(t.live_len(), 3);
    }

    #[test]
    fn full_row_read() {
        let mut t = store_table();
        t.push_row(vec![("Store.name", CellValue::from("Downtown"))])
            .unwrap();
        let row = t.row(0);
        assert_eq!(row.len(), 3);
        assert_eq!(row[0].0, "Store.name");
        assert_eq!(row[0].1, CellValue::Text("Downtown".into()));
    }
}
