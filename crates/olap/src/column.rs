//! Typed columnar storage with dictionary encoding for text.
//!
//! Columns are backed by the chunked copy-on-write storage of
//! [`crate::chunk`]: fixed-size `Arc`-shared chunks, so cloning a column
//! (snapshot publication) is a refcount bump per chunk and a write copies
//! only the chunk it touches. Numeric columns additionally gather a
//! selection vector's values chunk by chunk ([`Column::gather_numeric`])
//! for the grouped slice kernels of [`crate::kernels`].

use crate::chunk::{GeometryColumn, PrimitiveChunk, PrimitiveColumn, DEFAULT_CHUNK_ROWS};
use crate::error::OlapError;
use crate::value::CellValue;
use sdwp_geometry::Geometry;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// The physical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit integers.
    Integer,
    /// 64-bit floats.
    Float,
    /// Dictionary-encoded text.
    Text,
    /// Booleans.
    Boolean,
    /// Dates (days since epoch).
    Date,
    /// Geometries.
    Geometry,
}

/// A string dictionary: interns strings to dense `u32` codes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dictionary {
    values: Vec<String>,
    #[serde(skip)]
    index: HashMap<String, u32>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Interns a string, returning its code.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = self.values.len() as u32;
        self.values.push(s.to_string());
        self.index.insert(s.to_string(), code);
        code
    }

    /// Looks up the string for a code.
    pub fn resolve(&self, code: u32) -> Option<&str> {
        self.values.get(code as usize).map(String::as_str)
    }

    /// Looks up the code for a string, if already interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied().or_else(|| {
            // Fall back to a scan when the index was lost to serde skip.
            self.values.iter().position(|v| v == s).map(|p| p as u32)
        })
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A typed column of nullable values over chunked copy-on-write storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// Integer column.
    Integer(PrimitiveColumn<i64>),
    /// Float column.
    Float(PrimitiveColumn<f64>),
    /// Dictionary-encoded text column.
    Text {
        /// Per-row dictionary codes (null rows carry no code).
        codes: PrimitiveColumn<u32>,
        /// The shared dictionary for this column. `Arc`-shared between a
        /// snapshot and the write master; interning copies it on write.
        dictionary: Arc<Dictionary>,
    },
    /// Boolean column.
    Boolean(PrimitiveColumn<bool>),
    /// Date column (days since epoch).
    Date(PrimitiveColumn<i64>),
    /// Geometry column.
    Geometry(GeometryColumn),
}

impl Column {
    /// Creates an empty column of the given type with the default chunk
    /// size.
    pub fn new(column_type: ColumnType) -> Self {
        Column::with_chunk_rows(column_type, DEFAULT_CHUNK_ROWS)
    }

    /// Creates an empty column of the given type with an explicit chunk
    /// size (rows per chunk, ≥ 1).
    pub fn with_chunk_rows(column_type: ColumnType, chunk_rows: usize) -> Self {
        match column_type {
            ColumnType::Integer => Column::Integer(PrimitiveColumn::new(chunk_rows)),
            ColumnType::Float => Column::Float(PrimitiveColumn::new(chunk_rows)),
            ColumnType::Text => Column::Text {
                codes: PrimitiveColumn::new(chunk_rows),
                dictionary: Arc::new(Dictionary::new()),
            },
            ColumnType::Boolean => Column::Boolean(PrimitiveColumn::new(chunk_rows)),
            ColumnType::Date => Column::Date(PrimitiveColumn::new(chunk_rows)),
            ColumnType::Geometry => Column::Geometry(GeometryColumn::new(chunk_rows)),
        }
    }

    /// The column's physical type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Column::Integer(_) => ColumnType::Integer,
            Column::Float(_) => ColumnType::Float,
            Column::Text { .. } => ColumnType::Text,
            Column::Boolean(_) => ColumnType::Boolean,
            Column::Date(_) => ColumnType::Date,
            Column::Geometry(_) => ColumnType::Geometry,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Integer(v) | Column::Date(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Text { codes, .. } => codes.len(),
            Column::Boolean(v) => v.len(),
            Column::Geometry(v) => v.len(),
        }
    }

    /// Returns `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` when [`Column::push`] / [`Column::set`] would accept
    /// the value (same coercions: integers into float and date columns,
    /// nulls everywhere). Lets callers validate a whole row — or a whole
    /// delta batch — *before* mutating anything, so a failed write can
    /// never leave ragged columns behind.
    pub fn accepts(&self, value: &CellValue) -> bool {
        if matches!(value, CellValue::Null) {
            return true;
        }
        match self {
            Column::Integer(_) => matches!(value, CellValue::Integer(_)),
            Column::Float(_) => matches!(value, CellValue::Float(_) | CellValue::Integer(_)),
            Column::Text { .. } => matches!(value, CellValue::Text(_)),
            Column::Boolean(_) => matches!(value, CellValue::Boolean(_)),
            Column::Date(_) => matches!(value, CellValue::Date(_) | CellValue::Integer(_)),
            Column::Geometry(_) => matches!(value, CellValue::Geometry(_)),
        }
    }

    /// Appends a value, coercing compatible types (integers into float
    /// columns, integers into date columns). Returns an error on an
    /// incompatible value.
    pub fn push(&mut self, value: CellValue) -> Result<(), OlapError> {
        let mismatch = |found: &CellValue, expected: &'static str| OlapError::TypeMismatch {
            expected,
            found: found.type_name().to_string(),
        };
        match self {
            Column::Integer(v) => match value {
                CellValue::Integer(i) => v.push(Some(i)),
                CellValue::Null => v.push(None),
                other => return Err(mismatch(&other, "integer")),
            },
            Column::Float(v) => match value {
                CellValue::Float(f) => v.push(Some(f)),
                CellValue::Integer(i) => v.push(Some(i as f64)),
                CellValue::Null => v.push(None),
                other => return Err(mismatch(&other, "float")),
            },
            Column::Text { codes, dictionary } => match value {
                CellValue::Text(s) => codes.push(Some(Arc::make_mut(dictionary).intern(&s))),
                CellValue::Null => codes.push(None),
                other => return Err(mismatch(&other, "text")),
            },
            Column::Boolean(v) => match value {
                CellValue::Boolean(b) => v.push(Some(b)),
                CellValue::Null => v.push(None),
                other => return Err(mismatch(&other, "boolean")),
            },
            Column::Date(v) => match value {
                CellValue::Date(d) | CellValue::Integer(d) => v.push(Some(d)),
                CellValue::Null => v.push(None),
                other => return Err(mismatch(&other, "date")),
            },
            Column::Geometry(v) => match value {
                CellValue::Geometry(g) => v.push(Some(g)),
                CellValue::Null => v.push(None),
                other => return Err(mismatch(&other, "geometry")),
            },
        }
        Ok(())
    }

    /// Overwrites the value at `row` in place (the ingest path's cell
    /// upsert), with the same coercions as [`Column::push`]. Errors on an
    /// out-of-range row or an incompatible value, leaving the column
    /// untouched. Copy-on-write: only the chunk holding `row` is copied
    /// when it is shared with a published snapshot.
    pub fn set(&mut self, row: usize, value: CellValue) -> Result<(), OlapError> {
        if row >= self.len() {
            return Err(OlapError::RowShape {
                message: format!("row {row} out of range ({} rows)", self.len()),
            });
        }
        if !self.accepts(&value) {
            return Err(OlapError::TypeMismatch {
                expected: match self {
                    Column::Integer(_) => "integer",
                    Column::Float(_) => "float",
                    Column::Text { .. } => "text",
                    Column::Boolean(_) => "boolean",
                    Column::Date(_) => "date",
                    Column::Geometry(_) => "geometry",
                },
                found: value.type_name().to_string(),
            });
        }
        match self {
            Column::Integer(v) => v.set(
                row,
                match value {
                    CellValue::Integer(i) => Some(i),
                    _ => None,
                },
            ),
            Column::Float(v) => v.set(
                row,
                match value {
                    CellValue::Float(f) => Some(f),
                    CellValue::Integer(i) => Some(i as f64),
                    _ => None,
                },
            ),
            Column::Text { codes, dictionary } => codes.set(
                row,
                match value {
                    CellValue::Text(s) => Some(Arc::make_mut(dictionary).intern(&s)),
                    _ => None,
                },
            ),
            Column::Boolean(v) => v.set(
                row,
                match value {
                    CellValue::Boolean(b) => Some(b),
                    _ => None,
                },
            ),
            Column::Date(v) => v.set(
                row,
                match value {
                    CellValue::Date(d) | CellValue::Integer(d) => Some(d),
                    _ => None,
                },
            ),
            Column::Geometry(v) => v.set(
                row,
                match value {
                    CellValue::Geometry(g) => Some(g),
                    _ => None,
                },
            ),
        }
        Ok(())
    }

    /// Reads the value at `row`, returning `CellValue::Null` when the row
    /// is out of range or null.
    pub fn get(&self, row: usize) -> CellValue {
        match self {
            Column::Integer(v) => v
                .get(row)
                .map(CellValue::Integer)
                .unwrap_or(CellValue::Null),
            Column::Float(v) => v.get(row).map(CellValue::Float).unwrap_or(CellValue::Null),
            Column::Text { codes, dictionary } => codes
                .get(row)
                .and_then(|c| dictionary.resolve(c))
                .map(|s| CellValue::Text(s.to_string()))
                .unwrap_or(CellValue::Null),
            Column::Boolean(v) => v
                .get(row)
                .map(CellValue::Boolean)
                .unwrap_or(CellValue::Null),
            Column::Date(v) => v.get(row).map(CellValue::Date).unwrap_or(CellValue::Null),
            Column::Geometry(v) => v
                .get(row)
                .cloned()
                .map(CellValue::Geometry)
                .unwrap_or(CellValue::Null),
        }
    }

    /// Orders the cell at `row` against a constant — exactly
    /// `self.get(row).compare(other)` (same ordering, same incomparable
    /// cases), but a text cell is compared as a `&str` through the
    /// dictionary instead of being cloned into a `CellValue` first. What
    /// attribute filters evaluate per row.
    pub fn compare_at(&self, row: usize, other: &CellValue) -> Option<Ordering> {
        match self {
            Column::Text { codes, dictionary } => {
                match codes.get(row).and_then(|code| dictionary.resolve(code)) {
                    Some(text) => match other {
                        CellValue::Null => Some(Ordering::Greater),
                        CellValue::Text(constant) => Some(text.cmp(constant.as_str())),
                        _ => None,
                    },
                    None => CellValue::Null.compare(other),
                }
            }
            _ => self.get(row).compare(other),
        }
    }

    /// Fast numeric accessor used by aggregation.
    pub fn get_number(&self, row: usize) -> Option<f64> {
        match self {
            Column::Integer(v) | Column::Date(v) => v.get(row).map(|i| i as f64),
            Column::Float(v) => v.get(row),
            _ => None,
        }
    }

    /// Borrowed geometry accessor used by spatial filters (avoids cloning).
    pub fn get_geometry(&self, row: usize) -> Option<&Geometry> {
        match self {
            Column::Geometry(v) => v.get(row),
            _ => None,
        }
    }

    /// Typed batch read of a foreign-key column: appends the member ids of
    /// the given (ascending) row indices to `out`. Mirrors
    /// [`crate::Cube::fact_member`]'s semantics value-for-value — the
    /// float round trip (so a pathological negative key clamps to member 0
    /// exactly like the serial reference), the saturation of oversized
    /// ids, and the error on a null or non-integer cell — but touches each
    /// storage chunk once instead of doing a name lookup and a `CellValue`
    /// materialisation per row.
    ///
    /// On an error `out` has gained exactly the ids of the rows *before*
    /// the first unreadable one — its growth says which row failed, and
    /// the readable prefix stays usable (the selection stages of a scan
    /// carry on below the failing row).
    pub fn gather_members(&self, rows: &[u32], out: &mut Vec<u32>) -> Result<(), OlapError> {
        // The serial reference widens through f64 and casts to usize; the
        // closures keep the exact same clamping for negative or oversized
        // keys (negative → member 0), so a pathological key resolves to
        // the same member on both executors.
        let clamp = |member: f64| (member as usize).min(u32::MAX as usize) as u32;
        let before = out.len();
        out.reserve(rows.len());
        // Position in `rows` of the first null; nulls gather as a
        // placeholder the truncation below drops again.
        let mut first_null: Option<usize> = None;
        match self {
            Column::Integer(column) | Column::Date(column) => {
                for_each_gathered(column, rows, |index, value| match value {
                    Some(member) => out.push(clamp(member as f64)),
                    None => {
                        first_null.get_or_insert(index);
                        out.push(0);
                    }
                });
            }
            Column::Float(column) => {
                for_each_gathered(column, rows, |index, value| match value {
                    Some(member) => out.push(clamp(member)),
                    None => {
                        first_null.get_or_insert(index);
                        out.push(0);
                    }
                });
            }
            other => {
                return Err(OlapError::TypeMismatch {
                    expected: "integer foreign key",
                    found: match other.column_type() {
                        ColumnType::Text => "text",
                        ColumnType::Boolean => "boolean",
                        ColumnType::Geometry => "geometry",
                        _ => "unknown",
                    }
                    .to_string(),
                })
            }
        }
        if let Some(index) = first_null {
            out.truncate(before + index);
            return Err(OlapError::TypeMismatch {
                expected: "integer foreign key",
                found: "null".to_string(),
            });
        }
        Ok(())
    }

    /// Gathers the numeric values of the given (ascending) row indices
    /// into `values`, carrying the group slot of each surviving row along
    /// into `out_slots` (`rows` and `slots` are parallel): null rows are
    /// dropped from both, so the grouped kernels downstream run mask-free.
    /// All-valid chunks take a branch-free fast path; chunks with nulls
    /// consult the validity mask per row. Returns `false` (gathering
    /// nothing) for non-numeric columns.
    pub fn gather_numeric(
        &self,
        rows: &[u32],
        slots: &[u32],
        values: &mut Vec<f64>,
        out_slots: &mut Vec<u32>,
    ) -> bool {
        debug_assert_eq!(rows.len(), slots.len());
        match self {
            Column::Integer(column) | Column::Date(column) => {
                for_each_gathered(column, rows, |index, value| {
                    if let Some(v) = value {
                        values.push(v as f64);
                        out_slots.push(slots[index]);
                    }
                });
            }
            Column::Float(column) => {
                for_each_gathered(column, rows, |index, value| {
                    if let Some(v) = value {
                        values.push(v);
                        out_slots.push(slots[index]);
                    }
                });
            }
            _ => return false,
        }
        true
    }
}

/// Drives a gather over the chunk sub-runs covering the (ascending) row
/// indices in `rows`: `visit(index, value)` is called once per row, where
/// `index` is the position in `rows` and `value` is `None` for nulls.
/// Each storage chunk is located once per contiguous run of selected rows
/// inside it, and all-valid chunks skip the per-row validity test.
fn for_each_gathered<T, F>(column: &PrimitiveColumn<T>, rows: &[u32], mut visit: F)
where
    T: Copy + Default + PartialEq,
    F: FnMut(usize, Option<T>),
{
    let chunk_rows = column.chunk_rows();
    let chunks = column.chunks();
    let mut i = 0;
    while i < rows.len() {
        let chunk_index = rows[i] as usize / chunk_rows;
        let chunk: &PrimitiveChunk<T> = &chunks[chunk_index];
        let base = chunk_index * chunk_rows;
        let chunk_end = (base + chunk.len()) as u32;
        let run_start = i;
        while i < rows.len() && rows[i] < chunk_end {
            i += 1;
        }
        let values = chunk.values();
        match chunk.validity() {
            None => {
                for (j, &row) in rows[run_start..i].iter().enumerate() {
                    visit(run_start + j, Some(values[row as usize - base]));
                }
            }
            Some(mask) => {
                for (j, &row) in rows[run_start..i].iter().enumerate() {
                    let local = row as usize - base;
                    visit(run_start + j, mask[local].then(|| values[local]));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdwp_geometry::Point;

    #[test]
    fn dictionary_interning() {
        let mut d = Dictionary::new();
        assert!(d.is_empty());
        let a = d.intern("Alicante");
        let b = d.intern("Madrid");
        let a2 = d.intern("Alicante");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.resolve(a), Some("Alicante"));
        assert_eq!(d.resolve(99), None);
        assert_eq!(d.code_of("Madrid"), Some(b));
        assert_eq!(d.code_of("Valencia"), None);
    }

    #[test]
    fn typed_push_and_get() {
        let mut c = Column::new(ColumnType::Integer);
        c.push(CellValue::Integer(5)).unwrap();
        c.push(CellValue::Null).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), CellValue::Integer(5));
        assert_eq!(c.get(1), CellValue::Null);
        assert_eq!(c.get(9), CellValue::Null);
        assert!(c.push(CellValue::Text("x".into())).is_err());
        assert_eq!(c.column_type(), ColumnType::Integer);
    }

    #[test]
    fn float_column_accepts_integers() {
        let mut c = Column::new(ColumnType::Float);
        c.push(CellValue::Integer(2)).unwrap();
        c.push(CellValue::Float(1.5)).unwrap();
        assert_eq!(c.get_number(0), Some(2.0));
        assert_eq!(c.get_number(1), Some(1.5));
    }

    #[test]
    fn text_column_round_trips_through_dictionary() {
        let mut c = Column::new(ColumnType::Text);
        c.push(CellValue::from("Alicante")).unwrap();
        c.push(CellValue::from("Madrid")).unwrap();
        c.push(CellValue::from("Alicante")).unwrap();
        c.push(CellValue::Null).unwrap();
        assert_eq!(c.get(0), CellValue::Text("Alicante".into()));
        assert_eq!(c.get(2), CellValue::Text("Alicante".into()));
        assert_eq!(c.get(3), CellValue::Null);
        if let Column::Text { dictionary, .. } = &c {
            assert_eq!(dictionary.len(), 2);
        } else {
            panic!("expected text column");
        }
    }

    #[test]
    fn text_dictionary_is_copy_on_write() {
        let mut c = Column::new(ColumnType::Text);
        c.push(CellValue::from("a")).unwrap();
        let snapshot = c.clone();
        c.push(CellValue::from("b")).unwrap();
        // The snapshot's dictionary is unaffected by the later intern.
        if let (Column::Text { dictionary: d1, .. }, Column::Text { dictionary: d2, .. }) =
            (&snapshot, &c)
        {
            assert_eq!(d1.len(), 1);
            assert_eq!(d2.len(), 2);
        } else {
            panic!("expected text columns");
        }
        assert_eq!(snapshot.get(0), CellValue::Text("a".into()));
    }

    #[test]
    fn geometry_column() {
        let mut c = Column::new(ColumnType::Geometry);
        let g: Geometry = Point::new(1.0, 2.0).into();
        c.push(CellValue::Geometry(g.clone())).unwrap();
        c.push(CellValue::Null).unwrap();
        assert_eq!(c.get_geometry(0), Some(&g));
        assert_eq!(c.get_geometry(1), None);
        assert!(c.push(CellValue::Integer(1)).is_err());
    }

    #[test]
    fn accepts_mirrors_push() {
        let mut f = Column::new(ColumnType::Float);
        assert!(f.accepts(&CellValue::Float(1.0)));
        assert!(f.accepts(&CellValue::Integer(1)));
        assert!(f.accepts(&CellValue::Null));
        assert!(!f.accepts(&CellValue::from("x")));
        assert!(f.push(CellValue::Integer(1)).is_ok());
        let t = Column::new(ColumnType::Text);
        assert!(t.accepts(&CellValue::from("x")));
        assert!(!t.accepts(&CellValue::Float(1.0)));
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut c = Column::new(ColumnType::Float);
        c.push(CellValue::Float(1.0)).unwrap();
        c.push(CellValue::Float(2.0)).unwrap();
        c.set(1, CellValue::Float(9.5)).unwrap();
        assert_eq!(c.get(1), CellValue::Float(9.5));
        c.set(0, CellValue::Null).unwrap();
        assert_eq!(c.get(0), CellValue::Null);
        // Integer coercion, like push.
        c.set(0, CellValue::Integer(3)).unwrap();
        assert_eq!(c.get(0), CellValue::Float(3.0));
        assert!(c.set(5, CellValue::Float(0.0)).is_err());
        assert!(c.set(0, CellValue::from("x")).is_err());
        // The failed set left the previous value in place.
        assert_eq!(c.get(0), CellValue::Float(3.0));

        let mut t = Column::new(ColumnType::Text);
        t.push(CellValue::from("old")).unwrap();
        t.set(0, CellValue::from("new")).unwrap();
        assert_eq!(t.get(0), CellValue::Text("new".into()));
    }

    #[test]
    fn boolean_and_date_columns() {
        let mut b = Column::new(ColumnType::Boolean);
        b.push(CellValue::Boolean(true)).unwrap();
        assert_eq!(b.get(0), CellValue::Boolean(true));
        assert!(b.push(CellValue::Float(0.0)).is_err());

        let mut d = Column::new(ColumnType::Date);
        d.push(CellValue::Date(100)).unwrap();
        d.push(CellValue::Integer(200)).unwrap();
        assert_eq!(d.get(1), CellValue::Date(200));
        assert_eq!(d.get_number(0), Some(100.0));
    }

    #[test]
    fn gather_members_matches_per_row_fk_reads() {
        let mut fk = Column::with_chunk_rows(ColumnType::Integer, 3);
        for v in [2i64, 0, 5, 1, 4, 0, 3] {
            fk.push(CellValue::Integer(v)).unwrap();
        }
        let rows = [0u32, 2, 3, 6];
        let mut out = Vec::new();
        fk.gather_members(&rows, &mut out).unwrap();
        assert_eq!(out, vec![2, 5, 1, 3]);
        // Negative keys clamp to member 0 exactly like the serial cast.
        let mut weird = Column::new(ColumnType::Integer);
        weird.push(CellValue::Integer(-7)).unwrap();
        let mut out = Vec::new();
        weird.gather_members(&[0], &mut out).unwrap();
        assert_eq!(out, vec![0]);
        // Null keys error like `Cube::fact_member`, leaving the ids of
        // the rows before the first null in `out`.
        let mut nullable = Column::with_chunk_rows(ColumnType::Integer, 2);
        for v in [Some(4), Some(1), None, Some(3), None] {
            nullable
                .push(v.map_or(CellValue::Null, CellValue::Integer))
                .unwrap();
        }
        let mut out = vec![9];
        let err = nullable
            .gather_members(&[0, 1, 2, 3, 4], &mut out)
            .unwrap_err();
        assert!(err.to_string().contains("integer foreign key"));
        assert_eq!(out, vec![9, 4, 1]);
        out.clear();
        nullable.gather_members(&[0, 1, 3], &mut out).unwrap();
        assert_eq!(out, vec![4, 1, 3]);
        // Non-numeric columns error with the serial reference's wording.
        let mut text = Column::new(ColumnType::Text);
        text.push(CellValue::from("x")).unwrap();
        assert!(text.gather_members(&[0], &mut Vec::new()).is_err());
    }

    #[test]
    fn compare_at_is_get_then_compare() {
        let geometry: Geometry = Point::new(1.0, 2.0).into();
        let cells = [
            CellValue::Integer(3),
            CellValue::Float(2.5),
            CellValue::from("Alicante"),
            CellValue::from(""),
            CellValue::Boolean(true),
            CellValue::Date(3),
            CellValue::Geometry(geometry),
            CellValue::Null,
        ];
        for column_type in [
            ColumnType::Integer,
            ColumnType::Float,
            ColumnType::Text,
            ColumnType::Boolean,
            ColumnType::Date,
            ColumnType::Geometry,
        ] {
            let mut column = Column::new(column_type);
            for cell in &cells {
                if column.accepts(cell) {
                    column.push(cell.clone()).unwrap();
                }
            }
            // One row past the end reads as null, like `get`.
            for row in 0..=column.len() {
                for constant in &cells {
                    assert_eq!(
                        column.compare_at(row, constant),
                        column.get(row).compare(constant),
                        "{column_type:?} row {row} vs {constant:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn gather_numeric_drops_nulls_and_keeps_slots_parallel() {
        let mut c = Column::with_chunk_rows(ColumnType::Float, 2);
        for v in [
            Some(1.0),
            None,
            Some(3.0),
            Some(4.0),
            None,
            Some(6.0),
            Some(7.0),
        ] {
            c.push(v.map(CellValue::Float).unwrap_or(CellValue::Null))
                .unwrap();
        }
        let rows = [0u32, 1, 3, 4, 6];
        let slots = [10u32, 11, 12, 13, 14];
        let mut values = Vec::new();
        let mut out_slots = Vec::new();
        assert!(c.gather_numeric(&rows, &slots, &mut values, &mut out_slots));
        assert_eq!(values, vec![1.0, 4.0, 7.0]);
        assert_eq!(out_slots, vec![10, 12, 14]);
        // Integer columns widen like get_number.
        let mut i = Column::with_chunk_rows(ColumnType::Integer, 3);
        for v in [1i64, 2, 3] {
            i.push(CellValue::Integer(v)).unwrap();
        }
        values.clear();
        out_slots.clear();
        assert!(i.gather_numeric(&[1, 2], &[0, 1], &mut values, &mut out_slots));
        assert_eq!(values, vec![2.0, 3.0]);
        // Non-numeric columns decline.
        let t = Column::new(ColumnType::Text);
        assert!(!t.gather_numeric(&[], &[], &mut values, &mut out_slots));
    }
}
