//! Fixed-size copy-on-write column chunks.
//!
//! Storage is Arrow-style: a column is a sequence of immutable
//! fixed-capacity chunks shared via [`Arc`]. Cloning a column — which is
//! what publishing a cube snapshot does — bumps refcounts instead of
//! copying cell data; mutating a row first copies the one chunk it lands
//! in ([`Arc::make_mut`]), because the published snapshot still holds a
//! reference to the old chunk. An ingest epoch's publication cost is
//! therefore proportional to the *delta* (the dirty chunks), not to the
//! warehouse.
//!
//! Primitive chunks keep values and validity separately (values at null
//! positions hold `T::default()`), so an all-valid chunk exposes a bare
//! `&[T]` slice the executor's column gathers (`Column::gather_numeric`,
//! `Column::gather_members`) read without per-row validity checks.

use sdwp_geometry::Geometry;
use std::ops::Range;
use std::sync::Arc;

/// Default number of rows per chunk. Matches the executor's default
/// morsel size ([`crate::engine::DEFAULT_MORSEL_ROWS`]), so with default
/// configuration one morsel reads exactly one chunk per column.
pub const DEFAULT_CHUNK_ROWS: usize = 1024;

/// One fixed-capacity chunk of a primitive column.
///
/// Invariants: `validity` is `None` exactly when every row is valid
/// (`null_count == 0`), and every null position holds `T::default()` —
/// so structural equality coincides with logical equality.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitiveChunk<T> {
    values: Vec<T>,
    /// Per-row validity (`true` = non-null); `None` while all rows are
    /// valid — the vectorisable common case.
    validity: Option<Vec<bool>>,
    null_count: usize,
}

impl<T: Copy + Default + PartialEq> PrimitiveChunk<T> {
    fn with_capacity(capacity: usize) -> Self {
        PrimitiveChunk {
            values: Vec::with_capacity(capacity),
            validity: None,
            null_count: 0,
        }
    }

    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// The raw value slice (null positions hold `T::default()`).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The validity mask, when any row is null.
    pub fn validity(&self) -> Option<&[bool]> {
        self.validity.as_deref()
    }

    fn push(&mut self, value: Option<T>) {
        match value {
            Some(v) => {
                self.values.push(v);
                if let Some(validity) = &mut self.validity {
                    validity.push(true);
                }
            }
            None => {
                if self.validity.is_none() {
                    self.validity = Some(vec![true; self.values.len()]);
                }
                self.values.push(T::default());
                self.validity
                    .as_mut()
                    .expect("validity materialised above")
                    .push(false);
                self.null_count += 1;
            }
        }
    }

    fn set(&mut self, index: usize, value: Option<T>) {
        let was_valid = self.validity.as_ref().map(|v| v[index]).unwrap_or(true);
        match value {
            Some(v) => {
                self.values[index] = v;
                if !was_valid {
                    self.validity.as_mut().expect("null implies mask")[index] = true;
                    self.null_count -= 1;
                    if self.null_count == 0 {
                        // Restore the all-valid normal form so equal
                        // logical content stays structurally equal.
                        self.validity = None;
                    }
                }
            }
            None => {
                self.values[index] = T::default();
                if was_valid {
                    if self.validity.is_none() {
                        self.validity = Some(vec![true; self.values.len()]);
                    }
                    self.validity.as_mut().expect("materialised above")[index] = false;
                    self.null_count += 1;
                }
            }
        }
    }

    fn get(&self, index: usize) -> Option<T> {
        let value = self.values.get(index).copied()?;
        match &self.validity {
            Some(mask) if !mask[index] => None,
            _ => Some(value),
        }
    }
}

/// A chunked primitive column: `Arc`-shared fixed-size chunks with
/// copy-on-write mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitiveColumn<T> {
    chunks: Vec<Arc<PrimitiveChunk<T>>>,
    chunk_rows: usize,
    len: usize,
}

impl<T: Copy + Default + PartialEq> PrimitiveColumn<T> {
    /// Creates an empty column with the given chunk capacity (≥ 1).
    pub fn new(chunk_rows: usize) -> Self {
        PrimitiveColumn {
            chunks: Vec::new(),
            chunk_rows: chunk_rows.max(1),
            len: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows per chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// The column's chunks, for sharing diagnostics and gathers.
    pub fn chunks(&self) -> &[Arc<PrimitiveChunk<T>>] {
        &self.chunks
    }

    /// Appends a value, copying only the tail chunk when it is shared.
    pub fn push(&mut self, value: Option<T>) {
        if self.len == self.chunks.len() * self.chunk_rows {
            self.chunks
                .push(Arc::new(PrimitiveChunk::with_capacity(self.chunk_rows)));
        }
        let chunk = self.chunks.last_mut().expect("tail chunk exists");
        Arc::make_mut(chunk).push(value);
        self.len += 1;
    }

    /// Overwrites a row in place, copying only the chunk it lands in.
    /// Panics on an out-of-range row (callers bound-check).
    pub fn set(&mut self, row: usize, value: Option<T>) {
        assert!(row < self.len, "row {row} out of range ({} rows)", self.len);
        let chunk = &mut self.chunks[row / self.chunk_rows];
        Arc::make_mut(chunk).set(row % self.chunk_rows, value);
    }

    /// Reads a row; `None` when null or out of range.
    pub fn get(&self, row: usize) -> Option<T> {
        if row >= self.len {
            return None;
        }
        self.chunks[row / self.chunk_rows].get(row % self.chunk_rows)
    }
}

/// One fixed-capacity chunk of a [`LivenessMap`]: a dead-row bitmap plus
/// its popcount. A chunk with no words allocated is entirely live — the
/// normal form for ranges no retraction ever touched, so a map whose
/// tombstones cluster at one end shares (and compares) cheaply.
#[derive(Debug, Clone, PartialEq)]
pub struct LivenessChunk {
    /// Dead-row bitmap, one bit per row (bit set = tombstoned). Empty
    /// while every row of the chunk is live.
    words: Vec<u64>,
    /// Number of set bits.
    dead: usize,
}

impl LivenessChunk {
    fn all_live() -> Self {
        LivenessChunk {
            words: Vec::new(),
            dead: 0,
        }
    }

    fn is_dead(&self, local: usize) -> bool {
        self.words
            .get(local / 64)
            .map(|w| w & (1 << (local % 64)) != 0)
            .unwrap_or(false)
    }

    /// Sets the dead bit; returns `true` when the row was newly dead.
    fn retract(&mut self, local: usize, chunk_rows: usize) -> bool {
        if self.words.is_empty() {
            self.words = vec![0; chunk_rows.div_ceil(64)];
        }
        let word = &mut self.words[local / 64];
        let mask = 1 << (local % 64);
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        self.dead += 1;
        true
    }
}

/// The tombstone set of a [`crate::Table`], as a chunked copy-on-write
/// bitmap: fixed-size [`Arc`]-shared chunks of dead-row bits, aligned
/// with the column chunks.
///
/// Publishing a snapshot clones the table, so the tombstone set is cloned
/// once per epoch; as a `BTreeSet<usize>` that clone cost O(tombstones)
/// on every publication even when the epoch retracted nothing. Here a
/// clone is a refcount bump per chunk and a retraction copies only the
/// one chunk it lands in — the same O(delta) publication contract the
/// value columns already have.
#[derive(Debug, Clone, PartialEq)]
pub struct LivenessMap {
    chunks: Vec<Arc<LivenessChunk>>,
    chunk_rows: usize,
    dead: usize,
}

impl LivenessMap {
    /// Creates an all-live map with the given chunk capacity (≥ 1).
    pub fn new(chunk_rows: usize) -> Self {
        LivenessMap {
            chunks: Vec::new(),
            chunk_rows: chunk_rows.max(1),
            dead: 0,
        }
    }

    /// Number of tombstoned rows.
    pub fn dead_count(&self) -> usize {
        self.dead
    }

    /// Returns `true` when `row` has been tombstoned. Rows beyond every
    /// chunk are live (callers bound-check against their row count).
    pub fn is_dead(&self, row: usize) -> bool {
        self.chunks
            .get(row / self.chunk_rows)
            .map(|chunk| chunk.is_dead(row % self.chunk_rows))
            .unwrap_or(false)
    }

    /// Tombstones a row, copying only the chunk it lands in; idempotent.
    pub fn retract(&mut self, row: usize) {
        let chunk_index = row / self.chunk_rows;
        while self.chunks.len() <= chunk_index {
            self.chunks.push(Arc::new(LivenessChunk::all_live()));
        }
        if Arc::make_mut(&mut self.chunks[chunk_index])
            .retract(row % self.chunk_rows, self.chunk_rows)
        {
            self.dead += 1;
        }
    }

    /// The maximal runs of live rows within `rows` (the caller clamps the
    /// range to its row count): contiguous index ranges containing no
    /// tombstone. Chunks with no dead rows extend the current run without
    /// a per-row bit test.
    pub fn live_runs(&self, rows: Range<usize>) -> Vec<Range<usize>> {
        let mut runs = Vec::new();
        let mut run_start: Option<usize> = None;
        let mut row = rows.start;
        while row < rows.end {
            let chunk_index = row / self.chunk_rows;
            let chunk_end = ((chunk_index + 1) * self.chunk_rows).min(rows.end);
            match self.chunks.get(chunk_index) {
                // Fully live chunk (or past the last retraction): the run
                // continues across the whole chunk.
                None => {
                    run_start.get_or_insert(row);
                    row = chunk_end;
                }
                Some(chunk) if chunk.dead == 0 => {
                    run_start.get_or_insert(row);
                    row = chunk_end;
                }
                Some(chunk) => {
                    for r in row..chunk_end {
                        if chunk.is_dead(r % self.chunk_rows) {
                            if let Some(start) = run_start.take() {
                                runs.push(start..r);
                            }
                        } else {
                            run_start.get_or_insert(r);
                        }
                    }
                    row = chunk_end;
                }
            }
        }
        if let Some(start) = run_start {
            if start < rows.end {
                runs.push(start..rows.end);
            }
        }
        runs
    }
}

/// A chunked geometry column. Geometries are heap values, so chunks store
/// them as `Option`s directly (no validity split) — the copy-on-write
/// sharing is what matters here, not slice kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryColumn {
    chunks: Vec<Arc<Vec<Option<Geometry>>>>,
    chunk_rows: usize,
    len: usize,
}

impl GeometryColumn {
    /// Creates an empty geometry column with the given chunk capacity.
    pub fn new(chunk_rows: usize) -> Self {
        GeometryColumn {
            chunks: Vec::new(),
            chunk_rows: chunk_rows.max(1),
            len: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a geometry (or null).
    pub fn push(&mut self, value: Option<Geometry>) {
        if self.len == self.chunks.len() * self.chunk_rows {
            self.chunks
                .push(Arc::new(Vec::with_capacity(self.chunk_rows)));
        }
        let chunk = self.chunks.last_mut().expect("tail chunk exists");
        Arc::make_mut(chunk).push(value);
        self.len += 1;
    }

    /// Overwrites a row in place (copy-on-write). Panics out of range.
    pub fn set(&mut self, row: usize, value: Option<Geometry>) {
        assert!(row < self.len, "row {row} out of range ({} rows)", self.len);
        let chunk = &mut self.chunks[row / self.chunk_rows];
        Arc::make_mut(chunk)[row % self.chunk_rows] = value;
    }

    /// Borrows a row's geometry; `None` when null or out of range.
    pub fn get(&self, row: usize) -> Option<&Geometry> {
        if row >= self.len {
            return None;
        }
        self.chunks[row / self.chunk_rows][row % self.chunk_rows].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_and_validity_normal_form() {
        let mut c = PrimitiveColumn::<i64>::new(4);
        for i in 0..6 {
            c.push(Some(i));
        }
        c.push(None);
        assert_eq!(c.len(), 7);
        assert_eq!(c.get(3), Some(3));
        assert_eq!(c.get(6), None);
        assert_eq!(c.get(7), None);
        assert_eq!(c.chunks().len(), 2);
        assert_eq!(c.chunks()[0].null_count(), 0);
        assert_eq!(c.chunks()[1].null_count(), 1);
        // Filling the null back in restores the all-valid normal form.
        c.set(6, Some(42));
        assert_eq!(c.chunks()[1].null_count(), 0);
        assert!(c.chunks()[1].validity().is_none());
        c.set(0, None);
        assert_eq!(c.get(0), None);
        assert_eq!(c.chunks()[0].null_count(), 1);
    }

    #[test]
    fn cloning_shares_chunks_and_mutation_copies_one() {
        let mut c = PrimitiveColumn::<f64>::new(2);
        for i in 0..6 {
            c.push(Some(i as f64));
        }
        let snapshot = c.clone();
        assert!(Arc::ptr_eq(&c.chunks()[0], &snapshot.chunks()[0]));
        c.set(5, Some(99.0));
        // Only the written chunk diverged.
        assert!(Arc::ptr_eq(&c.chunks()[0], &snapshot.chunks()[0]));
        assert!(Arc::ptr_eq(&c.chunks()[1], &snapshot.chunks()[1]));
        assert!(!Arc::ptr_eq(&c.chunks()[2], &snapshot.chunks()[2]));
        assert_eq!(snapshot.get(5), Some(5.0));
        assert_eq!(c.get(5), Some(99.0));
        // Appends only touch the tail chunk.
        let snapshot2 = c.clone();
        c.push(Some(7.0));
        assert!(Arc::ptr_eq(&c.chunks()[1], &snapshot2.chunks()[1]));
        assert_eq!(snapshot2.len(), 6);
        assert_eq!(c.len(), 7);
    }

    #[test]
    fn liveness_map_tracks_tombstones() {
        let mut map = LivenessMap::new(4);
        assert_eq!(map.dead_count(), 0);
        assert!(!map.is_dead(0));
        assert!(!map.is_dead(999));
        map.retract(2);
        map.retract(2); // idempotent
        map.retract(9); // skips a fully-live chunk
        assert_eq!(map.dead_count(), 2);
        assert!(map.is_dead(2) && map.is_dead(9));
        assert!(!map.is_dead(1) && !map.is_dead(8));
        assert_eq!(map.live_runs(0..12), vec![0..2, 3..9, 10..12]);
        assert_eq!(map.live_runs(2..3), Vec::<Range<usize>>::new());
        assert_eq!(map.live_runs(3..3), Vec::<Range<usize>>::new());
        // Untouched tail chunks are all-live without allocated words.
        assert_eq!(map.live_runs(10..99), vec![10..99]);
    }

    #[test]
    fn liveness_map_clone_is_copy_on_write() {
        let mut map = LivenessMap::new(2);
        map.retract(0);
        map.retract(5);
        let snapshot = map.clone();
        assert!(Arc::ptr_eq(&map.chunks[0], &snapshot.chunks[0]));
        map.retract(1);
        // Only the written chunk diverged; the snapshot is unaffected.
        assert!(!Arc::ptr_eq(&map.chunks[0], &snapshot.chunks[0]));
        assert!(Arc::ptr_eq(&map.chunks[2], &snapshot.chunks[2]));
        assert!(!snapshot.is_dead(1));
        assert!(map.is_dead(1));
        assert_eq!(snapshot.dead_count(), 2);
        assert_eq!(map.dead_count(), 3);
    }

    #[test]
    fn geometry_column_round_trip() {
        use sdwp_geometry::Point;
        let mut g = GeometryColumn::new(2);
        g.push(Some(Point::new(1.0, 2.0).into()));
        g.push(None);
        g.push(Some(Point::new(3.0, 4.0).into()));
        assert_eq!(g.len(), 3);
        assert!(g.get(0).is_some());
        assert!(g.get(1).is_none());
        let snapshot = g.clone();
        g.set(2, None);
        assert!(snapshot.get(2).is_some());
        assert!(g.get(2).is_none());
    }
}
