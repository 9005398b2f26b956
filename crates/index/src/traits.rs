//! Common interface implemented by every spatial index.

use sdwp_geometry::{BoundingBox, Coord};

/// An entry stored in a spatial index: a bounding box plus an opaque
/// payload (typically a row id of the OLAP cube or a dimension member id).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry<T> {
    /// Bounding box of the indexed geometry.
    pub bbox: BoundingBox,
    /// The indexed payload.
    pub item: T,
}

impl<T> IndexEntry<T> {
    /// Creates an entry from a bounding box and payload.
    pub fn new(bbox: BoundingBox, item: T) -> Self {
        IndexEntry { bbox, item }
    }

    /// Creates an entry for a point payload.
    pub fn point(c: Coord, item: T) -> Self {
        IndexEntry {
            bbox: BoundingBox::from_coord(c),
            item,
        }
    }
}

/// The query interface shared by [`crate::RTree`] and the [`LinearScan`]
/// baseline.
pub trait SpatialQuery<T> {
    /// Number of indexed entries.
    fn len(&self) -> usize;

    /// Returns `true` when the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns references to the payloads whose bounding box intersects the
    /// query box.
    fn query_bbox(&self, bbox: &BoundingBox) -> Vec<&T>;

    /// Returns references to the payloads whose bounding box lies within
    /// `radius` of the coordinate (measured as minimum distance from the
    /// box — callers refine with exact geometry when needed).
    fn query_within_distance(&self, center: &Coord, radius: f64) -> Vec<&T> {
        let window = BoundingBox::new(
            center.x - radius,
            center.y - radius,
            center.x + radius,
            center.y + radius,
        );
        self.query_bbox(&window).into_iter().collect()
    }

    /// Returns up to `k` payloads closest to the coordinate, ordered by
    /// ascending bounding-box distance.
    fn nearest_neighbors(&self, center: &Coord, k: usize) -> Vec<&T>;
}

/// A trivial index that scans every entry — the baseline used by benchmark
/// B2 and by property tests asserting index/scan equivalence.
#[derive(Debug, Clone, Default)]
pub struct LinearScan<T> {
    entries: Vec<IndexEntry<T>>,
}

impl<T> LinearScan<T> {
    /// Creates an empty scan baseline.
    pub fn new() -> Self {
        LinearScan {
            entries: Vec::new(),
        }
    }

    /// Builds the baseline from a list of entries.
    pub fn bulk_load(entries: Vec<IndexEntry<T>>) -> Self {
        LinearScan { entries }
    }

    /// Adds an entry.
    pub fn insert(&mut self, entry: IndexEntry<T>) {
        self.entries.push(entry);
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = &IndexEntry<T>> {
        self.entries.iter()
    }
}

impl<T> SpatialQuery<T> for LinearScan<T> {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn query_bbox(&self, bbox: &BoundingBox) -> Vec<&T> {
        self.entries
            .iter()
            .filter(|e| e.bbox.intersects(bbox))
            .map(|e| &e.item)
            .collect()
    }

    fn query_within_distance(&self, center: &Coord, radius: f64) -> Vec<&T> {
        self.entries
            .iter()
            .filter(|e| e.bbox.distance_to_coord(center) <= radius)
            .map(|e| &e.item)
            .collect()
    }

    fn nearest_neighbors(&self, center: &Coord, k: usize) -> Vec<&T> {
        let mut with_distance: Vec<(f64, &T)> = self
            .entries
            .iter()
            .map(|e| (e.bbox.distance_to_coord(center), &e.item))
            .collect();
        with_distance.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        with_distance.into_iter().take(k).map(|(_, t)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries() -> Vec<IndexEntry<u32>> {
        (0..10)
            .map(|i| IndexEntry::point(Coord::new(i as f64, 0.0), i))
            .collect()
    }

    #[test]
    fn entry_constructors() {
        let e = IndexEntry::point(Coord::new(1.0, 2.0), "store");
        assert_eq!(e.bbox.min_x, 1.0);
        assert_eq!(e.item, "store");
        let b = IndexEntry::new(BoundingBox::new(0.0, 0.0, 1.0, 1.0), 7u8);
        assert_eq!(b.bbox.area(), 1.0);
    }

    #[test]
    fn linear_scan_bbox_query() {
        let scan = LinearScan::bulk_load(entries());
        assert_eq!(scan.len(), 10);
        assert!(!scan.is_empty());
        let found = scan.query_bbox(&BoundingBox::new(2.5, -1.0, 5.5, 1.0));
        let mut ids: Vec<u32> = found.into_iter().copied().collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn linear_scan_distance_query() {
        let scan = LinearScan::bulk_load(entries());
        let found = scan.query_within_distance(&Coord::new(0.0, 0.0), 2.0);
        let mut ids: Vec<u32> = found.into_iter().copied().collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn linear_scan_knn() {
        let scan = LinearScan::bulk_load(entries());
        let found = scan.nearest_neighbors(&Coord::new(9.2, 0.0), 3);
        let ids: Vec<u32> = found.into_iter().copied().collect();
        assert_eq!(ids, vec![9, 8, 7]);
    }

    #[test]
    fn empty_scan() {
        let scan: LinearScan<u32> = LinearScan::new();
        assert!(scan.is_empty());
        assert!(scan
            .query_bbox(&BoundingBox::new(0.0, 0.0, 1.0, 1.0))
            .is_empty());
        assert!(scan.nearest_neighbors(&Coord::new(0.0, 0.0), 5).is_empty());
    }

    #[test]
    fn insert_and_iterate() {
        let mut scan = LinearScan::new();
        scan.insert(IndexEntry::point(Coord::new(0.0, 0.0), 1u32));
        scan.insert(IndexEntry::point(Coord::new(1.0, 1.0), 2u32));
        assert_eq!(scan.iter().count(), 2);
    }
}
