//! Property tests: every index answers queries exactly like the linear scan.

use proptest::prelude::*;
use sdwp_geometry::{BoundingBox, Coord};
use sdwp_index::{IndexEntry, LinearScan, RTree, SpatialQuery};

fn entry_strategy() -> impl Strategy<Value = IndexEntry<u32>> {
    (
        -500.0f64..500.0,
        -500.0f64..500.0,
        0.0f64..20.0,
        0.0f64..20.0,
        any::<u32>(),
    )
        .prop_map(|(x, y, w, h, id)| IndexEntry::new(BoundingBox::new(x, y, x + w, y + h), id))
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rtree_bbox_query_matches_linear_scan(
        entries in prop::collection::vec(entry_strategy(), 0..200),
        qx in -600.0f64..600.0, qy in -600.0f64..600.0,
        qw in 0.0f64..300.0, qh in 0.0f64..300.0,
    ) {
        let query = BoundingBox::new(qx, qy, qx + qw, qy + qh);
        let scan = LinearScan::bulk_load(entries.clone());
        let tree = RTree::bulk_load(entries.clone());
        let expected = sorted(scan.query_bbox(&query).into_iter().copied().collect());
        let actual = sorted(tree.query_bbox(&query).into_iter().copied().collect());
        prop_assert_eq!(expected, actual);
    }

    #[test]
    fn rtree_incremental_matches_bulk(
        entries in prop::collection::vec(entry_strategy(), 0..150),
        qx in -600.0f64..600.0, qy in -600.0f64..600.0,
        qw in 0.0f64..300.0, qh in 0.0f64..300.0,
    ) {
        let query = BoundingBox::new(qx, qy, qx + qw, qy + qh);
        let bulk = RTree::bulk_load(entries.clone());
        let mut incremental = RTree::with_capacity(6);
        for e in entries {
            incremental.insert(e);
        }
        let a = sorted(bulk.query_bbox(&query).into_iter().copied().collect());
        let b = sorted(incremental.query_bbox(&query).into_iter().copied().collect());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn within_distance_matches_linear_scan(
        entries in prop::collection::vec(entry_strategy(), 0..200),
        cx in -600.0f64..600.0, cy in -600.0f64..600.0,
        radius in 0.0f64..200.0,
    ) {
        let center = Coord::new(cx, cy);
        let scan = LinearScan::bulk_load(entries.clone());
        let tree = RTree::bulk_load(entries);
        let expected = sorted(scan.query_within_distance(&center, radius).into_iter().copied().collect());
        let tree_actual = sorted(tree.query_within_distance(&center, radius).into_iter().copied().collect());
        prop_assert_eq!(expected, tree_actual);
    }

    #[test]
    fn knn_distances_match_linear_scan(
        entries in prop::collection::vec(entry_strategy(), 1..150),
        cx in -600.0f64..600.0, cy in -600.0f64..600.0,
        k in 1usize..20,
    ) {
        let center = Coord::new(cx, cy);
        let scan = LinearScan::bulk_load(entries.clone());
        let tree = RTree::bulk_load(entries.clone());
        // Payloads can tie at the same distance, so compare the distance
        // profile rather than the identity of the neighbours.
        let dist_of = |id: u32| -> f64 {
            entries
                .iter()
                .filter(|e| e.item == id)
                .map(|e| e.bbox.distance_to_coord(&center))
                .fold(f64::INFINITY, f64::min)
        };
        let expected: Vec<f64> = scan
            .nearest_neighbors(&center, k)
            .into_iter()
            .map(|id| dist_of(*id))
            .collect();
        let actual: Vec<f64> = tree
            .nearest_neighbors(&center, k)
            .into_iter()
            .map(|id| dist_of(*id))
            .collect();
        prop_assert_eq!(expected.len(), actual.len());
        for (e, a) in expected.iter().zip(actual.iter()) {
            prop_assert!((e - a).abs() < 1e-9, "expected {e}, got {a}");
        }
    }

    #[test]
    fn rtree_len_matches_inserted(entries in prop::collection::vec(entry_strategy(), 0..300)) {
        let n = entries.len();
        let tree = RTree::bulk_load(entries);
        prop_assert_eq!(tree.len(), n);
        let mut visited = 0;
        tree.for_each(|_, _| visited += 1);
        prop_assert_eq!(visited, n);
    }
}
