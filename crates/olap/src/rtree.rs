//! The packed R-tree behind [`crate::spatial::LevelIndex`]: built once
//! over a level's member bounding boxes, queried by window. The compiled
//! PRML rule set builds one per range-probe loop and cube stamp, so every
//! login that fires Example 5.2's rule queries one.

use sdwp_geometry::distance::DistanceMetric;
use sdwp_geometry::haversine::EARTH_RADIUS_KM;
use sdwp_geometry::BoundingBox;
use std::cmp::Ordering;

/// Children per node of a [`LevelIndex`].
const FANOUT: usize = 16;

/// A Sort-Tile-Recursive packed R-tree over the bounding boxes of one
/// dimension level's member geometries, built by
/// [`build_level_rtree`](crate::spatial::build_level_rtree). Its one
/// query is a window: the members whose bounding box intersects it.
#[derive(Debug)]
pub struct LevelIndex {
    /// The root and the box covering every indexed member; `None` for a
    /// level without geometries.
    root: Option<(BoundingBox, Node)>,
}

#[derive(Debug)]
enum Node {
    Member(usize),
    Inner(Vec<(BoundingBox, Node)>),
}

impl LevelIndex {
    /// Sort-Tile-Recursive packing of `(bbox, member id)` pairs: sort by
    /// centre x, cut into ⌈√leaves⌉ vertical slabs, sort each slab by
    /// centre y and pack runs of [`FANOUT`] into leaves; then pack each
    /// level's runs into the next until one root remains.
    pub(crate) fn bulk_load(members: Vec<(BoundingBox, usize)>) -> Self {
        fn by(
            axis: fn(&BoundingBox) -> f64,
        ) -> impl Fn(&(BoundingBox, Node), &(BoundingBox, Node)) -> Ordering {
            move |a, b| axis(&a.0).total_cmp(&axis(&b.0))
        }
        let mut members: Vec<_> = members
            .into_iter()
            .map(|(bbox, id)| (bbox, Node::Member(id)))
            .collect();
        let slabs = (members.len().div_ceil(FANOUT) as f64).sqrt().ceil() as usize;
        let slab_len = FANOUT * slabs.max(1);
        members.sort_by(by(|b| b.center().x));
        let mut level = Vec::new();
        while !members.is_empty() {
            let rest = members.split_off(slab_len.min(members.len()));
            members.sort_by(by(|b| b.center().y));
            level.extend(pack(members));
            members = rest;
        }
        while level.len() > 1 {
            level = pack(level);
        }
        LevelIndex { root: level.pop() }
    }

    /// The box covering every indexed member; `None` when there is none.
    fn bbox(&self) -> Option<&BoundingBox> {
        self.root.as_ref().map(|(bbox, _)| bbox)
    }

    /// The ids of the members whose bounding box intersects `window`, in
    /// tree order.
    pub(crate) fn candidates(&self, window: &BoundingBox) -> Vec<usize> {
        fn walk(children: &[(BoundingBox, Node)], window: &BoundingBox, out: &mut Vec<usize>) {
            for (bbox, node) in children {
                if bbox.intersects(window) {
                    match node {
                        Node::Member(id) => out.push(*id),
                        Node::Inner(children) => walk(children, window, out),
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(self.root.as_slice(), window, &mut out);
        out
    }

    /// A window holding every member within `max_distance` of a target
    /// whose bounding box is `target`: the box grown by the radius.
    /// Under the haversine metric the radius is ρ = `max_distance` /
    /// [`EARTH_RADIUS_KM`] radians, which spans ρ in latitude and
    /// asin(sin ρ / cos φ\*) in longitude, φ\* being the target's largest
    /// |latitude|; the longitude range is whole when the cap holds a
    /// pole or the window crosses ±180°, and the window is the whole
    /// plane when a coordinate is not a (longitude, latitude) pair.
    pub(crate) fn window(
        &self,
        target: &BoundingBox,
        max_distance: f64,
        metric: DistanceMetric,
    ) -> BoundingBox {
        let (dx, dy) = match metric {
            DistanceMetric::Euclidean => (max_distance, max_distance),
            DistanceMetric::HaversineKm => {
                let geodetic = |b: &BoundingBox| {
                    b.min_x >= -180.0 && b.max_x <= 180.0 && b.min_y >= -90.0 && b.max_y <= 90.0
                };
                let rho = max_distance / EARTH_RADIUS_KM;
                let phi = target.min_y.abs().max(target.max_y.abs()).to_radians();
                let mut dx = if rho < std::f64::consts::FRAC_PI_2 - phi {
                    (rho.sin() / phi.cos()).asin().to_degrees()
                } else {
                    f64::INFINITY
                };
                if target.min_x - dx < -180.0 || target.max_x + dx > 180.0 {
                    dx = f64::INFINITY;
                }
                if geodetic(target) && self.bbox().is_none_or(geodetic) {
                    (dx, rho.to_degrees())
                } else {
                    (f64::INFINITY, f64::INFINITY)
                }
            }
        };
        let (min_x, max_x) = grown(target.min_x, target.max_x, dx);
        let (min_y, max_y) = grown(target.min_y, target.max_y, dy);
        BoundingBox {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }
}

/// Packs consecutive runs of [`FANOUT`] entries into inner nodes.
fn pack(entries: Vec<(BoundingBox, Node)>) -> Vec<(BoundingBox, Node)> {
    let mut out = Vec::with_capacity(entries.len().div_ceil(FANOUT));
    let mut entries = entries.into_iter().peekable();
    while entries.peek().is_some() {
        let run: Vec<_> = entries.by_ref().take(FANOUT).collect();
        let cover = run[1..].iter().fold(run[0].0, |acc, (b, _)| acc.union(b));
        out.push((cover, Node::Inner(run)));
    }
    out
}

/// The interval `[lo, hi]` grown by `by` on both sides, plus a slack of a
/// billionth of its scale: rounding in the bounds or in the exact
/// distance must never drop a member the refinement keeps.
fn grown(lo: f64, hi: f64, by: f64) -> (f64, f64) {
    let by = by + 1e-9 * (1.0 + lo.abs().max(hi.abs()) + by.abs());
    (lo - by, hi + by)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The points of an n×n integer grid, member id `i * n + j` at (i, j).
    fn grid(n: usize) -> Vec<(BoundingBox, usize)> {
        (0..n * n)
            .map(|id| {
                let (x, y) = ((id / n) as f64, (id % n) as f64);
                (BoundingBox::new(x, y, x, y), id)
            })
            .collect()
    }

    fn sorted(mut ids: Vec<usize>) -> Vec<usize> {
        ids.sort_unstable();
        ids
    }

    #[test]
    fn empty_tree() {
        let tree = LevelIndex::bulk_load(Vec::new());
        assert!(tree.bbox().is_none());
        assert!(tree
            .candidates(&BoundingBox::new(0.0, 0.0, 1.0, 1.0))
            .is_empty());
        let everywhere = BoundingBox::new(f64::MIN, f64::MIN, f64::MAX, f64::MAX);
        assert!(tree.candidates(&everywhere).is_empty());
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let tree = LevelIndex::bulk_load(Vec::new());
        assert!(tree.root.is_none());
        let tree = LevelIndex::bulk_load(vec![(BoundingBox::new(1.0, 1.0, 1.0, 1.0), 42)]);
        assert_eq!(
            tree.candidates(&BoundingBox::new(0.0, 0.0, 2.0, 2.0)),
            vec![42]
        );
        assert!(tree
            .candidates(&BoundingBox::new(1.5, 1.5, 2.0, 2.0))
            .is_empty());
    }

    #[test]
    fn within_distance_query() {
        let tree = LevelIndex::bulk_load(grid(20));
        let center = BoundingBox::new(10.0, 10.0, 10.0, 10.0);
        let window = tree.window(&center, 1.5, DistanceMetric::Euclidean);
        // The window around (10, 10) grown by 1.5 holds the 3×3 block
        // around it, every one of which lies within 1.5 of the centre.
        let want: Vec<usize> = (9..=11)
            .flat_map(|i| (9..=11).map(move |j| i * 20 + j))
            .collect();
        assert_eq!(sorted(tree.candidates(&window)), want);
    }

    #[test]
    fn tree_bbox_covers_everything() {
        let tree = LevelIndex::bulk_load(grid(5));
        let bbox = tree.bbox().unwrap();
        assert!(bbox.contains(&BoundingBox::new(0.0, 0.0, 4.0, 4.0)));
        assert_eq!(*bbox, BoundingBox::new(0.0, 0.0, 4.0, 4.0));
    }

    #[test]
    fn duplicate_positions_are_kept() {
        let tree = LevelIndex::bulk_load(
            (0..10 * FANOUT)
                .map(|id| (BoundingBox::new(1.0, 1.0, 1.0, 1.0), id))
                .collect(),
        );
        let found = tree.candidates(&BoundingBox::new(0.0, 0.0, 2.0, 2.0));
        assert_eq!(sorted(found), (0..10 * FANOUT).collect::<Vec<_>>());
    }

    #[test]
    fn non_point_boxes() {
        let tree = LevelIndex::bulk_load(vec![
            (BoundingBox::new(0.0, 0.0, 10.0, 10.0), 0),
            (BoundingBox::new(2.0, 2.0, 3.0, 3.0), 1),
            (BoundingBox::new(20.0, 20.0, 30.0, 30.0), 2),
        ]);
        let found = tree.candidates(&BoundingBox::new(2.5, 2.5, 2.6, 2.6));
        assert_eq!(sorted(found), vec![0, 1]);
    }

    /// Every window query returns exactly the members whose box
    /// intersects it, on trees of one, two and three levels, with
    /// duplicate positions and non-point boxes.
    #[test]
    fn packed_tree_answers_windows_like_a_scan() {
        for n in [0usize, 1, FANOUT, FANOUT + 1, 300, 5_000] {
            let boxes: Vec<BoundingBox> = (0..n)
                .map(|i| {
                    let (x, y) = ((i * 37 % 101) as f64, (i * 53 % 89) as f64);
                    let size = (i % 3) as f64;
                    BoundingBox::new(x, y, x + size, y + size / 2.0)
                })
                .collect();
            let index = LevelIndex::bulk_load(boxes.iter().copied().zip(0..).collect());
            for window in [
                BoundingBox::new(10.0, 10.0, 30.0, 20.0),
                BoundingBox::new(50.0, 50.0, 50.0, 50.0),
                BoundingBox::new(-5.0, -5.0, 200.0, 200.0),
                BoundingBox::new(500.0, 500.0, 600.0, 600.0),
            ] {
                let got = sorted(index.candidates(&window));
                let want: Vec<usize> = (0..n).filter(|&id| boxes[id].intersects(&window)).collect();
                assert_eq!(got, want, "n={n}, window={window:?}");
            }
        }
    }
}
