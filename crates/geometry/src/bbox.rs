//! Axis-aligned bounding boxes.

use crate::coord::Coord;

/// An axis-aligned bounding box (minimum bounding rectangle).
///
/// Bounding boxes are the workhorse of the level index in `sdwp_olap`'s
/// spatial selection and of the predicate fast paths in
/// [`crate::predicates`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Smallest x coordinate covered by the box.
    pub min_x: f64,
    /// Smallest y coordinate covered by the box.
    pub min_y: f64,
    /// Largest x coordinate covered by the box.
    pub max_x: f64,
    /// Largest y coordinate covered by the box.
    pub max_y: f64,
}

impl BoundingBox {
    /// Creates a bounding box from explicit extents. The extents are
    /// normalised so that `min_* <= max_*` always holds.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        BoundingBox {
            min_x: min_x.min(max_x),
            min_y: min_y.min(max_y),
            max_x: min_x.max(max_x),
            max_y: min_y.max(max_y),
        }
    }

    /// The degenerate box covering a single coordinate.
    pub fn from_coord(c: Coord) -> Self {
        BoundingBox {
            min_x: c.x,
            min_y: c.y,
            max_x: c.x,
            max_y: c.y,
        }
    }

    /// Computes the bounding box of a coordinate slice, or `None` when the
    /// slice is empty.
    pub fn from_coords(coords: &[Coord]) -> Option<Self> {
        let mut it = coords.iter();
        let first = it.next()?;
        let mut bbox = BoundingBox::from_coord(*first);
        for c in it {
            bbox.expand_coord(*c);
        }
        Some(bbox)
    }

    /// Width of the box along the x axis.
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height of the box along the y axis.
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area of the box.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point of the box.
    pub fn center(&self) -> Coord {
        Coord::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Grows the box (in place) so that it also covers `c`.
    pub fn expand_coord(&mut self, c: Coord) {
        self.min_x = self.min_x.min(c.x);
        self.min_y = self.min_y.min(c.y);
        self.max_x = self.max_x.max(c.x);
        self.max_y = self.max_y.max(c.y);
    }

    /// Grows the box (in place) so that it also covers `other`.
    pub fn expand(&mut self, other: &BoundingBox) {
        self.min_x = self.min_x.min(other.min_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_x = self.max_x.max(other.max_x);
        self.max_y = self.max_y.max(other.max_y);
    }

    /// Returns the smallest box covering both `self` and `other`.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        let mut b = *self;
        b.expand(other);
        b
    }

    /// Returns `true` if the two boxes share at least one point
    /// (touching edges count as intersecting).
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min_x <= other.max_x
            && self.max_x >= other.min_x
            && self.min_y <= other.max_y
            && self.max_y >= other.min_y
    }

    /// Returns the overlap box, or `None` when the boxes are disjoint.
    pub fn intersection(&self, other: &BoundingBox) -> Option<BoundingBox> {
        if !self.intersects(other) {
            return None;
        }
        Some(BoundingBox {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        })
    }

    /// Returns `true` if `other` lies entirely within `self`
    /// (boundary contact allowed).
    pub fn contains(&self, other: &BoundingBox) -> bool {
        self.min_x <= other.min_x
            && self.min_y <= other.min_y
            && self.max_x >= other.max_x
            && self.max_y >= other.max_y
    }

    /// Returns `true` if the coordinate lies inside or on the boundary.
    pub fn contains_coord(&self, c: &Coord) -> bool {
        c.x >= self.min_x && c.x <= self.max_x && c.y >= self.min_y && c.y <= self.max_y
    }

    /// Returns a copy of the box grown by `margin` on every side.
    pub fn buffered(&self, margin: f64) -> BoundingBox {
        BoundingBox::new(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalises_extents() {
        let b = BoundingBox::new(5.0, 6.0, 1.0, 2.0);
        assert_eq!(b.min_x, 1.0);
        assert_eq!(b.max_x, 5.0);
        assert_eq!(b.min_y, 2.0);
        assert_eq!(b.max_y, 6.0);
    }

    #[test]
    fn from_coords_empty_is_none() {
        assert!(BoundingBox::from_coords(&[]).is_none());
    }

    #[test]
    fn from_coords_covers_all() {
        let coords = vec![
            Coord::new(1.0, 1.0),
            Coord::new(-2.0, 5.0),
            Coord::new(3.0, 0.5),
        ];
        let b = BoundingBox::from_coords(&coords).unwrap();
        assert_eq!(b, BoundingBox::new(-2.0, 0.5, 3.0, 5.0));
        for c in &coords {
            assert!(b.contains_coord(c));
        }
    }

    #[test]
    fn area_width_height_margin() {
        let b = BoundingBox::new(0.0, 0.0, 4.0, 2.0);
        assert_eq!(b.width(), 4.0);
        assert_eq!(b.height(), 2.0);
        assert_eq!(b.area(), 8.0);
        assert_eq!(b.center(), Coord::new(2.0, 1.0));
    }

    #[test]
    fn union_and_enlargement() {
        let a = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BoundingBox::new(2.0, 2.0, 3.0, 3.0);
        let u = a.union(&b);
        assert_eq!(u, BoundingBox::new(0.0, 0.0, 3.0, 3.0));
        assert_eq!(u.area() - a.area(), 9.0 - 1.0);
    }

    #[test]
    fn intersects_and_intersection() {
        let a = BoundingBox::new(0.0, 0.0, 2.0, 2.0);
        let b = BoundingBox::new(1.0, 1.0, 3.0, 3.0);
        let c = BoundingBox::new(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(
            a.intersection(&b),
            Some(BoundingBox::new(1.0, 1.0, 2.0, 2.0))
        );
        assert_eq!(a.intersection(&c), None);
        // Touching edge counts as intersecting.
        let d = BoundingBox::new(2.0, 0.0, 4.0, 2.0);
        assert!(a.intersects(&d));
    }

    #[test]
    fn contains_box_and_coord() {
        let outer = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        let inner = BoundingBox::new(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains_coord(&Coord::new(10.0, 10.0)));
        assert!(!outer.contains_coord(&Coord::new(10.1, 5.0)));
    }

    #[test]
    fn buffered_grows_every_side() {
        let b = BoundingBox::new(0.0, 0.0, 1.0, 1.0).buffered(0.5);
        assert_eq!(b, BoundingBox::new(-0.5, -0.5, 1.5, 1.5));
    }
}
