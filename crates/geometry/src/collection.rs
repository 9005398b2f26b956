//! The COLLECTION geometric primitive.

use crate::bbox::BoundingBox;
use crate::geometry::Geometry;
use std::fmt;

/// A heterogeneous collection of geometries (the paper's `COLLECTION`
/// geometric type).
///
/// The paper's `Intersection` operator produces collections — e.g.
/// intersecting a LINE with a POINT yields "a COLLECTION type of points".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GeometryCollection {
    geometries: Vec<Geometry>,
}

impl GeometryCollection {
    /// Creates an empty collection.
    pub fn empty() -> Self {
        GeometryCollection {
            geometries: Vec::new(),
        }
    }

    /// Creates a collection from a list of geometries.
    pub fn new(geometries: Vec<Geometry>) -> Self {
        GeometryCollection { geometries }
    }

    /// The contained geometries.
    pub fn geometries(&self) -> &[Geometry] {
        &self.geometries
    }

    /// Number of contained geometries.
    pub fn len(&self) -> usize {
        self.geometries.len()
    }

    /// Returns `true` when the collection contains no geometries.
    pub fn is_empty(&self) -> bool {
        self.geometries.is_empty()
    }

    /// Appends a geometry to the collection.
    pub fn push(&mut self, g: Geometry) {
        self.geometries.push(g);
    }

    /// Bounding box covering every member, or `None` for an empty
    /// collection (or a collection of only empty members).
    pub fn bbox(&self) -> Option<BoundingBox> {
        let mut iter = self.geometries.iter().filter_map(Geometry::bbox);
        let first = iter.next()?;
        Some(iter.fold(first, |acc, b| acc.union(&b)))
    }

    /// Iterates over the contained geometries.
    pub fn iter(&self) -> std::slice::Iter<'_, Geometry> {
        self.geometries.iter()
    }
}

impl IntoIterator for GeometryCollection {
    type Item = Geometry;
    type IntoIter = std::vec::IntoIter<Geometry>;
    fn into_iter(self) -> Self::IntoIter {
        self.geometries.into_iter()
    }
}

impl<'a> IntoIterator for &'a GeometryCollection {
    type Item = &'a Geometry;
    type IntoIter = std::slice::Iter<'a, Geometry>;
    fn into_iter(self) -> Self::IntoIter {
        self.geometries.iter()
    }
}

impl FromIterator<Geometry> for GeometryCollection {
    fn from_iter<T: IntoIterator<Item = Geometry>>(iter: T) -> Self {
        GeometryCollection {
            geometries: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for GeometryCollection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "GEOMETRYCOLLECTION EMPTY");
        }
        write!(f, "GEOMETRYCOLLECTION (")?;
        for (i, g) in self.geometries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{g}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linestring::LineString;
    use crate::point::Point;

    #[test]
    fn empty_collection() {
        let c = GeometryCollection::empty();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert!(c.bbox().is_none());
        assert_eq!(c.to_string(), "GEOMETRYCOLLECTION EMPTY");
    }

    #[test]
    fn bbox_covers_members() {
        let mut c = GeometryCollection::empty();
        c.push(Point::new(0.0, 0.0).into());
        c.push(Point::new(5.0, 10.0).into());
        let b = c.bbox().unwrap();
        assert_eq!(b, BoundingBox::new(0.0, 0.0, 5.0, 10.0));
    }

    #[test]
    fn collect_from_iterator() {
        let c: GeometryCollection = (0..3)
            .map(|i| Geometry::from(Point::new(i as f64, 0.0)))
            .collect();
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn iteration() {
        let c = GeometryCollection::new(vec![
            Point::new(1.0, 1.0).into(),
            LineString::from_tuples(&[(0.0, 0.0), (1.0, 1.0)])
                .unwrap()
                .into(),
        ]);
        assert_eq!(c.iter().count(), 2);
        assert_eq!((&c).into_iter().count(), 2);
        assert_eq!(c.clone().into_iter().count(), 2);
    }

    #[test]
    fn display_nested() {
        let c = GeometryCollection::new(vec![Point::new(1.0, 2.0).into()]);
        assert_eq!(c.to_string(), "GEOMETRYCOLLECTION (POINT (1 2))");
    }
}
