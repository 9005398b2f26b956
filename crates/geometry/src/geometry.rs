//! The unified [`Geometry`] enum and the paper's `GeometricTypes`.

use crate::bbox::BoundingBox;
use crate::collection::GeometryCollection;
use crate::linestring::LineString;
use crate::point::Point;
use crate::polygon::Polygon;
use std::fmt;

/// The geometric primitive kinds allowed by the paper's spatial-aware user
/// model (`GeometricTypes` enumeration, Fig. 3): POINT, LINE, POLYGON and
/// COLLECTION.
///
/// These are the types usable by the `BecomeSpatial` and `AddLayer`
/// personalization actions; they correspond to the ISO 19125 / OGC Simple
/// Features point, linestring, polygon and geometry-collection types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeometricType {
    /// A single position (OGC Point).
    Point,
    /// A polyline (OGC LineString).
    Line,
    /// An areal geometry (OGC Polygon).
    Polygon,
    /// A heterogeneous collection (OGC GeometryCollection).
    Collection,
}

impl GeometricType {
    /// All geometric types, in the order listed by the paper.
    pub const ALL: [GeometricType; 4] = [
        GeometricType::Point,
        GeometricType::Line,
        GeometricType::Polygon,
        GeometricType::Collection,
    ];

    /// The paper's upper-case spelling of the type (e.g. `"POINT"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            GeometricType::Point => "POINT",
            GeometricType::Line => "LINE",
            GeometricType::Polygon => "POLYGON",
            GeometricType::Collection => "COLLECTION",
        }
    }

    /// Parses the paper's upper-case spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<GeometricType> {
        match s.to_ascii_uppercase().as_str() {
            "POINT" => Some(GeometricType::Point),
            "LINE" | "LINESTRING" => Some(GeometricType::Line),
            "POLYGON" => Some(GeometricType::Polygon),
            "COLLECTION" | "GEOMETRYCOLLECTION" => Some(GeometricType::Collection),
            _ => None,
        }
    }
}

impl fmt::Display for GeometricType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A geometry value: one of the four primitive kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    /// A point.
    Point(Point),
    /// A polyline.
    Line(LineString),
    /// A polygon.
    Polygon(Polygon),
    /// A collection of geometries.
    Collection(GeometryCollection),
}

impl Geometry {
    /// The [`GeometricType`] tag of this value.
    pub fn geometric_type(&self) -> GeometricType {
        match self {
            Geometry::Point(_) => GeometricType::Point,
            Geometry::Line(_) => GeometricType::Line,
            Geometry::Polygon(_) => GeometricType::Polygon,
            Geometry::Collection(_) => GeometricType::Collection,
        }
    }

    /// Bounding box, or `None` for empty collections.
    pub fn bbox(&self) -> Option<BoundingBox> {
        match self {
            Geometry::Point(p) => Some(p.bbox()),
            Geometry::Line(l) => Some(l.bbox()),
            Geometry::Polygon(p) => Some(p.bbox()),
            Geometry::Collection(c) => c.bbox(),
        }
    }

    /// Returns `true` when the geometry carries no coordinates
    /// (only possible for collections).
    pub fn is_empty(&self) -> bool {
        match self {
            Geometry::Collection(c) => c.is_empty(),
            _ => false,
        }
    }

    /// Returns the contained point if this geometry is a `Point`.
    pub fn as_point(&self) -> Option<&Point> {
        match self {
            Geometry::Point(p) => Some(p),
            _ => None,
        }
    }

    /// Returns the contained line if this geometry is a `Line`.
    pub fn as_line(&self) -> Option<&LineString> {
        match self {
            Geometry::Line(l) => Some(l),
            _ => None,
        }
    }

    /// Returns the contained collection if this geometry is a `Collection`.
    pub fn as_collection(&self) -> Option<&GeometryCollection> {
        match self {
            Geometry::Collection(c) => Some(c),
            _ => None,
        }
    }
}

impl From<Point> for Geometry {
    fn from(p: Point) -> Self {
        Geometry::Point(p)
    }
}

impl From<LineString> for Geometry {
    fn from(l: LineString) -> Self {
        Geometry::Line(l)
    }
}

impl From<Polygon> for Geometry {
    fn from(p: Polygon) -> Self {
        Geometry::Polygon(p)
    }
}

impl From<GeometryCollection> for Geometry {
    fn from(c: GeometryCollection) -> Self {
        Geometry::Collection(c)
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Geometry::Point(p) => p.fmt(f),
            Geometry::Line(l) => l.fmt(f),
            Geometry::Polygon(p) => p.fmt(f),
            Geometry::Collection(c) => c.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_type_round_trip() {
        for t in GeometricType::ALL {
            assert_eq!(GeometricType::parse(t.as_str()), Some(t));
            assert_eq!(GeometricType::parse(&t.as_str().to_lowercase()), Some(t));
        }
        assert_eq!(GeometricType::parse("SPHERE"), None);
        assert_eq!(
            GeometricType::parse("LINESTRING"),
            Some(GeometricType::Line)
        );
    }

    #[test]
    fn type_tags() {
        let p: Geometry = Point::new(0.0, 0.0).into();
        assert_eq!(p.geometric_type(), GeometricType::Point);
        let l: Geometry = LineString::from_tuples(&[(0.0, 0.0), (1.0, 1.0)])
            .unwrap()
            .into();
        assert_eq!(l.geometric_type(), GeometricType::Line);
        let poly: Geometry = Polygon::from_tuples(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
            .unwrap()
            .into();
        assert_eq!(poly.geometric_type(), GeometricType::Polygon);
        let c: Geometry = GeometryCollection::empty().into();
        assert_eq!(c.geometric_type(), GeometricType::Collection);
    }

    #[test]
    fn emptiness() {
        let c: Geometry = GeometryCollection::empty().into();
        assert!(c.is_empty());
        let p: Geometry = Point::new(0.0, 0.0).into();
        assert!(!p.is_empty());
        assert!(c.bbox().is_none());
        assert!(p.bbox().is_some());
    }

    #[test]
    fn accessors() {
        let p: Geometry = Point::new(1.0, 2.0).into();
        assert!(p.as_point().is_some());
        assert!(p.as_line().is_none());
        assert!(p.as_collection().is_none());
    }

    #[test]
    fn display_delegates() {
        let g: Geometry = Point::new(1.0, 2.0).into();
        assert_eq!(g.to_string(), "POINT (1 2)");
        assert_eq!(GeometricType::Point.to_string(), "POINT");
    }
}
