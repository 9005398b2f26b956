//! Scalar measures of geometries (length, area, centroid).

use crate::coord::Coord;
use crate::error::GeometryError;
use crate::geometry::Geometry;

/// Total length of the geometry: 0 for points, polyline length for lines,
/// perimeter for polygons, and the sum over members for collections.
pub fn length(g: &Geometry) -> f64 {
    match g {
        Geometry::Point(_) => 0.0,
        Geometry::Line(l) => l.length(),
        Geometry::Polygon(p) => p.perimeter(),
        Geometry::Collection(c) => c.iter().map(length).sum(),
    }
}

/// Area of the geometry: 0 for points and lines, polygon area for polygons,
/// and the sum over members for collections.
pub fn area(g: &Geometry) -> f64 {
    match g {
        Geometry::Point(_) | Geometry::Line(_) => 0.0,
        Geometry::Polygon(p) => p.area(),
        Geometry::Collection(c) => c.iter().map(area).sum(),
    }
}

/// Centroid of the geometry. For collections this is the unweighted mean of
/// the member centroids. Fails for empty collections.
pub fn centroid(g: &Geometry) -> Result<Coord, GeometryError> {
    match g {
        Geometry::Point(p) => Ok(p.coord()),
        Geometry::Line(l) => {
            // Length-weighted midpoint of segments.
            let total = l.length();
            if total == 0.0 {
                return Ok(l.coords()[0]);
            }
            let mut cx = 0.0;
            let mut cy = 0.0;
            for (a, b) in l.segments() {
                let w = a.distance(&b) / total;
                cx += (a.x + b.x) / 2.0 * w;
                cy += (a.y + b.y) / 2.0 * w;
            }
            Ok(Coord::new(cx, cy))
        }
        Geometry::Polygon(p) => Ok(p.centroid()),
        Geometry::Collection(c) => {
            if c.is_empty() {
                return Err(GeometryError::EmptyGeometry {
                    operation: "centroid",
                });
            }
            let mut cx = 0.0;
            let mut cy = 0.0;
            let mut n = 0.0;
            for g in c.iter() {
                let cc = centroid(g)?;
                cx += cc.x;
                cy += cc.y;
                n += 1.0;
            }
            Ok(Coord::new(cx / n, cy / n))
        }
    }
}

/// Collects every coordinate of a geometry into a flat vector.
pub fn coordinates(g: &Geometry) -> Vec<Coord> {
    match g {
        Geometry::Point(p) => vec![p.coord()],
        Geometry::Line(l) => l.coords().to_vec(),
        Geometry::Polygon(p) => {
            let mut v = p.exterior().to_vec();
            for hole in p.interiors() {
                v.extend_from_slice(hole);
            }
            v
        }
        Geometry::Collection(c) => c.iter().flat_map(coordinates).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::GeometryCollection;
    use crate::linestring::LineString;
    use crate::point::Point;
    use crate::polygon::Polygon;

    fn line(coords: &[(f64, f64)]) -> Geometry {
        LineString::from_tuples(coords).unwrap().into()
    }

    fn square() -> Geometry {
        Polygon::from_tuples(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)])
            .unwrap()
            .into()
    }

    #[test]
    fn lengths() {
        assert_eq!(length(&Point::new(1.0, 1.0).into()), 0.0);
        assert_eq!(length(&line(&[(0.0, 0.0), (3.0, 4.0)])), 5.0);
        assert_eq!(length(&square()), 8.0);
        let c: Geometry = GeometryCollection::new(vec![
            line(&[(0.0, 0.0), (1.0, 0.0)]),
            line(&[(0.0, 0.0), (0.0, 2.0)]),
        ])
        .into();
        assert_eq!(length(&c), 3.0);
    }

    #[test]
    fn areas() {
        assert_eq!(area(&Point::new(1.0, 1.0).into()), 0.0);
        assert_eq!(area(&line(&[(0.0, 0.0), (3.0, 4.0)])), 0.0);
        assert!((area(&square()) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn centroids() {
        assert_eq!(
            centroid(&Point::new(1.0, 2.0).into()).unwrap(),
            Coord::new(1.0, 2.0)
        );
        let c = centroid(&line(&[(0.0, 0.0), (10.0, 0.0)])).unwrap();
        assert_eq!(c, Coord::new(5.0, 0.0));
        let sq = centroid(&square()).unwrap();
        assert!((sq.x - 1.0).abs() < 1e-12 && (sq.y - 1.0).abs() < 1e-12);
        let empty: Geometry = GeometryCollection::empty().into();
        assert!(centroid(&empty).is_err());
    }

    #[test]
    fn centroid_of_collection_is_mean_of_members() {
        let c: Geometry = GeometryCollection::new(vec![
            Point::new(0.0, 0.0).into(),
            Point::new(10.0, 0.0).into(),
        ])
        .into();
        assert_eq!(centroid(&c).unwrap(), Coord::new(5.0, 0.0));
    }

    #[test]
    fn coordinate_counts() {
        assert_eq!(coordinates(&Point::new(0.0, 0.0).into()).len(), 1);
        assert_eq!(
            coordinates(&line(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])).len(),
            3
        );
        assert_eq!(coordinates(&square()).len(), 5);
    }
}
