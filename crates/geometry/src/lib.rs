//! Computational geometry for spatial data warehouse personalization.
//!
//! This crate provides the geometric substrate required by the EDBT 2010
//! paper *Using Web-based Personalization on Spatial Data Warehouses*:
//!
//! * the geometric primitive types named in the paper's `GeometricTypes`
//!   enumeration — [`Point`] (POINT), [`LineString`] (LINE), [`Polygon`]
//!   (POLYGON) and [`GeometryCollection`] (COLLECTION) — unified under the
//!   [`Geometry`] enum;
//! * the spatial operators the paper adds to PRML: the topological
//!   predicates *Intersect*, *Disjoint*, *Cross*, *Inside* and *Equals*
//!   (see [`predicates`]), the numeric *Distance* operator (see
//!   [`mod@distance`]) and the geometric *Intersection* operator (see
//!   [`intersection`]);
//! * supporting machinery: bounding boxes, length/area/centroid measures
//!   and geodetic (haversine) distance.
//!
//! All coordinates are planar `f64` pairs. Distances default to the
//! Euclidean metric in the same units as the coordinates; a geodetic
//! interpretation (degrees → kilometres) is available via
//! [`haversine::haversine_distance`] and [`distance::DistanceMetric`].
//!
//! # Example
//!
//! ```
//! use sdwp_geometry::{Point, LineString, Geometry, predicates, distance};
//!
//! let store = Point::new(2.0, 3.0);
//! let airport = Point::new(5.0, 7.0);
//! assert_eq!(distance::euclidean(&store.into(), &airport.into()), 5.0);
//!
//! let road = LineString::new(vec![(0.0, 0.0).into(), (10.0, 10.0).into()]).unwrap();
//! assert!(predicates::intersects(&Geometry::from(road), &Point::new(5.0, 5.0).into()));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithms;
pub mod bbox;
pub mod collection;
pub mod coord;
pub mod distance;
pub mod error;
pub mod geometry;
pub mod haversine;
pub mod intersection;
pub mod linestring;
pub mod measures;
pub mod point;
pub mod polygon;
pub mod predicates;

pub use bbox::BoundingBox;
pub use collection::GeometryCollection;
pub use coord::Coord;
pub use distance::{distance, DistanceMetric};
pub use error::GeometryError;
pub use geometry::{GeometricType, Geometry};
pub use linestring::LineString;
pub use point::Point;
pub use polygon::Polygon;
