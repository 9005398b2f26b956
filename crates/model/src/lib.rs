//! Conceptual multidimensional (MD) and geographic multidimensional (GeoMD)
//! models.
//!
//! This crate is the Rust rendering of the UML profiles the paper builds
//! on: the multidimensional profile of Luján-Mora, Trujillo & Song
//! (reference \[16\] of the paper) and its geographic extension (reference
//! \[10\]). The profile stereotypes become Rust types:
//!
//! | Paper stereotype | Type here |
//! |---|---|
//! | Fact class | [`Fact`] |
//! | Dimension class | [`Dimension`] |
//! | Base class (hierarchy level) | [`Level`] |
//! | FactAttribute (measure) | [`Measure`] |
//! | Descriptor / DimensionAttribute | [`Attribute`] |
//! | SpatialLevel | [`Level`] with [`Level::geometry`] set |
//! | Layer | [`Layer`] |
//!
//! A [`Schema`] bundles facts, dimensions and layers. A schema with no
//! spatial annotations is a plain MD model (Fig. 2 of the paper); applying
//! the `BecomeSpatial` / `AddLayer` personalization actions turns it into a
//! GeoMD model (Fig. 6). [`SchemaDiff`] captures exactly that delta.
//!
//! Path expressions (`MD.Sales.Store.City.name`,
//! `GeoMD.Store.City.geometry`) are resolved by [`path::PathResolver`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attribute;
pub mod builder;
pub mod diff;
pub mod dimension;
pub mod error;
pub mod fact;
pub mod geo;
pub mod path;
pub mod render;
pub mod schema;
pub mod stereotype;
pub mod validate;

pub use attribute::{AggregationFunction, Attribute, AttributeType, Measure};
pub use builder::{DimensionBuilder, FactBuilder, SchemaBuilder};
pub use diff::SchemaDiff;
pub use dimension::{Dimension, Level};
pub use error::ModelError;
pub use fact::Fact;
pub use geo::Layer;
pub use path::{PathExpr, PathPrefix, PathResolver, PathTarget};
pub use schema::Schema;
pub use stereotype::Stereotype;
pub use validate::validate_schema;

pub use sdwp_geometry::GeometricType;
