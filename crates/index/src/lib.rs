//! Spatial indexes for the SDWP spatial OLAP engine.
//!
//! The paper's instance-personalization rules (e.g. Example 5.2: *"select
//! the stores at less than 5 km of the decision maker's location"*) run a
//! spatial predicate over every member of a potentially large dimension
//! level. This crate provides the index structures the OLAP engine uses to
//! avoid the full scan:
//!
//! * [`RTree`] — an R-tree with quadratic-split insertion and
//!   Sort-Tile-Recursive (STR) bulk loading, supporting bounding-box range
//!   queries, distance (within-radius) queries and k-nearest-neighbour
//!   search;
//! * [`LinearScan`] — the plain scan every index is property-tested
//!   against.
//!
//! Two flavours, one [`SpatialQuery`] trait: the OLAP layer is written
//! against the trait and the equivalence suites run both through it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod knn;
pub mod rtree;
pub mod traits;

pub use rtree::RTree;
pub use traits::{IndexEntry, LinearScan, SpatialQuery};
