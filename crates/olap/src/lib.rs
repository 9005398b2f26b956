//! An in-memory spatial OLAP engine (the SDW substrate).
//!
//! The paper assumes a spatial data warehouse platform underneath its
//! personalization layer: something that stores fact and dimension
//! instances for an MD/GeoMD schema, evaluates spatial predicates, and
//! answers aggregate (OLAP) queries. This crate is that substrate, built
//! from scratch:
//!
//! * [`Column`] / [`Table`] — typed columnar storage with dictionary
//!   encoding for text, over fixed-size `Arc`-shared copy-on-write
//!   chunks ([`chunk`]) so snapshot clones share every clean chunk, plus
//!   tombstone compaction ([`Table::compact`] / [`RowRemap`]) that
//!   rewrites live rows and remaps stable row ids;
//! * [`kernels`] — grouped per-slot SUM/MIN/MAX/COUNT/AVG slice kernels
//!   the morsel executor pushes numeric aggregation down to, fed by
//!   dense group ids and selection vectors (no string keys anywhere on
//!   the parallel path; an ungrouped aggregate is the one-slot case);
//! * [`Cube`] — a star-schema instance bound to an [`sdwp_model::Schema`]:
//!   one dimension table per dimension (leaf grain, one column per level
//!   attribute plus per-level geometry columns), layer tables for GeoMD
//!   layers, and a fact table with foreign keys and measures;
//! * [`Filter`] — boolean and spatial predicates over dimension members and
//!   facts;
//! * [`Query`] / [`QueryEngine`] — morsel-parallel group-by aggregation
//!   (roll-up, slice, dice) with optional [`InstanceView`] restriction,
//!   through one executor (a single query is a batch of one):
//!   fixed-size fact-row chunks are filtered and partially aggregated by
//!   the calling thread plus workers of a [`MorselPool`]
//!   ([`ExecutionConfig`] sets the worker count and morsel size), then
//!   the partial [`aggregate::Accumulator`] states are merged in morsel
//!   order, so results are identical for any worker count;
//! * [`QueryCache`] — a snapshot-generation-keyed result cache the serving
//!   layer puts in front of the executor;
//! * [`InstanceView`] — the personalized selection produced by the paper's
//!   `SelectInstance` action: a subset of dimension members that every
//!   subsequent query is evaluated through;
//! * [`spatial`] — within-distance selection over a dimension level's
//!   geometry column: the [`Filter::WithinDistance`] scan, and a packed
//!   R-tree ([`spatial::LevelIndex`]) whose candidate window the exact
//!   distance refines to the same members.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
mod bits;
pub mod cache;
pub mod cancel;
pub mod chunk;
pub mod column;
pub mod cube;
pub mod dicts;
pub mod engine;
pub mod error;
#[cfg(feature = "failpoints")]
pub mod fault;
pub mod filter;
mod hash;
pub mod kernels;
pub mod pool;
pub mod query;
mod rtree;
pub mod spatial;
pub mod table;
pub mod value;
pub mod view;

pub use cache::{CacheKey, CacheStats, QueryCache};
pub use cancel::CancelToken;
pub use chunk::DEFAULT_CHUNK_ROWS;
pub use column::{Column, ColumnType, Dictionary};
pub use cube::{Cube, DimensionTable, FactTable, FactTableStats, LayerTable};
pub use dicts::{DictCacheStats, GroupDictCache};
pub use engine::{
    ExecutionConfig, QueryEngine, QueryObs, ReportAs, DEFAULT_GROUP_SLOT_LIMIT, DEFAULT_MORSEL_ROWS,
};
pub use error::OlapError;
pub use filter::{CompareOp, Filter, SpatialPredicateOp};
pub use kernels::NumericAgg;
pub use pool::{
    AdmissionGuard, AdmitError, MorselPool, PoolStats, ShedError, TenantPolicy, TenantStats,
    MAX_TENANTS,
};
pub use query::{AttributeRef, MeasureRef, Query, QueryResult, ResultRow};
pub use table::{RowRemap, Table};
pub use value::CellValue;
pub use view::{InstanceView, ResolvedViewCheck};

/// Evaluates a named failpoint (see the `fault` module) — a zero-cost no-op
/// unless the invoking crate's `failpoints` feature is enabled.
///
/// Two forms:
///
/// ```ignore
/// fail_point!("pool.helper.start");              // panic / sleep only
/// fail_point!("ingest.apply", |msg: String| {    // injected errors
///     Err(IngestError::from_injected(msg))
/// });
/// ```
///
/// The second form `return`s the handler's value from the enclosing
/// function when the armed action is `fault::FailAction::Error`.
///
/// The `#[cfg]` inside the expansion is evaluated in the **invoking**
/// crate, so every crate placing failpoints must declare its own
/// `failpoints` cargo feature forwarding to `sdwp_olap/failpoints`.
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        #[cfg(feature = "failpoints")]
        {
            if let Some(message) = $crate::fault::eval($name) {
                // Panic and sleep actions act inside `eval`; an Error
                // action is meaningless without a handler — ignore it.
                let _ = message;
            }
        }
    };
    ($name:expr, $handler:expr) => {
        #[cfg(feature = "failpoints")]
        {
            if let Some(message) = $crate::fault::eval($name) {
                return $handler(message);
            }
        }
    };
}
