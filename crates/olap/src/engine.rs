//! The query engine: morsel-parallel group-by aggregation through
//! personalized views.
//!
//! # Execution model
//!
//! There is **one executor**, [`QueryEngine::execute_cancellable`]. A
//! request is a batch of queries over one snapshot and one personalized
//! view — a single query is the batch of one, told apart only by its
//! [`ReportAs`] label — and it runs as a two-phase *morsel* pipeline in
//! the style of morsel-driven parallelism: every query is resolved and
//! planned up front, queries over the same fact share one pass over its
//! rows, and the fact table is split into fixed-size row chunks
//! ("morsels"). The calling thread and up to `workers - 1` workers of
//! the engine's [`MorselPool`] pull morsel indices from a shared atomic
//! counter and run filter + partial aggregation per morsel; the partial
//! [`crate::aggregate::Accumulator`] states are then merged **in
//! morsel-index order** and finalised once. The pool is the only
//! dispatcher at every worker count: a one-worker configuration gets a
//! pool of zero helpers, on which the same loop runs inline with the same
//! panic containment, tenant policy and admission gate.
//!
//! Everything that is fixed for the whole request is decided **once, at
//! the door**: resolution turns every measure, foreign-key and attribute
//! name into a plain column index (a cube whose tables lack one fails
//! there, once, with a typed error — [`Cube`] keeps tables aligned with
//! its schema by construction), and the personalized view is lowered to
//! one [`crate::ResolvedViewCheck`] per fact group at plan time. The
//! morsel loop holds indices and that one check; it re-decides nothing
//! per row or per morsel.
//!
//! Because morsel boundaries and the merge order depend only on
//! [`ExecutionConfig::morsel_rows`] — never on the worker count or on
//! which worker processed which morsel — the result (including every
//! floating-point partial sum) is bit-for-bit identical whether the
//! pipeline runs on 1 or N workers. [`QueryEngine::execute_serial_with_view`]
//! keeps the classic row-at-a-time loop as the reference implementation
//! the equivalence property suite compares against.
//!
//! Within a morsel, measure reads are pushed down to the chunked column
//! storage: numeric measures go through pre-resolved column indices and
//! typed accessors instead of per-row [`CellValue`] materialisation, and
//! ungrouped all-numeric aggregates run entirely on the vectorised
//! per-chunk kernels of [`crate::kernels`] (one `&[f64]` / `&[i64]` slice
//! pass per chunk, with a validity-mask branch only for chunks that
//! actually contain nulls). The serial reference stays row-at-a-time on
//! purpose — it is the semantic yardstick the fast paths are property-
//! tested against.
//!
//! # Grouped execution: dense ids and selection vectors
//!
//! Grouped queries never touch a string key or clone a key `CellValue`
//! per row on the parallel path. Query resolution walks each group-by
//! attribute's dimension table **once** and builds a dictionary
//! `member id → dense key id` (distinct attribute values get consecutive
//! `u32` ids; the key `CellValue`s live only in the dictionary), so the
//! per-row cost of key building collapses to one array index. Composite
//! keys pack the per-attribute dense ids into a single mixed-radix
//! integer.
//!
//! Per morsel the grouped scan first materialises a **selection vector**
//! (the surviving row indices after liveness, view and filter checks),
//! batch-resolves the foreign-key columns through typed chunk slices
//! ([`crate::Column::gather_members`]) into a parallel slot vector, and
//! then accumulates one measure at a time: when the product of the
//! dictionary sizes stays under [`ExecutionConfig::group_slot_limit`],
//! measures are gathered into compacted `(values, slots)` pairs and fed
//! through the grouped slice kernels of [`crate::kernels`] into flat
//! per-slot vectors ([`crate::aggregate::SlotAccumulator`]); above the
//! limit (or when a measure needs full values, e.g. COUNT DISTINCT) the
//! morsel falls back to an **integer-keyed** hash table. Dense ids are
//! resolved back to `CellValue`s only once, at finalisation.

use crate::aggregate::{Accumulator, SlotAccumulator};
use crate::cancel::CancelToken;
use crate::column::ColumnType;
use crate::cube::{attribute_column, fk_column, member_at, Cube};
use crate::dicts::{attr_key, GroupDictCache, GroupKeys, NULL_KEY};
use crate::error::OlapError;
use crate::hash::FxHashMap;
use crate::kernels::NumericAgg;
use crate::pool::MorselPool;
use crate::query::{AttributeRef, Query, QueryResult, ResultRow};
use crate::table::Table;
use crate::value::CellValue;
use crate::view::{InstanceView, ResolvedViewCheck};
use sdwp_model::AggregationFunction;
use sdwp_obs::{ClassId, MetricsRegistry, SlowQueryRecord, Stage};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default number of fact rows per morsel.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Default cap on the product of group-key dictionary sizes under which
/// the grouped executor uses flat per-slot vectors instead of a hash
/// table (64 Ki slots ≈ a few hundred KiB of slot state per worker).
pub const DEFAULT_GROUP_SLOT_LIMIT: usize = 1 << 16;

/// Tuning knobs of the morsel-parallel executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionConfig {
    /// Number of worker threads; `0` uses the machine's available
    /// parallelism.
    pub workers: usize,
    /// Fact rows per morsel. The morsel size fixes the partial-merge tree,
    /// so two runs with equal `morsel_rows` produce identical results
    /// regardless of `workers`.
    pub morsel_rows: usize,
    /// Capacity (entries) of the query-result cache layered on top by
    /// callers such as `sdwp-core`; `0` disables caching.
    pub cache_capacity: usize,
    /// Cap on the total group cardinality (product of the per-attribute
    /// key-dictionary sizes) under which grouped aggregation runs on flat
    /// per-slot vectors; above it, morsels fall back to an integer-keyed
    /// hash table. `0` disables the flat path entirely.
    pub group_slot_limit: usize,
    /// Per-query execution budget: scan loops check a shared
    /// [`crate::CancelToken`] between morsels and bail with
    /// [`crate::OlapError::DeadlineExceeded`] once it expires. `None`
    /// (the default) lets queries run to completion.
    pub deadline: Option<std::time::Duration>,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            workers: 0,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            cache_capacity: 256,
            group_slot_limit: DEFAULT_GROUP_SLOT_LIMIT,
            deadline: None,
        }
    }
}

impl ExecutionConfig {
    /// A configuration that runs everything on the calling thread.
    pub fn serial() -> Self {
        ExecutionConfig {
            workers: 1,
            ..ExecutionConfig::default()
        }
    }

    /// Sets the worker count (`0` = available parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the morsel size in fact rows (clamped to at least 1).
    pub fn with_morsel_rows(mut self, morsel_rows: usize) -> Self {
        self.morsel_rows = morsel_rows.max(1);
        self
    }

    /// Sets the result-cache capacity (`0` disables caching).
    pub fn with_cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Sets the flat-slot cardinality cap of the grouped executor (`0`
    /// forces the integer-keyed hash fallback for every grouped query).
    pub fn with_group_slot_limit(mut self, group_slot_limit: usize) -> Self {
        self.group_slot_limit = group_slot_limit;
        self
    }

    /// Sets the per-query deadline (`None` = unbounded).
    pub fn with_deadline(mut self, deadline: Option<std::time::Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// The number of worker threads this configuration resolves to.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// How the morsel executor reads one measure.
pub(super) struct MeasurePlan {
    /// The measure column's declaration index in the fact table
    /// (resolved once, so the scan loop never does a name lookup per
    /// row).
    pub(super) column: usize,
    /// Whether the column is numeric (integer / float / date) and the
    /// aggregation can run on bare numbers — the typed fast path. COUNT
    /// DISTINCT needs the full value and always takes the `CellValue`
    /// path.
    pub(super) numeric: bool,
}

/// The resolved, validated parts of a query that every scan shares.
pub(super) struct Resolved<'q> {
    /// The table of the queried fact.
    pub(super) fact_table: &'q Table,
    /// `(column name, aggregation)` per requested measure.
    pub(super) measures: Vec<(String, AggregationFunction)>,
    /// Per-measure read plan for the morsel executor, index-aligned with
    /// `measures`.
    pub(super) plans: Vec<MeasurePlan>,
    /// Allowed member sets per filtered dimension, each with the index
    /// of the fact table's FK column. A `BTreeMap` so the per-row check
    /// order is deterministic across executions.
    pub(super) allowed_members: BTreeMap<&'q str, (usize, BTreeSet<usize>)>,
    /// Whether the whole query can run on the vectorised per-chunk
    /// kernels: no grouping, and every measure on the numeric fast path.
    pub(super) vectorised: bool,
}

/// Group-by state of the **serial reference**: group key string →
/// (key cells, accumulators). The parallel path never builds these
/// strings; it keys by dense integer ids ([`GroupId`]).
type GroupMap = HashMap<String, (Vec<CellValue>, Vec<Accumulator>)>;

/// One group-by attribute pre-resolved for the parallel path: the
/// dimension walked once into a dense dictionary ([`GroupKeys`]), so
/// per-row key building is a single `u32` array index — no `HashMap`
/// probe, no `CellValue` clone, no string append. The dimension-side
/// dictionary is `Arc`-shared: within a batch, and (through
/// [`GroupDictCache`]) across queries until the snapshot generation
/// moves on; only the fact-side FK column index is per-query state.
pub(super) struct GroupKeyDict {
    /// Index of the fact table's FK column for the attribute's dimension.
    pub(super) fk_column: usize,
    /// The shared dimension-side dictionary.
    pub(super) keys: Arc<GroupKeys>,
}

/// The grouped execution plan of one parallel query: per-attribute
/// dictionaries plus the flat-vs-hashed path decision.
pub(super) struct GroupPlan {
    /// Dictionaries in `query.group_by` order.
    pub(super) dicts: Vec<GroupKeyDict>,
    /// Product of the dictionary sizes — the mixed-radix range of a
    /// packed group id. `None` when it overflows `u128` (keys fall back
    /// to [`GroupId::Wide`]).
    pub(super) cardinality: Option<u128>,
    /// `Some(total slots)` when the morsels accumulate into flat per-slot
    /// vectors (cardinality under the configured limit, every measure
    /// numeric); `None` uses the integer-keyed hash fallback.
    pub(super) flat: Option<usize>,
}

impl GroupPlan {
    /// Resolves a group id back to its key `CellValue`s — the only point
    /// where the parallel path materialises key cells, once per surviving
    /// group at finalisation.
    pub(super) fn decode(&self, id: &GroupId) -> Vec<CellValue> {
        match id {
            GroupId::Packed(value) => {
                let mut value = *value;
                let mut cells = vec![CellValue::Null; self.dicts.len()];
                for (cell, dict) in cells.iter_mut().zip(&self.dicts).rev() {
                    let radix = dict.keys.key_values.len() as u128;
                    *cell = dict.keys.key_values[(value % radix) as usize].clone();
                    value /= radix;
                }
                cells
            }
            GroupId::Wide(ids) => ids
                .iter()
                .zip(&self.dicts)
                .map(|(&dense, dict)| dict.keys.key_values[dense as usize].clone())
                .collect(),
        }
    }
}

/// A group key on the parallel path: per-attribute dense ids packed into
/// one mixed-radix integer, or the raw dense-id tuple when the packed
/// range would overflow `u128` (astronomical cardinalities only). Never a
/// string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) enum GroupId {
    Packed(u128),
    Wide(Box<[u32]>),
}

/// The group state of one morsel's partial aggregate. Key cells are
/// never materialised here — the merge phase works entirely on integers
/// and decodes the surviving groups once at finalisation.
pub(super) enum MorselGroups {
    /// Integer group ids → accumulator states, in first-occurrence order
    /// (the vectorised-ungrouped and hashed paths).
    Keyed(Vec<(GroupId, Vec<Accumulator>)>),
    /// The flat dense-slot path: the touched slots in first-occurrence
    /// order plus, per measure, the slots' kernel partials (parallel to
    /// `touched`). Merging is a slot-indexed [`NumericAgg::merge`] into
    /// flat totals — no hashing, no per-group allocation.
    Flat {
        touched: Vec<u32>,
        partials: Vec<Vec<NumericAgg>>,
    },
}

/// The partial aggregate of one morsel.
pub(super) struct MorselPartial {
    pub(super) groups: MorselGroups,
    pub(super) facts_scanned: usize,
    pub(super) facts_matched: usize,
}

/// One resolved member of a query batch.
pub(super) struct BatchQuery<'q> {
    /// Position in the caller's batch — results go back in input order.
    pub(super) index: usize,
    pub(super) query: &'q Query,
    pub(super) resolved: Resolved<'q>,
    pub(super) plan: GroupPlan,
    /// The query's filter class (index into its fact group's class
    /// list).
    pub(super) class: usize,
}

/// One filter class of a fact group: the member queries whose canonical
/// filter identity coincides, so each morsel materialises one selection
/// vector for all of them.
pub(super) struct FilterClass {
    /// Index (into the group's query list) of the representative whose
    /// resolved filter state drives the shared selection. Any member
    /// would do — equal class keys imply equal selection semantics.
    pub(super) rep: usize,
    /// No view restriction and no filters: the selection is exactly the
    /// live-run structure of the morsel, with no per-row work at all,
    /// whichever accumulation path the members take.
    pub(super) unrestricted: bool,
    /// Every member runs the vectorised ungrouped path, which consumes
    /// contiguous runs directly — an unrestricted class then never
    /// materialises the selection vector itself.
    pub(super) runs_only: bool,
}

/// The queries of one batch that aggregate the same fact, sharing that
/// fact's single morsel pass.
pub(super) struct FactGroup<'q> {
    pub(super) fact: &'q str,
    pub(super) fact_table: &'q Table,
    /// The request's view lowered for this fact, once, at plan time —
    /// filter class zero of every morsel's selection, and the slot a
    /// cached visible-row bitmap would fill.
    pub(super) view: ResolvedViewCheck<'q>,
    pub(super) queries: Vec<BatchQuery<'q>>,
    pub(super) classes: Vec<FilterClass>,
}

/// The canonical filter identity of a query: dimension filters sorted
/// by dimension name (they are conjunctive, so order is irrelevant —
/// the same normalisation [`Query::canonical_key`] applies) plus the
/// fact filter. Queries with equal keys resolve to identical allowed
/// member sets against the same snapshot, and therefore select
/// identical rows with identical counters and per-row errors.
pub(super) fn filter_class_key(query: &Query) -> String {
    let mut filters: Vec<&(String, crate::filter::Filter)> =
        query.dimension_filters.iter().collect();
    filters.sort_by(|a, b| a.0.cmp(&b.0));
    format!("{filters:?}|{:?}", query.fact_filter)
}

/// Observability context for an observed execution: where to record
/// per-stage latency samples, the session class they are keyed by, and
/// the snapshot generation (journaled alongside slow queries).
///
/// `Copy` by design — callers pass it down per query; the engine itself
/// stays stateless. A context whose registry is disabled is dropped at
/// the entry point, so the pipeline takes zero clock reads in that case.
#[derive(Debug, Clone, Copy)]
pub struct QueryObs<'a> {
    /// Registry stage samples are recorded into.
    pub registry: &'a MetricsRegistry,
    /// Session class the query runs under (`ClassId::DEFAULT` when the
    /// session is unclassified).
    pub class: ClassId,
    /// Snapshot generation the query executes against.
    pub generation: u64,
}

/// Runs a fact group's morsel loop on the calling thread plus up to
/// `helpers` pool workers, collecting every participant's partials.
/// Collection order across participants is arbitrary —
/// [`merge_partials`] sorts by morsel index, which is what keeps the
/// result bit-identical regardless of how many helpers the scheduler
/// actually dispatched.
fn run_pooled<T: Send>(
    pool: &MorselPool,
    tenant: ClassId,
    helpers: usize,
    cancel: &CancelToken,
    scan: &(impl Fn() -> Vec<T> + Sync),
) -> Vec<T> {
    let collected: std::sync::Mutex<Vec<T>> = std::sync::Mutex::new(Vec::new());
    let work = || {
        let partials = scan();
        collected
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .extend(partials);
    };
    // The cancellable scan contains a participant panic (helper or
    // caller) by poisoning the token instead of re-raising; the
    // executor turns the poisoned token into a typed error after the
    // join, so partials collected here are never merged in that case —
    // recovering the collector lock above is therefore safe.
    pool.scan_cancellable(tenant, helpers, cancel, &work);
    collected
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The journal's outcome marker for an abnormal terminal state.
fn journal_outcome(error: &OlapError) -> &'static str {
    match error {
        OlapError::DeadlineExceeded => sdwp_obs::OUTCOME_DEADLINE_EXCEEDED,
        _ => sdwp_obs::OUTCOME_PANICKED,
    }
}

/// Advances an optional stage clock, returning the microseconds elapsed
/// since the previous lap (0 when timing is off).
#[inline]
fn lap(clock: &mut Option<Instant>) -> u64 {
    match clock {
        Some(prev) => {
            let now = Instant::now();
            let micros = now.duration_since(*prev).as_micros() as u64;
            *prev = now;
            micros
        }
        None => 0,
    }
}

/// Compact description of a query for the slow-query journal.
fn query_shape(query: &Query) -> String {
    let groups: Vec<&str> = query
        .group_by
        .iter()
        .map(|attr| attr.attribute.as_str())
        .collect();
    format!(
        "{} group_by=[{}] measures={} filters={}",
        query.fact,
        groups.join(","),
        query.measures.len(),
        query.dimension_filters.len() + usize::from(query.fact_filter.is_some())
    )
}

/// What a run of the executor reports as. The pipeline is the same
/// either way — a single query is the batch of one — so the label is
/// *data*: it picks the stage family samples are recorded under and the
/// shape a fact group is journaled with, and no caller branches on which
/// of the two it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportAs {
    /// One query: the `Query*` stages, journaled as the query's shape.
    Single,
    /// A batch: the `Batch*` stages, journaled `batch:{fact}×{queries}`.
    Batch,
}

impl ReportAs {
    /// The end-to-end stage a caller wraps around the whole request.
    pub fn total_stage(self) -> Stage {
        match self {
            ReportAs::Single => Stage::QueryTotal,
            ReportAs::Batch => Stage::BatchTotal,
        }
    }

    /// The resolve / scan / merge / finalize stages of this label.
    fn stages(self) -> [Stage; 4] {
        match self {
            ReportAs::Single => [
                Stage::QueryResolve,
                Stage::QueryScan,
                Stage::QueryMerge,
                Stage::QueryFinalize,
            ],
            ReportAs::Batch => [
                Stage::BatchResolve,
                Stage::BatchScan,
                Stage::BatchMerge,
                Stage::BatchFinalize,
            ],
        }
    }

    /// The slow-query journal's description of one fact group.
    fn shape(self, group: &FactGroup<'_>) -> String {
        match self {
            ReportAs::Single => query_shape(group.queries[0].query),
            ReportAs::Batch => format!("batch:{}×{}", group.fact, group.queries.len()),
        }
    }
}

/// Evaluates the error-injecting failpoint `site` (see [`crate::fault`]):
/// `Ok` unless the point is armed with an `Error` action and due, in
/// which case the injected message comes back as the typed error the
/// executor reports for that query or morsel. Constant `Ok(())` without
/// the `failpoints` feature.
#[inline]
fn injected(_site: &str) -> Result<(), OlapError> {
    crate::fail_point!(_site, |message: String| Err(OlapError::InvalidQuery {
        message: format!("injected: {message}"),
    }));
    Ok(())
}

/// Executes [`Query`]s against a [`Cube`], optionally through an
/// [`InstanceView`] (the personalized selection produced by the
/// `SelectInstance` action).
#[derive(Debug, Clone)]
pub struct QueryEngine {
    config: ExecutionConfig,
    /// The morsel worker pool every scan is dispatched on — shared with
    /// other engines ([`QueryEngine::with_pool`]) or private to this one
    /// and its clones ([`QueryEngine::with_config`]). A configuration
    /// that resolves to one worker has a pool of zero helpers, on which
    /// everything runs inline on the calling thread.
    pool: Arc<MorselPool>,
}

impl Default for QueryEngine {
    fn default() -> Self {
        QueryEngine::with_config(ExecutionConfig::default())
    }
}

impl QueryEngine {
    /// Creates a query engine with the default (parallel) configuration.
    pub fn new() -> Self {
        QueryEngine::default()
    }

    /// Creates a query engine with an explicit execution configuration.
    /// A configuration of N workers gets a private [`MorselPool`] of
    /// N − 1 helpers (the calling thread is always the Nth participant),
    /// shut down and joined when the last clone of the engine drops.
    pub fn with_config(config: ExecutionConfig) -> Self {
        let helpers = config.effective_workers().saturating_sub(1);
        QueryEngine::with_pool(config, Arc::new(MorselPool::with_helpers(helpers, None)))
    }

    /// Creates a query engine whose parallel scans run on a shared
    /// [`MorselPool`]: the calling thread always scans, and up to
    /// `workers - 1` pool workers join it subject to the pool's
    /// per-tenant scheduling. Results do not depend on which pool serves
    /// the scan (enforced by the `pool_equivalence` property suite).
    pub fn with_pool(config: ExecutionConfig, pool: Arc<MorselPool>) -> Self {
        QueryEngine { config, pool }
    }

    /// The morsel pool this engine executes on.
    pub fn pool(&self) -> &Arc<MorselPool> {
        &self.pool
    }

    /// The engine's execution configuration.
    pub fn config(&self) -> &ExecutionConfig {
        &self.config
    }

    /// Executes a query without any personalization.
    pub fn execute(&self, cube: &Cube, query: &Query) -> Result<QueryResult, OlapError> {
        self.execute_with_view(cube, query, &InstanceView::unrestricted())
    }

    /// Executes a query through a personalized instance view: only fact
    /// rows visible through the view participate in the aggregation.
    ///
    /// Runs the morsel-parallel pipeline described in the module docs.
    /// The result is deterministic: it depends on the cube, query, view
    /// and [`ExecutionConfig::morsel_rows`], but not on the worker count.
    pub fn execute_with_view(
        &self,
        cube: &Cube,
        query: &Query,
        view: &InstanceView,
    ) -> Result<QueryResult, OlapError> {
        self.execute_with_view_observed(cube, query, view, None, None)
    }

    /// [`QueryEngine::execute_with_view`] with an optional group-key
    /// dictionary cache and optional stage timing. `dicts` names the
    /// cache and the snapshot generation `cube` was published at, so
    /// group-by dictionaries are reused across queries instead of being
    /// rebuilt O(dimension members) each time (`None` builds per query).
    /// When `obs` names an enabled registry, the resolve / scan / merge /
    /// finalize phases are timed individually and recorded as
    /// [`Stage::QueryResolve`]..[`Stage::QueryFinalize`] keyed by the
    /// context's session class, and queries slower than the registry's
    /// journal threshold are journaled with their per-stage breakdown.
    /// With `obs == None` (or a disabled registry) the pipeline runs
    /// without a single clock read.
    pub fn execute_with_view_observed(
        &self,
        cube: &Cube,
        query: &Query,
        view: &InstanceView,
        dicts: Option<(&GroupDictCache, u64)>,
        obs: Option<QueryObs<'_>>,
    ) -> Result<QueryResult, OlapError> {
        let cancel = self.default_token();
        let queries = std::slice::from_ref(query);
        self.execute_cancellable(ReportAs::Single, cube, queries, view, dicts, obs, &cancel)
            .pop()
            .expect("one result per submitted query")
    }

    /// Executes a batch of queries through one personalized view in a
    /// single shared pass over each fact table (the GLADE-style
    /// multi-query scan).
    ///
    /// All queries are resolved against the snapshot up front (sharing
    /// group-key dictionaries per attribute); the queries are grouped by
    /// fact, each fact's rows are scanned **once** morsel-parallel, and
    /// within a morsel one selection vector is materialised per
    /// *filter class* — queries whose canonicalised filter sets coincide
    /// share it — then fed to every member query's own accumulation path
    /// (vectorised / flat-slot / hashed). Per-query partials merge in
    /// morsel-index order, so **every result is bit-identical to the
    /// query's own [`QueryEngine::execute_with_view`] execution** — the
    /// `batch_equivalence` property suite enforces this.
    ///
    /// Per-query errors (resolution or scan) come back in the query's
    /// result slot; one query's failure never poisons its batch mates.
    pub fn execute_batch_with_view(
        &self,
        cube: &Cube,
        queries: &[Query],
        view: &InstanceView,
    ) -> Vec<Result<QueryResult, OlapError>> {
        self.execute_batch_observed(cube, queries, view, None, None)
    }

    /// [`QueryEngine::execute_batch_with_view`] with an optional
    /// group-key dictionary cache (see
    /// [`QueryEngine::execute_with_view_observed`]; within the batch,
    /// dictionaries are shared per attribute even without a cache) and
    /// optional stage timing: resolution of the whole batch records once
    /// as [`Stage::BatchResolve`]; each fact group's shared morsel pass,
    /// per-query merges and materialisation record as
    /// [`Stage::BatchScan`] / [`Stage::BatchMerge`] /
    /// [`Stage::BatchFinalize`]; fact groups slower than the journal
    /// threshold are journaled as `batch:{fact}×{queries}` records.
    pub fn execute_batch_observed(
        &self,
        cube: &Cube,
        queries: &[Query],
        view: &InstanceView,
        dicts: Option<(&GroupDictCache, u64)>,
        obs: Option<QueryObs<'_>>,
    ) -> Vec<Result<QueryResult, OlapError>> {
        let cancel = self.default_token();
        self.execute_cancellable(ReportAs::Batch, cube, queries, view, dicts, obs, &cancel)
    }

    /// A token carrying the configured default deadline, starting now.
    fn default_token(&self) -> CancelToken {
        CancelToken::with_deadline(self.config.deadline.map(|budget| Instant::now() + budget))
    }

    /// The one executor, and the entry the serving layer calls: resolve
    /// → view lowering and filter classes per fact group → one morsel
    /// loop per fact group, dispatched on the pool whatever the worker
    /// count → `merge_partials` → `materialise`, one result per submitted
    /// query, in input order; `report_as` only labels the run. Every
    /// other `execute_*` is this over a default token, a one-query slice
    /// or an unrestricted view.
    ///
    /// `cancel` typically carries the request's deadline, computed by the
    /// caller so it also covers admission waits. Every scan participant
    /// checks it between morsels; a tripped token surfaces as the typed
    /// [`OlapError::DeadlineExceeded`] / [`OlapError::ExecutionPanicked`]
    /// with **no partial state**: nothing was merged, nothing reaches any
    /// cache, and a participant panic is contained to this request
    /// instead of unwinding into the caller. Fact groups run in sequence,
    /// so a token that trips mid-batch fails the current and every
    /// not-yet-scanned group, while completed groups keep their results —
    /// one result per submitted query on every exit path.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_cancellable(
        &self,
        report_as: ReportAs,
        cube: &Cube,
        queries: &[Query],
        view: &InstanceView,
        dicts: Option<(&GroupDictCache, u64)>,
        obs: Option<QueryObs<'_>>,
        cancel: &CancelToken,
    ) -> Vec<Result<QueryResult, OlapError>> {
        // The tenant class keys pool scheduling even when the registry
        // is disabled, so capture it before the enabled filter.
        let tenant = obs.map(|o| o.class).unwrap_or_default();
        let obs = obs.filter(|o| o.registry.is_enabled());
        let [resolve_stage, scan_stage, merge_stage, finalize_stage] = report_as.stages();
        let mut clock = obs.map(|_| Instant::now());
        let mut results: Vec<Option<Result<QueryResult, OlapError>>> =
            (0..queries.len()).map(|_| None).collect();

        // Phase 1: resolve and plan every query up front. Resolution
        // errors land in their result slot immediately; the scan only
        // sees the survivors. Group-key dictionaries are memoised per
        // attribute across the whole batch (and served from `dicts`
        // across batches, when given), and the view is lowered once per
        // fact, when the fact's group is opened.
        let mut base_lookup = keys_lookup(dicts);
        let mut shared_keys: FxHashMap<(String, String, String), Arc<GroupKeys>> =
            FxHashMap::default();
        let mut groups_by_fact: Vec<FactGroup<'_>> = Vec::new();
        let mut fact_index: HashMap<&str, usize> = HashMap::new();
        for (index, query) in queries.iter().enumerate() {
            let mut lookup = |cube: &Cube, attr: &AttributeRef| {
                let key = attr_key(attr);
                if let Some(keys) = shared_keys.get(&key) {
                    return Ok(Arc::clone(keys));
                }
                let keys = base_lookup(cube, attr)?;
                shared_keys.insert(key, Arc::clone(&keys));
                Ok(keys)
            };
            let planned = injected("query.resolve")
                .and_then(|()| resolve(cube, query))
                .and_then(|resolved| {
                    let slot_limit = self.config.group_slot_limit;
                    let plan = build_group_plan(cube, query, &resolved, slot_limit, &mut lookup)?;
                    Ok((resolved, plan))
                });
            let (resolved, plan) = match planned {
                Ok(planned) => planned,
                Err(error) => {
                    results[index] = Some(Err(error));
                    continue;
                }
            };
            let at = match fact_index.entry(query.fact.as_str()) {
                Entry::Occupied(entry) => *entry.get(),
                Entry::Vacant(entry) => match view.resolve_for_fact(cube, &query.fact) {
                    Ok(lowered) => {
                        groups_by_fact.push(FactGroup {
                            fact: query.fact.as_str(),
                            fact_table: resolved.fact_table,
                            view: lowered,
                            queries: Vec::new(),
                            classes: Vec::new(),
                        });
                        *entry.insert(groups_by_fact.len() - 1)
                    }
                    Err(error) => {
                        results[index] = Some(Err(error));
                        continue;
                    }
                },
            };
            groups_by_fact[at].queries.push(BatchQuery {
                index,
                query,
                resolved,
                plan,
                class: 0,
            });
        }

        // Phase 2: assign filter classes within each fact group. Two
        // queries land in the same class exactly when their canonical
        // filter identity coincides — identical allowed member sets,
        // identical counters, identical per-row selection errors — so one
        // selection vector per morsel serves the whole class.
        for group in &mut groups_by_fact {
            let mut class_ids: HashMap<String, usize> = HashMap::new();
            for j in 0..group.queries.len() {
                let key = filter_class_key(group.queries[j].query);
                let class = match class_ids.entry(key) {
                    Entry::Occupied(entry) => {
                        let class = *entry.get();
                        group.classes[class].runs_only &= group.queries[j].resolved.vectorised;
                        class
                    }
                    Entry::Vacant(entry) => {
                        let class = group.classes.len();
                        let member = &group.queries[j];
                        group.classes.push(FilterClass {
                            rep: j,
                            unrestricted: view.is_unrestricted()
                                && member.resolved.allowed_members.is_empty()
                                && member.query.fact_filter.is_none(),
                            runs_only: member.resolved.vectorised,
                        });
                        entry.insert(class);
                        class
                    }
                };
                group.queries[j].class = class;
            }
        }
        let resolve_micros = lap(&mut clock);
        if let Some(o) = obs {
            o.registry
                .record_micros(resolve_stage, o.class, resolve_micros);
        }

        // Phase 3: one morsel-parallel pass per fact group, every
        // participant producing all member queries' partials for its
        // morsels; then per-query merges in morsel order.
        for group in &groups_by_fact {
            let total_rows = group.fact_table.len();
            let morsel_rows = self.config.morsel_rows.max(1);
            let morsel_count = total_rows.div_ceil(morsel_rows);
            let workers = self
                .config
                .effective_workers()
                .clamp(1, morsel_count.max(1));
            let next_morsel = AtomicUsize::new(0);
            let scan_morsels = || {
                scan_assigned_batch_morsels(group, &next_morsel, morsel_count, morsel_rows, cancel)
            };
            // The one dispatch: zero helpers is the pool's inline case.
            let collected = run_pooled(&self.pool, tenant, workers - 1, cancel, &scan_morsels);
            let mut per_query: Vec<Vec<(usize, Result<MorselPartial, OlapError>)>> = group
                .queries
                .iter()
                .map(|_| Vec::with_capacity(morsel_count))
                .collect();
            for (morsel, parts) in collected {
                for (j, part) in parts.into_iter().enumerate() {
                    per_query[j].push((morsel, part));
                }
            }
            let scan_micros = lap(&mut clock);
            // Terminal-state check, not a clock check: a deadline that
            // expires *after* the last morsel was scanned no longer fails
            // the group, but a tripped token means morsel indices were
            // consumed without being scanned — merging would silently
            // produce wrong results. The group's members (and every
            // group not yet scanned) fail with the typed error; groups
            // that already finished keep their results. The abnormal
            // exit is journaled unconditionally (slow or not) with its
            // terminal stage marked, so cancelled and panicked queries
            // never vanish from the operator's view.
            let terminal = cancel.terminal_error();
            // Merge every member's partials first, materialise second, so
            // the two phases time separately (merges and materialisations
            // are independent per member).
            let (mut merge_micros, mut finalize_micros) = (0, 0);
            if terminal.is_none() {
                let merged: Vec<_> = group
                    .queries
                    .iter()
                    .zip(per_query)
                    .map(|(member, partials)| {
                        injected("query.merge")
                            .and_then(|()| merge_partials(&member.resolved, &member.plan, partials))
                    })
                    .collect();
                merge_micros = lap(&mut clock);
                for (member, outcome) in group.queries.iter().zip(merged) {
                    results[member.index] =
                        Some(outcome.map(|(rows, facts_scanned, facts_matched)| {
                            materialise(
                                member.query,
                                &member.resolved,
                                rows,
                                facts_scanned,
                                facts_matched,
                            )
                        }));
                }
                finalize_micros = lap(&mut clock);
            }
            if let Some(o) = obs {
                o.registry.record_micros(scan_stage, o.class, scan_micros);
                if terminal.is_none() {
                    o.registry.record_micros(merge_stage, o.class, merge_micros);
                    o.registry
                        .record_micros(finalize_stage, o.class, finalize_micros);
                }
                let total_micros = resolve_micros + scan_micros + merge_micros + finalize_micros;
                let journal = o.registry.journal();
                if terminal.is_some() || journal.is_slow(total_micros) {
                    journal.record(SlowQueryRecord {
                        shape: report_as.shape(group),
                        class: o.registry.class_name(o.class),
                        generation: o.generation,
                        workers,
                        resolve_micros,
                        scan_micros,
                        merge_micros,
                        finalize_micros,
                        total_micros,
                        outcome: terminal
                            .as_ref()
                            .map_or(sdwp_obs::OUTCOME_COMPLETED, journal_outcome)
                            .to_string(),
                    });
                }
            }
            if let Some(error) = terminal {
                for slot in results.iter_mut().filter(|slot| slot.is_none()) {
                    *slot = Some(Err(error.clone()));
                }
                break;
            }
        }
        results
            .into_iter()
            .map(|result| result.expect("every query resolved or executed"))
            .collect()
    }

    /// Convenience: total of a single measure over the (possibly
    /// personalized) cube, with no grouping.
    pub fn total(
        &self,
        cube: &Cube,
        fact: &str,
        measure: &str,
        view: &InstanceView,
    ) -> Result<f64, OlapError> {
        let query = Query::over(fact).measure(measure);
        let result = self.execute_with_view(cube, &query, view)?;
        Ok(result
            .rows
            .first()
            .and_then(|r| r.values.first())
            .and_then(CellValue::as_number)
            .unwrap_or(0.0))
    }
}

impl QueryEngine {
    /// Executes a query serially, without personalization — the
    /// row-at-a-time reference implementation.
    pub fn execute_serial(&self, cube: &Cube, query: &Query) -> Result<QueryResult, OlapError> {
        self.execute_serial_with_view(cube, query, &InstanceView::unrestricted())
    }

    /// Executes a query through a view with the classic single-threaded
    /// row-at-a-time loop. This is the reference implementation the
    /// parallel-equivalence property suite compares
    /// [`QueryEngine::execute_with_view`] against.
    pub fn execute_serial_with_view(
        &self,
        cube: &Cube,
        query: &Query,
        view: &InstanceView,
    ) -> Result<QueryResult, OlapError> {
        let resolved = resolve(cube, query)?;
        let fact_table = &cube.fact_table(&query.fact)?.table;
        let mut key_cache: Vec<HashMap<usize, CellValue>> =
            vec![HashMap::new(); query.group_by.len()];
        let mut groups: GroupMap = HashMap::new();
        let (facts_scanned, facts_matched) = scan_range(
            cube,
            query,
            view,
            &resolved,
            fact_table,
            0..fact_table.len(),
            &mut key_cache,
            &mut groups,
        )?;
        let rows = groups.into_values().collect();
        Ok(materialise(
            query,
            &resolved,
            rows,
            facts_scanned,
            facts_matched,
        ))
    }
}

/// Validates the query against the cube's schema and pre-computes the
/// allowed member sets of every filtered dimension. Shared by the
/// parallel pipeline and the serial reference so both report identical
/// errors for invalid queries.
pub(super) fn resolve<'q>(cube: &'q Cube, query: &'q Query) -> Result<Resolved<'q>, OlapError> {
    let fact_def = cube
        .schema()
        .fact(&query.fact)
        .ok_or_else(|| OlapError::UnknownElement {
            kind: "fact",
            name: query.fact.clone(),
        })?;
    if query.measures.is_empty() {
        return Err(OlapError::InvalidQuery {
            message: "a query needs at least one measure".into(),
        });
    }

    // Resolve measures: (column name, aggregation) plus the executor's
    // read plan. `Cube` keeps its tables aligned with its schema, so a
    // schema measure (or foreign key, below) without its column is a
    // broken cube: one typed error here, never a per-row fallback.
    let fact_table = &cube.fact_table(&query.fact)?.table;
    let mut measures: Vec<(String, AggregationFunction)> = Vec::new();
    let mut plans: Vec<MeasurePlan> = Vec::new();
    for m in &query.measures {
        let def = fact_def
            .measure(&m.measure)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "measure",
                name: m.measure.clone(),
            })?;
        let aggregation = m.aggregation.unwrap_or(def.aggregation);
        let column = fact_table.index_of(&def.name)?;
        let numeric = aggregation != AggregationFunction::CountDistinct
            && matches!(
                fact_table.column_at(column).column_type(),
                ColumnType::Integer | ColumnType::Float | ColumnType::Date
            );
        measures.push((def.name.clone(), aggregation));
        plans.push(MeasurePlan { column, numeric });
    }

    // Validate group-by references and check the dimensions are reachable.
    for key in &query.group_by {
        if !fact_def.references_dimension(&key.dimension) {
            return Err(OlapError::InvalidQuery {
                message: format!(
                    "fact '{}' is not analysed by dimension '{}'",
                    fact_def.name, key.dimension
                ),
            });
        }
        let dim =
            cube.schema()
                .dimension(&key.dimension)
                .ok_or_else(|| OlapError::UnknownElement {
                    kind: "dimension",
                    name: key.dimension.clone(),
                })?;
        let level = dim
            .level(&key.level)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "level",
                name: key.level.clone(),
            })?;
        if level.attribute(&key.attribute).is_none() {
            return Err(OlapError::UnknownElement {
                kind: "attribute",
                name: format!("{}.{}", key.level, key.attribute),
            });
        }
    }

    // Pre-compute allowed member sets for every filtered dimension, with
    // the FK column index resolved for the parallel path's typed reads.
    let mut allowed_members: BTreeMap<&str, (usize, BTreeSet<usize>)> = BTreeMap::new();
    for (dimension, filter) in &query.dimension_filters {
        if !fact_def.references_dimension(dimension) {
            return Err(OlapError::InvalidQuery {
                message: format!(
                    "filtered dimension '{dimension}' is not referenced by fact '{}'",
                    fact_def.name
                ),
            });
        }
        let table = &cube.dimension_table(dimension)?.table;
        let matching: BTreeSet<usize> = filter.matching_rows(table)?.into_iter().collect();
        match allowed_members.entry(dimension.as_str()) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let intersection: BTreeSet<usize> =
                    e.get().1.intersection(&matching).copied().collect();
                e.get_mut().1 = intersection;
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert((fact_table.index_of(&fk_column(dimension))?, matching));
            }
        }
    }

    let vectorised = query.group_by.is_empty() && plans.iter().all(|p| p.numeric);
    Ok(Resolved {
        fact_table,
        measures,
        plans,
        allowed_members,
        vectorised,
    })
}

/// The group planner's source of dimension-side dictionaries: a plain
/// per-query build, the generation-keyed [`GroupDictCache`], or a
/// batch-local memo layered on top of either. [`GroupKeys::build`] is
/// deterministic, so every source yields interchangeable dictionaries
/// (and, for a broken attribute, the same error).
type KeysLookup<'a> = dyn FnMut(&Cube, &AttributeRef) -> Result<Arc<GroupKeys>, OlapError> + 'a;

pub(super) fn keys_lookup<'a>(
    dicts: Option<(&'a GroupDictCache, u64)>,
) -> impl FnMut(&Cube, &AttributeRef) -> Result<Arc<GroupKeys>, OlapError> + 'a {
    move |cube, attr| match dicts {
        Some((cache, generation)) => cache.get_or_build(generation, cube, attr),
        None => GroupKeys::build(cube, attr).map(Arc::new),
    }
}

/// Builds the grouped execution plan: one dense dictionary per group-by
/// attribute (obtained through `lookup` — built, memoised within a
/// batch, or served from the generation-keyed cache) with its FK column
/// index, plus the flat-vs-hashed decision. An ungrouped query gets the
/// empty plan: no dictionaries, cardinality 1, never flat.
pub(super) fn build_group_plan(
    cube: &Cube,
    query: &Query,
    resolved: &Resolved<'_>,
    group_slot_limit: usize,
    lookup: &mut KeysLookup<'_>,
) -> Result<GroupPlan, OlapError> {
    let mut dicts = Vec::with_capacity(query.group_by.len());
    for attr in &query.group_by {
        dicts.push(GroupKeyDict {
            fk_column: resolved.fact_table.index_of(&fk_column(&attr.dimension))?,
            keys: lookup(cube, attr)?,
        });
    }
    let cardinality = dicts.iter().try_fold(1u128, |product, dict| {
        product.checked_mul(dict.keys.key_values.len() as u128)
    });
    let flat = match cardinality {
        Some(slots)
            if !dicts.is_empty()
                && resolved.plans.iter().all(|p| p.numeric)
                && slots <= group_slot_limit.min(u32::MAX as usize) as u128 =>
        {
            Some(slots as usize)
        }
        _ => None,
    };
    Ok(GroupPlan {
        dicts,
        cardinality,
        flat,
    })
}

/// Scans one contiguous row range, accumulating into `groups` — the
/// row-at-a-time **serial reference**: every value goes through
/// [`Table::get`]'s `CellValue` materialisation. The morsel pipeline's
/// typed and vectorised scans ([`scan_batch_morsel`]) must stay observably
/// equivalent to this loop — same groups, same counters, same error for
/// the same first failing row — which the storage-equivalence and
/// parallel-equivalence property suites enforce.
#[allow(clippy::too_many_arguments)]
fn scan_range(
    cube: &Cube,
    query: &Query,
    view: &InstanceView,
    resolved: &Resolved<'_>,
    fact_table: &Table,
    rows: Range<usize>,
    key_cache: &mut [HashMap<usize, CellValue>],
    groups: &mut GroupMap,
) -> Result<(usize, usize), OlapError> {
    let mut facts_scanned = 0usize;
    let mut facts_matched = 0usize;
    for fact_row in rows {
        // Retracted rows are invisible to every query (and not counted as
        // scanned). Shared by the serial reference and each parallel
        // morsel, so the two executors stay equivalent mid-ingest by
        // construction.
        if !fact_table.is_live(fact_row) {
            continue;
        }
        if !view.allows_fact_row(cube, &query.fact, fact_row)? {
            continue;
        }
        facts_scanned += 1;

        // Dimension filters (the classic name-based member read — the
        // reference the typed parallel path is measured against).
        let mut passes = true;
        for (dimension, (_, allowed)) in &resolved.allowed_members {
            let member = cube.fact_member(&query.fact, fact_row, dimension)?;
            if !allowed.contains(&member) {
                passes = false;
                break;
            }
        }
        if !passes {
            continue;
        }
        // Fact filter.
        if let Some(filter) = &query.fact_filter {
            if !filter.matches(fact_table, fact_row)? {
                continue;
            }
        }
        facts_matched += 1;

        // Build the group key.
        let mut key_cells = Vec::with_capacity(query.group_by.len());
        let mut key_string = String::new();
        for (i, attr) in query.group_by.iter().enumerate() {
            let member = cube.fact_member(&query.fact, fact_row, &attr.dimension)?;
            let cell = match key_cache[i].get(&member) {
                Some(c) => c.clone(),
                None => {
                    let table = &cube.dimension_table(&attr.dimension)?.table;
                    let cell =
                        table.get(member, &attribute_column(&attr.level, &attr.attribute))?;
                    key_cache[i].insert(member, cell.clone());
                    cell
                }
            };
            // Length-prefix each attribute's key so the concatenation is
            // injective even when a text key itself contains the
            // separator — keeping the serial reference's grouping
            // identical to the dense-id parallel path, which keys each
            // attribute independently.
            let key = cell.group_key();
            key_string.push_str(&key.len().to_string());
            key_string.push('\u{1f}');
            key_string.push_str(&key);
            key_cells.push(cell);
        }

        let entry = groups.entry(key_string).or_insert_with(|| {
            (
                key_cells.clone(),
                resolved
                    .measures
                    .iter()
                    .map(|(_, agg)| Accumulator::new(*agg))
                    .collect(),
            )
        });
        for ((column, _), acc) in resolved.measures.iter().zip(entry.1.iter_mut()) {
            let value = fact_table.get(fact_row, column)?;
            acc.update(&value);
        }
    }
    Ok((facts_scanned, facts_matched))
}

/// Materialises one morsel's selection vector — the surviving row ids
/// after liveness, view, dimension-filter and fact-filter checks, with
/// the scanned/matched counters updated in exactly the serial
/// reference's order (so counter and error semantics cannot drift from
/// [`scan_range`]) — and returns the morsel's counters. One call serves
/// every query of a filter class (`rep` is its representative). The view
/// check and the dimension filters read FKs the same way, through
/// [`member_at`] over column indices resolved at plan time.
fn select_rows(
    view: &ResolvedViewCheck<'_>,
    rep: &BatchQuery<'_>,
    rows: Range<usize>,
    sel: &mut Vec<u32>,
) -> Result<(usize, usize), OlapError> {
    let fact_table = rep.resolved.fact_table;
    let mut facts_scanned = 0usize;
    let mut facts_matched = 0usize;
    sel.clear();
    'rows: for fact_row in rows {
        if !fact_table.is_live(fact_row) || !view.allows(fact_table, fact_row)? {
            continue;
        }
        facts_scanned += 1;
        for (fk, allowed) in rep.resolved.allowed_members.values() {
            if !allowed.contains(&member_at(fact_table.column_at(*fk), fact_row)?) {
                continue 'rows;
            }
        }
        if let Some(filter) = &rep.query.fact_filter {
            if !filter.matches(fact_table, fact_row)? {
                continue;
            }
        }
        facts_matched += 1;
        sel.push(fact_row as u32);
    }
    Ok((facts_scanned, facts_matched))
}

/// The integer group id of one fact row, built attribute by attribute in
/// query order (so FK-read errors surface in the serial reference's
/// order): per attribute a typed FK read plus one dictionary index.
/// Members outside the dictionary (impossible through validated loads)
/// read as `Null`, exactly what the serial reference's out-of-range
/// `Table::get` returns.
fn row_group_id(
    plan: &GroupPlan,
    fact_table: &Table,
    fact_row: usize,
) -> Result<GroupId, OlapError> {
    let mut packed: u128 = 0;
    let mut wide: Vec<u32> = Vec::new();
    if plan.cardinality.is_none() {
        wide.reserve(plan.dicts.len());
    }
    for dict in &plan.dicts {
        let member = member_at(fact_table.column_at(dict.fk_column), fact_row)?;
        let dense = dict
            .keys
            .member_to_key
            .get(member)
            .copied()
            .unwrap_or(NULL_KEY);
        match plan.cardinality {
            Some(_) => packed = packed * dict.keys.key_values.len() as u128 + u128::from(dense),
            None => wide.push(dense),
        }
    }
    Ok(match plan.cardinality {
        Some(_) => GroupId::Packed(packed),
        None => GroupId::Wide(wide.into_boxed_slice()),
    })
}

/// The integer-keyed hashed accumulation over a morsel's selection
/// vector: the fallback for group cardinalities above the flat-slot
/// limit and for measures that need full values (COUNT DISTINCT, text
/// columns). Accumulation order is the selection's ascending row order —
/// identical to [`scan_range`]'s — but group keys are dense integer ids
/// fed through the fast integer hasher ([`FxHashMap`]), and numeric
/// measures are read as bare numbers through pre-resolved column
/// indices.
fn accumulate_hashed(
    resolved: &Resolved<'_>,
    plan: &GroupPlan,
    sel: &[u32],
    out: &mut Vec<(GroupId, Vec<Accumulator>)>,
) -> Result<(), OlapError> {
    let fact_table = resolved.fact_table;
    let mut groups: FxHashMap<GroupId, usize> = FxHashMap::default();
    for &row in sel {
        let fact_row = row as usize;
        let id = row_group_id(plan, fact_table, fact_row)?;
        let slot = match groups.entry(id) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let slot = out.len();
                out.push((
                    entry.key().clone(),
                    resolved
                        .measures
                        .iter()
                        .map(|(_, agg)| Accumulator::new(*agg))
                        .collect(),
                ));
                entry.insert(slot);
                slot
            }
        };
        let accumulators = &mut out[slot].1;
        for (measure_plan, acc) in resolved.plans.iter().zip(accumulators.iter_mut()) {
            let column = fact_table.column_at(measure_plan.column);
            if !measure_plan.numeric {
                acc.update(&column.get(fact_row));
            } else if let Some(n) = column.get_number(fact_row) {
                acc.update_number(n);
            }
        }
    }
    Ok(())
}

/// Reusable per-worker buffers of the flat grouped scan, sized once per
/// query (the slot vectors to the plan's total cardinality) and reset
/// between morsels through the touched-slot list — never an
/// O(cardinality) clear per morsel.
struct FlatScratch {
    /// Group slot per selected row (parallel to the selection vector,
    /// which lives outside the scratch: one selection is shared by a
    /// whole filter class).
    slots: Vec<u32>,
    /// FK gather buffer (member ids, parallel to the selection vector).
    members: Vec<u32>,
    /// Gathered non-null measure values and their slots.
    values: Vec<f64>,
    value_slots: Vec<u32>,
    /// Per-slot group-existence flags for the current morsel (a group
    /// exists once a row matches, even if every measure value is null —
    /// the serial reference's semantics).
    slot_seen: Vec<bool>,
    /// Slots touched by the current morsel, in first-occurrence order.
    touched: Vec<u32>,
    /// Per-measure slot-backed accumulator state.
    measures: Vec<SlotAccumulator>,
}

impl FlatScratch {
    fn new(resolved: &Resolved<'_>, slots: usize) -> Self {
        FlatScratch {
            slots: Vec::new(),
            members: Vec::new(),
            values: Vec::new(),
            value_slots: Vec::new(),
            slot_seen: vec![false; slots],
            touched: Vec::new(),
            measures: resolved
                .measures
                .iter()
                .map(|(_, agg)| SlotAccumulator::new(*agg, slots))
                .collect(),
        }
    }
}

/// The flat dense-slot grouped accumulation over a morsel's selection
/// vector. Two passes, each vectorisable:
///
/// 1. resolve the FK columns through typed chunk slices
///    ([`crate::Column::gather_members`]) and fold the per-attribute
///    dense ids into one mixed-radix **slot vector**;
/// 2. per measure, gather the column into a compacted null-free
///    `(values, slots)` pair ([`crate::Column::gather_numeric`]) and run
///    the grouped slice kernel into the per-slot vectors.
///
/// The morsel's partial is then read out of the touched slots in
/// first-occurrence order, as per-measure [`NumericAgg`] columns the
/// merge phase adds slot-wise into live-group totals.
fn accumulate_flat(
    resolved: &Resolved<'_>,
    plan: &GroupPlan,
    sel: &[u32],
    facts_scanned: usize,
    facts_matched: usize,
    scratch: &mut FlatScratch,
) -> Result<MorselPartial, OlapError> {
    let fact_table = resolved.fact_table;
    if sel.is_empty() {
        return Ok(MorselPartial {
            groups: MorselGroups::Flat {
                touched: Vec::new(),
                partials: Vec::new(),
            },
            facts_scanned,
            facts_matched,
        });
    }

    // Slot vector: one typed FK gather per attribute, folded mixed-radix.
    scratch.slots.clear();
    scratch.slots.resize(sel.len(), 0);
    for dict in &plan.dicts {
        scratch.members.clear();
        fact_table
            .column_at(dict.fk_column)
            .gather_members(sel, &mut scratch.members)?;
        let radix = dict.keys.key_values.len() as u32;
        for (slot, &member) in scratch.slots.iter_mut().zip(&scratch.members) {
            let dense = dict
                .keys
                .member_to_key
                .get(member as usize)
                .copied()
                .unwrap_or(NULL_KEY);
            *slot = *slot * radix + dense;
        }
    }

    // Group existence: a slot is born when its first row matches.
    for &slot in &scratch.slots {
        let seen = &mut scratch.slot_seen[slot as usize];
        if !*seen {
            scratch.touched.push(slot);
            *seen = true;
        }
    }

    // One kernel pass per measure over the gathered null-free pairs.
    for (measure_plan, state) in resolved.plans.iter().zip(scratch.measures.iter_mut()) {
        scratch.values.clear();
        scratch.value_slots.clear();
        fact_table.column_at(measure_plan.column).gather_numeric(
            sel,
            &scratch.slots,
            &mut scratch.values,
            &mut scratch.value_slots,
        );
        state.accumulate(&scratch.values, &scratch.value_slots);
    }

    // Drain the touched slots into the morsel partial (per-measure
    // `NumericAgg` columns parallel to the touched list), resetting the
    // slot state for the next morsel.
    let mut partials: Vec<Vec<NumericAgg>> = resolved
        .measures
        .iter()
        .map(|_| Vec::with_capacity(scratch.touched.len()))
        .collect();
    for &slot in &scratch.touched {
        scratch.slot_seen[slot as usize] = false;
        for (state, column) in scratch.measures.iter_mut().zip(partials.iter_mut()) {
            column.push(state.take_slot(slot as usize));
        }
    }
    let touched = std::mem::take(&mut scratch.touched);
    Ok(MorselPartial {
        groups: MorselGroups::Flat { touched, partials },
        facts_scanned,
        facts_matched,
    })
}

/// Merges each measure column's kernel partial over one run of selected
/// rows.
fn accumulate_run(resolved: &Resolved<'_>, partials: &mut [NumericAgg], run: Range<usize>) {
    for (plan, partial) in resolved.plans.iter().zip(partials.iter_mut()) {
        let part = resolved
            .fact_table
            .column_at(plan.column)
            .numeric_agg(run.clone())
            .expect("vectorised plans are numeric");
        partial.merge(&part);
    }
}

/// One accumulator per measure, seeded from the kernels' partial states.
fn absorb_partials(resolved: &Resolved<'_>, partials: &[NumericAgg]) -> Vec<Accumulator> {
    resolved
        .measures
        .iter()
        .zip(partials)
        .map(|((_, agg), partial)| {
            let mut acc = Accumulator::new(*agg);
            acc.absorb(partial);
            acc
        })
        .collect()
}

/// Maximal contiguous runs of a sorted selection vector — the
/// sub-slices the vectorised path feeds the slice kernels. A function of
/// the selection alone, so float partials do not depend on which filter
/// class (or batch) produced it.
fn selection_runs(sel: &[u32]) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut rows = sel.iter().map(|&row| row as usize);
    let Some(first) = rows.next() else {
        return runs;
    };
    let mut start = first;
    let mut prev = first;
    for row in rows {
        if row != prev + 1 {
            runs.push(start..prev + 1);
            start = row;
        }
        prev = row;
    }
    runs.push(start..prev + 1);
    runs
}

/// The vectorised ungrouped partial over pre-computed selected-row runs
/// (counters come from the shared class selection).
fn vectorised_partial(
    resolved: &Resolved<'_>,
    runs: &[Range<usize>],
    facts_scanned: usize,
    facts_matched: usize,
) -> MorselPartial {
    let mut partials: Vec<NumericAgg> = vec![NumericAgg::default(); resolved.plans.len()];
    for run in runs {
        accumulate_run(resolved, &mut partials, run.clone());
    }
    let mut groups = Vec::new();
    if facts_matched > 0 {
        groups.push((GroupId::Packed(0), absorb_partials(resolved, &partials)));
    }
    MorselPartial {
        groups: MorselGroups::Keyed(groups),
        facts_scanned,
        facts_matched,
    }
}

/// The per-participant loop of the pipeline — the one place morsels are
/// claimed: pulls morsel indices from the shared counter until the table
/// is exhausted, scanning each pulled morsel once for the whole fact
/// group (one selection per filter class, one partial per member query).
/// A morsel that errors records the error and the participant moves on,
/// so the merge phase can always report the error of the
/// *lowest-indexed* failing morsel — the same error the serial reference
/// reports.
pub(super) fn scan_assigned_batch_morsels(
    group: &FactGroup<'_>,
    next_morsel: &AtomicUsize,
    morsel_count: usize,
    morsel_rows: usize,
    cancel: &CancelToken,
) -> Vec<(usize, Vec<Result<MorselPartial, OlapError>>)> {
    let mut out = Vec::new();
    // Participant-local selection and flat-slot buffers, sized once and
    // reused across this participant's morsels (the slot state resets
    // through the touched list, not by clearing whole slot vectors).
    let mut sels: Vec<Vec<u32>> = group.classes.iter().map(|_| Vec::new()).collect();
    let mut scratches: Vec<Option<FlatScratch>> = group
        .queries
        .iter()
        .map(|member| {
            member
                .plan
                .flat
                .map(|slots| FlatScratch::new(&member.resolved, slots))
        })
        .collect();
    loop {
        let morsel = next_morsel.fetch_add(1, Ordering::Relaxed);
        if morsel >= morsel_count {
            break;
        }
        // Checked after the bounds check, so a trip observed here means
        // a claimed morsel index goes unscanned — which is exactly what
        // forces the executor's terminal-state bail-out. (A participant
        // arriving after exhaustion must not trip the token: the group
        // completed.)
        if cancel.check().is_err() {
            break;
        }
        if let Err(error) = injected("query.scan.morsel") {
            let failed = group.queries.iter().map(|_| Err(error.clone()));
            out.push((morsel, failed.collect()));
            continue;
        }
        let start = morsel * morsel_rows;
        let end = (start + morsel_rows).min(group.fact_table.len());
        let partials = scan_batch_morsel(group, start..end, &mut sels, &mut scratches);
        out.push((morsel, partials));
    }
    out
}

/// One class's shared selection outcome for one morsel.
struct ClassSelection {
    facts_scanned: usize,
    facts_matched: usize,
    /// Pre-computed live runs, present only for unrestricted classes
    /// (where they double as the selection).
    runs: Option<Vec<Range<usize>>>,
}

/// One morsel of the pipeline: selection once per filter class, then
/// each member query's own accumulation path — the vectorised kernels
/// (no grouping, all measures numeric), the flat dense-slot grouped path
/// or the integer-keyed hashed path — over its class's shared selection.
/// All three are equivalent to [`scan_range`], the serial reference the
/// property suites compare against, by the shared per-row selection
/// semantics and, for floats, by summing in ascending row order within
/// the morsel. Returns one partial per member query, in group order. A
/// selection error is the whole class's error (each member would have
/// hit it at the same row on its own); accumulation errors stay per
/// query.
fn scan_batch_morsel(
    group: &FactGroup<'_>,
    rows: Range<usize>,
    sels: &mut [Vec<u32>],
    scratches: &mut [Option<FlatScratch>],
) -> Vec<Result<MorselPartial, OlapError>> {
    // Phase 1: one selection per filter class.
    let mut selections: Vec<Result<ClassSelection, OlapError>> =
        Vec::with_capacity(group.classes.len());
    for (c, class) in group.classes.iter().enumerate() {
        let rep = &group.queries[class.rep];
        if class.unrestricted {
            // Tombstone gaps are the only boundaries: take the live-run
            // structure directly — no per-row work. With no filters and
            // an unrestricted view `select_rows` selects exactly the live
            // rows (and cannot error), so expanding the runs yields the
            // very vector it would have built.
            let runs = group.fact_table.live_runs(rows.clone());
            let live: usize = runs.iter().map(|run| run.len()).sum();
            if !class.runs_only {
                let sel = &mut sels[c];
                sel.clear();
                for run in &runs {
                    sel.extend(run.clone().map(|row| row as u32));
                }
            }
            selections.push(Ok(ClassSelection {
                facts_scanned: live,
                facts_matched: live,
                runs: Some(runs),
            }));
        } else {
            selections.push(
                select_rows(&group.view, rep, rows.clone(), &mut sels[c]).map(
                    |(facts_scanned, facts_matched)| ClassSelection {
                        facts_scanned,
                        facts_matched,
                        runs: None,
                    },
                ),
            );
        }
    }

    // Phase 2: per-query accumulation over the shared selections.
    group
        .queries
        .iter()
        .zip(scratches.iter_mut())
        .map(|(member, scratch)| {
            let selection = match &selections[member.class] {
                Ok(selection) => selection,
                Err(error) => return Err(error.clone()),
            };
            let (facts_scanned, facts_matched) = (selection.facts_scanned, selection.facts_matched);
            let sel = sels[member.class].as_slice();
            if member.resolved.vectorised {
                let derived;
                let runs: &[Range<usize>] = match &selection.runs {
                    Some(runs) => runs,
                    None => {
                        derived = selection_runs(sel);
                        &derived
                    }
                };
                Ok(vectorised_partial(
                    &member.resolved,
                    runs,
                    facts_scanned,
                    facts_matched,
                ))
            } else if let Some(scratch) = scratch {
                accumulate_flat(
                    &member.resolved,
                    &member.plan,
                    sel,
                    facts_scanned,
                    facts_matched,
                    scratch,
                )
            } else {
                let mut groups = Vec::new();
                accumulate_hashed(&member.resolved, &member.plan, sel, &mut groups)?;
                Ok(MorselPartial {
                    groups: MorselGroups::Keyed(groups),
                    facts_scanned,
                    facts_matched,
                })
            }
        })
        .collect()
}

/// Merges per-morsel partials **in morsel-index order** into final group
/// rows plus the query's counters, per member query — so a query
/// combines its accumulator state (and reports the lowest-indexed
/// morsel's error) the same way whatever batch it ran in. The merge
/// works entirely on integer group ids; key cells are decoded only for
/// the groups that survive.
///
/// On the flat path the merge state is keyed by touched slot (a fast
/// integer-hashed index into first-occurrence-ordered live-group
/// columns), so its cost scales with the groups the morsels actually
/// produced — not with the plan's slot-space cardinality.
#[allow(clippy::type_complexity)]
pub(super) fn merge_partials(
    resolved: &Resolved<'_>,
    plan: &GroupPlan,
    mut partials: Vec<(usize, Result<MorselPartial, OlapError>)>,
) -> Result<(Vec<(Vec<CellValue>, Vec<Accumulator>)>, usize, usize), OlapError> {
    partials.sort_by_key(|(morsel, _)| *morsel);
    let mut facts_scanned = 0usize;
    let mut facts_matched = 0usize;
    let rows: Vec<(Vec<CellValue>, Vec<Accumulator>)> = if plan.flat.is_some() {
        let mut slot_index: FxHashMap<u32, usize> = FxHashMap::default();
        let mut live_slots: Vec<u32> = Vec::new();
        let mut totals: Vec<Vec<NumericAgg>> = vec![Vec::new(); resolved.measures.len()];
        for (_, partial) in partials {
            let partial = partial?;
            facts_scanned += partial.facts_scanned;
            facts_matched += partial.facts_matched;
            let MorselGroups::Flat { touched, partials } = partial.groups else {
                unreachable!("flat plans produce flat partials");
            };
            for (index, &slot) in touched.iter().enumerate() {
                let at = match slot_index.entry(slot) {
                    Entry::Occupied(entry) => *entry.get(),
                    Entry::Vacant(entry) => {
                        let at = live_slots.len();
                        live_slots.push(slot);
                        for total in totals.iter_mut() {
                            total.push(NumericAgg::default());
                        }
                        entry.insert(at);
                        at
                    }
                };
                for (total, partial) in totals.iter_mut().zip(&partials) {
                    total[at].merge(&partial[index]);
                }
            }
        }
        let mut order: Vec<usize> = (0..live_slots.len()).collect();
        order.sort_unstable_by_key(|&at| live_slots[at]);
        order
            .into_iter()
            .map(|at| {
                let accumulators = resolved
                    .measures
                    .iter()
                    .zip(&totals)
                    .map(|((_, agg), total)| {
                        let mut acc = Accumulator::new(*agg);
                        acc.absorb(&total[at]);
                        acc
                    })
                    .collect();
                (
                    plan.decode(&GroupId::Packed(live_slots[at] as u128)),
                    accumulators,
                )
            })
            .collect()
    } else {
        let mut groups: FxHashMap<GroupId, Vec<Accumulator>> = FxHashMap::default();
        for (_, partial) in partials {
            let partial = partial?;
            facts_scanned += partial.facts_scanned;
            facts_matched += partial.facts_matched;
            let MorselGroups::Keyed(keyed) = partial.groups else {
                unreachable!("non-flat plans produce keyed partials");
            };
            for (key, accumulators) in keyed {
                match groups.entry(key) {
                    Entry::Vacant(entry) => {
                        entry.insert(accumulators);
                    }
                    Entry::Occupied(mut entry) => {
                        for (merged, partial_acc) in
                            entry.get_mut().iter_mut().zip(accumulators.iter())
                        {
                            merged.merge(partial_acc);
                        }
                    }
                }
            }
        }
        groups
            .into_iter()
            .map(|(id, accumulators)| (plan.decode(&id), accumulators))
            .collect()
    };
    Ok((rows, facts_scanned, facts_matched))
}

/// Finalises the group rows — `(key cells, accumulators)` pairs from
/// the executor or the serial reference — into a sorted, limited result.
pub(super) fn materialise(
    query: &Query,
    resolved: &Resolved<'_>,
    groups: Vec<(Vec<CellValue>, Vec<Accumulator>)>,
    facts_scanned: usize,
    facts_matched: usize,
) -> QueryResult {
    let mut rows: Vec<ResultRow> = groups
        .into_iter()
        .map(|(keys, accs)| ResultRow {
            keys,
            values: accs.iter().map(Accumulator::finish).collect(),
        })
        .collect();
    rows.sort_by_cached_key(|r| r.keys.iter().map(CellValue::group_key).collect::<Vec<_>>());
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }

    QueryResult {
        key_names: query.group_by.iter().map(|a| a.label()).collect(),
        value_names: resolved
            .measures
            .iter()
            .map(|(name, agg)| format!("{agg}({name})"))
            .collect(),
        rows,
        facts_scanned,
        facts_matched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;
    use crate::query::AttributeRef;
    use sdwp_geometry::Point;
    use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};

    /// Builds a small sales cube: 4 stores in 2 cities, 3 days, one fact
    /// row per (store, day) with UnitSales = store index + 1.
    fn sales_cube() -> Cube {
        let schema = SchemaBuilder::new("SalesDW")
            .dimension(
                DimensionBuilder::new("Store")
                    .simple_level("Store", "name")
                    .simple_level("City", "name")
                    .build(),
            )
            .dimension(
                DimensionBuilder::new("Time")
                    .level(
                        "Day",
                        vec![sdwp_model::Attribute::descriptor(
                            "date",
                            AttributeType::Date,
                        )],
                    )
                    .build(),
            )
            .fact(
                FactBuilder::new("Sales")
                    .measure("UnitSales", AttributeType::Float)
                    .measure_with("StoreCost", AttributeType::Float, AggregationFunction::Avg)
                    .dimension("Store")
                    .dimension("Time")
                    .build(),
            )
            .build()
            .unwrap();
        let mut cube = Cube::new(schema);
        let cities = ["Alicante", "Alicante", "Madrid", "Madrid"];
        for (i, city) in cities.iter().enumerate() {
            cube.add_dimension_member(
                "Store",
                vec![
                    ("Store.name", CellValue::from(format!("S{i}"))),
                    ("City.name", CellValue::from(*city)),
                    (
                        "Store.geometry",
                        CellValue::Geometry(Point::new(i as f64 * 10.0, 0.0).into()),
                    ),
                ],
            )
            .unwrap();
        }
        for d in 0..3 {
            cube.add_dimension_member("Time", vec![("Day.date", CellValue::Date(d))])
                .unwrap();
        }
        for s in 0..4usize {
            for d in 0..3usize {
                cube.add_fact_row(
                    "Sales",
                    vec![("Store", s), ("Time", d)],
                    vec![
                        ("UnitSales", CellValue::Float((s + 1) as f64)),
                        ("StoreCost", CellValue::Float(10.0 * (s + 1) as f64)),
                    ],
                )
                .unwrap();
            }
        }
        cube
    }

    #[test]
    fn rollup_to_city() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        let result = engine.execute(&cube, &query).unwrap();
        assert_eq!(result.len(), 2);
        // Alicante: stores 0 and 1 → (1 + 2) * 3 days = 9.
        let alicante = result.find(&[CellValue::from("Alicante")]).unwrap();
        assert_eq!(alicante.values[0], CellValue::Float(9.0));
        // Madrid: stores 2 and 3 → (3 + 4) * 3 = 21.
        let madrid = result.find(&[CellValue::from("Madrid")]).unwrap();
        assert_eq!(madrid.values[0], CellValue::Float(21.0));
        assert_eq!(result.facts_scanned, 12);
        assert_eq!(result.facts_matched, 12);
    }

    #[test]
    fn grand_total_and_avg() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let query = Query::over("Sales")
            .measure("UnitSales")
            .measure("StoreCost");
        let result = engine.execute(&cube, &query).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.rows[0].values[0], CellValue::Float(30.0));
        // StoreCost uses its default AVG aggregation: mean of 10,20,30,40
        // over 3 days each = 25.
        assert_eq!(result.rows[0].values[1], CellValue::Float(25.0));
        assert_eq!(
            engine
                .total(&cube, "Sales", "UnitSales", &InstanceView::unrestricted())
                .unwrap(),
            30.0
        );
    }

    #[test]
    fn dimension_filter_slice() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "Store", "name"))
            .measure("UnitSales")
            .filter_dimension("Store", Filter::eq("City.name", "Alicante"));
        let result = engine.execute(&cube, &query).unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(result.facts_matched, 6);
    }

    #[test]
    fn spatial_dimension_filter() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        // Stores within 15 units of the origin: stores 0 (x=0) and 1 (x=10).
        let query = Query::over("Sales").measure("UnitSales").filter_dimension(
            "Store",
            Filter::within_km("Store.geometry", Point::new(0.0, 0.0).into(), 15.0),
        );
        let result = engine.execute(&cube, &query).unwrap();
        assert_eq!(result.rows[0].values[0], CellValue::Float(9.0));
    }

    #[test]
    fn view_restriction_is_equivalent_to_filter() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let mut view = InstanceView::unrestricted();
        view.select_dimension_members("Store", vec![0, 1]);
        let query = Query::over("Sales").measure("UnitSales");
        let via_view = engine.execute_with_view(&cube, &query, &view).unwrap();
        let via_filter = engine
            .execute(
                &cube,
                &Query::over("Sales")
                    .measure("UnitSales")
                    .filter_dimension("Store", Filter::eq("City.name", "Alicante")),
            )
            .unwrap();
        assert_eq!(via_view.rows[0].values[0], via_filter.rows[0].values[0]);
        // The view reduces the number of facts even scanned.
        assert_eq!(via_view.facts_scanned, 6);
        assert_eq!(via_filter.facts_scanned, 12);
    }

    #[test]
    fn fact_filter_on_measures() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let query = Query::over("Sales")
            .measure_agg("UnitSales", AggregationFunction::Count)
            .filter_fact(Filter::Attribute {
                column: "UnitSales".into(),
                op: crate::filter::CompareOp::Ge,
                value: CellValue::Float(3.0),
            });
        let result = engine.execute(&cube, &query).unwrap();
        // Stores 2 and 3 have UnitSales 3 and 4, over 3 days each.
        assert_eq!(result.rows[0].values[0], CellValue::Integer(6));
    }

    #[test]
    fn multi_key_grouping_and_limit() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .group_by(AttributeRef::new("Time", "Day", "date"))
            .measure("UnitSales");
        let full = engine.execute(&cube, &query).unwrap();
        assert_eq!(full.len(), 6); // 2 cities x 3 days
        let limited = engine.execute(&cube, &query.clone().limit(4)).unwrap();
        assert_eq!(limited.len(), 4);
    }

    #[test]
    fn error_cases() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        assert!(engine
            .execute(&cube, &Query::over("Returns").measure("UnitSales"))
            .is_err());
        assert!(engine.execute(&cube, &Query::over("Sales")).is_err());
        assert!(engine
            .execute(&cube, &Query::over("Sales").measure("Profit"))
            .is_err());
        assert!(engine
            .execute(
                &cube,
                &Query::over("Sales")
                    .measure("UnitSales")
                    .group_by(AttributeRef::new("Customer", "Customer", "name"))
            )
            .is_err());
        assert!(engine
            .execute(
                &cube,
                &Query::over("Sales")
                    .measure("UnitSales")
                    .group_by(AttributeRef::new("Store", "Country", "name"))
            )
            .is_err());
        assert!(engine
            .execute(
                &cube,
                &Query::over("Sales")
                    .measure("UnitSales")
                    .filter_dimension("Customer", Filter::All)
            )
            .is_err());
    }

    #[test]
    fn parallel_matches_serial_on_the_sales_cube() {
        let cube = sales_cube();
        let serial = QueryEngine::with_config(ExecutionConfig::serial());
        let queries = [
            Query::over("Sales")
                .group_by(AttributeRef::new("Store", "City", "name"))
                .measure("UnitSales")
                .measure("StoreCost"),
            Query::over("Sales")
                .measure_agg("UnitSales", AggregationFunction::CountDistinct)
                .measure_agg("StoreCost", AggregationFunction::Min),
            Query::over("Sales")
                .group_by(AttributeRef::new("Store", "Store", "name"))
                .group_by(AttributeRef::new("Time", "Day", "date"))
                .measure("UnitSales")
                .limit(5),
        ];
        for workers in [1usize, 2, 8] {
            let parallel = QueryEngine::with_config(
                ExecutionConfig::default()
                    .with_workers(workers)
                    .with_morsel_rows(4),
            );
            for query in &queries {
                assert_eq!(
                    parallel.execute(&cube, query).unwrap(),
                    serial.execute_serial(&cube, query).unwrap(),
                    "workers={workers}"
                );
            }
        }
    }

    #[test]
    fn parallel_preserves_view_restrictions() {
        let cube = sales_cube();
        let mut view = InstanceView::unrestricted();
        view.select_dimension_members("Store", vec![0, 1]);
        let query = Query::over("Sales").measure("UnitSales");
        let engine = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(4)
                .with_morsel_rows(2),
        );
        let result = engine.execute_with_view(&cube, &query, &view).unwrap();
        assert_eq!(result.rows[0].values[0], CellValue::Float(9.0));
        assert_eq!(result.facts_scanned, 6);
        assert_eq!(
            result,
            engine
                .execute_serial_with_view(&cube, &query, &view)
                .unwrap()
        );
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let cube = sales_cube();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales")
            .measure_agg("StoreCost", AggregationFunction::Avg);
        let reference = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(1)
                .with_morsel_rows(3),
        )
        .execute(&cube, &query)
        .unwrap();
        for workers in [2usize, 3, 8] {
            let result = QueryEngine::with_config(
                ExecutionConfig::default()
                    .with_workers(workers)
                    .with_morsel_rows(3),
            )
            .execute(&cube, &query)
            .unwrap();
            assert_eq!(result, reference, "workers={workers}");
        }
    }

    #[test]
    fn retracted_rows_are_invisible_to_both_executors() {
        let mut cube = sales_cube();
        // Retract all three rows of store 0 and one row of store 2.
        cube.retract_fact_row("Sales", 0).unwrap();
        cube.retract_fact_row("Sales", 1).unwrap();
        cube.retract_fact_row("Sales", 2).unwrap();
        cube.retract_fact_row("Sales", 6).unwrap();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        let parallel = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(4)
                .with_morsel_rows(2),
        );
        let result = parallel.execute(&cube, &query).unwrap();
        // Alicante keeps only store 1 (2.0 × 3 days); Madrid loses one
        // store-2 row (3+4)*3 - 3 = 18.
        assert_eq!(
            result.find(&[CellValue::from("Alicante")]).unwrap().values[0],
            CellValue::Float(6.0)
        );
        assert_eq!(
            result.find(&[CellValue::from("Madrid")]).unwrap().values[0],
            CellValue::Float(18.0)
        );
        assert_eq!(result.facts_scanned, 8);
        assert_eq!(
            result,
            QueryEngine::with_config(ExecutionConfig::serial())
                .execute_serial(&cube, &query)
                .unwrap()
        );
    }

    #[test]
    fn parallel_reports_serial_errors() {
        let cube = sales_cube();
        let parallel = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(8)
                .with_morsel_rows(1),
        );
        let serial = QueryEngine::with_config(ExecutionConfig::serial());
        let bad_queries = [
            Query::over("Returns").measure("UnitSales"),
            Query::over("Sales"),
            Query::over("Sales").measure("Profit"),
            Query::over("Sales")
                .measure("UnitSales")
                .filter_fact(Filter::eq("ghost", "x")),
        ];
        for query in &bad_queries {
            let a = parallel.execute(&cube, query).unwrap_err();
            let b = serial.execute_serial(&cube, query).unwrap_err();
            assert_eq!(format!("{a}"), format!("{b}"));
        }
    }

    #[test]
    fn execution_config_resolution() {
        assert_eq!(ExecutionConfig::serial().effective_workers(), 1);
        assert_eq!(ExecutionConfig::default().with_workers(3).workers, 3);
        assert_eq!(
            ExecutionConfig::default().with_morsel_rows(0).morsel_rows,
            1
        );
        assert!(ExecutionConfig::default().effective_workers() >= 1);
        assert_eq!(
            ExecutionConfig::default()
                .with_cache_capacity(7)
                .cache_capacity,
            7
        );
        let engine = QueryEngine::with_config(ExecutionConfig::serial());
        assert_eq!(engine.config().workers, 1);
    }

    #[test]
    fn empty_cube_returns_empty_result() {
        let schema = SchemaBuilder::new("DW")
            .dimension(
                DimensionBuilder::new("Store")
                    .simple_level("Store", "name")
                    .build(),
            )
            .fact(
                FactBuilder::new("Sales")
                    .measure("UnitSales", AttributeType::Float)
                    .dimension("Store")
                    .build(),
            )
            .build()
            .unwrap();
        let cube = Cube::new(schema);
        let engine = QueryEngine::new();
        let result = engine
            .execute(
                &cube,
                &Query::over("Sales")
                    .group_by(AttributeRef::new("Store", "Store", "name"))
                    .measure("UnitSales"),
            )
            .unwrap();
        assert!(result.is_empty());
        assert_eq!(result.facts_scanned, 0);
    }

    /// A dashboard-style batch over the sales cube: shared filters,
    /// disjoint filters, grouped (flat), ungrouped (vectorised) and
    /// COUNT DISTINCT (hashed) members.
    fn dashboard_batch() -> Vec<Query> {
        vec![
            Query::over("Sales")
                .group_by(AttributeRef::new("Store", "City", "name"))
                .measure("UnitSales"),
            Query::over("Sales")
                .measure("UnitSales")
                .measure("StoreCost"),
            Query::over("Sales")
                .group_by(AttributeRef::new("Store", "Store", "name"))
                .measure("UnitSales")
                .filter_dimension("Store", Filter::eq("City.name", "Alicante")),
            Query::over("Sales")
                .group_by(AttributeRef::new("Time", "Day", "date"))
                .measure("StoreCost")
                .filter_dimension("Store", Filter::eq("City.name", "Alicante")),
            Query::over("Sales")
                .measure_agg("UnitSales", AggregationFunction::CountDistinct)
                .filter_dimension("Store", Filter::eq("City.name", "Madrid")),
            Query::over("Sales")
                .group_by(AttributeRef::new("Store", "City", "name"))
                .group_by(AttributeRef::new("Time", "Day", "date"))
                .measure("UnitSales")
                .limit(3),
        ]
    }

    #[test]
    fn batch_matches_standalone_execution() {
        let cube = sales_cube();
        let queries = dashboard_batch();
        for workers in [1usize, 2, 8] {
            for slot_limit in [0usize, DEFAULT_GROUP_SLOT_LIMIT] {
                let engine = QueryEngine::with_config(
                    ExecutionConfig::default()
                        .with_workers(workers)
                        .with_morsel_rows(4)
                        .with_group_slot_limit(slot_limit),
                );
                let batched =
                    engine.execute_batch_with_view(&cube, &queries, &InstanceView::unrestricted());
                assert_eq!(batched.len(), queries.len());
                for (query, batched) in queries.iter().zip(&batched) {
                    let standalone = engine.execute(&cube, query).unwrap();
                    assert_eq!(
                        batched.as_ref().unwrap(),
                        &standalone,
                        "workers={workers} slot_limit={slot_limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_respects_views() {
        let cube = sales_cube();
        let mut view = InstanceView::unrestricted();
        view.select_dimension_members("Store", vec![0, 2]);
        let engine = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(4)
                .with_morsel_rows(2),
        );
        let queries = dashboard_batch();
        for (query, batched) in queries
            .iter()
            .zip(engine.execute_batch_with_view(&cube, &queries, &view))
        {
            assert_eq!(
                batched.unwrap(),
                engine.execute_with_view(&cube, query, &view).unwrap()
            );
        }
    }

    #[test]
    fn batch_reports_per_query_errors_without_poisoning_the_batch() {
        let cube = sales_cube();
        let engine = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(2)
                .with_morsel_rows(3),
        );
        let good = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        let bad_resolution = Query::over("Sales").measure("Profit");
        let bad_scan = Query::over("Sales")
            .measure("UnitSales")
            .filter_fact(Filter::eq("ghost", "x"));
        let batch = vec![bad_resolution.clone(), good.clone(), bad_scan.clone()];
        let results = engine.execute_batch_with_view(&cube, &batch, &InstanceView::unrestricted());
        assert_eq!(
            format!("{}", results[0].as_ref().unwrap_err()),
            format!("{}", engine.execute(&cube, &bad_resolution).unwrap_err())
        );
        assert_eq!(
            results[1].as_ref().unwrap(),
            &engine.execute(&cube, &good).unwrap()
        );
        assert_eq!(
            format!("{}", results[2].as_ref().unwrap_err()),
            format!("{}", engine.execute(&cube, &bad_scan).unwrap_err())
        );
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let cube = sales_cube();
        assert!(QueryEngine::new()
            .execute_batch_with_view(&cube, &[], &InstanceView::unrestricted())
            .is_empty());
    }

    #[test]
    fn batch_shares_dictionaries_through_the_cache() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let dicts = crate::dicts::GroupDictCache::new();
        let by_city = |measure: &str| {
            Query::over("Sales")
                .group_by(AttributeRef::new("Store", "City", "name"))
                .measure(measure)
        };
        let batch = vec![by_city("UnitSales"), by_city("StoreCost")];
        let view = InstanceView::unrestricted();
        let first = engine.execute_batch_observed(&cube, &batch, &view, Some((&dicts, 1)), None);
        assert!(first.iter().all(Result::is_ok));
        // One build for the whole batch: the second query's lookup hit
        // the batch-local memo, so the cache saw a single miss.
        let stats = dicts.stats();
        assert_eq!((stats.misses, stats.entries), (1, 1));
        // A later batch at the same generation hits the cross-batch
        // cache instead of rebuilding.
        let second = engine.execute_batch_observed(&cube, &batch, &view, Some((&dicts, 1)), None);
        assert_eq!(first[0].as_ref().unwrap(), second[0].as_ref().unwrap());
        let stats = dicts.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The standalone cached path shares the same dictionaries.
        let standalone = engine
            .execute_with_view_observed(&cube, &batch[0], &view, Some((&dicts, 1)), None)
            .unwrap();
        assert_eq!(&standalone, first[0].as_ref().unwrap());
        assert_eq!(dicts.stats().hits, 2);
    }

    #[test]
    fn dict_cache_generation_semantics() {
        let cube = sales_cube();
        let engine = QueryEngine::new();
        let dicts = crate::dicts::GroupDictCache::new();
        let view = InstanceView::unrestricted();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        let expected = engine.execute(&cube, &query).unwrap();
        let run = |generation: u64| {
            engine
                .execute_with_view_observed(&cube, &query, &view, Some((&dicts, generation)), None)
                .unwrap()
        };
        assert_eq!(run(1), expected);
        assert_eq!(dicts.stats().misses, 1);
        // A dimension-preserving publish keeps the entry hitting.
        dicts.advance(2);
        assert_eq!(run(2), expected);
        assert_eq!((dicts.stats().hits, dicts.stats().misses), (1, 1));
        // A query pinned to an older snapshot builds uncached and leaves
        // the newer entry alone.
        assert_eq!(run(1), expected);
        let stats = dicts.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        // A schema-personalization publish flushes.
        dicts.invalidate(3);
        let stats = dicts.stats();
        assert_eq!((stats.entries, stats.invalidations), (0, 1));
        assert_eq!(run(3), expected);
        assert_eq!(dicts.stats().entries, 1);
        // A lookup at a generation the cache has never seen flushes
        // conservatively and re-seeds.
        assert_eq!(run(5), expected);
        let stats = dicts.stats();
        assert_eq!((stats.entries, stats.invalidations), (1, 2));
    }
}
