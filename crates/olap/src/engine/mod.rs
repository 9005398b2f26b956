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
//! its schema by construction), and every member set becomes a dense
//! bitset indexed by member id — the personalized view lowered to one
//! [`crate::ResolvedViewCheck`] per fact group, each dimension filter
//! evaluated once per distinct `(dimension, filter)` of the request. The
//! morsel loop holds indices and bitsets; it re-decides nothing per row
//! or per morsel.
//!
//! # Selection: the view is filter class zero
//!
//! Within a morsel, selection is bit operations over a shrinking
//! selection vector. The view's selection runs **once per morsel** for
//! the whole fact group — the table's live runs, then per restricted
//! dimension one typed FK gather ([`crate::Column::gather_members`])
//! and a bit test — and every filter class starts from its survivors
//! (what a query counts as *scanned*), applies its own dimension bitsets
//! by the same gather-and-test, then its fact filter row by row. Stages run in the
//! serial reference's per-row order, so a row an earlier stage rejects
//! never has a later key read; a stage that cannot read a row cuts the
//! selection off at that row and the later stages carry on below it, so
//! the morsel reports the error of its lowest failing row. Under a view
//! that leaves the fact alone the view's selection is exactly the live
//! rows, so there is one selection body for every class.
//!
//! Because morsel boundaries and the merge order depend only on the row
//! numbering and [`ExecutionConfig::morsel_rows`] — never on the worker
//! count or on which worker processed which morsel — the result
//! (including every floating-point partial sum) is bit-for-bit identical
//! whether the pipeline runs on 1 or N workers, for a fixed row
//! numbering and `morsel_rows`. A compaction renumbers fact rows, which
//! regroups the same live rows into other morsels, so a floating-point
//! SUM over the same view may move in its last bit across a compaction. [`QueryEngine::execute_serial_with_view`]
//! keeps the classic row-at-a-time loop as the reference implementation
//! the equivalence property suite compares against.
//!
//! Within a morsel, measure reads are pushed down to the chunked column
//! storage: numeric measures go through pre-resolved column indices and
//! typed accessors instead of per-row [`CellValue`](crate::value::CellValue)
//! materialisation. The serial reference stays row-at-a-time on purpose —
//! it is the semantic yardstick the two accumulation paths are
//! property-tested against.
//!
//! # Accumulation: two paths, dense ids and selection vectors
//!
//! Every query is a grouped query — an ungrouped one has a single group
//! (one flat slot, or `GroupId::Packed(0)` when hashed) — and takes one
//! of two accumulation paths, flat dense-slot or integer-keyed hashed.
//! Neither touches a string key or clones a key `CellValue` per row on
//! the parallel path. Query resolution walks each group-by
//! attribute's dimension table **once** and builds a dictionary
//! `member id → dense key id` (distinct attribute values get consecutive
//! `u32` ids; the key `CellValue`s live only in the dictionary), so the
//! per-row cost of key building collapses to one array index. Composite
//! keys pack the per-attribute dense ids into a single mixed-radix
//! integer.
//!
//! Per morsel the scan takes its class's **selection vector**
//! (the surviving row indices after liveness, view and filter stages),
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

mod merge;
mod plan;
mod reference;
mod scan;

use self::merge::{materialise, merge_partials};
use self::plan::{plan_groups, FactGroup};
use self::scan::{scan_assigned_batch_morsels, MorselPartial};
use crate::cancel::CancelToken;
use crate::cube::Cube;
use crate::dicts::GroupDictCache;
use crate::error::OlapError;
use crate::pool::MorselPool;
use crate::query::{Query, QueryResult};
use crate::view::InstanceView;
use sdwp_obs::{ClassId, MetricsRegistry, SlowQueryRecord, Stage};
use std::sync::atomic::AtomicUsize;
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
    /// key-dictionary sizes; 1 for an ungrouped query) under which
    /// aggregation runs on flat per-slot vectors; above it, morsels fall
    /// back to an integer-keyed hash table. `0` disables the flat path
    /// entirely.
    pub group_slot_limit: usize,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            workers: 0,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            cache_capacity: 256,
            group_slot_limit: DEFAULT_GROUP_SLOT_LIMIT,
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

    /// Sets the flat-slot cardinality cap of the executor (`0` forces the
    /// integer-keyed hash fallback for every query, ungrouped included).
    pub fn with_group_slot_limit(mut self, group_slot_limit: usize) -> Self {
        self.group_slot_limit = group_slot_limit;
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
        let cancel = CancelToken::new();
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
    /// (flat-slot / hashed). Per-query partials merge in
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
        let cancel = CancelToken::new();
        self.execute_cancellable(ReportAs::Batch, cube, queries, view, dicts, obs, &cancel)
    }

    /// The one executor, and the entry the serving layer calls: resolve
    /// → view lowering and filter classes per fact group → one morsel
    /// loop per fact group, dispatched on the pool whatever the worker
    /// count → `merge_partials` → `materialise`, one result per submitted
    /// query, in input order; `report_as` only labels the run. Every
    /// other `execute_*` is this over a fresh token, a one-query slice
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

        // Phases 1 and 2: resolve and plan every query, lower the view
        // per fact, assign filter classes — everything decided once.
        let slot_limit = self.config.group_slot_limit;
        let groups_by_fact = plan_groups(cube, queries, view, dicts, slot_limit, &mut results);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;
    use crate::query::AttributeRef;
    use crate::value::CellValue;
    use sdwp_geometry::Point;
    use sdwp_model::{
        AggregationFunction, AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder,
    };

    /// Builds a small sales cube: 4 stores in 2 cities, 3 days, one fact
    /// row per (store, day) with UnitSales = store index + 1 — and a
    /// second fact, Stock, analysed by store alone (one row per store).
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
            .fact(
                FactBuilder::new("Stock")
                    .measure("OnHand", AttributeType::Float)
                    .dimension("Store")
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
            let on_hand = CellValue::Float(0.5 + s as f64);
            cube.add_fact_row("Stock", vec![("Store", s)], vec![("OnHand", on_hand)])
                .unwrap();
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
    /// disjoint filters, grouped (flat), ungrouped (one flat slot) and
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

    /// One walk of the dimension table per distinct `(dimension,
    /// filter)` of a request: the two Alicante panels hold the very same
    /// lowered set, the Madrid panel its own.
    #[test]
    fn a_batch_lowers_each_distinct_dimension_filter_once() {
        let cube = sales_cube();
        let (queries, view) = (dashboard_batch(), InstanceView::unrestricted());
        let mut results: Vec<_> = queries.iter().map(|_| None).collect();
        let groups = plan_groups(
            &cube,
            &queries,
            &view,
            None,
            DEFAULT_GROUP_SLOT_LIMIT,
            &mut results,
        );
        let lowered: Vec<_> = groups[0]
            .queries
            .iter()
            .filter_map(|member| member.resolved.allowed_members.get("Store"))
            .map(|(_, allowed)| allowed)
            .collect();
        assert_eq!(lowered.len(), 3);
        assert!(Arc::ptr_eq(lowered[0], lowered[1]));
        assert!(!Arc::ptr_eq(lowered[0], lowered[2]));
        assert!(lowered[0].contains(0) && lowered[0].contains(1) && !lowered[0].contains(2));
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

    /// A view that restricts only dimensions the queried fact is not
    /// analysed by — `Time` for `Stock`, and one no fact references —
    /// lowers to nothing for that fact, so the view's selection is the
    /// live runs as they are and its filterless queries answer exactly as
    /// without a view.
    #[test]
    fn a_view_restricting_elsewhere_keeps_the_live_run_path() {
        let mut cube = sales_cube();
        cube.retract_fact_row("Stock", 1).unwrap();
        let mut view = InstanceView::unrestricted();
        view.select_dimension_members("Time", vec![0]);
        view.select_dimension_members("Elsewhere", vec![1]);
        assert!(!view.is_unrestricted());
        let queries = [
            Query::over("Stock").measure("OnHand"),
            Query::over("Stock")
                .group_by(AttributeRef::new("Store", "City", "name"))
                .measure("OnHand"),
            Query::over("Sales").measure("UnitSales"),
        ];

        let mut results: Vec<_> = queries.iter().map(|_| None).collect();
        let groups = plan_groups(
            &cube,
            &queries,
            &view,
            None,
            DEFAULT_GROUP_SLOT_LIMIT,
            &mut results,
        );
        let planned: Vec<(&str, bool)> = groups
            .iter()
            .map(|g| (g.fact, g.view.is_unrestricted()))
            .collect();
        assert_eq!(planned, [("Stock", true), ("Sales", false)]);

        let engine = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(2)
                .with_morsel_rows(2),
        );
        let open = InstanceView::unrestricted();
        for query in &queries[..2] {
            let seen = engine.execute_with_view(&cube, query, &view).unwrap();
            assert_eq!(seen, engine.execute_with_view(&cube, query, &open).unwrap());
            assert_eq!(
                seen,
                engine
                    .execute_serial_with_view(&cube, query, &view)
                    .unwrap()
            );
            assert_eq!((seen.facts_scanned, seen.facts_matched), (3, 3));
        }
        assert_eq!(view.visible_fact_count(&cube, "Stock").unwrap(), 3);
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 4);
    }

    /// An ungrouped aggregate is a grouped one with a single group: all
    /// numeric, it plans one flat slot; COUNT DISTINCT, or a slot limit
    /// of zero, plans it hashed. Every plan answers as the serial
    /// reference does, under an open and a restricted view, with no
    /// matching row (no result row) and over only null measures (one
    /// result row).
    #[test]
    fn an_ungrouped_aggregate_plans_as_one_group() {
        let mut cube = sales_cube();
        // Stock row 4: a fifth store, with a null OnHand.
        cube.add_dimension_member(
            "Store",
            vec![
                ("Store.name", CellValue::from("S4")),
                ("City.name", CellValue::from("Madrid")),
            ],
        )
        .unwrap();
        cube.add_fact_row("Stock", vec![("Store", 4)], vec![])
            .unwrap();
        let numeric = Query::over("Stock")
            .measure("OnHand")
            .measure_agg("OnHand", AggregationFunction::Min);
        let distinct =
            Query::over("Stock").measure_agg("OnHand", AggregationFunction::CountDistinct);
        let cases = [
            (&numeric, DEFAULT_GROUP_SLOT_LIMIT, Some(1)),
            (&distinct, DEFAULT_GROUP_SLOT_LIMIT, None),
            (&numeric, 0, None),
        ];

        let open = InstanceView::unrestricted();
        let mut stores = InstanceView::unrestricted();
        stores.select_dimension_members("Store", vec![0, 3]);
        let mut null_row = InstanceView::unrestricted();
        null_row.select_dimension_members("Store", vec![4]);
        for (query, slot_limit, flat) in cases {
            let mut results = vec![None];
            let queries = std::slice::from_ref(query);
            let groups = plan_groups(&cube, queries, &open, None, slot_limit, &mut results);
            assert_eq!(groups[0].queries[0].plan.flat, flat, "{query:?}");

            let engine = QueryEngine::with_config(
                ExecutionConfig::default()
                    .with_workers(2)
                    .with_morsel_rows(2)
                    .with_group_slot_limit(slot_limit),
            );
            let nowhere = query
                .clone()
                .filter_dimension("Store", Filter::eq("City.name", "Nowhere"));
            for view in [&open, &stores, &null_row] {
                for (query, rows) in [(query, 1), (&nowhere, 0)] {
                    let result = engine.execute_with_view(&cube, query, view).unwrap();
                    assert_eq!(result.len(), rows, "{query:?}");
                    assert_eq!(
                        result,
                        engine.execute_serial_with_view(&cube, query, view).unwrap()
                    );
                }
            }
            let nulls = engine.execute_with_view(&cube, query, &null_row).unwrap();
            assert_eq!(nulls.facts_matched, 1);
            assert!(nulls.rows[0].values.iter().all(|v| matches!(
                v,
                CellValue::Null | CellValue::Float(0.0) | CellValue::Integer(0)
            )));
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
