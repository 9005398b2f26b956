//! The personalization engine: the executable version of the paper's Fig. 1
//! process, refactored for concurrent multi-session serving.
//!
//! # Concurrency model
//!
//! One engine instance serves one spatial data warehouse and any number of
//! users and sessions **from many threads at once** — every public method
//! takes `&self`, so the engine can sit behind an `Arc` and be shared by a
//! pool of web workers. Internally the state splits three ways:
//!
//! * **Read path (lock-free-ish).** Queries and reports run against an
//!   immutable cube snapshot published through [`VersionedSwap`]; they
//!   never wait for rule firing. There is one read body — a query is a
//!   batch of one, labelled [`ReportAs`] for the metrics — and per-session
//!   state lives in a sharded [`SessionManager`], so sessions only contend
//!   when they hash to the same shard. A session's view restricts
//!   dimension members only, so a query takes a copy of it and nothing
//!   else from the write side: a compaction renumbers fact rows without
//!   touching any view.
//! * **Write master.** Rule firing needs `&mut Cube` and ingestion applies
//!   deltas, so a single `Mutex<Cube>` master copy serialises both. Every
//!   snapshot leaves through one door, `CubeState::publish`, which
//!   hot-swaps a master clone in and decides what the caches keep;
//!   additive-only personalization (layers and spatial levels only grow)
//!   keeps old snapshots valid for their readers. A compaction publishes,
//!   then trims the remap chain that id-addressed ingest producers read.
//! * **Rules and parameters.** The in-service rule set is one
//!   `VersionedSwap<CompiledRuleSet>` snapshot cell, hot-swapped whole, so
//!   rules can be registered while sessions are live, and
//!   the compiled set is the only evaluator events fire through — the
//!   AST interpreter in `sdwp_prml::eval` is the reference the
//!   equivalence suites compare it against, never a serving mode.
//!   Designer parameters sit behind a `RwLock`.
//!
//! [`sdwp_user::ProfileStore`] was already thread-safe in the seed; this
//! module makes the rest of the stack match it.

use crate::error::CoreError;
use crate::report::PersonalizationReport;
use crate::session::{SessionManager, SessionState};
use crate::sync::VersionedSwap;
use parking_lot::{Mutex, RwLock};
use sdwp_ingest::{
    BatchOutcome, CompactionOutcome, CompactionPolicy, CubeSink, DeltaBatch, IngestConfig,
    IngestHandle, IngestPipeline, IngestStats,
};
use sdwp_model::{Schema, SchemaDiff};
use sdwp_obs::{ClassId, MetricsRegistry, MetricsSnapshot, Stage};
use sdwp_olap::{
    AdmissionGuard, AdmitError, CacheKey, CacheStats, CancelToken, Cube, DictCacheStats,
    ExecutionConfig, FactTableStats, GroupDictCache, InstanceView, MorselPool, OlapError, Query,
    QueryCache, QueryEngine, QueryObs, QueryResult, ReportAs, TenantPolicy,
};
use sdwp_prml::{
    CompiledRuleSet, EvalContext, FireReport, LayerSource, NoExternalLayers, Rule, RuleClass,
    RuntimeEvent,
};
use sdwp_user::{LocationContext, ProfileStore, Session, SessionId, UserProfile};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The shared cube state: the mutex-guarded write master, the published
/// immutable snapshot and the generation-keyed caches — everything both
/// write paths (rule firing and streaming ingestion) coordinate through.
/// Held in an `Arc` so the ingest worker thread can keep writing through
/// it with a `'static` handle while the engine serves readers. Snapshots
/// leave through one door, [`CubeState::publish`], which alone decides
/// what a publication invalidates.
pub(crate) struct CubeState {
    /// Write master; rule firing and delta application lock it.
    pub(crate) master: Mutex<Cube>,
    /// Published read snapshot; queries and reports load it. Every publish
    /// bumps the generation, which keys (and invalidates) the result cache.
    pub(crate) snapshot: VersionedSwap<Cube>,
    /// Snapshot-keyed result cache in front of the executor.
    pub(crate) result_cache: QueryCache,
    /// Generation-keyed group-key dictionary cache shared by every query
    /// (and every member of a batch) against a snapshot.
    pub(crate) dict_cache: GroupDictCache,
    /// The metrics registry both write paths record ingest-stage spans
    /// into (shared with the engine, which records the query/rule/session
    /// stages). Ingest always records under the default class — epochs
    /// serve every tenant.
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// Remap floors registered by external id-addressed producers, keyed
    /// `(producer, fact) → anchored compaction version`. The compaction
    /// trimmer never drops transitions below the per-fact minimum, so a
    /// producer that lags behind the compaction cadence can still
    /// translate its stale row ids instead of failing with
    /// `ProducerLagged`. Producers are the remap chain's only readers:
    /// views name dimension members, which compaction never renumbers.
    pub(crate) producer_floors: Mutex<BTreeMap<(String, String), u64>>,
}

/// What a publication may have changed since the previous snapshot, and
/// therefore which cached state may outlive it.
pub(crate) enum PublishScope<'a> {
    /// Only the content of these fact tables (ingest epoch, compaction,
    /// worker restart): dimension tables and the schema are untouched.
    Facts(&'a BTreeSet<String>),
    /// Anything: rule firing personalized the schema, which may have
    /// grown dimension tables and layers.
    Schema,
}

impl CubeState {
    /// Publishes a clone of `master` as the next snapshot generation and
    /// settles both caches against it — the only place a snapshot is
    /// stored or a cache is told about one. [`PublishScope::Facts`] drops
    /// results over the named facts, re-keys the rest (they keep hitting)
    /// and keeps the group-key dictionaries, which are built from
    /// dimension tables only; after [`PublishScope::Schema`] nothing
    /// below the new generation survives in either cache.
    ///
    /// `master` is the caller's *held* lock guard, so publications never
    /// interleave and none is overtaken by another's snapshot or cache
    /// flush.
    pub(crate) fn publish(&self, master: &Cube, scope: PublishScope<'_>) -> u64 {
        let generation = self.snapshot.store(Arc::new(master.clone()));
        match scope {
            PublishScope::Facts(changed) => {
                self.result_cache.publish(generation, changed);
                self.dict_cache.advance(generation);
            }
            PublishScope::Schema => {
                self.result_cache.invalidate_generations_below(generation);
                self.dict_cache.invalidate(generation);
            }
        }
        generation
    }

    /// Compacts one fact table of the held master: rewrite, publish,
    /// then trim the remap chain to the minimum of the producers' floors
    /// and the version before this compaction. Producers following the
    /// re-anchor protocol read the chain after their next flush, so the
    /// latest transition always stays; readers never consult the chain,
    /// because views name dimension members, not fact rows.
    fn compact(
        &self,
        master: &mut Cube,
        stats: FactTableStats,
    ) -> Result<CompactionOutcome, OlapError> {
        let _compact = self.metrics.span(Stage::IngestCompact, ClassId::DEFAULT);
        sdwp_olap::fail_point!("ingest.compact");
        master.compact_fact_table(&stats.fact)?;
        // The rewrite preserves live-row content, but conservatively
        // drop cached results over this fact exactly as an epoch would.
        let changed = BTreeSet::from([stats.fact.clone()]);
        let generation = self.publish(master, PublishScope::Facts(&changed));
        let floor = self
            .producer_floors
            .lock()
            .iter()
            .filter(|((_, fact), _)| *fact == stats.fact)
            .fold(stats.compactions, |floor, (_, &version)| floor.min(version));
        master.trim_fact_remaps(&stats.fact, floor)?;
        Ok(CompactionOutcome {
            fact: stats.fact,
            rows_before: stats.total_rows,
            live_rows: stats.live_rows,
            generation,
        })
    }
}

/// The ingest side of the engine: batches are applied to the master under
/// its lock (atomically — validate first, then mutate), and epochs,
/// compactions and worker restarts go out through the same
/// [`CubeState::publish`] rule firing uses, so the generation-keyed caches
/// and in-flight queries keep working unchanged.
impl CubeSink for CubeState {
    fn apply_batch(&self, batch: &DeltaBatch) -> Result<BatchOutcome, OlapError> {
        let mut master = self.master.lock();
        let validate = self.metrics.span(Stage::IngestValidate, ClassId::DEFAULT);
        batch.validate(&master)?;
        validate.finish();
        let _apply = self.metrics.span(Stage::IngestApply, ClassId::DEFAULT);
        Ok(batch.apply(&mut master))
    }

    fn publish_epoch(&self, changed_facts: &BTreeSet<String>) -> u64 {
        let _publish = self.metrics.span(Stage::IngestPublish, ClassId::DEFAULT);
        let master = self.master.lock();
        self.publish(&master, PublishScope::Facts(changed_facts))
    }

    fn maybe_compact(
        &self,
        policy: &CompactionPolicy,
    ) -> Vec<Result<CompactionOutcome, OlapError>> {
        let mut master = self.master.lock();
        master
            .fact_table_stats()
            .into_iter()
            .filter(|s| policy.should_compact(s.total_rows, s.live_rows))
            .map(|stats| self.compact(&mut master, stats))
            .collect()
    }

    fn fact_stats(&self) -> Vec<FactTableStats> {
        self.master.lock().fact_table_stats()
    }

    /// Supervisor restart hook: the panicked worker may have applied
    /// batches it never published, and its epoch bookkeeping is gone —
    /// republish the master so nothing applied lingers master-only.
    /// Which facts the lost epoch touched is unknowable, so every fact
    /// counts as changed.
    fn on_worker_restart(&self) {
        let master = self.master.lock();
        let changed: BTreeSet<String> = master
            .fact_table_stats()
            .into_iter()
            .map(|stats| stats.fact)
            .collect();
        self.publish(&master, PublishScope::Facts(&changed));
    }

    fn set_producer_floor(&self, producer: &str, fact: &str, version: u64) {
        self.producer_floors
            .lock()
            .insert((producer.to_string(), fact.to_string()), version);
    }

    fn clear_producer_floor(&self, producer: &str) {
        self.producer_floors
            .lock()
            .retain(|(floor_producer, _), _| floor_producer != producer);
    }
}

/// How long a read-your-writes query waits for the snapshot to catch up
/// with the session's pinned generation before refusing. Generous against
/// the default epoch interval (50 ms) while still bounding worst-case
/// query latency.
const READ_YOUR_WRITES_WAIT: std::time::Duration = std::time::Duration::from_millis(500);

/// A handle to a started session: the id plus the report of what the
/// personalization rules did at session start.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    /// The session id (use it for queries, selections and logout).
    pub id: SessionId,
    /// What happened when the session-start rules fired.
    pub report: PersonalizationReport,
}

/// The personalization engine.
///
/// Schema personalization mutates the engine's cube schema (additively —
/// layers and spatial levels only grow), while instance personalization is
/// kept per session in an [`InstanceView`], so different decision makers
/// hold different selections concurrently. See the module docs for the
/// locking discipline that lets all of this happen through `&self`.
pub struct PersonalizationEngine {
    /// The shared cube state (write master, published snapshot, result
    /// cache) — also the [`CubeSink`] the ingest pipeline writes through.
    cube_state: Arc<CubeState>,
    original_schema: Schema,
    profiles: ProfileStore,
    /// The in-service compiled rule set — the one value every firing
    /// loads, hot-swapped whole on registration and reload.
    rules: VersionedSwap<CompiledRuleSet>,
    /// Serialises rule registration (load → validate → store).
    rules_write: Mutex<()>,
    parameters: RwLock<BTreeMap<String, f64>>,
    layer_source: Arc<dyn LayerSource + Send + Sync>,
    sessions: SessionManager,
    /// The executor. Its [`QueryEngine::pool`] is the engine-lifetime
    /// morsel worker pool every scan is dispatched on, with its tenant
    /// scheduler and admission controller — present at every worker
    /// count (a single-worker executor's pool has zero helpers: scans run
    /// inline, policies and admission budgets apply all the same).
    query_engine: QueryEngine,
    /// The streaming-ingestion pipeline, started lazily by
    /// [`PersonalizationEngine::start_ingest`]. Shut down (drained,
    /// final epoch published, worker joined) when the engine drops.
    ingest: Mutex<Option<IngestPipeline>>,
    /// The metrics registry every stage span and latency histogram of
    /// this engine records into (shared with [`CubeState`] for the
    /// ingest-side stages). Enabled by default; build the engine with
    /// [`PersonalizationEngine::with_observability`] and
    /// [`MetricsRegistry::disabled`] to opt out entirely.
    metrics: Arc<MetricsRegistry>,
}

impl PersonalizationEngine {
    /// Creates an engine over a cube, with no external layer source.
    pub fn new(cube: Cube) -> Self {
        PersonalizationEngine::with_layer_source(cube, Arc::new(NoExternalLayers))
    }

    /// Creates an engine over a cube with an external layer source (the
    /// provider of airport / train / … layer instances).
    pub fn with_layer_source(cube: Cube, layer_source: Arc<dyn LayerSource + Send + Sync>) -> Self {
        PersonalizationEngine::with_execution_config(cube, layer_source, ExecutionConfig::default())
    }

    /// Creates an engine with an explicit executor configuration (worker
    /// count, morsel size, result-cache capacity). Metrics are recorded
    /// into a fresh enabled registry.
    pub fn with_execution_config(
        cube: Cube,
        layer_source: Arc<dyn LayerSource + Send + Sync>,
        config: ExecutionConfig,
    ) -> Self {
        PersonalizationEngine::with_observability(
            cube,
            layer_source,
            config,
            Arc::new(MetricsRegistry::new()),
        )
    }

    /// Creates an engine with an explicit executor configuration and an
    /// explicit metrics registry — pass [`MetricsRegistry::disabled`] to
    /// run with zero recording cost, or a shared registry to aggregate
    /// several engines into one exposition.
    pub fn with_observability(
        cube: Cube,
        layer_source: Arc<dyn LayerSource + Send + Sync>,
        config: ExecutionConfig,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        let original_schema = cube.schema().clone();
        let snapshot = VersionedSwap::from_pointee(cube.clone());
        // The querying thread always scans, so the pool only needs
        // `workers - 1` long-lived helpers (zero for a one-worker
        // executor) — built here rather than by
        // `QueryEngine::with_config` so scheduler waits record into this
        // engine's registry.
        let helpers = config.effective_workers().saturating_sub(1);
        let pool = MorselPool::with_helpers(helpers, Some(Arc::clone(&metrics)));
        let query_engine = QueryEngine::with_pool(config, Arc::new(pool));
        PersonalizationEngine {
            cube_state: Arc::new(CubeState {
                master: Mutex::new(cube),
                snapshot,
                result_cache: QueryCache::new(config.cache_capacity),
                dict_cache: GroupDictCache::new(),
                metrics: Arc::clone(&metrics),
                producer_floors: Mutex::new(BTreeMap::new()),
            }),
            original_schema,
            profiles: ProfileStore::new(),
            rules: VersionedSwap::from_pointee(CompiledRuleSet::default()),
            rules_write: Mutex::new(()),
            parameters: RwLock::new(BTreeMap::new()),
            layer_source,
            sessions: SessionManager::new(),
            query_engine,
            ingest: Mutex::new(None),
            metrics,
        }
    }

    /// Registers (or replaces) a decision maker's profile.
    pub fn register_user(&self, profile: UserProfile) {
        self.profiles.upsert(profile);
    }

    /// The profile store (shared, thread-safe).
    pub fn profiles(&self) -> &ProfileStore {
        &self.profiles
    }

    /// The session manager (shared, thread-safe).
    pub fn sessions(&self) -> &SessionManager {
        &self.sessions
    }

    /// Adds PRML rules from text, validating and compiling them (as a
    /// set, together with the already-registered rules) against the
    /// cube's schema. Safe to call while sessions are being served:
    /// firing threads keep using the rule-set snapshot they loaded.
    pub fn add_rules_text(&self, text: &str) -> Result<Vec<RuleClass>, CoreError> {
        let new_rules = sdwp_prml::parse_rules(text)?;
        let _guard = self.rules_write.lock();
        let mut all: Vec<Rule> = self.rules.load().source().to_vec();
        let existing = all.len();
        all.extend(new_rules);
        let classes = self.install_rules(&all)?;
        Ok(classes[existing..].to_vec())
    }

    /// Replaces the *entire* rule set with the rules parsed from `text`.
    ///
    /// The swap is atomic: one `VersionedSwap` store of the compiled set,
    /// so in-flight firings keep the set they loaded, new firings see the
    /// new one, and any parse, typecheck or compile failure leaves the
    /// in-service rule set untouched and serving.
    pub fn reload_rules_text(&self, text: &str) -> Result<Vec<RuleClass>, CoreError> {
        let rules = sdwp_prml::parse_rules(text)?;
        let _guard = self.rules_write.lock();
        self.install_rules(&rules)
    }

    /// Validates, compiles and publishes a full rule set. Caller holds
    /// `rules_write`; on any failure the in-service set stays untouched.
    fn install_rules(&self, rules: &[Rule]) -> Result<Vec<RuleClass>, CoreError> {
        let compiled = {
            let master = self.cube_state.master.lock();
            CompiledRuleSet::compile(rules, master.schema())?
        };
        let classes = compiled.classes();
        sdwp_olap::fail_point!("rules.install", |message: String| Err(CoreError::Rule(
            sdwp_prml::PrmlError::Check {
                rule: "rules.install".into(),
                message: format!("injected: {message}"),
            }
        )));
        self.rules.store(Arc::new(compiled));
        Ok(classes)
    }

    /// Defines a designer parameter referenced by rules (e.g. `threshold`).
    pub fn set_parameter(&self, name: impl Into<String>, value: f64) {
        self.parameters
            .write()
            .insert(name.into().to_lowercase(), value);
    }

    /// The in-service compiled rule set — the form every event fires
    /// through (its `source()` lists the parsed rules it was built from).
    pub fn compiled_rules(&self) -> Arc<CompiledRuleSet> {
        self.rules.load()
    }

    /// The current (possibly personalized) cube snapshot. The returned
    /// `Arc` stays consistent however much later rule firing personalizes
    /// the engine further.
    pub fn cube(&self) -> Arc<Cube> {
        self.cube_state.snapshot.load()
    }

    /// The difference between the original MD schema and the current
    /// (personalized) GeoMD schema — i.e. what the schema rules did.
    pub fn schema_diff(&self) -> SchemaDiff {
        SchemaDiff::between(
            &self.original_schema,
            self.cube_state.snapshot.load().schema(),
        )
    }

    /// Starts an analysis session for a registered user, firing the
    /// SessionStart rules (schema personalization first, then instance
    /// selection) and building the session's personalized view. The
    /// session records latency samples under the default session class.
    pub fn start_session(
        &self,
        user_id: &str,
        location: Option<LocationContext>,
    ) -> Result<SessionHandle, CoreError> {
        self.start_session_classed(user_id, location, None)
    }

    /// [`PersonalizationEngine::start_session`] with an explicit session
    /// class: every latency sample of the session (query stages, totals,
    /// rule firings) is keyed by it in the metrics registry, which is how
    /// per-tenant p50/p99 come out of [`Self::metrics_snapshot`]. The
    /// class name is registered on first use; once [`sdwp_obs::MAX_CLASSES`]
    /// names exist, further names alias to the default class.
    pub fn start_session_classed(
        &self,
        user_id: &str,
        location: Option<LocationContext>,
        class: Option<&str>,
    ) -> Result<SessionHandle, CoreError> {
        let class = class.map_or(ClassId::DEFAULT, |name| self.metrics.register_class(name));
        let _span = self.metrics.span(Stage::SessionStart, class);
        let id = self.sessions.allocate_id();
        let session = match location {
            Some(loc) => Session::start_at(id, user_id, loc),
            None => Session::start(id, user_id),
        };
        let mut state = SessionState::with_class(session, class);
        let report = self.fire_event(&state.session, &RuntimeEvent::SessionStart, class)?;
        Self::apply_selection_effects(&report, &mut state.view);
        state.effects.extend(report.effects.iter().cloned());
        let personalization_report = self.build_report(&state, &report)?;
        self.sessions.insert(state);
        Ok(SessionHandle {
            id,
            report: personalization_report,
        })
    }

    /// Records that the user of a session selected instances of a GeoMD
    /// element under a spatial condition (the SpatialSelection tracking
    /// event), firing the matching acquisition rules.
    pub fn record_spatial_selection(
        &self,
        session_id: SessionId,
        element: &str,
        expression: Option<&str>,
    ) -> Result<FireReport, CoreError> {
        let (session, class) = self.update_active_session(session_id, |session| {
            session.record_spatial_selection(element, expression.unwrap_or_default())
        })?;
        let event = RuntimeEvent::SpatialSelection {
            element: element.to_string(),
            expression: expression.map(str::to_string),
        };
        let report = self.fire_event(&session, &event, class)?;
        self.sessions.with_session_mut(session_id, |state| {
            Self::apply_selection_effects(&report, &mut state.view);
            state.effects.extend(report.effects.iter().cloned());
        })?;
        Ok(report)
    }

    /// Ends a session, firing the SessionEnd rules. Ending an
    /// already-ended (or unknown) session is an error, so a retried or
    /// concurrently racing logout cannot re-fire the SessionEnd rules.
    ///
    /// The session's state (personalized view, effect log) is reclaimed
    /// once the SessionEnd rules have fired — **whether or not the firing
    /// succeeded**: no later request can reach an ended session anyway —
    /// they all answer `UnknownSession` — and retaining the state would
    /// grow the session map without bound.
    pub fn end_session(&self, session_id: SessionId) -> Result<FireReport, CoreError> {
        let (session, class) = self.update_active_session(session_id, Session::end)?;
        let _span = self.metrics.span(Stage::SessionEnd, class);
        let fired = self.fire_event(&session, &RuntimeEvent::SessionEnd, class);
        self.sessions.remove(session_id);
        fired
    }

    /// The session gate every per-session entry passes: an ended session
    /// answers exactly like one that never existed.
    fn ensure_active(state: &SessionState) -> Result<(), CoreError> {
        if state.is_active() {
            return Ok(());
        }
        let session = state.session.id;
        Err(CoreError::UnknownSession { session })
    }

    /// Applies `update` to an active session's SUS object and copies out
    /// what the firing that follows needs: the session and its class.
    fn update_active_session(
        &self,
        session_id: SessionId,
        update: impl FnOnce(&mut Session),
    ) -> Result<(Session, ClassId), CoreError> {
        self.sessions.with_session_mut(session_id, |state| {
            Self::ensure_active(state)?;
            update(&mut state.session);
            Ok((state.session.clone(), state.class))
        })?
    }

    /// Executes an OLAP query through a session's personalized view:
    /// [`PersonalizationEngine::query_batch`] of one, under its own stages.
    ///
    /// Runs entirely on snapshots: the session's view is copied out under
    /// its shard lock, the cube is the published [`VersionedSwap`]
    /// snapshot — so queries from many sessions (or threads) run
    /// concurrently and never block rule firing. Results are served from
    /// the generation-keyed cache when the same `(snapshot, query, view)`
    /// triple was executed before; what a later publication leaves of the
    /// cache is `CubeState::publish`'s decision.
    pub fn query(&self, session_id: SessionId, query: &Query) -> Result<QueryResult, CoreError> {
        self.query_with_deadline(session_id, query, None)
    }

    /// [`PersonalizationEngine::query`] under an explicit per-query
    /// deadline budget (`None` = unbounded). The budget starts *now* and
    /// covers the whole lifecycle — admission wait, read-your-writes wait
    /// and the scan — and an
    /// expiry cancels the query cooperatively with the typed
    /// [`CoreError::DeadlineExceeded`]: no partial state, the result
    /// cache untouched, every admission slot released.
    pub fn query_with_deadline(
        &self,
        session_id: SessionId,
        query: &Query,
        deadline: Option<std::time::Duration>,
    ) -> Result<QueryResult, CoreError> {
        let queries = std::slice::from_ref(query);
        self.query_session(ReportAs::Single, session_id, queries, deadline)?
            .pop()
            .expect("one result per submitted query")
    }

    /// The read path of a session: copies out of the active session its
    /// view, its read-your-writes floor and its class, then runs the one
    /// read body.
    fn query_session(
        &self,
        report_as: ReportAs,
        session_id: SessionId,
        queries: &[Query],
        deadline: Option<std::time::Duration>,
    ) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
        let copied = |state: &SessionState| {
            Self::ensure_active(state)?;
            let view = Arc::clone(&state.view);
            Ok::<_, CoreError>((view, state.min_generation, state.class))
        };
        let (view, min_generation, class) = self.sessions.with_session(session_id, copied)??;
        self.query_batch_snapshot(report_as, queries, view, min_generation, class, deadline)
    }

    /// Executes an OLAP query against the full, unpersonalized cube
    /// (the baseline the paper's approach avoids exposing to users).
    pub fn query_unpersonalized(&self, query: &Query) -> Result<QueryResult, CoreError> {
        let view = Arc::new(InstanceView::unrestricted());
        let queries = std::slice::from_ref(query);
        self.query_batch_snapshot(ReportAs::Single, queries, view, 0, ClassId::DEFAULT, None)?
            .pop()
            .expect("one result per submitted query")
    }

    /// Pins a session to a minimum snapshot generation: later queries of
    /// the session refuse (after a bounded wait for the ingest worker)
    /// snapshots older than the pin — the read-your-writes contract. A
    /// producer pins `ingest_stats().last_generation` right after a
    /// `flush`, and every subsequent query of that session observes its
    /// writes. Pins only ratchet upwards; returns the effective pin.
    pub fn pin_session_generation(
        &self,
        session_id: SessionId,
        generation: u64,
    ) -> Result<u64, CoreError> {
        self.sessions.with_session_mut(session_id, |state| {
            Self::ensure_active(state)?;
            state.min_generation = state.min_generation.max(generation);
            Ok(state.min_generation)
        })?
    }

    /// Executes a batch of OLAP queries through a session's personalized
    /// view in one shared-scan pass: cached members are answered from the
    /// result cache, and only the misses are executed — together, against
    /// one snapshot, sharing group-key dictionaries and per-morsel
    /// selection vectors where the queries' filters coincide. Results are
    /// positional (`results[i]` answers `queries[i]`) and each is
    /// bit-identical to what [`PersonalizationEngine::query`] would have
    /// returned for that query alone.
    pub fn query_batch(
        &self,
        session_id: SessionId,
        queries: &[Query],
    ) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
        self.query_batch_with_deadline(session_id, queries, None)
    }

    /// [`PersonalizationEngine::query_batch`] under an explicit
    /// per-batch deadline budget covering admission, the
    /// read-your-writes wait and every fact group's scan. An expiry
    /// mid-batch fails the current and every not-yet-scanned group with
    /// [`CoreError::DeadlineExceeded`]; groups that already completed
    /// keep their results.
    pub fn query_batch_with_deadline(
        &self,
        session_id: SessionId,
        queries: &[Query],
        deadline: Option<std::time::Duration>,
    ) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
        self.query_session(ReportAs::Batch, session_id, queries, deadline)
    }

    /// The one read body — a single query is the batch of one, and
    /// `report_as` (data, never branched on here) names the stage family
    /// it records under. In order: total span → deadline token →
    /// admission → read-your-writes wait → cache keys → one locked probe →
    /// one shared-scan execution over exactly the misses → cache fill.
    /// The view comes as an `Arc` (sessions already hold one), so keying
    /// the cache is a refcount bump, not a deep clone of selection sets.
    /// Errors before the probe fail the request; later ones are per slot.
    fn query_batch_snapshot(
        &self,
        report_as: ReportAs,
        queries: &[Query],
        view: Arc<InstanceView>,
        min_generation: u64,
        class: ClassId,
        deadline: Option<std::time::Duration>,
    ) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
        // End-to-end span: records on every exit, including errors.
        let _total = self.metrics.span(report_as.total_stage(), class);
        // The deadline clock starts here, *before* admission: a request
        // that spends its whole budget parked in the admission queue comes
        // back DeadlineExceeded instead of running late.
        let cancel =
            CancelToken::with_deadline(deadline.map(|budget| std::time::Instant::now() + budget));
        // Admission first: a shed request does no work at all — not even
        // a cache probe — and a guaranteed tenant over budget waits here
        // (backpressure, bounded by the deadline) before touching any
        // snapshot.
        let _admission = self.admit_query(class, cancel.deadline())?;
        let (generation, cube) = self.wait_for_generation(min_generation, &cancel)?;
        let dicts = Some((&self.cube_state.dict_cache, generation));
        let obs = Some(QueryObs {
            registry: &self.metrics,
            class,
            generation,
        });
        let keys: Vec<CacheKey> = queries
            .iter()
            .map(|query| CacheKey::new(generation, query, Arc::clone(&view)))
            .collect();
        let lookup = self.metrics.span(Stage::CacheLookup, class);
        let cached = self.cube_state.result_cache.get_batch(&keys);
        lookup.finish();
        let missed = cached.iter().filter(|hit| hit.is_none()).count();
        // A warm refresh never reaches the executor: with every slot
        // answered from the cache there is nothing to resolve, and the
        // executor's stage counts keep meaning "requests executed".
        if missed == 0 {
            return Ok(cached
                .into_iter()
                .map(|hit| Ok((*hit.expect("no slot missed")).clone()))
                .collect());
        }
        // When every slot missed — always, for a single-query miss — the
        // caller's slice is the miss list: no `Query` is cloned.
        let subset: Vec<Query>;
        let misses = if missed == queries.len() {
            queries
        } else {
            let missing = queries.iter().zip(&cached).filter(|(_, hit)| hit.is_none());
            subset = missing.map(|(query, _)| query.clone()).collect();
            &subset
        };
        let mut executed = self
            .query_engine
            .execute_cancellable(report_as, &cube, misses, &view, dicts, obs, &cancel)
            .into_iter();
        Ok(cached
            .into_iter()
            .zip(keys)
            .map(|(hit, key)| match hit {
                Some(hit) => Ok((*hit).clone()),
                None => {
                    let result = executed.next().expect("one result per miss")?;
                    self.cube_state
                        .result_cache
                        .insert(key, Arc::new(result.clone()));
                    Ok(result)
                }
            })
            .collect())
    }

    /// Loads a consistent `(generation, cube)` pair at or above
    /// `min_generation`, polling briefly when the published snapshot lags
    /// a read-your-writes pin (the epoch worker publishes within its
    /// `max_interval`, typically tens of milliseconds). The request's
    /// token bounds the wait ([`CoreError::DeadlineExceeded`]), as does
    /// the wait's own budget ([`CoreError::StaleSnapshot`]).
    fn wait_for_generation(
        &self,
        min_generation: u64,
        cancel: &CancelToken,
    ) -> Result<(u64, Arc<Cube>), CoreError> {
        let mut give_up = None;
        loop {
            let (generation, cube) = self.cube_state.snapshot.load_versioned();
            if generation >= min_generation {
                return Ok((generation, cube));
            }
            cancel.check()?;
            let now = std::time::Instant::now();
            if now >= *give_up.get_or_insert(now + READ_YOUR_WRITES_WAIT) {
                return Err(CoreError::StaleSnapshot {
                    published: generation,
                    required: min_generation,
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Counters of the query-result cache (hits, misses, entries,
    /// invalidations, evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.cube_state.result_cache.stats()
    }

    /// Counters of the group-key dictionary cache (hits, misses, entries,
    /// invalidations).
    pub fn dict_cache_stats(&self) -> DictCacheStats {
        self.cube_state.dict_cache.stats()
    }

    /// The metrics registry this engine records into — stage latency
    /// histograms, the slow-query journal and session classes all live
    /// here. Shared (`Arc`), so callers can hold it across the engine's
    /// lifetime or aggregate several engines into one.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Sets the slow-query journal threshold: standalone queries (and
    /// batch fact groups) whose end-to-end pipeline time meets it are
    /// journaled with their per-stage breakdown.
    pub fn set_slow_query_threshold_micros(&self, micros: u64) {
        self.metrics.journal().set_threshold_micros(micros);
    }

    // ----- tenant scheduling and admission ------------------------------

    /// The admission gate in front of both read paths: asks the shared
    /// pool's controller for a slot under the session class's budgets.
    /// A best-effort tenant over budget is shed with a typed
    /// [`CoreError::Overloaded`]; a guaranteed tenant blocks until
    /// capacity frees — at every worker count.
    fn admit_query(
        &self,
        class: ClassId,
        deadline: Option<std::time::Instant>,
    ) -> Result<AdmissionGuard, CoreError> {
        self.query_engine
            .pool()
            .admit_until(class, deadline)
            .map_err(|error| match error {
                AdmitError::Shed(shed) => CoreError::Overloaded {
                    class: self.metrics.class_name(shed.class),
                    in_flight: shed.in_flight,
                    limit: shed.max_in_flight,
                },
                AdmitError::DeadlineExceeded { .. } => CoreError::DeadlineExceeded,
            })
    }

    /// A backoff hint for a shed tenant: the class's recent end-to-end
    /// p99 in µs over both read paths — the larger of its single-query
    /// and batch p99, so a class that only ever sends batches still gets
    /// a hint (0 when nothing has been recorded yet) — roughly how long
    /// one queued request takes to drain, so retrying after it has a
    /// fair chance of finding a free slot.
    pub fn retry_after_hint_micros(&self, class_name: &str) -> u64 {
        let class = self.metrics.register_class(class_name);
        let p99 = |stage| self.metrics.stage_histogram(stage, class).quantile(0.99);
        p99(Stage::QueryTotal).max(p99(Stage::BatchTotal))
    }

    /// The shared morsel worker pool — its scheduler statistics are also
    /// folded into [`PersonalizationEngine::metrics_snapshot`]. Always
    /// `Some` (a one-worker executor's pool has zero helpers); the
    /// `Option` stays only because `perfbench`'s shadow facade matches on
    /// it, and goes with that facade (ROADMAP, per-request trace item).
    pub fn morsel_pool(&self) -> Option<&Arc<MorselPool>> {
        Some(self.query_engine.pool())
    }

    /// Sets the scheduling and admission policy of a session class
    /// (registering the class name if it is new) and returns its id.
    /// Takes effect immediately: weights steer the worker scheduler,
    /// budgets steer admission of subsequent queries.
    pub fn set_tenant_policy(&self, class_name: &str, policy: TenantPolicy) -> ClassId {
        let class = self.metrics.register_class(class_name);
        self.query_engine.pool().set_policy(class, policy);
        class
    }

    /// One aggregate observability snapshot: per-stage latency summaries
    /// (p50/p90/p99 in µs) keyed by session class, the engine's counters
    /// (result cache, dictionary cache, session reclamation, ingest) and
    /// gauges (active sessions, cache entries, ingest queue depth, cube
    /// generation), and the retained slow-query records.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let cache = self.cache_stats();
        let dict = self.dict_cache_stats();
        snap.counters.extend([
            ("cache_hits".to_string(), cache.hits),
            ("cache_misses".to_string(), cache.misses),
            ("cache_invalidations".to_string(), cache.invalidations),
            ("cache_evictions".to_string(), cache.evictions),
            ("dict_cache_hits".to_string(), dict.hits),
            ("dict_cache_misses".to_string(), dict.misses),
            ("dict_cache_invalidations".to_string(), dict.invalidations),
            (
                "sessions_reclaimed".to_string(),
                self.sessions.sessions_reclaimed(),
            ),
        ]);
        snap.gauges.extend([
            (
                "sessions_active".to_string(),
                self.sessions.sessions_active(),
            ),
            ("cache_entries".to_string(), cache.entries as i64),
            ("dict_cache_entries".to_string(), dict.entries as i64),
            ("cube_generation".to_string(), self.cube_generation() as i64),
        ]);
        if let Some(ingest) = self.ingest_stats() {
            snap.counters.extend([
                (
                    "ingest_batches_submitted".to_string(),
                    ingest.batches_submitted,
                ),
                (
                    "ingest_batches_rejected".to_string(),
                    ingest.batches_rejected,
                ),
                ("ingest_batches_applied".to_string(), ingest.batches_applied),
                ("ingest_batches_failed".to_string(), ingest.batches_failed),
                ("ingest_rows_appended".to_string(), ingest.rows_appended),
                (
                    "ingest_epochs_published".to_string(),
                    ingest.epochs_published,
                ),
                ("ingest_compactions".to_string(), ingest.compactions),
                ("ingest_worker_restarts".to_string(), ingest.worker_restarts),
            ]);
            snap.gauges.extend([
                ("ingest_queue_depth".to_string(), ingest.queue_depth as i64),
                (
                    "ingest_worker_heartbeat_micros".to_string(),
                    ingest.last_heartbeat_micros as i64,
                ),
                ("ingest_worker_down".to_string(), ingest.worker_down as i64),
            ]);
        }
        let stats = self.query_engine.pool().stats();
        let names = self.metrics.class_names();
        snap.gauges
            .push(("scheduler_workers".to_string(), stats.workers as i64));
        let mut shed_total = 0u64;
        for tenant in &stats.tenants {
            shed_total += tenant.shed_total;
            // Per-tenant series only for registered classes; the
            // remaining slots are idle and would be noise.
            let Some(name) = names.get(tenant.class.0 as usize) else {
                continue;
            };
            snap.gauges.extend([
                (
                    format!("scheduler_queue_depth_{name}"),
                    tenant.queued as i64,
                ),
                (
                    format!("scheduler_in_flight_{name}"),
                    tenant.in_flight as i64,
                ),
                (format!("scheduler_share_{name}"), tenant.weight as i64),
            ]);
            if tenant.shed_total > 0 {
                snap.counters
                    .push((format!("scheduler_shed_{name}"), tenant.shed_total));
            }
        }
        snap.counters
            .push(("scheduler_shed_total".to_string(), shed_total));
        snap
    }

    /// The executor configuration this engine serves queries with.
    pub fn execution_config(&self) -> &ExecutionConfig {
        self.query_engine.config()
    }

    /// The generation of the currently published cube snapshot.
    pub fn cube_generation(&self) -> u64 {
        self.cube_state.snapshot.generation()
    }

    /// The current `(generation, cube)` snapshot pair, read atomically —
    /// what a query observes. Lets callers pin the exact snapshot a
    /// result was computed from while ingestion publishes new ones.
    pub fn cube_versioned(&self) -> (u64, Arc<Cube>) {
        self.cube_state.snapshot.load_versioned()
    }

    // ----- streaming ingestion ------------------------------------------

    /// Starts the streaming-ingestion pipeline (idempotent: a second call
    /// returns a handle onto the already-running pipeline, ignoring
    /// `config`) and returns a producer handle.
    ///
    /// Producers submit [`DeltaBatch`]es through the handle; a dedicated
    /// worker applies them atomically to the write master and publishes
    /// immutable snapshots per the configured epoch policy. Readers —
    /// including sessions mid-query — never block on ingestion and never
    /// observe a torn batch.
    pub fn start_ingest(&self, config: IngestConfig) -> IngestHandle {
        let mut ingest = self.ingest.lock();
        match ingest.as_ref() {
            Some(pipeline) => pipeline.handle(),
            None => {
                let pipeline = IngestPipeline::start(
                    Arc::clone(&self.cube_state) as Arc<dyn CubeSink>,
                    config,
                );
                let handle = pipeline.handle();
                *ingest = Some(pipeline);
                handle
            }
        }
    }

    /// A producer handle onto the running ingestion pipeline, when one was
    /// started.
    pub fn ingest_handle(&self) -> Option<IngestHandle> {
        self.ingest.lock().as_ref().map(IngestPipeline::handle)
    }

    /// Counters of the ingestion pipeline (batches, rows, epochs,
    /// backpressure rejections), when one was started.
    pub fn ingest_stats(&self) -> Option<IngestStats> {
        self.ingest.lock().as_ref().map(IngestPipeline::stats)
    }

    /// Shuts the ingestion pipeline down: pending batches are applied, a
    /// final epoch is published, the worker joins. Returns the final
    /// counters, or `None` when no pipeline was running. (Dropping the
    /// engine does the same implicitly.)
    pub fn stop_ingest(&self) -> Option<IngestStats> {
        self.ingest.lock().take().map(IngestPipeline::shutdown)
    }

    /// The personalized view of a session (a shared snapshot; the `Arc`
    /// stays consistent if rules later restrict the view further).
    pub fn session_view(&self, session_id: SessionId) -> Result<Arc<InstanceView>, CoreError> {
        self.sessions
            .with_session(session_id, |state| Arc::clone(&state.view))
    }

    /// The SUS session object of a session (an owned snapshot).
    pub fn session(&self, session_id: SessionId) -> Result<Session, CoreError> {
        self.sessions
            .with_session(session_id, |state| state.session.clone())
    }

    /// The profile of a registered user (a clone of the stored state).
    pub fn user_profile(&self, user_id: &str) -> Result<UserProfile, CoreError> {
        Ok(self.profiles.get(user_id)?)
    }

    // ----- internals ----------------------------------------------------

    /// Fires an event for a session's user through the in-service
    /// [`CompiledRuleSet`], in two phases. This is the only rule
    /// evaluator the engine runs; the AST interpreter (`sdwp_prml::eval`)
    /// is the reference `compiled_equivalence` checks it against.
    ///
    /// **Condition phase** (lock-free): matches the event against the
    /// loaded ruleset snapshot without the master lock — event matching
    /// in PRML is purely textual, so no cube state can be observed. When
    /// no rule matches, the firing returns immediately (after the
    /// unknown-user check) without ever locking the master.
    ///
    /// **Effect phase**: for matched rules only, the master mutex is
    /// held across profile read → rule-body run → profile write, making
    /// the whole firing atomic with respect to other firing threads (so
    /// two concurrent `SetContent` increments cannot lose an update).
    /// When the firing actually changed the schema, the master is cloned
    /// once and published for the read path. The rule set replays a
    /// closed loop (one that reads only schema, dimension and layer
    /// tables, like `TrainAirportCity`'s) when the master's
    /// [`Cube::stamp`] is the one it last ran under; the stamp is exact
    /// because the firing reads the master it holds locked.
    ///
    /// Invariant: outside a firing, master and snapshot hold the same
    /// schema/layer/dimension state — successful schema changes publish,
    /// non-schema firings never touch the cube, and an erroring firing
    /// rolls that state back to the published snapshot so partially
    /// applied schema actions never leak into later publishes. Fact
    /// tables are the streaming-ingest subsystem's territory (the master
    /// may be an epoch ahead of the snapshot there), so the rollback
    /// keeps the master's fact tables: rules cannot have touched them.
    /// The restored state brings back the snapshot's stamp, so no outcome
    /// a closed loop stored during the failed firing can replay.
    fn fire_event(
        &self,
        session: &Session,
        event: &RuntimeEvent,
        class: ClassId,
    ) -> Result<FireReport, CoreError> {
        // One load: both phases see the same ruleset however many
        // hot-swaps land mid-firing.
        let rules = self.rules.load();
        // Phase 1 — condition phase: pure precomputed-string matching
        // against the loaded snapshot. No master lock, no cube access.
        let condition = self.metrics.span(Stage::RuleCondition, class);
        let matched = rules.matched_rules(event);
        condition.finish();
        if matched.is_empty() {
            // Nothing fires, so the firing cannot touch the cube or
            // the profile: skip the master lock entirely. Unknown
            // users must still error exactly like the locking path.
            self.profiles.get(&session.user_id)?;
            return Ok(FireReport::default());
        }
        // Phase 2 — effect application for the matched rules only,
        // under the master lock. The span covers lock acquisition:
        // waiting for the master *is* part of effect-phase latency.
        let effect = self.metrics.span(Stage::RuleEffect, class);
        let parameters = self.parameters.read().clone();
        let mut master = self.cube_state.master.lock();
        let mut profile = self.profiles.get(&session.user_id)?;
        let mut ctx = EvalContext::new(&mut master, &mut profile)
            .with_session(session)
            .with_layer_source(self.layer_source.as_ref());
        for (name, value) in &parameters {
            ctx = ctx.with_parameter(name.clone(), *value);
        }
        let fired = rules.fire_matched(&matched, &mut ctx);
        drop(ctx);
        effect.finish();
        // Still under the master lock: roll back on error, publish on a
        // real schema change, write the profile back.
        let published = self.cube_state.snapshot.load();
        let report = match fired {
            Ok(report) => report,
            Err(error) => {
                // Roll back: a rule may have errored after earlier
                // statements (or earlier rules) already mutated the cube.
                // Restore schema/layer/dimension state from the published
                // snapshot but keep the master's fact tables — they may
                // hold ingested-but-unpublished deltas no firing touches.
                let mut rolled_back = (*published).clone();
                rolled_back.swap_fact_tables(&mut master);
                *master = rolled_back;
                return Err(error.into());
            }
        };
        // Publish only on a real schema change — effects report AddLayer
        // even when it was an idempotent re-add, and cloning the whole
        // cube on every login would serialise logins behind an
        // O(warehouse) copy.
        if master.schema() != published.schema() {
            self.cube_state.publish(&master, PublishScope::Schema);
        }
        self.profiles.upsert(profile);
        Ok(report)
    }

    /// Applies the SelectInstance effects of a fire report to a view:
    /// each rule's member selection restricts its dimension conjunctively.
    /// The view is copy-on-write (`Arc`): concurrent readers keep the
    /// snapshot they loaded; only the stored view is replaced.
    fn apply_selection_effects(report: &FireReport, view: &mut Arc<InstanceView>) {
        if report
            .effects
            .iter()
            .all(|effect| effect.selections.is_empty())
        {
            return;
        }
        let view = Arc::make_mut(view);
        for effect in &report.effects {
            for (dimension, members) in &effect.selections {
                view.select_dimension_members(dimension.clone(), members.iter().copied());
            }
        }
    }

    fn build_report(
        &self,
        state: &SessionState,
        fire: &FireReport,
    ) -> Result<PersonalizationReport, CoreError> {
        Ok(PersonalizationReport {
            rules_matched: fire.rules_matched,
            rules_with_effects: fire
                .effects
                .iter()
                .filter(|e| e.changed_schema() || e.selected_instances() || e.set_contents > 0)
                .map(|e| e.rule.clone())
                .collect(),
            selected_members: state
                .view
                .dimension_selections()
                .map(|(dimension, members)| (dimension.to_string(), members.len()))
                .collect(),
            ..self.view_report(&state.session.user_id, &state.view)?
        })
    }

    /// The report of what a view shows right now, with no firing behind
    /// it: the schema delta plus, per fact, total and visible row counts,
    /// all read off one cube snapshot. Live rows only — a retracted
    /// (tombstoned) row is invisible to everyone, so counting it as
    /// "total" would make an unrestricted view look personalized.
    pub(crate) fn view_report(
        &self,
        user_id: &str,
        view: &InstanceView,
    ) -> Result<PersonalizationReport, CoreError> {
        let cube = self.cube_state.snapshot.load();
        let mut total_facts = BTreeMap::new();
        let mut visible_facts = BTreeMap::new();
        for fact in &cube.schema().facts {
            let name = &fact.name;
            total_facts.insert(name.clone(), cube.fact_table(name)?.table.live_len());
            visible_facts.insert(name.clone(), view.visible_fact_count(&cube, name)?);
        }
        Ok(PersonalizationReport {
            user: user_id.to_string(),
            rules_matched: 0,
            rules_with_effects: Vec::new(),
            schema_diff: SchemaDiff::between(&self.original_schema, cube.schema()),
            selected_members: BTreeMap::new(),
            visible_facts,
            total_facts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdwp_datagen::{PaperScenario, ScenarioConfig};
    use sdwp_olap::AttributeRef;
    use sdwp_prml::corpus::*;

    fn engine() -> (PersonalizationEngine, PaperScenario) {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let layer_source = Arc::new(scenario.layer_source());
        let engine = PersonalizationEngine::with_layer_source(scenario.cube.clone(), layer_source);
        engine.register_user(scenario.manager.clone());
        engine.set_parameter("threshold", 2.0);
        for rule in ALL_PAPER_RULES {
            engine.add_rules_text(rule).unwrap();
        }
        (engine, scenario)
    }

    /// A location right next to the first store, so the 5 km instance rule
    /// always selects at least one store.
    fn near_first_store(scenario: &PaperScenario) -> LocationContext {
        let store = &scenario.retail.stores[0];
        LocationContext::at_point("office", store.location.x() + 0.5, store.location.y())
    }

    #[test]
    fn session_start_personalizes_schema_and_instances() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        // Schema personalization (rule 5.1): Airport layer + spatial Store.
        let diff = engine.schema_diff();
        assert!(diff.added_layers.iter().any(|(name, _)| name == "Airport"));
        assert!(diff
            .levels_become_spatial
            .iter()
            .any(|(_, level, _)| level == "Store"));
        // Instance personalization (rule 5.2): the Store dimension is
        // restricted in the session view.
        let view = engine.session_view(handle.id).unwrap();
        assert!(!view.is_unrestricted());
        assert!(handle.report.rules_matched >= 3);
    }

    #[test]
    fn queries_through_the_view_see_fewer_facts() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        let personalized = engine.query(handle.id, &query).unwrap();
        let full = engine.query_unpersonalized(&query).unwrap();
        assert!(personalized.facts_scanned <= full.facts_scanned);
        assert!(personalized.column_total(0) <= full.column_total(0) + 1e-9);
    }

    #[test]
    fn interest_tracking_across_sessions() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        // The user repeatedly selects cities near airports.
        for _ in 0..3 {
            engine
                .record_spatial_selection(handle.id, "GeoMD.Store.City", None)
                .unwrap();
        }
        let profile = engine.user_profile("regional-manager").unwrap();
        assert_eq!(profile.interest("AirportCity").unwrap().degree, 3.0);
        engine.end_session(handle.id).unwrap();
        // The next session start exceeds the threshold: the Train layer is
        // added by rule TrainAirportCity.
        let second = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        assert!(engine.cube().schema().layer("Train").is_some());
        assert!(second
            .report
            .schema_diff
            .added_layers
            .iter()
            .any(|(name, _)| name == "Train"));
    }

    #[test]
    fn unknown_users_and_sessions_error() {
        let (engine, _scenario) = engine();
        assert!(engine.start_session("ghost", None).is_err());
        assert!(engine.session_view(99).is_err());
        assert!(engine
            .record_spatial_selection(99, "GeoMD.Store.City", None)
            .is_err());
        assert!(engine.end_session(99).is_err());
        let query = Query::over("Sales").measure("UnitSales");
        assert!(engine.query(99, &query).is_err());
    }

    #[test]
    fn rules_are_validated_on_registration() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = PersonalizationEngine::new(scenario.cube.clone());
        let err = engine
            .add_rules_text(
                "Rule:bad When SessionStart do \
                 If (MD.Sales.Warehouse.name = 'x') then AddLayer('A', POINT) endIf endWhen",
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Rule(_)));
        assert!(engine.compiled_rules().is_empty());
    }

    #[test]
    fn adding_rules_after_a_reload_extends_the_reloaded_set() {
        let (engine, _scenario) = engine();
        // The reload replaces the paper's rules with one acquisition rule …
        engine
            .reload_rules_text(
                "Rule:countLogins When SessionStart do \
                 SetContent(SUS.DecisionMaker.logins, 1) endWhen",
            )
            .unwrap();
        // … and a later add extends *that* set (read back through
        // `source()`), in order, answering with the new rules' classes only.
        let classes = engine.add_rules_text(EXAMPLE_5_1_ADD_SPATIALITY).unwrap();
        assert_eq!(classes, vec![RuleClass::Schema]);
        let rules = engine.compiled_rules();
        let compiled: Vec<&str> = rules.rules().iter().map(|r| r.name.as_str()).collect();
        let source: Vec<&str> = rules.source().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(compiled, ["countLogins", "addSpatiality"]);
        assert_eq!(source, compiled);
        assert_eq!(
            rules.classes(),
            vec![RuleClass::Acquisition, RuleClass::Schema]
        );
    }

    #[test]
    fn non_matching_role_gets_no_personalization() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = PersonalizationEngine::with_layer_source(
            scenario.cube.clone(),
            Arc::new(scenario.layer_source()),
        );
        engine.register_user(sdwp_user::UserProfile::new("analyst", "Ana"));
        engine.set_parameter("threshold", 2.0);
        for rule in ALL_PAPER_RULES {
            engine.add_rules_text(rule).unwrap();
        }
        // The analyst logs in from far outside the sales region.
        let handle = engine
            .start_session(
                "analyst",
                Some(LocationContext::at_point("remote", 5_000.0, 5_000.0)),
            )
            .unwrap();
        // Rule 5.1 did not fire for this role: no schema personalization.
        assert!(engine.schema_diff().added_layers.is_empty());
        assert!(engine.schema_diff().levels_become_spatial.is_empty());
        // Rule 5.2 is role-independent, but no store lies within 5 km of
        // the analyst, so the personalized view hides every fact.
        let view = engine.session_view(handle.id).unwrap();
        assert!(!view.is_unrestricted());
        assert_eq!(view.visible_fact_count(&engine.cube(), "Sales").unwrap(), 0);
    }

    #[test]
    fn ending_a_session_twice_is_rejected() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        engine.end_session(handle.id).unwrap();
        // A retried logout must not re-fire the SessionEnd rules.
        assert!(matches!(
            engine.end_session(handle.id),
            Err(CoreError::UnknownSession { .. })
        ));
    }

    #[test]
    fn idempotent_schema_rules_do_not_republish_the_cube() {
        let (engine, scenario) = engine();
        engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        let first = engine.cube();
        // The second login re-fires AddLayer('Airport') as an idempotent
        // no-op: the schema is unchanged, so the published snapshot must
        // be the same allocation (no O(warehouse) clone per login).
        engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        let second = engine.cube();
        assert!(
            Arc::ptr_eq(&first, &second),
            "schema-stable firing must not republish the cube"
        );
    }

    #[test]
    fn failed_rule_firing_rolls_back_schema_mutations() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = PersonalizationEngine::new(scenario.cube.clone());
        engine.register_user(sdwp_user::UserProfile::new("u", "U"));
        // `flag` / `missingparam` are bare identifiers: they pass static
        // validation (they could be designer parameters) and resolve — or
        // fail — at firing time.
        engine
            .add_rules_text(
                "Rule:boom When SessionStart do \
                 If (flag > 0) then AddLayer('Partial', POINT) endIf \
                 If (missingparam > 1) then AddLayer('Q', POINT) endIf endWhen",
            )
            .unwrap();
        engine.set_parameter("flag", 1.0);
        // AddLayer('Partial') executes, then `missingparam` errors: the
        // firing fails and nothing may leak.
        let err = engine.start_session("u", None).unwrap_err();
        assert!(matches!(err, CoreError::Rule(_)));
        assert!(engine.cube().schema().layer("Partial").is_none());
        // A later *successful* firing (flag off, parameter defined) must
        // not publish a leftover 'Partial' from the failed attempt.
        engine.set_parameter("flag", 0.0);
        engine.set_parameter("missingparam", 0.0);
        engine.start_session("u", None).unwrap();
        assert!(
            engine.cube().schema().layer("Partial").is_none(),
            "partial schema mutation of a failed firing leaked into the snapshot"
        );
    }

    /// Logs `user` in and out, returning the report and how many times
    /// the in-service rule set's closed loops ran and replayed meanwhile.
    fn login(engine: &PersonalizationEngine, user: &str) -> (PersonalizationReport, (u64, u64)) {
        let rules = engine.compiled_rules();
        let before = (rules.closed_loop_runs(), rules.closed_loop_replays());
        let handle = engine.start_session(user, None).unwrap();
        engine.end_session(handle.id).unwrap();
        let after = (rules.closed_loop_runs(), rules.closed_loop_replays());
        (handle.report, (after.0 - before.0, after.1 - before.1))
    }

    /// The Train loop of a firing that failed after adding the Train
    /// layer ran on a cube state the rollback discarded: the next firing
    /// adds the layer again, under a new stamp, and runs the loop again.
    #[test]
    fn a_rolled_back_firing_leaves_no_outcome_to_replay() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = PersonalizationEngine::with_layer_source(
            scenario.cube.clone(),
            Arc::new(scenario.layer_source()),
        );
        engine.register_user(sdwp_user::UserProfile::new("u", "U"));
        engine
            .add_rules_text(
                "Rule:train When SessionStart do AddLayer('Airport', POINT) \
                 AddLayer('Train', LINE) \
                 Foreach t, c, a in (GeoMD.Train, GeoMD.Store.City, GeoMD.Airport) \
                 If (Distance(Intersection(Intersection(t.geometry, c.geometry), \
                 a.geometry)) < 50) then SelectInstance(c) endIf endForeach \
                 If (missingparam > 1) then AddLayer('Q', POINT) endIf endWhen",
            )
            .unwrap();
        let rules = engine.compiled_rules();
        // The loop runs, then `missingparam` fails the firing: the layers
        // roll back.
        assert!(engine.start_session("u", None).is_err());
        assert_eq!(rules.closed_loop_runs(), 1);
        assert!(engine.cube().schema().layer("Train").is_none());
        engine.set_parameter("missingparam", 0.0);
        let (first, work) = login(&engine, "u");
        assert_eq!(
            work,
            (1, 0),
            "the rolled-back state's outcome is not replayed"
        );
        let (second, work) = login(&engine, "u");
        assert_eq!(work, (0, 1));
        assert_eq!(second, first);
    }

    /// A reloaded rule set stores no outcome: its first over-threshold
    /// login runs the Train loop, and the next one replays it.
    #[test]
    fn a_reloaded_rule_set_runs_its_closed_loops_first() {
        let (engine, scenario) = engine();
        let mut manager = scenario.manager.clone();
        manager.interest_mut("AirportCity").degree = 3.0;
        engine.register_user(manager.clone());
        let (first, work) = login(&engine, &manager.id);
        assert!(first
            .rules_with_effects
            .contains(&"TrainAirportCity".to_string()));
        assert_eq!(work, (1, 0));
        assert_eq!(login(&engine, &manager.id).1, (0, 1));
        engine
            .reload_rules_text(&ALL_PAPER_RULES.join("\n"))
            .unwrap();
        let (reloaded, work) = login(&engine, &manager.id);
        assert_eq!(work, (1, 0), "a hot swap drops the stored outcomes");
        assert_eq!(reloaded, first);
        assert_eq!(login(&engine, &manager.id).1, (0, 1));
    }

    #[test]
    fn repeated_queries_hit_the_cache_until_a_publish() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        let first = engine.query(handle.id, &query).unwrap();
        let miss_only = engine.cache_stats();
        assert_eq!(miss_only.hits, 0);
        let second = engine.query(handle.id, &query).unwrap();
        assert_eq!(first, second);
        let after_repeat = engine.cache_stats();
        assert_eq!(after_repeat.hits, 1);
        let generation = engine.cube_generation();

        // Drive the interest counter over the threshold and restart: the
        // TrainAirportCity rule adds the Train layer, publishing a new
        // cube snapshot.
        for _ in 0..3 {
            engine
                .record_spatial_selection(handle.id, "GeoMD.Store.City", None)
                .unwrap();
        }
        engine.end_session(handle.id).unwrap();
        let next = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        assert!(engine.cube_generation() > generation);

        // The same query text through the new session misses: both the
        // snapshot generation and the session view changed.
        let hits_before = engine.cache_stats().hits;
        engine.query(next.id, &query).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, hits_before);
        assert!(stats.invalidations > 0, "publish must drop stale entries");
    }

    #[test]
    fn cache_can_be_disabled_by_configuration() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = PersonalizationEngine::with_execution_config(
            scenario.cube.clone(),
            Arc::new(scenario.layer_source()),
            sdwp_olap::ExecutionConfig::default().with_cache_capacity(0),
        );
        let query = Query::over("Sales").measure("UnitSales");
        engine.query_unpersonalized(&query).unwrap();
        engine.query_unpersonalized(&query).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.entries), (0, 0));
        // A disabled cache is still probed: both reads take the one read
        // body and miss.
        assert_eq!(stats.misses, 2);
        assert_eq!(engine.execution_config().cache_capacity, 0);
    }

    #[test]
    fn ingested_epochs_publish_atomic_snapshots() {
        let (engine, _scenario) = engine();
        let before_rows = engine.cube().total_live_fact_rows();
        let before_generation = engine.cube_generation();
        let handle = engine.start_ingest(
            sdwp_ingest::IngestConfig::default()
                .with_epoch(sdwp_ingest::EpochPolicy::default().with_max_rows(1_000_000)),
        );
        // A second start returns a handle onto the same pipeline.
        let again = engine.start_ingest(sdwp_ingest::IngestConfig::default());
        let batch = DeltaBatch::new()
            .append(
                "Sales",
                vec![
                    ("Store", 0usize),
                    ("Customer", 0usize),
                    ("Product", 0usize),
                    ("Time", 0usize),
                ],
                vec![("UnitSales", sdwp_olap::CellValue::Float(5.0))],
            )
            .retract("Sales", 0);
        handle.submit(batch).unwrap();
        // Nothing published yet (row threshold unreached, no flush): the
        // read snapshot still shows the pre-ingest cube.
        assert_eq!(engine.cube().total_live_fact_rows(), before_rows);
        let generation = again.flush().unwrap();
        assert!(generation > before_generation);
        assert_eq!(engine.cube_generation(), generation);
        // One append + one retraction: net zero rows, new content.
        assert_eq!(engine.cube().total_live_fact_rows(), before_rows);
        assert_eq!(engine.cube().total_fact_rows(), before_rows + 1);
        let stats = engine.ingest_stats().unwrap();
        assert_eq!((stats.rows_appended, stats.rows_retracted), (1, 1));
        assert_eq!(stats.epochs_published, 1);
        let final_stats = engine.stop_ingest().unwrap();
        assert_eq!(final_stats.batches_applied, 1);
        assert!(engine.ingest_handle().is_none());
        assert!(matches!(
            handle.submit(DeltaBatch::new()),
            Err(sdwp_ingest::IngestError::Closed)
        ));
    }

    #[test]
    fn ingest_epochs_scope_cache_invalidation() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        engine.query(handle.id, &query).unwrap();
        let ingest = engine.start_ingest(sdwp_ingest::IngestConfig::default());

        // An epoch of empty batches publishes nothing: the cached result
        // still hits afterwards.
        ingest.submit(DeltaBatch::new()).unwrap();
        ingest.flush().unwrap();
        let hits_before = engine.cache_stats().hits;
        let generation = engine.cube_generation();
        engine.query(handle.id, &query).unwrap();
        assert_eq!(engine.cache_stats().hits, hits_before + 1);
        assert_eq!(engine.cube_generation(), generation);

        // An epoch that changes Sales invalidates the Sales entry …
        ingest
            .submit(DeltaBatch::new().upsert_cell(
                "Sales",
                0,
                "UnitSales",
                sdwp_olap::CellValue::Float(123.0),
            ))
            .unwrap();
        ingest.flush().unwrap();
        let stats = engine.cache_stats();
        assert!(stats.invalidations > 0);
        let hits_after_publish = stats.hits;
        let fresh = engine.query(handle.id, &query).unwrap();
        assert_eq!(
            engine.cache_stats().hits,
            hits_after_publish,
            "must re-execute"
        );
        // … and the fresh result reflects the correction when store 0 is
        // visible through the view (and stays consistent regardless).
        assert_eq!(
            fresh,
            QueryEngine::with_config(*engine.execution_config())
                .execute_serial_with_view(
                    &engine.cube(),
                    &query,
                    &engine.session_view(handle.id).unwrap()
                )
                .unwrap()
        );
    }

    #[test]
    fn failed_rule_firing_keeps_ingested_facts() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = PersonalizationEngine::new(scenario.cube.clone());
        engine.register_user(sdwp_user::UserProfile::new("u", "U"));
        engine
            .add_rules_text(
                "Rule:boom When SessionStart do \
                 If (flag > 0) then AddLayer('Partial', POINT) endIf \
                 If (missingparam > 1) then AddLayer('Q', POINT) endIf endWhen",
            )
            .unwrap();
        engine.set_parameter("flag", 1.0);
        let ingest = engine.start_ingest(
            sdwp_ingest::IngestConfig::default()
                .with_epoch(sdwp_ingest::EpochPolicy::default().with_max_rows(1_000_000)),
        );
        // Apply a delta but do NOT publish: it lives only in the master.
        ingest
            .submit(DeltaBatch::new().append(
                "Sales",
                vec![
                    ("Store", 0usize),
                    ("Customer", 0usize),
                    ("Product", 0usize),
                    ("Time", 0usize),
                ],
                vec![("UnitSales", sdwp_olap::CellValue::Float(7.0))],
            ))
            .unwrap();
        // Wait until the worker has applied (but not published) the batch.
        while engine.ingest_stats().unwrap().batches_applied == 0 {
            std::thread::yield_now();
        }
        // A failing firing rolls back its schema mutation …
        assert!(engine.start_session("u", None).is_err());
        assert!(engine.cube().schema().layer("Partial").is_none());
        // … without discarding the unpublished ingested row.
        let generation = ingest.flush().unwrap();
        assert!(generation > 0);
        assert_eq!(
            engine.cube().total_live_fact_rows(),
            scenario.cube.total_live_fact_rows() + 1,
            "rollback of a failed firing must keep ingested facts"
        );
    }

    #[test]
    fn pinned_sessions_read_their_own_writes() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        let ingest = engine.start_ingest(
            sdwp_ingest::IngestConfig::default()
                .with_epoch(sdwp_ingest::EpochPolicy::default().with_max_rows(1_000_000)),
        );
        let before = engine.query_unpersonalized(&Query::over("Sales").measure("UnitSales"));
        assert!(before.is_ok());
        ingest
            .submit(DeltaBatch::new().append(
                "Sales",
                vec![
                    ("Store", 0usize),
                    ("Customer", 0usize),
                    ("Product", 0usize),
                    ("Time", 0usize),
                ],
                vec![("UnitSales", sdwp_olap::CellValue::Float(5.0))],
            ))
            .unwrap();
        let generation = ingest.flush().unwrap();
        // Pin the session to the flushed generation: its next query must
        // observe the appended row.
        assert_eq!(
            engine
                .pin_session_generation(handle.id, generation)
                .unwrap(),
            generation
        );
        // Pins only ratchet upwards.
        assert_eq!(
            engine.pin_session_generation(handle.id, 0).unwrap(),
            generation
        );
        let result = engine
            .query(handle.id, &Query::over("Sales").measure("UnitSales"))
            .unwrap();
        assert!(result.facts_scanned > 0);
        assert!(engine.cube_generation() >= generation);
        // A pin beyond anything the worker will publish times out into a
        // stale-snapshot error instead of hanging.
        engine
            .pin_session_generation(handle.id, generation + 100)
            .unwrap();
        assert!(matches!(
            engine.query(handle.id, &Query::over("Sales").measure("UnitSales")),
            Err(CoreError::StaleSnapshot { required, .. }) if required == generation + 100
        ));
        // Unknown sessions cannot be pinned.
        assert!(engine.pin_session_generation(9_999, 1).is_err());
    }

    #[test]
    fn a_query_deadline_bounds_the_read_your_writes_wait() {
        let (engine, scenario) = engine();
        let handle = engine
            .start_session("regional-manager", Some(near_first_store(&scenario)))
            .unwrap();
        // Pinned far ahead of anything that will ever be published: with
        // no deadline this polls for the full READ_YOUR_WRITES_WAIT.
        engine
            .pin_session_generation(handle.id, engine.cube_generation() + 100)
            .unwrap();
        let query = Query::over("Sales").measure("UnitSales");
        let budget = Some(std::time::Duration::from_millis(5));
        let started = std::time::Instant::now();
        assert_eq!(
            engine.query_with_deadline(handle.id, &query, budget),
            Err(CoreError::DeadlineExceeded)
        );
        assert_eq!(
            engine
                .query_batch_with_deadline(handle.id, std::slice::from_ref(&query), budget)
                .map(|_| ()),
            Err(CoreError::DeadlineExceeded)
        );
        assert!(
            started.elapsed() < std::time::Duration::from_millis(100),
            "two 5 ms budgets took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn a_failing_session_end_rule_still_reclaims_the_session() {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = PersonalizationEngine::new(scenario.cube.clone());
        engine.register_user(sdwp_user::UserProfile::new("u", "U"));
        // `missingparam` passes static validation (it could be a designer
        // parameter) and fails at firing time.
        engine
            .add_rules_text(
                "Rule:boom When SessionEnd do \
                 If (missingparam > 1) then AddLayer('Q', POINT) endIf endWhen",
            )
            .unwrap();
        let gauge = |engine: &PersonalizationEngine, name: &str| {
            let snap = engine.metrics_snapshot();
            snap.gauges.iter().find(|(n, _)| n == name).map(|g| g.1)
        };
        let (sessions, active, reclaimed) = (
            engine.sessions().len(),
            gauge(&engine, "sessions_active"),
            engine.sessions().sessions_reclaimed(),
        );
        let handle = engine.start_session("u", None).unwrap();
        assert!(matches!(
            engine.end_session(handle.id),
            Err(CoreError::Rule(_))
        ));
        assert_eq!(engine.sessions().len(), sessions);
        assert_eq!(gauge(&engine, "sessions_active"), active);
        assert_eq!(engine.sessions().sessions_reclaimed(), reclaimed + 1);
        assert!(matches!(
            engine.end_session(handle.id),
            Err(CoreError::UnknownSession { .. })
        ));
    }

    #[test]
    fn a_query_is_a_batch_of_one() {
        let query = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales");
        // Two identical engines, one asked through each entry: the same
        // result, the same cache traffic, and each under its own stages.
        let (single, scenario) = engine();
        let (batched, _) = engine();
        let location = near_first_store(&scenario);
        let one = single
            .start_session("regional-manager", Some(location.clone()))
            .unwrap();
        let other = batched
            .start_session("regional-manager", Some(location))
            .unwrap();
        for _ in 0..2 {
            let alone = single.query(one.id, &query);
            let mut batch = batched
                .query_batch(other.id, std::slice::from_ref(&query))
                .unwrap();
            assert_eq!(batch.len(), 1);
            assert_eq!(alone, batch.remove(0));
        }
        // One miss, then one hit — on both.
        let stats = single.cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
        assert_eq!(stats, batched.cache_stats());
        let count = |engine: &PersonalizationEngine, stage| {
            let histogram = engine.metrics().stage_histogram(stage, ClassId::DEFAULT);
            histogram.count
        };
        assert_eq!(count(&single, Stage::QueryTotal), 2);
        assert_eq!(count(&single, Stage::QueryScan), 1);
        assert_eq!(count(&single, Stage::BatchTotal), 0);
        assert_eq!(count(&single, Stage::BatchScan), 0);
        assert_eq!(count(&batched, Stage::BatchTotal), 2);
        assert_eq!(count(&batched, Stage::BatchScan), 1);
        assert_eq!(count(&batched, Stage::QueryTotal), 0);
        assert_eq!(count(&batched, Stage::QueryScan), 0);
    }

    #[test]
    fn every_publication_settles_the_caches_through_one_scope() {
        // (caller, what drives it, whether it publishes under the `Facts`
        // scope: a result over an untouched fact and the group-key
        // dictionaries survive that scope and nothing survives `Schema`)
        type Drive = fn(&PersonalizationEngine, &PaperScenario);
        let callers: [(&str, Drive, bool); 4] = [
            (
                "publish_epoch",
                |engine, _| {
                    let changed = BTreeSet::from(["Sales".to_string()]);
                    engine.cube_state.publish_epoch(&changed);
                },
                true,
            ),
            (
                "maybe_compact",
                |engine, _| {
                    let retract = DeltaBatch::new().retract("Sales", 0).retract("Sales", 1);
                    engine.cube_state.apply_batch(&retract).unwrap();
                    let policy = CompactionPolicy::disabled()
                        .with_max_tombstone_ratio(0.0)
                        .with_min_rows(1);
                    let compacted = engine.cube_state.maybe_compact(&policy);
                    assert_eq!(compacted.len(), 1);
                    assert_eq!(compacted[0].as_ref().unwrap().fact, "Sales");
                },
                true,
            ),
            (
                // Every fact of the cube counts as changed; the stand-in
                // fact below is not one of them.
                "on_worker_restart",
                |engine, _| engine.cube_state.on_worker_restart(),
                true,
            ),
            (
                "fire_event",
                |engine, scenario| {
                    // The first login adds the Airport layer: a schema change.
                    engine
                        .start_session("regional-manager", Some(near_first_store(scenario)))
                        .unwrap();
                },
                false,
            ),
        ];
        for (caller, drive, facts_scope) in callers {
            let (engine, scenario) = engine();
            let state = &engine.cube_state;
            // A real grouped Sales query fills both caches …
            let query = Query::over("Sales")
                .group_by(AttributeRef::new("Store", "City", "name"))
                .measure("UnitSales");
            let result = engine.query_unpersonalized(&query).unwrap();
            // … and one entry stands for a result over another fact.
            let mut other = CacheKey {
                generation: engine.cube_generation(),
                fact: "Inventory".to_string(),
                query: query.canonical_key(),
                view: Arc::new(InstanceView::unrestricted()),
            };
            state.result_cache.insert(other.clone(), Arc::new(result));
            let dicts_before = engine.dict_cache_stats();
            assert!(dicts_before.entries > 0, "{caller}");
            let generation = engine.cube_generation();

            drive(&engine, &scenario);

            assert!(engine.cube_generation() > generation, "{caller}");
            other.generation = engine.cube_generation();
            assert_eq!(
                state.result_cache.get(&other).is_some(),
                facts_scope,
                "{caller}: result over an untouched fact"
            );
            let dicts = engine.dict_cache_stats();
            if facts_scope {
                assert_eq!(dicts.entries, dicts_before.entries, "{caller}");
                assert_eq!(dicts.invalidations, 0, "{caller}");
            } else {
                assert_eq!(dicts.entries, 0, "{caller}");
                assert_eq!(engine.cache_stats().entries, 0, "{caller}");
            }
            // The Sales result itself never survives a publication that
            // names Sales (or the schema).
            let hits = engine.cache_stats().hits;
            engine.query_unpersonalized(&query).unwrap();
            assert_eq!(engine.cache_stats().hits, hits, "{caller}: Sales must miss");
        }
    }

    #[test]
    fn ingest_stats_expose_per_fact_compaction_pressure() {
        let (engine, _scenario) = engine();
        let ingest = engine.start_ingest(
            sdwp_ingest::IngestConfig::default()
                .with_epoch(sdwp_ingest::EpochPolicy::default().with_max_rows(1_000_000)),
        );
        ingest
            .submit(DeltaBatch::new().retract("Sales", 0).retract("Sales", 1))
            .unwrap();
        ingest.flush().unwrap();
        let stats = engine.ingest_stats().unwrap();
        let sales = stats
            .fact_tables
            .iter()
            .find(|s| s.fact == "Sales")
            .expect("Sales gauge");
        assert_eq!(sales.total_rows - sales.live_rows, 2);
        assert!(sales.tombstone_ratio > 0.0);
        assert_eq!(sales.compactions, 0, "compaction is disabled by default");
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let (engine, scenario) = engine();
        let engine = Arc::new(engine);
        let location = near_first_store(&scenario);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let location = location.clone();
                std::thread::spawn(move || {
                    let handle = engine
                        .start_session("regional-manager", Some(location))
                        .unwrap();
                    let query = Query::over("Sales").measure("UnitSales");
                    engine.query(handle.id, &query).unwrap();
                    engine.end_session(handle.id).unwrap();
                    handle.id
                })
            })
            .collect();
        let mut ids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "session ids must be unique across threads");
    }
}
