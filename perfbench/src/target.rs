//! What a workload client sends its requests to: the real facade
//! (untraced) or the shadow facade (traced), behind one trait so each
//! workload is written once.

use crate::spans::SpanLog;
use sdwp_core::{
    BatchEntry, ClassId, CoreError, PersonalizationEngine, WebFacade, WebRequest, WebResponse,
};
use sdwp_ingest::IngestConfig;
use sdwp_obs::Stage;
use sdwp_olap::{
    AttributeRef, CacheKey, GroupDictCache, InstanceView, Query, QueryCache, QueryEngine, QueryObs,
    QueryResult,
};
use sdwp_user::{LocationContext, SessionId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The receiving end of a workload's requests.
pub trait Target: Send {
    /// Marks the start of workload operation `op` (span tagging).
    fn begin_op(&mut self, _op: u64) {}

    /// Sends one request; returns the response and its latency in µs.
    fn call(&mut self, request: WebRequest) -> (WebResponse, f64);

    /// The producer barrier of the read-your-writes probe
    /// (`ingest_handle().flush()`); returns the published generation.
    fn flush(&mut self) -> Result<u64, String>;
}

/// The shipping path: `WebFacade::handle`, timed from outside.
pub struct RealTarget {
    facade: WebFacade,
}

impl RealTarget {
    /// A target over (a clone of the handle of) `facade`.
    pub fn new(facade: &WebFacade) -> Self {
        RealTarget {
            facade: facade.clone(),
        }
    }
}

fn flush_ingest(engine: &PersonalizationEngine) -> Result<u64, String> {
    engine
        .ingest_handle()
        .ok_or_else(|| "ingest is not running".to_string())?
        .flush()
        .map_err(|error| error.to_string())
}

impl Target for RealTarget {
    fn call(&mut self, request: WebRequest) -> (WebResponse, f64) {
        let start = Instant::now();
        let response = self.facade.handle(request);
        (response, start.elapsed().as_nanos() as f64 / 1e3)
    }

    fn flush(&mut self) -> Result<u64, String> {
        flush_ingest(self.facade.engine())
    }
}

/// Renders a query result the way `WebResponse::Table` carries it.
pub fn render_table(result: &QueryResult) -> (Vec<String>, Vec<Vec<String>>) {
    let columns = result
        .key_names
        .iter()
        .chain(result.value_names.iter())
        .cloned()
        .collect();
    let rows = result
        .rows
        .iter()
        .map(|row| {
            row.keys
                .iter()
                .chain(row.values.iter())
                .map(ToString::to_string)
                .collect()
        })
        .collect();
    (columns, rows)
}

/// The query `WebRequest::Aggregate` stands for.
pub fn aggregate_query(fact: &str, measure: &str, group_by: &[(String, String, String)]) -> Query {
    let mut query = Query::over(fact).measure(measure);
    for (dimension, level, attribute) in group_by {
        query = query.group_by(AttributeRef::new(
            dimension.as_str(),
            level.as_str(),
            attribute.as_str(),
        ));
    }
    query
}

/// State the shadow facade shares between client threads: its own result
/// cache and dictionary cache (the engine's are private), an executor on
/// the engine's pool, and row counters fed from the results it sees.
pub struct Shadow {
    facade: WebFacade,
    cache: QueryCache,
    dicts: GroupDictCache,
    executor: QueryEngine,
    /// Last generation the dictionary cache was advanced to.
    dict_generation: AtomicU64,
    /// Fact rows examined by executed queries.
    pub rows_scanned: AtomicU64,
    /// Fact rows that passed every filter in executed queries.
    pub rows_matched: AtomicU64,
}

impl Shadow {
    /// A shadow of `facade`: same engine, same pool, same registry.
    pub fn new(facade: &WebFacade) -> Arc<Self> {
        let engine = facade.engine();
        let config = *engine.execution_config();
        let executor = match engine.morsel_pool() {
            Some(pool) => QueryEngine::with_pool(config, Arc::clone(pool)),
            None => QueryEngine::with_config(config),
        };
        Arc::new(Shadow {
            facade: facade.clone(),
            cache: QueryCache::new(config.cache_capacity),
            dicts: GroupDictCache::new(),
            executor,
            dict_generation: AtomicU64::new(engine.cube_generation()),
            rows_scanned: AtomicU64::new(0),
            rows_matched: AtomicU64::new(0),
        })
    }

    fn engine(&self) -> &PersonalizationEngine {
        self.facade.engine()
    }

    /// Keeps the private dictionary cache usable across the ingest
    /// epochs of `live_dashboard`, as the engine's own is: those publishes
    /// leave dimension tables untouched. (No workload publishes a schema
    /// change during a traced pass; a guard checks that.)
    fn advance_dicts(&self, generation: u64) {
        if self.dict_generation.swap(generation, Ordering::Relaxed) != generation {
            self.dicts.advance(generation);
        }
    }

    /// Zeroes the row counters (after filling the cache, before a pass).
    pub fn forget_rows(&self) {
        self.rows_scanned.store(0, Ordering::Relaxed);
        self.rows_matched.store(0, Ordering::Relaxed);
    }

    fn count_rows(&self, result: &QueryResult) {
        self.rows_scanned
            .fetch_add(result.facts_scanned as u64, Ordering::Relaxed);
        self.rows_matched
            .fetch_add(result.facts_matched as u64, Ordering::Relaxed);
    }
}

/// One client thread's handle on the shadow facade, with its span log.
///
/// `call` performs the steps `WebFacade::handle` performs, using only the
/// layers' public functions, with a span around each call into a layer.
/// Span names are the per-layer metrics their self times feed.
pub struct ShadowTarget {
    shadow: Arc<Shadow>,
    /// This thread's spans.
    pub log: SpanLog,
    op: u64,
}

impl ShadowTarget {
    /// A client handle whose span times count from `epoch`.
    pub fn new(shadow: &Arc<Shadow>, epoch: Instant) -> Self {
        ShadowTarget {
            shadow: Arc::clone(shadow),
            log: SpanLog::new(epoch),
            op: 0,
        }
    }

    /// `with_session` + activity check: what both read paths do first.
    fn lookup(
        &mut self,
        session: SessionId,
    ) -> Result<(Arc<InstanceView>, u64, ClassId), CoreError> {
        let engine = self.shadow.engine();
        let (active, view, min_generation, class) =
            self.log.within("core.session.lookup_us", |_| {
                engine.sessions().with_session(session, |state| {
                    (
                        state.is_active(),
                        Arc::clone(&state.view),
                        state.min_generation,
                        state.class,
                    )
                })
            })?;
        if !active {
            return Err(CoreError::UnknownSession { session });
        }
        Ok((view, min_generation, class))
    }

    /// Admission, as `admit_query` does it for a query without deadline.
    fn admit(&mut self, class: ClassId) -> Result<Option<sdwp_olap::AdmissionGuard>, CoreError> {
        let engine = self.shadow.engine();
        match engine.morsel_pool() {
            None => Ok(None),
            Some(pool) => self
                .log
                .within("olap.pool.admit_us", |_| pool.try_admit(class))
                .map(Some)
                .map_err(|shed| CoreError::Overloaded {
                    class: engine.metrics().class_name(shed.class),
                    in_flight: shed.in_flight,
                    limit: shed.max_in_flight,
                }),
        }
    }

    /// Waits for the session's read-your-writes floor like
    /// `wait_for_generation` (1 ms polls, 500 ms budget).
    fn snapshot(&self, min_generation: u64) -> Result<(u64, Arc<sdwp_olap::Cube>), CoreError> {
        let engine = self.shadow.engine();
        let deadline = Instant::now() + std::time::Duration::from_millis(500);
        loop {
            let (generation, cube) = engine.cube_versioned();
            if generation >= min_generation {
                self.shadow.advance_dicts(generation);
                return Ok((generation, cube));
            }
            if Instant::now() >= deadline {
                return Err(CoreError::StaleSnapshot {
                    published: generation,
                    required: min_generation,
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// `PersonalizationEngine::query` through the shadow's own cache.
    fn query(&mut self, session: SessionId, query: &Query) -> Result<QueryResult, CoreError> {
        let open = self.log.begin("core.engine.query_self_us");
        let result = (|| {
            let (view, min_generation, class) = self.lookup(session)?;
            let shadow = Arc::clone(&self.shadow);
            let metrics = shadow.engine().metrics();
            let _total = metrics.span(Stage::QueryTotal, class);
            let _admission = self.admit(class)?;
            let (generation, cube) = self.snapshot(min_generation)?;
            let key = CacheKey::new(generation, query, view);
            let hit = self.log.within("olap.cache.get_us", |_| {
                let _lookup = metrics.span(Stage::CacheLookup, class);
                shadow.cache.get(&key)
            });
            if let Some(hit) = hit {
                return Ok((*hit).clone());
            }
            let obs = QueryObs {
                registry: metrics,
                class,
                generation,
            };
            let result = self.log.within("olap.engine.execute_us", |_| {
                shadow.executor.execute_with_view_observed(
                    &cube,
                    query,
                    &key.view,
                    Some((&shadow.dicts, generation)),
                    Some(obs),
                )
            })?;
            shadow.count_rows(&result);
            self.log.within("olap.cache.insert_us", |_| {
                shadow.cache.insert(key, Arc::new(result.clone()))
            });
            Ok(result)
        })();
        self.log.end(open);
        result
    }

    /// `PersonalizationEngine::query_batch` through the shadow's cache.
    fn query_batch(
        &mut self,
        session: SessionId,
        queries: &[Query],
    ) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
        let open = self.log.begin("core.engine.batch_self_us");
        let results = (|| {
            let (view, min_generation, class) = self.lookup(session)?;
            let shadow = Arc::clone(&self.shadow);
            let metrics = shadow.engine().metrics();
            let _total = metrics.span(Stage::BatchTotal, class);
            let _admission = self.admit(class)?;
            let (generation, cube) = self.snapshot(min_generation)?;
            let keys: Vec<CacheKey> = queries
                .iter()
                .map(|query| CacheKey::new(generation, query, Arc::clone(&view)))
                .collect();
            let cached = self.log.within("olap.cache.get_us", |_| {
                let _lookup = metrics.span(Stage::CacheLookup, class);
                shadow.cache.get_batch(&keys)
            });
            let miss_indices: Vec<usize> = cached
                .iter()
                .enumerate()
                .filter_map(|(i, hit)| hit.is_none().then_some(i))
                .collect();
            let misses: Vec<Query> = miss_indices.iter().map(|&i| queries[i].clone()).collect();
            let obs = QueryObs {
                registry: metrics,
                class,
                generation,
            };
            let executed = self.log.within("olap.engine.batch_execute_us", |_| {
                shadow.executor.execute_batch_observed(
                    &cube,
                    &misses,
                    &view,
                    Some((&shadow.dicts, generation)),
                    Some(obs),
                )
            });
            let mut results: Vec<Option<Result<QueryResult, CoreError>>> = cached
                .into_iter()
                .map(|hit| hit.map(|r| Ok((*r).clone())))
                .collect();
            for (&index, executed) in miss_indices.iter().zip(executed) {
                if let Ok(result) = &executed {
                    shadow.count_rows(result);
                    self.log.within("olap.cache.insert_us", |_| {
                        shadow
                            .cache
                            .insert(keys[index].clone(), Arc::new(result.clone()))
                    });
                }
                results[index] = Some(executed.map_err(CoreError::from));
            }
            Ok(results
                .into_iter()
                .map(|slot| slot.expect("every batch slot answered or executed"))
                .collect())
        })();
        self.log.end(open);
        results
    }

    /// The body of `WebFacade::try_handle` for the requests the
    /// workloads send.
    fn try_handle(&mut self, request: WebRequest) -> Result<WebResponse, CoreError> {
        let shadow = Arc::clone(&self.shadow);
        let engine = shadow.engine();
        match request {
            WebRequest::Login {
                user,
                location,
                class,
            } => {
                let location =
                    location.map(|(x, y)| LocationContext::at_point("reported by browser", x, y));
                let handle = self.log.within("core.engine.login_self_us", |_| {
                    engine.start_session_classed(&user, location, class.as_deref())
                })?;
                Ok(WebResponse::LoggedIn {
                    session: handle.id,
                    report: handle.report,
                })
            }
            WebRequest::SpatialSelection {
                session,
                element,
                expression,
            } => {
                let report = self.log.within("core.engine.selection_self_us", |_| {
                    engine.record_spatial_selection(session, &element, expression.as_deref())
                })?;
                Ok(WebResponse::SelectionRecorded {
                    rules_matched: report.rules_matched,
                })
            }
            WebRequest::Aggregate {
                session,
                fact,
                measure,
                group_by,
                deadline_micros: None,
            } => {
                let query = aggregate_query(&fact, &measure, &group_by);
                let result = self.query(session, &query)?;
                let (columns, rows) = render_table(&result);
                Ok(WebResponse::Table {
                    columns,
                    rows,
                    facts_matched: result.facts_matched,
                })
            }
            WebRequest::QueryBatch {
                session,
                queries,
                deadline_micros: None,
            } => {
                let results = self
                    .query_batch(session, &queries)?
                    .into_iter()
                    .map(|result| match result {
                        Ok(result) => {
                            let (columns, rows) = render_table(&result);
                            BatchEntry::Table {
                                columns,
                                rows,
                                facts_matched: result.facts_matched,
                            }
                        }
                        Err(error) => BatchEntry::Error {
                            message: error.to_string(),
                        },
                    })
                    .collect();
                Ok(WebResponse::BatchResult { results })
            }
            WebRequest::Report { session } => {
                let view = self
                    .log
                    .within("core.session.lookup_us", |_| engine.session_view(session))?;
                let user = self
                    .log
                    .within("core.session.lookup_us", |_| engine.session(session))?
                    .user_id;
                let cube = engine.cube();
                let mut visible = std::collections::BTreeMap::new();
                let mut totals = std::collections::BTreeMap::new();
                for fact in &cube.schema().facts {
                    totals.insert(
                        fact.name.clone(),
                        cube.fact_table(&fact.name)?.table.live_len(),
                    );
                    visible.insert(
                        fact.name.clone(),
                        view.visible_fact_count(&cube, &fact.name)?,
                    );
                }
                Ok(WebResponse::Report(Box::new(
                    sdwp_core::PersonalizationReport {
                        user,
                        rules_matched: 0,
                        rules_with_effects: Vec::new(),
                        schema_diff: engine.schema_diff(),
                        selected_members: Default::default(),
                        visible_facts: visible,
                        total_facts: totals,
                    },
                )))
            }
            WebRequest::Ingest { batch } => {
                let deltas = batch.len();
                self.log
                    .within("ingest.submit_us", |_| {
                        engine
                            .start_ingest(IngestConfig::default())
                            .try_submit(batch)
                    })
                    .map_err(|error| CoreError::Ingest {
                        message: error.to_string(),
                    })?;
                Ok(WebResponse::IngestAccepted { deltas })
            }
            WebRequest::PinGeneration {
                session,
                generation,
            } => {
                let generation = self.log.within("core.session.lookup_us", |_| {
                    engine.pin_session_generation(session, generation)
                })?;
                Ok(WebResponse::GenerationPinned { generation })
            }
            WebRequest::Logout { session } => {
                self.log
                    .within("core.engine.logout_us", |_| engine.end_session(session))?;
                Ok(WebResponse::LoggedOut)
            }
            other => Err(CoreError::Ingest {
                message: format!("the shadow facade does not model {other:?}"),
            }),
        }
    }
}

impl Target for ShadowTarget {
    fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    fn call(&mut self, request: WebRequest) -> (WebResponse, f64) {
        self.log.next_request(self.op);
        let start = Instant::now();
        // The root span: its self time is what `handle` does around the
        // engine call — location/query building and table rendering.
        let open = self.log.begin("core.web.self_us");
        let response = match self.try_handle(request) {
            Ok(response) => response,
            Err(CoreError::Overloaded {
                class,
                in_flight,
                limit,
            }) => WebResponse::Overloaded {
                retry_after_hint_micros: self.shadow.engine().retry_after_hint_micros(&class),
                class,
                in_flight,
                limit,
            },
            Err(error) => WebResponse::Error {
                message: error.to_string(),
            },
        };
        self.log.end(open);
        (response, start.elapsed().as_nanos() as f64 / 1e3)
    }

    fn flush(&mut self) -> Result<u64, String> {
        self.log.next_request(self.op);
        let shadow = Arc::clone(&self.shadow);
        self.log
            .within("ingest.flush_us", |_| flush_ingest(shadow.engine()))
    }
}
