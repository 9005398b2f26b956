//! The web facade: message-level interface of the "web-based" deployment.
//!
//! The paper's personalization is *web-based*: decision makers interact
//! through a web BI front-end that logs them in, tracks their selections
//! and shows them their (already personalized) data. This module provides
//! that boundary as typed request/response messages
//! over a [`WebFacade`] wrapping the [`PersonalizationEngine`] — the same
//! contract an HTTP layer would expose, without tying the library to a
//! specific web framework.

use crate::engine::PersonalizationEngine;
use crate::error::CoreError;
use crate::report::PersonalizationReport;
use sdwp_ingest::{DeltaBatch, IngestConfig};
use sdwp_obs::MetricsSnapshot;
use sdwp_olap::{AttributeRef, CellValue, FactTableStats, Query};
use sdwp_user::{LocationContext, SessionId};
use std::sync::Arc;

/// A request from the web front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum WebRequest {
    /// The user logs in, optionally reporting their location (longitude /
    /// x and latitude / y in the warehouse's coordinate unit).
    Login {
        /// The user id (login).
        user: String,
        /// Optional location context `(x, y)`.
        location: Option<(f64, f64)>,
        /// Optional session class (tenant tier): every latency sample of
        /// the session is keyed by it in the metrics registry, so
        /// per-class p50/p99 come out of [`WebRequest::Metrics`].
        class: Option<String>,
    },
    /// The user performed a spatial selection in the UI.
    SpatialSelection {
        /// The session performing the selection.
        session: SessionId,
        /// The selected GeoMD element (path text).
        element: String,
        /// The spatial expression satisfied by the selection, when the
        /// front-end knows it.
        expression: Option<String>,
    },
    /// The user runs an aggregation: group the fact's measure by a level
    /// attribute.
    Aggregate {
        /// The session issuing the query.
        session: SessionId,
        /// The fact to aggregate (e.g. `"Sales"`).
        fact: String,
        /// The measure to aggregate (e.g. `"UnitSales"`).
        measure: String,
        /// Group-by keys as `(dimension, level, attribute)` triples.
        group_by: Vec<(String, String, String)>,
        /// Optional end-to-end deadline budget in µs. The clock starts
        /// when the engine picks the request up and covers admission,
        /// the read-your-writes wait and the scan; an expiry cancels
        /// the query cooperatively (typed error, no partial state).
        /// `None` runs without a deadline.
        deadline_micros: Option<u64>,
    },
    /// A dashboard refresh: the front-end submits every panel's query at
    /// once, and the engine answers them in one shared-scan batch —
    /// cached results come from the result cache, the misses share a
    /// single morsel-parallel pass over each fact (common filters share
    /// selection vectors, common group-by attributes share dictionaries).
    QueryBatch {
        /// The session issuing the batch.
        session: SessionId,
        /// The panel queries, answered positionally.
        queries: Vec<Query>,
        /// Optional deadline budget in µs for the whole batch (see
        /// [`WebRequest::Aggregate::deadline_micros`]); panels not yet
        /// scanned at expiry answer with a typed per-panel error while
        /// completed panels keep their tables.
        deadline_micros: Option<u64>,
    },
    /// The user asks for their personalization report.
    Report {
        /// The session to report on.
        session: SessionId,
    },
    /// An operator asks for the engine's query-result cache counters.
    CacheStats,
    /// An operator asks for the group-key dictionary cache counters.
    DictCacheStats,
    /// An operator asks for the full observability snapshot: per-stage
    /// latency histograms (p50/p90/p99) keyed by session class, engine
    /// counters and gauges, and the slow-query journal.
    Metrics,
    /// An operator asks for the metrics in the Prometheus text
    /// exposition format (what a `/metrics` scrape endpoint would serve).
    MetricsText,
    /// An upstream feed submits a batch of fact deltas (sales appends,
    /// price corrections, retractions). The batch becomes visible to
    /// queries atomically, at the next epoch publication.
    Ingest {
        /// The delta batch to apply.
        batch: DeltaBatch,
    },
    /// An operator asks for the streaming-ingestion counters.
    IngestStats,
    /// The session asks to *read its own writes*: pin it to a minimum
    /// snapshot generation (typically the `last_generation` reported
    /// after its deltas were flushed), so later queries of this session
    /// never observe an older snapshot — they briefly wait for the epoch
    /// worker, and refuse if it cannot catch up.
    PinGeneration {
        /// The session to pin.
        session: SessionId,
        /// The minimum snapshot generation (pins only ratchet upwards).
        generation: u64,
    },
    /// An operator replaces the *entire* rule set with the given PRML
    /// text (hot reload). The swap is atomic: in-flight firings keep the
    /// ruleset they loaded, new firings see the new compiled set, and a
    /// parse/typecheck/compile failure leaves the in-service rules
    /// untouched and serving.
    ReloadRules {
        /// The PRML source of the replacement rule set.
        rules: String,
    },
    /// The user logs out.
    Logout {
        /// The session to end.
        session: SessionId,
    },
}

/// A response to the web front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum WebResponse {
    /// Login succeeded.
    LoggedIn {
        /// The new session id.
        session: SessionId,
        /// What personalization did at session start.
        report: PersonalizationReport,
    },
    /// A spatial selection was recorded.
    SelectionRecorded {
        /// Number of rules that matched the selection event.
        rules_matched: usize,
    },
    /// Aggregation results.
    Table {
        /// Column headers (group-by labels then measures).
        columns: Vec<String>,
        /// Rows of rendered cells.
        rows: Vec<Vec<String>>,
        /// Facts scanned / matched, for transparency.
        facts_matched: usize,
    },
    /// Results of a [`WebRequest::QueryBatch`], positionally aligned with
    /// the submitted queries: a panel whose query failed gets its own
    /// [`BatchEntry::Error`] without poisoning its neighbours.
    BatchResult {
        /// One entry per submitted query, in submission order.
        results: Vec<BatchEntry>,
    },
    /// A personalization report.
    Report(Box<PersonalizationReport>),
    /// Query-result cache counters.
    CacheStats {
        /// Lookups served from the cache.
        hits: u64,
        /// Lookups that executed the query.
        misses: u64,
        /// Results currently cached.
        entries: usize,
        /// Entries dropped because a new cube snapshot was published.
        invalidations: u64,
        /// Entries dropped by capacity eviction — a high rate against a
        /// low hit rate means the working set exceeds the configured
        /// `cache_capacity`.
        evictions: u64,
    },
    /// Group-key dictionary cache counters.
    DictCacheStats {
        /// Dictionary lookups served from the cache.
        hits: u64,
        /// Dictionary lookups that rebuilt the dictionary.
        misses: u64,
        /// Dictionaries currently cached.
        entries: usize,
        /// Dictionaries dropped by schema-changing publications.
        invalidations: u64,
    },
    /// The full observability snapshot (see
    /// [`crate::PersonalizationEngine::metrics_snapshot`]).
    Metrics {
        /// Per-stage latency summaries, counters, gauges and the
        /// slow-query journal.
        snapshot: MetricsSnapshot,
    },
    /// The metrics rendered in the Prometheus text exposition format.
    MetricsText {
        /// The exposition body.
        body: String,
    },
    /// A delta batch was accepted into the ingest queue (it will become
    /// visible at the next epoch publication).
    IngestAccepted {
        /// Number of deltas queued.
        deltas: usize,
    },
    /// Streaming-ingestion counters.
    IngestStats {
        /// Batches accepted into the queue.
        batches_submitted: u64,
        /// Batches refused because the queue was full (backpressure).
        batches_rejected: u64,
        /// Batches applied to the write master.
        batches_applied: u64,
        /// Batches dropped by validation failures.
        batches_failed: u64,
        /// Fact rows appended.
        rows_appended: u64,
        /// Measure cells overwritten.
        cells_upserted: u64,
        /// Fact rows retracted.
        rows_retracted: u64,
        /// Snapshots published by the epoch worker.
        epochs_published: u64,
        /// Generation of the last published snapshot.
        last_generation: u64,
        /// Fact-table compactions performed by the epoch worker.
        compactions: u64,
        /// Batches accepted but not yet applied or failed — the queue's
        /// current backlog (sits next to `batches_rejected`: a deep queue
        /// precedes backpressure rejections).
        queue_depth: u64,
        /// Times the supervisor restarted a panicked epoch worker.
        worker_restarts: u64,
        /// Wall-clock micros (Unix epoch) of the worker's most recent
        /// loop iteration — its liveness heartbeat.
        last_heartbeat_micros: u64,
        /// True once the restart budget is exhausted and submissions are
        /// refused with a typed worker-down error.
        worker_down: bool,
        /// Per-fact storage gauges (total / live rows, tombstone ratio,
        /// compactions) — the operator's compaction-pressure dashboard.
        fact_tables: Vec<FactTableStats>,
    },
    /// A session was pinned to a minimum snapshot generation.
    GenerationPinned {
        /// The effective pin (pins only ratchet upwards).
        generation: u64,
    },
    /// The rule set was replaced and compiled.
    RulesReloaded {
        /// The classification of each rule now in service, in order.
        classes: Vec<sdwp_prml::RuleClass>,
    },
    /// Logout succeeded.
    LoggedOut,
    /// The admission controller shed the request: the session class is
    /// best-effort and its budget is exhausted. Unlike
    /// [`WebResponse::Error`] this is typed — clients should treat it
    /// as retryable backpressure (the HTTP layer's 429), not a failure.
    Overloaded {
        /// The session class that was shed.
        class: String,
        /// Queries of the class in flight at the decision.
        in_flight: usize,
        /// The class's in-flight budget.
        limit: usize,
        /// Suggested backoff in µs before retrying — the shed class's
        /// recent end-to-end p99 (roughly one queued query's drain
        /// time), `0` when the class has no latency history yet. The
        /// HTTP layer's `Retry-After`.
        retry_after_hint_micros: u64,
    },
    /// The request failed.
    Error {
        /// Human-readable description of the failure.
        message: String,
    },
}

/// One query's outcome inside a [`WebResponse::BatchResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchEntry {
    /// The query succeeded; same rendering as [`WebResponse::Table`].
    Table {
        /// Column headers (group-by labels then measures).
        columns: Vec<String>,
        /// Rows of rendered cells.
        rows: Vec<Vec<String>>,
        /// Facts matched, for transparency.
        facts_matched: usize,
    },
    /// The query failed (the rest of the batch still answered).
    Error {
        /// Human-readable description of the failure.
        message: String,
    },
}

/// Renders a query result the way [`WebResponse::Table`] does.
fn render_table(result: &sdwp_olap::QueryResult) -> (Vec<String>, Vec<Vec<String>>) {
    let columns = result
        .key_names
        .iter()
        .chain(result.value_names.iter())
        .cloned()
        .collect();
    let rows = result
        .rows
        .iter()
        .map(|r| {
            r.keys
                .iter()
                .chain(r.values.iter())
                .map(CellValue::to_string)
                .collect()
        })
        .collect();
    (columns, rows)
}

/// The message-level web interface over a personalization engine.
///
/// Cloning the facade clones the *handle*; all clones serve the same
/// shared engine (sessions, profiles, personalized schema).
#[derive(Clone)]
pub struct WebFacade {
    engine: Arc<PersonalizationEngine>,
}

impl WebFacade {
    /// Wraps an engine, taking ownership of it.
    pub fn new(engine: PersonalizationEngine) -> Self {
        WebFacade {
            engine: Arc::new(engine),
        }
    }

    /// Wraps an engine that is already shared elsewhere.
    pub fn from_shared(engine: Arc<PersonalizationEngine>) -> Self {
        WebFacade { engine }
    }

    /// Access to the wrapped engine (registration, rules, parameters —
    /// every engine method takes `&self`).
    pub fn engine(&self) -> &PersonalizationEngine {
        &self.engine
    }

    /// Dispatches one request, never panicking: failures become
    /// [`WebResponse::Error`]. Callable from any number of threads.
    pub fn handle(&self, request: WebRequest) -> WebResponse {
        match self.try_handle(request) {
            Ok(response) => response,
            Err(CoreError::Overloaded {
                class,
                in_flight,
                limit,
            }) => {
                let retry_after_hint_micros = self.engine.retry_after_hint_micros(&class);
                WebResponse::Overloaded {
                    class,
                    in_flight,
                    limit,
                    retry_after_hint_micros,
                }
            }
            Err(error) => WebResponse::Error {
                message: error.to_string(),
            },
        }
    }

    fn try_handle(&self, request: WebRequest) -> Result<WebResponse, CoreError> {
        match request {
            WebRequest::Login {
                user,
                location,
                class,
            } => {
                let location =
                    location.map(|(x, y)| LocationContext::at_point("reported by browser", x, y));
                let handle =
                    self.engine
                        .start_session_classed(&user, location, class.as_deref())?;
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
                let report = self.engine.record_spatial_selection(
                    session,
                    &element,
                    expression.as_deref(),
                )?;
                Ok(WebResponse::SelectionRecorded {
                    rules_matched: report.rules_matched,
                })
            }
            WebRequest::Aggregate {
                session,
                fact,
                measure,
                group_by,
                deadline_micros,
            } => {
                let mut query = Query::over(fact).measure(measure);
                for (dimension, level, attribute) in group_by {
                    query = query.group_by(AttributeRef::new(dimension, level, attribute));
                }
                let deadline = deadline_micros.map(std::time::Duration::from_micros);
                let result = self.engine.query_with_deadline(session, &query, deadline)?;
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
                deadline_micros,
            } => {
                let deadline = deadline_micros.map(std::time::Duration::from_micros);
                let results = self
                    .engine
                    .query_batch_with_deadline(session, &queries, deadline)?
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
                // Rebuild a lightweight report from the current session view
                // against a consistent cube snapshot.
                let view = self.engine.session_view(session)?;
                let user = self.engine.session(session)?.user_id;
                let report = self.engine.view_report(&user, &view)?;
                Ok(WebResponse::Report(Box::new(report)))
            }
            WebRequest::CacheStats => {
                let stats = self.engine.cache_stats();
                Ok(WebResponse::CacheStats {
                    hits: stats.hits,
                    misses: stats.misses,
                    entries: stats.entries,
                    invalidations: stats.invalidations,
                    evictions: stats.evictions,
                })
            }
            WebRequest::DictCacheStats => {
                let stats = self.engine.dict_cache_stats();
                Ok(WebResponse::DictCacheStats {
                    hits: stats.hits,
                    misses: stats.misses,
                    entries: stats.entries,
                    invalidations: stats.invalidations,
                })
            }
            WebRequest::Metrics => Ok(WebResponse::Metrics {
                snapshot: self.engine.metrics_snapshot(),
            }),
            WebRequest::MetricsText => Ok(WebResponse::MetricsText {
                body: self.engine.metrics_snapshot().render_prometheus(),
            }),
            WebRequest::Ingest { batch } => {
                // First ingest request starts the pipeline with defaults;
                // operators wanting explicit policies call
                // `engine().start_ingest` beforehand.
                let handle = self.engine.start_ingest(IngestConfig::default());
                let deltas = batch.len();
                handle
                    .try_submit(batch)
                    .map_err(|error| CoreError::Ingest {
                        message: error.to_string(),
                    })?;
                Ok(WebResponse::IngestAccepted { deltas })
            }
            WebRequest::IngestStats => {
                let stats = self.engine.ingest_stats().unwrap_or_default();
                Ok(WebResponse::IngestStats {
                    batches_submitted: stats.batches_submitted,
                    batches_rejected: stats.batches_rejected,
                    batches_applied: stats.batches_applied,
                    batches_failed: stats.batches_failed,
                    rows_appended: stats.rows_appended,
                    cells_upserted: stats.cells_upserted,
                    rows_retracted: stats.rows_retracted,
                    epochs_published: stats.epochs_published,
                    last_generation: stats.last_generation,
                    compactions: stats.compactions,
                    queue_depth: stats.queue_depth,
                    worker_restarts: stats.worker_restarts,
                    last_heartbeat_micros: stats.last_heartbeat_micros,
                    worker_down: stats.worker_down,
                    fact_tables: stats.fact_tables,
                })
            }
            WebRequest::PinGeneration {
                session,
                generation,
            } => {
                let generation = self.engine.pin_session_generation(session, generation)?;
                Ok(WebResponse::GenerationPinned { generation })
            }
            WebRequest::ReloadRules { rules } => {
                let classes = self.engine.reload_rules_text(&rules)?;
                Ok(WebResponse::RulesReloaded { classes })
            }
            WebRequest::Logout { session } => {
                self.engine.end_session(session)?;
                Ok(WebResponse::LoggedOut)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdwp_datagen::{PaperScenario, ScenarioConfig};
    use sdwp_prml::corpus::ALL_PAPER_RULES;
    use std::sync::Arc;

    fn facade() -> WebFacade {
        let scenario = PaperScenario::generate(ScenarioConfig::tiny());
        let engine = PersonalizationEngine::with_layer_source(
            scenario.cube.clone(),
            Arc::new(scenario.layer_source()),
        );
        engine.register_user(scenario.manager.clone());
        engine.set_parameter("threshold", 2.0);
        for rule in ALL_PAPER_RULES {
            engine.add_rules_text(rule).unwrap();
        }
        WebFacade::new(engine)
    }

    fn login(facade: &WebFacade) -> SessionId {
        match facade.handle(WebRequest::Login {
            user: "regional-manager".into(),
            location: Some((50.0, 50.0)),
            class: None,
        }) {
            WebResponse::LoggedIn { session, report } => {
                assert!(report.rules_matched > 0);
                session
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn full_web_session_flow() {
        let facade = facade();
        let session = login(&facade);

        // Aggregate by city through the personalized view.
        let response = facade.handle(WebRequest::Aggregate {
            session,
            fact: "Sales".into(),
            measure: "UnitSales".into(),
            group_by: vec![("Store".into(), "City".into(), "name".into())],
            deadline_micros: None,
        });
        match response {
            WebResponse::Table { columns, .. } => {
                assert_eq!(columns[0], "Store.City.name");
                assert!(columns[1].contains("UnitSales"));
            }
            other => panic!("unexpected response {other:?}"),
        }

        // Record selections and fetch the report.
        match facade.handle(WebRequest::SpatialSelection {
            session,
            element: "GeoMD.Store.City".into(),
            expression: None,
        }) {
            WebResponse::SelectionRecorded { rules_matched } => assert_eq!(rules_matched, 1),
            other => panic!("unexpected response {other:?}"),
        }
        match facade.handle(WebRequest::Report { session }) {
            WebResponse::Report(report) => {
                assert_eq!(report.user, "regional-manager");
                assert!(report.total_facts.contains_key("Sales"));
            }
            other => panic!("unexpected response {other:?}"),
        }

        // Logout, after which the session is unusable.
        assert_eq!(
            facade.handle(WebRequest::Logout { session }),
            WebResponse::LoggedOut
        );
        match facade.handle(WebRequest::SpatialSelection {
            session,
            element: "GeoMD.Store.City".into(),
            expression: None,
        }) {
            WebResponse::Error { message } => assert!(message.contains("session")),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn repeated_aggregates_hit_the_result_cache() {
        let facade = facade();
        let session = login(&facade);
        let aggregate = WebRequest::Aggregate {
            session,
            fact: "Sales".into(),
            measure: "UnitSales".into(),
            group_by: vec![("Store".into(), "City".into(), "name".into())],
            deadline_micros: None,
        };
        let first = facade.handle(aggregate.clone());
        let second = facade.handle(aggregate);
        assert_eq!(first, second);
        match facade.handle(WebRequest::CacheStats) {
            WebResponse::CacheStats { hits, entries, .. } => {
                assert!(hits >= 1, "repeat aggregate should hit, got {hits} hits");
                assert!(entries >= 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn ingest_requests_stream_deltas_into_the_warehouse() {
        let facade = facade();
        // Stats before any ingestion: all zeros, no pipeline running.
        match facade.handle(WebRequest::IngestStats) {
            WebResponse::IngestStats {
                batches_submitted,
                epochs_published,
                ..
            } => assert_eq!((batches_submitted, epochs_published), (0, 0)),
            other => panic!("unexpected response {other:?}"),
        }
        let batch = DeltaBatch::new().append(
            "Sales",
            vec![
                ("Store", 0usize),
                ("Customer", 0usize),
                ("Product", 0usize),
                ("Time", 0usize),
            ],
            vec![("UnitSales", CellValue::Float(3.0))],
        );
        match facade.handle(WebRequest::Ingest { batch }) {
            WebResponse::IngestAccepted { deltas } => assert_eq!(deltas, 1),
            other => panic!("unexpected response {other:?}"),
        }
        // Drain deterministically, then read the counters.
        let generation = facade
            .engine()
            .ingest_handle()
            .expect("first Ingest request started the pipeline")
            .flush()
            .unwrap();
        assert!(generation > 0);
        match facade.handle(WebRequest::IngestStats) {
            WebResponse::IngestStats {
                batches_applied,
                rows_appended,
                epochs_published,
                last_generation,
                ..
            } => {
                assert_eq!((batches_applied, rows_appended), (1, 1));
                assert!(epochs_published >= 1);
                assert_eq!(last_generation, generation);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // An invalid batch is accepted into the queue but fails to apply.
        let bad = DeltaBatch::new().retract("Sales", 999_999);
        assert!(matches!(
            facade.handle(WebRequest::Ingest { batch: bad }),
            WebResponse::IngestAccepted { .. }
        ));
        facade.engine().ingest_handle().unwrap().flush().unwrap();
        match facade.handle(WebRequest::IngestStats) {
            WebResponse::IngestStats { batches_failed, .. } => assert_eq!(batches_failed, 1),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn query_batch_answers_panels_positionally() {
        let facade = facade();
        let session = login(&facade);
        let by_city = Query::over("Sales")
            .measure("UnitSales")
            .group_by(AttributeRef::new("Store", "City", "name"));
        let total = Query::over("Sales").measure("UnitSales");
        let broken = Query::over("Sales").measure("NoSuchMeasure");
        let response = facade.handle(WebRequest::QueryBatch {
            session,
            queries: vec![by_city.clone(), broken, total],
            deadline_micros: None,
        });
        let results = match response {
            WebResponse::BatchResult { results } => results,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(results.len(), 3);
        // The first entry matches the single-query Aggregate rendering.
        let single = facade.handle(WebRequest::Aggregate {
            session,
            fact: "Sales".into(),
            measure: "UnitSales".into(),
            group_by: vec![("Store".into(), "City".into(), "name".into())],
            deadline_micros: None,
        });
        match (&results[0], single) {
            (
                BatchEntry::Table {
                    columns,
                    rows,
                    facts_matched,
                },
                WebResponse::Table {
                    columns: single_columns,
                    rows: single_rows,
                    facts_matched: single_matched,
                },
            ) => {
                assert_eq!(columns, &single_columns);
                assert_eq!(rows, &single_rows);
                assert_eq!(facts_matched, &single_matched);
            }
            other => panic!("unexpected pairing {other:?}"),
        }
        // The broken panel fails alone; its neighbour still answers.
        match &results[1] {
            BatchEntry::Error { message } => assert!(message.contains("NoSuchMeasure")),
            other => panic!("unexpected entry {other:?}"),
        }
        assert!(matches!(&results[2], BatchEntry::Table { .. }));
    }

    #[test]
    fn batch_hits_result_and_dictionary_caches() {
        let facade = facade();
        let session = login(&facade);
        let by_city = Query::over("Sales")
            .measure("UnitSales")
            .group_by(AttributeRef::new("Store", "City", "name"));
        let by_city_cost = Query::over("Sales")
            .measure("StoreCost")
            .group_by(AttributeRef::new("Store", "City", "name"));
        // Warm one of the two panels through the single-query path.
        assert!(matches!(
            facade.handle(WebRequest::Aggregate {
                session,
                fact: "Sales".into(),
                measure: "UnitSales".into(),
                group_by: vec![("Store".into(), "City".into(), "name".into())],
                deadline_micros: None,
            }),
            WebResponse::Table { .. }
        ));
        let before = facade.engine().cache_stats();
        let response = facade.handle(WebRequest::QueryBatch {
            session,
            queries: vec![by_city.clone(), by_city_cost.clone()],
            deadline_micros: None,
        });
        assert!(matches!(response, WebResponse::BatchResult { .. }));
        let after = facade.engine().cache_stats();
        // The warmed panel hit; only the other was executed and inserted.
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.entries, before.entries + 1);
        // Both panels group by the same attribute: the dictionary built
        // for the warming query was shared, so the cache shows reuse.
        let dicts = facade.engine().dict_cache_stats();
        assert!(dicts.hits >= 1, "dictionary reused across batch members");
        // Re-running the whole batch answers everything from the cache.
        let again = facade.handle(WebRequest::QueryBatch {
            session,
            queries: vec![by_city, by_city_cost],
            deadline_micros: None,
        });
        assert_eq!(response, again);
        assert_eq!(facade.engine().cache_stats().hits, after.hits + 2);
    }

    #[test]
    fn errors_become_error_responses() {
        let facade = facade();
        match facade.handle(WebRequest::Login {
            user: "nobody".into(),
            location: None,
            class: None,
        }) {
            WebResponse::Error { message } => assert!(message.contains("nobody")),
            other => panic!("unexpected response {other:?}"),
        }
        match facade.handle(WebRequest::Aggregate {
            session: 77,
            fact: "Sales".into(),
            measure: "UnitSales".into(),
            group_by: vec![],
            deadline_micros: None,
        }) {
            WebResponse::Error { message } => assert!(message.contains("77")),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn reload_rules_swaps_the_whole_set() {
        let facade = facade();
        assert_eq!(
            facade.engine().compiled_rules().len(),
            ALL_PAPER_RULES.len()
        );
        // Replace everything with one acquisition rule.
        let replacement = "Rule:countLogins When SessionStart do \
             SetContent(SUS.DecisionMaker.logins, 1) \
             endWhen";
        match facade.handle(WebRequest::ReloadRules {
            rules: replacement.into(),
        }) {
            WebResponse::RulesReloaded { classes } => {
                assert_eq!(classes, vec![sdwp_prml::RuleClass::Acquisition]);
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(facade.engine().compiled_rules().len(), 1);
        // New logins fire the new set: one acquisition rule, no schema
        // personalization any more.
        match facade.handle(WebRequest::Login {
            user: "regional-manager".into(),
            location: None,
            class: None,
        }) {
            WebResponse::LoggedIn { report, .. } => assert_eq!(report.rules_matched, 1),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn failed_reload_leaves_the_in_service_rules_untouched() {
        let facade = facade();
        let before = facade.engine().compiled_rules();
        // Three failure modes: parse error, typecheck error, and a rule
        // the compiler rejects up front (unknown model path).
        let attempts = [
            "Rule:broken When SessionStart do", // parse: unterminated
            "Rule:badTarget When SessionStart do \
             SetContent(MD.Sales.Store, 1) endWhen", // check: non-SUS target
            "Rule:badPath When SessionStart do \
             If (MD.NoSuchFact.Level.name = 'x') then \
             AddLayer('Airport', POINT) endIf endWhen", // unknown path
        ];
        for attempt in attempts {
            match facade.handle(WebRequest::ReloadRules {
                rules: attempt.into(),
            }) {
                WebResponse::Error { .. } => {}
                other => panic!("reload of {attempt:?} should fail, got {other:?}"),
            }
            // The in-service set is the very allocation from before.
            assert!(Arc::ptr_eq(&before, &facade.engine().compiled_rules()));
        }
        // And it still serves logins exactly as before.
        let session = login(&facade);
        assert_eq!(
            facade.handle(WebRequest::Logout { session }),
            WebResponse::LoggedOut
        );
    }
}
