//! Integration test of the observability surface: stage-timing
//! histograms keyed by session class, engine counters and gauges, the
//! slow-query journal, and the `Metrics`/`MetricsText`/`DictCacheStats`
//! facade endpoints — plus the disabled-registry zero-recording path.

use sdwp::core::{MetricsRegistry, PersonalizationEngine, WebFacade, WebRequest, WebResponse};
use sdwp::datagen::{PaperScenario, ScenarioConfig};
use sdwp::ingest::DeltaBatch;
use sdwp::olap::{AttributeRef, CellValue, ExecutionConfig, Query};
use sdwp::prml::corpus::ALL_PAPER_RULES;
use std::sync::Arc;

fn facade(scenario: &PaperScenario) -> WebFacade {
    let engine = PersonalizationEngine::with_layer_source(
        scenario.cube.clone(),
        Arc::new(scenario.layer_source()),
    );
    engine.register_user(scenario.manager.clone());
    engine.set_parameter("threshold", 2.0);
    for rule in ALL_PAPER_RULES {
        engine.add_rules_text(rule).expect("paper rule registers");
    }
    WebFacade::new(engine)
}

fn login_classed(facade: &WebFacade, class: Option<&str>) -> u64 {
    match facade.handle(WebRequest::Login {
        user: "regional-manager".into(),
        location: Some((50.0, 50.0)),
        class: class.map(str::to_string),
    }) {
        WebResponse::LoggedIn { session, .. } => session,
        other => panic!("unexpected response {other:?}"),
    }
}

fn metrics(facade: &WebFacade) -> sdwp::core::MetricsSnapshot {
    match facade.handle(WebRequest::Metrics) {
        WebResponse::Metrics { snapshot } => snapshot,
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn stage_latencies_are_keyed_by_session_class() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let facade = facade(&scenario);
    let session = login_classed(&facade, Some("dashboard"));

    // A standalone aggregate, twice: the repeat hits the result cache,
    // so exactly one execution flows through the scan/merge stages.
    let aggregate = WebRequest::Aggregate {
        session,
        fact: "Sales".into(),
        measure: "UnitSales".into(),
        group_by: vec![("Store".into(), "City".into(), "name".into())],
        deadline_micros: None,
    };
    assert!(matches!(
        facade.handle(aggregate.clone()),
        WebResponse::Table { .. }
    ));
    assert!(matches!(
        facade.handle(aggregate),
        WebResponse::Table { .. }
    ));

    // A dashboard batch through the shared-scan pipeline, twice: the
    // warm refresh is answered entirely from the result cache.
    let by_city = Query::over("Sales")
        .measure("UnitSales")
        .group_by(AttributeRef::new("Store", "City", "name"));
    let total = Query::over("Sales").measure("StoreCost");
    let batch = WebRequest::QueryBatch {
        session,
        queries: vec![by_city, total],
        deadline_micros: None,
    };
    assert!(matches!(
        facade.handle(batch.clone()),
        WebResponse::BatchResult { .. }
    ));
    assert!(matches!(
        facade.handle(batch),
        WebResponse::BatchResult { .. }
    ));

    // A spatial selection fires the (compiled) content-update rule.
    assert!(matches!(
        facade.handle(WebRequest::SpatialSelection {
            session,
            element: "GeoMD.Store.City".into(),
            expression: None,
        }),
        WebResponse::SelectionRecorded { .. }
    ));

    let snap = metrics(&facade);
    assert!(snap.enabled);

    // Every query-pipeline stage shows up under the login's class, with
    // ordered quantiles and a per-stage count matching one execution.
    for stage in [
        "query_resolve",
        "query_scan",
        "query_merge",
        "query_finalize",
        "query_total",
        "batch_resolve",
        "batch_scan",
        "batch_merge",
        "batch_finalize",
        "batch_total",
        "cache_lookup",
        "session_start",
    ] {
        let row = snap
            .stage(stage, "dashboard")
            .unwrap_or_else(|| panic!("stage {stage} missing for class dashboard"));
        assert!(row.count >= 1, "{stage} count");
        assert!(
            row.p50 <= row.p90 && row.p90 <= row.p99,
            "{stage} quantiles"
        );
        assert!(
            snap.stage(stage, "default").is_none(),
            "{stage} leaked into the default class"
        );
    }
    // query_total counts both calls (the cached repeat included); the
    // execution stages only saw the miss.
    assert_eq!(snap.stage("query_total", "dashboard").unwrap().count, 2);
    assert_eq!(snap.stage("query_scan", "dashboard").unwrap().count, 1);
    // Likewise for the batch: the all-hit repeat never reached the
    // executor, so not even its resolve stage recorded a second sample.
    assert_eq!(snap.stage("batch_total", "dashboard").unwrap().count, 2);
    assert_eq!(snap.stage("batch_resolve", "dashboard").unwrap().count, 1);
    assert_eq!(snap.stage("batch_scan", "dashboard").unwrap().count, 1);

    // Rule firing was timed per phase under the session's class.
    assert!(snap.stage("rule_condition", "dashboard").is_some());
    assert!(snap.stage("rule_effect", "dashboard").is_some());

    // Engine counters and gauges ride along in the same snapshot.
    assert!(snap.counter("cache_hits").unwrap() >= 1);
    assert!(snap.counter("dict_cache_misses").unwrap() >= 1);
    assert_eq!(snap.gauge("sessions_active"), Some(1));
    assert!(snap.gauge("cube_generation").is_some());

    // Logout moves the gauge pair and times session_end.
    assert_eq!(
        facade.handle(WebRequest::Logout { session }),
        WebResponse::LoggedOut
    );
    let after = metrics(&facade);
    assert_eq!(after.gauge("sessions_active"), Some(0));
    assert_eq!(after.counter("sessions_reclaimed"), Some(1));
    assert!(after.stage("session_end", "dashboard").is_some());
}

#[test]
fn ingest_stages_and_queue_depth_are_observable() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let facade = facade(&scenario);
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
    assert!(matches!(
        facade.handle(WebRequest::Ingest { batch }),
        WebResponse::IngestAccepted { .. }
    ));
    facade
        .engine()
        .ingest_handle()
        .expect("ingest pipeline is running")
        .flush()
        .unwrap();

    let snap = metrics(&facade);
    for stage in ["ingest_validate", "ingest_apply", "ingest_publish"] {
        let row = snap
            .stage(stage, "default")
            .unwrap_or_else(|| panic!("stage {stage} missing"));
        assert!(row.count >= 1, "{stage} count");
    }
    // After the flush drained the queue, the derived backlog gauge is 0,
    // and the same number reaches the IngestStats response.
    assert_eq!(snap.gauge("ingest_queue_depth"), Some(0));
    assert_eq!(snap.counter("ingest_batches_applied"), Some(1));
    match facade.handle(WebRequest::IngestStats) {
        WebResponse::IngestStats { queue_depth, .. } => assert_eq!(queue_depth, 0),
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn slow_query_journal_captures_the_stage_breakdown() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let facade = facade(&scenario);
    let session = login_classed(&facade, Some("vip"));
    // Threshold 0: every query is journaled.
    facade.engine().set_slow_query_threshold_micros(0);
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
    let by_city = Query::over("Sales")
        .measure("StoreCost")
        .group_by(AttributeRef::new("Store", "City", "name"));
    assert!(matches!(
        facade.handle(WebRequest::QueryBatch {
            session,
            queries: vec![by_city],
            deadline_micros: None,
        }),
        WebResponse::BatchResult { .. }
    ));

    let snap = metrics(&facade);
    let standalone = snap
        .slow_queries
        .iter()
        .find(|r| r.shape.starts_with("Sales"))
        .expect("standalone query journaled");
    assert!(standalone.shape.contains("group_by=[name]"));
    assert_eq!(standalone.class, "vip");
    assert!(standalone.workers >= 1);
    // The stage breakdown never exceeds the end-to-end total.
    assert!(
        standalone.resolve_micros
            + standalone.scan_micros
            + standalone.merge_micros
            + standalone.finalize_micros
            <= standalone.total_micros
    );
    let batched = snap
        .slow_queries
        .iter()
        .find(|r| r.shape.starts_with("batch:Sales"))
        .expect("batch fact group journaled");
    assert_eq!(batched.class, "vip");

    // Raising the threshold stops journaling without clearing history.
    facade.engine().set_slow_query_threshold_micros(u64::MAX);
    let _ = login_classed(&facade, Some("vip"));
    assert_eq!(metrics(&facade).slow_queries.len(), snap.slow_queries.len());
}

#[test]
fn prometheus_text_and_dict_cache_endpoints() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let facade = facade(&scenario);
    let session = login_classed(&facade, None);
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

    let body = match facade.handle(WebRequest::MetricsText) {
        WebResponse::MetricsText { body } => body,
        other => panic!("unexpected response {other:?}"),
    };
    assert!(body.contains("# TYPE sdwp_stage_latency_micros summary"));
    assert!(body.contains("stage=\"query_scan\",class=\"default\",quantile=\"0.99\""));
    assert!(body.contains("sdwp_sessions_active 1"));
    assert!(body.contains("sdwp_slow_queries_retained"));

    // The grouped aggregate built one dictionary: the dedicated
    // endpoint reports the same counters `dict_cache_stats()` holds.
    let stats = facade.engine().dict_cache_stats();
    match facade.handle(WebRequest::DictCacheStats) {
        WebResponse::DictCacheStats {
            hits,
            misses,
            entries,
            invalidations,
        } => {
            assert_eq!(
                (hits, misses, entries, invalidations),
                (stats.hits, stats.misses, stats.entries, stats.invalidations)
            );
            assert!(misses >= 1);
            assert!(entries >= 1);
        }
        other => panic!("unexpected response {other:?}"),
    }

    // The structured snapshot reaches the front end inside the response,
    // and the messages are plain values that clone and compare.
    let response = facade.handle(WebRequest::Metrics);
    let debug = format!("{response:?}");
    assert!(debug.contains("query_scan"));
    let request = WebRequest::Metrics;
    assert_eq!(request.clone(), request);
}

#[test]
fn disabled_registry_keeps_the_pipeline_dark() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let engine = PersonalizationEngine::with_observability(
        scenario.cube.clone(),
        Arc::new(scenario.layer_source()),
        ExecutionConfig::default(),
        Arc::new(MetricsRegistry::disabled()),
    );
    engine.register_user(scenario.manager.clone());
    engine.set_parameter("threshold", 2.0);
    for rule in ALL_PAPER_RULES {
        engine.add_rules_text(rule).expect("paper rule registers");
    }
    let facade = WebFacade::new(engine);
    let session = login_classed(&facade, Some("dashboard"));
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
    let snap = metrics(&facade);
    assert!(!snap.enabled);
    assert!(snap.stages.is_empty(), "disabled registry recorded stages");
    assert!(snap.slow_queries.is_empty());
    // Engine-owned counters still work — they are plain atomics, not
    // part of the recording fast path.
    assert_eq!(snap.gauge("sessions_active"), Some(1));
}
