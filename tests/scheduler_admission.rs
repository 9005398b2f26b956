//! Integration test of tenant-aware scheduling and admission control
//! through the web facade: best-effort classes shed over budget with a
//! typed retryable [`WebResponse::Overloaded`] (and leave **no** partial
//! state behind), guaranteed classes block instead of shedding, and the
//! scheduler's queue-depth / in-flight / shed series surface through
//! both metrics endpoints.

use sdwp::core::{PersonalizationEngine, TenantPolicy, WebFacade, WebRequest, WebResponse};
use sdwp::datagen::{PaperScenario, ScenarioConfig};
use sdwp::olap::ExecutionConfig;
use sdwp::prml::corpus::ALL_PAPER_RULES;
use std::sync::Arc;
use std::time::Duration;

/// An engine with an explicit worker count, so the helper population the
/// tests read back does not depend on the host's core count.
fn facade(scenario: &PaperScenario) -> WebFacade {
    facade_with_workers(scenario, 4)
}

fn facade_with_workers(scenario: &PaperScenario, workers: usize) -> WebFacade {
    let engine = PersonalizationEngine::with_execution_config(
        scenario.cube.clone(),
        Arc::new(scenario.layer_source()),
        ExecutionConfig::default().with_workers(workers),
    );
    engine.register_user(scenario.manager.clone());
    engine.set_parameter("threshold", 2.0);
    for rule in ALL_PAPER_RULES {
        engine.add_rules_text(rule).expect("paper rule registers");
    }
    WebFacade::new(engine)
}

fn login(facade: &WebFacade, class: &str) -> u64 {
    match facade.handle(WebRequest::Login {
        user: "regional-manager".into(),
        location: Some((50.0, 50.0)),
        class: Some(class.into()),
    }) {
        WebResponse::LoggedIn { session, .. } => session,
        other => panic!("unexpected response {other:?}"),
    }
}

fn aggregate(session: u64) -> WebRequest {
    WebRequest::Aggregate {
        session,
        fact: "Sales".into(),
        measure: "UnitSales".into(),
        group_by: vec![("Store".into(), "City".into(), "name".into())],
        deadline_micros: None,
    }
}

fn metrics(facade: &WebFacade) -> sdwp::core::MetricsSnapshot {
    match facade.handle(WebRequest::Metrics) {
        WebResponse::Metrics { snapshot } => snapshot,
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn best_effort_class_sheds_with_typed_response_and_no_partial_state() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let facade = facade(&scenario);
    let class = facade.engine().set_tenant_policy(
        "dashboard",
        TenantPolicy::default().best_effort().with_max_in_flight(1),
    );
    let session = login(&facade, "dashboard");
    let pool = Arc::clone(
        facade
            .engine()
            .morsel_pool()
            .expect("parallel engine has a pool"),
    );

    // Occupy the class's entire in-flight budget, as a concurrent query
    // of the same tenant would.
    let slot = pool
        .try_admit(class)
        .expect("first admission fits the budget");

    // Over budget: the facade answers with the typed retryable
    // rejection, not a generic error.
    match facade.handle(aggregate(session)) {
        WebResponse::Overloaded {
            class,
            in_flight,
            limit,
            ..
        } => {
            assert_eq!(class, "dashboard");
            assert_eq!(in_flight, 1);
            assert_eq!(limit, 1);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // The batch path goes through the same gate.
    let panel = sdwp::olap::Query::over("Sales").measure("UnitSales");
    match facade.handle(WebRequest::QueryBatch {
        session,
        queries: vec![panel],
        deadline_micros: None,
    }) {
        WebResponse::Overloaded { class, .. } => assert_eq!(class, "dashboard"),
        other => panic!("expected Overloaded for the batch, got {other:?}"),
    }

    // A shed query did no work at all: nothing reached the execution
    // stages and nothing was cached, so the later retry is a cache miss.
    let snap = metrics(&facade);
    assert!(
        snap.stage("query_scan", "dashboard").is_none(),
        "a shed query must not scan"
    );
    assert!(
        snap.stage("cache_lookup", "dashboard").is_none(),
        "a shed query must not probe the result cache"
    );
    assert_eq!(facade.engine().cache_stats().entries, 0);

    // Capacity frees (the concurrent query finishes): the identical
    // request now succeeds end to end.
    drop(slot);
    assert!(matches!(
        facade.handle(aggregate(session)),
        WebResponse::Table { .. }
    ));
    // query_total saw the shed aggregate (the end-to-end span records on
    // every exit, errors included) and the successful retry; the shed
    // batch recorded under batch_total instead.
    let after = metrics(&facade);
    assert_eq!(after.stage("query_total", "dashboard").unwrap().count, 2);
    assert_eq!(after.stage("query_scan", "dashboard").unwrap().count, 1);
}

/// Tenant budgets do not depend on the worker count: a one-worker engine
/// has the same admission gate (a pool of zero helpers), so its policy is
/// stored and enforced rather than silently dropped.
#[test]
fn single_worker_engine_enforces_tenant_policy() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let facade = facade_with_workers(&scenario, 1);
    let policy = TenantPolicy::default().best_effort().with_max_in_flight(1);
    let class = facade.engine().set_tenant_policy("dashboard", policy);
    let session = login(&facade, "dashboard");
    let pool = Arc::clone(facade.engine().morsel_pool().unwrap());
    assert_eq!(pool.policy(class), policy);
    assert_eq!(metrics(&facade).gauge("scheduler_workers"), Some(0));

    // One query of the class in flight: the second is shed, typed.
    let slot = pool.try_admit(class).expect("budget admits one");
    match facade.handle(aggregate(session)) {
        WebResponse::Overloaded {
            class,
            in_flight,
            limit,
            ..
        } => assert_eq!((class.as_str(), in_flight, limit), ("dashboard", 1, 1)),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    drop(slot);
    // Capacity frees: the same request runs, inline on the caller.
    assert!(matches!(
        facade.handle(aggregate(session)),
        WebResponse::Table { .. }
    ));
}

#[test]
fn guaranteed_class_blocks_until_capacity_frees() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let facade = facade(&scenario);
    let class = facade
        .engine()
        .set_tenant_policy("analyst", TenantPolicy::default().with_max_in_flight(1));
    let session = login(&facade, "analyst");
    let pool = Arc::clone(
        facade
            .engine()
            .morsel_pool()
            .expect("parallel engine has a pool"),
    );
    let slot = pool
        .try_admit(class)
        .expect("first admission fits the budget");

    // A guaranteed tenant over budget waits instead of shedding: the
    // query thread parks in admission until the slot frees.
    let blocked = {
        let facade = facade.clone();
        std::thread::spawn(move || facade.handle(aggregate(session)))
    };
    std::thread::sleep(Duration::from_millis(30));
    assert!(
        !blocked.is_finished(),
        "guaranteed admission should block while the budget is exhausted"
    );
    drop(slot);
    match blocked.join().expect("blocked query thread exits cleanly") {
        WebResponse::Table { .. } => {}
        other => panic!("expected Table after capacity freed, got {other:?}"),
    }
    // Nothing was shed along the way.
    assert_eq!(metrics(&facade).counter("scheduler_shed_total"), Some(0));
}

#[test]
fn scheduler_state_surfaces_through_both_metrics_endpoints() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let facade = facade(&scenario);
    let class = facade.engine().set_tenant_policy(
        "dashboard",
        TenantPolicy::default()
            .best_effort()
            .with_weight(3)
            .with_max_in_flight(1),
    );
    let session = login(&facade, "dashboard");
    let pool = Arc::clone(
        facade
            .engine()
            .morsel_pool()
            .expect("parallel engine has a pool"),
    );

    // One successful query, then a shed one.
    assert!(matches!(
        facade.handle(aggregate(session)),
        WebResponse::Table { .. }
    ));
    let slot = pool.try_admit(class).expect("budget admits one");
    assert!(matches!(
        facade.handle(aggregate(session)),
        WebResponse::Overloaded { .. }
    ));
    drop(slot);

    let snap = metrics(&facade);
    let workers = snap.gauge("scheduler_workers").expect("worker gauge");
    assert_eq!(workers, 3, "4-worker executor keeps 3 pool helpers");
    // Per-tenant series exist for the registered class and are quiescent
    // between queries.
    assert_eq!(snap.gauge("scheduler_queue_depth_dashboard"), Some(0));
    assert_eq!(snap.gauge("scheduler_in_flight_dashboard"), Some(0));
    assert_eq!(snap.gauge("scheduler_share_dashboard"), Some(3));
    assert_eq!(snap.counter("scheduler_shed_dashboard"), Some(1));
    assert_eq!(snap.counter("scheduler_shed_total"), Some(1));
    // The helper wait-time histogram recorded under the tenant's class
    // (the successful aggregate dispatched helper task items).
    if let Some(wait) = snap.stage("scheduler_wait", "dashboard") {
        assert!(wait.count >= 1);
        assert!(wait.p50 <= wait.p99);
    }

    // The same series reach the Prometheus exposition.
    let body = match facade.handle(WebRequest::MetricsText) {
        WebResponse::MetricsText { body } => body,
        other => panic!("unexpected response {other:?}"),
    };
    assert!(body.contains("sdwp_scheduler_workers 3"));
    assert!(body.contains("sdwp_scheduler_share_dashboard 3"));
    assert!(body.contains("sdwp_scheduler_shed_total 1"));
}

/// A guaranteed-class query that blocks in admission while a deadline is
/// set expires *in the queue*: the caller gets the typed deadline error
/// promptly (bounded wait, not a park-forever), nothing was shed, and
/// the slot accounting stays balanced — once capacity frees, the same
/// request succeeds.
#[test]
fn deadline_expires_while_blocked_in_admission() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let facade = facade(&scenario);
    let class = facade
        .engine()
        .set_tenant_policy("analyst", TenantPolicy::default().with_max_in_flight(1));
    let session = login(&facade, "analyst");
    let pool = Arc::clone(
        facade
            .engine()
            .morsel_pool()
            .expect("parallel engine has a pool"),
    );
    let slot = pool
        .try_admit(class)
        .expect("first admission fits the budget");

    // The budget covers the admission wait: with the slot held, a 20 ms
    // deadline expires in the queue and surfaces as the typed error —
    // not a shed, not a hang.
    let started = std::time::Instant::now();
    let response = facade.handle(WebRequest::Aggregate {
        session,
        fact: "Sales".into(),
        measure: "UnitSales".into(),
        group_by: vec![("Store".into(), "City".into(), "name".into())],
        deadline_micros: Some(20_000),
    });
    let waited = started.elapsed();
    match response {
        WebResponse::Error { message } => {
            assert!(
                message.contains("deadline exceeded"),
                "expected the typed deadline refusal, got: {message}"
            );
        }
        other => panic!("expected the deadline error, got {other:?}"),
    }
    assert!(
        waited >= Duration::from_millis(20) && waited < Duration::from_secs(5),
        "the admission wait must be bounded by the deadline, waited {waited:?}"
    );
    // Expiring in the queue is not shedding, and it leaks no slot.
    let snap = metrics(&facade);
    assert_eq!(snap.counter("scheduler_shed_total"), Some(0));
    assert_eq!(snap.gauge("scheduler_in_flight_analyst"), Some(1));

    // Capacity frees: the identical request (same deadline, now ample)
    // succeeds end to end, proving the expiry left no residue behind.
    drop(slot);
    assert!(matches!(
        facade.handle(WebRequest::Aggregate {
            session,
            fact: "Sales".into(),
            measure: "UnitSales".into(),
            group_by: vec![("Store".into(), "City".into(), "name".into())],
            deadline_micros: Some(5_000_000),
        }),
        WebResponse::Table { .. }
    ));
    assert_eq!(
        metrics(&facade).gauge("scheduler_in_flight_analyst"),
        Some(0)
    );
}

/// Shedding under an armed failpoint: an over-budget best-effort query
/// is refused with the typed `Overloaded` *before* any faulty stage can
/// run, and once capacity frees the degraded-but-healthy scan still
/// answers. Only exists under `--features failpoints`; the armed action
/// is a sleep, so concurrently running tests are at most slowed, never
/// corrupted.
#[cfg(feature = "failpoints")]
#[test]
fn shed_stays_typed_while_a_failpoint_is_armed() {
    use sdwp::olap::fault::{self, FailAction};

    /// Disarms on drop so a failed assertion cannot leak the armed
    /// point into another test.
    struct Teardown;
    impl Drop for Teardown {
        fn drop(&mut self) {
            fault::disarm("query.scan.morsel");
        }
    }

    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let facade = facade(&scenario);
    let class = facade.engine().set_tenant_policy(
        "dashboard",
        TenantPolicy::default().best_effort().with_max_in_flight(1),
    );
    let session = login(&facade, "dashboard");
    let pool = Arc::clone(
        facade
            .engine()
            .morsel_pool()
            .expect("parallel engine has a pool"),
    );

    let _teardown = Teardown;
    fault::arm("query.scan.morsel", FailAction::SleepMs(5), 1, None);

    // Over budget with the scan stage armed: the shed happens at the
    // admission gate, so the refusal is still the immediate typed
    // `Overloaded` — the fault never gets a chance to run.
    let slot = pool
        .try_admit(class)
        .expect("first admission fits the budget");
    match facade.handle(aggregate(session)) {
        WebResponse::Overloaded { class, .. } => assert_eq!(class, "dashboard"),
        other => panic!("expected Overloaded under the armed failpoint, got {other:?}"),
    }
    assert_eq!(
        metrics(&facade).counter("scheduler_shed_dashboard"),
        Some(1)
    );

    // Capacity frees: the query runs through the degraded (sleeping)
    // scan and still completes normally.
    drop(slot);
    assert!(matches!(
        facade.handle(aggregate(session)),
        WebResponse::Table { .. }
    ));
}

/// A class whose only history is `QueryBatch` still gets a backoff hint
/// when shed: the hint reads the batch read path's end-to-end p99 as
/// well as the single-query one, so a batch-only tenant is not told to
/// retry immediately.
#[test]
fn shed_batch_only_class_gets_a_nonzero_retry_hint() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let facade = facade(&scenario);
    let class = facade.engine().set_tenant_policy(
        "analyst",
        TenantPolicy::default().best_effort().with_max_in_flight(1),
    );
    let session = login(&facade, "analyst");
    let batch = || WebRequest::QueryBatch {
        session,
        queries: vec![sdwp::olap::Query::over("Sales").measure("UnitSales")],
        deadline_micros: None,
    };
    // The class's whole latency history: one executed batch.
    assert!(matches!(
        facade.handle(batch()),
        WebResponse::BatchResult { .. }
    ));
    assert!(metrics(&facade).stage("query_total", "analyst").is_none());

    let pool = Arc::clone(
        facade
            .engine()
            .morsel_pool()
            .expect("parallel engine has a pool"),
    );
    let _slot = pool.try_admit(class).expect("budget admits one");
    match facade.handle(batch()) {
        WebResponse::Overloaded {
            class,
            retry_after_hint_micros,
            ..
        } => {
            assert_eq!(class, "analyst");
            assert!(
                retry_after_hint_micros > 0,
                "a batch-only class must not be told to retry immediately"
            );
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
}
