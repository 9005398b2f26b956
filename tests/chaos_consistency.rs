//! Chaos suite: armed failpoints × concurrent sessions.
//!
//! The contract under injected faults is all-or-nothing per query:
//! every concurrent caller either gets a result **bit-identical to the
//! serial reference** (survivors are never silently degraded) or a
//! *typed* lifecycle refusal — the injected error's message, the
//! contained [`CoreError::ExecutionPanicked`], or
//! [`CoreError::DeadlineExceeded`] — and after the chaos is disarmed
//! the engine serves exactly as before: no invariant drift in the pool
//! gauges, the result cache, or the warehouse itself. The ingest side
//! gets the same treatment: a supervised worker that panics mid-stream
//! restarts with consistent stats, and the warehouse ends at exactly
//! the rows of the batches that survived.
//!
//! The failpoint registry and the chaos seed are process-global, so
//! every test serialises on [`serial`] and disarms through a drop
//! guard — a failed assertion cannot leak an armed point into the next
//! test. Each round is seeded ([`fault::set_seed`]), so a failure here
//! reproduces exactly under the same seed.
//!
//! The whole file only exists under `--features failpoints`; the
//! default build compiles none of it (and none of the hooks it arms).

#![cfg(feature = "failpoints")]

use sdwp::core::{CoreError, PersonalizationEngine, WebFacade, WebRequest, WebResponse};
use sdwp::datagen::{PaperScenario, RetailTicker, ScenarioConfig, TickerConfig};
use sdwp::ingest::{CompactionPolicy, DeltaBatch, EpochPolicy, IngestConfig};
use sdwp::model::AggregationFunction;
use sdwp::olap::fault::{self, FailAction};
use sdwp::olap::{
    AttributeRef, ExecutionConfig, InstanceView, OlapError, Query, QueryEngine, QueryResult,
};
use sdwp::user::LocationContext;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

const THREADS: usize = 4;
const ROUNDS: usize = 8;
/// Chaos seeds swept per matrix cell: each shifts the firing phase of
/// every armed point, so the same cell explores different
/// interleavings while staying reproducible run to run.
const SEEDS: [u64; 3] = [1, 7, 13];

/// The failpoint registry is process-global: every test takes this lock.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Disarms everything on drop, even when an assertion unwinds.
struct Teardown;
impl Drop for Teardown {
    fn drop(&mut self) {
        fault::disarm_all();
        fault::set_seed(0);
    }
}

/// Silences *injected* panics only (each would otherwise print a full
/// backtrace); everything else — failed assertions included — still
/// reaches the previous hook. Restored on drop.
struct QuietPanics(Arc<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>);
impl QuietPanics {
    fn install() -> Self {
        let previous: Arc<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send> =
            Arc::from(std::panic::take_hook());
        let forward = Arc::clone(&previous);
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|message| message.starts_with("failpoint "));
            if !injected {
                forward(info);
            }
        }));
        QuietPanics(previous)
    }
}
impl Drop for QuietPanics {
    fn drop(&mut self) {
        // Restoring the hook from a panicking thread would itself panic
        // (a double panic aborts the process); a failed assertion keeps
        // the filtering hook instead, which only hides injected noise.
        if std::thread::panicking() {
            return;
        }
        let previous = Arc::clone(&self.0);
        std::panic::set_hook(Box::new(move |info| previous(info)));
    }
}

/// The engine under chaos: a parallel executor (so the shared pool and
/// its containment paths exist), small morsels (so the scan-loop
/// failpoints evaluate many times per query), and the result cache off
/// — a hit would answer from memory and bypass the very paths being
/// tested. Cache semantics under faults get their own test with the
/// cache on.
fn chaos_engine(scenario: &PaperScenario, cache_capacity: usize) -> Arc<PersonalizationEngine> {
    let engine = PersonalizationEngine::with_execution_config(
        scenario.cube.clone(),
        Arc::new(scenario.layer_source()),
        ExecutionConfig::default()
            .with_workers(4)
            .with_morsel_rows(16)
            .with_cache_capacity(cache_capacity),
    );
    engine.register_user(scenario.manager.clone());
    Arc::new(engine)
}

fn login(engine: &PersonalizationEngine, scenario: &PaperScenario) -> u64 {
    let store = &scenario.retail.stores[0];
    engine
        .start_session(
            "regional-manager",
            Some(LocationContext::at_point(
                "office",
                store.location.x(),
                store.location.y(),
            )),
        )
        .expect("session starts")
        .id
}

/// The query panel every chaos round runs.
fn panel() -> Vec<Query> {
    vec![
        Query::over("Sales").measure("UnitSales"),
        Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales")
            .measure("StoreSales"),
        Query::over("Sales")
            .group_by(AttributeRef::new("Product", "Category", "name"))
            .measure_agg("UnitSales", AggregationFunction::Count)
            .measure_agg("StoreCost", AggregationFunction::Avg),
    ]
}

/// Asserts the pool shows no residue: nothing in flight, nothing queued.
fn assert_pool_quiescent(engine: &PersonalizationEngine) {
    let stats = engine
        .morsel_pool()
        .expect("parallel engine has a pool")
        .stats();
    for tenant in &stats.tenants {
        assert_eq!(
            (tenant.in_flight, tenant.queued),
            (0, 0),
            "pool residue after chaos: {tenant:?}"
        );
    }
}

/// Survivors of injected *errors* are bit-identical to the serial
/// reference; the failures carry the injected message through the typed
/// error chain; and once disarmed the engine serves exactly as before.
#[test]
fn injected_errors_leave_survivors_bit_identical() {
    let _serial = serial();
    let _teardown = Teardown;
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let engine = chaos_engine(&scenario, 0);
    let queries = panel();
    let reference_session = login(&engine, &scenario);
    let reference: Vec<QueryResult> = queries
        .iter()
        .map(|q| engine.query(reference_session, q).expect("reference runs"))
        .collect();

    // One failpoint per pipeline stage: plan resolution, the morsel scan
    // loop and the merge — single queries and shared-scan batches run
    // the same executor, so each site fires under both.
    for site in ["query.resolve", "query.scan.morsel", "query.merge"] {
        for seed in SEEDS {
            fault::set_seed(seed);
            fault::arm(site, FailAction::Error("chaos".into()), 3, None);
            let failures: u64 = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        let engine = Arc::clone(&engine);
                        let scenario = &scenario;
                        let queries = &queries;
                        let reference = &reference;
                        scope.spawn(move || {
                            let session = login(&engine, scenario);
                            let mut failures = 0u64;
                            for _ in 0..ROUNDS {
                                for (query, expected) in queries.iter().zip(reference) {
                                    match engine.query(session, query) {
                                        Ok(result) => assert_eq!(
                                            &result, expected,
                                            "a survivor drifted from the serial reference"
                                        ),
                                        Err(CoreError::Olap(OlapError::InvalidQuery {
                                            message,
                                        })) => {
                                            assert_eq!(message, "injected: chaos");
                                            failures += 1;
                                        }
                                        Err(other) => {
                                            panic!("untyped failure under {site}: {other:?}")
                                        }
                                    }
                                }
                                // The shared-scan batch path, same contract
                                // per panel entry.
                                match engine.query_batch(session, queries) {
                                    Ok(entries) => {
                                        for (entry, expected) in entries.into_iter().zip(reference)
                                        {
                                            match entry {
                                                Ok(result) => assert_eq!(&result, expected),
                                                Err(CoreError::Olap(OlapError::InvalidQuery {
                                                    message,
                                                })) => {
                                                    assert_eq!(message, "injected: chaos");
                                                    failures += 1;
                                                }
                                                Err(other) => panic!(
                                                    "untyped batch failure under {site}: {other:?}"
                                                ),
                                            }
                                        }
                                    }
                                    Err(CoreError::Olap(OlapError::InvalidQuery { message })) => {
                                        assert_eq!(message, "injected: chaos");
                                        failures += 1;
                                    }
                                    Err(other) => {
                                        panic!("untyped batch failure under {site}: {other:?}")
                                    }
                                }
                            }
                            engine.end_session(session).expect("chaos session ends");
                            failures
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            assert!(
                fault::hits(site) > 0,
                "the {site} round never fired — the chaos was a no-op"
            );
            // The scan site fires per morsel; the per-query sites must
            // have failed queries.
            if site == "query.resolve" || site == "query.merge" {
                assert!(failures > 0, "{site} fired but nothing surfaced");
            }
            fault::disarm(site);
        }
    }

    // No drift once disarmed: the same panel, the same bytes.
    for (query, expected) in queries.iter().zip(&reference) {
        assert_eq!(&engine.query(reference_session, query).unwrap(), expected);
    }
    assert_pool_quiescent(&engine);
}

/// Injected *panics* in the scan loop and at helper startup are
/// contained to their own query: concurrent survivors stay
/// bit-identical, the victims get the typed
/// [`CoreError::ExecutionPanicked`], and the pool keeps its workers.
#[test]
fn contained_panics_poison_only_their_own_query() {
    let _serial = serial();
    let _teardown = Teardown;
    let _quiet = QuietPanics::install();
    // Enough fact rows that a scan outlasts a helper's wake-up:
    // `pool.helper.start` is only reached by a helper that joins before
    // the caller has drained the morsels, and a 200-row scan is over
    // first.
    let scenario = PaperScenario::generate(ScenarioConfig::tiny().scaled(40));
    let engine = chaos_engine(&scenario, 0);
    let queries = panel();
    let reference_session = login(&engine, &scenario);
    let reference: Vec<QueryResult> = queries
        .iter()
        .map(|q| engine.query(reference_session, q).expect("reference runs"))
        .collect();
    let workers_before = engine.morsel_pool().unwrap().stats().workers;

    for site in ["query.scan.morsel", "pool.helper.start"] {
        for seed in SEEDS {
            fault::set_seed(seed);
            fault::arm(site, FailAction::Panic("chaos".into()), 5, None);
            let contained: u64 = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        let engine = Arc::clone(&engine);
                        let scenario = &scenario;
                        let queries = &queries;
                        let reference = &reference;
                        scope.spawn(move || {
                            let session = login(&engine, scenario);
                            let mut contained = 0u64;
                            for _ in 0..ROUNDS {
                                for (query, expected) in queries.iter().zip(reference) {
                                    match engine.query(session, query) {
                                        Ok(result) => assert_eq!(
                                            &result, expected,
                                            "a survivor drifted next to a contained panic"
                                        ),
                                        Err(CoreError::ExecutionPanicked) => contained += 1,
                                        Err(other) => {
                                            panic!("uncontained failure under {site}: {other:?}")
                                        }
                                    }
                                }
                            }
                            engine.end_session(session).expect("chaos session ends");
                            contained
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            assert!(fault::hits(site) > 0, "the {site} round never fired");
            assert!(contained > 0, "{site} panicked but nothing was contained");
            fault::disarm(site);
        }
    }

    // Containment really contained: every worker survived, the pool is
    // clean, and the panel still matches the reference bit for bit.
    assert_eq!(
        engine.morsel_pool().unwrap().stats().workers,
        workers_before
    );
    for (query, expected) in queries.iter().zip(&reference) {
        assert_eq!(&engine.query(reference_session, query).unwrap(), expected);
    }
    assert_pool_quiescent(&engine);
}

/// A deadline expiring inside a degraded scan cancels with the typed
/// refusal and **no partial state**: the result cache holds nothing a
/// cancelled query touched, and once the fault clears the same query
/// completes and caches normally.
#[test]
fn deadlines_cancel_degraded_queries_with_no_partial_state() {
    let _serial = serial();
    let _teardown = Teardown;
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    // Cache ON here: the point is that cancelled queries never publish
    // into it.
    let engine = chaos_engine(&scenario, 64);
    let session = login(&engine, &scenario);
    let query = Query::over("Sales")
        .group_by(AttributeRef::new("Store", "City", "name"))
        .measure("UnitSales");
    let budget = Some(Duration::from_millis(5));

    fault::set_seed(SEEDS[0]);
    fault::arm("query.scan.morsel", FailAction::SleepMs(10), 1, None);
    for _ in 0..3 {
        match engine.query_with_deadline(session, &query, budget) {
            Err(CoreError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    match engine.query_batch_with_deadline(session, std::slice::from_ref(&query), budget) {
        Err(CoreError::DeadlineExceeded) => {}
        Ok(entries) => {
            for entry in entries {
                match entry {
                    Err(CoreError::DeadlineExceeded) => {}
                    other => panic!("expected DeadlineExceeded in the batch, got {other:?}"),
                }
            }
        }
        Err(other) => panic!("untyped batch failure: {other:?}"),
    }
    assert!(fault::hits("query.scan.morsel") > 0);
    assert_eq!(
        engine.cache_stats().entries,
        0,
        "a cancelled query must leave the result cache untouched"
    );
    fault::disarm("query.scan.morsel");

    // Fault cleared: the very same call completes, caches, and repeats
    // identically from the cache.
    let first = engine
        .query_with_deadline(session, &query, budget)
        .expect("healthy scan beats the budget");
    assert_eq!(engine.cache_stats().entries, 1);
    let again = engine.query(session, &query).expect("cache answers");
    assert_eq!(first, again);
    assert!(engine.cache_stats().hits >= 1);
    assert_pool_quiescent(&engine);
}

/// An engine built without a pool of its own choosing gets a private
/// one, so a participant panic is contained there too: the victim — a
/// single query, or every slot of a batch — comes back as the typed
/// [`OlapError::ExecutionPanicked`] instead of unwinding into the
/// caller, the next query after disarm is served correctly, and
/// dropping the engine shuts its pool down and joins the workers.
#[test]
fn private_pool_engine_contains_scan_panics() {
    let _serial = serial();
    let _teardown = Teardown;
    let _quiet = QuietPanics::install();
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let cube = &scenario.cube;
    let view = InstanceView::unrestricted();
    let engine = QueryEngine::with_config(
        ExecutionConfig::default()
            .with_workers(2)
            .with_morsel_rows(16),
    );
    let queries = panel();
    let expected: Vec<QueryResult> = queries
        .iter()
        .map(|q| {
            engine
                .execute_with_view(cube, q, &view)
                .expect("reference runs")
        })
        .collect();

    fault::arm(
        "query.scan.morsel",
        FailAction::Panic("chaos".into()),
        1,
        None,
    );
    assert_eq!(
        engine.execute_with_view(cube, &queries[0], &view),
        Err(OlapError::ExecutionPanicked)
    );
    let batch = engine.execute_batch_with_view(cube, &queries, &view);
    assert_eq!(batch.len(), queries.len());
    for entry in batch {
        assert_eq!(entry, Err(OlapError::ExecutionPanicked));
    }
    assert!(fault::hits("query.scan.morsel") > 0);
    fault::disarm("query.scan.morsel");

    for (query, expected) in queries.iter().zip(&expected) {
        assert_eq!(
            &engine.execute_with_view(cube, query, &view).unwrap(),
            expected
        );
    }
    // `MorselPool`'s `Drop` joins every worker before it returns, so a
    // dead weak handle right after the engine drops means they are gone.
    let pool = Arc::downgrade(engine.pool());
    drop(engine);
    assert!(
        pool.upgrade().is_none(),
        "the private pool outlived its engine"
    );
}

/// The supervised ingest worker under an armed apply-phase panic:
/// every crash drops exactly its own batch, the supervisor restarts the
/// worker (consistent stats, live heartbeat, no residue in the queue
/// accounting), and the warehouse ends at precisely the rows of the
/// batches that survived.
#[test]
fn supervised_ingest_survives_apply_crashes_without_drift() {
    const BATCHES: u64 = 24;
    const APPENDS: usize = 8;

    let _serial = serial();
    let _teardown = Teardown;
    let _quiet = QuietPanics::install();
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let base_rows = scenario.retail.sales.len() as u64;
    let engine = chaos_engine(&scenario, 0);
    let session = login(&engine, &scenario);
    let ingest = engine.start_ingest(
        IngestConfig::default().with_epoch(EpochPolicy::default().with_max_rows(APPENDS)),
    );

    // Appends-only stream: a dropped batch loses its own rows and
    // nothing else, so later batches stay valid no matter which ones
    // the chaos eats. (Id-addressed corrections would desynchronise on
    // the first drop — that producer-side story is the `ProducerLagged`
    // contract, tested with the ticker.)
    let mut ticker = RetailTicker::new(
        &scenario,
        TickerConfig::default()
            .with_appends(APPENDS)
            .with_corrections(0)
            .with_retractions(0),
    );
    fault::set_seed(SEEDS[1]);
    fault::arm("ingest.apply", FailAction::Panic("chaos".into()), 6, None);
    for _ in 0..BATCHES {
        ingest.submit(ticker.next_batch()).expect("stream submits");
    }
    ingest.flush().expect("flush drains the chaos stream");
    // Read the hit counter before disarming: disarm drops the point's
    // state, counters included.
    let crashes = fault::hits("ingest.apply");
    fault::disarm("ingest.apply");
    assert!(crashes > 0, "the ingest round never fired");

    // Supervisor accounting: one restart and one failed batch per
    // crash, everything else applied, nothing stuck in the queue, the
    // worker alive and heartbeating.
    let stats = ingest.stats();
    assert_eq!(stats.batches_submitted, BATCHES);
    assert_eq!(stats.worker_restarts, crashes);
    assert_eq!(stats.batches_failed, crashes);
    assert_eq!(stats.batches_applied, BATCHES - crashes);
    assert_eq!(stats.queue_depth, 0);
    assert!(!stats.worker_down);
    assert!(stats.last_heartbeat_micros > 0);
    assert!(stats
        .last_error
        .as_deref()
        .expect("the crash left a note")
        .contains("panicked"));

    // Warehouse truth: exactly the survivors' rows are visible — a
    // count over the published snapshot equals base + applied × batch
    // size, with no torn batch in between.
    let count = engine
        .query(
            session,
            &Query::over("Sales").measure_agg("UnitSales", AggregationFunction::Count),
        )
        .expect("post-chaos query runs");
    let expected = base_rows + stats.batches_applied * APPENDS as u64;
    assert_eq!(
        count.rows[0].values[0],
        sdwp::olap::CellValue::Integer(expected as i64)
    );

    // A publish-phase crash after a successful apply: the restart
    // republishes the applied-but-unpublished state, so the batch's
    // rows are visible even though its publish step never ran.
    fault::arm(
        "ingest.publish",
        FailAction::Panic("chaos".into()),
        1,
        Some(1),
    );
    ingest.submit(ticker.next_batch()).expect("submit survives");
    ingest.flush().expect("flush survives the publish crash");
    assert_eq!(fault::hits("ingest.publish"), 1);
    fault::disarm("ingest.publish");
    let after = ingest.stats();
    assert_eq!(after.worker_restarts, crashes + 1);
    assert_eq!(after.batches_applied, stats.batches_applied + 1);
    let count = engine
        .query(
            session,
            &Query::over("Sales").measure_agg("UnitSales", AggregationFunction::Count),
        )
        .expect("query after publish crash");
    assert_eq!(
        count.rows[0].values[0],
        sdwp::olap::CellValue::Integer((expected + APPENDS as u64) as i64),
        "an applied batch whose publish crashed must still become visible"
    );
}

/// A compaction that panics before rewriting its table: the supervisor
/// restarts the worker without losing the applied batch, the next
/// epoch's compaction goes through, and a dimension-restricted session
/// reads bit-identical results throughout.
#[test]
fn supervised_ingest_survives_a_compaction_crash() {
    let _serial = serial();
    let _teardown = Teardown;
    let _quiet = QuietPanics::install();
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let engine = chaos_engine(&scenario, 0);
    let session = login(&engine, &scenario);
    // The session sees the even stores; every delta below lands on odd
    // ones, so its results must never move.
    let stores = scenario.retail.stores.len();
    engine
        .sessions()
        .with_session_mut(session, |state| {
            Arc::make_mut(&mut state.view)
                .select_dimension_members("Store", (0..stores).step_by(2));
        })
        .expect("session exists");
    // Exact measures only: `UnitSales` holds whole numbers, so its sums
    // do not depend on how compaction's renumbering regroups the rows
    // into morsels (a `StoreSales` sum can move in its last bit).
    let queries = [
        Query::over("Sales").measure("UnitSales"),
        Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales")
            .measure_agg("UnitSales", AggregationFunction::Max),
        Query::over("Sales")
            .group_by(AttributeRef::new("Product", "Category", "name"))
            .measure_agg("StoreCost", AggregationFunction::Count),
    ];
    let baseline: Vec<QueryResult> = queries
        .iter()
        .map(|q| engine.query(session, q).expect("baseline"))
        .collect();
    let ingest = engine.start_ingest(
        IngestConfig::default()
            .with_epoch(EpochPolicy::default().with_max_rows(1))
            .with_compaction(
                CompactionPolicy::disabled()
                    .with_max_tombstone_ratio(0.25)
                    .with_min_rows(4),
            ),
    );

    // One batch retracts every odd-store row: its epoch crosses the
    // policy, and the compaction it triggers panics.
    let mut retract = DeltaBatch::new();
    for (row, sale) in scenario.retail.sales.iter().enumerate() {
        if sale.store % 2 == 1 {
            retract = retract.retract("Sales", row);
        }
    }
    fault::arm(
        "ingest.compact",
        FailAction::Panic("chaos".into()),
        1,
        Some(1),
    );
    ingest.submit(retract).expect("submit");
    ingest.flush().expect("flush survives the compaction crash");
    assert_eq!(fault::hits("ingest.compact"), 1);
    fault::disarm("ingest.compact");
    let stats = ingest.stats();
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!((stats.batches_applied, stats.batches_failed), (1, 0));
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.compactions, 0, "the crashed compaction never ran");
    for (query, expected) in queries.iter().zip(&baseline) {
        assert_eq!(&engine.query(session, query).expect("query"), expected);
    }

    // The next epoch retries the compaction, which now goes through.
    let append = DeltaBatch::new().append(
        "Sales",
        vec![
            ("Store", 1usize),
            ("Customer", 0),
            ("Product", 0),
            ("Time", 0),
        ],
        vec![("UnitSales", sdwp::olap::CellValue::Float(1.0))],
    );
    ingest.submit(append).expect("submit");
    ingest.flush().expect("flush");
    let stats = ingest.stats();
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!((stats.batches_applied, stats.batches_failed), (2, 0));
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.compactions, 1);
    let sales = stats
        .fact_tables
        .iter()
        .find(|s| s.fact == "Sales")
        .expect("Sales gauge");
    assert_eq!(sales.tombstone_ratio, 0.0);
    assert!(sales.remap_chain_len <= 1, "{sales:?}");
    for (query, expected) in queries.iter().zip(&baseline) {
        assert_eq!(&engine.query(session, query).expect("query"), expected);
    }
    assert_pool_quiescent(&engine);
}

/// A rule-set installation that fails after compiling: `ReloadRules`
/// answers a typed error and the in-service set is the very allocation
/// from before; once disarmed, the same reload goes through.
#[test]
fn an_injected_install_error_keeps_the_rules_in_service() {
    let _serial = serial();
    let _teardown = Teardown;
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let facade = WebFacade::from_shared(chaos_engine(&scenario, 0));
    let engine = facade.engine();
    engine
        .add_rules_text(sdwp::prml::corpus::ALL_PAPER_RULES[0])
        .expect("rules install");
    let before = engine.compiled_rules();
    let replacement = "Rule:countLogins When SessionStart do \
         SetContent(SUS.DecisionMaker.logins, 1) endWhen";

    fault::arm(
        "rules.install",
        FailAction::Error("chaos".into()),
        1,
        Some(1),
    );
    match facade.handle(WebRequest::ReloadRules {
        rules: replacement.into(),
    }) {
        WebResponse::Error { message } => assert!(message.contains("injected: chaos"), "{message}"),
        other => panic!("expected a typed error, got {other:?}"),
    }
    assert_eq!(fault::hits("rules.install"), 1);
    assert!(Arc::ptr_eq(&before, &engine.compiled_rules()));

    match facade.handle(WebRequest::ReloadRules {
        rules: replacement.into(),
    }) {
        WebResponse::RulesReloaded { .. } => {}
        other => panic!("expected the reload to go through, got {other:?}"),
    }
    assert!(!Arc::ptr_eq(&before, &engine.compiled_rules()));
    assert_eq!(engine.compiled_rules().len(), 1);
}
