//! Compaction-consistency suite: tombstone compaction must be invisible
//! to open sessions, even while ingestion keeps running.
//!
//! The engine's contract: a compaction rewrites a fact table's live rows
//! into fresh chunks and remaps the stable row ids, publishing the remap
//! chain on the fact table. Session views restrict dimension members,
//! which compaction never renumbers, so a personalized aggregate reads
//! the same live rows before and after every compaction.
//!
//! The writer below follows the producer-side protocol for id-addressed
//! deltas: after every flush it re-reads the published remap chain and
//! translates its outstanding row ids before submitting the next batch.

use sdwp::core::PersonalizationEngine;
use sdwp::datagen::{PaperScenario, ScenarioConfig};
use sdwp::ingest::{CompactionPolicy, DeltaBatch, EpochPolicy, IngestConfig};
use sdwp::olap::{CellValue, ExecutionConfig, Query, QueryEngine};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

#[test]
fn session_views_survive_compaction_under_concurrent_ingest() {
    let scenario = PaperScenario::generate(ScenarioConfig::tiny());
    let total_rows = scenario.retail.sales.len();
    assert!(total_rows >= 8, "scenario too small to exercise compaction");
    let engine = Arc::new(PersonalizationEngine::new(scenario.cube.clone()));
    engine.register_user(scenario.manager.clone());
    let session = engine
        .start_session("regional-manager", None)
        .expect("session starts")
        .id;

    // Personalize the session by hand (no rules registered): it sees only
    // the even-numbered stores. The writer retracts rows of odd stores
    // only and appends to an odd store, so the personalized aggregate is
    // invariant for the whole run.
    let stores = scenario.retail.stores.len();
    engine
        .sessions()
        .with_session_mut(session, |state| {
            Arc::make_mut(&mut state.view)
                .select_dimension_members("Store", (0..stores).step_by(2));
        })
        .expect("session exists");
    let view_before = engine.session_view(session).expect("view loads");

    let sum_query = Query::over("Sales").measure("UnitSales");
    let baseline = engine.query(session, &sum_query).expect("baseline query");
    assert!(baseline.facts_scanned > 0);

    // Aggressive policies so the run publishes and compacts constantly.
    let ingest = engine.start_ingest(
        IngestConfig::default()
            .with_epoch(
                EpochPolicy::default()
                    .with_max_rows(1)
                    .with_max_interval(std::time::Duration::from_millis(1)),
            )
            .with_compaction(
                CompactionPolicy::disabled()
                    .with_max_tombstone_ratio(0.25)
                    .with_min_rows(4),
            ),
    );

    // Readers race the writer: the personalized aggregate must equal the
    // baseline on every snapshot, and the morsel-parallel executor must
    // agree with the serial reference on whatever (cube, view) pair they
    // load.
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            let sum_query = sum_query.clone();
            let baseline = baseline.clone();
            thread::spawn(move || {
                let parallel = QueryEngine::with_config(
                    ExecutionConfig::default()
                        .with_workers(4)
                        .with_morsel_rows(3),
                );
                let serial = QueryEngine::with_config(ExecutionConfig::serial());
                let mut observed = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let through_engine = engine
                        .query(session, &sum_query)
                        .expect("session query succeeds mid-compaction");
                    assert_eq!(
                        through_engine.rows, baseline.rows,
                        "personalized aggregate drifted across compaction"
                    );
                    // Executor equivalence on a self-consistent
                    // (view, cube) pair loaded in the engine's own order.
                    let view = engine.session_view(session).expect("view loads");
                    let (_, cube) = engine.cube_versioned();
                    let a = parallel
                        .execute_with_view(&cube, &sum_query, &view)
                        .expect("parallel");
                    let b = serial
                        .execute_serial_with_view(&cube, &sum_query, &view)
                        .expect("serial");
                    assert_eq!(a, b, "executors diverged on a compacted snapshot");
                    observed += 1;
                }
                observed
            })
        })
        .collect();

    // The writer retracts every row of an odd store (never a visible one)
    // and appends fresh rows, translating its outstanding ids through the
    // published remap chain after every flush — the producer-side remap
    // protocol.
    let mut pending: Vec<usize> = (0..total_rows)
        .filter(|&row| scenario.retail.sales[row].store % 2 == 1)
        .collect();
    let retracted = pending.len();
    assert!(
        retracted >= total_rows / 4,
        "too few odd-store rows to compact"
    );
    let mut version_seen = 0u64;
    while !pending.is_empty() {
        let chunk: Vec<usize> = pending.drain(..pending.len().min(3)).collect();
        let mut batch = DeltaBatch::new();
        for row in chunk {
            batch = batch.retract("Sales", row);
        }
        batch = batch.append(
            "Sales",
            vec![
                ("Store", 1usize),
                ("Customer", 0usize),
                ("Product", 0usize),
                ("Time", 0usize),
            ],
            vec![("UnitSales", CellValue::Float(1_000_000.0))],
        );
        ingest.submit(batch).expect("submit");
        ingest.flush().expect("flush");
        // Re-anchor outstanding ids to the current numbering. The chain
        // keeps the latest transition, so a producer that re-anchors
        // after every flush walks the retained transitions
        // (`translate_rows_from`) rather than absolute chain indices; a
        // refusal would mean the writer lagged past the retained window.
        let cube = engine.cube();
        let fact_table = cube.fact_table("Sales").expect("Sales exists");
        let current = fact_table.compaction_version();
        if current > version_seen {
            pending = fact_table
                .translate_rows_from(version_seen, pending)
                .expect("a writer re-anchoring after every flush never lags");
            version_seen = current;
        }
    }
    done.store(true, Ordering::Relaxed);
    for reader in readers {
        assert!(reader.join().expect("reader thread") > 0);
    }

    // The run actually compacted (about half the table was tombstoned
    // against a 0.25 ratio), the stored session view is untouched, and the
    // invariant still holds on the final state.
    let stats = engine.ingest_stats().expect("pipeline running");
    assert!(stats.compactions >= 1, "compaction never triggered");
    assert_eq!(stats.rows_retracted as usize, retracted);
    let view = engine.session_view(session).expect("view loads");
    assert_eq!(view, view_before, "compaction never touches a view");
    let final_result = engine.query(session, &sum_query).expect("final query");
    assert_eq!(final_result.rows, baseline.rows);
    // The appended sentinel rows are invisible to the view …
    assert!(final_result
        .rows
        .iter()
        .all(|row| row.values[0].as_number().unwrap_or(0.0) < 1_000_000.0));
    // … but visible without personalization.
    let unrestricted = engine
        .query_unpersonalized(&sum_query)
        .expect("unpersonalized query");
    assert!(unrestricted.rows[0].values[0].as_number().unwrap() >= 1_000_000.0);
    let sales = engine
        .ingest_stats()
        .unwrap()
        .fact_tables
        .into_iter()
        .find(|s| s.fact == "Sales")
        .expect("Sales gauge");
    assert!(
        sales.tombstone_ratio < 0.25,
        "compaction kept tombstone pressure under the policy"
    );
    // The remap chain was trimmed after each compaction: however many
    // ran, at most the latest transition is retained.
    assert!(
        sales.remap_chain_len <= 1,
        "remap chain grew unboundedly: {} retained after {} compactions",
        sales.remap_chain_len,
        stats.compactions
    );
    engine.stop_ingest();
}
