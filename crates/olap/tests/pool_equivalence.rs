//! The pool-equivalence property suite: executing through a shared
//! morsel worker pool ([`sdwp_olap::MorselPool`]) must be
//! **indistinguishable** from executing on an engine's private pool and
//! from the serial row-at-a-time reference — same groups, same
//! aggregates, same row order, same scan counters — for arbitrary
//! generated cubes, queries and personalized views.
//!
//! This holds by construction (partials merge in morsel-index order, so
//! *which* thread scanned a morsel is invisible), and the properties here
//! pin that construction down across the axes that could break it:
//! worker-pool sizes, group-slot limits (dense-slot vs hashed paths),
//! pools with fewer helpers than a query asks for, and the shared-scan
//! batch path.
//!
//! Measure values are dyadic rationals (multiples of 0.25), so float
//! sums are exact and bit-identity is a hard property, not a tolerance.

mod common;

use common::*;
use proptest::prelude::*;
use sdwp_model::AggregationFunction;
use sdwp_olap::{
    AttributeRef, ExecutionConfig, InstanceView, MorselPool, Query, QueryEngine, TenantPolicy,
};
use std::sync::Arc;

/// Engine pairs under test: an executor on its own private pool and an
/// executor on the shared pool, with the **same** execution config, so
/// any divergence is down to which pool served the scan. Either pool may
/// have zero helpers (`workers == 1` privately, a
/// [`MorselPool::with_helpers`]`(0, _)` shared one): the scan then runs
/// inline through the same dispatcher.
fn engine_pair(
    pool: &Arc<MorselPool>,
    workers: usize,
    slot_limit: usize,
) -> (QueryEngine, QueryEngine) {
    let config = ExecutionConfig::default()
        .with_workers(workers)
        // A small prime morsel size forces ragged chunks and many merges.
        .with_morsel_rows(7)
        .with_group_slot_limit(slot_limit);
    (
        QueryEngine::with_config(config),
        QueryEngine::with_pool(config, Arc::clone(pool)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: for every generated (cube, query, view),
    /// execution through the shared worker pool at several requested
    /// worker counts — including counts *above* the pool's worker
    /// population, where the caller scans alongside every helper, and
    /// the inline cases (one requested worker, a pool of zero helpers) —
    /// is bit-identical to the private-pool executor and the serial
    /// reference.
    #[test]
    fn shared_pool_equals_private_pool_and_serial(
        cube in cube_spec(80),
        query in query_spec(),
        view in view_spec(),
    ) {
        let built_cube = build_cube(&cube);
        let built_query = build_query(&query);
        let built_view = build_view(&view, &cube);
        let serial = QueryEngine::with_config(ExecutionConfig::serial())
            .execute_serial_with_view(&built_cube, &built_query, &built_view)
            .expect("generated queries are valid");
        let pools = [
            Arc::new(MorselPool::with_helpers(3, None)),
            Arc::new(MorselPool::with_helpers(0, None)),
        ];
        for (pool, workers) in pools.iter().flat_map(|pool| [1usize, 2, 4, 8].map(|w| (pool, w))) {
            for slot_limit in [0usize, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT] {
                let (private, shared) = engine_pair(pool, workers, slot_limit);
                let private_result = private
                    .execute_with_view(&built_cube, &built_query, &built_view)
                    .expect("private-pool execution succeeds where serial does");
                let shared_result = shared
                    .execute_with_view(&built_cube, &built_query, &built_view)
                    .expect("shared-pool execution succeeds where serial does");
                prop_assert_eq!(
                    &private_result, &serial,
                    "private pool vs serial, workers={} slot_limit={}", workers, slot_limit
                );
                prop_assert_eq!(
                    &shared_result, &serial,
                    "shared pool vs serial, workers={} slot_limit={}", workers, slot_limit
                );
            }
        }
    }

    /// Batch equivalence through the pool: the shared-scan batch path
    /// submits its morsel loop to the pool exactly like standalone
    /// execution does, so every batch slot must match the standalone
    /// *pooled* result — which the property above ties to serial.
    #[test]
    fn pooled_batch_matches_standalone(
        cube in cube_spec(80),
        queries in prop::collection::vec(query_spec(), 1..4),
        view in view_spec(),
    ) {
        let built_cube = build_cube(&cube);
        let built_queries: Vec<Query> = queries.iter().map(build_query).collect();
        let built_view = build_view(&view, &cube);
        let pool = Arc::new(MorselPool::with_helpers(2, None));
        let (private, pooled) = engine_pair(&pool, 4, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT);
        let private_batch =
            private.execute_batch_with_view(&built_cube, &built_queries, &built_view);
        let pooled_batch = pooled.execute_batch_with_view(&built_cube, &built_queries, &built_view);
        prop_assert_eq!(private_batch.len(), pooled_batch.len());
        for (slot, (private_entry, pooled_entry)) in
            private_batch.iter().zip(pooled_batch.iter()).enumerate()
        {
            match (private_entry, pooled_entry) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "batch slot {}", slot),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "batch slot {} ok/err mismatch", slot),
            }
            if let Ok(expected) = private_entry {
                let standalone = pooled
                    .execute_with_view(&built_cube, &built_queries[slot], &built_view)
                    .expect("standalone pooled execution succeeds");
                prop_assert_eq!(&standalone, expected, "batch slot {} vs standalone", slot);
            }
        }
    }

    /// Fewer helpers degrade parallelism, never correctness: an 8-worker
    /// query on a pool with fewer helper threads than it asks for
    /// (including zero — pure caller-inline execution) must still produce
    /// the bit-identical result.
    #[test]
    fn queue_caps_shed_helpers_not_correctness(
        cube in cube_spec(80),
        query in query_spec(),
        helpers in 0usize..3,
    ) {
        let built_cube = build_cube(&cube);
        let built_query = build_query(&query);
        let view = InstanceView::unrestricted();
        let serial = QueryEngine::with_config(ExecutionConfig::serial())
            .execute_serial_with_view(&built_cube, &built_query, &view)
            .expect("generated queries are valid");
        let pool = Arc::new(MorselPool::with_helpers(helpers, None));
        let (_, pooled) = engine_pair(&pool, 8, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT);
        let pooled_result = pooled
            .execute_with_view(&built_cube, &built_query, &view)
            .expect("pooled execution succeeds");
        prop_assert_eq!(&pooled_result, &serial, "helpers={}", helpers);
    }
}

/// One pool shared by concurrent querying threads of different tenants:
/// every thread's result must match the serial reference computed on the
/// same snapshot, whatever interleaving the scheduler picks.
#[test]
fn concurrent_tenants_share_one_pool_without_cross_talk() {
    let spec = CubeSpec {
        d0_members: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
        d1_members: 3,
        facts: (0..240)
            .map(|i| {
                (
                    i,
                    i * 7,
                    Some((i as i32 % 64) - 32),
                    Some(i as i32 % 17),
                    None,
                )
            })
            .collect(),
    };
    let cube = Arc::new(build_cube(&spec));
    let queries: Vec<Query> = vec![
        Query::over("F")
            .group_by(AttributeRef::new("D0", "A", "name"))
            .measure("M1"),
        Query::over("F")
            .group_by(AttributeRef::new("D1", "T", "date"))
            .measure_agg("M1", AggregationFunction::Avg)
            .measure_agg("M3", AggregationFunction::Count),
        Query::over("F")
            .group_by(AttributeRef::new("D0", "B", "name"))
            .measure_agg("M2", AggregationFunction::Max)
            .limit(3),
    ];
    let serial_engine = QueryEngine::with_config(ExecutionConfig::serial());
    let view = InstanceView::unrestricted();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| {
            serial_engine
                .execute_serial_with_view(&cube, q, &view)
                .expect("reference query runs")
        })
        .collect();

    let pool = Arc::new(MorselPool::with_helpers(3, None));
    // Distinct tenants with distinct weights, so the scheduler actually
    // has classes to arbitrate between.
    for (tenant, weight) in [(0u32, 4u32), (1, 2), (2, 1)] {
        pool.set_policy(
            sdwp_obs::ClassId(tenant as u8),
            TenantPolicy::default().with_weight(weight),
        );
    }
    std::thread::scope(|scope| {
        for round in 0..3 {
            for (index, query) in queries.iter().enumerate() {
                let pool = Arc::clone(&pool);
                let cube = Arc::clone(&cube);
                let expected = &expected[index];
                let query = query.clone();
                scope.spawn(move || {
                    let engine = QueryEngine::with_pool(
                        ExecutionConfig::default()
                            .with_workers(4)
                            .with_morsel_rows(16),
                        pool,
                    );
                    let result = engine
                        .execute_with_view(&cube, &query, &InstanceView::unrestricted())
                        .expect("pooled query runs");
                    assert_eq!(
                        &result, expected,
                        "round {round} query {index} diverged under contention"
                    );
                });
            }
        }
    });
}

/// Dropping the pool while idle joins every worker; a fresh engine built
/// on a new pool keeps answering. Guards the shutdown path against
/// leaked workers or poisoned scheduler state.
#[test]
fn pool_shutdown_is_clean_and_replaceable() {
    let spec = CubeSpec {
        d0_members: vec![(0, 1), (1, 2)],
        d1_members: 1,
        facts: (0..64)
            .map(|i| (i, 0, Some(i as i32 % 7), None, None))
            .collect(),
    };
    let cube = build_cube(&spec);
    let query = Query::over("F")
        .group_by(AttributeRef::new("D0", "A", "name"))
        .measure("M1");
    let serial = QueryEngine::with_config(ExecutionConfig::serial())
        .execute_serial(&cube, &query)
        .unwrap();
    for _ in 0..3 {
        let pool = Arc::new(MorselPool::with_helpers(2, None));
        let engine = QueryEngine::with_pool(
            ExecutionConfig::default()
                .with_workers(3)
                .with_morsel_rows(8),
            Arc::clone(&pool),
        );
        assert_eq!(engine.execute(&cube, &query).unwrap(), serial);
        drop(engine);
        drop(pool); // joins the workers; a hang here fails via test timeout
    }
}
