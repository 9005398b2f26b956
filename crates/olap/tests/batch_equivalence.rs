//! The batch-equivalence property suite: for arbitrary generated cubes,
//! personalized views and query *batches* — mixed grouped/ungrouped
//! shapes, shared and disjoint filters — `QueryEngine::execute_batch`
//! must return, for every member, a result **identical** to executing
//! that query alone, at every worker count and on both grouped paths.
//! The same holds when the batch runs through a shared group-key
//! dictionary cache, cold or warm.
//!
//! Measures are dyadic rationals (multiples of 0.25), so float addition
//! is exact on the generated data and identity is a provable property:
//! any divergence between the shared-scan path and the standalone path —
//! a mis-shared selection vector, a dictionary served to the wrong
//! query, a merge in the wrong order — fails hard instead of hiding in a
//! rounding tolerance.

mod common;

use common::*;
use proptest::prelude::*;
use sdwp_olap::{ExecutionConfig, GroupDictCache, InstanceView, Query, QueryEngine};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: every member of a batch — whatever mix of
    /// grouped/ungrouped shapes and shared/disjoint filters the
    /// generators produced — returns exactly what it would standalone,
    /// at 1, 2 and 8 workers, on both grouped paths.
    #[test]
    fn batch_members_equal_standalone_execution(
        cube in cube_spec(60),
        queries in prop::collection::vec(query_spec(), 1..6),
        view in view_spec(),
    ) {
        let built_cube = build_cube(&cube);
        let built_queries: Vec<Query> = queries.iter().map(build_query).collect();
        let built_view = build_view(&view, &cube);
        for workers in [1usize, 2, 8] {
            for slot_limit in [0usize, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT] {
                let engine = QueryEngine::with_config(
                    ExecutionConfig::default()
                        .with_workers(workers)
                        .with_morsel_rows(7)
                        .with_group_slot_limit(slot_limit),
                );
                let batched =
                    engine.execute_batch_with_view(&built_cube, &built_queries, &built_view);
                prop_assert_eq!(batched.len(), built_queries.len());
                for (query, batched) in built_queries.iter().zip(batched) {
                    let standalone = engine.execute_with_view(&built_cube, query, &built_view);
                    match (batched, standalone) {
                        (Ok(batched), Ok(standalone)) => prop_assert_eq!(
                            &batched, &standalone,
                            "workers={} slot_limit={}", workers, slot_limit
                        ),
                        (Err(batched), Err(standalone)) => prop_assert_eq!(
                            batched.to_string(), standalone.to_string(),
                            "workers={} slot_limit={}", workers, slot_limit
                        ),
                        (batched, standalone) => prop_assert!(
                            false,
                            "batch/standalone disagree on success: {:?} vs {:?}",
                            batched, standalone
                        ),
                    }
                }
            }
        }
    }

    /// Dictionary-cache transparency: the batch through a cold cache,
    /// the same batch through the now-warm cache, and the uncached batch
    /// all agree — a cached dictionary is indistinguishable from a
    /// freshly built one.
    #[test]
    fn dictionary_cache_is_transparent(
        cube in cube_spec(60),
        queries in prop::collection::vec(query_spec(), 1..5),
        view in view_spec(),
    ) {
        let built_cube = build_cube(&cube);
        let built_queries: Vec<Query> = queries.iter().map(build_query).collect();
        let built_view = build_view(&view, &cube);
        let engine = QueryEngine::with_config(
            ExecutionConfig::default().with_workers(4).with_morsel_rows(7),
        );
        let uncached =
            engine.execute_batch_with_view(&built_cube, &built_queries, &built_view);
        let dicts = GroupDictCache::new();
        for round in 0..2 {
            let cached = engine.execute_batch_observed(
                &built_cube,
                &built_queries,
                &built_view,
                Some((&dicts, 1)),
                None,
            );
            for (uncached, cached) in uncached.iter().zip(cached) {
                match (uncached, cached) {
                    (Ok(uncached), Ok(cached)) => {
                        prop_assert_eq!(uncached, &cached, "round={}", round)
                    }
                    (Err(uncached), Err(cached)) => prop_assert_eq!(
                        uncached.to_string(), cached.to_string(), "round={}", round
                    ),
                    (uncached, cached) => prop_assert!(
                        false,
                        "cached/uncached disagree on success: {:?} vs {:?}",
                        uncached, cached
                    ),
                }
            }
        }
    }

    /// Duplicated queries inside one batch: each copy shares the same
    /// filter class and dictionaries, and each must still produce the
    /// standalone result independently.
    #[test]
    fn duplicated_batch_members_all_match(
        cube in cube_spec(60),
        query in query_spec(),
        copies in 2usize..5,
    ) {
        let built_cube = build_cube(&cube);
        let built_query = build_query(&query);
        let batch: Vec<Query> = vec![built_query.clone(); copies];
        let engine = QueryEngine::with_config(
            ExecutionConfig::default().with_workers(4).with_morsel_rows(7),
        );
        let standalone = engine.execute(&built_cube, &built_query);
        for batched in
            engine.execute_batch_with_view(&built_cube, &batch, &InstanceView::unrestricted())
        {
            match (&standalone, batched) {
                (Ok(standalone), Ok(batched)) => prop_assert_eq!(standalone, &batched),
                (Err(standalone), Err(batched)) => {
                    prop_assert_eq!(standalone.to_string(), batched.to_string())
                }
                (standalone, batched) => prop_assert!(
                    false,
                    "copy diverged from standalone: {:?} vs {:?}",
                    standalone, batched
                ),
            }
        }
    }
}
