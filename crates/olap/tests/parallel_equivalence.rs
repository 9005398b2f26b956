//! The parallel-equivalence property suite: for arbitrary generated
//! cubes, queries and personalized views, the morsel-parallel executor at
//! 1, 2 and 8 workers must return results **identical** to the serial
//! row-at-a-time reference — same groups, same aggregates, same row order
//! after sort/limit, same scan counters.
//!
//! Measure values are generated as dyadic rationals (multiples of 0.25
//! well inside `f64`'s 53-bit mantissa), so every partial sum is exact
//! and float addition is associative on the generated data. That makes
//! bit-identity a *provable* property of the executor rather than an
//! approximate one: any grouping, filtering, ordering or merge bug shows
//! up as a hard mismatch instead of hiding inside a rounding tolerance.
//! A separate property below checks worker-count invariance on arbitrary
//! (non-exact) floats, where the fixed morsel-merge tree — not exactness —
//! is what guarantees determinism.

mod common;

use common::*;
use proptest::prelude::*;
use sdwp_model::AggregationFunction;
use sdwp_olap::{AttributeRef, CellValue, Cube, ExecutionConfig, InstanceView, Query, QueryEngine};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: parallel execution at 1, 2 and 8 workers is
    /// indistinguishable from the serial reference for every generated
    /// (cube, query, view) — including row order after sort and limit.
    #[test]
    fn parallel_equals_serial_reference(
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
        agreed_visible_count(&built_cube, &built_view, "M1");
        for workers in [1usize, 2, 8] {
            // A small prime morsel size forces ragged chunks and many
            // merges; slot limit 0 forces every grouped query onto the
            // integer-keyed hashed fallback while the default keeps the
            // flat dense-slot path live.
            for slot_limit in [0usize, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT] {
                let engine = QueryEngine::with_config(
                    ExecutionConfig::default()
                        .with_workers(workers)
                        .with_morsel_rows(7)
                        .with_group_slot_limit(slot_limit),
                );
                let parallel = engine
                    .execute_with_view(&built_cube, &built_query, &built_view)
                    .expect("parallel execution succeeds where serial does");
                prop_assert_eq!(
                    &parallel, &serial,
                    "workers={} slot_limit={}", workers, slot_limit
                );
            }
        }
    }

    /// Grouped equivalence across the flat-slot threshold and cardinality
    /// extremes: the same generated warehouse grouped through every slot
    /// limit around its exact cardinality — hashed (0), just-below, exact,
    /// and unbounded — must match the serial reference bit-for-bit.
    #[test]
    fn grouped_paths_agree_across_the_slot_threshold(
        members in prop::collection::vec(0usize..=POOL.len(), 1..40),
        facts in prop::collection::vec(
            (any::<usize>(), option_of(-64i32..65)),
            0..60,
        ),
    ) {
        let mut cube = Cube::new(schema());
        for (i, a) in members.iter().enumerate() {
            // High member counts with a small value pool: many members
            // collapse onto few dense key ids, like city roll-ups do.
            cube.add_dimension_member(
                "D0",
                vec![
                    ("A.name", pool_cell(*a)),
                    ("B.name", pool_cell(i % (POOL.len() + 1))),
                ],
            ).unwrap();
        }
        cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(0))]).unwrap();
        for (fk, m) in &facts {
            let mut measures: Vec<(&str, CellValue)> = Vec::new();
            if let Some(v) = m {
                measures.push(("M1", CellValue::Float(f64::from(*v) * 0.25)));
            }
            cube.add_fact_row("F", vec![("D0", fk % members.len()), ("D1", 0)], measures)
                .unwrap();
        }
        let query = Query::over("F")
            .group_by(AttributeRef::new("D0", "A", "name"))
            .group_by(AttributeRef::new("D0", "B", "name"))
            .measure("M1")
            .measure_agg("M1", AggregationFunction::Min);
        let serial = QueryEngine::with_config(ExecutionConfig::serial())
            .execute_serial_with_view(&cube, &query, &InstanceView::unrestricted())
            .expect("query is valid");
        // Exact cardinality = product of (distinct values + reserved null
        // slot) per attribute, mirroring the engine's dictionary sizes.
        let distinct = |cells: Vec<CellValue>| {
            let mut keys: Vec<String> = cells.iter().map(CellValue::group_key).collect();
            keys.sort();
            keys.dedup();
            // +1 unless Null is already among the values (the dictionary
            // always reserves a null id; a null member value reuses it).
            keys.len() + usize::from(!cells.iter().any(CellValue::is_null))
        };
        let card_a = distinct(members.iter().map(|a| pool_cell(*a)).collect());
        let card_b = distinct((0..members.len()).map(|i| pool_cell(i % (POOL.len() + 1))).collect());
        let exact = card_a * card_b;
        for slot_limit in [0usize, exact.saturating_sub(1), exact, usize::MAX] {
            let engine = QueryEngine::with_config(
                ExecutionConfig::default()
                    .with_workers(4)
                    .with_morsel_rows(5)
                    .with_group_slot_limit(slot_limit),
            );
            let parallel = engine
                .execute(&cube, &query)
                .expect("parallel execution succeeds");
            prop_assert_eq!(&parallel, &serial, "slot_limit={}", slot_limit);
        }
    }

    /// Worker-count invariance on *arbitrary* (non-dyadic) floats: the
    /// morsel-merge tree is fixed by the morsel size, so however the sums
    /// round, every worker count must round identically.
    #[test]
    fn worker_count_invariant_for_arbitrary_floats(
        values in prop::collection::vec(prop::num::f64::NORMAL, 1..120),
        keys in prop::collection::vec(0usize..3, 1..120),
    ) {
        let mut cube = Cube::new(schema());
        for name in POOL.iter().take(3) {
            cube.add_dimension_member(
                "D0",
                vec![("A.name", CellValue::from(*name)), ("B.name", CellValue::Null)],
            ).unwrap();
        }
        cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(0))]).unwrap();
        for (i, value) in values.iter().enumerate() {
            let key = keys[i % keys.len()];
            cube.add_fact_row(
                "F",
                vec![("D0", key), ("D1", 0)],
                vec![("M1", CellValue::Float(*value))],
            ).unwrap();
        }
        let query = Query::over("F")
            .group_by(AttributeRef::new("D0", "A", "name"))
            .measure("M1")
            .measure_agg("M1", AggregationFunction::Avg);
        let reference = QueryEngine::with_config(
            ExecutionConfig::default().with_workers(1).with_morsel_rows(5),
        ).execute(&cube, &query).unwrap();
        for workers in [2usize, 3, 8] {
            let result = QueryEngine::with_config(
                ExecutionConfig::default().with_workers(workers).with_morsel_rows(5),
            ).execute(&cube, &query).unwrap();
            prop_assert_eq!(&result, &reference, "workers={}", workers);
        }
    }
}

/// Text keys containing the serial reference's key separator must not
/// collapse composite groups: the serial loop length-prefixes each
/// attribute's key (an injective encoding), agreeing with the dense-id
/// parallel path, which keys attributes independently by construction.
#[test]
fn adversarial_separator_keys_stay_distinct() {
    let mut cube = Cube::new(schema());
    // Crafted so naive separator-joined keys would collide:
    // ("a\u{1f}tb", "c") and ("a", "b\u{1f}tc") concatenate identically.
    cube.add_dimension_member(
        "D0",
        vec![
            ("A.name", CellValue::from("a\u{1f}tb")),
            ("B.name", CellValue::from("c")),
        ],
    )
    .unwrap();
    cube.add_dimension_member(
        "D0",
        vec![
            ("A.name", CellValue::from("a")),
            ("B.name", CellValue::from("b\u{1f}tc")),
        ],
    )
    .unwrap();
    cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(0))])
        .unwrap();
    for member in 0..2 {
        cube.add_fact_row(
            "F",
            vec![("D0", member), ("D1", 0)],
            vec![("M1", CellValue::Float(1.0))],
        )
        .unwrap();
    }
    let query = Query::over("F")
        .group_by(AttributeRef::new("D0", "A", "name"))
        .group_by(AttributeRef::new("D0", "B", "name"))
        .measure("M1");
    let serial = QueryEngine::with_config(ExecutionConfig::serial())
        .execute_serial(&cube, &query)
        .unwrap();
    assert_eq!(serial.len(), 2, "separator-bearing keys must not merge");
    for slot_limit in [0usize, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT] {
        let parallel = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(2)
                .with_morsel_rows(1)
                .with_group_slot_limit(slot_limit),
        )
        .execute(&cube, &query)
        .unwrap();
        assert_eq!(parallel, serial, "slot_limit={slot_limit}");
    }
}

/// Regression for the view check's pre-resolved FK indices: a grouped
/// query through a dimension-restricted view over a tombstoned, then
/// compacted fact table (its rows renumbered under the view) must agree
/// with the serial reference, which still goes through the name-based
/// `allows_fact_row`.
#[test]
fn view_restricted_grouped_query_matches_serial_reference() {
    let mut cube = Cube::new(schema());
    for (a, b) in [(0usize, 1usize), (1, 2), (2, 3), (3, 0)] {
        cube.add_dimension_member(
            "D0",
            vec![("A.name", pool_cell(a)), ("B.name", pool_cell(b))],
        )
        .unwrap();
    }
    cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(0))])
        .unwrap();
    for row in 0..24 {
        cube.add_fact_row(
            "F",
            vec![("D0", row % 4), ("D1", 0)],
            vec![("M1", CellValue::Float(row as f64 * 0.25))],
        )
        .unwrap();
    }
    // Build the view, then retract rows in and out of it and compact, so
    // the visible rows are renumbered under the view.
    let mut view = InstanceView::unrestricted();
    view.select_dimension_members("D0", [0usize, 1, 2]);
    for row in [1usize, 4, 7, 10] {
        cube.retract_fact_row("F", row).unwrap();
    }
    cube.compact_fact_table("F").unwrap();
    let query = Query::over("F")
        .group_by(AttributeRef::new("D0", "A", "name"))
        .measure("M1")
        .measure_agg("M1", AggregationFunction::Count);
    let serial = QueryEngine::with_config(ExecutionConfig::serial())
        .execute_serial_with_view(&cube, &query, &view)
        .unwrap();
    assert!(
        serial.rows.iter().len() > 1,
        "the restricted view should still leave several groups"
    );
    assert_eq!(
        agreed_visible_count(&cube, &view, "M1"),
        serial.facts_scanned
    );
    for workers in [1usize, 2, 4] {
        let parallel = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(workers)
                .with_morsel_rows(5),
        )
        .execute_with_view(&cube, &query, &view)
        .unwrap();
        assert_eq!(parallel, serial, "workers={workers}");
    }
}

/// All-null measure columns: the group must still exist (a matched row
/// creates it) with SUM 0.0 / AVG-MIN-MAX null / COUNT 0, identically on
/// the flat, hashed and serial paths.
#[test]
fn all_null_measures_keep_groups_alive_on_every_path() {
    let mut cube = Cube::new(schema());
    for name in ["x", "y"] {
        cube.add_dimension_member(
            "D0",
            vec![
                ("A.name", CellValue::from(name)),
                ("B.name", CellValue::Null),
            ],
        )
        .unwrap();
    }
    cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(0))])
        .unwrap();
    for row in 0..10 {
        // Every M1 cell is null; M3 never written either.
        cube.add_fact_row("F", vec![("D0", row % 2), ("D1", 0)], vec![])
            .unwrap();
    }
    let query = Query::over("F")
        .group_by(AttributeRef::new("D0", "A", "name"))
        .measure("M1")
        .measure_agg("M1", AggregationFunction::Avg)
        .measure_agg("M1", AggregationFunction::Min)
        .measure_agg("M3", AggregationFunction::Count);
    let serial = QueryEngine::with_config(ExecutionConfig::serial())
        .execute_serial(&cube, &query)
        .unwrap();
    assert_eq!(serial.len(), 2, "all-null groups still materialise");
    assert_eq!(serial.rows[0].values[0], CellValue::Float(0.0));
    assert_eq!(serial.rows[0].values[1], CellValue::Null);
    assert_eq!(serial.rows[0].values[2], CellValue::Null);
    assert_eq!(serial.rows[0].values[3], CellValue::Integer(0));
    for slot_limit in [0usize, sdwp_olap::DEFAULT_GROUP_SLOT_LIMIT] {
        let parallel = QueryEngine::with_config(
            ExecutionConfig::default()
                .with_workers(4)
                .with_morsel_rows(3)
                .with_group_slot_limit(slot_limit),
        )
        .execute(&cube, &query)
        .unwrap();
        assert_eq!(parallel, serial, "slot_limit={slot_limit}");
    }
}

/// Null foreign keys — `Cube::add_fact_row` with a dimension left out
/// stores one — are read errors, and the selection stages must raise
/// exactly the serial reference's: only for a row every earlier stage
/// admits, and of all failing rows the lowest. Every case runs at 1, 2
/// and 8 workers with the null alone in its morsel, sharing one with its
/// neighbours, and inside a single morsel covering the table.
#[test]
fn null_foreign_keys_fail_like_the_serial_reference() {
    // Fact rows as (D0 key, D1 key); `None` leaves the key null.
    let cube_of = |rows: &[(Option<usize>, Option<usize>)]| {
        let mut cube = Cube::new(schema());
        for name in [0usize, 1] {
            cube.add_dimension_member(
                "D0",
                vec![("A.name", pool_cell(name)), ("B.name", pool_cell(name))],
            )
            .unwrap();
        }
        for day in 0..2 {
            cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(day))])
                .unwrap();
        }
        for (row, (d0, d1)) in rows.iter().enumerate() {
            let keys = [("D0", *d0), ("D1", *d1)];
            cube.add_fact_row(
                "F",
                keys.iter()
                    .filter_map(|(d, k)| k.map(|k| (*d, k)))
                    .collect(),
                vec![("M1", CellValue::Float(row as f64 * 0.25))],
            )
            .unwrap();
        }
        cube
    };
    let sliced = Query::over("F")
        .group_by(AttributeRef::new("D1", "T", "date"))
        .measure("M1")
        .filter_dimension("D0", sdwp_olap::Filter::eq("A.name", POOL[0]));
    let ghost_filtered = sliced
        .clone()
        .filter_fact(sdwp_olap::Filter::eq("ghost", 1i64));
    let first_day = {
        let mut view = InstanceView::unrestricted();
        view.select_dimension_members("D1", [0usize]);
        view
    };
    let null_key = "integer foreign key";

    // (what, rows, query, view, the error's wording — `None`: succeeds)
    let keyed = (Some(0), Some(0));
    let cases = [
        (
            "a null filter key on a row the view rejects is never read",
            vec![keyed, (None, Some(1)), keyed, (Some(1), Some(0))],
            &sliced,
            &first_day,
            None,
        ),
        (
            "a null filter key on a visible row is the reference's error",
            vec![keyed, (Some(1), Some(0)), (None, Some(0)), keyed],
            &sliced,
            &first_day,
            Some(null_key),
        ),
        (
            "a null view key on a visible row is the reference's error",
            vec![keyed, (Some(0), None), keyed],
            &sliced,
            &first_day,
            Some(null_key),
        ),
        (
            "a fact-filter error below a null key wins",
            vec![(Some(1), Some(0)), keyed, keyed, (None, Some(0)), keyed],
            &ghost_filtered,
            &first_day,
            Some("ghost"),
        ),
        (
            "a null key below every row the fact filter sees wins",
            vec![(Some(1), Some(0)), (None, Some(0)), keyed, keyed],
            &ghost_filtered,
            &first_day,
            Some(null_key),
        ),
    ];
    for (what, rows, query, view, wording) in cases {
        let cube = cube_of(&rows);
        let serial = QueryEngine::with_config(ExecutionConfig::serial())
            .execute_serial_with_view(&cube, query, view);
        match (wording, &serial) {
            (None, Ok(result)) => assert!(result.facts_matched > 0, "{what}"),
            (Some(wording), Err(error)) => {
                assert!(error.to_string().contains(wording), "{what}: {error}")
            }
            _ => panic!("{what}: the reference answered {serial:?}"),
        }
        for workers in [1usize, 2, 8] {
            for morsel_rows in [1usize, 3, 64] {
                let parallel = QueryEngine::with_config(
                    ExecutionConfig::default()
                        .with_workers(workers)
                        .with_morsel_rows(morsel_rows),
                )
                .execute_with_view(&cube, query, view);
                assert_eq!(
                    parallel, serial,
                    "{what}: workers={workers} morsel_rows={morsel_rows}"
                );
            }
        }
        // The visible-row count runs the view's stages alone.
        let count = view.visible_fact_count(&cube, "F");
        let by_name: Result<Vec<bool>, _> = (0..rows.len())
            .map(|row| view.allows_fact_row(&cube, "F", row))
            .collect();
        assert_eq!(
            count,
            by_name.map(|seen| seen.iter().filter(|&&s| s).count()),
            "{what}: visible_fact_count"
        );
    }
}
