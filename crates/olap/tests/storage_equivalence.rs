//! Storage-equivalence property suite for the chunked copy-on-write
//! layout and the flat path's gather-and-kernel pipeline.
//!
//! Three layers of equivalence, each against a straight-line reference:
//!
//! * chunked [`Column`]s behave exactly like a plain `Vec<CellValue>`
//!   under arbitrary push / set / get sequences, for every chunk size;
//! * a selection vector gathered through [`Column::gather_numeric`] into
//!   a one-slot [`SlotAccumulator`] agrees with feeding each selected row
//!   through the row-at-a-time [`Accumulator`] — including all-null
//!   columns, gaps and selections that straddle chunk boundaries;
//! * whole queries over chunked, tombstoned cubes are identical between
//!   the morsel-parallel executor (on both accumulation paths, flat
//!   dense-slot and hashed) and the serial `CellValue` reference, and
//!   compaction changes neither the results nor what a pre-compaction
//!   view resolves.
//!
//! Float measures are dyadic rationals (multiples of 0.25), so sums are
//! exact and equality is bit-for-bit, not approximate.

mod common;

use common::agreed_visible_count;
use proptest::prelude::*;
use sdwp_model::{
    AggregationFunction, AttributeType, DimensionBuilder, FactBuilder, Schema, SchemaBuilder,
};
use sdwp_olap::aggregate::{Accumulator, SlotAccumulator};
use sdwp_olap::{
    AttributeRef, CellValue, Column, ColumnType, Cube, ExecutionConfig, InstanceView, Query,
    QueryEngine,
};

fn option_of<S>(values: S) -> BoxedStrategy<Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    let some = values.prop_map(Some).boxed();
    prop_oneof![Just(None).boxed(), some.clone(), some].boxed()
}

fn dyadic(v: i32) -> f64 {
    f64::from(v) * 0.25
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunked float columns are observably identical to a plain vector
    /// of cells under arbitrary push/set sequences, at every chunk size.
    #[test]
    fn chunked_column_matches_vec_model(
        ops in prop::collection::vec((0usize..3, -64i32..65, any::<usize>()), 1..80),
        chunk_rows in 1usize..6,
    ) {
        let mut column = Column::with_chunk_rows(ColumnType::Float, chunk_rows);
        let mut model: Vec<CellValue> = Vec::new();
        for (op, raw, target) in &ops {
            let (op, raw, target): (usize, i32, usize) = (*op, *raw, *target);
            match op {
                0 => {
                    column.push(CellValue::Float(dyadic(raw))).unwrap();
                    model.push(CellValue::Float(dyadic(raw)));
                }
                1 => {
                    column.push(CellValue::Null).unwrap();
                    model.push(CellValue::Null);
                }
                _ => {
                    if !model.is_empty() {
                        let row = target % model.len();
                        let value = if raw % 3 == 0 {
                            CellValue::Null
                        } else {
                            CellValue::Float(dyadic(raw))
                        };
                        column.set(row, value.clone()).unwrap();
                        model[row] = value;
                    }
                }
            }
        }
        prop_assert_eq!(column.len(), model.len());
        for (row, expected) in model.iter().enumerate() {
            prop_assert_eq!(&column.get(row), expected, "row {}", row);
        }
        prop_assert_eq!(column.get(model.len()), CellValue::Null);
        // Snapshot isolation: a clone taken now never sees later writes.
        let snapshot = column.clone();
        if !model.is_empty() {
            column.set(0, CellValue::Float(1e6)).unwrap();
            prop_assert_eq!(&snapshot.get(0), &model[0]);
        }
    }

    /// The flat path's column gather and slice kernels, on one slot,
    /// agree with the row-at-a-time accumulator on every selection vector
    /// — gaps, all-null chunks, empty selections and boundary-straddling
    /// runs included.
    #[test]
    fn vectorised_kernels_match_accumulator_reference(
        values in prop::collection::vec(option_of(-64i32..65), 0..60),
        chunk_rows in 1usize..6,
        raw_start in any::<usize>(),
        raw_end in any::<usize>(),
        gaps in any::<u64>(),
    ) {
        for column_type in [ColumnType::Float, ColumnType::Integer, ColumnType::Date] {
            let mut column = Column::with_chunk_rows(column_type, chunk_rows);
            for v in &values {
                let cell = match (column_type, v) {
                    (_, None) => CellValue::Null,
                    (ColumnType::Float, Some(v)) => CellValue::Float(dyadic(*v)),
                    (ColumnType::Date, Some(v)) => CellValue::Date(i64::from(*v)),
                    (_, Some(v)) => CellValue::Integer(i64::from(*v)),
                };
                column.push(cell).unwrap();
            }
            let bound = values.len() + 2;
            let mut range = [raw_start % bound, raw_end % bound];
            range.sort_unstable();
            let [start, end] = range;
            // The rows of the range whose bit is set in `gaps`.
            let sel: Vec<u32> = (start..end.min(values.len()))
                .filter(|row| (gaps >> (row % 64)) & 1 == 1)
                .map(|row| row as u32)
                .collect();
            let (mut gathered, mut slots) = (Vec::new(), Vec::new());
            prop_assert!(column.gather_numeric(&sel, &vec![0; sel.len()], &mut gathered, &mut slots));
            for function in [
                AggregationFunction::Sum,
                AggregationFunction::Avg,
                AggregationFunction::Min,
                AggregationFunction::Max,
                AggregationFunction::Count,
            ] {
                let mut flat = SlotAccumulator::new(function, 1);
                flat.accumulate(&gathered, &slots);
                let mut from_kernel = Accumulator::new(function);
                from_kernel.absorb(&flat.take_slot(0));
                // Reference: the serial executor's per-row semantics.
                let mut reference = Accumulator::new(function);
                for &row in &sel {
                    reference.update(&column.get(row as usize));
                }
                prop_assert_eq!(
                    from_kernel.finish(),
                    reference.finish(),
                    "{:?} {:?}",
                    column_type,
                    function
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cube-level equivalence on chunked, tombstoned, compacted storage.
// ---------------------------------------------------------------------------

fn schema() -> Schema {
    SchemaBuilder::new("StorageDW")
        .dimension(DimensionBuilder::new("D").simple_level("L", "name").build())
        .fact(
            FactBuilder::new("F")
                .measure("M", AttributeType::Float)
                .measure("N", AttributeType::Integer)
                .dimension("D")
                .build(),
        )
        .build()
        .expect("storage property schema is valid")
}

const POOL: [&str; 3] = ["x", "y", "z"];

/// Generated warehouse content: member count, fact rows (raw fk + two
/// optional measures), retraction picks, chunk size.
#[derive(Debug, Clone)]
struct WarehouseSpec {
    members: usize,
    facts: Vec<(usize, Option<i32>, Option<i32>)>,
    retractions: Vec<usize>,
    chunk_rows: usize,
}

fn warehouse_spec() -> impl Strategy<Value = WarehouseSpec> {
    (
        1usize..4,
        prop::collection::vec(
            (any::<usize>(), option_of(-64i32..65), option_of(-9i32..10)),
            0..60,
        ),
        prop::collection::vec(any::<usize>(), 0..30),
        1usize..6,
    )
        .prop_map(|(members, facts, retractions, chunk_rows)| WarehouseSpec {
            members,
            facts,
            retractions,
            chunk_rows,
        })
}

fn build_warehouse(spec: &WarehouseSpec) -> Cube {
    let mut cube = Cube::with_chunk_rows(schema(), spec.chunk_rows);
    for m in 0..spec.members {
        cube.add_dimension_member("D", vec![("L.name", CellValue::from(POOL[m % POOL.len()]))])
            .expect("member loads");
    }
    for (fk, m, n) in &spec.facts {
        let mut measures: Vec<(&str, CellValue)> = Vec::new();
        if let Some(v) = m {
            measures.push(("M", CellValue::Float(dyadic(*v))));
        }
        if let Some(v) = n {
            measures.push(("N", CellValue::Integer(i64::from(*v))));
        }
        cube.add_fact_row("F", vec![("D", fk % spec.members)], measures)
            .expect("fact row loads");
    }
    for pick in &spec.retractions {
        if !spec.facts.is_empty() {
            cube.retract_fact_row("F", pick % spec.facts.len())
                .expect("retraction in range");
        }
    }
    cube
}

fn queries() -> Vec<Query> {
    vec![
        // Ungrouped all-numeric: one flat slot.
        Query::over("F").measure("M").measure("N"),
        Query::over("F")
            .measure_agg("M", AggregationFunction::Min)
            .measure_agg("M", AggregationFunction::Max)
            .measure_agg("N", AggregationFunction::Avg)
            .measure_agg("N", AggregationFunction::Count),
        // COUNT DISTINCT forces the CellValue path next to typed reads.
        Query::over("F")
            .measure("M")
            .measure_agg("M", AggregationFunction::CountDistinct),
        // Grouped all-numeric: the dense flat-slot kernel path (groups
        // straddle chunk boundaries — chunk_rows is 1..6 while morsels
        // are 7 rows).
        Query::over("F")
            .group_by(AttributeRef::new("D", "L", "name"))
            .measure("M")
            .measure_agg("N", AggregationFunction::Avg),
        Query::over("F")
            .group_by(AttributeRef::new("D", "L", "name"))
            .measure_agg("M", AggregationFunction::Min)
            .measure_agg("M", AggregationFunction::Max)
            .measure_agg("N", AggregationFunction::Count),
        // Grouped + COUNT DISTINCT: the integer-keyed hashed fallback.
        Query::over("F")
            .group_by(AttributeRef::new("D", "L", "name"))
            .measure_agg("M", AggregationFunction::CountDistinct)
            .measure("N"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunked, tombstoned cubes answer identically under the
    /// morsel-parallel executor (flat and hashed paths) and the serial
    /// CellValue reference, for every worker count and ragged morsel
    /// sizes.
    #[test]
    fn chunked_tombstoned_cubes_match_the_serial_reference(
        spec in warehouse_spec(),
        view_rows in option_of(prop::collection::vec(any::<usize>(), 0..20)),
    ) {
        let cube = build_warehouse(&spec);
        let mut view = InstanceView::unrestricted();
        if let Some(rows) = &view_rows {
            let total = spec.facts.len().max(1);
            view.select_fact_rows("F", rows.iter().map(|r| r % total));
        }
        agreed_visible_count(&cube, &view, "M");
        let serial_engine = QueryEngine::with_config(ExecutionConfig::serial());
        for query in queries() {
            let serial = serial_engine
                .execute_serial_with_view(&cube, &query, &view)
                .expect("generated queries are valid");
            for workers in [1usize, 2, 8] {
                // Slot limit 0 forces the integer-keyed hashed fallback
                // for grouped queries; the default keeps the flat
                // dense-slot path live — both must match the serial
                // string-key reference.
                for slot_limit in [0usize, sdwp_olap::engine::DEFAULT_GROUP_SLOT_LIMIT] {
                    let parallel = QueryEngine::with_config(
                        ExecutionConfig::default()
                            .with_workers(workers)
                            .with_morsel_rows(7)
                            .with_group_slot_limit(slot_limit),
                    )
                    .execute_with_view(&cube, &query, &view)
                    .expect("parallel execution succeeds where serial does");
                    prop_assert_eq!(
                        &parallel,
                        &serial,
                        "workers={} slot_limit={} query={:?}",
                        workers,
                        slot_limit,
                        query
                    );
                }
            }
        }
    }

    /// Compaction is invisible to queries: the same results, through both
    /// executors, whether the view was captured before the compaction
    /// (stale ids resolving through the remap chain) or remapped after.
    #[test]
    fn compaction_preserves_results_and_stale_views(
        spec in warehouse_spec(),
        view_rows in option_of(prop::collection::vec(any::<usize>(), 0..20)),
    ) {
        let cube = build_warehouse(&spec);
        let mut view = InstanceView::unrestricted();
        if let Some(rows) = &view_rows {
            let total = spec.facts.len().max(1);
            view.select_fact_rows("F", rows.iter().map(|r| r % total));
        }
        let mut compacted = cube.clone();
        let remap = compacted.compact_fact_table("F").expect("F exists");
        prop_assert_eq!(
            compacted.fact_table("F").unwrap().table.live_len(),
            cube.fact_table("F").unwrap().table.live_len()
        );
        // Old→new ids round-trip for every surviving row.
        for new in 0..remap.live_len() {
            let old = remap.old_id(new).expect("surviving row has an old id");
            prop_assert_eq!(remap.new_id(old), Some(new));
        }
        let mut remapped_view = view.clone();
        remapped_view.remap_fact_rows("F", &remap, 0);
        // The count is compaction-invariant too: before, through the stale
        // view's remap walk, and through the eagerly remapped view.
        let visible = agreed_visible_count(&cube, &view, "M");
        prop_assert_eq!(agreed_visible_count(&compacted, &view, "M"), visible);
        prop_assert_eq!(agreed_visible_count(&compacted, &remapped_view, "M"), visible);
        let serial_engine = QueryEngine::with_config(ExecutionConfig::serial());
        let parallel_engine = QueryEngine::with_config(
            ExecutionConfig::default().with_workers(4).with_morsel_rows(5),
        );
        for query in queries() {
            let before = serial_engine
                .execute_serial_with_view(&cube, &query, &view)
                .expect("valid query");
            // Stale view against the compacted cube: the remap chain
            // resolves the same live rows.
            let after_stale = serial_engine
                .execute_serial_with_view(&compacted, &query, &view)
                .expect("valid query");
            prop_assert_eq!(&after_stale, &before, "stale view, query={:?}", query);
            // Eagerly remapped view, both executors.
            let after_remapped = parallel_engine
                .execute_with_view(&compacted, &query, &remapped_view)
                .expect("valid query");
            prop_assert_eq!(&after_remapped, &before, "remapped view, query={:?}", query);
        }
    }

    /// Publishing a snapshot shares every clean chunk: a clone taken
    /// before a delta still answers exactly like a deep copy would, and
    /// the master sees the delta.
    #[test]
    fn snapshots_are_isolated_from_later_deltas(
        spec in warehouse_spec(),
        upsert in (any::<usize>(), -64i32..65),
    ) {
        let mut master = build_warehouse(&spec);
        let snapshot = master.clone();
        let live_rows: Vec<usize> = (0..spec.facts.len())
            .filter(|r| master.fact_table("F").unwrap().table.is_live(*r))
            .collect();
        prop_assume!(!live_rows.is_empty());
        let row = live_rows[upsert.0 % live_rows.len()];
        let before = master.fact_table("F").unwrap().table.get(row, "M").unwrap();
        let new_value = CellValue::Float(dyadic(upsert.1) + 1_000_000.0);
        master.upsert_fact_cell("F", row, "M", new_value.clone()).unwrap();
        master.add_fact_row("F", vec![("D", 0)], vec![("M", CellValue::Float(0.25))]).unwrap();
        // The snapshot still reads the pre-delta cell and row count.
        prop_assert_eq!(snapshot.fact_table("F").unwrap().table.get(row, "M").unwrap(), before);
        prop_assert_eq!(snapshot.fact_table("F").unwrap().table.len(), spec.facts.len());
        prop_assert_eq!(master.fact_table("F").unwrap().table.get(row, "M").unwrap(), new_value);
        prop_assert_eq!(master.fact_table("F").unwrap().table.len(), spec.facts.len() + 1);
    }
}
