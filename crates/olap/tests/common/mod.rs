//! The generators the executor-equivalence property suites share
//! (`parallel_`, `batch_` and `pool_equivalence`): one two-dimension,
//! three-measure schema, and strategies for arbitrary cubes over it,
//! queries against them and personalized views through them — plus the
//! three-way visible-row check `storage_equivalence` uses too.
//!
//! Measure values are dyadic rationals (multiples of 0.25 well inside
//! `f64`'s 53-bit mantissa), so every partial sum is exact and
//! bit-identity between two execution paths is a provable property.

// Each suite is its own crate and uses its own subset of this module.
#![allow(dead_code)]

use proptest::prelude::*;
use sdwp_model::{
    AggregationFunction, Attribute, AttributeType, DimensionBuilder, FactBuilder, Schema,
    SchemaBuilder,
};
use sdwp_olap::{
    AttributeRef, CellValue, Cube, ExecutionConfig, Filter, InstanceView, Query, QueryEngine,
};

/// Pool of attribute values; small so group keys collide often.
pub const POOL: [&str; 4] = ["x", "y", "z", "w"];
/// Group-by keys the query generator picks from.
pub const GROUP_KEYS: [(&str, &str, &str); 3] = [
    ("D0", "A", "name"),
    ("D0", "B", "name"),
    ("D1", "T", "date"),
];
pub const MEASURES: [&str; 3] = ["M1", "M2", "M3"];
pub const AGGREGATIONS: [AggregationFunction; 6] = [
    AggregationFunction::Sum,
    AggregationFunction::Avg,
    AggregationFunction::Min,
    AggregationFunction::Max,
    AggregationFunction::Count,
    AggregationFunction::CountDistinct,
];

pub fn schema() -> Schema {
    SchemaBuilder::new("PropDW")
        .dimension(
            DimensionBuilder::new("D0")
                .simple_level("A", "name")
                .simple_level("B", "name")
                .build(),
        )
        .dimension(
            DimensionBuilder::new("D1")
                .level(
                    "T",
                    vec![Attribute::descriptor("date", AttributeType::Date)],
                )
                .build(),
        )
        .fact(
            FactBuilder::new("F")
                .measure("M1", AttributeType::Float)
                .measure_with("M2", AttributeType::Float, AggregationFunction::Avg)
                .measure("M3", AttributeType::Integer)
                .dimension("D0")
                .dimension("D1")
                .build(),
        )
        .build()
        .expect("property schema is valid")
}

/// One generated fact row: raw foreign keys (reduced modulo the member
/// counts at build time) and three optional measure values.
pub type FactSpec = (usize, usize, Option<i32>, Option<i32>, Option<i64>);

/// Generated cube content: per-member attribute picks for D0 (index 4 =
/// null), the D1 member count, and the fact rows ([`cube_spec`] draws
/// fewer than `max_facts` of them — each suite keeps its own bound).
#[derive(Debug, Clone)]
pub struct CubeSpec {
    pub d0_members: Vec<(usize, usize)>,
    pub d1_members: usize,
    pub facts: Vec<FactSpec>,
}

pub fn cube_spec(max_facts: usize) -> impl Strategy<Value = CubeSpec> {
    (
        prop::collection::vec((0usize..=POOL.len(), 0usize..=POOL.len()), 1..6),
        1usize..5,
        prop::collection::vec(
            (
                any::<usize>(),
                any::<usize>(),
                option_of(-64i32..65),
                option_of(-64i32..65),
                option_of(-9i32..10).prop_map(|v| v.map(i64::from)),
            ),
            0..max_facts,
        ),
    )
        .prop_map(|(d0_members, d1_members, facts)| CubeSpec {
            d0_members,
            d1_members,
            facts,
        })
}

/// `Option<T>` strategy: roughly one value in three is `None` (a null
/// cell / an absent query part).
pub fn option_of<S>(values: S) -> BoxedStrategy<Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    let some = values.prop_map(Some).boxed();
    prop_oneof![Just(None).boxed(), some.clone(), some].boxed()
}

pub fn pool_cell(index: usize) -> CellValue {
    if index >= POOL.len() {
        CellValue::Null
    } else {
        CellValue::from(POOL[index])
    }
}

pub fn build_cube(spec: &CubeSpec) -> Cube {
    let mut cube = Cube::new(schema());
    for (a, b) in &spec.d0_members {
        cube.add_dimension_member(
            "D0",
            vec![("A.name", pool_cell(*a)), ("B.name", pool_cell(*b))],
        )
        .expect("D0 member loads");
    }
    for day in 0..spec.d1_members {
        // Dates repeat modulo 3 so the date group key collides too.
        cube.add_dimension_member("D1", vec![("T.date", CellValue::Date(day as i64 % 3))])
            .expect("D1 member loads");
    }
    for (fk0, fk1, m1, m2, m3) in &spec.facts {
        let mut measures: Vec<(&str, CellValue)> = Vec::new();
        if let Some(v) = m1 {
            // Dyadic: multiples of 0.25, exactly representable.
            measures.push(("M1", CellValue::Float(f64::from(*v) * 0.25)));
        }
        if let Some(v) = m2 {
            measures.push(("M2", CellValue::Float(f64::from(*v) * 0.5)));
        }
        if let Some(v) = m3 {
            measures.push(("M3", CellValue::Integer(*v)));
        }
        cube.add_fact_row(
            "F",
            vec![
                ("D0", fk0 % spec.d0_members.len()),
                ("D1", fk1 % spec.d1_members),
            ],
            measures,
        )
        .expect("fact row loads");
    }
    cube
}

/// A generated query: group-by key picks, measures with optional
/// aggregation overrides, an optional dimension filter, an optional fact
/// filter and an optional limit.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub group_by: Vec<usize>,
    pub measures: Vec<(usize, Option<usize>)>,
    pub dim_filter: Option<usize>,
    pub fact_filter: Option<i32>,
    pub limit: Option<usize>,
}

pub fn query_spec() -> impl Strategy<Value = QuerySpec> {
    (
        prop::collection::vec(0usize..GROUP_KEYS.len(), 0..3),
        prop::collection::vec(
            (
                0usize..MEASURES.len(),
                option_of(0usize..AGGREGATIONS.len()),
            ),
            1..4,
        ),
        option_of(0usize..POOL.len()),
        option_of(-32i32..33),
        option_of(0usize..6),
    )
        .prop_map(
            |(group_by, measures, dim_filter, fact_filter, limit)| QuerySpec {
                group_by,
                measures,
                dim_filter,
                fact_filter,
                limit,
            },
        )
}

pub fn build_query(spec: &QuerySpec) -> Query {
    let mut query = Query::over("F");
    for key in &spec.group_by {
        let (dimension, level, attribute) = GROUP_KEYS[*key];
        query = query.group_by(AttributeRef::new(dimension, level, attribute));
    }
    for (measure, aggregation) in &spec.measures {
        query = match aggregation {
            Some(agg) => query.measure_agg(MEASURES[*measure], AGGREGATIONS[*agg]),
            None => query.measure(MEASURES[*measure]),
        };
    }
    if let Some(value) = spec.dim_filter {
        query = query.filter_dimension("D0", Filter::eq("A.name", POOL[value]));
    }
    if let Some(threshold) = spec.fact_filter {
        query = query.filter_fact(Filter::Attribute {
            column: "M1".into(),
            op: sdwp_olap::CompareOp::Ge,
            value: CellValue::Float(f64::from(threshold) * 0.25),
        });
    }
    if let Some(limit) = spec.limit {
        query = query.limit(limit);
    }
    query
}

/// A generated personalized view: an optional member selection on D0
/// (raw ids reduced modulo the member count) with a few *stray* ids
/// joined unreduced — mostly far beyond every table, the members the view
/// API accepts but no table holds — and an optional selection on a
/// dimension `F` is not analysed by, which restricts nothing `F` can see.
#[derive(Debug, Clone)]
pub struct ViewSpec {
    pub d0_selection: Option<Vec<usize>>,
    pub strays: Vec<usize>,
    pub elsewhere: Option<Vec<usize>>,
}

pub fn view_spec() -> impl Strategy<Value = ViewSpec> {
    (
        option_of(prop::collection::vec(any::<usize>(), 0..6)),
        prop::collection::vec(prop_oneof![0usize..12, any::<usize>()], 0..3),
        option_of(prop::collection::vec(0usize..4, 0..3)),
    )
        .prop_map(|(d0_selection, strays, elsewhere)| ViewSpec {
            d0_selection,
            strays,
            elsewhere,
        })
}

pub fn build_view(spec: &ViewSpec, cube_spec: &CubeSpec) -> InstanceView {
    let mut view = InstanceView::unrestricted();
    if let Some(members) = &spec.d0_selection {
        let members = members.iter().map(|m| m % cube_spec.d0_members.len());
        view.select_dimension_members("D0", members.chain(spec.strays.iter().copied()));
    }
    if let Some(members) = &spec.elsewhere {
        view.select_dimension_members("Elsewhere", members.iter().copied());
    }
    view
}

/// A view's visible-row count over fact `F`, checked three ways:
/// `visible_fact_count` (the resolved check every scan uses) must equal
/// both the live rows the name-based `allows_fact_row` admits and what an
/// unfiltered serial scan of `measure` through the view counts as
/// scanned. Returns the agreed count.
pub fn agreed_visible_count(cube: &Cube, view: &InstanceView, measure: &str) -> usize {
    let table = &cube.fact_table("F").unwrap().table;
    let by_name = (0..table.len())
        .filter(|&row| table.is_live(row) && view.allows_fact_row(cube, "F", row).unwrap())
        .count();
    let scanned = QueryEngine::with_config(ExecutionConfig::serial())
        .execute_serial_with_view(cube, &Query::over("F").measure(measure), view)
        .unwrap()
        .facts_scanned;
    let visible = view.visible_fact_count(cube, "F").unwrap();
    assert_eq!(
        (visible, visible),
        (by_name, scanned),
        "visible_fact_count vs allows_fact_row vs serial facts_scanned"
    );
    visible
}
