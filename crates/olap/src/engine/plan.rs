//! Plan time — everything decided once per request, at the door:
//! [`resolve`] validates a query, turns every name into a plain column
//! index and lowers each dimension filter to a dense member bitset
//! ([`MemberBits`], one evaluation per distinct `(dimension, filter)` of
//! the request — [`FilterMemo`]), [`build_group_plan`] adds the dense
//! group-key dictionaries and picks one of the two accumulation paths,
//! flat dense-slot or integer-keyed hashed (an ungrouped query plans as
//! a single group), and [`plan_groups`] gathers the queries of one
//! fact into a [`FactGroup`] with their filter classes and the request's
//! view lowered for that fact.

use super::injected;
use crate::bits::MemberBits;
use crate::column::ColumnType;
use crate::cube::{fk_column, Cube};
use crate::dicts::{attr_key, GroupDictCache, GroupKeys};
use crate::error::OlapError;
use crate::filter::Filter;
use crate::hash::FxHashMap;
use crate::query::{AttributeRef, Query, QueryResult};
use crate::table::Table;
use crate::value::CellValue;
use crate::view::{InstanceView, ResolvedViewCheck};
use sdwp_model::AggregationFunction;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// How the morsel executor reads one measure.
pub(super) struct MeasurePlan {
    /// The measure column's declaration index in the fact table
    /// (resolved once, so the scan loop never does a name lookup per
    /// row).
    pub(super) column: usize,
    /// Whether the column is numeric (integer / float / date) and the
    /// aggregation can run on bare numbers — the typed fast path. COUNT
    /// DISTINCT needs the full value and always takes the `CellValue`
    /// path.
    pub(super) numeric: bool,
}

/// The resolved, validated parts of a query that every scan shares.
pub(super) struct Resolved<'q> {
    /// The table of the queried fact.
    pub(super) fact_table: &'q Table,
    /// `(column name, aggregation)` per requested measure.
    pub(super) measures: Vec<(String, AggregationFunction)>,
    /// Per-measure read plan for the morsel executor, index-aligned with
    /// `measures`.
    pub(super) plans: Vec<MeasurePlan>,
    /// Allowed member sets per filtered dimension, each with the index
    /// of the fact table's FK column. A `BTreeMap` so the order the
    /// dimensions are checked in is deterministic across executions.
    pub(super) allowed_members: BTreeMap<&'q str, (usize, Arc<MemberBits>)>,
}

/// One group-by attribute pre-resolved for the parallel path: the
/// dimension walked once into a dense dictionary ([`GroupKeys`]), so
/// per-row key building is a single `u32` array index — no `HashMap`
/// probe, no `CellValue` clone, no string append. The dimension-side
/// dictionary is `Arc`-shared: within a batch, and (through
/// [`GroupDictCache`]) across queries until the snapshot generation
/// moves on; only the fact-side FK column index is per-query state.
pub(super) struct GroupKeyDict {
    /// Index of the fact table's FK column for the attribute's dimension.
    pub(super) fk_column: usize,
    /// The shared dimension-side dictionary.
    pub(super) keys: Arc<GroupKeys>,
}

/// The grouped execution plan of one parallel query: per-attribute
/// dictionaries plus the flat-vs-hashed path decision.
pub(super) struct GroupPlan {
    /// Dictionaries in `query.group_by` order.
    pub(super) dicts: Vec<GroupKeyDict>,
    /// Product of the dictionary sizes — the mixed-radix range of a
    /// packed group id. `None` when it overflows `u128` (keys fall back
    /// to [`GroupId::Wide`]).
    pub(super) cardinality: Option<u128>,
    /// `Some(total slots)` when the morsels accumulate into flat per-slot
    /// vectors (cardinality under the configured limit, every measure
    /// numeric — an ungrouped query is the one-slot case); `None` uses
    /// the integer-keyed hash fallback.
    pub(super) flat: Option<usize>,
}

impl GroupPlan {
    /// Resolves a group id back to its key `CellValue`s — the only point
    /// where the parallel path materialises key cells, once per surviving
    /// group at finalisation.
    pub(super) fn decode(&self, id: &GroupId) -> Vec<CellValue> {
        match id {
            GroupId::Packed(value) => {
                let mut value = *value;
                let mut cells = vec![CellValue::Null; self.dicts.len()];
                for (cell, dict) in cells.iter_mut().zip(&self.dicts).rev() {
                    let radix = dict.keys.key_values.len() as u128;
                    *cell = dict.keys.key_values[(value % radix) as usize].clone();
                    value /= radix;
                }
                cells
            }
            GroupId::Wide(ids) => ids
                .iter()
                .zip(&self.dicts)
                .map(|(&dense, dict)| dict.keys.key_values[dense as usize].clone())
                .collect(),
        }
    }
}

/// A group key on the parallel path: per-attribute dense ids packed into
/// one mixed-radix integer, or the raw dense-id tuple when the packed
/// range would overflow `u128` (astronomical cardinalities only). Never a
/// string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) enum GroupId {
    Packed(u128),
    Wide(Box<[u32]>),
}

/// One resolved member of a query batch.
pub(super) struct BatchQuery<'q> {
    /// Position in the caller's batch — results go back in input order.
    pub(super) index: usize,
    pub(super) query: &'q Query,
    pub(super) resolved: Resolved<'q>,
    pub(super) plan: GroupPlan,
    /// The query's filter class (index into its fact group's class
    /// list).
    pub(super) class: usize,
}

/// The queries of one batch that aggregate the same fact, sharing that
/// fact's single morsel pass.
pub(super) struct FactGroup<'q> {
    pub(super) fact: &'q str,
    pub(super) fact_table: &'q Table,
    /// The request's view lowered for this fact, once, at plan time —
    /// filter class zero of every morsel: its selection runs once per
    /// morsel and every filter class starts from the survivors.
    pub(super) view: ResolvedViewCheck,
    pub(super) queries: Vec<BatchQuery<'q>>,
    /// One entry per filter class — the member queries whose canonical
    /// filter identity coincides, so each morsel materialises one
    /// selection vector for all of them: the index (into `queries`) of
    /// the representative whose resolved filter state drives the shared
    /// selection. Any member would do — equal class keys imply equal
    /// selection semantics.
    pub(super) classes: Vec<usize>,
}

/// The canonical filter identity of a query: dimension filters sorted
/// by dimension name (they are conjunctive, so order is irrelevant —
/// the same normalisation [`Query::canonical_key`] applies) plus the
/// fact filter. Queries with equal keys resolve to identical allowed
/// member sets against the same snapshot, and therefore select
/// identical rows with identical counters and per-row errors.
fn filter_class_key(query: &Query) -> String {
    let mut filters: Vec<&(String, crate::filter::Filter)> =
        query.dimension_filters.iter().collect();
    filters.sort_by(|a, b| a.0.cmp(&b.0));
    format!("{filters:?}|{:?}", query.fact_filter)
}

/// The dimension filters a request has lowered so far, each with its
/// outcome: a dashboard's panels repeat a handful of slices, and one walk
/// of the dimension table per distinct `(dimension, filter)` serves them
/// all. A short list compared by value — `Filter` has no hash, and the
/// walk a hit saves dwarfs the comparisons.
pub(super) type FilterMemo<'q> = Vec<(&'q str, &'q Filter, Result<Arc<MemberBits>, OlapError>)>;

/// The members of `dimension` matching `filter`, as a bitset over the
/// dimension table's rows — from `memo` when the request has already
/// evaluated the pair.
fn lower_filter<'q>(
    cube: &Cube,
    dimension: &'q str,
    filter: &'q Filter,
    memo: &mut FilterMemo<'q>,
) -> Result<Arc<MemberBits>, OlapError> {
    if let Some((_, _, lowered)) = memo
        .iter()
        .find(|(d, f, _)| *d == dimension && *f == filter)
    {
        return lowered.clone();
    }
    let lowered = cube.dimension_table(dimension).and_then(|dimension| {
        let table = &dimension.table;
        let matching = filter.matching_rows(table)?;
        Ok(Arc::new(MemberBits::from_members(table.len(), matching)))
    });
    memo.push((dimension, filter, lowered.clone()));
    lowered
}

/// Validates the query against the cube's schema and pre-computes the
/// allowed member sets of every filtered dimension (through `memo`, which
/// a batch shares across its queries). Shared by the parallel pipeline
/// and the serial reference so both report identical errors for invalid
/// queries.
pub(super) fn resolve<'q>(
    cube: &'q Cube,
    query: &'q Query,
    memo: &mut FilterMemo<'q>,
) -> Result<Resolved<'q>, OlapError> {
    let fact_def = cube
        .schema()
        .fact(&query.fact)
        .ok_or_else(|| OlapError::UnknownElement {
            kind: "fact",
            name: query.fact.clone(),
        })?;
    if query.measures.is_empty() {
        return Err(OlapError::InvalidQuery {
            message: "a query needs at least one measure".into(),
        });
    }

    // Resolve measures: (column name, aggregation) plus the executor's
    // read plan. `Cube` keeps its tables aligned with its schema, so a
    // schema measure (or foreign key, below) without its column is a
    // broken cube: one typed error here, never a per-row fallback.
    let fact_table = &cube.fact_table(&query.fact)?.table;
    let mut measures: Vec<(String, AggregationFunction)> = Vec::new();
    let mut plans: Vec<MeasurePlan> = Vec::new();
    for m in &query.measures {
        let def = fact_def
            .measure(&m.measure)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "measure",
                name: m.measure.clone(),
            })?;
        let aggregation = m.aggregation.unwrap_or(def.aggregation);
        let column = fact_table.index_of(&def.name)?;
        let numeric = aggregation != AggregationFunction::CountDistinct
            && matches!(
                fact_table.column_at(column).column_type(),
                ColumnType::Integer | ColumnType::Float | ColumnType::Date
            );
        measures.push((def.name.clone(), aggregation));
        plans.push(MeasurePlan { column, numeric });
    }

    // Validate group-by references and check the dimensions are reachable.
    for key in &query.group_by {
        if !fact_def.references_dimension(&key.dimension) {
            return Err(OlapError::InvalidQuery {
                message: format!(
                    "fact '{}' is not analysed by dimension '{}'",
                    fact_def.name, key.dimension
                ),
            });
        }
        let dim =
            cube.schema()
                .dimension(&key.dimension)
                .ok_or_else(|| OlapError::UnknownElement {
                    kind: "dimension",
                    name: key.dimension.clone(),
                })?;
        let level = dim
            .level(&key.level)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "level",
                name: key.level.clone(),
            })?;
        if level.attribute(&key.attribute).is_none() {
            return Err(OlapError::UnknownElement {
                kind: "attribute",
                name: format!("{}.{}", key.level, key.attribute),
            });
        }
    }

    // Pre-compute allowed member sets for every filtered dimension, with
    // the FK column index resolved for the parallel path's typed reads.
    let mut allowed_members: BTreeMap<&str, (usize, Arc<MemberBits>)> = BTreeMap::new();
    for (dimension, filter) in &query.dimension_filters {
        if !fact_def.references_dimension(dimension) {
            return Err(OlapError::InvalidQuery {
                message: format!(
                    "filtered dimension '{dimension}' is not referenced by fact '{}'",
                    fact_def.name
                ),
            });
        }
        let matching = lower_filter(cube, dimension, filter, memo)?;
        match allowed_members.entry(dimension.as_str()) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                Arc::make_mut(&mut e.get_mut().1).intersect(&matching);
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert((fact_table.index_of(&fk_column(dimension))?, matching));
            }
        }
    }

    Ok(Resolved {
        fact_table,
        measures,
        plans,
        allowed_members,
    })
}

/// The group planner's source of dimension-side dictionaries: a plain
/// per-query build, the generation-keyed [`GroupDictCache`], or a
/// batch-local memo layered on top of either. [`GroupKeys::build`] is
/// deterministic, so every source yields interchangeable dictionaries
/// (and, for a broken attribute, the same error).
type KeysLookup<'a> = dyn FnMut(&Cube, &AttributeRef) -> Result<Arc<GroupKeys>, OlapError> + 'a;

fn keys_lookup<'a>(
    dicts: Option<(&'a GroupDictCache, u64)>,
) -> impl FnMut(&Cube, &AttributeRef) -> Result<Arc<GroupKeys>, OlapError> + 'a {
    move |cube, attr| match dicts {
        Some((cache, generation)) => cache.get_or_build(generation, cube, attr),
        None => GroupKeys::build(cube, attr).map(Arc::new),
    }
}

/// Builds the grouped execution plan: one dense dictionary per group-by
/// attribute (obtained through `lookup` — built, memoised within a
/// batch, or served from the generation-keyed cache) with its FK column
/// index, plus the flat-vs-hashed decision. An ungrouped query gets the
/// empty plan: no dictionaries, cardinality 1 — one flat slot when every
/// measure is numeric, `GroupId::Packed(0)` on the hashed path otherwise.
fn build_group_plan(
    cube: &Cube,
    query: &Query,
    resolved: &Resolved<'_>,
    group_slot_limit: usize,
    lookup: &mut KeysLookup<'_>,
) -> Result<GroupPlan, OlapError> {
    let mut dicts = Vec::with_capacity(query.group_by.len());
    for attr in &query.group_by {
        dicts.push(GroupKeyDict {
            fk_column: resolved.fact_table.index_of(&fk_column(&attr.dimension))?,
            keys: lookup(cube, attr)?,
        });
    }
    let cardinality = dicts.iter().try_fold(1u128, |product, dict| {
        product.checked_mul(dict.keys.key_values.len() as u128)
    });
    let flat = match cardinality {
        Some(slots)
            if resolved.plans.iter().all(|p| p.numeric)
                && slots <= group_slot_limit.min(u32::MAX as usize) as u128 =>
        {
            Some(slots as usize)
        }
        _ => None,
    };
    Ok(GroupPlan {
        dicts,
        cardinality,
        flat,
    })
}

/// Plans a request — phase 1 and 2 of the executor. Every query is
/// resolved and planned up front: resolution errors land in their
/// `results` slot immediately and the scan only sees the survivors;
/// group-key dictionaries are memoised per attribute across the whole
/// batch (and served from `dicts` across batches, when given), lowered
/// dimension filters per `(dimension, filter)`, and the view is lowered
/// once per fact, when the fact's group is opened. Filter classes are
/// then assigned within each fact group: two queries land in the same
/// class exactly when their canonical filter identity coincides —
/// identical allowed member sets, identical counters, identical per-row
/// selection errors — so one selection vector per morsel serves the
/// whole class.
pub(super) fn plan_groups<'q>(
    cube: &'q Cube,
    queries: &'q [Query],
    view: &'q InstanceView,
    dicts: Option<(&GroupDictCache, u64)>,
    group_slot_limit: usize,
    results: &mut [Option<Result<QueryResult, OlapError>>],
) -> Vec<FactGroup<'q>> {
    let mut base_lookup = keys_lookup(dicts);
    let mut shared_keys: FxHashMap<(String, String, String), Arc<GroupKeys>> = FxHashMap::default();
    let mut shared_filters = FilterMemo::new();
    let mut groups_by_fact: Vec<FactGroup<'_>> = Vec::new();
    let mut fact_index: HashMap<&str, usize> = HashMap::new();
    for (index, query) in queries.iter().enumerate() {
        let mut lookup = |cube: &Cube, attr: &AttributeRef| {
            let key = attr_key(attr);
            if let Some(keys) = shared_keys.get(&key) {
                return Ok(Arc::clone(keys));
            }
            let keys = base_lookup(cube, attr)?;
            shared_keys.insert(key, Arc::clone(&keys));
            Ok(keys)
        };
        let planned = injected("query.resolve")
            .and_then(|()| resolve(cube, query, &mut shared_filters))
            .and_then(|resolved| {
                let plan = build_group_plan(cube, query, &resolved, group_slot_limit, &mut lookup)?;
                Ok((resolved, plan))
            });
        let (resolved, plan) = match planned {
            Ok(planned) => planned,
            Err(error) => {
                results[index] = Some(Err(error));
                continue;
            }
        };
        let at = match fact_index.entry(query.fact.as_str()) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => match view.resolve_for_fact(cube, &query.fact) {
                Ok(lowered) => {
                    groups_by_fact.push(FactGroup {
                        fact: query.fact.as_str(),
                        fact_table: resolved.fact_table,
                        view: lowered,
                        queries: Vec::new(),
                        classes: Vec::new(),
                    });
                    *entry.insert(groups_by_fact.len() - 1)
                }
                Err(error) => {
                    results[index] = Some(Err(error));
                    continue;
                }
            },
        };
        groups_by_fact[at].queries.push(BatchQuery {
            index,
            query,
            resolved,
            plan,
            class: 0,
        });
    }

    for group in &mut groups_by_fact {
        let mut class_ids: HashMap<String, usize> = HashMap::new();
        for (j, member) in group.queries.iter_mut().enumerate() {
            member.class = *class_ids
                .entry(filter_class_key(member.query))
                .or_insert_with(|| {
                    group.classes.push(j);
                    group.classes.len() - 1
                });
        }
    }
    groups_by_fact
}
