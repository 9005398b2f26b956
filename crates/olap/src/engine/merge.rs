//! After the scan: per-query merge of the morsel partials in
//! morsel-index order, and the one finalisation (sort, limit, names) the
//! executor and the serial reference share.

use super::plan::{GroupId, GroupPlan, Resolved};
use super::scan::{MorselGroups, MorselPartial};
use crate::aggregate::Accumulator;
use crate::error::OlapError;
use crate::hash::FxHashMap;
use crate::kernels::NumericAgg;
use crate::query::{Query, QueryResult, ResultRow};
use crate::value::CellValue;
use std::collections::hash_map::Entry;

/// Merges per-morsel partials **in morsel-index order** into final group
/// rows plus the query's counters, per member query — so a query
/// combines its accumulator state (and reports the lowest-indexed
/// morsel's error) the same way whatever batch it ran in. The merge
/// works entirely on integer group ids; key cells are decoded only for
/// the groups that survive.
///
/// On the flat path the merge state is keyed by touched slot (a fast
/// integer-hashed index into first-occurrence-ordered live-group
/// columns), so its cost scales with the groups the morsels actually
/// produced — not with the plan's slot-space cardinality.
#[allow(clippy::type_complexity)]
pub(super) fn merge_partials(
    resolved: &Resolved<'_>,
    plan: &GroupPlan,
    mut partials: Vec<(usize, Result<MorselPartial, OlapError>)>,
) -> Result<(Vec<(Vec<CellValue>, Vec<Accumulator>)>, usize, usize), OlapError> {
    partials.sort_by_key(|(morsel, _)| *morsel);
    let mut facts_scanned = 0usize;
    let mut facts_matched = 0usize;
    let rows: Vec<(Vec<CellValue>, Vec<Accumulator>)> = if plan.flat.is_some() {
        let mut slot_index: FxHashMap<u32, usize> = FxHashMap::default();
        let mut live_slots: Vec<u32> = Vec::new();
        let mut totals: Vec<Vec<NumericAgg>> = vec![Vec::new(); resolved.measures.len()];
        for (_, partial) in partials {
            let partial = partial?;
            facts_scanned += partial.facts_scanned;
            facts_matched += partial.facts_matched;
            let MorselGroups::Flat { touched, partials } = partial.groups else {
                unreachable!("flat plans produce flat partials");
            };
            for (index, &slot) in touched.iter().enumerate() {
                let at = match slot_index.entry(slot) {
                    Entry::Occupied(entry) => *entry.get(),
                    Entry::Vacant(entry) => {
                        let at = live_slots.len();
                        live_slots.push(slot);
                        for total in totals.iter_mut() {
                            total.push(NumericAgg::default());
                        }
                        entry.insert(at);
                        at
                    }
                };
                for (total, partial) in totals.iter_mut().zip(&partials) {
                    total[at].merge(&partial[index]);
                }
            }
        }
        let mut order: Vec<usize> = (0..live_slots.len()).collect();
        order.sort_unstable_by_key(|&at| live_slots[at]);
        order
            .into_iter()
            .map(|at| {
                let accumulators = resolved
                    .measures
                    .iter()
                    .zip(&totals)
                    .map(|((_, agg), total)| {
                        let mut acc = Accumulator::new(*agg);
                        acc.absorb(&total[at]);
                        acc
                    })
                    .collect();
                (
                    plan.decode(&GroupId::Packed(live_slots[at] as u128)),
                    accumulators,
                )
            })
            .collect()
    } else {
        let mut groups: FxHashMap<GroupId, Vec<Accumulator>> = FxHashMap::default();
        for (_, partial) in partials {
            let partial = partial?;
            facts_scanned += partial.facts_scanned;
            facts_matched += partial.facts_matched;
            let MorselGroups::Keyed(keyed) = partial.groups else {
                unreachable!("non-flat plans produce keyed partials");
            };
            for (key, accumulators) in keyed {
                match groups.entry(key) {
                    Entry::Vacant(entry) => {
                        entry.insert(accumulators);
                    }
                    Entry::Occupied(mut entry) => {
                        for (merged, partial_acc) in
                            entry.get_mut().iter_mut().zip(accumulators.iter())
                        {
                            merged.merge(partial_acc);
                        }
                    }
                }
            }
        }
        groups
            .into_iter()
            .map(|(id, accumulators)| (plan.decode(&id), accumulators))
            .collect()
    };
    Ok((rows, facts_scanned, facts_matched))
}

/// Finalises the group rows — `(key cells, accumulators)` pairs from
/// the executor or the serial reference — into a sorted, limited result.
pub(super) fn materialise(
    query: &Query,
    resolved: &Resolved<'_>,
    groups: Vec<(Vec<CellValue>, Vec<Accumulator>)>,
    facts_scanned: usize,
    facts_matched: usize,
) -> QueryResult {
    let mut rows: Vec<ResultRow> = groups
        .into_iter()
        .map(|(keys, accs)| ResultRow {
            keys,
            values: accs.iter().map(Accumulator::finish).collect(),
        })
        .collect();
    rows.sort_by_cached_key(|r| r.keys.iter().map(CellValue::group_key).collect::<Vec<_>>());
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }

    QueryResult {
        key_names: query.group_by.iter().map(|a| a.label()).collect(),
        value_names: resolved
            .measures
            .iter()
            .map(|(name, agg)| format!("{agg}({name})"))
            .collect(),
        rows,
        facts_scanned,
        facts_matched,
    }
}
