//! The morsel loop. Selection is bit operations over a shrinking
//! selection vector: the fact group's lowered view runs **once per
//! morsel** as filter class zero (`ResolvedViewCheck::select_visible`),
//! and each filter class narrows a copy of its survivors — one typed FK
//! gather plus bit test per filtered dimension
//! (`MemberBits::retain_allowed`), then the fact filter row by row. Each
//! member query then takes one of two accumulation paths — flat
//! dense-slot or integer-keyed hashed — over its class's selection,
//! through plain column indices. An ungrouped query is a grouped one
//! with a single group: one flat slot, or `GroupId::Packed(0)`.

use super::injected;
use super::plan::{BatchQuery, FactGroup, GroupId, GroupPlan, Resolved};
use crate::aggregate::{Accumulator, SlotAccumulator};
use crate::cancel::CancelToken;
use crate::cube::member_at;
use crate::dicts::NULL_KEY;
use crate::error::OlapError;
use crate::hash::FxHashMap;
use crate::kernels::NumericAgg;
use crate::table::Table;
use std::collections::hash_map::Entry;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The group state of one morsel's partial aggregate. Key cells are
/// never materialised here — the merge phase works entirely on integers
/// and decodes the surviving groups once at finalisation.
pub(super) enum MorselGroups {
    /// Integer group ids → accumulator states, in first-occurrence order
    /// (the hashed path).
    Keyed(Vec<(GroupId, Vec<Accumulator>)>),
    /// The flat dense-slot path: the touched slots in first-occurrence
    /// order plus, per measure, the slots' kernel partials (parallel to
    /// `touched`). Merging is a slot-indexed [`NumericAgg::merge`] into
    /// flat totals — no hashing, no per-group allocation.
    Flat {
        touched: Vec<u32>,
        partials: Vec<Vec<NumericAgg>>,
    },
}

/// The partial aggregate of one morsel.
pub(super) struct MorselPartial {
    pub(super) groups: MorselGroups,
    pub(super) facts_scanned: usize,
    pub(super) facts_matched: usize,
}

/// Narrows `sel` — the morsel's view survivors — to one filter class's
/// selection: the class's dimension filters in dimension order, then its
/// fact filter, over a shrinking selection, so the checks a row meets
/// and their order are the serial reference's ([`scan_range`]). Returns
/// the lowest failing row's error, if any stage (the view's included:
/// `error` comes in as what `select_visible` returned) could not read a
/// row — a failing stage cuts the selection off at that row and the
/// later stages carry on below it, where only a lower row can fail.
fn select_class(
    rep: &BatchQuery<'_>,
    sel: &mut Vec<u32>,
    members: &mut Vec<u32>,
    mut error: Option<OlapError>,
) -> Option<OlapError> {
    let fact_table = rep.resolved.fact_table;
    for (fk, allowed) in rep.resolved.allowed_members.values() {
        error = allowed
            .retain_allowed(fact_table.column_at(*fk), sel, members)
            .or(error);
    }
    if let Some(filter) = &rep.query.fact_filter {
        let mut unreadable = None;
        sel.retain(|&row| {
            unreadable.is_none()
                && filter
                    .matches(fact_table, row as usize)
                    .unwrap_or_else(|error| {
                        unreadable = Some(error);
                        false
                    })
        });
        error = unreadable.or(error);
    }
    error
}

/// The integer group id of one fact row, built attribute by attribute in
/// query order (so FK-read errors surface in the serial reference's
/// order): per attribute a typed FK read plus one dictionary index.
/// Members outside the dictionary (impossible through validated loads)
/// read as `Null`, exactly what the serial reference's out-of-range
/// `Table::get` returns.
fn row_group_id(
    plan: &GroupPlan,
    fact_table: &Table,
    fact_row: usize,
) -> Result<GroupId, OlapError> {
    let mut packed: u128 = 0;
    let mut wide: Vec<u32> = Vec::new();
    if plan.cardinality.is_none() {
        wide.reserve(plan.dicts.len());
    }
    for dict in &plan.dicts {
        let member = member_at(fact_table.column_at(dict.fk_column), fact_row)?;
        let dense = dict
            .keys
            .member_to_key
            .get(member)
            .copied()
            .unwrap_or(NULL_KEY);
        match plan.cardinality {
            Some(_) => packed = packed * dict.keys.key_values.len() as u128 + u128::from(dense),
            None => wide.push(dense),
        }
    }
    Ok(match plan.cardinality {
        Some(_) => GroupId::Packed(packed),
        None => GroupId::Wide(wide.into_boxed_slice()),
    })
}

/// The integer-keyed hashed accumulation over a morsel's selection
/// vector: the fallback for group cardinalities above the flat-slot
/// limit and for measures that need full values (COUNT DISTINCT, text
/// columns). Accumulation order is the selection's ascending row order —
/// identical to [`scan_range`]'s — but group keys are dense integer ids
/// fed through the fast integer hasher ([`FxHashMap`]), and numeric
/// measures are read as bare numbers through pre-resolved column
/// indices.
fn accumulate_hashed(
    resolved: &Resolved<'_>,
    plan: &GroupPlan,
    sel: &[u32],
    out: &mut Vec<(GroupId, Vec<Accumulator>)>,
) -> Result<(), OlapError> {
    let fact_table = resolved.fact_table;
    let mut groups: FxHashMap<GroupId, usize> = FxHashMap::default();
    for &row in sel {
        let fact_row = row as usize;
        let id = row_group_id(plan, fact_table, fact_row)?;
        let slot = match groups.entry(id) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let slot = out.len();
                out.push((
                    entry.key().clone(),
                    resolved
                        .measures
                        .iter()
                        .map(|(_, agg)| Accumulator::new(*agg))
                        .collect(),
                ));
                entry.insert(slot);
                slot
            }
        };
        let accumulators = &mut out[slot].1;
        for (measure_plan, acc) in resolved.plans.iter().zip(accumulators.iter_mut()) {
            let column = fact_table.column_at(measure_plan.column);
            if !measure_plan.numeric {
                acc.update(&column.get(fact_row));
            } else if let Some(n) = column.get_number(fact_row) {
                acc.update_number(n);
            }
        }
    }
    Ok(())
}

/// Reusable per-worker buffers of the flat grouped scan, sized once per
/// query (the slot vectors to the plan's total cardinality) and reset
/// between morsels through the touched-slot list — never an
/// O(cardinality) clear per morsel.
struct FlatScratch {
    /// Group slot per selected row (parallel to the selection vector,
    /// which lives outside the scratch: one selection is shared by a
    /// whole filter class).
    slots: Vec<u32>,
    /// FK gather buffer (member ids, parallel to the selection vector).
    members: Vec<u32>,
    /// Gathered non-null measure values and their slots.
    values: Vec<f64>,
    value_slots: Vec<u32>,
    /// Per-slot group-existence flags for the current morsel (a group
    /// exists once a row matches, even if every measure value is null —
    /// the serial reference's semantics).
    slot_seen: Vec<bool>,
    /// Slots touched by the current morsel, in first-occurrence order.
    touched: Vec<u32>,
    /// Per-measure slot-backed accumulator state.
    measures: Vec<SlotAccumulator>,
}

impl FlatScratch {
    fn new(resolved: &Resolved<'_>, slots: usize) -> Self {
        FlatScratch {
            slots: Vec::new(),
            members: Vec::new(),
            values: Vec::new(),
            value_slots: Vec::new(),
            slot_seen: vec![false; slots],
            touched: Vec::new(),
            measures: resolved
                .measures
                .iter()
                .map(|(_, agg)| SlotAccumulator::new(*agg, slots))
                .collect(),
        }
    }
}

/// The flat dense-slot grouped accumulation over a morsel's selection
/// vector. Two passes, each vectorisable:
///
/// 1. resolve the FK columns through typed chunk slices
///    ([`crate::Column::gather_members`]) and fold the per-attribute
///    dense ids into one mixed-radix **slot vector**;
/// 2. per measure, gather the column into a compacted null-free
///    `(values, slots)` pair ([`crate::Column::gather_numeric`]) and run
///    the grouped slice kernel into the per-slot vectors.
///
/// The morsel's partial is then read out of the touched slots in
/// first-occurrence order, as per-measure [`NumericAgg`] columns the
/// merge phase adds slot-wise into live-group totals. An ungrouped query
/// has no attributes: every selected row lands in slot 0.
fn accumulate_flat(
    resolved: &Resolved<'_>,
    plan: &GroupPlan,
    sel: &[u32],
    facts_scanned: usize,
    scratch: &mut FlatScratch,
) -> Result<MorselPartial, OlapError> {
    let fact_table = resolved.fact_table;
    let facts_matched = sel.len();
    if sel.is_empty() {
        return Ok(MorselPartial {
            groups: MorselGroups::Flat {
                touched: Vec::new(),
                partials: Vec::new(),
            },
            facts_scanned,
            facts_matched,
        });
    }

    // Slot vector: one typed FK gather per attribute, folded mixed-radix.
    scratch.slots.clear();
    scratch.slots.resize(sel.len(), 0);
    for dict in &plan.dicts {
        scratch.members.clear();
        fact_table
            .column_at(dict.fk_column)
            .gather_members(sel, &mut scratch.members)?;
        let radix = dict.keys.key_values.len() as u32;
        for (slot, &member) in scratch.slots.iter_mut().zip(&scratch.members) {
            let dense = dict
                .keys
                .member_to_key
                .get(member as usize)
                .copied()
                .unwrap_or(NULL_KEY);
            *slot = *slot * radix + dense;
        }
    }

    // Group existence: a slot is born when its first row matches.
    for &slot in &scratch.slots {
        let seen = &mut scratch.slot_seen[slot as usize];
        if !*seen {
            scratch.touched.push(slot);
            *seen = true;
        }
    }

    // One kernel pass per measure over the gathered null-free pairs.
    for (measure_plan, state) in resolved.plans.iter().zip(scratch.measures.iter_mut()) {
        scratch.values.clear();
        scratch.value_slots.clear();
        fact_table.column_at(measure_plan.column).gather_numeric(
            sel,
            &scratch.slots,
            &mut scratch.values,
            &mut scratch.value_slots,
        );
        state.accumulate(&scratch.values, &scratch.value_slots);
    }

    // Drain the touched slots into the morsel partial (per-measure
    // `NumericAgg` columns parallel to the touched list), resetting the
    // slot state for the next morsel.
    let mut partials: Vec<Vec<NumericAgg>> = resolved
        .measures
        .iter()
        .map(|_| Vec::with_capacity(scratch.touched.len()))
        .collect();
    for &slot in &scratch.touched {
        scratch.slot_seen[slot as usize] = false;
        for (state, column) in scratch.measures.iter_mut().zip(partials.iter_mut()) {
            column.push(state.take_slot(slot as usize));
        }
    }
    let touched = std::mem::take(&mut scratch.touched);
    Ok(MorselPartial {
        groups: MorselGroups::Flat { touched, partials },
        facts_scanned,
        facts_matched,
    })
}

/// The per-participant loop of the pipeline — the one place morsels are
/// claimed: pulls morsel indices from the shared counter until the table
/// is exhausted, scanning each pulled morsel once for the whole fact
/// group (one selection per filter class, one partial per member query).
/// A morsel that errors records the error and the participant moves on,
/// so the merge phase can always report the error of the
/// *lowest-indexed* failing morsel — the same error the serial reference
/// reports.
pub(super) fn scan_assigned_batch_morsels(
    group: &FactGroup<'_>,
    next_morsel: &AtomicUsize,
    morsel_count: usize,
    morsel_rows: usize,
    cancel: &CancelToken,
) -> Vec<(usize, Vec<Result<MorselPartial, OlapError>>)> {
    let mut out = Vec::new();
    let mut scratch = MorselScratch::new(group);
    loop {
        let morsel = next_morsel.fetch_add(1, Ordering::Relaxed);
        if morsel >= morsel_count {
            break;
        }
        // Checked after the bounds check, so a trip observed here means
        // a claimed morsel index goes unscanned — which is exactly what
        // forces the executor's terminal-state bail-out. (A participant
        // arriving after exhaustion must not trip the token: the group
        // completed.)
        if cancel.check().is_err() {
            break;
        }
        if let Err(error) = injected("query.scan.morsel") {
            let failed = group.queries.iter().map(|_| Err(error.clone()));
            out.push((morsel, failed.collect()));
            continue;
        }
        let start = morsel * morsel_rows;
        let end = (start + morsel_rows).min(group.fact_table.len());
        let partials = scan_batch_morsel(group, start..end, &mut scratch);
        out.push((morsel, partials));
    }
    out
}

/// Participant-local selection and flat-slot buffers, sized once and
/// reused across the participant's morsels (the slot state resets
/// through the touched list, not by clearing whole slot vectors).
struct MorselScratch {
    /// The morsel's view survivors — the selection of filter class zero,
    /// which every filter class's selection starts as a copy of.
    visible: Vec<u32>,
    /// FK gather buffer of the selection stages.
    members: Vec<u32>,
    /// One selection vector per filter class.
    sels: Vec<Vec<u32>>,
    /// Flat-slot state per member query on the flat grouped path.
    flats: Vec<Option<FlatScratch>>,
}

impl MorselScratch {
    fn new(group: &FactGroup<'_>) -> Self {
        MorselScratch {
            visible: Vec::new(),
            members: Vec::new(),
            sels: group.classes.iter().map(|_| Vec::new()).collect(),
            flats: group
                .queries
                .iter()
                .map(|member| {
                    member
                        .plan
                        .flat
                        .map(|slots| FlatScratch::new(&member.resolved, slots))
                })
                .collect(),
        }
    }
}

/// One morsel of the pipeline: the view's selection once for the whole
/// fact group, each filter class's selection over its survivors, then
/// each member query's own accumulation path — the flat dense-slot path
/// (every measure numeric, slot space under the limit; an ungrouped
/// query is its one-slot case) or the integer-keyed hashed path — over
/// its class's shared selection. Both are equivalent to [`scan_range`],
/// the serial reference the property suites compare against, by the
/// shared per-row selection semantics and, for floats, by summing in
/// ascending row order within the morsel. Returns one partial per member
/// query, in group order. A selection error is the whole class's error
/// (each member would have hit it at the same row on its own);
/// accumulation errors stay per query.
fn scan_batch_morsel(
    group: &FactGroup<'_>,
    rows: Range<usize>,
    scratch: &mut MorselScratch,
) -> Vec<Result<MorselPartial, OlapError>> {
    let MorselScratch {
        visible,
        members,
        sels,
        flats,
    } = scratch;

    // Phase 1: the view once — filter class zero — then one selection
    // per filter class. Rows the view admits are what a class counts as
    // scanned.
    let view_error = group
        .view
        .select_visible(group.fact_table, rows, visible, members);
    let class_errors: Vec<Option<OlapError>> = group
        .classes
        .iter()
        .zip(sels.iter_mut())
        .map(|(&rep, sel)| {
            sel.clear();
            sel.extend_from_slice(visible);
            select_class(&group.queries[rep], sel, members, view_error.clone())
        })
        .collect();

    // Phase 2: per-query accumulation over the shared selections.
    let facts_scanned = visible.len();
    group
        .queries
        .iter()
        .zip(flats.iter_mut())
        .map(|(member, flat)| {
            if let Some(error) = &class_errors[member.class] {
                return Err(error.clone());
            }
            let sel = sels[member.class].as_slice();
            match flat {
                Some(flat) => {
                    accumulate_flat(&member.resolved, &member.plan, sel, facts_scanned, flat)
                }
                None => {
                    let mut groups = Vec::new();
                    accumulate_hashed(&member.resolved, &member.plan, sel, &mut groups)?;
                    Ok(MorselPartial {
                        groups: MorselGroups::Keyed(groups),
                        facts_scanned,
                        facts_matched: sel.len(),
                    })
                }
            }
        })
        .collect()
}
