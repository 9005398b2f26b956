//! The serial row-at-a-time reference — the oracle every equivalence
//! suite compares the executor against. Name-based on purpose (it reads
//! through `Cube::fact_member` and `InstanceView::allows_fact_row`) and
//! kept apart from what serves.

use super::merge::materialise;
use super::plan::{resolve, FilterMemo, Resolved};
use super::QueryEngine;
use crate::aggregate::Accumulator;
use crate::cube::{attribute_column, Cube};
use crate::error::OlapError;
use crate::query::{Query, QueryResult};
use crate::table::Table;
use crate::value::CellValue;
use crate::view::InstanceView;
use std::collections::HashMap;
use std::ops::Range;

/// Group-by state of the **serial reference**: group key string →
/// (key cells, accumulators). The parallel path never builds these
/// strings; it keys by dense integer ids ([`GroupId`]).
type GroupMap = HashMap<String, (Vec<CellValue>, Vec<Accumulator>)>;

impl QueryEngine {
    /// Executes a query serially, without personalization — the
    /// row-at-a-time reference implementation.
    pub fn execute_serial(&self, cube: &Cube, query: &Query) -> Result<QueryResult, OlapError> {
        self.execute_serial_with_view(cube, query, &InstanceView::unrestricted())
    }

    /// Executes a query through a view with the classic single-threaded
    /// row-at-a-time loop. This is the reference implementation the
    /// parallel-equivalence property suite compares
    /// [`QueryEngine::execute_with_view`] against.
    pub fn execute_serial_with_view(
        &self,
        cube: &Cube,
        query: &Query,
        view: &InstanceView,
    ) -> Result<QueryResult, OlapError> {
        let resolved = resolve(cube, query, &mut FilterMemo::new())?;
        let fact_table = &cube.fact_table(&query.fact)?.table;
        let mut key_cache: Vec<HashMap<usize, CellValue>> =
            vec![HashMap::new(); query.group_by.len()];
        let mut groups: GroupMap = HashMap::new();
        let (facts_scanned, facts_matched) = scan_range(
            cube,
            query,
            view,
            &resolved,
            fact_table,
            0..fact_table.len(),
            &mut key_cache,
            &mut groups,
        )?;
        let rows = groups.into_values().collect();
        Ok(materialise(
            query,
            &resolved,
            rows,
            facts_scanned,
            facts_matched,
        ))
    }
}

/// Scans one contiguous row range, accumulating into `groups` — the
/// row-at-a-time **serial reference**: every value goes through
/// [`Table::get`]'s `CellValue` materialisation. The morsel pipeline's
/// typed and vectorised scans ([`scan_batch_morsel`]) must stay observably
/// equivalent to this loop — same groups, same counters, same error for
/// the same first failing row — which the storage-equivalence and
/// parallel-equivalence property suites enforce.
#[allow(clippy::too_many_arguments)]
fn scan_range(
    cube: &Cube,
    query: &Query,
    view: &InstanceView,
    resolved: &Resolved<'_>,
    fact_table: &Table,
    rows: Range<usize>,
    key_cache: &mut [HashMap<usize, CellValue>],
    groups: &mut GroupMap,
) -> Result<(usize, usize), OlapError> {
    let mut facts_scanned = 0usize;
    let mut facts_matched = 0usize;
    for fact_row in rows {
        // Retracted rows are invisible to every query (and not counted as
        // scanned). Shared by the serial reference and each parallel
        // morsel, so the two executors stay equivalent mid-ingest by
        // construction.
        if !fact_table.is_live(fact_row) {
            continue;
        }
        if !view.allows_fact_row(cube, &query.fact, fact_row)? {
            continue;
        }
        facts_scanned += 1;

        // Dimension filters (the classic name-based member read — the
        // reference the typed parallel path is measured against).
        let mut passes = true;
        for (dimension, (_, allowed)) in &resolved.allowed_members {
            let member = cube.fact_member(&query.fact, fact_row, dimension)?;
            if !allowed.contains(member) {
                passes = false;
                break;
            }
        }
        if !passes {
            continue;
        }
        // Fact filter.
        if let Some(filter) = &query.fact_filter {
            if !filter.matches(fact_table, fact_row)? {
                continue;
            }
        }
        facts_matched += 1;

        // Build the group key.
        let mut key_cells = Vec::with_capacity(query.group_by.len());
        let mut key_string = String::new();
        for (i, attr) in query.group_by.iter().enumerate() {
            let member = cube.fact_member(&query.fact, fact_row, &attr.dimension)?;
            let cell = match key_cache[i].get(&member) {
                Some(c) => c.clone(),
                None => {
                    let table = &cube.dimension_table(&attr.dimension)?.table;
                    let cell =
                        table.get(member, &attribute_column(&attr.level, &attr.attribute))?;
                    key_cache[i].insert(member, cell.clone());
                    cell
                }
            };
            // Length-prefix each attribute's key so the concatenation is
            // injective even when a text key itself contains the
            // separator — keeping the serial reference's grouping
            // identical to the dense-id parallel path, which keys each
            // attribute independently.
            let key = cell.group_key();
            key_string.push_str(&key.len().to_string());
            key_string.push('\u{1f}');
            key_string.push_str(&key);
            key_cells.push(cell);
        }

        let entry = groups.entry(key_string).or_insert_with(|| {
            (
                key_cells.clone(),
                resolved
                    .measures
                    .iter()
                    .map(|(_, agg)| Accumulator::new(*agg))
                    .collect(),
            )
        });
        for ((column, _), acc) in resolved.measures.iter().zip(entry.1.iter_mut()) {
            let value = fact_table.get(fact_row, column)?;
            acc.update(&value);
        }
    }
    Ok((facts_scanned, facts_matched))
}
