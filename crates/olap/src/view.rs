//! Personalized instance views over a cube.
//!
//! [`InstanceView::resolve_for_fact`] lowers a view for one fact — every
//! name resolved, every member set a dense bitset (`MemberBits`) — and
//! `ResolvedViewCheck::select_visible` is the check that serves: given
//! a row range it yields the visible rows, by live runs, a bit test per
//! row for the fact's row selection and one typed FK gather plus bit test
//! per restricted dimension over the shrinking selection. The executor
//! lowers once per request and fact, at plan time, and runs the
//! selection once per morsel as *filter class zero* — every filter class
//! of the morsel starts from its survivors;
//! [`InstanceView::visible_fact_count`] lowers once per count and adds
//! up the same selection chunk by chunk. Nothing is kept across
//! requests: lowering the 681-store regional view costs about a
//! microsecond, so there is no cached bitmap to invalidate on the
//! publish path. The name-based, row-at-a-time
//! [`InstanceView::allows_fact_row`] is the reference the serial executor
//! and the equivalence suites hold it against.

use crate::bits::MemberBits;
use crate::cube::{fk_column, Cube};
use crate::error::OlapError;
use crate::table::{RowRemap, Table};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// A fact-row selection pinned to the compaction version of the fact
/// table its row ids were captured against.
///
/// Fact tables can be *compacted* (tombstones dropped, stable row ids
/// remapped), so a bare row-id set is only meaningful together with the
/// numbering it refers to. [`InstanceView::allows_fact_row`] translates a
/// queried row id backwards through the table's remap chain to the
/// selection's version, so a view captured before a compaction keeps
/// resolving exactly the live rows it selected.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FactSelection {
    /// The fact table's compaction version the row ids refer to (= the
    /// length of the table's remap chain at capture time).
    pub version: u64,
    /// The allowed fact row ids, in `version`'s numbering.
    pub rows: BTreeSet<usize>,
}

/// The outcome of instance personalization: a restriction of the cube to
/// the dimension members (and/or fact rows) a decision maker should see.
///
/// This is the model-side effect of the paper's `SelectInstance` action.
/// "All the succeeding analysis in any BI tool will have the sales fact
/// instances only made in selected stores" — the view restricts every
/// later query without copying any data.
///
/// An empty view is unrestricted; restrictions are added per dimension (a
/// set of allowed member row ids) or per fact (a set of allowed fact row
/// ids). A fact row passes the view when its row id is allowed *and* every
/// foreign key points to an allowed member.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct InstanceView {
    dimension_selections: BTreeMap<String, BTreeSet<usize>>,
    fact_selections: BTreeMap<String, FactSelection>,
}

impl InstanceView {
    /// Creates an unrestricted view.
    pub fn unrestricted() -> Self {
        InstanceView::default()
    }

    /// Returns `true` when no restriction has been registered.
    pub fn is_unrestricted(&self) -> bool {
        self.dimension_selections.is_empty() && self.fact_selections.is_empty()
    }

    /// Restricts a dimension to the given member row ids. Selecting the
    /// same dimension again *intersects* with the previous selection, so
    /// several instance rules compose conjunctively (each rule further
    /// narrows what the user sees).
    pub fn select_dimension_members(
        &mut self,
        dimension: impl Into<String>,
        members: impl IntoIterator<Item = usize>,
    ) {
        let dimension = dimension.into();
        let new: BTreeSet<usize> = members.into_iter().collect();
        match self.dimension_selections.get_mut(&dimension) {
            Some(existing) => {
                *existing = existing.intersection(&new).copied().collect();
            }
            None => {
                self.dimension_selections.insert(dimension, new);
            }
        }
    }

    /// Restricts a fact to the given fact row ids (intersecting with any
    /// previous selection), with the ids referring to the fact table's
    /// *initial* numbering (compaction version 0). Callers selecting
    /// against a table that has already been compacted use
    /// [`InstanceView::select_fact_rows_at`].
    pub fn select_fact_rows(
        &mut self,
        fact: impl Into<String>,
        rows: impl IntoIterator<Item = usize>,
    ) {
        self.select_fact_rows_at(fact, 0, rows);
    }

    /// Restricts a fact to the given fact row ids captured at the given
    /// compaction version of the fact table (intersecting with any
    /// previous selection).
    ///
    /// When the previous selection was captured at a *different* version,
    /// the raw id sets are intersected and the newer version kept: the
    /// serving layer keeps stored views aligned with the current version
    /// (it remaps them under the same lock that compacts), so a mixed
    /// intersection only happens in the window between a firing and its
    /// application, and never widens the view.
    pub fn select_fact_rows_at(
        &mut self,
        fact: impl Into<String>,
        version: u64,
        rows: impl IntoIterator<Item = usize>,
    ) {
        let fact = fact.into();
        let new: BTreeSet<usize> = rows.into_iter().collect();
        match self.fact_selections.get_mut(&fact) {
            Some(existing) => {
                existing.rows = existing.rows.intersection(&new).copied().collect();
                existing.version = existing.version.max(version);
            }
            None => {
                self.fact_selections
                    .insert(fact, FactSelection { version, rows: new });
            }
        }
    }

    /// The compaction version a fact's selection was captured at, when the
    /// fact is restricted.
    pub fn fact_selection_version(&self, fact: &str) -> Option<u64> {
        self.fact_selections.get(fact).map(|s| s.version)
    }

    /// Every restricted fact with its selection's capture version — what
    /// a reader holding this view still references of each fact table's
    /// remap chain (the serving layer pins these while a query is in
    /// flight so chain trimming cannot outrun the view).
    pub fn fact_selection_versions(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.fact_selections
            .iter()
            .map(|(fact, selection)| (fact.as_str(), selection.version))
    }

    /// The selected fact-row set (in its capture version's numbering),
    /// when the fact is restricted.
    pub fn selected_fact_rows(&self, fact: &str) -> Option<&BTreeSet<usize>> {
        self.fact_selections.get(fact).map(|s| &s.rows)
    }

    /// Translates a fact's selection through one compaction remap: row ids
    /// captured at `from_version` become ids in `from_version + 1`'s
    /// numbering (rows dead at compaction time drop out). A no-op when the
    /// fact is unrestricted or its selection is at a different version.
    /// The serving layer calls this for every open session right after
    /// publishing a compacted snapshot, keeping stored views on the
    /// version-aligned fast path of [`InstanceView::allows_fact_row`].
    pub fn remap_fact_rows(&mut self, fact: &str, remap: &RowRemap, from_version: u64) {
        if let Some(selection) = self.fact_selections.get_mut(fact) {
            if selection.version == from_version {
                selection.rows = selection
                    .rows
                    .iter()
                    .filter_map(|&row| remap.new_id(row))
                    .collect();
                selection.version = from_version + 1;
            }
        }
    }

    /// Returns `true` when the member of a dimension is visible.
    pub fn allows_member(&self, dimension: &str, member: usize) -> bool {
        self.dimension_selections
            .get(dimension)
            .map(|s| s.contains(&member))
            .unwrap_or(true)
    }

    /// The selected member set for a dimension, when restricted.
    pub fn selected_members(&self, dimension: &str) -> Option<&BTreeSet<usize>> {
        self.dimension_selections.get(dimension)
    }

    /// Names of the dimensions this view restricts.
    pub fn restricted_dimensions(&self) -> Vec<&str> {
        self.dimension_selections
            .keys()
            .map(String::as_str)
            .collect()
    }

    /// Returns `true` when a fact row is visible through the view: the row
    /// id is allowed for the fact and every foreign key points to an
    /// allowed dimension member. The reference decision (see module docs).
    pub fn allows_fact_row(
        &self,
        cube: &Cube,
        fact: &str,
        fact_row: usize,
    ) -> Result<bool, OlapError> {
        if let Some(selection) = self.fact_selections.get(fact) {
            let fact_table = cube.fact_table(fact)?;
            let current = fact_table.compaction_version();
            let row_at_capture = if selection.version < current {
                // The table was compacted since the selection was
                // captured: walk the queried id backwards through the
                // retained remap chain to the selection's numbering (the
                // serving layer only trims transitions no live selection
                // references, so the chain covers the span). A row with
                // no pre-compaction id was appended later — a closed
                // selection never contains it.
                let mut row = Some(fact_row);
                for remap in fact_table.remaps_from(selection.version).iter().rev() {
                    row = row.and_then(|r| remap.old_id(r));
                }
                row
            } else {
                // Version-aligned (the steady state) — or, in the tiny
                // window where a freshly remapped view meets a snapshot
                // published just before the compaction, best-effort raw
                // ids.
                Some(fact_row)
            };
            match row_at_capture {
                Some(row) if selection.rows.contains(&row) => {}
                _ => return Ok(false),
            }
        }
        let fact_def = cube
            .schema()
            .fact(fact)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "fact",
                name: fact.to_string(),
            })?;
        for dimension in &fact_def.dimensions {
            if let Some(selected) = self.dimension_selections.get(dimension) {
                let member = cube.fact_member(fact, fact_row, dimension)?;
                if !selected.contains(&member) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Lowers the view for one fact, hoisting everything
    /// [`InstanceView::allows_fact_row`] looks up per row out of the
    /// scan: the fact's row selection as a bitset over the table's rows
    /// with its backward remap walk pre-fetched, and each view-restricted
    /// dimension the fact references as a bitset over the dimension
    /// table's rows with the fact table's FK column index resolved (a
    /// cube whose table lacks the column fails here, once, with the typed
    /// error). Restrictions on dimensions the fact does not reference,
    /// and on other facts' rows, lower to nothing. Row-for-row
    /// decision-equivalent to `allows_fact_row` against the same cube
    /// (the serial reference keeps calling that name-based method
    /// directly, so the two paths stay comparable).
    pub fn resolve_for_fact<'a>(
        &'a self,
        cube: &'a Cube,
        fact: &str,
    ) -> Result<ResolvedViewCheck<'a>, OlapError> {
        let fact_table = cube.fact_table(fact)?;
        let selection = self.fact_selections.get(fact).map(|selection| {
            let remaps: Vec<&RowRemap> = if selection.version < fact_table.compaction_version() {
                fact_table
                    .remaps_from(selection.version)
                    .iter()
                    .rev()
                    .map(|r| r.as_ref())
                    .collect()
            } else {
                Vec::new()
            };
            let rows = selection.rows.iter().copied();
            (
                MemberBits::from_members(fact_table.table.len(), rows),
                remaps,
            )
        });
        let fact_def = cube
            .schema()
            .fact(fact)
            .ok_or_else(|| OlapError::UnknownElement {
                kind: "fact",
                name: fact.to_string(),
            })?;
        let mut dimensions = Vec::new();
        for dimension in &fact_def.dimensions {
            if let Some(selected) = self.dimension_selections.get(dimension) {
                let fk = fact_table.table.index_of(&fk_column(dimension))?;
                let members = cube.dimension_table(dimension)?.table.len();
                dimensions.push((
                    fk,
                    MemberBits::from_members(members, selected.iter().copied()),
                ));
            }
        }
        Ok(ResolvedViewCheck {
            selection,
            dimensions,
        })
    }

    /// Counts the fact rows visible through the view (retracted rows are
    /// invisible to everyone): the scans' own selection
    /// (`ResolvedViewCheck::select_visible`), one storage chunk at a
    /// time, lengths added up.
    pub fn visible_fact_count(&self, cube: &Cube, fact: &str) -> Result<usize, OlapError> {
        let table = &cube.fact_table(fact)?.table;
        let check = self.resolve_for_fact(cube, fact)?;
        if check.is_unrestricted() {
            return Ok(table.live_len());
        }
        let (mut visible, mut members) = (Vec::new(), Vec::new());
        let mut count = 0;
        for start in (0..table.len()).step_by(table.chunk_rows()) {
            let chunk = start..start + table.chunk_rows();
            if let Some(error) = check.select_visible(table, chunk, &mut visible, &mut members) {
                return Err(error);
            }
            count += visible.len();
        }
        Ok(count)
    }

    /// Merges another view into this one (intersection semantics per
    /// dimension and per fact).
    pub fn merge(&mut self, other: &InstanceView) {
        for (dim, members) in &other.dimension_selections {
            self.select_dimension_members(dim.clone(), members.iter().copied());
        }
        for (fact, selection) in &other.fact_selections {
            self.select_fact_rows_at(
                fact.clone(),
                selection.version,
                selection.rows.iter().copied(),
            );
        }
    }
}

/// A view lowered for one fact, once per request, by
/// [`InstanceView::resolve_for_fact`]: every name is resolved and every
/// member set is a bitset, so `ResolvedViewCheck::select_visible`
/// narrows a row range through typed FK gathers and bit tests alone (no
/// `fact_member` lookup, no tree walk, no re-fetch of the fact table or
/// its remap chain per row).
pub struct ResolvedViewCheck<'a> {
    /// The fact's allowed row set plus the remap transitions a queried
    /// id must walk backwards through (newest first) to reach the
    /// selection's numbering. `None` when the fact is unrestricted.
    selection: Option<(MemberBits, Vec<&'a RowRemap>)>,
    /// `(FK column index, allowed members)` per restricted dimension the
    /// fact references, in the fact's dimension order.
    dimensions: Vec<(usize, MemberBits)>,
}

impl ResolvedViewCheck<'_> {
    /// Whether the view leaves this fact alone: every live row is
    /// visible, so the visible count is the table's live count.
    pub(crate) fn is_unrestricted(&self) -> bool {
        self.selection.is_none() && self.dimensions.is_empty()
    }

    /// The rows of `rows` (clamped to the table) visible through the
    /// view, ascending, into `sel` — the resolved, whole-range form of
    /// [`InstanceView::allows_fact_row`] over the live rows.
    /// `fact_table` must be the table of the fact, in the cube, this
    /// check was built against; `members` is scratch for the FK gathers.
    ///
    /// Stages run in `allows_fact_row`'s order over a shrinking
    /// selection — liveness, the fact's row selection (remap walk and
    /// bit test; cannot fail), then one [`MemberBits::retain_allowed`]
    /// per restricted dimension — so a row an earlier stage rejects
    /// never has a later key read. Returns the read error of the lowest
    /// row whose key could not be read, if any; `sel` then holds the
    /// visible rows *below* that row, on which the caller's own stages
    /// may yet fail lower still.
    pub(crate) fn select_visible(
        &self,
        fact_table: &Table,
        rows: Range<usize>,
        sel: &mut Vec<u32>,
        members: &mut Vec<u32>,
    ) -> Option<OlapError> {
        sel.clear();
        for run in fact_table.live_runs(rows) {
            match &self.selection {
                None => sel.extend(run.map(|row| row as u32)),
                Some((allowed, remaps)) => sel.extend(
                    run.filter(|&row| {
                        let mut at_capture = Some(row);
                        for remap in remaps {
                            at_capture = at_capture.and_then(|r| remap.old_id(r));
                        }
                        at_capture.is_some_and(|r| allowed.contains(r))
                    })
                    .map(|row| row as u32),
                ),
            }
        }
        let mut error = None;
        for (fk, allowed) in &self.dimensions {
            error = allowed
                .retain_allowed(fact_table.column_at(*fk), sel, members)
                .or(error);
        }
        error
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::CellValue;
    use sdwp_geometry::Point;
    use sdwp_model::{AttributeType, DimensionBuilder, FactBuilder, SchemaBuilder};

    fn small_cube() -> Cube {
        let schema = SchemaBuilder::new("DW")
            .dimension(
                DimensionBuilder::new("Store")
                    .simple_level("Store", "name")
                    .build(),
            )
            .dimension(
                DimensionBuilder::new("Time")
                    .level(
                        "Day",
                        vec![sdwp_model::Attribute::descriptor(
                            "date",
                            AttributeType::Date,
                        )],
                    )
                    .build(),
            )
            .fact(
                FactBuilder::new("Sales")
                    .measure("UnitSales", AttributeType::Float)
                    .dimension("Store")
                    .dimension("Time")
                    .build(),
            )
            .build()
            .unwrap();
        let mut cube = Cube::new(schema);
        for i in 0..4 {
            cube.add_dimension_member(
                "Store",
                vec![
                    ("Store.name", CellValue::from(format!("S{i}"))),
                    (
                        "Store.geometry",
                        CellValue::Geometry(Point::new(i as f64, 0.0).into()),
                    ),
                ],
            )
            .unwrap();
        }
        for d in 0..2 {
            cube.add_dimension_member("Time", vec![("Day.date", CellValue::Date(d))])
                .unwrap();
        }
        // One fact row per (store, day) pair.
        for s in 0..4 {
            for d in 0..2 {
                cube.add_fact_row(
                    "Sales",
                    vec![("Store", s), ("Time", d as usize)],
                    vec![("UnitSales", CellValue::Float(1.0))],
                )
                .unwrap();
            }
        }
        cube
    }

    #[test]
    fn unrestricted_view_allows_everything() {
        let cube = small_cube();
        let view = InstanceView::unrestricted();
        assert!(view.is_unrestricted());
        assert!(view.allows_member("Store", 3));
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 8);
    }

    #[test]
    fn dimension_selection_restricts_facts() {
        let cube = small_cube();
        let mut view = InstanceView::unrestricted();
        view.select_dimension_members("Store", vec![0, 1]);
        assert!(!view.is_unrestricted());
        assert!(view.allows_member("Store", 0));
        assert!(!view.allows_member("Store", 2));
        assert!(view.allows_member("Time", 0)); // unrestricted dimension
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 4);
        assert_eq!(view.restricted_dimensions(), vec!["Store"]);
        assert_eq!(view.selected_members("Store").unwrap().len(), 2);
    }

    #[test]
    fn repeated_selections_intersect() {
        let mut view = InstanceView::unrestricted();
        view.select_dimension_members("Store", vec![0, 1, 2]);
        view.select_dimension_members("Store", vec![1, 2, 3]);
        assert_eq!(
            view.selected_members("Store")
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn fact_row_selection() {
        let cube = small_cube();
        let mut view = InstanceView::unrestricted();
        view.select_fact_rows("Sales", vec![0, 1, 2]);
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 3);
        // Combining with a dimension restriction narrows further: rows 0..3
        // belong to stores 0 and 1 (two rows each).
        view.select_dimension_members("Store", vec![1]);
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 1);
    }

    #[test]
    fn merge_applies_intersection_semantics() {
        let cube = small_cube();
        let mut a = InstanceView::unrestricted();
        a.select_dimension_members("Store", vec![0, 1, 2]);
        let mut b = InstanceView::unrestricted();
        b.select_dimension_members("Store", vec![2, 3]);
        b.select_fact_rows("Sales", vec![4, 5]);
        a.merge(&b);
        assert_eq!(
            a.selected_members("Store")
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![2]
        );
        // Fact rows 4 and 5 belong to store 2 → both visible.
        assert_eq!(a.visible_fact_count(&cube, "Sales").unwrap(), 2);
    }

    #[test]
    fn empty_selection_hides_everything() {
        let cube = small_cube();
        let mut view = InstanceView::unrestricted();
        view.select_dimension_members("Store", Vec::<usize>::new());
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 0);
    }

    #[test]
    fn restrictions_the_fact_cannot_see_lower_to_nothing() {
        let cube = small_cube();
        let mut view = InstanceView::unrestricted();
        view.select_dimension_members("Elsewhere", vec![0]);
        view.select_fact_rows("Returns", vec![1]);
        assert!(!view.is_unrestricted());
        let lowered = view.resolve_for_fact(&cube, "Sales").unwrap();
        assert!(lowered.is_unrestricted());
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 8);
        // Members and rows no table holds are kept exactly — they select
        // nothing — without a bit allocated for them.
        view.select_dimension_members("Store", vec![1, 4, usize::MAX]);
        view.select_fact_rows("Sales", vec![2, 3, 8, usize::MAX]);
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 2);
    }

    #[test]
    fn unknown_fact_is_an_error() {
        let cube = small_cube();
        let view = InstanceView::unrestricted();
        assert!(view.allows_fact_row(&cube, "Returns", 0).is_err());
    }

    #[test]
    fn stale_selections_survive_compaction_via_the_remap_chain() {
        let mut cube = small_cube();
        // Select fact rows 2, 3 and 5 (stores 1 and 2), then retract rows
        // 0, 3 and 6 and compact: old ids 1,2,4,5,7 → new ids 0..5.
        let mut view = InstanceView::unrestricted();
        view.select_fact_rows("Sales", vec![2, 3, 5]);
        cube.retract_fact_row("Sales", 0).unwrap();
        cube.retract_fact_row("Sales", 3).unwrap();
        cube.retract_fact_row("Sales", 6).unwrap();
        let visible_before = view.visible_fact_count(&cube, "Sales").unwrap();
        assert_eq!(visible_before, 2, "rows 2 and 5 are live, 3 is dead");
        cube.compact_fact_table("Sales").unwrap();
        // The *stale* view (version 0) still resolves the same live rows
        // through the remap chain: old 2 → new 1, old 5 → new 3.
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 2);
        assert!(view.allows_fact_row(&cube, "Sales", 1).unwrap());
        assert!(view.allows_fact_row(&cube, "Sales", 3).unwrap());
        assert!(!view.allows_fact_row(&cube, "Sales", 0).unwrap());
        // Rows appended after the compaction are invisible to the closed
        // selection.
        cube.add_fact_row(
            "Sales",
            vec![("Store", 0), ("Time", 0)],
            vec![("UnitSales", CellValue::Float(9.0))],
        )
        .unwrap();
        assert!(!view.allows_fact_row(&cube, "Sales", 5).unwrap());

        // Eagerly remapping the view gives the same answers on the
        // version-aligned fast path.
        let remap = cube.fact_table("Sales").unwrap().remaps[0].clone();
        let mut remapped = view.clone();
        remapped.remap_fact_rows("Sales", &remap, 0);
        assert_eq!(remapped.fact_selection_version("Sales"), Some(1));
        assert_eq!(
            remapped
                .selected_fact_rows("Sales")
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(remapped.visible_fact_count(&cube, "Sales").unwrap(), 2);
        // Remapping at a non-matching version is a no-op.
        let mut untouched = remapped.clone();
        untouched.remap_fact_rows("Sales", &remap, 0);
        assert_eq!(untouched, remapped);

        // A second compaction chains: retract new row 1 (old 2) and
        // compact again; the original version-0 view still sees old 5.
        cube.retract_fact_row("Sales", 1).unwrap();
        cube.compact_fact_table("Sales").unwrap();
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 1);
        assert_eq!(remapped.visible_fact_count(&cube, "Sales").unwrap(), 1);
    }
}
