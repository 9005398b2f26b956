//! Personalized instance views over a cube.
//!
//! [`InstanceView::resolve_for_fact`] lowers a view for one fact — every
//! name resolved, every member set a dense bitset (`MemberBits`) — and
//! `ResolvedViewCheck::select_visible` is the check that serves: given
//! a row range it yields the visible rows, by live runs and one typed FK
//! gather plus bit test per restricted dimension over the shrinking
//! selection. The executor lowers once per request and fact, at plan
//! time, and runs the selection once per morsel as *filter class zero* —
//! every filter class of the morsel starts from its survivors;
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
use crate::table::Table;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// The outcome of instance personalization: a restriction of the cube to
/// the dimension members a decision maker should see.
///
/// This is the model-side effect of the paper's `SelectInstance` action.
/// "All the succeeding analysis in any BI tool will have the sales fact
/// instances only made in selected stores" — the view restricts every
/// later query without copying any data.
///
/// An empty view is unrestricted; restrictions are added per dimension (a
/// set of allowed member row ids). A fact row passes the view when every
/// foreign key points to an allowed member. Views name members, never
/// fact rows, so a compaction's renumbering of a fact table leaves every
/// view as it was.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct InstanceView {
    dimension_selections: BTreeMap<String, BTreeSet<usize>>,
}

impl InstanceView {
    /// Creates an unrestricted view.
    pub fn unrestricted() -> Self {
        InstanceView::default()
    }

    /// Returns `true` when no restriction has been registered.
    pub fn is_unrestricted(&self) -> bool {
        self.dimension_selections.is_empty()
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

    /// The selected member set for a dimension, when restricted.
    pub fn selected_members(&self, dimension: &str) -> Option<&BTreeSet<usize>> {
        self.dimension_selections.get(dimension)
    }

    /// Every restricted dimension with its selected member set, by name.
    pub fn dimension_selections(&self) -> impl Iterator<Item = (&str, &BTreeSet<usize>)> {
        self.dimension_selections
            .iter()
            .map(|(dimension, members)| (dimension.as_str(), members))
    }

    /// Returns `true` when a fact row is visible through the view: every
    /// foreign key points to an allowed dimension member. The reference
    /// decision (see module docs).
    pub fn allows_fact_row(
        &self,
        cube: &Cube,
        fact: &str,
        fact_row: usize,
    ) -> Result<bool, OlapError> {
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
    /// scan: each view-restricted dimension the fact references becomes a
    /// bitset over the dimension table's rows with the fact table's FK
    /// column index resolved (a cube whose table lacks the column fails
    /// here, once, with the typed error). Restrictions on dimensions the
    /// fact does not reference lower to nothing. Row-for-row
    /// decision-equivalent to `allows_fact_row` against the same cube
    /// (the serial reference keeps calling that name-based method
    /// directly, so the two paths stay comparable).
    pub fn resolve_for_fact(
        &self,
        cube: &Cube,
        fact: &str,
    ) -> Result<ResolvedViewCheck, OlapError> {
        let fact_table = cube.fact_table(fact)?;
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
        Ok(ResolvedViewCheck { dimensions })
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
    /// dimension).
    pub fn merge(&mut self, other: &InstanceView) {
        for (dim, members) in &other.dimension_selections {
            self.select_dimension_members(dim.clone(), members.iter().copied());
        }
    }
}

/// A view lowered for one fact, once per request, by
/// [`InstanceView::resolve_for_fact`]: every name is resolved and every
/// member set is a bitset, so `ResolvedViewCheck::select_visible`
/// narrows a row range through typed FK gathers and bit tests alone (no
/// `fact_member` lookup and no tree walk per row).
pub struct ResolvedViewCheck {
    /// `(FK column index, allowed members)` per restricted dimension the
    /// fact references, in the fact's dimension order.
    dimensions: Vec<(usize, MemberBits)>,
}

impl ResolvedViewCheck {
    /// Whether the view leaves this fact alone: every live row is
    /// visible, so the visible count is the table's live count.
    pub(crate) fn is_unrestricted(&self) -> bool {
        self.dimensions.is_empty()
    }

    /// The rows of `rows` (clamped to the table) visible through the
    /// view, ascending, into `sel` — the resolved, whole-range form of
    /// [`InstanceView::allows_fact_row`] over the live rows.
    /// `fact_table` must be the table of the fact, in the cube, this
    /// check was built against; `members` is scratch for the FK gathers.
    ///
    /// Stages run in `allows_fact_row`'s order over a shrinking
    /// selection — liveness, then one [`MemberBits::retain_allowed`] per
    /// restricted dimension — so a row an earlier stage rejects never has
    /// a later key read. Returns the read error of the lowest row whose
    /// key could not be read, if any; `sel` then holds the visible rows
    /// *below* that row, on which the caller's own stages may yet fail
    /// lower still.
    pub(crate) fn select_visible(
        &self,
        fact_table: &Table,
        rows: Range<usize>,
        sel: &mut Vec<u32>,
        members: &mut Vec<u32>,
    ) -> Option<OlapError> {
        sel.clear();
        for run in fact_table.live_runs(rows) {
            sel.extend(run.map(|row| row as u32));
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
        assert!(view.selected_members("Store").is_none());
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 8);
    }

    #[test]
    fn dimension_selection_restricts_facts() {
        let cube = small_cube();
        let mut view = InstanceView::unrestricted();
        view.select_dimension_members("Store", vec![0, 1]);
        assert!(!view.is_unrestricted());
        let stores = view.selected_members("Store").unwrap();
        assert!(stores.contains(&0));
        assert!(!stores.contains(&2));
        assert!(view.selected_members("Time").is_none()); // unrestricted dimension
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 4);
        assert_eq!(stores.len(), 2);
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
    fn merge_applies_intersection_semantics() {
        let cube = small_cube();
        let mut a = InstanceView::unrestricted();
        a.select_dimension_members("Store", vec![0, 1, 2]);
        let mut b = InstanceView::unrestricted();
        b.select_dimension_members("Store", vec![2, 3]);
        a.merge(&b);
        assert_eq!(
            a.selected_members("Store")
                .unwrap()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![2]
        );
        // Store 2 has two fact rows (one per day) → both visible.
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
        assert!(!view.is_unrestricted());
        let lowered = view.resolve_for_fact(&cube, "Sales").unwrap();
        assert!(lowered.is_unrestricted());
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 8);
        // Members no table holds are kept exactly — they select nothing —
        // without a bit allocated for them.
        view.select_dimension_members("Store", vec![1, 4, usize::MAX]);
        assert_eq!(view.visible_fact_count(&cube, "Sales").unwrap(), 2);
    }

    #[test]
    fn unknown_fact_is_an_error() {
        let cube = small_cube();
        let view = InstanceView::unrestricted();
        assert!(view.allows_fact_row(&cube, "Returns", 0).is_err());
    }
}
