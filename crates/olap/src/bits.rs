//! Dense member-id bitsets: what a member set — a view's dimension
//! selection, the rows a dimension filter matches — is lowered to at
//! plan time, so a scan tests membership with a shift and a mask instead
//! of a tree walk.

use crate::column::Column;
use crate::error::OlapError;

/// A set of member ids lowered for probing: one bit per id of a dense
/// *domain* `0..domain` (the row count of the table the ids index), plus
/// a sorted overflow list for ids at or beyond it. [`crate::InstanceView`]
/// accepts any `usize` as a member id, but nothing a rule effect or a
/// filter produces lies outside the table — so the overflow list is
/// empty in practice, is probed only by an out-of-range id, and a set
/// naming member 10¹⁸ allocates one list entry, not 10¹⁸ bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MemberBits {
    words: Vec<u64>,
    domain: usize,
    overflow: Vec<usize>,
}

impl MemberBits {
    /// Lowers `members` (any order, duplicates allowed) over the dense
    /// domain `0..domain`.
    pub(crate) fn from_members(domain: usize, members: impl IntoIterator<Item = usize>) -> Self {
        let mut bits = MemberBits {
            words: vec![0; domain.div_ceil(64)],
            domain,
            overflow: Vec::new(),
        };
        for member in members {
            if member < domain {
                bits.words[member / 64] |= 1 << (member % 64);
            } else {
                bits.overflow.push(member);
            }
        }
        bits.overflow.sort_unstable();
        bits.overflow.dedup();
        bits
    }

    /// Whether `member` is in the set.
    #[inline]
    pub(crate) fn contains(&self, member: usize) -> bool {
        if member < self.domain {
            self.words[member / 64] >> (member % 64) & 1 == 1
        } else {
            self.overflow.binary_search(&member).is_ok()
        }
    }

    /// Narrows the set to the members `other` (lowered over the same
    /// domain) also holds.
    pub(crate) fn intersect(&mut self, other: &MemberBits) {
        debug_assert_eq!(self.domain, other.domain);
        for (word, mask) in self.words.iter_mut().zip(&other.words) {
            *word &= mask;
        }
        self.overflow.retain(|&member| other.contains(member));
    }

    /// One selection stage of a morsel: narrows `sel` (ascending fact
    /// rows) to the rows whose foreign key in `fk` points into the set —
    /// one typed [`Column::gather_members`] over the selection, then a
    /// bit test per gathered id. `members` is the gather's scratch.
    ///
    /// A row whose key cannot be read cuts the selection off: the rows
    /// below it are narrowed as usual, it and everything above it are
    /// dropped, and its read error is returned. Stages run in the serial
    /// reference's per-row order over a shrinking selection, so a later
    /// stage can only fail on a *lower* row — the last error a morsel's
    /// stages return is the one the reference reports.
    ///
    /// Gathered ids are clamped to `u32::MAX` (see `gather_members`),
    /// which no domain reaches and which only matters to a set holding
    /// ids of 2³² and up.
    pub(crate) fn retain_allowed(
        &self,
        fk: &Column,
        sel: &mut Vec<u32>,
        members: &mut Vec<u32>,
    ) -> Option<OlapError> {
        members.clear();
        let error = fk.gather_members(sel, members).err();
        sel.truncate(members.len());
        let mut gathered = members.iter();
        sel.retain(|_| {
            gathered
                .next()
                .is_some_and(|&member| self.contains(member as usize))
        });
        error
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnType;
    use crate::value::CellValue;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Member ids around every boundary the lowering has: inside a small
    /// domain, just past it, the gather clamp, and far beyond.
    fn member_id() -> impl Strategy<Value = usize> {
        prop_oneof![
            0usize..200,
            (u32::MAX as usize - 2)..=(u32::MAX as usize + 2),
            any::<usize>(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `MemberBits` is a `BTreeSet` for membership, whatever the
        /// domain: ids below it, ids at or beyond it, the clamp value
        /// and the empty set.
        #[test]
        fn membership_equals_the_tree_set(
            domain in 0usize..200,
            members in prop::collection::vec(member_id(), 0..40),
            probes in prop::collection::vec(member_id(), 0..40),
        ) {
            let set: BTreeSet<usize> = members.iter().copied().collect();
            let bits = MemberBits::from_members(domain, members.iter().copied());
            let boundary = [0, domain.saturating_sub(1), domain, domain + 1, u32::MAX as usize];
            for probe in probes.iter().chain(&members).chain(&boundary) {
                prop_assert_eq!(bits.contains(*probe), set.contains(probe), "probe {}", probe);
            }
        }

        /// Intersection over a shared domain is set intersection.
        #[test]
        fn intersection_equals_the_tree_sets(
            domain in 0usize..200,
            left in prop::collection::vec(member_id(), 0..40),
            right in prop::collection::vec(member_id(), 0..40),
        ) {
            let (a, b): (BTreeSet<usize>, BTreeSet<usize>) =
                (left.iter().copied().collect(), right.iter().copied().collect());
            let mut bits = MemberBits::from_members(domain, left.iter().copied());
            bits.intersect(&MemberBits::from_members(domain, right.iter().copied()));
            let expected: BTreeSet<usize> = a.intersection(&b).copied().collect();
            prop_assert_eq!(bits, MemberBits::from_members(domain, expected));
        }
    }

    fn fk_column(keys: &[Option<i64>]) -> Column {
        let mut column = Column::with_chunk_rows(ColumnType::Integer, 3);
        for key in keys {
            column
                .push(key.map_or(CellValue::Null, CellValue::Integer))
                .unwrap();
        }
        column
    }

    #[test]
    fn retain_allowed_keeps_rows_pointing_into_the_set() {
        let fk = fk_column(&[Some(0), Some(5), Some(2), Some(9), Some(2), Some(7)]);
        let bits = MemberBits::from_members(6, [2, 5, 9]);
        let mut sel = vec![0u32, 1, 2, 3, 5];
        assert!(bits
            .retain_allowed(&fk, &mut sel, &mut Vec::new())
            .is_none());
        // Row 3's key 9 lies beyond the domain and is found in overflow;
        // row 5's key 7 lies beyond it and is not.
        assert_eq!(sel, vec![1, 2, 3]);
    }

    #[test]
    fn an_unreadable_key_cuts_the_selection_at_its_row() {
        let fk = fk_column(&[Some(1), Some(0), Some(1), None, Some(1), None]);
        let bits = MemberBits::from_members(2, [1]);
        let mut sel = vec![0u32, 1, 2, 3, 4, 5];
        let error = bits
            .retain_allowed(&fk, &mut sel, &mut Vec::new())
            .expect("row 3 has no key");
        assert!(error.to_string().contains("integer foreign key"));
        assert_eq!(sel, vec![0, 2], "rows below the null, narrowed as usual");
        // A null the selection never reaches is never read.
        let mut sel = vec![0u32, 1, 2];
        assert!(bits
            .retain_allowed(&fk, &mut sel, &mut Vec::new())
            .is_none());
        assert_eq!(sel, vec![0, 2]);
    }
}
