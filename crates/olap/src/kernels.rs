//! Grouped slice aggregation kernels.
//!
//! The morsel executor's flat dense-slot path pushes SUM/MIN/MAX/COUNT/AVG
//! down to typed slices: instead of materialising a [`crate::CellValue`]
//! per row, it gathers each measure into a null-free `(values, slots)`
//! pair and runs one of these kernels into per-slot vectors
//! ([`crate::aggregate::SlotAccumulator`]), whose slots read back as
//! [`NumericAgg`] partials the merge phase absorbs into
//! [`crate::aggregate::Accumulator`]s. An ungrouped aggregate is the
//! one-slot case.
//!
//! Numeric identities match the accumulator exactly: values are summed in
//! row order as `f64`, and min/max chain through `f64::min`/`f64::max` in
//! the same association the row-at-a-time reference uses, so on exactly
//! representable data (the property suites' dyadic rationals) the kernels
//! are bit-identical to the serial executor.

/// The partial aggregate of a set of numeric values: enough state to
/// finish SUM, AVG, MIN, MAX and COUNT.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NumericAgg {
    /// Number of non-null values observed.
    pub count: u64,
    /// Sum of the observed values.
    pub sum: f64,
    /// Minimum observed value, when any.
    pub min: Option<f64>,
    /// Maximum observed value, when any.
    pub max: Option<f64>,
}

impl NumericAgg {
    /// Feeds one value.
    #[inline]
    pub fn observe(&mut self, n: f64) {
        self.count += 1;
        self.sum += n;
        self.min = Some(self.min.map_or(n, |m| m.min(n)));
        self.max = Some(self.max.map_or(n, |m| m.max(n)));
    }

    /// Merges another partial state into this one (the identity when
    /// `other` observed nothing).
    pub fn merge(&mut self, other: &NumericAgg) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

// ----- grouped kernels ---------------------------------------------------
//
// The grouped morsel path resolves each selected fact row to a dense
// group slot (`u32`) and gathers each measure column into a compacted
// `(values, slots)` pair with nulls already dropped (the gather consults
// the validity mask per chunk; all-valid chunks stream through the bare
// value slice). The kernels below are therefore mask-free tight loops
// over parallel slices — one array index per row, no hashing, no
// `CellValue`, no branches the compiler cannot lift.
//
// Each kernel also maintains the per-slot non-null `counts`, because (a)
// every aggregation's mergeable state ([`NumericAgg`]) needs the count to
// merge correctly, and (b) MIN/MAX use `counts[slot] == 0` as the
// first-touch test so their chaining (`assign first, then fold through
// `f64::min`/`f64::max` in row order`) is exactly the row-at-a-time
// accumulator's — NaN propagation included.

/// Grouped SUM (and the sum half of AVG): `sums[slot] += value`, summing
/// in slice order so float results match the row-at-a-time reference.
pub fn sum_grouped(values: &[f64], slots: &[u32], counts: &mut [u64], sums: &mut [f64]) {
    debug_assert_eq!(values.len(), slots.len());
    for (&value, &slot) in values.iter().zip(slots) {
        let slot = slot as usize;
        counts[slot] += 1;
        sums[slot] += value;
    }
}

/// Grouped MIN: first value assigns, later values fold through
/// [`f64::min`] in slice order.
pub fn min_grouped(values: &[f64], slots: &[u32], counts: &mut [u64], mins: &mut [f64]) {
    debug_assert_eq!(values.len(), slots.len());
    for (&value, &slot) in values.iter().zip(slots) {
        let slot = slot as usize;
        mins[slot] = if counts[slot] == 0 {
            value
        } else {
            mins[slot].min(value)
        };
        counts[slot] += 1;
    }
}

/// Grouped MAX: first value assigns, later values fold through
/// [`f64::max`] in slice order.
pub fn max_grouped(values: &[f64], slots: &[u32], counts: &mut [u64], maxs: &mut [f64]) {
    debug_assert_eq!(values.len(), slots.len());
    for (&value, &slot) in values.iter().zip(slots) {
        let slot = slot as usize;
        maxs[slot] = if counts[slot] == 0 {
            value
        } else {
            maxs[slot].max(value)
        };
        counts[slot] += 1;
    }
}

/// Grouped COUNT of non-null values (the gather already dropped nulls, so
/// every slot occurrence counts).
pub fn count_grouped(slots: &[u32], counts: &mut [u64]) {
    for &slot in slots {
        counts[slot as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A partial of `values`, fed one by one.
    fn observed(values: &[f64]) -> NumericAgg {
        let mut agg = NumericAgg::default();
        for &v in values {
            agg.observe(v);
        }
        agg
    }

    #[test]
    fn grouped_kernels_agree_with_per_slot_observation() {
        let values = [1.5, -2.0, 4.0, 0.25, -7.5];
        let slots = [0u32, 1, 0, 2, 1];
        let mut counts = [0u64; 3];
        let mut sums = [0.0; 3];
        sum_grouped(&values, &slots, &mut counts, &mut sums);
        assert_eq!(counts, [2, 2, 1]);
        assert_eq!(sums, [5.5, -9.5, 0.25]);

        let mut counts = [0u64; 3];
        let mut mins = [0.0; 3];
        min_grouped(&values, &slots, &mut counts, &mut mins);
        assert_eq!(mins, [1.5, -7.5, 0.25]);

        let mut counts = [0u64; 3];
        let mut maxs = [0.0; 3];
        max_grouped(&values, &slots, &mut counts, &mut maxs);
        assert_eq!(maxs, [4.0, -2.0, 0.25]);

        let mut counts = [0u64; 3];
        count_grouped(&slots, &mut counts);
        assert_eq!(counts, [2, 2, 1]);

        // Per-slot results equal one NumericAgg per slot fed in order.
        let mut reference = [NumericAgg::default(), NumericAgg::default()];
        for (&v, &s) in values.iter().zip(&slots).filter(|(_, &s)| s < 2) {
            reference[s as usize].observe(v);
        }
        assert_eq!(reference[0].sum, 5.5);
        assert_eq!(reference[1].min, Some(-7.5));
    }

    #[test]
    fn merge_is_associative_on_partials() {
        let parts = [observed(&[1.0, 2.0]), observed(&[]), observed(&[-5.0])];
        let mut left = NumericAgg::default();
        for p in &parts {
            left.merge(p);
        }
        let whole = observed(&[1.0, 2.0, -5.0]);
        assert_eq!(left, whole);
        // Merging an empty partial is the identity.
        let before = left;
        left.merge(&NumericAgg::default());
        assert_eq!(left, before);
    }
}
