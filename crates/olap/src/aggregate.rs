//! Measure accumulators for group-by aggregation.
//!
//! Accumulators carry *mergeable* partial state rather than finished
//! values: AVG keeps `(sum, count)` and COUNT DISTINCT keeps the value
//! set, so per-morsel partial aggregates can be combined with
//! [`Accumulator::merge`] by the parallel executor and only finalised
//! once at the end.

use crate::kernels::{self, NumericAgg};
use crate::value::CellValue;
use sdwp_model::AggregationFunction;
use std::collections::HashSet;

/// Slot-backed accumulator state for one measure across the dense group
/// slots of one morsel — the flat-vector counterpart of a
/// `HashMap<group, Accumulator>`.
///
/// The grouped morsel executor resolves group keys to dense slot ids and
/// feeds each measure's gathered `(values, slots)` pair through the
/// grouped kernels of [`crate::kernels`] into these per-slot vectors; a
/// slot's state reads back as the same [`NumericAgg`] the row-at-a-time
/// accumulator would have built, so per-morsel partials merge through the
/// ordinary [`Accumulator::absorb`]/[`Accumulator::merge`] machinery.
/// An ungrouped aggregate is the one-slot case.
///
/// Only the vectors the aggregation function actually needs are
/// allocated (counts always — every mergeable state needs them — plus
/// sums for SUM/AVG, mins for MIN, maxs for MAX). COUNT DISTINCT needs
/// full values and never takes the flat path.
#[derive(Debug, Clone)]
pub struct SlotAccumulator {
    function: AggregationFunction,
    counts: Vec<u64>,
    sums: Vec<f64>,
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl SlotAccumulator {
    /// Creates the per-slot state for `slots` dense group ids.
    ///
    /// # Panics
    /// COUNT DISTINCT has no numeric slot representation.
    pub fn new(function: AggregationFunction, slots: usize) -> Self {
        assert_ne!(
            function,
            AggregationFunction::CountDistinct,
            "COUNT DISTINCT cannot take the flat slot path"
        );
        let need_sums = matches!(
            function,
            AggregationFunction::Sum | AggregationFunction::Avg
        );
        SlotAccumulator {
            function,
            counts: vec![0; slots],
            sums: vec![0.0; if need_sums { slots } else { 0 }],
            mins: vec![
                0.0;
                if function == AggregationFunction::Min {
                    slots
                } else {
                    0
                }
            ],
            maxs: vec![
                0.0;
                if function == AggregationFunction::Max {
                    slots
                } else {
                    0
                }
            ],
        }
    }

    /// The aggregation function this state implements.
    pub fn function(&self) -> AggregationFunction {
        self.function
    }

    /// Feeds a gathered `(values, slots)` pair (nulls already dropped,
    /// slices parallel) through the function's grouped kernel.
    pub fn accumulate(&mut self, values: &[f64], slots: &[u32]) {
        match self.function {
            AggregationFunction::Sum | AggregationFunction::Avg => {
                kernels::sum_grouped(values, slots, &mut self.counts, &mut self.sums)
            }
            AggregationFunction::Min => {
                kernels::min_grouped(values, slots, &mut self.counts, &mut self.mins)
            }
            AggregationFunction::Max => {
                kernels::max_grouped(values, slots, &mut self.counts, &mut self.maxs)
            }
            AggregationFunction::Count => kernels::count_grouped(slots, &mut self.counts),
            AggregationFunction::CountDistinct => {
                unreachable!("COUNT DISTINCT never takes the flat slot path")
            }
        }
    }

    /// Reads one slot's partial state as a [`NumericAgg`] and resets the
    /// slot, so the vectors can be reused for the next morsel without an
    /// O(cardinality) clear.
    pub fn take_slot(&mut self, slot: usize) -> NumericAgg {
        let count = std::mem::take(&mut self.counts[slot]);
        let sum = self
            .sums
            .get_mut(slot)
            .map(std::mem::take)
            .unwrap_or_default();
        let min = (count > 0 && !self.mins.is_empty()).then(|| self.mins[slot]);
        let max = (count > 0 && !self.maxs.is_empty()).then(|| self.maxs[slot]);
        NumericAgg {
            count,
            sum,
            min,
            max,
        }
    }
}

/// An incremental accumulator for one measure within one group.
///
/// The numeric state (count / sum / min / max) *is* a
/// [`NumericAgg`] — the same type a [`SlotAccumulator`] slot reads back
/// as — so the per-row path, the typed hashed path and the flat slot
/// path share one implementation of every numeric identity by
/// construction.
#[derive(Debug, Clone)]
pub struct Accumulator {
    function: AggregationFunction,
    numeric: NumericAgg,
    distinct: HashSet<String>,
}

impl Accumulator {
    /// Creates an accumulator for the given aggregation function.
    pub fn new(function: AggregationFunction) -> Self {
        Accumulator {
            function,
            numeric: NumericAgg::default(),
            distinct: HashSet::new(),
        }
    }

    /// The aggregation function this accumulator implements.
    pub fn function(&self) -> AggregationFunction {
        self.function
    }

    /// Feeds one value into the accumulator. Null values are ignored except
    /// by COUNT DISTINCT (which ignores them too) — COUNT counts non-null
    /// values, matching SQL semantics.
    pub fn update(&mut self, value: &CellValue) {
        if value.is_null() {
            return;
        }
        match value.as_number() {
            Some(n) => self.numeric.observe(n),
            // Non-numeric non-null values still count (COUNT over a text
            // column) but contribute no sum/min/max.
            None => self.numeric.count += 1,
        }
        if self.function == AggregationFunction::CountDistinct {
            self.distinct.insert(value.group_key());
        }
    }

    /// Feeds one non-null numeric value — the typed fast path the morsel
    /// executor uses for numeric measure columns, equivalent to
    /// [`Accumulator::update`] with a numeric [`CellValue`] but without
    /// materialising one. Not valid for COUNT DISTINCT (which needs the
    /// value's group key); callers route those through `update`.
    #[inline]
    pub fn update_number(&mut self, n: f64) {
        debug_assert_ne!(
            self.function,
            AggregationFunction::CountDistinct,
            "COUNT DISTINCT needs the full value, not the numeric fast path"
        );
        self.numeric.observe(n);
    }

    /// Absorbs a numeric partial state ([`NumericAgg`]) — how the merge
    /// phase turns a flat slot's merged total back into an accumulator.
    /// Equivalent to feeding the partial's input values through
    /// [`Accumulator::update_number`] one by one; absorbing an empty
    /// partial is the identity.
    pub fn absorb(&mut self, partial: &NumericAgg) {
        debug_assert_ne!(
            self.function,
            AggregationFunction::CountDistinct,
            "COUNT DISTINCT cannot absorb numeric partials"
        );
        self.numeric.merge(partial);
    }

    /// Merges another accumulator's partial state into this one.
    ///
    /// Both accumulators must implement the same aggregation function.
    /// Merging the states of two disjoint row chunks is equivalent to
    /// feeding both chunks sequentially through [`Accumulator::update`]
    /// (the property the parallel executor's equivalence suite proves),
    /// and merging an empty accumulator is the identity.
    pub fn merge(&mut self, other: &Accumulator) {
        debug_assert_eq!(
            self.function, other.function,
            "merging accumulators of different aggregation functions"
        );
        self.numeric.merge(&other.numeric);
        if self.function == AggregationFunction::CountDistinct {
            self.distinct.extend(other.distinct.iter().cloned());
        }
    }

    /// Finalises the accumulator into a cell value.
    pub fn finish(&self) -> CellValue {
        let NumericAgg {
            count,
            sum,
            min,
            max,
        } = self.numeric;
        match self.function {
            AggregationFunction::Sum => CellValue::Float(sum),
            AggregationFunction::Avg => {
                if count == 0 {
                    CellValue::Null
                } else {
                    CellValue::Float(sum / count as f64)
                }
            }
            AggregationFunction::Min => min.map(CellValue::Float).unwrap_or(CellValue::Null),
            AggregationFunction::Max => max.map(CellValue::Float).unwrap_or(CellValue::Null),
            AggregationFunction::Count => CellValue::Integer(count as i64),
            AggregationFunction::CountDistinct => CellValue::Integer(self.distinct.len() as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(function: AggregationFunction, values: &[CellValue]) -> CellValue {
        let mut acc = Accumulator::new(function);
        for v in values {
            acc.update(v);
        }
        acc.finish()
    }

    #[test]
    fn sum_and_avg() {
        let values = vec![
            CellValue::Float(1.0),
            CellValue::Integer(2),
            CellValue::Null,
            CellValue::Float(3.0),
        ];
        assert_eq!(
            feed(AggregationFunction::Sum, &values),
            CellValue::Float(6.0)
        );
        assert_eq!(
            feed(AggregationFunction::Avg, &values),
            CellValue::Float(2.0)
        );
    }

    #[test]
    fn min_max_count() {
        let values = vec![
            CellValue::Float(5.0),
            CellValue::Float(-1.0),
            CellValue::Float(3.0),
        ];
        assert_eq!(
            feed(AggregationFunction::Min, &values),
            CellValue::Float(-1.0)
        );
        assert_eq!(
            feed(AggregationFunction::Max, &values),
            CellValue::Float(5.0)
        );
        assert_eq!(
            feed(AggregationFunction::Count, &values),
            CellValue::Integer(3)
        );
    }

    #[test]
    fn count_distinct() {
        let values = vec![
            CellValue::Text("a".into()),
            CellValue::Text("b".into()),
            CellValue::Text("a".into()),
            CellValue::Null,
        ];
        assert_eq!(
            feed(AggregationFunction::CountDistinct, &values),
            CellValue::Integer(2)
        );
        // COUNT counts non-null occurrences, not distinct values.
        assert_eq!(
            feed(AggregationFunction::Count, &values),
            CellValue::Integer(3)
        );
    }

    #[test]
    fn empty_input_semantics() {
        assert_eq!(feed(AggregationFunction::Sum, &[]), CellValue::Float(0.0));
        assert_eq!(feed(AggregationFunction::Avg, &[]), CellValue::Null);
        assert_eq!(feed(AggregationFunction::Min, &[]), CellValue::Null);
        assert_eq!(feed(AggregationFunction::Max, &[]), CellValue::Null);
        assert_eq!(feed(AggregationFunction::Count, &[]), CellValue::Integer(0));
        assert_eq!(
            feed(AggregationFunction::CountDistinct, &[]),
            CellValue::Integer(0)
        );
    }

    #[test]
    fn function_accessor() {
        let acc = Accumulator::new(AggregationFunction::Max);
        assert_eq!(acc.function(), AggregationFunction::Max);
    }

    /// Splits `values` at `at`, accumulates both halves separately and
    /// merges them.
    fn feed_split(function: AggregationFunction, values: &[CellValue], at: usize) -> CellValue {
        let (left, right) = values.split_at(at);
        let mut a = Accumulator::new(function);
        for v in left {
            a.update(v);
        }
        let mut b = Accumulator::new(function);
        for v in right {
            b.update(v);
        }
        a.merge(&b);
        a.finish()
    }

    #[test]
    fn merge_agrees_with_sequential_update() {
        let values = vec![
            CellValue::Float(1.5),
            CellValue::Integer(2),
            CellValue::Null,
            CellValue::Text("a".into()),
            CellValue::Text("a".into()),
            CellValue::Float(-3.0),
        ];
        for function in [
            AggregationFunction::Sum,
            AggregationFunction::Avg,
            AggregationFunction::Min,
            AggregationFunction::Max,
            AggregationFunction::Count,
            AggregationFunction::CountDistinct,
        ] {
            let sequential = feed(function, &values);
            for at in 0..=values.len() {
                assert_eq!(
                    feed_split(function, &values, at),
                    sequential,
                    "{function:?} split at {at}"
                );
            }
        }
    }

    #[test]
    fn numeric_fast_path_agrees_with_update() {
        let values = [1.5, -3.0, 0.25, 7.0];
        for function in [
            AggregationFunction::Sum,
            AggregationFunction::Avg,
            AggregationFunction::Min,
            AggregationFunction::Max,
            AggregationFunction::Count,
        ] {
            let mut reference = Accumulator::new(function);
            let mut typed = Accumulator::new(function);
            let mut absorbing = Accumulator::new(function);
            let mut partial = NumericAgg::default();
            for v in values {
                reference.update(&CellValue::Float(v));
                typed.update_number(v);
                partial.observe(v);
            }
            absorbing.absorb(&partial);
            assert_eq!(typed.finish(), reference.finish(), "{function:?} typed");
            assert_eq!(
                absorbing.finish(),
                reference.finish(),
                "{function:?} absorb"
            );
            // Absorbing an empty partial is the identity.
            let before = absorbing.finish();
            absorbing.absorb(&NumericAgg::default());
            assert_eq!(absorbing.finish(), before);
        }
    }

    #[test]
    fn slot_accumulator_agrees_with_per_group_accumulators() {
        let values = [1.5, -3.0, 0.25, 7.0, 2.0];
        let slots = [0u32, 1, 0, 2, 1];
        for function in [
            AggregationFunction::Sum,
            AggregationFunction::Avg,
            AggregationFunction::Min,
            AggregationFunction::Max,
            AggregationFunction::Count,
        ] {
            let mut flat = SlotAccumulator::new(function, 3);
            assert_eq!(flat.function(), function);
            flat.accumulate(&values, &slots);
            for slot in 0..3usize {
                let mut reference = Accumulator::new(function);
                for (&v, &s) in values.iter().zip(&slots) {
                    if s as usize == slot {
                        reference.update_number(v);
                    }
                }
                let mut absorbed = Accumulator::new(function);
                absorbed.absorb(&flat.take_slot(slot));
                assert_eq!(
                    absorbed.finish(),
                    reference.finish(),
                    "{function:?} slot {slot}"
                );
            }
            // take_slot reset every slot: a second read is empty.
            assert_eq!(flat.take_slot(0), NumericAgg::default());
        }
    }

    #[test]
    fn merging_empty_accumulators_is_the_identity() {
        for function in [
            AggregationFunction::Sum,
            AggregationFunction::Avg,
            AggregationFunction::Min,
            AggregationFunction::Max,
            AggregationFunction::Count,
            AggregationFunction::CountDistinct,
        ] {
            let mut acc = Accumulator::new(function);
            acc.update(&CellValue::Float(4.0));
            acc.update(&CellValue::Text("x".into()));
            let before = acc.finish();
            acc.merge(&Accumulator::new(function));
            assert_eq!(acc.finish(), before, "{function:?} right identity");
            let mut fresh = Accumulator::new(function);
            fresh.merge(&acc);
            assert_eq!(fresh.finish(), before, "{function:?} left identity");
        }
    }
}
