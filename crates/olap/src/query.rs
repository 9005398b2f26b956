//! OLAP queries and their results.

use crate::filter::Filter;
use crate::value::CellValue;
use sdwp_model::AggregationFunction;
use std::fmt;

/// A reference to a level attribute used as a group-by key
/// (e.g. `Store / City / name` — roll up sales to cities).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeRef {
    /// Dimension name.
    pub dimension: String,
    /// Level name within the dimension.
    pub level: String,
    /// Attribute name within the level.
    pub attribute: String,
}

impl AttributeRef {
    /// Creates an attribute reference.
    pub fn new(
        dimension: impl Into<String>,
        level: impl Into<String>,
        attribute: impl Into<String>,
    ) -> Self {
        AttributeRef {
            dimension: dimension.into(),
            level: level.into(),
            attribute: attribute.into(),
        }
    }

    /// Display label of the reference (`"Store.City.name"`).
    pub fn label(&self) -> String {
        format!("{}.{}.{}", self.dimension, self.level, self.attribute)
    }
}

/// A reference to a measure with an optional aggregation override.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureRef {
    /// Measure name.
    pub measure: String,
    /// Aggregation override; `None` uses the measure's default.
    pub aggregation: Option<AggregationFunction>,
}

impl MeasureRef {
    /// References a measure with its default aggregation.
    pub fn new(measure: impl Into<String>) -> Self {
        MeasureRef {
            measure: measure.into(),
            aggregation: None,
        }
    }

    /// References a measure with an explicit aggregation.
    pub fn with_aggregation(measure: impl Into<String>, aggregation: AggregationFunction) -> Self {
        MeasureRef {
            measure: measure.into(),
            aggregation: Some(aggregation),
        }
    }
}

/// A group-by aggregation query over one fact.
///
/// Rolling up to a coarser level is expressed by grouping on that level's
/// descriptor; slicing/dicing is expressed through `dimension_filters`
/// (attribute or spatial predicates on dimension members) and
/// `fact_filter` (predicates on measures).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The fact to aggregate.
    pub fact: String,
    /// Group-by keys.
    pub group_by: Vec<AttributeRef>,
    /// Measures to aggregate.
    pub measures: Vec<MeasureRef>,
    /// Filters on dimension members, as `(dimension, filter)` pairs.
    pub dimension_filters: Vec<(String, Filter)>,
    /// Filter on fact rows (measure columns / foreign keys).
    pub fact_filter: Option<Filter>,
    /// Optional cap on the number of result rows (after sorting).
    pub limit: Option<usize>,
}

impl Query {
    /// Starts a query over the given fact.
    pub fn over(fact: impl Into<String>) -> Self {
        Query {
            fact: fact.into(),
            group_by: Vec::new(),
            measures: Vec::new(),
            dimension_filters: Vec::new(),
            fact_filter: None,
            limit: None,
        }
    }

    /// Adds a group-by key.
    pub fn group_by(mut self, attr: AttributeRef) -> Self {
        self.group_by.push(attr);
        self
    }

    /// Adds a measure with its default aggregation.
    pub fn measure(mut self, measure: impl Into<String>) -> Self {
        self.measures.push(MeasureRef::new(measure));
        self
    }

    /// Adds a measure with an explicit aggregation.
    pub fn measure_agg(
        mut self,
        measure: impl Into<String>,
        aggregation: AggregationFunction,
    ) -> Self {
        self.measures
            .push(MeasureRef::with_aggregation(measure, aggregation));
        self
    }

    /// Adds a filter over a dimension's members (slice/dice).
    pub fn filter_dimension(mut self, dimension: impl Into<String>, filter: Filter) -> Self {
        self.dimension_filters.push((dimension.into(), filter));
        self
    }

    /// Sets the fact-row filter.
    pub fn filter_fact(mut self, filter: Filter) -> Self {
        self.fact_filter = Some(filter);
        self
    }

    /// Caps the number of result rows.
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// A canonical text form of the query, used as a result-cache key.
    ///
    /// Dimension filters are conjunctive, so their order does not affect
    /// the result; sorting them by dimension name lets two queries that
    /// differ only in filter order share a cache entry. Everything else is
    /// order-sensitive (group-by and measure order shape the result) and
    /// is kept as written.
    pub fn canonical_key(&self) -> String {
        let mut canonical = self.clone();
        canonical
            .dimension_filters
            .sort_by(|(a, _), (b, _)| a.cmp(b));
        format!("{canonical:?}")
    }
}

/// One row of a query result: group-key values plus aggregated measures.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// The group-by key values, in query order.
    pub keys: Vec<CellValue>,
    /// The aggregated measure values, in query order.
    pub values: Vec<CellValue>,
}

/// The result of executing a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Labels of the group-by keys.
    pub key_names: Vec<String>,
    /// Labels of the aggregated measures.
    pub value_names: Vec<String>,
    /// Result rows, sorted by key for determinism.
    pub rows: Vec<ResultRow>,
    /// Number of fact rows examined (after the view restriction).
    pub facts_scanned: usize,
    /// Number of fact rows that passed every filter.
    pub facts_matched: usize,
}

impl QueryResult {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Finds the row with the given key values.
    pub fn find(&self, keys: &[CellValue]) -> Option<&ResultRow> {
        self.rows.iter().find(|r| r.keys == keys)
    }

    /// Sums a measure column (by index) across all rows.
    pub fn column_total(&self, value_index: usize) -> f64 {
        self.rows
            .iter()
            .filter_map(|r| r.values.get(value_index))
            .filter_map(CellValue::as_number)
            .sum()
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let header: Vec<String> = self
            .key_names
            .iter()
            .chain(self.value_names.iter())
            .cloned()
            .collect();
        writeln!(f, "{}", header.join(" | "))?;
        writeln!(f, "{}", "-".repeat(header.join(" | ").len().max(8)))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .keys
                .iter()
                .chain(row.values.iter())
                .map(CellValue::to_string)
                .collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        write!(
            f,
            "({} rows, {} of {} facts matched)",
            self.rows.len(),
            self.facts_matched,
            self.facts_scanned
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_ref_label() {
        let a = AttributeRef::new("Store", "City", "name");
        assert_eq!(a.label(), "Store.City.name");
    }

    #[test]
    fn measure_ref_constructors() {
        let m = MeasureRef::new("UnitSales");
        assert!(m.aggregation.is_none());
        let m2 = MeasureRef::with_aggregation("UnitSales", AggregationFunction::Avg);
        assert_eq!(m2.aggregation, Some(AggregationFunction::Avg));
    }

    #[test]
    fn query_builder() {
        let q = Query::over("Sales")
            .group_by(AttributeRef::new("Store", "City", "name"))
            .measure("UnitSales")
            .measure_agg("StoreCost", AggregationFunction::Avg)
            .filter_dimension("Store", Filter::eq("City.name", "Alicante"))
            .limit(10);
        assert_eq!(q.fact, "Sales");
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.measures.len(), 2);
        assert_eq!(q.dimension_filters.len(), 1);
        assert_eq!(q.limit, Some(10));
        assert!(q.fact_filter.is_none());
    }

    #[test]
    fn canonical_key_is_order_insensitive_for_filters_only() {
        let a = Query::over("Sales")
            .measure("UnitSales")
            .filter_dimension("Store", Filter::eq("City.name", "Alicante"))
            .filter_dimension("Time", Filter::eq("Day.date", CellValue::Date(1)));
        let b = Query::over("Sales")
            .measure("UnitSales")
            .filter_dimension("Time", Filter::eq("Day.date", CellValue::Date(1)))
            .filter_dimension("Store", Filter::eq("City.name", "Alicante"));
        assert_eq!(a.canonical_key(), b.canonical_key());
        // Measure order shapes the result, so it must stay significant.
        let c = Query::over("Sales").measure("UnitSales").measure("Cost");
        let d = Query::over("Sales").measure("Cost").measure("UnitSales");
        assert_ne!(c.canonical_key(), d.canonical_key());
        assert_ne!(a.canonical_key(), c.canonical_key());
    }

    #[test]
    fn result_helpers() {
        let result = QueryResult {
            key_names: vec!["city".into()],
            value_names: vec!["sum(UnitSales)".into()],
            rows: vec![
                ResultRow {
                    keys: vec![CellValue::from("Alicante")],
                    values: vec![CellValue::Float(10.0)],
                },
                ResultRow {
                    keys: vec![CellValue::from("Madrid")],
                    values: vec![CellValue::Float(5.0)],
                },
            ],
            facts_scanned: 7,
            facts_matched: 6,
        };
        assert_eq!(result.len(), 2);
        assert!(!result.is_empty());
        assert!(result.find(&[CellValue::from("Madrid")]).is_some());
        assert!(result.find(&[CellValue::from("Valencia")]).is_none());
        assert_eq!(result.column_total(0), 15.0);
        let rendered = result.to_string();
        assert!(rendered.contains("city | sum(UnitSales)"));
        assert!(rendered.contains("Alicante"));
        assert!(rendered.contains("6 of 7 facts matched"));
    }
}
