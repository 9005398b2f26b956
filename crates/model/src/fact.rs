//! Facts («Fact» classes) and their measures.

use crate::attribute::Measure;
use crate::stereotype::Stereotype;

/// A fact — the subject of analysis, holding measures and references to the
/// dimensions that give them context (the «Fact» class of the profile).
#[derive(Debug, Clone, PartialEq)]
pub struct Fact {
    /// Fact name (unique within the schema), e.g. `"Sales"`.
    pub name: String,
    /// The measures («FactAttribute»s) of the fact.
    pub measures: Vec<Measure>,
    /// Names of the dimensions this fact is analysed by.
    pub dimensions: Vec<String>,
}

impl Fact {
    /// Creates a fact from its measures and dimension references.
    pub fn new(name: impl Into<String>, measures: Vec<Measure>, dimensions: Vec<String>) -> Self {
        Fact {
            name: name.into(),
            measures,
            dimensions,
        }
    }

    /// Looks up a measure by name.
    pub fn measure(&self, name: &str) -> Option<&Measure> {
        self.measures.iter().find(|m| m.name == name)
    }

    /// Returns `true` when the fact is analysed by the named dimension.
    pub fn references_dimension(&self, dimension: &str) -> bool {
        self.dimensions.iter().any(|d| d == dimension)
    }

    /// The UML-profile stereotype of the fact.
    pub fn stereotype(&self) -> Stereotype {
        Stereotype::Fact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{AggregationFunction, AttributeType};

    fn sales() -> Fact {
        Fact::new(
            "Sales",
            vec![
                Measure::new("UnitSales", AttributeType::Float),
                Measure::with_aggregation(
                    "StoreCost",
                    AttributeType::Float,
                    AggregationFunction::Avg,
                ),
            ],
            vec![
                "Store".into(),
                "Customer".into(),
                "Product".into(),
                "Time".into(),
            ],
        )
    }

    #[test]
    fn measure_lookup() {
        let f = sales();
        assert!(f.measure("UnitSales").is_some());
        assert!(f.measure("Revenue").is_none());
        assert_eq!(f.measures.len(), 2);
    }

    #[test]
    fn dimension_references() {
        let f = sales();
        assert!(f.references_dimension("Store"));
        assert!(f.references_dimension("Time"));
        assert!(!f.references_dimension("Warehouse"));
    }

    #[test]
    fn stereotype() {
        assert_eq!(sales().stereotype(), Stereotype::Fact);
    }
}
