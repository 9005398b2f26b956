//! Schema diffs: what a set of schema personalization rules changed.

use crate::schema::Schema;
use sdwp_geometry::GeometricType;
use std::fmt;

/// The delta between two schemas — typically the plain MD model and the
/// GeoMD model obtained after running schema personalization rules
/// (Fig. 2 → Fig. 6 in the paper).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchemaDiff {
    /// Layers present in the new schema but not the old one.
    pub added_layers: Vec<(String, GeometricType)>,
    /// Layers removed (unusual; kept for completeness).
    pub removed_layers: Vec<String>,
    /// Levels that became spatial, as `(dimension, level, geometry)`.
    pub levels_become_spatial: Vec<(String, String, GeometricType)>,
    /// Dimensions added to the schema.
    pub added_dimensions: Vec<String>,
    /// Facts added to the schema.
    pub added_facts: Vec<String>,
}

impl SchemaDiff {
    /// Computes the difference `after - before`.
    pub fn between(before: &Schema, after: &Schema) -> Self {
        let mut diff = SchemaDiff::default();

        for layer in &after.layers {
            if before.layer(&layer.name).is_none() {
                diff.added_layers.push((layer.name.clone(), layer.geometry));
            }
        }
        for layer in &before.layers {
            if after.layer(&layer.name).is_none() {
                diff.removed_layers.push(layer.name.clone());
            }
        }

        for dim in &after.dimensions {
            match before.dimension(&dim.name) {
                None => diff.added_dimensions.push(dim.name.clone()),
                Some(old_dim) => {
                    for level in &dim.levels {
                        let was_spatial = old_dim
                            .level(&level.name)
                            .map(|l| l.is_spatial())
                            .unwrap_or(false);
                        if level.is_spatial() && !was_spatial {
                            diff.levels_become_spatial.push((
                                dim.name.clone(),
                                level.name.clone(),
                                level.geometry.expect("spatial level has a geometry"),
                            ));
                        }
                    }
                }
            }
        }

        for fact in &after.facts {
            if before.fact(&fact.name).is_none() {
                diff.added_facts.push(fact.name.clone());
            }
        }

        diff
    }

    /// Returns `true` when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.added_layers.is_empty()
            && self.removed_layers.is_empty()
            && self.levels_become_spatial.is_empty()
            && self.added_dimensions.is_empty()
            && self.added_facts.is_empty()
    }
}

impl fmt::Display for SchemaDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(no schema changes)");
        }
        for (name, g) in &self.added_layers {
            writeln!(f, "+ AddLayer('{name}', {g})")?;
        }
        for name in &self.removed_layers {
            writeln!(f, "- RemoveLayer('{name}')")?;
        }
        for (dim, level, g) in &self.levels_become_spatial {
            writeln!(f, "~ BecomeSpatial({dim}.{level}, {g})")?;
        }
        for d in &self.added_dimensions {
            writeln!(f, "+ Dimension '{d}'")?;
        }
        for fa in &self.added_facts {
            writeln!(f, "+ Fact '{fa}'")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::AttributeType;
    use crate::builder::{DimensionBuilder, FactBuilder, SchemaBuilder};

    fn md_schema() -> Schema {
        SchemaBuilder::new("SalesDW")
            .dimension(
                DimensionBuilder::new("Store")
                    .simple_level("Store", "name")
                    .simple_level("City", "name")
                    .build(),
            )
            .fact(
                FactBuilder::new("Sales")
                    .measure("UnitSales", AttributeType::Float)
                    .dimension("Store")
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn identical_schemas_have_empty_diff() {
        let a = md_schema();
        let diff = SchemaDiff::between(&a, &a.clone());
        assert!(diff.is_empty());
        assert!(diff.to_string().contains("no schema changes"));
    }

    #[test]
    fn paper_schema_rule_diff() {
        // Example 5.1: AddLayer('Airport', POINT) + BecomeSpatial(Store, POINT).
        let before = md_schema();
        let mut after = before.clone();
        after.add_layer("Airport", GeometricType::Point).unwrap();
        after.become_spatial("Store", GeometricType::Point).unwrap();

        let diff = SchemaDiff::between(&before, &after);
        assert_eq!(
            diff.added_layers,
            vec![("Airport".to_string(), GeometricType::Point)]
        );
        assert_eq!(
            diff.levels_become_spatial,
            vec![(
                "Store".to_string(),
                "Store".to_string(),
                GeometricType::Point
            )]
        );
        let rendered = diff.to_string();
        assert!(rendered.contains("AddLayer('Airport', POINT)"));
        assert!(rendered.contains("BecomeSpatial(Store.Store, POINT)"));
    }

    #[test]
    fn removed_layers_and_added_elements() {
        let mut before = md_schema();
        before.add_layer("Highway", GeometricType::Line).unwrap();
        let mut after = md_schema();
        after.dimensions.push(
            DimensionBuilder::new("Promotion")
                .simple_level("Promotion", "name")
                .build(),
        );
        after.facts.push(
            FactBuilder::new("Inventory")
                .measure("Stock", AttributeType::Integer)
                .dimension("Store")
                .build(),
        );
        let diff = SchemaDiff::between(&before, &after);
        assert_eq!(diff.removed_layers, vec!["Highway".to_string()]);
        assert_eq!(diff.added_dimensions, vec!["Promotion".to_string()]);
        assert_eq!(diff.added_facts, vec!["Inventory".to_string()]);
    }
}
