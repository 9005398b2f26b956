//! The schema: facts, dimensions and layers bundled together.

use crate::dimension::{Dimension, Level};
use crate::error::ModelError;
use crate::fact::Fact;
use crate::geo::Layer;
use sdwp_geometry::GeometricType;

/// A complete multidimensional schema.
///
/// With no spatial annotations this is a plain MD model (the paper's
/// Fig. 2); once levels have been made spatial and layers added it is a
/// GeoMD model (Fig. 6). The two personalization actions that change the
/// schema — `BecomeSpatial` and `AddLayer` — are exposed as methods here so
/// the rule engine has a single mutation surface.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Schema name, e.g. `"SalesDW"`.
    pub name: String,
    /// The facts of the schema.
    pub facts: Vec<Fact>,
    /// The dimensions of the schema.
    pub dimensions: Vec<Dimension>,
    /// The external geographic layers of the schema (GeoMD extension).
    pub layers: Vec<Layer>,
}

impl Schema {
    /// Creates an empty schema with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Schema {
            name: name.into(),
            facts: Vec::new(),
            dimensions: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Looks up a fact by name.
    pub fn fact(&self, name: &str) -> Option<&Fact> {
        self.facts.iter().find(|f| f.name == name)
    }

    /// Looks up a dimension by name.
    pub fn dimension(&self, name: &str) -> Option<&Dimension> {
        self.dimensions.iter().find(|d| d.name == name)
    }

    /// Looks up a layer by name.
    pub fn layer(&self, name: &str) -> Option<&Layer> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Finds a level by name in any dimension, returning the dimension name
    /// and the level.
    pub fn find_level(&self, level_name: &str) -> Option<(&str, &Level)> {
        for dim in &self.dimensions {
            if let Some(level) = dim.level(level_name) {
                return Some((dim.name.as_str(), level));
            }
        }
        None
    }

    /// Returns `true` when any level is spatial or any layer is present —
    /// i.e. the schema is a GeoMD model rather than a plain MD model.
    pub fn is_geographic(&self) -> bool {
        !self.layers.is_empty() || self.dimensions.iter().any(Dimension::has_spatial_level)
    }

    /// Applies the paper's `AddLayer(name, geometricType)` action: adds a
    /// new thematic layer. Adding a layer that already exists with the same
    /// geometry is a no-op; adding one with a different geometry is an
    /// error.
    pub fn add_layer(
        &mut self,
        name: impl Into<String>,
        geometry: GeometricType,
    ) -> Result<&Layer, ModelError> {
        let name = name.into();
        if let Some(pos) = self.layers.iter().position(|l| l.name == name) {
            if self.layers[pos].geometry == geometry {
                return Ok(&self.layers[pos]);
            }
            return Err(ModelError::DuplicateName {
                kind: "layer",
                name,
            });
        }
        self.layers.push(Layer::new(name, geometry));
        Ok(self.layers.last().expect("just pushed"))
    }

    /// Applies the paper's `BecomeSpatial(element, geometricType)` action:
    /// attaches a geometric description to the named level (in any
    /// dimension), turning it into a «SpatialLevel».
    pub fn become_spatial(
        &mut self,
        level_name: &str,
        geometry: GeometricType,
    ) -> Result<(), ModelError> {
        for dim in &mut self.dimensions {
            if let Some(level) = dim.level_mut(level_name) {
                level.become_spatial(geometry);
                return Ok(());
            }
        }
        Err(ModelError::UnknownElement {
            kind: "level",
            name: level_name.to_string(),
        })
    }

    /// Names of every spatial level, prefixed by their dimension
    /// (`"Store.Store"`, `"Store.City"`, …).
    pub fn spatial_levels(&self) -> Vec<String> {
        let mut out = Vec::new();
        for dim in &self.dimensions {
            for level in &dim.levels {
                if level.is_spatial() {
                    out.push(format!("{}.{}", dim.name, level.name));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{Attribute, AttributeType, Measure};

    fn sample_schema() -> Schema {
        let mut schema = Schema::new("SalesDW");
        schema.dimensions.push(Dimension::new(
            "Store",
            vec![
                Level::new(
                    "Store",
                    vec![Attribute::descriptor("name", AttributeType::Text)],
                ),
                Level::with_descriptor("City", "name"),
            ],
        ));
        schema.dimensions.push(Dimension::new(
            "Time",
            vec![Level::with_descriptor("Day", "date")],
        ));
        schema.facts.push(Fact::new(
            "Sales",
            vec![Measure::new("UnitSales", AttributeType::Float)],
            vec!["Store".into(), "Time".into()],
        ));
        schema
    }

    #[test]
    fn lookups() {
        let s = sample_schema();
        assert!(s.fact("Sales").is_some());
        assert!(s.fact("Returns").is_none());
        assert!(s.dimension("Store").is_some());
        assert!(s.dimension("Customer").is_none());
        assert!(s.layer("Airport").is_none());
        let (dim, level) = s.find_level("City").unwrap();
        assert_eq!(dim, "Store");
        assert_eq!(level.name, "City");
        assert!(s.find_level("Country").is_none());
    }

    #[test]
    fn md_schema_is_not_geographic() {
        assert!(!sample_schema().is_geographic());
    }

    #[test]
    fn add_layer_behaviour() {
        let mut s = sample_schema();
        s.add_layer("Airport", GeometricType::Point).unwrap();
        assert!(s.is_geographic());
        assert_eq!(s.layer("Airport").unwrap().geometry, GeometricType::Point);
        // Idempotent when the geometry matches.
        s.add_layer("Airport", GeometricType::Point).unwrap();
        assert_eq!(s.layers.len(), 1);
        // Conflicting geometry is rejected.
        let err = s.add_layer("Airport", GeometricType::Polygon).unwrap_err();
        assert!(matches!(err, ModelError::DuplicateName { .. }));
    }

    #[test]
    fn become_spatial_behaviour() {
        let mut s = sample_schema();
        s.become_spatial("Store", GeometricType::Point).unwrap();
        assert!(s.is_geographic());
        assert_eq!(s.spatial_levels(), vec!["Store.Store".to_string()]);
        let err = s
            .become_spatial("Warehouse", GeometricType::Point)
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownElement { .. }));
    }
}
