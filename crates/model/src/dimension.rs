//! Dimensions and hierarchy levels («Dimension» and «Base» classes).

use crate::attribute::{Attribute, AttributeType};
use crate::error::ModelError;
use crate::stereotype::Stereotype;
use sdwp_geometry::GeometricType;

/// One level of a dimension hierarchy — a «Base» class in the paper's UML
/// profile, or a «SpatialLevel» once a geometry has been attached by the
/// `BecomeSpatial` personalization action.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    /// Level name (unique within its dimension), e.g. `"Store"`, `"City"`.
    pub name: String,
    /// Descriptive attributes of the level.
    pub attributes: Vec<Attribute>,
    /// Geometric description, if the level is spatial (GeoMD extension).
    pub geometry: Option<GeometricType>,
}

impl Level {
    /// Creates a level with the given attributes and no geometry.
    pub fn new(name: impl Into<String>, attributes: Vec<Attribute>) -> Self {
        Level {
            name: name.into(),
            attributes,
            geometry: None,
        }
    }

    /// Creates a level with a single text descriptor named `name`.
    pub fn with_descriptor(name: impl Into<String>, descriptor: impl Into<String>) -> Self {
        Level::new(
            name,
            vec![Attribute::descriptor(descriptor, AttributeType::Text)],
        )
    }

    /// The level's identifying descriptor attribute, when declared.
    pub fn descriptor(&self) -> Option<&Attribute> {
        self.attributes.iter().find(|a| a.is_descriptor)
    }

    /// Looks up an attribute by name.
    pub fn attribute(&self, name: &str) -> Option<&Attribute> {
        self.attributes.iter().find(|a| a.name == name)
    }

    /// Returns `true` when the level carries a geometric description.
    pub fn is_spatial(&self) -> bool {
        self.geometry.is_some()
    }

    /// Attaches a geometric description, turning the «Base» level into a
    /// «SpatialLevel». This is the model-side effect of the paper's
    /// `BecomeSpatial(element, geometricType)` action.
    pub fn become_spatial(&mut self, geometry: GeometricType) {
        self.geometry = Some(geometry);
    }

    /// The UML-profile stereotype of the level.
    pub fn stereotype(&self) -> Stereotype {
        if self.is_spatial() {
            Stereotype::SpatialLevel
        } else {
            Stereotype::Base
        }
    }
}

/// A dimension («Dimension» class) with an ordered hierarchy of levels.
///
/// Levels are ordered from the finest grain (index 0, the level the fact
/// references — e.g. `Store`) to the coarsest (e.g. `State`): each level
/// rolls up (`r` role) to the next one and drills down (`d` role) to the
/// previous one.
#[derive(Debug, Clone, PartialEq)]
pub struct Dimension {
    /// Dimension name (unique within the schema), e.g. `"Store"`.
    pub name: String,
    /// Hierarchy levels, finest first.
    pub levels: Vec<Level>,
}

impl Dimension {
    /// Creates a dimension from its hierarchy levels (finest first).
    pub fn new(name: impl Into<String>, levels: Vec<Level>) -> Self {
        Dimension {
            name: name.into(),
            levels,
        }
    }

    /// The finest-grain level (the one fact rows reference).
    pub fn leaf_level(&self) -> Option<&Level> {
        self.levels.first()
    }

    /// Looks up a level by name.
    pub fn level(&self, name: &str) -> Option<&Level> {
        self.levels.iter().find(|l| l.name == name)
    }

    /// Mutable lookup of a level by name.
    pub fn level_mut(&mut self, name: &str) -> Option<&mut Level> {
        self.levels.iter_mut().find(|l| l.name == name)
    }

    /// Index of a level within the hierarchy, if present.
    pub fn level_index(&self, name: &str) -> Option<usize> {
        self.levels.iter().position(|l| l.name == name)
    }

    /// The level one step coarser than `name` (the roll-up / `r` role
    /// target), or an error if the level is unknown.
    pub fn roll_up_target(&self, name: &str) -> Result<Option<&Level>, ModelError> {
        let idx = self
            .level_index(name)
            .ok_or_else(|| ModelError::UnknownElement {
                kind: "level",
                name: name.to_string(),
            })?;
        Ok(self.levels.get(idx + 1))
    }

    /// The level one step finer than `name` (the drill-down / `d` role
    /// target), or an error if the level is unknown.
    pub fn drill_down_target(&self, name: &str) -> Result<Option<&Level>, ModelError> {
        let idx = self
            .level_index(name)
            .ok_or_else(|| ModelError::UnknownElement {
                kind: "level",
                name: name.to_string(),
            })?;
        Ok(if idx == 0 {
            None
        } else {
            self.levels.get(idx - 1)
        })
    }

    /// The full aggregation path from the finest to the coarsest level, as
    /// level names.
    pub fn aggregation_path(&self) -> Vec<&str> {
        self.levels.iter().map(|l| l.name.as_str()).collect()
    }

    /// Returns `true` when any level of the dimension is spatial.
    pub fn has_spatial_level(&self) -> bool {
        self.levels.iter().any(Level::is_spatial)
    }

    /// The UML-profile stereotype of the dimension.
    pub fn stereotype(&self) -> Stereotype {
        Stereotype::Dimension
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_dimension() -> Dimension {
        Dimension::new(
            "Store",
            vec![
                Level::new(
                    "Store",
                    vec![
                        Attribute::descriptor("name", AttributeType::Text),
                        Attribute::new("address", AttributeType::Text),
                    ],
                ),
                Level::with_descriptor("City", "name"),
                Level::with_descriptor("State", "name"),
            ],
        )
    }

    #[test]
    fn level_lookup_and_descriptor() {
        let d = store_dimension();
        assert_eq!(d.leaf_level().unwrap().name, "Store");
        assert!(d.level("City").is_some());
        assert!(d.level("Country").is_none());
        let store = d.level("Store").unwrap();
        assert_eq!(store.descriptor().unwrap().name, "name");
        assert!(store.attribute("address").is_some());
        assert!(store.attribute("missing").is_none());
    }

    #[test]
    fn roll_up_and_drill_down() {
        let d = store_dimension();
        assert_eq!(d.roll_up_target("Store").unwrap().unwrap().name, "City");
        assert_eq!(d.roll_up_target("City").unwrap().unwrap().name, "State");
        assert!(d.roll_up_target("State").unwrap().is_none());
        assert_eq!(d.drill_down_target("State").unwrap().unwrap().name, "City");
        assert!(d.drill_down_target("Store").unwrap().is_none());
        assert!(d.roll_up_target("Nope").is_err());
        assert!(d.drill_down_target("Nope").is_err());
    }

    #[test]
    fn aggregation_path_order() {
        let d = store_dimension();
        assert_eq!(d.aggregation_path(), vec!["Store", "City", "State"]);
    }

    #[test]
    fn become_spatial_changes_stereotype() {
        let mut d = store_dimension();
        assert!(!d.has_spatial_level());
        assert_eq!(d.level("Store").unwrap().stereotype(), Stereotype::Base);
        d.level_mut("Store")
            .unwrap()
            .become_spatial(GeometricType::Point);
        assert!(d.has_spatial_level());
        let store = d.level("Store").unwrap();
        assert!(store.is_spatial());
        assert_eq!(store.stereotype(), Stereotype::SpatialLevel);
        assert_eq!(store.geometry, Some(GeometricType::Point));
    }

    #[test]
    fn dimension_stereotype() {
        assert_eq!(store_dimension().stereotype(), Stereotype::Dimension);
    }

    #[test]
    fn level_index() {
        let d = store_dimension();
        assert_eq!(d.level_index("Store"), Some(0));
        assert_eq!(d.level_index("State"), Some(2));
        assert_eq!(d.level_index("Other"), None);
    }
}
