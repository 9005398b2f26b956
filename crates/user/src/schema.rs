//! Declarative description of a spatial-aware user model (Figs. 3 and 4).
//!
//! The paper distinguishes the *profile* (Fig. 3: which stereotypes exist)
//! from the *user model designed for a concrete system* (Fig. 4: the
//! classes the designer declares — DecisionMaker, Role, Location,
//! AirportCity…). [`SusModel`] captures that designer-facing declaration so
//! it can be rendered, validated and compared against the requirements,
//! while [`crate::UserProfile`] holds the runtime instance data.

use crate::stereotype::SusStereotype;
use std::fmt;

/// A property of a SUS class (e.g. `degree: Integer` on `AirportCity`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SusProperty {
    /// Property name.
    pub name: String,
    /// Textual type annotation (e.g. `"String"`, `"Integer"`, `"POINT"`).
    pub type_name: String,
}

impl SusProperty {
    /// Creates a property.
    pub fn new(name: impl Into<String>, type_name: impl Into<String>) -> Self {
        SusProperty {
            name: name.into(),
            type_name: type_name.into(),
        }
    }
}

/// A stereotyped class of the designed user model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SusClass {
    /// Class name (e.g. `"DecisionMaker"`, `"AirportCity"`).
    pub name: String,
    /// The stereotype the class carries.
    pub stereotype: SusStereotype,
    /// Declared properties.
    pub properties: Vec<SusProperty>,
    /// Names of the classes this class is associated with.
    pub associations: Vec<String>,
}

impl SusClass {
    /// Creates a class with no properties or associations.
    pub fn new(name: impl Into<String>, stereotype: SusStereotype) -> Self {
        SusClass {
            name: name.into(),
            stereotype,
            properties: Vec::new(),
            associations: Vec::new(),
        }
    }

    /// Adds a property, returning `self` for chaining.
    pub fn property(mut self, name: impl Into<String>, type_name: impl Into<String>) -> Self {
        self.properties.push(SusProperty::new(name, type_name));
        self
    }

    /// Adds an association to another class, returning `self`.
    pub fn associated_with(mut self, class: impl Into<String>) -> Self {
        self.associations.push(class.into());
        self
    }
}

/// A designed spatial-aware user model: a set of stereotyped classes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SusModel {
    /// Model name.
    pub name: String,
    /// The stereotyped classes of the model.
    pub classes: Vec<SusClass>,
}

impl SusModel {
    /// Creates an empty model.
    pub fn new(name: impl Into<String>) -> Self {
        SusModel {
            name: name.into(),
            classes: Vec::new(),
        }
    }

    /// Adds a class, returning `self` for chaining.
    pub fn class(mut self, class: SusClass) -> Self {
        self.classes.push(class);
        self
    }

    /// Looks up a class by name.
    pub fn find(&self, name: &str) -> Option<&SusClass> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// All classes carrying the given stereotype.
    pub fn with_stereotype(&self, stereotype: SusStereotype) -> Vec<&SusClass> {
        self.classes
            .iter()
            .filter(|c| c.stereotype == stereotype)
            .collect()
    }

    /// Basic well-formedness: class names unique, associations resolvable,
    /// exactly one «User» class.
    pub fn validate(&self) -> Result<(), String> {
        let mut names = std::collections::HashSet::new();
        for class in &self.classes {
            if !names.insert(class.name.as_str()) {
                return Err(format!("duplicate class name '{}'", class.name));
            }
        }
        for class in &self.classes {
            for assoc in &class.associations {
                if self.find(assoc).is_none() {
                    return Err(format!(
                        "class '{}' is associated with unknown class '{}'",
                        class.name, assoc
                    ));
                }
            }
        }
        let users = self.with_stereotype(SusStereotype::User).len();
        if users != 1 {
            return Err(format!("expected exactly one «User» class, found {users}"));
        }
        Ok(())
    }

    /// The user model of the paper's motivating example (Fig. 4): a
    /// `DecisionMaker` user with a `Role` characteristic, a `Session` with
    /// a `Location` context, and the `AirportCity` spatial-selection
    /// interest with its `degree` counter.
    pub fn motivating_example() -> Self {
        SusModel::new("SalesDW user model")
            .class(
                SusClass::new("DecisionMaker", SusStereotype::User)
                    .property("name", "String")
                    .associated_with("Role")
                    .associated_with("AnalysisSession")
                    .associated_with("AirportCity"),
            )
            .class(SusClass::new("Role", SusStereotype::Characteristic).property("name", "String"))
            .class(
                SusClass::new("AnalysisSession", SusStereotype::Session)
                    .property("id", "Integer")
                    .associated_with("Location"),
            )
            .class(
                SusClass::new("Location", SusStereotype::LocationContext)
                    .property("geometry", "POINT"),
            )
            .class(
                SusClass::new("AirportCity", SusStereotype::SpatialSelection)
                    .property("degree", "Integer"),
            )
    }
}

impl fmt::Display for SusModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SUS model '{}'", self.name)?;
        for class in &self.classes {
            writeln!(f, "  {} {}", class.stereotype.notation(), class.name)?;
            for p in &class.properties {
                writeln!(f, "    {}: {}", p.name, p.type_name)?;
            }
            for a in &class.associations {
                writeln!(f, "    -> {a}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motivating_example_matches_figure_4() {
        let model = SusModel::motivating_example();
        model.validate().unwrap();
        // The requirements of Section 4.1: store the decision maker role and
        // the AirportCity spatial selection with its degree.
        let user = model.find("DecisionMaker").unwrap();
        assert_eq!(user.stereotype, SusStereotype::User);
        assert!(user.associations.contains(&"Role".to_string()));
        let airport_city = model.find("AirportCity").unwrap();
        assert_eq!(airport_city.stereotype, SusStereotype::SpatialSelection);
        assert!(airport_city.properties.iter().any(|p| p.name == "degree"));
        let location = model.find("Location").unwrap();
        assert_eq!(location.stereotype, SusStereotype::LocationContext);
        assert_eq!(location.properties[0].type_name, "POINT");
    }

    #[test]
    fn validation_catches_duplicates_and_dangling_associations() {
        let dup = SusModel::new("bad")
            .class(SusClass::new("A", SusStereotype::User))
            .class(SusClass::new("A", SusStereotype::Session));
        assert!(dup.validate().is_err());

        let dangling = SusModel::new("bad")
            .class(SusClass::new("U", SusStereotype::User).associated_with("Ghost"));
        assert!(dangling.validate().is_err());

        let no_user = SusModel::new("bad").class(SusClass::new("S", SusStereotype::Session));
        assert!(no_user.validate().is_err());

        let two_users = SusModel::new("bad")
            .class(SusClass::new("U1", SusStereotype::User))
            .class(SusClass::new("U2", SusStereotype::User));
        assert!(two_users.validate().is_err());
    }

    #[test]
    fn stereotype_filter_and_display() {
        let model = SusModel::motivating_example();
        assert_eq!(model.with_stereotype(SusStereotype::User).len(), 1);
        assert_eq!(
            model.with_stereotype(SusStereotype::SpatialSelection).len(),
            1
        );
        let text = model.to_string();
        assert!(text.contains("«User» DecisionMaker"));
        assert!(text.contains("«SpatialSelection» AirportCity"));
        assert!(text.contains("degree: Integer"));
    }
}
