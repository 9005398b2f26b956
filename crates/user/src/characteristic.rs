//! User characteristics and roles («Characteristic»).

use crate::stereotype::SusStereotype;
use crate::value::Value;

/// A domain-independent user characteristic (age, language, department,
/// …) — a «Characteristic» class instance in the SUS profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Characteristic {
    /// Characteristic name (e.g. `"language"`).
    pub name: String,
    /// Its current value.
    pub value: Value,
}

impl Characteristic {
    /// Creates a characteristic.
    pub fn new(name: impl Into<String>, value: impl Into<Value>) -> Self {
        Characteristic {
            name: name.into(),
            value: value.into(),
        }
    }

    /// The SUS stereotype of this element.
    pub fn stereotype(&self) -> SusStereotype {
        SusStereotype::Characteristic
    }
}

/// The decision maker's organisational role — the characteristic the
/// paper's Example 5.1 dispatches on (`SUS.DecisionMaker.dm2role.name =
/// 'RegionalSalesManager'`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Role {
    /// Role name, e.g. `"RegionalSalesManager"`.
    pub name: String,
    /// Optional free-text description of the role's responsibilities.
    pub description: Option<String>,
}

impl Role {
    /// Creates a role with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Role {
            name: name.into(),
            description: None,
        }
    }

    /// Creates a role with a description.
    pub fn with_description(name: impl Into<String>, description: impl Into<String>) -> Self {
        Role {
            name: name.into(),
            description: Some(description.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characteristic_construction() {
        let c = Characteristic::new("language", "es");
        assert_eq!(c.name, "language");
        assert_eq!(c.value, Value::Text("es".into()));
        assert_eq!(c.stereotype(), SusStereotype::Characteristic);
        let age = Characteristic::new("age", 41i64);
        assert_eq!(age.value.as_number(), Some(41.0));
    }

    #[test]
    fn role_construction() {
        let r = Role::new("RegionalSalesManager");
        assert_eq!(r.name, "RegionalSalesManager");
        assert!(r.description.is_none());
        let r2 = Role::with_description("Analyst", "explores sales cubes");
        assert_eq!(r2.description.as_deref(), Some("explores sales cubes"));
    }
}
