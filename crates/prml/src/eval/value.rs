//! Runtime values produced while evaluating rule expressions.

use sdwp_geometry::{GeometricType, Geometry};
use std::fmt;

/// Where an instance reference points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceSource {
    /// A member of a dimension, viewed at a particular hierarchy level.
    Level {
        /// Dimension name.
        dimension: String,
        /// Level name.
        level: String,
    },
    /// An instance of a thematic layer.
    Layer {
        /// Layer name.
        layer: String,
    },
}

/// A reference to one instance of the (Geo)MD model: a dimension member or
/// a layer instance. This is what `Foreach` variables are bound to and what
/// `SelectInstance` receives. Facts are never instances: rule expressions
/// cannot name a fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceRef {
    /// Which table the instance lives in.
    pub source: InstanceSource,
    /// The row id within that table.
    pub row: usize,
}

impl InstanceRef {
    /// A reference to a dimension member at a given level.
    pub fn level(dimension: impl Into<String>, level: impl Into<String>, row: usize) -> Self {
        InstanceRef {
            source: InstanceSource::Level {
                dimension: dimension.into(),
                level: level.into(),
            },
            row,
        }
    }

    /// A reference to a layer instance.
    pub fn layer(layer: impl Into<String>, row: usize) -> Self {
        InstanceRef {
            source: InstanceSource::Layer {
                layer: layer.into(),
            },
            row,
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number (all PRML numbers are f64; distances are in km).
    Number(f64),
    /// Text.
    Text(String),
    /// A boolean.
    Boolean(bool),
    /// A geometry.
    Geometry(Geometry),
    /// A geometric-type literal.
    GeometricType(GeometricType),
    /// A reference to a model instance.
    Instance(InstanceRef),
    /// An ordered collection of values (iteration sources, Intersection
    /// results).
    Collection(Vec<Value>),
    /// Absence of a value.
    Null,
}

impl Value {
    /// Numeric view.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Boolean(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Geometry view (only for direct geometry values; instances are
    /// materialised by the evaluation context).
    pub fn as_geometry(&self) -> Option<&Geometry> {
        match self {
            Value::Geometry(g) => Some(g),
            _ => None,
        }
    }

    /// Collection view.
    pub fn as_collection(&self) -> Option<&[Value]> {
        match self {
            Value::Collection(v) => Some(v),
            _ => None,
        }
    }

    /// Returns `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Number(_) => "number",
            Value::Text(_) => "text",
            Value::Boolean(_) => "boolean",
            Value::Geometry(_) => "geometry",
            Value::GeometricType(_) => "geometric type",
            Value::Instance(_) => "instance",
            Value::Collection(_) => "collection",
            Value::Null => "null",
        }
    }

    /// Converts a user-model value into a runtime value.
    pub fn from_user(value: sdwp_user::Value) -> Value {
        match value {
            sdwp_user::Value::Text(s) => Value::Text(s),
            sdwp_user::Value::Integer(i) => Value::Number(i as f64),
            sdwp_user::Value::Float(f) => Value::Number(f),
            sdwp_user::Value::Boolean(b) => Value::Boolean(b),
            sdwp_user::Value::Geometry(g) => Value::Geometry(g),
            sdwp_user::Value::Null => Value::Null,
        }
    }

    /// Converts a runtime value into a user-model value (for `SetContent`).
    pub fn into_user(self) -> sdwp_user::Value {
        match self {
            Value::Number(n) => sdwp_user::Value::Float(n),
            Value::Text(s) => sdwp_user::Value::Text(s),
            Value::Boolean(b) => sdwp_user::Value::Boolean(b),
            Value::Geometry(g) => sdwp_user::Value::Geometry(g),
            Value::GeometricType(g) => sdwp_user::Value::Text(g.to_string()),
            Value::Instance(i) => sdwp_user::Value::Text(format!("{i:?}")),
            Value::Collection(_) => sdwp_user::Value::Text("<collection>".into()),
            Value::Null => sdwp_user::Value::Null,
        }
    }

    /// Converts an OLAP cell value into a runtime value.
    pub fn from_cell(value: sdwp_olap::CellValue) -> Value {
        match value {
            sdwp_olap::CellValue::Integer(i) => Value::Number(i as f64),
            sdwp_olap::CellValue::Float(f) => Value::Number(f),
            sdwp_olap::CellValue::Text(s) => Value::Text(s),
            sdwp_olap::CellValue::Boolean(b) => Value::Boolean(b),
            sdwp_olap::CellValue::Date(d) => Value::Number(d as f64),
            sdwp_olap::CellValue::Geometry(g) => Value::Geometry(g),
            sdwp_olap::CellValue::Null => Value::Null,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Number(n) => write!(f, "{n}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Geometry(g) => write!(f, "{g}"),
            Value::GeometricType(g) => write!(f, "{g}"),
            Value::Instance(i) => write!(f, "instance#{} ({:?})", i.row, i.source),
            Value::Collection(v) => write!(f, "collection[{}]", v.len()),
            Value::Null => write!(f, "null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdwp_geometry::Point;

    #[test]
    fn views() {
        assert_eq!(Value::Number(3.0).as_number(), Some(3.0));
        assert_eq!(Value::Boolean(true).as_number(), Some(1.0));
        assert_eq!(Value::Text("x".into()).as_number(), None);
        assert_eq!(Value::Boolean(false).as_bool(), Some(false));
        assert_eq!(Value::Text("a".into()).as_text(), Some("a"));
        assert!(Value::Null.is_null());
        assert!(Value::Collection(vec![])
            .as_collection()
            .unwrap()
            .is_empty());
        let inst = Value::Instance(InstanceRef::level("Store", "Store", 3));
        assert_eq!(inst.type_name(), "instance");
    }

    #[test]
    fn user_value_round_trip() {
        let v = Value::from_user(sdwp_user::Value::Integer(4));
        assert_eq!(v, Value::Number(4.0));
        assert_eq!(Value::Number(2.5).into_user(), sdwp_user::Value::Float(2.5));
        assert_eq!(
            Value::from_user(sdwp_user::Value::Text("x".into())).as_text(),
            Some("x")
        );
        assert!(Value::from_user(sdwp_user::Value::Null).is_null());
    }

    #[test]
    fn cell_value_conversion() {
        assert_eq!(
            Value::from_cell(sdwp_olap::CellValue::Integer(7)),
            Value::Number(7.0)
        );
        assert_eq!(
            Value::from_cell(sdwp_olap::CellValue::Text("a".into())),
            Value::Text("a".into())
        );
        let g: Geometry = Point::new(1.0, 2.0).into();
        assert_eq!(
            Value::from_cell(sdwp_olap::CellValue::Geometry(g.clone())),
            Value::Geometry(g)
        );
        assert!(Value::from_cell(sdwp_olap::CellValue::Null).is_null());
    }

    #[test]
    fn instance_constructors_and_display() {
        let l = InstanceRef::level("Store", "City", 2);
        assert!(matches!(l.source, InstanceSource::Level { .. }));
        let a = InstanceRef::layer("Airport", 0);
        assert!(matches!(a.source, InstanceSource::Layer { .. }));
        assert!(Value::Instance(a).to_string().contains("instance#0"));
        assert_eq!(
            Value::Collection(vec![Value::Null]).to_string(),
            "collection[1]"
        );
    }
}
