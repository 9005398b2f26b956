//! Property values stored in the user model.

use sdwp_geometry::Geometry;
use std::fmt;

/// A value stored in (or read from) the spatial-aware user model.
///
/// The paper's user model holds plain characteristics (age, language,
/// role names), numeric interest degrees and geometries (the location
/// context); this enum covers all of them.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// UTF-8 text.
    Text(String),
    /// Integer number.
    Integer(i64),
    /// Floating-point number.
    Float(f64),
    /// Boolean flag.
    Boolean(bool),
    /// A geometry (e.g. the user's location).
    Geometry(Geometry),
    /// Explicit absence of a value.
    Null,
}

impl Value {
    /// Returns the value as a float when it is numeric.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the value as text when it is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as a boolean when it is boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the contained geometry, when the value is spatial.
    pub fn as_geometry(&self) -> Option<&Geometry> {
        match self {
            Value::Geometry(g) => Some(g),
            _ => None,
        }
    }

    /// Returns `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short name of the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Text(_) => "text",
            Value::Integer(_) => "integer",
            Value::Float(_) => "float",
            Value::Boolean(_) => "boolean",
            Value::Geometry(_) => "geometry",
            Value::Null => "null",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => write!(f, "{s}"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Geometry(g) => write!(f, "{g}"),
            Value::Null => write!(f, "null"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Integer(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Boolean(b)
    }
}

impl From<Geometry> for Value {
    fn from(g: Geometry) -> Self {
        Value::Geometry(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdwp_geometry::Point;

    #[test]
    fn accessors() {
        assert_eq!(Value::Integer(7).as_number(), Some(7.0));
        assert_eq!(Value::Float(2.5).as_number(), Some(2.5));
        assert_eq!(Value::Text("x".into()).as_number(), None);
        assert_eq!(Value::Text("hello".into()).as_text(), Some("hello"));
        assert_eq!(Value::Boolean(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        let g: Geometry = Point::new(1.0, 2.0).into();
        assert!(Value::Geometry(g.clone()).as_geometry().is_some());
        assert!(Value::Integer(1).as_geometry().is_none());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from("a"), Value::Text("a".into()));
        assert_eq!(Value::from(3i64), Value::Integer(3));
        assert_eq!(Value::from(1.5f64), Value::Float(1.5));
        assert_eq!(Value::from(false), Value::Boolean(false));
    }

    #[test]
    fn type_names_and_display() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::Integer(1).type_name(), "integer");
        assert_eq!(Value::Float(1.0).type_name(), "float");
        assert_eq!(Value::Text("t".into()).to_string(), "t");
        assert_eq!(Value::Integer(42).to_string(), "42");
        assert_eq!(Value::Null.to_string(), "null");
        let g: Geometry = Point::new(1.0, 2.0).into();
        assert_eq!(Value::Geometry(g).to_string(), "POINT (1 2)");
    }
}
