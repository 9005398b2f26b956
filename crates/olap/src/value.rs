//! Cell values stored in OLAP tables.

use sdwp_geometry::Geometry;
use std::cmp::Ordering;
use std::fmt;

/// A single cell value of a fact or dimension table.
#[derive(Debug, Clone, PartialEq)]
pub enum CellValue {
    /// 64-bit signed integer.
    Integer(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Boolean flag.
    Boolean(bool),
    /// A date as days since 1970-01-01.
    Date(i64),
    /// A geometry (spatial levels, spatial measures, layers).
    Geometry(Geometry),
    /// Missing value.
    Null,
}

impl CellValue {
    /// Numeric view of the value (integers, floats and dates).
    pub fn as_number(&self) -> Option<f64> {
        match self {
            CellValue::Integer(i) => Some(*i as f64),
            CellValue::Float(f) => Some(*f),
            CellValue::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// Text view of the value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            CellValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Geometry view of the value.
    pub fn as_geometry(&self) -> Option<&Geometry> {
        match self {
            CellValue::Geometry(g) => Some(g),
            _ => None,
        }
    }

    /// Boolean view of the value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            CellValue::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns `true` for [`CellValue::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, CellValue::Null)
    }

    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            CellValue::Integer(_) => "integer",
            CellValue::Float(_) => "float",
            CellValue::Text(_) => "text",
            CellValue::Boolean(_) => "boolean",
            CellValue::Date(_) => "date",
            CellValue::Geometry(_) => "geometry",
            CellValue::Null => "null",
        }
    }

    /// Orders two cell values for filters and sorting. Numbers compare
    /// numerically (integers and floats mix), text lexicographically,
    /// booleans false < true; nulls sort first; geometries and mismatched
    /// types are incomparable.
    pub fn compare(&self, other: &CellValue) -> Option<Ordering> {
        use CellValue::*;
        match (self, other) {
            (Null, Null) => Some(Ordering::Equal),
            (Null, _) => Some(Ordering::Less),
            (_, Null) => Some(Ordering::Greater),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (Geometry(_), Geometry(_)) => None,
            _ => {
                let a = self.as_number()?;
                let b = other.as_number()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// A stable string key used for grouping (hash aggregation).
    pub fn group_key(&self) -> String {
        match self {
            CellValue::Integer(i) => format!("i{i}"),
            CellValue::Float(f) => format!("f{f}"),
            CellValue::Text(s) => format!("t{s}"),
            CellValue::Boolean(b) => format!("b{b}"),
            CellValue::Date(d) => format!("d{d}"),
            CellValue::Geometry(g) => format!("g{g}"),
            CellValue::Null => "null".to_string(),
        }
    }
}

impl fmt::Display for CellValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellValue::Integer(i) => write!(f, "{i}"),
            CellValue::Float(x) => write!(f, "{x:.3}"),
            CellValue::Text(s) => write!(f, "{s}"),
            CellValue::Boolean(b) => write!(f, "{b}"),
            CellValue::Date(d) => write!(f, "day#{d}"),
            CellValue::Geometry(g) => write!(f, "{g}"),
            CellValue::Null => write!(f, "∅"),
        }
    }
}

impl From<i64> for CellValue {
    fn from(v: i64) -> Self {
        CellValue::Integer(v)
    }
}
impl From<f64> for CellValue {
    fn from(v: f64) -> Self {
        CellValue::Float(v)
    }
}
impl From<&str> for CellValue {
    fn from(v: &str) -> Self {
        CellValue::Text(v.to_string())
    }
}
impl From<String> for CellValue {
    fn from(v: String) -> Self {
        CellValue::Text(v)
    }
}
impl From<bool> for CellValue {
    fn from(v: bool) -> Self {
        CellValue::Boolean(v)
    }
}
impl From<Geometry> for CellValue {
    fn from(v: Geometry) -> Self {
        CellValue::Geometry(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdwp_geometry::Point;

    #[test]
    fn numeric_views() {
        assert_eq!(CellValue::Integer(3).as_number(), Some(3.0));
        assert_eq!(CellValue::Float(2.5).as_number(), Some(2.5));
        assert_eq!(CellValue::Date(10).as_number(), Some(10.0));
        assert_eq!(CellValue::Text("x".into()).as_number(), None);
    }

    #[test]
    fn comparisons() {
        use Ordering::*;
        assert_eq!(
            CellValue::Integer(2).compare(&CellValue::Float(2.5)),
            Some(Less)
        );
        assert_eq!(
            CellValue::Text("a".into()).compare(&CellValue::Text("b".into())),
            Some(Less)
        );
        assert_eq!(CellValue::Null.compare(&CellValue::Integer(0)), Some(Less));
        assert_eq!(CellValue::Null.compare(&CellValue::Null), Some(Equal));
        assert_eq!(
            CellValue::Boolean(false).compare(&CellValue::Boolean(true)),
            Some(Less)
        );
        // Geometry and mismatched types are incomparable.
        let g: Geometry = Point::new(0.0, 0.0).into();
        assert_eq!(
            CellValue::Geometry(g.clone()).compare(&CellValue::Geometry(g)),
            None
        );
        assert_eq!(
            CellValue::Text("a".into()).compare(&CellValue::Integer(1)),
            None
        );
    }

    #[test]
    fn group_keys_distinguish_types() {
        assert_ne!(
            CellValue::Integer(1).group_key(),
            CellValue::Text("1".into()).group_key()
        );
        assert_eq!(CellValue::Null.group_key(), "null");
    }

    #[test]
    fn conversions_and_display() {
        assert_eq!(CellValue::from(5i64), CellValue::Integer(5));
        assert_eq!(CellValue::from(2.5f64), CellValue::Float(2.5));
        assert_eq!(CellValue::from("x"), CellValue::Text("x".into()));
        assert_eq!(CellValue::from(true), CellValue::Boolean(true));
        assert_eq!(CellValue::Integer(7).to_string(), "7");
        assert_eq!(CellValue::Null.to_string(), "∅");
        assert!(CellValue::Null.is_null());
        assert_eq!(CellValue::Float(1.0).type_name(), "float");
    }
}
