//! Attributes, measures and their data types.

use crate::stereotype::Stereotype;
use sdwp_geometry::GeometricType;
use std::fmt;

/// The data type of an attribute or measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeType {
    /// 64-bit signed integer.
    Integer,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean flag.
    Boolean,
    /// A date, stored as days since an epoch by the OLAP layer.
    Date,
    /// A geometry of the given geometric type (GeoMD extension).
    Geometry(GeometricType),
}

impl AttributeType {
    /// Returns `true` when the attribute carries a geometry.
    pub fn is_spatial(&self) -> bool {
        matches!(self, AttributeType::Geometry(_))
    }

    /// Returns `true` when the type supports arithmetic aggregation
    /// (SUM / AVG).
    pub fn is_numeric(&self) -> bool {
        matches!(self, AttributeType::Integer | AttributeType::Float)
    }
}

impl fmt::Display for AttributeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttributeType::Integer => write!(f, "Integer"),
            AttributeType::Float => write!(f, "Float"),
            AttributeType::Text => write!(f, "Text"),
            AttributeType::Boolean => write!(f, "Boolean"),
            AttributeType::Date => write!(f, "Date"),
            AttributeType::Geometry(g) => write!(f, "Geometry({g})"),
        }
    }
}

/// The aggregation function applied to a measure when rolling up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggregationFunction {
    /// Sum of values (additive measures such as UnitSales).
    #[default]
    Sum,
    /// Arithmetic mean.
    Avg,
    /// Smallest value.
    Min,
    /// Largest value.
    Max,
    /// Number of rows.
    Count,
    /// Number of distinct values.
    CountDistinct,
}

impl AggregationFunction {
    /// All aggregation functions.
    pub const ALL: [AggregationFunction; 6] = [
        AggregationFunction::Sum,
        AggregationFunction::Avg,
        AggregationFunction::Min,
        AggregationFunction::Max,
        AggregationFunction::Count,
        AggregationFunction::CountDistinct,
    ];

    /// Parses the SQL-like spelling of the function (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "SUM" => Some(AggregationFunction::Sum),
            "AVG" | "MEAN" => Some(AggregationFunction::Avg),
            "MIN" => Some(AggregationFunction::Min),
            "MAX" => Some(AggregationFunction::Max),
            "COUNT" => Some(AggregationFunction::Count),
            "COUNT_DISTINCT" | "COUNTDISTINCT" => Some(AggregationFunction::CountDistinct),
            _ => None,
        }
    }
}

impl fmt::Display for AggregationFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggregationFunction::Sum => "SUM",
            AggregationFunction::Avg => "AVG",
            AggregationFunction::Min => "MIN",
            AggregationFunction::Max => "MAX",
            AggregationFunction::Count => "COUNT",
            AggregationFunction::CountDistinct => "COUNT_DISTINCT",
        };
        f.write_str(s)
    }
}

/// A descriptive attribute of a hierarchy level («Descriptor» or
/// «DimensionAttribute»).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (unique within its level).
    pub name: String,
    /// Data type.
    pub data_type: AttributeType,
    /// Whether this is the level's identifying descriptor.
    pub is_descriptor: bool,
}

impl Attribute {
    /// Creates a non-descriptor attribute.
    pub fn new(name: impl Into<String>, data_type: AttributeType) -> Self {
        Attribute {
            name: name.into(),
            data_type,
            is_descriptor: false,
        }
    }

    /// Creates the identifying descriptor attribute of a level.
    pub fn descriptor(name: impl Into<String>, data_type: AttributeType) -> Self {
        Attribute {
            name: name.into(),
            data_type,
            is_descriptor: true,
        }
    }

    /// The UML-profile stereotype of the attribute.
    pub fn stereotype(&self) -> Stereotype {
        if self.is_descriptor {
            Stereotype::Descriptor
        } else {
            Stereotype::DimensionAttribute
        }
    }
}

/// A measure of a fact («FactAttribute»), aggregated when rolling up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measure {
    /// Measure name (unique within its fact).
    pub name: String,
    /// Data type (usually numeric; a geometry makes it a «SpatialMeasure»).
    pub data_type: AttributeType,
    /// Default aggregation function.
    pub aggregation: AggregationFunction,
}

impl Measure {
    /// Creates a measure with the default (SUM) aggregation.
    pub fn new(name: impl Into<String>, data_type: AttributeType) -> Self {
        Measure {
            name: name.into(),
            data_type,
            aggregation: AggregationFunction::Sum,
        }
    }

    /// Creates a measure with an explicit aggregation function.
    pub fn with_aggregation(
        name: impl Into<String>,
        data_type: AttributeType,
        aggregation: AggregationFunction,
    ) -> Self {
        Measure {
            name: name.into(),
            data_type,
            aggregation,
        }
    }

    /// The UML-profile stereotype of the measure.
    pub fn stereotype(&self) -> Stereotype {
        if self.data_type.is_spatial() {
            Stereotype::SpatialMeasure
        } else {
            Stereotype::FactAttribute
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_types() {
        assert!(AttributeType::Geometry(GeometricType::Point).is_spatial());
        assert!(!AttributeType::Text.is_spatial());
        assert!(AttributeType::Integer.is_numeric());
        assert!(AttributeType::Float.is_numeric());
        assert!(!AttributeType::Date.is_numeric());
        assert_eq!(
            AttributeType::Geometry(GeometricType::Line).to_string(),
            "Geometry(LINE)"
        );
    }

    #[test]
    fn aggregation_parse_round_trip() {
        for agg in AggregationFunction::ALL {
            assert_eq!(AggregationFunction::parse(&agg.to_string()), Some(agg));
        }
        assert_eq!(
            AggregationFunction::parse("avg"),
            Some(AggregationFunction::Avg)
        );
        assert_eq!(AggregationFunction::parse("median"), None);
        assert_eq!(AggregationFunction::default(), AggregationFunction::Sum);
    }

    #[test]
    fn attribute_stereotypes() {
        let d = Attribute::descriptor("name", AttributeType::Text);
        assert!(d.is_descriptor);
        assert_eq!(d.stereotype(), Stereotype::Descriptor);
        let a = Attribute::new("population", AttributeType::Integer);
        assert_eq!(a.stereotype(), Stereotype::DimensionAttribute);
    }

    #[test]
    fn measure_stereotypes() {
        let m = Measure::new("UnitSales", AttributeType::Float);
        assert_eq!(m.stereotype(), Stereotype::FactAttribute);
        assert_eq!(m.aggregation, AggregationFunction::Sum);
        let spatial = Measure::new(
            "CoveredArea",
            AttributeType::Geometry(GeometricType::Polygon),
        );
        assert_eq!(spatial.stereotype(), Stereotype::SpatialMeasure);
        let avg =
            Measure::with_aggregation("StoreCost", AttributeType::Float, AggregationFunction::Avg);
        assert_eq!(avg.aggregation, AggregationFunction::Avg);
    }
}
