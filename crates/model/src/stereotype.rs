//! UML-profile stereotypes used by the MD and GeoMD models.

use std::fmt;

/// The stereotypes of the multidimensional UML profile (paper references
/// \[16\] and \[10\]) that this library represents.
///
/// Stereotypes are carried as metadata on model elements so that renderers
/// (and the schema diff) can reproduce the class-diagram notation of the
/// paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stereotype {
    /// «Fact» — the subject of analysis (e.g. Sales).
    Fact,
    /// «Dimension» — a context of analysis (e.g. Store, Time).
    Dimension,
    /// «Base» — one level of a dimension hierarchy (e.g. City, State).
    Base,
    /// «FactAttribute» — a measure of the fact (e.g. UnitSales).
    FactAttribute,
    /// «Descriptor» — the identifying attribute of a Base class.
    Descriptor,
    /// «DimensionAttribute» — a non-identifying descriptive attribute.
    DimensionAttribute,
    /// «SpatialLevel» — a Base class with a geometric description (GeoMD).
    SpatialLevel,
    /// «SpatialMeasure» — a measure holding a geometry (GeoMD).
    SpatialMeasure,
    /// «Layer» — an external thematic geographic layer (GeoMD).
    Layer,
}

impl Stereotype {
    /// The guillemet notation used in the paper's figures, e.g.
    /// `«SpatialLevel»`.
    pub fn notation(&self) -> String {
        format!("\u{00ab}{self}\u{00bb}")
    }

    /// Returns `true` for the stereotypes introduced by the geographic
    /// (GeoMD) extension rather than the base MD profile.
    pub fn is_geographic(&self) -> bool {
        matches!(
            self,
            Stereotype::SpatialLevel | Stereotype::SpatialMeasure | Stereotype::Layer
        )
    }
}

impl fmt::Display for Stereotype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stereotype::Fact => "Fact",
            Stereotype::Dimension => "Dimension",
            Stereotype::Base => "Base",
            Stereotype::FactAttribute => "FactAttribute",
            Stereotype::Descriptor => "Descriptor",
            Stereotype::DimensionAttribute => "DimensionAttribute",
            Stereotype::SpatialLevel => "SpatialLevel",
            Stereotype::SpatialMeasure => "SpatialMeasure",
            Stereotype::Layer => "Layer",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notation_uses_guillemets() {
        assert_eq!(Stereotype::Fact.notation(), "«Fact»");
        assert_eq!(Stereotype::SpatialLevel.notation(), "«SpatialLevel»");
    }

    #[test]
    fn geographic_classification() {
        assert!(Stereotype::SpatialLevel.is_geographic());
        assert!(Stereotype::Layer.is_geographic());
        assert!(Stereotype::SpatialMeasure.is_geographic());
        assert!(!Stereotype::Fact.is_geographic());
        assert!(!Stereotype::Base.is_geographic());
        assert!(!Stereotype::Descriptor.is_geographic());
    }

    #[test]
    fn display_names() {
        assert_eq!(
            Stereotype::DimensionAttribute.to_string(),
            "DimensionAttribute"
        );
        assert_eq!(Stereotype::Layer.to_string(), "Layer");
    }
}
