//! GeoMD extension elements: thematic layers.

use crate::stereotype::Stereotype;
use sdwp_geometry::GeometricType;

/// An external thematic geographic layer («Layer» class) added to the
/// schema by the paper's `AddLayer(name, geometricType)` action — e.g. the
/// `Airport` POINT layer or the `Train` LINE layer of the running example.
///
/// A layer groups geographic data that is *external to the analysed
/// domain*: it does not belong to any dimension hierarchy but can be used
/// in spatial conditions of personalization rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Layer name (unique within the schema), e.g. `"Airport"`.
    pub name: String,
    /// The geometric type describing the layer's instances.
    pub geometry: GeometricType,
    /// Optional human-readable description of the layer's provenance.
    pub description: Option<String>,
}

impl Layer {
    /// Creates a layer with the given name and geometric type.
    pub fn new(name: impl Into<String>, geometry: GeometricType) -> Self {
        Layer {
            name: name.into(),
            geometry,
            description: None,
        }
    }

    /// Creates a layer with a provenance description.
    pub fn with_description(
        name: impl Into<String>,
        geometry: GeometricType,
        description: impl Into<String>,
    ) -> Self {
        Layer {
            name: name.into(),
            geometry,
            description: Some(description.into()),
        }
    }

    /// The UML-profile stereotype of the layer.
    pub fn stereotype(&self) -> Stereotype {
        Stereotype::Layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_construction() {
        let airport = Layer::new("Airport", GeometricType::Point);
        assert_eq!(airport.name, "Airport");
        assert_eq!(airport.geometry, GeometricType::Point);
        assert!(airport.description.is_none());
        assert_eq!(airport.stereotype(), Stereotype::Layer);
    }

    #[test]
    fn layer_with_description() {
        let train =
            Layer::with_description("Train", GeometricType::Line, "national railway network");
        assert_eq!(train.geometry, GeometricType::Line);
        assert_eq!(
            train.description.as_deref(),
            Some("national railway network")
        );
    }
}
