//! The user's geographic location context («LocationContext»).

use crate::stereotype::SusStereotype;
use sdwp_geometry::{Geometry, Point};

/// The geographic location from which an analysis session is performed.
///
/// Example 5.2 of the paper uses it to keep only the stores within 5 km of
/// the decision maker
/// (`Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 5km`).
#[derive(Debug, Clone, PartialEq)]
pub struct LocationContext {
    /// A label for the location (e.g. `"office"`, `"field visit"`).
    pub name: String,
    /// The location itself.
    pub geometry: Geometry,
}

impl LocationContext {
    /// Creates a location context from any geometry.
    pub fn new(name: impl Into<String>, geometry: Geometry) -> Self {
        LocationContext {
            name: name.into(),
            geometry,
        }
    }

    /// Convenience constructor for a point location.
    pub fn at_point(name: impl Into<String>, x: f64, y: f64) -> Self {
        LocationContext {
            name: name.into(),
            geometry: Point::new(x, y).into(),
        }
    }

    /// The SUS stereotype of this element.
    pub fn stereotype(&self) -> SusStereotype {
        SusStereotype::LocationContext
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let loc = LocationContext::at_point("office", 10.0, 20.0);
        assert_eq!(loc.name, "office");
        let p = loc.geometry.as_point().unwrap();
        assert_eq!((p.x(), p.y()), (10.0, 20.0));
        assert_eq!(loc.stereotype(), SusStereotype::LocationContext);
    }

    #[test]
    fn arbitrary_geometry() {
        let region: Geometry =
            sdwp_geometry::Polygon::from_tuples(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
                .unwrap()
                .into();
        let loc = LocationContext::new("sales territory", region.clone());
        assert_eq!(loc.geometry, region);
    }
}
