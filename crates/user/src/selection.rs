//! Tracked spatial-interest events («SpatialSelection»).

use crate::stereotype::SusStereotype;

/// A tracked spatial-selection interest.
///
/// The paper's Example 5.3 stores, in the user model, how many times the
/// decision maker selected *cities at less than 20 km of an airport*
/// (class `AirportCity` in Fig. 4, attribute `degree`). Rules then compare
/// the degree against a designer-defined threshold to trigger further
/// personalization.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialSelectionInterest {
    /// Interest name, e.g. `"AirportCity"`.
    pub name: String,
    /// The textual spatial condition this interest tracks (for
    /// documentation / auditing; the executable condition lives in the
    /// PRML rule).
    pub condition: Option<String>,
    /// Number of times the user performed a selection satisfying the
    /// condition.
    pub degree: f64,
}

impl SpatialSelectionInterest {
    /// Creates an interest with degree zero.
    pub fn new(name: impl Into<String>) -> Self {
        SpatialSelectionInterest {
            name: name.into(),
            condition: None,
            degree: 0.0,
        }
    }

    /// Creates an interest documenting the spatial condition it tracks.
    pub fn with_condition(name: impl Into<String>, condition: impl Into<String>) -> Self {
        SpatialSelectionInterest {
            name: name.into(),
            condition: Some(condition.into()),
            degree: 0.0,
        }
    }

    /// Increments the degree by one (the `SetContent(degree, degree + 1)`
    /// idiom of Example 5.3).
    pub fn increment(&mut self) {
        self.degree += 1.0;
    }

    /// Returns `true` once the degree strictly exceeds the designer-defined
    /// threshold.
    pub fn exceeds(&self, threshold: f64) -> bool {
        self.degree > threshold
    }

    /// The SUS stereotype of this element.
    pub fn stereotype(&self) -> SusStereotype {
        SusStereotype::SpatialSelection
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_interest_has_zero_degree() {
        let i = SpatialSelectionInterest::new("AirportCity");
        assert_eq!(i.degree, 0.0);
        assert!(i.condition.is_none());
        assert_eq!(i.stereotype(), SusStereotype::SpatialSelection);
    }

    #[test]
    fn increment_and_threshold() {
        let mut i = SpatialSelectionInterest::with_condition(
            "AirportCity",
            "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km",
        );
        assert!(!i.exceeds(0.0));
        i.increment();
        assert_eq!(i.degree, 1.0);
        assert!(i.exceeds(0.0));
        assert!(!i.exceeds(1.0)); // strictly greater, as in the paper's rule
        for _ in 0..4 {
            i.increment();
        }
        assert!(i.exceeds(4.0));
        assert_eq!(i.degree, 5.0);
    }
}
