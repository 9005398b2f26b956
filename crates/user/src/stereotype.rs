//! Stereotypes of the spatial-aware user model UML profile (Fig. 3).

use std::fmt;

/// The stereotypes defined by the paper's Spatial-aware User model (SUS)
/// UML profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SusStereotype {
    /// «User» — the decision maker.
    User,
    /// «Session» — an analysis session.
    Session,
    /// «Characteristic» — a domain-independent user characteristic.
    Characteristic,
    /// «LocationContext» — the geographic context of the analysis session.
    LocationContext,
    /// «SpatialSelection» — a tracked spatial-interest event.
    SpatialSelection,
}

impl SusStereotype {
    /// All SUS stereotypes, matching the profile of Fig. 3.
    pub const ALL: [SusStereotype; 5] = [
        SusStereotype::User,
        SusStereotype::Session,
        SusStereotype::Characteristic,
        SusStereotype::LocationContext,
        SusStereotype::SpatialSelection,
    ];

    /// The guillemet notation used in the paper's figures.
    pub fn notation(&self) -> String {
        format!("\u{00ab}{self}\u{00bb}")
    }
}

impl fmt::Display for SusStereotype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SusStereotype::User => "User",
            SusStereotype::Session => "Session",
            SusStereotype::Characteristic => "Characteristic",
            SusStereotype::LocationContext => "LocationContext",
            SusStereotype::SpatialSelection => "SpatialSelection",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_matches_figure_3() {
        // Fig. 3 defines exactly these five stereotypes.
        let names: Vec<String> = SusStereotype::ALL.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "User",
                "Session",
                "Characteristic",
                "LocationContext",
                "SpatialSelection"
            ]
        );
    }

    #[test]
    fn notation() {
        assert_eq!(
            SusStereotype::SpatialSelection.notation(),
            "«SpatialSelection»"
        );
    }
}
