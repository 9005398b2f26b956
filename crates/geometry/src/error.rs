//! Error types for geometric construction.

use std::fmt;

/// Errors produced while constructing geometries.
#[derive(Debug, Clone, PartialEq)]
pub enum GeometryError {
    /// A line string needs at least two coordinates.
    TooFewCoordinates {
        /// Geometry kind being constructed (e.g. `"LineString"`).
        kind: &'static str,
        /// Minimum number of coordinates required.
        required: usize,
        /// Number of coordinates actually supplied.
        actual: usize,
    },
    /// A polygon ring must be closed (first coordinate equals last).
    UnclosedRing,
    /// A coordinate contained a non-finite component (NaN or infinity).
    NonFiniteCoordinate {
        /// The offending x component.
        x: f64,
        /// The offending y component.
        y: f64,
    },
    /// An operation was requested on an empty geometry that requires content.
    EmptyGeometry {
        /// Description of the operation that failed.
        operation: &'static str,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::TooFewCoordinates {
                kind,
                required,
                actual,
            } => write!(
                f,
                "{kind} requires at least {required} coordinates, got {actual}"
            ),
            GeometryError::UnclosedRing => {
                write!(f, "polygon ring must be closed (first == last coordinate)")
            }
            GeometryError::NonFiniteCoordinate { x, y } => {
                write!(f, "coordinate ({x}, {y}) contains a non-finite component")
            }
            GeometryError::EmptyGeometry { operation } => {
                write!(f, "cannot compute {operation} of an empty geometry")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_too_few_coordinates() {
        let err = GeometryError::TooFewCoordinates {
            kind: "LineString",
            required: 2,
            actual: 1,
        };
        assert_eq!(
            err.to_string(),
            "LineString requires at least 2 coordinates, got 1"
        );
    }

    #[test]
    fn display_unclosed_ring() {
        assert!(GeometryError::UnclosedRing.to_string().contains("closed"));
    }

    #[test]
    fn display_non_finite() {
        let err = GeometryError::NonFiniteCoordinate {
            x: f64::NAN,
            y: 1.0,
        };
        assert!(err.to_string().contains("non-finite"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&GeometryError::UnclosedRing);
    }
}
