//! Error type for geospatial operations.

use std::error::Error;
use std::fmt;

/// Errors produced by geospatial primitives.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoError {
    /// A latitude was outside the `[-90, 90]` range.
    InvalidLatitude(f64),
    /// A longitude was outside the `[-180, 180]` range.
    InvalidLongitude(f64),
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate,
    /// A bounding box was constructed with min > max.
    InvalidBoundingBox {
        /// Offending minimum corner description.
        min: String,
        /// Offending maximum corner description.
        max: String,
    },
    /// An operation required a non-empty sequence of points.
    EmptyPolyline,
    /// A grid, index or resampling step was given a non-positive size.
    InvalidSize(f64),
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoError::InvalidLatitude(v) => {
                write!(f, "latitude {v} outside [-90, 90]")
            }
            GeoError::InvalidLongitude(v) => {
                write!(f, "longitude {v} outside [-180, 180]")
            }
            GeoError::NonFiniteCoordinate => write!(f, "coordinate was NaN or infinite"),
            GeoError::InvalidBoundingBox { min, max } => {
                write!(f, "invalid bounding box: min {min} exceeds max {max}")
            }
            GeoError::EmptyPolyline => write!(f, "operation requires a non-empty polyline"),
            GeoError::InvalidSize(v) => write!(f, "size {v} must be strictly positive"),
        }
    }
}

impl Error for GeoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            GeoError::InvalidLatitude(95.0).to_string(),
            "latitude 95 outside [-90, 90]"
        );
        assert_eq!(
            GeoError::EmptyPolyline.to_string(),
            "operation requires a non-empty polyline"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<GeoError>();
    }
}
