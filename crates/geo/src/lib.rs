//! Geospatial substrate for the crowd-sensing platform.
//!
//! This crate provides the low-level geographic primitives every other crate
//! in the workspace builds on:
//!
//! * [`GeoPoint`] — WGS-84 latitude/longitude points with great-circle
//!   (haversine) distance, bearing and destination computations;
//! * [`LocalProjection`] — a fast local east/north (equirectangular) tangent
//!   projection used to work in metric coordinates around a reference point;
//! * [`BoundingBox`] — axis-aligned geographic boxes;
//! * [`UniformGrid`] — a uniform metric cell index used for heat-maps and
//!   crowded-place analyses;
//! * [`PointIndex`] — a hash-grid neighbor index answering fixed-radius and
//!   nearest-neighbor queries with exact haversine results (the matching
//!   substrate of PRIVAPI's POI attack);
//! * [`polyline`] — algorithms on point sequences: length, interpolation,
//!   distance-regular resampling (the core primitive behind PRIVAPI's speed
//!   smoothing) and Douglas–Peucker simplification.
//!
//! # Example
//!
//! ```
//! use geo::{GeoPoint, Meters};
//!
//! let lille = GeoPoint::new(50.6292, 3.0573).unwrap();
//! let lyon = GeoPoint::new(45.7640, 4.8357).unwrap();
//! let d = lille.haversine_distance(&lyon);
//! assert!((d.get() - 558_000.0).abs() < 10_000.0); // ~558 km
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbox;
mod error;
mod grid;
mod index;
mod point;
mod projection;
mod units;

pub mod polyline;

pub use bbox::{BoundingBox, GRID_ANCHOR_MARGIN_DEG, GRID_ANCHOR_QUANTUM_DEG};
pub use error::GeoError;
pub use grid::{CellId, UniformGrid};
pub use index::PointIndex;
pub use point::{GeoPoint, EARTH_RADIUS_M};
pub use projection::{LocalProjection, ProjectedPoint, WebMercator};
pub use units::{Degrees, Kilometers, KmPerHour, Meters, MetersPerSecond, Radians};
