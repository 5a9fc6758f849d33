//! WGS-84 geographic points and great-circle geometry.

use crate::error::GeoError;
use crate::units::{Degrees, Meters};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Mean Earth radius in metres (IUGG value), used by all haversine math.
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A point on the WGS-84 ellipsoid, expressed in decimal degrees.
///
/// Invariant: latitude in `[-90, 90]`, longitude in `[-180, 180]`, both
/// finite. Enforced by [`GeoPoint::new`].
///
/// # Example
///
/// ```
/// use geo::GeoPoint;
///
/// let p = GeoPoint::new(48.8566, 2.3522).unwrap(); // Paris
/// assert!(p.latitude() > 48.0 && p.longitude() < 3.0);
/// assert!(GeoPoint::new(95.0, 0.0).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Creates a point from a latitude and longitude in decimal degrees.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLatitude`] / [`GeoError::InvalidLongitude`]
    /// when out of range and [`GeoError::NonFiniteCoordinate`] for NaN or
    /// infinite inputs.
    pub fn new(lat: f64, lon: f64) -> Result<Self, GeoError> {
        if !lat.is_finite() || !lon.is_finite() {
            return Err(GeoError::NonFiniteCoordinate);
        }
        if !(-90.0..=90.0).contains(&lat) {
            return Err(GeoError::InvalidLatitude(lat));
        }
        if !(-180.0..=180.0).contains(&lon) {
            return Err(GeoError::InvalidLongitude(lon));
        }
        Ok(Self { lat, lon })
    }

    /// Creates a point, clamping latitude to `[-90, 90]` and wrapping
    /// longitude into `[-180, 180]`.
    ///
    /// This is the forgiving constructor used when perturbation mechanisms
    /// push coordinates slightly out of range.
    ///
    /// # Panics
    ///
    /// Panics if either input is NaN or infinite.
    pub fn clamped(lat: f64, lon: f64) -> Self {
        assert!(
            lat.is_finite() && lon.is_finite(),
            "clamped() requires finite coordinates"
        );
        let lat = lat.clamp(-90.0, 90.0);
        // Only wrap when out of range: the wrap arithmetic is not exact and
        // would perturb in-range values by ~1e-14 degrees, which breaks
        // grids anchored on exact coordinates.
        let lon = if (-180.0..=180.0).contains(&lon) {
            lon
        } else {
            let wrapped = (lon + 180.0).rem_euclid(360.0) - 180.0;
            if wrapped == -180.0 {
                180.0
            } else {
                wrapped
            }
        };
        Self { lat, lon }
    }

    /// Latitude in decimal degrees.
    pub fn latitude(&self) -> f64 {
        self.lat
    }

    /// Longitude in decimal degrees.
    pub fn longitude(&self) -> f64 {
        self.lon
    }

    /// Great-circle (haversine) distance to another point.
    ///
    /// ```
    /// use geo::GeoPoint;
    /// let a = GeoPoint::new(0.0, 0.0).unwrap();
    /// let b = GeoPoint::new(0.0, 1.0).unwrap();
    /// // One degree of longitude at the equator is ~111.2 km.
    /// assert!((a.haversine_distance(&b).get() - 111_195.0).abs() < 100.0);
    /// ```
    pub fn haversine_distance(&self, other: &GeoPoint) -> Meters {
        self.haversine_distance_cos(other, self.cos_latitude(), other.cos_latitude())
    }

    /// The cosine of the latitude, the per-point factor of
    /// [`GeoPoint::haversine_distance`].
    pub fn cos_latitude(&self) -> f64 {
        self.lat.to_radians().cos()
    }

    /// [`GeoPoint::haversine_distance`] given both points'
    /// [`GeoPoint::cos_latitude`], for callers measuring many pairs over the
    /// same points: the result is bit-identical, and each cosine is
    /// computed once per point instead of once per pair.
    pub fn haversine_distance_cos(
        &self,
        other: &GeoPoint,
        cos_self: f64,
        cos_other: f64,
    ) -> Meters {
        let dphi = (other.lat - self.lat).to_radians();
        let dlambda = (other.lon - self.lon).to_radians();
        let a =
            (dphi / 2.0).sin().powi(2) + cos_self * cos_other * (dlambda / 2.0).sin().powi(2);
        let c = 2.0 * a.sqrt().asin();
        Meters::new(EARTH_RADIUS_M * c)
    }

    /// Initial bearing from this point towards `other`, in `[0, 360)` degrees.
    pub fn bearing_to(&self, other: &GeoPoint) -> Degrees {
        let phi1 = self.lat.to_radians();
        let phi2 = other.lat.to_radians();
        let dlambda = (other.lon - self.lon).to_radians();
        let y = dlambda.sin() * phi2.cos();
        let x = phi1.cos() * phi2.sin() - phi1.sin() * phi2.cos() * dlambda.cos();
        Degrees::new(y.atan2(x).to_degrees()).normalized()
    }

    /// Destination point reached by travelling `distance` along `bearing`.
    pub fn destination(&self, bearing: Degrees, distance: Meters) -> GeoPoint {
        let theta = bearing.get().to_radians();
        let phi1 = self.lat.to_radians();
        self.destination_sin_cos(
            (phi1.sin(), phi1.cos()),
            (theta.sin(), theta.cos()),
            distance,
        )
    }

    /// [`GeoPoint::destination`] given the sine and cosine of this point's
    /// latitude and of the bearing, both in radians, for callers moving one
    /// point along one bearing by several distances: the result is
    /// bit-identical, and the four are computed once instead of once per
    /// distance.
    pub fn destination_sin_cos(
        &self,
        (sin_phi1, cos_phi1): (f64, f64),
        (sin_theta, cos_theta): (f64, f64),
        distance: Meters,
    ) -> GeoPoint {
        let delta = distance.get() / EARTH_RADIUS_M;
        let (sin_delta, cos_delta) = (delta.sin(), delta.cos());
        let lambda1 = self.lon.to_radians();
        let phi2 = (sin_phi1 * cos_delta + cos_phi1 * sin_delta * cos_theta).asin();
        let lambda2 = lambda1
            + (sin_theta * sin_delta * cos_phi1).atan2(cos_delta - sin_phi1 * phi2.sin());
        GeoPoint::clamped(phi2.to_degrees(), lambda2.to_degrees())
    }

    /// Point halfway along the great circle between two points.
    pub fn midpoint(&self, other: &GeoPoint) -> GeoPoint {
        let phi1 = self.lat.to_radians();
        let phi2 = other.lat.to_radians();
        let lambda1 = self.lon.to_radians();
        let dlambda = (other.lon - self.lon).to_radians();
        let bx = phi2.cos() * dlambda.cos();
        let by = phi2.cos() * dlambda.sin();
        let phi3 =
            (phi1.sin() + phi2.sin()).atan2(((phi1.cos() + bx).powi(2) + by.powi(2)).sqrt());
        let lambda3 = lambda1 + by.atan2(phi1.cos() + bx);
        GeoPoint::clamped(phi3.to_degrees(), lambda3.to_degrees())
    }

    /// Linear interpolation between two points at fraction `t` in `[0, 1]`.
    ///
    /// Uses direct lat/lon interpolation, which is accurate for the short
    /// (metre-to-kilometre scale) segments found in mobility traces.
    pub fn lerp(&self, other: &GeoPoint, t: f64) -> GeoPoint {
        let t = t.clamp(0.0, 1.0);
        GeoPoint::clamped(
            self.lat + (other.lat - self.lat) * t,
            self.lon + (other.lon - self.lon) * t,
        )
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            GeoPoint::new(91.0, 0.0),
            Err(GeoError::InvalidLatitude(91.0))
        );
        assert_eq!(
            GeoPoint::new(0.0, -181.0),
            Err(GeoError::InvalidLongitude(-181.0))
        );
        assert_eq!(
            GeoPoint::new(f64::NAN, 0.0),
            Err(GeoError::NonFiniteCoordinate)
        );
    }

    #[test]
    fn clamped_wraps_longitude() {
        let q = GeoPoint::clamped(12.0, 190.0);
        assert!((q.longitude() - (-170.0)).abs() < 1e-9);
        let r = GeoPoint::clamped(95.0, 0.0);
        assert_eq!(r.latitude(), 90.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = p(45.0, 5.0);
        assert_eq!(a.haversine_distance(&a).get(), 0.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = p(50.6292, 3.0573);
        let b = p(45.7640, 4.8357);
        let d1 = a.haversine_distance(&b).get();
        let d2 = b.haversine_distance(&a).get();
        assert!((d1 - d2).abs() < 1e-6);
        assert!((d1 - 558_000.0).abs() < 10_000.0);
    }

    #[test]
    fn bearing_cardinal_directions() {
        let origin = p(0.0, 0.0);
        assert!((origin.bearing_to(&p(1.0, 0.0)).get() - 0.0).abs() < 1e-6);
        assert!((origin.bearing_to(&p(0.0, 1.0)).get() - 90.0).abs() < 1e-6);
        assert!((origin.bearing_to(&p(-1.0, 0.0)).get() - 180.0).abs() < 1e-6);
        assert!((origin.bearing_to(&p(0.0, -1.0)).get() - 270.0).abs() < 1e-6);
    }

    #[test]
    fn destination_roundtrip() {
        let start = p(48.8566, 2.3522);
        let dest = start.destination(Degrees::new(45.0), Meters::new(1000.0));
        let d = start.haversine_distance(&dest).get();
        assert!((d - 1000.0).abs() < 1.0, "distance was {d}");
        let back =
            dest.destination(Degrees::new(dest.bearing_to(&start).get()), Meters::new(d));
        assert!(start.haversine_distance(&back).get() < 1.0);
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = p(0.0, 0.0);
        let b = p(0.0, 2.0);
        let m = a.midpoint(&b);
        assert!((m.longitude() - 1.0).abs() < 1e-6);
        let da = a.haversine_distance(&m).get();
        let db = b.haversine_distance(&m).get();
        assert!((da - db).abs() < 1.0);
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = p(10.0, 10.0);
        let b = p(11.0, 12.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert!((mid.latitude() - 10.5).abs() < 1e-9);
        assert!((mid.longitude() - 11.0).abs() < 1e-9);
        // Out-of-range t is clamped.
        assert_eq!(a.lerp(&b, -3.0), a);
        assert_eq!(a.lerp(&b, 7.0), b);
    }

    #[test]
    fn display_format() {
        assert_eq!(p(1.5, -2.25).to_string(), "(1.500000, -2.250000)");
    }
}
