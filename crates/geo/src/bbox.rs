//! Axis-aligned geographic bounding boxes.

use crate::error::GeoError;
use crate::point::GeoPoint;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Lattice pitch (degrees) of the padded grid anchor
/// ([`BoundingBox::grid_anchor`]): anchor corners snap outward to multiples
/// of this quantum, so a data bounding box can wander anywhere inside the
/// current lattice cell without moving any grid anchored on it.
pub const GRID_ANCHOR_QUANTUM_DEG: f64 = 0.05;

/// Safety margin (degrees) applied before snapping in
/// [`BoundingBox::grid_anchor`]: data sitting exactly on a lattice line
/// still gets strictly padded, mirroring the legacy `expanded(0.001)`
/// tolerance the un-quantized grids used.
pub const GRID_ANCHOR_MARGIN_DEG: f64 = 0.001;

/// An axis-aligned bounding box in latitude/longitude space.
///
/// The box never crosses the antimeridian; callers working near ±180°
/// longitude should split their query into two boxes.
///
/// # Example
///
/// ```
/// use geo::{BoundingBox, GeoPoint};
///
/// let sw = GeoPoint::new(45.0, 4.0).unwrap();
/// let ne = GeoPoint::new(46.0, 5.0).unwrap();
/// let bbox = BoundingBox::new(sw, ne).unwrap();
/// assert!(bbox.contains(&GeoPoint::new(45.5, 4.5).unwrap()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    min: GeoPoint,
    max: GeoPoint,
}

impl BoundingBox {
    /// Creates a bounding box from its south-west and north-east corners.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidBoundingBox`] when `min` exceeds `max` on
    /// either axis.
    pub fn new(min: GeoPoint, max: GeoPoint) -> Result<Self, GeoError> {
        if min.latitude() > max.latitude() || min.longitude() > max.longitude() {
            return Err(GeoError::InvalidBoundingBox {
                min: min.to_string(),
                max: max.to_string(),
            });
        }
        Ok(Self { min, max })
    }

    /// Smallest box covering every point in `points`.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::EmptyPolyline`] when `points` is empty.
    pub fn from_points<'a, I>(points: I) -> Result<Self, GeoError>
    where
        I: IntoIterator<Item = &'a GeoPoint>,
    {
        let mut iter = points.into_iter();
        let first = iter.next().ok_or(GeoError::EmptyPolyline)?;
        let (mut min_lat, mut max_lat) = (first.latitude(), first.latitude());
        let (mut min_lon, mut max_lon) = (first.longitude(), first.longitude());
        for p in iter {
            min_lat = min_lat.min(p.latitude());
            max_lat = max_lat.max(p.latitude());
            min_lon = min_lon.min(p.longitude());
            max_lon = max_lon.max(p.longitude());
        }
        Ok(Self {
            min: GeoPoint::clamped(min_lat, min_lon),
            max: GeoPoint::clamped(max_lat, max_lon),
        })
    }

    /// South-west corner.
    pub fn min(&self) -> GeoPoint {
        self.min
    }

    /// North-east corner.
    pub fn max(&self) -> GeoPoint {
        self.max
    }

    /// Whether `point` lies inside the box (inclusive on all edges).
    pub fn contains(&self, point: &GeoPoint) -> bool {
        point.latitude() >= self.min.latitude()
            && point.latitude() <= self.max.latitude()
            && point.longitude() >= self.min.longitude()
            && point.longitude() <= self.max.longitude()
    }

    /// Smallest box covering both boxes.
    ///
    /// Exact: the union's corners are plain `min`/`max` folds of the two
    /// boxes' corners, so unioning per-batch boxes yields bit-identical
    /// corners to [`BoundingBox::from_points`] over the concatenated
    /// points — what lets an append-only dataset maintain its bounding
    /// box incrementally instead of rescanning every point.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        BoundingBox {
            min: GeoPoint::clamped(
                self.min.latitude().min(other.min.latitude()),
                self.min.longitude().min(other.min.longitude()),
            ),
            max: GeoPoint::clamped(
                self.max.latitude().max(other.max.latitude()),
                self.max.longitude().max(other.max.longitude()),
            ),
        }
    }

    /// Returns a copy grown by `margin_deg` degrees on every side.
    pub fn expanded(&self, margin_deg: f64) -> BoundingBox {
        BoundingBox {
            min: GeoPoint::clamped(
                self.min.latitude() - margin_deg,
                self.min.longitude() - margin_deg,
            ),
            max: GeoPoint::clamped(
                self.max.latitude() + margin_deg,
                self.max.longitude() + margin_deg,
            ),
        }
    }

    /// Snaps the box outward to a lattice with pitch `quantum_deg`, after
    /// padding by `margin_deg` on every side: each `min` coordinate rounds
    /// down to a multiple of the quantum, each `max` coordinate rounds up.
    ///
    /// The result is monotone (`a ⊆ b` implies `a.quantized(..) ⊆
    /// b.quantized(..)`) and idempotent for boxes already on the lattice
    /// with zero margin, and — the property streaming caches rely on — it
    /// is *stable under small growth*: widening a box changes its quantized
    /// form only when the padded box crosses a lattice line, so grids
    /// anchored on the quantized box survive most per-window bounding-box
    /// drift. The quantized span is always at least one quantum, so
    /// degenerate (single-point) boxes need no separate handling.
    pub fn quantized(&self, quantum_deg: f64, margin_deg: f64) -> BoundingBox {
        let down = |v: f64| ((v - margin_deg) / quantum_deg).floor() * quantum_deg;
        let up = |v: f64| ((v + margin_deg) / quantum_deg).ceil() * quantum_deg;
        BoundingBox {
            min: GeoPoint::clamped(down(self.min.latitude()), down(self.min.longitude())),
            max: GeoPoint::clamped(up(self.max.latitude()), up(self.max.longitude())),
        }
    }

    /// The canonical padded anchor box every grid in the pipeline is
    /// anchored on: [`BoundingBox::quantized`] with
    /// [`GRID_ANCHOR_QUANTUM_DEG`] and [`GRID_ANCHOR_MARGIN_DEG`].
    pub fn grid_anchor(&self) -> BoundingBox {
        self.quantized(GRID_ANCHOR_QUANTUM_DEG, GRID_ANCHOR_MARGIN_DEG)
    }

    /// Latitude extent in degrees.
    pub fn lat_span(&self) -> f64 {
        self.max.latitude() - self.min.latitude()
    }

    /// Longitude extent in degrees.
    pub fn lon_span(&self) -> f64 {
        self.max.longitude() - self.min.longitude()
    }
}

impl fmt::Display for BoundingBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn union_equals_from_points_over_concatenation() {
        let a = [p(45.1, 4.2), p(45.3, 4.9)];
        let b = [p(44.9, 4.5), p(45.2, 5.1)];
        let ab = BoundingBox::from_points(a.iter())
            .unwrap()
            .union(&BoundingBox::from_points(b.iter()).unwrap());
        let batch = BoundingBox::from_points(a.iter().chain(b.iter())).unwrap();
        assert_eq!(ab, batch);
        // Union with a contained box is the identity.
        assert_eq!(
            batch.union(&BoundingBox::from_points(a.iter()).unwrap()),
            batch
        );
    }

    #[test]
    fn rejects_inverted_corners() {
        assert!(BoundingBox::new(p(46.0, 4.0), p(45.0, 5.0)).is_err());
        assert!(BoundingBox::new(p(45.0, 5.0), p(46.0, 4.0)).is_err());
    }

    #[test]
    fn from_points_covers_all() {
        let pts = [p(1.0, 1.0), p(-1.0, 3.0), p(0.5, -2.0)];
        let bbox = BoundingBox::from_points(pts.iter()).unwrap();
        for q in &pts {
            assert!(bbox.contains(q));
        }
        assert_eq!(bbox.min().latitude(), -1.0);
        assert_eq!(bbox.max().longitude(), 3.0);
    }

    #[test]
    fn from_points_empty_errors() {
        assert_eq!(
            BoundingBox::from_points(std::iter::empty::<&GeoPoint>()),
            Err(GeoError::EmptyPolyline)
        );
    }

    #[test]
    fn contains_edges_inclusive() {
        let bbox = BoundingBox::new(p(0.0, 0.0), p(1.0, 1.0)).unwrap();
        assert!(bbox.contains(&p(0.0, 0.0)));
        assert!(bbox.contains(&p(1.0, 1.0)));
        assert!(!bbox.contains(&p(1.0001, 0.5)));
    }

    #[test]
    fn expanded_grows_box() {
        let a = BoundingBox::new(p(10.0, 10.0), p(11.0, 11.0)).unwrap();
        let e = a.expanded(0.5);
        assert!(e.contains(&p(9.6, 9.6)));
        assert!(e.contains(&p(11.4, 11.4)));
        assert!((e.lat_span() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn quantized_contains_padded_box_and_is_stable() {
        let a = BoundingBox::new(p(45.751, 4.801), p(45.762, 4.812)).unwrap();
        let q = a.grid_anchor();
        // Covers the data with margin to spare.
        assert!(q.contains(&p(45.751 - 0.001, 4.801 - 0.001)));
        assert!(q.contains(&p(45.762 + 0.001, 4.812 + 0.001)));
        // Corners sit on the lattice.
        for v in [
            q.min().latitude(),
            q.min().longitude(),
            q.max().latitude(),
            q.max().longitude(),
        ] {
            let cells = v / GRID_ANCHOR_QUANTUM_DEG;
            assert!((cells - cells.round()).abs() < 1e-9, "{v} off-lattice");
        }
        // Growth inside the same lattice cells does not move the anchor.
        let grown = a.union(&BoundingBox::new(p(45.755, 4.805), p(45.78, 4.83)).unwrap());
        assert_eq!(grown.grid_anchor(), q);
        // Growth past a lattice line does.
        let jumped = a.union(&BoundingBox::new(p(45.95, 5.10), p(45.96, 5.11)).unwrap());
        assert_ne!(jumped.grid_anchor(), q);
        assert!(jumped.grid_anchor().contains(&p(45.96, 5.11)));
        // Monotone: the bigger box's anchor contains the smaller one's.
        assert!(jumped.grid_anchor().contains(&q.min()));
        assert!(jumped.grid_anchor().contains(&q.max()));
    }

    #[test]
    fn quantized_span_never_degenerate() {
        let single = BoundingBox::new(p(45.75, 4.80), p(45.75, 4.80)).unwrap();
        let q = single.grid_anchor();
        assert!(q.lat_span() >= GRID_ANCHOR_QUANTUM_DEG - 1e-12);
        assert!(q.lon_span() >= GRID_ANCHOR_QUANTUM_DEG - 1e-12);
        // A point exactly on a lattice line still gets padded both ways.
        let on_line = BoundingBox::new(p(45.75, 4.80), p(45.75, 4.80)).unwrap();
        let q = on_line.quantized(0.05, 0.001);
        assert!(q.min().latitude() < 45.75);
        assert!(q.max().latitude() > 45.75);
    }
}
