//! Uniform metric grid index over a geographic bounding box.
//!
//! The grid is the workhorse behind heat-map style analyses (crowded places,
//! origin/destination traffic matrices): it maps every [`GeoPoint`] inside a
//! bounding box to a discrete [`CellId`], using a local metric projection so
//! cells are (approximately) square in metres rather than degrees.

use crate::bbox::BoundingBox;
use crate::error::GeoError;
use crate::point::GeoPoint;
use crate::projection::LocalProjection;
use crate::units::Meters;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Discrete grid-cell coordinates (column, row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId {
    /// Column index (west → east).
    pub ix: i32,
    /// Row index (south → north).
    pub iy: i32,
}

impl CellId {
    /// Creates a cell id from column and row indexes.
    pub const fn new(ix: i32, iy: i32) -> Self {
        Self { ix, iy }
    }

    /// The 8 neighbouring cells (diagonals included).
    pub fn neighbors(&self) -> [CellId; 8] {
        [
            CellId::new(self.ix - 1, self.iy - 1),
            CellId::new(self.ix, self.iy - 1),
            CellId::new(self.ix + 1, self.iy - 1),
            CellId::new(self.ix - 1, self.iy),
            CellId::new(self.ix + 1, self.iy),
            CellId::new(self.ix - 1, self.iy + 1),
            CellId::new(self.ix, self.iy + 1),
            CellId::new(self.ix + 1, self.iy + 1),
        ]
    }

    /// Chebyshev (chessboard) distance between two cells.
    pub fn chebyshev_distance(&self, other: &CellId) -> u32 {
        let dx = (self.ix - other.ix).unsigned_abs();
        let dy = (self.iy - other.iy).unsigned_abs();
        dx.max(dy)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell({}, {})", self.ix, self.iy)
    }
}

/// A uniform grid of square metric cells covering a bounding box.
///
/// # Example
///
/// ```
/// use geo::{BoundingBox, GeoPoint, Meters, UniformGrid};
///
/// let bbox = BoundingBox::new(
///     GeoPoint::new(45.70, 4.80).unwrap(),
///     GeoPoint::new(45.80, 4.90).unwrap(),
/// ).unwrap();
/// let grid = UniformGrid::new(bbox, Meters::new(250.0)).unwrap();
/// let cell = grid.cell_of(&GeoPoint::new(45.75, 4.85).unwrap());
/// assert_eq!(grid.cell_of(&grid.cell_center(&cell)), cell);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UniformGrid {
    bbox: BoundingBox,
    cell_size_m: f64,
    projection: LocalProjection,
}

impl UniformGrid {
    /// Creates a grid over `bbox` with square cells of side `cell_size`.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidSize`] when `cell_size` is not strictly
    /// positive.
    pub fn new(bbox: BoundingBox, cell_size: Meters) -> Result<Self, GeoError> {
        if cell_size.get() <= 0.0 || !cell_size.get().is_finite() {
            return Err(GeoError::InvalidSize(cell_size.get()));
        }
        Ok(Self {
            bbox,
            cell_size_m: cell_size.get(),
            projection: LocalProjection::new(bbox.min()),
        })
    }

    /// The grid's bounding box.
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// Side of a cell in metres.
    pub fn cell_size(&self) -> Meters {
        Meters::new(self.cell_size_m)
    }

    /// The cell containing `point`. Points outside the bounding box map to
    /// the (negative or overflowing) virtual cell they would occupy.
    pub fn cell_of(&self, point: &GeoPoint) -> CellId {
        let p = self.projection.project(point);
        CellId::new(
            (p.x / self.cell_size_m).floor() as i32,
            (p.y / self.cell_size_m).floor() as i32,
        )
    }

    /// Geographic centre of a cell.
    pub fn cell_center(&self, cell: &CellId) -> GeoPoint {
        let x = (cell.ix as f64 + 0.5) * self.cell_size_m;
        let y = (cell.iy as f64 + 0.5) * self.cell_size_m;
        self.projection
            .unproject(&crate::projection::ProjectedPoint::new(x, y))
    }

    /// Number of columns needed to cover the bounding box.
    pub fn columns(&self) -> u32 {
        let width = self
            .projection
            .project(&GeoPoint::clamped(
                self.bbox.min().latitude(),
                self.bbox.max().longitude(),
            ))
            .x;
        (width / self.cell_size_m).ceil().max(1.0) as u32
    }

    /// Number of rows needed to cover the bounding box.
    pub fn rows(&self) -> u32 {
        let height = self
            .projection
            .project(&GeoPoint::clamped(
                self.bbox.max().latitude(),
                self.bbox.min().longitude(),
            ))
            .y;
        (height / self.cell_size_m).ceil().max(1.0) as u32
    }

    /// Counts how many of `points` fall into each cell.
    pub fn histogram<'a, I>(&self, points: I) -> HashMap<CellId, u64>
    where
        I: IntoIterator<Item = &'a GeoPoint>,
    {
        let mut counts = HashMap::new();
        for p in points {
            *counts.entry(self.cell_of(p)).or_insert(0) += 1;
        }
        counts
    }

    /// The `k` most visited cells of a histogram, most-visited first.
    ///
    /// Ties are broken by cell id so the result is deterministic. The
    /// order (count descending, then cell) is total over distinct cells, so
    /// selecting the `k` first entries and sorting only those gives exactly
    /// the prefix of the fully sorted histogram.
    pub fn top_k(histogram: &HashMap<CellId, u64>, k: usize) -> Vec<(CellId, u64)> {
        let order = |a: &(CellId, u64), b: &(CellId, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        if k == 0 {
            return Vec::new();
        }
        let mut entries: Vec<(CellId, u64)> = histogram.iter().map(|(c, n)| (*c, *n)).collect();
        if k < entries.len() {
            entries.select_nth_unstable_by(k - 1, order);
            entries.truncate(k);
        }
        entries.sort_unstable_by(order);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> UniformGrid {
        let bbox = BoundingBox::new(
            GeoPoint::new(45.70, 4.80).unwrap(),
            GeoPoint::new(45.80, 4.90).unwrap(),
        )
        .unwrap();
        UniformGrid::new(bbox, Meters::new(250.0)).unwrap()
    }

    #[test]
    fn rejects_bad_cell_size() {
        let bbox = BoundingBox::new(
            GeoPoint::new(0.0, 0.0).unwrap(),
            GeoPoint::new(1.0, 1.0).unwrap(),
        )
        .unwrap();
        assert!(UniformGrid::new(bbox, Meters::new(0.0)).is_err());
        assert!(UniformGrid::new(bbox, Meters::new(-3.0)).is_err());
    }

    #[test]
    fn cell_center_roundtrip() {
        let g = grid();
        for &(lat, lon) in &[(45.71, 4.81), (45.75, 4.85), (45.7999, 4.8999)] {
            let p = GeoPoint::new(lat, lon).unwrap();
            let cell = g.cell_of(&p);
            assert_eq!(g.cell_of(&g.cell_center(&cell)), cell);
        }
    }

    #[test]
    fn min_corner_is_origin_cell() {
        let g = grid();
        assert_eq!(g.cell_of(&g.bbox().min()), CellId::new(0, 0));
    }

    #[test]
    fn nearby_points_share_cell_far_points_do_not() {
        let g = grid();
        let a = GeoPoint::new(45.7501, 4.8501).unwrap();
        let b = GeoPoint::new(45.7502, 4.8502).unwrap(); // ~15 m away
        let c = GeoPoint::new(45.7700, 4.8700).unwrap(); // km away
        assert_eq!(g.cell_of(&a), g.cell_of(&b));
        assert_ne!(g.cell_of(&a), g.cell_of(&c));
    }

    #[test]
    fn dimensions_cover_bbox() {
        let g = grid();
        // 0.1 deg of latitude is ~11.1 km → ~45 cells of 250 m.
        assert!(g.rows() >= 44 && g.rows() <= 46, "rows = {}", g.rows());
        assert!(
            g.columns() >= 29 && g.columns() <= 32,
            "cols = {}",
            g.columns()
        );
    }

    #[test]
    fn histogram_counts() {
        let g = grid();
        let a = GeoPoint::new(45.75, 4.85).unwrap();
        let b = GeoPoint::new(45.77, 4.87).unwrap();
        let pts = [a, a, a, b];
        let h = g.histogram(pts.iter());
        assert_eq!(h.len(), 2);
        assert_eq!(h[&g.cell_of(&a)], 3);
        assert_eq!(h[&g.cell_of(&b)], 1);
    }

    #[test]
    fn top_k_is_sorted_and_deterministic() {
        let mut h = HashMap::new();
        h.insert(CellId::new(0, 0), 5);
        h.insert(CellId::new(1, 0), 9);
        h.insert(CellId::new(2, 0), 5);
        h.insert(CellId::new(3, 0), 1);
        let top = UniformGrid::top_k(&h, 3);
        assert_eq!(top[0], (CellId::new(1, 0), 9));
        // Ties broken by cell id.
        assert_eq!(top[1], (CellId::new(0, 0), 5));
        assert_eq!(top[2], (CellId::new(2, 0), 5));
    }

    #[test]
    fn neighbors_and_chebyshev() {
        let c = CellId::new(4, 7);
        let n = c.neighbors();
        assert_eq!(n.len(), 8);
        for nb in &n {
            assert_eq!(c.chebyshev_distance(nb), 1);
        }
        assert_eq!(c.chebyshev_distance(&CellId::new(4, 7)), 0);
        assert_eq!(c.chebyshev_distance(&CellId::new(0, 0)), 7);
    }
}
