//! Spatial cloaking: grid generalization.
//!
//! Every fix is snapped to the centre of a square grid cell, so all points
//! within a cell become indistinguishable. A classic generalization baseline
//! for the utility-driven selector.

use crate::error::PrivapiError;
use crate::federated::StrategySpec;
use crate::strategy::{
    protect_each, AnonymizationStrategy, OutputIdentity, StrategyInfo, UserLocality,
};
use geo::{BoundingBox, Meters, UniformGrid};
use mobility::{Dataset, LocationRecord, Trajectory};
use std::ops::Bound;
use std::sync::Arc;

/// Grid-cloaking strategy with a configurable cell size.
///
/// By default the tessellation is anchored on the *dataset's* quantized
/// bounding box — fine centrally, where everyone sees the same dataset.
/// A federated deployment instead pins the broadcast anchor with
/// [`SpatialCloaking::with_anchor`], so a device cloaking against its own
/// (drifted, partial) local data still lands on exactly the central grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialCloaking {
    cell_size: Meters,
    anchor: Option<BoundingBox>,
}

impl SpatialCloaking {
    /// Creates the strategy with square cells of side `cell_size`.
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::InvalidParameter`] for a non-positive size or
    /// one above [`super::MAX_SCALE_M`].
    pub fn new(cell_size: Meters) -> Result<Self, PrivapiError> {
        let range = (Bound::Excluded(0.0), Bound::Included(super::MAX_SCALE_M));
        super::in_range("cell_size", cell_size.get(), range)?;
        Ok(Self {
            cell_size,
            anchor: None,
        })
    }

    /// Pins the tessellation to an explicit anchor box instead of deriving
    /// it from each dataset's own bounding box. The box is used verbatim —
    /// every party must pin the *same* bytes, so compute the canonical
    /// form once (e.g. [`BoundingBox::grid_anchor`] of the sensing region,
    /// which is what a federated gateway broadcasts) and distribute that.
    /// Re-normalizing here would shear the grid: `grid_anchor` pads before
    /// quantizing and is therefore not idempotent.
    ///
    /// With a pinned anchor the output no longer reads the dataset
    /// bounding box at all, so [`SpatialCloaking::locality`] strengthens
    /// to [`UserLocality::UserLocal`].
    pub fn with_anchor(mut self, anchor: BoundingBox) -> Self {
        self.anchor = Some(anchor);
        self
    }

    /// The pinned anchor, when cloaking was fixed to a broadcast grid.
    pub fn anchor(&self) -> Option<&BoundingBox> {
        self.anchor.as_ref()
    }

    /// The cloaking cell side.
    pub fn cell_size(&self) -> Meters {
        self.cell_size
    }
}

impl AnonymizationStrategy for SpatialCloaking {
    fn info(&self) -> StrategyInfo {
        // Anchored and free-floating instances cloak to different grids,
        // so the anchor is part of the identity (cache fingerprints must
        // not conflate them).
        let params = match &self.anchor {
            Some(a) => format!(
                "cell={:.0}m,anchor=({:.2},{:.2})",
                self.cell_size.get(),
                a.min().latitude(),
                a.min().longitude()
            ),
            None => format!("cell={:.0}m", self.cell_size.get()),
        };
        StrategyInfo {
            name: "spatial-cloaking".into(),
            params,
        }
    }

    fn anonymize(&self, dataset: &Dataset, seed: u64) -> Dataset {
        protect_each(self, dataset, seed)
    }

    /// Snaps every fix to the centre of its cell on the grid anchored on
    /// the pinned anchor ([`SpatialCloaking::with_anchor`]), else on
    /// `anchor` — the dataset's quantized box, so in a streaming session
    /// bounding-box drift inside the 0.05° lattice leaves the tessellation
    /// (and every cached output) untouched; the quantized span is never
    /// degenerate, so single-point datasets need no special case. Without
    /// either anchor (a record-less dataset) the trajectory is released as
    /// is.
    fn protect(
        &self,
        trajectory: &Arc<Trajectory>,
        _seed: u64,
        anchor: Option<&BoundingBox>,
    ) -> Arc<Trajectory> {
        let grid = self.anchor.as_ref().or(anchor);
        let Some(grid) = grid.and_then(|b| UniformGrid::new(*b, self.cell_size).ok()) else {
            return Arc::clone(trajectory);
        };
        let records: Vec<LocationRecord> = trajectory
            .records()
            .iter()
            .map(|r| {
                let cell = grid.cell_of(&r.point);
                LocationRecord::new(r.user, r.time, grid.cell_center(&cell))
            })
            .collect();
        Arc::new(Trajectory::new(trajectory.user(), records))
    }

    /// Snapping is per record, but the grid it snaps to is anchored on the
    /// **dataset** bounding box: user `u`'s output depends on `u`'s records
    /// plus that box. A window that widens the box shifts every cell
    /// boundary and invalidates every user's cached output. A *pinned*
    /// anchor removes the dataset dependence entirely, strengthening the
    /// contract to [`UserLocality::UserLocal`].
    fn locality(&self) -> UserLocality {
        match self.anchor {
            Some(_) => UserLocality::UserLocal,
            None => UserLocality::GridAnchored,
        }
    }

    fn spec(&self) -> Option<StrategySpec> {
        Some(StrategySpec::SpatialCloaking {
            cell_m: self.cell_size.get(),
        })
    }

    /// The spec plus the pinned anchor, which the spec leaves out.
    fn output_identity(&self) -> Option<OutputIdentity> {
        let corners = self.anchor.iter().flat_map(|a| [a.min(), a.max()]);
        let anchor = corners.flat_map(|p| [p.latitude().to_bits(), p.longitude().to_bits()]);
        self.spec().map(|spec| spec.identity(anchor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::GeoPoint;
    use mobility::{Timestamp, UserId};

    fn rec(user: u64, t: i64, lat: f64, lon: f64) -> LocationRecord {
        LocationRecord::new(
            UserId(user),
            Timestamp::new(t),
            GeoPoint::new(lat, lon).unwrap(),
        )
    }

    fn sample() -> Dataset {
        Dataset::from_records(vec![
            rec(1, 0, 45.7000, 4.8000),
            rec(1, 60, 45.7001, 4.8001), // same cell as above at 250 m
            rec(1, 120, 45.7300, 4.8300),
            rec(2, 0, 45.7500, 4.8500),
        ])
    }

    #[test]
    fn rejects_bad_cell_size() {
        assert!(SpatialCloaking::new(Meters::new(0.0)).is_err());
        assert!(SpatialCloaking::new(Meters::new(-2.0)).is_err());
        assert!(SpatialCloaking::new(Meters::new(f64::MAX)).is_err());
        assert!(SpatialCloaking::new(Meters::new(250.0)).is_ok());
    }

    #[test]
    fn nearby_points_collapse_to_same_position() {
        let mech = SpatialCloaking::new(Meters::new(250.0)).unwrap();
        let out = mech.anonymize(&sample(), 0);
        let recs = out.records_of(UserId(1));
        assert_eq!(recs[0].point, recs[1].point, "same cell must cloak equal");
        assert_ne!(recs[0].point, recs[2].point, "distant points stay apart");
    }

    #[test]
    fn displacement_bounded_by_cell_diagonal() {
        let mech = SpatialCloaking::new(Meters::new(250.0)).unwrap();
        let ds = sample();
        let out = mech.anonymize(&ds, 0);
        let max_displacement = 250.0 * std::f64::consts::SQRT_2 / 2.0 + 1.0;
        for (a, b) in ds.iter_records().zip(out.iter_records()) {
            let d = a.point.haversine_distance(&b.point).get();
            assert!(d <= max_displacement, "displaced {d} m");
        }
    }

    #[test]
    fn idempotent() {
        let mech = SpatialCloaking::new(Meters::new(250.0)).unwrap();
        let once = mech.anonymize(&sample(), 0);
        let twice = mech.anonymize(&once, 0);
        // Cloaked points are cell centres; re-cloaking maps them to
        // (approximately) themselves. Bounding box shrinks, so compare by
        // displacement rather than equality.
        for (a, b) in once.iter_records().zip(twice.iter_records()) {
            assert!(a.point.haversine_distance(&b.point).get() < 250.0);
        }
    }

    #[test]
    fn timestamps_and_counts_unchanged() {
        let mech = SpatialCloaking::new(Meters::new(100.0)).unwrap();
        let ds = sample();
        let out = mech.anonymize(&ds, 0);
        assert_eq!(out.record_count(), ds.record_count());
        for (a, b) in ds.iter_records().zip(out.iter_records()) {
            assert_eq!(a.time, b.time);
        }
    }

    #[test]
    fn empty_and_single_point_datasets() {
        let mech = SpatialCloaking::new(Meters::new(100.0)).unwrap();
        assert_eq!(mech.anonymize(&Dataset::new(), 0).record_count(), 0);
        let single = Dataset::from_records(vec![rec(1, 0, 45.0, 4.0)]);
        let out = mech.anonymize(&single, 0);
        assert_eq!(out.record_count(), 1);
    }

    #[test]
    fn info_mentions_cell() {
        let mech = SpatialCloaking::new(Meters::new(500.0)).unwrap();
        assert_eq!(mech.info().to_string(), "spatial-cloaking(cell=500m)");
        assert_eq!(mech.cell_size(), Meters::new(500.0));
    }

    #[test]
    fn anchored_instances_have_a_distinct_identity_and_stronger_locality() {
        let free = SpatialCloaking::new(Meters::new(250.0)).unwrap();
        let anchored = free.with_anchor(sample().bounding_box().unwrap());
        assert_eq!(free.locality(), UserLocality::GridAnchored);
        assert_eq!(anchored.locality(), UserLocality::UserLocal);
        assert_ne!(free.info(), anchored.info(), "anchor is part of identity");
        assert!(anchored.info().params.contains("anchor="));
        assert!(anchored.anchor().is_some());
    }

    /// Regression for the federated fix: a device cloaking its own
    /// trajectories — whose *local* bounding box has drifted well away
    /// from the population's — still lands byte-identically on the central
    /// grid, because the anchor is pinned from the broadcast config
    /// instead of derived from whatever data the device happens to see.
    #[test]
    fn pinned_anchor_matches_central_under_drifted_local_bbox() {
        let population = sample();
        let central_anchor = population.bounding_box().unwrap().grid_anchor();
        let central = SpatialCloaking::new(Meters::new(250.0))
            .unwrap()
            .anonymize(&population, 0);

        let device = SpatialCloaking::new(Meters::new(250.0))
            .unwrap()
            .with_anchor(central_anchor);
        let unpinned = SpatialCloaking::new(Meters::new(250.0)).unwrap();
        let mut sheared = false;
        for &user in &population.users() {
            // The device-local data: only this user's records, so its
            // bounding box is a strict (drifted) sub-box of the
            // population's.
            let local = Dataset::from_shared(population.shared_of(user));
            let local_box = local.bounding_box().unwrap();
            assert_ne!(
                local_box,
                population.bounding_box().unwrap(),
                "the premise: local bbox must actually drift"
            );
            for (input, want) in local.trajectories().iter().zip(&central.shared_of(user)) {
                let got = device.protect(input, 0, None);
                assert_eq!(got.records(), want.records(), "user {user:?} must match");
                // Negative control: anchoring on the drifted local box
                // instead shears the tessellation for at least one user.
                let drifted = unpinned.protect(input, 0, Some(&local_box.grid_anchor()));
                sheared |= drifted.records() != want.records();
            }
        }
        assert!(
            sheared,
            "negative control: local-bbox grids must actually drift for some user"
        );
    }
}
