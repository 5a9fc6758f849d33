//! Temporal downsampling: publish at most one fix per time window.

use crate::error::PrivapiError;
use crate::federated::StrategySpec;
use crate::strategy::{
    protect_each, AnonymizationStrategy, OutputIdentity, StrategyInfo, UserLocality,
};
use geo::BoundingBox;
use mobility::{Dataset, LocationRecord, Trajectory};
use std::sync::Arc;

/// Keeps at most one record per `window_s`-second window per trajectory.
///
/// Reduces the attacker's dwell evidence while thinning the dataset; a
/// bandwidth-saving baseline commonly applied by crowd-sensing clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalDownsampling {
    window_s: i64,
}

impl TemporalDownsampling {
    /// Creates the strategy with the given minimum spacing between records.
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::InvalidParameter`] for non-positive windows.
    pub fn new(window_s: i64) -> Result<Self, PrivapiError> {
        if window_s <= 0 {
            return Err(PrivapiError::InvalidParameter {
                name: "window_s",
                value: format!("{window_s}"),
            });
        }
        Ok(Self { window_s })
    }

    /// The minimum spacing between published records, in seconds.
    pub fn window_s(&self) -> i64 {
        self.window_s
    }
}

impl AnonymizationStrategy for TemporalDownsampling {
    fn info(&self) -> StrategyInfo {
        StrategyInfo {
            name: "temporal-downsampling".into(),
            params: format!("window={}s", self.window_s),
        }
    }

    fn anonymize(&self, dataset: &Dataset, seed: u64) -> Dataset {
        protect_each(self, dataset, seed)
    }

    fn protect(
        &self,
        trajectory: &Arc<Trajectory>,
        _seed: u64,
        _anchor: Option<&BoundingBox>,
    ) -> Arc<Trajectory> {
        let mut kept: Vec<LocationRecord> = Vec::new();
        for r in trajectory.records() {
            match kept.last() {
                Some(last) if r.time - last.time < self.window_s => {}
                _ => kept.push(*r),
            }
        }
        Arc::new(Trajectory::new(trajectory.user(), kept))
    }

    /// Thinning is deterministic per trajectory: user `u`'s output depends
    /// only on `u`'s own records.
    fn locality(&self) -> UserLocality {
        UserLocality::UserLocal
    }

    fn spec(&self) -> Option<StrategySpec> {
        Some(StrategySpec::TemporalDownsampling {
            window_s: self.window_s(),
        })
    }

    fn output_identity(&self) -> Option<OutputIdentity> {
        self.spec().map(|spec| spec.identity([]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::GeoPoint;
    use mobility::{Timestamp, UserId};

    fn traj(times: &[i64]) -> Trajectory {
        Trajectory::new(
            UserId(1),
            times
                .iter()
                .map(|&t| {
                    LocationRecord::new(
                        UserId(1),
                        Timestamp::new(t),
                        GeoPoint::new(45.0, 4.0).unwrap(),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn rejects_bad_window() {
        assert!(TemporalDownsampling::new(0).is_err());
        assert!(TemporalDownsampling::new(-10).is_err());
        assert!(TemporalDownsampling::new(300).is_ok());
    }

    #[test]
    fn keeps_first_and_spaced_records() {
        let mech = TemporalDownsampling::new(300).unwrap();
        let ds = Dataset::from_trajectories(vec![traj(&[0, 60, 120, 300, 400, 900])]);
        let out = mech.anonymize(&ds, 0);
        let times: Vec<i64> = out.iter_records().map(|r| r.time.seconds()).collect();
        assert_eq!(times, vec![0, 300, 900]);
    }

    #[test]
    fn window_larger_than_span_keeps_one() {
        let mech = TemporalDownsampling::new(10_000).unwrap();
        let ds = Dataset::from_trajectories(vec![traj(&[0, 60, 120])]);
        assert_eq!(mech.anonymize(&ds, 0).record_count(), 1);
    }

    #[test]
    fn already_sparse_data_untouched() {
        let mech = TemporalDownsampling::new(60).unwrap();
        let ds = Dataset::from_trajectories(vec![traj(&[0, 60, 120, 180])]);
        assert_eq!(mech.anonymize(&ds, 0).record_count(), 4);
    }

    #[test]
    fn empty_dataset() {
        let mech = TemporalDownsampling::new(60).unwrap();
        assert_eq!(mech.anonymize(&Dataset::new(), 0).record_count(), 0);
    }

    #[test]
    fn info_string() {
        let mech = TemporalDownsampling::new(120).unwrap();
        assert_eq!(
            mech.info().to_string(),
            "temporal-downsampling(window=120s)"
        );
        assert_eq!(mech.window_s(), 120);
    }
}
