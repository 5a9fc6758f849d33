//! The identity (no protection) control strategy.

use crate::federated::StrategySpec;
use crate::strategy::{
    protect_each, AnonymizationStrategy, OutputIdentity, StrategyInfo, UserLocality,
};
use geo::BoundingBox;
use mobility::{Dataset, Trajectory};
use std::sync::Arc;

/// Publishes the dataset unchanged. Used as the utility upper bound and the
/// privacy lower bound in every experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Identity;

impl Identity {
    /// Creates the identity strategy.
    pub fn new() -> Self {
        Self
    }
}

impl AnonymizationStrategy for Identity {
    fn info(&self) -> StrategyInfo {
        StrategyInfo {
            name: "identity".into(),
            params: String::new(),
        }
    }

    fn anonymize(&self, dataset: &Dataset, seed: u64) -> Dataset {
        protect_each(self, dataset, seed)
    }

    /// The input itself: no copy, and nothing for the streaming store to
    /// keep.
    fn protect(
        &self,
        trajectory: &Arc<Trajectory>,
        _seed: u64,
        _anchor: Option<&BoundingBox>,
    ) -> Arc<Trajectory> {
        Arc::clone(trajectory)
    }

    /// The no-op trivially depends on nothing but the user's own records.
    fn locality(&self) -> UserLocality {
        UserLocality::UserLocal
    }

    fn spec(&self) -> Option<StrategySpec> {
        Some(StrategySpec::Identity)
    }

    fn output_identity(&self) -> Option<OutputIdentity> {
        self.spec().map(|spec| spec.identity([]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::GeoPoint;
    use mobility::{LocationRecord, Timestamp, UserId};

    #[test]
    fn output_equals_input() {
        let ds = Dataset::from_records(vec![LocationRecord::new(
            UserId(1),
            Timestamp::new(0),
            GeoPoint::new(45.0, 4.0).unwrap(),
        )]);
        let out = Identity::new().anonymize(&ds, 123);
        assert_eq!(out, ds);
    }

    #[test]
    fn info_is_bare() {
        assert_eq!(Identity::new().info().to_string(), "identity");
    }
}
