//! The PRIVAPI middleware facade.
//!
//! "PRIVAPI is a generic middleware that can be integrated with any
//! crowd-sensing platform. […] Thanks to its knowledge on the whole dataset
//! it can use an optimal anonymization strategy on mobility data while still
//! offering a satisfactory level of utility." (paper, §1)
//!
//! [`PrivApi::publish`] is the gate a platform calls before releasing a
//! collected mobility dataset: it extracts the dataset's own POI exposure,
//! searches the strategy pool for the best utility under the privacy floor,
//! and returns the protected dataset together with a full audit report.
//!
//! A deployment that releases every day instead publishes one window at a
//! time over a [`crate::streaming::Session`], the streaming state of one
//! population view: [`crate::streaming::StreamingPublisher`] owns one for
//! a single publisher, the `campaign` crate's orchestrator one per view
//! its campaigns read. Each streaming release is byte-identical to a
//! batch [`PrivApi::publish`] of the same prefix, which is why the batch
//! call stays: it is the reference every streaming parity test compares
//! against.

use crate::attack::{PoiAttack, PoiAttackReport};
use crate::engine::EvaluationEngine;
use crate::error::PrivapiError;
use crate::pool::StrategyPool;
use crate::selection::{Objective, SelectionReport};
use crate::strategy::StrategyInfo;
use geo::Meters;
use mobility::Dataset;

/// Configuration of the PRIVAPI middleware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivApiConfig {
    /// Maximum tolerated POI recall after protection, in `[0, 1]`.
    /// The paper: "a minimum level of privacy must be enforced, as
    /// parametrized by the users and/or the platform owner".
    pub privacy_floor: f64,
    /// The analysis the release is destined for (drives strategy choice).
    pub objective: Objective,
    /// Seed for all randomized mechanisms (reproducible releases).
    pub seed: u64,
}

impl Default for PrivApiConfig {
    /// Floor of 25 % POI recall, crowded-places objective on a 250 m grid.
    fn default() -> Self {
        Self {
            privacy_floor: 0.25,
            objective: Objective::CrowdedPlaces {
                cell: Meters::new(250.0),
                k: 20,
            },
            seed: 0x9817_AB1D,
        }
    }
}

/// A protected dataset plus the audit trail of how it was produced.
#[derive(Debug)]
pub struct PublishedDataset {
    /// The protected mobility data, safe to hand to analysts.
    pub dataset: Dataset,
    /// Which strategy was applied.
    pub strategy: StrategyInfo,
    /// The privacy measurement of the released data (self-attack).
    pub privacy: PoiAttackReport,
    /// Every candidate's evaluation.
    pub selection: SelectionReport,
}

/// The PRIVAPI middleware.
#[derive(Debug)]
pub struct PrivApi {
    config: PrivApiConfig,
    attack: PoiAttack,
    pool: StrategyPool,
}

impl PrivApi {
    /// Creates the middleware with the given configuration and the shared
    /// [`StrategyPool::default_pool`].
    pub fn new(config: PrivApiConfig) -> Self {
        Self {
            config,
            attack: PoiAttack::default(),
            pool: StrategyPool::default_pool(),
        }
    }

    /// Replaces the strategy pool searched on every publication.
    pub fn with_pool(mut self, pool: StrategyPool) -> Self {
        self.pool = pool;
        self
    }

    /// Replaces the attack used to measure POI exposure (e.g. with custom
    /// parameters, or an instrumented probe for extraction accounting).
    pub fn with_attack(mut self, attack: PoiAttack) -> Self {
        self.attack = attack;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &PrivApiConfig {
        &self.config
    }

    /// The strategy pool searched on every publication.
    pub fn pool(&self) -> &StrategyPool {
        &self.pool
    }

    /// The attack measuring POI exposure (its extraction counter is shared
    /// with the engine's workers, so [`crate::attack::PoiAttack::extractions`]
    /// accounts for the whole publish path).
    pub fn attack(&self) -> &PoiAttack {
        &self.attack
    }

    /// Protects and publishes a collected mobility dataset.
    ///
    /// The pool is searched by the parallel [`EvaluationEngine`] against
    /// per-objective projections of the dataset computed once per call.
    /// The dataset's own POI exposure (the "global knowledge" reference the
    /// self-attack scores against) is extracted **exactly once**, inside
    /// the engine's evaluation context — enforced by a counting test, not
    /// just by construction.
    ///
    /// # Example
    ///
    /// ```
    /// use mobility::gen::{CityModel, PopulationConfig};
    /// use privapi::prelude::*;
    ///
    /// let data = CityModel::builder().seed(9).build().generate_population(
    ///     &PopulationConfig { users: 3, days: 2, ..PopulationConfig::default() },
    /// );
    /// let privapi = PrivApi::default();
    /// let release = privapi.publish(&data).unwrap();
    /// assert!(release.privacy.recall <= privapi.config().privacy_floor + 1e-9);
    /// assert_eq!(release.dataset.user_count(), data.user_count());
    /// println!("released under {}", release.strategy);
    /// ```
    ///
    /// # Errors
    ///
    /// * [`PrivapiError::EmptyDataset`] for an empty input;
    /// * [`PrivapiError::NoFeasibleStrategy`] when no pooled strategy can
    ///   meet the privacy floor on this dataset.
    pub fn publish(&self, dataset: &Dataset) -> Result<PublishedDataset, PrivapiError> {
        if dataset.record_count() == 0 {
            return Err(PrivapiError::EmptyDataset);
        }
        let mut span = obs::span("privapi.publish");
        span.set_attr("records", dataset.record_count());
        let (selection, winner) = self
            .engine()
            .evaluate_release_extracting(&self.pool, dataset)?;
        let Some(winner) = winner else {
            return Err(selection.no_feasible_error());
        };
        Ok(self.assemble(selection, winner))
    }

    /// The evaluation engine both publish paths drive, configured
    /// with this middleware's objective, floor, seed and attack.
    pub(crate) fn engine(&self) -> EvaluationEngine {
        EvaluationEngine::new(
            self.config.objective,
            self.config.privacy_floor,
            self.config.seed,
        )
        .with_attack(self.attack.clone())
    }

    /// Folds a winning release into the published audit record.
    pub(crate) fn assemble(
        &self,
        selection: SelectionReport,
        winner: crate::engine::WinnerRelease,
    ) -> PublishedDataset {
        let strategy = self.pool.get(winner.index).expect("chosen index in pool");
        PublishedDataset {
            dataset: winner.dataset,
            strategy: strategy.info(),
            privacy: winner.privacy,
            selection,
        }
    }
}

impl Default for PrivApi {
    fn default() -> Self {
        Self::new(PrivApiConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobility::gen::{CityModel, PopulationConfig};

    fn dataset() -> Dataset {
        CityModel::builder()
            .seed(29)
            .build()
            .generate_population(&PopulationConfig {
                users: 4,
                days: 3,
                sampling_interval_s: 120,
                gps_noise_m: 5.0,
                leisure_probability: 0.4,
            })
    }

    #[test]
    fn publish_meets_privacy_floor() {
        let privapi = PrivApi::default();
        let published = privapi.publish(&dataset()).unwrap();
        assert!(
            published.privacy.recall <= privapi.config().privacy_floor + 1e-9,
            "published recall {} above floor",
            published.privacy.recall
        );
        assert!(!published.strategy.name.is_empty());
        assert!(published.selection.winner().is_some());
    }

    #[test]
    fn publish_preserves_users() {
        let ds = dataset();
        let published = PrivApi::default().publish(&ds).unwrap();
        assert_eq!(published.dataset.user_count(), ds.user_count());
    }

    #[test]
    fn publish_rejects_empty() {
        assert!(matches!(
            PrivApi::default().publish(&Dataset::new()),
            Err(PrivapiError::EmptyDataset)
        ));
    }

    #[test]
    fn publish_extracts_original_exactly_once() {
        // The invariant behind the EvalContext fold: one publish performs
        // exactly one full-dataset extraction of the *original* (inside the
        // extracting context) plus one per candidate self-attack — nothing
        // more. A regression that re-extracts the original (the legacy
        // double-extraction) shows up as pool_size + 2.
        let privapi = PrivApi::default();
        let ds = dataset();
        assert_eq!(privapi.attack().extractions(), 0);
        privapi.publish(&ds).unwrap();
        assert_eq!(
            privapi.attack().extractions(),
            privapi.pool().len() + 1,
            "expected exactly one original-side extraction plus one per candidate"
        );
        // And the accounting is per publish, not cumulative drift.
        privapi.publish(&ds).unwrap();
        assert_eq!(
            privapi.attack().extractions(),
            2 * (privapi.pool().len() + 1)
        );
    }

    #[test]
    fn identity_is_never_chosen() {
        // The default pool intentionally excludes Identity; even so, the
        // chosen strategy must actually reduce recall vs. raw.
        let ds = dataset();
        let privapi = PrivApi::default();
        let raw_reference = privapi.attack.extract(&ds);
        let raw_self = privapi.attack.evaluate_reference(&ds, &raw_reference);
        let published = privapi.publish(&ds).unwrap();
        assert!(published.privacy.recall < raw_self.recall);
    }
}
