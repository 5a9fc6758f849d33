//! # PRIVAPI — utility-driven privacy-preserving publication of mobility data
//!
//! This crate is the paper's primary contribution: "a generic middleware
//! that can be integrated with any crowd-sensing platform […] it can use an
//! optimal anonymization strategy on mobility data while still offering a
//! satisfactory level of utility" (paper, §1, §3).
//!
//! The crate provides:
//!
//! * [`strategy::AnonymizationStrategy`] — the pluggable mechanism trait,
//!   with implementations in [`strategies`]:
//!   * [`strategies::SpeedSmoothing`] — the paper's novel strategy: resample
//!     each trajectory at constant speed, hiding every place the user
//!     stopped;
//!   * [`strategies::GeoIndistinguishability`] — the differentially private
//!     planar-Laplace baseline the paper's 60 % re-identification claim was
//!     measured against;
//!   * [`strategies::SpatialCloaking`], [`strategies::GaussianPerturbation`],
//!     [`strategies::TemporalDownsampling`], [`strategies::Identity`] —
//!     classic baselines used by the utility-driven selector;
//! * [`attack`] — POI extraction and re-identification attacks used to
//!   *measure* privacy;
//! * [`metrics`] — spatial-distortion, crowded-places and traffic-forecast
//!   utility metrics;
//! * [`selection`] — what the utility-driven strategy search under a
//!   privacy floor reports;
//! * [`pool`] — the shared registry of candidate-strategy pools;
//! * [`engine`] — the parallel, cache-aware evaluation engine behind the
//!   search;
//! * [`pipeline`] — the [`pipeline::PrivApi`] middleware facade a platform
//!   (e.g. APISENSE) plugs in before releasing datasets: one batch call,
//!   [`pipeline::PrivApi::publish`], with its streaming counterpart in
//!   [`streaming`];
//! * [`federated`] — the device-local release contract: serializable
//!   [`federated::StrategySpec`]/[`federated::StrategyConfig`] broadcast
//!   frames, deterministic calibration-cohort selection, and the
//!   server-side [`federated::FederatedSession`] that re-assembles
//!   per-device protected uploads byte-identically to a central release;
//! * [`streaming`] — day-windowed incremental publication over a
//!   [`streaming::Session`], the state of one population view under one
//!   set of extraction parameters: the original-side
//!   [`streaming::PopulationCache`] reuses per-user attack shards and the
//!   reference index across releases, and the per-candidate
//!   [`streaming::StrategySessionCache`] extends the same reuse to every
//!   pooled strategy's protected data and self-attack shards, per the
//!   [`strategy::UserLocality`] contract each strategy declares, refreshing
//!   each candidate once per window for every publisher that reads it; both
//!   read and fill one [`streaming::WorkStore`], so sessions over shared
//!   inputs compute each output, shard and utility contribution once.
//!   [`streaming::StreamingPublisher`] is one publisher with a session of
//!   its own.
//!
//! # Example
//!
//! ```
//! use mobility::gen::{CityModel, PopulationConfig};
//! use privapi::prelude::*;
//!
//! let city = CityModel::builder().seed(3).build();
//! let data = city.generate_with_truth(&PopulationConfig {
//!     users: 4,
//!     days: 2,
//!     sampling_interval_s: 120,
//!     ..PopulationConfig::default()
//! });
//!
//! // The paper's novel mechanism: constant-speed resampling.
//! let strategy = SpeedSmoothing::new(geo::Meters::new(100.0)).unwrap();
//! let protected = strategy.anonymize(&data.dataset, 42);
//!
//! // Attack the protected dataset and measure what leaked.
//! let attack = PoiAttack::default();
//! let report = attack.evaluate(&protected, &data.truth);
//! assert!(report.recall <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod attack;
pub mod engine;
pub mod federated;
pub mod metrics;
pub mod pipeline;
pub mod pool;
pub mod selection;
pub mod strategies;
pub mod strategy;
pub mod streaming;

pub use error::PrivapiError;

/// Convenient single-import surface for the common PRIVAPI workflow.
pub mod prelude {
    pub use crate::attack::{
        BackgroundProfiles, ExtractionMemo, ExtractionPath, PoiAttack, PoiAttackConfig,
        PoiAttackReport, ReferenceIndex, ReidentificationAttack, UserAttackShard,
    };
    pub use crate::engine::{choose_winner, EvalContext, EvaluationEngine, WinnerRelease};
    pub use crate::federated::{
        calibration_cohort, central_release, FederatedSession, FederationDelta,
        FederationPolicy, StrategyConfig, StrategySpec,
    };
    pub use crate::metrics::{
        crowded_places_utility, spatial_distortion, traffic_utility, CrowdedPlacesReport,
        DistortionReport, TrafficReport,
    };
    pub use crate::pipeline::{PrivApi, PrivApiConfig, PublishedDataset};
    pub use crate::pool::StrategyPool;
    pub use crate::selection::{Objective, SelectionReport};
    pub use crate::strategies::{
        GaussianPerturbation, GeoIndistinguishability, Identity, SpatialCloaking,
        SpeedSmoothing, TemporalDownsampling,
    };
    pub use crate::strategy::{AnonymizationStrategy, StrategyInfo, UserLocality};
    pub use crate::streaming::{
        CandidateDelta, IngestDelta, PopulationCache, PublishedWindow, Session,
        StrategyCacheDelta, StrategySessionCache, StreamingPublisher, WindowDelta, WorkStore,
    };
}
