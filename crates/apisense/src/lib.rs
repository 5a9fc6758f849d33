//! # APISENSE — a SaaS crowd-sensing middleware
//!
//! Reproduction of the APISENSE platform of the paper's §2: "a distributed
//! middleware platform that leverages the dynamic deployment of
//! crowdsourcing tasks across a population of mobile phones".
//!
//! Architecture (paper, Figure 1):
//!
//! ```text
//!  Honeycomb ──upload task──▶ Hive ──offload script──▶ mobile devices
//!      ▲                        │                           │
//!      └──────forward───────────┴◀───────records────────────┘
//! ```
//!
//! * [`honeycomb`] — experimenter endpoints: describe crowd-sensing tasks as
//!   scripts, receive and store collected datasets;
//! * [`hive`] — the central service managing the community of mobile users
//!   and publishing crowd-sensing tasks;
//! * [`script`] — the task-scripting DSL (the paper uses "an extension of
//!   JavaScript"; see `DESIGN.md` §2 for the substitution): lexer, parser
//!   and sandboxed tree-walking interpreter with a sensor host API;
//! * [`device`] — simulated smartphones: battery model, sensor suite backed
//!   by mobility trajectories, client runtime executing deployed scripts;
//! * [`privacy`] — the two privacy layers: the device-side filter ("filter
//!   out and blur sensitive information (e.g., address book, location)
//!   depending on user preferences") and the platform-side
//!   [`privacy::PublicationGateway`] releasing collected datasets through
//!   the PRIVAPI evaluation engine and its shared strategy pool;
//! * [`virtual_sensor`] — device-group orchestration with round-robin,
//!   energy-aware and coverage-aware retrieval strategies;
//! * [`incentives`] — user feedback, ranking, rewarding and win-win
//!   incentive strategies with a participation model;
//! * [`deploy`] — end-to-end campaigns over the [`simnet`] network
//!   simulator (experiment E4);
//! * [`collect`] — the reliable device→Hive ingestion endpoint:
//!   at-least-once day-batch delivery with (device, sequence) dedup,
//!   out-of-order buffering and straggler quarantine, so the publication
//!   stream's ascending-day contract holds by protocol under network
//!   faults. One lane core serves both raw and federated uploads;
//! * [`fleet`] — fault-injected fleet runs (experiments E13 and E15): a
//!   device population uploading through [`collect`] over
//!   [`simnet::FaultPlan`] chaos, with the fault-free partition as
//!   byte-identity oracle;
//! * [`campaigns`] — the multi-campaign publication surface: every
//!   deployed task mapped onto a [`campaign::Orchestrator`] campaign, so
//!   N concurrent tasks release daily over one shared population stream
//!   with the original-side attack extraction paid once;
//! * [`federated`] — device-local anonymization (experiment E15): the Hive
//!   broadcasts the winning strategy as a versioned config, devices
//!   anonymize their own day slices and upload only protected records
//!   through the [`collect`] lane core, and its protected payload
//!   quarantines stale-config and poisoned uploads while keeping the
//!   assembled release byte-identical to the central counterfactual.
//!
//! # Example
//!
//! ```
//! use apisense::honeycomb::ExperimentBuilder;
//! use apisense::script::Script;
//!
//! let script = Script::compile(r#"
//!     let fix = sensor.gps();
//!     emit({ "lat": fix.lat, "lon": fix.lon });
//! "#).unwrap();
//! let task = ExperimentBuilder::new("network-quality")
//!     .script(script)
//!     .sampling_interval_s(120)
//!     .build();
//! assert_eq!(task.name(), "network-quality");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod campaigns;
pub mod collect;
pub mod deploy;
pub mod device;
pub mod federated;
pub mod fleet;
pub mod hive;
pub mod honeycomb;
pub mod incentives;
pub mod privacy;
pub mod script;
pub mod virtual_sensor;

pub use error::ApisenseError;
