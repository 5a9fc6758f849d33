//! # campaign — multi-campaign orchestration over a shared population
//!
//! The paper deploys PRIVAPI inside APISENSE, a platform that runs *many*
//! crowd-sensing campaigns at once over the same user community — yet a
//! [`privapi::streaming::StreamingPublisher`] serves exactly one campaign
//! per session. This crate multiplexes them: a [`CampaignRegistry`] of
//! concurrent [`Campaign`]s — each with its own objective, privacy floor,
//! seed, strategy pool, attack parameters, participant filter and
//! lifetime — driven by an [`Orchestrator`] over one day-window stream,
//! with the original-side extraction and the candidate refreshes
//! **shared** across campaigns instead of repeated per campaign.
//!
//! What is shared and what is not:
//!
//! * same extraction parameters + full population → one shared session,
//!   K campaigns read it (the per-user extraction cost is ~1/K of running
//!   K independent publishers), whatever their matching distances;
//! * same session + same candidate, seed and objective → one candidate
//!   state (anonymization, self-attack, utility fold), refreshed once per
//!   window; each campaign only matches it against its own reference
//!   index and privacy floor;
//! * same extraction parameters + user-subset filter → a private session
//!   that is *served* shards, outputs and contributions from the work
//!   store whenever the extraction grids agree;
//! * different extraction parameters → the campaign pays exactly its own
//!   original-side pass, nothing more.
//!
//! Every campaign's releases stay **byte-identical** to running that
//! campaign alone through a `StreamingPublisher` on its filtered stream
//! (property-tested across seeds, sparse participation and subset
//! filters).
//!
//! See [`Orchestrator`] for the end-to-end example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod orchestrator;
mod registry;

pub use campaign::{Campaign, CampaignError, CampaignId, CampaignStatus};
pub use orchestrator::{CampaignOutcome, CampaignRelease, DayReport, Orchestrator, SkipReason};
pub use registry::CampaignRegistry;
