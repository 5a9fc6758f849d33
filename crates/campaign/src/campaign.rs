//! Campaign definitions: identity, privacy policy, recruitment and
//! lifetime.
//!
//! A [`Campaign`] bundles everything one concurrent crowd-sensing study
//! needs from the privacy stack: its own PRIVAPI configuration (objective,
//! privacy floor, seed), its own strategy pool and attack parameters, a
//! [`ParticipantFilter`] scoping which slice of the shared population it
//! observes, and an optional `[start_day, end_day]` lifetime. The
//! [`crate::Orchestrator`] runs any number of them over one window stream.

use mobility::ParticipantFilter;
use privapi::federated::FederationPolicy;
use privapi::pipeline::{PrivApi, PrivApiConfig};
use privapi::pool::StrategyPool;
use privapi::prelude::PoiAttack;
use std::error::Error;
use std::fmt;

/// Identifier of a campaign within one orchestrator.
///
/// Ids are caller-chosen (they typically mirror the platform's own task or
/// campaign ids). The orchestrator rejects *overlapping* duplicates — two
/// simultaneously active campaigns may never share an id — but an id
/// becomes reusable once its campaign is retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CampaignId(pub u64);

impl fmt::Display for CampaignId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign-{}", self.0)
    }
}

/// Where a campaign sits in its lifecycle, relative to the orchestrator's
/// current stream position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Registered, but its `start_day` has not been reached yet.
    Pending,
    /// Observing the stream (and publishing on days with participants).
    Active,
    /// Its `end_day` has passed; it will never publish again.
    Completed,
    /// Explicitly retired by the operator.
    Retired,
}

/// Errors of the campaign registry and orchestrator.
///
/// Per-campaign *publication* failures (e.g. no feasible strategy on a
/// day's prefix) are not errors of the orchestration step — they are
/// reported per campaign as [`crate::CampaignOutcome::Failed`], so one
/// campaign's infeasible day never blocks the others.
#[derive(Debug, PartialEq)]
pub enum CampaignError {
    /// A campaign with this id is already active (overlapping duplicate).
    DuplicateId(CampaignId),
    /// No campaign with this id is registered (or it is already retired).
    Unknown(CampaignId),
    /// The window stream went backwards: the day is not past the
    /// orchestrator's most recently processed day.
    Stream {
        /// Day index of the rejected window.
        day: i64,
        /// Most recently processed day.
        last_day: i64,
    },
    /// A campaign opted into federated release
    /// ([`Campaign::with_federation`]) but its candidate pool holds a
    /// strategy that cannot run device-locally. Rejected at registration:
    /// a non-federable winner would force devices to upload raw data,
    /// silently voiding the policy.
    NonFederable {
        /// The campaign that was rejected.
        id: CampaignId,
        /// The offending candidate, rendered as `name(params)`.
        strategy: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::DuplicateId(id) => {
                write!(
                    f,
                    "{id} is already active: overlapping campaigns must have distinct ids"
                )
            }
            CampaignError::Unknown(id) => write!(f, "{id} is not an active campaign"),
            CampaignError::Stream { day, last_day } => write!(
                f,
                "window for day {day} arrived after day {last_day}: the campaign stream \
                 must ascend strictly"
            ),
            CampaignError::NonFederable { id, strategy } => write!(
                f,
                "{id} declares a federation policy but pools non-federable \
                 strategy {strategy}: every candidate must run device-locally"
            ),
        }
    }
}

impl Error for CampaignError {}

/// One crowd-sensing campaign: a privacy policy, a participant scope and a
/// lifetime over the shared population stream.
///
/// # Example
///
/// ```
/// use campaign::Campaign;
/// use mobility::{ParticipantFilter, UserId};
/// use privapi::pipeline::PrivApiConfig;
///
/// let c = Campaign::new(7, "commute-study", PrivApiConfig::default())
///     .with_filter(ParticipantFilter::users([UserId(1), UserId(2)]))
///     .with_start_day(2)
///     .with_end_day(9);
/// assert_eq!(c.id().0, 7);
/// assert!(!c.covers(1));
/// assert!(c.covers(5));
/// assert!(!c.covers(10));
/// ```
#[derive(Debug)]
pub struct Campaign {
    id: CampaignId,
    name: String,
    privapi: PrivApi,
    filter: ParticipantFilter,
    start_day: Option<i64>,
    end_day: Option<i64>,
    federation: Option<FederationPolicy>,
}

impl Campaign {
    /// Creates a full-population, open-ended campaign with the shared
    /// default strategy pool.
    pub fn new(id: u64, name: impl Into<String>, config: PrivApiConfig) -> Self {
        Self::from_privapi(id, name, PrivApi::new(config))
    }

    /// Wraps an already-configured PRIVAPI middleware (custom pool or
    /// attack).
    pub fn from_privapi(id: u64, name: impl Into<String>, privapi: PrivApi) -> Self {
        Self {
            id: CampaignId(id),
            name: name.into(),
            privapi,
            filter: ParticipantFilter::All,
            start_day: None,
            end_day: None,
            federation: None,
        }
    }

    /// Replaces the strategy pool searched on every publication.
    pub fn with_pool(mut self, pool: StrategyPool) -> Self {
        self.privapi = self.privapi.with_pool(pool);
        self
    }

    /// Replaces the attack measuring POI exposure (custom parameters, or
    /// an instrumented probe for extraction accounting). Campaigns with
    /// equal *extraction* parameters (the configuration without its
    /// matching distance) share original-side extraction work under the
    /// orchestrator; a campaign with its own extraction parameters pays
    /// exactly its own pass.
    pub fn with_attack(mut self, attack: PoiAttack) -> Self {
        self.privapi = self.privapi.with_attack(attack);
        self
    }

    /// Scopes the campaign to a participant filter (user subset, region,
    /// daily hours, or a conjunction).
    pub fn with_filter(mut self, filter: ParticipantFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Opts the campaign into federated release: devices anonymize
    /// locally under the broadcast winner and only the policy's
    /// calibration cohort uploads raw. Registration validates that every
    /// pooled candidate can actually run device-locally
    /// ([`CampaignError::NonFederable`] otherwise), and day reports carry
    /// the federated provenance ledger
    /// ([`crate::DayReport::federation`]).
    pub fn with_federation(mut self, policy: FederationPolicy) -> Self {
        self.federation = Some(policy);
        self
    }

    /// First day (inclusive) the campaign observes.
    pub fn with_start_day(mut self, day: i64) -> Self {
        self.start_day = Some(day);
        self
    }

    /// Last day (inclusive) the campaign observes.
    pub fn with_end_day(mut self, day: i64) -> Self {
        self.end_day = Some(day);
        self
    }

    /// The campaign id.
    pub fn id(&self) -> CampaignId {
        self.id
    }

    /// The campaign's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The campaign's PRIVAPI middleware (objective, floor, seed, pool,
    /// attack).
    pub fn privapi(&self) -> &PrivApi {
        &self.privapi
    }

    /// The campaign's federation policy, when it opted into device-local
    /// anonymization.
    pub fn federation(&self) -> Option<&FederationPolicy> {
        self.federation.as_ref()
    }

    /// The campaign's participant scope.
    pub fn filter(&self) -> &ParticipantFilter {
        &self.filter
    }

    /// First observed day, if bounded.
    pub fn start_day(&self) -> Option<i64> {
        self.start_day
    }

    /// Last observed day, if bounded.
    pub fn end_day(&self) -> Option<i64> {
        self.end_day
    }

    /// Whether `day` falls inside the campaign's lifetime.
    pub fn covers(&self, day: i64) -> bool {
        self.start_day.is_none_or(|s| day >= s) && self.end_day.is_none_or(|e| day <= e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_bounds_are_inclusive() {
        let c = Campaign::new(1, "c", PrivApiConfig::default())
            .with_start_day(3)
            .with_end_day(5);
        assert!(!c.covers(2));
        assert!(c.covers(3));
        assert!(c.covers(5));
        assert!(!c.covers(6));
        let open = Campaign::new(2, "open", PrivApiConfig::default());
        assert!(open.covers(i64::MIN) && open.covers(i64::MAX));
    }

    #[test]
    fn error_messages_name_the_campaign_and_days() {
        assert!(CampaignError::DuplicateId(CampaignId(4))
            .to_string()
            .contains("campaign-4"));
        assert!(CampaignError::Unknown(CampaignId(9))
            .to_string()
            .contains("campaign-9"));
        let stream = CampaignError::Stream {
            day: 1,
            last_day: 2,
        };
        assert!(stream.to_string().contains("day 1"));
        assert!(stream.to_string().contains("day 2"));
    }
}
