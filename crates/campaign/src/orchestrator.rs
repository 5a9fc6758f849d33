//! The multi-campaign orchestrator: N concurrent campaigns, one
//! population stream, shared original-side extraction.
//!
//! # Why sharing works
//!
//! Every campaign's per-window cost splits into two halves:
//!
//! * **original side** — extracting the population's own POI exposure
//!   (per-user [`privapi::attack::UserAttackShard`]s + the reference
//!   index) over the accumulated prefix. This depends only on *(stream,
//!   attack configuration)* — not on the campaign's objective, pool, seed
//!   or privacy floor. K campaigns with the same attack configuration
//!   need it exactly once.
//! * **protected side** — anonymizing and self-attacking every candidate
//!   strategy. This depends on the campaign's pool and seed and is never
//!   shared; each campaign keeps its own
//!   [`privapi::streaming::StrategySessionCache`].
//!
//! The orchestrator therefore keeps one [`SharedSession`] (a
//! [`PopulationCache`] plus the attack that maintains it) per distinct
//! *(attack configuration, start day, stream position)* group.
//! [`Orchestrator::advance_day`] advances each consumed session **once**,
//! then fans the per-campaign evaluations out across the cores — campaigns
//! × candidate strategies — collecting outcomes in registration order so
//! the winner schedule is deterministic regardless of scheduling.
//!
//! Filtered campaigns own a private [`PopulationCache`] over their
//! filtered stream. A pure user-subset campaign additionally names a
//! matching shared session as *donor*: whenever the donor is in lockstep
//! (same attack configuration, same day, same extraction grid — i.e. the
//! subset spans the population's bounding box), invalidated shards are
//! **derived** (cloned) from the donor instead of re-extracted
//! ([`PopulationCache::advance_derived`]); any mismatch falls back to a
//! real extraction, so derivation can never change results.
//!
//! # The parity invariant
//!
//! Each campaign's releases are **byte-identical** to running that
//! campaign alone through a [`privapi::streaming::StreamingPublisher`]
//! fed its filtered windows (skipping days its filter empties). This is
//! by construction — the orchestrator drives the exact
//! [`privapi::pipeline::PrivApi::publish_session`] path a standalone
//! session runs — and enforced by property tests across seeds, sparse
//! participation and subset filters.

use crate::campaign::{Campaign, CampaignError, CampaignId, CampaignStatus};
use crate::registry::{CampaignEntry, CampaignRegistry, View};
use mobility::{DatasetWindow, UserId};
use privapi::attack::{PoiAttack, PoiAttackConfig};
use privapi::federated::FederationDelta;
use privapi::pipeline::PublishedDataset;
use privapi::streaming::{
    BaselineDelta, IngestDelta, PopulationCache, StrategyCacheDelta, StrategyDonor,
    StrategySessionCache, WindowDelta, WindowUpdate,
};
use privapi::PrivapiError;
use rayon::prelude::*;
use std::collections::HashMap;

/// One shared original-side extraction session: the population's
/// [`PopulationCache`] under one attack configuration, advanced once per
/// window and read by every attached campaign.
#[derive(Debug)]
pub(crate) struct SharedSession {
    /// The attack maintaining the cache (a clone of the first attached
    /// campaign's, so its extraction accounting lands on that campaign's
    /// probe).
    pub(crate) attack: PoiAttack,
    pub(crate) config: PoiAttackConfig,
    pub(crate) cache: PopulationCache,
    /// First day the session ingests (the attached campaigns' common
    /// `start_day`).
    pub(crate) start_day: Option<i64>,
}

/// Why a campaign produced no release for a day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The campaign's `start_day` lies in the future.
    NotStarted,
    /// The campaign's `end_day` has passed.
    Ended,
    /// The campaign was retired by the operator.
    Retired,
    /// The campaign's filter left no record in this window.
    NoParticipants,
}

/// One campaign's result for one orchestrated day.
#[derive(Debug)]
pub enum CampaignOutcome {
    /// The campaign ingested the (filtered) window and released.
    /// (Boxed: a release carries the full protected dataset, orders of
    /// magnitude larger than the other variants.)
    Published(Box<CampaignRelease>),
    /// The campaign did not observe this window.
    Skipped(SkipReason),
    /// The campaign observed the window but could not release (e.g.
    /// [`PrivapiError::NoFeasibleStrategy`] on its prefix). The window
    /// *was* ingested into the campaign's view; later days continue from
    /// the grown prefix, exactly as a standalone session would.
    Failed(PrivapiError),
}

impl CampaignOutcome {
    /// The release, when this outcome published one.
    pub fn release(&self) -> Option<&CampaignRelease> {
        match self {
            CampaignOutcome::Published(release) => Some(release.as_ref()),
            _ => None,
        }
    }
}

/// One campaign's release for one day, with the audit of what its caches
/// reused, derived or recomputed.
#[derive(Debug)]
pub struct CampaignRelease {
    /// The campaign that released.
    pub id: CampaignId,
    /// The day that triggered the release.
    pub day: i64,
    /// Original-side cache audit for the campaign's view. For a shared
    /// campaign this is the shared session's delta (paid once, reported
    /// to every sharer); [`WindowDelta::users_derived`] counts shards
    /// cloned from a donor session.
    pub delta: WindowDelta,
    /// Protected-side audit summed over the campaign's candidate pool.
    /// [`StrategyCacheDelta::users_donated`] counts per-user protected
    /// states adopted from a fingerprint-identical campaign on the same
    /// shared session instead of being re-anonymized.
    pub strategies: StrategyCacheDelta,
    /// Incremental utility-baseline audit for this release: cells folded
    /// in place versus grids rebuilt from scratch.
    pub baseline: BaselineDelta,
    /// Whether the campaign read a shared session (original-side work
    /// amortized across campaigns) rather than a private cache.
    pub shared: bool,
    /// The release itself — same shape as a standalone
    /// [`privapi::pipeline::PrivApi::publish`] of the campaign's prefix.
    pub published: PublishedDataset,
}

/// Everything one [`Orchestrator::advance_day`] call did.
#[derive(Debug)]
pub struct DayReport {
    /// The day processed.
    pub day: i64,
    /// Audit of every shared session advanced this day (one entry per
    /// session that had an attached consuming campaign).
    pub sessions: Vec<WindowDelta>,
    /// Per-campaign outcomes, in registration order.
    pub outcomes: Vec<(CampaignId, CampaignOutcome)>,
    /// Provenance of the window itself, when it was assembled by the
    /// reliable ingestion layer: how many batches were folded in, what was
    /// deduplicated, and whether straggler data was quarantined into this
    /// window. [`Orchestrator::advance_day`] leaves it `None`; the caller
    /// that closed the window stamps the collector's audit here.
    pub ingest: Option<IngestDelta>,
    /// Federated-release provenance, when the window came from the
    /// device-local pipeline: which config version it was assembled under,
    /// and exactly what was quarantined as stale, rejected as implausible
    /// or superseded by catch-up re-uploads. `None` for central
    /// (raw-upload) windows; stamped by the caller like
    /// [`DayReport::ingest`].
    pub federation: Option<FederationDelta>,
}

impl DayReport {
    /// The releases published this day, in registration order.
    pub fn published(&self) -> impl Iterator<Item = &CampaignRelease> {
        self.outcomes.iter().filter_map(|(_, o)| o.release())
    }

    /// Whether this day's window was assembled in degraded mode (straggler
    /// data quarantined or deferred by the ingestion layer).
    pub fn degraded(&self) -> bool {
        self.ingest.is_some_and(|d| !d.is_clean())
            || self.federation.is_some_and(|d| !d.is_clean())
    }

    /// The release of one campaign, if it published.
    pub fn release_of(&self, id: CampaignId) -> Option<&CampaignRelease> {
        self.outcomes
            .iter()
            .find(|(c, _)| *c == id)
            .and_then(|(_, o)| o.release())
    }
}

/// Runs N concurrent campaigns over one shared population window stream.
///
/// # Example
///
/// ```
/// use campaign::{Campaign, Orchestrator};
/// use mobility::gen::{CityModel, PopulationConfig};
/// use mobility::WindowedDataset;
/// use privapi::pipeline::PrivApiConfig;
///
/// let data = CityModel::builder().seed(3).build().generate_population(
///     &PopulationConfig { users: 3, days: 2, ..PopulationConfig::default() },
/// );
/// let mut orchestrator = Orchestrator::new();
/// orchestrator.register(Campaign::new(1, "city-wide", PrivApiConfig::default())).unwrap();
/// orchestrator.register(Campaign::new(2, "replica", PrivApiConfig::default())).unwrap();
/// for window in &WindowedDataset::partition(&data) {
///     let report = orchestrator.advance_day(window).unwrap();
///     // Both campaigns release; the original-side extraction ran once.
///     assert_eq!(report.published().count(), 2);
///     assert_eq!(report.sessions.len(), 1);
/// }
/// ```
#[derive(Debug, Default)]
pub struct Orchestrator {
    registry: CampaignRegistry,
    sessions: Vec<SharedSession>,
    last_day: Option<i64>,
}

impl Orchestrator {
    /// Creates an orchestrator with no campaigns.
    pub fn new() -> Self {
        Self::default()
    }

    /// The campaign registry (ids, statuses, per-campaign counters).
    pub fn registry(&self) -> &CampaignRegistry {
        &self.registry
    }

    /// Day index of the most recently processed window.
    pub fn last_day(&self) -> Option<i64> {
        self.last_day
    }

    /// Number of shared original-side sessions currently maintained (one
    /// per distinct attack-configuration × start-day × stream-position
    /// group with at least one full-population campaign).
    pub fn shared_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Lifecycle status of a campaign relative to the stream position.
    pub fn status(&self, id: CampaignId) -> Option<CampaignStatus> {
        self.registry.status(id, self.last_day)
    }

    /// Registers a campaign. Campaigns may join mid-stream: their view of
    /// the population starts at the next window (optionally further
    /// bounded by [`Campaign::with_start_day`]).
    ///
    /// A full-population campaign joins (or creates) the shared session
    /// matching its attack configuration, start day and stream position,
    /// so K same-configuration campaigns pay the original-side extraction
    /// once. A filtered campaign gets a private view; a pure user-subset
    /// filter additionally links the matching shared session as shard
    /// donor **if one already exists** — register the full-population
    /// campaign first to give its subsets a donor.
    ///
    /// # Errors
    ///
    /// [`CampaignError::DuplicateId`] when an active campaign already
    /// holds the id (retired ids are reusable).
    pub fn register(&mut self, campaign: Campaign) -> Result<CampaignId, CampaignError> {
        if self.registry.is_active(campaign.id()) {
            return Err(CampaignError::DuplicateId(campaign.id()));
        }
        if let Some(policy) = campaign.federation() {
            if let Err(e) = policy.validate_pool(campaign.privapi().pool()) {
                let strategy = match e {
                    PrivapiError::NonFederable { strategy } => strategy,
                    other => other.to_string(),
                };
                return Err(CampaignError::NonFederable {
                    id: campaign.id(),
                    strategy,
                });
            }
        }
        let view = if campaign.filter().is_all() {
            View::Shared(self.find_or_create_session(&campaign))
        } else {
            View::Private {
                cache: Box::new(PopulationCache::new()),
                donor: if campaign.filter().is_user_subset() {
                    self.find_session(&campaign)
                } else {
                    None
                },
            }
        };
        self.registry.push(CampaignEntry {
            campaign,
            retired: false,
            view,
            strategies: StrategySessionCache::new(),
            windows_published: 0,
            last_published_day: None,
        })
    }

    /// Retires an active campaign: it stops observing the stream
    /// immediately and its id becomes reusable. A shared session whose
    /// last non-retired consumer retires is garbage-collected on the spot
    /// (its cache freed, surviving session indices remapped); a later
    /// campaign with the same configuration starts a fresh session rather
    /// than resurrecting the dead one's shards.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Unknown`] when no active campaign holds the id.
    pub fn retire(&mut self, id: CampaignId) -> Result<(), CampaignError> {
        self.registry.retire(id)?;
        self.collect_sessions();
        Ok(())
    }

    /// Drops every shared session left without a non-retired `Shared`
    /// consumer and remaps the indices held by surviving views. Retired
    /// campaigns whose session died are detached; private donor links to a
    /// dead session are severed (they were already best-effort).
    fn collect_sessions(&mut self) {
        let mut keep = vec![false; self.sessions.len()];
        for entry in &self.registry.entries {
            if let (false, Some(index)) = (entry.retired, entry.view.shared_session()) {
                keep[index] = true;
            }
        }
        if keep.iter().all(|k| *k) {
            return;
        }
        let mut next = 0;
        let remap: Vec<Option<usize>> = keep
            .iter()
            .map(|kept| {
                kept.then(|| {
                    next += 1;
                    next - 1
                })
            })
            .collect();
        let mut index = 0;
        self.sessions.retain(|_| {
            index += 1;
            keep[index - 1]
        });
        for entry in &mut self.registry.entries {
            let detach = match &mut entry.view {
                View::Shared(i) => match remap[*i] {
                    Some(new) => {
                        *i = new;
                        false
                    }
                    None => true,
                },
                View::Private { donor, .. } => {
                    if let Some(d) = *donor {
                        *donor = remap[d];
                    }
                    false
                }
                View::Detached => false,
            };
            if detach {
                entry.view = View::Detached;
            }
        }
    }

    /// Processes one population day window: advances every consumed shared
    /// session exactly once, then evaluates all campaigns — campaigns ×
    /// candidate strategies fanned out over the available cores — and
    /// reports per-campaign outcomes in registration order (the
    /// deterministic winner schedule).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Stream`] when the window's day is not past the
    /// orchestrator's last processed day (nothing is ingested anywhere).
    /// Per-campaign publication failures are reported as
    /// [`CampaignOutcome::Failed`], never as an `advance_day` error.
    pub fn advance_day(&mut self, window: &DatasetWindow) -> Result<DayReport, CampaignError> {
        let day = window.day();
        if let Some(last) = self.last_day {
            if day <= last {
                return Err(CampaignError::Stream {
                    day,
                    last_day: last,
                });
            }
        }
        self.last_day = Some(day);
        let mut day_span = obs::span("campaign.day");
        day_span.set_attr("day", day);
        day_span.set_attr("campaigns", self.registry.entries.len() as u64);
        if window.record_count() == 0 {
            // An empty day changes nothing: every campaign skips it, each
            // for its own lifecycle reason (mirrors a standalone publisher
            // never seeing a window for a record-less day).
            let outcomes = self
                .registry
                .entries
                .iter()
                .map(|e| {
                    let reason = if e.retired {
                        SkipReason::Retired
                    } else if e.campaign.start_day().is_some_and(|s| day < s) {
                        SkipReason::NotStarted
                    } else if e.campaign.end_day().is_some_and(|end| day > end) {
                        SkipReason::Ended
                    } else {
                        SkipReason::NoParticipants
                    };
                    (e.campaign.id(), CampaignOutcome::Skipped(reason))
                })
                .collect();
            return Ok(DayReport {
                day,
                sessions: Vec::new(),
                outcomes,
                ingest: None,
                federation: None,
            });
        }

        // Phase 1 — advance each shared session consumed by at least one
        // campaign observing this day. Donor-only links do not keep a
        // session alive: extracting the whole population to spare a
        // subset would cost more than it saves.
        let mut session_deltas: Vec<Option<WindowDelta>> = Vec::new();
        session_deltas.resize_with(self.sessions.len(), || None);
        for (index, session) in self.sessions.iter_mut().enumerate() {
            if session.start_day.is_some_and(|s| day < s) {
                continue;
            }
            let consumed = self.registry.entries.iter().any(|e| {
                !e.retired && e.campaign.covers(day) && e.view.shared_session() == Some(index)
            });
            if !consumed {
                continue;
            }
            let delta = session
                .cache
                .advance(&session.attack, window)
                .expect("sessions follow the orchestrator's strictly ascending days");
            session_deltas[index] = Some(delta);
        }

        // Phase 2 — evaluate every campaign against its view, in
        // parallel, collecting in registration order. Campaigns on the
        // same shared session with identical (pool, seed, attack,
        // objective) fingerprints share protected-side work too: the
        // registration-order leader of each group evaluates first, then
        // its followers adopt the leader's per-candidate snapshot
        // ([`StrategyDonor`]) instead of re-anonymizing and re-attacking
        // the same prefix.
        let leader_of = self.donor_leaders(day);
        let sessions = &self.sessions;
        let deltas = &session_deltas;
        let (mut followers, mut leads): (Vec<_>, Vec<_>) = self
            .registry
            .entries
            .iter_mut()
            .enumerate()
            .partition(|(i, _)| leader_of[*i].is_some());
        let mut indexed: Vec<(usize, (CampaignId, CampaignOutcome))> = leads
            .par_iter_mut()
            .map(|(i, entry)| {
                let id = entry.campaign.id();
                (
                    *i,
                    (id, evaluate_campaign(entry, window, sessions, deltas, None)),
                )
            })
            .collect();
        if !followers.is_empty() {
            let donors: HashMap<usize, StrategyDonor> = leads
                .iter()
                .filter(|(i, _)| leader_of.contains(&Some(*i)))
                .filter_map(|(i, entry)| {
                    let windows = entry
                        .view
                        .shared_session()
                        .map(|s| sessions[s].cache.windows_ingested())?;
                    Some((*i, entry.strategies.donor_snapshot(windows)?))
                })
                .collect();
            let donors = &donors;
            let follower_outcomes: Vec<(usize, (CampaignId, CampaignOutcome))> = followers
                .par_iter_mut()
                .map(|(i, entry)| {
                    let donor = leader_of[*i].and_then(|l| donors.get(&l));
                    let id = entry.campaign.id();
                    (
                        *i,
                        (
                            id,
                            evaluate_campaign(entry, window, sessions, deltas, donor),
                        ),
                    )
                })
                .collect();
            indexed.extend(follower_outcomes);
        }
        indexed.sort_by_key(|(i, _)| *i);
        let outcomes = indexed.into_iter().map(|(_, o)| o).collect();
        Ok(DayReport {
            day,
            sessions: session_deltas.into_iter().flatten().collect(),
            outcomes,
            ingest: None,
            federation: None,
        })
    }

    /// For each campaign observing `day` on a shared session, the
    /// registration-order leader it may adopt protected-side state from:
    /// the earliest non-retired campaign on the *same* session with an
    /// identical `(pool, seed, attack, objective)` fingerprint. Leaders
    /// (and every campaign without one) map to `None`. Privacy floors may
    /// differ — the floor gates acceptance, not the per-candidate
    /// protected state being shared.
    fn donor_leaders(&self, day: i64) -> Vec<Option<usize>> {
        let entries = &self.registry.entries;
        let eligible: Vec<Option<usize>> = entries
            .iter()
            .map(|e| {
                if e.retired || !e.campaign.covers(day) {
                    None
                } else {
                    e.view.shared_session()
                }
            })
            .collect();
        let mut leader: Vec<Option<usize>> = vec![None; entries.len()];
        for i in 0..entries.len() {
            let Some(session) = eligible[i] else { continue };
            if leader[i].is_some() {
                continue;
            }
            let a = entries[i].campaign.privapi();
            for j in (i + 1)..entries.len() {
                if leader[j].is_some() || eligible[j] != Some(session) {
                    continue;
                }
                let b = entries[j].campaign.privapi();
                if a.config().seed == b.config().seed
                    && a.config().objective == b.config().objective
                    && a.attack().config() == b.attack().config()
                    && a.pool().infos() == b.pool().infos()
                {
                    leader[j] = Some(i);
                }
            }
        }
        leader
    }

    /// An existing, joinable session matching the campaign's attack
    /// configuration, start day and stream position (nothing ingested
    /// yet — a session that already absorbed windows holds a prefix the
    /// newcomer never saw).
    fn find_session(&self, campaign: &Campaign) -> Option<usize> {
        self.sessions.iter().position(|s| {
            s.cache.windows_ingested() == 0
                && s.start_day == campaign.start_day()
                && &s.config == campaign.privapi().attack().config()
        })
    }

    fn find_or_create_session(&mut self, campaign: &Campaign) -> usize {
        if let Some(index) = self.find_session(campaign) {
            return index;
        }
        let attack = campaign.privapi().attack().clone();
        self.sessions.push(SharedSession {
            config: attack.config().clone(),
            attack,
            cache: PopulationCache::new(),
            start_day: campaign.start_day(),
        });
        self.sessions.len() - 1
    }
}

/// One campaign's step for one day: scope checks, view ingest (shared
/// read / private advance with optional donor derivation), then the
/// standard [`privapi::pipeline::PrivApi::publish_session`] evaluation —
/// with an optional protected-side [`StrategyDonor`] from a
/// fingerprint-identical leader campaign on the same shared session.
fn evaluate_campaign(
    entry: &mut CampaignEntry,
    window: &DatasetWindow,
    sessions: &[SharedSession],
    session_deltas: &[Option<WindowDelta>],
    donor: Option<&StrategyDonor>,
) -> CampaignOutcome {
    let day = window.day();
    if entry.retired {
        return CampaignOutcome::Skipped(SkipReason::Retired);
    }
    let mut span = obs::span("campaign.publish");
    span.set_attr("campaign", entry.campaign.id().0);
    span.set_attr("day", day);
    let CampaignEntry {
        campaign,
        view,
        strategies,
        ..
    } = entry;
    debug_assert!(
        donor.is_none() || matches!(view, View::Shared(_)),
        "donors are only selected among same-session shared campaigns"
    );
    if campaign.start_day().is_some_and(|s| day < s) {
        return CampaignOutcome::Skipped(SkipReason::NotStarted);
    }
    if campaign.end_day().is_some_and(|e| day > e) {
        return CampaignOutcome::Skipped(SkipReason::Ended);
    }
    let filtered_window;
    let (population, delta, changed_users, shared): (
        &PopulationCache,
        WindowDelta,
        Vec<UserId>,
        bool,
    ) = match view {
        View::Shared(index) => {
            let delta = session_deltas[*index]
                .expect("an active shared campaign's session advanced this day");
            (&sessions[*index].cache, delta, window.users(), true)
        }
        View::Private { cache, donor } => {
            let Some(filtered) = campaign.filter().filter_window(window) else {
                return CampaignOutcome::Skipped(SkipReason::NoParticipants);
            };
            filtered_window = filtered;
            let donor_cache = donor.map(|index| &sessions[index].cache);
            let delta = match cache.advance_derived(
                campaign.privapi().attack(),
                &filtered_window,
                donor_cache,
            ) {
                Ok(delta) => delta,
                Err(error) => return CampaignOutcome::Failed(error),
            };
            (&**cache, delta, filtered_window.users(), false)
        }
        View::Detached => unreachable!("only retired campaigns are detached"),
    };
    let update = WindowUpdate {
        changed_users,
        grid_rebuilt: delta.grid_rebuilt,
    };
    match campaign
        .privapi()
        .publish_session(population, strategies, &update, donor)
    {
        Ok((published, strategy_delta, baseline)) => {
            entry.windows_published += 1;
            entry.last_published_day = Some(day);
            CampaignOutcome::Published(Box::new(CampaignRelease {
                id: entry.campaign.id(),
                day,
                delta,
                strategies: strategy_delta,
                baseline,
                shared,
                published,
            }))
        }
        Err(error) => CampaignOutcome::Failed(error),
    }
}
