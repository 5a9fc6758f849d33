//! The multi-campaign orchestrator: N concurrent campaigns, one
//! population stream, one work store.
//!
//! # Why sharing works
//!
//! Every campaign's per-window cost splits into three tiers, each keyed by
//! exactly what it depends on:
//!
//! * **session** — extracting the population's own POI exposure
//!   (per-user [`privapi::attack::UserAttackShard`]s + the reference
//!   POIs) over the accumulated prefix. This depends only on *(stream,
//!   extraction parameters)* — the attack configuration without its
//!   matching distance — not on the campaign's objective, pool, seed,
//!   matching distance or privacy floor. The orchestrator keeps one
//!   [`Session`] per distinct *(extraction parameters, start day, stream
//!   position)* group; it advances once per window and amends one
//!   reference index per matching distance its campaigns use.
//! * **candidate state** — anonymizing, self-attacking and
//!   utility-folding one candidate strategy over the session's prefix.
//!   This depends on *(session, candidate, seed, objective)*, not on the
//!   matching distance or the floor. Each session keeps one state per such
//!   key in its [`privapi::streaming::StrategySessionCache`], refreshed
//!   **once per window** by the first campaign (in registration order)
//!   that evaluates the candidate.
//! * **campaign** — matching each candidate's extracted POIs against the
//!   campaign's own reference index, judging feasibility under its own
//!   floor, choosing the winner and assembling the release from the
//!   winner's held outputs. Only this tier runs once per campaign.
//!
//! Below the tiers, one [`WorkStore`] that every session and candidate
//! state reads and fills keys each protected output by (strategy, seed,
//! quantized anchor, source trajectory), each attack shard by (extraction
//! parameters, grid, user, trajectory list) and each utility contribution
//! by (baseline grid, output). Caches that do not share a tier — a user
//! subset's private session, a campaign with another seed — are still
//! served everything their inputs have in common with another; a served
//! entry is byte-identical to a recomputed one, so the store only ever
//! skips work.
//!
//! [`Orchestrator::advance_day`] advances each consumed session **once**,
//! then evaluates the campaigns in registration order, each sweep fanned
//! out over its candidates, refreshing the states no earlier campaign
//! refreshed this window. Sweeps only read the store; what each computed
//! is inserted after it, in a fixed order — a shared state's fills at the
//! position of the first campaign that refreshed it — so releases and
//! every counter are independent of thread count. At the end of the day
//! every state's window closes (outputs no campaign found feasible are let
//! go of, states no live campaign evaluates are dropped) and the store
//! drops every entry no session or state holds any more.
//!
//! Filtered campaigns own a private [`Session`] over their filtered
//! stream. A user-subset filter keeps each kept trajectory as the same
//! shared handle, so the subset's shards are served from the store
//! whenever its extraction grid matches the population's (the subset spans
//! the population's bounding box) — whatever order the campaigns were
//! registered in.
//!
//! # The parity invariant
//!
//! Each campaign's releases are **byte-identical** to running that
//! campaign alone through a [`privapi::streaming::StreamingPublisher`]
//! fed its filtered windows (skipping days its filter empties). This is
//! by construction — the orchestrator drives the exact [`Session`] calls a
//! standalone publisher runs as a group of one — and enforced by property
//! tests across seeds, sparse participation, subset filters and random
//! campaign mixes.

use crate::campaign::{Campaign, CampaignError, CampaignId, CampaignStatus};
use crate::registry::{CampaignEntry, CampaignRegistry, View};
use mobility::DatasetWindow;
use privapi::federated::FederationDelta;
use privapi::pipeline::PublishedDataset;
use privapi::streaming::{
    BaselineDelta, CandidateDelta, IngestDelta, Session, StrategyCacheDelta, WindowDelta,
    WorkStore,
};
use privapi::PrivapiError;

/// One shared session: the population's [`Session`] under the attack of
/// its first campaign (whose probe its extraction accounting lands on),
/// advanced once per window for every campaign attached to it.
#[derive(Debug)]
pub(crate) struct SharedSession {
    pub(crate) session: Session,
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
/// reused, were served from the work store, or recomputed.
#[derive(Debug)]
pub struct CampaignRelease {
    /// The campaign that released.
    pub id: CampaignId,
    /// The day that triggered the release.
    pub day: i64,
    /// Original-side cache audit for the campaign's view. For a shared
    /// campaign this is the shared session's delta (paid once, reported
    /// to every sharer); [`WindowDelta::users_derived`] counts shards
    /// served from the work store.
    pub delta: WindowDelta,
    /// Protected-side audit summed over the campaign's candidate pool,
    /// each candidate reporting its state's audit for the window. A state
    /// the campaign shares with others is refreshed once, by the first of
    /// them, and its audit is reported to every sharer (as `delta` is),
    /// including what a later sharer's retention added by its own
    /// evaluation; [`DayReport::candidates`] lists each state's audit
    /// once. [`StrategyCacheDelta::users_donated`] counts users whose new
    /// protected trajectories were all served from the work store instead
    /// of being re-anonymized.
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
    /// Audit of every candidate state refreshed this day, once each: a
    /// state several campaigns share (one population view, candidate,
    /// seed and objective) is refreshed once and listed once, however many
    /// of them read it. Shared sessions' states come first, in session
    /// order, then private sessions' in registration order.
    pub candidates: Vec<CandidateDelta>,
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
/// let pool = privapi::pool::StrategyPool::default_pool().len();
/// for window in &WindowedDataset::partition(&data) {
///     let report = orchestrator.advance_day(window).unwrap();
///     // Both campaigns release; the original-side extraction ran once,
///     // and each candidate was refreshed once for both.
///     assert_eq!(report.published().count(), 2);
///     assert_eq!(report.sessions.len(), 1);
///     assert_eq!(report.candidates.len(), pool);
/// }
/// ```
#[derive(Debug, Default)]
pub struct Orchestrator {
    registry: CampaignRegistry,
    sessions: Vec<SharedSession>,
    store: WorkStore,
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

    /// Number of shared sessions currently maintained (one per distinct
    /// extraction-parameters × start-day × stream-position group with at
    /// least one full-population campaign).
    pub fn shared_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// The work store every session and campaign reads and fills.
    pub fn store(&self) -> &WorkStore {
        &self.store
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
    /// matching its extraction parameters, start day and stream position,
    /// so K such campaigns pay the original-side extraction once, and
    /// each candidate refresh once per (candidate, seed, objective) they
    /// share. A filtered campaign gets a private session, whose shards are
    /// served from the work store wherever its inputs match another
    /// session's — registration order does not matter.
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
            View::Private(Box::new(Session::new(campaign.privapi().attack().clone())))
        };
        self.registry.push(CampaignEntry {
            campaign,
            retired: false,
            view,
            windows_published: 0,
            last_published_day: None,
        })
    }

    /// Retires an active campaign: it stops observing the stream
    /// immediately, its id becomes reusable and its state is dropped —
    /// its private session, or the candidate states of its session that no
    /// other campaign evaluates. A shared session whose last non-retired
    /// consumer retires is
    /// garbage-collected on the spot (its cache freed, surviving session
    /// indices remapped); a later campaign with the same configuration
    /// starts a fresh session rather than resurrecting the dead one's
    /// shards. Work-store entries nothing holds any more go with them.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Unknown`] when no active campaign holds the id.
    pub fn retire(&mut self, id: CampaignId) -> Result<(), CampaignError> {
        self.registry.retire(id)?;
        self.collect_sessions();
        self.close_windows();
        self.store.drop_unreferenced();
        Ok(())
    }

    /// Closes the window of every session ([`Session::close_window`]): the
    /// outputs no campaign found feasible are let go of, and the states no
    /// live campaign (not retired, not ended) evaluates any more are
    /// dropped. Returns the audit of each state refreshed this window,
    /// shared sessions first, then private ones in registration order.
    fn close_windows(&mut self) -> Vec<CandidateDelta> {
        let day = self.last_day;
        let live = |e: &CampaignEntry| {
            !e.retired && day.is_none_or(|d| e.campaign.end_day().is_none_or(|end| d <= end))
        };
        let mut refreshed = Vec::new();
        for (index, session) in self.sessions.iter_mut().enumerate() {
            let members = self
                .registry
                .entries
                .iter()
                .filter(|e| live(e) && e.view.shared_session() == Some(index));
            let members = members.map(|e| (e.campaign.id().0, e.campaign.privapi()));
            refreshed.extend(session.session.close_window(members, &mut self.store));
        }
        for entry in &mut self.registry.entries {
            let members =
                live(entry).then(|| (entry.campaign.id().0, entry.campaign.privapi()));
            if let View::Private(session) = &mut entry.view {
                refreshed.extend(session.close_window(members, &mut self.store));
            }
        }
        refreshed
    }

    /// Drops every shared session left without a non-retired `Shared`
    /// consumer and remaps the indices held by surviving views. Retired
    /// campaigns whose session died are detached.
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
            if let View::Shared(i) = &mut entry.view {
                match remap[*i] {
                    Some(new) => *i = new,
                    None => entry.view = View::Detached,
                }
            }
        }
    }

    /// Processes one population day window: advances every consumed shared
    /// session exactly once, then evaluates the campaigns in registration
    /// order — each sweep fanned out over its candidate strategies, each
    /// candidate state refreshed by the first campaign that evaluates it,
    /// all of them reading and filling the one work store — reports
    /// per-campaign outcomes in registration order (the deterministic
    /// winner schedule), and finally closes every state's window and drops
    /// the store entries nothing holds any more.
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
                candidates: Vec::new(),
                outcomes,
                ingest: None,
                federation: None,
            });
        }

        // Phase 1 — advance each shared session consumed by at least one
        // campaign observing this day.
        let mut session_deltas: Vec<WindowDelta> = Vec::new();
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
                .session
                .advance(window, &mut self.store)
                .expect("sessions follow the orchestrator's strictly ascending days");
            session_deltas.push(delta);
        }

        // Phase 2 — evaluate every campaign against its view, in
        // registration order: each campaign is served what the sessions
        // and campaigns before it filled into the store.
        let outcomes = self
            .registry
            .entries
            .iter_mut()
            .map(|entry| {
                let outcome =
                    evaluate_campaign(entry, window, &mut self.sessions, &mut self.store);
                (entry.campaign.id(), outcome)
            })
            .collect();
        // Phase 3 — close the window of every candidate state.
        let candidates = self.close_windows();
        self.store.drop_released();
        Ok(DayReport {
            day,
            sessions: session_deltas,
            candidates,
            outcomes,
            ingest: None,
            federation: None,
        })
    }

    /// The session a full-population campaign joins: an existing one
    /// matching its extraction parameters, start day and stream position
    /// (nothing ingested yet — a session that already absorbed windows
    /// holds a prefix the newcomer never saw), or a new one.
    fn find_or_create_session(&mut self, campaign: &Campaign) -> usize {
        let attack = campaign.privapi().attack();
        let extraction = attack.config().extraction_config();
        let found = self.sessions.iter().position(|s| {
            s.session.population().windows_ingested() == 0
                && s.start_day == campaign.start_day()
                && s.session.attack().config().extraction_config() == extraction
        });
        found.unwrap_or_else(|| {
            self.sessions.push(SharedSession {
                session: Session::new(attack.clone()),
                start_day: campaign.start_day(),
            });
            self.sessions.len() - 1
        })
    }
}

/// One campaign's step for one day: scope checks, then its session's
/// [`Session::publish`] — a private session advanced over the filtered
/// window first — through the orchestrator's work store. The
/// `campaign.publish` span covers only the days the campaign reads.
fn evaluate_campaign(
    entry: &mut CampaignEntry,
    window: &DatasetWindow,
    sessions: &mut [SharedSession],
    store: &mut WorkStore,
) -> CampaignOutcome {
    let day = window.day();
    let CampaignEntry {
        campaign,
        retired,
        view,
        windows_published,
        last_published_day,
    } = entry;
    if *retired {
        return CampaignOutcome::Skipped(SkipReason::Retired);
    }
    if campaign.start_day().is_some_and(|s| day < s) {
        return CampaignOutcome::Skipped(SkipReason::NotStarted);
    }
    if campaign.end_day().is_some_and(|e| day > e) {
        return CampaignOutcome::Skipped(SkipReason::Ended);
    }
    let (session, filtered) = match view {
        View::Shared(index) => (&mut sessions[*index].session, None),
        View::Private(session) => match campaign.filter().filter_window(window) {
            Some(filtered) => (&mut **session, Some(filtered)),
            None => return CampaignOutcome::Skipped(SkipReason::NoParticipants),
        },
        View::Detached => unreachable!("only retired campaigns are detached"),
    };
    let mut span = obs::span("campaign.publish");
    span.set_attr("campaign", campaign.id().0);
    span.set_attr("day", day);
    let shared = filtered.is_none();
    if let Some(filtered) = &filtered {
        if let Err(error) = session.advance(filtered, store) {
            return CampaignOutcome::Failed(error);
        }
    }
    match session.publish(campaign.privapi(), campaign.id().0, store) {
        Ok(window) => {
            *windows_published += 1;
            *last_published_day = Some(day);
            CampaignOutcome::Published(Box::new(CampaignRelease {
                id: campaign.id(),
                day,
                delta: window.delta,
                strategies: window.strategies,
                baseline: window.baseline,
                shared,
                published: window.published,
            }))
        }
        Err(error) => CampaignOutcome::Failed(error),
    }
}
