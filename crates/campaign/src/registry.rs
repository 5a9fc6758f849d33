//! The campaign registry: id bookkeeping and per-campaign runtime state.
//!
//! The registry owns every campaign the orchestrator has ever seen —
//! active, pending, completed and retired — together with the runtime
//! state each one accumulates across windows: its view of the population
//! (a shared session, or a private session over its filtered stream).
//! Overlapping duplicate ids are rejected at registration; a retired
//! campaign's id becomes reusable, and its state is dropped.

use crate::campaign::{Campaign, CampaignError, CampaignId, CampaignStatus};
use privapi::streaming::Session;

/// How a campaign reads the population stream's original-side state.
#[derive(Debug)]
pub(crate) enum View {
    /// Full-population campaign reading a shared
    /// [`crate::orchestrator::SharedSession`] directly (index into the
    /// orchestrator's session table). Its original-side extraction and its
    /// candidates' refreshes are the session's — each paid once per window
    /// however many campaigns share it.
    Shared(usize),
    /// Filtered campaign with a [`Session`] of its own over its filtered
    /// stream. Shards, outputs and contributions whose inputs it shares
    /// with another session — a user subset's kept users — are served from
    /// the orchestrator's [`privapi::streaming::WorkStore`]. (Boxed: a
    /// populated session dwarfs the `Shared` index.)
    Private(Box<Session>),
    /// A retired campaign whose view was dropped: a private session freed
    /// on retirement, or a shared session that was garbage-collected. A
    /// detached view can never be read again (retired campaigns skip every
    /// window before touching their view).
    Detached,
}

impl View {
    /// The shared session this view reads.
    pub(crate) fn shared_session(&self) -> Option<usize> {
        match self {
            View::Shared(i) => Some(*i),
            View::Private(_) | View::Detached => None,
        }
    }
}

/// One registered campaign plus its runtime state.
#[derive(Debug)]
pub(crate) struct CampaignEntry {
    pub(crate) campaign: Campaign,
    pub(crate) retired: bool,
    pub(crate) view: View,
    /// Windows this campaign actually published.
    pub(crate) windows_published: usize,
    /// Day of the campaign's most recent release.
    pub(crate) last_published_day: Option<i64>,
}

/// Id bookkeeping over every campaign an orchestrator has seen.
#[derive(Debug, Default)]
pub struct CampaignRegistry {
    pub(crate) entries: Vec<CampaignEntry>,
}

impl CampaignRegistry {
    /// Number of registered campaigns (all lifecycles).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no campaign was ever registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every registered campaign id, in registration order (retired
    /// campaigns included; an id reused after retirement appears twice).
    pub fn ids(&self) -> Vec<CampaignId> {
        self.entries.iter().map(|e| e.campaign.id()).collect()
    }

    /// Ids of the non-retired campaigns, in registration order.
    pub fn active_ids(&self) -> Vec<CampaignId> {
        self.entries
            .iter()
            .filter(|e| !e.retired)
            .map(|e| e.campaign.id())
            .collect()
    }

    /// Whether a non-retired campaign holds `id`.
    pub fn is_active(&self, id: CampaignId) -> bool {
        self.entries
            .iter()
            .any(|e| !e.retired && e.campaign.id() == id)
    }

    /// The campaign registered under `id` — the non-retired holder if one
    /// exists, otherwise the most recently retired one.
    pub fn campaign(&self, id: CampaignId) -> Option<&Campaign> {
        self.entry(id).map(|e| &e.campaign)
    }

    /// Lifecycle status of `id` relative to the stream position `last_day`
    /// (the orchestrator passes its own high-water mark).
    pub fn status(&self, id: CampaignId, last_day: Option<i64>) -> Option<CampaignStatus> {
        let entry = self.entry(id)?;
        if entry.retired {
            return Some(CampaignStatus::Retired);
        }
        let campaign = &entry.campaign;
        Some(match last_day {
            Some(day) if campaign.end_day().is_some_and(|e| day > e) => {
                CampaignStatus::Completed
            }
            Some(day) if campaign.start_day().is_some_and(|s| day < s) => {
                CampaignStatus::Pending
            }
            None if campaign.start_day().is_some() => CampaignStatus::Pending,
            _ => CampaignStatus::Active,
        })
    }

    /// Windows the campaign has published so far.
    pub fn windows_published(&self, id: CampaignId) -> Option<usize> {
        self.entry(id).map(|e| e.windows_published)
    }

    /// Day of the campaign's most recent release.
    pub fn last_published_day(&self, id: CampaignId) -> Option<i64> {
        self.entry(id).and_then(|e| e.last_published_day)
    }

    /// Registers an entry; rejects an id already held by an active
    /// campaign.
    pub(crate) fn push(&mut self, entry: CampaignEntry) -> Result<CampaignId, CampaignError> {
        let id = entry.campaign.id();
        if self.is_active(id) {
            return Err(CampaignError::DuplicateId(id));
        }
        self.entries.push(entry);
        Ok(id)
    }

    /// Retires the active campaign holding `id` and drops any private
    /// session.
    pub(crate) fn retire(&mut self, id: CampaignId) -> Result<(), CampaignError> {
        match self
            .entries
            .iter_mut()
            .find(|e| !e.retired && e.campaign.id() == id)
        {
            Some(entry) => {
                entry.retired = true;
                if let View::Private(_) = entry.view {
                    entry.view = View::Detached;
                }
                Ok(())
            }
            None => Err(CampaignError::Unknown(id)),
        }
    }

    /// The active holder of `id`, falling back to the most recently
    /// retired one.
    fn entry(&self, id: CampaignId) -> Option<&CampaignEntry> {
        self.entries
            .iter()
            .find(|e| !e.retired && e.campaign.id() == id)
            .or_else(|| self.entries.iter().rev().find(|e| e.campaign.id() == id))
    }
}
