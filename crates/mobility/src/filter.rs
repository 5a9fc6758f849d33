//! Participant filtering for multi-campaign deployments.
//!
//! A platform running several concurrent crowd-sensing campaigns over one
//! shared population rarely gives every campaign the whole dataset: a
//! campaign recruits a *subset of users*, covers a *geographic region*, or
//! collects only during certain *hours of the day*. [`ParticipantFilter`]
//! is the declarative form of that recruitment rule, applied to the
//! day-window stream before a campaign's privacy pipeline ever sees the
//! records.
//!
//! Filtering is **deterministic and order-preserving**: a filtered
//! [`DatasetWindow`] keeps the canonical window shape (users sorted, one
//! time-sorted trajectory per user), so a campaign fed filtered windows
//! behaves byte-identically to a standalone publisher whose input was
//! filtered up front — the invariant the multi-campaign orchestrator's
//! parity tests lean on.

use crate::record::{Dataset, LocationRecord, Trajectory, UserId};
use crate::window::DatasetWindow;
use geo::BoundingBox;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A campaign's recruitment rule: which users and records of the shared
/// population stream it observes.
///
/// Filters compose conjunctively via [`ParticipantFilter::and`]. The
/// distinction between *user-subset* filters (drop whole users, keep every
/// record of a kept user) and *record-level* filters (region, hours) is
/// load-bearing for the orchestrator: only user-subset views can derive
/// per-user attack state from a shared full-population extraction, because
/// a kept user's record history is bitwise the population's.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ParticipantFilter {
    /// Every record passes (the full-population campaign).
    #[default]
    All,
    /// Only the listed users participate; their records pass untouched.
    Users(BTreeSet<UserId>),
    /// Only records inside the region pass (campaigns scoped to a
    /// district or city); users may contribute partial trajectories.
    Region(BoundingBox),
    /// Only records whose local hour falls in `[start_hour, end_hour)`
    /// pass; `start > end` wraps past midnight (a commute-hours or
    /// nightlife campaign).
    Hours {
        /// First included hour (0–23).
        start_hour: i64,
        /// First excluded hour (0–24).
        end_hour: i64,
    },
    /// Both filters must pass.
    And(Box<ParticipantFilter>, Box<ParticipantFilter>),
}

impl ParticipantFilter {
    /// A filter keeping exactly the given users.
    pub fn users<I: IntoIterator<Item = UserId>>(users: I) -> Self {
        ParticipantFilter::Users(users.into_iter().collect())
    }

    /// A filter keeping records inside `region`.
    pub fn region(region: BoundingBox) -> Self {
        ParticipantFilter::Region(region)
    }

    /// A filter keeping records in the daily hour range
    /// `[start_hour, end_hour)` (wraps past midnight when `start > end`).
    pub fn hours(start_hour: i64, end_hour: i64) -> Self {
        ParticipantFilter::Hours {
            start_hour: start_hour.clamp(0, 24),
            end_hour: end_hour.clamp(0, 24),
        }
    }

    /// Conjunction: a record passes only if it passes both filters.
    pub fn and(self, other: ParticipantFilter) -> Self {
        match (self, other) {
            (ParticipantFilter::All, f) | (f, ParticipantFilter::All) => f,
            (a, b) => ParticipantFilter::And(Box::new(a), Box::new(b)),
        }
    }

    /// Whether a single record passes the filter.
    pub fn keeps(&self, record: &LocationRecord) -> bool {
        match self {
            ParticipantFilter::All => true,
            ParticipantFilter::Users(users) => users.contains(&record.user),
            ParticipantFilter::Region(region) => region.contains(&record.point),
            ParticipantFilter::Hours {
                start_hour,
                end_hour,
            } => {
                let hour = record.time.hour_of_day();
                if start_hour <= end_hour {
                    (*start_hour..*end_hour).contains(&hour)
                } else {
                    hour >= *start_hour || hour < *end_hour
                }
            }
            ParticipantFilter::And(a, b) => a.keeps(record) && b.keeps(record),
        }
    }

    /// Whether the filter only ever drops *whole users* — i.e. every kept
    /// user keeps their full record history. [`ParticipantFilter::All`] and
    /// [`ParticipantFilter::Users`] qualify (and conjunctions of them);
    /// region and hour filters truncate kept users' histories and do not.
    pub fn is_user_subset(&self) -> bool {
        match self {
            ParticipantFilter::All | ParticipantFilter::Users(_) => true,
            ParticipantFilter::Region(_) | ParticipantFilter::Hours { .. } => false,
            ParticipantFilter::And(a, b) => a.is_user_subset() && b.is_user_subset(),
        }
    }

    /// Whether the filter is [`ParticipantFilter::All`] (possibly via
    /// degenerate conjunctions): the campaign observes the full stream.
    pub fn is_all(&self) -> bool {
        match self {
            ParticipantFilter::All => true,
            ParticipantFilter::And(a, b) => a.is_all() && b.is_all(),
            _ => false,
        }
    }

    /// Applies the filter to one day window, preserving the canonical
    /// window shape (users sorted, records time-sorted within a user).
    ///
    /// Returns `None` when no record survives — the campaign simply does
    /// not observe that day, exactly as if its recruited participants
    /// produced no data.
    pub fn filter_window(&self, window: &DatasetWindow) -> Option<DatasetWindow> {
        if self.is_all() {
            return Some(window.clone());
        }
        let filtered = self.filter_dataset(window.dataset());
        (filtered.trajectory_count() > 0)
            .then(|| DatasetWindow::from_parts(window.day(), filtered))
    }

    /// Applies the filter to a whole dataset — the batch-side twin of
    /// [`ParticipantFilter::filter_window`], used to build the standalone
    /// comparison input in parity tests.
    ///
    /// A trajectory every record of which passes is kept as the same
    /// shared handle, so a user-subset view shares its trajectories —
    /// and every result keyed on their identity — with the full stream.
    pub fn filter_dataset(&self, dataset: &Dataset) -> Dataset {
        if self.is_all() {
            return dataset.clone();
        }
        Dataset::from_shared(
            dataset
                .trajectories()
                .iter()
                .filter_map(|t| self.filter_trajectory(t))
                .collect(),
        )
    }

    /// The part of `t` that passes, or `None` when nothing does.
    fn filter_trajectory(&self, t: &Arc<Trajectory>) -> Option<Arc<Trajectory>> {
        let records: Vec<LocationRecord> = t
            .records()
            .iter()
            .filter(|r| self.keeps(r))
            .copied()
            .collect();
        if records.is_empty() {
            None
        } else if records.len() == t.len() {
            Some(Arc::clone(t))
        } else {
            Some(Arc::new(Trajectory::new(t.user(), records)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Timestamp, DAY_SECONDS};
    use crate::window::WindowedDataset;
    use geo::GeoPoint;

    fn rec(user: u64, t: i64, lat: f64, lon: f64) -> LocationRecord {
        LocationRecord::new(
            UserId(user),
            Timestamp::new(t),
            GeoPoint::new(lat, lon).unwrap(),
        )
    }

    fn sample() -> Dataset {
        Dataset::from_records(vec![
            rec(1, 8 * 3600, 45.0, 4.0),
            rec(1, 20 * 3600, 45.2, 4.2),
            rec(2, 9 * 3600, 45.1, 4.1),
            rec(3, DAY_SECONDS + 10, 45.0, 4.0),
        ])
    }

    #[test]
    fn all_passes_everything_and_is_user_subset() {
        let f = ParticipantFilter::All;
        assert!(f.is_all());
        assert!(f.is_user_subset());
        let ds = sample();
        assert_eq!(f.filter_dataset(&ds), ds);
    }

    #[test]
    fn user_filter_keeps_whole_users() {
        let f = ParticipantFilter::users([UserId(1)]);
        assert!(f.is_user_subset());
        assert!(!f.is_all());
        let out = f.filter_dataset(&sample());
        assert_eq!(out.users(), vec![UserId(1)]);
        assert_eq!(out.record_count(), 2);
    }

    #[test]
    fn region_filter_truncates_histories() {
        let region = BoundingBox::new(
            GeoPoint::new(44.9, 3.9).unwrap(),
            GeoPoint::new(45.05, 4.05).unwrap(),
        )
        .unwrap();
        let f = ParticipantFilter::region(region);
        assert!(!f.is_user_subset());
        let out = f.filter_dataset(&sample());
        // User 1 keeps only the in-region record; user 2's record is out.
        assert_eq!(out.users(), vec![UserId(1), UserId(3)]);
        assert_eq!(out.record_count(), 2);
    }

    #[test]
    fn hour_filter_wraps_midnight() {
        let f = ParticipantFilter::hours(19, 10);
        assert!(!f.is_user_subset());
        let out = f.filter_dataset(&sample());
        // 8 h and 9 h pass (before 10), 20 h passes (after 19).
        assert_eq!(out.record_count(), 4);
        let narrow = ParticipantFilter::hours(10, 12);
        assert_eq!(narrow.filter_dataset(&sample()).record_count(), 0);
    }

    #[test]
    fn conjunction_composes_and_collapses_all() {
        let f = ParticipantFilter::users([UserId(1), UserId(2)])
            .and(ParticipantFilter::hours(8, 10));
        assert!(!f.is_user_subset());
        let out = f.filter_dataset(&sample());
        assert_eq!(out.record_count(), 2, "8h and 9h records of users 1, 2");
        let collapsed = ParticipantFilter::All.and(ParticipantFilter::users([UserId(1)]));
        assert_eq!(collapsed, ParticipantFilter::users([UserId(1)]));
        assert!(ParticipantFilter::All.and(ParticipantFilter::All).is_all());
    }

    #[test]
    fn fully_kept_trajectories_stay_shared() {
        let windows = WindowedDataset::partition(&sample());
        let window = &windows.windows()[0];
        let subset = ParticipantFilter::users([UserId(1)]);
        let kept = subset.filter_window(window).unwrap();
        assert_eq!(kept.dataset().trajectory_count(), 1);
        let source = &window.dataset().trajectories()[0];
        assert!(Arc::ptr_eq(&kept.dataset().trajectories()[0], source));
        // A time-window filter keeps only part of user 1's day: a new
        // trajectory, holding exactly the records that pass.
        let morning = ParticipantFilter::hours(8, 10)
            .filter_window(window)
            .unwrap();
        let partial = &morning.dataset().trajectories()[0];
        assert!(!Arc::ptr_eq(partial, source));
        assert_eq!(partial.records(), &source.records()[..1]);
        // User 2's only record passes: the same handle again.
        assert!(Arc::ptr_eq(
            &morning.dataset().trajectories()[1],
            &window.dataset().trajectories()[1]
        ));
    }

    #[test]
    fn window_filtering_preserves_canonical_shape() {
        let windows = WindowedDataset::partition(&sample());
        let f = ParticipantFilter::users([UserId(2), UserId(1)]);
        let filtered = f.filter_window(&windows.windows()[0]).unwrap();
        assert_eq!(filtered.day(), 0);
        assert_eq!(filtered.users(), vec![UserId(1), UserId(2)]);
        // Day 1 has only user 3: fully filtered out.
        assert!(f.filter_window(&windows.windows()[1]).is_none());
        // Filtering the window equals windowing the filtered dataset.
        let refiltered = WindowedDataset::partition(&f.filter_dataset(&sample()));
        assert_eq!(&filtered, &refiltered.windows()[0]);
    }
}
