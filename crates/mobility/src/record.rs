//! The mobility data model: records, trajectories and datasets.

use crate::error::MobilityError;
use crate::time::Timestamp;
use geo::{BoundingBox, GeoPoint, Meters, MetersPerSecond};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Opaque identifier of a participant.
///
/// Identifiers are pseudonyms: the platform never stores names, and PRIVAPI's
/// re-identification attack (see the `privapi` crate) measures how easily a
/// pseudonym can be linked back to a mobility profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UserId(pub u64);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user-{}", self.0)
    }
}

/// One timestamped location fix of one user.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocationRecord {
    /// The participant who produced this record.
    pub user: UserId,
    /// When the fix was taken.
    pub time: Timestamp,
    /// Where the participant was.
    pub point: GeoPoint,
}

impl LocationRecord {
    /// Creates a record.
    pub const fn new(user: UserId, time: Timestamp, point: GeoPoint) -> Self {
        Self { user, time, point }
    }
}

/// A time-ordered sequence of location records of a single user — typically
/// one day of data (the paper's smoothing unit, §3).
///
/// Invariant: records are sorted by timestamp (ties allowed) and all belong
/// to the same user. Enforced at construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    user: UserId,
    records: Vec<LocationRecord>,
}

impl Trajectory {
    /// Creates a trajectory from records, sorting them by timestamp.
    ///
    /// All records must belong to `user`; records of other users are
    /// discarded (this makes bulk grouping forgiving).
    pub fn new(user: UserId, mut records: Vec<LocationRecord>) -> Self {
        records.retain(|r| r.user == user);
        records.sort_by_key(|r| r.time);
        Self { user, records }
    }

    /// Creates a trajectory from records already sorted by timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::UnsortedRecords`] if the input is not sorted,
    /// and [`MobilityError::InvalidParameter`] if any record belongs to a
    /// different user.
    pub fn from_sorted(
        user: UserId,
        records: Vec<LocationRecord>,
    ) -> Result<Self, MobilityError> {
        if records.windows(2).any(|w| w[1].time < w[0].time) {
            return Err(MobilityError::UnsortedRecords);
        }
        if let Some(r) = records.iter().find(|r| r.user != user) {
            return Err(MobilityError::InvalidParameter {
                name: "records",
                value: format!("record of {} in trajectory of {}", r.user, user),
            });
        }
        Ok(Self { user, records })
    }

    /// The user owning this trajectory.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The records, sorted by timestamp.
    pub fn records(&self) -> &[LocationRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trajectory holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The sequence of points, in time order.
    pub fn points(&self) -> Vec<GeoPoint> {
        self.records.iter().map(|r| r.point).collect()
    }

    /// Timestamp of the first record.
    pub fn start_time(&self) -> Option<Timestamp> {
        self.records.first().map(|r| r.time)
    }

    /// Timestamp of the last record.
    pub fn end_time(&self) -> Option<Timestamp> {
        self.records.last().map(|r| r.time)
    }

    /// Total duration covered, in seconds (zero for < 2 records).
    pub fn duration_s(&self) -> i64 {
        match (self.start_time(), self.end_time()) {
            (Some(a), Some(b)) => b - a,
            _ => 0,
        }
    }

    /// Total path length.
    pub fn length(&self) -> Meters {
        geo::polyline::length(&self.points())
    }

    /// The segments between consecutive records, each segment's
    /// great-circle length computed once (see [`Segments`]).
    pub fn segments(&self) -> Segments<'_> {
        Segments::of(&self.records)
    }

    /// Speed of each segment between consecutive records.
    ///
    /// Segments with zero elapsed time are skipped.
    pub fn segment_speeds(&self) -> Vec<MetersPerSecond> {
        self.segments().speeds().collect()
    }

    /// Coefficient of variation of segment speeds (stddev / mean).
    ///
    /// This is the speed-constancy measure used by experiment E2: a perfectly
    /// speed-smoothed trajectory has a coefficient near zero. Returns `None`
    /// when there are fewer than two segments or the mean speed is zero.
    pub fn speed_cv(&self) -> Option<f64> {
        self.segments().speed_cv()
    }

    /// Position at time `t`, linearly interpolated between the surrounding
    /// records. Times outside the covered span clamp to the first/last fix.
    /// Returns `None` for an empty trajectory.
    pub fn position_at(&self, t: Timestamp) -> Option<GeoPoint> {
        let first = self.records.first()?;
        let last = self.records.last()?;
        if t <= first.time {
            return Some(first.point);
        }
        if t >= last.time {
            return Some(last.point);
        }
        // Binary search for the segment containing `t`.
        let idx = self.records.partition_point(|r| r.time <= t);
        let before = &self.records[idx - 1];
        let after = &self.records[idx];
        let span = after.time - before.time;
        if span <= 0 {
            return Some(before.point);
        }
        let frac = (t - before.time) as f64 / span as f64;
        Some(before.point.lerp(&after.point, frac))
    }

    /// Splits the trajectory wherever the gap between consecutive records
    /// exceeds `max_gap_s` seconds.
    pub fn split_by_gap(&self, max_gap_s: i64) -> Vec<Trajectory> {
        if self.records.is_empty() {
            return Vec::new();
        }
        let mut parts = Vec::new();
        let mut current: Vec<LocationRecord> = Vec::new();
        for r in &self.records {
            if let Some(last) = current.last() {
                if r.time - last.time > max_gap_s {
                    parts.push(Trajectory {
                        user: self.user,
                        records: std::mem::take(&mut current),
                    });
                }
            }
            current.push(*r);
        }
        if !current.is_empty() {
            parts.push(Trajectory {
                user: self.user,
                records: current,
            });
        }
        parts
    }

    /// The days (day indexes) this trajectory spans.
    pub fn days(&self) -> Vec<i64> {
        let mut days: Vec<i64> = self.records.iter().map(|r| r.time.day_index()).collect();
        days.dedup();
        days
    }
}

/// One pass over a trajectory's segments: the great-circle length of the
/// segment from each record to the next, computed once and read by both
/// the speed-constancy measure ([`Segments::speed_cv`]) and the stay-point
/// detector ([`crate::staypoint::detect_segments`]).
///
/// [`Segments::distance`] of `(i, j)` equals
/// `records[i].point.haversine_distance(&records[j].point)` bit for bit: an
/// adjacent pair reads the segment length the pass measured, any other pair
/// is measured with each record's cached latitude cosine.
#[derive(Debug)]
pub struct Segments<'a> {
    records: &'a [LocationRecord],
    /// `cos_latitude` of each record.
    cos: Vec<f64>,
    /// Length in metres of the segment from record `i` to record `i + 1`.
    lengths: Vec<f64>,
}

impl<'a> Segments<'a> {
    /// Measures every segment of `records` (time-sorted).
    pub(crate) fn of(records: &'a [LocationRecord]) -> Self {
        let cos: Vec<f64> = records.iter().map(|r| r.point.cos_latitude()).collect();
        let lengths = records
            .windows(2)
            .zip(cos.windows(2))
            .map(|(w, c)| {
                w[0].point
                    .haversine_distance_cos(&w[1].point, c[0], c[1])
                    .get()
            })
            .collect();
        Self {
            records,
            cos,
            lengths,
        }
    }

    /// The records the segments join.
    pub(crate) fn records(&self) -> &'a [LocationRecord] {
        self.records
    }

    /// Great-circle distance in metres from `records[i]` to `records[j]`.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        if j == i + 1 {
            return self.lengths[i];
        }
        let (a, b) = (&self.records[i].point, &self.records[j].point);
        a.haversine_distance_cos(b, self.cos[i], self.cos[j]).get()
    }

    /// Speed of each segment with a positive elapsed time, in order.
    pub(crate) fn speeds(&self) -> impl Iterator<Item = MetersPerSecond> + '_ {
        self.records
            .windows(2)
            .zip(&self.lengths)
            .filter_map(|(w, d)| {
                let dt = w[1].time - w[0].time;
                (dt > 0).then(|| MetersPerSecond::new(d / dt as f64))
            })
    }

    /// Coefficient of variation of the speeds of the segments with a
    /// positive elapsed time (stddev / mean); `None` below two such
    /// segments or at a zero mean speed.
    pub fn speed_cv(&self) -> Option<f64> {
        let speeds: Vec<f64> = self.speeds().map(|s| s.get()).collect();
        if speeds.len() < 2 {
            return None;
        }
        let mean: f64 = speeds.iter().sum::<f64>() / speeds.len() as f64;
        if mean <= f64::EPSILON {
            return None;
        }
        let var: f64 =
            speeds.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / speeds.len() as f64;
        Some(var.sqrt() / mean)
    }
}

/// A multi-user, multi-day mobility dataset — the unit PRIVAPI anonymizes
/// and publishes.
///
/// Trajectories are held behind [`Arc`]s, making the dataset a
/// **copy-on-write trajectory store**: cloning a dataset, assembling a
/// dataset out of cached per-user trajectories ([`Dataset::from_shared`])
/// and extending one stream prefix from another are all pointer-copy
/// cheap — O(trajectories), never O(records). Equality still compares the
/// pointed-to trajectories by value, so two datasets are equal iff their
/// contents are, shared or not.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    trajectories: Vec<Arc<Trajectory>>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a dataset from trajectories.
    pub fn from_trajectories(trajectories: Vec<Trajectory>) -> Self {
        Self {
            trajectories: trajectories.into_iter().map(Arc::new).collect(),
        }
    }

    /// Creates a dataset from already-shared trajectories without copying
    /// any record data (the copy-on-write assembly path).
    pub fn from_shared(trajectories: Vec<Arc<Trajectory>>) -> Self {
        Self { trajectories }
    }

    /// Groups loose records into one trajectory per user.
    pub fn from_records(records: Vec<LocationRecord>) -> Self {
        let mut by_user: BTreeMap<UserId, Vec<LocationRecord>> = BTreeMap::new();
        for r in records {
            by_user.entry(r.user).or_default().push(r);
        }
        Self {
            trajectories: by_user
                .into_iter()
                .map(|(u, rs)| Arc::new(Trajectory::new(u, rs)))
                .collect(),
        }
    }

    /// Adds a trajectory.
    pub fn push(&mut self, trajectory: Trajectory) {
        self.trajectories.push(Arc::new(trajectory));
    }

    /// All trajectories (shared handles; deref to [`Trajectory`]).
    pub fn trajectories(&self) -> &[Arc<Trajectory>] {
        &self.trajectories
    }

    /// Consumes the dataset into its trajectories, in dataset order.
    /// Trajectories still shared with another dataset are deep-cloned;
    /// uniquely-owned ones are moved out.
    pub fn into_trajectories(self) -> Vec<Trajectory> {
        self.trajectories
            .into_iter()
            .map(Arc::unwrap_or_clone)
            .collect()
    }

    /// Consumes the dataset into its shared trajectory handles, in dataset
    /// order (never copies record data).
    pub fn into_shared(self) -> Vec<Arc<Trajectory>> {
        self.trajectories
    }

    /// Number of trajectories (one per user *per day* for generated data).
    pub fn trajectory_count(&self) -> usize {
        self.trajectories.len()
    }

    /// Distinct users, sorted.
    pub fn users(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self.trajectories.iter().map(|t| t.user()).collect();
        users.sort();
        users.dedup();
        users
    }

    /// Number of distinct users.
    pub fn user_count(&self) -> usize {
        self.users().len()
    }

    /// Total number of records across all trajectories.
    pub fn record_count(&self) -> usize {
        self.trajectories.iter().map(|t| t.len()).sum()
    }

    /// All trajectories belonging to `user`.
    pub fn trajectories_of(&self, user: UserId) -> Vec<&Trajectory> {
        self.trajectories
            .iter()
            .filter(|t| t.user() == user)
            .map(|t| t.as_ref())
            .collect()
    }

    /// Shared handles of all trajectories belonging to `user`, in dataset
    /// order (no record data copied).
    pub fn shared_of(&self, user: UserId) -> Vec<Arc<Trajectory>> {
        self.trajectories
            .iter()
            .filter(|t| t.user() == user)
            .cloned()
            .collect()
    }

    /// All records of `user` across all of their trajectories, time-sorted.
    pub fn records_of(&self, user: UserId) -> Vec<LocationRecord> {
        let mut records: Vec<LocationRecord> = self
            .trajectories
            .iter()
            .filter(|t| t.user() == user)
            .flat_map(|t| t.records().iter().copied())
            .collect();
        records.sort_by_key(|r| r.time);
        records
    }

    /// Iterator over every record in the dataset.
    pub fn iter_records(&self) -> impl Iterator<Item = &LocationRecord> + '_ {
        self.trajectories.iter().flat_map(|t| t.records().iter())
    }

    /// Smallest bounding box covering every record.
    pub fn bounding_box(&self) -> Option<BoundingBox> {
        let points: Vec<GeoPoint> = self.iter_records().map(|r| r.point).collect();
        BoundingBox::from_points(points.iter()).ok()
    }

    /// Applies `f` to every trajectory, producing a transformed dataset.
    ///
    /// This is the hook anonymization strategies use: each trajectory is
    /// rewritten independently.
    pub fn map_trajectories<F>(&self, mut f: F) -> Dataset
    where
        F: FnMut(&Trajectory) -> Trajectory,
    {
        Dataset {
            trajectories: self.trajectories.iter().map(|t| Arc::new(f(t))).collect(),
        }
    }
}

impl FromIterator<Trajectory> for Dataset {
    fn from_iter<I: IntoIterator<Item = Trajectory>>(iter: I) -> Self {
        Dataset {
            trajectories: iter.into_iter().map(Arc::new).collect(),
        }
    }
}

impl FromIterator<Arc<Trajectory>> for Dataset {
    fn from_iter<I: IntoIterator<Item = Arc<Trajectory>>>(iter: I) -> Self {
        Dataset {
            trajectories: iter.into_iter().collect(),
        }
    }
}

impl Extend<Trajectory> for Dataset {
    fn extend<I: IntoIterator<Item = Trajectory>>(&mut self, iter: I) {
        self.trajectories.extend(iter.into_iter().map(Arc::new));
    }
}

impl Extend<Arc<Trajectory>> for Dataset {
    fn extend<I: IntoIterator<Item = Arc<Trajectory>>>(&mut self, iter: I) {
        self.trajectories.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::DAY_SECONDS;

    fn rec(user: u64, t: i64, lat: f64, lon: f64) -> LocationRecord {
        LocationRecord::new(
            UserId(user),
            Timestamp::new(t),
            GeoPoint::new(lat, lon).unwrap(),
        )
    }

    #[test]
    fn trajectory_new_sorts_and_filters() {
        let records = vec![
            rec(1, 100, 45.0, 4.0),
            rec(1, 50, 45.0, 4.0),
            rec(2, 75, 45.0, 4.0), // other user, dropped
        ];
        let t = Trajectory::new(UserId(1), records);
        assert_eq!(t.len(), 2);
        assert_eq!(t.start_time(), Some(Timestamp::new(50)));
        assert_eq!(t.end_time(), Some(Timestamp::new(100)));
    }

    #[test]
    fn from_sorted_validates() {
        let sorted = vec![rec(1, 0, 45.0, 4.0), rec(1, 10, 45.0, 4.0)];
        assert!(Trajectory::from_sorted(UserId(1), sorted.clone()).is_ok());
        let unsorted = vec![rec(1, 10, 45.0, 4.0), rec(1, 0, 45.0, 4.0)];
        assert!(matches!(
            Trajectory::from_sorted(UserId(1), unsorted),
            Err(MobilityError::UnsortedRecords)
        ));
        let wrong_user = vec![rec(2, 0, 45.0, 4.0)];
        assert!(Trajectory::from_sorted(UserId(1), wrong_user).is_err());
    }

    #[test]
    fn duration_and_length() {
        let t = Trajectory::new(
            UserId(1),
            vec![rec(1, 0, 45.0, 4.0), rec(1, 100, 45.0, 4.01)],
        );
        assert_eq!(t.duration_s(), 100);
        assert!(t.length().get() > 700.0 && t.length().get() < 800.0);
    }

    #[test]
    fn segment_speeds_skip_zero_dt() {
        let t = Trajectory::new(
            UserId(1),
            vec![
                rec(1, 0, 45.0, 4.0),
                rec(1, 0, 45.0, 4.001), // simultaneous fix: skipped
                rec(1, 100, 45.0, 4.002),
            ],
        );
        assert_eq!(t.segment_speeds().len(), 1);
    }

    #[test]
    fn speed_cv_constant_speed_is_zero() {
        // Equally spaced points, equal time steps → constant speed.
        let records: Vec<LocationRecord> = (0..10)
            .map(|i| rec(1, i * 60, 45.0, 4.0 + 0.001 * i as f64))
            .collect();
        let t = Trajectory::new(UserId(1), records);
        let cv = t.speed_cv().unwrap();
        assert!(cv < 1e-6, "cv = {cv}");
    }

    #[test]
    fn speed_cv_detects_stops() {
        // Move, stop for a long time, move again → high variation.
        let mut records = Vec::new();
        for i in 0..5 {
            records.push(rec(1, i * 60, 45.0, 4.0 + 0.001 * i as f64));
        }
        for i in 5..20 {
            records.push(rec(1, i * 60, 45.0, 4.004)); // stopped
        }
        for i in 20..25 {
            records.push(rec(1, i * 60, 45.0, 4.004 + 0.001 * (i - 19) as f64));
        }
        let t = Trajectory::new(UserId(1), records);
        assert!(t.speed_cv().unwrap() > 0.5);
    }

    #[test]
    fn split_by_gap() {
        let t = Trajectory::new(
            UserId(1),
            vec![
                rec(1, 0, 45.0, 4.0),
                rec(1, 60, 45.0, 4.0),
                rec(1, 10_000, 45.0, 4.1),
                rec(1, 10_060, 45.0, 4.1),
            ],
        );
        let parts = t.split_by_gap(300);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 2);
        assert!(Trajectory::new(UserId(1), vec![])
            .split_by_gap(60)
            .is_empty());
    }

    #[test]
    fn dataset_grouping_and_counts() {
        let ds = Dataset::from_records(vec![
            rec(1, 0, 45.0, 4.0),
            rec(2, 0, 45.0, 4.0),
            rec(1, 60, 45.0, 4.0),
        ]);
        assert_eq!(ds.user_count(), 2);
        assert_eq!(ds.record_count(), 3);
        assert_eq!(ds.trajectories_of(UserId(1)).len(), 1);
        assert_eq!(ds.records_of(UserId(1)).len(), 2);
        assert_eq!(ds.users(), vec![UserId(1), UserId(2)]);
    }

    #[test]
    fn dataset_bounding_box() {
        let ds = Dataset::from_records(vec![rec(1, 0, 45.0, 4.0), rec(1, 60, 46.0, 5.0)]);
        let bbox = ds.bounding_box().unwrap();
        assert_eq!(bbox.min().latitude(), 45.0);
        assert_eq!(bbox.max().longitude(), 5.0);
        assert!(Dataset::new().bounding_box().is_none());
    }

    #[test]
    fn map_trajectories_transforms() {
        let ds = Dataset::from_records(vec![rec(1, 0, 45.0, 4.0), rec(1, 60, 45.0, 4.1)]);
        let emptied = ds.map_trajectories(|t| Trajectory::new(t.user(), Vec::new()));
        assert_eq!(emptied.record_count(), 0);
        assert_eq!(emptied.trajectory_count(), ds.trajectory_count());
    }

    #[test]
    fn days_span() {
        let t = Trajectory::new(
            UserId(1),
            vec![
                rec(1, 0, 45.0, 4.0),
                rec(1, DAY_SECONDS + 5, 45.0, 4.0),
                rec(1, DAY_SECONDS + 10, 45.0, 4.0),
            ],
        );
        assert_eq!(t.days(), vec![0, 1]);
    }

    #[test]
    fn position_at_interpolates() {
        let t = Trajectory::new(
            UserId(1),
            vec![rec(1, 0, 45.0, 4.0), rec(1, 100, 45.0, 4.1)],
        );
        // Before start / after end clamp.
        assert_eq!(
            t.position_at(Timestamp::new(-5)).unwrap(),
            GeoPoint::new(45.0, 4.0).unwrap()
        );
        assert_eq!(
            t.position_at(Timestamp::new(500)).unwrap(),
            GeoPoint::new(45.0, 4.1).unwrap()
        );
        // Midpoint.
        let mid = t.position_at(Timestamp::new(50)).unwrap();
        assert!((mid.longitude() - 4.05).abs() < 1e-9);
        // Quarter point.
        let q = t.position_at(Timestamp::new(25)).unwrap();
        assert!((q.longitude() - 4.025).abs() < 1e-9);
        // Empty trajectory → None.
        assert!(Trajectory::new(UserId(1), vec![])
            .position_at(Timestamp::new(0))
            .is_none());
    }

    #[test]
    fn position_at_handles_duplicate_times() {
        let t = Trajectory::new(
            UserId(1),
            vec![
                rec(1, 10, 45.0, 4.0),
                rec(1, 10, 45.0, 4.2),
                rec(1, 20, 45.0, 4.4),
            ],
        );
        let p = t.position_at(Timestamp::new(10)).unwrap();
        assert!(p.longitude() <= 4.4);
        let p15 = t.position_at(Timestamp::new(15)).unwrap();
        assert!((p15.longitude() - 4.3).abs() < 1e-9);
    }

    #[test]
    fn dataset_collect_and_extend() {
        let t1 = Trajectory::new(UserId(1), vec![rec(1, 0, 45.0, 4.0)]);
        let t2 = Trajectory::new(UserId(2), vec![rec(2, 0, 45.0, 4.0)]);
        let mut ds: Dataset = vec![t1].into_iter().collect();
        ds.extend(vec![t2]);
        assert_eq!(ds.user_count(), 2);
    }
}
