//! Stay-point detection.
//!
//! A *stay point* is a maximal sub-sequence of a trajectory during which the
//! user remained within a small radius for a minimum amount of time — the
//! raw signal from which points of interest are built. The detector follows
//! Li et al., "Mining user similarity based on location history" (ACM GIS
//! 2008), the algorithm used by the paper's companion work on POI attacks.

use crate::record::{Segments, Trajectory};
use crate::time::Timestamp;
use geo::{GeoPoint, Meters};
use serde::{Deserialize, Serialize};

/// A detected stay episode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StayPoint {
    /// Mean position over the stay.
    pub centroid: GeoPoint,
    /// Time the user arrived.
    pub arrival: Timestamp,
    /// Time the user left.
    pub departure: Timestamp,
}

impl StayPoint {
    /// Dwell time of the stay, in seconds.
    pub fn duration_s(&self) -> i64 {
        self.departure - self.arrival
    }
}

/// Parameters of the stay-point detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StayPointConfig {
    /// Maximum roaming distance within a stay.
    pub distance_threshold: Meters,
    /// Minimum dwell time, in seconds, for a pause to count as a stay.
    pub time_threshold_s: i64,
}

impl Default for StayPointConfig {
    /// The defaults used by the paper's companion attack work:
    /// 200 m roaming radius, 15 minutes minimum dwell.
    fn default() -> Self {
        Self {
            distance_threshold: Meters::new(200.0),
            time_threshold_s: 15 * 60,
        }
    }
}

/// Detects stay points in a single trajectory.
///
/// # Example
///
/// ```
/// use mobility::{LocationRecord, Timestamp, Trajectory, UserId};
/// use mobility::staypoint::{detect, StayPointConfig};
/// use geo::GeoPoint;
///
/// // 30 minutes parked at the same spot.
/// let records: Vec<LocationRecord> = (0..30)
///     .map(|i| LocationRecord::new(
///         UserId(1),
///         Timestamp::new(i * 60),
///         GeoPoint::new(45.0, 4.0).unwrap(),
///     ))
///     .collect();
/// let t = Trajectory::new(UserId(1), records);
/// let stays = detect(&t, &StayPointConfig::default());
/// assert_eq!(stays.len(), 1);
/// assert!(stays[0].duration_s() >= 15 * 60);
/// ```
pub fn detect(trajectory: &Trajectory, config: &StayPointConfig) -> Vec<StayPoint> {
    detect_segments(&trajectory.segments(), config)
}

/// Detects stay points across many trajectories (e.g. all days of one user).
pub fn detect_all<'a, I>(trajectories: I, config: &StayPointConfig) -> Vec<StayPoint>
where
    I: IntoIterator<Item = &'a Trajectory>,
{
    detect_all_segments(trajectories.into_iter().map(Trajectory::segments), config)
}

/// [`detect`] over an already-measured segment pass: the distance from a
/// window's first record to the next one is the pass's segment length, so
/// only pairs further apart compute a haversine distance (see
/// [`Segments::distance`]).
pub fn detect_segments(segments: &Segments<'_>, config: &StayPointConfig) -> Vec<StayPoint> {
    let records = segments.records();
    let mut stays = Vec::new();
    let n = records.len();
    let mut i = 0;
    while i < n {
        // Find the longest window [i, j) staying within the radius of p_i.
        let mut j = i + 1;
        while j < n {
            if segments.distance(i, j) > config.distance_threshold.get() {
                break;
            }
            j += 1;
        }
        // records[i..j] are all within distance_threshold of records[i].
        let last = j - 1;
        let dwell = records[last].time - records[i].time;
        if dwell >= config.time_threshold_s {
            let count = (last - i + 1) as f64;
            let lat = records[i..=last]
                .iter()
                .map(|r| r.point.latitude())
                .sum::<f64>()
                / count;
            let lon = records[i..=last]
                .iter()
                .map(|r| r.point.longitude())
                .sum::<f64>()
                / count;
            stays.push(StayPoint {
                centroid: GeoPoint::clamped(lat, lon),
                arrival: records[i].time,
                departure: records[last].time,
            });
            i = j;
        } else {
            i += 1;
        }
    }
    stays
}

/// [`detect_all`] over already-measured segment passes: every pass's stays,
/// stably sorted by arrival.
pub fn detect_all_segments<'a, I>(segments: I, config: &StayPointConfig) -> Vec<StayPoint>
where
    I: IntoIterator<Item = Segments<'a>>,
{
    let mut stays: Vec<StayPoint> = segments
        .into_iter()
        .flat_map(|s| detect_segments(&s, config))
        .collect();
    stays.sort_by_key(|s| s.arrival);
    stays
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LocationRecord, UserId};

    fn rec(t: i64, lat: f64, lon: f64) -> LocationRecord {
        LocationRecord::new(
            UserId(1),
            Timestamp::new(t),
            GeoPoint::new(lat, lon).unwrap(),
        )
    }

    fn cfg() -> StayPointConfig {
        StayPointConfig::default()
    }

    #[test]
    fn empty_trajectory_no_stays() {
        let t = Trajectory::new(UserId(1), vec![]);
        assert!(detect(&t, &cfg()).is_empty());
    }

    #[test]
    fn moving_trajectory_no_stays() {
        // 1 km/min straight line: never within 200 m for 15 min.
        let records: Vec<LocationRecord> = (0..60)
            .map(|i| rec(i * 60, 45.0, 4.0 + 0.01 * i as f64))
            .collect();
        let t = Trajectory::new(UserId(1), records);
        assert!(detect(&t, &cfg()).is_empty());
    }

    #[test]
    fn single_long_stay_detected() {
        let records: Vec<LocationRecord> = (0..60).map(|i| rec(i * 60, 45.0, 4.0)).collect();
        let t = Trajectory::new(UserId(1), records);
        let stays = detect(&t, &cfg());
        assert_eq!(stays.len(), 1);
        assert_eq!(stays[0].arrival, Timestamp::new(0));
        assert_eq!(stays[0].departure, Timestamp::new(59 * 60));
        assert!(
            stays[0]
                .centroid
                .haversine_distance(&GeoPoint::new(45.0, 4.0).unwrap())
                .get()
                < 1.0
        );
    }

    #[test]
    fn short_pause_ignored() {
        // Only 10 minutes of dwell: below the 15-minute threshold.
        let records: Vec<LocationRecord> = (0..10).map(|i| rec(i * 60, 45.0, 4.0)).collect();
        let t = Trajectory::new(UserId(1), records);
        assert!(detect(&t, &cfg()).is_empty());
    }

    #[test]
    fn two_stays_with_commute_between() {
        let mut records = Vec::new();
        // Stay A: 0..30 min at (45.0, 4.0).
        for i in 0..30 {
            records.push(rec(i * 60, 45.0, 4.0));
        }
        // Commute: 30..40 min moving east fast.
        for i in 30..40 {
            records.push(rec(i * 60, 45.0, 4.0 + 0.01 * (i - 29) as f64));
        }
        // Stay B: 40..70 min at (45.0, 4.1).
        for i in 40..70 {
            records.push(rec(i * 60, 45.0, 4.1));
        }
        let t = Trajectory::new(UserId(1), records);
        let stays = detect(&t, &cfg());
        assert_eq!(stays.len(), 2);
        assert!(stays[0].centroid.longitude() < 4.05);
        assert!(stays[1].centroid.longitude() > 4.05);
        assert!(stays[0].departure <= stays[1].arrival);
    }

    #[test]
    fn jittered_stay_still_detected() {
        // GPS noise of ±50 m around a fixed spot stays within the 200 m radius.
        let records: Vec<LocationRecord> = (0..30)
            .map(|i| {
                let jitter = if i % 2 == 0 { 0.0004 } else { -0.0004 };
                rec(i * 60, 45.0 + jitter, 4.0)
            })
            .collect();
        let t = Trajectory::new(UserId(1), records);
        let stays = detect(&t, &cfg());
        assert_eq!(stays.len(), 1);
    }

    #[test]
    fn detect_all_merges_and_sorts() {
        let day0: Vec<LocationRecord> = (0..30).map(|i| rec(i * 60, 45.0, 4.0)).collect();
        let day1: Vec<LocationRecord> =
            (0..30).map(|i| rec(86_400 + i * 60, 45.0, 4.1)).collect();
        let t0 = Trajectory::new(UserId(1), day0);
        let t1 = Trajectory::new(UserId(1), day1);
        // Pass them in reverse order; output must still be time-sorted.
        let stays = detect_all([&t1, &t0], &cfg());
        assert_eq!(stays.len(), 2);
        assert!(stays[0].arrival < stays[1].arrival);
    }

    #[test]
    fn custom_thresholds() {
        let records: Vec<LocationRecord> = (0..10).map(|i| rec(i * 60, 45.0, 4.0)).collect();
        let t = Trajectory::new(UserId(1), records);
        let lenient = StayPointConfig {
            distance_threshold: Meters::new(200.0),
            time_threshold_s: 5 * 60,
        };
        assert_eq!(detect(&t, &lenient).len(), 1);
    }
}
