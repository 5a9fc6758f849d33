//! Speed smoothing — the paper's novel anonymization strategy.
//!
//! "We use an algorithm that smoothes speed along a trajectory (typically
//! one day of data) to guarantee that speed is constant. This still allows
//! to analyze the trajectory of a user but prevents to find out places where
//! he stopped during his day." (paper, §3)
//!
//! The mechanism (published later by the same authors as *Promesse*,
//! Primault et al. 2015) has three steps per trajectory:
//!
//! 1. simplify the path with Douglas–Peucker at tolerance `epsilon / 2`,
//!    which removes GPS jitter — without this, hours of jitter at a stay
//!    location inflate the local path length and leak the dwell right back
//!    through the resampling;
//! 2. trim the first and last [`SpeedSmoothing::endpoint_trim`] metres of
//!    the path — each day starts and ends at home, so untrimmed endpoints
//!    pin the home location across days (published trajectories would keep
//!    re-appearing at the same spot every midnight);
//! 3. resample the remaining path at a regular spatial interval `epsilon`
//!    (points exactly `epsilon` metres apart along the polyline);
//! 4. reassign timestamps *uniformly* between the first and last fix.
//!
//! A day whose trimmed path is shorter than `epsilon` (e.g. a day spent
//! entirely at home) is published as an *empty* trajectory: there is no
//! movement to share, and any fixed point would reveal the stay.
//!
//! After this, apparent speed is constant: dwell episodes contribute no
//! extra points at their location, so stay-point and dwell-density attacks
//! find nothing, while the path shape — what crowd analyses need — is kept
//! to within `epsilon`. Choose `epsilon` at least ~4× the GPS noise level
//! so step 1 can separate jitter from real movement.

use crate::error::PrivapiError;
use crate::federated::StrategySpec;
use crate::strategy::{
    protect_each, AnonymizationStrategy, OutputIdentity, StrategyInfo, UserLocality,
};
use geo::{BoundingBox, Meters};
use mobility::{Dataset, LocationRecord, Timestamp, Trajectory};
use std::sync::Arc;

/// The speed-smoothing (Promesse) strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedSmoothing {
    epsilon: Meters,
    endpoint_trim: Meters,
}

impl SpeedSmoothing {
    /// Creates the strategy with spatial resampling interval `epsilon`.
    ///
    /// Larger `epsilon` means fewer output points (more privacy margin, less
    /// geometric fidelity). The paper's companion work uses 50–500 m. The
    /// endpoint trim defaults to `max(2 × epsilon, 400 m)`.
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::InvalidParameter`] when `epsilon` lies
    /// outside [`super::MIN_RESAMPLING_M`]..=[`super::MAX_SCALE_M`].
    pub fn new(epsilon: Meters) -> Result<Self, PrivapiError> {
        let range = super::MIN_RESAMPLING_M..=super::MAX_SCALE_M;
        super::in_range("epsilon", epsilon.get(), range)?;
        Ok(Self {
            epsilon,
            endpoint_trim: Meters::new((2.0 * epsilon.get()).max(400.0)),
        })
    }

    /// Overrides the endpoint trim distance (0 disables trimming — useful
    /// for ablations, but leaks trajectory origins/destinations).
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::InvalidParameter`] for negative or non-finite
    /// values.
    pub fn with_endpoint_trim(mut self, trim: Meters) -> Result<Self, PrivapiError> {
        if trim.get() < 0.0 || !trim.get().is_finite() {
            return Err(PrivapiError::InvalidParameter {
                name: "endpoint_trim",
                value: format!("{}", trim.get()),
            });
        }
        self.endpoint_trim = trim;
        Ok(self)
    }

    /// The spatial resampling interval.
    pub fn epsilon(&self) -> Meters {
        self.epsilon
    }

    /// The distance removed from each end of every trajectory.
    pub fn endpoint_trim(&self) -> Meters {
        self.endpoint_trim
    }

    /// Smoothes one trajectory (exposed for tests and ablations).
    pub fn smooth_trajectory(&self, trajectory: &Trajectory) -> Trajectory {
        let user = trajectory.user();
        let records = trajectory.records();
        if records.len() < 2 {
            return trajectory.clone();
        }
        let start = records.first().expect("len >= 2").time;
        let end = records.last().expect("len >= 2").time;
        let points = trajectory.points();
        // Step 1: strip GPS jitter below the resampling scale, otherwise
        // stationary noise clouds add phantom path length at exactly the
        // places the mechanism must hide.
        let simplified = geo::polyline::douglas_peucker(&points, self.epsilon * 0.5);
        // Step 2: trim the endpoints — days begin and end at home, and a
        // published fix at the same spot every midnight pins it.
        let total_len = geo::polyline::length(&simplified);
        let trim = self.endpoint_trim.get();
        let usable = total_len.get() - 2.0 * trim;
        if usable < self.epsilon.get() {
            // Nothing safely publishable (e.g. a day spent at home).
            return Trajectory::new(user, Vec::new());
        }
        let trimmed = slice_polyline(
            &simplified,
            Meters::new(trim),
            Meters::new(total_len.get() - trim),
        );
        let resampled = match geo::polyline::resample_by_distance(&trimmed, self.epsilon) {
            Ok(r) => r,
            Err(_) => return Trajectory::new(user, Vec::new()),
        };
        if resampled.len() == 1 {
            return Trajectory::new(user, Vec::new());
        }
        // Step 4: reassign timestamps proportionally to distance along the
        // path, so speed is constant by construction — including across the
        // final (shorter-than-epsilon) remainder segment.
        let total_span = (end - start).max(0);
        let cumulative = geo::polyline::cumulative_distances(&resampled);
        let path_total = *cumulative.last().expect("resampled non-empty");
        let new_records: Vec<LocationRecord> = resampled
            .iter()
            .zip(cumulative.iter())
            .map(|(point, d)| {
                let frac = if path_total > 0.0 {
                    d / path_total
                } else {
                    0.0
                };
                let t = start.seconds() + ((total_span as f64) * frac).round() as i64;
                LocationRecord::new(user, Timestamp::new(t), *point)
            })
            .collect();
        Trajectory::new(user, new_records)
    }
}

/// Extracts the sub-polyline between two distances along a path.
fn slice_polyline(points: &[geo::GeoPoint], from: Meters, to: Meters) -> Vec<geo::GeoPoint> {
    if points.len() < 2 || to.get() <= from.get() {
        return points.to_vec();
    }
    let cum = geo::polyline::cumulative_distances(points);
    let mut out = Vec::new();
    if let Ok(p) = geo::polyline::point_at_distance(points, from) {
        out.push(p);
    }
    for (p, d) in points.iter().zip(cum.iter()) {
        if *d > from.get() && *d < to.get() {
            out.push(*p);
        }
    }
    if let Ok(p) = geo::polyline::point_at_distance(points, to) {
        out.push(p);
    }
    out
}

impl AnonymizationStrategy for SpeedSmoothing {
    fn info(&self) -> StrategyInfo {
        StrategyInfo {
            name: "speed-smoothing".into(),
            params: format!(
                "epsilon={:.0}m, trim={:.0}m",
                self.epsilon.get(),
                self.endpoint_trim.get()
            ),
        }
    }

    fn anonymize(&self, dataset: &Dataset, seed: u64) -> Dataset {
        protect_each(self, dataset, seed)
    }

    fn protect(
        &self,
        trajectory: &Arc<Trajectory>,
        _seed: u64,
        _anchor: Option<&BoundingBox>,
    ) -> Arc<Trajectory> {
        Arc::new(self.smooth_trajectory(trajectory))
    }

    /// Smoothing is deterministic per trajectory (no randomness, no grid):
    /// user `u`'s output depends only on `u`'s own records.
    fn locality(&self) -> UserLocality {
        UserLocality::UserLocal
    }

    fn spec(&self) -> Option<StrategySpec> {
        Some(StrategySpec::SpeedSmoothing {
            epsilon_m: self.epsilon().get(),
        })
    }

    /// The spec plus the endpoint trim, which the spec leaves out.
    fn output_identity(&self) -> Option<OutputIdentity> {
        let trim = self.endpoint_trim.get().to_bits();
        self.spec().map(|spec| spec.identity([trim]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::GeoPoint;
    use mobility::UserId;

    fn rec(t: i64, lat: f64, lon: f64) -> LocationRecord {
        LocationRecord::new(
            UserId(1),
            Timestamp::new(t),
            GeoPoint::new(lat, lon).unwrap(),
        )
    }

    /// A day with a long stop in the middle: home → (stop) → work.
    fn day_with_stop() -> Trajectory {
        let mut records = Vec::new();
        // Move east for 10 min.
        for i in 0..10 {
            records.push(rec(i * 60, 45.0, 4.0 + 0.001 * i as f64));
        }
        // Stop for 2 h.
        for i in 10..130 {
            records.push(rec(i * 60, 45.0, 4.009));
        }
        // Move east again for 10 min.
        for i in 130..140 {
            records.push(rec(i * 60, 45.0, 4.009 + 0.001 * (i - 129) as f64));
        }
        Trajectory::new(UserId(1), records)
    }

    #[test]
    fn rejects_bad_epsilon() {
        assert!(SpeedSmoothing::new(Meters::new(0.0)).is_err());
        assert!(SpeedSmoothing::new(Meters::new(-5.0)).is_err());
        assert!(SpeedSmoothing::new(Meters::new(f64::NAN)).is_err());
        assert!(SpeedSmoothing::new(Meters::new(1e-9)).is_err());
        assert!(SpeedSmoothing::new(Meters::new(f64::MAX)).is_err());
        assert!(SpeedSmoothing::new(Meters::new(crate::strategies::MIN_RESAMPLING_M)).is_ok());
        assert!(SpeedSmoothing::new(Meters::new(100.0)).is_ok());
    }

    #[test]
    fn output_speed_is_constant() {
        let strategy = SpeedSmoothing::new(Meters::new(50.0)).unwrap();
        let smoothed = strategy.smooth_trajectory(&day_with_stop());
        let cv = smoothed.speed_cv().expect("enough segments");
        // Timestamps are rounded to whole seconds, so allow a small
        // quantization residue; raw data has cv >> 1.
        assert!(cv < 0.2, "speed cv after smoothing = {cv}");
        let raw_cv = day_with_stop().speed_cv().unwrap();
        assert!(raw_cv > 1.0, "raw cv = {raw_cv}");
    }

    #[test]
    fn timespan_preserved_and_endpoints_trimmed() {
        let strategy = SpeedSmoothing::new(Meters::new(100.0)).unwrap();
        let original = day_with_stop();
        let smoothed = strategy.smooth_trajectory(&original);
        // The published trajectory still covers the same time window...
        assert_eq!(smoothed.start_time(), original.start_time());
        assert_eq!(smoothed.end_time(), original.end_time());
        // ...but its endpoints are pushed ~trim metres away from the real
        // origin/destination, hiding where the day started and ended.
        let trim = strategy.endpoint_trim().get();
        let o_first = original.records().first().unwrap().point;
        let s_first = smoothed.records().first().unwrap().point;
        let d_first = o_first.haversine_distance(&s_first).get();
        assert!(
            d_first > trim * 0.5,
            "first point only {d_first} m from true origin (trim {trim})"
        );
        let o_last = original.records().last().unwrap().point;
        let s_last = smoothed.records().last().unwrap().point;
        assert!(o_last.haversine_distance(&s_last).get() > trim * 0.5);
    }

    #[test]
    fn zero_trim_preserves_endpoints() {
        let strategy = SpeedSmoothing::new(Meters::new(100.0))
            .unwrap()
            .with_endpoint_trim(Meters::new(0.0))
            .unwrap();
        let original = day_with_stop();
        let smoothed = strategy.smooth_trajectory(&original);
        let o_first = original.records().first().unwrap().point;
        let s_first = smoothed.records().first().unwrap().point;
        assert!(o_first.haversine_distance(&s_first).get() < 1.0);
        assert!(strategy.with_endpoint_trim(Meters::new(-1.0)).is_err());
    }

    #[test]
    fn dwell_at_stop_is_erased() {
        use mobility::staypoint::{detect, StayPointConfig};
        let strategy = SpeedSmoothing::new(Meters::new(100.0)).unwrap();
        let original = day_with_stop();
        let raw_stays = detect(&original, &StayPointConfig::default());
        // Raw data contains the 2 h stop as a dominant stay.
        let raw_max = raw_stays.iter().map(|s| s.duration_s()).max().unwrap();
        assert!(raw_max >= 110 * 60, "raw stop dwell {raw_max}s");
        // After smoothing, slow constant motion may still trip the detector
        // ("pseudo-stays"), but no location can accumulate anything close to
        // the original stop's dwell — the stop is indistinguishable from the
        // rest of the path.
        let smoothed = strategy.smooth_trajectory(&original);
        let smoothed_stays = detect(&smoothed, &StayPointConfig::default());
        let smoothed_max = smoothed_stays
            .iter()
            .map(|s| s.duration_s())
            .max()
            .unwrap_or(0);
        assert!(
            smoothed_max < raw_max / 2,
            "smoothing left a {smoothed_max}s dwell (raw stop {raw_max}s)"
        );
        // And the dwell-concentration attack finds nothing.
        let ds = Dataset::from_trajectories(vec![original]);
        let protected = strategy.anonymize(&ds, 0);
        let extracted = crate::attack::PoiAttack::default().extract(&protected);
        assert!(
            extracted[&UserId(1)].is_empty(),
            "attack extracted {:?} from smoothed data",
            extracted[&UserId(1)]
        );
    }

    #[test]
    fn path_geometry_preserved_within_epsilon() {
        let strategy = SpeedSmoothing::new(Meters::new(50.0)).unwrap();
        let original = day_with_stop();
        let smoothed = strategy.smooth_trajectory(&original);
        // Every smoothed point must lie near the original path (within ~2
        // epsilon; the path is a straight east-west line here).
        let path = original.points();
        for r in smoothed.records() {
            let min_d = path
                .iter()
                .map(|p| p.haversine_distance(&r.point).get())
                .fold(f64::INFINITY, f64::min);
            assert!(min_d < 100.0, "smoothed point {min_d} m off-path");
        }
    }

    #[test]
    fn stationary_day_publishes_nothing() {
        let strategy = SpeedSmoothing::new(Meters::new(100.0)).unwrap();
        let records: Vec<LocationRecord> = (0..100).map(|i| rec(i * 60, 45.0, 4.0)).collect();
        let stationary = Trajectory::new(UserId(1), records);
        let smoothed = strategy.smooth_trajectory(&stationary);
        assert!(
            smoothed.is_empty(),
            "a stationary day must not reveal its location"
        );
    }

    #[test]
    fn tiny_trajectories_pass_through() {
        let strategy = SpeedSmoothing::new(Meters::new(100.0)).unwrap();
        let empty = Trajectory::new(UserId(1), vec![]);
        assert_eq!(strategy.smooth_trajectory(&empty).len(), 0);
        let single = Trajectory::new(UserId(1), vec![rec(0, 45.0, 4.0)]);
        assert_eq!(strategy.smooth_trajectory(&single).len(), 1);
    }

    #[test]
    fn anonymize_is_deterministic_and_seed_independent() {
        let strategy = SpeedSmoothing::new(Meters::new(75.0)).unwrap();
        let ds = Dataset::from_trajectories(vec![day_with_stop()]);
        let a = strategy.anonymize(&ds, 1);
        let b = strategy.anonymize(&ds, 999);
        assert_eq!(a, b);
    }

    #[test]
    fn info_mentions_epsilon_and_trim() {
        let s = SpeedSmoothing::new(Meters::new(150.0)).unwrap();
        assert_eq!(
            s.info().to_string(),
            "speed-smoothing(epsilon=150m, trim=400m)"
        );
        assert_eq!(s.epsilon(), Meters::new(150.0));
        assert_eq!(s.endpoint_trim(), Meters::new(400.0));
        // Trim scales with epsilon once 2ε exceeds the 400 m floor.
        let wide = SpeedSmoothing::new(Meters::new(500.0)).unwrap();
        assert_eq!(wide.endpoint_trim(), Meters::new(1_000.0));
    }

    #[test]
    fn larger_epsilon_fewer_points() {
        let fine = SpeedSmoothing::new(Meters::new(25.0)).unwrap();
        let coarse = SpeedSmoothing::new(Meters::new(200.0)).unwrap();
        let t = day_with_stop();
        assert!(fine.smooth_trajectory(&t).len() > coarse.smooth_trajectory(&t).len());
    }
}
