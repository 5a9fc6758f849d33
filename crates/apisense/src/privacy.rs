//! The device-side privacy layer.
//!
//! "A first layer is deployed on the mobile device and implements several
//! algorithms to filter out and blur sensitive information (e.g., address
//! book, location) depending on user preferences. The user keeps the
//! control of her mobile phone to select the sensors to be shared, as well
//! as when and where these sensors can be used by the platform." (paper, §2)
//!
//! [`PrivacyPreferences`] implements exactly that contract:
//!
//! * **sensor opt-in/out** — which sensors may be shared;
//! * **time windows** — *when* sensors may be used;
//! * **exclusion geofences** — *where* records must never be produced
//!   (typically the user's home);
//! * **location blur** — deterministic Gaussian displacement of published
//!   coordinates;
//! * **contact hashing** — address-book identifiers are one-way hashed
//!   before ever leaving the device.
//!
//! The paper's second layer, "deployed in the cloud and enforces privacy
//! before datasets are released" (§2), is PRIVAPI itself: a task's
//! collected data ([`crate::honeycomb::Honeycomb::mobility_dataset`]) goes
//! through [`privapi::pipeline::PrivApi::publish`], a daily stream through
//! [`privapi::streaming::StreamingPublisher`], and many concurrent tasks
//! through [`crate::campaigns::CampaignGateway`].

use crate::device::{SensedRecord, SensorKind};
use crate::script::Value;
use geo::{GeoPoint, Meters};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A circular exclusion zone: no records inside it are published.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExclusionZone {
    /// Zone centre.
    pub center: GeoPoint,
    /// Zone radius.
    pub radius: Meters,
}

impl ExclusionZone {
    /// Creates a zone.
    pub fn new(center: GeoPoint, radius: Meters) -> Self {
        Self { center, radius }
    }

    /// Whether a point falls inside the zone.
    pub fn contains(&self, point: &GeoPoint) -> bool {
        self.center.haversine_distance(point).get() <= self.radius.get()
    }
}

/// An allowed daily collection window `[start_hour, end_hour)`.
///
/// Windows may wrap past midnight (`start > end`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeWindow {
    /// First allowed hour (inclusive, 0–23).
    pub start_hour: i64,
    /// First disallowed hour (exclusive, 0–24).
    pub end_hour: i64,
}

impl TimeWindow {
    /// Creates a window; hours are clamped to `[0, 24]`.
    pub fn new(start_hour: i64, end_hour: i64) -> Self {
        Self {
            start_hour: start_hour.clamp(0, 24),
            end_hour: end_hour.clamp(0, 24),
        }
    }

    /// Whether `hour` falls inside the window.
    pub fn contains_hour(&self, hour: i64) -> bool {
        if self.start_hour <= self.end_hour {
            (self.start_hour..self.end_hour).contains(&hour)
        } else {
            hour >= self.start_hour || hour < self.end_hour
        }
    }
}

/// Per-user privacy preferences enforced on the device before any record
/// leaves it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrivacyPreferences {
    /// Sensors the user agreed to share.
    enabled_sensors: BTreeSet<SensorKind>,
    /// Zones where no record may be produced.
    exclusion_zones: Vec<ExclusionZone>,
    /// Allowed collection windows; empty means "any time".
    time_windows: Vec<TimeWindow>,
    /// Standard deviation of the location blur, in metres (0 = off).
    blur_sigma_m: f64,
    /// Per-user salt for deterministic blur and contact hashing.
    salt: u64,
}

impl Default for PrivacyPreferences {
    /// Everything shared, no zones, no windows, no blur.
    fn default() -> Self {
        Self {
            enabled_sensors: SensorKind::ALL.into_iter().collect(),
            exclusion_zones: Vec::new(),
            time_windows: Vec::new(),
            blur_sigma_m: 0.0,
            salt: 0x5A17,
        }
    }
}

impl PrivacyPreferences {
    /// Creates fully-open preferences (same as [`Default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Disables one sensor.
    pub fn without_sensor(mut self, sensor: SensorKind) -> Self {
        self.enabled_sensors.remove(&sensor);
        self
    }

    /// Adds an exclusion zone.
    pub fn with_exclusion_zone(mut self, zone: ExclusionZone) -> Self {
        self.exclusion_zones.push(zone);
        self
    }

    /// Restricts collection to a daily time window (may be called several
    /// times; a record is allowed if *any* window contains it).
    pub fn with_time_window(mut self, window: TimeWindow) -> Self {
        self.time_windows.push(window);
        self
    }

    /// Enables Gaussian location blur with the given standard deviation.
    pub fn with_blur(mut self, sigma: Meters) -> Self {
        self.blur_sigma_m = sigma.get().max(0.0);
        self
    }

    /// Sets the per-user salt (blur displacement and contact hashes are
    /// deterministic per salt).
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// Whether the user shares `sensor`.
    pub fn sensor_enabled(&self, sensor: SensorKind) -> bool {
        self.enabled_sensors.contains(&sensor)
    }

    /// Applies the full filter chain to a record.
    ///
    /// Returns `None` when the record must be suppressed (outside every
    /// allowed time window, or located inside an exclusion zone), otherwise
    /// the (possibly blurred) record.
    pub fn filter_record(&self, mut record: SensedRecord) -> Option<SensedRecord> {
        // When: time windows.
        if !self.time_windows.is_empty() {
            let hour = record.time.hour_of_day();
            if !self.time_windows.iter().any(|w| w.contains_hour(hour)) {
                return None;
            }
        }
        let blur = self.blur_sigma_m > 0.0;
        if self.exclusion_zones.is_empty() && !blur {
            // Nothing below reads the location: skip extracting it.
            return Some(record);
        }
        // Where: exclusion zones (only applies to located records).
        if let Some(location) = record.location() {
            if self.exclusion_zones.iter().any(|z| z.contains(&location)) {
                return None;
            }
            // Blur.
            if blur {
                let blurred = self.blur_point(&location, record.time.seconds());
                if let Value::Record(r) = &mut record.payload {
                    r.insert("lat", Value::Num(blurred.latitude()));
                    r.insert("lon", Value::Num(blurred.longitude()));
                }
            }
        }
        Some(record)
    }

    /// Deterministically blurs a point (Box–Muller over a salted hash).
    fn blur_point(&self, point: &GeoPoint, time_s: i64) -> GeoPoint {
        let u1 = hash_unit(self.salt ^ 0xB1u64, point, time_s).max(f64::EPSILON);
        let u2 = hash_unit(self.salt ^ 0xB2u64, point, time_s);
        let r = (-2.0 * u1.ln()).sqrt();
        let de = r * (std::f64::consts::TAU * u2).cos() * self.blur_sigma_m;
        let dn = r * (std::f64::consts::TAU * u2).sin() * self.blur_sigma_m;
        let cos_lat = point.latitude().to_radians().cos().max(0.01);
        GeoPoint::clamped(
            point.latitude() + dn / 111_320.0,
            point.longitude() + de / (111_320.0 * cos_lat),
        )
    }

    /// One-way hashes address-book identifiers so scripts can correlate
    /// contacts without ever seeing them ("filter out … address book").
    pub fn hash_contacts<'a, I>(&self, contacts: I) -> Vec<u64>
    where
        I: IntoIterator<Item = &'a str>,
    {
        contacts
            .into_iter()
            .map(|c| {
                let mut h = self.salt ^ 0xC017AC7u64;
                for b in c.bytes() {
                    h = h.wrapping_mul(0x100000001B3).rotate_left(7) ^ b as u64;
                }
                h ^= h >> 31;
                h.wrapping_mul(0xFF51AFD7ED558CCD)
            })
            .collect()
    }
}

/// Hash of (salt, point, time) mapped to `[0, 1)`.
fn hash_unit(salt: u64, point: &GeoPoint, time_s: i64) -> f64 {
    let mut h = salt
        ^ point.latitude().to_bits().wrapping_mul(0x9E3779B97F4A7C15)
        ^ point.longitude().to_bits().wrapping_mul(0xD6E8FEB86659FD93)
        ^ (time_s as u64).rotate_left(23);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51AFD7ED558CCD);
    h ^= h >> 29;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hive::TaskId;
    use crate::script::Record;
    use mobility::{Timestamp, UserId};
    use privapi::pipeline::{PrivApi, PrivApiConfig};
    use privapi::streaming::StreamingPublisher;

    fn located_record(lat: f64, lon: f64, time: Timestamp) -> SensedRecord {
        SensedRecord {
            task: TaskId(1),
            user: UserId(1),
            device: crate::device::DeviceId(1),
            time,
            payload: Value::Record(Record::new([
                ("lat", Value::Num(lat)),
                ("lon", Value::Num(lon)),
            ])),
        }
    }

    #[test]
    fn default_passes_everything() {
        let prefs = PrivacyPreferences::default();
        let r = located_record(45.0, 4.0, Timestamp::new(0));
        let out = prefs.filter_record(r.clone()).unwrap();
        assert_eq!(out, r);
        for s in SensorKind::ALL {
            assert!(prefs.sensor_enabled(s));
        }
    }

    #[test]
    fn exclusion_zone_suppresses_near_home() {
        let home = GeoPoint::new(45.0, 4.0).unwrap();
        let prefs = PrivacyPreferences::default()
            .with_exclusion_zone(ExclusionZone::new(home, Meters::new(250.0)));
        // 100 m from home: suppressed.
        let near = located_record(45.0009, 4.0, Timestamp::new(0));
        assert!(prefs.filter_record(near).is_none());
        // 2 km away: passes.
        let far = located_record(45.018, 4.0, Timestamp::new(0));
        assert!(prefs.filter_record(far).is_some());
    }

    #[test]
    fn time_window_filters_by_hour() {
        let prefs = PrivacyPreferences::default().with_time_window(TimeWindow::new(8, 20));
        let day = located_record(45.0, 4.0, Timestamp::from_day_time(0, 12, 0, 0));
        assert!(prefs.filter_record(day).is_some());
        let night = located_record(45.0, 4.0, Timestamp::from_day_time(0, 23, 0, 0));
        assert!(prefs.filter_record(night).is_none());
    }

    #[test]
    fn wrapping_time_window() {
        let w = TimeWindow::new(22, 6);
        assert!(w.contains_hour(23));
        assert!(w.contains_hour(2));
        assert!(!w.contains_hour(12));
        let prefs = PrivacyPreferences::default().with_time_window(w);
        let r = located_record(45.0, 4.0, Timestamp::from_day_time(0, 23, 30, 0));
        assert!(prefs.filter_record(r).is_some());
    }

    #[test]
    fn multiple_windows_are_a_union() {
        let prefs = PrivacyPreferences::default()
            .with_time_window(TimeWindow::new(8, 10))
            .with_time_window(TimeWindow::new(18, 20));
        assert!(prefs
            .filter_record(located_record(
                45.0,
                4.0,
                Timestamp::from_day_time(0, 9, 0, 0)
            ))
            .is_some());
        assert!(prefs
            .filter_record(located_record(
                45.0,
                4.0,
                Timestamp::from_day_time(0, 19, 0, 0)
            ))
            .is_some());
        assert!(prefs
            .filter_record(located_record(
                45.0,
                4.0,
                Timestamp::from_day_time(0, 14, 0, 0)
            ))
            .is_none());
    }

    #[test]
    fn blur_displaces_location_deterministically() {
        let prefs = PrivacyPreferences::default()
            .with_blur(Meters::new(100.0))
            .with_salt(99);
        let r = located_record(45.0, 4.0, Timestamp::new(1_000));
        let a = prefs.filter_record(r.clone()).unwrap();
        let b = prefs.filter_record(r.clone()).unwrap();
        assert_eq!(a, b, "blur must be deterministic per (salt, point, time)");
        let original = r.location().unwrap();
        let blurred = a.location().unwrap();
        let d = original.haversine_distance(&blurred).get();
        assert!(d > 1.0, "blur did nothing ({d} m)");
        assert!(d < 600.0, "blur too large ({d} m)");
    }

    #[test]
    fn blur_magnitude_scales_with_sigma() {
        // Average displacement over many records ≈ sigma * sqrt(pi/2).
        for sigma in [50.0, 150.0] {
            let prefs = PrivacyPreferences::default().with_blur(Meters::new(sigma));
            let mut total = 0.0;
            let n = 500;
            for i in 0..n {
                let r = located_record(45.0, 4.0 + i as f64 * 1e-4, Timestamp::new(i));
                let out = prefs.filter_record(r.clone()).unwrap();
                total += r
                    .location()
                    .unwrap()
                    .haversine_distance(&out.location().unwrap())
                    .get();
            }
            let mean = total / n as f64;
            let expected = sigma * (std::f64::consts::PI / 2.0).sqrt();
            assert!(
                (mean - expected).abs() / expected < 0.15,
                "sigma {sigma}: mean {mean} expected {expected}"
            );
        }
    }

    #[test]
    fn unlocated_records_skip_spatial_filters() {
        let prefs = PrivacyPreferences::default()
            .with_exclusion_zone(ExclusionZone::new(
                GeoPoint::new(45.0, 4.0).unwrap(),
                Meters::new(1_000_000.0),
            ))
            .with_blur(Meters::new(100.0));
        let r = SensedRecord {
            task: TaskId(1),
            user: UserId(1),
            device: crate::device::DeviceId(1),
            time: Timestamp::new(0),
            payload: Value::Num(42.0),
        };
        // No location: zone and blur do not apply.
        assert!(prefs.filter_record(r).is_some());
    }

    #[test]
    fn contact_hashing_is_stable_and_salted() {
        let prefs_a = PrivacyPreferences::default().with_salt(1);
        let prefs_b = PrivacyPreferences::default().with_salt(2);
        let contacts = ["alice@example.org", "bob@example.org"];
        let h1 = prefs_a.hash_contacts(contacts.iter().copied());
        let h2 = prefs_a.hash_contacts(contacts.iter().copied());
        assert_eq!(h1, h2, "same salt, same hashes");
        assert_ne!(h1, prefs_b.hash_contacts(contacts.iter().copied()));
        assert_ne!(h1[0], h1[1]);
        // Hashes never contain the raw text (one-way by construction);
        // sanity: distinct contacts collide with negligible probability.
        let many: Vec<String> = (0..1_000).map(|i| format!("user{i}@x")).collect();
        let hashes = prefs_a.hash_contacts(many.iter().map(String::as_str));
        let unique: std::collections::BTreeSet<u64> = hashes.iter().copied().collect();
        assert_eq!(unique.len(), 1_000);
    }

    #[test]
    fn publication_gateway_enforces_floor_on_task_data() {
        use crate::hive::TaskId;
        use crate::honeycomb::Honeycomb;
        use mobility::gen::{CityModel, PopulationConfig};

        // Collect a synthetic population's fixes into a honeycomb task.
        let data =
            CityModel::builder()
                .seed(41)
                .build()
                .generate_population(&PopulationConfig {
                    users: 4,
                    days: 3,
                    sampling_interval_s: 180,
                    gps_noise_m: 5.0,
                    leisure_probability: 0.4,
                });
        let task = TaskId(7);
        let mut honeycomb = Honeycomb::new("gateway-test");
        let sensed: Vec<SensedRecord> = data
            .iter_records()
            .map(|r| SensedRecord {
                task,
                user: r.user,
                device: crate::device::DeviceId(r.user.0),
                time: r.time,
                payload: Value::Record(Record::new([
                    ("lat", Value::Num(r.point.latitude())),
                    ("lon", Value::Num(r.point.longitude())),
                ])),
            })
            .collect();
        honeycomb.receive(sensed);

        // The platform-side gate: the task's collected fixes go through
        // PRIVAPI before release.
        let gateway = PrivApi::default();
        let published = gateway.publish(&honeycomb.mobility_dataset(task)).unwrap();
        let floor = gateway.config().privacy_floor;
        assert!(
            published.privacy.recall <= floor + 1e-9,
            "gateway release leaks {} above floor {floor}",
            published.privacy.recall
        );
        assert_eq!(published.dataset.user_count(), data.user_count());
        assert!(published.selection.winner().is_some());
        // The platform-side publish path attacks the original exactly once:
        // one extraction for the reference plus one per pooled candidate.
        assert_eq!(
            gateway.attack().extractions(),
            gateway.pool().len() + 1,
            "gateway publish must extract the original dataset exactly once"
        );
    }

    #[test]
    fn publication_gateway_streams_windows_incrementally() {
        use mobility::gen::{CityModel, PopulationConfig};
        use mobility::WindowedDataset;

        let data =
            CityModel::builder()
                .seed(53)
                .build()
                .generate_population(&PopulationConfig {
                    users: 3,
                    days: 2,
                    sampling_interval_s: 240,
                    gps_noise_m: 5.0,
                    leisure_probability: 0.4,
                });
        let windows = WindowedDataset::partition(&data);
        assert!(windows.len() >= 2);

        let mut gateway = StreamingPublisher::new(PrivApiConfig::default());
        let floor = gateway.privapi().config().privacy_floor;
        let pool = gateway.privapi().pool().len();
        let probe = gateway.privapi().attack().clone();
        for (i, window) in windows.iter().enumerate() {
            let before = probe.extractions();
            let release = gateway.publish_window(window).unwrap();
            assert!(
                release.published.privacy.recall <= floor + 1e-9,
                "window {i} leaks above the floor"
            );
            // The streaming path pays no full extraction at all: the
            // original side goes through the session cache's delta path
            // and every default-pool candidate's self-attack goes through
            // its per-strategy shard cache.
            assert_eq!(probe.extractions() - before, 0, "window {i}");
            assert_eq!(release.strategies.candidates, pool, "window {i}");
            assert_eq!(release.strategies.full_fallbacks, 0, "window {i}");
            // Parity with a batch release of everything collected so far.
            let batch = PrivApi::default().publish(&windows.prefix(i)).unwrap();
            assert_eq!(release.published.selection, batch.selection, "window {i}");
            assert_eq!(release.published.dataset, batch.dataset, "window {i}");
        }
        assert_eq!(gateway.population().windows_ingested(), windows.len());
        // Later windows reuse protected-side work for inactive users (the
        // generator's dense data keeps everyone active, so reuse shows up
        // as shard reuse only when the protected boxes hold still; the
        // audit counters are at least well-formed end to end).
        let last = gateway.strategies().last_window();
        assert_eq!(last.candidates, pool);
        assert_eq!(
            last.users_refreshed + last.users_reused,
            pool * data.user_count()
        );
    }

    #[test]
    fn publication_gateway_rejects_replayed_windows_with_typed_error() {
        use mobility::gen::{CityModel, PopulationConfig};
        use mobility::WindowedDataset;

        let data =
            CityModel::builder()
                .seed(71)
                .build()
                .generate_population(&PopulationConfig {
                    users: 3,
                    days: 2,
                    sampling_interval_s: 300,
                    gps_noise_m: 5.0,
                    leisure_probability: 0.3,
                });
        let windows = WindowedDataset::partition(&data);
        let mut gateway = StreamingPublisher::new(PrivApiConfig::default());
        gateway.publish_window(&windows.windows()[1]).unwrap();
        // A replayed or out-of-order window surfaces as the typed
        // `StreamError` at the platform layer too — carrying the
        // offending day, so an operator retry loop can branch on it
        // without string matching.
        for stale in [&windows.windows()[1], &windows.windows()[0]] {
            let err = gateway.publish_window(stale).unwrap_err();
            assert!(
                matches!(
                    err,
                    privapi::PrivapiError::StreamError { day, last_day }
                        if day == stale.day() && last_day == windows.windows()[1].day()
                ),
                "got {err}"
            );
        }
        assert_eq!(gateway.population().windows_ingested(), 1);
    }

    #[test]
    fn publication_gateway_rejects_empty_task() {
        use crate::hive::TaskId;
        use crate::honeycomb::Honeycomb;

        let honeycomb = Honeycomb::new("empty");
        assert!(matches!(
            PrivApi::default().publish(&honeycomb.mobility_dataset(TaskId(1))),
            Err(privapi::PrivapiError::EmptyDataset)
        ));
    }

    #[test]
    fn sensor_opt_out() {
        let prefs = PrivacyPreferences::default()
            .without_sensor(SensorKind::Gps)
            .without_sensor(SensorKind::Accelerometer);
        assert!(!prefs.sensor_enabled(SensorKind::Gps));
        assert!(!prefs.sensor_enabled(SensorKind::Accelerometer));
        assert!(prefs.sensor_enabled(SensorKind::Battery));
    }
}
