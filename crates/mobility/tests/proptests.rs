//! Property-based tests of the mobility substrate.

use geo::GeoPoint;
use geo::Meters;
use mobility::io;
use mobility::staypoint::{detect, detect_all, StayPoint, StayPointConfig};
use mobility::{Dataset, LocationRecord, Timestamp, Trajectory, UserId};
use proptest::prelude::*;

fn record() -> impl Strategy<Value = LocationRecord> {
    (0u64..5, 0i64..200_000, 45.0..46.0f64, 4.0..5.0f64).prop_map(|(u, t, la, lo)| {
        LocationRecord::new(UserId(u), Timestamp::new(t), GeoPoint::new(la, lo).unwrap())
    })
}

/// A walk around one of four anchors — a city, either side of the
/// antimeridian, next to the north pole, next to the south pole — whose
/// steps repeat the last fix, jitter by a few metres or jump by about a
/// kilometre, with elapsed times that are often zero.
fn awkward_trajectory() -> impl Strategy<Value = Trajectory> {
    let step = (0u32..4, 0u32..3, -1.0..1.0f64, -1.0..1.0f64);
    (0u32..4, prop::collection::vec(step, 0..50)).prop_map(|(anchor, steps)| {
        let (mut lat, mut lon) = match anchor {
            0 => (45.0, 4.0),
            1 => (10.0, 179.9995),
            2 => (89.9995, 30.0),
            _ => (-89.9995, -120.0),
        };
        let mut t = 0;
        let mut records = Vec::new();
        for (dt, kind, dy, dx) in steps {
            t += [0, 0, 60, 600][dt as usize];
            let scale = [0.0, 0.0005, 0.01][kind as usize];
            lat += dy * scale;
            lon += dx * scale;
            let point = GeoPoint::clamped(lat, lon);
            (lat, lon) = (point.latitude(), point.longitude());
            records.push(LocationRecord::new(UserId(1), Timestamp::new(t), point));
        }
        Trajectory::new(UserId(1), records)
    })
}

/// Segment speeds with every segment measured afresh.
fn reference_speeds(t: &Trajectory) -> Vec<f64> {
    t.records()
        .windows(2)
        .filter(|w| w[1].time > w[0].time)
        .map(|w| {
            let d = w[0].point.haversine_distance(&w[1].point).get();
            d / (w[1].time - w[0].time) as f64
        })
        .collect()
}

/// The speed coefficient of variation over [`reference_speeds`].
fn reference_speed_cv(t: &Trajectory) -> Option<f64> {
    let speeds = reference_speeds(t);
    if speeds.len() < 2 {
        return None;
    }
    let mean = speeds.iter().sum::<f64>() / speeds.len() as f64;
    if mean <= f64::EPSILON {
        return None;
    }
    let var = speeds.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / speeds.len() as f64;
    Some(var.sqrt() / mean)
}

/// The stay-point detector with every pair measured afresh.
fn reference_detect(t: &Trajectory, config: &StayPointConfig) -> Vec<StayPoint> {
    let records = t.records();
    let n = records.len();
    let mut stays = Vec::new();
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        while j < n
            && records[i].point.haversine_distance(&records[j].point).get()
                <= config.distance_threshold.get()
        {
            j += 1;
        }
        let last = j - 1;
        if records[last].time - records[i].time >= config.time_threshold_s {
            let count = (last - i + 1) as f64;
            let stay = &records[i..=last];
            let lat = stay.iter().map(|r| r.point.latitude()).sum::<f64>() / count;
            let lon = stay.iter().map(|r| r.point.longitude()).sum::<f64>() / count;
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

/// A stay as bits, so equal floats of different sign or NaN payload differ.
fn stay_bits(s: &StayPoint) -> (u64, u64, Timestamp, Timestamp) {
    let (lat, lon) = (s.centroid.latitude(), s.centroid.longitude());
    (lat.to_bits(), lon.to_bits(), s.arrival, s.departure)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The shared segment pass changes no bit of the speed measures or of
    /// the detected stays, across zero-time segments, repeated fixes, the
    /// antimeridian and the poles.
    #[test]
    fn segment_pass_is_bit_identical(
        t in awkward_trajectory(),
        radius in 0u32..3,
        dwell in 0u32..3,
    ) {
        let segments = t.segments();
        let records = t.records();
        for i in 0..records.len() {
            for j in i + 1..records.len() {
                let d = records[i].point.haversine_distance(&records[j].point).get();
                prop_assert_eq!(segments.distance(i, j).to_bits(), d.to_bits());
            }
        }
        let speeds: Vec<u64> = t.segment_speeds().iter().map(|s| s.get().to_bits()).collect();
        let want: Vec<u64> = reference_speeds(&t).iter().map(|s| s.to_bits()).collect();
        prop_assert_eq!(speeds, want);
        prop_assert_eq!(t.speed_cv().map(f64::to_bits), reference_speed_cv(&t).map(f64::to_bits));
        let config = StayPointConfig {
            distance_threshold: Meters::new([30.0, 200.0, 2_000.0][radius as usize]),
            time_threshold_s: [0, 600, 900][dwell as usize],
        };
        let stays: Vec<_> = detect(&t, &config).iter().map(stay_bits).collect();
        let want: Vec<_> = reference_detect(&t, &config).iter().map(stay_bits).collect();
        prop_assert_eq!(&stays, &want);
        let all: Vec<_> = detect_all([&t], &config).iter().map(stay_bits).collect();
        prop_assert_eq!(all, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn trajectory_new_always_sorted(records in prop::collection::vec(record(), 0..50)) {
        let t = Trajectory::new(UserId(1), records);
        for w in t.records().windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
        // Every remaining record belongs to the owner.
        for r in t.records() {
            prop_assert_eq!(r.user, UserId(1));
        }
    }

    #[test]
    fn duration_is_nonnegative_and_consistent(records in prop::collection::vec(record(), 0..50)) {
        let t = Trajectory::new(UserId(2), records);
        prop_assert!(t.duration_s() >= 0);
        if t.len() >= 2 {
            prop_assert_eq!(
                t.duration_s(),
                t.end_time().unwrap() - t.start_time().unwrap()
            );
        }
    }

    #[test]
    fn position_at_always_inside_bbox(
        records in prop::collection::vec(record(), 1..50),
        query_t in -10_000i64..300_000,
    ) {
        let t = Trajectory::new(UserId(3), records);
        if t.is_empty() { return Ok(()); }
        let p = t.position_at(Timestamp::new(query_t)).unwrap();
        let bbox = geo::BoundingBox::from_points(
            t.records().iter().map(|r| &r.point).collect::<Vec<_>>().into_iter()
        ).unwrap();
        prop_assert!(bbox.expanded(1e-9).contains(&p));
    }

    #[test]
    fn split_by_gap_preserves_records(
        records in prop::collection::vec(record(), 0..50),
        gap in 1i64..10_000,
    ) {
        let t = Trajectory::new(UserId(1), records);
        let parts = t.split_by_gap(gap);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        prop_assert_eq!(total, t.len());
        // No part contains an internal gap larger than the threshold.
        for part in &parts {
            for w in part.records().windows(2) {
                prop_assert!(w[1].time - w[0].time <= gap);
            }
        }
    }

    #[test]
    fn stay_points_meet_both_thresholds(records in prop::collection::vec(record(), 0..60)) {
        let t = Trajectory::new(UserId(1), records);
        let cfg = StayPointConfig::default();
        for stay in detect(&t, &cfg) {
            prop_assert!(stay.duration_s() >= cfg.time_threshold_s);
            prop_assert!(stay.departure >= stay.arrival);
        }
    }

    #[test]
    fn jsonl_roundtrip_any_dataset(records in prop::collection::vec(record(), 0..60)) {
        let ds = Dataset::from_records(records);
        let mut buf = Vec::new();
        io::write_jsonl(&ds, &mut buf).unwrap();
        let back = io::read_jsonl(buf.as_slice()).unwrap();
        prop_assert_eq!(back.record_count(), ds.record_count());
        prop_assert_eq!(back.user_count(), ds.user_count());
        for user in ds.users() {
            for (a, b) in ds.records_of(user).iter().zip(back.records_of(user)) {
                prop_assert_eq!(a.user, b.user);
                prop_assert_eq!(a.time, b.time);
                // The JSON float parser may lose the last ulp
                // (sub-micrometre); positions must agree to < 1 µm.
                prop_assert!(a.point.haversine_distance(&b.point).get() < 1e-6);
            }
        }
    }

    #[test]
    fn csv_roundtrip_positions_within_centimetres(records in prop::collection::vec(record(), 0..40)) {
        let ds = Dataset::from_records(records);
        let mut buf = Vec::new();
        io::write_csv(&ds, &mut buf).unwrap();
        let back = io::read_csv(buf.as_slice()).unwrap();
        prop_assert_eq!(back.record_count(), ds.record_count());
        for user in ds.users() {
            for (a, b) in ds.records_of(user).iter().zip(back.records_of(user)) {
                prop_assert_eq!(a.time, b.time);
                prop_assert!(a.point.haversine_distance(&b.point).get() < 0.05);
            }
        }
    }

    #[test]
    fn timestamp_decomposition_is_consistent(s in -1_000_000i64..1_000_000) {
        let t = Timestamp::new(s);
        prop_assert_eq!(t.day_index() * 86_400 + t.seconds_of_day(), s);
        prop_assert!((0..24).contains(&t.hour_of_day()));
        prop_assert!((0..7).contains(&t.weekday()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The generator never produces records outside the city bounds, and is
    /// stable under repeated invocation.
    #[test]
    fn generator_bounds_and_determinism(seed in 0u64..50) {
        use mobility::gen::{CityModel, PopulationConfig};
        let config = PopulationConfig {
            users: 2,
            days: 1,
            sampling_interval_s: 600,
            ..PopulationConfig::default()
        };
        let city = CityModel::builder().seed(seed).build();
        let a = city.generate_population(&config);
        let b = city.generate_population(&config);
        prop_assert_eq!(&a, &b);
        let center = city.center();
        for r in a.iter_records() {
            let d = center.haversine_distance(&r.point).get();
            prop_assert!(d < city.radius().get() * 1.2 + 500.0, "record {d} m out");
        }
    }
}
