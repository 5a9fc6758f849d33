//! Property-based tests of the APISENSE middleware.

use apisense::privacy::{ExclusionZone, PrivacyPreferences, TimeWindow};
use apisense::script::{Host, Script, Value};
use apisense::ApisenseError;
use geo::GeoPoint;
use proptest::prelude::*;

struct NullHost;
impl Host for NullHost {
    fn call(&mut self, _path: &str, args: &mut [Value]) -> Result<Value, ApisenseError> {
        Ok(args.first().cloned().unwrap_or(Value::Null))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compiler never panics, whatever the input text.
    #[test]
    fn compiler_never_panics(src in ".{0,200}") {
        let _ = Script::compile(&src);
    }

    /// Valid arithmetic always evaluates without error and agrees with Rust.
    #[test]
    fn arithmetic_matches_rust(a in -1_000i32..1_000, b in -1_000i32..1_000) {
        let src = format!("{a} + {b} * 2 - ({b} - {a})");
        let script = Script::compile(&src).unwrap();
        let result = script.run(&mut NullHost, 100_000).unwrap();
        let expected = a as f64 + b as f64 * 2.0 - (b as f64 - a as f64);
        prop_assert_eq!(result, Value::Num(expected));
    }

    /// Fuel always bounds execution: any script either finishes or reports
    /// fuel exhaustion within the budget — no runaway loops.
    #[test]
    fn fuel_always_terminates(n in 0u32..30, fuel in 1u64..2_000) {
        let src = format!("let i = 0; while (i < {n}) {{ i = i + 1; }} i");
        let script = Script::compile(&src).unwrap();
        match script.run(&mut NullHost, fuel) {
            Ok(Value::Num(v)) => prop_assert_eq!(v, n as f64),
            Ok(other) => prop_assert!(false, "unexpected value {other}"),
            Err(ApisenseError::FuelExhausted) => {}
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// String concatenation length is additive.
    #[test]
    fn string_concat(a in "[a-z]{0,20}", b in "[a-z]{0,20}") {
        let src = format!(r#""{a}" + "{b}""#);
        let script = Script::compile(&src).unwrap();
        let result = script.run(&mut NullHost, 10_000).unwrap();
        prop_assert_eq!(result, Value::Str(format!("{a}{b}")));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Blur displaces by a bounded, deterministic amount and never moves a
    /// record's timestamp or non-spatial payload.
    #[test]
    fn blur_is_bounded_and_deterministic(
        lat in 45.0..46.0f64,
        lon in 4.0..5.0f64,
        t in 0i64..1_000_000,
        sigma in 1.0..300.0f64,
        salt in any::<u64>(),
    ) {
        use apisense::device::{DeviceId, SensedRecord};
        use apisense::hive::TaskId;
        use mobility::{Timestamp, UserId};
        use std::collections::BTreeMap;

        let prefs = PrivacyPreferences::default()
            .with_blur(geo::Meters::new(sigma))
            .with_salt(salt);
        let mut payload = BTreeMap::new();
        payload.insert("lat".to_string(), Value::Num(lat));
        payload.insert("lon".to_string(), Value::Num(lon));
        payload.insert("extra".to_string(), Value::Num(42.0));
        let record = SensedRecord {
            task: TaskId(1),
            user: UserId(1),
            device: DeviceId(1),
            time: Timestamp::new(t),
            payload: Value::Map(payload),
        };
        let out1 = prefs.filter_record(record.clone()).unwrap();
        let out2 = prefs.filter_record(record.clone()).unwrap();
        prop_assert_eq!(&out1, &out2);
        prop_assert_eq!(out1.time, record.time);
        let original = record.location().unwrap();
        let blurred = out1.location().unwrap();
        let d = original.haversine_distance(&blurred).get();
        // Gaussian tail: 6 sigma covers essentially everything.
        prop_assert!(d <= sigma * 6.0 + 1.0, "blur {d} m at sigma {sigma}");
        prop_assert_eq!(
            out1.payload.as_map().unwrap().get("extra"),
            Some(&Value::Num(42.0))
        );
    }

    /// Exclusion zones and time windows are airtight: no published record
    /// violates them.
    #[test]
    fn filters_are_airtight(
        points in prop::collection::vec((45.0..45.1f64, 4.0..4.1f64, 0i64..604_800), 1..60),
        zone_lat in 45.0..45.1f64,
        zone_lon in 4.0..4.1f64,
        radius in 50.0..2_000.0f64,
        win_start in 0i64..23,
    ) {
        use apisense::device::{DeviceId, SensedRecord};
        use apisense::hive::TaskId;
        use mobility::{Timestamp, UserId};
        use std::collections::BTreeMap;

        let zone_center = GeoPoint::new(zone_lat, zone_lon).unwrap();
        let window = TimeWindow::new(win_start, (win_start + 8).min(24));
        let prefs = PrivacyPreferences::default()
            .with_exclusion_zone(ExclusionZone::new(zone_center, geo::Meters::new(radius)))
            .with_time_window(window);
        for (la, lo, t) in points {
            let mut payload = BTreeMap::new();
            payload.insert("lat".to_string(), Value::Num(la));
            payload.insert("lon".to_string(), Value::Num(lo));
            let record = SensedRecord {
                task: TaskId(1),
                user: UserId(1),
                device: DeviceId(1),
                time: Timestamp::new(t),
                payload: Value::Map(payload),
            };
            if let Some(out) = prefs.filter_record(record) {
                let p = out.location().unwrap();
                prop_assert!(
                    zone_center.haversine_distance(&p).get() > radius,
                    "published record inside the exclusion zone"
                );
                prop_assert!(window.contains_hour(out.time.hour_of_day()));
            }
        }
    }
}

/// Flips bits of one byte of `chunk`, then truncates it.
fn mutate(mut chunk: Vec<u8>, flip_at: usize, flip_bits: u8, cut: usize) -> Vec<u8> {
    if !chunk.is_empty() {
        let at = flip_at % chunk.len();
        chunk[at] ^= flip_bits;
    }
    chunk.truncate(cut % (chunk.len() + 1));
    chunk
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutation fuzzing of the device→Hive boundary, after simnet's
    /// `frame_decoder_survives_mutated_frames`: take a valid `DayBatch`,
    /// `ProtectedBatch` or `ConfigFrame` chunk, flip one byte and/or
    /// truncate it, and drive the result through the three decoders and
    /// through the ingest of both collectors, followed by the untouched
    /// chunk and a duplicate. Nothing panics, every delivery yields an ack
    /// or a typed payload error, and the days still close.
    #[test]
    fn ingest_survives_mutated_chunks(
        kind in 0u8..3,
        fixes in prop::collection::vec((0i64..172_800, 44.5..46.5f64, 3.5..5.5f64), 0..6),
        version in 0u64..3,
        day in 0i64..2,
        end_of_day in any::<bool>(),
        had_data in any::<bool>(),
        flip_at in any::<usize>(),
        flip_bits in any::<u8>(),
        cut in any::<usize>(),
    ) {
        use apisense::collect::{CollectError, Collector, DayBatch};
        use apisense::federated::{
            ConfigFrame, FederatedCollector, ProtectedBatch, PROTECTED_LANE_BIT,
        };
        use geo::BoundingBox;
        use mobility::{LocationRecord, Timestamp, UserId};
        use privapi::federated::{StrategyConfig, StrategySpec};
        use simnet::reliable::DataFrame;
        use simnet::wire::{Decode, Encode};

        let user = UserId(1);
        let records: Vec<LocationRecord> = fixes
            .iter()
            .map(|&(t, lat, lon)| {
                LocationRecord::new(user, Timestamp::new(t), GeoPoint::new(lat, lon).unwrap())
            })
            .collect();
        let region = BoundingBox::new(
            GeoPoint::new(45.0, 4.0).unwrap(),
            GeoPoint::new(46.0, 5.0).unwrap(),
        )
        .unwrap();
        let config = StrategyConfig {
            version: 1,
            spec: StrategySpec::GaussianPerturbation { sigma_m: 50.0 },
            seed: 7,
            grid_anchor: None,
        };
        let valid = match kind {
            0 => DayBatch { device: 1, user, day, end_of_day, records }.encode_to_vec(),
            1 => ProtectedBatch {
                device: 1,
                user,
                version,
                day,
                end_of_day,
                had_data,
                records,
            }
            .encode_to_vec(),
            _ => ConfigFrame(StrategyConfig {
                version,
                spec: StrategySpec::SpatialCloaking { cell_m: 250.0 },
                grid_anchor: Some(region.grid_anchor()),
                ..config
            })
            .encode_to_vec(),
        };
        let mutated = mutate(valid.clone(), flip_at, flip_bits, cut);
        let _ = DayBatch::decode_from_slice(&mutated);
        let _ = ProtectedBatch::decode_from_slice(&mutated);
        let _ = ConfigFrame::decode_from_slice(&mutated);

        let mut raw = Collector::new();
        raw.register(1, user);
        let mut federated = FederatedCollector::new(region);
        federated.register(1, user);
        federated.install(config);
        // The mutated chunk, the untouched one, then a duplicate of the
        // first: cumulative acks 1, 2, 2 whenever a chunk is accepted.
        let deliveries = [(1, &mutated, 1), (2, &valid, 2), (1, &mutated, 2)];
        for (seq, chunk, cumulative) in deliveries {
            let frame = |sender| DataFrame { sender, seq, chunk: chunk.clone() };
            for outcome in [
                raw.ingest(&frame(1)),
                federated.ingest(&frame(1 | PROTECTED_LANE_BIT)),
            ] {
                match outcome {
                    Ok(ack) => prop_assert_eq!(ack.cumulative, cumulative),
                    Err(CollectError::Wire(_) | CollectError::Misrouted { .. }) => {}
                    Err(e) => prop_assert!(false, "unexpected error at seq {}: {}", seq, e),
                }
            }
        }
        for close in 0..2 {
            prop_assert!(raw.close_day(close).is_ok());
            prop_assert!(federated.close_day(close).is_ok());
        }
    }
}
