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
        prop_assert_eq!(result, Value::Str(format!("{a}{b}").into()));
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
        use apisense::script::Record;
        use mobility::{Timestamp, UserId};

        let prefs = PrivacyPreferences::default()
            .with_blur(geo::Meters::new(sigma))
            .with_salt(salt);
        let payload = Record::new([
            ("lat", Value::Num(lat)),
            ("lon", Value::Num(lon)),
            ("extra", Value::Num(42.0)),
        ]);
        let record = SensedRecord {
            task: TaskId(1),
            user: UserId(1),
            device: DeviceId(1),
            time: Timestamp::new(t),
            payload: Value::Record(payload),
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
            out1.payload.field("extra"),
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
        use apisense::script::Record;
        use mobility::{Timestamp, UserId};

        let zone_center = GeoPoint::new(zone_lat, zone_lon).unwrap();
        let window = TimeWindow::new(win_start, (win_start + 8).min(24));
        let prefs = PrivacyPreferences::default()
            .with_exclusion_zone(ExclusionZone::new(zone_center, geo::Meters::new(radius)))
            .with_time_window(window);
        for (la, lo, t) in points {
            let payload = Record::new([("lat", Value::Num(la)), ("lon", Value::Num(lo))]);
            let record = SensedRecord {
                task: TaskId(1),
                user: UserId(1),
                device: DeviceId(1),
                time: Timestamp::new(t),
                payload: Value::Record(payload),
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

/// A random walk of fixes from `start`, one per step. Each step's kind
/// picks its time delta so that the deltas of deltas land in every bucket of
/// the record codec: a steady minute (one bit), small, medium and large
/// jitters, and jumps of days.
fn random_walk(
    start: (i64, f64, f64),
    steps: &[(u8, i64, f64, f64)],
) -> Vec<mobility::LocationRecord> {
    use mobility::{LocationRecord, Timestamp, UserId};
    let (mut t, mut lat, mut lon) = start;
    let mut fixes = vec![(t, lat, lon)];
    for &(kind, jitter, dlat, dlon) in steps {
        t += match kind {
            0 => 60,
            1 => 60 + jitter % 60,
            2 => jitter % 250,
            3 => jitter,
            _ => jitter * 1_000_000,
        };
        // Every third step stands still, so the XOR of a coordinate is 0.
        if jitter % 3 != 0 {
            lat = (lat + dlat).clamp(-90.0, 90.0);
            lon = (lon + dlon).clamp(-180.0, 180.0);
        }
        fixes.push((t, lat, lon));
    }
    fixes
        .into_iter()
        .map(|(t, lat, lon)| {
            LocationRecord::new(
                UserId(1),
                Timestamp::new(t),
                GeoPoint::new(lat, lon).unwrap(),
            )
        })
        .collect()
}

/// One fix of an arbitrary record list for the codec round trip, drawn
/// from `(time kind, raw time, coordinate kind, latitude, longitude)`
/// after `prev`: arbitrary, steady, repeated and extreme times; repeated
/// fixes, ±0.0, the ±90/±180 edges, tiny and arbitrary coordinates.
fn arbitrary_fix(
    prev: Option<(i64, i64, f64, f64)>,
    (time_kind, raw, coordinate_kind, lat, lon): (u8, i64, u8, f64, f64),
) -> (i64, i64, f64, f64) {
    let (prev_t, prev_delta, prev_lat, prev_lon) = prev.unwrap_or((0, 0, 0.0, 0.0));
    let t = match time_kind {
        0 => raw,
        1 => prev_t.wrapping_add(prev_delta),
        2 => prev_t,
        3 => i64::MIN.wrapping_add(raw & 0xff),
        4 => i64::MAX.wrapping_sub(raw & 0xff),
        _ => prev_t.wrapping_add(raw % 5_000),
    };
    let sign = if raw & 1 == 0 { 1.0 } else { -1.0 };
    let (lat, lon) = match coordinate_kind {
        0 if prev.is_some() => (prev_lat, prev_lon),
        1 => (sign * 0.0, -sign * 0.0),
        2 => (sign * 90.0, -sign * 180.0),
        3 => (lat * 1e-300, lon * 1e-310),
        4 => (
            (prev_lat + lat * 1e-6).clamp(-90.0, 90.0),
            (prev_lon + lon * 1e-6).clamp(-180.0, 180.0),
        ),
        _ => (lat, lon),
    };
    (t, t.wrapping_sub(prev_t), lat, lon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The record codec is lossless: any record list, sorted or not, comes
    /// back bit for bit (times, and coordinate bits down to the sign of
    /// zero) through both batch types.
    #[test]
    fn record_lists_roundtrip_bit_exactly(
        draws in prop::collection::vec(
            (0u8..6, any::<i64>(), 0u8..6, -90.0..90.0f64, -180.0..180.0f64),
            0..60,
        ),
        day in any::<i64>(),
        version in any::<u64>(),
    ) {
        use apisense::collect::DayBatch;
        use apisense::federated::ProtectedBatch;
        use mobility::{LocationRecord, Timestamp, UserId};
        use simnet::wire::{Decode, Encode};

        let user = UserId(u64::MAX - 3);
        let mut prev = None;
        let mut records = Vec::new();
        for draw in draws {
            let fix = arbitrary_fix(prev, draw);
            prev = Some(fix);
            let point = GeoPoint::new(fix.2, fix.3).unwrap();
            records.push(LocationRecord::new(user, Timestamp::new(fix.0), point));
        }
        let bits = |records: &[LocationRecord]| -> Vec<(i64, u64, u64)> {
            records
                .iter()
                .map(|r| {
                    (r.time.seconds(), r.point.latitude().to_bits(), r.point.longitude().to_bits())
                })
                .collect()
        };
        let raw = DayBatch { device: u64::MAX, user, day, end_of_day: true, records };
        let back = DayBatch::decode_from_slice(&raw.encode_to_vec()).unwrap();
        prop_assert_eq!(bits(&back.records), bits(&raw.records));
        prop_assert_eq!(&back, &raw);
        let protected = ProtectedBatch {
            device: 7,
            user,
            version,
            day,
            end_of_day: false,
            had_data: true,
            records: raw.records.clone(),
        };
        let back = ProtectedBatch::decode_from_slice(&protected.encode_to_vec()).unwrap();
        prop_assert_eq!(bits(&back.records), bits(&protected.records));
        prop_assert_eq!(back, protected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutation fuzzing of the device→Hive boundary, after simnet's
    /// `frame_decoder_survives_mutated_frames`: take a valid `DayBatch`,
    /// `ProtectedBatch` (a random walk of up to 40 fixes) or `ConfigFrame`
    /// chunk, flip one byte and/or truncate it (then maybe append a byte),
    /// or leave it intact but append a byte or a second copy of itself, and
    /// drive the result through the three
    /// decoders and through the ingest of both collectors, followed by the
    /// untouched chunk and a duplicate. Nothing panics, every delivery
    /// yields an ack or a typed payload error, a batch with bytes after its
    /// record block is rejected, and the days still close.
    #[test]
    fn ingest_survives_mutated_chunks(
        kind in 0u8..3,
        start in (0i64..172_800, 44.5..46.5f64, 3.5..5.5f64),
        steps in prop::collection::vec((0u8..5, 0i64..5_000, -1e-3..1e-3f64, -1e-3..1e-3f64), 0..40),
        version in 0u64..3,
        day in 0i64..2,
        end_of_day in any::<bool>(),
        had_data in any::<bool>(),
        flip_at in any::<usize>(),
        flip_bits in any::<u8>(),
        cut in any::<usize>(),
        shape in 0u8..4,
    ) {
        use apisense::collect::{CollectError, Collector, DayBatch};
        use apisense::federated::{
            ConfigFrame, FederatedCollector, ProtectedBatch, PROTECTED_LANE_BIT,
        };
        use bytes::Bytes;
        use geo::BoundingBox;
        use mobility::UserId;
        use privapi::federated::{StrategyConfig, StrategySpec};
        use simnet::reliable::DataFrame;
        use simnet::wire::{Decode, Encode, WireError};

        let user = UserId(1);
        let records = random_walk(start, &steps);
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
        let mut mutated = match shape {
            0 | 1 => mutate(valid.clone(), flip_at, flip_bits, cut),
            _ => valid.clone(),
        };
        match shape {
            0 => {}
            1 | 2 => mutated.push(flip_bits),
            _ => mutated.extend_from_slice(&valid),
        }
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
        let (mutated, valid) = (Bytes::from(mutated), Bytes::from(valid));
        let deliveries = [(1, &mutated, 1), (2, &valid, 2), (1, &mutated, 2)];
        for (seq, chunk, cumulative) in deliveries {
            let frame = |sender| DataFrame { sender, seq, chunk: chunk.clone() };
            for (lane, outcome) in [
                (0, raw.ingest(&frame(1))),
                (1, federated.ingest(&frame(1 | PROTECTED_LANE_BIT))),
            ] {
                // A padded or concatenated batch of the lane's own kind
                // is refused, never applied.
                if seq == 1 && cumulative == 1 && shape >= 2 && lane == kind {
                    let padded = matches!(outcome, Err(CollectError::Wire(WireError::Corrupt(_))));
                    prop_assert!(padded, "padded batch accepted: {:?}", outcome);
                }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutation fuzzing of the JSON readers: a dataset written as JSONL
    /// for `mobility::io::read_jsonl`, and a trace-style document for
    /// `obs::json::parse` and `Value::from_json`, each with one byte
    /// flipped and/or truncated. Each returns a value or a typed error and
    /// never panics, and the script reader accepts exactly what
    /// `obs::json::parse` accepts.
    #[test]
    fn json_readers_survive_mutated_input(
        fixes in prop::collection::vec((0u64..4, 0i64..172_800, 44.5..46.5f64, 3.5..5.5f64), 1..6),
        flip_at in any::<usize>(),
        flip_bits in any::<u8>(),
        cut in any::<usize>(),
    ) {
        use mobility::{io, Dataset, LocationRecord, Timestamp, UserId};

        let records: Vec<LocationRecord> = fixes
            .iter()
            .map(|&(user, t, lat, lon)| {
                LocationRecord::new(UserId(user), Timestamp::new(t), GeoPoint::new(lat, lon).unwrap())
            })
            .collect();
        let mut jsonl = Vec::new();
        io::write_jsonl(&Dataset::from_records(records), &mut jsonl).unwrap();
        prop_assert!(io::read_jsonl(jsonl.as_slice()).is_ok());
        let _ = io::read_jsonl(mutate(jsonl, flip_at, flip_bits, cut).as_slice());

        let samples: Vec<String> = fixes.iter().map(|f| format!("{:e}", f.2)).collect();
        let document = format!(
            r#"{{"kind":"span","name":"privapi.window","attrs":{{"day":{},"label":"café \"{}\""}},"samples":[{}],"ok":true,"parent":null}}"#,
            fixes[0].1,
            fixes[0].0,
            samples.join(","),
        );
        prop_assert!(obs::json::parse(&document).is_ok());
        prop_assert!(Value::from_json(&document).is_ok());
        let mutated = mutate(document.into_bytes(), flip_at, flip_bits, cut);
        let mutated = String::from_utf8_lossy(&mutated);
        prop_assert_eq!(
            Value::from_json(&mutated).is_ok(),
            obs::json::parse(&mutated).is_ok()
        );
    }
}
