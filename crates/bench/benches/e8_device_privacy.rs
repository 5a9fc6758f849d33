//! Criterion bench for E8: device-side privacy filter throughput.

use apisense::device::{DeviceId, SensedRecord};
use apisense::hive::TaskId;
use apisense::privacy::{ExclusionZone, PrivacyPreferences, TimeWindow};
use apisense::script::{Record, Value};
use criterion::{criterion_group, criterion_main, Criterion};
use mobility::{Timestamp, UserId};
use std::hint::black_box;
use std::time::Duration;

fn record(i: i64) -> SensedRecord {
    let payload = Record::new([
        ("lat", Value::Num(45.75 + (i % 100) as f64 * 1e-4)),
        ("lon", Value::Num(4.85)),
    ]);
    SensedRecord {
        task: TaskId(1),
        user: UserId(1),
        device: DeviceId(1),
        time: Timestamp::new(i * 60),
        payload: Value::Record(payload),
    }
}

fn bench_e8(c: &mut Criterion) {
    let home = geo::GeoPoint::new(45.752, 4.85).unwrap();
    let full_chain = PrivacyPreferences::default()
        .with_exclusion_zone(ExclusionZone::new(home, geo::Meters::new(250.0)))
        .with_time_window(TimeWindow::new(7, 22))
        .with_blur(geo::Meters::new(100.0));
    let records: Vec<SensedRecord> = (0..1_000).map(record).collect();

    let mut group = c.benchmark_group("e8_device_privacy");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("filter_1000_records_full_chain", |b| {
        b.iter(|| {
            let kept = records
                .iter()
                .filter_map(|r| full_chain.filter_record(black_box(r.clone())))
                .count();
            black_box(kept)
        })
    });
    group.bench_function("hash_1000_contacts", |b| {
        let contacts: Vec<String> =
            (0..1_000).map(|i| format!("user{i}@example.org")).collect();
        b.iter(|| black_box(full_chain.hash_contacts(contacts.iter().map(String::as_str))))
    });
    group.finish();
}

criterion_group!(benches, bench_e8);
criterion_main!(benches);
