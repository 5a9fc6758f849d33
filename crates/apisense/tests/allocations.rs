//! Allocation budgets of the scripted sensing path and of the uplink.
//!
//! A device runs its task script once per reading, and uploads a frame
//! every few minutes, so every heap allocation on those paths is paid
//! hundreds of thousands of times per fleet-day. These tests count them
//! with [`obs::alloc::CountingAlloc`], which counts per thread so the
//! harness's parallel tests do not interfere.
//!
//! * One location reading through a warm [`Vm`] may allocate the GPS fix's
//!   slots, the emitted record's slots and the returned `Vec`, and nothing
//!   else: record keys live in shapes made once per program and per host
//!   endpoint.
//! * One uplink frame round trip carries a chunk in one buffer from stage
//!   to apply; see [`a_frame_round_trip_costs_at_most_ten_allocations`].

use apisense::collect::{Collector, DeviceOutbox};
use apisense::device::{Device, DeviceId};
use apisense::hive::TaskId;
use apisense::script::{Script, Vm};
use geo::GeoPoint;
use mobility::{LocationRecord, Timestamp, Trajectory, UserId};
use simnet::reliable::{AckFrame, DataFrame, ReliableConfig};

#[global_allocator]
static GLOBAL: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

fn allocations() -> u64 {
    obs::alloc::allocations().expect("the counting allocator is installed")
}

/// The location task of the end-to-end benchmark's scripted fleet.
const LOCATION_SCRIPT: &str = r#"
    let fix = sensor.gps();
    let battery = sensor.battery();
    if (fix != null) {
        emit({ "lat": fix.lat, "lon": fix.lon, "battery": battery });
    }
"#;

#[test]
fn a_scripted_location_reading_costs_at_most_three_allocations() {
    let user = UserId(1);
    let start = Timestamp::from_day_time(0, 9, 0, 0);
    let records: Vec<LocationRecord> = (0..200)
        .map(|i| {
            let point = GeoPoint::new(45.75, 4.85 + 1e-4 * i as f64).unwrap();
            LocationRecord::new(user, start + i * 60, point)
        })
        .collect();
    let times: Vec<Timestamp> = records.iter().map(|r| r.time).collect();
    let mut device = Device::new(DeviceId(1), user, Trajectory::new(user, records));
    let script = Script::compile(LOCATION_SCRIPT).unwrap();
    let mut vm = Vm::new();
    let mut located = Vec::with_capacity(times.len());
    // Warm the VM: its stack, locals and inline caches grow on first use.
    for &at in &times[..10] {
        for reading in device.sample_scripted(TaskId(1), &script, &mut vm, at) {
            located.extend(reading.to_location_record());
        }
    }
    let mut worst = 0;
    for &at in &times[10..] {
        let before = allocations();
        for reading in device.sample_scripted(TaskId(1), &script, &mut vm, at) {
            located.extend(reading.to_location_record());
        }
        worst = worst.max(allocations() - before);
    }
    assert_eq!(
        located.len(),
        times.len(),
        "every reading carries a location"
    );
    assert!(
        worst <= 3,
        "a reading allocated {worst} times; the budget is the fix's slots, the \
         record's slots and the returned Vec"
    );
}

/// One 15-record frame from the device outbox to the Hive and its ack
/// back. Each step's allocations, in order:
///
/// * stage — the chunk's buffer and its shared handle;
/// * poll — the returned `Vec`;
/// * `DataFrame::to_message` — the message buffer and its handle;
/// * `DataFrame::from_message` — none: the chunk is a view of the payload;
/// * ingest — the decoded records, and now and then the growth of the day
///   bucket they join (the released chunks go to the collector's reused
///   buffer);
/// * `AckFrame::to_message` — the message buffer and its handle;
/// * `AckFrame::from_message` — none;
/// * `on_ack` — the returned latencies.
#[test]
fn a_frame_round_trip_costs_at_most_ten_allocations() {
    const PER_FRAME: i64 = 15;
    const TICK_S: i64 = 300;
    let user = UserId(1);
    // A fix every 20 s: each 300 s upload tick stages 15 of them.
    let records: Vec<LocationRecord> = (0..PER_FRAME * 40)
        .map(|i| {
            let point = GeoPoint::new(45.75 + 1e-5 * i as f64, 4.85 - 2e-5 * i as f64).unwrap();
            LocationRecord::new(user, Timestamp::new(i * TICK_S / PER_FRAME), point)
        })
        .collect();
    let mut outbox = DeviceOutbox::new(1, user, ReliableConfig::default(), records);
    let mut hive = Collector::new();
    hive.register(1, user);
    let mut worst = (0, [0; 4]);
    for tick in 1..=40 {
        let now_s = tick * TICK_S - TICK_S / PER_FRAME;
        let now_ms = now_s as u64 * 1_000;
        let start = allocations();
        assert_eq!(outbox.stage(now_s), 1);
        let txs = outbox.sender_mut().poll(now_ms);
        let staged = allocations();
        let mut sent = 0;
        let mut received = 0;
        for tx in txs {
            let before = allocations();
            let msg = tx.frame.to_message();
            sent += allocations() - before;
            let frame = DataFrame::from_message(&msg).unwrap();
            let before = allocations();
            let ack = hive.ingest(&frame).unwrap();
            received += allocations() - before;
            let ack = AckFrame::from_message(&ack.to_message()).unwrap();
            assert_eq!(outbox.sender_mut().on_ack(&ack, now_ms + 200), [200]);
        }
        let total = allocations() - start;
        let steps = [
            staged - start,
            sent,
            received,
            total - (staged - start) - sent - received,
        ];
        // The first frames warm the outbox queue, the in-flight table and
        // the receiver's reorder buffer.
        if tick > 10 && total > worst.0 {
            worst = (total, steps);
        }
    }
    let (_, day) = hive.close_day(0).unwrap();
    assert_eq!(day.records, 40 * PER_FRAME as u64);
    let (total, [stage_poll, to_message, ingest, ack]) = worst;
    assert!(
        total <= 10,
        "a frame round trip allocated {total} times (stage + poll {stage_poll}, \
         to_message {to_message}, ingest {ingest}, ack {ack}); the budget is 10"
    );
}
