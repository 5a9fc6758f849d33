//! Allocation budget of the scripted sensing path.
//!
//! A device runs its task script once per reading, so every heap
//! allocation on that path is paid hundreds of thousands of times per
//! fleet-day. This test counts them with its own global allocator,
//! counting per thread so the harness's parallel tests do not interfere.
//! One location reading through a warm [`Vm`] may allocate the GPS fix's
//! slots, the emitted record's slots and the returned `Vec`, and nothing
//! else: record keys live in shapes made once per program and per host
//! endpoint.

use apisense::device::{Device, DeviceId};
use apisense::hive::TaskId;
use apisense::script::{Script, Vm};
use geo::GeoPoint;
use mobility::{LocationRecord, Timestamp, Trajectory, UserId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus a per-thread count of allocations (reallocations
/// included).
struct CountingAlloc;

fn counted() {
    // `try_with`: the thread-local may already be gone while a thread
    // tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only a thread-local integer.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
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
