//! Criterion bench for fault-injected reliable ingestion.
//!
//! Measures the hot paths of `bench::e13` on the smoke fleet:
//!
//! * `fleet_faultfree` — the full device→Hive fleet run with no injected
//!   faults (the byte-identity oracle);
//! * `fleet_chaos` — the same fleet under `FaultPlan::chaos` burst loss,
//!   duplication and reordering: the price of at-least-once recovery;
//! * `sender_receiver_cycle` — the transport micro-loop alone (enqueue →
//!   poll → accept → ack) without the simulator, isolating protocol
//!   overhead from event-queue overhead.

use apisense::fleet::{run_fleet, FleetConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use simnet::reliable::{ReliableConfig, ReliableReceiver, ReliableSender};
use simnet::FaultPlan;
use std::hint::black_box;
use std::time::Duration;

fn bench_reliable(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_reliable");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    group.bench_function("fleet_faultfree", |b| {
        b.iter(|| black_box(run_fleet(&FleetConfig::small(11))))
    });

    group.bench_function("fleet_chaos", |b| {
        b.iter(|| {
            let mut config = FleetConfig::small(11);
            config.faults = FaultPlan::chaos(11);
            black_box(run_fleet(&config))
        })
    });

    group.bench_function("sender_receiver_cycle", |b| {
        let chunk = vec![0u8; 256];
        b.iter(|| {
            let mut tx = ReliableSender::new(1, ReliableConfig::default());
            let mut rx = ReliableReceiver::new();
            let mut released = Vec::new();
            let mut now = 0u64;
            for _ in 0..256 {
                tx.enqueue(chunk.clone());
                for t in tx.poll(now) {
                    let ack =
                        rx.accept(t.frame.sender, t.frame.seq, t.frame.chunk, &mut released);
                    black_box(&released);
                    released.clear();
                    tx.on_ack(&ack, now + 1);
                }
                now += 2;
            }
            black_box((tx.acked(), rx.watermark()))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_reliable);
criterion_main!(benches);
