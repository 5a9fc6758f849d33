//! Micro-benchmarks of the substrates: geo primitives, the uniform grid,
//! the script interpreter, the wire codec and the network simulator.

use apisense::script::{Host, Script, Value};
use criterion::{criterion_group, criterion_main, Criterion};
use geo::{BoundingBox, GeoPoint, Meters, UniformGrid};
use simnet::wire::{decode_frame, encode_frame};
use simnet::{Actor, Context, LinkModel, Message, NodeId, Simulation};
use std::hint::black_box;
use std::time::Duration;

struct NullHost;
impl Host for NullHost {
    fn call(
        &mut self,
        _path: &str,
        args: &mut [Value],
    ) -> Result<Value, apisense::ApisenseError> {
        Ok(args.first().cloned().unwrap_or(Value::Null))
    }
}

struct Sink;
impl Actor for Sink {
    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _msg: Message) {}
}

fn bench_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // Geo primitives.
    let a = GeoPoint::new(45.75, 4.85).unwrap();
    let b = GeoPoint::new(45.76, 4.86).unwrap();
    group.bench_function("haversine", |bch| {
        bch.iter(|| black_box(black_box(a).haversine_distance(black_box(&b))))
    });

    // Grid histogram of 10k points.
    let bbox = BoundingBox::new(
        GeoPoint::new(45.70, 4.80).unwrap(),
        GeoPoint::new(45.80, 4.90).unwrap(),
    )
    .unwrap();
    let grid = UniformGrid::new(bbox, Meters::new(250.0)).unwrap();
    let points: Vec<GeoPoint> = (0..10_000)
        .map(|i| {
            GeoPoint::new(
                45.70 + (i % 100) as f64 * 0.001,
                4.80 + (i / 100) as f64 * 0.001,
            )
            .unwrap()
        })
        .collect();
    group.bench_function("grid_histogram_10k", |bch| {
        bch.iter(|| black_box(grid.histogram(black_box(&points).iter())))
    });

    // Script interpreter: arithmetic loop.
    let script = Script::compile(
        "let s = 0; let i = 0; while (i < 100) { s = s + i * 2; i = i + 1; } s",
    )
    .unwrap();
    group.bench_function("script_loop_100", |bch| {
        bch.iter(|| black_box(script.run(&mut NullHost, 1_000_000)))
    });

    // Wire codec.
    let msg = Message::request(7, 99, vec![0u8; 256]);
    group.bench_function("wire_frame_roundtrip_256B", |bch| {
        bch.iter(|| {
            let framed = encode_frame(black_box(&msg));
            let mut buf = bytes::BytesMut::from(framed.as_slice());
            black_box(decode_frame(&mut buf).unwrap())
        })
    });

    // Simulator message throughput: 1k messages through a lossy link.
    group.bench_function("simnet_1k_messages", |bch| {
        bch.iter(|| {
            let mut sim = Simulation::new(1);
            sim.set_default_link(LinkModel::mobile());
            let a = sim.add_node("a", Box::new(Sink));
            let b = sim.add_node("b", Box::new(Sink));
            for _ in 0..1_000 {
                sim.post(a, b, Message::event(1, vec![0; 64]));
            }
            black_box(sim.run())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_micro);
criterion_main!(benches);
