//! Criterion bench for E5: strategy selection cost.

use bench::data::dataset;
use criterion::{criterion_group, criterion_main, Criterion};
use privapi::attack::PoiAttack;
use privapi::prelude::*;
use std::hint::black_box;
use std::time::Duration;

fn bench_e5(c: &mut Criterion) {
    let data = dataset(8, 2, 180, 0xE5);
    let attack = PoiAttack::default();
    let reference = attack.extract(&data.dataset);
    let mut group = c.benchmark_group("e5_selection");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    group.bench_function("select_default_pool_8u2d", |b| {
        b.iter(|| {
            let engine = EvaluationEngine::new(
                Objective::CrowdedPlaces {
                    cell: geo::Meters::new(250.0),
                    k: 10,
                },
                0.3,
                1,
            );
            let pool = StrategyPool::default_pool();
            black_box(
                engine
                    .evaluate(&pool, black_box(&data.dataset), &reference)
                    .ok(),
            );
        })
    });
    group.finish();
}

criterion_group!(benches, bench_e5);
criterion_main!(benches);
