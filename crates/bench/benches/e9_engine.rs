//! Criterion bench for the PRIVAPI evaluation engine.
//!
//! Demonstrates the two structural wins of `privapi::engine` on the
//! selection hot path (acceptance criteria of the workspace-bootstrap PR):
//!
//! * `context_reuse_*` — utility scoring through a shared
//!   `CrowdedBaseline`/`TrafficBaseline` vs. recomputing the original
//!   dataset's projection per candidate (the legacy `utility_of` shape);
//! * `engine_sequential` vs `engine_parallel` — identical reports, the
//!   first inside a one-thread rayon pool, the second fanning candidates
//!   over the available cores (equal on a single-core host, faster as
//!   cores are added).

use bench::data::dataset;
use criterion::{criterion_group, criterion_main, Criterion};
use privapi::attack::PoiAttack;
use privapi::metrics::{crowded_places_utility, CrowdedBaseline};
use privapi::prelude::*;
use std::hint::black_box;
use std::time::Duration;

fn bench_engine(c: &mut Criterion) {
    let data = dataset(8, 2, 180, 0xE9);
    let attack = PoiAttack::default();
    let reference = attack.extract(&data.dataset);
    let pool = StrategyPool::default_pool();
    let objective = Objective::CrowdedPlaces {
        cell: geo::Meters::new(250.0),
        k: 10,
    };
    let protected: Vec<_> = pool
        .iter()
        .map(|s| s.anonymize(&data.dataset, 0xE9))
        .collect();

    let mut group = c.benchmark_group("e9_engine");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    // Utility scoring for the whole pool: shared original-side projection
    // (one gridding) vs. the legacy per-candidate recomputation.
    group.bench_function("context_reuse_shared", |b| {
        b.iter(|| {
            let baseline =
                CrowdedBaseline::new(black_box(&data.dataset), geo::Meters::new(250.0), 10)
                    .unwrap();
            let total: f64 = protected
                .iter()
                .map(|p| baseline.score(black_box(p)).precision_at_k)
                .sum();
            black_box(total)
        })
    });
    group.bench_function("context_reuse_recompute", |b| {
        b.iter(|| {
            let total: f64 = protected
                .iter()
                .map(|p| {
                    crowded_places_utility(
                        black_box(&data.dataset),
                        black_box(p),
                        geo::Meters::new(250.0),
                        10,
                    )
                    .map(|r| r.precision_at_k)
                    .unwrap_or(0.0)
                })
                .sum();
            black_box(total)
        })
    });

    // Full engine runs: one worker thread vs every core (same report).
    let engine = EvaluationEngine::new(objective, 0.3, 1);
    group.bench_function("engine_sequential", |b| {
        let one_thread = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        b.iter(|| {
            one_thread.install(|| {
                black_box(
                    engine
                        .evaluate(&pool, black_box(&data.dataset), &reference)
                        .ok(),
                )
            })
        })
    });
    group.bench_function("engine_parallel", |b| {
        b.iter(|| {
            black_box(
                engine
                    .evaluate(&pool, black_box(&data.dataset), &reference)
                    .ok(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
