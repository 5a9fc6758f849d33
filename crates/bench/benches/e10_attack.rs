//! Criterion bench for the sharded, spatial-indexed attack pipeline.
//!
//! Measures the three layers of the attack-path restructuring:
//!
//! * `extract_serial` (`extract` in a one-thread pool) vs
//!   `extract_parallel` — the per-user shard fan-out (equal on a
//!   single-core host, ≥ 1.5× on 4+ cores; results are byte-identical
//!   either way);
//! * `match_scan` vs `match_indexed` — pairwise O(R·E) matching vs probing
//!   a pre-built `ReferenceIndex` (the engine shares one index across the
//!   whole candidate pool, so the build is amortized — benched separately
//!   as `index_build`);
//! * `profile_scan` vs `profile_indexed` — the re-identification linkage
//!   distance, pairwise vs nearest-neighbor lookups;
//! * `publish_end_to_end` — one full `PrivApi::publish` on a small
//!   population, the number every other win rolls up into.

use bench::data::dataset;
use criterion::{criterion_group, criterion_main, Criterion};
use geo::PointIndex;
use privapi::attack::{indexed_profile_distance, profile_distance};
use privapi::prelude::*;
use std::hint::black_box;
use std::time::Duration;

fn bench_attack(c: &mut Criterion) {
    let data = dataset(12, 3, 120, 0xE10);
    let attack = PoiAttack::default();
    let reference = attack.extract(&data.dataset);
    let index = attack.index_reference(&reference);
    let protected = GaussianPerturbation::new(geo::Meters::new(120.0))
        .expect("valid sigma")
        .anonymize(&data.dataset, 0xE10);
    let extracted = attack.extract(&protected);

    let mut group = c.benchmark_group("e10_attack");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    group.bench_function("extract_serial", |b| {
        b.iter(|| black_box(one_thread.install(|| attack.extract(black_box(&data.dataset)))))
    });
    group.bench_function("extract_parallel", |b| {
        b.iter(|| black_box(attack.extract(black_box(&data.dataset))))
    });

    group.bench_function("match_scan", |b| {
        b.iter(|| black_box(attack.match_extracted_scan(black_box(&extracted), &reference)))
    });
    group.bench_function("match_indexed", |b| {
        b.iter(|| black_box(attack.match_extracted(black_box(&extracted), &index)))
    });
    group.bench_function("index_build", |b| {
        b.iter(|| black_box(attack.index_reference(black_box(&reference))))
    });

    // Re-identification linkage distance over every (observed, profile)
    // pair — the O(U²·R·E) term of the AP attack.
    let profiles: Vec<&Vec<geo::GeoPoint>> =
        reference.values().filter(|p| !p.is_empty()).collect();
    let profile_indexes: Vec<PointIndex> = profiles
        .iter()
        .map(|p| {
            PointIndex::build((*p).clone(), attack.config().match_distance).expect("valid cell")
        })
        .collect();
    group.bench_function("profile_scan", |b| {
        b.iter(|| {
            let total: f64 = profiles
                .iter()
                .flat_map(|o| profiles.iter().map(|p| profile_distance(o, p)))
                .sum();
            black_box(total)
        })
    });
    group.bench_function("profile_indexed", |b| {
        b.iter(|| {
            let total: f64 = profiles
                .iter()
                .flat_map(|o| {
                    profile_indexes
                        .iter()
                        .map(|p| indexed_profile_distance(o, p))
                })
                .sum();
            black_box(total)
        })
    });

    // End to end: the publish path all of the above rolls up into (its own
    // smaller population keeps the bench affordable).
    let publish_data = dataset(6, 2, 300, 0xE10);
    group.bench_function("publish_end_to_end", |b| {
        let privapi = PrivApi::default();
        b.iter(|| black_box(privapi.publish(black_box(&publish_data.dataset)).ok()))
    });
    group.finish();
}

criterion_group!(benches, bench_attack);
criterion_main!(benches);
