//! Criterion bench for the streaming publication pipeline.
//!
//! Measures the layers of the day-window restructuring:
//!
//! * `partition` — bucketing a dataset into `DatasetWindow`s;
//! * `session_advance_all_windows` — the cache path alone (per-user shard
//!   refresh + reference-index amendment), no candidate sweeps;
//! * `batch_republish_all_windows` vs `stream_publish_all_windows` — the
//!   two deployment models end to end: every day re-publishes the whole
//!   accumulated prefix from scratch vs a `StreamingPublisher` session
//!   reusing yesterday's shards and index (winners byte-identical, see
//!   `bench::e11`);
//! * `stream_publish_fold_baselines` — the same streaming session with
//!   the per-window `BaselineDelta` counters summed, pinning the §3.11
//!   in-place utility-baseline folds to a measured data point.

use bench::data::dataset;
use criterion::{criterion_group, criterion_main, Criterion};
use mobility::WindowedDataset;
use privapi::attack::PoiAttack;
use privapi::prelude::*;
use privapi::streaming::BaselineDelta;
use std::hint::black_box;
use std::time::Duration;

fn bench_streaming(c: &mut Criterion) {
    let data = dataset(6, 3, 300, 0xE11);
    let windows = WindowedDataset::partition(&data.dataset);

    let mut group = c.benchmark_group("e11_streaming");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    group.bench_function("partition", |b| {
        b.iter(|| black_box(WindowedDataset::partition(black_box(&data.dataset))))
    });

    group.bench_function("session_advance_all_windows", |b| {
        b.iter(|| {
            let mut store = WorkStore::new();
            let mut session = Session::new(PoiAttack::default());
            for window in &windows {
                let delta = session.advance(window, &mut store);
                black_box(delta.expect("ascending windows"));
                store.drop_released();
            }
            black_box(session.population().windows_ingested())
        })
    });

    group.bench_function("batch_republish_all_windows", |b| {
        let privapi = PrivApi::default();
        b.iter(|| {
            for i in 0..windows.len() {
                black_box(privapi.publish(&windows.prefix(i)).ok());
            }
        })
    });

    group.bench_function("stream_publish_all_windows", |b| {
        b.iter(|| {
            let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
            for window in &windows {
                black_box(publisher.publish_window(window).ok());
            }
        })
    });

    // The §3.11 in-place baseline folds, surfaced through the per-window
    // `BaselineDelta` counters (rebuilds stay 0 on a stationary box).
    group.bench_function("stream_publish_fold_baselines", |b| {
        b.iter(|| {
            let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
            let mut baselines = obs::Tally::<BaselineDelta>::default();
            for window in &windows {
                let release = publisher.publish_window(window).expect("ascending windows");
                baselines.add(&release.baseline);
            }
            black_box((baselines.get("cells_updated"), baselines.get("rebuilt")))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
