//! Criterion bench for multi-campaign orchestration.
//!
//! Measures the two deployment models of `bench::e12` on a small mixed
//! two-preset population:
//!
//! * `independent_sessions` — K same-config campaigns, each as its own
//!   `StreamingPublisher` re-extracting the original side per session;
//! * `orchestrated_campaigns` — the same K campaigns through one
//!   `campaign::Orchestrator` sharing the original-side session;
//! * `orchestrated_store_sharing` — the same orchestrated shape with the
//!   §3.11 work-store counters (the `strategy` audit) summed into the
//!   measurement;
//! * `orchestrator_register` — registry overhead (register + duplicate
//!   rejection + retire), separate from the per-window work.

use bench::e12::mixed_population;
use campaign::{Campaign, CampaignId, Orchestrator};
use criterion::{criterion_group, criterion_main, Criterion};
use mobility::WindowedDataset;
use privapi::pipeline::{PrivApi, PrivApiConfig};
use privapi::streaming::{StrategyCacheDelta, StreamingPublisher};
use std::hint::black_box;
use std::time::Duration;

const CAMPAIGNS: u64 = 3;

fn bench_campaigns(c: &mut Criterion) {
    let population = mixed_population(6, 3);
    let windows = WindowedDataset::partition(&population);
    let config = PrivApiConfig::default();

    let mut group = c.benchmark_group("e12_campaign");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));

    group.bench_function("independent_sessions", |b| {
        b.iter(|| {
            for _ in 0..CAMPAIGNS {
                let mut publisher = StreamingPublisher::from_privapi(PrivApi::new(config));
                for window in &windows {
                    black_box(publisher.publish_window(window).ok());
                }
            }
        })
    });

    group.bench_function("orchestrated_campaigns", |b| {
        b.iter(|| {
            let mut orchestrator = Orchestrator::new();
            for id in 0..CAMPAIGNS {
                orchestrator
                    .register(Campaign::new(id, format!("c{id}"), config))
                    .expect("distinct ids");
            }
            for window in &windows {
                black_box(orchestrator.advance_day(window).expect("ascending days"));
            }
        })
    });

    // The §3.11 work store: K fingerprint-identical campaigns, all but
    // the first served its protected side — the summed protected-side
    // audit is black-boxed so the store bookkeeping itself is inside the
    // measurement.
    group.bench_function("orchestrated_store_sharing", |b| {
        b.iter(|| {
            let mut orchestrator = Orchestrator::new();
            for id in 0..CAMPAIGNS {
                orchestrator
                    .register(Campaign::new(id, format!("c{id}"), config))
                    .expect("distinct ids");
            }
            let mut totals = StrategyCacheDelta::default();
            for window in &windows {
                let report = orchestrator.advance_day(window).expect("ascending days");
                for id in 0..CAMPAIGNS {
                    if let Some(release) = report.release_of(CampaignId(id)) {
                        totals += release.strategies;
                    }
                }
            }
            black_box((totals.users_donated, totals.shards_donated))
        })
    });

    group.bench_function("orchestrator_register", |b| {
        b.iter(|| {
            let mut orchestrator = Orchestrator::new();
            for id in 0..64u64 {
                orchestrator
                    .register(Campaign::new(id, "c", config))
                    .expect("distinct ids");
            }
            black_box(
                orchestrator
                    .register(Campaign::new(0, "dup", config))
                    .is_err(),
            );
            for id in 0..64u64 {
                orchestrator.retire(CampaignId(id)).expect("active");
            }
            black_box(orchestrator.registry().len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_campaigns);
criterion_main!(benches);
