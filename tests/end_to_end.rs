//! Cross-crate integration tests: the full collect → protect → publish
//! pipeline of the paper, plus platform-level invariants.

use crowdsense::apisense::deploy::{run_campaign, CampaignConfig};
use crowdsense::apisense::device::SensorKind;
use crowdsense::apisense::hive::{descriptor, Hive};
use crowdsense::apisense::honeycomb::{ExperimentBuilder, Honeycomb};
use crowdsense::apisense::script::Script;
use crowdsense::mobility::gen::{CityModel, PopulationConfig};
use crowdsense::privapi::prelude::*;
use crowdsense::simnet::LinkModel;

/// The whole story: a campaign collects mobility data over the network,
/// the Honeycomb assembles a dataset, PRIVAPI protects it, the attack is
/// blunted, and utility survives.
#[test]
fn collect_protect_publish_pipeline() {
    // --- collect (APISENSE over simnet) ---
    let task = ExperimentBuilder::new("mobility-map")
        .require_sensor(SensorKind::Gps)
        .sampling_interval_s(300)
        .build();
    let report = run_campaign(
        &task,
        &CampaignConfig {
            devices: 12,
            duration_s: 24 * 3_600,
            device_link: LinkModel::mobile(),
            seed: 99,
            ..CampaignConfig::default()
        },
    );
    assert!(
        report.records_received > 200,
        "collected {}",
        report.records_received
    );

    // --- assemble the dataset on the honeycomb side ---
    // (run_campaign returns platform metrics; rebuild the dataset through a
    // local Honeycomb to exercise its storage path too.)
    let data = CityModel::builder()
        .seed(99)
        .build()
        .generate_with_truth(&PopulationConfig {
            users: 12,
            days: 3,
            sampling_interval_s: 120,
            ..PopulationConfig::default()
        });

    // --- protect and publish (PRIVAPI) ---
    let privapi = PrivApi::default();
    let published = privapi.publish(&data.dataset).expect("publishable");
    assert!(
        published.privacy.recall <= privapi.config().privacy_floor + 1e-9,
        "floor violated: {}",
        published.privacy.recall
    );

    // The protected dataset keeps its users and has records.
    assert_eq!(published.dataset.user_count(), data.dataset.user_count());
    assert!(published.dataset.record_count() > 0);

    // An attacker holding the raw data gains little from the release.
    let reid = ReidentificationAttack::default();
    let raw_link = reid.evaluate(&data.dataset, &data.dataset);
    let protected_link = reid.evaluate(&published.dataset, &data.dataset);
    assert!(raw_link.accuracy > 0.9);
    assert!(
        protected_link.accuracy < raw_link.accuracy,
        "protection must reduce linkability ({} vs {})",
        protected_link.accuracy,
        raw_link.accuracy
    );
}

/// Hive task lifecycle against a local (non-networked) fleet of devices.
#[test]
fn hive_deploys_and_ingests_locally() {
    use crowdsense::apisense::device::Device;
    use crowdsense::apisense::device::DeviceId;
    use crowdsense::mobility::{Timestamp, Trajectory};

    let data = CityModel::builder()
        .seed(3)
        .build()
        .generate_with_truth(&PopulationConfig {
            users: 5,
            days: 1,
            sampling_interval_s: 60,
            ..PopulationConfig::default()
        });

    let mut hive = Hive::new();
    let mut devices: Vec<Device> = data
        .dataset
        .users()
        .iter()
        .enumerate()
        .map(|(i, user)| {
            hive.register_device(descriptor(DeviceId(i as u64), *user));
            Device::new(
                DeviceId(i as u64),
                *user,
                Trajectory::new(*user, data.dataset.records_of(*user)),
            )
        })
        .collect();
    assert_eq!(hive.community_size(), 5);

    let task = ExperimentBuilder::new("quick")
        .script(Script::compile(
            r#"let fix = sensor.gps(); if (fix != null) { emit({ "lat": fix.lat, "lon": fix.lon }); }"#,
        ).unwrap())
        .require_sensor(SensorKind::Gps)
        .sampling_interval_s(600)
        .build();
    let id = hive.publish_task(task);
    let deployment = hive.deploy(id).unwrap();
    assert_eq!(deployment.devices.len(), 5);

    // Offload to each device and run three hours.
    let start = Timestamp::from_day_time(0, 9, 0, 0);
    let script = hive.task(id).unwrap().script().clone();
    for device in devices.iter_mut() {
        device.install(id, script.clone(), 600, 0.0, start);
    }
    for minute in 0..180 {
        for device in devices.iter_mut() {
            device.tick(start + minute * 60);
        }
    }
    let mut uploaded = Vec::new();
    for device in devices.iter_mut() {
        uploaded.extend(device.drain_outbox());
    }
    assert!(uploaded.len() >= 5 * 18, "uploaded {}", uploaded.len());
    hive.ingest(uploaded);

    // Forward to the honeycomb and build the mobility dataset.
    let mut honeycomb = Honeycomb::new("lab");
    honeycomb.receive(hive.drain_collected(id));
    let stats = honeycomb.stats(id);
    assert_eq!(stats.contributors, 5);
    let dataset = honeycomb.mobility_dataset(id);
    assert_eq!(dataset.user_count(), 5);
    assert_eq!(dataset.record_count(), stats.records);
}

/// Dataset IO round-trips through JSONL and CSV preserve what PRIVAPI needs.
#[test]
fn io_roundtrip_preserves_analysis() {
    use crowdsense::mobility::io;

    let data = CityModel::builder()
        .seed(8)
        .build()
        .generate_with_truth(&PopulationConfig {
            users: 3,
            days: 2,
            sampling_interval_s: 300,
            ..PopulationConfig::default()
        });
    let mut jsonl = Vec::new();
    io::write_jsonl(&data.dataset, &mut jsonl).unwrap();
    let back = io::read_jsonl(jsonl.as_slice()).unwrap();
    assert_eq!(back.record_count(), data.dataset.record_count());

    // The attack extracts the same POI profile from the re-read dataset.
    let attack = PoiAttack::default();
    let before = attack.extract(&data.dataset);
    let after = attack.extract(&back);
    assert_eq!(before.len(), after.len());
    for (user, pois) in &before {
        let other = &after[user];
        assert_eq!(pois.len(), other.len(), "{user} POI count changed");
    }

    let mut csv = Vec::new();
    io::write_csv(&data.dataset, &mut csv).unwrap();
    let csv_back = io::read_csv(csv.as_slice()).unwrap();
    assert_eq!(csv_back.record_count(), data.dataset.record_count());
}

/// The engine's choice is stable across runs (determinism end to end).
#[test]
fn selection_is_deterministic() {
    let data = CityModel::builder()
        .seed(13)
        .build()
        .generate_with_truth(&PopulationConfig {
            users: 6,
            days: 3,
            sampling_interval_s: 120,
            ..PopulationConfig::default()
        });
    let attack = PoiAttack::default();
    let reference = attack.extract(&data.dataset);
    let run = || {
        let engine = EvaluationEngine::new(
            Objective::CrowdedPlaces {
                cell: geo::Meters::new(250.0),
                k: 10,
            },
            0.3,
            42,
        );
        let report = engine
            .evaluate(&StrategyPool::default_pool(), &data.dataset, &reference)
            .unwrap();
        (report.winner().unwrap().info.clone(), report)
    };
    let (a_info, a_report) = run();
    let (b_info, b_report) = run();
    assert_eq!(a_info, b_info);
    assert_eq!(a_report, b_report);
}

/// Smoothed speed really is constant across a realistic population.
#[test]
fn speed_smoothing_invariant_population_wide() {
    let data = CityModel::builder()
        .seed(21)
        .build()
        .generate_with_truth(&PopulationConfig {
            users: 6,
            days: 2,
            sampling_interval_s: 60,
            ..PopulationConfig::default()
        });
    let strategy = SpeedSmoothing::new(geo::Meters::new(100.0)).unwrap();
    let protected = strategy.anonymize(&data.dataset, 1);
    let mut checked = 0;
    for t in protected.trajectories() {
        if let Some(cv) = t.speed_cv() {
            assert!(cv < 0.25, "speed cv {cv} too high after smoothing");
            checked += 1;
        }
    }
    assert!(checked > 0, "no trajectory had measurable speed");
}

/// The engine end to end: `PrivApi::publish` meets the privacy floor, and
/// running it on one worker thread produces the byte-identical selection
/// report and release as on two.
#[test]
fn publish_through_engine_is_schedule_independent_and_meets_floor() {
    let data = CityModel::builder()
        .seed(57)
        .build()
        .generate_with_truth(&PopulationConfig {
            users: 8,
            days: 3,
            sampling_interval_s: 120,
            ..PopulationConfig::default()
        });
    let privapi = PrivApi::default();
    let in_pool = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| privapi.publish(&data.dataset).expect("publishable"))
    };
    let (a, b) = (in_pool(2), in_pool(1));

    // Floor holds on the actual release.
    let floor = privapi.config().privacy_floor;
    assert!(
        a.privacy.recall <= floor + 1e-9,
        "leaked {}",
        a.privacy.recall
    );

    // Two-thread and one-thread middleware runs agree exactly.
    assert_eq!(a.selection, b.selection);
    assert_eq!(a.strategy, b.strategy);
    assert_eq!(a.dataset, b.dataset);

    // The report's winner row is consistent with the applied strategy and
    // the typed objective survived into the report.
    let winner = a.selection.winner().expect("winner row");
    assert_eq!(winner.info, a.strategy);
    assert_eq!(a.selection.objective, privapi.config().objective);
}

/// The platform-side release gate — PRIVAPI over a pool assembled from the
/// shared registry — releases a campaign's data and the privacy floor holds
/// on the release.
#[test]
fn gateway_publishes_campaign_data_under_floor() {
    use crowdsense::privapi::pool::StrategyPool;

    let data = CityModel::builder()
        .seed(63)
        .build()
        .generate_with_truth(&PopulationConfig {
            users: 6,
            days: 3,
            sampling_interval_s: 120,
            ..PopulationConfig::default()
        });
    // A custom pool assembled from the shared registry's grid builders.
    let pool = StrategyPool::new()
        .with_speed_smoothing(&[100.0, 200.0])
        .unwrap()
        .with_geo_indistinguishability(&[0.01])
        .unwrap()
        .with_temporal_downsampling(&[600])
        .unwrap();
    let gateway = PrivApi::default().with_pool(pool);
    let published = gateway.publish(&data.dataset).expect("publishable");
    let floor = gateway.config().privacy_floor;
    assert!(
        published.privacy.recall <= floor + 1e-9,
        "gateway leaked {}",
        published.privacy.recall
    );
    assert_eq!(published.dataset.user_count(), data.dataset.user_count());
}
