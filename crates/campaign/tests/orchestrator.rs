//! Integration tests of the multi-campaign orchestrator: the
//! shared-extraction counting invariants, work-store sharing across
//! campaigns, scheduling independence, and the campaign lifecycle.

use campaign::{
    Campaign, CampaignError, CampaignId, CampaignOutcome, CampaignStatus, Orchestrator,
    SkipReason,
};
use geo::GeoPoint;
use mobility::gen::{CityModel, PopulationConfig};
use mobility::{
    Dataset, LocationRecord, ParticipantFilter, Timestamp, UserId, WindowedDataset, DAY_SECONDS,
};
use privapi::attack::{PoiAttack, PoiAttackConfig};
use privapi::pipeline::{PrivApi, PrivApiConfig};
use privapi::pool::StrategyPool;
use privapi::streaming::{Session, StreamingPublisher, WorkStore};

fn dataset(seed: u64, users: usize, days: usize) -> Dataset {
    CityModel::builder()
        .seed(seed)
        .build()
        .generate_population(&PopulationConfig {
            users,
            days,
            sampling_interval_s: 240,
            gps_noise_m: 5.0,
            leisure_probability: 0.4,
        })
}

/// Original-side-only per-user extraction cost of one streaming replay:
/// what a session alone (no candidate evaluation) pays.
fn original_side_cost(windows: &WindowedDataset) -> usize {
    let probe = PoiAttack::default();
    let mut session = Session::new(probe.clone());
    let mut store = WorkStore::new();
    for window in windows {
        session.advance(window, &mut store).unwrap();
    }
    probe.user_extractions()
}

/// Total per-user extraction cost (original + protected side) of one
/// standalone streaming campaign over the windows.
fn standalone_cost(windows: &WindowedDataset, config: PrivApiConfig) -> usize {
    let probe = PoiAttack::default();
    let privapi = privapi::pipeline::PrivApi::new(config).with_attack(probe.clone());
    let mut publisher = StreamingPublisher::from_privapi(privapi);
    for window in windows {
        publisher.publish_window(window).unwrap();
    }
    probe.user_extractions()
}

#[test]
fn same_config_campaigns_share_the_original_side_extraction() {
    // The headline counter: K campaigns with identical (pool, seed,
    // attack, objective) fingerprints on one session pay the whole
    // per-user extraction bill ONCE, not K times — the original side
    // through the shared session, the protected side through the shared
    // candidate states (the first campaign in registration order
    // refreshes each; the others only match and select). The
    // orchestrator's total is exactly one standalone replay.
    let windows = WindowedDataset::partition(&dataset(61, 4, 3));
    let config = PrivApiConfig::default();
    let original = original_side_cost(&windows);
    let standalone = standalone_cost(&windows, config);
    assert!(original > 0 && standalone > original);

    const K: usize = 3;
    let probe = PoiAttack::default();
    let mut orchestrator = Orchestrator::new();
    for k in 0..K {
        orchestrator
            .register(
                Campaign::new(k as u64, format!("c{k}"), config).with_attack(probe.clone()),
            )
            .unwrap();
    }
    assert_eq!(
        orchestrator.shared_sessions(),
        1,
        "one session for K sharers"
    );
    let pool = PrivApi::new(config).pool().len();
    for window in &windows {
        let report = orchestrator.advance_day(window).unwrap();
        assert_eq!(report.published().count(), K);
        assert_eq!(report.sessions.len(), 1, "the session advanced once");
        // Each candidate's state was refreshed once, not K times.
        assert_eq!(report.candidates.len(), pool, "one refresh per candidate");
        let releases: Vec<_> = report.published().collect();
        let leader = releases[0];
        assert!(leader.shared);
        assert_eq!(leader.strategies.users_donated, 0, "the leader pays");
        for follower in &releases[1..] {
            assert!(follower.shared);
            // Followers refresh nothing: they report the shared states'
            // audit, as they report the shared session's.
            assert_eq!(follower.strategies, leader.strategies);
            assert_eq!(follower.delta, leader.delta);
            // Sharing is exact: byte-identical releases.
            assert_eq!(follower.published.selection, leader.published.selection);
            assert_eq!(follower.published.dataset, leader.published.dataset);
        }
    }
    assert_eq!(
        probe.user_extractions(),
        standalone,
        "K identical campaigns must cost one standalone replay, not {K}×"
    );
    // And no full-dataset pass anywhere: both cache layers stay on the
    // per-user delta paths for the (fully local) default pool.
    assert_eq!(probe.extractions(), 0);
}

/// Per-user extraction cost of one standalone streaming campaign under
/// `attack_config`.
fn standalone_cost_under(windows: &WindowedDataset, attack_config: &PoiAttackConfig) -> usize {
    let probe = PoiAttack::new(attack_config.clone());
    let privapi =
        privapi::pipeline::PrivApi::new(PrivApiConfig::default()).with_attack(probe.clone());
    let mut publisher = StreamingPublisher::from_privapi(privapi);
    for window in windows {
        publisher.publish_window(window).unwrap();
    }
    probe.user_extractions()
}

#[test]
fn differing_config_campaigns_pay_exactly_their_own_pass() {
    let windows = WindowedDataset::partition(&dataset(67, 3, 3));
    let config = PrivApiConfig::default();
    // Only the matching distance differs: every shard this campaign needs
    // is one the default group extracts too.
    let matching_config = PoiAttackConfig {
        match_distance: geo::Meters::new(500.0),
        ..PoiAttackConfig::default()
    };
    // An extraction parameter differs: no shard is shared.
    let extraction_config = PoiAttackConfig {
        min_poi_dwell_s: 30 * 60,
        ..PoiAttackConfig::default()
    };

    // Reference costs, measured in isolation.
    let standalone_default = standalone_cost(&windows, config);
    let standalone_extraction = standalone_cost_under(&windows, &extraction_config);
    let shared_probe = PoiAttack::default();
    let matching_probe = PoiAttack::new(matching_config);
    let extraction_probe = PoiAttack::new(extraction_config);
    // Two same-config campaigns + two with their own attack parameters.
    let mut orchestrator = Orchestrator::new();
    for k in 0..2u64 {
        orchestrator
            .register(
                Campaign::new(k, format!("c{k}"), config).with_attack(shared_probe.clone()),
            )
            .unwrap();
    }
    orchestrator
        .register(Campaign::new(9, "matching", config).with_attack(matching_probe.clone()))
        .unwrap();
    orchestrator
        .register(Campaign::new(10, "extraction", config).with_attack(extraction_probe.clone()))
        .unwrap();
    assert_eq!(
        orchestrator.shared_sessions(),
        2,
        "differing extraction parameters never share a session; a matching \
         distance alone does"
    );
    let pool = PrivApi::new(config).pool().len();
    for window in &windows {
        let report = orchestrator.advance_day(window).unwrap();
        assert_eq!(report.published().count(), 4);
        assert_eq!(report.sessions.len(), 2);
        assert_eq!(report.candidates.len(), 2 * pool, "one refresh per session");
        let matching = report.release_of(CampaignId(9)).unwrap();
        let default = report.release_of(CampaignId(0)).unwrap();
        assert!(matching.shared);
        assert_eq!(matching.delta, default.delta, "the default session's pass");
        assert_eq!(
            matching.strategies, default.strategies,
            "the default states"
        );
    }
    // The same-config pair shares everything — one original-side pass
    // and one refresh per candidate through the session. A campaign
    // differing only in matching distance joins that session and pays no
    // extraction at all; one with its own extraction parameters pays
    // exactly its own standalone cost — no more, no less.
    assert_eq!(shared_probe.user_extractions(), standalone_default);
    assert_eq!(matching_probe.user_extractions(), 0);
    assert_eq!(extraction_probe.user_extractions(), standalone_extraction);
}

/// Three users over three days; users 1 and 2 pin the population
/// bounding box, so the {1, 2} subset's extraction grid equals the
/// population's on every window.
fn pinned_windows() -> WindowedDataset {
    let mut records = Vec::new();
    for day in 0..3i64 {
        for i in 0..120i64 {
            let t = Timestamp::new(day * DAY_SECONDS + i * 300);
            records.push(LocationRecord::new(
                UserId(1),
                t,
                GeoPoint::new(45.70, 4.78).unwrap(),
            ));
            records.push(LocationRecord::new(
                UserId(2),
                t,
                GeoPoint::new(45.80, 4.90).unwrap(),
            ));
            records.push(LocationRecord::new(
                UserId(3),
                t,
                GeoPoint::new(45.75, 4.85).unwrap(),
            ));
        }
    }
    WindowedDataset::partition(&Dataset::from_records(records))
}

#[test]
fn user_subset_campaign_derives_shards_from_the_shared_session() {
    // The subset campaign must add ZERO per-user extractions of its own:
    // its original-side shards are the shared session's, and every
    // protected output, shard and contribution of its users is the full
    // campaign's.
    let windows = pinned_windows();
    let config = PrivApiConfig::default();
    let probe = PoiAttack::default();
    let mut orchestrator = Orchestrator::new();
    orchestrator
        .register(Campaign::new(1, "full", config).with_attack(probe.clone()))
        .unwrap();
    orchestrator
        .register(
            Campaign::new(2, "subset", config)
                .with_attack(probe.clone())
                .with_filter(ParticipantFilter::users([UserId(1), UserId(2)])),
        )
        .unwrap();

    let mut derived_total = 0;
    for window in &windows {
        let report = orchestrator.advance_day(window).unwrap();
        let subset = report.release_of(CampaignId(2)).expect("subset releases");
        assert!(!subset.shared);
        assert_eq!(
            subset.delta.users_refreshed,
            0,
            "day {}: every subset shard must be derived, not extracted",
            window.day()
        );
        derived_total += subset.delta.users_derived;
    }
    assert_eq!(derived_total, 2 * windows.len(), "both users, every window");
    // Grand total: the full-population campaign's standalone replay, and
    // not a single subset-side extraction on either side.
    let full_standalone = standalone_cost(&windows, config);
    assert_eq!(
        probe.user_extractions(),
        full_standalone,
        "the subset campaign must ride the full campaign's work"
    );
}

#[test]
fn subset_registered_before_its_population_is_still_served() {
    // Registration order no longer decides sharing: the shared session
    // advances before any campaign evaluates, so a subset registered
    // first is served its original-side shards all the same — and still
    // releases exactly what it would alone.
    let windows = pinned_windows();
    let config = PrivApiConfig::default();
    let filter = ParticipantFilter::users([UserId(1), UserId(2)]);
    let mut orchestrator = Orchestrator::new();
    orchestrator
        .register(Campaign::new(2, "subset", config).with_filter(filter.clone()))
        .unwrap();
    orchestrator
        .register(Campaign::new(1, "full", config))
        .unwrap();
    let mut standalone = StreamingPublisher::new(config);
    for window in &windows {
        let report = orchestrator.advance_day(window).unwrap();
        let subset = report.release_of(CampaignId(2)).expect("subset releases");
        assert!(
            subset.delta.users_derived > 0,
            "day {}: the subset's shards come from the store",
            window.day()
        );
        assert_eq!(subset.delta.users_refreshed, 0);
        let expected = standalone
            .publish_window(&filter.filter_window(window).unwrap())
            .unwrap();
        assert_eq!(subset.published.selection, expected.published.selection);
        assert_eq!(subset.published.strategy, expected.published.strategy);
        assert_eq!(subset.published.privacy, expected.published.privacy);
        assert_eq!(subset.published.dataset, expected.published.dataset);
    }
}

#[test]
fn strategies_equal_at_display_precision_share_no_output() {
    // `gaussian(sigma=100m)` names both the default pool's 100 m candidate
    // and a 100.3 m one; likewise `cell=250m` and `epsilon=0.1000/m`. The
    // store keys outputs on each strategy's exact identity, so the second
    // campaign is served none of the first one's outputs and releases
    // exactly what it would alone.
    let windows = WindowedDataset::partition(&dataset(83, 4, 3));
    let config = PrivApiConfig {
        privacy_floor: 1.0, // keep every candidate feasible
        ..PrivApiConfig::default()
    };
    let near_pool = || {
        StrategyPool::new()
            .with_gaussian_perturbation(&[100.3])
            .unwrap()
            .with_spatial_cloaking(&[250.4])
            .unwrap()
            .with_geo_indistinguishability(&[0.100_000_01])
            .unwrap()
    };
    let default_infos = StrategyPool::default_pool().infos();
    for info in near_pool().infos() {
        assert!(
            default_infos.contains(&info),
            "{info} must collide on display"
        );
    }
    let mut orchestrator = Orchestrator::new();
    orchestrator
        .register(Campaign::new(1, "default", config))
        .unwrap();
    orchestrator
        .register(Campaign::new(2, "near", config).with_pool(near_pool()))
        .unwrap();
    let mut default_alone = StreamingPublisher::new(config);
    let mut near_alone =
        StreamingPublisher::from_privapi(PrivApi::new(config).with_pool(near_pool()));
    for window in &windows {
        let report = orchestrator.advance_day(window).unwrap();
        for (id, alone) in [(1, &mut default_alone), (2, &mut near_alone)] {
            let release = report.release_of(CampaignId(id)).expect("releases");
            let expected = alone.publish_window(window).unwrap();
            assert_eq!(release.published.selection, expected.published.selection);
            assert_eq!(release.published.strategy, expected.published.strategy);
            assert_eq!(release.published.privacy, expected.published.privacy);
            assert_eq!(release.published.dataset, expected.published.dataset);
        }
        let near = report.release_of(CampaignId(2)).unwrap();
        assert_eq!(
            near.strategies.users_donated,
            0,
            "day {}: no output may be served across distinct strategies",
            window.day()
        );
    }
}

#[test]
fn reports_are_identical_under_one_and_two_threads() {
    // Sweeps read the store and fill it afterwards in a fixed order, so
    // nothing a day reports — releases, original- and protected-side
    // deltas, store counters — depends on how many threads ran it.
    let windows = WindowedDataset::partition(&dataset(71, 4, 3));
    let run = || {
        let config = PrivApiConfig::default();
        let mut orchestrator = Orchestrator::new();
        let campaigns = [
            Campaign::new(1, "full", config),
            Campaign::new(2, "replica", config),
            Campaign::new(3, "subset", config)
                .with_filter(ParticipantFilter::users([UserId(0), UserId(2)])),
            Campaign::new(4, "matching", config).with_attack(PoiAttack::new(PoiAttackConfig {
                match_distance: geo::Meters::new(400.0),
                ..PoiAttackConfig::default()
            })),
        ];
        for campaign in campaigns {
            orchestrator.register(campaign).unwrap();
        }
        windows
            .iter()
            .map(|w| format!("{:?}", orchestrator.advance_day(w).unwrap()))
            .collect::<Vec<_>>()
    };
    let in_pool = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(run)
    };
    let (one, two) = (in_pool(1), in_pool(2));
    assert_eq!(one.len(), windows.len());
    for (day, (a, b)) in one.iter().zip(&two).enumerate() {
        assert_eq!(a, b, "day {day}: the report depends on the thread count");
    }
    assert!(one[1].contains("users_donated"), "reports carry the deltas");
}

#[test]
fn duplicate_active_ids_are_rejected_and_retired_ids_are_reusable() {
    let config = PrivApiConfig::default();
    let mut orchestrator = Orchestrator::new();
    orchestrator
        .register(Campaign::new(1, "first", config))
        .unwrap();
    let err = orchestrator
        .register(Campaign::new(1, "imposter", config))
        .unwrap_err();
    assert_eq!(err, CampaignError::DuplicateId(CampaignId(1)));
    orchestrator.retire(CampaignId(1)).unwrap();
    assert_eq!(
        orchestrator.status(CampaignId(1)),
        Some(CampaignStatus::Retired)
    );
    // Retired ids are reusable; retiring twice is an error.
    orchestrator
        .register(Campaign::new(1, "second", config))
        .unwrap();
    assert_eq!(
        orchestrator.status(CampaignId(1)),
        Some(CampaignStatus::Active)
    );
    orchestrator.retire(CampaignId(1)).unwrap();
    assert_eq!(
        orchestrator.retire(CampaignId(1)),
        Err(CampaignError::Unknown(CampaignId(1)))
    );
    assert_eq!(orchestrator.registry().len(), 2);
}

#[test]
fn lifecycle_windows_and_mid_stream_registration() {
    let windows = WindowedDataset::partition(&dataset(43, 3, 4));
    assert_eq!(windows.len(), 4);
    let days = windows.days();
    let config = PrivApiConfig::default();
    let mut orchestrator = Orchestrator::new();
    // Campaign 1 runs the whole stream; campaign 2 covers days [1], [2]
    // only (bounded lifetime).
    orchestrator
        .register(Campaign::new(1, "whole", config))
        .unwrap();
    orchestrator
        .register(
            Campaign::new(2, "bounded", config)
                .with_start_day(days[1])
                .with_end_day(days[2]),
        )
        .unwrap();
    assert_eq!(
        orchestrator.status(CampaignId(2)),
        Some(CampaignStatus::Pending)
    );

    // Day 0: campaign 2 not started.
    let report = orchestrator.advance_day(&windows.windows()[0]).unwrap();
    assert!(report.release_of(CampaignId(1)).is_some());
    assert!(matches!(
        report.outcomes[1].1,
        CampaignOutcome::Skipped(SkipReason::NotStarted)
    ));

    // Day 1: campaign 3 registers mid-stream — it only ever sees data
    // from here on. Campaign 2 activates.
    orchestrator
        .register(Campaign::new(3, "late", config))
        .unwrap();
    let report = orchestrator.advance_day(&windows.windows()[1]).unwrap();
    assert_eq!(report.published().count(), 3);
    assert_eq!(
        orchestrator.status(CampaignId(2)),
        Some(CampaignStatus::Active)
    );
    // The late campaign's release covers only the post-registration
    // prefix: its selection saw one window of data.
    let late = report.release_of(CampaignId(3)).unwrap();
    let standalone = privapi::pipeline::PrivApi::new(config)
        .publish(windows.windows()[1].dataset())
        .unwrap();
    assert_eq!(late.published.selection, standalone.selection);
    assert_eq!(late.published.dataset, standalone.dataset);

    // Day 2: last covered day for campaign 2; day 3: it has ended.
    let report = orchestrator.advance_day(&windows.windows()[2]).unwrap();
    assert!(report.release_of(CampaignId(2)).is_some());
    let report = orchestrator.advance_day(&windows.windows()[3]).unwrap();
    assert!(matches!(
        report.outcomes[1].1,
        CampaignOutcome::Skipped(SkipReason::Ended)
    ));
    assert_eq!(
        orchestrator.status(CampaignId(2)),
        Some(CampaignStatus::Completed)
    );
    assert_eq!(
        orchestrator.registry().windows_published(CampaignId(2)),
        Some(2)
    );
    assert_eq!(
        orchestrator.registry().last_published_day(CampaignId(2)),
        Some(days[2])
    );

    // Out-of-order and duplicate days are rejected with the typed error.
    assert_eq!(
        orchestrator.advance_day(&windows.windows()[3]).unwrap_err(),
        CampaignError::Stream {
            day: days[3],
            last_day: days[3]
        }
    );
}

#[test]
fn retired_campaigns_stop_observing_and_sessions_stop_with_them() {
    let windows = WindowedDataset::partition(&dataset(29, 3, 3));
    let config = PrivApiConfig::default();
    let probe = PoiAttack::default();
    let mut orchestrator = Orchestrator::new();
    orchestrator
        .register(Campaign::new(1, "only", config).with_attack(probe.clone()))
        .unwrap();
    orchestrator.advance_day(&windows.windows()[0]).unwrap();
    let after_first = probe.user_extractions();
    orchestrator.retire(CampaignId(1)).unwrap();
    // With no active consumer, later days advance nothing and cost
    // nothing.
    let report = orchestrator.advance_day(&windows.windows()[1]).unwrap();
    assert!(report.sessions.is_empty());
    assert!(matches!(
        report.outcomes[0].1,
        CampaignOutcome::Skipped(SkipReason::Retired)
    ));
    assert_eq!(probe.user_extractions(), after_first);
}

#[test]
fn retiring_the_last_consumer_garbage_collects_the_session() {
    let windows = WindowedDataset::partition(&dataset(31, 3, 3));
    let config = PrivApiConfig::default();
    let probe = PoiAttack::default();
    let mut orchestrator = Orchestrator::new();
    orchestrator
        .register(Campaign::new(1, "a", config).with_attack(probe.clone()))
        .unwrap();
    orchestrator
        .register(Campaign::new(2, "b", config).with_attack(probe.clone()))
        .unwrap();
    assert_eq!(orchestrator.shared_sessions(), 1);
    orchestrator.advance_day(&windows.windows()[0]).unwrap();
    // Retiring one sharer keeps the session alive; retiring the last
    // consumer frees it on the spot.
    orchestrator.retire(CampaignId(1)).unwrap();
    assert_eq!(orchestrator.shared_sessions(), 1);
    orchestrator.retire(CampaignId(2)).unwrap();
    assert_eq!(orchestrator.shared_sessions(), 0, "empty group collected");
    // A same-config newcomer gets a FRESH session: the dead session's
    // ingested prefix (and its shards) must not resurrect — the
    // newcomer's view of the stream begins at the next window, exactly
    // like any mid-stream registration.
    orchestrator
        .register(Campaign::new(3, "c", config).with_attack(probe.clone()))
        .unwrap();
    assert_eq!(orchestrator.shared_sessions(), 1);
    let report = orchestrator.advance_day(&windows.windows()[1]).unwrap();
    let release = report.release_of(CampaignId(3)).expect("newcomer releases");
    let standalone = privapi::pipeline::PrivApi::new(config)
        .publish(windows.windows()[1].dataset())
        .unwrap();
    assert_eq!(release.published.selection, standalone.selection);
    assert_eq!(release.published.dataset, standalone.dataset);
}

#[test]
fn session_gc_remaps_surviving_shared_indices() {
    let windows = WindowedDataset::partition(&dataset(37, 3, 3));
    let config = PrivApiConfig::default();
    let custom_attack_config = PoiAttackConfig {
        min_poi_dwell_s: 30 * 60,
        ..PoiAttackConfig::default()
    };
    let mut orchestrator = Orchestrator::new();
    // Session 0 (default attack) and session 1 (custom attack).
    orchestrator
        .register(Campaign::new(1, "default", config))
        .unwrap();
    orchestrator
        .register(
            Campaign::new(2, "custom", config)
                .with_attack(PoiAttack::new(custom_attack_config.clone())),
        )
        .unwrap();
    assert_eq!(orchestrator.shared_sessions(), 2);
    orchestrator.advance_day(&windows.windows()[0]).unwrap();
    // Collecting session 0 shifts session 1 down; campaign 2's view must
    // follow it to the remapped slot and keep publishing byte-identical
    // releases.
    orchestrator.retire(CampaignId(1)).unwrap();
    assert_eq!(orchestrator.shared_sessions(), 1);
    let report = orchestrator.advance_day(&windows.windows()[1]).unwrap();
    let release = report.release_of(CampaignId(2)).expect("survivor releases");
    let mut standalone = StreamingPublisher::from_privapi(
        privapi::pipeline::PrivApi::new(config)
            .with_attack(PoiAttack::new(custom_attack_config)),
    );
    standalone.publish_window(&windows.windows()[0]).unwrap();
    let expected = standalone.publish_window(&windows.windows()[1]).unwrap();
    assert_eq!(release.published.selection, expected.published.selection);
    assert_eq!(release.published.dataset, expected.published.dataset);
}

#[test]
fn ingest_provenance_is_stamped_and_flags_degradation() {
    use privapi::streaming::IngestDelta;
    let windows = WindowedDataset::partition(&dataset(67, 3, 2));
    let mut orchestrator = Orchestrator::new();
    orchestrator
        .register(Campaign::new(1, "c", PrivApiConfig::default()))
        .unwrap();

    let clean = IngestDelta::new(windows.windows()[0].day());
    let mut report = orchestrator.advance_day(&windows.windows()[0]).unwrap();
    assert_eq!(report.ingest, None, "the caller stamps provenance");
    assert_eq!(report.day, clean.day, "ingest audit for the published day");
    report.ingest = Some(clean);
    assert!(!report.degraded(), "clean delta is not degradation");

    let mut dirty = IngestDelta::new(windows.windows()[1].day());
    dirty.records_quarantined = 3;
    dirty.straggler_devices = 1;
    let mut report = orchestrator.advance_day(&windows.windows()[1]).unwrap();
    assert_eq!(report.day, dirty.day, "ingest audit for the published day");
    report.ingest = Some(dirty);
    assert!(report.degraded(), "quarantine flags the window as degraded");

    // The ascending-day stream guard holds on the ingest path too; a
    // replayed window is a harness bug, not a network fault.
    assert!(matches!(
        orchestrator.advance_day(&windows.windows()[1]),
        Err(CampaignError::Stream { .. })
    ));
}
