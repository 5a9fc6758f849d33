//! Integration tests of the multi-campaign orchestrator: the
//! shared-extraction counting invariants, donor derivation, and the
//! campaign lifecycle.

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
use privapi::pipeline::PrivApiConfig;
use privapi::streaming::{PopulationCache, StreamingPublisher};

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
/// what a session cache alone (no candidate evaluation) pays.
fn original_side_cost(windows: &WindowedDataset) -> usize {
    let probe = PoiAttack::default();
    let mut cache = PopulationCache::new();
    for window in windows {
        cache.advance(&probe, window).unwrap();
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
    // through the shared session, the protected side through donor
    // snapshots (the registration-order leader evaluates; followers
    // adopt its per-candidate state by pointer clone). The
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
    for window in &windows {
        let report = orchestrator.advance_day(window).unwrap();
        assert_eq!(report.published().count(), K);
        assert_eq!(report.sessions.len(), 1, "the session advanced once");
        let releases: Vec<_> = report.published().collect();
        let leader = releases[0];
        assert!(leader.shared);
        assert_eq!(leader.strategies.users_donated, 0, "the leader pays");
        for follower in &releases[1..] {
            assert!(follower.shared);
            // Followers re-anonymize and re-attack nobody: every
            // candidate's protected state arrives from the leader.
            assert_eq!(follower.strategies.users_refreshed, 0);
            assert_eq!(follower.strategies.shards_refreshed, 0);
            assert!(follower.strategies.users_donated > 0);
            assert!(follower.strategies.shards_donated > 0);
            // Donor adoption is exact: byte-identical releases.
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

#[test]
fn differing_config_campaigns_pay_exactly_their_own_pass() {
    let windows = WindowedDataset::partition(&dataset(67, 3, 3));
    let config = PrivApiConfig::default();
    let custom_attack_config = PoiAttackConfig {
        match_distance: geo::Meters::new(500.0),
        ..PoiAttackConfig::default()
    };

    // Reference costs, measured in isolation.
    let shared_probe = PoiAttack::default();
    let custom_probe = PoiAttack::new(custom_attack_config.clone());
    let standalone_default = standalone_cost(&windows, config);
    let standalone_custom = {
        let probe = PoiAttack::new(custom_attack_config.clone());
        let privapi = privapi::pipeline::PrivApi::new(config).with_attack(probe.clone());
        let mut publisher = StreamingPublisher::from_privapi(privapi);
        for window in &windows {
            publisher.publish_window(window).unwrap();
        }
        probe.user_extractions()
    };
    // Two same-config campaigns + one with its own attack parameters.
    let mut orchestrator = Orchestrator::new();
    for k in 0..2u64 {
        orchestrator
            .register(
                Campaign::new(k, format!("c{k}"), config).with_attack(shared_probe.clone()),
            )
            .unwrap();
    }
    orchestrator
        .register(Campaign::new(9, "custom", config).with_attack(custom_probe.clone()))
        .unwrap();
    assert_eq!(
        orchestrator.shared_sessions(),
        2,
        "differing attack configurations never share a session"
    );
    for window in &windows {
        let report = orchestrator.advance_day(window).unwrap();
        assert_eq!(report.published().count(), 3);
        assert_eq!(report.sessions.len(), 2);
    }
    // The same-config pair shares everything — one original-side pass
    // through the session, one protected-side pass through the donor
    // snapshot; the custom campaign pays exactly its own standalone cost
    // — no more, no less.
    assert_eq!(shared_probe.user_extractions(), standalone_default);
    assert_eq!(custom_probe.user_extractions(), standalone_custom);
}

#[test]
fn user_subset_campaign_derives_shards_from_the_shared_session() {
    // Users 1 and 2 pin the population bounding box, so the {1, 2}
    // subset's extraction grid equals the population's on every window —
    // the exact-derivation condition. The subset campaign must then add
    // ZERO original-side per-user extractions of its own.
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
    let windows = WindowedDataset::partition(&Dataset::from_records(records));
    let config = PrivApiConfig::default();
    let probe = PoiAttack::default();
    let mut orchestrator = Orchestrator::new();
    // Full-population campaign first, so the subset finds its donor.
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
    // Grand total: shared original side (= full-population replay) paid
    // once, plus protected-side work for both campaigns — not a single
    // subset-side original extraction.
    let full_standalone = {
        let p = PoiAttack::default();
        let mut publisher = StreamingPublisher::from_privapi(
            privapi::pipeline::PrivApi::new(config).with_attack(p.clone()),
        );
        for window in &windows {
            publisher.publish_window(window).unwrap();
        }
        p.user_extractions()
    };
    let subset_protected = {
        let filter = ParticipantFilter::users([UserId(1), UserId(2)]);
        let filtered: Vec<_> = windows
            .iter()
            .filter_map(|w| filter.filter_window(w))
            .collect();
        // Standalone subset campaign: total cost...
        let p = PoiAttack::default();
        let mut publisher = StreamingPublisher::from_privapi(
            privapi::pipeline::PrivApi::new(config).with_attack(p.clone()),
        );
        for window in &filtered {
            publisher.publish_window(window).unwrap();
        }
        // ...minus its original-side share (which the orchestrator
        // derives for free) leaves the protected-side work it always
        // pays itself.
        let op = PoiAttack::default();
        let mut oc = PopulationCache::new();
        for window in &filtered {
            oc.advance(&op, window).unwrap();
        }
        p.user_extractions() - op.user_extractions()
    };
    assert_eq!(
        probe.user_extractions(),
        full_standalone + subset_protected,
        "the subset campaign's original side must ride the shared session"
    );
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
        match_distance: geo::Meters::new(500.0),
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
