//! The orchestrator's governing property: every campaign's per-window
//! winners are **byte-identical** to running that campaign alone through
//! a [`privapi::streaming::StreamingPublisher`] fed its filtered window
//! stream — across generator seeds, sparse participation and subset
//! filters.

use campaign::{Campaign, CampaignId, CampaignOutcome, Orchestrator};
use geo::GeoPoint;
use mobility::gen::{thin_participation_salted, CityModel, PopulationConfig};
use mobility::{
    Dataset, LocationRecord, ParticipantFilter, Timestamp, UserId, WindowedDataset, DAY_SECONDS,
};
use privapi::attack::{PoiAttack, PoiAttackConfig};
use privapi::pipeline::{PrivApi, PrivApiConfig};
use privapi::pool::StrategyPool;
use privapi::streaming::StreamingPublisher;
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// For each registered campaign — a full-population one, a
    /// user-subset one, and a full-population one at a different
    /// selection seed (same attack configuration, so all three lean on
    /// one shared original-side session) — the orchestrated releases
    /// must equal the standalone streaming releases bit for bit, day by
    /// day, including which days are skipped (filter emptied the window)
    /// and which days fail (no feasible strategy on the prefix).
    #[test]
    fn orchestrated_winners_match_standalone_streaming(
        seed in any::<u64>(),
        users in 2usize..5,
        days in 2usize..4,
    ) {
        let data = CityModel::builder()
            .seed(seed ^ 0xE12)
            .build()
            .generate_population(&PopulationConfig {
                users,
                days,
                sampling_interval_s: 300,
                gps_noise_m: 5.0,
                leisure_probability: 0.3,
            });
        // Sparse participation: some windows genuinely miss users, so the
        // reuse and derivation paths execute.
        let data = thin_participation_salted(&data, 50, seed);
        // Two day-0 beacons pin user 0 (in the subset) to the population's
        // day-0 corners, so the subset campaign is served its day-0 shards
        // from the store. On the last day a wanderer outside the subset
        // moves the population grid away from the subset's: the subset
        // must then extract its users itself — amending the shards it was
        // served, whose extraction memo came with them.
        let day0 = WindowedDataset::partition(&data).windows()[0]
            .dataset()
            .bounding_box()
            .unwrap();
        let mut records: Vec<LocationRecord> = data.iter_records().copied().collect();
        for (i, corner) in [day0.min(), day0.max()].into_iter().enumerate() {
            records.push(LocationRecord::new(UserId(0), Timestamp::new(i as i64), corner));
        }
        let far = GeoPoint::new(day0.max().latitude() + 0.3, day0.max().longitude() + 0.3)
            .unwrap();
        let last_day = (days as i64 - 1) * DAY_SECONDS;
        for i in 0..12 {
            records.push(LocationRecord::new(
                UserId(1_000),
                Timestamp::new(last_day + 3_600 + 300 * i),
                far,
            ));
        }
        let data = Dataset::from_records(records);
        let windows = WindowedDataset::partition(&data);
        let subset = ParticipantFilter::users(
            (0..users as u64 / 2 + 1).map(UserId).collect::<Vec<_>>(),
        );
        let other_seed = PrivApiConfig {
            seed: seed ^ 0x5EED,
            ..PrivApiConfig::default()
        };
        // Campaign 4 is fingerprint-identical to campaign 1 (same pool,
        // seed, attack and objective on the same session), so it reads
        // campaign 1's candidate states, refreshed once per window — its
        // releases must STILL be bitwise-equal to its own standalone
        // replay.
        let campaigns: Vec<(u64, PrivApiConfig, ParticipantFilter)> = vec![
            (1, PrivApiConfig::default(), ParticipantFilter::All),
            (2, PrivApiConfig::default(), subset.clone()),
            (3, other_seed, ParticipantFilter::All),
            (4, PrivApiConfig::default(), ParticipantFilter::All),
        ];

        let mut orchestrator = Orchestrator::new();
        for (id, config, filter) in &campaigns {
            orchestrator
                .register(
                    Campaign::new(*id, format!("c{id}"), *config)
                        .with_filter(filter.clone()),
                )
                .unwrap();
        }
        prop_assert_eq!(orchestrator.shared_sessions(), 1,
            "same attack configuration must share one session");

        let mut reports = Vec::new();
        for window in &windows {
            reports.push(orchestrator.advance_day(window).unwrap());
        }

        // One refresh per candidate and window for campaigns 1 and 4
        // together, one for campaign 3 (its own seed) and one for the
        // subset whenever it evaluated; the replica reports the audit of
        // the states it shares.
        let pool = StrategyPool::default_pool().len();
        for report in &reports {
            let subset = report
                .outcomes
                .iter()
                .any(|(id, o)| *id == CampaignId(2) && !matches!(o, CampaignOutcome::Skipped(_)));
            prop_assert_eq!(report.candidates.len(), pool * (2 + usize::from(subset)),
                "day {}", report.day);
            if let (Some(leader), Some(replica)) =
                (report.release_of(CampaignId(1)), report.release_of(CampaignId(4)))
            {
                prop_assert_eq!(&replica.strategies, &leader.strategies);
            }
        }

        // The user-subset campaign: day 0 is served; every refresh runs
        // on a known path (no fallback on a fault-free stream); the first
        // later refresh it pays itself amends the served shards of the
        // users it already had (their memo came with them) unless its own
        // grid moved; and the wanderer's day is never served.
        let subset_releases: Vec<_> = reports
            .iter()
            .filter_map(|r| r.release_of(CampaignId(2)))
            .collect();
        if let Some(first) = reports[0].release_of(CampaignId(2)) {
            prop_assert!(first.delta.users_derived > 0,
                "day 0: the subset must derive from the shared session");
        }
        for release in &subset_releases {
            let d = &release.delta;
            prop_assert_eq!(
                d.users_refreshed,
                d.shards_appended + d.shards_rebuilt + d.shards_fallback
            );
            prop_assert_eq!(d.shards_fallback, 0, "day {}", release.day);
        }
        if let Some(first_own) = subset_releases
            .iter()
            .find(|r| r.day > windows.days()[0] && r.delta.users_refreshed > 0)
        {
            let d = &first_own.delta;
            prop_assert_eq!(d.users_derived, 0);
            if d.grid_rebuilt {
                prop_assert_eq!(d.shards_rebuilt, d.users_refreshed,
                    "day {}: a moved grid invalidates every memo", first_own.day);
            } else {
                // The refreshed users are the day's subset users; those
                // the subset already had amend, newcomers extract afresh.
                let seen: std::collections::BTreeSet<UserId> = windows
                    .iter()
                    .take_while(|w| w.day() < first_own.day)
                    .filter_map(|w| subset.filter_window(w))
                    .flat_map(|w| w.users())
                    .collect();
                let today = windows
                    .iter()
                    .find(|w| w.day() == first_own.day)
                    .and_then(|w| subset.filter_window(w))
                    .expect("the subset released this day")
                    .users();
                let known = today.iter().filter(|u| seen.contains(u)).count();
                prop_assert_eq!(d.users_refreshed, today.len());
                prop_assert_eq!(
                    (d.shards_appended, d.shards_rebuilt), (known, today.len() - known),
                    "day {}: served shards keep their memo to amend", first_own.day
                );
            }
        }
        if let Some(last) = reports.last().and_then(|r| r.release_of(CampaignId(2))) {
            prop_assert_eq!(last.delta.users_derived, 0,
                "the wanderer moved the population grid away from the subset's");
        }

        for (id, config, filter) in &campaigns {
            let mut standalone =
                StreamingPublisher::from_privapi(PrivApi::new(*config));
            for (window, report) in windows.iter().zip(&reports) {
                let outcome = report
                    .outcomes
                    .iter()
                    .find(|(c, _)| *c == CampaignId(*id))
                    .map(|(_, o)| o)
                    .expect("every campaign reports every day");
                match filter.filter_window(window) {
                    None => {
                        prop_assert!(
                            matches!(outcome, CampaignOutcome::Skipped(_)),
                            "campaign {} day {}: empty filtered window must skip, got {:?}",
                            id, window.day(), outcome
                        );
                    }
                    Some(filtered) => match (outcome, standalone.publish_window(&filtered)) {
                        (CampaignOutcome::Published(release), Ok(expected)) => {
                            prop_assert_eq!(
                                &release.published.selection, &expected.published.selection,
                                "campaign {} day {}", id, window.day()
                            );
                            prop_assert_eq!(
                                &release.published.strategy, &expected.published.strategy,
                                "campaign {} day {}", id, window.day()
                            );
                            prop_assert_eq!(
                                &release.published.privacy, &expected.published.privacy,
                                "campaign {} day {}", id, window.day()
                            );
                            prop_assert_eq!(
                                &release.published.dataset, &expected.published.dataset,
                                "campaign {} day {}", id, window.day()
                            );
                            prop_assert_eq!(release.day, window.day());
                        }
                        (CampaignOutcome::Failed(a), Err(b)) => {
                            prop_assert_eq!(
                                format!("{a}"), format!("{b}"),
                                "campaign {} day {}: both paths must fail alike",
                                id, window.day()
                            );
                        }
                        (outcome, expected) => {
                            return Err(TestCaseError::fail(format!(
                                "campaign {} day {}: orchestrated {outcome:?} vs \
                                 standalone {expected:?} disagree",
                                id,
                                window.day()
                            )));
                        }
                    },
                }
            }
        }
    }

    /// Random mixes of campaigns that differ in privacy floor, matching
    /// distance, extraction parameters, start day and subset filter, with
    /// the first member of a group retired mid-stream: every campaign still
    /// releases exactly what its own standalone publisher does, and every
    /// group of campaigns sharing candidate states — one session, seed and
    /// objective — refreshes each of them once per window, not once per
    /// campaign.
    #[test]
    fn random_campaign_mixes_refresh_once_and_match_standalone(
        seed in any::<u64>(),
        users in 2usize..4,
        leaders in any::<u64>(),
        others in prop::collection::vec(any::<u64>(), 1..4),
        retire_at in 1usize..3,
    ) {
        let data = CityModel::builder()
            .seed(seed ^ 0x313)
            .build()
            .generate_population(&PopulationConfig {
                users,
                days: 3,
                sampling_interval_s: 300,
                gps_noise_m: 5.0,
                leisure_probability: 0.3,
            });
        let windows = WindowedDataset::partition(&thin_participation_salted(&data, 70, seed));
        let days = windows.days();
        if days.len() <= retire_at {
            return Ok(());
        }
        let subset = ParticipantFilter::users(
            (0..users as u64 / 2 + 1).map(UserId).collect::<Vec<_>>(),
        );
        // Two full-population campaigns with the default extraction lead
        // the mix: one group, whatever else they differ in.
        let mut mix: Vec<MixedCampaign> = [leaders, leaders >> 8]
            .iter()
            .map(|bits| bits & 0b11)
            .chain(others.iter().copied())
            .enumerate()
            .map(|(id, bits)| MixedCampaign::of(id as u64, bits, days[1], &subset))
            .collect();
        let mut orchestrator = Orchestrator::new();
        for campaign in &mix {
            orchestrator.register(campaign.campaign()).unwrap();
        }
        let pool = StrategyPool::default_pool().len();
        let mut reports = Vec::new();
        for (w, window) in windows.iter().enumerate() {
            if w == retire_at {
                orchestrator.retire(CampaignId(0)).unwrap();
                mix[0].retired_from = Some(window.day());
            }
            let report = orchestrator.advance_day(window).unwrap();
            // The groups that evaluated today: one per session with a
            // started member, one per private view that did not skip.
            let live = mix.iter().filter(|c| c.observes(window.day()));
            let sessions: BTreeSet<(i64, Option<i64>)> = live
                .filter(|c| c.filter.is_all())
                .map(|c| (c.attack.min_poi_dwell_s, c.start))
                .collect();
            let private = mix
                .iter()
                .filter(|c| !c.filter.is_all())
                .filter(|c| report.outcomes.iter().any(|(id, o)| {
                    *id == CampaignId(c.id) && !matches!(o, CampaignOutcome::Skipped(_))
                }))
                .count();
            prop_assert_eq!(
                report.candidates.len(),
                pool * (sessions.len() + private),
                "day {}: each shared state refreshes once", window.day()
            );
            reports.push(report);
        }
        for campaign in &mix {
            let mut standalone = StreamingPublisher::from_privapi(
                PrivApi::new(campaign.config)
                    .with_attack(PoiAttack::new(campaign.attack.clone())),
            );
            for (window, report) in windows.iter().zip(&reports) {
                let outcome = &report
                    .outcomes
                    .iter()
                    .find(|(id, _)| *id == CampaignId(campaign.id))
                    .expect("every campaign reports every day")
                    .1;
                let at = format!("campaign {} day {}", campaign.id, window.day());
                let filtered = campaign.filter.filter_window(window);
                match (campaign.observes(window.day()), filtered) {
                    (true, Some(filtered)) => {
                        match (outcome, standalone.publish_window(&filtered)) {
                            (CampaignOutcome::Published(release), Ok(expected)) => {
                                prop_assert_eq!(
                                    &release.published.selection,
                                    &expected.published.selection,
                                    "{}", at
                                );
                                prop_assert_eq!(
                                    &release.published.privacy,
                                    &expected.published.privacy,
                                    "{}", at
                                );
                                prop_assert_eq!(
                                    &release.published.dataset,
                                    &expected.published.dataset,
                                    "{}", at
                                );
                            }
                            (CampaignOutcome::Failed(a), Err(b)) => {
                                prop_assert_eq!(format!("{a}"), format!("{b}"), "{}", at);
                            }
                            (outcome, expected) => {
                                return Err(TestCaseError::fail(format!(
                                    "{at}: orchestrated {outcome:?} vs standalone {expected:?}"
                                )));
                            }
                        }
                    }
                    _ => prop_assert!(matches!(outcome, CampaignOutcome::Skipped(_)), "{}", at),
                }
            }
        }
    }

    /// Work-store entries live exactly as long as some session or
    /// campaign holds them, whatever the retire schedule: after every day
    /// and every retirement no live entry is referenced by the store
    /// alone, and once every campaign has retired the store is empty.
    #[test]
    fn store_entries_live_exactly_as_long_as_their_holders(
        seed in any::<u64>(),
        retire_after in prop::collection::vec(0usize..4, 4..5),
    ) {
        let data = CityModel::builder()
            .seed(seed ^ 0x570)
            .build()
            .generate_population(&PopulationConfig {
                users: 4,
                days: 3,
                sampling_interval_s: 600,
                gps_noise_m: 5.0,
                leisure_probability: 0.3,
            });
        let windows = WindowedDataset::partition(&thin_participation_salted(&data, 60, seed));
        let config = PrivApiConfig::default();
        let campaigns = [
            Campaign::new(0, "full", config),
            Campaign::new(1, "replica", config),
            Campaign::new(2, "subset", config)
                .with_filter(ParticipantFilter::users([UserId(0), UserId(1)])),
            Campaign::new(3, "matching", config).with_attack(PoiAttack::new(PoiAttackConfig {
                match_distance: geo::Meters::new(400.0),
                ..PoiAttackConfig::default()
            })),
        ];
        let mut orchestrator = Orchestrator::new();
        for campaign in campaigns {
            orchestrator.register(campaign).unwrap();
        }
        for (day, window) in windows.iter().enumerate() {
            let published = orchestrator.advance_day(window).unwrap().published().count();
            prop_assert_eq!(orchestrator.store().unreferenced(), 0, "day {}", day);
            if published > 0 {
                prop_assert!(!orchestrator.store().is_empty(), "day {}: nothing stored", day);
            }
            for (id, after) in retire_after.iter().enumerate() {
                if *after == day {
                    orchestrator.retire(CampaignId(id as u64)).unwrap();
                    prop_assert_eq!(orchestrator.store().unreferenced(), 0,
                        "day {}: campaign {} retired", day, id);
                }
            }
        }
        for id in orchestrator.registry().active_ids() {
            orchestrator.retire(id).unwrap();
        }
        prop_assert!(orchestrator.store().is_empty(),
            "{} entries outlived every campaign", orchestrator.store().len());
    }
}

/// One campaign of a random mix, decoded from a few bits: the privacy
/// floor, the matching distance, the extraction parameters, the start day
/// and the participant filter.
struct MixedCampaign {
    id: u64,
    config: PrivApiConfig,
    attack: PoiAttackConfig,
    start: Option<i64>,
    filter: ParticipantFilter,
    /// The day from which the campaign is retired.
    retired_from: Option<i64>,
}

impl MixedCampaign {
    fn of(id: u64, bits: u64, later_day: i64, subset: &ParticipantFilter) -> Self {
        let bit = |i: u32| bits >> i & 1 == 1;
        Self {
            id,
            config: PrivApiConfig {
                privacy_floor: [0.25, 0.5][usize::from(bit(0))],
                ..PrivApiConfig::default()
            },
            attack: PoiAttackConfig {
                match_distance: geo::Meters::new(if bit(1) { 400.0 } else { 350.0 }),
                min_poi_dwell_s: if bit(2) { 30 * 60 } else { 45 * 60 },
                ..PoiAttackConfig::default()
            },
            start: bit(3).then_some(later_day),
            filter: if bit(4) {
                subset.clone()
            } else {
                ParticipantFilter::All
            },
            retired_from: None,
        }
    }

    fn campaign(&self) -> Campaign {
        let campaign = Campaign::new(self.id, format!("c{}", self.id), self.config)
            .with_attack(PoiAttack::new(self.attack.clone()))
            .with_filter(self.filter.clone());
        match self.start {
            Some(day) => campaign.with_start_day(day),
            None => campaign,
        }
    }

    /// Whether the campaign observes `day`: started and not retired.
    fn observes(&self, day: i64) -> bool {
        self.start.is_none_or(|s| s <= day) && self.retired_from.is_none_or(|r| day < r)
    }
}
