//! E12 — multi-campaign orchestration: N concurrent campaigns through the
//! shared-population `campaign::Orchestrator` vs N independent
//! `StreamingPublisher` sessions.
//!
//! The workload mixes two [`ScenarioPreset`] populations (commuters and a
//! sparse rural cohort merged into one stream) and four campaign shapes:
//!
//! * K full-population campaigns with identical attack configurations —
//!   the headline group: under the orchestrator their original-side
//!   per-user extraction is paid **once**, vs **K×** for independent
//!   sessions;
//! * one user-subset campaign (the commuter cohort) with the same attack
//!   configuration — is served its shards from the work store whenever
//!   the extraction grids agree;
//! * one campaign with its own matching distance — it joins the shared
//!   session and reads the group's candidate states, since extraction
//!   does not read the matching distance: only its matching is its own.
//!
//! A candidate state shared by several campaigns is refreshed once per
//! window; the report counts each refresh once (`candidate_refreshes`,
//! and the `strategy` audit), as it counts each session advance once.
//!
//! Per-campaign winner parity against the independent replay is asserted
//! for every release before any number is reported. The `bench_summary`
//! binary drives [`run`] and emits `BENCH_e12.json` next to e10/e11.

use crate::{Retained, Scale};
use campaign::{Campaign, CampaignId, Orchestrator};
use mobility::gen::ScenarioPreset;
use mobility::{Dataset, LocationRecord, ParticipantFilter, UserId, WindowedDataset};
use obs::Tally;
use privapi::attack::{PoiAttack, PoiAttackConfig};
use privapi::pipeline::{PrivApi, PrivApiConfig};
use privapi::streaming::{
    BaselineDelta, Session, StrategyCacheDelta, StreamingPublisher, WindowDelta, WorkStore,
};
use std::fmt;
use std::time::Instant;

/// Workload shape for one E12 run.
#[derive(Debug, Clone)]
pub struct E12Config {
    /// Label recorded in the report (`smoke`, `small`, `medium`, `full`).
    pub label: String,
    /// Total population size, split evenly between the commuter and the
    /// sparse-rural scenario presets.
    pub users: usize,
    /// Days of data (= windows).
    pub days: usize,
    /// Same-attack-configuration full-population campaigns (the shared
    /// group). The run adds one subset campaign and one custom-attack
    /// campaign on top.
    pub same_config_campaigns: usize,
}

impl E12Config {
    /// Tiny CI smoke shape: seconds end to end, still exercising sharing,
    /// derivation, the custom-attack path and per-release parity.
    pub fn smoke() -> Self {
        Self {
            label: "smoke".into(),
            users: 6,
            days: 3,
            same_config_campaigns: 3,
        }
    }

    /// The canonical population for `scale`. `Large` is bounded below the
    /// streaming population: the experiment's baseline replays the whole
    /// stream once per campaign (K + 2 times), so the O(active-users)
    /// claim itself is measured by E11 at the full `Scale::Large`
    /// population instead.
    pub fn from_scale(scale: Scale) -> Self {
        let (users, days, _) = scale.population();
        let (users, days) = crate::data::by_scale(
            scale,
            (users, days),
            (users, days),
            (users, days),
            (1_000, 6),
        );
        Self {
            label: format!("{scale:?}").to_lowercase(),
            users,
            days,
            same_config_campaigns: 4,
        }
    }
}

/// The merged two-preset population: first half commuters, second half
/// sparse-rural users re-keyed past the commuter ids, plus two
/// fixed-position *boundary beacons* (think roadside reference stations)
/// at opposite corners outside both presets' excursion range, reporting
/// a few fixes every day. The beacons pin the population bounding box
/// from day 0, so a user subset that includes them shares the
/// population's extraction grid on every window — which is exactly the
/// condition under which the orchestrator can *derive* subset shards
/// from the shared session instead of re-extracting them, the path this
/// experiment is built to measure. Deterministic per `(users, days)`.
pub fn mixed_population(users: usize, days: usize) -> Dataset {
    let commuters = users / 2 + users % 2;
    let rural = users - commuters;
    let mut records: Vec<LocationRecord> = ScenarioPreset::Commuter
        .generate(commuters, days, 0xE12)
        .dataset
        .iter_records()
        .copied()
        .collect();
    if rural > 0 {
        records.extend(
            ScenarioPreset::SparseRural
                .generate(rural, days, 0xE12 ^ 1)
                .dataset
                .iter_records()
                .map(|r| {
                    LocationRecord::new(UserId(r.user.0 + commuters as u64), r.time, r.point)
                }),
        );
    }
    // Boundary beacons: the sparse-rural preset roams ≤ 20 km (≈ 0.18°)
    // around the shared city centre, so ±0.35° lies strictly outside
    // every generated fix and the two corners bound the merged box.
    let centre = geo::GeoPoint::clamped(45.7578, 4.8320);
    for (slot, (dlat, dlon)) in [(-0.35, -0.35), (0.35, 0.35)].iter().enumerate() {
        let beacon = UserId((users + slot) as u64);
        let site = geo::GeoPoint::clamped(centre.latitude() + dlat, centre.longitude() + dlon);
        for day in 0..days as i64 {
            for i in 0..4i64 {
                records.push(LocationRecord::new(
                    beacon,
                    mobility::Timestamp::new(day * mobility::DAY_SECONDS + i * 3_600),
                    site,
                ));
            }
        }
    }
    Dataset::from_records(records)
}

/// Ids of the two boundary beacons appended by [`mixed_population`].
pub fn beacon_users(users: usize) -> [UserId; 2] {
    [UserId(users as u64), UserId(users as u64 + 1)]
}

/// Measured orchestrated-vs-independent numbers plus the invariants they
/// were taken under.
#[derive(Debug, Clone)]
pub struct E12Report {
    /// Workload label.
    pub label: String,
    /// Worker threads available.
    pub threads: usize,
    /// Population size (both presets).
    pub users: usize,
    /// Records in the merged population.
    pub records: usize,
    /// Day windows processed.
    pub windows: usize,
    /// Campaigns run (same-config group + subset + custom attack).
    pub campaigns: usize,
    /// Size of the same-attack-configuration full-population group.
    pub same_config_campaigns: usize,
    /// Shared original-side sessions the orchestrator maintained.
    pub shared_sessions: usize,
    /// Releases published by the orchestrator across all windows.
    pub releases: usize,
    /// Candidate-state refreshes across all windows: one per candidate,
    /// window and group of campaigns sharing their states.
    pub candidate_refreshes: usize,
    /// Wall time of the N independent streaming sessions, ms.
    pub independent_total_ms: f64,
    /// Wall time of the orchestrated run, ms.
    pub orchestrated_total_ms: f64,
    /// Per-user extraction passes of the independent replay (all probes).
    pub independent_user_extractions: usize,
    /// Per-user extraction passes of the orchestrated run (all probes).
    pub orchestrated_user_extractions: usize,
    /// Original-side per-user extraction cost of ONE population replay —
    /// what the shared group pays once under the orchestrator.
    pub original_side_user_extractions: usize,
    /// Original-side cost the independent same-config group paid (K×).
    pub independent_original_user_extractions: usize,
    /// Full-dataset extraction passes, independent replay.
    pub independent_extractions: usize,
    /// Full-dataset extraction passes, orchestrated run.
    pub orchestrated_extractions: usize,
    /// Original-side audit of the session advances: shared sessions once
    /// per window, private subset views once per campaign.
    pub sessions: Tally<WindowDelta>,
    /// Original-side audit summed per release (a shared session's delta
    /// counts once for every campaign reading it).
    pub streaming: Tally<WindowDelta>,
    /// Utility-baseline fold audit summed per release.
    pub baseline: Tally<BaselineDelta>,
    /// Protected-side audit summed per candidate-state refresh (a state
    /// shared by several campaigns counts once per window).
    pub strategy: StrategyCacheDelta,
    /// What the orchestrator's work store held after the last window.
    pub retained: Retained,
}

impl E12Report {
    /// End-to-end speedup of orchestration over independent sessions.
    pub fn total_speedup(&self) -> f64 {
        self.independent_total_ms / self.orchestrated_total_ms.max(1e-9)
    }

    /// How many times over the independent replay pays the shared group's
    /// original-side extraction (≈ the group size K; the orchestrator
    /// pays it once).
    pub fn original_side_ratio(&self) -> f64 {
        self.independent_original_user_extractions as f64
            / self.original_side_user_extractions.max(1) as f64
    }

    /// Work-store traffic of the orchestrated run, `(lookups, fills)`: the
    /// session advances' shard lookups plus the candidate-state refreshes'
    /// protected-side lookups.
    pub fn store(&self) -> (u64, u64) {
        let total = |field: &str, protected: usize| self.sessions.get(field) + protected as u64;
        (
            total("store_lookups", self.strategy.store_lookups),
            total("store_fills", self.strategy.store_fills),
        )
    }

    /// Renders the report as a JSON object (hand-rolled: the workspace
    /// has no JSON serializer dependency); the audit counters are nested
    /// under their instrument family.
    pub fn to_json(&self) -> String {
        let (lookups, fills) = self.store();
        format!(
            "{{\n  \"experiment\": \"e12_multi_campaign\",\n{}  \"scale\": \"{}\",\n  \
             \"threads\": {},\n  \"users\": {},\n  \"records\": {},\n  \"windows\": {},\n  \
             \"campaigns\": {},\n  \"same_config_campaigns\": {},\n  \
             \"shared_sessions\": {},\n  \"releases\": {},\n  \"candidate_refreshes\": {},\n  \
             \"independent_total_ms\": {:.3},\n  \"orchestrated_total_ms\": {:.3},\n  \
             \"total_speedup\": {:.3},\n  \"independent_user_extractions\": {},\n  \
             \"orchestrated_user_extractions\": {},\n  \
             \"original_side_user_extractions\": {},\n  \
             \"independent_original_user_extractions\": {},\n  \
             \"original_side_ratio\": {:.3},\n  \"independent_extractions\": {},\n  \
             \"orchestrated_extractions\": {},\n  \"sessions\": {{\n{}\n  }},\n{},\n{},\n{},\n  \
             \"store\": {{\n    \"lookups\": {lookups},\n    \"fills\": {fills}\n  }},\n{}\n}}\n",
            crate::host_json(),
            self.label,
            self.threads,
            self.users,
            self.records,
            self.windows,
            self.campaigns,
            self.same_config_campaigns,
            self.shared_sessions,
            self.releases,
            self.candidate_refreshes,
            self.independent_total_ms,
            self.orchestrated_total_ms,
            self.total_speedup(),
            self.independent_user_extractions,
            self.orchestrated_user_extractions,
            self.original_side_user_extractions,
            self.independent_original_user_extractions,
            self.original_side_ratio(),
            self.independent_extractions,
            self.orchestrated_extractions,
            crate::audit_json(&self.sessions, 2),
            crate::audit_json(&self.streaming, 1),
            crate::audit_json(&self.baseline, 1),
            crate::audit_json(&self.strategy, 1),
            self.retained.json(),
        )
    }
}

impl fmt::Display for E12Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E12 multi-campaign orchestration ({}, {} users, {} records, {} windows, \
             {} campaigns [{} same-config], {} threads)",
            self.label,
            self.users,
            self.records,
            self.windows,
            self.campaigns,
            self.same_config_campaigns,
            self.threads
        )?;
        let widths = [24, 16, 14, 9];
        writeln!(
            f,
            "{}",
            crate::row(
                &[
                    "path".into(),
                    "independent ms".into(),
                    "orchestrated ms".into(),
                    "speedup".into()
                ],
                &widths
            )
        )?;
        writeln!(
            f,
            "{}",
            crate::row(
                &[
                    "all campaigns".into(),
                    format!("{:.3}", self.independent_total_ms),
                    format!("{:.3}", self.orchestrated_total_ms),
                    format!("{:.2}x", self.total_speedup()),
                ],
                &widths
            )
        )?;
        writeln!(
            f,
            "per-user extractions: {} independent vs {} orchestrated; original side \
             {} -> {} ({:.1}x shared across the same-config group)",
            self.independent_user_extractions,
            self.orchestrated_user_extractions,
            self.independent_original_user_extractions,
            self.original_side_user_extractions,
            self.original_side_ratio()
        )?;
        let (lookups, fills) = self.store();
        writeln!(
            f,
            "full passes: {} independent vs {} orchestrated; {} shared sessions, \
             {} releases, {} candidate refreshes; work store {} lookups / {} fills",
            self.independent_extractions,
            self.orchestrated_extractions,
            self.shared_sessions,
            self.releases,
            self.candidate_refreshes,
            lookups,
            fills
        )?;
        writeln!(f, "sessions {}", crate::audit_line(&self.sessions))?;
        writeln!(f, "{}", crate::audit_line(&self.streaming))?;
        writeln!(f, "{}", crate::audit_line(&self.baseline))?;
        writeln!(f, "{}", crate::audit_line(&self.strategy))?;
        write!(f, "{}", self.retained)
    }
}

/// The campaign mix of one run: K same-config full-population campaigns,
/// one commuter-subset campaign, one custom-attack campaign.
fn campaign_mix(
    config: &E12Config,
    default_attack: &PoiAttack,
    custom_attack: &PoiAttack,
) -> Vec<(u64, ParticipantFilter, PoiAttack)> {
    // The subset: the commuter cohort plus the two boundary beacons —
    // with the beacons aboard, the subset's bounding box equals the
    // population's, so its original-side shards are served from the work
    // store instead of being re-extracted.
    let commuters = config.users / 2 + config.users % 2;
    let subset = ParticipantFilter::users(
        (0..commuters as u64)
            .map(UserId)
            .chain(beacon_users(config.users))
            .collect::<Vec<_>>(),
    );
    let mut mix: Vec<(u64, ParticipantFilter, PoiAttack)> = (0..config.same_config_campaigns)
        .map(|k| (k as u64, ParticipantFilter::All, default_attack.clone()))
        .collect();
    mix.push((100, subset, default_attack.clone()));
    mix.push((200, ParticipantFilter::All, custom_attack.clone()));
    mix
}

/// The custom attack parameters of the differing-config campaign.
fn custom_attack_config() -> PoiAttackConfig {
    PoiAttackConfig {
        match_distance: geo::Meters::new(400.0),
        ..PoiAttackConfig::default()
    }
}

/// Runs E12: replays the mixed-preset population through both deployment
/// models, asserting per-campaign winner parity on every release before
/// reporting any timing.
pub fn run(config: &E12Config) -> E12Report {
    let population = mixed_population(config.users, config.days);
    let windows = WindowedDataset::partition(&population);
    assert!(!windows.is_empty(), "population must span at least a day");
    let privacy = PrivApiConfig::default();

    // Independent model: one standalone streaming session per campaign,
    // each fed its own filtered window stream.
    let independent_default_probe = PoiAttack::default();
    let independent_custom_probe = PoiAttack::new(custom_attack_config());
    let mix = campaign_mix(
        config,
        &independent_default_probe,
        &independent_custom_probe,
    );
    let mut independent_total_ms = 0.0;
    let mut independent_releases: Vec<Vec<Option<privapi::streaming::PublishedWindow>>> =
        Vec::new();
    for (_, filter, attack) in &mix {
        let mut publisher =
            StreamingPublisher::from_privapi(PrivApi::new(privacy).with_attack(attack.clone()));
        let mut releases = Vec::with_capacity(windows.len());
        for window in &windows {
            match filter.filter_window(window) {
                Some(filtered) => {
                    let start = Instant::now();
                    let release = publisher
                        .publish_window(&filtered)
                        .expect("independent publish succeeds");
                    independent_total_ms += start.elapsed().as_secs_f64() * 1e3;
                    releases.push(Some(release));
                }
                None => releases.push(None),
            }
        }
        independent_releases.push(releases);
    }
    let independent_user_extractions = independent_default_probe.user_extractions()
        + independent_custom_probe.user_extractions();
    let independent_extractions =
        independent_default_probe.extractions() + independent_custom_probe.extractions();

    // The original-side cost of one population replay — the quantity the
    // same-config group shares under the orchestrator and pays K× when
    // independent.
    let original_probe = PoiAttack::default();
    let mut original = Session::new(original_probe.clone());
    let mut store = WorkStore::new();
    for window in &windows {
        original
            .advance(window, &mut store)
            .expect("ascending windows");
    }
    let original_side_user_extractions = original_probe.user_extractions();

    // Orchestrated model: one orchestrator running the same mix.
    let orchestrated_default_probe = PoiAttack::default();
    let orchestrated_custom_probe = PoiAttack::new(custom_attack_config());
    let mix = campaign_mix(
        config,
        &orchestrated_default_probe,
        &orchestrated_custom_probe,
    );
    let mut orchestrator = Orchestrator::new();
    for (id, filter, attack) in &mix {
        orchestrator
            .register(
                Campaign::new(*id, format!("c{id}"), privacy)
                    .with_filter(filter.clone())
                    .with_attack(attack.clone()),
            )
            .expect("distinct campaign ids");
    }
    let mut orchestrated_total_ms = 0.0;
    let mut releases = 0;
    let mut sessions = Tally::default();
    let mut streaming = Tally::default();
    let mut baseline = Tally::default();
    let mut strategy = StrategyCacheDelta::default();
    let mut candidate_refreshes = 0;
    let mut retained = Retained::default();
    let pool = PrivApi::new(privacy).pool().len();
    let mut prefix_trajectories = 0;
    for (w, window) in windows.iter().enumerate() {
        let start = Instant::now();
        let report = orchestrator.advance_day(window).expect("ascending days");
        orchestrated_total_ms += start.elapsed().as_secs_f64() * 1e3;
        // Shared sessions advance once per window whatever the number of
        // campaigns reading them; private sessions advance per campaign.
        let private = report
            .outcomes
            .iter()
            .filter_map(|(id, _)| report.release_of(*id))
            .filter(|release| !release.shared)
            .map(|release| &release.delta);
        for delta in report.sessions.iter().chain(private) {
            sessions.add(delta);
        }
        // Likewise each candidate state once per window, however many
        // campaigns read it.
        for candidate in &report.candidates {
            strategy += candidate.counts;
        }
        candidate_refreshes += report.candidates.len();
        for (c, (id, _, _)) in mix.iter().enumerate() {
            let orchestrated = report.release_of(CampaignId(*id));
            let independent = independent_releases[c][w].as_ref();
            match (orchestrated, independent) {
                (Some(a), Some(b)) => {
                    assert_eq!(
                        a.published.selection, b.published.selection,
                        "campaign {id} window {w}: orchestrated winners drifted"
                    );
                    assert_eq!(a.published.dataset, b.published.dataset);
                    releases += 1;
                    streaming.add(&a.delta);
                    baseline.add(&a.baseline);
                }
                (None, None) => {}
                (a, b) => panic!(
                    "campaign {id} window {w}: orchestrated {:?} vs independent {:?}",
                    a.map(|r| r.day),
                    b.map(|r| r.day)
                ),
            }
        }
        prefix_trajectories += window.dataset().trajectories().len();
        let candidates = report
            .outcomes
            .iter()
            .filter_map(|(id, _)| report.release_of(*id))
            .flat_map(|release| &release.published.selection.candidates);
        retained = Retained::of(orchestrator.store(), candidates, prefix_trajectories, pool);
    }
    let orchestrated_user_extractions = orchestrated_default_probe.user_extractions()
        + orchestrated_custom_probe.user_extractions();
    let orchestrated_extractions =
        orchestrated_default_probe.extractions() + orchestrated_custom_probe.extractions();

    E12Report {
        label: config.label.clone(),
        threads: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        users: config.users,
        records: population.record_count(),
        windows: windows.len(),
        campaigns: mix.len(),
        same_config_campaigns: config.same_config_campaigns,
        shared_sessions: orchestrator.shared_sessions(),
        releases,
        candidate_refreshes,
        independent_total_ms,
        orchestrated_total_ms,
        independent_user_extractions,
        orchestrated_user_extractions,
        original_side_user_extractions,
        independent_original_user_extractions: config.same_config_campaigns
            * original_side_user_extractions,
        independent_extractions,
        orchestrated_extractions,
        sessions,
        streaming,
        baseline,
        strategy,
        retained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_upholds_invariants_and_renders() {
        let report = run(&E12Config::smoke());
        assert_eq!(report.windows, 3);
        assert_eq!(report.campaigns, report.same_config_campaigns + 2);
        // One session: the custom attack differs only in its matching
        // distance, so it joins the default-attack group.
        assert_eq!(report.shared_sessions, 1);
        assert!(report.releases > 0);
        // Two groups refresh candidate states every window: the shared
        // session's campaigns together, and the subset.
        let pool = PrivApi::new(PrivApiConfig::default()).pool().len();
        assert_eq!(report.candidate_refreshes, pool * report.windows * 2);
        assert_eq!(report.strategy.candidates, report.candidate_refreshes);
        // The orchestrated run must beat the independent replay on
        // per-user extraction work: the same-config group shares one
        // original-side pass instead of K.
        assert!(
            report.orchestrated_user_extractions < report.independent_user_extractions,
            "orchestrated {} must undercut independent {}",
            report.orchestrated_user_extractions,
            report.independent_user_extractions
        );
        // The saving is at least (K-1)× the shared original-side cost —
        // subset derivation only widens the gap.
        assert!(
            report.independent_user_extractions - report.orchestrated_user_extractions
                >= (report.same_config_campaigns - 1) * report.original_side_user_extractions,
            "{report:?}"
        );
        assert!(report.original_side_ratio() >= report.same_config_campaigns as f64 - 1e-9);
        // The beacon-pinned subset actually exercises serving: its
        // shards come from the work store, never re-extracted.
        assert!(
            report.streaming.get("users_derived") > 0,
            "the subset campaign must be served shards from the store"
        );
        // No full passes anywhere: every campaign stays on the delta
        // paths (the default pool is fully local).
        assert_eq!(report.independent_extractions, 0);
        assert_eq!(report.orchestrated_extractions, 0);
        // The subset's candidate states are served the shared group's
        // protected side from the store.
        assert!(report.strategy.users_donated > 0, "{report:?}");
        assert!(report.strategy.shards_donated > 0, "{report:?}");
        // Every fill answers a miss; the rest of the lookups were served.
        let (lookups, fills) = report.store();
        assert!(0 < fills && fills < lookups, "{report:?}");
        // The beacon-pinned bounding box never moves, so no baseline fold
        // is ever discarded — every window folds in place.
        assert_eq!(report.baseline.get("rebuilt"), 0, "{report:?}");
        assert!(report.baseline.get("cells_updated") > 0, "{report:?}");
        // Later windows fold only what each user appended, on both sides;
        // the clean stream never rejects a memo.
        assert!(report.sessions.get("shards_appended") > 0, "{report:?}");
        assert_eq!(report.sessions.get("shards_fallback"), 0, "{report:?}");
        assert!(report.strategy.shards_appended > 0, "{report:?}");
        assert!(report.strategy.trajectories_reused > 0, "{report:?}");
        assert_eq!(report.strategy.shards_fallback, 0, "{report:?}");
        let json = obs::json::parse(&report.to_json()).expect("the report is JSON");
        assert_eq!(
            json.get("experiment").and_then(|v| v.as_str()),
            Some("e12_multi_campaign")
        );
        for key in [
            "independent_total_ms",
            "orchestrated_total_ms",
            "original_side_ratio",
            "independent_original_user_extractions",
            "candidate_refreshes",
        ] {
            assert!(json.get(key).is_some(), "missing {key} in {json:?}");
        }
        crate::assert_reported(json.get("sessions").expect("sessions"), &report.sessions);
        crate::assert_reported(&json, &report.streaming);
        crate::assert_reported(&json, &report.baseline);
        crate::assert_reported(&json, &report.strategy);
        crate::assert_retained(&json, &report.retained);
        let store = json.get("store").expect("store rollup");
        let read = |key: &str| store.get(key).and_then(|v| v.as_u64());
        assert_eq!(
            (read("lookups"), read("fills")),
            (Some(lookups), Some(fills))
        );
        let text = report.to_string();
        assert!(text.contains("all campaigns"));
        assert!(text.contains("per-user extractions:"));
        assert!(text.contains("sessions streaming: users_refreshed="));
        assert!(text.contains("strategy: candidates="));
        assert!(text.contains("retained: entries="));
    }

    #[test]
    fn config_constructors_cover_scales() {
        assert_eq!(E12Config::smoke().users, 6);
        let medium = E12Config::from_scale(Scale::Medium);
        assert_eq!(medium.label, "medium");
        assert_eq!(medium.users, 80);
        assert_eq!(medium.days, 10);
        assert_eq!(medium.same_config_campaigns, 4);
    }

    #[test]
    fn mixed_population_blends_two_presets_deterministically() {
        let a = mixed_population(6, 2);
        assert_eq!(a, mixed_population(6, 2));
        // Both cohorts present — commuter ids 0..3, rural ids 3..6 (rural
        // users may drop sparse days but keep day 0) — plus two boundary
        // beacons past the population ids.
        assert_eq!(a.user_count(), 8);
        assert_eq!(beacon_users(6), [UserId(6), UserId(7)]);
        let commuter_records = a.iter_records().filter(|r| r.user.0 < 3).count();
        let rural_records = a
            .iter_records()
            .filter(|r| (3..6).contains(&r.user.0))
            .count();
        assert!(commuter_records > 0 && rural_records > 0);
        // Commuters sample faster and participate more.
        assert!(commuter_records > rural_records);
        // The beacons pin the bounding box: dropping them shrinks it.
        let beacons = ParticipantFilter::users(beacon_users(6));
        assert_eq!(
            a.bounding_box(),
            beacons.filter_dataset(&a).bounding_box(),
            "the two beacons must bound the merged population"
        );
    }
}
