//! Federated release tests: device-local anonymization with
//! byte-for-byte central parity under hostile fleets (experiment E15).
//!
//! **Invariant.** For every `UserLocal` strategy, the release assembled
//! from per-device protected uploads is **byte-identical** to the central
//! release of the same windowed raw prefix
//! ([`privapi::federated::central_release`] under the final broadcast
//! config) — network chaos, participation thinning, dropouts and config
//! upgrade waves change retries, re-uploads and audit counters, never the
//! released bytes. When parity *cannot* hold — a device uploading under an
//! obsolete config version, or a poisoning adversary fabricating fixes —
//! the offending records are quarantined and the divergence is **exactly
//! accounted** at all three layers: the collect-layer
//! [`FederationDelta`], the session-layer
//! [`privapi::federated::SessionTotals`], and the campaign-layer
//! [`DayReport::degraded`] flag. Stale or poisoned records never reach a
//! published window unflagged.

use crowdsense::apisense::campaigns::CampaignGateway;
use crowdsense::apisense::federated::{run_federated_fleet, FederatedFleetConfig};
use crowdsense::apisense::hive::TaskId;
use crowdsense::campaign::{Campaign, CampaignError};
use crowdsense::mobility::UserId;
use crowdsense::privapi::federated::{FederationPolicy, StrategySpec};
use crowdsense::privapi::pipeline::PrivApiConfig;
use crowdsense::privapi::pool::StrategyPool;
use crowdsense::privapi::strategy::{AnonymizationStrategy, StrategyInfo};
use crowdsense::simnet::fault::Crash;
use crowdsense::simnet::{FaultPlan, NodeId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Every broadcastable mechanism, spanning all `UserLocality` shapes the
/// federation contract admits (including grid-anchored cloaking).
const ALL_SPECS: [StrategySpec; 6] = [
    StrategySpec::SpeedSmoothing { epsilon_m: 100.0 },
    StrategySpec::GeoIndistinguishability { epsilon: 0.01 },
    StrategySpec::SpatialCloaking { cell_m: 250.0 },
    StrategySpec::GaussianPerturbation { sigma_m: 50.0 },
    StrategySpec::TemporalDownsampling { window_s: 600 },
    StrategySpec::Identity,
];

/// The headline invariant, stated deterministically for every mechanism
/// family: a fault-free federated fleet reassembles the central release
/// byte for byte, while uplinking raw data for the calibration cohort
/// only.
#[test]
fn federated_release_matches_central_for_every_strategy() {
    for (i, &spec) in ALL_SPECS.iter().enumerate() {
        let mut config = FederatedFleetConfig::small(41 + i as u64);
        config.spec = spec;
        let outcome = run_federated_fleet(&config);
        assert!(
            outcome.is_clean(),
            "{spec:?}: fault-free deltas must be clean: {:?}",
            outcome.deltas
        );
        assert!(
            outcome.parity(),
            "{spec:?}: federated release must equal the central release"
        );
        assert!(outcome.release.record_count() > 0, "{spec:?}: non-trivial");
        // Raw exposure shrinks to the cohort; the protected lane and the
        // config broadcast carry the rest.
        assert!(outcome.raw_bytes_uplinked < outcome.central_raw_bytes);
        assert!(outcome.protected_bytes_uplinked > 0);
        assert!(outcome.config_bytes_broadcast > 0);
        assert_eq!(outcome.session_totals.stale_records, 0);
        assert_eq!(outcome.session_totals.implausible_records, 0);
    }
}

/// Grid-anchor broadcast regression: a cloaking device whose *local* view
/// of the bounding box is arbitrarily drifted (each device only ever sees
/// its own trajectory) still cloaks onto the campaign grid, because the
/// quantized anchor rides in the broadcast config instead of being
/// re-derived locally. Byte parity over the anchored grid is exactly the
/// property that breaks if the anchor is re-derived per device.
#[test]
fn broadcast_grid_anchor_pins_cloaking_to_the_campaign_grid() {
    let mut config = FederatedFleetConfig::small(43);
    config.spec = StrategySpec::SpatialCloaking { cell_m: 250.0 };
    let outcome = run_federated_fleet(&config);
    assert!(outcome.parity(), "anchored cloaking must match central");
    assert!(
        outcome.final_config.grid_anchor.is_some(),
        "cloaking configs must carry the quantized anchor"
    );
    // The anchor is the *fleet* box, not any single device's: with more
    // than one user the two differ, so parity here certifies the
    // broadcast anchor actually won over the device-local view.
    assert!(outcome.cohort.len() < 6, "cohort is a strict subset");
}

/// Scenario: stale-config device. One device is deaf to config frames
/// across a version upgrade, keeps uploading under the obsolete version,
/// and must be quarantined with exact counters — then converge back to
/// parity once the retransmitted config finally lands.
#[test]
fn stale_config_uploads_quarantine_then_converge() {
    let mut config = FederatedFleetConfig::small(47);
    // Count-preserving mechanisms on both sides of the upgrade, so the
    // audit counters (which count *protected* records) can be asserted
    // against the raw oracle exactly.
    config.spec = StrategySpec::Identity;
    // Upgrade right after the day-0 close; device 3 cannot hear config
    // frames from just before the upgrade until well into day 1, so its
    // day-1 upload goes out under v1.
    config.upgrade_at_close = Some((0, StrategySpec::GaussianPerturbation { sigma_m: 50.0 }));
    config.deaf = vec![(3, 100_000, 176_000)];
    let outcome = run_federated_fleet(&config);

    assert_eq!(outcome.final_config.version, 2);
    let day1 = &outcome.deltas[1];
    assert_eq!(day1.config_version, 2);
    // Exact accounting: exactly one stale batch (device 3's v1 day-1
    // upload), carrying exactly that device's day-1 records.
    let stale_day1_records = outcome.baseline.windows()[1]
        .dataset()
        .records_of(UserId(3))
        .len() as u64;
    assert_eq!(day1.stale_batches, 1);
    assert_eq!(day1.stale_devices, 1);
    assert_eq!(day1.stale_records, stale_day1_records);
    // The upgrade invalidated everyone's day-0 uploads: the whole fleet
    // re-uploads day 0 under v2 before the day-1 close.
    let day0_records = outcome.baseline.windows()[0].record_count() as u64;
    assert_eq!(day1.reuploaded_records, day0_records);
    assert_eq!(day1.straggler_devices, 0, "the deaf device caught up");
    // Session layer agrees, and the stale user is flagged by name.
    assert_eq!(outcome.session_totals.stale_records, stale_day1_records);
    assert_eq!(
        outcome.stale_users,
        BTreeSet::from([UserId(3)]),
        "exactly the deaf device's user is flagged"
    );
    // Convergence: after the catch-up, the release is byte-identical to
    // the central release under v2 — stale data never leaked into it.
    assert!(outcome.parity(), "post-upgrade release must reach parity");
}

/// Scenario: dropout mid-window. A device crashes before it can upload
/// day 0 and restarts mid-day-1: the day-0 window publishes short (the
/// straggler is counted), the catch-up upload is accounted as a re-upload,
/// and the final release still reaches full parity.
#[test]
fn dropout_device_catches_up_to_full_parity() {
    let mut config = FederatedFleetConfig::small(53);
    // Count-preserving mechanism: the per-window protected-record counts
    // can then be asserted against the raw oracle exactly.
    config.spec = StrategySpec::GaussianPerturbation { sigma_m: 50.0 };
    // Device index 2 → NodeId(3): the hive is node 0, devices follow in
    // user order.
    config.fleet.faults = FaultPlan::none().with_crash(Crash {
        node: NodeId(3),
        at_ms: 40_000,
        restart_ms: 120_000,
    });
    let outcome = run_federated_fleet(&config);

    let day0_device_records = outcome.baseline.windows()[0]
        .dataset()
        .records_of(UserId(2))
        .len() as u64;
    let day0_total = outcome.baseline.windows()[0].record_count() as u64;
    // Day 0 closes without the crashed device, visibly degraded.
    assert_eq!(outcome.deltas[0].straggler_devices, 1);
    assert_eq!(
        outcome.deltas[0].protected_records,
        day0_total - day0_device_records
    );
    assert!(!outcome.deltas[0].is_clean());
    // Day 1 absorbs the catch-up as an exact re-upload.
    assert_eq!(outcome.deltas[1].reuploaded_records, day0_device_records);
    assert_eq!(outcome.deltas[1].straggler_devices, 0);
    assert_eq!(outcome.deltas[1].stale_batches, 0);
    // Nothing was lost: the final release equals the full central one.
    assert!(outcome.parity(), "the dropout must only delay, never lose");
}

/// Scenario: mixed-version fleet (upgrade wave). A config upgrade between
/// closes makes every device re-anonymize and re-upload its history; the
/// wave is fully accounted as re-uploads (no staleness — devices converge
/// before finalizing new days) and ends in parity under the new version.
#[test]
fn upgrade_wave_reuploads_history_and_converges() {
    let mut config = FederatedFleetConfig::small(59);
    config.upgrade_at_close = Some((0, StrategySpec::TemporalDownsampling { window_s: 600 }));
    let outcome = run_federated_fleet(&config);

    assert_eq!(outcome.final_config.version, 2);
    assert_eq!(
        outcome.final_config.spec,
        StrategySpec::TemporalDownsampling { window_s: 600 }
    );
    // Day 0 published under v1, clean.
    assert_eq!(outcome.deltas[0].config_version, 1);
    assert!(outcome.deltas[0].is_clean());
    // Day 1 carries the wave: everyone's day 0 re-uploaded under v2,
    // nobody stale, nobody straggling.
    let day0_total = outcome.baseline.windows()[0].record_count() as u64;
    assert_eq!(outcome.deltas[1].reuploaded_records, day0_total);
    assert_eq!(outcome.deltas[1].stale_records, 0);
    assert_eq!(outcome.deltas[1].straggler_devices, 0);
    assert!(outcome.stale_users.is_empty());
    assert!(outcome.parity(), "the wave must converge to v2 parity");
}

/// Scenario: poisoning adversary. A device substitutes fabricated
/// far-away fixes for its protected output. The plausibility gate rejects
/// every batch whole, the device is flagged at all three layers, and the
/// release equals the central release over the *honest* sub-fleet — the
/// poison steers nothing.
#[test]
fn poisoned_device_is_rejected_and_counted_at_every_layer() {
    let mut config = FederatedFleetConfig::small(61);
    config.poisoned = vec![4];
    let outcome = run_federated_fleet(&config);

    // Collect layer: every close saw the rejection.
    for delta in &outcome.deltas {
        assert_eq!(delta.poisoned_devices, 1, "flagged at every close");
        assert!(
            delta.straggler_devices >= 1,
            "a poisoned device never validly reports"
        );
    }
    let rejected: u64 = outcome.deltas.iter().map(|d| d.implausible_records).sum();
    assert!(rejected > 0, "the fabricated fixes were rejected");
    // Session layer: the same count, exactly.
    assert_eq!(outcome.session_totals.implausible_records, rejected);
    assert_eq!(outcome.poisoned_devices, BTreeSet::from([4]));
    // Release layer: byte-identical to the honest central counterfactual,
    // and *not* to the full one — the device is excluded, not blended.
    let honest = outcome.central_excluding(&BTreeSet::from([UserId(4)]));
    assert_eq!(outcome.release, honest, "poison must steer nothing");
    assert!(!outcome.parity(), "the poisoned user's data is missing");
    // No fabricated coordinate ever reached a published window.
    for window in &outcome.windows {
        assert!(
            window.dataset().records_of(UserId(4)).is_empty(),
            "day {}: poisoned records must never publish",
            window.day()
        );
    }
}

/// Satellite: chaos-compose regression. The full federated pipeline —
/// config broadcast, device-local anonymization, protected upload,
/// version checks — under two of the seeded `FaultPlan::chaos` schedules
/// (burst loss, duplication, reordering) plus a mid-day crash/restart.
/// The faults must actually injure the network, and parity must hold
/// anyway.
#[test]
fn federated_pipeline_survives_seeded_chaos_schedules() {
    for (fault_seed, crash_device) in [(0xC0FFEE_u64, 1_u32), (0x5EED_0007_u64, 4_u32)] {
        let mut config = FederatedFleetConfig::small(23);
        config.fleet.faults = FaultPlan::chaos(fault_seed).with_crash(Crash {
            node: NodeId(1 + crash_device),
            at_ms: 10_000 + (fault_seed % 20_000),
            restart_ms: 40_000 + (fault_seed % 10_000),
        });
        let outcome = run_federated_fleet(&config);
        assert!(
            outcome.stats.dropped + outcome.stats.duplicated + outcome.stats.reordered > 0,
            "seed {fault_seed:#x}: the chaos schedule must actually injure: {}",
            outcome.stats
        );
        assert!(
            outcome.stats.retries > 0,
            "seed {fault_seed:#x}: injury must be visible in transport retries"
        );
        assert!(
            outcome.is_clean(),
            "seed {fault_seed:#x}: absorbed chaos leaves clean deltas: {:?}",
            outcome.deltas
        );
        assert!(
            outcome.parity(),
            "seed {fault_seed:#x}: chaos must never change released bytes"
        );
    }
}

/// Campaign wiring: a federated campaign pooling a strategy that cannot
/// run device-locally is rejected at registration — a non-federable
/// winner would force devices to upload raw, silently voiding the policy.
#[test]
fn non_federable_pool_is_rejected_at_registration() {
    #[derive(Debug)]
    struct Opaque;
    impl AnonymizationStrategy for Opaque {
        fn info(&self) -> StrategyInfo {
            StrategyInfo {
                name: "opaque".into(),
                params: String::new(),
            }
        }
        // Default `locality()` (NonLocal) and `spec()` (None): the
        // conservative contract for external strategies.
        fn anonymize(
            &self,
            dataset: &crowdsense::mobility::Dataset,
            _seed: u64,
        ) -> crowdsense::mobility::Dataset {
            dataset.clone()
        }
    }

    let mut gateway = CampaignGateway::new();
    let campaign = Campaign::new(1, "opaque-study", PrivApiConfig::default())
        .with_pool(StrategyPool::new().with(Box::new(Opaque)))
        .with_federation(FederationPolicy::new(2));
    let err = gateway.open(TaskId(1), campaign).unwrap_err();
    match err {
        CampaignError::NonFederable { strategy, .. } => {
            assert!(
                strategy.contains("opaque"),
                "names the offender: {strategy}"
            )
        }
        other => panic!("expected NonFederable, got {other:?}"),
    }
    // The default publication pool is fully federable.
    gateway
        .open(
            TaskId(2),
            Campaign::new(2, "federable", PrivApiConfig::default())
                .with_federation(FederationPolicy::new(2)),
        )
        .expect("every built-in candidate runs device-locally");
}

/// Campaign wiring: federated windows publish through the gateway with
/// both provenance ledgers stamped, and degradation at either layer flips
/// the day report's `degraded()` flag.
#[test]
fn federated_windows_publish_with_federation_provenance() {
    let mut config = FederatedFleetConfig::small(67);
    config.upgrade_at_close = Some((0, StrategySpec::GaussianPerturbation { sigma_m: 50.0 }));
    let outcome = run_federated_fleet(&config);

    let mut gateway = CampaignGateway::new();
    gateway
        .open(
            TaskId(9),
            Campaign::new(9, "federated", PrivApiConfig::default())
                .with_federation(FederationPolicy::new(2)),
        )
        .unwrap();
    let mut degraded_reports = 0;
    for (i, (window, delta)) in outcome.windows.iter().zip(&outcome.deltas).enumerate() {
        let ingest = outcome.cohort_deltas.get(i).copied();
        let mut report = gateway
            .publish_day(window)
            .expect("protocol-ordered federated windows always publish");
        assert_eq!(
            report.day, delta.day,
            "federation audit for the published day"
        );
        report.ingest = ingest;
        report.federation = Some(*delta);
        assert_eq!(
            report.degraded(),
            !delta.is_clean() || ingest.is_some_and(|d| !d.is_clean())
        );
        if report.degraded() {
            degraded_reports += 1;
        }
    }
    assert!(
        degraded_reports > 0,
        "the upgrade wave's re-uploads must surface as degraded reports"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The acceptance property, over 32 seeded cases spanning participation
    /// thinning, mechanism rotation and fault schedules (chaos plus a
    /// crash/restart): the federated release is byte-identical to the
    /// central release for every `UserLocal` strategy, and the run stays
    /// exactly accounted (no stale, no implausible, no silent mixing).
    #[test]
    fn federated_parity_holds_under_thinning_and_chaos(
        fleet_seed in 0u64..1_000,
        participation in 60u64..101,
        spec_index in 0usize..6,
        fault_seed in any::<u64>(),
        chaos in any::<bool>(),
        crash_device in 0u32..6,
    ) {
        let mut config = FederatedFleetConfig::small(fleet_seed);
        config.participation_pct = participation;
        config.spec = ALL_SPECS[spec_index];
        if chaos {
            config.fleet.faults = FaultPlan::chaos(fault_seed).with_crash(Crash {
                node: NodeId(1 + crash_device),
                at_ms: 10_000 + (fault_seed % 20_000),
                restart_ms: 40_000 + (fault_seed % 10_000),
            });
        }
        let outcome = run_federated_fleet(&config);

        prop_assert!(
            outcome.parity(),
            "spec {:?} pct {} seed {} chaos {}: drift",
            ALL_SPECS[spec_index], participation, fleet_seed, chaos
        );
        prop_assert!(outcome.is_clean(), "deltas: {:?}", outcome.deltas);
        prop_assert_eq!(outcome.session_totals.stale_records, 0);
        prop_assert_eq!(outcome.session_totals.implausible_records, 0);
        prop_assert!(outcome.stale_users.is_empty());
        prop_assert!(outcome.poisoned_devices.is_empty());
        // The cohort's raw exposure never exceeds the central deployment's.
        prop_assert!(outcome.raw_bytes_uplinked <= outcome.central_raw_bytes);
    }
}
