//! Chaos tests: the headline robustness invariant of the reliable
//! ingestion layer, stated over many seeded fault schedules.
//!
//! **Invariant.** Whenever every datum eventually arrives before its day's
//! grace deadline, the campaign windows published from a fault-injected
//! fleet run are **byte-identical** to the fault-free run's — loss bursts,
//! duplicated frames, reordered delivery and device crash/restarts change
//! retries and latencies, never published bytes. When data *cannot* arrive
//! in time (a partitioned region's stragglers), the affected windows are
//! degraded instead of wrong: the late records quarantine into the next
//! window and the per-window [`IngestDelta`] audit counters account for
//! every single record.
//!
//! The ascending-day contract of the publication stream
//! ([`PrivapiError::StreamError`] / [`CampaignError::Stream`]) is satisfied
//! *by protocol* — the collector closes days exactly once, in order — so
//! no fault schedule may ever surface a stream error.

use crowdsense::apisense::campaigns::CampaignGateway;
use crowdsense::apisense::collect::window_fingerprint;
use crowdsense::apisense::fleet::{run_fleet, FleetConfig};
use crowdsense::apisense::hive::TaskId;
use crowdsense::campaign::Campaign;
use crowdsense::mobility::LocationRecord;
use crowdsense::privapi::attack::PoiAttack;
use crowdsense::privapi::pipeline::PrivApiConfig;
use crowdsense::privapi::streaming::{IngestDelta, Session, WorkStore};
use crowdsense::simnet::fault::{Crash, Partition};
use crowdsense::simnet::{FaultPlan, NodeId};
use mobility::DAY_SECONDS;
use proptest::prelude::*;

/// Sorted record multiset of a window sequence, for conservation checks.
fn record_multiset<'a>(
    windows: impl Iterator<Item = &'a crowdsense::mobility::DatasetWindow>,
) -> Vec<(u64, i64, u64, u64)> {
    let mut records: Vec<(u64, i64, u64, u64)> = windows
        .flat_map(|w| w.dataset().iter_records())
        .map(|r: &LocationRecord| {
            (
                r.user.0,
                r.time.seconds(),
                r.point.latitude().to_bits(),
                r.point.longitude().to_bits(),
            )
        })
        .collect();
    records.sort_unstable();
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 32 seeded chaos schedules (burst loss, duplication, reordering,
    /// plus a mid-day crash/restart): every datum still arrives within its
    /// grace window, so every published window must be byte-identical to
    /// the fault-free oracle and every delta clean.
    #[test]
    fn chaos_windows_are_byte_identical_to_the_fault_free_run(
        fault_seed in any::<u64>(),
        crash_device in 0u32..6,
    ) {
        let mut config = FleetConfig::small(23);
        // Crash one device mid-day-0; it restarts long before the close.
        config.faults = FaultPlan::chaos(fault_seed).with_crash(Crash {
            node: NodeId(1 + crash_device),
            at_ms: 10_000 + (fault_seed % 20_000),
            restart_ms: 40_000 + (fault_seed % 10_000),
        });
        let outcome = run_fleet(&config);

        prop_assert!(outcome.is_clean(), "deltas: {:?}", outcome.deltas);
        prop_assert_eq!(outcome.published_records(), outcome.generated_records);
        let published: Vec<_> = outcome.nonempty_windows().collect();
        prop_assert_eq!(published.len(), outcome.baseline.len());
        for (got, want) in published.iter().zip(&outcome.baseline) {
            prop_assert_eq!(
                window_fingerprint(got),
                window_fingerprint(want),
                "day {} drifted under fault seed {}",
                want.day(),
                fault_seed
            );
        }
    }

    /// Partitioned-region straggler schedules: a random slice of the fleet
    /// is severed across the day-0 close. The late records must quarantine
    /// into a later window with exact audit counters — nothing lost,
    /// nothing duplicated, the full record multiset conserved.
    #[test]
    fn partition_stragglers_quarantine_with_exact_counters(
        fault_seed in any::<u64>(),
        severed in 1u32..5,
    ) {
        let mut config = FleetConfig::small(29);
        let day_end = DAY_SECONDS as u64;
        config.faults = FaultPlan::chaos(fault_seed).with_partition(Partition {
            from_ms: day_end - 10_000 - (fault_seed % 20_000),
            until_ms: day_end + config.grace_s + 1_000 + (fault_seed % 20_000),
            nodes: (0..severed).map(|i| NodeId(1 + i)).collect(),
        });
        let outcome = run_fleet(&config);

        prop_assert!(!outcome.is_clean(), "a day-close partition must degrade");
        let quarantined: u64 = outcome.deltas.iter().map(|d| d.records_quarantined).sum();
        let on_time: u64 = outcome.deltas.iter().map(|d| d.records).sum();
        prop_assert!(quarantined > 0);
        // Exact accounting: every generated record is published exactly
        // once — on time or quarantined — and the multiset of published
        // records equals the generated dataset's.
        prop_assert_eq!(on_time + quarantined, outcome.generated_records);
        prop_assert_eq!(outcome.published_records(), outcome.generated_records);
        prop_assert_eq!(
            record_multiset(outcome.windows.iter()),
            record_multiset(outcome.baseline.iter())
        );
        // The day-0 shortfall against the oracle is exactly what later
        // windows report as quarantined.
        let baseline_day0 = outcome.baseline.windows()[0].record_count() as u64;
        let published_day0 = outcome.windows[0].record_count() as u64;
        prop_assert_eq!(quarantined, baseline_day0 - published_day0);
        prop_assert!(outcome.deltas[0].straggler_devices >= 1);
    }
}

/// The protocol boundary, stated directly: duplicated and out-of-order
/// delivery of day batches is absorbed by the ingest dedup watermark and
/// never reaches the publication stream — the stream guard that *would*
/// reject a replayed day stays unexercised.
#[test]
fn duplicate_and_reordered_delivery_never_surfaces_as_stream_error() {
    let mut config = FleetConfig::small(31);
    config.faults = FaultPlan::none()
        .with_duplication(0.5)
        .with_reordering(0.5, 2_000);
    let outcome = run_fleet(&config);
    assert!(
        outcome.stats.duplicated > 0 && outcome.stats.reordered > 0,
        "the schedule must actually duplicate and reorder: {}",
        outcome.stats
    );
    assert!(outcome.is_clean(), "absorbed faults leave clean deltas");

    // Feed the collector's windows straight into the strict stream
    // consumers: a streaming session and a full campaign gateway. Both
    // must accept every window — the protocol already serialized the days.
    let mut session = Session::new(PoiAttack::default());
    let mut store = WorkStore::new();
    let mut gateway = CampaignGateway::new();
    gateway
        .open(
            TaskId(1),
            Campaign::new(1, "chaos", PrivApiConfig::default()),
        )
        .unwrap();
    for (window, delta) in outcome.windows.iter().zip(&outcome.deltas) {
        session
            .advance(window, &mut store)
            .expect("protocol-ordered windows can never violate the stream guard");
        let mut report = gateway
            .publish_day(window)
            .expect("gateway accepts every protocol-ordered window");
        assert_eq!(report.day, delta.day, "ingest audit for the published day");
        report.ingest = Some(*delta);
        assert!(!report.degraded(), "clean deltas are not degraded");
    }

    // Negative control: the guard itself still works — replaying a day is
    // a harness bug and must be rejected loudly.
    let replay = session.advance(&outcome.windows[0], &mut store);
    assert!(replay.is_err(), "the ascending-day guard must still exist");
}

/// Degraded-mode publication end to end: a partitioned fleet's windows
/// flow through the campaign gateway; the degraded windows carry their
/// quarantine counters into the day reports, and publication still
/// succeeds for every window.
#[test]
fn degraded_windows_publish_with_ingest_provenance() {
    let mut config = FleetConfig::small(37);
    let day_end = DAY_SECONDS as u64;
    config.faults = FaultPlan::none().with_partition(Partition {
        from_ms: day_end - 15_000,
        until_ms: day_end + config.grace_s + 5_000,
        nodes: vec![NodeId(1), NodeId(2)],
    });
    let outcome = run_fleet(&config);
    assert!(!outcome.is_clean());

    let mut gateway = CampaignGateway::new();
    gateway
        .open(
            TaskId(7),
            Campaign::new(7, "degraded", PrivApiConfig::default()),
        )
        .unwrap();
    let mut degraded_reports = 0;
    for (window, delta) in outcome.windows.iter().zip(&outcome.deltas) {
        let mut report = gateway.publish_day(window).unwrap();
        assert_eq!(report.day, delta.day, "ingest audit for the published day");
        report.ingest = Some(*delta);
        if report.degraded() {
            degraded_reports += 1;
            let ingest: IngestDelta = report.ingest.unwrap();
            assert!(
                ingest.straggler_devices > 0
                    || ingest.records_quarantined > 0
                    || ingest.records_deferred > 0,
                "degradation must be visible in the counters: {ingest}"
            );
        }
    }
    assert!(
        degraded_reports > 0,
        "the partition must surface in reports"
    );
}
