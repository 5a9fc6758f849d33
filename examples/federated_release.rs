//! Federated release: devices anonymize locally under a broadcast
//! strategy config, and the server assembles a release that is
//! byte-identical to the central one — without ever seeing non-cohort
//! raw data (`DESIGN.md` §3.12).
//!
//! ```bash
//! cargo run --release --example federated_release
//! ```

use crowdsense::apisense::federated::{run_federated_fleet, FederatedFleetConfig};
use crowdsense::mobility::UserId;
use crowdsense::privapi::federated::StrategySpec;
use crowdsense::simnet::FaultPlan;
use std::collections::BTreeSet;

fn main() {
    // 1. A fault-free federated fleet: the Hive broadcasts the winning
    //    strategy as a versioned config frame, each device runs
    //    `protect` on each of its day trajectories locally and uploads
    //    only protected whole-day batches; raw data is uplinked by the
    //    calibration cohort alone.
    let config = FederatedFleetConfig::small(42);
    let outcome = run_federated_fleet(&config);
    println!(
        "fault-free    : {} protected records released under config v{} ({:?})",
        outcome.release.record_count(),
        outcome.final_config.version,
        outcome.final_config.spec
    );
    println!(
        "                parity with central release: {} (clean deltas: {})",
        outcome.parity(),
        outcome.is_clean()
    );
    println!(
        "                raw uplink {} B (cohort of {}) vs {} B central — {} B protected, {} B config broadcast",
        outcome.raw_bytes_uplinked,
        outcome.cohort.len(),
        outcome.central_raw_bytes,
        outcome.protected_bytes_uplinked,
        outcome.config_bytes_broadcast
    );

    // 2. The same fleet under seeded chaos (loss, duplication,
    //    reordering): retries go up, the released bytes do not change.
    let mut chaos = FederatedFleetConfig::small(42);
    chaos.fleet.faults = FaultPlan::chaos(7);
    let injured = run_federated_fleet(&chaos);
    println!(
        "under chaos   : parity {} with {} retransmissions, {} drops",
        injured.parity(),
        injured.stats.retries,
        injured.stats.dropped + injured.stats.dropped_by_fault
    );

    // 3. An upgrade wave: the server bumps the config mid-campaign while
    //    one device is deaf to the broadcast. Its stale-version uploads
    //    are quarantined — counted, never mixed — until it catches up
    //    and re-uploads history under the new version.
    let mut upgrade = FederatedFleetConfig::small(42);
    upgrade.spec = StrategySpec::Identity;
    upgrade.upgrade_at_close = Some((0, StrategySpec::GaussianPerturbation { sigma_m: 50.0 }));
    upgrade.deaf = vec![(3, 100_000, 176_000)];
    let waved = run_federated_fleet(&upgrade);
    println!(
        "upgrade wave  : v{} final, {} stale records quarantined, {} re-uploaded, parity {}",
        waved.final_config.version,
        waved.session_totals.stale_records,
        waved
            .deltas
            .iter()
            .map(|d| d.reuploaded_records)
            .sum::<u64>(),
        waved.parity()
    );

    // 4. A poisoning adversary fabricating implausible fixes: the whole
    //    batch is rejected at the plausibility gate and the release
    //    equals the central release over the honest sub-fleet.
    let mut hostile = FederatedFleetConfig::small(42);
    hostile.poisoned = vec![4];
    let attacked = run_federated_fleet(&hostile);
    let honest = attacked.central_excluding(&BTreeSet::from([UserId(4)]));
    println!(
        "poisoned fleet: {} implausible records rejected from device(s) {:?}; release == honest central: {}",
        attacked.session_totals.implausible_records,
        attacked.poisoned_devices,
        attacked.release == honest
    );
}
