//! E13 — fault-injected reliable ingestion: at-least-once device→Hive
//! delivery with byte-identical published windows under chaos.
//!
//! Three fleet runs per scale, all over the same seeded population
//! ([`apisense::fleet::run_fleet`]):
//!
//! * **fault-free** — the oracle: published windows must be byte-identical
//!   to [`mobility::WindowedDataset::partition`] of the generated
//!   population, with clean [`privapi::streaming::IngestDelta`]s;
//! * **chaos** — [`simnet::FaultPlan::chaos`] bursty loss + duplication +
//!   reordering: every datum still arrives within each day's grace window,
//!   so the published windows must again be byte-identical to the oracle —
//!   the transport sweats (retries, dup absorption) so the pipeline never
//!   does;
//! * **partition** — half the fleet severed across a day-close deadline:
//!   the stragglers' data misses its window and must be quarantined into
//!   the next one, with the audit counters conserving every record.
//!
//! The report carries delivery-latency percentiles (enqueue→ack) and the
//! retry/duplicate/reorder/drop counters of each run; every invariant is
//! asserted before any number is reported. The `bench_summary` binary
//! drives [`run`] and emits `BENCH_e13.json` next to e10–e12/e14.

use crate::Scale;
use apisense::collect::window_fingerprint;
use apisense::fleet::{run_fleet, FleetConfig, FleetOutcome};
use mobility::DAY_SECONDS;
use obs::report::percentile;
use simnet::fault::Partition;
use simnet::reliable::ReliableConfig;
use simnet::{FaultPlan, LinkModel, NodeId};
use std::fmt;
use std::time::Instant;

/// Workload shape for one E13 run.
#[derive(Debug, Clone)]
pub struct E13Config {
    /// Label recorded in the report (`smoke`, `small`, `medium`, `full`).
    pub label: String,
    /// Seed for population, simulator and fault schedules.
    pub seed: u64,
    /// Fleet size (one device per user).
    pub users: usize,
    /// Days of sensing (= scheduled windows).
    pub days: i64,
    /// Sensing interval of the generated trajectories, in seconds.
    pub sampling_interval_s: i64,
}

impl E13Config {
    /// Tiny CI smoke shape: a couple of seconds end to end, still
    /// exercising chaos byte-identity and partition quarantine.
    pub fn smoke() -> Self {
        Self {
            label: "smoke".into(),
            seed: 0xE13,
            users: 6,
            days: 2,
            sampling_interval_s: 900,
        }
    }

    /// The canonical population for `scale`. `Large` is bounded below the
    /// streaming population: fault-injected ingestion replays every
    /// device's upload schedule twice (chaos + control), so the
    /// O(active-users) claim itself is measured by E11 at the full
    /// `Scale::Large` population instead.
    pub fn from_scale(scale: Scale) -> Self {
        let (users, days, interval) = crate::data::by_scale(
            scale,
            scale.population(),
            scale.population(),
            scale.population(),
            (2_000, 8, 1_200),
        );
        Self {
            label: format!("{scale:?}").to_lowercase(),
            seed: 0xE13,
            users,
            days: days as i64,
            sampling_interval_s: interval,
        }
    }

    fn fleet(&self, faults: FaultPlan) -> FleetConfig {
        FleetConfig {
            seed: self.seed,
            users: self.users,
            days: self.days,
            sampling_interval_s: self.sampling_interval_s,
            upload_every_s: 1_800,
            grace_s: 14_400,
            link: LinkModel::mobile(),
            faults,
            reliable: ReliableConfig::default(),
        }
    }
}

/// Latency percentiles plus the network/fault counters of one fleet run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunNumbers {
    /// Wall-clock time of the simulated run, ms (host time, not sim time).
    pub wall_ms: f64,
    /// Chunks acknowledged (latency samples).
    pub acked_chunks: usize,
    /// Median enqueue→ack delivery latency, sim-ms.
    pub latency_p50_ms: u64,
    /// 95th-percentile delivery latency, sim-ms.
    pub latency_p95_ms: u64,
    /// 99th-percentile delivery latency, sim-ms.
    pub latency_p99_ms: u64,
    /// Worst delivery latency, sim-ms.
    pub latency_max_ms: u64,
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages dropped by the link model.
    pub dropped: u64,
    /// Messages dropped by injected faults (burst loss, partitions,
    /// crashed destinations).
    pub dropped_by_fault: u64,
    /// Fault-injected extra copies delivered.
    pub duplicated: u64,
    /// Messages delayed out of order by fault injection.
    pub reordered: u64,
    /// Transport retransmissions.
    pub retries: u64,
    /// Duplicate frame deliveries absorbed by the ingest dedup watermark.
    pub dup_batches_absorbed: u64,
    /// Records quarantined into later windows.
    pub quarantined_records: u64,
    /// Windows published with a degraded (non-clean) delta.
    pub degraded_windows: usize,
}

fn numbers(outcome: &FleetOutcome, wall_ms: f64) -> RunNumbers {
    let mut latencies = outcome.ack_latencies_ms.clone();
    latencies.sort_unstable();
    let stats = outcome.stats;
    RunNumbers {
        wall_ms,
        acked_chunks: latencies.len(),
        latency_p50_ms: percentile(&latencies, 0.50),
        latency_p95_ms: percentile(&latencies, 0.95),
        latency_p99_ms: percentile(&latencies, 0.99),
        latency_max_ms: percentile(&latencies, 1.0),
        sent: stats.sent,
        delivered: stats.delivered,
        dropped: stats.dropped,
        dropped_by_fault: stats.dropped_by_fault,
        duplicated: stats.duplicated,
        reordered: stats.reordered,
        retries: stats.retries,
        dup_batches_absorbed: outcome.deltas.iter().map(|d| d.batches_duplicate).sum(),
        quarantined_records: outcome.deltas.iter().map(|d| d.records_quarantined).sum(),
        degraded_windows: outcome.deltas.iter().filter(|d| !d.is_clean()).count(),
    }
}

fn json_run(name: &str, n: &RunNumbers) -> String {
    format!(
        "  \"{name}\": {{\n    \"wall_ms\": {:.3},\n    \"acked_chunks\": {},\n    \
         \"latency_p50_ms\": {},\n    \"latency_p95_ms\": {},\n    \
         \"latency_p99_ms\": {},\n    \"latency_max_ms\": {},\n    \"sent\": {},\n    \
         \"delivered\": {},\n    \"dropped\": {},\n    \"dropped_by_fault\": {},\n    \
         \"duplicated\": {},\n    \"reordered\": {},\n    \"retries\": {},\n    \
         \"dup_batches_absorbed\": {},\n    \"quarantined_records\": {},\n    \
         \"degraded_windows\": {}\n  }}",
        n.wall_ms,
        n.acked_chunks,
        n.latency_p50_ms,
        n.latency_p95_ms,
        n.latency_p99_ms,
        n.latency_max_ms,
        n.sent,
        n.delivered,
        n.dropped,
        n.dropped_by_fault,
        n.duplicated,
        n.reordered,
        n.retries,
        n.dup_batches_absorbed,
        n.quarantined_records,
        n.degraded_windows,
    )
}

/// Measured numbers of the three fleet runs plus the invariants they were
/// taken under (byte-identity and record conservation are asserted inside
/// [`run`] before the report exists).
#[derive(Debug, Clone)]
pub struct E13Report {
    /// Workload label.
    pub label: String,
    /// Fleet size.
    pub users: usize,
    /// Scheduled day windows.
    pub days: i64,
    /// Records generated (and eventually published) per run.
    pub records: u64,
    /// The oracle run (no injected faults).
    pub faultfree: RunNumbers,
    /// The chaos run (burst loss + duplication + reordering).
    pub chaos: RunNumbers,
    /// The partition run (half the fleet severed across a day close).
    pub partition: RunNumbers,
}

impl E13Report {
    /// Renders the report as a JSON object (hand-rolled: the workspace
    /// has no JSON serializer dependency).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"e13_reliable_ingestion\",\n{}  \"scale\": \"{}\",\n  \
             \"users\": {},\n  \"days\": {},\n  \"records\": {},\n{},\n{},\n{}\n}}\n",
            crate::host_json(),
            self.label,
            self.users,
            self.days,
            self.records,
            json_run("faultfree", &self.faultfree),
            json_run("chaos", &self.chaos),
            json_run("partition", &self.partition),
        )
    }
}

impl fmt::Display for E13Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E13 reliable ingestion under chaos ({}, {} devices, {} days, {} records)",
            self.label, self.users, self.days, self.records
        )?;
        let widths = [11, 9, 9, 9, 9, 8, 8, 8, 8, 11];
        writeln!(
            f,
            "{}",
            crate::row(
                &[
                    "run".into(),
                    "p50 ms".into(),
                    "p95 ms".into(),
                    "p99 ms".into(),
                    "max ms".into(),
                    "retries".into(),
                    "dups".into(),
                    "reord".into(),
                    "dropped".into(),
                    "quarantined".into(),
                ],
                &widths
            )
        )?;
        for (name, n) in [
            ("fault-free", &self.faultfree),
            ("chaos", &self.chaos),
            ("partition", &self.partition),
        ] {
            writeln!(
                f,
                "{}",
                crate::row(
                    &[
                        name.into(),
                        n.latency_p50_ms.to_string(),
                        n.latency_p95_ms.to_string(),
                        n.latency_p99_ms.to_string(),
                        n.latency_max_ms.to_string(),
                        n.retries.to_string(),
                        n.duplicated.to_string(),
                        n.reordered.to_string(),
                        (n.dropped + n.dropped_by_fault).to_string(),
                        n.quarantined_records.to_string(),
                    ],
                    &widths
                )
            )?;
        }
        write!(
            f,
            "byte-identity: fault-free and chaos windows equal the partition oracle; \
             partition run quarantined {} records over {} degraded windows, all conserved",
            self.partition.quarantined_records, self.partition.degraded_windows
        )
    }
}

/// Asserts the headline invariant: every non-empty published window is
/// byte-identical to the fault-free partition oracle.
fn assert_byte_identical(outcome: &FleetOutcome, run: &str) {
    let published: Vec<_> = outcome.nonempty_windows().collect();
    assert_eq!(
        published.len(),
        outcome.baseline.len(),
        "{run}: window count drifted from the oracle"
    );
    for (got, want) in published.iter().zip(&outcome.baseline) {
        assert_eq!(
            window_fingerprint(got),
            window_fingerprint(want),
            "{run}: day {} not byte-identical to the oracle",
            want.day()
        );
    }
}

/// Runs E13: three fleet runs over one population, asserting byte-identity
/// (fault-free, chaos) and quarantine conservation (partition) before
/// reporting latency percentiles and fault counters.
pub fn run(config: &E13Config) -> E13Report {
    // Fault-free oracle run.
    obs::phase("e13.faultfree");
    let start = Instant::now();
    let faultfree = run_fleet(&config.fleet(FaultPlan::none()));
    let faultfree_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(faultfree.is_clean(), "fault-free run must be clean");
    assert_eq!(faultfree.published_records(), faultfree.generated_records);
    assert_byte_identical(&faultfree, "fault-free");

    // Chaos run: loss bursts, duplication, reordering — but no partitions
    // or crashes, so everything arrives within each day's grace window and
    // the published windows must not change by a single byte.
    obs::phase("e13.chaos");
    let start = Instant::now();
    let chaos = run_fleet(&config.fleet(FaultPlan::chaos(config.seed)));
    let chaos_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(
        chaos.is_clean(),
        "chaos (no partitions) must still meet every deadline: {:?}",
        chaos.deltas
    );
    assert_byte_identical(&chaos, "chaos");
    let chaos_stats = chaos.stats;
    assert!(
        chaos_stats.dropped_by_fault + chaos_stats.duplicated + chaos_stats.reordered > 0,
        "chaos must actually perturb the network: {chaos_stats}"
    );

    // Partition run: sever half the fleet across the day-0 close deadline.
    let severed: Vec<NodeId> = (0..(config.users / 2).max(1) as u32)
        .map(|i| NodeId(1 + i))
        .collect();
    let day_end = DAY_SECONDS as u64;
    let mut fleet = config.fleet(FaultPlan::none());
    fleet.faults = FaultPlan::none().with_partition(Partition {
        from_ms: day_end - 20_000,
        until_ms: day_end + fleet.grace_s + 10_000,
        nodes: severed,
    });
    obs::phase("e13.partition");
    let start = Instant::now();
    let partition = run_fleet(&fleet);
    let partition_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(!partition.is_clean(), "the partition must degrade a window");
    let quarantined: u64 = partition.deltas.iter().map(|d| d.records_quarantined).sum();
    assert!(quarantined > 0, "stragglers must surface as quarantined");
    let on_time: u64 = partition.deltas.iter().map(|d| d.records).sum();
    assert_eq!(
        on_time + quarantined,
        partition.generated_records,
        "every record is published exactly once, on time or quarantined"
    );
    assert_eq!(partition.published_records(), partition.generated_records);

    E13Report {
        label: config.label.clone(),
        users: config.users,
        days: config.days,
        records: faultfree.generated_records,
        faultfree: numbers(&faultfree, faultfree_ms),
        chaos: numbers(&chaos, chaos_ms),
        partition: numbers(&partition, partition_ms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_upholds_invariants_and_renders() {
        let report = run(&E13Config::smoke());
        assert_eq!(report.users, 6);
        assert!(report.records > 0);
        assert!(report.faultfree.acked_chunks > 0);
        assert_eq!(report.faultfree.quarantined_records, 0);
        assert!(report.chaos.retries > 0, "chaos forces retransmission");
        assert!(report.chaos.dup_batches_absorbed > 0 || report.chaos.duplicated > 0);
        assert!(report.partition.quarantined_records > 0);
        assert!(report.partition.degraded_windows > 0);
        assert!(
            report.chaos.latency_p95_ms >= report.chaos.latency_p50_ms
                && report.chaos.latency_max_ms >= report.chaos.latency_p99_ms
        );
        let json = report.to_json();
        for key in [
            "\"experiment\": \"e13_reliable_ingestion\"",
            "\"faultfree\"",
            "\"chaos\"",
            "\"partition\"",
            "\"latency_p95_ms\"",
            "\"dup_batches_absorbed\"",
            "\"quarantined_records\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = report.to_string();
        assert!(text.contains("fault-free") && text.contains("quarantined"));
    }

    #[test]
    fn config_constructors_cover_scales() {
        assert_eq!(E13Config::smoke().users, 6);
        let small = E13Config::from_scale(Scale::Small);
        assert_eq!(small.label, "small");
        assert_eq!(small.users, 30);
        assert_eq!(small.days, 7);
    }
}
