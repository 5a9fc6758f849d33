//! Fault-injected fleet runs: a device population uploading through
//! [`crate::collect`] over the [`simnet`] discrete-event simulator.
//!
//! This is the harness behind the chaos tests and experiment E13: generate a
//! synthetic population, give every user a device actor that stages day
//! batches into a reliable outbox, wire all devices to one Hive actor over
//! fault-injected links ([`simnet::FaultPlan`]), then advance the clock day
//! by day, closing each day window after a grace period. The same runner,
//! with protected and config lanes added, drives the federated fleets of
//! [`crate::federated::run_federated_fleet`] (experiment E15).
//!
//! Time mapping: **1 simulated millisecond = 1 dataset second**, so one
//! mobility day (86 400 s) is 86 400 sim-ms and link latencies (a few sim-ms)
//! are a few seconds of dataset time — generous but realistic for periodic
//! mobile uploads.
//!
//! The fault-free run of the same seed is the *oracle*: its published
//! windows are exactly [`mobility::WindowedDataset::partition`] of the
//! generated population, and the chaos invariant says any faulted run in
//! which all data eventually arrives must publish byte-identical windows
//! (see [`crate::collect::window_fingerprint`]).

use crate::collect::{Collector, DeviceOutbox};
use crate::federated::{
    FederatedFleetConfig, HiveFederation, ProtectedLanes, PROTECTED_LANE_BIT,
};
use mobility::gen::{thin_participation, CityModel, PopulationConfig};
use mobility::{DatasetWindow, UserId, WindowedDataset, DAY_SECONDS};
use privapi::streaming::IngestDelta;
use simnet::reliable::{AckFrame, DataFrame, ReliableConfig, ReliableSender};
use simnet::{
    Actor, Context, FaultPlan, LinkModel, Message, NetworkStats, NodeId, SimTime, Simulation,
};
use std::collections::BTreeMap;

/// Timer id for a device's periodic upload tick.
pub(crate) const TICK_UPLOAD: u64 = 1;
/// Timer id for a pending retransmission deadline.
pub(crate) const TICK_RETRY: u64 = 2;

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Seed for the population generator, the simulator and (indirectly)
    /// the fault plan.
    pub seed: u64,
    /// Fleet size: one device per generated user.
    pub users: usize,
    /// Days of sensing to generate, upload and publish.
    pub days: i64,
    /// Sensing interval of the generated trajectories, in seconds.
    pub sampling_interval_s: i64,
    /// How often devices stage + transmit, in dataset seconds (= sim ms).
    pub upload_every_s: u64,
    /// Slack after each day boundary before the Hive closes the window, in
    /// dataset seconds. Data later than this is quarantined.
    pub grace_s: u64,
    /// The link model between every device and the Hive.
    pub link: LinkModel,
    /// The injected fault schedule ([`FaultPlan::none`] for the oracle run).
    pub faults: FaultPlan,
    /// Transport tuning for every device's reliable sender.
    pub reliable: ReliableConfig,
}

impl FleetConfig {
    /// A small, fast fleet: used by unit tests and the smoke benches.
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            users: 6,
            days: 2,
            sampling_interval_s: 900,
            upload_every_s: 1_800,
            grace_s: 14_400,
            link: LinkModel::mobile(),
            faults: FaultPlan::none(),
            reliable: ReliableConfig::default(),
        }
    }
}

/// Everything a fleet run produced, for assertions and reporting.
#[derive(Debug)]
pub struct FleetOutcome {
    /// One closed window per day `0..days` (possibly empty datasets), plus
    /// a trailing drain window when stragglers were still in flight after
    /// the last scheduled close.
    pub windows: Vec<DatasetWindow>,
    /// The per-window ingestion audit, parallel to `windows`.
    pub deltas: Vec<IngestDelta>,
    /// Network counters: traffic, injected faults, transport retries.
    pub stats: NetworkStats,
    /// Per-chunk delivery latency samples (enqueue→ack), in sim-ms.
    pub ack_latencies_ms: Vec<u64>,
    /// The fault-free oracle: the generated population partitioned by day.
    pub baseline: WindowedDataset,
    /// Total records generated (and therefore eventually uploadable).
    pub generated_records: u64,
}

impl FleetOutcome {
    /// Windows actually carrying data (the baseline never has empty days in
    /// dense generated populations, so these are what it compares against).
    pub fn nonempty_windows(&self) -> impl Iterator<Item = &DatasetWindow> {
        self.windows.iter().filter(|w| w.record_count() > 0)
    }

    /// Total records published across all windows.
    pub fn published_records(&self) -> u64 {
        self.windows.iter().map(|w| w.record_count() as u64).sum()
    }

    /// Whether every window was assembled without degradation.
    pub fn is_clean(&self) -> bool {
        self.deltas.iter().all(IngestDelta::is_clean)
    }
}

/// A simulated smartphone: stages its lanes' batches on a timer, pumps
/// their reliable senders, applies acks, and survives crash/restart by
/// requeueing its volatile in-flight windows. In a central run every
/// device has only the raw lane; in a federated run every device has the
/// protected and config lanes, and calibration-cohort members the raw lane
/// as well.
struct DeviceActor {
    hive: NodeId,
    raw: Option<DeviceOutbox>,
    protected: Option<ProtectedLanes>,
    upload_every_ms: u64,
    /// Last day of the schedule: ticking stops once drained past it.
    last_day: i64,
    ack_latencies_ms: Vec<u64>,
}

impl DeviceActor {
    fn senders(&mut self) -> impl Iterator<Item = &mut ReliableSender> {
        let protected = self.protected.iter_mut().map(|p| p.outbox.sender_mut());
        self.raw
            .iter_mut()
            .map(DeviceOutbox::sender_mut)
            .chain(protected)
    }

    fn pump(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now().as_millis();
        let hive = self.hive;
        let mut due: Option<u64> = None;
        for sender in self.senders() {
            for tx in sender.poll(now) {
                if tx.retransmit {
                    ctx.note_retry();
                }
                ctx.send(hive, tx.frame.to_message());
            }
            due = due.into_iter().chain(sender.next_due()).min();
        }
        if let Some(due) = due {
            ctx.set_timer(due.saturating_sub(now).max(1), TICK_RETRY);
        }
    }

    fn done(&self) -> bool {
        self.raw.as_ref().is_none_or(|r| r.drained(self.last_day))
            && self
                .protected
                .as_ref()
                .is_none_or(|p| p.done(self.last_day))
    }
}

impl Actor for DeviceActor {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, msg: Message) {
        let now = ctx.now().as_millis();
        if let Ok(ack) = AckFrame::from_message(&msg) {
            let sender = match self.protected.as_mut() {
                Some(p) if ack.sender & PROTECTED_LANE_BIT != 0 => Some(p.outbox.sender_mut()),
                _ => self.raw.as_mut().map(DeviceOutbox::sender_mut),
            };
            if let Some(sender) = sender {
                self.ack_latencies_ms.extend(sender.on_ack(&ack, now));
            }
            self.pump(ctx);
        } else if let Some(protected) = self.protected.as_mut() {
            // The config lane is the only Hive→device data direction.
            let Ok(frame) = DataFrame::from_message(&msg) else {
                return;
            };
            if let Some((ack, installed)) = protected.on_config(frame, now) {
                ctx.send(self.hive, ack.to_message());
                if installed {
                    ctx.set_timer(1, TICK_UPLOAD);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer_id: u64) {
        match timer_id {
            TICK_UPLOAD => {
                let now_s = ctx.now().as_millis() as i64;
                if let Some(raw) = self.raw.as_mut() {
                    raw.stage(now_s);
                }
                if let Some(protected) = self.protected.as_mut() {
                    protected.outbox.stage(now_s);
                }
                self.pump(ctx);
                if !self.done() {
                    ctx.set_timer(self.upload_every_ms, TICK_UPLOAD);
                }
            }
            _ => self.pump(ctx),
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        // Volatile transport state is gone; schedules, cursors and any
        // installed config are flash-durable. Requeue and resume ticking
        // immediately.
        for sender in self.senders() {
            sender.crash();
        }
        ctx.set_timer(1, TICK_UPLOAD);
    }
}

/// The Hive's ingestion front: the raw [`Collector`] absorbing raw-lane
/// frames, plus the federated side in federated runs, multiplexed by lane
/// id.
struct HiveActor {
    raw: Collector,
    federation: Option<HiveFederation>,
}

impl Actor for HiveActor {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Message) {
        if let Ok(frame) = DataFrame::from_message(&msg) {
            let ack = match self.federation.as_mut() {
                Some(f) if frame.sender & PROTECTED_LANE_BIT != 0 => f.collector.ingest(&frame),
                _ => self.raw.ingest(&frame),
            };
            if let Ok(ack) = ack {
                ctx.send(from, ack.to_message());
            }
        } else if let Some(federation) = self.federation.as_mut() {
            if let Ok(ack) = AckFrame::from_message(&msg) {
                federation.on_config_ack(ctx, &ack);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer_id: u64) {
        if let Some(federation) = self.federation.as_mut() {
            federation.pump(ctx);
        }
    }
}

/// Runs one fleet end to end and returns every published window with its
/// audit trail, the network counters and the fault-free oracle.
///
/// Determinism: the same `config` (seed, faults and all) always produces
/// the same outcome, byte for byte — the chaos proptests rely on it.
///
/// # Panics
///
/// Panics if the simulated Hive violates the close-in-order protocol —
/// impossible by construction (days are closed by a monotone loop).
pub fn run_fleet(config: &FleetConfig) -> FleetOutcome {
    run(FleetRun::Raw(config)).0
}

/// What [`run`] runs: a raw fleet, or a federated one whose fleet shape is
/// its own [`FederatedFleetConfig::fleet`] — either way exactly one
/// [`FleetConfig`].
pub(crate) enum FleetRun<'a> {
    Raw(&'a FleetConfig),
    Federated(&'a FederatedFleetConfig),
}

/// The one fleet runner behind [`run_fleet`] ([`FleetRun::Raw`]) and
/// [`crate::federated::run_federated_fleet`]: generate the population,
/// give every user a device actor, wire all devices to one Hive actor over
/// fault-injected links, then advance the clock day by day, closing each
/// day window after a grace period, and drain what the faults delayed.
/// The outcome carries the raw lane (the calibration cohort's, in a
/// federated run); the Hive's federated side comes back as it ended.
///
/// # Panics
///
/// Panics when a federated run's population is empty, or if a simulated
/// endpoint violates the close-in-order protocol — impossible by
/// construction.
pub(crate) fn run(run: FleetRun<'_>) -> (FleetOutcome, Option<HiveFederation>) {
    let (config, federated) = match run {
        FleetRun::Raw(config) => (config, None),
        FleetRun::Federated(f) => (&f.fleet, Some(f)),
    };
    let mut fleet_span = obs::span("fleet.run");
    fleet_span.set_attr("devices", config.users);
    fleet_span.set_attr("days", config.days as u64);
    let population = CityModel::builder()
        .seed(config.seed)
        .build()
        .generate_population(&PopulationConfig {
            users: config.users,
            days: config.days as usize,
            sampling_interval_s: config.sampling_interval_s,
            ..PopulationConfig::default()
        });
    let population = match federated {
        Some(f) => thin_participation(&population, f.participation_pct),
        None => population,
    };
    let baseline = WindowedDataset::partition(&population);
    let generated_records = population.record_count() as u64;
    // One device per user: the generator emits one trajectory per
    // (user, day), so collect each user's full schedule first.
    let users = population.users();
    let federation = federated.map(|f| HiveFederation::new(f, &population, &users));
    let cohort = federation.as_ref().map(|f| f.cohort.clone());
    let has_raw_lane = |user: &UserId| cohort.as_ref().is_none_or(|c| c.contains(user));
    let closes_raw = cohort.as_ref().is_none_or(|c| !c.is_empty());

    let mut sim = Simulation::new(config.seed);
    sim.set_default_link(config.link);
    let mut raw = Collector::new();
    for user in users.iter().filter(|u| has_raw_lane(u)) {
        raw.register(user.0, *user);
    }
    let hive = sim.add_node("hive", Box::new(HiveActor { raw, federation }));

    let mut nodes = BTreeMap::new();
    let mut device_nodes = Vec::with_capacity(users.len());
    for &user in &users {
        let records = population.records_of(user);
        let protected = federated.map(|f| ProtectedLanes::new(f, user, records.clone()));
        let raw = has_raw_lane(&user)
            .then(|| DeviceOutbox::new(user.0, user, config.reliable, records));
        let node = sim.add_node(
            &format!("device-{}", user.0),
            Box::new(DeviceActor {
                hive,
                raw,
                protected,
                upload_every_ms: config.upload_every_s,
                last_day: config.days - 1,
                ack_latencies_ms: Vec::new(),
            }),
        );
        nodes.insert(user.0, node);
        device_nodes.push(node);
    }
    if let Some(federation) = hive_actor(&mut sim, hive).federation.as_mut() {
        federation.nodes = nodes;
    }
    sim.set_fault_plan(config.faults.clone());
    for (i, &node) in device_nodes.iter().enumerate() {
        // Stagger first ticks so the fleet does not thunder in lockstep.
        sim.post_timer(node, 1 + (i as u64 % 97), TICK_UPLOAD);
    }
    if federated.is_some() {
        // Kick the config broadcast.
        sim.post_timer(hive, 1, TICK_RETRY);
    }

    let mut windows = Vec::new();
    let mut deltas = Vec::new();
    for day in 0..config.days {
        let close_at = (day + 1) as u64 * DAY_SECONDS as u64 + config.grace_s;
        sim.run_until(SimTime::from_millis(close_at));
        let hive_actor = hive_actor(&mut sim, hive);
        let closed =
            closes_raw.then(|| hive_actor.raw.close_day(day).expect("days close in order"));
        let rebroadcast = hive_actor
            .federation
            .as_mut()
            .is_some_and(|f| f.close_day(day, closed.as_ref().map(|(w, _)| w)));
        if let Some((window, delta)) = closed {
            windows.push(window);
            deltas.push(delta);
        }
        if rebroadcast {
            sim.post_timer(hive, 1, TICK_RETRY);
        }
    }
    // Drain whatever the faults (or a late upgrade) delayed past the last
    // scheduled close; if stragglers remain, publish them in one trailing
    // quarantine window.
    sim.run();
    let hive_actor = hive_actor(&mut sim, hive);
    if closes_raw && hive_actor.raw.has_backlog() {
        let (window, delta) = hive_actor
            .raw
            .close_day(config.days)
            .expect("trailing close follows the last day");
        windows.push(window);
        deltas.push(delta);
    }
    if let Some(federation) = hive_actor.federation.as_mut() {
        federation.drain(config.days);
    }
    let mut federation = hive_actor.federation.take();

    let mut ack_latencies_ms = Vec::new();
    for &node in &device_nodes {
        let device = sim.actor_as::<DeviceActor>(node).expect("device actor");
        ack_latencies_ms.extend_from_slice(&device.ack_latencies_ms);
        if let (Some(federation), Some(protected)) = (federation.as_mut(), &device.protected) {
            federation.protected_bytes_uplinked += protected.outbox.bytes_enqueued();
        }
    }
    let outcome = FleetOutcome {
        windows,
        deltas,
        stats: sim.stats(),
        ack_latencies_ms,
        baseline,
        generated_records,
    };
    (outcome, federation)
}

fn hive_actor(sim: &mut Simulation, hive: NodeId) -> &mut HiveActor {
    sim.actor_as_mut::<HiveActor>(hive).expect("hive actor")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::window_fingerprint;

    #[test]
    fn fault_free_fleet_reproduces_the_partition_oracle() {
        let outcome = run_fleet(&FleetConfig::small(11));
        assert!(outcome.is_clean(), "no faults → clean deltas");
        assert_eq!(outcome.published_records(), outcome.generated_records);
        let published: Vec<_> = outcome.nonempty_windows().collect();
        assert_eq!(published.len(), outcome.baseline.len());
        for (got, want) in published.iter().zip(&outcome.baseline) {
            assert_eq!(window_fingerprint(got), window_fingerprint(want));
        }
        assert!(outcome.stats.retries == 0 || outcome.stats.delivered > 0);
        assert!(!outcome.ack_latencies_ms.is_empty());
    }

    #[test]
    fn chaotic_fleet_still_reproduces_the_oracle_when_data_arrives() {
        // Moderate chaos without partitions or crashes near day ends: all
        // data arrives before each grace deadline, so windows match the
        // oracle byte for byte even though the transport had to sweat.
        let mut config = FleetConfig::small(12);
        config.faults = FaultPlan::chaos(12);
        let outcome = run_fleet(&config);
        assert!(outcome.is_clean(), "deltas: {:?}", outcome.deltas);
        let published: Vec<_> = outcome.nonempty_windows().collect();
        assert_eq!(published.len(), outcome.baseline.len());
        for (got, want) in published.iter().zip(&outcome.baseline) {
            assert_eq!(window_fingerprint(got), window_fingerprint(want));
        }
        let stats = outcome.stats;
        assert!(
            stats.dropped_by_fault + stats.duplicated + stats.reordered > 0,
            "chaos must actually injure the network: {stats}"
        );
    }

    #[test]
    fn partition_over_a_day_end_quarantines_stragglers_exactly() {
        // Sever half the fleet across the day-0 close deadline. Their day-0
        // data misses the window and must be quarantined into day 1, with
        // the audit counters conserving every record.
        let mut config = FleetConfig::small(13);
        let day_end = DAY_SECONDS as u64;
        config.faults = FaultPlan::none().with_partition(simnet::fault::Partition {
            from_ms: day_end - 20_000,
            until_ms: day_end + config.grace_s + 10_000,
            nodes: (0..3).map(|i| NodeId(1 + i)).collect(),
        });
        let outcome = run_fleet(&config);
        assert!(!outcome.is_clean());
        let d0 = &outcome.deltas[0];
        assert!(d0.straggler_devices > 0, "{d0}");
        let quarantined_total: u64 = outcome.deltas.iter().map(|d| d.records_quarantined).sum();
        assert!(quarantined_total > 0, "stragglers must surface late");
        // Conservation: everything generated is published exactly once.
        assert_eq!(outcome.published_records(), outcome.generated_records);
        let published: u64 = outcome.deltas.iter().map(|d| d.records).sum();
        assert_eq!(published + quarantined_total, outcome.generated_records);
    }

    #[test]
    fn crashed_devices_resume_from_their_outbox() {
        let mut config = FleetConfig::small(14);
        // Crash device node 1 mid-day-0 for a long outage.
        config.faults = FaultPlan::none().with_crash(simnet::fault::Crash {
            node: NodeId(1),
            at_ms: 20_000,
            restart_ms: 45_000,
        });
        let outcome = run_fleet(&config);
        assert_eq!(outcome.published_records(), outcome.generated_records);
        assert!(outcome.stats.retries > 0, "crash forces retransmission");
    }
}
