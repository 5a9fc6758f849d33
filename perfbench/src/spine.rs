//! The measured spine: devices sense, stage day batches into a reliable
//! outbox and upload over the simulated network; the Hive's collector
//! closes day windows; the orchestrator publishes them per campaign.
//!
//! The benchmark composes the public pieces itself — its own device and
//! Hive actors around [`DeviceOutbox`] and [`Collector`], plain
//! [`Orchestrator::advance_day`] — so every layer boundary is a call it
//! makes and can time from outside. One [`setup`] plus one [`run`] is one
//! *iteration*; [`run`] also checks the iteration's outputs (see
//! [`Iteration::gate`]).
//!
//! Time mapping, as in `apisense::fleet`: one simulated millisecond is one
//! dataset second. Devices upload on their own sim-time timers, so the
//! uplink is an open loop in sim time; the iteration as a whole is a
//! closed batch measured in wall time.

use crate::heap;
use crate::stats::Digest;
use apisense::collect::{window_fingerprint, Collector, DeviceOutbox};
use apisense::device::{Device, DeviceId};
use apisense::hive::TaskId;
use apisense::privacy::{PrivacyPreferences, TimeWindow};
use apisense::script::{Script, Vm};
use campaign::{Campaign, CampaignOutcome, DayReport, Orchestrator};
use geo::{GeoPoint, Meters};
use mobility::gen::{thin_participation_salted, CityModel, PopulationConfig};
use mobility::{
    Dataset, DatasetWindow, LocationRecord, ParticipantFilter, Timestamp, Trajectory, UserId,
    WindowedDataset, DAY_SECONDS,
};
use privapi::attack::{PoiAttack, PoiAttackConfig};
use privapi::pipeline::PrivApiConfig;
use privapi::pool::StrategyPool;
use privapi::streaming::IngestDelta;
use simnet::fault::{Crash, Partition};
use simnet::reliable::{AckFrame, DataFrame, ReliableConfig};
use simnet::{
    Actor, Context, FaultPlan, LinkModel, Message, NetworkStats, NodeId, SimTime, Simulation,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The location task every scripted device runs once per reading.
pub const LOCATION_SCRIPT: &str = r#"
    let fix = sensor.gps();
    let battery = sensor.battery();
    if (fix != null) {
        emit({ "lat": fix.lat, "lon": fix.lon, "battery": battery });
    }
"#;

const TASK: TaskId = TaskId(1);
const TICK_UPLOAD: u64 = 1;
const TICK_RETRY: u64 = 2;
/// Devices stage and transmit every half hour of dataset time (= sim ms).
const UPLOAD_EVERY_S: u64 = 1_800;
/// Slack after midnight before a day closes, dataset seconds; data later
/// than this is quarantined into the next window.
const GRACE_S: u64 = 14_400;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every reading is one run of [`LOCATION_SCRIPT`] on the device VM;
    /// `FaultPlan::chaos` plus a partition cutting off a quarter of the
    /// fleet across the close of day [`PARTITION_DAY`] and one device crash
    /// early the next day; one campaign with a single-candidate pool.
    FleetChaos,
    /// Devices replay their generated trajectory (no VM) over a fault-free
    /// link, two boundary beacons report every day, and four campaigns on
    /// the default pool publish: two with the same config (donor sharing),
    /// one user subset (derived shards), one custom attack (its own
    /// session).
    CampaignsStream,
}

/// Input size: the benchmark's own, or a tiny one for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Bench,
    /// A few devices and days.
    Tiny,
}

/// The size of one workload's iteration.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Generated participants (one device each).
    pub users: usize,
    /// Days sensed, uploaded and published.
    pub days: i64,
    /// Sensing interval, seconds.
    pub sampling_interval_s: i64,
    /// Per-(user, day) participation; 100 keeps everyone every day.
    pub participation_pct: u64,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::FleetChaos, Workload::CampaignsStream];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::FleetChaos => "fleet_chaos",
            Workload::CampaignsStream => "campaigns_stream",
        }
    }

    /// The iteration size at `size`.
    pub fn spec(&self, size: Size) -> Spec {
        let tiny = size == Size::Tiny;
        match self {
            Workload::FleetChaos => Spec {
                users: if tiny { 32 } else { 240 },
                days: if tiny { 3 } else { 5 },
                sampling_interval_s: if tiny { 600 } else { 120 },
                participation_pct: 100,
            },
            Workload::CampaignsStream => Spec {
                users: if tiny { 24 } else { 100 },
                days: if tiny { 5 } else { 21 },
                sampling_interval_s: if tiny { 900 } else { 300 },
                participation_pct: if tiny { 50 } else { 25 },
            },
        }
    }

    /// The day whose close the partition cuts: its window and the next are
    /// the ones the partition touches.
    fn partition_day(&self) -> Option<i64> {
        (*self == Workload::FleetChaos).then_some(PARTITION_DAY)
    }
}

/// The day whose close [`Workload::FleetChaos`] partitions.
pub const PARTITION_DAY: i64 = 1;

fn day_end_ms(day: i64) -> u64 {
    (day + 1) as u64 * DAY_SECONDS as u64
}

/// A device's reading source, built in setup.
enum Source {
    Scripted(Box<ScriptedDevice>),
    Replay(Vec<LocationRecord>),
}

/// A device with its compiled task, the task's VM and its reading times.
struct ScriptedDevice {
    device: Device,
    script: Script,
    vm: Vm,
    schedule: Vec<Timestamp>,
}

/// One timed call into a layer, kept for the trace export.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Layer name.
    pub layer: &'static str,
    /// Call start.
    pub start: Instant,
    /// Call end.
    pub end: Instant,
    /// The day the call worked on, where there is one.
    pub day: Option<i64>,
}

impl Call {
    fn since(layer: &'static str, start: Instant, day: Option<i64>) -> Self {
        Self {
            layer,
            start,
            end: Instant::now(),
            day,
        }
    }
}

/// Wall time of the set-up steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Whole set-up.
    pub total: Duration,
    /// Population generation (and thinning).
    pub generate: Duration,
    /// `Script::compile`, summed over devices.
    pub compile: Duration,
}

/// Everything one iteration needs before its timed loop starts.
pub struct Prepared {
    workload: Workload,
    spec: Spec,
    sources: Vec<(UserId, Source)>,
    orchestrator: Orchestrator,
    probes: Vec<PoiAttack>,
    sim: Simulation,
    hive: NodeId,
    faults: FaultPlan,
    calls: Vec<Call>,
    /// Set-up timings.
    pub times: SetupTimes,
}

/// Generates the population, builds every device (compiling its task
/// script), the campaigns and the simulator with its Hive.
pub fn setup(workload: Workload, size: Size, seed: u64) -> Prepared {
    let spec = workload.spec(size);
    let start = Instant::now();
    let population = generate(workload, &spec, seed);
    let generated = Instant::now();
    let calls = vec![Call {
        layer: "mobility.generate",
        start,
        end: generated,
        day: None,
    }];

    let mut compile = Duration::ZERO;
    let users = population.users();
    let mut sources = Vec::with_capacity(users.len());
    for &user in &users {
        let records = population.records_of(user);
        let source = match workload {
            Workload::CampaignsStream => Source::Replay(records),
            Workload::FleetChaos => {
                let schedule = records.iter().map(|r| r.time).collect();
                let mut prefs = PrivacyPreferences::default();
                // Every fourth participant shares readings from 6:00 to
                // 22:00 only; the device filter suppresses the rest.
                if user.0 % 4 == 0 {
                    prefs = prefs.with_time_window(TimeWindow::new(6, 22));
                }
                let device =
                    Device::new(DeviceId(user.0), user, Trajectory::new(user, records))
                        .with_preferences(prefs);
                let t = Instant::now();
                let script =
                    Script::compile(LOCATION_SCRIPT).expect("the task script compiles");
                compile += t.elapsed();
                Source::Scripted(Box::new(ScriptedDevice {
                    device,
                    script,
                    vm: Vm::new(),
                    schedule,
                }))
            }
        };
        sources.push((user, source));
    }

    let (orchestrator, probes) = campaigns(workload, &spec, &users);

    let mut sim = Simulation::new(seed);
    sim.set_default_link(LinkModel::mobile());
    let mut collector = Collector::new();
    for &user in &users {
        collector.register(user.0, user);
    }
    let hive = sim.add_node("hive", Box::new(HiveActor::new(collector)));
    let faults = fault_plan(workload, seed, users.len());
    let times = SetupTimes {
        total: start.elapsed(),
        generate: generated - start,
        compile,
    };
    Prepared {
        workload,
        spec,
        sources,
        orchestrator,
        probes,
        sim,
        hive,
        faults,
        calls,
        times,
    }
}

/// The seeded population: generated, thinned, plus the beacons of
/// [`Workload::CampaignsStream`], which pin a user subset's bounding box
/// (and so its extraction grid) to the population's.
fn generate(workload: Workload, spec: &Spec, seed: u64) -> Dataset {
    let population =
        CityModel::builder()
            .seed(seed)
            .build()
            .generate_population(&PopulationConfig {
                users: spec.users,
                days: spec.days as usize,
                sampling_interval_s: spec.sampling_interval_s,
                ..PopulationConfig::default()
            });
    let population = if spec.participation_pct < 100 {
        thin_participation_salted(&population, spec.participation_pct, seed)
    } else {
        population
    };
    if workload != Workload::CampaignsStream {
        return population;
    }
    let bbox = population
        .bounding_box()
        .expect("generated population is non-empty");
    let corners = [
        GeoPoint::clamped(bbox.min().latitude() - 0.05, bbox.min().longitude() - 0.05),
        GeoPoint::clamped(bbox.max().latitude() + 0.05, bbox.max().longitude() + 0.05),
    ];
    let mut records: Vec<LocationRecord> = population.iter_records().copied().collect();
    for (slot, site) in corners.into_iter().enumerate() {
        let beacon = UserId((spec.users + slot) as u64);
        for day in 0..spec.days {
            for hour in 0..4 {
                let time = Timestamp::new(day * DAY_SECONDS + hour * 3_600);
                records.push(LocationRecord::new(beacon, time, site));
            }
        }
    }
    Dataset::from_records(records)
}

/// The campaign mix and the attack probes whose extraction counters the
/// per-layer report reads.
fn campaigns(
    workload: Workload,
    spec: &Spec,
    users: &[UserId],
) -> (Orchestrator, Vec<PoiAttack>) {
    let privacy = PrivApiConfig::default();
    let default_probe = PoiAttack::default();
    let mut orchestrator = Orchestrator::new();
    let mut register = |campaign: Campaign| {
        orchestrator
            .register(campaign)
            .expect("campaign ids are distinct");
    };
    let probes = match workload {
        Workload::FleetChaos => {
            let pool = StrategyPool::new()
                .with_speed_smoothing(&[200.0])
                .expect("static params");
            register(
                Campaign::new(1, "fleet", privacy)
                    .with_pool(pool)
                    .with_attack(default_probe.clone()),
            );
            vec![default_probe]
        }
        Workload::CampaignsStream => {
            let custom_probe = PoiAttack::new(PoiAttackConfig {
                match_distance: Meters::new(400.0),
                ..PoiAttackConfig::default()
            });
            // The subset: the first half of the participants plus the
            // beacons, which pin its bounding box to the population's.
            let half = (spec.users / 2) as u64;
            let subset: Vec<UserId> = users
                .iter()
                .copied()
                .filter(|u| u.0 < half || u.0 >= spec.users as u64)
                .collect();
            for id in [1, 2] {
                register(
                    Campaign::new(id, format!("city-{id}"), privacy)
                        .with_attack(default_probe.clone()),
                );
            }
            register(
                Campaign::new(3, "subset", privacy)
                    .with_filter(ParticipantFilter::users(subset))
                    .with_attack(default_probe.clone()),
            );
            register(
                Campaign::new(4, "custom-attack", privacy).with_attack(custom_probe.clone()),
            );
            vec![default_probe, custom_probe]
        }
    };
    (orchestrator, probes)
}

/// Device nodes are added after the Hive, in user order: device `i` is
/// `NodeId(1 + i)`.
fn fault_plan(workload: Workload, seed: u64, devices: usize) -> FaultPlan {
    let Some(day) = workload.partition_day() else {
        return FaultPlan::none();
    };
    let day_end = day_end_ms(day);
    let cut = (devices / 4).max(1);
    FaultPlan::chaos(seed)
        .with_partition(Partition {
            from_ms: day_end - 20_000,
            until_ms: day_end + GRACE_S + 10_000,
            nodes: (1..=cut as u32).map(NodeId).collect(),
        })
        .with_crash(Crash {
            node: NodeId(devices as u32),
            // The last device, off the partition, early the next day.
            at_ms: day_end + 20_000,
            restart_ms: day_end + 45_000,
        })
}

/// A smartphone: stages day batches on its own timer, pumps the reliable
/// sender, applies acks, and survives crash/restart.
struct DeviceActor {
    hive: NodeId,
    outbox: DeviceOutbox,
    last_day: i64,
    ack_latencies_ms: Vec<u64>,
    batches_staged: u64,
    traced: bool,
    busy: Duration,
}

impl DeviceActor {
    fn pump(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now().as_millis();
        for tx in self.outbox.sender_mut().poll(now) {
            if tx.retransmit {
                ctx.note_retry();
            }
            ctx.send(self.hive, tx.frame.to_message());
        }
        if let Some(due) = self.outbox.sender().next_due() {
            ctx.set_timer(due.saturating_sub(now).max(1), TICK_RETRY);
        }
    }

    fn timed(&mut self, ctx: &mut Context<'_>, f: impl FnOnce(&mut Self, &mut Context<'_>)) {
        if self.traced {
            let start = Instant::now();
            f(self, ctx);
            self.busy += start.elapsed();
        } else {
            f(self, ctx);
        }
    }
}

impl Actor for DeviceActor {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, msg: Message) {
        self.timed(ctx, |this, ctx| {
            if let Ok(ack) = AckFrame::from_message(&msg) {
                let now = ctx.now().as_millis();
                let acked = this.outbox.sender_mut().on_ack(&ack, now);
                this.ack_latencies_ms.extend(acked);
                this.pump(ctx);
            }
        });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer_id: u64) {
        self.timed(ctx, |this, ctx| {
            if timer_id == TICK_UPLOAD {
                this.batches_staged += this.outbox.stage(ctx.now().as_millis() as i64) as u64;
                this.pump(ctx);
                if !this.outbox.drained(this.last_day) {
                    ctx.set_timer(UPLOAD_EVERY_S, TICK_UPLOAD);
                }
            } else {
                this.pump(ctx);
            }
        });
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        self.timed(ctx, |this, ctx| {
            // The staged outbox is flash-durable; in-flight state is not.
            this.outbox.sender_mut().crash();
            ctx.set_timer(1, TICK_UPLOAD);
        });
    }
}

/// The Hive's ingestion front.
struct HiveActor {
    collector: Collector,
    frames: u64,
    traced: bool,
    busy: Duration,
}

impl HiveActor {
    fn new(collector: Collector) -> Self {
        Self {
            collector,
            frames: 0,
            traced: false,
            busy: Duration::ZERO,
        }
    }
}

impl Actor for HiveActor {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Message) {
        let start = self.traced.then(Instant::now);
        if let Ok(frame) = DataFrame::from_message(&msg) {
            self.frames += 1;
            if let Ok(ack) = self.collector.ingest(&frame) {
                ctx.send(from, ack.to_message());
            }
        }
        if let Some(start) = start {
            self.busy += start.elapsed();
        }
    }
}

/// Wall time of one iteration's layers. Fine-grained entries (device and
/// Hive callbacks) are only timed in traced iterations; the rest always.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Script execution over every device's schedule.
    pub sense: Duration,
    /// Loading sensed records into the device outboxes and adding the
    /// device nodes.
    pub wire: Duration,
    /// `Simulation::run_until` / `run`, callbacks included.
    pub sim: Duration,
    /// Device actor callbacks (traced only).
    pub device_callbacks: Duration,
    /// Hive actor callbacks (traced only).
    pub hive_callbacks: Duration,
    /// `Collector::close_day`.
    pub close: Duration,
    /// `Orchestrator::advance_day`.
    pub advance: Duration,
}

/// Counters of one iteration, identical across iterations of one seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Records sensed (what devices staged for upload).
    pub sensed: u64,
    /// Records published in day windows.
    pub published: u64,
    /// Sensed records not published in their own day's window.
    pub missed: u64,
    /// Script runs.
    pub script_execs: u64,
    /// Records the scripts emitted that passed the privacy filter.
    pub script_records: u64,
    /// Records the device privacy filter suppressed.
    pub script_suppressed: u64,
    /// Day batches staged into outboxes.
    pub batches_staged: u64,
    /// Data frames the Hive received (duplicates included).
    pub frames: u64,
    /// Duplicate frame deliveries absorbed.
    pub duplicates: u64,
    /// Records quarantined into a later window.
    pub quarantined: u64,
    /// Records stuck behind a sequence gap at a close.
    pub deferred: u64,
    /// Devices behind at a close, summed over closes.
    pub stragglers: u64,
    /// Windows closed.
    pub windows: u64,
    /// Network counters.
    pub net: NetworkStats,
    /// Campaign-days attempted (published or failed).
    pub attempted: u64,
    /// `CampaignOutcome::Failed` outcomes.
    pub failed: u64,
    /// Releases published.
    pub releases: u64,
    /// Per-user attack extractions over every probe.
    pub user_extractions: u64,
    /// Protected-side users re-anonymized.
    pub users_refreshed: u64,
    /// Protected-side users reused untouched.
    pub users_reused: u64,
    /// Protected-side users adopted from a donor campaign.
    pub users_donated: u64,
    /// Original-side shards derived from a shared session.
    pub shards_derived: u64,
    /// Releases whose utility baseline was folded in place.
    pub baseline_reuses: u64,
    /// Per-chunk enqueue→ack latencies, simulated ms, ascending.
    pub ack_latencies_ms: Vec<u64>,
    /// Digest of every release of the iteration.
    pub digest: u64,
}

/// One finished iteration.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Set-up timings.
    pub setup: SetupTimes,
    /// Loop timings.
    pub layers: LayerTimes,
    /// Counters.
    pub counts: Counts,
    /// Bench-side work inside the loop that no layer owns (oracle summary,
    /// release digests, gate checks, teardown), excluded from every timing.
    pub excluded: Duration,
    /// Live heap at its highest from the last [`heap::reset_peak`] to the
    /// end of the timed loop, bytes. Bench-side work is kept out of it.
    pub peak_heap: usize,
    /// The coarse layer calls, in order.
    pub calls: Vec<Call>,
    /// The correctness gates' verdict.
    pub gate: Result<(), String>,
}

/// Bench-side work inside the timed loop: its time goes to `excluded` and
/// its allocations do not count towards the heap peak.
fn bench_side<T>(excluded: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = heap::outside_peak(f);
    *excluded += start.elapsed();
    out
}

/// Runs the timed loop of one iteration — sense, upload, close and publish
/// every day — then checks its outputs. `traced` additionally times every
/// device and Hive callback.
pub fn run(prepared: Prepared, traced: bool) -> Iteration {
    let Prepared {
        workload,
        spec,
        sources,
        mut orchestrator,
        probes,
        mut sim,
        hive,
        faults,
        mut calls,
        times: setup,
    } = prepared;
    let mut layers = LayerTimes::default();
    let mut counts = Counts::default();
    let mut excluded = Duration::ZERO;

    let start = Instant::now();
    let mut sensed: Vec<(UserId, Vec<LocationRecord>)> = Vec::with_capacity(sources.len());
    for (user, source) in sources {
        match source {
            Source::Replay(records) => sensed.push((user, records)),
            Source::Scripted(scripted) => {
                let ScriptedDevice {
                    mut device,
                    script,
                    mut vm,
                    schedule,
                } = *scripted;
                let mut records = Vec::with_capacity(schedule.len());
                for &at in &schedule {
                    for reading in device.sample_scripted(TASK, &script, &mut vm, at) {
                        records.extend(reading.to_location_record());
                    }
                }
                counts.script_execs += schedule.len() as u64;
                counts.script_records += records.len() as u64;
                counts.script_suppressed += device.records_suppressed();
                sensed.push((user, records));
            }
        }
    }
    layers.sense = start.elapsed();
    calls.push(Call::since("script.sense", start, None));

    let oracle = bench_side(&mut excluded, || {
        Oracle::of(sensed.iter().flat_map(|(_, r)| r.iter().copied()).collect())
    });
    counts.sensed = oracle.records.count;
    let mut gates = Gates::new(oracle, workload.partition_day());

    let start = Instant::now();
    if let Some(h) = sim.actor_as_mut::<HiveActor>(hive) {
        h.traced = traced;
    }
    let mut nodes = Vec::with_capacity(sensed.len());
    for (user, records) in sensed {
        let outbox = DeviceOutbox::new(user.0, user, ReliableConfig::default(), records);
        let node = sim.add_node(
            &format!("device-{}", user.0),
            Box::new(DeviceActor {
                hive,
                outbox,
                last_day: spec.days - 1,
                ack_latencies_ms: Vec::new(),
                batches_staged: 0,
                traced,
                busy: Duration::ZERO,
            }),
        );
        assert_eq!(node, NodeId(1 + nodes.len() as u32), "fault plan node ids");
        nodes.push(node);
    }
    sim.set_fault_plan(faults);
    for (i, &node) in nodes.iter().enumerate() {
        // Stagger first ticks so the fleet does not upload in lockstep.
        sim.post_timer(node, 1 + (i as u64 % 97), TICK_UPLOAD);
    }
    layers.wire = start.elapsed();
    calls.push(Call::since("collect.wire", start, None));

    let mut digest = Digest::default();
    let mut publish = |sim: &mut Simulation,
                       day: i64,
                       layers: &mut LayerTimes,
                       calls: &mut Vec<Call>,
                       excluded: &mut Duration| {
        let start = Instant::now();
        let collector = &mut sim
            .actor_as_mut::<HiveActor>(hive)
            .expect("hive actor")
            .collector;
        let (window, delta) = collector.close_day(day).expect("days close in order");
        let closed = Instant::now();
        let report = orchestrator.advance_day(&window).expect("windows ascend");
        let done = Instant::now();
        layers.close += closed - start;
        layers.advance += done - closed;
        calls.push(Call {
            layer: "collect.close",
            start,
            end: closed,
            day: Some(day),
        });
        calls.push(Call {
            layer: "campaign.advance",
            start: closed,
            end: done,
            day: Some(day),
        });
        bench_side(excluded, || {
            digest_report(&mut digest, &report, &mut counts);
            gates.window(&window, &delta, &mut counts);
            drop((window, report));
        });
    };
    for day in 0..spec.days {
        let start = Instant::now();
        sim.run_until(SimTime::from_millis(day_end_ms(day) + GRACE_S));
        layers.sim += start.elapsed();
        calls.push(Call::since("simnet.run", start, Some(day)));
        publish(&mut sim, day, &mut layers, &mut calls, &mut excluded);
    }
    // Drain what the faults delayed past the last close; stragglers still
    // in flight then land in one trailing window.
    let start = Instant::now();
    sim.run();
    layers.sim += start.elapsed();
    calls.push(Call::since("simnet.run", start, None));
    let backlog = sim
        .actor_as::<HiveActor>(hive)
        .expect("hive actor")
        .collector
        .has_backlog();
    if backlog {
        publish(&mut sim, spec.days, &mut layers, &mut calls, &mut excluded);
    }
    let peak_heap = heap::peak_bytes();

    let start = Instant::now();
    counts.digest = digest.value();
    for &node in &nodes {
        let device = sim.actor_as::<DeviceActor>(node).expect("device actor");
        counts
            .ack_latencies_ms
            .extend_from_slice(&device.ack_latencies_ms);
        counts.batches_staged += device.batches_staged;
        layers.device_callbacks += device.busy;
    }
    counts.ack_latencies_ms.sort_unstable();
    let hive_actor = sim.actor_as::<HiveActor>(hive).expect("hive actor");
    counts.frames = hive_actor.frames;
    counts.duplicates = hive_actor.collector.duplicates_absorbed();
    layers.hive_callbacks = hive_actor.busy;
    counts.net = sim.stats();
    counts.user_extractions = probes.iter().map(|p| p.user_extractions() as u64).sum();
    let gate = gates.finish(&counts);
    drop((sim, orchestrator));
    excluded += start.elapsed();
    Iteration {
        setup,
        layers,
        counts,
        excluded,
        peak_heap,
        calls,
        gate,
    }
}

/// Folds one day's outcomes into the release digest and the counters.
fn digest_report(digest: &mut Digest, report: &DayReport, counts: &mut Counts) {
    digest.write_u64(report.day as u64);
    for (id, outcome) in &report.outcomes {
        digest.write_u64(id.0);
        match outcome {
            CampaignOutcome::Published(release) => {
                counts.attempted += 1;
                counts.releases += 1;
                counts.users_refreshed += release.strategies.users_refreshed as u64;
                counts.users_reused += release.strategies.users_reused as u64;
                counts.users_donated += release.strategies.users_donated as u64;
                counts.shards_derived += release.delta.users_derived as u64;
                counts.baseline_reuses += u64::from(release.baseline.reused);
                digest.write(release.published.strategy.to_string().as_bytes());
                let window =
                    DatasetWindow::from_parts(report.day, release.published.dataset.clone());
                digest.write(&window_fingerprint(&window));
            }
            CampaignOutcome::Failed(error) => {
                counts.attempted += 1;
                counts.failed += 1;
                digest.write(error.to_string().as_bytes());
            }
            CampaignOutcome::Skipped(reason) => digest.write(format!("{reason:?}").as_bytes()),
        }
    }
}

/// The digest of a window's `window_fingerprint` bytes.
fn fingerprint_digest(window: &DatasetWindow) -> u64 {
    let mut digest = Digest::default();
    digest.write(&window_fingerprint(window));
    digest.value()
}

/// An order-independent digest of a record multiset: the count and the
/// wrapping sum of a 64-bit hash of each record. Equal multisets always
/// agree; a lost, duplicated or altered record shows up to a 2^-64 chance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Multiset {
    count: u64,
    sum: u64,
}

impl Multiset {
    fn add(&mut self, record: &LocationRecord) {
        let mut digest = Digest::default();
        digest.write_u64(record.user.0);
        digest.write_u64(record.time.seconds() as u64);
        digest.write_u64(record.point.latitude().to_bits());
        digest.write_u64(record.point.longitude().to_bits());
        // The splitmix64 finaliser spreads FNV's low-entropy high bits.
        let mut h = digest.value();
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.count += 1;
        self.sum = self.sum.wrapping_add(h ^ (h >> 31));
    }
}

/// What the gates need of the sensed records: per day, the record count
/// and the fingerprint digest of the partition oracle's window (the sensed
/// records partitioned by day), and the sensed multiset. It is small, so
/// the benchmark's own memory stays out of the heap peak.
struct Oracle {
    days: BTreeMap<i64, (u64, u64)>,
    records: Multiset,
}

impl Oracle {
    fn of(sensed: Vec<LocationRecord>) -> Self {
        let mut records = Multiset::default();
        for record in &sensed {
            records.add(record);
        }
        let days = WindowedDataset::partition(&Dataset::from_records(sensed))
            .iter()
            .map(|w| (w.day(), (w.record_count() as u64, fingerprint_digest(w))))
            .collect();
        Self { days, records }
    }
}

/// The correctness gates of one iteration, checked as each window closes
/// so that no window has to be kept:
///
/// * every sensed record is published exactly once (equal record
///   multisets), and each window's own-day and quarantined counts match its
///   `IngestDelta`;
/// * windows of days the partition did not touch (all days without faults)
///   are byte-identical to the partition oracle's (equal fingerprint
///   digests);
/// * no campaign release failed.
struct Gates {
    oracle: Oracle,
    partition_day: Option<i64>,
    published: Multiset,
    late: u64,
    error: Option<String>,
}

impl Gates {
    fn new(oracle: Oracle, partition_day: Option<i64>) -> Self {
        Self {
            oracle,
            partition_day,
            published: Multiset::default(),
            late: 0,
            error: None,
        }
    }

    fn fail(&mut self, error: String) {
        self.error.get_or_insert(error);
    }

    /// Checks one closed window and folds its counters into `counts`.
    fn window(&mut self, window: &DatasetWindow, delta: &IngestDelta, counts: &mut Counts) {
        let day = window.day();
        let (mut own, mut late) = (0u64, 0u64);
        for record in window.dataset().iter_records() {
            match record.time.day_index().cmp(&day) {
                std::cmp::Ordering::Equal => own += 1,
                std::cmp::Ordering::Less => late += 1,
                std::cmp::Ordering::Greater => {
                    self.fail(format!("window {day} holds a record of a later day"))
                }
            }
            self.published.add(record);
        }
        if own != delta.records || late != delta.records_quarantined {
            self.fail(format!(
                "window {day}: {own} own + {late} late records, ingest audit says {} + {}",
                delta.records, delta.records_quarantined
            ));
        }
        let (expected, want) = match self.oracle.days.get(&day) {
            Some(&oracle) => oracle,
            None => (
                0,
                fingerprint_digest(&DatasetWindow::from_parts(day, Dataset::new())),
            ),
        };
        counts.windows += 1;
        counts.published += own + late;
        counts.missed += expected.saturating_sub(own);
        counts.quarantined += delta.records_quarantined;
        counts.deferred += delta.records_deferred;
        counts.stragglers += delta.straggler_devices;
        self.late += late;
        let touched = self.partition_day.is_some_and(|p| day == p || day == p + 1);
        if !touched && fingerprint_digest(window) != want {
            self.fail(format!("window {day} differs from the partition oracle"));
        }
    }

    /// The verdict once every window has been checked.
    fn finish(self, counts: &Counts) -> Result<(), String> {
        if let Some(error) = self.error {
            return Err(error);
        }
        if counts.published != counts.sensed || counts.missed != self.late {
            return Err(format!(
                "{} records sensed, {} published, {} missed their day but {} arrived late",
                counts.sensed, counts.published, counts.missed, self.late
            ));
        }
        if self.published != self.oracle.records {
            return Err("published records are not the sensed records".into());
        }
        if counts.failed > 0 {
            return Err(format!("{} campaign releases failed", counts.failed));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two users, two fixes each on days 0 and 1, and the windows a clean
    /// upload publishes for them.
    fn clean() -> (Vec<LocationRecord>, Vec<(DatasetWindow, IngestDelta)>) {
        let mut records = Vec::new();
        for user in 0..2 {
            for t in [100, 200, DAY_SECONDS + 100, DAY_SECONDS + 200] {
                let point = GeoPoint::new(45.0 + user as f64 * 0.01, 4.0).unwrap();
                records.push(LocationRecord::new(UserId(user), Timestamp::new(t), point));
            }
        }
        let windows = WindowedDataset::partition(&Dataset::from_records(records.clone()))
            .iter()
            .map(|w| {
                let mut delta = IngestDelta::new(w.day());
                delta.records = w.record_count() as u64;
                (w.clone(), delta)
            })
            .collect();
        (records, windows)
    }

    /// Runs the gates over `windows` of `sensed`, the partition touching
    /// `partition_day` and the next day.
    fn gate(
        sensed: Vec<LocationRecord>,
        windows: &[(DatasetWindow, IngestDelta)],
        counts: &mut Counts,
        partition_day: Option<i64>,
    ) -> Result<(), String> {
        let mut gates = Gates::new(Oracle::of(sensed), partition_day);
        counts.sensed = gates.oracle.records.count;
        for (window, delta) in windows {
            gates.window(window, delta, counts);
        }
        gates.finish(counts)
    }

    /// Window 1 with its first trajectory's first record replaced by `f` of
    /// it (or dropped for `None`).
    fn edit_window_1(
        windows: &mut [(DatasetWindow, IngestDelta)],
        f: impl Fn(LocationRecord) -> Option<LocationRecord>,
    ) {
        let window = &mut windows[1].0;
        let mut trajectories = window.dataset().clone().into_trajectories();
        let mut kept = trajectories[0].records().to_vec();
        match f(kept[0]) {
            Some(record) => kept[0] = record,
            None => {
                kept.remove(0);
            }
        }
        trajectories[0] = Trajectory::new(trajectories[0].user(), kept);
        *window = DatasetWindow::from_parts(1, Dataset::from_trajectories(trajectories));
    }

    #[test]
    fn gates_pass_a_clean_upload() {
        let (sensed, windows) = clean();
        let mut counts = Counts::default();
        assert_eq!(gate(sensed, &windows, &mut counts, None), Ok(()));
        assert_eq!((counts.published, counts.missed, counts.windows), (8, 0, 2));
    }

    #[test]
    fn gates_catch_a_lost_record() {
        let (sensed, mut windows) = clean();
        edit_window_1(&mut windows, |_| None);
        windows[1].1.records -= 1;
        assert!(gate(sensed, &windows, &mut Counts::default(), None).is_err());
    }

    #[test]
    fn gates_catch_an_altered_record_in_a_partitioned_window() {
        let (sensed, mut windows) = clean();
        edit_window_1(&mut windows, |r| {
            Some(LocationRecord::new(
                r.user,
                r.time,
                GeoPoint::new(r.point.latitude() + 0.001, r.point.longitude()).unwrap(),
            ))
        });
        // Day 1 is exempt from the oracle comparison; the multiset is not.
        let err = gate(sensed, &windows, &mut Counts::default(), Some(0));
        assert_eq!(
            err,
            Err("published records are not the sensed records".into())
        );
    }

    #[test]
    fn gates_catch_a_misreported_quarantine() {
        let (sensed, mut windows) = clean();
        windows[1].1.records_quarantined = 1;
        assert!(gate(sensed, &windows, &mut Counts::default(), None).is_err());
    }

    #[test]
    fn gates_catch_a_failed_release() {
        let (sensed, windows) = clean();
        let mut counts = Counts {
            failed: 1,
            ..Counts::default()
        };
        assert!(gate(sensed, &windows, &mut counts, None).is_err());
    }
}
