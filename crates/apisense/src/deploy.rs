//! End-to-end campaign deployment over the simulated network.
//!
//! This wires the whole of Figure 1 together as [`simnet`] actors:
//! a Honeycomb uploads its task to the Hive, the Hive offloads the script to
//! every registered device, devices execute it on their own schedule and
//! stream records back, and the Hive forwards them to the Honeycomb.
//! Experiment E4 measures deployment latency and collection throughput on
//! this pipeline as the population grows.
//!
//! Time convention: 1 simulated millisecond = 1 wall-clock millisecond;
//! device clocks map to mobility [`Timestamp`]s as
//! `start_time + sim_ms / 1000`.

use crate::device::{Device, DeviceId, SensedRecord};
use crate::hive::TaskId;
use crate::honeycomb::SensingTask;
use crate::script::{Script, Value};
use mobility::gen::{CityModel, PopulationConfig};
use mobility::{Timestamp, Trajectory, UserId};
use simnet::wire::{Decode, Encode};
use simnet::{Actor, Context, LinkModel, Message, NodeId, SimTime, Simulation};
use std::collections::BTreeMap;

/// Message kinds used by the deployment protocol.
mod kind {
    /// Honeycomb → Hive: publish a task.
    pub const TASK_UPLOAD: u16 = 1;
    /// Hive → device: offload a task script.
    pub const TASK_DEPLOY: u16 = 2;
    /// Device → Hive: deployment acknowledgement.
    pub const DEPLOY_ACK: u16 = 3;
    /// Device → Hive: a batch of sensed records.
    pub const RECORDS: u16 = 4;
    /// Hive → Honeycomb: forwarded records.
    pub const RECORDS_FORWARD: u16 = 5;
    /// Device → Hive: deployment refusal, the payload being the reason.
    pub const DEPLOY_REFUSED: u16 = 6;
}

/// Wire form of a record batch entry.
type WireRecord = (u64, (u64, (i64, String)));

fn encode_records(records: &[SensedRecord]) -> Vec<u8> {
    let entries: Vec<WireRecord> = records
        .iter()
        .map(|r| {
            let payload = r.payload.to_json();
            (r.user.0, (r.device.0, (r.time.seconds(), payload)))
        })
        .collect();
    entries.encode_to_vec()
}

fn decode_records(task: TaskId, payload: &[u8]) -> Vec<SensedRecord> {
    let Ok(entries) = Vec::<WireRecord>::decode_from_slice(payload) else {
        return Vec::new();
    };
    entries
        .into_iter()
        .map(|(user, (device, (time, json)))| SensedRecord {
            task,
            user: UserId(user),
            device: DeviceId(device),
            time: Timestamp::new(time),
            payload: Value::from_json(&json).unwrap_or(Value::Null),
        })
        .collect()
}

/// The Honeycomb endpoint actor: uploads the task once, then accumulates
/// forwarded records.
#[derive(Debug)]
pub struct HoneycombActor {
    hive: NodeId,
    task_name: String,
    script_source: String,
    sampling_interval_s: i64,
    min_battery: f64,
    /// Records received back, in arrival order.
    pub received: Vec<SensedRecord>,
}

impl HoneycombActor {
    /// Creates the actor from a task definition.
    pub fn new(hive: NodeId, task: &SensingTask) -> Self {
        Self {
            hive,
            task_name: task.name().to_string(),
            script_source: task.script().source().to_string(),
            sampling_interval_s: task.sampling_interval_s(),
            min_battery: task.min_battery(),
            received: Vec::new(),
        }
    }
}

impl Actor for HoneycombActor {
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer_id: u64) {
        // Fired once at campaign start: upload the task to the Hive.
        let payload = (
            self.task_name.clone(),
            (
                self.script_source.clone(),
                (self.sampling_interval_s, self.min_battery),
            ),
        )
            .encode_to_vec();
        ctx.send(self.hive, Message::event(kind::TASK_UPLOAD, payload));
    }

    fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, msg: Message) {
        if msg.kind == kind::RECORDS_FORWARD {
            self.received
                .extend(decode_records(TaskId(msg.request_id), &msg.payload));
        }
    }
}

/// The Hive actor: offloads uploaded tasks to the device fleet and routes
/// records back to the owning Honeycomb.
#[derive(Debug)]
pub struct HiveActor {
    devices: Vec<NodeId>,
    honeycomb_of: BTreeMap<u64, NodeId>,
    next_task: u64,
    /// Deployment acknowledgement times per task, in sim milliseconds.
    pub ack_times_ms: BTreeMap<u64, Vec<u64>>,
    /// Refused deployments per task: each refusing device and its reason.
    pub refusals: BTreeMap<u64, Vec<(NodeId, String)>>,
    /// When each task was offloaded, in sim milliseconds.
    pub deploy_start_ms: BTreeMap<u64, u64>,
    /// Records routed through the Hive.
    pub routed_records: u64,
}

impl HiveActor {
    /// Creates the actor with the fleet's node addresses.
    pub fn new(devices: Vec<NodeId>) -> Self {
        Self {
            devices,
            honeycomb_of: BTreeMap::new(),
            next_task: 0,
            ack_times_ms: BTreeMap::new(),
            refusals: BTreeMap::new(),
            deploy_start_ms: BTreeMap::new(),
            routed_records: 0,
        }
    }
}

impl Actor for HiveActor {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Message) {
        match msg.kind {
            kind::TASK_UPLOAD => {
                self.next_task += 1;
                let task_id = self.next_task;
                self.honeycomb_of.insert(task_id, from);
                self.deploy_start_ms.insert(task_id, ctx.now().as_millis());
                for device in self.devices.clone() {
                    // The deploy message carries the task id as the RPC
                    // correlation id so acks and records can be routed.
                    ctx.send(
                        device,
                        Message {
                            kind: kind::TASK_DEPLOY,
                            request_id: task_id,
                            payload: msg.payload.clone(),
                        },
                    );
                }
            }
            kind::DEPLOY_ACK => {
                self.ack_times_ms
                    .entry(msg.request_id)
                    .or_default()
                    .push(ctx.now().as_millis());
            }
            kind::DEPLOY_REFUSED => {
                let reason = String::decode_from_slice(&msg.payload).unwrap_or_default();
                self.refusals
                    .entry(msg.request_id)
                    .or_default()
                    .push((from, reason));
            }
            kind::RECORDS => {
                let task_id = msg.request_id;
                if let Some(&honeycomb) = self.honeycomb_of.get(&task_id) {
                    self.routed_records += 1;
                    ctx.send(
                        honeycomb,
                        Message {
                            kind: kind::RECORDS_FORWARD,
                            request_id: task_id,
                            payload: msg.payload,
                        },
                    );
                }
            }
            _ => {}
        }
    }
}

/// A device actor: runs the client runtime, samples on its schedule and
/// uploads its outbox.
#[derive(Debug)]
pub struct DeviceActor {
    device: Device,
    hive: NodeId,
    start_time: Timestamp,
    task: Option<(u64, i64)>,
    /// Records uploaded so far.
    pub uploaded: u64,
}

impl DeviceActor {
    /// Creates the actor.
    pub fn new(device: Device, hive: NodeId, start_time: Timestamp) -> Self {
        Self {
            device,
            hive,
            start_time,
            task: None,
            uploaded: 0,
        }
    }

    fn device_time(&self, now: SimTime) -> Timestamp {
        self.start_time + (now.as_millis() / 1_000) as i64
    }
}

impl Actor for DeviceActor {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, msg: Message) {
        if msg.kind != kind::TASK_DEPLOY {
            return;
        }
        let compiled = <(String, (String, (i64, f64)))>::decode_from_slice(&msg.payload)
            .map_err(|e| format!("malformed deployment: {e}"))
            .and_then(|(_name, (source, schedule))| {
                Script::compile(&source)
                    .map(|script| (script, schedule))
                    .map_err(|e| e.to_string())
            });
        let (script, (interval_s, min_battery)) = match compiled {
            Ok(deployment) => deployment,
            Err(reason) => {
                // Refuse out loud, so the Hive can tell a refused script
                // from a lost frame; a running task keeps running.
                let refusal = reason.encode_to_vec();
                let answer = Message::response_to(&msg, kind::DEPLOY_REFUSED, refusal);
                return ctx.send(self.hive, answer);
            }
        };
        let task_id = msg.request_id;
        let now = self.device_time(ctx.now());
        self.device
            .install(TaskId(task_id), script, interval_s, min_battery, now);
        self.task = Some((task_id, interval_s));
        ctx.send(
            self.hive,
            Message::response_to(&msg, kind::DEPLOY_ACK, Vec::new()),
        );
        // Start the sampling loop.
        ctx.set_timer(0, task_id);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer_id: u64) {
        let Some((task_id, interval_s)) = self.task else {
            return;
        };
        if timer_id != task_id {
            return;
        }
        let now = self.device_time(ctx.now());
        self.device.tick(now);
        let outbox = self.device.drain_outbox();
        if !outbox.is_empty() {
            self.uploaded += outbox.len() as u64;
            ctx.send(
                self.hive,
                Message {
                    kind: kind::RECORDS,
                    request_id: task_id,
                    payload: encode_records(&outbox).into(),
                },
            );
        }
        if !self.device.battery().is_depleted() {
            ctx.set_timer((interval_s * 1_000) as u64, task_id);
        }
    }
}

/// Configuration of a simulated campaign (experiment E4).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Fleet size.
    pub devices: usize,
    /// Campaign duration, in simulated seconds.
    pub duration_s: u64,
    /// Device ↔ Hive link model.
    pub device_link: LinkModel,
    /// Honeycomb ↔ Hive link model.
    pub backbone_link: LinkModel,
    /// RNG seed (drives mobility and the network).
    pub seed: u64,
    /// On-device sampling interval, seconds.
    pub sampling_interval_s: i64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            devices: 50,
            duration_s: 6 * 3_600,
            device_link: LinkModel::mobile(),
            backbone_link: LinkModel::wan(),
            seed: 0xE4,
            sampling_interval_s: 300,
        }
    }
}

/// Outcome of a simulated campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Devices the task was offloaded to.
    pub deployed_devices: usize,
    /// Devices that acknowledged the deployment.
    pub acked_devices: usize,
    /// Median time from upload to device acknowledgement, milliseconds.
    pub deploy_latency_p50_ms: u64,
    /// 95th-percentile deployment latency, milliseconds.
    pub deploy_latency_p95_ms: u64,
    /// Records received by the Honeycomb.
    pub records_received: usize,
    /// Records uploaded by devices.
    pub records_uploaded: u64,
    /// Collection throughput, records per simulated second.
    pub throughput_rps: f64,
    /// Network delivery ratio.
    pub delivery_ratio: f64,
}

/// Runs a full campaign and reports platform metrics.
pub fn run_campaign(task: &SensingTask, config: &CampaignConfig) -> CampaignReport {
    // Synthetic population: one device per user, trajectories from the city
    // model (enough days to cover the campaign).
    let days = (config.duration_s / 86_400 + 2) as usize;
    let city = CityModel::builder().seed(config.seed).build();
    let data = city.generate_population(&PopulationConfig {
        users: config.devices,
        days,
        sampling_interval_s: 60,
        ..PopulationConfig::default()
    });

    let mut sim = Simulation::new(config.seed);
    sim.set_default_link(config.device_link);

    // Campaign starts at 07:00 of day 0 so devices are active.
    let start_time = Timestamp::from_day_time(0, 7, 0, 0);

    // Create the hive first (placeholder node wiring: hive needs device ids,
    // devices need the hive id — allocate hive last but reference by the
    // known next index).
    let device_nodes: Vec<NodeId> = (0..config.devices as u32).map(NodeId).collect();
    let hive_node = NodeId(config.devices as u32);
    let honeycomb_node = NodeId(config.devices as u32 + 1);

    for (i, user) in data.users().iter().enumerate() {
        let records = data.records_of(*user);
        let trajectory = Trajectory::new(*user, records);
        let device = Device::new(DeviceId(i as u64), *user, trajectory);
        let node = sim.add_node(
            &format!("device-{i}"),
            Box::new(DeviceActor::new(device, hive_node, start_time)),
        );
        debug_assert_eq!(node, device_nodes[i]);
    }
    let node = sim.add_node("hive", Box::new(HiveActor::new(device_nodes)));
    debug_assert_eq!(node, hive_node);
    let node = sim.add_node("honeycomb", Box::new(HoneycombActor::new(hive_node, task)));
    debug_assert_eq!(node, honeycomb_node);

    sim.set_link_bidirectional(honeycomb_node, hive_node, config.backbone_link);

    // Kick off: the honeycomb uploads at t=0.
    sim.post_timer(honeycomb_node, 0, 0);
    sim.run_until(SimTime::from_millis(config.duration_s * 1_000));

    let stats = sim.stats();
    let hive = sim
        .actor_as::<HiveActor>(hive_node)
        .expect("hive actor type");
    let mut ack_latencies: Vec<u64> = Vec::new();
    for (task_id, acks) in &hive.ack_times_ms {
        let start = hive.deploy_start_ms.get(task_id).copied().unwrap_or(0);
        for &t in acks {
            ack_latencies.push(t.saturating_sub(start));
        }
    }
    ack_latencies.sort_unstable();
    let acked = ack_latencies.len();
    let deploy_p50 = obs::report::percentile(&ack_latencies, 0.50);
    let deploy_p95 = obs::report::percentile(&ack_latencies, 0.95);

    let mut uploaded = 0;
    for node in 0..config.devices as u32 {
        if let Some(actor) = sim.actor_as::<DeviceActor>(NodeId(node)) {
            uploaded += actor.uploaded;
        }
    }
    let honeycomb = sim
        .actor_as::<HoneycombActor>(honeycomb_node)
        .expect("honeycomb actor type");
    CampaignReport {
        deployed_devices: config.devices,
        acked_devices: acked,
        deploy_latency_p50_ms: deploy_p50,
        deploy_latency_p95_ms: deploy_p95,
        records_received: honeycomb.received.len(),
        records_uploaded: uploaded,
        throughput_rps: honeycomb.received.len() as f64 / config.duration_s.max(1) as f64,
        delivery_ratio: stats.delivery_ratio(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SensorKind;
    use crate::honeycomb::ExperimentBuilder;

    fn small_campaign() -> CampaignConfig {
        CampaignConfig {
            devices: 8,
            duration_s: 2 * 3_600,
            seed: 11,
            sampling_interval_s: 300,
            ..CampaignConfig::default()
        }
    }

    fn gps_task() -> SensingTask {
        ExperimentBuilder::new("gps-map")
            .require_sensor(SensorKind::Gps)
            .sampling_interval_s(300)
            .build()
    }

    #[test]
    fn deeply_nested_payload_decodes_to_null() {
        let nested: WireRecord = (1, (2, (3, "[".repeat(100_000))));
        let records = decode_records(TaskId(7), &vec![nested].encode_to_vec());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].user, UserId(1));
        assert_eq!(records[0].payload, Value::Null);
    }

    #[test]
    fn campaign_collects_records_end_to_end() {
        let report = run_campaign(&gps_task(), &small_campaign());
        assert_eq!(report.deployed_devices, 8);
        assert!(report.acked_devices >= 7, "acks {}", report.acked_devices);
        assert!(
            report.records_received > 50,
            "records {}",
            report.records_received
        );
        // Mobile link: 80 ± 60 ms one way; upload + deploy ≈ 2 hops.
        assert!(report.deploy_latency_p50_ms >= 80);
        assert!(report.deploy_latency_p95_ms < 2_000);
        assert!(report.throughput_rps > 0.0);
        assert!(report.delivery_ratio > 0.9);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = run_campaign(&gps_task(), &small_campaign());
        let b = run_campaign(&gps_task(), &small_campaign());
        assert_eq!(a, b);
    }

    #[test]
    fn lossy_network_degrades_gracefully() {
        let mut config = small_campaign();
        config.device_link = config.device_link.with_loss(0.3);
        let lossy = run_campaign(&gps_task(), &config);
        let clean = run_campaign(&gps_task(), &small_campaign());
        assert!(lossy.records_received < clean.records_received);
        assert!(lossy.delivery_ratio < clean.delivery_ratio);
        // The pipeline still works.
        assert!(lossy.records_received > 0);
    }

    #[test]
    fn record_batch_roundtrip() {
        use crate::script::Record;
        let payload = Record::new([("lat", Value::Num(45.0)), ("lon", Value::Num(4.0))]);
        let records = vec![SensedRecord {
            task: TaskId(3),
            user: UserId(7),
            device: DeviceId(9),
            time: Timestamp::new(1234),
            payload: Value::Record(payload),
        }];
        let encoded = encode_records(&records);
        let decoded = decode_records(TaskId(3), &encoded);
        assert_eq!(decoded, records);
    }

    #[test]
    fn malformed_record_batch_is_dropped() {
        assert!(decode_records(TaskId(1), &[1, 2, 3]).is_empty());
    }

    #[test]
    fn device_ignores_a_hostile_deployment_and_keeps_running() {
        // A deployment nested far past the parser's bound is refused like
        // any malformed script: no install, no ack, but a refusal the Hive
        // records. The device then installs the next, well-formed
        // deployment and senses.
        let user = UserId(0);
        let data =
            CityModel::builder()
                .seed(5)
                .build()
                .generate_population(&PopulationConfig {
                    users: 1,
                    days: 1,
                    sampling_interval_s: 60,
                    ..PopulationConfig::default()
                });
        let device = Device::new(
            DeviceId(0),
            user,
            Trajectory::new(user, data.records_of(user)),
        );
        let mut sim = Simulation::new(5);
        let start = Timestamp::from_day_time(0, 7, 0, 0);
        let device_node = sim.add_node(
            "device",
            Box::new(DeviceActor::new(device, NodeId(1), start)),
        );
        let hive_node = sim.add_node("hive", Box::new(HiveActor::new(vec![device_node])));
        let deploy = |task: u64, source: String| Message {
            kind: kind::TASK_DEPLOY,
            request_id: task,
            payload: ("task".to_string(), (source, (60i64, 0.0f64)))
                .encode_to_vec()
                .into(),
        };
        let deep = format!("let x = {}1{};", "(".repeat(100_000), ")".repeat(100_000));
        sim.post(hive_node, device_node, deploy(1, deep));
        sim.run_until(SimTime::from_millis(60_000));
        let actor = sim.actor_as::<DeviceActor>(device_node).unwrap();
        assert_eq!(actor.task, None, "the hostile script was not installed");
        let hive = sim.actor_as::<HiveActor>(hive_node).unwrap();
        assert!(hive.ack_times_ms.is_empty(), "and not acknowledged");
        let refusals = &hive.refusals[&1];
        assert_eq!(refusals.len(), 1, "but refused out loud");
        assert_eq!(refusals[0].0, device_node);
        assert!(refusals[0].1.contains("nest"), "{}", refusals[0].1);

        let gps = "let fix = sensor.gps(); emit({ \"lat\": fix.lat, \"lon\": fix.lon });";
        sim.post(hive_node, device_node, deploy(2, gps.to_string()));
        sim.run_until(SimTime::from_millis(3_600_000));
        let actor = sim.actor_as::<DeviceActor>(device_node).unwrap();
        assert_eq!(actor.task, Some((2, 60)));
        assert!(actor.uploaded > 0, "the device kept sensing");
        let hive = sim.actor_as::<HiveActor>(hive_node).unwrap();
        assert_eq!(
            hive.ack_times_ms.keys().copied().collect::<Vec<_>>(),
            vec![2]
        );
        assert_eq!(
            hive.refusals.keys().copied().collect::<Vec<_>>(),
            vec![1],
            "the good deployment is not refused"
        );
    }
}
