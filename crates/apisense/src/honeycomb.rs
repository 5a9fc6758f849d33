//! Honeycomb endpoints: where experimenters define tasks and receive data.
//!
//! "These crowd-sensing tasks are uploaded on the Hive from Honeycomb
//! endpoints, which are deployed and used by people interested in collecting
//! specific datasets. The Honeycomb is therefore used to describe the
//! crowd-sensing tasks as scripts […] Once triggered by the mobile device,
//! these scripts will automatically produce a dataset, which will be sent
//! back to the Honeycomb to be processed and stored depending on
//! experiments." (paper, §2)

use crate::device::{SensedRecord, SensorKind};
use crate::hive::TaskId;
use crate::incentives::IncentiveStrategy;
use crate::script::Script;
use geo::BoundingBox;
use mobility::{Dataset, UserId};
use std::collections::{BTreeMap, BTreeSet};

/// A crowd-sensing task: the unit the Honeycomb uploads to the Hive and the
/// Hive offloads to devices.
#[derive(Debug, Clone, PartialEq)]
pub struct SensingTask {
    id: Option<TaskId>,
    name: String,
    script: Script,
    required_sensors: BTreeSet<SensorKind>,
    sampling_interval_s: i64,
    region: Option<BoundingBox>,
    min_battery: f64,
    max_participants: Option<usize>,
    incentive: IncentiveStrategy,
}

impl SensingTask {
    /// The Hive-assigned id (None until published).
    pub fn id(&self) -> Option<TaskId> {
        self.id
    }

    pub(crate) fn assign_id(&mut self, id: TaskId) {
        self.id = Some(id);
    }

    /// Experiment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task script offloaded to devices.
    pub fn script(&self) -> &Script {
        &self.script
    }

    /// Sensors a device must offer to run this task.
    pub fn required_sensors(&self) -> &BTreeSet<SensorKind> {
        &self.required_sensors
    }

    /// Seconds between script executions on the device.
    pub fn sampling_interval_s(&self) -> i64 {
        self.sampling_interval_s
    }

    /// Geographic restriction, if any.
    pub fn region(&self) -> Option<&BoundingBox> {
        self.region.as_ref()
    }

    /// Minimum battery level required to sample.
    pub fn min_battery(&self) -> f64 {
        self.min_battery
    }

    /// Participant cap, if any.
    pub fn max_participants(&self) -> Option<usize> {
        self.max_participants
    }

    /// The incentive strategy attached to the campaign.
    pub fn incentive(&self) -> &IncentiveStrategy {
        &self.incentive
    }
}

/// Builder for [`SensingTask`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    name: String,
    script: Option<Script>,
    required_sensors: BTreeSet<SensorKind>,
    sampling_interval_s: i64,
    region: Option<BoundingBox>,
    min_battery: f64,
    max_participants: Option<usize>,
    incentive: IncentiveStrategy,
}

impl ExperimentBuilder {
    /// Starts an experiment definition.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            script: None,
            required_sensors: BTreeSet::new(),
            sampling_interval_s: 60,
            region: None,
            min_battery: 0.1,
            max_participants: None,
            incentive: IncentiveStrategy::None,
        }
    }

    /// Sets the task script.
    pub fn script(mut self, script: Script) -> Self {
        self.script = Some(script);
        self
    }

    /// Declares a required sensor (may be called repeatedly).
    pub fn require_sensor(mut self, sensor: SensorKind) -> Self {
        self.required_sensors.insert(sensor);
        self
    }

    /// Sets the on-device sampling interval in seconds (min 1).
    pub fn sampling_interval_s(mut self, seconds: i64) -> Self {
        self.sampling_interval_s = seconds.max(1);
        self
    }

    /// Restricts the task to a region.
    pub fn region(mut self, region: BoundingBox) -> Self {
        self.region = Some(region);
        self
    }

    /// Sets the minimum battery level for sampling.
    pub fn min_battery(mut self, level: f64) -> Self {
        self.min_battery = level.clamp(0.0, 1.0);
        self
    }

    /// Caps the number of participating devices.
    pub fn max_participants(mut self, cap: usize) -> Self {
        self.max_participants = Some(cap);
        self
    }

    /// Attaches an incentive strategy.
    pub fn incentive(mut self, incentive: IncentiveStrategy) -> Self {
        self.incentive = incentive;
        self
    }

    /// Builds the task. A missing script defaults to a GPS sampler.
    pub fn build(self) -> SensingTask {
        let script = self.script.unwrap_or_else(|| {
            Script::compile(
                r#"let fix = sensor.gps(); if (fix != null) { emit({ "lat": fix.lat, "lon": fix.lon }); }"#,
            )
            .expect("default script is valid")
        });
        SensingTask {
            id: None,
            name: self.name,
            script,
            required_sensors: self.required_sensors,
            sampling_interval_s: self.sampling_interval_s,
            region: self.region,
            min_battery: self.min_battery,
            max_participants: self.max_participants,
            incentive: self.incentive,
        }
    }
}

/// Per-task collection statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectionStats {
    /// Records stored.
    pub records: usize,
    /// Distinct contributing users.
    pub contributors: usize,
}

/// A Honeycomb endpoint: defines experiments and stores their datasets.
#[derive(Debug, Default)]
pub struct Honeycomb {
    name: String,
    store: BTreeMap<TaskId, Vec<SensedRecord>>,
}

impl Honeycomb {
    /// Creates a Honeycomb endpoint.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            store: BTreeMap::new(),
        }
    }

    /// The endpoint name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stores records forwarded by the Hive.
    pub fn receive(&mut self, records: Vec<SensedRecord>) {
        for r in records {
            self.store.entry(r.task).or_default().push(r);
        }
    }

    /// Collection statistics for one task.
    pub fn stats(&self, task: TaskId) -> CollectionStats {
        match self.store.get(&task) {
            None => CollectionStats::default(),
            Some(records) => {
                let contributors: BTreeSet<UserId> = records.iter().map(|r| r.user).collect();
                CollectionStats {
                    records: records.len(),
                    contributors: contributors.len(),
                }
            }
        }
    }

    /// All stored records of a task.
    pub fn records(&self, task: TaskId) -> &[SensedRecord] {
        self.store.get(&task).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Converts a task's located records into a mobility dataset — the
    /// input PRIVAPI protects before publication.
    pub fn mobility_dataset(&self, task: TaskId) -> Dataset {
        let records: Vec<mobility::LocationRecord> = self
            .records(task)
            .iter()
            .filter_map(|r| r.to_location_record())
            .collect();
        Dataset::from_records(records)
    }

    /// Total records stored across all tasks.
    pub fn total_records(&self) -> usize {
        self.store.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceId;
    use crate::script::{Record, Value};
    use mobility::Timestamp;

    fn record(task: TaskId, user: u64, lat: f64) -> SensedRecord {
        let payload = Record::new([("lat", Value::Num(lat)), ("lon", Value::Num(4.0))]);
        SensedRecord {
            task,
            user: UserId(user),
            device: DeviceId(user),
            time: Timestamp::new(0),
            payload: Value::Record(payload),
        }
    }

    #[test]
    fn builder_defaults() {
        let task = ExperimentBuilder::new("exp").build();
        assert_eq!(task.name(), "exp");
        assert_eq!(task.sampling_interval_s(), 60);
        assert!(task.id().is_none());
        assert!(task.region().is_none());
        assert_eq!(task.min_battery(), 0.1);
        assert_eq!(*task.incentive(), IncentiveStrategy::None);
        // Default script compiles and mentions gps.
        assert!(task.script().source().contains("sensor.gps"));
    }

    #[test]
    fn builder_clamps_and_sets() {
        let task = ExperimentBuilder::new("x")
            .sampling_interval_s(0)
            .min_battery(7.0)
            .max_participants(3)
            .require_sensor(SensorKind::Gps)
            .require_sensor(SensorKind::Battery)
            .build();
        assert_eq!(task.sampling_interval_s(), 1);
        assert_eq!(task.min_battery(), 1.0);
        assert_eq!(task.max_participants(), Some(3));
        assert_eq!(task.required_sensors().len(), 2);
    }

    #[test]
    fn receive_and_stats() {
        let mut hc = Honeycomb::new("lab");
        assert_eq!(hc.name(), "lab");
        let t = TaskId(1);
        hc.receive(vec![
            record(t, 1, 45.0),
            record(t, 1, 45.1),
            record(t, 2, 45.2),
        ]);
        let stats = hc.stats(t);
        assert_eq!(stats.records, 3);
        assert_eq!(stats.contributors, 2);
        assert_eq!(hc.stats(TaskId(9)).records, 0);
        assert_eq!(hc.total_records(), 3);
    }

    #[test]
    fn mobility_dataset_extraction() {
        let mut hc = Honeycomb::new("lab");
        let t = TaskId(1);
        let mut unlocated = record(t, 3, 45.0);
        unlocated.payload = Value::Num(1.0);
        hc.receive(vec![record(t, 1, 45.0), unlocated]);
        let ds = hc.mobility_dataset(t);
        assert_eq!(ds.record_count(), 1, "unlocated records are skipped");
        assert_eq!(ds.user_count(), 1);
    }
}
