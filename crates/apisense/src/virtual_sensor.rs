//! Virtual sensors: orchestrating groups of devices (experiment E7).
//!
//! "The APISENSE platform also implements the concept of virtual sensors as
//! a mean to abstract the individual devices and therefore offer a set of
//! additional services that self-organize a group of mobile devices to
//! orchestrate the retrieval of datasets according to different strategies
//! (e.g., round robin, energy-aware)." (paper, §2)

use crate::device::{Device, SensedRecord, SensorKind};
use crate::hive::TaskId;
use crate::script::{Script, Shape, Value, Vm};
use geo::{GeoPoint, Meters};
use mobility::Timestamp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::LazyLock;

/// The shape of every reading's `{lat, lon}` payload, made once.
static LOCATION_SHAPE: LazyLock<Shape> = LazyLock::new(|| Shape::new(["lat", "lon"]));

/// How a virtual sensor picks the devices answering each query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// Rotate through members in order.
    RoundRobin,
    /// Pick the members with the highest battery ("energy-aware").
    EnergyAware,
    /// Maximize spatial dispersion of the answering devices.
    CoverageAware,
    /// Every member answers every query (upper bound on freshness, worst
    /// case on energy).
    Broadcast,
}

impl fmt::Display for SelectionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionStrategy::RoundRobin => write!(f, "round-robin"),
            SelectionStrategy::EnergyAware => write!(f, "energy-aware"),
            SelectionStrategy::CoverageAware => write!(f, "coverage-aware"),
            SelectionStrategy::Broadcast => write!(f, "broadcast"),
        }
    }
}

/// One reading returned by a virtual-sensor query.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Index of the answering device in the member slice.
    pub member: usize,
    /// The produced record.
    pub record: SensedRecord,
}

/// A virtual sensor over a group of member devices.
///
/// The group is borrowed per query so the same fleet can back several
/// virtual sensors.
#[derive(Debug)]
pub struct VirtualSensor {
    strategy: SelectionStrategy,
    per_query: usize,
    cursor: usize,
    queries: u64,
    /// Bytecode VM reused across scripted queries, keyed by the task it was
    /// last used for so a task switch starts from a clean executor.
    script_vm: Option<(TaskId, Vm)>,
}

impl VirtualSensor {
    /// Creates a virtual sensor answering each query with `per_query`
    /// member devices (ignored by [`SelectionStrategy::Broadcast`]).
    pub fn new(strategy: SelectionStrategy, per_query: usize) -> Self {
        Self {
            strategy,
            per_query: per_query.max(1),
            cursor: 0,
            queries: 0,
            script_vm: None,
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> SelectionStrategy {
        self.strategy
    }

    /// Queries issued so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Selects the members answering the next query.
    ///
    /// Devices with depleted batteries are never selected.
    pub fn select(&mut self, members: &[Device], now: Timestamp) -> Vec<usize> {
        let alive: Vec<usize> = members
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.battery().is_depleted())
            .map(|(i, _)| i)
            .collect();
        if alive.is_empty() {
            return Vec::new();
        }
        let k = self.per_query.min(alive.len());
        match self.strategy {
            SelectionStrategy::Broadcast => alive,
            SelectionStrategy::RoundRobin => {
                let mut out = Vec::with_capacity(k);
                for j in 0..k {
                    out.push(alive[(self.cursor + j) % alive.len()]);
                }
                self.cursor = (self.cursor + k) % alive.len().max(1);
                out
            }
            SelectionStrategy::EnergyAware => {
                let mut by_battery = alive;
                by_battery.sort_by(|&a, &b| {
                    members[b]
                        .battery()
                        .level()
                        .partial_cmp(&members[a].battery().level())
                        .expect("battery levels are finite")
                        .then(a.cmp(&b))
                });
                by_battery.truncate(k);
                by_battery
            }
            SelectionStrategy::CoverageAware => {
                // Greedy max-min dispersion over current positions.
                let positions: BTreeMap<usize, GeoPoint> = alive
                    .iter()
                    .filter_map(|&i| members[i].position_at(now).map(|p| (i, p)))
                    .collect();
                if positions.is_empty() {
                    return alive.into_iter().take(k).collect();
                }
                let mut chosen: Vec<usize> = Vec::with_capacity(k);
                // Seed with the highest-battery located device.
                let first = *positions
                    .keys()
                    .max_by(|&&a, &&b| {
                        members[a]
                            .battery()
                            .level()
                            .partial_cmp(&members[b].battery().level())
                            .expect("battery levels are finite")
                    })
                    .expect("positions non-empty");
                chosen.push(first);
                while chosen.len() < k && chosen.len() < positions.len() {
                    let next = positions
                        .iter()
                        .filter(|(i, _)| !chosen.contains(i))
                        .max_by(|(_, pa), (_, pb)| {
                            let da = min_distance(pa, &chosen, &positions);
                            let db = min_distance(pb, &chosen, &positions);
                            da.partial_cmp(&db).expect("finite distances")
                        })
                        .map(|(i, _)| *i);
                    match next {
                        Some(i) => chosen.push(i),
                        None => break,
                    }
                }
                chosen
            }
        }
    }

    /// Issues a query at `now`: selected devices take a GPS sample (paying
    /// its battery cost) and return a reading.
    pub fn query(
        &mut self,
        members: &mut [Device],
        task: TaskId,
        now: Timestamp,
    ) -> Vec<Reading> {
        self.queries += 1;
        let selected = self.select(members, now);
        let mut readings = Vec::with_capacity(selected.len());
        for idx in selected {
            let device = &mut members[idx];
            let Some(position) = device.position_at(now) else {
                continue;
            };
            device.battery_mut().drain(
                SensorKind::Gps.sample_cost() + SensorKind::NetworkQuality.sample_cost(),
            );
            readings.push(Reading {
                member: idx,
                record: SensedRecord {
                    task,
                    user: device.user(),
                    device: device.id(),
                    time: now,
                    payload: Value::Record(LOCATION_SHAPE.record(Box::new([
                        Value::Num(position.latitude()),
                        Value::Num(position.longitude()),
                    ]))),
                },
            });
        }
        readings
    }

    /// Issues a scripted query at `now`: selected devices each run `script`
    /// once through the bytecode VM and return the surviving records as
    /// readings.
    ///
    /// The compiled program is shared by every selected device and the
    /// sensor's cached VM is reused across queries, so steady-state cost is
    /// pure execution — no re-parsing, re-compilation or executor setup.
    pub fn query_scripted(
        &mut self,
        members: &mut [Device],
        task: TaskId,
        script: &Script,
        now: Timestamp,
    ) -> Vec<Reading> {
        self.queries += 1;
        let selected = self.select(members, now);
        let needs_reset = !matches!(&self.script_vm, Some((t, _)) if *t == task);
        if needs_reset {
            self.script_vm = Some((task, Vm::new()));
        }
        let (_, vm) = self.script_vm.as_mut().expect("vm cached above");
        let mut readings = Vec::with_capacity(selected.len());
        for idx in selected {
            let device = &mut members[idx];
            for record in device.sample_scripted(task, script, vm, now) {
                readings.push(Reading {
                    member: idx,
                    record,
                });
            }
        }
        readings
    }
}

fn min_distance(p: &GeoPoint, chosen: &[usize], positions: &BTreeMap<usize, GeoPoint>) -> f64 {
    chosen
        .iter()
        .filter_map(|i| positions.get(i))
        .map(|q| p.haversine_distance(q).get())
        .fold(f64::INFINITY, f64::min)
}

/// Spatial coverage of a set of readings: mean distance from each reading to
/// its nearest other reading (higher = better dispersion).
pub fn dispersion(readings: &[Reading]) -> Meters {
    let points: Vec<GeoPoint> = readings
        .iter()
        .filter_map(|r| r.record.location())
        .collect();
    if points.len() < 2 {
        return Meters::new(0.0);
    }
    let total: f64 = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            points
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, q)| p.haversine_distance(q).get())
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    Meters::new(total / points.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Battery, DeviceId};
    use mobility::{LocationRecord, Trajectory, UserId};

    /// A fleet of stationary devices on a line, with descending batteries.
    fn fleet(n: u64) -> Vec<Device> {
        (0..n)
            .map(|i| {
                let point = GeoPoint::new(45.75, 4.80 + 0.01 * i as f64).unwrap();
                let records = vec![
                    LocationRecord::new(UserId(i), Timestamp::new(0), point),
                    LocationRecord::new(UserId(i), Timestamp::new(86_400), point),
                ];
                Device::new(DeviceId(i), UserId(i), Trajectory::new(UserId(i), records))
                    .with_battery(Battery::at_level(1.0 - i as f64 * 0.1))
            })
            .collect()
    }

    #[test]
    fn round_robin_rotates() {
        let members = fleet(4);
        let mut vs = VirtualSensor::new(SelectionStrategy::RoundRobin, 1);
        let picks: Vec<Vec<usize>> = (0..5)
            .map(|_| vs.select(&members, Timestamp::new(0)))
            .collect();
        assert_eq!(picks, vec![vec![0], vec![1], vec![2], vec![3], vec![0]]);
    }

    #[test]
    fn energy_aware_picks_fullest() {
        let members = fleet(5); // batteries 1.0, 0.9, 0.8, 0.7, 0.6
        let mut vs = VirtualSensor::new(SelectionStrategy::EnergyAware, 2);
        let picks = vs.select(&members, Timestamp::new(0));
        assert_eq!(picks, vec![0, 1]);
    }

    #[test]
    fn depleted_devices_never_selected() {
        let mut members = fleet(3);
        members[0].battery_mut().drain(5.0);
        let mut vs = VirtualSensor::new(SelectionStrategy::Broadcast, 1);
        let picks = vs.select(&members, Timestamp::new(0));
        assert_eq!(picks, vec![1, 2]);
        // Entirely dead fleet: empty selection.
        for d in members.iter_mut() {
            d.battery_mut().drain(5.0);
        }
        assert!(vs.select(&members, Timestamp::new(0)).is_empty());
    }

    #[test]
    fn coverage_aware_disperses() {
        // Devices 0..6 on a line; coverage-aware with k=3 should include
        // (near-)extremes rather than three adjacent devices.
        let members = fleet(6);
        let mut vs = VirtualSensor::new(SelectionStrategy::CoverageAware, 3);
        let picks = vs.select(&members, Timestamp::new(0));
        assert_eq!(picks.len(), 3);
        let min = *picks.iter().min().unwrap();
        let max = *picks.iter().max().unwrap();
        assert!(max - min >= 4, "picks {picks:?} not dispersed");
    }

    #[test]
    fn query_returns_readings_and_drains() {
        let mut members = fleet(3);
        let before: Vec<f64> = members.iter().map(|d| d.battery().level()).collect();
        let mut vs = VirtualSensor::new(SelectionStrategy::Broadcast, 1);
        let readings = vs.query(&mut members, TaskId(1), Timestamp::new(100));
        assert_eq!(readings.len(), 3);
        assert_eq!(vs.queries(), 1);
        for (i, r) in readings.iter().enumerate() {
            assert_eq!(r.member, i);
            assert!(r.record.location().is_some());
        }
        for (d, b) in members.iter().zip(before) {
            assert!(d.battery().level() < b, "query must cost battery");
        }
    }

    #[test]
    fn round_robin_spreads_load_evenly() {
        let mut members = fleet(4);
        // Equalize batteries.
        for d in members.iter_mut() {
            *d.battery_mut() = Battery::at_level(0.5);
        }
        let mut vs = VirtualSensor::new(SelectionStrategy::RoundRobin, 1);
        for q in 0..40 {
            vs.query(&mut members, TaskId(1), Timestamp::new(q * 60));
        }
        let levels: Vec<f64> = members.iter().map(|d| d.battery().level()).collect();
        let spread = levels.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - levels.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 1e-9, "round-robin must balance drain: {levels:?}");
    }

    #[test]
    fn dispersion_metric() {
        let mut members = fleet(4);
        let mut vs = VirtualSensor::new(SelectionStrategy::Broadcast, 1);
        let readings = vs.query(&mut members, TaskId(1), Timestamp::new(0));
        let d = dispersion(&readings);
        // Neighbouring devices are ~780 m apart on the 0.01-degree line.
        assert!(d.get() > 500.0 && d.get() < 1_500.0, "dispersion {d}");
        assert_eq!(dispersion(&[]).get(), 0.0);
    }

    const SENSE_SRC: &str = r#"
        let g = sensor.gps();
        let b = sensor.battery();
        emit({"lat": g.lat, "lon": g.lon, "battery": b});
    "#;

    #[test]
    fn scripted_query_matches_the_interpreter_baseline() {
        let mut vm_fleet = fleet(4);
        let mut interp_fleet = fleet(4);
        let script = Script::compile(SENSE_SRC).expect("script compiles");
        let mut vs = VirtualSensor::new(SelectionStrategy::Broadcast, 1);
        let before: Vec<f64> = vm_fleet.iter().map(|d| d.battery().level()).collect();
        let now = Timestamp::new(50);
        let readings = vs.query_scripted(&mut vm_fleet, TaskId(7), &script, now);
        assert_eq!(readings.len(), 4);
        assert_eq!(vs.queries(), 1);
        let mut baseline = Vec::new();
        for (i, device) in interp_fleet.iter_mut().enumerate() {
            for record in device.sample_interpreted(TaskId(7), &script, now) {
                baseline.push(Reading { member: i, record });
            }
        }
        assert_eq!(readings, baseline);
        for (device, level) in vm_fleet.iter().zip(before) {
            assert!(
                device.battery().level() < level,
                "scripted query must cost battery"
            );
        }
    }

    #[test]
    fn scripted_query_caches_the_vm_per_task() {
        let mut members = fleet(3);
        let script = Script::compile(SENSE_SRC).expect("script compiles");
        let mut vs = VirtualSensor::new(SelectionStrategy::RoundRobin, 1);
        assert!(vs.script_vm.is_none());
        vs.query_scripted(&mut members, TaskId(1), &script, Timestamp::new(0));
        assert!(matches!(&vs.script_vm, Some((TaskId(1), _))));
        vs.query_scripted(&mut members, TaskId(1), &script, Timestamp::new(60));
        assert!(matches!(&vs.script_vm, Some((TaskId(1), _))));
        vs.query_scripted(&mut members, TaskId(2), &script, Timestamp::new(120));
        assert!(matches!(&vs.script_vm, Some((TaskId(2), _))));
    }

    #[test]
    fn strategy_display() {
        assert_eq!(SelectionStrategy::RoundRobin.to_string(), "round-robin");
        assert_eq!(SelectionStrategy::EnergyAware.to_string(), "energy-aware");
        assert_eq!(
            SelectionStrategy::CoverageAware.to_string(),
            "coverage-aware"
        );
        assert_eq!(SelectionStrategy::Broadcast.to_string(), "broadcast");
    }
}
