//! Simulated smartphones: battery, sensor suite and the client runtime that
//! executes deployed task scripts.
//!
//! The substitution for real Android devices (`DESIGN.md` §2): the
//! middleware-visible surface — sensors queried by scripts, battery drain,
//! user privacy preferences, record upload queues — is faithfully modelled;
//! only the physical signal sources are synthetic (GPS fixes come from a
//! mobility trajectory, network quality from a position-seeded propagation
//! model).

use crate::error::ApisenseError;
use crate::hive::TaskId;
use crate::privacy::PrivacyPreferences;
use crate::script::{CompiledProgram, Host, Script, Shape, Value, Vm};
use geo::GeoPoint;
use mobility::{Timestamp, Trajectory, UserId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::LazyLock;

/// Identifier of a device in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DeviceId(pub u64);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device-{}", self.0)
    }
}

/// The sensors a device can expose to crowd-sensing scripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SensorKind {
    /// Location fixes.
    Gps,
    /// Battery level.
    Battery,
    /// Acceleration magnitude.
    Accelerometer,
    /// Cellular signal quality (RSSI).
    NetworkQuality,
}

impl SensorKind {
    /// All sensor kinds.
    pub const ALL: [SensorKind; 4] = [
        SensorKind::Gps,
        SensorKind::Battery,
        SensorKind::Accelerometer,
        SensorKind::NetworkQuality,
    ];

    /// The host-API path used by scripts (`sensor.<name>`).
    pub fn script_name(&self) -> &'static str {
        match self {
            SensorKind::Gps => "gps",
            SensorKind::Battery => "battery",
            SensorKind::Accelerometer => "accelerometer",
            SensorKind::NetworkQuality => "network",
        }
    }

    /// Battery cost of one sample, as a fraction of a full charge.
    pub fn sample_cost(&self) -> f64 {
        match self {
            SensorKind::Gps => 2.0e-5,
            SensorKind::Battery => 1.0e-7,
            SensorKind::Accelerometer => 2.0e-6,
            SensorKind::NetworkQuality => 4.0e-6,
        }
    }
}

impl fmt::Display for SensorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.script_name())
    }
}

/// A simple smartphone battery model.
///
/// Levels are fractions of a full charge. Drain sources: a constant idle
/// draw plus per-sensor-sample and per-uploaded-byte costs. Devices recharge
/// overnight (22:00–06:00) when their owner is home.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    level: f64,
    /// Idle drain per hour of uptime.
    pub idle_drain_per_hour: f64,
    /// Charge rate per hour while charging.
    pub charge_per_hour: f64,
}

impl Battery {
    /// A full battery with typical smartphone parameters (~1 %/h idle,
    /// 50 %/h charging).
    pub fn full() -> Self {
        Self {
            level: 1.0,
            idle_drain_per_hour: 0.01,
            charge_per_hour: 0.5,
        }
    }

    /// Creates a battery at a specific level in `[0, 1]`.
    pub fn at_level(level: f64) -> Self {
        Self {
            level: level.clamp(0.0, 1.0),
            ..Self::full()
        }
    }

    /// Current level in `[0, 1]`.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Whether the battery is empty (device off).
    pub fn is_depleted(&self) -> bool {
        self.level <= 0.0
    }

    /// Removes `amount` of charge.
    pub fn drain(&mut self, amount: f64) {
        self.level = (self.level - amount.max(0.0)).max(0.0);
    }

    /// Adds `amount` of charge.
    pub fn charge(&mut self, amount: f64) {
        self.level = (self.level + amount.max(0.0)).min(1.0);
    }

    /// Advances time by `seconds`, draining idle power or charging.
    pub fn advance(&mut self, seconds: i64, charging: bool) {
        let hours = seconds.max(0) as f64 / 3_600.0;
        if charging {
            self.charge(self.charge_per_hour * hours);
        } else {
            self.drain(self.idle_drain_per_hour * hours);
        }
    }
}

/// A record produced by a task script on a device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensedRecord {
    /// Task that produced the record.
    pub task: TaskId,
    /// The contributing participant.
    pub user: UserId,
    /// Device that produced the record.
    pub device: DeviceId,
    /// When the record was produced.
    pub time: Timestamp,
    /// The script-emitted payload.
    pub payload: Value,
}

impl SensedRecord {
    /// Extracts a location from the payload's `lat`/`lon` fields, if any.
    pub fn location(&self) -> Option<GeoPoint> {
        let lat = self.payload.field("lat")?.as_num()?;
        let lon = self.payload.field("lon")?.as_num()?;
        GeoPoint::new(lat, lon).ok()
    }

    /// Converts into a mobility record when the payload carries a location.
    pub fn to_location_record(&self) -> Option<mobility::LocationRecord> {
        Some(mobility::LocationRecord::new(
            self.user,
            self.time,
            self.location()?,
        ))
    }
}

/// A task deployed on a device.
///
/// The script's [`CompiledProgram`] is shared (via `Arc`) with every other
/// deployment of the same task; the [`Vm`] is this installation's private
/// executor, reused across readings so its stack, frame and inline-cache
/// allocations are paid once.
#[derive(Debug, Clone)]
struct InstalledTask {
    id: TaskId,
    script: Script,
    vm: Vm,
    sampling_interval_s: i64,
    min_battery: f64,
    next_run: Timestamp,
}

/// A simulated smartphone participating in the crowd.
#[derive(Debug)]
pub struct Device {
    id: DeviceId,
    user: UserId,
    trajectory: Trajectory,
    battery: Battery,
    prefs: PrivacyPreferences,
    sensors: BTreeSet<SensorKind>,
    installed: Vec<InstalledTask>,
    outbox: Vec<SensedRecord>,
    last_tick: Option<Timestamp>,
    records_produced: u64,
    records_suppressed: u64,
    script_fuel: u64,
    /// Buffer for the values one run emits, reused across runs.
    emitted: Vec<Value>,
}

impl Device {
    /// Creates a device for `user` whose GPS follows `trajectory`.
    pub fn new(id: DeviceId, user: UserId, trajectory: Trajectory) -> Self {
        Self {
            id,
            user,
            trajectory,
            battery: Battery::full(),
            prefs: PrivacyPreferences::default(),
            sensors: SensorKind::ALL.into_iter().collect(),
            installed: Vec::new(),
            outbox: Vec::new(),
            last_tick: None,
            records_produced: 0,
            records_suppressed: 0,
            script_fuel: 200_000,
            emitted: Vec::new(),
        }
    }

    /// Replaces the privacy preferences ("the user keeps the control of her
    /// mobile phone", paper §2).
    pub fn with_preferences(mut self, prefs: PrivacyPreferences) -> Self {
        self.prefs = prefs;
        self
    }

    /// Replaces the battery.
    pub fn with_battery(mut self, battery: Battery) -> Self {
        self.battery = battery;
        self
    }

    /// The device id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The owning participant.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Current battery state.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Mutable battery access (used by virtual-sensor orchestration).
    pub fn battery_mut(&mut self) -> &mut Battery {
        &mut self.battery
    }

    /// The device's sensors.
    pub fn sensors(&self) -> &BTreeSet<SensorKind> {
        &self.sensors
    }

    /// The user's privacy preferences.
    pub fn preferences(&self) -> &PrivacyPreferences {
        &self.prefs
    }

    /// Records produced so far (before privacy suppression).
    pub fn records_produced(&self) -> u64 {
        self.records_produced
    }

    /// Records suppressed by the privacy layer.
    pub fn records_suppressed(&self) -> u64 {
        self.records_suppressed
    }

    /// Position at `time` according to the device's trajectory.
    pub fn position_at(&self, time: Timestamp) -> Option<GeoPoint> {
        self.trajectory.position_at(time)
    }

    /// Installs a task script (offloaded from the Hive).
    pub fn install(
        &mut self,
        id: TaskId,
        script: Script,
        sampling_interval_s: i64,
        min_battery: f64,
        start: Timestamp,
    ) {
        self.installed.push(InstalledTask {
            id,
            script,
            vm: Vm::new(),
            sampling_interval_s: sampling_interval_s.max(1),
            min_battery: min_battery.clamp(0.0, 1.0),
            next_run: start,
        });
    }

    /// Uninstalls a task.
    pub fn uninstall(&mut self, id: TaskId) {
        self.installed.retain(|t| t.id != id);
    }

    /// Number of installed tasks.
    pub fn installed_count(&self) -> usize {
        self.installed.len()
    }

    /// Whether the device is charging at `time` (overnight at home).
    fn is_charging(&self, time: Timestamp) -> bool {
        time.is_night()
    }

    /// Advances the device clock to `now`, running every installed task
    /// whose schedule has come due. Emitted records pass the privacy layer
    /// and are queued in the outbox.
    pub fn tick(&mut self, now: Timestamp) {
        if let Some(last) = self.last_tick {
            let dt = now - last;
            if dt > 0 {
                let charging = self.is_charging(now);
                self.battery.advance(dt, charging);
            }
        }
        self.last_tick = Some(now);
        if self.battery.is_depleted() {
            return;
        }
        let mut due: Vec<usize> = Vec::new();
        for (i, task) in self.installed.iter().enumerate() {
            if now >= task.next_run && self.battery.level() >= task.min_battery {
                due.push(i);
            }
        }
        // Detach the task list so each run can borrow its task's program and
        // VM while the device itself is borrowed mutably.
        let mut installed = std::mem::take(&mut self.installed);
        for i in due {
            let task = &mut installed[i];
            task.next_run = now + task.sampling_interval_s;
            let records =
                self.execute_compiled(task.id, task.script.compiled(), &mut task.vm, now);
            self.outbox.extend(records);
        }
        self.installed = installed;
    }

    /// Runs one compiled task program at `now` on the given VM, returning the
    /// records that survived the privacy filter.
    fn execute_compiled(
        &mut self,
        task: TaskId,
        compiled: &CompiledProgram,
        vm: &mut Vm,
        now: Timestamp,
    ) -> Vec<SensedRecord> {
        let fuel = self.script_fuel;
        // Script failures are logged, not fatal: one bad task must not take
        // down the client (the platform is multi-tenant).
        self.run_on_host(task, now, |host| {
            let _ = vm.run(compiled, host, fuel);
        })
    }

    /// Runs a script through `run` against this device's host at `now`,
    /// then applies the run's side effects: battery drain, record wrapping
    /// and the privacy filter. Returns the surviving records.
    fn run_on_host(
        &mut self,
        task: TaskId,
        now: Timestamp,
        run: impl FnOnce(&mut DeviceHost<'_>),
    ) -> Vec<SensedRecord> {
        let mut host = DeviceHost {
            device_sensors: &self.sensors,
            prefs: &self.prefs,
            trajectory: &self.trajectory,
            battery_level: self.battery.level(),
            now,
            position: None,
            emitted: std::mem::take(&mut self.emitted),
            sensor_costs: 0.0,
        };
        run(&mut host);
        let (mut emitted, sensor_costs) = (host.emitted, host.sensor_costs);
        self.battery.drain(sensor_costs);
        let mut kept = Vec::with_capacity(emitted.len());
        for value in emitted.drain(..) {
            self.records_produced += 1;
            let record = SensedRecord {
                task,
                user: self.user,
                device: self.id,
                time: now,
                payload: value,
            };
            match self.prefs.filter_record(record) {
                Some(filtered) => kept.push(filtered),
                None => self.records_suppressed += 1,
            }
        }
        // Keep the (now empty) buffer for the next run.
        self.emitted = emitted;
        kept
    }

    /// Executes `script` once at `now` through the bytecode VM, outside the
    /// normal tick schedule, returning the surviving records directly instead
    /// of queueing them in the outbox. The caller owns the `Vm` so repeated
    /// samples of the same task reuse its stack and inline caches.
    pub fn sample_scripted(
        &mut self,
        task: TaskId,
        script: &Script,
        vm: &mut Vm,
        now: Timestamp,
    ) -> Vec<SensedRecord> {
        self.execute_compiled(task, script.compiled(), vm, now)
    }

    /// Executes `script` once at `now` through the tree-walking interpreter —
    /// the differential baseline for [`Device::sample_scripted`].
    pub fn sample_interpreted(
        &mut self,
        task: TaskId,
        script: &Script,
        now: Timestamp,
    ) -> Vec<SensedRecord> {
        let fuel = self.script_fuel;
        self.run_on_host(task, now, |host| {
            let _ = script.run_interpreted(host, fuel);
        })
    }

    /// Drains queued records for upload.
    pub fn drain_outbox(&mut self) -> Vec<SensedRecord> {
        std::mem::take(&mut self.outbox)
    }

    /// Number of records waiting for upload.
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }
}

/// The script host exposing one device's sensors for one run. Trajectory
/// lookups happen only when a sensor needs them: the position at most once
/// per run, on first use, and the speed only for accelerometer samples.
struct DeviceHost<'a> {
    device_sensors: &'a BTreeSet<SensorKind>,
    prefs: &'a PrivacyPreferences,
    trajectory: &'a Trajectory,
    battery_level: f64,
    now: Timestamp,
    /// Position at `now`, once looked up (`Some(None)`: no trajectory).
    position: Option<Option<GeoPoint>>,
    emitted: Vec<Value>,
    sensor_costs: f64,
}

impl DeviceHost<'_> {
    fn sensor_allowed(&self, kind: SensorKind) -> bool {
        self.device_sensors.contains(&kind) && self.prefs.sensor_enabled(kind)
    }

    /// The device position at `now`, looked up on first use.
    fn position(&mut self) -> Option<GeoPoint> {
        let (trajectory, now) = (self.trajectory, self.now);
        *self
            .position
            .get_or_insert_with(|| trajectory.position_at(now))
    }

    /// Approximate speed at `now` (m/s), for the accelerometer model.
    fn speed(&self) -> f64 {
        let a = self.trajectory.position_at(self.now - 30);
        let b = self.trajectory.position_at(self.now + 30);
        match (a, b) {
            (Some(a), Some(b)) => a.haversine_distance(&b).get() / 60.0,
            _ => 0.0,
        }
    }

    /// A deterministic pseudo-random value in `[0, 1)` derived from position
    /// and time (propagation and vibration models need plausible texture,
    /// not true randomness).
    fn noise(&mut self, salt: u64) -> f64 {
        let mut h = salt ^ (self.now.seconds() as u64).wrapping_mul(0x9E3779B97F4A7C15);
        if let Some(p) = self.position() {
            h ^= (p.latitude().to_bits()).wrapping_mul(0xD6E8FEB86659FD93);
            h ^= (p.longitude().to_bits()).rotate_left(17);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51AFD7ED558CCD);
        h ^= h >> 33;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Endpoint ids [`DeviceHost`] hands to the VM through [`Host::resolve`];
/// both dispatch paths route through [`Host::call_resolved`].
const EP_EMIT: u32 = 0;
const EP_LOG: u32 = 1;
const EP_TIME_NOW: u32 = 2;
const EP_TIME_HOUR: u32 = 3;
const EP_GPS: u32 = 4;
const EP_BATTERY: u32 = 5;
const EP_ACCELEROMETER: u32 = 6;
const EP_NETWORK: u32 = 7;

/// The shape of every GPS fix `sensor.gps` returns, made once: a fix
/// costs one slot allocation, not a key set.
static FIX_SHAPE: LazyLock<Shape> = LazyLock::new(|| Shape::new(["accuracy", "lat", "lon"]));

/// Maps a host path to its endpoint id.
fn endpoint_of(path: &str) -> Option<u32> {
    match path {
        "emit" => Some(EP_EMIT),
        "log" => Some(EP_LOG),
        "time.now" => Some(EP_TIME_NOW),
        "time.hour" => Some(EP_TIME_HOUR),
        "sensor.gps" => Some(EP_GPS),
        "sensor.battery" => Some(EP_BATTERY),
        "sensor.accelerometer" => Some(EP_ACCELEROMETER),
        "sensor.network" => Some(EP_NETWORK),
        _ => None,
    }
}

impl Host for DeviceHost<'_> {
    fn call(&mut self, path: &str, args: &mut [Value]) -> Result<Value, ApisenseError> {
        match endpoint_of(path) {
            Some(endpoint) => self.call_resolved(endpoint, args),
            None => Err(ApisenseError::UnknownSensor(path.to_string())),
        }
    }

    fn resolve(&mut self, path: &str) -> Option<u32> {
        endpoint_of(path)
    }

    fn call_resolved(
        &mut self,
        endpoint: u32,
        args: &mut [Value],
    ) -> Result<Value, ApisenseError> {
        match endpoint {
            EP_EMIT => {
                // The argument slice is owned by the call: take the record
                // instead of deep-cloning it.
                self.emitted.push(
                    args.first_mut()
                        .map(|v| std::mem::replace(v, Value::Null))
                        .unwrap_or(Value::Null),
                );
                Ok(Value::Null)
            }
            EP_LOG => Ok(Value::Null),
            EP_TIME_NOW => Ok(Value::Num(self.now.seconds() as f64)),
            EP_TIME_HOUR => Ok(Value::Num(self.now.hour_of_day() as f64)),
            EP_GPS => {
                if !self.sensor_allowed(SensorKind::Gps) {
                    return Ok(Value::Null);
                }
                self.sensor_costs += SensorKind::Gps.sample_cost();
                match self.position() {
                    Some(p) => {
                        let accuracy = 5.0 + 10.0 * self.noise(1);
                        Ok(Value::Record(FIX_SHAPE.record(Box::new([
                            Value::Num(accuracy),
                            Value::Num(p.latitude()),
                            Value::Num(p.longitude()),
                        ]))))
                    }
                    None => Ok(Value::Null),
                }
            }
            EP_BATTERY => {
                if !self.sensor_allowed(SensorKind::Battery) {
                    return Ok(Value::Null);
                }
                self.sensor_costs += SensorKind::Battery.sample_cost();
                Ok(Value::Num(self.battery_level))
            }
            EP_ACCELEROMETER => {
                if !self.sensor_allowed(SensorKind::Accelerometer) {
                    return Ok(Value::Null);
                }
                self.sensor_costs += SensorKind::Accelerometer.sample_cost();
                // Vibration magnitude grows with speed; 9.81 at rest.
                let magnitude = 9.81 + self.speed() * 0.3 + self.noise(2) * 0.5;
                Ok(Value::Num(magnitude))
            }
            EP_NETWORK => {
                if !self.sensor_allowed(SensorKind::NetworkQuality) {
                    return Ok(Value::Null);
                }
                self.sensor_costs += SensorKind::NetworkQuality.sample_cost();
                // Log-distance path-loss flavoured RSSI in [-110, -50] dBm,
                // spatially correlated via the position-seeded noise.
                let rssi = -50.0 - 60.0 * self.noise(3);
                Ok(Value::Num(rssi))
            }
            other => Err(ApisenseError::Runtime(format!(
                "unknown host endpoint {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Record;
    use mobility::LocationRecord;

    fn trajectory() -> Trajectory {
        let records: Vec<LocationRecord> = (0..240)
            .map(|i| {
                LocationRecord::new(
                    UserId(1),
                    Timestamp::from_day_time(0, 10, 0, 0) + i * 60,
                    GeoPoint::new(45.75, 4.85 + 0.0001 * i as f64).unwrap(),
                )
            })
            .collect();
        Trajectory::new(UserId(1), records)
    }

    fn gps_script() -> Script {
        Script::compile(
            r#"
            let fix = sensor.gps();
            if (fix != null) {
                emit({ "lat": fix.lat, "lon": fix.lon, "battery": sensor.battery() });
            }
            "#,
        )
        .unwrap()
    }

    fn start() -> Timestamp {
        Timestamp::from_day_time(0, 10, 0, 0)
    }

    #[test]
    fn battery_model_drains_and_charges() {
        let mut b = Battery::full();
        assert_eq!(b.level(), 1.0);
        b.advance(3_600, false);
        assert!((b.level() - 0.99).abs() < 1e-9);
        b.drain(0.5);
        assert!((b.level() - 0.49).abs() < 1e-9);
        b.advance(3_600, true);
        assert!((b.level() - 0.99).abs() < 1e-9);
        b.drain(5.0);
        assert!(b.is_depleted());
        b.charge(0.3);
        assert!((b.level() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn tick_runs_task_on_schedule() {
        let mut device = Device::new(DeviceId(1), UserId(1), trajectory());
        device.install(TaskId(7), gps_script(), 300, 0.0, start());
        // Tick every minute for 30 minutes: the 300 s schedule fires 6 times
        // (at t=0, 300, ..., 1500).
        for i in 0..30 {
            device.tick(start() + i * 60);
        }
        assert_eq!(device.outbox_len(), 6);
        let records = device.drain_outbox();
        assert_eq!(records.len(), 6);
        assert_eq!(device.outbox_len(), 0);
        for r in &records {
            assert_eq!(r.task, TaskId(7));
            assert_eq!(r.user, UserId(1));
            let loc = r.location().expect("gps payload");
            assert!((loc.latitude() - 45.75).abs() < 0.01);
        }
    }

    #[test]
    fn low_battery_pauses_tasks() {
        let mut device = Device::new(DeviceId(1), UserId(1), trajectory())
            .with_battery(Battery::at_level(0.1));
        device.install(TaskId(1), gps_script(), 60, 0.2, start());
        for i in 0..10 {
            device.tick(start() + i * 60);
        }
        assert_eq!(device.outbox_len(), 0, "below min_battery: no sampling");
    }

    #[test]
    fn depleted_battery_stops_device() {
        let mut device = Device::new(DeviceId(1), UserId(1), trajectory())
            .with_battery(Battery::at_level(0.0));
        device.install(TaskId(1), gps_script(), 60, 0.0, start());
        device.tick(start());
        assert_eq!(device.outbox_len(), 0);
    }

    #[test]
    fn sensor_opt_out_returns_null_to_script() {
        use crate::privacy::PrivacyPreferences;
        let prefs = PrivacyPreferences::default().without_sensor(SensorKind::Gps);
        let mut device =
            Device::new(DeviceId(1), UserId(1), trajectory()).with_preferences(prefs);
        device.install(TaskId(1), gps_script(), 60, 0.0, start());
        device.tick(start());
        // Script checks for null and emits nothing.
        assert_eq!(device.outbox_len(), 0);
        assert_eq!(device.records_produced(), 0);
    }

    #[test]
    fn sampling_drains_battery() {
        let mut device = Device::new(DeviceId(1), UserId(1), trajectory());
        device.install(TaskId(1), gps_script(), 60, 0.0, start());
        for i in 0..60 {
            device.tick(start() + i * 60);
        }
        // One hour: idle drain ~1% plus 60 GPS+battery samples.
        let expected_floor = 1.0 - 0.011 - 60.0 * 3.0e-5;
        assert!(device.battery().level() < 0.999);
        assert!(device.battery().level() > expected_floor - 0.01);
    }

    #[test]
    fn night_ticks_charge_battery() {
        let mut device = Device::new(DeviceId(1), UserId(1), trajectory())
            .with_battery(Battery::at_level(0.5));
        let night = Timestamp::from_day_time(0, 23, 0, 0);
        device.tick(night);
        device.tick(night + 3_600);
        assert!(device.battery().level() > 0.9);
    }

    #[test]
    fn accelerometer_and_network_sensors() {
        let script = Script::compile(
            r#"emit({ "acc": sensor.accelerometer(), "rssi": sensor.network() });"#,
        )
        .unwrap();
        let mut device = Device::new(DeviceId(1), UserId(1), trajectory());
        device.install(TaskId(2), script, 60, 0.0, start());
        device.tick(start() + 3_600); // mid-trajectory: device is moving
        let records = device.drain_outbox();
        assert_eq!(records.len(), 1);
        let m = &records[0].payload;
        let acc = m.field("acc").and_then(Value::as_num).unwrap();
        assert!((9.81..15.0).contains(&acc), "acc {acc}");
        let rssi = m.field("rssi").and_then(Value::as_num).unwrap();
        assert!((-110.0..=-50.0).contains(&rssi), "rssi {rssi}");
    }

    #[test]
    fn install_uninstall() {
        let mut device = Device::new(DeviceId(1), UserId(1), trajectory());
        device.install(TaskId(1), gps_script(), 60, 0.0, start());
        device.install(TaskId(2), gps_script(), 60, 0.0, start());
        assert_eq!(device.installed_count(), 2);
        device.uninstall(TaskId(1));
        assert_eq!(device.installed_count(), 1);
    }

    #[test]
    fn failing_script_does_not_poison_device() {
        let bad = Script::compile("boom.unknown();").unwrap();
        let mut device = Device::new(DeviceId(1), UserId(1), trajectory());
        device.install(TaskId(1), bad, 60, 0.0, start());
        device.install(TaskId(2), gps_script(), 60, 0.0, start());
        device.tick(start());
        // The good task still produced its record.
        assert_eq!(device.outbox_len(), 1);
    }

    /// FNV-1a 64 over `text`.
    fn fnv(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Scripts that reach the sensors in every order the host must serve:
    /// motion or network before the fix, the fix twice, no sensor at all.
    const GOLDEN_SCRIPTS: [(&str, &str); 5] = [
        (
            "acc_then_gps",
            r#"let a = sensor.accelerometer(); let f = sensor.gps();
               if (f != null) {
                   emit({ "acc": a, "lat": f.lat, "lon": f.lon, "accuracy": f.accuracy });
               } else { emit({ "acc": a }); }"#,
        ),
        (
            "net_then_gps",
            r#"let r = sensor.network(); let f = sensor.gps();
               if (f != null) { emit({ "rssi": r, "lat": f.lat, "lon": f.lon }); }"#,
        ),
        (
            "gps_twice",
            r#"let a = sensor.gps(); let b = sensor.gps();
               if (b != null) {
                   emit({ "lat": a.lat, "lon": b.lon, "accuracy": b.accuracy,
                          "battery": sensor.battery() });
               }"#,
        ),
        (
            "no_sensor",
            r#"log("tick");
               emit({ "lat": 45.75, "lon": 4.855, "t": time.now(), "h": time.hour() });"#,
        ),
        (
            "acc_only",
            r#"emit(sensor.accelerometer()); emit(sensor.network());"#,
        ),
    ];

    /// Privacy settings with and without each location-touching filter.
    fn golden_prefs() -> Vec<(&'static str, PrivacyPreferences)> {
        let zone = crate::privacy::ExclusionZone::new(
            GeoPoint::new(45.75, 4.856).unwrap(),
            geo::Meters::new(300.0),
        );
        let window = crate::privacy::TimeWindow::new(11, 13);
        let blur = geo::Meters::new(50.0);
        vec![
            ("open", PrivacyPreferences::default()),
            (
                "zone",
                PrivacyPreferences::default().with_exclusion_zone(zone),
            ),
            ("blur", PrivacyPreferences::default().with_blur(blur)),
            (
                "window",
                PrivacyPreferences::default().with_time_window(window),
            ),
            (
                "all",
                PrivacyPreferences::default()
                    .with_exclusion_zone(zone)
                    .with_blur(blur)
                    .with_time_window(window)
                    .with_salt(99),
            ),
            (
                "no_gps",
                PrivacyPreferences::default().without_sensor(SensorKind::Gps),
            ),
        ]
    }

    /// Runs one script under one preference set on every path that builds
    /// a device host (VM and interpreter samples, scheduled ticks, a device
    /// with no trajectory) and renders every payload, battery level and
    /// counter. `{:?}` prints an `f64` in its shortest round-trip form, so
    /// the text pins every bit.
    fn golden_run(src: &str, prefs: &PrivacyPreferences) -> (String, u64) {
        let script = Script::compile(src).unwrap();
        let times = [-600, 0, 1_234, 3_617, 7_200, 14_000, 20_000];
        let mut out = String::new();
        let mut suppressed = 0;
        let mut render = |tag: &str, device: &Device, records: &[SensedRecord]| {
            for r in records {
                out.push_str(&format!(
                    "{tag} t={} {}\n",
                    r.time.seconds(),
                    r.payload.to_json()
                ));
            }
            out.push_str(&format!(
                "{tag} battery={:?} produced={} suppressed={}\n",
                device.battery().level(),
                device.records_produced(),
                device.records_suppressed()
            ));
        };
        let fresh = |trajectory: Trajectory| {
            Device::new(DeviceId(1), UserId(1), trajectory).with_preferences(prefs.clone())
        };

        for (tag, trajectory) in [
            ("vm", trajectory()),
            ("vm-empty", Trajectory::new(UserId(1), Vec::new())),
        ] {
            let mut device = fresh(trajectory);
            let mut vm = Vm::new();
            let mut records = Vec::new();
            for t in times {
                records.extend(device.sample_scripted(
                    TaskId(3),
                    &script,
                    &mut vm,
                    start() + t,
                ));
            }
            render(tag, &device, &records);
            suppressed += device.records_suppressed();
        }

        let mut device = fresh(trajectory());
        let mut records = Vec::new();
        for t in times {
            records.extend(device.sample_interpreted(TaskId(3), &script, start() + t));
        }
        render("interp", &device, &records);
        suppressed += device.records_suppressed();

        let mut device = fresh(trajectory());
        device.install(TaskId(3), script.clone(), 420, 0.0, start());
        for i in 0..55 {
            device.tick(start() - 600 + i * 300);
        }
        let records = device.drain_outbox();
        render("tick", &device, &records);
        suppressed += device.records_suppressed();
        (out, suppressed)
    }

    #[test]
    fn device_host_outputs_are_pinned_bit_for_bit() {
        // (script/prefs, suppressed records, FNV-1a of the rendered run),
        // pinned from a host that looked up position and speed eagerly on
        // every run.
        const EXPECTED: [(&str, u64, u64); 30] = [
            ("acc_then_gps/open", 0, 0xf576024a78a0173d),
            ("acc_then_gps/zone", 9, 0x8dafa7d4b104a203),
            ("acc_then_gps/blur", 0, 0x82740b37281920d5),
            ("acc_then_gps/window", 30, 0x1eedcc182afb58f0),
            ("acc_then_gps/all", 36, 0x57b30c71f4a49d58),
            ("acc_then_gps/no_gps", 0, 0x713b8d1b9daeda14),
            ("net_then_gps/open", 0, 0x2f9a84e9bf6bc026),
            ("net_then_gps/zone", 9, 0x0b53789b3138ae79),
            ("net_then_gps/blur", 0, 0xa8877553a8d153b2),
            ("net_then_gps/window", 25, 0x2aacdc8c2c014cd6),
            ("net_then_gps/all", 31, 0x854d5d78f227c3d9),
            ("net_then_gps/no_gps", 0, 0x737c0cdb2c2e88f0),
            ("gps_twice/open", 0, 0x32ebc53a6b6c130e),
            ("gps_twice/zone", 9, 0x5011ff7c79440f91),
            ("gps_twice/blur", 0, 0x3fe81ba1e2f83832),
            ("gps_twice/window", 25, 0x1b06a80d0d58ecc2),
            ("gps_twice/all", 31, 0x6a37456749133d99),
            ("gps_twice/no_gps", 0, 0xa0fc7b6b4ce5e03d),
            ("no_sensor/open", 0, 0xfc115ca1eda61ccb),
            ("no_sensor/zone", 48, 0xca925be7a729c40d),
            ("no_sensor/blur", 0, 0xa2e950df469a29e8),
            ("no_sensor/window", 30, 0x3f85581203516c83),
            ("no_sensor/all", 48, 0xca925be7a729c40d),
            ("no_sensor/no_gps", 0, 0xfc115ca1eda61ccb),
            ("acc_only/open", 0, 0x5529315421375a4a),
            ("acc_only/zone", 0, 0x5529315421375a4a),
            ("acc_only/blur", 0, 0x5529315421375a4a),
            ("acc_only/window", 60, 0x16abc6b266e1966e),
            ("acc_only/all", 60, 0x16abc6b266e1966e),
            ("acc_only/no_gps", 0, 0x5529315421375a4a),
        ];
        let mut actual = Vec::new();
        for (name, src) in GOLDEN_SCRIPTS {
            for (prefs_name, prefs) in golden_prefs() {
                let (text, suppressed) = golden_run(src, &prefs);
                actual.push((format!("{name}/{prefs_name}"), suppressed, fnv(&text), text));
            }
        }
        let table: String = actual
            .iter()
            .map(|(case, s, h, _)| format!("(\"{case}\", {s}, 0x{h:016x}),\n"))
            .collect();
        assert_eq!(actual.len(), EXPECTED.len(), "actual table:\n{table}");
        for ((case, suppressed, digest, text), (want_case, want_s, want_h)) in
            actual.iter().zip(EXPECTED)
        {
            assert_eq!(case, want_case);
            assert_eq!(
                (*suppressed, *digest),
                (want_s, want_h),
                "{case} drifted; rendered run:\n{text}"
            );
        }
    }

    #[test]
    fn sensed_record_location_extraction() {
        let payload = Record::new([("lat", Value::Num(45.0)), ("lon", Value::Num(4.0))]);
        let r = SensedRecord {
            task: TaskId(1),
            user: UserId(1),
            device: DeviceId(1),
            time: Timestamp::new(0),
            payload: Value::Record(payload),
        };
        assert_eq!(r.location().unwrap(), GeoPoint::new(45.0, 4.0).unwrap());
        assert!(r.to_location_record().is_some());
        let no_loc = SensedRecord {
            payload: Value::Num(1.0),
            ..r
        };
        assert!(no_loc.location().is_none());
    }
}
