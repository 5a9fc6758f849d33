//! E14 — script execution tiers: tree-walking interpreter vs bytecode VM.
//!
//! The client runtime executes every deployed sensing script once per
//! reading, so script execution sits on the hottest per-device path. This
//! experiment drives the E7 virtual-sensor workload through both tiers —
//! [`Device::sample_interpreted`] (the tree-walker baseline) and
//! [`Device::sample_scripted`] (compile-once bytecode VM with a reused
//! executor) — over two identical fleets, asserts record-for-record parity
//! before reporting any number, and emits throughput plus speedup. When the
//! process installed [`obs::alloc::CountingAlloc`] (`bench_summary` does),
//! it also reports each tier's heap allocations per execution, counted on
//! one more pass with the obs recorder paused: the counts are deterministic,
//! so CI compares them exactly and any new allocation on the script path
//! fails the build.
//!
//! The `bench_summary` binary drives [`run`] and writes the numbers as
//! `BENCH_e14.json`; the `e14_script` Criterion bench measures the same
//! two paths per reading.

use crate::e7::build_fleet;
use crate::Scale;
use apisense::device::{Device, SensedRecord};
use apisense::hive::TaskId;
use apisense::script::{Script, Vm};
use apisense::virtual_sensor::{SelectionStrategy, VirtualSensor};
use mobility::Timestamp;
use std::fmt;
use std::time::Instant;

/// The sensing script both tiers execute: a few sensor reads feeding a
/// compute-heavy smoothing + activity-classification loop, the shape the
/// paper's continuous-sensing tasks take (sample, filter locally, emit one
/// compact record).
pub const SENSING_SCRIPT: &str = r#"
    fn smooth(prev, sample, alpha) {
        return prev + alpha * (sample - prev);
    }

    fn classify(energy) {
        if (energy > 3) { return "vehicle"; }
        if (energy > 0.8) { return "walking"; }
        return "still";
    }

    let level = sensor.accelerometer();
    let gps = sensor.gps();
    let battery = sensor.battery();
    if (level == null) { level = 9.81; }
    let energy = 0;
    let i = 0;
    while (i < 48) {
        let s = sensor.accelerometer();
        if (s == null) { s = level; }
        level = smooth(level, s, 0.3);
        let d = s - level;
        energy = energy + d * d;
        i = i + 1;
    }
    let lat = null;
    let lon = null;
    if (gps != null) {
        lat = gps.lat;
        lon = gps.lon;
    }
    emit({
        "activity": classify(energy),
        "energy": energy,
        "level": level,
        "battery": battery,
        "lat": lat,
        "lon": lon
    });
"#;

/// Workload shape for one E14 run.
#[derive(Debug, Clone)]
pub struct E14Config {
    /// Label recorded in the report (`smoke`, `small`, `medium`, `full`).
    pub label: String,
    /// Fleet size.
    pub devices: usize,
    /// Virtual-sensor queries issued per tier.
    pub queries: usize,
    /// Devices answering each query.
    pub per_query: usize,
}

impl E14Config {
    /// Tiny CI smoke shape: sub-second end to end, still asserting parity
    /// on every record.
    pub fn smoke() -> Self {
        Self {
            label: "smoke".into(),
            devices: 6,
            queries: 8,
            per_query: 3,
        }
    }

    /// The canonical fleet for `scale`.
    pub fn from_scale(scale: Scale) -> Self {
        let (devices, queries) =
            crate::data::by_scale(scale, (40, 60), (70, 120), (100, 240), (150, 360));
        Self {
            label: format!("{scale:?}").to_lowercase(),
            devices,
            queries,
            per_query: 5,
        }
    }
}

/// Measured interpreter-vs-VM numbers plus the parity they were taken
/// under.
#[derive(Debug, Clone)]
pub struct E14Report {
    /// Workload label.
    pub label: String,
    /// Fleet size.
    pub devices: usize,
    /// Queries issued per tier.
    pub queries: usize,
    /// Devices answering each query.
    pub per_query: usize,
    /// Script executions per tier.
    pub executions: usize,
    /// Records produced per tier (identical across tiers by assertion).
    pub records: usize,
    /// Total wall time of the interpreter tier, ms.
    pub interp_total_ms: f64,
    /// Total wall time of the VM tier, ms.
    pub vm_total_ms: f64,
    /// Heap allocations per interpreter execution (`None` without
    /// [`obs::alloc::CountingAlloc`]).
    pub interp_allocs_per_exec: Option<f64>,
    /// Heap allocations per VM execution (`None` without
    /// [`obs::alloc::CountingAlloc`]).
    pub vm_allocs_per_exec: Option<f64>,
    /// Whether both tiers produced identical record streams (asserted in
    /// [`run`]; recorded so the JSON artifact carries the invariant).
    pub parity_ok: bool,
}

impl E14Report {
    /// Throughput speedup of the VM tier over the interpreter.
    pub fn speedup(&self) -> f64 {
        self.interp_total_ms / self.vm_total_ms.max(1e-9)
    }

    /// Interpreter script executions per second.
    pub fn interp_execs_per_sec(&self) -> f64 {
        self.executions as f64 / (self.interp_total_ms.max(1e-9) / 1e3)
    }

    /// VM script executions per second.
    pub fn vm_execs_per_sec(&self) -> f64 {
        self.executions as f64 / (self.vm_total_ms.max(1e-9) / 1e3)
    }

    /// Renders the report as a JSON object (hand-rolled: the workspace has
    /// no JSON serializer dependency).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"e14_script_vm\",\n{}  \"scale\": \"{}\",\n  \
             \"devices\": {},\n  \"queries\": {},\n  \"per_query\": {},\n  \
             \"executions\": {},\n  \"records\": {},\n  \
             \"interp_total_ms\": {:.3},\n  \"vm_total_ms\": {:.3},\n  \
             \"interp_execs_per_sec\": {:.1},\n  \"vm_execs_per_sec\": {:.1},\n  \
             \"speedup\": {:.3},\n  \"interp_allocs_per_exec\": {},\n  \
             \"vm_allocs_per_exec\": {},\n  \"parity_ok\": {}\n}}\n",
            crate::host_json(),
            self.label,
            self.devices,
            self.queries,
            self.per_query,
            self.executions,
            self.records,
            self.interp_total_ms,
            self.vm_total_ms,
            self.interp_execs_per_sec(),
            self.vm_execs_per_sec(),
            self.speedup(),
            json_count(self.interp_allocs_per_exec),
            json_count(self.vm_allocs_per_exec),
            self.parity_ok,
        )
    }
}

/// A per-execution count as JSON: three decimals, or `null` when not
/// counted.
fn json_count(count: Option<f64>) -> String {
    count.map_or_else(|| "null".into(), |n| format!("{n:.3}"))
}

impl fmt::Display for E14Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E14 script tiers ({}, {} devices, {} queries x {} per query, \
             {} executions, {} records, parity {})",
            self.label,
            self.devices,
            self.queries,
            self.per_query,
            self.executions,
            self.records,
            if self.parity_ok { "ok" } else { "FAILED" }
        )?;
        let widths = [14, 12, 14, 9, 12];
        let allocs = |n: Option<f64>| n.map_or_else(|| "-".into(), |n| format!("{n:.2}"));
        writeln!(
            f,
            "{}",
            crate::row(
                &[
                    "tier".into(),
                    "total ms".into(),
                    "execs/sec".into(),
                    "speedup".into(),
                    "allocs/exec".into(),
                ],
                &widths
            )
        )?;
        writeln!(
            f,
            "{}",
            crate::row(
                &[
                    "interpreter".into(),
                    format!("{:.3}", self.interp_total_ms),
                    format!("{:.0}", self.interp_execs_per_sec()),
                    "1.00x".into(),
                    allocs(self.interp_allocs_per_exec),
                ],
                &widths
            )
        )?;
        write!(
            f,
            "{}",
            crate::row(
                &[
                    "bytecode vm".into(),
                    format!("{:.3}", self.vm_total_ms),
                    format!("{:.0}", self.vm_execs_per_sec()),
                    format!("{:.2}x", self.speedup()),
                    allocs(self.vm_allocs_per_exec),
                ],
                &widths
            )
        )
    }
}

/// Advances every device's battery by one idle minute.
fn idle_drain(fleet: &mut [Device], now: Timestamp) {
    let charging = now.is_night();
    for device in fleet.iter_mut() {
        device.battery_mut().advance(60, charging);
    }
}

/// Timing repetitions per [`run`]: the workload is deterministic, so each
/// repetition redoes identical work and the per-tier minimum is the run
/// least disturbed by the scheduler (same estimator criterion uses).
const REPS: usize = 5;

/// What one pass of the workload measured.
struct Pass {
    interp_ms: f64,
    vm_ms: f64,
    /// Allocations the current thread made inside each tier's executions.
    interp_allocs: u64,
    vm_allocs: u64,
    executions: usize,
    records: Vec<SensedRecord>,
}

/// One timed pass of the full workload: fresh fleets, interleaved per-query
/// timing and allocation counting of both tiers, selection parity asserted
/// on every query.
fn run_once(config: &E14Config, script: &Script, vm: &mut Vm) -> Pass {
    let allocations = || obs::alloc::allocations().unwrap_or(0);
    let mut interp_fleet = build_fleet(config.devices, 2, 0xE14);
    let mut vm_fleet = build_fleet(config.devices, 2, 0xE14);
    let mut vs_interp = VirtualSensor::new(SelectionStrategy::RoundRobin, config.per_query);
    let mut vs_vm = VirtualSensor::new(SelectionStrategy::RoundRobin, config.per_query);
    let task = TaskId(14);
    let start = Timestamp::from_day_time(0, 8, 0, 0);
    let mut interp_total_ms = 0.0;
    let mut vm_total_ms = 0.0;
    let (mut interp_allocs, mut vm_allocs) = (0, 0);
    let mut executions = 0;
    let mut interp_records = Vec::new();
    let mut vm_records = Vec::new();
    for q in 0..config.queries {
        let now = start + (q as i64) * 60;
        let selected = vs_interp.select(&interp_fleet, now);
        let selected_vm = vs_vm.select(&vm_fleet, now);
        assert_eq!(
            selected, selected_vm,
            "query {q}: tier fleets diverged in selection"
        );
        executions += selected.len();

        let timer = Instant::now();
        for &idx in &selected {
            let before = allocations();
            let records = interp_fleet[idx].sample_interpreted(task, script, now);
            interp_allocs += allocations() - before;
            interp_records.extend(records);
        }
        interp_total_ms += timer.elapsed().as_secs_f64() * 1e3;

        let timer = Instant::now();
        for &idx in &selected {
            let before = allocations();
            let records = vm_fleet[idx].sample_scripted(task, script, vm, now);
            vm_allocs += allocations() - before;
            vm_records.extend(records);
        }
        vm_total_ms += timer.elapsed().as_secs_f64() * 1e3;

        idle_drain(&mut interp_fleet, now);
        idle_drain(&mut vm_fleet, now);
    }
    assert_eq!(
        interp_records,
        vm_records,
        "tiers produced different record streams ({} vs {} records)",
        interp_records.len(),
        vm_records.len()
    );
    Pass {
        interp_ms: interp_total_ms,
        vm_ms: vm_total_ms,
        interp_allocs,
        vm_allocs,
        executions,
        records: interp_records,
    }
}

/// Runs E14: executes the sensing workload through both tiers over two
/// identical fleets, asserting selection and record parity on every query
/// before reporting any timing. The whole workload is repeated `REPS`
/// times (fleets rebuilt from the same seed each time, parity re-asserted)
/// and each tier reports its minimum total, which discards scheduler
/// preemptions instead of averaging them in. Allocations are counted on one
/// more pass with the obs recorder paused, so a traced run reports the
/// script path's allocations, not the recorder's.
pub fn run(config: &E14Config) -> E14Report {
    let script = Script::compile(SENSING_SCRIPT).expect("sensing script compiles");
    let mut vm = Vm::new();
    let mut interp_total_ms = f64::MAX;
    let mut vm_total_ms = f64::MAX;
    let mut executions = 0;
    let mut records = 0;
    let mut first_records: Option<Vec<SensedRecord>> = None;
    for _ in 0..REPS {
        let pass = run_once(config, &script, &mut vm);
        interp_total_ms = interp_total_ms.min(pass.interp_ms);
        vm_total_ms = vm_total_ms.min(pass.vm_ms);
        executions = pass.executions;
        records = pass.records.len();
        match &first_records {
            None => first_records = Some(pass.records),
            Some(first) => assert_eq!(
                first, &pass.records,
                "deterministic workload diverged across repetitions"
            ),
        }
    }
    let (interp_allocs_per_exec, vm_allocs_per_exec) = match obs::alloc::allocations() {
        Some(_) => {
            let recording = obs::enabled();
            obs::disable();
            let pass = run_once(config, &script, &mut vm);
            if recording {
                obs::enable();
            }
            let per_exec = |n: u64| Some(n as f64 / pass.executions.max(1) as f64);
            (per_exec(pass.interp_allocs), per_exec(pass.vm_allocs))
        }
        None => (None, None),
    };
    E14Report {
        label: config.label.clone(),
        devices: config.devices,
        queries: config.queries,
        per_query: config.per_query,
        executions,
        records,
        interp_total_ms,
        vm_total_ms,
        interp_allocs_per_exec,
        vm_allocs_per_exec,
        parity_ok: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_upholds_parity_and_renders() {
        let report = run(&E14Config::smoke());
        assert!(report.parity_ok);
        assert_eq!(report.executions, report.queries * report.per_query);
        assert!(report.records > 0, "{report:?}");
        assert!(report.interp_total_ms > 0.0);
        assert!(report.vm_total_ms > 0.0);
        assert!(
            report.speedup() > 1.0,
            "vm must outrun the interpreter: {report}"
        );
        let json = report.to_json();
        for key in [
            "\"experiment\": \"e14_script_vm\"",
            "\"interp_total_ms\"",
            "\"vm_total_ms\"",
            "\"interp_execs_per_sec\"",
            "\"vm_execs_per_sec\"",
            "\"speedup\"",
            "\"interp_allocs_per_exec\": null",
            "\"vm_allocs_per_exec\": null",
            "\"parity_ok\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = report.to_string();
        assert!(text.contains("interpreter"));
        assert!(text.contains("bytecode vm"));
    }

    #[test]
    fn config_constructors_cover_scales() {
        assert_eq!(E14Config::smoke().devices, 6);
        let medium = E14Config::from_scale(Scale::Medium);
        assert_eq!(medium.label, "medium");
        assert_eq!(medium.devices, 70);
        assert_eq!(medium.queries, 120);
        assert_eq!(medium.per_query, 5);
    }
}
