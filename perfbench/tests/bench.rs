//! The benchmark's own checks, at a tiny input size.

use obs::json::{self, JsonValue};
use perfbench::measure::{measure, Metric, Report, Size, Workload};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    measure(workload, Size::Tiny, seed, 0.0, trace).expect("correctness gates pass")
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} reported"))
        .value
}

#[test]
fn benchmark_json_names_exactly_the_workloads() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let known: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, known);
}

#[test]
fn every_named_metric_is_reported_with_its_unit() {
    for workload in Workload::ALL {
        let plain = tiny(workload, 5, false);
        assert_eq!(
            reported(&plain.end_to_end()),
            declared("end_to_end"),
            "{workload:?}"
        );
        for m in plain.end_to_end() {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload:?} {m:?}");
        }
        let traced = tiny(workload, 5, true);
        assert_eq!(
            reported(&traced.per_layer()),
            declared("per_layer"),
            "{workload:?}"
        );
        for trace in [false, true] {
            let report = if trace { &traced } else { &plain };
            let line = json::parse(&report.result_json(trace)).expect("result line parses");
            let JsonValue::Obj(fields) = &line else {
                panic!("result line is an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(line.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
        }
    }
}

#[test]
fn deterministic_metrics_and_digest_repeat_per_seed() {
    const DETERMINISTIC: [&str; 3] =
        ["wire_bytes_per_record", "ack_p50_sim_ms", "ack_p99_sim_ms"];
    const SHARES: [&str; 2] = ["missed_record_share", "failed_release_share"];
    for workload in Workload::ALL {
        let a = tiny(workload, 11, true);
        let b = tiny(workload, 11, true);
        let other = tiny(workload, 12, true);
        assert_eq!(a.digest(), b.digest(), "{workload:?}");
        assert_ne!(a.digest(), other.digest(), "{workload:?}");
        for name in DETERMINISTIC {
            assert_eq!(value(&a.end_to_end(), name), value(&b.end_to_end(), name));
        }
        for name in SHARES {
            assert_eq!(value(&a.per_layer(), name), value(&b.per_layer(), name));
        }
        let counts = |r: &Report| -> Vec<Metric> {
            r.per_layer()
                .into_iter()
                .filter(|m| m.unit != "ms")
                .collect()
        };
        assert_eq!(counts(&a), counts(&b), "{workload:?}");
    }
}

#[test]
fn every_reported_timing_covers_real_work() {
    for workload in Workload::ALL {
        let report = tiny(workload, 7, false);
        let e2e = report.end_to_end();
        assert!(value(&e2e, "setup_s") >= 1e-3, "{workload:?}: {e2e:?}");
        assert!(
            value(&e2e, "window_mean_ms") >= 1.0,
            "{workload:?}: {e2e:?}"
        );
        // records_per_s divides by the timed loop: at least 1 ms of it.
        let published = value(
            &tiny(workload, 7, true).per_layer(),
            "collect.records_sensed",
        );
        assert!(
            published / value(&e2e, "records_per_s") >= 1e-3,
            "{workload:?}: {e2e:?}"
        );
    }
}

#[test]
fn traced_layers_add_up_and_export_an_obs_trace() {
    for workload in Workload::ALL {
        let report = tiny(workload, 3, true);
        let layers: f64 = report.layer_times().iter().map(|(_, ms)| ms).sum();
        let wall = report.traced_wall_ms();
        assert!(
            (wall - layers).abs() <= 0.05 * wall,
            "{workload:?}: layers {layers} ms of a {wall} ms traced wall"
        );
        assert!(report.trace_overhead().is_some());
        let trace = obs::report::parse_trace(&report.to_jsonl()).expect("obs trace parses");
        let families = [
            "mobility", "collect", "simnet", "campaign", "privapi", "bench",
        ];
        let missing = trace.missing_families(&families.map(String::from));
        assert!(missing.is_empty(), "{workload:?}: missing {missing:?}");
        assert!(!trace.latency_segments().is_empty());
    }
}
