//! Observation-parity property tests: turning the obs recorder on must
//! never change what the pipeline publishes or audits.
//!
//! The obs layer promises recording is purely additive — atomic counter
//! bumps and trace appends, no data-path branching. These tests drive the
//! two paths with the densest instrumentation (the fault-injected fleet
//! and the incremental streaming publisher) twice, recorder off then on,
//! and require byte-identical published windows plus identical audit
//! deltas ([`privapi::streaming::IngestDelta`],
//! [`privapi::streaming::StrategyCacheDelta`]). The counters themselves
//! must also say what happened: `vm.fuel_spent` is checked against the fuel
//! each run consumed, and every audit instrument must equal the sum of its
//! field over the audit records the run returned.
//!
//! The obs recorder is process-global, so every test here serializes on
//! one lock; each `tests/*.rs` file is its own process, so nothing else
//! races the enabled flag.

use apisense::collect::window_fingerprint;
use apisense::fleet::{run_fleet, FleetConfig};
use apisense::script::{Host, Script, Value, Vm};
use apisense::ApisenseError;
use mobility::gen::{CityModel, PopulationConfig};
use mobility::WindowedDataset;
use obs::{Audit, Tally};
use privapi::prelude::*;
use privapi::streaming::{BaselineDelta, IngestDelta, StrategyCacheDelta, WindowDelta};
use proptest::prelude::*;
use simnet::FaultPlan;

static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// One chaos fleet run: per-window byte fingerprints plus the ingestion
/// audit, the pair the recorder must not perturb.
fn chaos_fleet(seed: u64, users: usize, days: i64) -> (Vec<Vec<u8>>, Vec<IngestDelta>) {
    let outcome = run_fleet(&FleetConfig {
        users,
        days,
        faults: FaultPlan::chaos(seed),
        ..FleetConfig::small(seed)
    });
    let fingerprints = outcome.windows.iter().map(window_fingerprint).collect();
    (fingerprints, outcome.deltas)
}

/// One incremental streaming run: per-window released bytes plus the
/// summed protected-side cache audit.
fn stream(
    seed: u64,
    users: usize,
    days: usize,
) -> (
    Vec<(SelectionReport, mobility::Dataset)>,
    StrategyCacheDelta,
) {
    let data = CityModel::builder()
        .seed(seed)
        .build()
        .generate_population(&PopulationConfig {
            users,
            days,
            sampling_interval_s: 1_800,
            ..PopulationConfig::default()
        });
    let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
    let mut totals = StrategyCacheDelta::default();
    let mut releases = Vec::new();
    for window in &WindowedDataset::partition(&data) {
        let release = publisher.publish_window(window).expect("publish succeeds");
        totals += release.strategies;
        releases.push((release.published.selection, release.published.dataset));
    }
    (releases, totals)
}

/// Runs `work` with the recorder off, then on, restoring the prior state,
/// and returns both results for equality assertions.
fn off_then_on<T>(mut work: impl FnMut() -> T) -> (T, T) {
    let was_enabled = obs::enabled();
    obs::disable();
    let off = work();
    obs::enable();
    let on = work();
    if was_enabled {
        obs::enable();
    } else {
        obs::disable();
    }
    (off, on)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A fault-injected fleet publishes byte-identical windows with
    /// identical ingestion audits whether or not the recorder is on.
    #[test]
    fn chaos_fleet_is_recorder_invariant(seed in 0u64..1_000, users in 3usize..7) {
        let _guard = OBS_LOCK.lock().unwrap();
        let ((off_windows, off_deltas), (on_windows, on_deltas)) =
            off_then_on(|| chaos_fleet(seed, users, 2));
        prop_assert_eq!(off_windows, on_windows, "published windows drifted under recording");
        prop_assert_eq!(off_deltas, on_deltas, "IngestDelta audit drifted under recording");
    }

    /// The incremental streaming publisher releases identical bytes and
    /// identical protected-side cache audits with the recorder on.
    #[test]
    fn streaming_is_recorder_invariant(seed in 0u64..1_000, users in 3usize..8) {
        let _guard = OBS_LOCK.lock().unwrap();
        let ((off_releases, off_totals), (on_releases, on_totals)) =
            off_then_on(|| stream(seed, users, 3));
        prop_assert!(!off_releases.is_empty(), "the run must publish at least one window");
        prop_assert_eq!(off_releases, on_releases, "released bytes drifted under recording");
        prop_assert_eq!(off_totals, on_totals, "StrategyCacheDelta drifted under recording");
    }
}

/// While recording, the instrumented families actually accumulate — the
/// parity above is not vacuous.
#[test]
fn recording_accumulates_the_instrumented_families() {
    let _guard = OBS_LOCK.lock().unwrap();
    let was_enabled = obs::enabled();
    let before: u64 = obs::metrics::snapshot()
        .counters
        .iter()
        .map(|(_, v)| *v)
        .sum();
    obs::enable();
    let _ = chaos_fleet(7, 4, 2);
    let _ = stream(7, 4, 2);
    if was_enabled {
        obs::enable();
    } else {
        obs::disable();
    }
    let snapshot = obs::metrics::snapshot();
    let after: u64 = snapshot.counters.iter().map(|(_, v)| *v).sum();
    assert!(
        after > before,
        "recording a fleet + stream must move counters"
    );
    for family in [
        "ingest.",
        "reliable.",
        "net.",
        "streaming.",
        "strategy.",
        "baseline.",
    ] {
        assert!(
            snapshot
                .counters
                .iter()
                .any(|(name, value)| name.starts_with(family) && *value > 0),
            "no non-zero counter in family {family:?}"
        );
    }
}

/// A recorded streaming run breaks each candidate's protected-side work
/// into phase spans under its `engine.candidate` span, and records where
/// the work store is filled, so a trace shows where a window's time goes.
#[test]
fn candidate_phases_record_as_child_spans() {
    let _guard = OBS_LOCK.lock().unwrap();
    let was_enabled = obs::enabled();
    obs::reset();
    obs::enable();
    let _ = stream(11, 4, 2);
    if !was_enabled {
        obs::disable();
    }
    let (spans, _, _) = obs::trace::snapshot();
    let name_of = |id: u64| spans.iter().find(|s| s.id == id).map(|s| s.name);
    // Candidates run on rayon workers, yet each opens under its sweep.
    let candidates: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "engine.candidate")
        .collect();
    assert!(!candidates.is_empty(), "no engine.candidate span recorded");
    for span in candidates {
        assert_eq!(
            name_of(span.parent),
            Some("engine.sweep"),
            "engine.candidate"
        );
    }
    // So do the per-user spans of the fan-outs inside a candidate's
    // phases and the original side's advance.
    for (user_span, parents) in [
        ("user.anonymize", &["candidate.anonymize"][..]),
        (
            "user.extract",
            &["candidate.extract", "streaming.advance"][..],
        ),
    ] {
        let recorded: Vec<_> = spans.iter().filter(|s| s.name == user_span).collect();
        assert!(!recorded.is_empty(), "no {user_span} span recorded");
        for span in recorded {
            let parent = name_of(span.parent);
            assert!(
                parent.is_some_and(|p| parents.contains(&p)),
                "{user_span} under {parent:?}"
            );
        }
    }
    for phase in [
        "candidate.anonymize",
        "candidate.extract",
        "candidate.utility",
        "candidate.match",
    ] {
        let recorded: Vec<_> = spans.iter().filter(|s| s.name == phase).collect();
        assert!(!recorded.is_empty(), "no {phase} span recorded");
        for span in recorded {
            assert_eq!(name_of(span.parent), Some("engine.candidate"), "{phase}");
        }
    }
    let fills: Vec<_> = spans.iter().filter(|s| s.name == "store.fill").collect();
    assert!(!fills.is_empty(), "no store.fill span recorded");
    for span in fills {
        let parent = name_of(span.parent);
        assert!(
            matches!(parent, Some("engine.sweep" | "streaming.advance")),
            "store.fill under {parent:?}"
        );
    }
    let store = obs::metrics::snapshot();
    for counter in ["strategy.store_lookups", "strategy.store_fills"] {
        assert!(
            store
                .counters
                .iter()
                .any(|(name, v)| name == counter && *v > 0),
            "{counter} never counted"
        );
    }
}

/// Asserts that each `<family>.<field>` counter in `counters` equals the
/// sum of that field over the audit records in `tally`, and that the
/// records counted something.
fn assert_instruments_match<A: Audit>(counters: &[(String, u64)], tally: &Tally<A>) {
    assert!(
        tally.values().any(|v| v > 0),
        "{} recorded nothing",
        A::FAMILY
    );
    for (field, sum) in tally.counters() {
        let name = format!("{}.{field}", A::FAMILY);
        let recorded = counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert_eq!(recorded, Some(sum), "{name}");
    }
}

/// The instruments equal the audit: every `<family>.<field>` counter of a
/// recorded streaming run and a raw fleet run equals the sum of that field
/// over the `PublishedWindow` and `IngestDelta` records the same runs
/// returned.
#[test]
fn instruments_equal_the_returned_audit() {
    let _guard = OBS_LOCK.lock().unwrap();
    let was_enabled = obs::enabled();
    obs::reset();
    obs::enable();
    let data = CityModel::builder()
        .seed(23)
        .build()
        .generate_population(&PopulationConfig {
            users: 5,
            days: 3,
            sampling_interval_s: 1_800,
            ..PopulationConfig::default()
        });
    let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
    let mut windows = Tally::<WindowDelta>::default();
    let mut baselines = Tally::<BaselineDelta>::default();
    let mut strategies = Tally::<StrategyCacheDelta>::default();
    for window in &WindowedDataset::partition(&data) {
        let release = publisher.publish_window(window).expect("publish succeeds");
        windows.add(&release.delta);
        baselines.add(&release.baseline);
        strategies.add(&release.strategies);
    }
    let (_, deltas) = chaos_fleet(29, 4, 2);
    let mut ingest = Tally::<IngestDelta>::default();
    for delta in &deltas {
        ingest.add(delta);
    }
    if !was_enabled {
        obs::disable();
    }
    let counters = obs::metrics::snapshot().counters;
    assert_instruments_match(&counters, &windows);
    assert_instruments_match(&counters, &baselines);
    assert_instruments_match(&counters, &strategies);
    assert_instruments_match(&counters, &ingest);
}

/// Host for the fuel-counter test: every call returns `null`.
struct NullHost;

impl Host for NullHost {
    fn call(&mut self, _: &str, _: &mut [Value]) -> Result<Value, ApisenseError> {
        Ok(Value::Null)
    }
}

/// Runs `script` once on a fresh VM with `fuel` and returns the outcome
/// with what the run added to the `vm.fuel_spent` counter.
fn run_counting_fuel(script: &Script, fuel: u64) -> (Result<Value, ApisenseError>, u64) {
    let counter = obs::metrics::counter("vm.fuel_spent");
    let before = counter.get();
    let outcome = script.run_vm(&mut Vm::new(), &mut NullHost, fuel);
    (outcome, counter.get() - before)
}

/// `vm.fuel_spent` counts the fuel each run consumed — budget minus what
/// remains — whether the run completes, fails, or exhausts its budget.
#[test]
fn vm_fuel_counter_records_the_fuel_each_run_consumed() {
    let _guard = OBS_LOCK.lock().unwrap();
    let was_enabled = obs::enabled();
    obs::enable();

    // A clean run consumes exactly the smallest budget that completes it.
    let clean = Script::compile("let a = 1; let b = a + 2; emit(b); b * 3;").unwrap();
    let needed = (0..1_000)
        .find(|&fuel| run_counting_fuel(&clean, fuel).0.is_ok())
        .expect("the script completes on a small budget");
    for fuel in [needed, needed + 1, 100_000] {
        assert_eq!(
            run_counting_fuel(&clean, fuel),
            (Ok(Value::Num(9.0)), needed)
        );
    }
    // Below that, the run exhausts having consumed no more than its budget.
    for fuel in 0..needed {
        let (outcome, spent) = run_counting_fuel(&clean, fuel);
        assert_eq!(outcome, Err(ApisenseError::FuelExhausted));
        assert!(spent <= fuel, "spent {spent} of {fuel}");
    }

    // A runtime error consumes the fuel charged up to the failing op, which
    // is the smallest budget that reaches the error.
    let failing = Script::compile("let a = 1; emit(a); let b = null + a; emit(b);").unwrap();
    let runtime_error = |outcome: &Result<Value, ApisenseError>| matches!(outcome, Err(ApisenseError::Runtime(m)) if m.contains("cannot add"));
    let to_error = (0..1_000)
        .find(|&fuel| runtime_error(&run_counting_fuel(&failing, fuel).0))
        .expect("the script reaches its runtime error on a small budget");
    for fuel in [to_error, to_error + 1, 100_000] {
        let (outcome, spent) = run_counting_fuel(&failing, fuel);
        assert!(runtime_error(&outcome), "{outcome:?}");
        assert_eq!(spent, to_error);
    }

    // An empty infinite loop charges one unit per step, so exhaustion
    // consumes the whole budget.
    let spin = Script::compile("while (true) {}").unwrap();
    for fuel in [0, 1, 7, 1_000] {
        assert_eq!(
            run_counting_fuel(&spin, fuel),
            (Err(ApisenseError::FuelExhausted), fuel)
        );
    }

    if !was_enabled {
        obs::disable();
    }
}
