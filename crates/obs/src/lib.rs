//! Unified observability layer: spans, a metrics registry, and
//! machine-readable JSON-lines traces across the whole pipeline.
//!
//! Everything in this crate is gated on a single process-wide switch
//! ([`enable`] / [`disable`]). While recording is **off** (the default),
//! every entry point degrades to one relaxed atomic load and a branch —
//! no allocation, no locking, no clock read — so instrumented hot paths
//! pay effectively nothing. While recording is **on**, instruments
//! accumulate into lock-free atomics and span/event records buffer into
//! a process-global trace that [`export::to_jsonl`] serializes.
//!
//! Two time domains coexist ([`Domain`]): pipeline components stamp
//! monotonic **wall** time via the built-in [`WallClock`], while simnet
//! components stamp **sim** time by injecting a [`SimClock`] that the
//! simulation advances. Instruments are order-independent atomic sums,
//! so recording never perturbs determinism: published windows stay
//! byte-identical with recording on or off (proptested in
//! `tests/observability.rs`).
//!
//! ```
//! obs::reset();
//! obs::enable();
//! obs::count("demo.widgets", 3);
//! {
//!     let mut span = obs::span("demo.frobnicate");
//!     span.set_attr("widgets", 3u64);
//! }
//! obs::disable();
//! let trace = obs::export::to_jsonl();
//! assert!(trace.contains("demo.widgets"));
//! assert!(trace.contains("demo.frobnicate"));
//! ```
//!
//! The pipeline's audit structs are declared once through [`audit!`]:
//! [`record`] adds each counter of one to its `<family>.<field>`
//! instrument, so instrument names are derived from the struct fields,
//! never spelled by hand.

pub mod alloc;
pub mod audit;
pub mod clock;
pub mod export;
pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

pub use audit::{Audit, Count, Tally};
pub use clock::{Clock, Domain, SimClock, Stamp, WallClock};
pub use metrics::{Buckets, Counter, Gauge, Histogram};
pub use trace::{AttrValue, Span, SpanParent};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn recording on process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn recording off process-wide. Already-recorded data is kept until
/// [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether recording is currently on. This is the no-op fast path: one
/// relaxed load, checked before any other work in every entry point.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear every recorded span/event and zero every registered instrument
/// (registrations themselves are kept — instrument names are interned
/// once per process). Does not change the enabled flag.
pub fn reset() {
    metrics::reset_values();
    trace::reset();
}

/// Add `by` to the named counter. No-op while recording is off.
#[inline]
pub fn count(name: &'static str, by: u64) {
    if !enabled() {
        return;
    }
    metrics::counter(name).add(by);
}

/// Add each counter of an audit record to its `<family>.<field>`
/// instrument. No-op while recording is off.
#[inline]
pub fn record<A: Audit>(audit: &A) {
    if !enabled() {
        return;
    }
    for (name, value) in A::INSTRUMENTS.iter().zip(audit.values()) {
        metrics::counter(name).add(value);
    }
}

/// Set the named gauge. No-op while recording is off.
#[inline]
pub fn gauge_set(name: &'static str, value: i64) {
    if !enabled() {
        return;
    }
    metrics::gauge(name).set(value);
}

/// Record `value` into the named fixed-bucket histogram. The bucket
/// `scale` is fixed at first use; later calls must pass the same scale.
/// No-op while recording is off.
#[inline]
pub fn observe(name: &'static str, scale: Buckets, value: u64) {
    if !enabled() {
        return;
    }
    metrics::histogram(name, scale).record(value);
}

/// Start a wall-clock span. The span records itself (with its duration
/// and parent) when dropped. Returns an inert guard while recording is
/// off.
#[inline]
pub fn span(name: &'static str) -> Span<'static> {
    Span::start_wall(name, None)
}

/// The span open on the calling thread, captured before a parallel
/// fan-out so each worker opens its spans under it
/// ([`SpanParent::child`]) instead of rooting them at its own empty
/// stack. A no-op while recording is off.
#[inline]
pub fn current_span() -> SpanParent {
    if !enabled() {
        return SpanParent::default();
    }
    trace::current()
}

/// Start a span stamped by an injected clock (sim components pass their
/// [`SimClock`]). Returns an inert guard while recording is off.
#[inline]
pub fn span_at<'a>(name: &'static str, clock: &'a dyn Clock) -> Span<'a> {
    Span::start_at(name, clock)
}

/// Record a point event stamped with wall time. Attr values that
/// allocate (strings) should be gated on [`enabled`] at the call site;
/// numeric attrs are free to construct.
#[inline]
pub fn event(name: &'static str, attrs: &[(&'static str, AttrValue)]) {
    if !enabled() {
        return;
    }
    trace::record_event(name, &WallClock, attrs);
}

/// Record a point event stamped by an injected clock (sim time).
#[inline]
pub fn event_at(name: &'static str, clock: &dyn Clock, attrs: &[(&'static str, AttrValue)]) {
    if !enabled() {
        return;
    }
    trace::record_event(name, clock, attrs);
}

/// Record a point event at an explicit sim-time millisecond stamp — for
/// components (like the reliable transport endpoints) that receive
/// `now_ms` as a call parameter instead of holding a clock.
#[inline]
pub fn event_sim_ms(name: &'static str, now_ms: u64, attrs: &[(&'static str, AttrValue)]) {
    if !enabled() {
        return;
    }
    trace::record_event_stamped(name, Stamp::sim_ms(now_ms), attrs);
}

/// Mark a phase boundary in the trace. `obs_report` segments
/// order-dependent summaries (e.g. transport latency percentiles) by
/// the most recent phase marker, so multi-run drivers like `bench_summary`
/// can keep their runs distinguishable inside one trace.
#[inline]
pub fn phase(name: &'static str) {
    if !enabled() {
        return;
    }
    trace::record_event(
        "obs.phase",
        &WallClock,
        &[("phase", AttrValue::Str(name.into()))],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global recorder is process-wide state shared by every #[test]
    // thread, so the unit tests here serialize on one lock.
    static TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn disabled_is_inert() {
        let _guard = TEST_LOCK.lock();
        reset();
        disable();
        count("test.counter", 5);
        observe("test.hist", Buckets::LatencyMs, 10);
        {
            let mut s = span("test.span");
            s.set_attr("k", 1u64);
            assert_eq!(s.id(), 0);
        }
        event("test.event", &[]);
        // Registrations persist across reset, so check for zero values
        // rather than absence (another test may have interned the name).
        let snap = metrics::snapshot();
        assert!(snap
            .counters
            .iter()
            .all(|(n, v)| !n.starts_with("test.") || *v == 0));
        assert!(snap
            .hists
            .iter()
            .all(|h| !h.name.starts_with("test.") || h.count == 0));
        let (spans, events, _) = trace::snapshot();
        assert!(spans.iter().all(|s| s.name != "test.span"));
        assert!(events.iter().all(|e| e.name != "test.event"));
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let _guard = TEST_LOCK.lock();
        reset();
        enable();
        count("test.acc", 2);
        count("test.acc", 3);
        observe("test.lat", Buckets::LatencyMs, 7);
        observe("test.lat", Buckets::LatencyMs, 900);
        disable();
        let snap = metrics::snapshot();
        let c = snap.counters.iter().find(|(n, _)| n == "test.acc").unwrap();
        assert_eq!(c.1, 5);
        let h = snap.hists.iter().find(|h| h.name == "test.lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 907);
        assert_eq!(h.min, 7);
        assert_eq!(h.max, 900);
        assert_eq!(h.counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn spans_nest_and_stamp_domains() {
        let _guard = TEST_LOCK.lock();
        reset();
        enable();
        let sim = SimClock::new();
        sim.set_ms(42);
        let outer_id;
        {
            let outer = span("test.outer");
            outer_id = outer.id();
            assert_ne!(outer_id, 0);
            {
                let inner = span("test.inner");
                assert_ne!(inner.id(), outer_id);
            }
            let _sim_span = span_at("test.sim", &sim);
            event_at("test.tick", &sim, &[("n", AttrValue::U64(1))]);
        }
        disable();
        let (spans, events, dropped) = trace::snapshot();
        assert_eq!(dropped, 0);
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        let simsp = spans.iter().find(|s| s.name == "test.sim").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(simsp.parent, outer.id);
        assert_eq!(outer.domain, Domain::Wall);
        assert_eq!(simsp.domain, Domain::Sim);
        assert_eq!(simsp.start_ns, 42_000_000);
        let tick = events.iter().find(|e| e.name == "test.tick").unwrap();
        assert_eq!(tick.domain, Domain::Sim);
        assert_eq!(tick.at_ns, 42_000_000);
        assert!(outer.end_ns >= outer.start_ns);
    }

    #[test]
    fn child_spans_open_under_a_parent_captured_on_another_thread() {
        let _guard = TEST_LOCK.lock();
        reset();
        disable();
        assert_eq!(current_span(), SpanParent::default(), "inert while off");
        enable();
        let outer = span("test.fanout");
        let parent = current_span();
        assert_eq!(parent.id(), outer.id());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _worker = parent.child("test.worker");
                let _nested = span("test.nested");
            });
        });
        drop(outer);
        disable();
        let (spans, _, _) = trace::snapshot();
        let find = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        let (outer, worker) = (find("test.fanout"), find("test.worker"));
        assert_eq!(worker.parent, outer.id);
        assert_eq!(find("test.nested").parent, worker.id);
    }

    #[test]
    fn export_jsonl_round_trips_through_the_parser() {
        let _guard = TEST_LOCK.lock();
        reset();
        enable();
        count("test.round", 9);
        observe("test.bytes", Buckets::Bytes, 4096);
        {
            let mut s = span("test.trip");
            s.set_attr("label", "with \"quotes\" and \\slashes\\");
        }
        disable();
        let jsonl = export::to_jsonl();
        let mut saw_counter = false;
        let mut saw_span = false;
        let mut saw_hist = false;
        for line in jsonl.lines() {
            let v = json::parse(line).expect("every exported line parses");
            match v.get("t").and_then(|t| t.as_str()) {
                Some("counter")
                    if v.get("name").and_then(|n| n.as_str()) == Some("test.round") =>
                {
                    assert_eq!(v.get("value").and_then(|x| x.as_u64()), Some(9));
                    saw_counter = true;
                }
                Some("hist")
                    if v.get("name").and_then(|n| n.as_str()) == Some("test.bytes") =>
                {
                    assert_eq!(v.get("unit").and_then(|x| x.as_str()), Some("bytes"));
                    saw_hist = true;
                }
                Some("span") if v.get("name").and_then(|n| n.as_str()) == Some("test.trip") => {
                    let attrs = v.get("attrs").unwrap();
                    assert_eq!(
                        attrs.get("label").and_then(|x| x.as_str()),
                        Some("with \"quotes\" and \\slashes\\")
                    );
                    saw_span = true;
                }
                _ => {}
            }
        }
        assert!(saw_counter && saw_span && saw_hist);
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let _guard = TEST_LOCK.lock();
        reset();
        enable();
        count("test.keep", 4);
        reset();
        count("test.keep", 1);
        disable();
        let snap = metrics::snapshot();
        let c = snap
            .counters
            .iter()
            .find(|(n, _)| n == "test.keep")
            .unwrap();
        assert_eq!(c.1, 1);
    }
}
