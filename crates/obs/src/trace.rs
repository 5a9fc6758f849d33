//! Span/event recorder: nested span trees with ids, point events, and a
//! process-global buffer drained by the exporter.
//!
//! Span parentage is tracked per thread (a thread-local stack of open
//! span ids) — cheap, lock-free on the hot path, and correct for the
//! strictly scoped guards this codebase uses. A parallel fan-out carries
//! its parent across threads explicitly: [`crate::current_span`]
//! captures the open span before the fan-out, and [`SpanParent::child`]
//! opens a span under it on the worker, whose own stack is empty. Records are pushed under
//! one short critical section on close; while recording is off the guard
//! is inert and never touches the lock.

use crate::clock::{wall_nanos, Clock, Domain, Stamp};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Attribute value attached to spans and events.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// A closed span as it sits in the trace buffer.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    /// Id of the enclosing span — on the same thread, or the
    /// [`SpanParent`] it was opened under — or 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub domain: Domain,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// A point event as it sits in the trace buffer.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Global record sequence — total order of event recording, used by
    /// the reporter to segment a trace by phase markers.
    pub seq: u64,
    pub name: &'static str,
    pub domain: Domain,
    pub at_ns: u64,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Soft cap on buffered records; beyond it new records are counted as
/// dropped instead of growing without bound.
const RECORD_CAP: usize = 1 << 22;

#[derive(Default)]
struct TraceBuf {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    dropped: u64,
}

static BUF: Mutex<TraceBuf> = Mutex::new(TraceBuf {
    spans: Vec::new(),
    events: Vec::new(),
    dropped: 0,
});
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static OPEN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

enum ClockRef<'a> {
    Wall,
    Injected(&'a dyn Clock),
}

struct ActiveSpan<'a> {
    id: u64,
    parent: u64,
    name: &'static str,
    clock: ClockRef<'a>,
    start: Stamp,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// RAII span guard. Inert (id 0, no recording) when constructed while
/// recording is off; otherwise records itself on drop.
pub struct Span<'a> {
    inner: Option<ActiveSpan<'a>>,
}

impl Span<'static> {
    #[inline]
    pub(crate) fn start_wall(name: &'static str, parent: Option<u64>) -> Span<'static> {
        if !crate::enabled() {
            return Span { inner: None };
        }
        Span {
            inner: Some(open(
                name,
                ClockRef::Wall,
                Stamp {
                    domain: Domain::Wall,
                    nanos: wall_nanos(),
                },
                parent,
            )),
        }
    }
}

/// The span that was open on a thread when [`crate::current_span`]
/// captured it: the parent of the spans a parallel fan-out opens on its
/// workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanParent(u64);

impl SpanParent {
    /// The parent's span id (0: no span was open, or recording was off).
    pub fn id(self) -> u64 {
        self.0
    }

    /// Start a wall-clock span under this parent, on whichever thread
    /// calls it; spans opened inside it on that thread nest under it as
    /// usual. Returns an inert guard while recording is off.
    #[inline]
    pub fn child(self, name: &'static str) -> Span<'static> {
        Span::start_wall(name, Some(self.0))
    }
}

/// The span open on the calling thread (id 0 when none is).
pub(crate) fn current() -> SpanParent {
    SpanParent(OPEN_STACK.with(|stack| stack.borrow().last().copied().unwrap_or(0)))
}

impl<'a> Span<'a> {
    #[inline]
    pub(crate) fn start_at(name: &'static str, clock: &'a dyn Clock) -> Span<'a> {
        if !crate::enabled() {
            return Span { inner: None };
        }
        let start = clock.stamp();
        Span {
            inner: Some(open(name, ClockRef::Injected(clock), start, None)),
        }
    }

    /// This span's id (0 when inert), usable to correlate events.
    #[inline]
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.id)
    }

    /// Attach an attribute; no-op on an inert span.
    #[inline]
    pub fn set_attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.attrs.push((key, value.into()));
        }
    }
}

/// Opens a span under `parent`, or under the thread's innermost open span
/// when `None`.
fn open<'a>(
    name: &'static str,
    clock: ClockRef<'a>,
    start: Stamp,
    parent: Option<u64>,
) -> ActiveSpan<'a> {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = parent.unwrap_or_else(|| stack.last().copied().unwrap_or(0));
        stack.push(id);
        parent
    });
    ActiveSpan {
        id,
        parent,
        name,
        clock,
        start,
        attrs: Vec::new(),
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        OPEN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert_eq!(
                stack.last().copied(),
                Some(inner.id),
                "span guards must nest"
            );
            stack.pop();
        });
        let end = match inner.clock {
            ClockRef::Wall => Stamp {
                domain: Domain::Wall,
                nanos: wall_nanos(),
            },
            ClockRef::Injected(clock) => clock.stamp(),
        };
        let record = SpanRecord {
            id: inner.id,
            parent: inner.parent,
            name: inner.name,
            domain: inner.start.domain,
            start_ns: inner.start.nanos,
            end_ns: end.nanos.max(inner.start.nanos),
            attrs: inner.attrs,
        };
        let mut buf = BUF.lock();
        if buf.spans.len() + buf.events.len() >= RECORD_CAP {
            buf.dropped += 1;
        } else {
            buf.spans.push(record);
        }
    }
}

/// Push an event record (callers check `enabled()` first).
pub(crate) fn record_event(
    name: &'static str,
    clock: &dyn Clock,
    attrs: &[(&'static str, AttrValue)],
) {
    record_event_stamped(name, clock.stamp(), attrs);
}

/// Push an event record at an explicit stamp (callers check `enabled()`
/// first).
pub(crate) fn record_event_stamped(
    name: &'static str,
    stamp: Stamp,
    attrs: &[(&'static str, AttrValue)],
) {
    let record = EventRecord {
        seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        name,
        domain: stamp.domain,
        at_ns: stamp.nanos,
        attrs: attrs.to_vec(),
    };
    let mut buf = BUF.lock();
    if buf.spans.len() + buf.events.len() >= RECORD_CAP {
        buf.dropped += 1;
    } else {
        buf.events.push(record);
    }
}

/// Copy the buffered records out: `(spans, events, dropped)`.
pub fn snapshot() -> (Vec<SpanRecord>, Vec<EventRecord>, u64) {
    let buf = BUF.lock();
    (buf.spans.clone(), buf.events.clone(), buf.dropped)
}

/// Clear the trace buffer (ids keep counting up across resets).
pub fn reset() {
    let mut buf = BUF.lock();
    buf.spans.clear();
    buf.events.clear();
    buf.dropped = 0;
}
