//! Reliable device→Hive ingestion: the platform's `collect` endpoint.
//!
//! Devices upload their sensed location records as per-day [`DayBatch`]
//! chunks over the at-least-once transport of [`simnet::reliable`]. The
//! network may drop, duplicate, reorder, partition or crash-restart — so the
//! Hive-side [`Collector`] must turn that chaos back into the clean,
//! strictly-ascending day-window stream the PRIVAPI publication pipeline
//! demands ([`privapi::streaming::PopulationCache::advance`] rejects any
//! day that does not strictly ascend):
//!
//! * **dedup** — each device's frames carry a sequence number; the per-device
//!   [`simnet::reliable::ReliableReceiver`] watermark absorbs every duplicate
//!   delivery (retransmissions and fault-injected copies alike);
//! * **reorder** — out-of-order frames are buffered per device and applied in
//!   sequence order, so a device's batches always take effect in the order
//!   they were produced;
//! * **windowing** — records accumulate in per-day buckets;
//!   [`LaneCollector::close_day`] seals one day into a [`DatasetWindow`], in
//!   ascending day order, exactly once. The ascending-day contract is
//!   therefore satisfied *by protocol*, not by trusting the network;
//! * **quarantine** — records that arrive after their day was closed (e.g. a
//!   partitioned region's stragglers) are folded into the *next* closed
//!   window instead of poisoning the stream, and the per-window
//!   [`IngestDelta`] audit trail counts exactly what happened.
//!
//! Dedup, reorder, the misrouting and owner checks, the close-in-order
//! guard and the straggler count live in one lane core,
//! [`LaneCollector`]. What a batch *means* is its [`LanePayload`]: raw
//! [`DayBuckets`] here ([`Collector`]), device-anonymized whole days in
//! [`crate::federated`] ([`crate::federated::FederatedCollector`]).
//!
//! The device side is [`DeviceOutbox`]: it stages day batches into a
//! persistent [`simnet::reliable::ReliableSender`] outbox, survives
//! simulated crashes (in-flight chunks are requeued, the staging cursor is
//! durable) and resumes from its last acknowledged sequence — at-least-once
//! delivery end to end.
//!
//! # Example
//!
//! ```
//! use apisense::collect::{Collector, DayBatch, DeviceOutbox};
//! use mobility::{LocationRecord, Timestamp, UserId};
//! use simnet::reliable::{DataFrame, ReliableConfig};
//!
//! let rec = LocationRecord::new(
//!     UserId(7),
//!     Timestamp::new(120),
//!     geo::GeoPoint::new(45.0, 4.0).unwrap(),
//! );
//! let mut device = DeviceOutbox::new(1, UserId(7), ReliableConfig::default(), vec![rec]);
//! let mut hive = Collector::new();
//! hive.register(1, UserId(7));
//!
//! // One upload tick after the day ended: the outbox stages the final
//! // day-0 batch; deliver its transmissions to the collector.
//! device.stage(86_400);
//! for tx in device.sender_mut().poll(0) {
//!     let ack = hive.ingest(&tx.frame).unwrap();
//!     device.sender_mut().on_ack(&ack, 1);
//! }
//! let (window, delta) = hive.close_day(0).unwrap();
//! assert_eq!(window.record_count(), 1);
//! assert!(delta.is_clean());
//! ```

use bytes::{Bytes, BytesMut};
use mobility::{
    Dataset, DatasetWindow, LocationRecord, Timestamp, Trajectory, UserId, DAY_SECONDS,
};
use privapi::streaming::IngestDelta;
use simnet::reliable::{AckFrame, DataFrame, ReliableConfig, ReliableReceiver, ReliableSender};
use simnet::wire::{Decode, Encode, WireError};
use std::collections::BTreeMap;

/// One device's upload unit: the records it sensed for one day (possibly a
/// partial slice — devices upload several batches per day), plus the
/// `end_of_day` marker that tells the collector no more day-`day` batches
/// will ever be produced by this device.
#[derive(Debug, Clone, PartialEq)]
pub struct DayBatch {
    /// The uploading device.
    pub device: u64,
    /// The participant the device belongs to.
    pub user: UserId,
    /// The day the batch reports on.
    pub day: i64,
    /// `true` on the last batch a device produces for `day` (it may be
    /// empty — a device with no fixes that day still closes it).
    pub end_of_day: bool,
    /// The sensed fixes, in sensing (time) order.
    pub records: Vec<LocationRecord>,
}

impl Encode for DayBatch {
    fn encode(&self, buf: &mut BytesMut) {
        self.device.encode(buf);
        self.user.0.encode(buf);
        self.day.encode(buf);
        self.end_of_day.encode(buf);
        encode_records(&self.records, buf);
    }
}

/// Encoded size of one record: time `i64`, latitude and longitude `f64`.
const RECORD_BYTES: usize = 24;

/// Appends `records` in the wire layout of a `Vec<(i64, f64, f64)>` of
/// (time, latitude, longitude): a `u32` count, then the fields in order.
pub(crate) fn encode_records(records: &[LocationRecord], buf: &mut BytesMut) {
    (records.len() as u32).encode(buf);
    for r in records {
        r.time.seconds().encode(buf);
        r.point.latitude().encode(buf);
        r.point.longitude().encode(buf);
    }
}

/// Reads what [`encode_records`] wrote, attributing every record to
/// `user`. Errors match a `Vec<(i64, f64, f64)>` decode followed by a
/// coordinate check: an over-cap count, then a short buffer, then the
/// first out-of-range coordinate.
pub(crate) fn decode_records(
    buf: &mut Bytes,
    user: UserId,
) -> Result<Vec<LocationRecord>, WireError> {
    let len = simnet::wire::decode_len(buf)?;
    if buf.len() < len * RECORD_BYTES {
        return Err(WireError::Truncated);
    }
    let mut records = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        let t = i64::decode(buf)?;
        let (lat, lon) = (f64::decode(buf)?, f64::decode(buf)?);
        let point = geo::GeoPoint::new(lat, lon)
            .map_err(|_| WireError::Corrupt("record coordinates out of range"))?;
        records.push(LocationRecord::new(user, Timestamp::new(t), point));
    }
    Ok(records)
}

impl Decode for DayBatch {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let device = u64::decode(buf)?;
        let user = UserId(u64::decode(buf)?);
        let day = i64::decode(buf)?;
        let end_of_day = bool::decode(buf)?;
        let records = decode_records(buf, user)?;
        Ok(Self {
            device,
            user,
            day,
            end_of_day,
            records,
        })
    }
}

/// Errors of the ingestion endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectError {
    /// A frame arrived from a device that never registered.
    UnknownDevice(u64),
    /// A released chunk did not decode as a batch of the lane's payload,
    /// or decoded to a batch its payload rejects as malformed.
    Wire(WireError),
    /// A batch's claimed device id did not match the lane it arrived on.
    Misrouted {
        /// The lane (transport sender) the batch arrived on.
        lane: u64,
        /// The device id the batch body claims.
        claimed: u64,
    },
    /// [`LaneCollector::close_day`] called out of order.
    CloseOutOfOrder {
        /// The requested day.
        day: i64,
        /// The last day already closed.
        last_closed: i64,
    },
}

impl std::fmt::Display for CollectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            CollectError::Wire(e) => write!(f, "bad day batch: {e}"),
            CollectError::Misrouted { lane, claimed } => {
                write!(f, "batch for device {claimed} arrived on lane {lane}")
            }
            CollectError::CloseOutOfOrder { day, last_closed } => {
                write!(
                    f,
                    "close of day {day} after day {last_closed} already closed"
                )
            }
        }
    }
}

impl std::error::Error for CollectError {}

impl From<WireError> for CollectError {
    fn from(e: WireError) -> Self {
        CollectError::Wire(e)
    }
}

/// Per-device ingestion lane: the registered owner, the reliable-transport
/// receiver, and the highest day this device has finished reporting.
#[derive(Debug)]
struct Lane {
    user: UserId,
    rx: ReliableReceiver,
    completed_through: Option<i64>,
}

/// Every registered device's lane, as a [`LanePayload`] sees them at a
/// close.
#[derive(Debug, Default)]
pub struct DeviceLanes(BTreeMap<u64, Lane>);

impl DeviceLanes {
    /// Total duplicate frame deliveries absorbed so far, over all devices.
    pub(crate) fn duplicates(&self) -> u64 {
        self.0.values().map(|l| l.rx.stats().duplicates).sum()
    }

    /// Devices that have not finished reporting day `day` (registered but
    /// silent devices included).
    pub(crate) fn stragglers(&self, day: i64) -> u64 {
        self.0
            .values()
            .filter(|l| l.completed_through.is_none_or(|c| c < day))
            .count() as u64
    }

    /// Chunks delivered but stuck behind a sequence gap, over all lanes.
    pub(crate) fn buffered_chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.0.values().flat_map(|l| l.rx.buffered_chunks())
    }

    /// Forgets every device's completed days: each must report again
    /// before it stops counting as a straggler.
    pub(crate) fn reset_completion(&mut self) {
        for lane in self.0.values_mut() {
            lane.completed_through = None;
        }
    }
}

/// What one kind of upload does with its batches once the shared lane
/// core ([`LaneCollector`]) has deduplicated, ordered, decoded and
/// authenticated them. Two payloads exist: raw day batches
/// ([`DayBuckets`]) and device-anonymized whole days
/// ([`crate::federated::ProtectedDays`]). The trait is sealed: it is
/// public only because [`LaneCollector::close_day`] names its `Delta`.
pub trait LanePayload: sealed::Sealed {
    /// Transport-endpoint bit set on top of the device id by this
    /// payload's senders (0 for the raw lane).
    const LANE_BIT: u64;
    /// The upload unit one chunk decodes to.
    type Batch: Decode;
    /// The per-window audit a close returns.
    type Delta;

    /// The `(device, user)` a batch claims to come from.
    fn origin(batch: &Self::Batch) -> (u64, UserId);

    /// Applies one in-sequence batch that arrived on `device`'s lane and
    /// names its owner. Returns the day the device has now finished
    /// reporting, if the batch completes one.
    ///
    /// # Errors
    ///
    /// A batch the payload rejects; the lane skips it.
    fn apply(
        &mut self,
        device: u64,
        batch: Self::Batch,
        last_closed: Option<i64>,
    ) -> Result<Option<i64>, CollectError>;

    /// Whether payload-side state still awaits a close.
    fn has_backlog(&self, last_closed: Option<i64>) -> bool;

    /// Seals day `day` (already checked to follow the last close) into a
    /// window and its audit.
    fn close(&mut self, day: i64, lanes: &DeviceLanes) -> (DatasetWindow, Self::Delta);
}

mod sealed {
    /// Restricts [`super::LanePayload`] to this crate's two payloads.
    pub trait Sealed {}
    impl Sealed for super::DayBuckets {}
    impl Sealed for crate::federated::ProtectedDays {}
}

/// A Hive-side ingestion endpoint: one deduplicating, reordering lane per
/// registered device in front of a [`LanePayload`] that assembles day
/// windows. [`Collector`] and [`crate::federated::FederatedCollector`] are
/// its two instantiations.
///
/// See the [module docs](self) for the protocol.
#[derive(Debug, Default)]
pub struct LaneCollector<P> {
    pub(crate) lanes: DeviceLanes,
    last_closed: Option<i64>,
    pub(crate) payload: P,
}

/// The raw `collect` endpoint: devices upload their sensed fixes as
/// [`DayBatch`]es.
pub type Collector = LaneCollector<DayBuckets>;

impl Collector {
    /// An endpoint with no registered devices.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<P: LanePayload> LaneCollector<P> {
    /// An endpoint with no registered devices in front of `payload`.
    pub(crate) fn with_payload(payload: P) -> Self {
        Self {
            lanes: DeviceLanes::default(),
            last_closed: None,
            payload,
        }
    }

    /// Registers a device lane. Frames from unregistered devices are
    /// rejected; registered-but-silent devices count as stragglers on
    /// every close.
    pub fn register(&mut self, device: u64, user: UserId) {
        self.lanes.0.entry(device).or_insert_with(|| {
            obs::count("collect.lanes", 1);
            Lane {
                user,
                rx: ReliableReceiver::new(),
                completed_through: None,
            }
        });
    }

    /// Whether any data is still waiting for a close: chunks gapped in a
    /// reorder buffer, or payload state not yet sealed.
    pub fn has_backlog(&self) -> bool {
        self.lanes.0.values().any(|l| l.rx.buffered() > 0)
            || self.payload.has_backlog(self.last_closed)
    }

    /// Total duplicate frame deliveries absorbed so far, over all devices.
    pub fn duplicates_absorbed(&self) -> u64 {
        self.lanes.duplicates()
    }

    /// Ingests one transport frame from a device, returning the ack to
    /// answer with. Duplicates are absorbed (and still acked); in-sequence
    /// frames release their batches into the payload.
    ///
    /// # Errors
    ///
    /// * [`CollectError::UnknownDevice`] — the sender never registered
    ///   (nothing is acked, the device keeps retrying);
    /// * [`CollectError::Wire`] / [`CollectError::Misrouted`] — a released
    ///   chunk is not a well-formed batch of this device. The transport has
    ///   already advanced past the chunk (at-least-once delivery is about
    ///   loss, not about trusting payloads), so the batch is skipped and the
    ///   error reported.
    pub fn ingest(&mut self, frame: &DataFrame) -> Result<AckFrame, CollectError> {
        let device = frame.sender & !P::LANE_BIT;
        let lane = self
            .lanes
            .0
            .get_mut(&device)
            .ok_or(CollectError::UnknownDevice(device))?;
        let (released, ack) = lane.rx.accept(frame.sender, frame.seq, frame.chunk.clone());
        let mut result = Ok(ack);
        for (_seq, chunk) in released {
            if let Err(e) = apply(&mut self.payload, device, lane, self.last_closed, &chunk) {
                // Keep applying later chunks (the transport has moved past
                // them either way) but report the first failure.
                result = result.and(Err(e));
            }
        }
        result
    }

    /// Seals day `day` into one [`DatasetWindow`] plus the payload's audit
    /// of how cleanly it was assembled.
    ///
    /// Days must be closed in strictly ascending order — that is exactly how
    /// the endpoint guarantees the publication stream's ascending-day
    /// contract. The returned window may be empty (no device reported).
    ///
    /// # Errors
    ///
    /// [`CollectError::CloseOutOfOrder`] when `day` does not exceed the last
    /// closed day.
    pub fn close_day(&mut self, day: i64) -> Result<(DatasetWindow, P::Delta), CollectError> {
        if let Some(last) = self.last_closed {
            if day <= last {
                return Err(CollectError::CloseOutOfOrder {
                    day,
                    last_closed: last,
                });
            }
        }
        let closed = self.payload.close(day, &self.lanes);
        self.last_closed = Some(day);
        Ok(closed)
    }
}

/// Applies one in-sequence chunk of `device`'s lane: decode, check the
/// claimed device and owner, hand the batch to the payload and advance the
/// lane's completion watermark.
fn apply<P: LanePayload>(
    payload: &mut P,
    device: u64,
    lane: &mut Lane,
    last_closed: Option<i64>,
    chunk: &[u8],
) -> Result<(), CollectError> {
    let batch = P::Batch::decode_from_slice(chunk)?;
    let (claimed, user) = P::origin(&batch);
    if claimed != device {
        obs::count("collect.misrouted", 1);
        return Err(CollectError::Misrouted {
            lane: device,
            claimed,
        });
    }
    if user != lane.user {
        return Err(CollectError::Wire(WireError::Corrupt(
            "batch user does not match the device's registered owner",
        )));
    }
    if let Some(day) = payload.apply(device, batch, last_closed)? {
        lane.completed_through = Some(lane.completed_through.map_or(day, |c| c.max(day)));
    }
    Ok(())
}

/// The raw payload: day-window assembly with straggler quarantine.
/// Records route by their own day into open buckets; records whose day
/// already closed wait in quarantine for the next close.
#[derive(Debug, Default)]
pub struct DayBuckets {
    /// Not-yet-closed days: day → user → records, in application order.
    open: BTreeMap<i64, BTreeMap<UserId, Vec<LocationRecord>>>,
    /// Late records (their day already closed) awaiting the next close.
    quarantine: BTreeMap<UserId, Vec<LocationRecord>>,
    quarantined_records: u64,
    batches_applied: u64,
    /// Running total of duplicates already reported by earlier closes.
    batches_duplicate: u64,
}

impl LanePayload for DayBuckets {
    const LANE_BIT: u64 = 0;
    type Batch = DayBatch;
    type Delta = IngestDelta;

    fn origin(batch: &DayBatch) -> (u64, UserId) {
        (batch.device, batch.user)
    }

    /// Routes each record to its open bucket (or quarantine if its day
    /// already closed); an `end_of_day` batch completes its day.
    fn apply(
        &mut self,
        device: u64,
        batch: DayBatch,
        last_closed: Option<i64>,
    ) -> Result<Option<i64>, CollectError> {
        self.batches_applied += 1;
        let mut quarantined_here: u64 = 0;
        for rec in batch.records {
            let day = rec.time.day_index();
            if last_closed.is_some_and(|closed| day <= closed) {
                self.quarantine.entry(rec.user).or_default().push(rec);
                self.quarantined_records += 1;
                quarantined_here += 1;
            } else {
                self.open
                    .entry(day)
                    .or_default()
                    .entry(rec.user)
                    .or_default()
                    .push(rec);
            }
        }
        if quarantined_here > 0 {
            let reason = "day_already_closed";
            trace_quarantine("ingest.quarantine", device, quarantined_here, reason);
        }
        Ok(batch.end_of_day.then_some(batch.day))
    }

    fn has_backlog(&self, _last_closed: Option<i64>) -> bool {
        self.open.values().any(|users| !users.is_empty()) || !self.quarantine.is_empty()
    }

    /// Everything collected for `day` (plus any quarantined stragglers from
    /// earlier closed days) becomes one window; the [`IngestDelta`] audit
    /// records how cleanly it was assembled.
    fn close(&mut self, day: i64, lanes: &DeviceLanes) -> (DatasetWindow, IngestDelta) {
        let mut delta = IngestDelta::new(day);
        delta.batches_applied = std::mem::take(&mut self.batches_applied);
        // `batches_duplicate` carries the running total; the difference is
        // this window's share.
        let total = lanes.duplicates();
        delta.batches_duplicate = total - std::mem::replace(&mut self.batches_duplicate, total);
        delta.records_quarantined = std::mem::take(&mut self.quarantined_records);

        // Quarantined stragglers first: their timestamps predate this day,
        // so the stable time sort in `Trajectory::new` orders them first
        // regardless of insertion order.
        let mut users: BTreeMap<UserId, Vec<LocationRecord>> =
            std::mem::take(&mut self.quarantine);
        let own_days: Vec<i64> = self.open.range(..=day).map(|(d, _)| *d).collect();
        for d in own_days {
            let bucket = self.open.remove(&d).unwrap_or_default();
            for (user, recs) in bucket {
                delta.records += recs.len() as u64;
                users.entry(user).or_default().extend(recs);
            }
        }
        delta.straggler_devices = lanes.stragglers(day);
        delta.records_deferred = lanes
            .buffered_chunks()
            .filter_map(|chunk| DayBatch::decode_from_slice(chunk).ok())
            .flat_map(|b| b.records)
            .filter(|r| r.time.day_index() <= day)
            .count() as u64;

        let dataset: Dataset = users
            .into_iter()
            .map(|(user, recs)| Trajectory::new(user, recs))
            .collect();
        obs::record(&delta);
        obs::count("ingest.windows_closed", 1);
        obs::event(
            "ingest.window_closed",
            &[
                ("day", obs::AttrValue::I64(delta.day)),
                ("records", obs::AttrValue::U64(delta.records)),
                (
                    "quarantined",
                    obs::AttrValue::U64(delta.records_quarantined),
                ),
                ("deferred", obs::AttrValue::U64(delta.records_deferred)),
                ("stragglers", obs::AttrValue::U64(delta.straggler_devices)),
                ("clean", obs::AttrValue::Bool(delta.is_clean())),
            ],
        );
        (DatasetWindow::from_parts(day, dataset), delta)
    }
}

/// Traces one quarantined batch: its device, record count and reason.
pub(crate) fn trace_quarantine(event: &'static str, device: u64, records: u64, reason: &str) {
    if obs::enabled() {
        obs::event(
            event,
            &[
                ("device", obs::AttrValue::U64(device)),
                ("records", obs::AttrValue::U64(records)),
                ("reason", obs::AttrValue::Str(reason.into())),
            ],
        );
    }
}

/// A device's durable upload schedule, shared by the raw and protected
/// outboxes: the pregenerated, time-sorted sensing records, the next day
/// still to finalize, and the persistent [`ReliableSender`] outbox.
///
/// The records and the finalize cursor model the device's flash storage:
/// they survive crashes. Only the transport's in-flight state is volatile
/// — on restart call [`ReliableSender::crash`] and carry on.
#[derive(Debug)]
pub(crate) struct Schedule {
    pub(crate) device: u64,
    pub(crate) user: UserId,
    pub(crate) tx: ReliableSender,
    /// Time-sorted sensing records.
    pub(crate) records: Vec<LocationRecord>,
    /// The first scheduled day (day 0 for an empty schedule).
    pub(crate) first_day: i64,
    /// Next day that still needs finalizing.
    pub(crate) finalize_next: i64,
}

impl Schedule {
    /// A schedule over `records` (sorted here) sending as endpoint
    /// `device | lane_bit`.
    pub(crate) fn new(
        device: u64,
        lane_bit: u64,
        user: UserId,
        config: ReliableConfig,
        mut records: Vec<LocationRecord>,
    ) -> Self {
        records.sort_by_key(|r| r.time);
        let first_day = records.first().map_or(0, |r| r.time.day_index());
        Self {
            device,
            user,
            tx: ReliableSender::new(device | lane_bit, config),
            records,
            first_day,
            finalize_next: first_day,
        }
    }

    /// The next day fully elapsed at wall-clock `now_s` that is not yet
    /// finalized, if any; the cursor moves past it.
    pub(crate) fn finalize_due(&mut self, now_s: i64) -> Option<i64> {
        let day = self.finalize_next;
        (day < now_s.div_euclid(DAY_SECONDS)).then(|| {
            self.finalize_next += 1;
            day
        })
    }

    /// Whether every day through `last_day` is finalized and every staged
    /// chunk acknowledged.
    pub(crate) fn settled(&self, last_day: i64) -> bool {
        self.finalize_next > last_day && self.tx.is_idle()
    }

    /// The records of day `day`, found by binary search.
    pub(crate) fn day_slice(&self, day: i64) -> &[LocationRecord] {
        let start = self.records.partition_point(|r| r.time.day_index() < day);
        let end = self.records.partition_point(|r| r.time.day_index() <= day);
        &self.records[start..end]
    }
}

/// The device-side raw staging store: walks the sensing schedule, cuts it
/// into [`DayBatch`] chunks and feeds them to a persistent
/// [`ReliableSender`] outbox.
///
/// The schedule and the staging cursor survive crashes; on restart call
/// [`ReliableSender::crash`] via [`DeviceOutbox::sender_mut`] and carry on.
#[derive(Debug)]
pub struct DeviceOutbox {
    schedule: Schedule,
    /// Records before this index are staged.
    cursor: usize,
}

impl DeviceOutbox {
    /// A device outbox over a pregenerated, time-sorted sensing schedule.
    /// Day finalization starts at the schedule's first day (or day 0 for an
    /// empty schedule).
    pub fn new(
        device: u64,
        user: UserId,
        config: ReliableConfig,
        records: Vec<LocationRecord>,
    ) -> Self {
        Self {
            schedule: Schedule::new(device, 0, user, config, records),
            cursor: 0,
        }
    }

    /// The reliable transport sender (poll transmissions, apply acks,
    /// requeue on crash).
    pub fn sender_mut(&mut self) -> &mut ReliableSender {
        &mut self.schedule.tx
    }

    /// Read access to the transport sender.
    pub fn sender(&self) -> &ReliableSender {
        &self.schedule.tx
    }

    /// Whether every scheduled record has been staged, every elapsed day
    /// finalized, and every staged chunk acknowledged.
    pub fn drained(&self, last_day: i64) -> bool {
        self.cursor >= self.schedule.records.len() && self.schedule.settled(last_day)
    }

    /// Stages everything sensed up to wall-clock `now_s` (seconds since the
    /// dataset epoch): a final batch for every fully elapsed day not yet
    /// finalized (possibly empty), then a partial batch of the current day's
    /// new fixes. Returns the number of batches enqueued.
    pub fn stage(&mut self, now_s: i64) -> usize {
        let mut batches = 0;
        while let Some(day) = self.schedule.finalize_due(now_s) {
            let recs = self.take_records(|t| t.day_index() == day);
            self.enqueue_batch(day, true, recs);
            batches += 1;
        }
        let fresh = self.take_records(|t| t.seconds() <= now_s);
        if !fresh.is_empty() {
            self.enqueue_batch(now_s.div_euclid(DAY_SECONDS), false, fresh);
            batches += 1;
        }
        batches
    }

    fn take_records(&mut self, keep: impl Fn(Timestamp) -> bool) -> Vec<LocationRecord> {
        let records = &self.schedule.records;
        let start = self.cursor;
        while self.cursor < records.len() && keep(records[self.cursor].time) {
            self.cursor += 1;
        }
        records[start..self.cursor].to_vec()
    }

    fn enqueue_batch(&mut self, day: i64, end_of_day: bool, records: Vec<LocationRecord>) {
        let batch = DayBatch {
            device: self.schedule.device,
            user: self.schedule.user,
            day,
            end_of_day,
            records,
        };
        self.schedule.tx.enqueue(batch.encode_to_vec());
    }
}

/// A canonical byte encoding of a window — two windows are *byte-identical*
/// exactly when their fingerprints are equal. Used by the chaos tests to
/// state the headline invariant: published windows under faults equal the
/// fault-free run's, byte for byte.
pub fn window_fingerprint(window: &DatasetWindow) -> Vec<u8> {
    let mut buf = BytesMut::new();
    window.day().encode(&mut buf);
    (window.dataset().trajectory_count() as u64).encode(&mut buf);
    for traj in window.dataset().trajectories() {
        traj.user().0.encode(&mut buf);
        encode_records(traj.records(), &mut buf);
    }
    buf.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federated::ProtectedBatch;
    use mobility::WindowedDataset;

    fn rec(user: u64, t: i64, lon: f64) -> LocationRecord {
        LocationRecord::new(
            UserId(user),
            Timestamp::new(t),
            geo::GeoPoint::new(45.0, lon).unwrap(),
        )
    }

    fn frame(device: u64, seq: u64, batch: &DayBatch) -> DataFrame {
        DataFrame {
            sender: device,
            seq,
            chunk: batch.encode_to_vec(),
        }
    }

    fn batch(
        device: u64,
        user: u64,
        day: i64,
        eod: bool,
        records: Vec<LocationRecord>,
    ) -> DayBatch {
        DayBatch {
            device,
            user: UserId(user),
            day,
            end_of_day: eod,
            records,
        }
    }

    #[test]
    fn day_batch_roundtrips_on_the_wire() {
        let b = batch(3, 9, 2, true, vec![rec(9, 2 * DAY_SECONDS + 5, 4.1)]);
        let back = DayBatch::decode_from_slice(&b.encode_to_vec()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn corrupt_coordinates_are_a_typed_wire_error() {
        let mut b = batch(3, 9, 0, false, vec![rec(9, 5, 4.1)]);
        // Hand-encode with an out-of-range latitude.
        b.records.clear();
        let mut buf = BytesMut::new();
        b.device.encode(&mut buf);
        b.user.0.encode(&mut buf);
        b.day.encode(&mut buf);
        b.end_of_day.encode(&mut buf);
        vec![(5i64, 123.0f64, 4.1f64)].encode(&mut buf);
        let err = DayBatch::decode_from_slice(&buf).unwrap_err();
        assert!(matches!(err, WireError::Corrupt(_)));
    }

    /// Records as the `Vec<(i64, f64, f64)>` of (time, latitude, longitude)
    /// whose wire layout batches and fingerprints use.
    fn tuples(records: &[LocationRecord]) -> Vec<(i64, f64, f64)> {
        records
            .iter()
            .map(|r| (r.time.seconds(), r.point.latitude(), r.point.longitude()))
            .collect()
    }

    fn tuple_encoded_batch(b: &DayBatch) -> Vec<u8> {
        let mut buf = BytesMut::new();
        b.device.encode(&mut buf);
        b.user.0.encode(&mut buf);
        b.day.encode(&mut buf);
        b.end_of_day.encode(&mut buf);
        tuples(&b.records).encode(&mut buf);
        buf.to_vec()
    }

    #[test]
    fn record_lists_keep_the_tuple_vector_bytes() {
        // 1 500 records: past the 1 024-record preallocation cap.
        for n in [0, 1, 3, 1_500] {
            let records: Vec<LocationRecord> = (0..n)
                .map(|i| rec(9, 60 * i, -179.5 + 1e-3 * i as f64))
                .collect();
            let b = batch(3, 9, 0, n % 2 == 1, records.clone());
            let bytes = b.encode_to_vec();
            assert_eq!(bytes, tuple_encoded_batch(&b), "{n} records");
            assert_eq!(DayBatch::decode_from_slice(&bytes).unwrap(), b);

            let p = ProtectedBatch {
                device: 3,
                user: UserId(9),
                version: 2,
                day: 0,
                end_of_day: true,
                had_data: n > 0,
                records: records.clone(),
            };
            let bytes = p.encode_to_vec();
            let mut expected = BytesMut::new();
            p.device.encode(&mut expected);
            p.user.0.encode(&mut expected);
            p.version.encode(&mut expected);
            p.day.encode(&mut expected);
            p.end_of_day.encode(&mut expected);
            p.had_data.encode(&mut expected);
            tuples(&p.records).encode(&mut expected);
            assert_eq!(bytes, expected.to_vec(), "{n} protected records");
            assert_eq!(ProtectedBatch::decode_from_slice(&bytes).unwrap(), p);

            let dataset = Dataset::from_records(records);
            let window = DatasetWindow::from_parts(0, dataset.clone());
            let mut expected = BytesMut::new();
            0i64.encode(&mut expected);
            (dataset.trajectory_count() as u64).encode(&mut expected);
            for traj in dataset.trajectories() {
                traj.user().0.encode(&mut expected);
                tuples(traj.records()).encode(&mut expected);
            }
            assert_eq!(
                window_fingerprint(&window),
                expected.to_vec(),
                "{n} records"
            );
        }
    }

    #[test]
    fn truncated_and_oversized_record_lists_are_typed_wire_errors() {
        let b = batch(3, 9, 0, true, vec![rec(9, 5, 4.1), rec(9, 65, 4.2)]);
        let bytes = b.encode_to_vec();
        // Every proper prefix fails as truncated, never as a panic.
        for cut in 0..bytes.len() {
            assert_eq!(
                DayBatch::decode_from_slice(&bytes[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
        // A short list is reported as truncated even when an earlier
        // record is out of range, as the tuple-vector decode did.
        let mut bad = b.clone();
        bad.records.clear();
        let mut buf = BytesMut::new();
        let header = bad.encode_to_vec();
        buf.extend_from_slice(&header[..header.len() - 4]);
        2u32.encode(&mut buf);
        (5i64, 123.0f64, 4.1f64).encode(&mut buf);
        assert_eq!(DayBatch::decode_from_slice(&buf), Err(WireError::Truncated));
        // A count above the 16 MiB cap is rejected before any read.
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&header[..header.len() - 4]);
        (16 * 1024 * 1024 + 1u32).encode(&mut buf);
        assert_eq!(
            DayBatch::decode_from_slice(&buf),
            Err(WireError::LengthOverflow(16 * 1024 * 1024 + 1))
        );
    }

    #[test]
    fn in_order_ingest_matches_batch_partition() {
        // Two devices, two days, several partial batches — the closed
        // windows must be byte-identical to partitioning the merged dataset.
        let recs: Vec<LocationRecord> = vec![
            rec(1, 10, 4.0),
            rec(1, 400, 4.1),
            rec(1, DAY_SECONDS + 20, 4.2),
            rec(2, 30, 4.3),
            rec(2, DAY_SECONDS + 40, 4.4),
        ];
        let dataset = Dataset::from_records(recs.clone());
        let baseline = WindowedDataset::partition(&dataset);

        let mut hive = Collector::new();
        hive.register(1, UserId(1));
        hive.register(2, UserId(2));
        // Device 1 splits day 0 over two batches.
        let deliveries = [
            frame(1, 1, &batch(1, 1, 0, false, vec![recs[0]])),
            frame(1, 2, &batch(1, 1, 0, true, vec![recs[1]])),
            frame(2, 1, &batch(2, 2, 0, true, vec![recs[3]])),
            frame(1, 3, &batch(1, 1, 1, true, vec![recs[2]])),
            frame(2, 2, &batch(2, 2, 1, true, vec![recs[4]])),
        ];
        for f in &deliveries {
            hive.ingest(f).unwrap();
        }
        for expected in &baseline {
            let (window, delta) = hive.close_day(expected.day()).unwrap();
            assert!(delta.is_clean(), "clean run: {delta}");
            assert_eq!(
                window_fingerprint(&window),
                window_fingerprint(expected),
                "day {} must be byte-identical",
                expected.day()
            );
        }
    }

    #[test]
    fn duplicates_and_reordering_are_absorbed() {
        let mut hive = Collector::new();
        hive.register(1, UserId(1));
        let b1 = batch(1, 1, 0, false, vec![rec(1, 10, 4.0)]);
        let b2 = batch(1, 1, 0, true, vec![rec(1, 20, 4.1)]);
        // Out of order: seq 2 first (buffered), then seq 1 (releases both),
        // then seq 1 again (duplicate) and seq 2 again (duplicate).
        let ack = hive.ingest(&frame(1, 2, &b2)).unwrap();
        assert_eq!(ack.cumulative, 0, "gapped frame must not advance");
        hive.ingest(&frame(1, 1, &b1)).unwrap();
        let ack = hive.ingest(&frame(1, 1, &b1)).unwrap();
        assert_eq!(ack.cumulative, 2);
        hive.ingest(&frame(1, 2, &b2)).unwrap();

        let (window, delta) = hive.close_day(0).unwrap();
        assert_eq!(window.record_count(), 2, "each record applied once");
        assert_eq!(delta.batches_applied, 2);
        assert_eq!(delta.batches_duplicate, 2);
        assert!(delta.is_clean());
    }

    #[test]
    fn stragglers_quarantine_into_the_next_window() {
        let mut hive = Collector::new();
        hive.register(1, UserId(1));
        hive.register(2, UserId(2));
        hive.ingest(&frame(1, 1, &batch(1, 1, 0, true, vec![rec(1, 10, 4.0)])))
            .unwrap();
        // Device 2 is partitioned: nothing arrives before the close.
        let (w0, d0) = hive.close_day(0).unwrap();
        assert_eq!(w0.record_count(), 1);
        assert_eq!(d0.straggler_devices, 1);
        assert!(!d0.is_clean());

        // The partition heals: device 2's day-0 data arrives late, together
        // with both devices' day-1 data.
        hive.ingest(&frame(2, 1, &batch(2, 2, 0, true, vec![rec(2, 30, 4.3)])))
            .unwrap();
        hive.ingest(&frame(
            1,
            2,
            &batch(1, 1, 1, true, vec![rec(1, DAY_SECONDS + 5, 4.1)]),
        ))
        .unwrap();
        hive.ingest(&frame(
            2,
            2,
            &batch(2, 2, 1, true, vec![rec(2, DAY_SECONDS + 6, 4.4)]),
        ))
        .unwrap();
        let (w1, d1) = hive.close_day(1).unwrap();
        assert_eq!(d1.records_quarantined, 1, "{d1}");
        assert_eq!(d1.records, 2);
        assert_eq!(d1.straggler_devices, 0);
        // The quarantined day-0 record leads user 2's window-1 trajectory.
        let u2 = &w1.dataset().trajectories_of(UserId(2))[0];
        assert_eq!(u2.records()[0].time.seconds(), 30);
        assert_eq!(u2.len(), 2);
        assert!(hive.close_day(1).is_err(), "days close exactly once");
    }

    #[test]
    fn gapped_chunks_count_as_deferred_at_close() {
        let mut hive = Collector::new();
        hive.register(1, UserId(1));
        // seq 1 never arrives before the close; seq 2 sits gapped.
        hive.ingest(&frame(
            1,
            2,
            &batch(1, 1, 0, true, vec![rec(1, 40, 4.0), rec(1, 50, 4.1)]),
        ))
        .unwrap();
        let (w0, d0) = hive.close_day(0).unwrap();
        assert_eq!(w0.record_count(), 0);
        assert_eq!(d0.records_deferred, 2);
        assert!(hive.has_backlog());
        // The gap fills after the close → both records quarantine next day.
        hive.ingest(&frame(1, 1, &batch(1, 1, 0, false, Vec::new())))
            .unwrap();
        let (_, d1) = hive.close_day(1).unwrap();
        assert_eq!(d1.records_quarantined, 2);
    }

    #[test]
    fn unknown_devices_and_misrouted_batches_are_rejected() {
        let mut hive = Collector::new();
        hive.register(1, UserId(1));
        let err = hive
            .ingest(&frame(9, 1, &batch(9, 9, 0, false, Vec::new())))
            .unwrap_err();
        assert_eq!(err, CollectError::UnknownDevice(9));
        // A batch claiming device 2 arriving on device 1's lane.
        let err = hive
            .ingest(&frame(1, 1, &batch(2, 1, 0, false, Vec::new())))
            .unwrap_err();
        assert!(matches!(
            err,
            CollectError::Misrouted {
                lane: 1,
                claimed: 2
            }
        ));
    }

    #[test]
    fn outbox_stages_partial_and_final_batches_and_survives_crashes() {
        let recs = vec![
            rec(1, 100, 4.0),
            rec(1, 200, 4.1),
            rec(1, DAY_SECONDS + 10, 4.2),
        ];
        let mut outbox = DeviceOutbox::new(1, UserId(1), ReliableConfig::default(), recs);
        // Mid-day tick: only the first fix is due → one partial batch.
        assert_eq!(outbox.stage(150), 1);
        // Next day: finalize day 0 (remaining fix) + partial for day 1.
        assert_eq!(outbox.stage(DAY_SECONDS + 20), 2);
        let txs = outbox.sender_mut().poll(0);
        assert_eq!(txs.len(), 3);
        let b0 = DayBatch::decode_from_slice(&txs[0].frame.chunk).unwrap();
        assert!(!b0.end_of_day);
        let b1 = DayBatch::decode_from_slice(&txs[1].frame.chunk).unwrap();
        assert!(b1.end_of_day);
        assert_eq!(b1.records.len(), 1);

        // Crash: in-flight requeues; retransmissions resume from seq 1.
        outbox.sender_mut().crash();
        let again = outbox.sender_mut().poll(10_000);
        assert_eq!(again.len(), 3);
        assert_eq!(again[0].frame.seq, 1);
        assert!(!outbox.drained(1));
        // Day 1 closes with no further fixes → one empty final batch.
        assert_eq!(outbox.stage(2 * DAY_SECONDS), 1);
        let last = outbox.sender_mut().poll(20_000);
        let fin = DayBatch::decode_from_slice(&last.last().unwrap().frame.chunk).unwrap();
        assert!(fin.end_of_day && fin.day == 1);
    }

    #[test]
    fn empty_final_batches_complete_silent_days() {
        // A device with no fixes at all still closes every elapsed day, so
        // it never counts as a straggler.
        let mut outbox = DeviceOutbox::new(1, UserId(1), ReliableConfig::default(), Vec::new());
        assert_eq!(outbox.stage(2 * DAY_SECONDS), 2);
        let mut hive = Collector::new();
        hive.register(1, UserId(1));
        for tx in outbox.sender_mut().poll(0) {
            let ack = hive.ingest(&tx.frame).unwrap();
            outbox.sender_mut().on_ack(&ack, 1);
        }
        let (w, d) = hive.close_day(0).unwrap();
        assert_eq!(w.record_count(), 0);
        assert_eq!(d.straggler_devices, 0);
        assert!(outbox.drained(1));
    }
}
