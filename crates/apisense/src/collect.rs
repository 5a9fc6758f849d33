//! Reliable device→Hive ingestion: the platform's `collect` endpoint.
//!
//! Devices upload their sensed location records as per-day [`DayBatch`]
//! chunks over the at-least-once transport of [`simnet::reliable`]. The
//! network may drop, duplicate, reorder, partition or crash-restart — so the
//! Hive-side [`Collector`] must turn that chaos back into the clean,
//! strictly-ascending day-window stream the PRIVAPI publication pipeline
//! demands ([`privapi::streaming::Session::advance`] rejects any
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
//! # Wire format
//!
//! Batches are small: their headers are varints, and their records travel
//! in one compact, lossless layout (`encode_records`, shared with
//! [`crate::federated::ProtectedBatch`]): the first fix in full, then per
//! fix a Gorilla-style delta-of-delta time (one bit at a steady sampling
//! period) and each coordinate's bits XOR'd with the previous fix's. Every
//! bit comes back, so byte-parity of the published windows is unaffected;
//! [`window_fingerprint`] keeps its own fixed-width layout regardless. A
//! chunk is encoded once, straight from the outbox's records, and then
//! shared, not copied, up to the collector's decode. DESIGN.md §3.14 has
//! the layout table and the decoder's bounds.
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

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mobility::{
    Dataset, DatasetWindow, LocationRecord, Timestamp, Trajectory, UserId, DAY_SECONDS,
};
use privapi::streaming::IngestDelta;
use simnet::reliable::{AckFrame, DataFrame, ReliableConfig, ReliableReceiver, ReliableSender};
use simnet::wire::{
    get_varint, get_varint_len, put_varint, unzigzag, zigzag, Decode, Encode, WireError,
};
use std::collections::BTreeMap;
use std::ops::Range;

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
    /// `device | user | day` as varints (the day zigzagged), the
    /// `end_of_day` byte, then the records (see the module docs).
    fn encode(&self, buf: &mut BytesMut) {
        put_day_batch_header(buf, self.device, self.user, self.day, self.end_of_day);
        encode_records(&self.records, buf);
    }
}

/// The header of a [`DayBatch`]: everything before its records.
fn put_day_batch_header(buf: &mut BytesMut, device: u64, user: UserId, day: i64, eod: bool) {
    put_varint(buf, device);
    put_varint(buf, user.0);
    put_varint(buf, zigzag(day));
    eod.encode(buf);
}

impl Decode for DayBatch {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let device = get_varint(buf)?;
        let user = UserId(get_varint(buf)?);
        let day = unzigzag(get_varint(buf)?);
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

/// Appends `records` in the compact, lossless record layout that
/// [`DayBatch`] and [`crate::federated::ProtectedBatch`] share:
///
/// * the record count as a varint;
/// * the first fix: its time as a zigzag varint, then its latitude and
///   longitude bits as two big-endian `u64`s;
/// * every later fix in one bit stream, zero-padded to a whole byte:
///   - the time as a delta of the previous delta (the first delta counts
///     from 0), zigzagged into the buckets of [`TIME_BUCKETS`]: a repeat of
///     the previous sampling period costs the single bit `0`;
///   - latitude, then longitude, as their bits XOR'd with the previous
///     fix's ([`XorColumn`]).
///
/// Time arithmetic wraps, so any `i64` sequence, sorted or not, comes back
/// bit for bit.
pub(crate) fn encode_records(records: &[LocationRecord], buf: &mut BytesMut) {
    put_varint(buf, records.len() as u64);
    let Some((first, rest)) = records.split_first() else {
        return;
    };
    let (lat, lon) = (
        first.point.latitude().to_bits(),
        first.point.longitude().to_bits(),
    );
    put_varint(buf, zigzag(first.time.seconds()));
    buf.put_u64(lat);
    buf.put_u64(lon);
    let mut time = TimeColumn::new(first.time.seconds());
    let (mut lat, mut lon) = (XorColumn::new(lat), XorColumn::new(lon));
    let mut bits = BitWriter::new(buf);
    for r in rest {
        time.encode(r.time.seconds(), &mut bits);
        lat.encode(r.point.latitude(), &mut bits);
        lon.encode(r.point.longitude(), &mut bits);
    }
    bits.finish();
}

/// Bytes of the first fix at the least: a one-byte time and two
/// coordinates.
const FIRST_RECORD_MIN_BYTES: u64 = 17;

/// Reads what [`encode_records`] wrote, attributing every record to
/// `user`. The count is checked before anything is allocated for it:
/// above the 16 MiB cap it is [`WireError::LengthOverflow`], beyond what
/// the remaining bytes can hold (17 bytes for the first fix, three bits for
/// each later one) it is [`WireError::Truncated`]. Then the records decode
/// in order; a short read is `Truncated`, and an out-of-range coordinate,
/// a malformed XOR window or nonzero padding is [`WireError::Corrupt`].
pub(crate) fn decode_records(
    buf: &mut Bytes,
    user: UserId,
) -> Result<Vec<LocationRecord>, WireError> {
    let len = get_varint_len(buf)?;
    if len == 0 {
        return Ok(Vec::new());
    }
    let min_bits = 8 * FIRST_RECORD_MIN_BYTES + 3 * (len as u64 - 1);
    if (buf.len() as u64) * 8 < min_bits {
        return Err(WireError::Truncated);
    }
    let t0 = unzigzag(get_varint(buf)?);
    let (lat, lon) = (u64::decode(buf)?, u64::decode(buf)?);
    let mut records = Vec::with_capacity(len);
    records.push(record(user, t0, f64::from_bits(lat), f64::from_bits(lon))?);
    let mut time = TimeColumn::new(t0);
    let (mut lat, mut lon) = (XorColumn::new(lat), XorColumn::new(lon));
    let mut bits = BitReader::new(buf.as_slice());
    for _ in 1..len {
        let t = time.decode(&mut bits)?;
        let (lat, lon) = (lat.decode(&mut bits)?, lon.decode(&mut bits)?);
        records.push(record(user, t, lat, lon)?);
    }
    let used = bits.finish()?;
    buf.advance(used);
    Ok(records)
}

fn record(user: UserId, t: i64, lat: f64, lon: f64) -> Result<LocationRecord, WireError> {
    let point = geo::GeoPoint::new(lat, lon)
        .map_err(|_| WireError::Corrupt("record coordinates out of range"))?;
    Ok(LocationRecord::new(user, Timestamp::new(t), point))
}

/// Delta-of-delta buckets after the `0` of an unchanged delta: prefix,
/// prefix length and payload width in bits. The payload is the zigzagged
/// delta of deltas; the last bucket holds any `u64`.
const TIME_BUCKETS: [(u64, u32, u32); 4] = [
    (0b10, 2, 7),
    (0b110, 3, 9),
    (0b1110, 4, 12),
    (0b1111, 4, 64),
];

/// The time column's state: the previous time and the previous delta.
struct TimeColumn {
    prev: i64,
    delta: i64,
}

impl TimeColumn {
    fn new(first: i64) -> Self {
        Self {
            prev: first,
            delta: 0,
        }
    }

    fn encode(&mut self, t: i64, bits: &mut BitWriter<'_>) {
        let delta = t.wrapping_sub(self.prev);
        let dod = zigzag(delta.wrapping_sub(self.delta));
        (self.prev, self.delta) = (t, delta);
        if dod == 0 {
            return bits.put(0, 1);
        }
        let &(prefix, len, width) = TIME_BUCKETS
            .iter()
            .find(|&&(_, _, width)| width == 64 || dod >> width == 0)
            .expect("the last bucket holds any u64");
        bits.put(prefix, len);
        bits.put(dod, width);
    }

    fn decode(&mut self, bits: &mut BitReader<'_>) -> Result<i64, WireError> {
        // The bucket is the number of leading ones in the next four bits.
        let ones = (bits.peek(4) << 60).leading_ones() as usize;
        let dod = match ones.checked_sub(1) {
            None => {
                bits.skip(1)?;
                0
            }
            Some(bucket) => {
                let (_, len, width) = TIME_BUCKETS[bucket];
                bits.skip(len)?;
                unzigzag(bits.read_wide(width)?)
            }
        };
        self.delta = self.delta.wrapping_add(dod);
        self.prev = self.prev.wrapping_add(self.delta);
        Ok(self.prev)
    }
}

/// One coordinate column, Gorilla-style: each value's bits are XOR'd with
/// the previous value's.
///
/// * `0` — the same value again;
/// * `10` — the XOR's set bits fit the current window (its leading- and
///   trailing-zero counts); the window's bits follow;
/// * `11` — a new window: 5 bits of leading zeros (at most 31), 6 bits of
///   width minus one, then that many bits.
///
/// The encoder reuses the window whenever the XOR fits it and reusing costs
/// at most the 11 bits a new window's description would.
struct XorColumn {
    prev: u64,
    lead: u32,
    trail: u32,
}

impl XorColumn {
    /// A column after a first value of bits `first`. There is no window
    /// yet: its width is 0, which no nonzero XOR fits.
    fn new(first: u64) -> Self {
        Self {
            prev: first,
            lead: 64,
            trail: 0,
        }
    }

    fn width(&self) -> u32 {
        64 - self.lead - self.trail
    }

    fn encode(&mut self, v: f64, bits: &mut BitWriter<'_>) {
        let xor = v.to_bits() ^ self.prev;
        self.prev = v.to_bits();
        if xor == 0 {
            return bits.put(0, 1);
        }
        let (lead, trail) = (xor.leading_zeros().min(31), xor.trailing_zeros());
        let width = 64 - lead - trail;
        if lead >= self.lead && trail >= self.trail && self.width() <= width + 11 {
            bits.put(0b10, 2);
        } else {
            (self.lead, self.trail) = (lead, trail);
            bits.put(0b11 << 11 | u64::from(lead) << 6 | u64::from(width - 1), 13);
        }
        bits.put(xor >> self.trail, self.width());
    }

    fn decode(&mut self, bits: &mut BitReader<'_>) -> Result<f64, WireError> {
        match bits.peek(2) {
            0b10 => {
                bits.skip(2)?;
                if self.width() == 0 {
                    return Err(WireError::Corrupt("XOR window reused before one was set"));
                }
            }
            0b11 => {
                let head = bits.read(13)?;
                let lead = (head >> 6 & 31) as u32;
                let width = (head & 63) as u32 + 1;
                if lead + width > 64 {
                    return Err(WireError::Corrupt("XOR window wider than 64 bits"));
                }
                (self.lead, self.trail) = (lead, 64 - lead - width);
            }
            _ => {
                bits.skip(1)?;
                return Ok(f64::from_bits(self.prev));
            }
        }
        self.prev ^= bits.read_wide(self.width())? << self.trail;
        Ok(f64::from_bits(self.prev))
    }
}

/// Packs bit fields most significant bit first, flushing whole 64-bit
/// words into the buffer.
struct BitWriter<'a> {
    buf: &'a mut BytesMut,
    /// Pending bits, left-aligned.
    acc: u64,
    /// How many bits of `acc` are pending (always below 64).
    filled: u32,
}

impl<'a> BitWriter<'a> {
    fn new(buf: &'a mut BytesMut) -> Self {
        Self {
            buf,
            acc: 0,
            filled: 0,
        }
    }

    /// Appends the low `n` bits of `value` (`1 <= n <= 64`; the bits above
    /// them must be zero).
    fn put(&mut self, value: u64, n: u32) {
        debug_assert!((1..=64).contains(&n) && (n == 64 || value >> n == 0));
        let free = 64 - self.filled;
        if n < free {
            self.acc |= value << (free - n);
            self.filled += n;
        } else {
            let spill = n - free;
            self.buf.put_u64(self.acc | value >> spill);
            self.acc = value.checked_shl(64 - spill).unwrap_or(0);
            self.filled = spill;
        }
    }

    /// Flushes the pending bits, zero-padded to a whole byte.
    fn finish(self) {
        let bytes = self.filled.div_ceil(8) as usize;
        self.buf.put_slice(&self.acc.to_be_bytes()[..bytes]);
    }
}

/// Reads the bit fields of a [`BitWriter`] a whole word at a time.
struct BitReader<'a> {
    data: &'a [u8],
    /// Bits consumed so far.
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// The next `n` bits (`1 <= n <= 57`) without consuming them; bits past
    /// the end read as zero.
    fn peek(&self, n: u32) -> u64 {
        let at = self.pos / 8;
        let word = match self.data.get(at..at + 8) {
            Some(word) => u64::from_be_bytes(word.try_into().expect("eight bytes")),
            None => {
                let mut word = [0u8; 8];
                let tail = self.data.get(at..).unwrap_or_default();
                word[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(word)
            }
        };
        (word << (self.pos % 8)) >> (64 - n)
    }

    /// Consumes `n` bits.
    fn skip(&mut self, n: u32) -> Result<(), WireError> {
        let pos = self.pos + n as usize;
        if pos > self.data.len() * 8 {
            return Err(WireError::Truncated);
        }
        self.pos = pos;
        Ok(())
    }

    /// Reads `n` bits (`1 <= n <= 57`).
    fn read(&mut self, n: u32) -> Result<u64, WireError> {
        let v = self.peek(n);
        self.skip(n)?;
        Ok(v)
    }

    /// Reads `n` bits (`1 <= n <= 64`).
    fn read_wide(&mut self, n: u32) -> Result<u64, WireError> {
        if n <= 57 {
            return self.read(n);
        }
        let high = self.read(n - 32)?;
        Ok(high << 32 | self.read(32)?)
    }

    /// The bytes the fields took, after checking that the padding of the
    /// last one is zero.
    fn finish(self) -> Result<usize, WireError> {
        let pad = (8 - self.pos % 8) % 8;
        if pad > 0 && self.peek(pad as u32) != 0 {
            return Err(WireError::Corrupt("nonzero padding after the record bits"));
        }
        Ok(self.pos.div_ceil(8))
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
    pub(crate) fn buffered_chunks(&self) -> impl Iterator<Item = &Bytes> {
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
    /// The chunks one frame releases, reused from frame to frame.
    released: Vec<(u64, Bytes)>,
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
            released: Vec::new(),
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
        let ack = lane.rx.accept(
            frame.sender,
            frame.seq,
            frame.chunk.clone(),
            &mut self.released,
        );
        let mut result = Ok(ack);
        for (_seq, chunk) in self.released.drain(..) {
            if let Err(e) = apply(&mut self.payload, device, lane, self.last_closed, chunk) {
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

/// Applies one in-sequence chunk of `device`'s lane: decode (the chunk
/// must end with its batch), check the claimed device and owner, hand the
/// batch to the payload and advance the lane's completion watermark.
fn apply<P: LanePayload>(
    payload: &mut P,
    device: u64,
    lane: &mut Lane,
    last_closed: Option<i64>,
    chunk: Bytes,
) -> Result<(), CollectError> {
    let batch = P::Batch::decode_exact(chunk)?;
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
        // Each run of one user's records of one day takes one bucket
        // lookup, in application order.
        let runs = batch
            .records
            .chunk_by(|a, b| a.user == b.user && a.time.day_index() == b.time.day_index());
        for run in runs {
            let (user, day) = (run[0].user, run[0].time.day_index());
            if last_closed.is_some_and(|closed| day <= closed) {
                self.quarantine
                    .entry(user)
                    .or_default()
                    .extend_from_slice(run);
                quarantined_here += run.len() as u64;
            } else {
                let bucket = self.open.entry(day).or_default().entry(user).or_default();
                bucket.extend_from_slice(run);
            }
        }
        self.quarantined_records += quarantined_here;
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
            .filter_map(|chunk| DayBatch::decode_exact(chunk.clone()).ok())
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
    /// Reused encoding buffer: each chunk is encoded here, then copied
    /// once into its own exactly sized buffer.
    scratch: BytesMut,
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
            scratch: BytesMut::new(),
        }
    }

    /// Encodes one chunk with `encode`, which sees the schedule's records,
    /// and enqueues it; returns the chunk's length.
    pub(crate) fn enqueue(
        &mut self,
        encode: impl FnOnce(&[LocationRecord], &mut BytesMut),
    ) -> usize {
        self.scratch.clear();
        encode(&self.records, &mut self.scratch);
        self.tx.enqueue(Bytes::copy_from_slice(&self.scratch));
        self.scratch.len()
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

    /// Moves the cursor past the records `keep` accepts; returns their
    /// range.
    fn take_records(&mut self, keep: impl Fn(Timestamp) -> bool) -> Range<usize> {
        let records = &self.schedule.records;
        let start = self.cursor;
        while self.cursor < records.len() && keep(records[self.cursor].time) {
            self.cursor += 1;
        }
        start..self.cursor
    }

    /// Encodes the schedule's `records` as one [`DayBatch`] chunk, straight
    /// from the slice, and enqueues it.
    fn enqueue_batch(&mut self, day: i64, end_of_day: bool, records: Range<usize>) {
        let (device, user) = (self.schedule.device, self.schedule.user);
        self.schedule.enqueue(|all, buf| {
            put_day_batch_header(buf, device, user, day, end_of_day);
            encode_records(&all[records], buf);
        });
    }
}

/// A canonical byte encoding of a window — two windows are *byte-identical*
/// exactly when their fingerprints are equal. Used by the chaos tests to
/// state the headline invariant: published windows under faults equal the
/// fault-free run's, byte for byte.
///
/// The layout is fixed-width and independent of the wire codec, so the
/// fingerprints (and every digest built on them) stay comparable across
/// wire changes: `day:i64 | trajectories:u64`, then per trajectory
/// `user:u64 | records:u32` and per record `time:i64 | lat:f64 | lon:f64`,
/// all big-endian.
pub fn window_fingerprint(window: &DatasetWindow) -> Vec<u8> {
    let mut buf = BytesMut::new();
    window.day().encode(&mut buf);
    (window.dataset().trajectory_count() as u64).encode(&mut buf);
    for traj in window.dataset().trajectories() {
        traj.user().0.encode(&mut buf);
        (traj.len() as u32).encode(&mut buf);
        for r in traj.records() {
            buf.put_i64(r.time.seconds());
            buf.put_f64(r.point.latitude());
            buf.put_f64(r.point.longitude());
        }
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
            chunk: Bytes::from(batch.encode_to_vec()),
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

    /// A day batch header, then a record block whose first fix is
    /// `(5, lat0, 4.1)` and whose later fixes are `later`, written field by
    /// field so the coordinates may be out of range.
    fn hand_encoded(count: u64, lat0: f64, later: &[(i64, f64, f64)]) -> Bytes {
        let mut buf = BytesMut::new();
        put_day_batch_header(&mut buf, 3, UserId(9), 0, false);
        put_varint(&mut buf, count);
        put_varint(&mut buf, zigzag(5));
        buf.put_f64(lat0);
        buf.put_f64(4.1);
        let mut time = TimeColumn::new(5);
        let (mut lat, mut lon) = (
            XorColumn::new(lat0.to_bits()),
            XorColumn::new(4.1f64.to_bits()),
        );
        let mut bits = BitWriter::new(&mut buf);
        for &(t, la, lo) in later {
            time.encode(t, &mut bits);
            lat.encode(la, &mut bits);
            lon.encode(lo, &mut bits);
        }
        bits.finish();
        buf.freeze()
    }

    #[test]
    fn corrupt_coordinates_are_a_typed_wire_error() {
        // Sanity: the hand encoder writes what `encode_records` writes.
        let valid = batch(3, 9, 0, false, vec![rec(9, 5, 4.1), rec(9, 65, 4.1)]);
        let mut bytes = hand_encoded(2, 45.0, &[(65, 45.0, 4.1)]);
        assert_eq!(bytes.to_vec(), valid.encode_to_vec());
        assert_eq!(DayBatch::decode(&mut bytes), Ok(valid));
        // Out of range in the raw first fix, and in an XOR-coded later one.
        for bad in [
            hand_encoded(1, 123.0, &[]),
            hand_encoded(2, 45.0, &[(65, -90.5, 4.1)]),
            hand_encoded(2, 45.0, &[(65, 45.0, f64::NAN)]),
        ] {
            let err = DayBatch::decode(&mut bad.clone()).unwrap_err();
            assert!(matches!(err, WireError::Corrupt(_)), "{err}");
        }
    }

    /// `n` fixes one minute apart along a slow walk, with a jittered
    /// sample every seventh fix.
    fn walk(n: i64) -> Vec<LocationRecord> {
        (0..n)
            .map(|i| {
                rec(
                    9,
                    60 * i + (i % 7 == 3) as i64 * 13,
                    -179.5 + 1e-3 * i as f64,
                )
            })
            .collect()
    }

    #[test]
    fn record_lists_roundtrip_in_both_batch_types() {
        // 1 500 records: well past any small preallocation.
        for n in [0, 1, 3, 1_500] {
            let records = walk(n);
            let b = batch(3, 9, 0, n % 2 == 1, records.clone());
            let bytes = b.encode_to_vec();
            assert_eq!(DayBatch::decode_from_slice(&bytes).unwrap(), b);

            let p = ProtectedBatch {
                device: 3,
                user: UserId(9),
                version: 2,
                day: 0,
                end_of_day: true,
                had_data: n > 0,
                records,
            };
            let protected = p.encode_to_vec();
            assert_eq!(ProtectedBatch::decode_from_slice(&protected).unwrap(), p);
            // The two batch types share the record block byte for byte:
            // only their headers (4 bytes here, 6 protected) differ.
            assert_eq!(bytes[4..], protected[6..], "{n} records");
        }
        // A steady walk costs a fraction of the 24 bytes a fixed-width
        // (time, latitude, longitude) tuple takes.
        let long = batch(3, 9, 0, true, walk(1_500)).encode_to_vec();
        assert!(long.len() < 1_500 * 12, "{} bytes", long.len());
    }

    #[test]
    fn window_fingerprint_keeps_its_fixed_layout() {
        let window = DatasetWindow::from_parts(
            1,
            Dataset::from_records(vec![
                rec(2, 86_400, 4.5),
                rec(7, 86_460, -0.0),
                rec(7, 86_520, 180.0),
            ]),
        );
        let golden = "0000000000000001\
                      0000000000000002\
                      0000000000000002 00000001\
                      0000000000015180 4046800000000000 4012000000000000\
                      0000000000000007 00000002\
                      00000000000151bc 4046800000000000 8000000000000000\
                      00000000000151f8 4046800000000000 4066800000000000";
        let hex: String = window_fingerprint(&window)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, golden.replace(' ', ""));
    }

    #[test]
    fn truncated_and_oversized_record_lists_are_typed_wire_errors() {
        let records = walk(40);
        let b = batch(3, 9, 0, true, records.clone());
        let p = ProtectedBatch {
            device: 3,
            user: UserId(9),
            version: 1,
            day: 0,
            end_of_day: true,
            had_data: true,
            records,
        };
        // Every proper prefix fails as truncated, never as a panic.
        let (raw, protected) = (b.encode_to_vec(), p.encode_to_vec());
        for cut in 0..raw.len() {
            let err = DayBatch::decode_from_slice(&raw[..cut]).err();
            assert_eq!(err, Some(WireError::Truncated), "cut at {cut}");
        }
        for cut in 0..protected.len() {
            let err = ProtectedBatch::decode_from_slice(&protected[..cut]).err();
            assert_eq!(err, Some(WireError::Truncated), "protected cut at {cut}");
        }
        // The count is checked against the bytes present before any record
        // decodes: a short block is truncated even when its first fix is
        // out of range.
        let short = hand_encoded(40, 123.0, &[(65, 45.0, 4.1)]);
        assert_eq!(
            DayBatch::decode(&mut short.clone()),
            Err(WireError::Truncated)
        );
        // A count above the 16 MiB cap is rejected before any read.
        let mut buf = BytesMut::new();
        put_day_batch_header(&mut buf, 3, UserId(9), 0, true);
        put_varint(&mut buf, 16 * 1024 * 1024 + 1);
        assert_eq!(
            DayBatch::decode_from_slice(&buf),
            Err(WireError::LengthOverflow(16 * 1024 * 1024 + 1))
        );
        // Nonzero padding bits after the last field are corrupt.
        let two = batch(3, 9, 0, true, vec![rec(9, 5, 4.1), rec(9, 65, 4.1)]);
        let mut bytes = two.encode_to_vec();
        *bytes.last_mut().unwrap() |= 1;
        assert!(matches!(
            DayBatch::decode_from_slice(&bytes),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn bytes_after_a_batch_are_a_typed_wire_error() {
        let b = batch(1, 1, 0, true, vec![rec(1, 10, 4.0), rec(1, 70, 4.1)]);
        let mut padded = b.encode_to_vec();
        padded.push(0);
        let mut twice = b.encode_to_vec();
        twice.extend(b.encode_to_vec());
        for (seq, chunk) in [(1, padded), (2, twice)] {
            let mut hive = Collector::new();
            hive.register(1, UserId(1));
            let chunk = Bytes::from(chunk);
            let err = hive
                .ingest(&DataFrame {
                    sender: 1,
                    seq: 1,
                    chunk,
                })
                .unwrap_err();
            assert!(
                matches!(err, CollectError::Wire(WireError::Corrupt(_))),
                "{seq}: {err}"
            );
            let (window, _) = hive.close_day(0).unwrap();
            assert_eq!(window.record_count(), 0, "a rejected chunk applies nothing");
        }
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
        hive.register(2, UserId(2));
        // seq 1 never arrives before the close; seq 2 sits gapped.
        hive.ingest(&frame(
            1,
            2,
            &batch(1, 1, 0, true, vec![rec(1, 40, 4.0), rec(1, 50, 4.1)]),
        ))
        .unwrap();
        // Device 2's gapped chunk has a byte after its batch: `apply` will
        // reject it as corrupt, so it defers nothing.
        let mut padded = batch(2, 2, 0, true, vec![rec(2, 45, 4.2)]).encode_to_vec();
        padded.push(0);
        hive.ingest(&DataFrame {
            sender: 2,
            seq: 2,
            chunk: Bytes::from(padded),
        })
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
